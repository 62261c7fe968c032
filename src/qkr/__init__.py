"""Desk-scale laboratory for qubit-based quantum key recycling.

Simulates the full prepare-and-measure protocol over noisy and adversarial
qubit channels, and evaluates the associated security bounds, rates, and
key-expenditure arithmetic.
"""

__version__ = "0.1.0"
