"""Symbolic qubit transmission.

Qubits travel as (basis label, payload bit) symbols; the honest receiver
measures in the matching basis, so channel effects reduce to classical
conditional distributions on the payload:

* iid flip channel: each payload flips independently with probability gamma.
* intercept-resend: with probability eta per qubit the eavesdropper measures
  in a uniformly random basis and resends her outcome. If her basis matches
  the preparation basis the payload survives; otherwise her outcome and the
  receiver's subsequent matching-basis measurement are both uniform, so the
  delivered payload is a fresh coin. The induced error rate is therefore
  eta * (1 - 1/|B|) / 2: 1/4 for two bases, 1/3 for three.

The two-qubit Pauli twirl that the security proof relies on is checked
with a small density-matrix engine kept with the tests (`tests/density.py`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .primitives import BasisString, BitString, RandomSource

__all__ = [
    "QubitSequence",
    "ChannelKind",
    "ChannelModel",
    "transmit",
    "apply_error_pattern",
]


class QubitSequence:
    """Qubits in flight: a basis string and a payload bit string of equal
    length, built with `prepare`."""

    __slots__ = ("_bases", "_payloads")

    @classmethod
    def prepare(cls, bases: BasisString, payloads: BitString) -> "QubitSequence":
        if len(bases) != len(payloads):
            raise ValueError("bases and payloads must have equal length")
        seq = object.__new__(cls)
        seq._bases = bases
        seq._payloads = payloads
        return seq

    @property
    def alphabet_size(self) -> int:
        return self._bases.alphabet_size

    @property
    def bases(self) -> np.ndarray:
        return self._bases.symbols

    @property
    def payloads(self) -> np.ndarray:
        return self._payloads.bits

    def basis_string(self) -> BasisString:
        return self._bases

    def payload_bits(self) -> BitString:
        return self._payloads

    def __len__(self) -> int:
        return len(self._bases)


class ChannelKind(Enum):
    IID_FLIP = "iid_flip"
    INTERCEPT_RESEND = "intercept_resend"


@dataclass(frozen=True)
class ChannelModel:
    """Channel configuration: payload flip rate or per-qubit attack rate.

    gamma up to 1 is accepted so that deterministic-flip checks can run;
    security budgets separately restrict gamma to [0, 1/2).
    """

    kind: ChannelKind
    gamma: float = 0.0
    eta: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")


def transmit(channel: ChannelModel, qubits: QubitSequence, src: RandomSource) -> QubitSequence:
    """Send the qubits through the channel; length and basis labels are
    preserved, only payloads are disturbed."""
    n = len(qubits)
    if channel.kind is ChannelKind.IID_FLIP:
        flips = src.bernoulli(channel.gamma, n)
        payloads = np.bitwise_xor(qubits.payloads, flips.astype(np.uint8))
    else:
        attacked = src.bernoulli(channel.eta, n)
        eve_bases = src.integers_below(qubits.alphabet_size, n)
        coins = src.bit_array(n)
        same_basis = eve_bases == qubits.bases
        # Matching basis: the payload survives Eve's measure-and-resend.
        # Mismatched basis: the receiver's matching-basis outcome is uniform.
        payloads = np.where(attacked & ~same_basis, coins, qubits.payloads)
    return QubitSequence.prepare(qubits.basis_string(), BitString._trusted(payloads, 2))


def apply_error_pattern(qubits: QubitSequence, pattern: BitString) -> QubitSequence:
    """Flip exactly the payload positions set in `pattern` (fault injection
    and permutation-invariance experiments)."""
    if len(pattern) != len(qubits):
        raise ValueError("pattern length must match the qubit count")
    return QubitSequence.prepare(qubits.basis_string(), qubits.payload_bits() ^ pattern)
