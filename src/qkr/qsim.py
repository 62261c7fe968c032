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

A session's rounds call the channel on the basis-symbol and payload
arrays; `transmit` wraps it for `QubitSequence`s.

The two-qubit Pauli twirl that the security proof relies on is checked
with a small density-matrix engine kept with the tests (`tests/density.py`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .primitives import BasisString, BitString, RandomSource

__all__ = ["QubitSequence", "ChannelKind", "ChannelModel", "transmit"]


class QubitSequence:
    """Qubits in flight: qubit i is the payload bit `payload[i]` prepared in
    basis `basis[i]`. Built with `prepare`, which checks equal lengths."""

    __slots__ = ("basis", "payload")

    @classmethod
    def prepare(cls, bases: BasisString, payloads: BitString) -> "QubitSequence":
        if len(bases) != len(payloads):
            raise ValueError("bases and payloads must have equal length")
        seq = object.__new__(cls)
        seq.basis = bases
        seq.payload = payloads
        return seq

    @property
    def payloads(self) -> np.ndarray:
        return self.payload.bits

    def __len__(self) -> int:
        return len(self.basis)


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


def _channel(
    channel: ChannelModel, basis: np.ndarray, alphabet_size: int, payload: np.ndarray,
    src: RandomSource,
) -> np.ndarray:
    """`transmit` on arrays: the payload bits that arrive when the payload
    bits `payload` travel in the basis symbols `basis` over `alphabet_size`,
    as a fresh array; the basis labels arrive unchanged."""
    n = len(payload)
    if channel.kind is ChannelKind.IID_FLIP:
        return np.bitwise_xor(payload, src.bernoulli(channel.gamma, n))
    attacked = src.bernoulli(channel.eta, n)
    eve_bases = src.integers_below(alphabet_size, n)
    coins = src.bit_array(n)
    same_basis = eve_bases == basis
    # Matching basis: the payload survives Eve's measure-and-resend.
    # Mismatched basis: the receiver's matching-basis outcome is uniform.
    return np.where(attacked & ~same_basis, coins, payload)


def transmit(channel: ChannelModel, qubits: QubitSequence, src: RandomSource) -> QubitSequence:
    """Send the qubits through the channel; length and basis labels are
    preserved, only payloads are disturbed."""
    basis = qubits.basis
    payload = _channel(channel, basis.symbols, basis.alphabet_size, qubits.payloads, src)
    return QubitSequence.prepare(basis, BitString._trusted(payload, 2))
