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

The channel's draws do not depend on what is sent, so a session takes
them for a block of rounds from one draw (`_channel_rows`), row i holding
what the i-th round drawn alone reads, and applies one row per round to
the basis-symbol and payload arrays (`_arrive`). `transmit` and the
intercept-resend report run the same code on one row.

The two-qubit Pauli twirl that the security proof relies on is checked
with a small density-matrix engine kept with the tests (`tests/density.py`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .primitives import BasisString, BitString, RandomSource, _below, _candidates, _word_bits

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


def _row_words(channel: ChannelModel, alphabet_size: int, n: int) -> int:
    """The words one round's channel draws take when Eve's first pass keeps
    n bases: n flip words (iid flip), or n attack words, the first pass's
    chunks and the coins (intercept-resend)."""
    if channel.kind is ChannelKind.IID_FLIP:
        return n
    width = (alphabet_size - 1).bit_length()
    return n + (2 * n * width + 63) // 64 + (n + 63) // 64


def _channel_rows(
    channel: ChannelModel, alphabet_size: int, n: int, rows: int, src: RandomSource
) -> tuple:
    """The channel draws of up to `rows` successive rounds of n qubits, from
    one draw: the flips (iid flip), or whether each qubit is attacked, Eve's
    bases and the receiver's coins (intercept-resend), each with a leading
    axis of rounds. Row i holds what the i-th round reads drawn alone:
    `bernoulli`, then `integers_below` and `bit_array` per round. A round
    whose first pass keeps fewer than n of Eve's bases ends the block: it
    finishes with `integers_below`'s next passes and its coins, and the
    stream stands after them."""
    if channel.kind is ChannelKind.IID_FLIP:
        return (_below(src.raw_words(rows * n).reshape(rows, n), channel.gamma),)
    width = (alphabet_size - 1).bit_length()
    first = (2 * n * width + 63) // 64
    per_row = _row_words(channel, alphabet_size, n)
    mark = src._mark()
    words = src.raw_words(rows * per_row).reshape(rows, per_row)
    attacked = _below(words[:, :n], channel.eta)
    bits = _word_bits(words[:, n:], 64 * first + n)
    coins = bits[:, 64 * first :]
    cand = _candidates(bits[:, : 2 * n * width], 2 * n, width)
    kept = cand < alphabet_size
    short = np.flatnonzero(np.count_nonzero(kept, axis=1) < n)
    full = int(short[0]) if short.size else rows
    # Each round's first n kept candidates, row by row.
    take = kept[:full] & (np.cumsum(kept[:full], axis=1) <= n)
    eve_bases = cand[:full][take].reshape(full, n)
    if full == rows:
        return attacked, eve_bases, coins
    last = np.empty(n, dtype=np.uint8)
    got = cand[full][kept[full]]
    last[: got.size] = got
    src._resume(mark, full * per_row + n + first)
    src._fill_below_bound(alphabet_size, last, got.size)
    rows = full + 1
    return (attacked[:rows], np.vstack([eve_bases, last]),
            np.vstack([coins[:full], src.bit_array(n)]))


def _arrive(channel: ChannelModel, draw, basis: np.ndarray, payload: np.ndarray) -> np.ndarray:
    """The payload bits that arrive, as a fresh array, when the payload bits
    `payload` travel in the basis symbols `basis` and the round's channel
    draws are `draw`, one row of `_channel_rows`; the basis labels arrive
    unchanged."""
    if channel.kind is ChannelKind.IID_FLIP:
        (flips,) = draw
        return np.bitwise_xor(payload, flips)
    attacked, eve_bases, coins = draw
    # Matching basis: the payload survives Eve's measure-and-resend.
    # Mismatched basis: the receiver's matching-basis outcome is uniform.
    return np.where(attacked & (eve_bases != basis), coins, payload)


def _channel(
    channel: ChannelModel, basis: np.ndarray, alphabet_size: int, payload: np.ndarray,
    src: RandomSource,
) -> np.ndarray:
    """`transmit` on arrays: one round of `_channel_rows` and `_arrive`."""
    draws = _channel_rows(channel, alphabet_size, len(payload), 1, src)
    return _arrive(channel, [rows[0] for rows in draws], basis, payload)


def transmit(channel: ChannelModel, qubits: QubitSequence, src: RandomSource) -> QubitSequence:
    """Send the qubits through the channel; length and basis labels are
    preserved, only payloads are disturbed."""
    basis = qubits.basis
    payload = _channel(channel, basis.symbols, basis.alphabet_size, qubits.payloads, src)
    return QubitSequence.prepare(basis, BitString._trusted(payload, 2))
