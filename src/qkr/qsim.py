"""Symbolic qubit transmission and a small density-matrix engine.

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

Density matrices appear only in verification utilities (trace distance and
the two-qubit Pauli twirl).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .primitives import BasisString, BitString, RandomSource

__all__ = [
    "QubitSymbol",
    "QubitSequence",
    "ChannelKind",
    "ChannelModel",
    "transmit",
    "apply_error_pattern",
    "DensityMatrix",
    "trace_distance",
    "pauli_twirl",
    "PAULIS",
    "BELL_BASIS",
]


@dataclass(frozen=True)
class QubitSymbol:
    """Single-qubit carrier: preparation basis and encoded payload bit."""

    basis: int
    payload: int


class QubitSequence:
    """Sequence of qubit symbols: a basis string and a payload bit string of
    equal length."""

    __slots__ = ("_bases", "_payloads")

    def __init__(self, bases, payloads, alphabet_size: int):
        self._set(BasisString(bases, alphabet_size), BitString(payloads))

    def _set(self, bases: BasisString, payloads: BitString) -> None:
        if len(bases) != len(payloads):
            raise ValueError("bases and payloads must be equal-length 1-d sequences")
        self._bases = bases
        self._payloads = payloads

    @classmethod
    def prepare(cls, bases: BasisString, payloads: BitString) -> "QubitSequence":
        seq = object.__new__(cls)
        seq._set(bases, payloads)
        return seq

    @classmethod
    def from_symbols(cls, symbols: Iterable[QubitSymbol], alphabet_size: int) -> "QubitSequence":
        symbols = list(symbols)
        return cls(
            [s.basis for s in symbols], [s.payload for s in symbols], alphabet_size
        )

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

    def __getitem__(self, index):
        if isinstance(index, slice):
            return QubitSequence.prepare(self._bases[index], self._payloads[index])
        return QubitSymbol(self._bases[index], self._payloads[index])

    def __iter__(self):
        return (self[i] for i in range(len(self)))


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


_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (_I, _X, _Y, _Z)

# Columns: the four Bell states (|00>+|11>, |00>-|11>, |01>+|10>, |01>-|10>)/sqrt(2).
BELL_BASIS = np.array(
    [
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [0, 0, 1, -1],
        [1, -1, 0, 0],
    ],
    dtype=complex,
) / np.sqrt(2)

_HERMITIAN_TOL = 1e-12
_TRACE_TOL = 1e-12
_PSD_TOL = -1e-10


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix of dimension 2 or 4."""

    __slots__ = ("_entries",)

    def __init__(self, entries):
        a = np.array(entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] not in (2, 4):
            raise ValueError("density matrix must be 2x2 or 4x4")
        if np.max(np.abs(a - a.conj().T)) > _HERMITIAN_TOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        if abs(np.trace(a).real - 1.0) > _TRACE_TOL or abs(np.trace(a).imag) > _TRACE_TOL:
            raise ValueError("matrix trace must equal 1 within tolerance")
        if np.linalg.eigvalsh(a)[0] < _PSD_TOL:
            raise ValueError("matrix is not positive semidefinite within tolerance")
        a.setflags(write=False)
        self._entries = a

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    @classmethod
    def random(cls, src: RandomSource, dim: int) -> "DensityMatrix":
        """Haar-ish random state: normalized G G^dagger for Gaussian G."""
        re = standard_normal_from_uniform(src.floats(dim * dim)).reshape(dim, dim)
        im = standard_normal_from_uniform(src.floats(dim * dim)).reshape(dim, dim)
        g = re + 1j * im
        rho = g @ g.conj().T
        rho = rho / np.trace(rho).real
        return cls(rho)

    @classmethod
    def pure(cls, state: np.ndarray) -> "DensityMatrix":
        v = np.asarray(state, dtype=complex).reshape(-1)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


def standard_normal_from_uniform(u: np.ndarray) -> np.ndarray:
    """Box-Muller on consecutive pairs; deterministic given the stream."""
    if len(u) % 2:
        u = np.append(u, 0.5)
    u1 = np.clip(u[0::2], 1e-12, 1.0)
    u2 = u[1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    out = np.empty(len(u), dtype=np.float64)
    out[0::2] = r * np.cos(2 * np.pi * u2)
    out[1::2] = r * np.sin(2 * np.pi * u2)
    return out


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the sum of absolute eigenvalues of rho - sigma."""
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    eigs = np.linalg.eigvalsh(rho.entries - sigma.entries)
    return float(0.5 * np.sum(np.abs(eigs)))


def pauli_twirl(rho_ab: DensityMatrix) -> DensityMatrix:
    """Average the two-qubit state over conjugation by the four symmetric
    Pauli pairs; the result is diagonal in the Bell basis."""
    if rho_ab.dim != 4:
        raise ValueError("the twirl acts on two-qubit (4x4) states")
    out = np.zeros((4, 4), dtype=complex)
    for sigma in PAULIS:
        op = np.kron(sigma, sigma)
        out += op @ rho_ab.entries @ op
    return DensityMatrix(out / 4.0)
