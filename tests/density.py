"""A small density-matrix engine for verifying the two-qubit Pauli twirl.

The security proof symmetrizes the joint state with the four symmetric
Pauli pairs, which leaves it diagonal in the Bell basis. No protocol run
needs matrices, so the engine lives with the tests that check the twirl.
"""

from __future__ import annotations

import numpy as np

from qkr.primitives import RandomSource

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
