"""Independent oracles used by the test suite.

Deliberately separate implementations: exhaustive enumerations, literal
definitions, and high-precision arithmetic via mpmath. Tests compare the
production code against these, never the other way around.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np


def p_corr_enumeration(n: int, beta: float, gamma: float) -> float:
    """Decode-success probability by summing the weight of every one of the
    2^n error patterns whose Hamming weight is within the correction radius."""
    t = math.floor(n * beta)
    total = 0.0
    for pattern in range(1 << n):
        w = bin(pattern).count("1")
        if w <= t:
            total += gamma**w * (1.0 - gamma) ** (n - w)
    return total


def entropy_literal(probabilities) -> float:
    """Sum p_i log2(1/p_i) written out directly."""
    return math.fsum(p * math.log2(1.0 / p) for p in probabilities if p > 0.0)


def rate_zero_by_grid_scan(step: float = 1e-5) -> float:
    """Locate the rate's sign change by a dense scan; returns the midpoint of
    the bracketing interval."""
    from qkr.analysis import asymptotic_rate_6state

    g = 0.0
    prev = asymptotic_rate_6state(g)
    while g < 0.5:
        g_next = g + step
        value = asymptotic_rate_6state(g_next)
        if prev > 0.0 >= value:
            return g + 0.5 * step
        g, prev = g_next, value
    raise RuntimeError("no sign change found")


def _h_mp(p):
    if p == 0 or p == 1:
        return mp.mpf(0)
    p = mp.mpf(p)
    return -(p * mp.log(p, 2) + (1 - p) * mp.log(1 - p, 2))


def _h4_mp(gamma):
    g = mp.mpf(gamma)
    probs = [1 - 3 * g / 2, g / 2, g / 2, g / 2]
    return -mp.fsum(p * mp.log(p, 2) for p in probs if p > 0)


def _p_corr_mp(n, beta, gamma):
    t = math.floor(n * beta)
    if gamma == 0:
        return mp.mpf(1)
    g = mp.mpf(gamma)
    return mp.fsum(mp.binomial(n, c) * g**c * (1 - g) ** (n - c) for c in range(t + 1))


def diamond_bound_log2_mp(alpha, tag_bits, n, kappa, gamma, beta, q_bits, dps=60):
    """High-precision recomputation of the distinguishability bound, done in
    plain linear arithmetic; returns log2 of the total."""
    with mp.workdps(dps):
        tag = mp.mpf(2) ** (1 - tag_bits)
        post = mp.mpf(n + 1) ** 15
        reject = post / (2 * mp.sqrt(mp.mpf(2) ** q_bits))
        exponent = (-mp.mpf(kappa) + n * _h4_mp(gamma) - n * _h_mp(gamma)) / 2
        accept_asym = mp.mpf(1) / 2 * mp.mpf(2) ** exponent
        accept = post * min(_p_corr_mp(n, beta, gamma), accept_asym)
        total = tag + reject + accept
        return float(mp.log(total, 2))


def binary_entropy_mp(p, dps=60) -> float:
    with mp.workdps(dps):
        return float(_h_mp(p))


def toeplitz_outputs_all_seeds(
    modulus: int, in_len: int, out_len: int, inputs: np.ndarray
) -> np.ndarray:
    """Evaluate the affine Toeplitz family on every input for every seed.

    Seeds enumerate lexicographically as (diagonal digits, offset digits).
    The transform is recomputed here from the matrix definition
    T[i, j] = diagonal[in_len - 1 + i - j] rather than by convolution.
    Returns an array of shape (num_seeds, num_inputs) whose entries are the
    output tuples collapsed to a base-`modulus` integer.
    """
    diag_len = in_len + out_len - 1
    num_diag = modulus**diag_len
    num_off = modulus**out_len

    digits = np.arange(num_diag, dtype=np.int64)
    diagonals = np.empty((num_diag, diag_len), dtype=np.int64)
    for pos in range(diag_len - 1, -1, -1):
        diagonals[:, pos] = digits % modulus
        digits //= modulus

    raw = np.empty((num_diag, out_len, inputs.shape[0]), dtype=np.int64)
    for i in range(out_len):
        window = diagonals[:, i : in_len + i][:, ::-1]
        raw[:, i, :] = window @ inputs.T.astype(np.int64)

    off_digits = np.arange(num_off, dtype=np.int64)
    offsets = np.empty((num_off, out_len), dtype=np.int64)
    for pos in range(out_len - 1, -1, -1):
        offsets[:, pos] = off_digits % modulus
        off_digits //= modulus

    weights = modulus ** np.arange(out_len - 1, -1, -1, dtype=np.int64)
    outputs = np.empty((num_diag * num_off, inputs.shape[0]), dtype=np.int64)
    for k in range(num_off):
        shifted = (raw + offsets[k][None, :, None]) % modulus
        values = np.tensordot(weights, shifted, axes=([0], [1]))
        outputs[k::num_off, :] = values
    return outputs


def pairwise_counts_extrema(outputs: np.ndarray, range_size: int) -> tuple[int, int]:
    """Min and max joint-output count over all ordered input pairs and all
    output pairs; pairwise independence means both equal seeds/range^2."""
    num_seeds, num_in = outputs.shape
    lo, hi = None, None
    for i in range(num_in):
        for j in range(num_in):
            if i == j:
                continue
            combo = outputs[:, i] * range_size + outputs[:, j]
            counts = np.bincount(combo, minlength=range_size**2)
            cmin, cmax = int(counts.min()), int(counts.max())
            lo = cmin if lo is None else min(lo, cmin)
            hi = cmax if hi is None else max(hi, cmax)
    return lo, hi


def bits_to_int_loop(bits) -> int:
    """Most-significant-first bits to an integer, one bit at a time."""
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value


def int_to_bits_loop(value: int, length: int) -> list[int]:
    """The `length` low bits of `value`, most significant first."""
    return [(value >> (length - 1 - i)) & 1 for i in range(length)]


def message_blocks_loop(bits, tag_bits: int) -> list[int]:
    """MAC message blocks: tag_bits-sized chunks, the last zero-padded on the
    right, then the bit length as a final block."""
    blocks = []
    for start in range(0, len(bits), tag_bits):
        chunk = bits[start : start + tag_bits]
        blocks.append(bits_to_int_loop(chunk) << (tag_bits - len(chunk)))
    blocks.append(len(bits) & ((1 << tag_bits) - 1))
    return blocks
