"""Toy hash instances small enough to enumerate every seed exhaustively.

Input flattenings are rebuilt here by hand (independently of the package's
own encoders) so the enumeration can double as a check on the production
encoding path.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from qkr.hashing import ToeplitzSeed
from qkr.primitives import BasisString, BitString


def bb84_f_toy():
    """n=2, kappa=1, two-letter basis alphabet.

    Both hash components run over GF(2) and consume the same 5-entry input
    (payload bits, basis bits, padding bit). Returns the input matrix and the
    structured (x, b, r) triples in matching order.
    """
    rows, structured = [], []
    for x in product((0, 1), repeat=2):
        for b in product((0, 1), repeat=2):
            for r in product((0, 1), repeat=1):
                rows.append(x + b + r)
                structured.append(
                    (BitString(x), BasisString(b, alphabet_size=2), BitString(r))
                )
    return np.array(rows, dtype=np.int64), structured


def six_state_f_toy():
    """n=2, kappa=1, three-letter basis alphabet.

    The mask component input flattens each basis symbol to two bits
    (0 -> 00, 1 -> 01, 2 -> 10); the basis component input keeps symbols as
    trits. Returns (mask inputs, basis inputs, structured triples).
    """
    mask_rows, basis_rows, structured = [], [], []
    for x in product((0, 1), repeat=2):
        for b in product((0, 1, 2), repeat=2):
            for r in product((0, 1), repeat=1):
                basis_bits = []
                for s in b:
                    basis_bits += [s >> 1, s & 1]
                mask_rows.append(list(x) + basis_bits + list(r))
                basis_rows.append(list(x) + list(b) + list(r))
                structured.append(
                    (BitString(x), BasisString(b, alphabet_size=3), BitString(r))
                )
    return (
        np.array(mask_rows, dtype=np.int64),
        np.array(basis_rows, dtype=np.int64),
        structured,
    )


def six_state_g_toy():
    """n=1, q_bits=1: basis refresh input is one symbol plus one bit."""
    rows, structured = [], []
    for b in (0, 1, 2):
        for q in (0, 1):
            rows.append([b, q])
            structured.append((BasisString([b], alphabet_size=3), BitString([q])))
    return np.array(rows, dtype=np.int64), structured


def seed_from_index(modulus: int, in_len: int, out_len: int, index: int) -> ToeplitzSeed:
    """Rebuild the seed at a given position of the lexicographic enumeration
    used by the exhaustive oracle (diagonal digits, then offset digits,
    leftmost digit most significant)."""
    diag_len = in_len + out_len - 1
    num_off = modulus**out_len
    diag_index, off_index = divmod(index, num_off)

    def digits(value, count):
        out = [0] * count
        for pos in range(count - 1, -1, -1):
            out[pos] = value % modulus
            value //= modulus
        return out

    return ToeplitzSeed(modulus, digits(diag_index, diag_len), digits(off_index, out_len))
