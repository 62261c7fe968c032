"""Pairwise-independent hashing and the information-theoretic MAC.

The two key-update hash families are Toeplitz-affine maps ``T*e + o`` where
the Toeplitz diagonal and the offset are the seed. Over any prime field this
family is exactly pairwise independent: for distinct inputs the joint output
distribution over a uniform seed is uniform on pairs. The protocol's mask
refresh needs a binary output and its basis refresh needs an output over the
basis alphabet, so a seed is a pair of independent components, one over GF(2)
and one over GF(|B|). Inputs are flattened injectively into each component's
alphabet (a three-valued basis symbol becomes two bits, a bit becomes one
residue), which is all pairwise independence requires of the encoding.

Message authentication is a polynomial-evaluation MAC over GF(2^lambda): the
message is split into lambda-bit blocks m_1..m_d, a block holding the bit
length is appended, and the tag is sum m_i * key^i. A substitution forgery
must find a root of a nonzero polynomial of degree <= d+1, so at most
(d+1) * 2^-lambda of the keys accept it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .primitives import BasisString, BitString, RandomSource, TritString, _value_array

__all__ = [
    "REDUCTION_POLYS",
    "gf_mul",
    "polynomial_mac",
    "MacKey",
    "mac_tag",
    "mac_verify",
    "ToeplitzSeed",
    "f_seed_shapes",
    "g_seed_shape",
    "random_f_seed",
    "random_g_seed",
    "hash_F",
    "hash_G",
]

# One reduction polynomial pinned per supported tag length, for bit-exact
# reproducibility across platforms.
REDUCTION_POLYS = {
    8: (1 << 8) | 0x1B,
    64: (1 << 64) | 0x1B,
    128: (1 << 128) | 0x87,
}


def gf_mul(a: int, b: int, tag_bits: int) -> int:
    """Carry-less multiply of two field elements modulo the pinned polynomial."""
    try:
        poly = REDUCTION_POLYS[tag_bits]
    except KeyError:
        raise ValueError(f"no reduction polynomial pinned for tag_bits={tag_bits}") from None
    top = 1 << tag_bits
    res = 0
    while b:
        if b & 1:
            res ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= poly
    return res


def _message_blocks(message: BitString, tag_bits: int) -> list[int]:
    """Split into tag_bits-sized blocks (last one zero-padded on the right),
    then append the bit length as the final block. Every pinned tag length
    is a whole number of bytes."""
    bits = message.bits
    padded = np.zeros(-(-len(bits) // tag_bits) * tag_bits, dtype=np.uint8)
    padded[: len(bits)] = bits
    packed = np.packbits(padded).tobytes()
    width = tag_bits // 8
    blocks = [int.from_bytes(packed[i : i + width], "big") for i in range(0, len(packed), width)]
    blocks.append(len(bits) & ((1 << tag_bits) - 1))
    return blocks


def polynomial_mac(key_value: int, message: BitString, tag_bits: int) -> int:
    """Evaluate sum_{i=1..d+1} m_i * key^i for the blocks of `message`.

    Works for any key value including zero; the zero key maps every message
    to the zero tag, which is why protocol keys are kept nonzero.
    """
    acc = 0
    for block in reversed(_message_blocks(message, tag_bits)):
        acc = block ^ gf_mul(acc, key_value, tag_bits)
    return gf_mul(acc, key_value, tag_bits)


@dataclass(frozen=True)
class MacKey:
    """Nonzero MAC key of a supported tag length."""

    key: BitString

    def __post_init__(self):
        if len(self.key) not in REDUCTION_POLYS:
            raise ValueError(f"unsupported MAC key length {len(self.key)}")
        if self.key.weight() == 0:
            raise ValueError("MAC key must be nonzero")

    @property
    def tag_bits(self) -> int:
        return len(self.key)

    @classmethod
    def from_draw(cls, bits: BitString) -> "MacKey":
        """Build a key from a uniform draw, remapping the single all-zero
        value to all-ones so the draw consumes exactly len(bits) bits."""
        if bits.weight() == 0:
            bits = BitString(np.ones(len(bits), dtype=np.uint8))
        return cls(bits)

    @classmethod
    def random(cls, src: RandomSource, tag_bits: int) -> "MacKey":
        return cls.from_draw(src.bits(tag_bits))


def mac_tag(key: MacKey, message: BitString) -> BitString:
    """Authentication tag of `message` under `key`."""
    value = polynomial_mac(key.key.to_int(), message, key.tag_bits)
    return BitString.from_int(value, key.tag_bits)


def mac_verify(key: MacKey, message: BitString, tag: BitString) -> bool:
    if len(tag) != key.tag_bits:
        raise ValueError(f"tag must have length {key.tag_bits}")
    return mac_tag(key, message) == tag


class ToeplitzSeed:
    """Seed of one Toeplitz-affine hash component over GF(modulus).

    `diagonal` has in_len + out_len - 1 entries and defines the constant
    descending diagonals of the out_len x in_len matrix; `offset` has
    out_len entries.
    """

    __slots__ = ("modulus", "in_len", "out_len", "diagonal", "offset")

    def __init__(self, modulus: int, in_len: int, out_len: int, diagonal, offset):
        if modulus not in (2, 3):
            raise ValueError("modulus must be 2 or 3")
        diag = _value_array(diagonal, modulus, "Toeplitz diagonal")
        off = _value_array(offset, modulus, "Toeplitz offset")
        if diag.shape != (in_len + out_len - 1,):
            raise ValueError("diagonal length must be in_len + out_len - 1")
        if off.shape != (out_len,):
            raise ValueError("offset length must be out_len")
        self.modulus = modulus
        self.in_len = in_len
        self.out_len = out_len
        self.diagonal = diag
        self.offset = off

    @classmethod
    def random(cls, src: RandomSource, modulus: int, in_len: int, out_len: int) -> "ToeplitzSeed":
        total = in_len + out_len - 1
        if modulus == 2:
            diag = src.bit_array(total)
            off = src.bit_array(out_len)
        else:
            diag = src.integers_below(modulus, total)
            off = src.integers_below(modulus, out_len)
        return cls(modulus, in_len, out_len, diag, off)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Matrix-vector product plus offset, reduced modulo the field size."""
        values = np.asarray(values, dtype=np.int64)
        if values.shape != (self.in_len,):
            raise ValueError(f"input length {values.shape} does not match in_len={self.in_len}")
        conv = np.convolve(self.diagonal.astype(np.int64), values, mode="valid")
        return ((conv + self.offset) % self.modulus).astype(np.uint8)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ToeplitzSeed)
            and self.modulus == other.modulus
            and self.in_len == other.in_len
            and self.out_len == other.out_len
            and np.array_equal(self.diagonal, other.diagonal)
            and np.array_equal(self.offset, other.offset)
        )

    def __repr__(self) -> str:
        return f"ToeplitzSeed(modulus={self.modulus}, in_len={self.in_len}, out_len={self.out_len})"

    def to_json(self) -> dict:
        if self.modulus == 2:
            diagonal = BitString(self.diagonal).to_hex()
            offset = BitString(self.offset).to_hex()
        else:
            diagonal = TritString(self.diagonal).to_text()
            offset = TritString(self.offset).to_text()
        return {
            "modulus": self.modulus,
            "in_len": self.in_len,
            "out_len": self.out_len,
            "diagonal": diagonal,
            "offset": offset,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ToeplitzSeed":
        in_len, out_len = data["in_len"], data["out_len"]
        if data["modulus"] == 2:
            diag = BitString.from_hex(data["diagonal"], in_len + out_len - 1).bits
            off = BitString.from_hex(data["offset"], out_len).bits
        else:
            diag = TritString.from_text(data["diagonal"]).trits
            off = TritString.from_text(data["offset"]).trits
        return cls(data["modulus"], in_len, out_len, diag, off)


def _basis_bits(b: BasisString) -> np.ndarray:
    """Flatten basis symbols to bits: one bit per symbol for a two-letter
    alphabet, two bits (00/01/10) per symbol for the three-letter one."""
    if b.alphabet_size == 2:
        return b.symbols
    sym = b.symbols
    return np.column_stack((sym >> 1, sym & 1)).ravel().astype(np.uint8)


def _mask_input(x: BitString, b: BasisString, r: BitString) -> np.ndarray:
    return np.concatenate([x.bits, _basis_bits(b), r.bits])


def _basis_component_input(x: BitString, b: BasisString, r: BitString) -> np.ndarray:
    # Bits are valid residues in either field, so the flattening is the
    # identity on them; basis symbols pass through unchanged.
    return np.concatenate([x.bits, b.symbols, r.bits])


def f_seed_shapes(n: int, kappa: int, alphabet_size: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(in_len, out_len) of the mask component and the basis component."""
    bits_per_symbol = 1 if alphabet_size == 2 else 2
    return (n + n * bits_per_symbol + kappa, n), (2 * n + kappa, n)


def g_seed_shape(n: int, q_bits: int) -> tuple[int, int]:
    return (n + q_bits, n)


def random_f_seed(
    src: RandomSource, n: int, kappa: int, alphabet_size: int
) -> tuple[ToeplitzSeed, ToeplitzSeed]:
    (in2, out2), (in_m, out_m) = f_seed_shapes(n, kappa, alphabet_size)
    return (
        ToeplitzSeed.random(src, 2, in2, out2),
        ToeplitzSeed.random(src, alphabet_size, in_m, out_m),
    )


def random_g_seed(src: RandomSource, n: int, q_bits: int, alphabet_size: int) -> ToeplitzSeed:
    in_len, out_len = g_seed_shape(n, q_bits)
    return ToeplitzSeed.random(src, alphabet_size, in_len, out_len)


def hash_F(
    u: tuple[ToeplitzSeed, ToeplitzSeed], x: BitString, b: BasisString, r: BitString
) -> tuple[BitString, BasisString]:
    """Key-update hash for the Accept path: (mask, basis) refresh from
    the payload, the basis sequence, and the padding string."""
    seed_mask, seed_basis = u
    if seed_mask.modulus != 2:
        raise ValueError("mask component seed must be over GF(2)")
    if seed_basis.modulus != b.alphabet_size:
        raise ValueError("basis component seed modulus must equal the basis alphabet size")
    new_mask = seed_mask.apply(_mask_input(x, b, r))
    new_basis = seed_basis.apply(_basis_component_input(x, b, r))
    return BitString._trusted(new_mask, 2), BasisString._trusted(new_basis, b.alphabet_size)


def hash_G(v: ToeplitzSeed, b: BasisString, q: BitString) -> BasisString:
    """Key-update hash for the Reject path: basis refresh from the old basis
    sequence and fresh reservoir bits."""
    if v.modulus != b.alphabet_size:
        raise ValueError("seed modulus must equal the basis alphabet size")
    new_basis = v.apply(np.concatenate([b.symbols, q.bits]))
    return BasisString._trusted(new_basis, b.alphabet_size)
