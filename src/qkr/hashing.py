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

A Toeplitz product is the "valid" window of the linear convolution of the
diagonal with the input. Small shapes (``in_len * out_len`` below
``FFT_MIN_MUL_ADDS``) use the direct ``np.convolve`` in float64, with the
diagonal's float64 copy cached on the seed on first use. This is exact: the
inputs are residues below the modulus, so every product and every partial
sum is an integer of at most ``in_len * (modulus - 1)^2``, far below 2^53,
and no order of summation can round. Larger shapes use a real FFT
convolution rounded to the nearest integer; every exact value is an
integer, so when any rounded entry is more than 0.25 away from its float
the product is recomputed with the direct convolution instead. The FFT
length is the smallest 5-smooth number ``2^a 3^b 5^c`` of at least
``len(diagonal)``, which keeps the valid window free of wrap-around: at the
CLI defaults the mask product takes 4608 points instead of the next power
of two, 8192, and the basis product 3600 instead of 4096. The diagonal's
spectrum is computed on the first FFT product and cached on the seed.
Either path gives the same bytes as the int64 convolution kept in
``tests/oracles.py``.

Message authentication is a polynomial-evaluation MAC over GF(2^lambda): the
message is split into lambda-bit blocks m_1..m_d, a block holding the bit
length is appended, and the tag is sum m_i * key^i. A substitution forgery
must find a root of a nonzero polynomial of degree <= d+1, so at most
(d+1) * 2^-lambda of the keys accept it. The length block holds the length
modulo 2^lambda, so the bound holds between messages of equal length, or of
lengths below 2^lambda bits: at lambda 8 a 256-bit message and the same
message followed by 256 zero bits have equal tags under every key. The
protocol tags only `mu || k'`, whose length is fixed per session.

The tag is evaluated by Horner's rule, and every multiply is by the key, so
the key's 4-bit table ``T[v] = key * v`` (v = 0..15, seven doublings and seven
additions) is built once per `MacKey` and reused for every tag under it. A
product ``a * key`` then takes lambda/4 steps, one per nibble of ``a`` from
the top: ``z = (z << 4) ^ R[top nibble of z] ^ T[nibble]``, where
``NIBBLE_REDUCTION[lambda]`` is the 16-entry table ``R[v] = v * x^lambda``
mod the pinned polynomial, which folds the four bits the shift pushes out
of the field back in (Shoup's method, as in GHASH). The bit-serial multiply
this replaced is the reference in ``tests/oracles.py``.

The row form of the field multiply works over GF(2^64), one key per row,
for the tamper fuzz of `attacks`, which needs only the error polynomial
of its flips (the tags of two messages of equal length differ by a
polynomial in their xor, so no tag is computed there; a session tags with
`mac_tag`). It takes messages packed eight bits to a byte, as
``np.packbits(axis=1)`` packs them, and `bytes_to_words` cuts them into
the same zero-padded blocks as the scalar form;
`nonzero_key_words` is `MacKey.from_draw`'s zero-key rule for a column of
drawn words. `gf64_key_tables` builds the keys' tables once as a (16,
rows) uint64 array, and `gf64_mul_rows` runs the 16 nibble steps on
uint64 words, from the top nibble down. Both lookups gather with `take`
on int64 views of the shifted words; indexing with the uint64 arrays
would make numpy convert each index array first, about doubling the cost
of each gather.

The row tables are 4-bit, not 8-bit: a row's table is 128 bytes against
2 KB, so a 12000-round fuzz holds 1.5 MB of tables against 24.6 MB, which
would dominate its peak memory: a 12000-round `qkr attack tamper_fuzz`
peaks at 38 MB RSS, of which 32 MB is the interpreter with numpy and qkr
imported and 6 MB the arrays the fuzz allocates; the default 1M rounds
peak at 52 MB (measured on x86-64 Linux, Python 3.11, numpy 2.4). A full
65536-row chunk holds 8.4 MB of tables against 134 MB. The shift-and-sum
packer, the row MAC `mac64_rows` with its length block, and the
bit-serial row MAC are the references in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial, reduce
from operator import xor

import numpy as np

from .primitives import BasisString, BitString, RandomSource, _value_array

__all__ = [
    "REDUCTION_POLYS",
    "NIBBLE_REDUCTION",
    "gf_mul",
    "polynomial_mac",
    "MacKey",
    "mac_tag",
    "mac_verify",
    "gf64_key_tables",
    "gf64_mul_rows",
    "bytes_to_words",
    "nonzero_key_words",
    "FFT_MIN_MUL_ADDS",
    "ToeplitzSeed",
    "f_seed_shapes",
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


def _nibble_reduction(tag_bits: int) -> tuple[int, ...]:
    """R[v] = v * x^tag_bits mod the pinned polynomial for v = 0..15: with
    x^tag_bits = low terms, this is the carry-less product v * low, whose
    degree (at most 3 + 7) stays below every pinned tag length."""
    low = REDUCTION_POLYS[tag_bits] ^ (1 << tag_bits)
    return tuple(reduce(xor, (low << i for i in range(4) if v >> i & 1), 0) for v in range(16))


# What the four bits shifted out of a field element by `<< 4` reduce to.
NIBBLE_REDUCTION = {tag_bits: _nibble_reduction(tag_bits) for tag_bits in REDUCTION_POLYS}


def _key_table(key: int, tag_bits: int) -> list[int]:
    """key * v for v = 0..15: T[2i] = x * T[i] and T[2i+1] = T[2i] + key."""
    try:
        fold = NIBBLE_REDUCTION[tag_bits]
    except KeyError:
        raise ValueError(f"no reduction polynomial pinned for tag_bits={tag_bits}") from None
    mask = (1 << tag_bits) - 1
    table = [0] * 16
    table[1] = key
    for i in range(2, 16, 2):
        half = table[i // 2]
        # fold[1] is the low terms, which the one bit a doubling shifts out
        # reduces to.
        table[i] = ((half << 1) & mask) ^ fold[half >> (tag_bits - 1)]
        table[i + 1] = table[i] ^ key
    return table


def _horner(blocks: list[int], table: list[int], tag_bits: int) -> int:
    """sum_{i=1..d} blocks[i-1] * key^i by Horner's rule, given the key's
    table: each step multiplies (acc + block) by the key, one nibble of it
    per inner step from the top."""
    fold = NIBBLE_REDUCTION[tag_bits]
    mask = (1 << tag_bits) - 1
    top = tag_bits - 4
    shifts = range(top, -1, -4)
    acc = 0
    for block in reversed(blocks):
        a = acc ^ block
        acc = 0
        for shift in shifts:
            acc = ((acc << 4) & mask) ^ fold[acc >> top] ^ table[(a >> shift) & 15]
    return acc


def gf_mul(a: int, b: int, tag_bits: int) -> int:
    """Carry-less multiply of two field elements modulo the pinned polynomial:
    one Horner step, a * b."""
    return _horner([a], _key_table(b, tag_bits), tag_bits)


def _message_blocks(message: BitString, tag_bits: int) -> list[int]:
    """Split into tag_bits-sized blocks (last one zero-padded on the right),
    then append the bit length as the final block. Every pinned tag length
    is a whole number of bytes, and `packbits` pads the last byte with
    zeros, so only whole zero bytes are added to fill the last block."""
    bits = message.bits
    width = tag_bits // 8
    packed = np.packbits(bits).tobytes()
    packed += bytes(-len(packed) % width)
    blocks = [int.from_bytes(packed[i : i + width], "big") for i in range(0, len(packed), width)]
    blocks.append(len(bits) & ((1 << tag_bits) - 1))
    return blocks


def polynomial_mac(key_value: int, message: BitString, tag_bits: int) -> int:
    """Evaluate sum_{i=1..d+1} m_i * key^i for the blocks of `message`.

    Works for any key value including zero; the zero key maps every message
    to the zero tag, which is why protocol keys are kept nonzero.
    """
    return _horner(_message_blocks(message, tag_bits), _key_table(key_value, tag_bits), tag_bits)


@dataclass(frozen=True)
class MacKey:
    """Nonzero MAC key of a supported tag length.

    The key's 4-bit table is built once, here: a session tags with its
    message key every round and never rotates it.
    """

    key: BitString

    def __post_init__(self):
        tag_bits = len(self.key)
        if tag_bits not in REDUCTION_POLYS:
            raise ValueError(f"unsupported MAC key length {tag_bits}")
        value = self.key.to_int()
        if value == 0:
            raise ValueError("MAC key must be nonzero")
        object.__setattr__(self, "_tag_bits", tag_bits)
        object.__setattr__(self, "_table", _key_table(value, tag_bits))

    @property
    def tag_bits(self) -> int:
        return self._tag_bits

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
    """Authentication tag of `message` under `key`. The substitution bound
    (d+1)/2^lambda holds between messages of equal length, or of lengths
    below 2^lambda bits: the length block wraps modulo 2^lambda."""
    tag_bits = key.tag_bits
    value = _horner(_message_blocks(message, tag_bits), key._table, tag_bits)
    return BitString.from_int(value, tag_bits)


def mac_verify(key: MacKey, message: BitString, tag: BitString) -> bool:
    if len(tag) != key.tag_bits:
        raise ValueError(f"tag must have length {key.tag_bits}")
    return mac_tag(key, message) == tag


# The row form of the MAC, over GF(2^64), one key per uint64 row.
_FOLD64 = np.array(NIBBLE_REDUCTION[64], dtype=np.uint64)


def nonzero_key_words(words: np.ndarray) -> np.ndarray:
    """Keys from uniform 64-bit draws: `MacKey.from_draw`'s rule, the
    all-zero draw remapped to all-ones, on every row."""
    return np.where(words == 0, np.uint64(0xFFFFFFFFFFFFFFFF), words)


def gf64_key_tables(keys: np.ndarray) -> np.ndarray:
    """Row-wise tables key * v for v = 0..15, as a (16, rows) uint64 array:
    T[2i] = x * T[i] and T[2i+1] = T[2i] + key."""
    keys = keys.astype(np.uint64, copy=False)
    table = np.zeros((16, len(keys)), dtype=np.uint64)
    table[1] = keys
    for i in range(2, 16, 2):
        half = table[i // 2]
        # _FOLD64[1] is the low terms, which the bit shifted out reduces to.
        table[i] = (half << 1) ^ _FOLD64.take((half >> 63).view(np.int64))
        table[i + 1] = table[i] ^ keys
    return table


def gf64_mul_rows(a: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Row-wise a * key, given the keys' tables, one nibble of `a` per step
    from the top; uint64 shifts drop the bits that _FOLD64 folds back in.
    Every gather index is below 16 * rows, so it is read as an int64 view
    of the uint64 shift. Below the top nibble, the low nibbles that are
    zero in every row gather nothing: their steps only shift and fold."""
    rows = len(a)
    flat = table.ravel()
    cols = np.arange(rows, dtype=np.int64)
    # The low bits that are zero in every row, in whole nibbles.
    low = int(np.bitwise_or.reduce(a))
    zero_bits = ((low & -low).bit_length() - 1) // 4 * 4 if low else 64
    z = flat.take((a >> 60).view(np.int64) * rows + cols)
    for shift in range(56, -1, -4):
        z = (z << 4) ^ _FOLD64.take((z >> 60).view(np.int64))
        if shift >= zero_bits:
            z ^= flat.take(((a >> shift) & 15).view(np.int64) * rows + cols)
    return z


def bytes_to_words(packed: np.ndarray) -> np.ndarray:
    """Rows of bytes as 64-bit words, the first byte highest, the last word
    zero-padded on the right."""
    rows, length = packed.shape
    padded = np.zeros((rows, -(-length // 8) * 8), dtype=np.uint8)
    padded[:, :length] = packed
    return padded.view(">u8").astype(np.uint64)


# Below this many multiply-adds per product, the float64 np.convolve beats
# two FFTs with a cached spectrum (measured crossover on a 2-vCPU x86-64
# host, numpy 2.4: 270k-420k). At the CLI defaults with gamma 0.05, every
# product up to n=256 (at most 210k) takes the direct path, and the n=1024
# ones (1.5M-3.6M) take the FFT path.
FFT_MIN_MUL_ADDS = 1 << 18

# Largest distance from an integer that the FFT product may show before it is
# recomputed exactly. The float64 error measured up to n=65536 is below 1e-10.
_FFT_MAX_RESIDUAL = 0.25


@cache
def _fft_length(length: int) -> int:
    """The smallest 2^a 3^b 5^c >= length (length >= 1): the real FFT is
    fast at these sizes."""
    best = 1 << (length - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two that reaches `length`.
            best = min(best, p35 << (-(-length // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


class ToeplitzSeed:
    """Seed of one Toeplitz-affine hash component over GF(modulus).

    The seed reads its shape from its arrays: `offset` has out_len entries,
    and `diagonal` has in_len + out_len - 1, the constant descending
    diagonals of the out_len x in_len matrix. Both are read-only, which
    keeps the diagonal's cached spectrum and float64 copy valid for the
    seed's lifetime.
    """

    __slots__ = (
        "modulus", "in_len", "out_len", "diagonal", "offset", "_spectrum", "_diagonal_f64"
    )

    def __init__(self, modulus: int, diagonal, offset):
        if modulus not in (2, 3):
            raise ValueError("modulus must be 2 or 3")
        self.diagonal = _value_array(diagonal, modulus, "Toeplitz diagonal")
        self.offset = _value_array(offset, modulus, "Toeplitz offset")
        self.out_len = len(self.offset)
        self.in_len = len(self.diagonal) - self.out_len + 1
        if self.in_len < 1 or self.out_len < 1:
            raise ValueError("in_len and out_len must be at least 1")
        self.modulus = modulus
        self._spectrum = None
        self._diagonal_f64 = None

    @classmethod
    def random(cls, src: RandomSource, modulus: int, in_len: int, out_len: int) -> "ToeplitzSeed":
        draw = src.bit_array if modulus == 2 else partial(src.integers_below, modulus)
        return cls(modulus, draw(in_len + out_len - 1), draw(out_len))

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Matrix-vector product plus offset, reduced modulo the field size.

        `values` are residues modulo the field size. Shapes of at least
        FFT_MIN_MUL_ADDS multiply-adds go through a real FFT convolution,
        rounded and checked against _FFT_MAX_RESIDUAL; a failed check, and
        every smaller shape, uses the direct float64 convolution, which is
        exact (see the module docstring). The result is the same either way.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.in_len,):
            raise ValueError(f"input length {values.shape} does not match in_len={self.in_len}")
        conv = None
        if self.in_len * self.out_len >= FFT_MIN_MUL_ADDS:
            conv = self._fft_convolve(values)
        if conv is None:
            if self._diagonal_f64 is None:
                self._diagonal_f64 = self.diagonal.astype(np.float64)
            conv = np.convolve(self._diagonal_f64, values, mode="valid").astype(np.int64)
        return ((conv + self.offset) % self.modulus).astype(np.uint8)

    def _fft_convolve(self, values: np.ndarray) -> np.ndarray | None:
        """The valid window of diagonal * values by circular FFT convolution,
        or None when it is not within _FFT_MAX_RESIDUAL of integers. Any
        length >= len(diagonal) keeps the window free of wrap-around."""
        from numpy import fft  # imported on first use to keep CLI start-up lean

        size = _fft_length(len(self.diagonal))
        if self._spectrum is None:
            self._spectrum = fft.rfft(self.diagonal, size)
        full = fft.irfft(self._spectrum * fft.rfft(values, size), size)
        window = full[self.in_len - 1 : self.in_len - 1 + self.out_len]
        rounded = np.rint(window)
        if np.max(np.abs(window - rounded)) > _FFT_MAX_RESIDUAL:
            return None
        return rounded.astype(np.int64)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ToeplitzSeed)
            and self.modulus == other.modulus
            and np.array_equal(self.diagonal, other.diagonal)
            and np.array_equal(self.offset, other.offset)
        )

    def __repr__(self) -> str:
        return f"ToeplitzSeed(modulus={self.modulus}, in_len={self.in_len}, out_len={self.out_len})"


# The two bits of each symbol of the three-letter basis alphabet.
_TRIT_BITS = np.array([[0, 0], [0, 1], [1, 0]], dtype=np.uint8)


def _basis_bits(b: BasisString) -> np.ndarray:
    """Flatten basis symbols to bits: one bit per symbol for a two-letter
    alphabet, two bits (00/01/10) per symbol for the three-letter one."""
    if b.alphabet_size == 2:
        return b.symbols
    return _TRIT_BITS[b.symbols].ravel()


def f_seed_shapes(n: int, kappa: int, alphabet_size: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(in_len, out_len) of the mask component and the basis component."""
    bits_per_symbol = 1 if alphabet_size == 2 else 2
    return (n + n * bits_per_symbol + kappa, n), (2 * n + kappa, n)


def random_f_seed(
    src: RandomSource, n: int, kappa: int, alphabet_size: int
) -> tuple[ToeplitzSeed, ToeplitzSeed]:
    (in2, out2), (in_m, out_m) = f_seed_shapes(n, kappa, alphabet_size)
    return (
        ToeplitzSeed.random(src, 2, in2, out2),
        ToeplitzSeed.random(src, alphabet_size, in_m, out_m),
    )


def random_g_seed(src: RandomSource, n: int, q_bits: int, alphabet_size: int) -> ToeplitzSeed:
    return ToeplitzSeed.random(src, alphabet_size, n + q_bits, n)


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
    new_mask = seed_mask.apply(np.concatenate([x.bits, _basis_bits(b), r.bits]))
    # Bits are valid residues in either field, so the flattening is the
    # identity on them; basis symbols pass through unchanged.
    new_basis = seed_basis.apply(np.concatenate([x.bits, b.symbols, r.bits]))
    return BitString._trusted(new_mask, 2), BasisString._trusted(new_basis, b.alphabet_size)


def hash_G(v: ToeplitzSeed, b: BasisString, q: BitString) -> BasisString:
    """Key-update hash for the Reject path: basis refresh from the old basis
    sequence and fresh reservoir bits."""
    if v.modulus != b.alphabet_size:
        raise ValueError("seed modulus must equal the basis alphabet size")
    new_basis = v.apply(np.concatenate([b.symbols, q.bits]))
    return BasisString._trusted(new_basis, b.alphabet_size)
