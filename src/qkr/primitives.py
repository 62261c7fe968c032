"""Fixed-length symbol strings, protocol parameters, and the deterministic
randomness supply.

Every classical protocol value is an immutable fixed-length string over
{0, ..., modulus-1}: bits, trits, or qubit-basis symbols. One private base
class holds the symbols in a read-only uint8 array and defines length,
indexing, slicing, concatenation, equality, hashing and digit text; the
public `BitString`, `TritString` and `BasisString` are thin subclasses.
Symbols are range-checked once, where they enter from outside (the public
constructors, `from_text`, `from_hex`, `from_int`); values derived inside
the package (xor, concatenation, slices, random draws, hash outputs) are
valid by construction and skip the check.

Index 0 is the leftmost (most significant) position in all serializations.
All randomness comes from a counter-based generator (Philox) keyed by a seed
and a role label, so experiments reproduce bit-for-bit and independent
protocol roles (message padding, channel noise, eavesdropper choices,
reservoir) never share a stream.
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "BitString",
    "TritString",
    "BasisString",
    "Encoding",
    "ProtocolParams",
    "RandomSource",
]


def _value_array(values, modulus, what):
    """Range-checked read-only uint8 copy of `values`: the one validation of
    symbols that come from outside the package."""
    if isinstance(values, np.ndarray):
        arr = values
    else:
        arr = np.array(list(values), dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional")
    if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= modulus):
        raise ValueError(f"{what} entries must be in [0, {modulus})")
    out = arr.astype(np.uint8, copy=True)
    out.setflags(write=False)
    return out


def _check_alphabet(alphabet_size: int) -> int:
    if alphabet_size not in (2, 3):
        raise ValueError("alphabet_size must be 2 or 3")
    return alphabet_size


class _SymbolString:
    """Immutable sequence over {0, ..., modulus-1}.

    Strings of different subclasses or moduli never compare equal, and
    concatenation requires both.
    """

    __slots__ = ("_values", "_modulus")

    @classmethod
    def _trusted(cls, values: np.ndarray, modulus: int):
        """Wrap a uint8 array whose entries are known to lie below `modulus`,
        without a copy or a range check. The array becomes read-only; the
        caller must hold no writable view of it."""
        values.setflags(write=False)
        out = object.__new__(cls)
        out._values = values
        out._modulus = modulus
        return out

    @classmethod
    def from_text(cls, text: str, *args, **kwargs):
        return cls([int(c) for c in text], *args, **kwargs)

    def to_text(self) -> str:
        return (self._values + ord("0")).tobytes().decode("ascii")

    def __add__(self, other):
        if type(other) is not type(self) or other._modulus != self._modulus:
            return NotImplemented
        return self._trusted(np.concatenate([self._values, other._values]), self._modulus)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._trusted(self._values[index], self._modulus)
        return int(self._values[index])

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        return iter(self._values.tolist())

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self._modulus == other._modulus
            and np.array_equal(self._values, other._values)
        )

    def __hash__(self) -> int:
        return hash((self._modulus, self._values.tobytes()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}('{self.to_text()}')"


class BitString(_SymbolString):
    """Immutable sequence over {0,1}. XOR, concatenation, slicing, hex I/O."""

    __slots__ = ()

    def __init__(self, bits):
        self._values = _value_array(bits, 2, "bit string")
        self._modulus = 2

    @classmethod
    def zeros(cls, length: int) -> "BitString":
        return cls._trusted(np.zeros(length, dtype=np.uint8), 2)

    @classmethod
    def from_int(cls, value: int, length: int) -> "BitString":
        value = operator.index(value)
        if value < 0 or value >> length:
            raise ValueError(f"value does not fit in {length} bits")
        nbytes = (length + 7) // 8
        bits = np.unpackbits(np.frombuffer(value.to_bytes(nbytes, "big"), dtype=np.uint8))
        return cls._trusted(bits[8 * nbytes - length :], 2)

    @classmethod
    def from_hex(cls, text: str, length: int) -> "BitString":
        return cls.from_int(int(text, 16) if text else 0, length)

    @property
    def bits(self) -> np.ndarray:
        return self._values

    def to_int(self) -> int:
        packed = np.packbits(self._values).tobytes()
        return int.from_bytes(packed, "big") >> (-len(self._values) % 8)

    def to_hex(self) -> str:
        digits = max(1, (len(self) + 3) // 4)
        return format(self.to_int(), f"0{digits}x")

    def weight(self) -> int:
        return int(np.count_nonzero(self._values))

    def __xor__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            return NotImplemented
        if len(self) != len(other):
            raise ValueError(f"xor of unequal lengths {len(self)} and {len(other)}")
        return BitString._trusted(np.bitwise_xor(self._values, other._values), 2)


class TritString(_SymbolString):
    """Immutable sequence over {0,1,2}; serialized as a string of digits."""

    __slots__ = ()

    def __init__(self, trits):
        self._values = _value_array(trits, 3, "trit string")
        self._modulus = 3

    @property
    def trits(self) -> np.ndarray:
        return self._values


class BasisString(_SymbolString):
    """Sequence of qubit-basis choices over an alphabet of size 2 or 3."""

    __slots__ = ()

    def __init__(self, symbols, alphabet_size: int):
        self._modulus = _check_alphabet(alphabet_size)
        self._values = _value_array(symbols, alphabet_size, "basis string")

    @property
    def symbols(self) -> np.ndarray:
        return self._values

    @property
    def alphabet_size(self) -> int:
        return self._modulus

    def __repr__(self) -> str:
        return f"BasisString('{self.to_text()}', alphabet_size={self._modulus})"


class Encoding(Enum):
    """Qubit encoding: two mutually unbiased bases (BB84) or three (6-state)."""

    BB84 = "bb84"
    SIX_STATE = "six-state"

    @property
    def alphabet_size(self) -> int:
        return 2 if self is Encoding.BB84 else 3

    @classmethod
    def parse(cls, text: str) -> "Encoding":
        for enc in cls:
            if enc.value == text:
                return enc
        raise ValueError(f"unknown encoding {text!r} (expected 'bb84' or 'six-state')")


@dataclass(frozen=True)
class ProtocolParams:
    """Sizes governing one protocol instance.

    n        qubits per round (= codeword bits)
    ell      augmented-message bits; the plaintext itself is ell - 2*tag_bits
    kappa    privacy-amplification padding bits appended before encoding
    tag_bits MAC tag length
    beta     fraction of the n positions the code is guaranteed to correct
    q_bits   bits of fresh reservoir input hashed into the basis refresh on Reject
    """

    n: int
    ell: int
    kappa: int
    tag_bits: int
    beta: float
    encoding: Encoding = Encoding.SIX_STATE
    q_bits: int = 64

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")
        if self.ell + self.kappa > self.n:
            raise ValueError("ell + kappa must not exceed n")
        if self.ell <= 2 * self.tag_bits:
            raise ValueError("ell must exceed 2*tag_bits")
        if not 0.0 <= self.beta <= 0.5:
            raise ValueError("beta must lie in [0, 1/2]")
        if self.q_bits < 1:
            raise ValueError("q_bits must be at least 1")

    @property
    def mu_bits(self) -> int:
        return self.ell - 2 * self.tag_bits

    @property
    def payload_bits(self) -> int:
        return self.ell + self.kappa

    @property
    def t(self) -> int:
        return math.floor(self.n * self.beta)

    @property
    def alphabet_size(self) -> int:
        return self.encoding.alphabet_size


class RandomSource:
    """Deterministic labeled bit stream.

    Backed by the Philox counter-based generator keyed by (seed, label), so
    identical seeds reproduce identical streams and distinct labels give
    independent streams. A source is single-owner; `stream()` forks an
    independent substream under a child label.
    """

    def __init__(self, seed: int, label: str = ""):
        self.seed = int(seed)
        self.label = str(label)
        digest = hashlib.sha256(f"{self.seed:#x}|{self.label}".encode()).digest()
        self._gen = np.random.Philox(key=int.from_bytes(digest[:16], "big"))

    def stream(self, label: str) -> "RandomSource":
        child = f"{self.label}/{label}" if self.label else str(label)
        return RandomSource(self.seed, child)

    def raw_words(self, count: int) -> np.ndarray:
        if count <= 0:
            return np.empty(0, dtype=np.uint64)
        return np.atleast_1d(np.asarray(self._gen.random_raw(count), dtype=np.uint64))

    def bit_array(self, count: int) -> np.ndarray:
        if count == 0:
            return np.empty(0, dtype=np.uint8)
        words = self.raw_words((count + 63) // 64)
        bits = np.unpackbits(np.frombuffer(words.astype(">u8").tobytes(), dtype=np.uint8))
        return bits[:count]

    def bits(self, count: int) -> BitString:
        return BitString._trusted(self.bit_array(count), 2)

    def floats(self, count: int) -> np.ndarray:
        return (self.raw_words(count) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def bernoulli(self, p: float, count: int) -> np.ndarray:
        return self.floats(count) < p

    def integers_below(self, bound: int, count: int) -> np.ndarray:
        """Uniform integers in [0, bound) by rejection on minimal bit chunks."""
        if bound < 2:
            return np.zeros(count, dtype=np.uint8)
        width = (bound - 1).bit_length()
        out = np.empty(count, dtype=np.uint8)
        filled = 0
        while filled < count:
            need = count - filled
            raw = self.bit_array(2 * need * width)
            cand = np.zeros(2 * need, dtype=np.uint8)
            for k in range(width):
                cand = (cand << 1) | raw[k::width][: 2 * need]
            accepted = cand[cand < bound][:need]
            out[filled : filled + accepted.size] = accepted
            filled += accepted.size
        return out

    def trits(self, count: int) -> TritString:
        return TritString._trusted(self.integers_below(3, count), 3)

    def basis_string(self, alphabet_size: int, count: int) -> BasisString:
        values = self.integers_below(_check_alphabet(alphabet_size), count)
        return BasisString._trusted(values, alphabet_size)
