"""Fixed-length symbol strings, protocol parameters, and the deterministic
randomness supply.

Every classical protocol value is an immutable fixed-length string over
{0, ..., modulus-1}: bits, trits, or qubit-basis symbols. One private base
class holds the symbols in a read-only uint8 array and defines length,
indexing, slicing, concatenation, equality, hashing and digit text; the
public `BitString`, `TritString` and `BasisString` are thin subclasses.
Symbols are range-checked once, where they enter from outside (the public
constructors, `from_text`, `from_int`); values derived inside
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
import os
import threading
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


def _bits_to_int(bits: np.ndarray) -> int:
    """The integer whose binary digits are `bits`, most significant first."""
    packed = np.packbits(bits).tobytes()
    return int.from_bytes(packed, "big") >> (-len(bits) % 8)


def _int_to_bits(value: int, length: int) -> np.ndarray:
    """The `length` binary digits of `value`, most significant first, as a
    fresh uint8 array; `value` must lie in [0, 2^length)."""
    nbytes = (length + 7) // 8
    bits = np.unpackbits(np.frombuffer(value.to_bytes(nbytes, "big"), dtype=np.uint8))
    return bits[8 * nbytes - length :]


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
        # Equal shapes first, so that only equal-length buffers are compared.
        return (
            type(other) is type(self)
            and self._modulus == other._modulus
            and self._values.shape == other._values.shape
            and self._values.tobytes() == other._values.tobytes()
        )

    def __hash__(self) -> int:
        return hash((self._modulus, self._values.tobytes()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}('{self.to_text()}')"


class BitString(_SymbolString):
    """Immutable sequence over {0,1}. XOR, concatenation, slicing, hex output."""

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
        return cls._trusted(_int_to_bits(value, length), 2)

    @property
    def bits(self) -> np.ndarray:
        return self._values

    def to_int(self) -> int:
        return _bits_to_int(self._values)

    def to_hex(self) -> str:
        if self._values.size and not self._values.size % 8:
            return np.packbits(self._values).tobytes().hex()
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


# Place values 2^(width-1), ..., 2, 1 of a chunk of `width` bits, width <= 8:
# a chunk's row of bits times these is its value, and fits in a uint8.
_CHUNK_WEIGHTS = [(1 << np.arange(width - 1, -1, -1)).astype(np.uint8) for width in range(9)]


def _candidates(bits: np.ndarray, chunks: int, width: int) -> np.ndarray:
    """The values of the `chunks` chunks of `width` bits that make up each
    row of `bits` (last axis), most significant bit first."""
    return bits.reshape(*bits.shape[:-1], chunks, width) @ _CHUNK_WEIGHTS[width]


# The fewest words that `raw_words` computes on two threads. On a shared
# 2-vCPU x86-64 host (numpy 2.4) splitting wins from about 2^15 words; 2^16
# words take 0.11 ms split against 0.16 ms on one thread.
_SPLIT_WORDS = 1 << 16
# Each thread computes its half this many words at a time into the one
# output array, so the words are never held twice.
_FILL_WORDS = 1 << 14
_WORKER = None
_WORKER_LOCK = threading.Lock()


def _worker():
    """The one-thread pool that computes the second half of a split stretch,
    created on first use so that importing qkr starts no thread."""
    global _WORKER
    with _WORKER_LOCK:
        if _WORKER is None:
            from concurrent.futures import ThreadPoolExecutor

            _WORKER = ThreadPoolExecutor(max_workers=1)
        return _WORKER


def _forget_worker():
    """A forked child has no worker thread, though it inherits the pool
    object: let its first split draw start one of its own."""
    global _WORKER, _WORKER_LOCK
    _WORKER = None
    _WORKER_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _fill_words(gen: np.random.Philox, out: np.ndarray) -> None:
    """Write the next ``len(out)`` words of `gen` into `out`."""
    for start in range(0, len(out), _FILL_WORDS):
        part = out[start:start + _FILL_WORDS]
        part[...] = gen.random_raw(len(part))


def _word_bits(words: np.ndarray, count: int) -> np.ndarray:
    """The first `count` bits of each row of the uint64 array `words` (last
    axis), each word's bits most significant first."""
    return np.unpackbits(words.astype(">u8").view(np.uint8), axis=-1, count=count)


def _threshold(p: float) -> int:
    """The integer that `bernoulli(p)` compares each word below:
    ``ceil(p * 2^53) << 11``, 0 for p <= 0 or NaN, and 2^64 for p >= 1."""
    if not p > 0.0:
        return 0
    if p >= 1.0:
        return 1 << 64
    return math.ceil(p * 2.0**53) << 11


def _below(words: np.ndarray, p: float) -> np.ndarray:
    """`bernoulli(p)` of the drawn `words`, as a bool array of their shape."""
    threshold = _threshold(p)
    if threshold >> 64:
        return np.ones(words.shape, dtype=bool)
    return words < np.uint64(threshold)


def _fill_below(gen: np.random.Philox, threshold: int, out: np.ndarray) -> None:
    """Set the bool array `out` to whether each of the next ``len(out)``
    words of `gen` lies below `threshold`."""
    words = gen.random_raw(len(out))
    if threshold >> 64:
        out.fill(True)
    else:
        np.less(words, np.uint64(threshold), out=out)


def _advance_words(gen: np.random.Philox, count: int) -> None:
    """Move `gen` past `count` words without computing whole blocks: use up
    its buffered words, jump over whole 4-word blocks with `advance`, and
    draw the rest. `advance` leaves the buffer empty, as drawing a block's
    last word does."""
    buffered = 4 - gen.state["buffer_pos"]
    if count <= buffered:
        gen.random_raw(count)
        return
    gen.random_raw(buffered)
    blocks, rest = divmod(count - buffered, 4)
    gen.advance(blocks)
    gen.random_raw(rest)


class RandomSource:
    """Deterministic labeled bit stream.

    Backed by the Philox counter-based generator keyed by (seed, label), so
    identical seeds reproduce identical streams and distinct labels give
    independent streams. A source is single-owner; `stream()` forks an
    independent substream under a child label.

    Every draw consumes whole 64-bit words. `_split(stop, cut, work)` runs
    `work` on the two halves of a stretch of the stream: the caller's
    thread draws the first `cut` units from the generator, and a worker
    thread draws the rest from a copy of it set that many words ahead
    (Philox is counter-based); the stream then stands at the stretch's
    end. The same words land in the same places, whichever thread computes
    them. `raw_words` splits a draw of at least `_SPLIT_WORDS` words at its
    middle, each half computed `_FILL_WORDS` words at a time into the one
    output array. `bit_rows(rows, count)` takes `rows` rows of
    `bit_array(count)` from one `raw_words` call, each row its own whole
    words, and `bit_array` is its one-row case; a session draws each
    stream's values a block of rounds at a time this way. `skip(count)`
    moves the stream as `raw_words(count)` does, without computing the
    words it passes over. `floats` maps a word
    w to ``(w >> 11) * 2^-53``. `bernoulli(p)` returns ``floats() < p`` by
    the integer-threshold rule ``w < T << 11`` with ``T = ceil(p * 2^53)``:
    for p in (0, 1), ``p * 2^53`` is exact (scaling by a power of two does
    not round, and the result is not subnormal), and the integer ``w >> 11``
    is below it exactly when it is below T. p <= 0 (or NaN) gives all False
    and p >= 1 all True, still drawing `count` words.
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
        if count < _SPLIT_WORDS:
            # With a size, random_raw returns a fresh uint64 array of that shape.
            return self._gen.random_raw(count)
        words = np.empty(count, dtype=np.uint64)
        self._split(count, count // 2,
                    lambda gen, start, stop: _fill_words(gen, words[start:stop]))
        return words

    def _split(self, stop: int, cut: int, work, width: int = 1) -> tuple:
        """Return ``(work(gen, 0, cut), work(ahead, cut, stop))``, the first
        computed on this thread and the second on the worker thread. Each
        call must draw `width` words per unit of its range from the
        generator it is given; `ahead` is a copy of this stream's generator
        moved ``cut * width`` words on, and the stream is left where the
        second call ends. The worker runs one task at a time, so `work`
        must not split again."""
        ahead = np.random.Philox(key=0)
        ahead.state = self._gen.state
        _advance_words(ahead, cut * width)
        second = _worker().submit(work, ahead, cut, stop)
        try:
            first = work(self._gen, 0, cut)
        finally:
            rest = second.result()
        self._gen.state = ahead.state
        return first, rest

    def _mark(self):
        """The stream's position, for `_resume`."""
        return self._gen.state

    def _resume(self, mark, words: int) -> None:
        """Put the stream `words` words past the position `mark`."""
        self._gen.state = mark
        _advance_words(self._gen, words)

    def bit_rows(self, rows: int, count: int) -> np.ndarray:
        """A (rows, count) array from one draw: row i holds the bits that
        the i-th of `rows` successive `bit_array(count)` calls returns."""
        per_row = (count + 63) // 64
        return _word_bits(self.raw_words(rows * per_row).reshape(rows, per_row), count)

    def bit_array(self, count: int) -> np.ndarray:
        """`count` bits, each word's bits most significant first."""
        return self.bit_rows(1, count)[0]

    def bits(self, count: int) -> BitString:
        return BitString._trusted(self.bit_array(count), 2)

    def floats(self, count: int) -> np.ndarray:
        return (self.raw_words(count) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def skip(self, count: int) -> None:
        """Move the stream past `count` words, as `raw_words(count)` does."""
        _advance_words(self._gen, count)

    def bernoulli(self, p: float, count: int) -> np.ndarray:
        """`floats(count) < p` by one integer compare per word (see the class
        docstring)."""
        return _below(self.raw_words(count), p)

    def integers_below(self, bound: int, count: int) -> np.ndarray:
        """Uniform integers in [0, bound), 1 <= bound <= 256, as uint8, by
        rejection on minimal bit chunks: each pass draws 2 * need chunks of
        width = bit_length(bound - 1) bits, most significant first, and keeps
        the first `need` of those below `bound`; bound 1 draws nothing."""
        if not 1 <= bound <= 256:
            raise ValueError(f"bound must lie in [1, 256], got {bound}")
        out = np.empty(count, dtype=np.uint8)
        self._fill_below_bound(bound, out, 0)
        return out

    def _fill_below_bound(self, bound: int, out: np.ndarray, filled: int) -> None:
        """Fill ``out[filled:]`` by `integers_below`'s rejection passes,
        the first drawn from the next word."""
        width = (bound - 1).bit_length()
        while filled < len(out):
            need = len(out) - filled
            cand = _candidates(self.bit_array(2 * need * width), 2 * need, width)
            accepted = cand[cand < bound][:need]
            out[filled : filled + accepted.size] = accepted
            filled += accepted.size

    def trits(self, count: int) -> TritString:
        return TritString._trusted(self.integers_below(3, count), 3)

    def basis_string(self, alphabet_size: int, count: int) -> BasisString:
        values = self.integers_below(_check_alphabet(alphabet_size), count)
        return BasisString._trusted(values, alphabet_size)
