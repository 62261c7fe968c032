import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkr.ecc import CodeKind, CodeSpec, OracleBddCode, Repetition3Code
from qkr.hashing import hash_F, hash_G, random_f_seed, random_g_seed
from qkr.primitives import (
    BasisString,
    BitString,
    Encoding,
    ProtocolParams,
    RandomSource,
    TritString,
)
from qkr.qsim import QubitSequence

from oracles import FloatRandomSource, integers_below_column_loop, symbol_strings_equal


def test_xor_truth_table_examples():
    assert BitString.from_text("1010") ^ BitString.from_text("0000") == BitString.from_text("1010")
    assert BitString.from_text("1010") ^ BitString.from_text("1010") == BitString.from_text("0000")
    assert BitString.from_text("1100") ^ BitString.from_text("1010") == BitString.from_text("0110")


def test_xor_length_mismatch_raises():
    with pytest.raises(ValueError):
        BitString.from_text("10") ^ BitString.from_text("100")


@given(st.integers(0, 256).flatmap(lambda n: st.tuples(*[st.lists(st.integers(0, 1), min_size=n, max_size=n)] * 3)))
@settings(max_examples=60, deadline=None)
def test_xor_group_laws(triple):
    a, b, c = (BitString(v) for v in triple)
    zero = BitString.zeros(len(a))
    assert (a ^ b) ^ c == a ^ (b ^ c)
    assert a ^ zero == a
    assert a ^ a == zero
    assert (a ^ b) ^ b == a


def test_bit_order_is_msb_first():
    assert BitString.from_int(0b1010, 4) == BitString.from_text("1010")
    assert BitString.from_text("1010")[0] == 1
    assert BitString.from_text("0001").to_int() == 1


def test_hex_roundtrip_left_padded():
    s = BitString.from_text("0000101")
    assert s.to_hex() == "05"
    assert BitString.from_int(0x05, 7) == s
    assert BitString.zeros(12).to_hex() == "000"
    with pytest.raises(ValueError):
        BitString.from_int(0xFF, 7)


@given(st.integers(1, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 2**n - 1))))
@settings(max_examples=80, deadline=None)
def test_hex_and_int_roundtrip_property(case):
    length, value = case
    s = BitString.from_int(value, length)
    assert len(s) == length
    assert s.to_int() == value
    text = s.to_hex()
    assert len(text) == max(1, -(-length // 4))
    assert int(text, 16) == value


def test_concatenation_and_slicing():
    s = BitString.from_text("101") + BitString.from_text("01")
    assert s == BitString.from_text("10101")
    assert s[:3] == BitString.from_text("101")
    assert s[3:] == BitString.from_text("01")


def _symbols(s):
    if isinstance(s, BasisString):
        return s.symbols, s.alphabet_size
    if isinstance(s, TritString):
        return s.trits, 3
    return s.bits, 2


def test_strings_are_immutable_and_hashable():
    s = BitString.from_text("1100")
    with pytest.raises(ValueError):
        s.bits[0] = 0
    assert len({s, BitString.from_text("1100"), BitString.from_text("0011")}) == 2
    t = TritString.from_text("0210")
    with pytest.raises(ValueError):
        t.trits[0] = 1

    # Values derived inside the package skip the range check; they must
    # still be read-only and in range.
    src = RandomSource(13).stream("derived")
    n, kappa, q_bits = 12, 3, 5
    x, r, q = src.bits(n), src.bits(kappa), src.bits(q_bits)
    derived = [s ^ BitString.from_text("1010"), s + x, s[1:3], t + t[1:], t[::2],
               x, src.trits(40)]
    for alphabet in (2, 3):
        b = src.basis_string(alphabet, n)
        mask, basis = hash_F(random_f_seed(src, n, kappa, alphabet), x, b, r)
        qubits = QubitSequence.prepare(b, x)
        derived += [b, b[2:7], mask, basis,
                    hash_G(random_g_seed(src, n, q_bits, alphabet), b, q),
                    qubits.payload, qubits.basis]
    repetition = Repetition3Code(CodeSpec(4, n, 1, CodeKind.REPETITION3))
    oracle = OracleBddCode(CodeSpec(4, n, 1, CodeKind.ORACLE))
    codeword = oracle.encode(x[:4])
    oracle.note_transmitted(codeword)
    derived += [repetition.encode(x[:4]), repetition.decode(x).payload,
                codeword, oracle.decode(codeword).payload]
    for value in derived:
        symbols, modulus = _symbols(value)
        assert not symbols.flags.writeable
        assert symbols.dtype == np.uint8
        assert len(symbols) == 0 or int(symbols.max()) < modulus

    # Equal digits never make strings of different kinds or alphabets equal.
    assert BitString.from_text("0110") != TritString.from_text("0110")
    assert TritString.from_text("0110") != BitString.from_text("0110")
    assert BasisString.from_text("0110", 2) != BasisString.from_text("0110", 3)
    assert len({BasisString.from_text("01", 2), BasisString.from_text("01", 3)}) == 2


def test_value_validation():
    with pytest.raises(ValueError):
        BitString([0, 2])
    with pytest.raises(ValueError):
        TritString([3])
    with pytest.raises(ValueError):
        BasisString([2], alphabet_size=2)
    with pytest.raises(ValueError):
        BasisString([0], alphabet_size=4)


def test_basis_string_text_roundtrip():
    b = BasisString.from_text("20101", alphabet_size=3)
    assert b.to_text() == "20101"
    assert BasisString.from_text(b.to_text(), 3) == b


def test_random_bits_degenerate_and_deterministic():
    assert len(RandomSource(9, "role").bits(0)) == 0
    a = RandomSource(9).stream("role").bits(64)
    b = RandomSource(9).stream("role").bits(64)
    assert a == b


def test_random_bits_distinct_seeds_hamming_window():
    a = RandomSource(1).stream("x").bits(128)
    b = RandomSource(2).stream("x").bits(128)
    distance = (a ^ b).weight()
    # 3 sigma window around Binomial(128, 1/2)
    assert abs(distance - 64) <= 3 * np.sqrt(128 * 0.25)


def test_role_substreams_uncorrelated():
    n = 100_000
    a = RandomSource(5).stream("noise").bit_array(n).astype(np.float64)
    b = RandomSource(5).stream("reservoir").bit_array(n).astype(np.float64)
    r = np.corrcoef(a, b)[0, 1]
    assert abs(r) < 0.05


def test_substream_labels_compose():
    direct = RandomSource(3, "a/b").bits(32)
    via_stream = RandomSource(3).stream("a").stream("b").bits(32)
    assert direct == via_stream


def test_integers_below_bounds_and_determinism():
    src = RandomSource(11).stream("trits")
    values = src.integers_below(3, 5000)
    assert values.min() >= 0 and values.max() <= 2
    again = RandomSource(11).stream("trits").integers_below(3, 5000)
    assert np.array_equal(values, again)
    # roughly uniform occupancy
    counts = np.bincount(values, minlength=3)
    assert counts.min() > 1400


_PINNED_P = [5e-324, 1e-300, 0.001, 0.05, 0.3, 0.999999999]
_DRAW_COUNTS = st.sampled_from([0, 1, 63, 64, 65]) | st.integers(0, 5000)
_DRAW_P = st.sampled_from([0.0, *_PINNED_P, 1.0]) | st.floats(0.0, 1.0)
_DRAW_CALLS = st.one_of(
    st.tuples(st.just("bit_array"), _DRAW_COUNTS),
    st.tuples(st.just("bernoulli"), _DRAW_P, _DRAW_COUNTS),
    st.tuples(st.just("integers_below"), st.sampled_from([1, 2, 3, 4, 5, 200]), _DRAW_COUNTS),
)


@given(st.integers(0, 2**64 - 1), st.lists(_DRAW_CALLS, min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_draws_match_float_oracle(seed, calls):
    """Interleaved draws from two sources seeded alike return the same arrays
    after every call, so each draw also leaves the stream where the old form
    did."""
    new = RandomSource(seed, "draws")
    old = FloatRandomSource(seed, "draws")
    for name, *args in calls:
        got = getattr(new, name)(*args)
        want = getattr(old, name)(*args)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def _fixed_words(source, words):
    source.raw_words = lambda count: np.array(words[:count], dtype=np.uint64)
    return source


@given(st.sampled_from(_PINNED_P) | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@settings(max_examples=200, deadline=None)
def test_bernoulli_threshold_neighbours(p):
    """The words at T << 11 and either side of it, T = ceil(p * 2^53) taken
    exactly: only the word below is a success, in both forms."""
    threshold = math.ceil(Fraction(p) * 2**53) << 11
    words = [threshold - 1, threshold, threshold + 1]
    expected = np.array([True, False, False])
    for cls in (RandomSource, FloatRandomSource):
        assert np.array_equal(_fixed_words(cls(0), words).bernoulli(p, 3), expected)


def test_protocol_params_validation():
    good = ProtocolParams(n=64, ell=32, kappa=8, tag_bits=8, beta=0.125, q_bits=16)
    assert good.mu_bits == 16
    assert good.payload_bits == 40
    assert good.t == 8
    with pytest.raises(ValueError):
        ProtocolParams(n=32, ell=32, kappa=8, tag_bits=8, beta=0.125)
    with pytest.raises(ValueError):
        ProtocolParams(n=64, ell=16, kappa=8, tag_bits=8, beta=0.125)
    with pytest.raises(ValueError):
        ProtocolParams(n=64, ell=32, kappa=8, tag_bits=8, beta=0.7)
    with pytest.raises(ValueError):
        ProtocolParams(n=64, ell=32, kappa=8, tag_bits=8, beta=0.125, q_bits=0)


def test_encoding_parse():
    assert Encoding("bb84") is Encoding.BB84
    assert Encoding("six-state").alphabet_size == 3
    with pytest.raises(ValueError):
        Encoding("8-state")


def test_integers_below_refuses_bounds_above_256():
    """Candidates are uint8, so a wider bound would wrap them: a bound of
    1000 once returned 10-bit candidates cut to 8 bits, none above 255.
    [0, bound) is empty for a bound of 0 or below, which once returned
    zeros."""
    for bound in (-1, 0, 257, 1000):
        with pytest.raises(ValueError):
            RandomSource(1).integers_below(bound, 8)
    values = RandomSource(1).integers_below(256, 4000)
    assert values.dtype == np.uint8
    assert values.min() == 0 and values.max() == 255


def test_integers_below_bound_one_draws_nothing():
    src = RandomSource(2, "one")
    values = src.integers_below(1, 50)
    assert values.dtype == np.uint8
    assert np.array_equal(values, np.zeros(50, dtype=np.uint8))
    assert np.array_equal(src.raw_words(3), RandomSource(2, "one").raw_words(3))


_BOUNDS = (st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 128, 129, 255, 256])
           | st.integers(1, 256))


@given(st.integers(0, 2**64 - 1),
       st.lists(st.tuples(_BOUNDS, _DRAW_COUNTS), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_integers_below_matches_column_loop(seed, calls):
    """The same integers as the per-column loop, and the same next words:
    both forms consume the stream alike."""
    new = RandomSource(seed, "chunks")
    old = RandomSource(seed, "chunks")
    for bound, count in calls:
        got = new.integers_below(bound, count)
        want = integers_below_column_loop(old, bound, count)
        assert got.dtype == want.dtype == np.uint8
        assert np.array_equal(got, want)
        assert np.array_equal(new.raw_words(2), old.raw_words(2))


def test_raw_words_shape_and_dtype():
    src = RandomSource(3, "raw")
    for count in (-1, 0, 1, 5):
        words = src.raw_words(count)
        assert words.dtype == np.uint64
        assert words.shape == (max(count, 0),)


def _symbol_strings():
    bits = BitString.from_text("0110")
    trits = TritString.from_text("0110")
    return [
        bits, BitString.from_text("0111"), BitString.from_text("011"), BitString.zeros(0),
        BitString.from_text("00110")[1:], BitString.from_text("01011010")[::2],
        trits, TritString.from_text("0210"), TritString.from_text("001120")[::2],
        BasisString.from_text("0110", 2), BasisString.from_text("0110", 3),
        BasisString.from_text("01102", 3), BasisString.from_text("", 3),
    ]


def test_symbol_string_equality_matches_array_equal():
    """Equality across subclasses, moduli and lengths, and on strided
    slices, decides as the elementwise comparison did."""
    strings = _symbol_strings()
    for a in strings:
        assert a != "0110" and a != None  # noqa: E711
        for b in strings:
            assert (a == b) is symbol_strings_equal(a, b)
            assert (a != b) is not symbol_strings_equal(a, b)


@given(st.sampled_from(["bits", "trits", "basis2", "basis3"]),
       st.sampled_from(["bits", "trits", "basis2", "basis3"]),
       st.lists(st.integers(0, 1), max_size=8), st.lists(st.integers(0, 1), max_size=8))
@settings(max_examples=200, deadline=None)
def test_symbol_string_equality_property(kind_a, kind_b, digits_a, digits_b):
    make = {
        "bits": BitString,
        "trits": TritString,
        "basis2": lambda d: BasisString(d, 2),
        "basis3": lambda d: BasisString(d, 3),
    }
    a, b = make[kind_a](digits_a), make[kind_b](digits_b)
    assert (a == b) is symbol_strings_equal(a, b)
    if a == b:
        assert hash(a) == hash(b)
