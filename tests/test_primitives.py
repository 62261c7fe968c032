import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkr import primitives
from qkr.attacks import tamper_fuzz
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

from oracles import (
    FloatRandomSource,
    integers_below_column_loop,
    symbol_strings_equal,
    tamper_fuzz_sliced,
)


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


@given(st.integers(0, 136).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 2**n - 1))))
@settings(max_examples=300, deadline=None)
def test_to_hex_matches_formatting_the_int(case):
    """Whole bytes are written from the packed bits, other lengths from the
    int; both give the zero-padded digits of `to_int`, and length 0 "0"."""
    length, value = case
    s = BitString.from_int(value, length)
    assert s.to_hex() == format(s.to_int(), f"0{max(1, -(-length // 4))}x")


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


@given(st.integers(0, 2**64 - 1), st.integers(0, 6), _DRAW_COUNTS.filter(lambda c: c <= 400))
@settings(max_examples=200, deadline=None)
def test_bit_rows_match_successive_bit_arrays(seed, rows, count):
    """`bit_rows` gives the rows that `rows` successive `bit_array` calls
    return, and leaves the stream where they do."""
    new = RandomSource(seed, "rows")
    old = FloatRandomSource(seed, "rows")
    got = new.bit_rows(rows, count)
    assert got.dtype == np.uint8 and got.shape == (rows, count)
    for row in got:
        assert np.array_equal(row, old.bit_array(count))
    assert np.array_equal(new.raw_words(2), old.raw_words(2))


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


def _position(source):
    """A source's stream position: its Philox counter and buffer index. The
    buffer itself is left out, since `advance` leaves stale entries there
    that the next draw overwrites."""
    state = source._gen.state
    return state["state"]["counter"].tolist(), state["buffer_pos"]


@pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 5, 17, 45001])
@pytest.mark.parametrize("drawn", [0, 1, 2, 3])
def test_skip_leaves_the_stream_where_raw_words_does(drawn, count):
    """From each buffered position (4, 3, 2 or 1 words left after `drawn`
    words), skipping `count` words reaches the raw draw's position."""
    skipped = RandomSource(7, "skip")
    read = RandomSource(7, "skip")
    skipped.raw_words(drawn)
    read.raw_words(drawn)
    skipped.skip(count)
    read.raw_words(count)
    assert _position(skipped) == _position(read)
    assert np.array_equal(skipped.raw_words(9), read.raw_words(9))


# Draws of this many words or more were once computed on two threads.
_SPLIT = 1 << 16


@pytest.mark.parametrize("count", [_SPLIT - 1, _SPLIT, _SPLIT + 1, 3 * _SPLIT + 7])
@pytest.mark.parametrize("p", [0.0, 5e-324, 0.3, 1.0])
@pytest.mark.parametrize("drawn", [0, 3])
def test_split_bernoulli_matches_one_thread_compare(drawn, p, count):
    """A draw around 2^16 words, odd sizes included, returns the float
    compare's array and leaves the stream at its word; p = 0 and p = 1
    still draw the words."""
    new = RandomSource(5, "split")
    old = FloatRandomSource(5, "split")
    new.raw_words(drawn)
    old.raw_words(drawn)
    got = new.bernoulli(p, count)
    want = old.bernoulli(p, count)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert _position(new) == _position(old)
    assert np.array_equal(new.raw_words(9), old.raw_words(9))


@pytest.mark.parametrize("count", [_SPLIT, 2 * _SPLIT + 2 * primitives._FILL_WORDS + 5])
@pytest.mark.parametrize("drawn", [0, 1, 2, 3])
def test_split_raw_words_match_one_thread_words(drawn, count):
    """From each buffered position, the two halves of a `_split` stretch,
    the second drawn on the worker from a copy set ahead, are the
    one-thread words, and the stream is left at the stretch's end."""
    new = RandomSource(6, "split")
    old = FloatRandomSource(6, "split")
    new.raw_words(drawn)
    old.raw_words(drawn)
    halves = new._split(count, count // 2, lambda gen, start, stop: gen.random_raw(stop - start),
                        width=1)
    assert np.array_equal(np.concatenate(halves), old.raw_words(count))
    assert _position(new) == _position(old)
    assert np.array_equal(new.raw_words(9), old.raw_words(9))


def test_split_raises_the_worker_half_exception():
    """An exception on the worker's half surfaces from `_split`, and the
    worker still runs the next split: a fuzz after it gives the one-thread
    report."""
    raised = []

    def work(gen, start, stop):
        if start:
            raised.append(threading.get_ident())
            raise ArithmeticError(start)
        return gen.random_raw(stop - start)

    with pytest.raises(ArithmeticError, match="4"):
        RandomSource(3, "raise")._split(10, 4, work, width=1)
    assert raised and raised[0] != threading.get_ident()
    assert tamper_fuzz(5001, 2) == tamper_fuzz_sliced(5001, 2)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_split_draw_in_a_forked_child():
    """A child forked after a tamper fuzz, whose batch splits, inherits the
    pool object but not its thread; its own fuzz must still finish, with
    the parent's report."""
    code = (
        "import os, signal, sys, time\n"
        "from qkr.attacks import tamper_fuzz\n"
        "want = tamper_fuzz(5001, 4)\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    os._exit(0 if tamper_fuzz(5001, 4) == want else 1)\n"
        "deadline = time.monotonic() + 30\n"
        "while True:\n"
        "    done, status = os.waitpid(pid, os.WNOHANG)\n"
        "    if done:\n"
        "        sys.exit(os.waitstatus_to_exitcode(status))\n"
        "    if time.monotonic() > deadline:\n"
        "        os.kill(pid, signal.SIGKILL)\n"
        "        sys.exit('the child hung')\n"
        "    time.sleep(0.01)\n"
    )
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_split_bernoulli_repeats_exactly():
    first = RandomSource(9, "repeat").bernoulli(0.3, 2 * _SPLIT + 1)
    for _ in range(20):
        assert np.array_equal(RandomSource(9, "repeat").bernoulli(0.3, 2 * _SPLIT + 1), first)


def test_concurrent_split_draws_match_one_thread_compares():
    """Tamper fuzzes run from more threads than cores, with the switch
    interval shortened, each split their batch through the one shared
    worker and each return the one-thread report: the worker mixes no
    halves."""
    want = [tamper_fuzz_sliced(5001, seed) for seed in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            got = list(pool.map(lambda seed: tamper_fuzz(5001, seed), range(6), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert got == want


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
