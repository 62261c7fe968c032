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
    assert BitString.from_hex("05", 7) == s
    assert BitString.zeros(12).to_hex() == "000"
    with pytest.raises(ValueError):
        BitString.from_hex("ff", 7)


@given(st.integers(1, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 2**n - 1))))
@settings(max_examples=80, deadline=None)
def test_hex_and_int_roundtrip_property(case):
    length, value = case
    s = BitString.from_int(value, length)
    assert len(s) == length
    assert s.to_int() == value
    assert BitString.from_hex(s.to_hex(), length) == s


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
                    qubits.payload_bits(), qubits.basis_string()]
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
    assert Encoding.parse("bb84") is Encoding.BB84
    assert Encoding.parse("six-state").alphabet_size == 3
    with pytest.raises(ValueError):
        Encoding.parse("8-state")
