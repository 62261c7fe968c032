import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkr.hashing import (
    FFT_MIN_MUL_ADDS,
    MacKey,
    ToeplitzSeed,
    _fft_length,
    _message_blocks,
    f_seed_shapes,
    gf_mul,
    hash_F,
    hash_G,
    mac_tag,
    mac_verify,
    polynomial_mac,
    random_f_seed,
    random_g_seed,
)
from qkr.cli import DEFAULTS, resolve_params
from qkr.primitives import BasisString, BitString, RandomSource

from oracles import (
    bits_to_int_loop,
    gf_mul_bitserial,
    int_to_bits_loop,
    message_blocks_loop,
    pairwise_counts_extrema,
    polynomial_mac_bitserial,
    toeplitz_apply_int,
    toeplitz_outputs_all_seeds,
)
from toys import bb84_f_toy, seed_from_index, six_state_f_toy, six_state_g_toy


# ---------------------------------------------------------------------------
# Toeplitz-affine hashing


def test_zero_seed_outputs_equal_offsets():
    src = RandomSource(1).stream("seeds")
    n, kappa = 4, 2
    u = random_f_seed(src, n, kappa, alphabet_size=3)
    zero_u = (
        ToeplitzSeed(2, np.zeros(u[0].in_len + n - 1, int), u[0].offset),
        ToeplitzSeed(3, np.zeros(u[1].in_len + n - 1, int), u[1].offset),
    )
    x = src.bits(n)
    b = src.basis_string(3, n)
    r = src.bits(kappa)
    new_z, new_b = hash_F(zero_u, x, b, r)
    assert new_z == BitString(u[0].offset)
    assert new_b == BasisString(u[1].offset, 3)

    v = random_g_seed(src, n, q_bits=3, alphabet_size=3)
    zero_v = ToeplitzSeed(3, np.zeros(v.in_len + n - 1, int), v.offset)
    assert hash_G(zero_v, b, src.bits(3)) == BasisString(v.offset, 3)


def test_hash_f_deterministic_and_dimension_checked():
    src = RandomSource(2).stream("seeds")
    n, kappa = 6, 3
    u = random_f_seed(src, n, kappa, alphabet_size=3)
    x, b, r = src.bits(n), src.basis_string(3, n), src.bits(kappa)
    assert hash_F(u, x, b, r) == hash_F(u, x, b, r)
    with pytest.raises(ValueError):
        hash_F(u, src.bits(n - 1), b, r)
    with pytest.raises(ValueError):
        hash_F(u, x, src.basis_string(2, n), r)
    v = random_g_seed(src, n, q_bits=4, alphabet_size=3)
    with pytest.raises(ValueError):
        hash_G(v, b, src.bits(5))


def test_hashes_refuse_seeds_over_the_wrong_field():
    """Each seed component must be over the field its output lives in: the
    mask component over GF(2), the basis components over GF(|B|)."""
    src = RandomSource(3).stream("seeds")
    n, kappa, q_bits = 6, 3, 4
    mask_seed, basis_seed = random_f_seed(src, n, kappa, alphabet_size=3)
    (mask_in, mask_out), (basis_in, basis_out) = f_seed_shapes(n, kappa, 3)
    x, b, r = src.bits(n), src.basis_string(3, n), src.bits(kappa)
    gf3_mask = ToeplitzSeed.random(src, 3, mask_in, mask_out)
    with pytest.raises(ValueError, match=r"^mask component seed must be over GF\(2\)$"):
        hash_F((gf3_mask, basis_seed), x, b, r)
    gf2_basis = ToeplitzSeed.random(src, 2, basis_in, basis_out)
    with pytest.raises(
        ValueError, match="^basis component seed modulus must equal the basis alphabet size$"
    ):
        hash_F((mask_seed, gf2_basis), x, b, r)
    gf2_v = random_g_seed(src, n, q_bits, alphabet_size=2)
    with pytest.raises(ValueError, match="^seed modulus must equal the basis alphabet size$"):
        hash_G(gf2_v, b, src.bits(q_bits))


def test_bb84_toy_joint_pairwise_independence_exhaustive():
    """Literal enumeration of the full product seed space at n=2, kappa=1:
    every ordered pair of distinct inputs hits every output pair equally
    often, so the joint probability is exactly |range|^-2."""
    inputs, structured = bb84_f_toy()
    out_mask = toeplitz_outputs_all_seeds(2, 5, 2, inputs)
    out_basis = toeplitz_outputs_all_seeds(2, 5, 2, inputs)
    num_component_seeds = out_mask.shape[0]
    joint = np.repeat(out_mask, num_component_seeds, axis=0) * 4 + np.tile(
        out_basis, (num_component_seeds, 1)
    )
    total_seeds = joint.shape[0]
    range_size = 16
    lo, hi = pairwise_counts_extrema(joint, range_size)
    assert lo == hi == total_seeds // range_size**2

    # The enumerated family is the production family: spot-check seeds.
    rng = np.random.default_rng(0)
    for index in rng.integers(0, num_component_seeds, size=25):
        seed2 = seed_from_index(2, 5, 2, int(index))
        for k, row in enumerate(inputs):
            got = seed2.apply(row)
            assert int(got[0]) * 2 + int(got[1]) == int(out_mask[index, k])


def test_six_state_toy_pairwise_independence_exhaustive():
    """Each component family is exhaustively pairwise independent over the
    full input, and the joint over the product seed space is uniform because
    the component counts multiply."""
    mask_inputs, basis_inputs, structured = six_state_f_toy()
    out_mask = toeplitz_outputs_all_seeds(2, 7, 2, mask_inputs)
    out_basis = toeplitz_outputs_all_seeds(3, 5, 2, basis_inputs)

    lo2, hi2 = pairwise_counts_extrema(out_mask, 4)
    assert lo2 == hi2 == out_mask.shape[0] // 16
    lo3, hi3 = pairwise_counts_extrema(out_basis, 9)
    assert lo3 == hi3 == out_basis.shape[0] // 81

    # Joint count over the product seed space factorizes exactly:
    total = out_mask.shape[0] * out_basis.shape[0]
    assert lo2 * lo3 == total // 36**2

    # Production path agreement on sampled seeds of both components.
    rng = np.random.default_rng(1)
    for index in rng.integers(0, out_basis.shape[0], size=25):
        seed3 = seed_from_index(3, 5, 2, int(index))
        for k, row in enumerate(basis_inputs):
            got = seed3.apply(row)
            assert int(got[0]) * 3 + int(got[1]) == int(out_basis[index, k])
    for index in rng.integers(0, out_mask.shape[0], size=25):
        seed2 = seed_from_index(2, 7, 2, int(index))
        x, b, r = structured[3]
        new_z, _ = hash_F((seed2, seed_from_index(3, 5, 2, 17)), x, b, r)
        assert new_z.to_int() == int(out_mask[index, 3])


def test_g_toy_pairwise_independence_exhaustive():
    inputs, structured = six_state_g_toy()
    outputs = toeplitz_outputs_all_seeds(3, 2, 1, inputs)
    lo, hi = pairwise_counts_extrema(outputs, 3)
    assert lo == hi == outputs.shape[0] // 9

    for index in range(outputs.shape[0]):
        seed = seed_from_index(3, 2, 1, index)
        for k, (b, q) in enumerate(structured):
            assert hash_G(seed, b, q) == BasisString([outputs[index, k]], 3)


def test_g_toy_output_uniform_over_seeds_for_each_q():
    inputs, _ = six_state_g_toy()
    outputs = toeplitz_outputs_all_seeds(3, 2, 1, inputs)
    for column in range(inputs.shape[0]):
        counts = np.bincount(outputs[:, column], minlength=3)
        assert np.all(counts == outputs.shape[0] // 3)


@st.composite
def _toeplitz_shapes(draw):
    """(modulus, in_len, out_len) with in_len <= 6000 and out_len <= 3000,
    on the int side or the FFT side of FFT_MIN_MUL_ADDS with equal odds."""
    modulus = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        out_len = draw(st.integers(1, 3000))
        in_len = draw(st.integers(1, min(6000, (FFT_MIN_MUL_ADDS - 1) // out_len)))
    else:
        out_len = draw(st.integers(-(-FFT_MIN_MUL_ADDS // 6000), 3000))
        in_len = draw(st.integers(-(-FFT_MIN_MUL_ADDS // out_len), 6000))
    return modulus, in_len, out_len


@given(_toeplitz_shapes(), st.integers(0, 2**32 - 1), st.booleans())
@example((2, 256, 256), 0, True)
@example((3, 255, 257), 0, True)
@example((2, 1, 1), 0, False)
@example((3, 6000, 3000), 1, True)
@example((2, 3501, 1024), 0, True)
@example((3, 2477, 1024), 0, True)
@settings(max_examples=150, deadline=None)
def test_toeplitz_apply_matches_exact_product(shape, seed_value, all_max):
    modulus, in_len, out_len = shape
    src = RandomSource(seed_value, "toeplitz-property")
    seed = ToeplitzSeed.random(src, modulus, in_len, out_len)
    # The constructor copies the arrays, so `before` keeps the seed as drawn.
    before = ToeplitzSeed(modulus, seed.diagonal, seed.offset)
    # The largest symbols give the largest sums; the second input reuses
    # the spectrum cached by the first.
    first = np.full(in_len, modulus - 1) if all_max else src.integers_below(modulus, in_len)
    for values in (first, src.integers_below(modulus, in_len)):
        assert np.array_equal(seed.apply(values), toeplitz_apply_int(seed, values))
    assert seed == before


@pytest.mark.parametrize(
    "diagonal,offset",
    [([0], [0, 0, 0]), ([0, 1], [0, 0, 0]), ([0, 1], [])],
    ids=["negative-in", "empty-in", "empty-out"],
)
def test_toeplitz_seed_rejects_empty_shapes(diagonal, offset):
    """Diagonal and offset lengths that give a shape with no input or no
    output (in_len -1 or 0, out_len 0) are refused, at construction rather
    than inside apply."""
    with pytest.raises(ValueError, match="in_len and out_len must be at least 1"):
        ToeplitzSeed(2, diagonal, offset)


def test_fft_length_is_smallest_5_smooth_at_least_length():
    smooth = sorted(
        2**a * 3**b * 5**c
        for a in range(17) for b in range(11) for c in range(8)
        if 2**a * 3**b * 5**c <= 40000
    )
    for length in range(1, 20001):
        assert _fft_length(length) == next(s for s in smooth if s >= length), length


def test_fft_lengths_at_cli_defaults(monkeypatch):
    """At the CLI defaults (gamma 0.05) the Accept update's mask product
    takes 4608 points and its basis product 3600, not 8192 and 4096."""
    params, _ = resolve_params(dict(DEFAULTS, gamma=0.05))
    shapes = f_seed_shapes(params.n, params.kappa, params.alphabet_size)
    assert shapes == ((3501, 1024), (2477, 1024))
    rfft = np.fft.rfft
    sizes = []

    def recording_rfft(a, n=None, *args, **kwargs):
        sizes.append(n)
        return rfft(a, n, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", recording_rfft)
    src = RandomSource(2, "fft-length")
    for modulus, (in_len, out_len), size in zip((2, 3), shapes, (4608, 3600)):
        seed = ToeplitzSeed.random(src, modulus, in_len, out_len)
        values = src.integers_below(modulus, in_len)
        sizes.clear()
        assert np.array_equal(seed.apply(values), toeplitz_apply_int(seed, values))
        assert sizes == [size, size]


@st.composite
def _direct_toeplitz_shapes(draw):
    """(modulus, in_len, out_len) with in_len * out_len below FFT_MIN_MUL_ADDS."""
    modulus = draw(st.sampled_from([2, 3]))
    out_len = draw(st.integers(1, 600))
    in_len = draw(st.integers(1, (FFT_MIN_MUL_ADDS - 1) // out_len))
    return modulus, in_len, out_len


@given(_direct_toeplitz_shapes(), st.integers(0, 2**32 - 1), st.booleans())
@example((2, FFT_MIN_MUL_ADDS - 1, 1), 0, True)
@example((3, FFT_MIN_MUL_ADDS - 1, 1), 0, True)
@example((3, (FFT_MIN_MUL_ADDS - 1) // 64, 64), 1, True)
@example((2, 239, 64), 2, False)
@example((3, 1, 1), 0, True)
@settings(max_examples=150, deadline=None)
def test_direct_toeplitz_product_matches_int64_convolution(shape, seed_value, all_max):
    """Below FFT_MIN_MUL_ADDS the float64 convolution gives the int64 bytes,
    including the longest sums of the largest symbols, and the seed keeps a
    float64 diagonal but no spectrum."""
    modulus, in_len, out_len = shape
    src = RandomSource(seed_value, "toeplitz-direct")
    seed = ToeplitzSeed.random(src, modulus, in_len, out_len)
    first = np.full(in_len, modulus - 1) if all_max else src.integers_below(modulus, in_len)
    for values in (first, src.integers_below(modulus, in_len)):
        assert np.array_equal(seed.apply(values), toeplitz_apply_int(seed, values))
    assert seed._spectrum is None
    assert seed._diagonal_f64 is not None


@pytest.mark.parametrize("modulus", [2, 3])
def test_failed_fft_guard_recomputes_with_float64_convolution(monkeypatch, modulus):
    """An FFT product keeps no float64 diagonal; a product that fails the
    guard is recomputed by the direct convolution, which builds it."""
    src = RandomSource(6, "toeplitz-guard-float")
    seed = ToeplitzSeed.random(src, modulus, 2000, 600)
    assert seed.in_len * seed.out_len >= FFT_MIN_MUL_ADDS
    values = np.full(2000, modulus - 1)
    expected = toeplitz_apply_int(seed, values)
    assert np.array_equal(seed.apply(values), expected)
    assert seed._diagonal_f64 is None
    irfft = np.fft.irfft

    def shifted_irfft(*args, **kwargs):
        out = irfft(*args, **kwargs)
        out[seed.in_len - 1] += 0.5
        return out

    monkeypatch.setattr(np.fft, "irfft", shifted_irfft)
    assert np.array_equal(seed.apply(values), expected)
    assert seed._diagonal_f64 is not None


@pytest.mark.parametrize("modulus", [2, 3])
def test_toeplitz_fft_guard_falls_back_to_exact_product(monkeypatch, modulus):
    src = RandomSource(5, "toeplitz-guard")
    seed = ToeplitzSeed.random(src, modulus, 3000, 1000)
    values = src.integers_below(modulus, 3000)
    expected = toeplitz_apply_int(seed, values)
    irfft = np.fft.irfft
    calls = []

    def shifted_irfft(*args, **kwargs):
        # 0.6 rounds to the wrong integer, 0.4 away: only the guard saves it.
        out = irfft(*args, **kwargs)
        out[seed.in_len - 1 + 17] += 0.6
        calls.append(1)
        return out

    monkeypatch.setattr(np.fft, "irfft", shifted_irfft)
    assert np.array_equal(seed.apply(values), expected)
    assert calls == [1]


# ---------------------------------------------------------------------------
# Polynomial-evaluation MAC


def _bits_of(value, length):
    return BitString.from_int(value, length)


def test_mac_empty_message_single_term():
    key = MacKey(_bits_of(0x57, 8))
    # no message blocks: the tag is lengthblock * key with lengthblock = 0
    assert mac_tag(key, BitString([])) == _bits_of(gf_mul(0, 0x57, 8), 8)


def test_mac_deterministic_and_roundtrip():
    key = MacKey.random(RandomSource(4).stream("mac"), 64)
    msg = RandomSource(5).stream("msg").bits(130)
    assert mac_tag(key, msg) == mac_tag(key, msg)
    assert mac_verify(key, msg, mac_tag(key, msg))


def test_mac_verify_rejects_any_single_bit_tag_flip():
    key = MacKey.random(RandomSource(6).stream("mac"), 8)
    msg = RandomSource(7).stream("msg").bits(20)
    tag = mac_tag(key, msg)
    for i in range(8):
        flip = BitString([1 if j == i else 0 for j in range(8)])
        assert not mac_verify(key, msg, tag ^ flip)
    with pytest.raises(ValueError):
        mac_verify(key, msg, BitString([0] * 7))


def test_mac_collision_fraction_two_block_messages_exhaustive():
    """Over all 256 keys, a fixed pair of distinct 2-block messages collides
    for at most (d+1)/2^8 = 3/256 of the keys."""
    m1 = _bits_of(0x1234, 16)
    m2 = _bits_of(0x1235, 16)
    collisions = sum(
        1
        for k in range(256)
        if polynomial_mac(k, m1, 8) == polynomial_mac(k, m2, 8)
    )
    assert collisions <= 3


@pytest.mark.parametrize("blocks", [1, 2, 3, 4])
def test_mac_substitution_forgery_bound_exhaustive(blocks):
    """For message pairs of up to d blocks, every tag-difference value is
    consistent with at most d+1 of the 2^8 keys."""
    src = RandomSource(8).stream(f"forge{blocks}")
    m = src.bits(8 * blocks)
    m_prime = src.bits(8 * blocks)
    if m == m_prime:
        m_prime = m ^ BitString.from_int(1, len(m))
    diff_counts = np.zeros(256, dtype=np.int64)
    for k in range(256):
        delta = polynomial_mac(k, m, 8) ^ polynomial_mac(k, m_prime, 8)
        diff_counts[delta] += 1
    assert diff_counts.max() <= blocks + 1


def test_mac_length_block_separates_zero_padding():
    key = MacKey(_bits_of(0xA7, 8))
    short = BitString.from_text("101")
    padded = BitString.from_text("10100000")
    assert mac_tag(key, short) != mac_tag(key, padded)


def test_mac_length_block_wraps_at_lambda_8():
    """The length block is the length modulo 2^lambda. At lambda 8,
    appending 256 zero bits to a 256-bit message keeps its tag under all
    255 keys; to a 200-bit message, under the one key with key^32 = 1. At
    lambda 64 the length block tells both pairs apart."""
    src = RandomSource(12).stream("wrap")
    m256, m200 = src.bits(256), src.bits(200)
    zeros = BitString.zeros(256)
    keys = [MacKey(_bits_of(k, 8)) for k in range(1, 256)]
    assert all(mac_tag(key, m256) == mac_tag(key, m256 + zeros) for key in keys)
    assert [key for key in keys if mac_tag(key, m200) == mac_tag(key, m200 + zeros)] == [keys[0]]
    key = MacKey.random(RandomSource(13).stream("wrap"), 64)
    assert mac_tag(key, m256) != mac_tag(key, m256 + zeros)
    assert mac_tag(key, m200) != mac_tag(key, m200 + zeros)


def test_mac_key_validation_and_draw_remap():
    with pytest.raises(ValueError):
        MacKey(BitString.zeros(8))
    with pytest.raises(ValueError):
        MacKey(_bits_of(1, 16))
    remapped = MacKey.from_draw(BitString.zeros(8))
    assert remapped.key == BitString([1] * 8)
    kept = MacKey.from_draw(_bits_of(0x42, 8))
    assert kept.key == _bits_of(0x42, 8)


def test_gf_mul_field_identities():
    for tag_bits in (8, 64, 128):
        one = 1
        a = 0x5A5A % (1 << tag_bits) or 3
        assert gf_mul(a, one, tag_bits) == a
        assert gf_mul(a, 0, tag_bits) == 0
        b, c = 0x13, 0x2F
        left = gf_mul(a, b ^ c, tag_bits)
        assert left == gf_mul(a, b, tag_bits) ^ gf_mul(a, c, tag_bits)
    with pytest.raises(ValueError):
        gf_mul(1, 1, 32)


def _edge_elements(tag_bits):
    """0, 1, all-ones and the top bit alone."""
    return [0, 1, (1 << tag_bits) - 1, 1 << (tag_bits - 1)]


def _field_elements(tag_bits):
    return st.one_of(st.sampled_from(_edge_elements(tag_bits)),
                     st.integers(0, (1 << tag_bits) - 1))


@pytest.mark.parametrize("tag_bits", [8, 64, 128])
def test_gf_mul_edge_operands_match_bitserial_oracle(tag_bits):
    edges = _edge_elements(tag_bits)
    for a in edges:
        for b in edges:
            assert gf_mul(a, b, tag_bits) == gf_mul_bitserial(a, b, tag_bits)
    with pytest.raises(ValueError):
        polynomial_mac(1, BitString([1]), 32)


@given(st.data(), st.sampled_from([8, 64, 128]))
@settings(max_examples=300, deadline=None)
def test_gf_mul_matches_bitserial_oracle(data, tag_bits):
    a = data.draw(_field_elements(tag_bits))
    b = data.draw(_field_elements(tag_bits))
    assert gf_mul(a, b, tag_bits) == gf_mul_bitserial(a, b, tag_bits)


@given(st.data(), st.sampled_from([8, 64, 128]), st.integers(0, 300))
@settings(max_examples=200, deadline=None)
def test_mac_tag_matches_bitserial_oracle(data, tag_bits, length):
    key = data.draw(_field_elements(tag_bits).filter(bool))
    raw = data.draw(st.binary(min_size=(length + 7) // 8, max_size=(length + 7) // 8))
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:length]
    tag = mac_tag(MacKey(BitString.from_int(key, tag_bits)), BitString(bits))
    assert tag.to_int() == polynomial_mac_bitserial(key, bits, tag_bits)


@st.composite
def _bit_rows(draw):
    length = draw(st.integers(0, 600))
    fill = draw(st.sampled_from(["zeros", "ones", "random"]))
    if fill == "random":
        raw = draw(st.binary(min_size=(length + 7) // 8, max_size=(length + 7) // 8))
        return np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:length]
    return np.full(length, fill == "ones", dtype=np.uint8)


@given(_bit_rows(), st.sampled_from([8, 64, 128]))
@example(np.zeros(0, dtype=np.uint8), 8)
@example(np.ones(600, dtype=np.uint8), 128)
@example(np.ones(129, dtype=np.uint8), 64)
@example(np.zeros(7, dtype=np.uint8), 8)
@settings(max_examples=200, deadline=None)
def test_packed_bit_paths_match_per_bit_loops(bits, tag_bits):
    s = BitString(bits)
    value = bits_to_int_loop(bits)
    assert s.to_int() == value
    assert BitString.from_int(value, len(bits)) == s
    assert list(BitString.from_int(value, len(bits))) == int_to_bits_loop(value, len(bits))
    assert _message_blocks(s.bits, tag_bits) == message_blocks_loop(bits, tag_bits)


@given(st.data(), st.sampled_from([8, 64, 128]))
@settings(max_examples=100, deadline=None)
def test_mac_key_reused_over_messages_matches_bitserial_oracle(data, tag_bits):
    """One MacKey, its table built once, tags several messages as the
    bit-serial MAC does, and verifies each tag."""
    key_value = data.draw(_field_elements(tag_bits).filter(bool))
    key = MacKey(BitString.from_int(key_value, tag_bits))
    for _ in range(4):
        length = data.draw(st.integers(0, 300))
        raw = data.draw(st.binary(min_size=(length + 7) // 8, max_size=(length + 7) // 8))
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:length]
        expected = polynomial_mac_bitserial(key_value, bits, tag_bits)
        assert mac_tag(key, BitString(bits)).to_int() == expected
        assert mac_verify(key, BitString(bits), BitString.from_int(expected, tag_bits))
        assert polynomial_mac(key_value, BitString(bits), tag_bits) == expected
    assert key == MacKey(BitString.from_int(key_value, tag_bits))


@pytest.mark.parametrize("tag_bits", [8, 64, 128])
def test_message_blocks_at_block_boundaries(tag_bits):
    """Lengths around each block edge, where the last block is whole, one
    bit long or one bit short."""
    src = RandomSource(9, "blocks")
    for length in (0, 1, 7, 8, 9, tag_bits - 1, tag_bits, tag_bits + 1, 2 * tag_bits + 3):
        bits = src.bits(length)
        assert _message_blocks(bits.bits, tag_bits) == message_blocks_loop(bits.bits, tag_bits)
