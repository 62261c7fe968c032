import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkr.hashing import (
    MacKey,
    ToeplitzSeed,
    _message_blocks,
    gf_mul,
    hash_F,
    hash_G,
    mac_tag,
    mac_verify,
    polynomial_mac,
    random_f_seed,
    random_g_seed,
)
from qkr.primitives import BasisString, BitString, RandomSource

from oracles import (
    bits_to_int_loop,
    int_to_bits_loop,
    message_blocks_loop,
    pairwise_counts_extrema,
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
        ToeplitzSeed(2, u[0].in_len, n, np.zeros(u[0].in_len + n - 1, int), u[0].offset),
        ToeplitzSeed(3, u[1].in_len, n, np.zeros(u[1].in_len + n - 1, int), u[1].offset),
    )
    x = src.bits(n)
    b = src.basis_string(3, n)
    r = src.bits(kappa)
    new_z, new_b = hash_F(zero_u, x, b, r)
    assert new_z == BitString(u[0].offset)
    assert new_b == BasisString(u[1].offset, 3)

    v = random_g_seed(src, n, q_bits=3, alphabet_size=3)
    zero_v = ToeplitzSeed(3, v.in_len, n, np.zeros(v.in_len + n - 1, int), v.offset)
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


def test_seed_json_roundtrip():
    src = RandomSource(3).stream("seeds")
    for modulus in (2, 3):
        seed = ToeplitzSeed.random(src, modulus, 7, 4)
        assert ToeplitzSeed.from_json(seed.to_json()) == seed


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
    assert _message_blocks(s, tag_bits) == message_blocks_loop(bits, tag_bits)
