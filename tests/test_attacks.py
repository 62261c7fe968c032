from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkr import primitives
from qkr.attacks import (
    _FUZZ_PARAMS,
    _error_polynomial,
    _packed_flips,
    expected_intercept_error_rate,
    fuzz_batch,
    gf64_mul_words,
    intercept_resend_report,
    pack_bits_to_words,
    tamper_fuzz,
)
from qkr.ecc import CodeKind, make_code
from qkr.hashing import (
    MacKey,
    bytes_to_words,
    gf64_key_tables,
    gf_mul,
    mac_tag,
    mac_verify,
    nonzero_key_words,
)
from qkr.primitives import BitString, Encoding, RandomSource
from qkr.protocol import KeyState, alice_encrypt, bob_decrypt

from oracles import (
    apply_error_pattern,
    fuzz_batch_two_tags,
    gf64_mul_words_bitserial,
    mac64_rows,
    mac64_words_bitserial,
    pack_bits_to_words_shift_sum,
    tamper_fuzz_sliced,
)


def test_gf64_words_match_scalar_field():
    src = RandomSource(1).stream("gf")
    a = src.raw_words(200)
    b = src.raw_words(200)
    vec = gf64_mul_words(a, b)
    for i in range(200):
        assert int(vec[i]) == gf_mul(int(a[i]), int(b[i]), 64)


def test_pack_bits_matches_bitstring_ints():
    src = RandomSource(2).stream("pack")
    bits = src.bit_array(7 * 130).reshape(7, 130)
    words = pack_bits_to_words(bits)
    for i in range(7):
        row = BitString(bits[i])
        padded = row + BitString.zeros(192 - 130)
        for j in range(3):
            assert int(words[i, j]) == padded[64 * j : 64 * (j + 1)].to_int()


# 4096 = 0x1000 and 4097 = 0x1001: a length block with zero nibbles inside.
@pytest.mark.parametrize("length", [0, 1, 63, 64, 80, 100, 129, 4096, 4097])
def test_mac64_words_match_scalar_mac(length):
    src = RandomSource(3).stream(f"mac{length}")
    keys = src.raw_words(30)
    keys = np.where(keys == 0, np.uint64(1), keys)
    msgs = src.bit_array(30 * length).reshape(30, length) if length else np.zeros((30, 0), np.uint8)
    tags = mac64_rows(gf64_key_tables(keys), np.packbits(msgs, axis=1), length)
    for i in range(30):
        key = MacKey(BitString.from_int(int(keys[i]), 64))
        expected = mac_tag(key, BitString(msgs[i]))
        assert int(tags[i]) == expected.to_int()


# 0, 1, all-ones and the top bit alone
_EDGE_WORDS = [0, 1, (1 << 64) - 1, 1 << 63]
_WORDS = st.one_of(st.sampled_from(_EDGE_WORDS), st.integers(0, (1 << 64) - 1))


def _bit_matrix(draw, rows, length):
    raw = draw(st.binary(min_size=rows * length, max_size=rows * length))
    return (np.frombuffer(raw, dtype=np.uint8) & 1).reshape(rows, length)


@given(st.lists(st.tuples(_WORDS, _WORDS), max_size=40))
@settings(max_examples=100, deadline=None)
def test_gf64_mul_words_match_bitserial_oracle(pairs):
    edge_pairs = [(a, b) for a in _EDGE_WORDS for b in _EDGE_WORDS]
    a, b = (np.array(column, dtype=np.uint64) for column in zip(*(edge_pairs + pairs)))
    assert np.array_equal(gf64_mul_words(a, b), gf64_mul_words_bitserial(a, b))


@pytest.mark.parametrize(
    "a",
    [np.zeros(9, dtype=np.uint64), np.arange(16, dtype=np.uint64), np.zeros(0, dtype=np.uint64)],
    ids=["all-zero", "below-16", "empty"],
)
def test_gf64_mul_words_small_operands_match_bitserial_oracle(a):
    """Batches whose operands are all zero or below 16, so every nibble
    step but the last gathers T[0]."""
    b = np.resize(np.array(_EDGE_WORDS + [0x123456789ABCDEF0], dtype=np.uint64), len(a))
    assert np.array_equal(gf64_mul_words(a, b), gf64_mul_words_bitserial(a, b))


@given(st.integers(0, 16), st.lists(st.tuples(_WORDS, _WORDS), min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_gf64_mul_words_trailing_zero_nibbles_match_bitserial_oracle(zero_nibbles, pairs):
    """Operands whose low `zero_nibbles` nibbles are zero in every row, so
    those steps only shift and fold; 16 gives the all-zero column."""
    mask = ~((1 << 4 * zero_nibbles) - 1) & ((1 << 64) - 1)
    a = np.array([x & mask for x, _ in pairs], dtype=np.uint64)
    b = np.array([y for _, y in pairs], dtype=np.uint64)
    assert np.array_equal(gf64_mul_words(a, b), gf64_mul_words_bitserial(a, b))


def test_nonzero_key_words_match_mac_key_from_draw():
    words = np.concatenate([np.array(_EDGE_WORDS, dtype=np.uint64),
                            RandomSource(11).stream("keys").raw_words(20)])
    keys = nonzero_key_words(words)
    assert keys.dtype == np.uint64
    for w, key in zip(words, keys):
        expected = MacKey.from_draw(BitString.from_int(int(w), 64))
        assert int(key) == expected.key.to_int()


@given(st.data(), st.integers(0, 6), st.integers(0, 300))
@settings(max_examples=100, deadline=None)
def test_mac64_words_match_bitserial_oracle(data, extra_rows, length):
    keys = _EDGE_WORDS + data.draw(st.lists(_WORDS, min_size=extra_rows, max_size=extra_rows))
    keys = np.array(keys, dtype=np.uint64)
    msgs = _bit_matrix(data.draw, len(keys), length)
    tags = mac64_rows(gf64_key_tables(keys), np.packbits(msgs, axis=1), length)
    assert np.array_equal(tags, mac64_words_bitserial(keys, msgs))


@given(st.data(), st.integers(0, 5), st.integers(0, 200))
@settings(max_examples=100, deadline=None)
def test_pack_bits_to_words_match_shift_sum_oracle(data, rows, length):
    bits = _bit_matrix(data.draw, rows, length)
    words = pack_bits_to_words(bits)
    expected = pack_bits_to_words_shift_sum(bits)
    assert words.dtype == expected.dtype and words.shape == expected.shape
    assert np.array_equal(words, expected)


@given(st.data(), st.integers(0, 5), st.integers(0, 30))
@settings(max_examples=100, deadline=None)
def test_bytes_to_words_match_shift_sum_oracle(data, rows, length):
    raw = data.draw(st.binary(min_size=rows * length, max_size=rows * length))
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(rows, length)
    words = bytes_to_words(packed)
    expected = pack_bits_to_words_shift_sum(np.unpackbits(packed, axis=1))
    assert words.dtype == expected.dtype and words.shape == expected.shape
    assert np.array_equal(words, expected)


@given(st.integers(0, 2**64 - 1),
       st.sampled_from([0.0, 0.001, 0.3, 1.0, float("nan")]),
       st.sampled_from([-1, 0, 1, None]),
       st.sampled_from([152, 13]))
@settings(max_examples=20, deadline=None)
def test_packed_flips_match_one_bernoulli_draw(seed, flip_rate, offset, n):
    """Flips drawn and packed a chunk of rows at a time are the packed rows
    of one draw of the whole batch, and leave the stream at the same word.
    The row counts sit one below, at and one above a chunk, or span several
    chunks and a few rows."""
    chunk = max(1, primitives._FILL_WORDS // n)
    rows = 3 * chunk + 5 if offset is None else chunk + offset
    sliced = RandomSource(seed, "flips")
    whole = RandomSource(seed, "flips")
    got = _packed_flips(sliced._gen, flip_rate, rows, n)
    want = np.packbits(whole.bernoulli(flip_rate, rows * n).reshape(rows, n), axis=1)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(sliced.raw_words(2), whole.raw_words(2))


def _draw_fuzz_inputs(seed, batch, flip_rate=0.3):
    """A full round's inputs at the fuzz's sizes, padding r and mask z
    included, though the batch reads neither."""
    params = _FUZZ_PARAMS
    n = params.n
    src = RandomSource(seed).stream("xcheck")
    words = src.raw_words(batch)
    xi = np.where(words == 0, np.uint64(0xFFFFFFFFFFFFFFFF), words)
    mu = src.bit_array(batch * params.mu_bits).reshape(batch, params.mu_bits)
    k_prime = src.bit_array(batch * params.tag_bits).reshape(batch, params.tag_bits)
    r = src.bit_array(batch * params.kappa).reshape(batch, params.kappa)
    z = src.bit_array(batch * n).reshape(batch, n)
    flips = src.bernoulli(flip_rate, batch * n).reshape(batch, n).astype(np.uint8)
    return xi, mu, k_prime, r, z, flips


def _fuzz_batch_packed(xi, mu, k_prime, r, z, flips):
    """The batch on the packed flips: it takes no message, no padding and
    no mask."""
    return fuzz_batch(xi, np.packbits(flips, axis=1))


def _assert_every_class(out, flips):
    """An Accept, a changed r or tau under an unchanged message, and a
    changed k' under an unchanged plaintext each occur."""
    message_bits = _FUZZ_PARAMS.mu_bits + _FUZZ_PARAMS.tag_bits
    assert np.any(out["omega"])
    assert np.any(~out["message_changed"] & np.any(flips[:, message_bits:], axis=1))
    assert np.any(out["message_changed"] & ~out["plaintext_changed"])


def _check_scalar_reference(seed, batch, flip_rate):
    xi, mu, k_prime, r, z, flips = _draw_fuzz_inputs(seed, batch, flip_rate=flip_rate)
    out = _fuzz_batch_packed(xi, mu, k_prime, r, z, flips)
    for i in range(batch):
        key = MacKey(BitString.from_int(int(xi[i]), 64))
        mu_i, kp_i = BitString(mu[i]), BitString(k_prime[i])
        codeword = mu_i + kp_i + mac_tag(key, mu_i + kp_i) + BitString(r[i])
        unmasked = ((codeword ^ BitString(z[i])) ^ BitString(flips[i])) ^ BitString(z[i])
        mu_hat = unmasked[: len(mu_i)]
        k_hat = unmasked[len(mu_i) : len(mu_i) + 64]
        tau_hat = unmasked[len(mu_i) + 64 : len(mu_i) + 128]
        assert bool(out["omega"][i]) == mac_verify(key, mu_hat + k_hat, tau_hat)
        assert bool(out["message_changed"][i]) == (mu_hat + k_hat != mu_i + kp_i)
        assert bool(out["plaintext_changed"][i]) == (mu_hat != mu_i)
    return out, flips


def test_fuzz_batch_matches_scalar_reference():
    _check_scalar_reference(4, 200, 0.3)


@pytest.mark.parametrize("flip_rate", [0.002, 0.01])
def test_fuzz_batch_matches_scalar_reference_at_low_flip_rates(flip_rate):
    """At flip rate 0.3 no row accepts and every message changes; these
    rates reach the Accept branch and the partly changed rows."""
    _assert_every_class(*_check_scalar_reference(4, 200, flip_rate))


class _Replay:
    """Stands in for the `RandomSource` that Encryption draws r and k' from:
    one row of bits, r's words and then k''s."""

    def __init__(self, r, k_prime):
        self.r, self.k_prime = r, k_prime

    def bit_rows(self, rows, count):
        r_end = 64 * -(-len(self.r) // 64)
        assert (rows, count) == (1, r_end + len(self.k_prime))
        row = np.zeros(count, dtype=np.uint8)
        row[: len(self.r)] = self.r.bits
        row[r_end:] = self.k_prime.bits
        return row[None]


def _protocol_rounds(xi, mu, k_prime, r, z, flips):
    """Bob's decryption of each row's round through the real pipeline:
    `alice_encrypt`, the row's flips on the wire, `bob_decrypt`."""
    params = _FUZZ_PARAMS
    template = KeyState.random(params, RandomSource(6).stream("keys"))
    code = make_code(CodeKind.IDENTITY, params)
    for i in range(len(xi)):
        keys = replace(
            template,
            xi=MacKey(BitString.from_int(int(xi[i]), 64)),
            z=BitString(z[i]),
        )
        src = _Replay(BitString(r[i]), BitString(k_prime[i]))
        qubits, secrets = alice_encrypt(params, keys, BitString(mu[i]), src, code)
        tampered = apply_error_pattern(qubits, BitString(flips[i]))
        yield bob_decrypt(params, keys, tampered, code)


def _check_full_protocol_round(seed, batch, flip_rate):
    xi, mu, k_prime, r, z, flips = _draw_fuzz_inputs(seed, batch, flip_rate=flip_rate)
    out = _fuzz_batch_packed(xi, mu, k_prime, r, z, flips)
    for i, dec in enumerate(_protocol_rounds(xi, mu, k_prime, r, z, flips)):
        assert dec.omega == int(out["omega"][i])
        if dec.omega:
            assert (dec.mu_hat != BitString(mu[i])) == bool(out["plaintext_changed"][i])
    return out, flips


def test_fuzz_batch_matches_full_protocol_round():
    """Drive the real encrypt/tamper/decrypt pipeline with the same inputs
    the batch saw and compare verdicts round by round."""
    _check_full_protocol_round(5, 40, 0.3)


@pytest.mark.parametrize("flip_rate", [0.002, 0.01])
def test_fuzz_batch_matches_full_protocol_round_at_low_flip_rates(flip_rate):
    """Rows that Bob accepts, where the protocol's `dec.omega` arm compares
    the recovered plaintext too."""
    _assert_every_class(*_check_full_protocol_round(5, 120, flip_rate))


@pytest.mark.parametrize("flip_rate", [0.002, 0.3])
def test_fuzz_batch_reports_forgeries(flip_rate):
    """At lambda 64 no drawn row reaches a changed message that Bob accepts
    (chance about 2^-63). Setting a row's tag flips to the error polynomial
    of its nonzero message flips builds one: Bob's tag of the changed
    message then equals the changed tag, in the batch and in the real
    round alike."""
    params = _FUZZ_PARAMS
    message_bits = params.mu_bits + params.tag_bits
    xi, mu, k_prime, r, z, flips = _draw_fuzz_inputs(7, 60, flip_rate=flip_rate)
    message_flips = flips[:, :message_bits]
    # Every fourth row flips k' only, in its last block; a row left without
    # message flips gets one in mu, in its first block.
    message_flips[::4, : params.mu_bits] = 0
    message_flips[::4, message_bits - 1] = 1
    message_flips[~message_flips.any(axis=1), 0] = 1
    message = np.concatenate([mu, k_prime], axis=1)
    error = mac64_words_bitserial(xi, message ^ message_flips) ^ mac64_words_bitserial(xi, message)
    flips[:, message_bits : message_bits + 64] = np.unpackbits(
        error.astype(">u8").view(np.uint8)).reshape(len(xi), 64)

    out = _fuzz_batch_packed(xi, mu, k_prime, r, z, flips)
    mu_flips = message_flips[:, : params.mu_bits]
    mu_flipped = mu_flips.any(axis=1)
    assert mu_flipped.any() and not mu_flipped.all()
    assert out["omega"].all() and out["message_changed"].all()
    assert np.array_equal(out["plaintext_changed"], mu_flipped)
    for i, dec in enumerate(_protocol_rounds(xi, mu, k_prime, r, z, flips)):
        assert dec.omega == 1
        assert dec.mu_hat == BitString(mu[i] ^ mu_flips[i])


def _packed_rows(src, rows, bits, flip_rate=None):
    """Packed rows of uniform bits, or of flips at `flip_rate`."""
    if flip_rate is None:
        drawn = src.bit_array(rows * bits)
    else:
        drawn = src.bernoulli(flip_rate, rows * bits)
    return np.packbits(drawn.reshape(rows, bits), axis=1)


@given(st.lists(_WORDS, max_size=60), st.sampled_from([0.0, 0.002, 0.3, 1.0]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_fuzz_batch_matches_two_tag_reference(keys, flip_rate, seed):
    """The error-polynomial check gives Alice's-tag-and-Bob's-check
    verdicts on every row."""
    params = _FUZZ_PARAMS
    xi = np.array(keys, dtype=np.uint64)
    rows = len(xi)
    src = RandomSource(seed, "reference")
    mu = _packed_rows(src, rows, params.mu_bits)
    k_prime = _packed_rows(src, rows, params.tag_bits)
    flips = _packed_rows(src, rows, params.n, flip_rate)
    got = fuzz_batch(xi, flips)
    want = fuzz_batch_two_tags(xi, mu, k_prime, flips)
    assert got.keys() == want.keys()
    for name in want:
        assert np.array_equal(got[name], want[name]), name


@given(st.data(), st.integers(0, 6), st.integers(0, 300))
@settings(max_examples=100, deadline=None)
def test_error_polynomial_is_the_tag_difference(data, extra_rows, length):
    """Tags of equal-length messages m ^ e and m differ by the error
    polynomial of e: the length block cancels."""
    keys = _EDGE_WORDS + data.draw(st.lists(_WORDS, min_size=extra_rows, max_size=extra_rows))
    keys = np.array(keys, dtype=np.uint64)
    m = _bit_matrix(data.draw, len(keys), length)
    e = _bit_matrix(data.draw, len(keys), length)
    got = _error_polynomial(gf64_key_tables(keys), np.packbits(e, axis=1))
    for key, m_row, e_row, value in zip(keys, m, e, got):
        if key == 0:
            assert value == 0  # the zero key tags every message 0
            continue
        mac = MacKey(BitString.from_int(int(key), 64))
        expected = mac_tag(mac, BitString(m_row ^ e_row)) ^ mac_tag(mac, BitString(m_row))
        assert int(value) == expected.to_int()


def test_tamper_fuzz_million_rounds_no_false_accepts():
    """Tag length 64: a false accept in any number of desk-scale rounds would
    need a 2^-63-scale event."""
    report = tamper_fuzz(rounds=1_000_000, seed=7)
    assert report["false_accepts"] == 0
    assert report["successful_forgeries"] == 0
    # heavy tampering means essentially every round attempted a substitution
    assert report["forgery_attempts"] > 990_000
    assert report["rounds"] == 1_000_000


class _Inline:
    """An executor that runs each task on the calling thread as it is
    submitted, so the second half of a split runs before the first."""

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("flip_rate", [0.0, 0.001, 0.3, 1.0])
@pytest.mark.parametrize("rounds", [1, 2, 3, 5001, 65537])
def test_tamper_fuzz_matches_one_thread_slices(monkeypatch, rounds, flip_rate):
    """The report with each batch's rows split between two threads equals
    the one-thread driver's, and so does the report with the worker's half
    run inline, first, on the calling thread. 5001 rounds split into halves
    of 2500 and 2501 rows; 65537 rounds make a full batch and a one-row
    batch whose first half is empty."""
    want = tamper_fuzz_sliced(rounds, 11, flip_rate)
    assert tamper_fuzz(rounds, 11, flip_rate) == want
    monkeypatch.setattr(primitives, "_worker", _Inline)
    assert tamper_fuzz(rounds, 11, flip_rate) == want


def test_tamper_fuzz_deterministic():
    a = tamper_fuzz(rounds=5_000, seed=8)
    b = tamper_fuzz(rounds=5_000, seed=8)
    assert a == b


def test_intercept_report_eta_zero_matches_clean_baseline():
    """The report measures the channel only; `qkr attack intercept_resend`
    runs the session (tests/test_cli.py)."""
    report = intercept_resend_report(Encoding.SIX_STATE, 0.0, 20_000, seed=9)
    assert report["errors"] == 0
    assert "session_reject_rate" not in report


def test_intercept_report_full_attack_rates():
    for encoding, expected in ((Encoding.BB84, 0.25), (Encoding.SIX_STATE, 1 / 3)):
        report = intercept_resend_report(encoding, 1.0, 100_000, seed=10)
        sigma = np.sqrt(expected * (1 - expected) / 100_000)
        assert abs(report["induced_error_rate"] - expected) <= 3 * sigma
        assert report["expected_error_rate"] == pytest.approx(expected)


def test_expected_intercept_rate_table():
    assert expected_intercept_error_rate(1.0, Encoding.BB84) == 0.25
    assert expected_intercept_error_rate(1.0, Encoding.SIX_STATE) == pytest.approx(1 / 3)
    assert expected_intercept_error_rate(0.5, Encoding.BB84) == 0.125
    assert expected_intercept_error_rate(0.0, Encoding.SIX_STATE) == 0.0
