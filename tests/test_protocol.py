from dataclasses import fields, replace

import numpy as np
import pytest

from qkr.ecc import CodeKind, make_code
from qkr.hashing import MacKey, mac_tag
from qkr.primitives import BasisString, BitString, Encoding, ProtocolParams, RandomSource
from qkr.protocol import (
    AliceRoundSecrets,
    EveView,
    KeyState,
    Reservoir,
    ReservoirExhausted,
    alice_check_feedback,
    alice_encrypt,
    bob_decrypt,
    feedback_tag,
    key_update,
    run_session,
)
from qkr.qsim import ChannelKind, ChannelModel, apply_error_pattern

from oracles import run_session_two_party

PARAMS = ProtocolParams(n=64, ell=32, kappa=8, tag_bits=8, beta=0.125, q_bits=32)


def _keys(seed=0, params=PARAMS):
    return KeyState.random(params, RandomSource(seed).stream("keys"))


def _mu(seed=1, params=PARAMS):
    return RandomSource(seed).stream("mu").bits(params.mu_bits)


# ---------------------------------------------------------------------------
# Encryption


def test_alice_encrypt_shape_and_basis_contract():
    keys = _keys()
    code = make_code(CodeKind.ORACLE, PARAMS)
    qubits, secrets = alice_encrypt(PARAMS, keys, _mu(), RandomSource(2).stream("a"), code)
    assert len(qubits) == PARAMS.n
    assert qubits.basis_string() == keys.b
    assert len(secrets.r) == PARAMS.kappa
    assert len(secrets.k_prime) == PARAMS.tag_bits
    assert secrets.x == secrets.c ^ keys.z
    assert qubits.payload_bits() == secrets.x


def test_alice_encrypt_zero_mask_identity_code_exposes_payload():
    params = ProtocolParams(n=40, ell=32, kappa=8, tag_bits=8, beta=0.0, q_bits=8)
    keys = replace(_keys(3, params), z=BitString.zeros(40))
    code = make_code(CodeKind.IDENTITY, params)
    mu = _mu(4, params)
    qubits, secrets = alice_encrypt(params, keys, mu, RandomSource(5).stream("a"), code)
    m = mu + secrets.k_prime + mac_tag(keys.xi, mu + secrets.k_prime)
    assert qubits.payload_bits() == m + secrets.r


def test_alice_encrypt_validates_plaintext_length():
    with pytest.raises(ValueError):
        alice_encrypt(
            PARAMS, _keys(), BitString.zeros(5), RandomSource(6), make_code(CodeKind.ORACLE, PARAMS)
        )


# ---------------------------------------------------------------------------
# Decryption and feedback


def _honest_round(params=PARAMS, seed=7, pattern=None, code_kind=CodeKind.ORACLE):
    keys = _keys(seed, params)
    code = make_code(code_kind, params)
    mu = _mu(seed + 1, params)
    qubits, secrets = alice_encrypt(params, keys, mu, RandomSource(seed + 2).stream("a"), code)
    if code_kind is CodeKind.ORACLE:
        code.note_transmitted(secrets.c)
    if pattern is not None:
        qubits = apply_error_pattern(qubits, pattern)
    dec = bob_decrypt(params, keys, qubits, code)
    return keys, code, mu, secrets, dec


def test_noiseless_roundtrip_accepts():
    _, _, mu, secrets, dec = _honest_round()
    assert dec.omega == 1
    assert dec.mu_hat == mu
    assert dec.x_hat == secrets.x
    assert dec.k_hat_prime == secrets.k_prime
    assert dec.r_hat == secrets.r


def test_oracle_threshold_rejects_above_t():
    pattern = np.zeros(PARAMS.n, dtype=np.uint8)
    pattern[: PARAMS.t + 1] = 1
    _, _, _, _, dec = _honest_round(pattern=BitString(pattern))
    assert dec.omega == 0
    assert dec.mu_hat is None

    pattern[PARAMS.t] = 0
    _, _, mu, _, dec = _honest_round(pattern=BitString(pattern))
    assert dec.omega == 1
    assert dec.mu_hat == mu


def test_decode_success_with_corrupted_tag_rejects():
    """Identity decoding passes tampered bits straight through, so a flip in
    the tag region reaches the verifier and must flip omega to 0."""
    params = ProtocolParams(n=40, ell=32, kappa=8, tag_bits=8, beta=0.0, q_bits=8)
    pattern = np.zeros(40, dtype=np.uint8)
    pattern[params.ell - 1] = 1  # last tag bit of the augmented message
    _, _, _, _, dec = _honest_round(params=params, pattern=BitString(pattern), code_kind=CodeKind.IDENTITY)
    assert dec.omega == 0
    # decoding itself succeeded: the parse fields are present
    assert dec.mu_hat is not None and dec.x_hat is not None


def test_bob_rejects_wrong_basis_labels():
    keys = _keys(11)
    code = make_code(CodeKind.ORACLE, PARAMS)
    qubits, secrets = alice_encrypt(PARAMS, keys, _mu(), RandomSource(12).stream("a"), code)
    code.note_transmitted(secrets.c)
    wrong = replace(keys, b=BasisString((keys.b.symbols + 1) % 3, 3))
    with pytest.raises(ValueError):
        bob_decrypt(PARAMS, wrong, qubits, code)


def test_feedback_roundtrip_and_binding():
    keys = _keys(13)
    for omega in (0, 1):
        tag = feedback_tag(keys, omega)
        assert alice_check_feedback(keys, omega, tag)
        assert not alice_check_feedback(keys, 1 - omega, tag)


def test_feedback_forgery_fraction_exhaustive():
    """Flipping omega while keeping the tag fools at most 2 of the 256
    possible feedback keys (one-block message, degree-<=1 difference plus
    the zero key)."""
    from qkr.hashing import polynomial_mac

    succeeded = 0
    for k in range(256):
        t0 = polynomial_mac(k, BitString([0]), 8)
        t1 = polynomial_mac(k, BitString([1]), 8)
        if t0 == t1:
            succeeded += 1
    assert succeeded <= 2


# ---------------------------------------------------------------------------
# Key update and reservoir accounting


def test_accept_update_agrees_and_consumes_nothing():
    keys, code, mu, secrets, dec = _honest_round(seed=20)
    alice_res = Reservoir(RandomSource(21).stream("res"))
    bob_res = Reservoir(RandomSource(21).stream("res"))
    alice_next = key_update(
        PARAMS, keys, 1, alice_res, x=secrets.x, r=secrets.r, k_next=secrets.k_prime
    )
    bob_next = key_update(
        PARAMS, keys, 1, bob_res, x=dec.x_hat, r=dec.r_hat, k_next=dec.k_hat_prime
    )
    assert alice_next == bob_next
    assert alice_res.consumed_bits == 0 and bob_res.consumed_bits == 0
    assert alice_next.xi == keys.xi
    assert alice_next.u == keys.u and alice_next.v == keys.v
    assert alice_next.k.key == secrets.k_prime
    assert alice_next.z != keys.z or alice_next.b != keys.b


def test_accept_update_requires_round_values():
    keys = _keys(22)
    with pytest.raises(ValueError):
        key_update(PARAMS, keys, 1, Reservoir(RandomSource(23)))


def test_reject_update_consumes_exactly_and_agrees():
    keys = _keys(24)
    alice_res = Reservoir(RandomSource(25).stream("res"))
    bob_res = Reservoir(RandomSource(25).stream("res"))
    alice_next = key_update(PARAMS, keys, 0, alice_res)
    bob_next = key_update(PARAMS, keys, 0, bob_res)
    assert alice_next == bob_next
    assert alice_res.consumed_bits == PARAMS.n + PARAMS.tag_bits + PARAMS.q_bits
    assert alice_next.xi == keys.xi
    assert alice_next.u == keys.u and alice_next.v == keys.v


def test_reject_update_consumption_at_paper_scale_sizing():
    params = ProtocolParams(n=1024, ell=500, kappa=100, tag_bits=64, beta=0.125, q_bits=427)
    keys = _keys(26, params)
    res = Reservoir(RandomSource(27).stream("res"))
    key_update(params, keys, 0, res)
    assert res.consumed_bits == 1024 + 64 + 427 == 1515


def test_zero_draw_remaps_feedback_key():
    keys = _keys(28)
    updated = key_update(
        PARAMS,
        keys,
        1,
        Reservoir(RandomSource(29)),
        x=keys.z,
        r=BitString.zeros(PARAMS.kappa),
        k_next=BitString.zeros(PARAMS.tag_bits),
    )
    assert updated.k.key == BitString([1] * PARAMS.tag_bits)


def test_reservoir_counter_is_sum_of_draws():
    res = Reservoir(RandomSource(30).stream("res"))
    res.draw_bits(10)
    res.draw_bits(0)
    res.draw_bits(5)
    assert res.consumed_bits == 15


def test_reservoir_capacity_exhaustion():
    res = Reservoir(RandomSource(31).stream("res"), capacity_bits=100)
    res.draw_bits(90)
    with pytest.raises(ReservoirExhausted):
        res.draw_bits(11)
    assert res.consumed_bits == 90


# ---------------------------------------------------------------------------
# Sessions


def test_noiseless_session_accepts_everything():
    result = run_session(
        PARAMS, ChannelModel(ChannelKind.IID_FLIP, gamma=0.0), CodeKind.ORACLE, 200, seed=32
    )
    s = result.summary
    assert s.accept_rate == 1.0
    assert s.consumed_bits == 0
    assert s.mismatches == 0
    assert s.errors_injected == 0
    assert s.key_agreement
    assert all(r.consumed_bits == 0 and r.omega == 1 for r in result.results)


def test_session_determinism():
    kwargs = dict(
        params=PARAMS,
        channel=ChannelModel(ChannelKind.IID_FLIP, gamma=0.08),
        code_kind=CodeKind.ORACLE,
        rounds=100,
        seed=33,
    )
    a = run_session(**kwargs)
    b = run_session(**kwargs)
    assert a.summary == b.summary
    assert a.results == b.results


def test_noisy_session_above_threshold_rejects_nearly_all():
    result = run_session(
        PARAMS, ChannelModel(ChannelKind.IID_FLIP, gamma=0.3), CodeKind.ORACLE, 400, seed=34
    )
    s = result.summary
    assert s.accept_rate < 0.01
    per_reject = PARAMS.n + PARAMS.tag_bits + PARAMS.q_bits
    for r in result.results:
        assert r.consumed_bits == (0 if r.omega else per_reject)
    assert s.consumed_bits == (s.rounds - s.accepts) * per_reject
    assert s.key_agreement
    assert s.mismatches == 0


def test_session_reservoir_exhaustion_propagates():
    with pytest.raises(ReservoirExhausted):
        run_session(
            PARAMS,
            ChannelModel(ChannelKind.IID_FLIP, gamma=0.4),
            CodeKind.ORACLE,
            200,
            seed=35,
            reservoir_capacity=3 * (PARAMS.n + PARAMS.tag_bits + PARAMS.q_bits),
        )


def test_session_with_caller_message_source():
    fixed = BitString([1, 0] * (PARAMS.mu_bits // 2))
    result = run_session(
        PARAMS,
        ChannelModel(ChannelKind.IID_FLIP, gamma=0.0),
        CodeKind.ORACLE,
        10,
        seed=36,
        message_source=lambda i: fixed,
    )
    assert all(r.mu_hat == fixed for r in result.results)


def test_session_rounds_validation():
    with pytest.raises(ValueError):
        run_session(PARAMS, ChannelModel(ChannelKind.IID_FLIP), CodeKind.ORACLE, 0, seed=0)


def test_bb84_session_full_key_evolution():
    """The two-letter basis alphabet drives the GF(2) basis-refresh lane of
    both hash families through accepts and rejects alike."""
    params = ProtocolParams(
        n=64, ell=32, kappa=8, tag_bits=8, beta=0.125,
        encoding=Encoding.BB84, q_bits=32,
    )
    result = run_session(
        params, ChannelModel(ChannelKind.IID_FLIP, gamma=0.15), CodeKind.ORACLE,
        300, seed=41,
    )
    s = result.summary
    assert s.key_agreement
    assert 0 < s.accepts < s.rounds
    assert s.mismatches == 0
    clean = run_session(
        params, ChannelModel(ChannelKind.IID_FLIP, gamma=0.0), CodeKind.ORACLE,
        50, seed=42,
    )
    assert clean.summary.accept_rate == 1.0
    assert clean.summary.consumed_bits == 0


# One shared key state against the two-party reference

_CODE_N = {CodeKind.IDENTITY: 40, CodeKind.ORACLE: 64, CodeKind.REPETITION3: 120}


def _code_params(code_kind, encoding=Encoding.SIX_STATE):
    return ProtocolParams(
        n=_CODE_N[code_kind], ell=32, kappa=8, tag_bits=8, beta=0.125,
        encoding=encoding, q_bits=32,
    )


def _assert_same_session(one, two):
    assert [r.to_json() for r in one.results] == [r.to_json() for r in two.results]
    assert one.summary == two.summary
    assert len(one.eve_views) == len(two.eve_views) == one.summary.rounds
    for a, b in zip(one.eve_views, two.eve_views):
        assert (a.qubits.basis_string(), a.qubits.payload_bits(), a.omega, a.tau_fb) == (
            b.qubits.basis_string(), b.qubits.payload_bits(), b.omega, b.tau_fb
        )


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "channel",
    [ChannelModel(ChannelKind.IID_FLIP, gamma=0.05),
     ChannelModel(ChannelKind.INTERCEPT_RESEND, eta=0.3)],
    ids=["iid-flip", "intercept-resend"],
)
@pytest.mark.parametrize("code_kind", list(CodeKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("encoding", list(Encoding), ids=lambda enc: enc.value)
def test_session_matches_two_party_reference(encoding, code_kind, channel, seed):
    """Checking Bob's Accept inputs gives the transcript, summary and
    adversary views of keeping and comparing both parties' states, including
    where the reference stops at the first diverged round."""
    kwargs = dict(
        params=_code_params(code_kind, encoding), channel=channel, code_kind=code_kind,
        rounds=30, seed=seed, keep_eve_views=True,
    )
    _assert_same_session(run_session(**kwargs), run_session_two_party(**kwargs))


def test_session_matches_two_party_reference_with_messages_and_capacity():
    params = _code_params(CodeKind.REPETITION3)
    fixed = BitString([1, 0] * (params.mu_bits // 2))
    kwargs = dict(
        params=params, channel=ChannelModel(ChannelKind.IID_FLIP, gamma=0.05),
        code_kind=CodeKind.REPETITION3, rounds=30, seed=1, keep_eve_views=True,
        message_source=lambda i: fixed,
    )
    one = run_session(**kwargs)
    _assert_same_session(one, run_session_two_party(**kwargs))
    assert not one.summary.key_agreement and one.summary.rounds < 30

    kwargs.update(
        channel=ChannelModel(ChannelKind.IID_FLIP, gamma=0.4),
        reservoir_capacity=3 * (params.n + params.tag_bits + params.q_bits),
    )
    last_round = []
    for session in (run_session, run_session_two_party):
        begun = []
        kwargs["message_source"] = lambda i: begun.append(i) or fixed
        with pytest.raises(ReservoirExhausted):
            session(**kwargs)
        last_round.append(begun[-1])
    assert last_round[0] == last_round[1] >= 3


# ---------------------------------------------------------------------------
# Permutation invariance


def test_joint_permutation_leaves_verdict_and_plaintext_unchanged():
    """Permuting qubit positions, the mask, the basis sequence, and the
    channel's error pattern jointly gives the identical omega and recovered
    plaintext: bounded-distance decoding sees only the error count."""
    code = make_code(CodeKind.ORACLE, PARAMS)
    rng = np.random.default_rng(37)
    keys = _keys(38)
    for trial in range(100):
        weight = int(rng.integers(0, PARAMS.t + 4))
        pattern = np.zeros(PARAMS.n, dtype=np.uint8)
        pattern[rng.choice(PARAMS.n, size=weight, replace=False)] = 1
        pi = rng.permutation(PARAMS.n)

        mu = _mu(400 + trial)
        outcomes = []
        for z, b, pat in [
            (keys.z, keys.b, pattern),
            (
                BitString(keys.z.bits[pi]),
                BasisString(keys.b.symbols[pi], keys.b.alphabet_size),
                pattern[pi],
            ),
        ]:
            permuted = replace(keys, z=z, b=b)
            src = RandomSource(500 + trial).stream("round")
            qubits, secrets = alice_encrypt(PARAMS, permuted, mu, src, code)
            code.note_transmitted(secrets.c)
            received = apply_error_pattern(qubits, BitString(pat))
            outcomes.append(bob_decrypt(PARAMS, permuted, received, code))
        first, second = outcomes
        assert first.omega == second.omega
        assert first.mu_hat == second.mu_hat


# ---------------------------------------------------------------------------
# Secrecy surface


def test_eve_view_structural_secrecy():
    names = {f.name for f in fields(EveView)}
    assert names == {"qubits", "omega", "tau_fb"}
    secret_names = {"z", "x", "r", "m", "mu", "k_prime", "c", "tau", "secrets", "keys", "mu_hat"}
    assert not names & secret_names
    assert not hasattr(AliceRoundSecrets, "to_json")
    assert not hasattr(EveView, "secrets")


def test_session_eve_views_carry_only_channel_output():
    result = run_session(
        PARAMS,
        ChannelModel(ChannelKind.IID_FLIP, gamma=0.1),
        CodeKind.ORACLE,
        20,
        seed=39,
        keep_eve_views=True,
    )
    assert len(result.eve_views) == 20
    for view, round_result in zip(result.eve_views, result.results):
        assert len(view.qubits) == PARAMS.n
        assert view.omega == round_result.omega
        assert view.tau_fb == round_result.tau_fb


# ---------------------------------------------------------------------------
# False accepts under heavy tampering (full-fidelity rounds)


def test_no_false_accepts_under_heavy_noise_full_protocol():
    """Repetition decoding never reports failure, so under heavy noise the
    receiver routinely parses a wrong message; at tag length 64 the verifier
    must catch every one of them."""
    params = ProtocolParams(
        n=456, ell=144, kappa=8, tag_bits=64, beta=0.125, q_bits=32
    )
    rounds = 10_000
    result = run_session(
        params,
        ChannelModel(ChannelKind.IID_FLIP, gamma=0.35),
        CodeKind.REPETITION3,
        rounds,
        seed=40,
    )
    assert result.summary.mismatches == 0
    # tampering really was reaching the verifier: essentially nothing accepts
    assert result.summary.accepts == 0
    assert result.summary.key_agreement
