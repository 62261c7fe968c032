from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkr.ecc import CodeKind, OracleBddCode, make_code
from qkr.hashing import (
    FFT_MIN_MUL_ADDS,
    MacKey,
    ToeplitzSeed,
    f_seed_shapes,
    mac_tag,
    random_g_seed,
)
from qkr.primitives import BasisString, BitString, Encoding, ProtocolParams, RandomSource
from qkr.protocol import (
    AliceRoundSecrets,
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
from qkr import protocol
from qkr.qsim import ChannelKind, ChannelModel, QubitSequence, _row_words, transmit

from oracles import (
    alice_encrypt_strings,
    apply_error_pattern,
    bob_decrypt_strings,
    feedback_tag_strings,
    key_update_strings,
    run_session_two_party,
)

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
    assert qubits.basis == keys.b
    assert len(secrets.r) == PARAMS.kappa
    assert len(secrets.k_prime) == PARAMS.tag_bits
    assert secrets.x == secrets.c ^ keys.z
    assert qubits.payload == secrets.x
    assert not hasattr(AliceRoundSecrets, "to_json")


def test_alice_encrypt_zero_mask_identity_code_exposes_payload():
    params = ProtocolParams(n=40, ell=32, kappa=8, tag_bits=8, beta=0.0, q_bits=8)
    keys = replace(_keys(3, params), z=BitString.zeros(40))
    code = make_code(CodeKind.IDENTITY, params)
    mu = _mu(4, params)
    qubits, secrets = alice_encrypt(params, keys, mu, RandomSource(5).stream("a"), code)
    m = mu + secrets.k_prime + mac_tag(keys.xi, mu + secrets.k_prime)
    assert qubits.payload == m + secrets.r


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


def test_bob_accepts_an_equal_copy_of_the_basis_string():
    """The basis check compares the strings' symbols and alphabet, so an equal
    string that is not the shared object itself passes."""
    keys = _keys(11)
    code = make_code(CodeKind.ORACLE, PARAMS)
    mu = _mu()
    qubits, secrets = alice_encrypt(PARAMS, keys, mu, RandomSource(12).stream("a"), code)
    code.note_transmitted(secrets.c)
    copy = replace(keys, b=BasisString(keys.b.symbols.copy(), 3))
    assert copy.b is not qubits.basis
    dec = bob_decrypt(PARAMS, copy, qubits, code)
    assert dec.omega == 1 and dec.mu_hat == mu


def test_feedback_refuses_a_verdict_other_than_zero_or_one():
    keys = _keys(13)
    for omega in (2, -1, None, "1"):
        with pytest.raises(ValueError):
            feedback_tag(keys, omega)
        with pytest.raises(ValueError):
            alice_check_feedback(keys, omega, feedback_tag(keys, 1))
    assert feedback_tag(keys, True) == feedback_tag(keys, 1)


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


def _wrong_field_seed(keys, component):
    """`keys` with one hash seed component over the wrong field: the mask
    component of u over GF(3), the basis component of u or v over GF(2)."""
    src = RandomSource(44).stream("seeds")
    (mask_in, mask_out), (basis_in, basis_out) = f_seed_shapes(PARAMS.n, PARAMS.kappa, 3)
    if component == "u-mask":
        return replace(keys, u=(ToeplitzSeed.random(src, 3, mask_in, mask_out), keys.u[1]))
    if component == "u-basis":
        return replace(keys, u=(keys.u[0], ToeplitzSeed.random(src, 2, basis_in, basis_out)))
    return replace(keys, v=random_g_seed(src, PARAMS.n, PARAMS.q_bits, 2))


@pytest.mark.parametrize(
    "component,omega,message",
    [
        ("u-mask", 1, r"^mask component seed must be over GF\(2\)$"),
        ("u-basis", 1, "^basis component seed modulus must equal the basis alphabet size$"),
        ("v", 0, "^seed modulus must equal the basis alphabet size$"),
    ],
)
def test_key_update_refuses_hash_seeds_over_the_wrong_field(component, omega, message):
    """A hand-built key state's seeds are checked where the update hashes."""
    keys = _wrong_field_seed(_keys(44), component)
    round_values = dict(
        x=keys.z, r=BitString.zeros(PARAMS.kappa), k_next=BitString.zeros(PARAMS.tag_bits)
    )
    with pytest.raises(ValueError, match=message):
        key_update(
            PARAMS, keys, omega, Reservoir(RandomSource(45).stream("res")),
            **(round_values if omega else {}),
        )


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
# Input checks


def _step(step, keys=None, code=None, qubits=None):
    """Run one protocol step under PARAMS, with honest inputs in place of
    those not given."""
    honest = _keys(40)
    keys = honest if keys is None else keys
    code = make_code(CodeKind.ORACLE, PARAMS) if code is None else code
    if step == "alice_encrypt":
        return alice_encrypt(PARAMS, keys, _mu(), RandomSource(41).stream("a"), code)
    if step == "bob_decrypt":
        if qubits is None:
            qubits, _ = alice_encrypt(PARAMS, honest, _mu(), RandomSource(41).stream("a"), code)
        return bob_decrypt(PARAMS, keys, qubits, code)
    return key_update(PARAMS, keys, 0, Reservoir(RandomSource(42).stream("res")))


def _relabelled_qubits():
    qubits, _ = _step("alice_encrypt")
    bases = BasisString((qubits.basis.symbols + 1) % 3, 3)
    return QubitSequence.prepare(bases, qubits.payload)


def _other_alphabet_qubits():
    """Honest qubits under a six-state b that holds only 0 and 1, relabelled
    with the same symbols as a two-letter basis string."""
    honest = _keys(40)
    keys = replace(honest, b=BasisString(honest.b.symbols % 2, 3))
    code = make_code(CodeKind.ORACLE, PARAMS)
    qubits, secrets = alice_encrypt(PARAMS, keys, _mu(), RandomSource(41).stream("a"), code)
    code.note_transmitted(secrets.c)
    relabelled = QubitSequence.prepare(BasisString(keys.b.symbols, 2), qubits.payload)
    return dict(keys=keys, code=code, qubits=relabelled)


# Inputs that differ from PARAMS in one dimension, and the check that names it.
_MISMATCHES = {
    "n": (lambda: dict(keys=_keys(40, replace(PARAMS, n=72))),
          "key state does not match params: n mismatch"),
    "basis-alphabet": (lambda: dict(keys=_keys(40, replace(PARAMS, encoding=Encoding.BB84))),
                       "key state does not match params: basis alphabet mismatch"),
    "tag-length": (lambda: dict(keys=replace(_keys(40), k=MacKey.random(RandomSource(43), 64))),
                   "key state does not match params: tag length mismatch"),
    "code": (lambda: dict(code=make_code(CodeKind.ORACLE, replace(PARAMS, kappa=4))),
             "code dimensions do not match params"),
    "basis-labels": (lambda: dict(qubits=_relabelled_qubits()),
                     "honest simulation requires basis labels equal to the shared b"),
    "basis-labels-alphabet": (_other_alphabet_qubits,
                              "honest simulation requires basis labels equal to the shared b"),
}


@pytest.mark.parametrize(
    "step,mismatch",
    [(step, name) for step in ("alice_encrypt", "bob_decrypt", "key_update")
     for name in ("n", "basis-alphabet", "tag-length")]
    + [("alice_encrypt", "code"), ("bob_decrypt", "basis-labels"),
       ("bob_decrypt", "basis-labels-alphabet")],
)
def test_steps_refuse_inputs_that_do_not_match_params(step, mismatch):
    inputs, message = _MISMATCHES[mismatch]
    with pytest.raises(ValueError, match=f"^{message}$"):
        _step(step, **inputs())


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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_feedback_key_after_a_reject_is_the_reservoirs_draw(seed):
    """The feedback key rotates on Reject: round 0 tags its verdict under
    the initial k, and every round after a Reject under `MacKey.from_draw`
    of the tag_bits reservoir bits that the Reject drew after its n mask
    bits and before its q_bits. The reservoir is replayed from its own
    stream, so the property needs no recorded digest."""
    result = run_session(
        PARAMS, ChannelModel(ChannelKind.IID_FLIP, gamma=0.12), CodeKind.ORACLE, 60, seed=seed
    )
    verdicts = [r.omega for r in result.results]
    # Both verdicts occur, and some Rejects are followed by a round.
    assert 0 < sum(verdicts) < len(verdicts) - 5 and 0 in verdicts[:-1]
    reservoir = RandomSource(seed).stream("reservoir")
    k = KeyState.random(PARAMS, RandomSource(seed).stream("keys")).k
    for i, r in enumerate(result.results):
        if i == 0 or not verdicts[i - 1]:
            assert r.tau_fb == mac_tag(k, BitString([r.omega])), i
        if not r.omega:
            reservoir.bits(PARAMS.n)
            k = MacKey.from_draw(reservoir.bits(PARAMS.tag_bits))
            reservoir.bits(PARAMS.q_bits)


def test_session_reservoir_exhaustion_propagates():
    per_reject = PARAMS.n + PARAMS.tag_bits + PARAMS.q_bits
    result = run_session(
        PARAMS,
        ChannelModel(ChannelKind.IID_FLIP, gamma=0.4),
        CodeKind.ORACLE,
        200,
        seed=35,
        reservoir_capacity=3 * per_reject,
    )
    assert isinstance(result.exhausted, ReservoirExhausted)
    assert str(result.exhausted) == (
        f"reservoir exhausted: {3 * per_reject} consumed, {PARAMS.n} requested, "
        f"capacity {3 * per_reject}"
    )
    s = result.summary
    assert s.rounds == len(result.results) < 200
    assert s.rounds - s.accepts == 3
    assert s.consumed_bits == 3 * per_reject


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


def test_session_refuses_a_plaintext_of_the_wrong_length():
    """The plaintext a caller's message source returns is checked every
    round, not only in the first."""
    fixed = BitString([1, 0] * (PARAMS.mu_bits // 2))
    short = BitString.zeros(PARAMS.mu_bits - 1)
    with pytest.raises(ValueError, match=f"^plaintext must have length {PARAMS.mu_bits}$"):
        run_session(
            PARAMS, ChannelModel(ChannelKind.IID_FLIP, gamma=0.0), CodeKind.ORACLE, 10,
            seed=36, message_source=lambda i: short if i == 3 else fixed,
        )


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
    assert one.results == two.results
    assert one.summary == two.summary
    assert (type(one.exhausted), str(one.exhausted)) == (type(two.exhausted), str(two.exhausted))


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
    """Checking Bob's Accept inputs gives the transcript and summary of
    keeping and comparing both parties' states, including where the
    reference stops at the first diverged round."""
    kwargs = dict(
        params=_code_params(code_kind, encoding), channel=channel, code_kind=code_kind,
        rounds=30, seed=seed,
    )
    _assert_same_session(run_session(**kwargs), run_session_two_party(**kwargs))


def _cutting_capacity(params):
    """Room for three Rejects and the mask of a fourth: the fourth Reject
    draws z, then fails on its feedback key."""
    return 3 * (params.n + params.tag_bits + params.q_bits) + params.n


def test_session_matches_two_party_reference_with_messages_and_capacity():
    params = _code_params(CodeKind.REPETITION3)
    fixed = BitString([1, 0] * (params.mu_bits // 2))
    kwargs = dict(
        params=params, channel=ChannelModel(ChannelKind.IID_FLIP, gamma=0.05),
        code_kind=CodeKind.REPETITION3, rounds=30, seed=1,
        message_source=lambda i: fixed,
    )
    one = run_session(**kwargs)
    _assert_same_session(one, run_session_two_party(**kwargs))
    assert not one.summary.key_agreement and one.summary.rounds < 30

    kwargs.update(
        channel=ChannelModel(ChannelKind.IID_FLIP, gamma=0.4),
        reservoir_capacity=_cutting_capacity(params),
    )
    sessions, last_round = [], []
    for session in (run_session, run_session_two_party):
        begun = []
        kwargs["message_source"] = lambda i: begun.append(i) or fixed
        sessions.append(session(**kwargs))
        last_round.append(begun[-1])
    _assert_same_session(*sessions)
    one = sessions[0]
    assert isinstance(one.exhausted, ReservoirExhausted)
    # the round that exhausted the reservoir began but is not recorded
    assert last_round[0] == last_round[1] == one.summary.rounds >= 3


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("code_kind,gamma,capacity,ending", [
    (CodeKind.ORACLE, 0.05, None, "finished"),
    (CodeKind.ORACLE, 0.4, "cut", "exhausted"),
    (CodeKind.ORACLE, 0.4, "first", "exhausted"),
    (CodeKind.REPETITION3, 0.05, None, "diverged"),
    (CodeKind.REPETITION3, 0.0, None, "finished"),
    (CodeKind.REPETITION3, 0.4, "cut", "exhausted"),
], ids=["oracle-finished", "oracle-cut", "oracle-first", "rep3-diverged",
        "rep3-finished", "rep3-cut"])
def test_session_record_is_the_fold_of_its_rounds(code_kind, gamma, capacity, ending, seed):
    """On every ending, the summary is computed from the returned rounds
    only, and matches the two-party reference's running totals. A capacity
    that runs out between a Reject's draws leaves the aborted round's first
    draw on the reservoir's counter but not in the summary; one that runs
    out in the first Reject leaves no rounds."""
    params = _code_params(code_kind)
    per_reject = params.n + params.tag_bits + params.q_bits
    reservoir_capacity = {None: None, "cut": _cutting_capacity(params), "first": params.n}[capacity]
    kwargs = dict(
        params=params, channel=ChannelModel(ChannelKind.IID_FLIP, gamma=gamma),
        code_kind=code_kind, rounds=30, seed=seed, reservoir_capacity=reservoir_capacity,
    )
    one = run_session(**kwargs)
    _assert_same_session(one, run_session_two_party(**kwargs))

    results, s = one.results, one.summary
    assert ending == (
        "exhausted" if one.exhausted is not None
        else "finished" if s.key_agreement else "diverged"
    )
    assert s.rounds == len(results)
    assert (s.rounds == 30) == (ending == "finished")
    assert s.accepts == sum(r.omega for r in results)
    assert s.accept_rate == (s.accepts / s.rounds if s.rounds else 0.0)
    assert s.consumed_bits == sum(r.consumed_bits for r in results)
    assert s.consumed_bits == (s.rounds - s.accepts) * per_reject
    assert s.errors_injected == sum(r.errors_injected for r in results)
    if capacity == "cut":
        assert s.rounds - s.accepts == 3
        assert str(one.exhausted).startswith(
            f"reservoir exhausted: {reservoir_capacity} consumed, {params.tag_bits} requested"
        )
    if capacity == "first":
        assert (s.rounds, s.accept_rate, s.consumed_bits) == (0, 0.0, 0)


def _blocked_session_cases():
    """Sessions whose block edges matter: intercept-resend with both
    updates, a repetition3 divergence in the middle of the third block of
    three, and a capacity that cuts the first Reject of the second block."""
    rep3 = _code_params(CodeKind.REPETITION3)
    oracle = _code_params(CodeKind.ORACLE)
    return {
        "intercept-resend": dict(
            params=oracle, channel=ChannelModel(ChannelKind.INTERCEPT_RESEND, eta=0.3),
            code_kind=CodeKind.ORACLE, rounds=30, seed=0),
        "rep3-diverged": dict(
            params=rep3, channel=ChannelModel(ChannelKind.IID_FLIP, gamma=0.05),
            code_kind=CodeKind.REPETITION3, rounds=30, seed=2),
        "oracle-cut": dict(
            params=oracle, channel=ChannelModel(ChannelKind.IID_FLIP, gamma=0.4),
            code_kind=CodeKind.ORACLE, rounds=30, seed=0,
            reservoir_capacity=_cutting_capacity(oracle)),
    }


def _blocks_of(monkeypatch, per_block, kwargs):
    """Cut the block word budget to `per_block` rounds of the session's
    widest stream, its channel, and record the rounds each block asks for."""
    params = kwargs["params"]
    widest = _row_words(kwargs["channel"], params.alphabet_size, params.n)
    monkeypatch.setattr(protocol, "_FILL_WORDS", per_block * widest)
    asked = []
    draw = protocol._channel_rows

    def recorded(channel, alphabet, n, rows, src):
        asked.append(rows)
        return draw(channel, alphabet, n, rows, src)

    monkeypatch.setattr(protocol, "_channel_rows", recorded)
    return asked


@pytest.mark.parametrize("per_block", [1, 3])
@pytest.mark.parametrize("case", list(_blocked_session_cases()))
def test_session_is_the_same_at_every_block_size(monkeypatch, per_block, case):
    """One, three or all rounds per block give the same session, which is
    the two-party reference's; the draws past a session's last round are
    never read."""
    kwargs = _blocked_session_cases()[case]
    whole = run_session(**kwargs)
    asked = _blocks_of(monkeypatch, per_block, kwargs)
    blocked = run_session(**kwargs)
    _assert_same_session(blocked, whole)
    _assert_same_session(blocked, run_session_two_party(**kwargs))
    rounds = blocked.summary.rounds
    begun = rounds + (blocked.exhausted is not None)
    assert asked == [per_block] * -(-begun // per_block)
    if case == "rep3-diverged":
        assert not blocked.summary.key_agreement and rounds == 8
    if case == "oracle-cut":
        assert isinstance(blocked.exhausted, ReservoirExhausted) and rounds == 3


# The array round against the string-level steps


def _session_case(encoding, code_kind, tag_bits, mu_bits, kappa, spare, beta, q_bits):
    """Params for one session: ell holds two tags and mu_bits of plaintext,
    and n is the code's length for ell + kappa payload bits (`spare` more
    for the oracle)."""
    ell = 2 * tag_bits + mu_bits
    payload = ell + kappa
    n = {CodeKind.IDENTITY: payload, CodeKind.REPETITION3: 3 * payload,
         CodeKind.ORACLE: payload + spare}[code_kind]
    return ProtocolParams(n=n, ell=ell, kappa=kappa, tag_bits=tag_bits, beta=beta,
                          encoding=encoding, q_bits=q_bits)


@st.composite
def _session_params(draw, code_kind):
    return _session_case(
        draw(st.sampled_from(list(Encoding))),
        code_kind,
        draw(st.sampled_from([8, 64, 128])),
        draw(st.integers(1, 24)),
        draw(st.integers(0, 24)),
        draw(st.integers(0, 400)),
        draw(st.sampled_from([0.0625, 0.125, 0.25])),
        draw(st.integers(1, 64)),
    )


_CODE_KINDS = st.sampled_from(list(CodeKind))
_CHANNELS = st.one_of(
    st.sampled_from([0.0, 0.02, 0.1, 0.3]).map(
        lambda gamma: ChannelModel(ChannelKind.IID_FLIP, gamma=gamma)),
    st.sampled_from([0.3, 1.0]).map(
        lambda eta: ChannelModel(ChannelKind.INTERCEPT_RESEND, eta=eta)),
)


def _cut_capacity(params, rejects, cut):
    """Room for `rejects` whole Rejects and `cut` bits of the next one."""
    return rejects * (params.n + params.tag_bits + params.q_bits) + cut


@st.composite
def _sessions(draw):
    """run_session's arguments. A capacity, when set, ends inside a Reject:
    after up to three whole ones, before or after the next one's z or k
    draw, or one bit short of its q draw."""
    code_kind = draw(_CODE_KINDS)
    params = draw(_session_params(code_kind))
    n, tag_bits, q_bits = params.n, params.tag_bits, params.q_bits
    cuts = [0, n - 1, n, n + tag_bits, n + tag_bits + q_bits - 1]
    capacity = draw(st.none() | st.builds(
        partial(_cut_capacity, params), st.integers(0, 3), st.sampled_from(cuts)))
    fixed = draw(st.none() | st.integers(0, 2**params.mu_bits - 1))
    message = None if fixed is None else BitString.from_int(fixed, params.mu_bits)
    return dict(
        params=params, channel=draw(_CHANNELS), code_kind=code_kind,
        rounds=draw(st.integers(1, 8)), seed=draw(st.integers(0, 2**16)),
        message_source=None if message is None else lambda i: message,
        reservoir_capacity=capacity,
    )


def _fft_session(encoding, code_kind, tag_bits, channel, capacity_cut=None):
    """A session whose mask product takes the FFT path."""
    params = _session_case(encoding, code_kind, tag_bits, 9, 20, 200, 0.125, 40)
    (in_len, out_len), _ = f_seed_shapes(params.n, params.kappa, params.alphabet_size)
    if in_len * out_len < FFT_MIN_MUL_ADDS:
        raise ValueError(f"{params} keeps the mask product below the FFT path")
    return dict(
        params=params, channel=channel, code_kind=code_kind, rounds=8, seed=3,
        message_source=None,
        reservoir_capacity=None if capacity_cut is None else _cut_capacity(params, *capacity_cut),
    )


_FFT_SESSIONS = [
    _fft_session(Encoding.SIX_STATE, CodeKind.ORACLE, 128,
                 ChannelModel(ChannelKind.INTERCEPT_RESEND, eta=0.37)),
    _fft_session(Encoding.BB84, CodeKind.REPETITION3, 64,
                 ChannelModel(ChannelKind.IID_FLIP, gamma=0.1), capacity_cut=(2, 500)),
]


@given(_sessions())
@example(_FFT_SESSIONS[0])
@example(_FFT_SESSIONS[1])
@settings(max_examples=60, deadline=None)
def test_session_matches_string_reference(kwargs):
    """The array round gives the transcript, summary and ending of the
    two-party session on the string-level steps, at every tag length, on
    both sides of the FFT threshold, and when a capacity cuts a Reject."""
    _assert_same_session(run_session(**kwargs), run_session_two_party(**kwargs))


@given(_sessions(), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_session_matches_string_reference_across_blocks(kwargs, per_block):
    """The same at one to three rounds per block, so that a session's 1-8
    rounds cross block edges."""
    params = kwargs["params"]
    widest = _row_words(kwargs["channel"], params.alphabet_size, params.n)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "_FILL_WORDS", per_block * widest)
        _assert_same_session(run_session(**kwargs), run_session_two_party(**kwargs))


def test_session_counts_an_accepted_wrong_plaintext():
    """At lambda 8 the identity code passes channel errors in mu || k' to
    the verifier, which accepts a changed message for a few keys in 256:
    in this session Bob accepts a wrong plaintext in round 2, counts it as a
    mismatch, and his own update ends the session."""
    kwargs = dict(
        params=_code_params(CodeKind.IDENTITY),
        channel=ChannelModel(ChannelKind.IID_FLIP, gamma=0.05),
        code_kind=CodeKind.IDENTITY, rounds=30, seed=71,
    )
    one = run_session(**kwargs)
    _assert_same_session(one, run_session_two_party(**kwargs))
    s = one.summary
    assert (s.rounds, s.accepts, s.mismatches, s.key_agreement) == (3, 2, 1, False)


@given(_CODE_KINDS.flatmap(lambda kind: st.tuples(st.just(kind), _session_params(kind))),
       _CHANNELS, st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_public_steps_match_string_reference(code_and_params, channel, seed):
    """Each public step, a validating edge around its array kernel, returns
    what its string-level body returned, and draws the same bits."""
    code_kind, params = code_and_params
    keys = KeyState.random(params, RandomSource(seed).stream("keys"))
    mu = RandomSource(seed).stream("mu").bits(params.mu_bits)
    code = make_code(code_kind, params)
    qubits, secrets = alice_encrypt(params, keys, mu, RandomSource(seed).stream("a"), code)
    ref_qubits, ref_secrets = alice_encrypt_strings(
        params, keys, mu, RandomSource(seed).stream("a"), code)
    assert (qubits.basis, qubits.payload, secrets) == (
        ref_qubits.basis, ref_qubits.payload, ref_secrets)
    if isinstance(code, OracleBddCode):
        code.note_transmitted(secrets.c)
    received = transmit(channel, qubits, RandomSource(seed).stream("channel"))
    dec = bob_decrypt(params, keys, received, code)
    assert dec == bob_decrypt_strings(params, keys, received, code)
    for omega in (0, 1):
        assert feedback_tag(keys, omega) == feedback_tag_strings(keys, omega)
    if dec.x_hat is not None:
        values = dict(x=dec.x_hat, r=dec.r_hat, k_next=dec.k_hat_prime)
        assert key_update(params, keys, 1, None, **values) == key_update_strings(
            params, keys, 1, None, **values)
    reservoirs = [Reservoir(RandomSource(seed).stream("res")) for _ in range(2)]
    assert key_update(params, keys, 0, reservoirs[0]) == key_update_strings(
        params, keys, 0, reservoirs[1])
    assert reservoirs[0].consumed_bits == reservoirs[1].consumed_bits


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
