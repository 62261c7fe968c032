"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers (run pytest with -s to see them). Tolerances are pinned
here, not configurable."""

import math
import time
from dataclasses import replace

import numpy as np

from qkr.analysis import (
    SecurityBudget,
    asymptotic_rate_6state,
    diamond_bound,
    min_q_bits,
    p_corr,
    rate_threshold_6state,
    reject_expenditure,
)
from qkr.attacks import intercept_resend_report
from qkr.ecc import CodeKind, make_code
from qkr.hashing import polynomial_mac
from qkr.primitives import BasisString, BitString, Encoding, ProtocolParams, RandomSource
from qkr.protocol import KeyState, alice_encrypt, bob_decrypt, run_session
from qkr.qsim import ChannelKind, ChannelModel

from density import BELL_BASIS, DensityMatrix, pauli_twirl
from oracles import (
    apply_error_pattern,
    diamond_bound_log2_mp,
    p_corr_enumeration,
    pairwise_counts_extrema,
    rate_zero_by_grid_scan,
    reject_expenditure_closed_form,
    toeplitz_outputs_all_seeds,
)
from toys import bb84_f_toy, six_state_f_toy, six_state_g_toy

PARAMS64 = ProtocolParams(n=64, ell=32, kappa=8, tag_bits=8, beta=0.125, q_bits=32)


def test_criterion_01_noiseless_desiderata():
    start = time.perf_counter()
    result = run_session(
        PARAMS64, ChannelModel(ChannelKind.IID_FLIP, gamma=0.0), CodeKind.ORACLE,
        1000, seed=101,
    )
    elapsed = time.perf_counter() - start
    s = result.summary
    assert s.accept_rate == 1.0
    assert s.mismatches == 0
    assert s.consumed_bits == 0
    assert all(r.omega == 1 and r.consumed_bits == 0 for r in result.results)
    assert elapsed < 5.0
    print(
        f"\nACCEPTANCE 01 PASS: noiseless 1000 rounds: accept_rate=1.0, "
        f"consumed=0, mismatches=0, {elapsed:.2f}s"
    )


def test_criterion_02_p_corr_agreement():
    start = time.perf_counter()
    rounds = 10_000
    result = run_session(
        PARAMS64, ChannelModel(ChannelKind.IID_FLIP, gamma=0.05), CodeKind.ORACLE,
        rounds, seed=102,
    )
    expected = p_corr(64, 0.125, 0.05)
    sigma = math.sqrt(expected * (1 - expected) / rounds)
    deviation = abs(result.summary.accept_rate - expected)
    assert deviation <= 3 * sigma

    worst = 0.0
    for n in range(1, 13):
        for beta in (0.0, 0.25, 1.0 / 3.0):
            for gamma in (0.05, 0.1, 0.25):
                diff = abs(p_corr(n, beta, gamma) - p_corr_enumeration(n, beta, gamma))
                worst = max(worst, diff)
                assert diff <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 02 PASS: accept_rate={result.summary.accept_rate:.4f} vs "
        f"p_corr={expected:.4f} ({deviation / sigma:.2f} sigma); enumeration "
        f"max diff={worst:.2e}; {elapsed:.2f}s"
    )


def test_criterion_03_rate_formula():
    assert asymptotic_rate_6state(0.0) == 1.0
    bisected = rate_threshold_6state()
    scanned = rate_zero_by_grid_scan(step=1e-5)
    assert abs(bisected - scanned) < 1e-4
    assert abs(bisected - 0.1262) < 1e-4
    print(
        f"\nACCEPTANCE 03 PASS: rate(0)=1.0 exactly; zero crossing "
        f"bisection={bisected:.6f} vs scan={scanned:.6f}"
    )


def test_criterion_04_pairwise_independence_exhaustive():
    start = time.perf_counter()

    inputs_bb, _ = bb84_f_toy()
    out_mask = toeplitz_outputs_all_seeds(2, 5, 2, inputs_bb)
    out_basis = toeplitz_outputs_all_seeds(2, 5, 2, inputs_bb)
    seeds_per_component = out_mask.shape[0]
    joint = np.repeat(out_mask, seeds_per_component, axis=0) * 4 + np.tile(
        out_basis, (seeds_per_component, 1)
    )
    lo, hi = pairwise_counts_extrema(joint, 16)
    assert lo == hi == joint.shape[0] // 256

    mask_inputs, basis_inputs, _ = six_state_f_toy()
    out2 = toeplitz_outputs_all_seeds(2, 7, 2, mask_inputs)
    out3 = toeplitz_outputs_all_seeds(3, 5, 2, basis_inputs)
    lo2, hi2 = pairwise_counts_extrema(out2, 4)
    lo3, hi3 = pairwise_counts_extrema(out3, 9)
    assert lo2 == hi2 == out2.shape[0] // 16
    assert lo3 == hi3 == out3.shape[0] // 81
    joint_count = lo2 * lo3
    assert joint_count == (out2.shape[0] * out3.shape[0]) // 36**2

    g_inputs, _ = six_state_g_toy()
    out_g = toeplitz_outputs_all_seeds(3, 2, 1, g_inputs)
    lo_g, hi_g = pairwise_counts_extrema(out_g, 3)
    assert lo_g == hi_g == out_g.shape[0] // 9

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 04 PASS: joint BB84 count={lo} exactly |T|^-2; 6-state "
        f"components {lo2}/{lo3} (product {joint_count}); G toy count={lo_g}; "
        f"{elapsed:.2f}s"
    )


def test_criterion_05_mac_forgery_bound_exhaustive():
    src = RandomSource(105).stream("mac")
    reports = []
    for blocks in (1, 2, 3, 4):
        m = src.bits(8 * blocks)
        m_prime = src.bits(8 * blocks)
        if m == m_prime:
            m_prime = m ^ BitString.from_int(1, 8 * blocks)
        counts = np.zeros(256, dtype=np.int64)
        for k in range(256):
            counts[polynomial_mac(k, m, 8) ^ polynomial_mac(k, m_prime, 8)] += 1
        worst = int(counts.max())
        assert worst <= blocks + 1
        reports.append(f"d={blocks}: {worst}/{256} <= {blocks + 1}/256")
    print("\nACCEPTANCE 05 PASS: substitution forgery counts " + "; ".join(reports))


def test_criterion_06_key_update_accounting():
    result = run_session(
        PARAMS64, ChannelModel(ChannelKind.IID_FLIP, gamma=0.15), CodeKind.ORACLE,
        400, seed=106,
    )
    s = result.summary
    assert s.key_agreement  # bit-identical key states after every round
    assert 0 < s.accepts < s.rounds  # both update paths exercised
    per_reject = PARAMS64.n + PARAMS64.tag_bits + PARAMS64.q_bits
    for r in result.results:
        assert r.consumed_bits == (0 if r.omega else per_reject)

    assert min_q_bits(1024, 64) == 427
    exact = reject_expenditure(1024, 64, 427)
    closed = reject_expenditure_closed_form(1024, 64, 64)
    assert exact == 1515
    assert abs(exact - closed) < 2.0
    print(
        f"\nACCEPTANCE 06 PASS: key agreement over {s.rounds} rounds "
        f"({s.accepts} accepts); reject cost {per_reject} bits exact; "
        f"min_q_bits(1024,64)=427, expenditure 1515 vs closed form {closed:.2f}"
    )


def test_criterion_07_bound_dual_route():
    worst = 0.0
    count = 0
    for n in (64, 256, 1024, 4096, 10000):
        for gamma in (0.0, 0.01, 0.05, 0.11, 0.249):
            for kw in (
                dict(tag_bits=64, n=n, kappa=n // 4, gamma=gamma,
                     beta=0.125, q_bits=min_q_bits(n, 64)),
                dict(tag_bits=8, n=n,
                     kappa=math.ceil(2 * (8 + 15 * math.log2(n + 1))), gamma=gamma,
                     beta=0.3, q_bits=64),
            ):
                direct = diamond_bound(SecurityBudget(**kw)).log2_total
                oracle = diamond_bound_log2_mp(**kw)
                rel = abs(direct - oracle) / max(1.0, abs(oracle))
                worst = max(worst, rel)
                count += 1
                assert rel < 1e-9

    report = diamond_bound(
        SecurityBudget(tag_bits=64, n=1024, kappa=256, gamma=0.05,
                       beta=0.125, q_bits=427)
    )
    expected_reject = 15 * math.log2(1025) - 1 - 427 / 2
    assert report.log2_term_reject == expected_reject
    print(
        f"\nACCEPTANCE 07 PASS: {count}-point grid, worst relative "
        f"disagreement {worst:.2e} < 1e-9; reject term identity exact"
    )


def test_criterion_08_twirl_verification():
    src = RandomSource(108).stream("twirl")
    singlet = DensityMatrix.pure(np.array([0, 1, -1, 0], dtype=complex))
    assert np.max(np.abs(pauli_twirl(singlet).entries - singlet.entries)) < 1e-12

    worst_offdiag = 0.0
    for _ in range(100):
        rho = DensityMatrix.random(src, 4)
        twirled = pauli_twirl(rho)
        in_bell = BELL_BASIS.conj().T @ twirled.entries @ BELL_BASIS
        offdiag = np.max(np.abs(in_bell - np.diag(np.diag(in_bell))))
        worst_offdiag = max(worst_offdiag, offdiag)
        assert offdiag < 1e-12
        assert abs(np.trace(twirled.entries).real - 1.0) < 1e-12
        assert np.max(np.abs(pauli_twirl(twirled).entries - twirled.entries)) < 1e-12
    print(
        f"\nACCEPTANCE 08 PASS: 100 random states: Bell off-diagonal "
        f"max={worst_offdiag:.2e}, trace preserved, idempotent, singlet fixed"
    )


def test_criterion_09_permutation_invariance():
    code = make_code(CodeKind.ORACLE, PARAMS64)
    keys = KeyState.random(PARAMS64, RandomSource(109).stream("keys"))
    rng = np.random.default_rng(109)
    agreements = 0
    for trial in range(100):
        weight = int(rng.integers(0, PARAMS64.t + 4))
        pattern = np.zeros(PARAMS64.n, dtype=np.uint8)
        pattern[rng.choice(PARAMS64.n, size=weight, replace=False)] = 1
        pi = rng.permutation(PARAMS64.n)
        mu = RandomSource(900 + trial).stream("mu").bits(PARAMS64.mu_bits)

        outcomes = []
        for z, b, pat in [
            (keys.z, keys.b, pattern),
            (BitString(keys.z.bits[pi]),
             BasisString(keys.b.symbols[pi], keys.b.alphabet_size), pattern[pi]),
        ]:
            trial_keys = replace(keys, z=z, b=b)
            src = RandomSource(910 + trial).stream("round")
            qubits, secrets = alice_encrypt(PARAMS64, trial_keys, mu, src, code)
            code.note_transmitted(secrets.c)
            received = apply_error_pattern(qubits, BitString(pat))
            outcomes.append(bob_decrypt(PARAMS64, trial_keys, received, code))
        assert outcomes[0].omega == outcomes[1].omega
        assert outcomes[0].mu_hat == outcomes[1].mu_hat
        agreements += 1
    print(
        f"\nACCEPTANCE 09 PASS: {agreements}/100 joint permutations left "
        f"omega and recovered plaintext unchanged (exact)"
    )


def test_criterion_10_intercept_resend_rates():
    lines = []
    for encoding, expected in ((Encoding.BB84, 0.25), (Encoding.SIX_STATE, 1 / 3)):
        report = intercept_resend_report(encoding, 1.0, 100_000, seed=110)
        sigma = math.sqrt(expected * (1 - expected) / 100_000)
        deviation = abs(report["induced_error_rate"] - expected)
        assert deviation <= 3 * sigma
        lines.append(
            f"{encoding.value}: {report['induced_error_rate']:.4f} vs {expected:.4f} "
            f"({deviation / sigma:.2f} sigma)"
        )
    print("\nACCEPTANCE 10 PASS: intercept-resend at full rate: " + "; ".join(lines))
