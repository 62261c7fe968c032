import math

import pytest

from qkr.analysis import (
    SecurityBudget,
    asymptotic_rate_6state,
    binary_entropy,
    diamond_bound,
    entropy_multi,
    min_q_bits,
    p_corr,
    rate_threshold_6state,
    reject_expenditure,
    required_redundancy,
    six_state_error_distribution,
)

from oracles import (
    binary_entropy_mp,
    diamond_bound_log2_mp,
    entropy_literal,
    p_corr_enumeration,
    rate_zero_by_grid_scan,
    reject_expenditure_closed_form,
)


# ---------------------------------------------------------------------------
# Entropies


def test_entropy_examples():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert entropy_multi([0.25, 0.25, 0.25, 0.25]) == pytest.approx(2.0, abs=1e-14)


def test_entropy_validation():
    with pytest.raises(ValueError):
        binary_entropy(1.2)
    with pytest.raises(ValueError):
        entropy_multi([0.5, 0.6])
    with pytest.raises(ValueError):
        entropy_multi([-0.1, 1.1])


def test_entropy_matches_literal_definition():
    for probs in ([0.7, 0.1, 0.1, 0.1], [0.5, 0.25, 0.125, 0.125], [1.0, 0.0]):
        assert entropy_multi(probs) == pytest.approx(entropy_literal(probs), abs=1e-14)


# ---------------------------------------------------------------------------
# Accept probability


def test_p_corr_examples():
    assert p_corr(100, 0.1, 0.0) == 1.0
    assert p_corr(20, 0.0, 0.3) == pytest.approx(0.7**20, rel=1e-13)
    assert p_corr(3, 1.0 / 3.0, 0.1) == pytest.approx(0.972, abs=1e-12)


def test_p_corr_agrees_with_exhaustive_enumeration():
    for n in range(1, 13):
        for beta in (0.0, 0.1, 0.25, 1.0 / 3.0, 0.5):
            for gamma in (0.05, 0.1, 0.25):
                assert p_corr(n, beta, gamma) == pytest.approx(
                    p_corr_enumeration(n, beta, gamma), abs=1e-12
                )


def test_p_corr_monotonicity_grid():
    betas = [0.05, 0.1, 0.2, 0.3, 0.4]
    gammas = [0.01, 0.05, 0.1, 0.2, 0.3]
    for n in (32, 128):
        for b1, b2 in zip(betas, betas[1:]):
            for g in gammas:
                assert p_corr(n, b2, g) >= p_corr(n, b1, g) - 1e-12
        for g1, g2 in zip(gammas, gammas[1:]):
            for b in betas:
                assert p_corr(n, b, g2) <= p_corr(n, b, g1) + 1e-12


def test_p_corr_large_n_stays_finite_and_sane():
    value = p_corr(100_000, 0.12, 0.1)
    assert 0.0 < value <= 1.0


# ---------------------------------------------------------------------------
# Rates


def test_rate_examples_and_monotonicity():
    assert asymptotic_rate_6state(0.0) == 1.0
    r05 = asymptotic_rate_6state(0.05)
    assert 0.0 < r05 < 1.0
    assert r05 < asymptotic_rate_6state(0.01)
    grid = [asymptotic_rate_6state(g / 100) for g in range(13)]
    assert all(a > b for a, b in zip(grid, grid[1:]))


def test_rate_uses_the_stated_distribution():
    g = 0.07
    probs = six_state_error_distribution(g)
    assert probs == (1 - 1.5 * g, g / 2, g / 2, g / 2)
    assert asymptotic_rate_6state(g) == pytest.approx(
        1.0 - entropy_literal(probs), abs=1e-14
    )


def test_rate_domain_and_bb84_rejected():
    with pytest.raises(ValueError):
        asymptotic_rate_6state(0.7)


def test_rate_threshold_bisection_vs_grid_scan():
    bisected = rate_threshold_6state()
    scanned = rate_zero_by_grid_scan(step=1e-5)
    assert abs(bisected - scanned) < 1e-4
    assert abs(bisected - 0.1262) < 1e-4


# ---------------------------------------------------------------------------
# Distinguishability bound


def _budget(**kw):
    base = dict(alpha=64, tag_bits=64, n=1024, kappa=429, gamma=0.0, beta=0.125, q_bits=427)
    base.update(kw)
    return SecurityBudget(**base)


def test_bound_reject_term_identity_and_q_bits_decay():
    report = diamond_bound(_budget())
    expected = 15 * math.log2(1025) - 1 - 427 / 2
    assert report.log2_term_reject == pytest.approx(expected, abs=1e-12)
    plus_two = diamond_bound(_budget(q_bits=429))
    assert plus_two.log2_term_reject == pytest.approx(expected - 1.0, abs=1e-12)
    # huge reservoir input drives the term toward -infinity
    assert diamond_bound(_budget(q_bits=10**6)).log2_term_reject < -400_000


def test_bound_secure_parameter_example():
    """With kappa >= 2(alpha + 15 log2(n+1)), q_bits >= 30 log2(n+1) - 2 + 2 alpha
    and lambda >= alpha + 2 at gamma = 0, the total lands at or below
    2^(-alpha+2)."""
    alpha = 64
    n = 1024
    kappa = math.ceil(2 * (alpha + 15 * math.log2(n + 1)))
    q_bits = min_q_bits(n, alpha)
    budget = _budget(alpha=alpha, n=n, kappa=kappa, q_bits=q_bits, tag_bits=128)
    report = diamond_bound(budget)
    assert report.log2_total <= -alpha + 2
    assert report.total <= 2.0 ** (-alpha + 2)


def test_bound_accept_term_exact_identity_and_slope():
    gamma, kappa, beta = 0.1, 2000, 0.49
    h4 = entropy_multi(six_state_error_distribution(gamma))
    h = binary_entropy(gamma)
    reports = {}
    for n in (1000, 2000):
        budget = _budget(n=n, gamma=gamma, kappa=kappa, beta=beta, q_bits=64)
        report = diamond_bound(budget)
        assert not report.accept_capped_by_p_corr
        expected = 15 * math.log2(n + 1) - 1 + 0.5 * (-kappa + n * (h4 - h))
        assert report.log2_term_accept == pytest.approx(expected, abs=1e-9)
        reports[n] = report.log2_term_accept
    slope = (reports[2000] - reports[1000]) / 1000
    assert slope == pytest.approx((h4 - h) / 2, abs=0.02)


def test_bound_accept_term_caps_at_p_corr():
    budget = _budget(gamma=0.05, kappa=0, beta=0.125, n=1024)
    report = diamond_bound(budget)
    assert report.accept_capped_by_p_corr
    expected = 15 * math.log2(1025) + math.log2(p_corr(1024, 0.125, 0.05))
    assert report.log2_term_accept == pytest.approx(expected, abs=1e-9)


def test_bound_total_dominates_each_term():
    for budget in (_budget(), _budget(gamma=0.11, kappa=100), _budget(n=64, q_bits=64)):
        report = diamond_bound(budget)
        biggest = max(
            report.log2_term_tag, report.log2_term_reject, report.log2_term_accept
        )
        assert report.log2_total >= biggest - 1e-12
        assert 0.0 <= report.total <= 1.0


def _bound_grid():
    """50 deterministic budgets spanning sizes, noise, and padding regimes."""
    points = []
    for n in (64, 256, 1024, 4096, 10000):
        for gamma in (0.0, 0.01, 0.05, 0.11, 0.249):
            points.append(
                dict(
                    alpha=64,
                    tag_bits=64,
                    n=n,
                    kappa=n // 4,
                    gamma=gamma,
                    beta=0.125,
                    q_bits=min_q_bits(n, 64),
                )
            )
            points.append(
                dict(
                    alpha=8,
                    tag_bits=8,
                    n=n,
                    kappa=math.ceil(2 * (8 + 15 * math.log2(n + 1))),
                    gamma=gamma,
                    beta=0.3,
                    q_bits=64,
                )
            )
    return points


def test_bound_dual_route_high_precision_agreement():
    """Direct log2-domain composition against an independent extended
    precision evaluation: 1e-9 relative agreement on log2(total) over the
    50-point grid."""
    grid = _bound_grid()
    assert len(grid) == 50
    for kw in grid:
        direct = diamond_bound(SecurityBudget(**kw)).log2_total
        oracle = diamond_bound_log2_mp(**kw)
        assert abs(direct - oracle) / max(1.0, abs(oracle)) < 1e-9


def test_budget_validation():
    with pytest.raises(ValueError):
        _budget(gamma=0.5)
    with pytest.raises(ValueError):
        _budget(alpha=0)
    with pytest.raises(ValueError):
        _budget(q_bits=0)


# ---------------------------------------------------------------------------
# Sizing arithmetic


def test_min_q_bits_examples():
    assert min_q_bits(1024, 64) == 427
    assert min_q_bits(1, 1) == 31
    for alpha in (4, 16, 37):
        assert min_q_bits(512, alpha + 10) == min_q_bits(512, alpha) + 20


def test_min_q_bits_defining_inequality():
    # At n=1 the underlying quantity 30*log2(n+1) - 2 + 2*alpha is an exact
    # integer, where "strictly greater" and the strict converse cannot both
    # hold; off the boundary both sides pin the result uniquely.
    for n in (64, 1024, 9999):
        for alpha in (1, 8, 64):
            q = min_q_bits(n, alpha)
            log_post = 15 * math.log2(n + 1)
            assert log_post - 1 - q / 2 <= -alpha
            assert log_post - 1 - (q - 1) / 2 > -alpha


def test_reject_expenditure_examples():
    assert reject_expenditure(1024, 64, 427) == 1515
    assert reject_expenditure(100, 0, 0) == 100
    closed = reject_expenditure_closed_form(1024, 64, 64)
    assert abs(closed - 1515) < 2.0


def test_required_redundancy():
    assert required_redundancy(100, 0.0) == 0.0
    assert required_redundancy(64, 0.5) == pytest.approx(64.0, abs=1e-12)
    value = required_redundancy(1000, 0.11)
    assert value == pytest.approx(1000 * binary_entropy_mp(0.11), abs=1e-9)
    assert abs(value - 499.9) < 0.1
