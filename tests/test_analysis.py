import math

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkr import analysis
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
    p_corr_full,
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


@st.composite
def _p_corr_args(draw):
    n = draw(st.integers(1, 2**16))
    beta = draw(st.one_of(
        st.integers(0, n + n // 2).map(lambda k: k / n),
        st.floats(0.0, 1.5),
        st.just(math.inf),
    ))
    gamma = draw(st.one_of(
        st.sampled_from([5e-324, 1e-300, 1e-9, 0.5, 1 - 1e-12]),
        st.floats(0.0, 1.0),
        # (n+1)*gamma an integer: two equal largest terms, up to rounding
        st.integers(1, n).map(lambda k: k / (n + 1)),
    ))
    return n, beta, gamma


def _with_p_corr_examples(test):
    """The fixed inputs of the full-evaluation tests. The first three are
    the benchmark's sweep-n-large rows; at n = 2 and gamma = 1/3 the two
    largest terms are equal up to rounding."""
    for args in [
        (1024 + 63, 0.125, 0.05),
        (131_000, 0.125, 0.05),
        (2**18 - 1023, 0.125, 0.05),
        (10, math.inf, 0.1),
        (2, 0.5, 1 / 3),
        (2**20, 0.125, 0.05),  # a window of about 17.9k terms
        (2**20, 0.05, 0.05),  # a wide window cut at t, value 0.4997
        (2**18, 0.04, 0.05),  # a window cut at t, value 8.5e-131
        (2**16, 0.125, 1e-4),  # a window cut at 0
        (2**16, 0.0, 0.3),  # one term, which underflows to 0.0
    ]:
        test = example(args)(test)
    return test


def _assert_p_corr_equals_full(args):
    n, beta, gamma = args
    # The full evaluation cannot floor n * inf; every beta >= 1 gives 1.0.
    expected = 1.0 if beta == math.inf else p_corr_full(n, beta, gamma)
    assert p_corr(n, beta, gamma) == expected


@given(_p_corr_args())
@_with_p_corr_examples
@settings(max_examples=150, deadline=None)
def test_p_corr_equals_full_evaluation(args):
    """The windowed sum is exactly the float of the sum over every term."""
    _assert_p_corr_equals_full(args)


def _record_widths(monkeypatch):
    """The widths of the `_window_log_terms` calls, appended as they run."""
    window = analysis._window_log_terms
    widths = []

    def recorded(n, t, gamma, width):
        widths.append(width)
        return window(n, t, gamma, width)

    monkeypatch.setattr(analysis, "_window_log_terms", recorded)
    return widths


def test_p_corr_narrow_window_check_keeps_or_falls_back(monkeypatch):
    """At a 36-nat narrow window the geometric bound on the dropped terms
    moves the rounded sum for some inputs (the 2^18, beta 0.04 example,
    whose bound of 2.9e-15 exceeds its sum's half ulp) and not for others,
    so both the kept narrow sum and the wide fallback are checked against
    the full evaluation."""
    monkeypatch.setattr(analysis, "_NARROW_LOG_TERM_WINDOW", 36.0)
    widths = _record_widths(monkeypatch)
    branches = set()

    @given(_p_corr_args())
    @_with_p_corr_examples
    @settings(max_examples=150, deadline=None)
    def check(args):
        widths.clear()
        _assert_p_corr_equals_full(args)
        branches.add(tuple(widths))

    check()
    assert {(36.0,), (36.0, 800.0)} <= branches


def test_p_corr_lgamma_calls(monkeypatch):
    """The 44-nat window evaluates about a quarter of the wide one's terms:
    2 * 2,092 lgamma calls and the bisection's, against 5,697 at an 80-nat
    window and about 17,900 at the wide one."""
    lgamma = math.lgamma
    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        return lgamma(x)

    monkeypatch.setattr(math, "lgamma", counted)
    p_corr(2**18 - 512, 0.125, 0.05)
    assert calls <= 4300


def _wide_window_sum(n, beta, gamma):
    t = math.floor(n * beta)
    peak, terms, _ = analysis._window_log_terms(n, t, gamma, analysis._LOG_TERM_WINDOW)
    return min(1.0, math.exp(peak) * math.fsum(map(math.exp, terms)))


@pytest.mark.parametrize("n", [2**20, 2**24, 2**28])
def test_p_corr_equals_the_wide_window_sum_at_large_n(n):
    """Beyond the full evaluation's reach, the certified narrow sum is the
    800-nat window's float. gamma 1e-6 cuts the 44-nat window at 0 (up to
    n = 2^24), beta at or below gamma cuts it at t, and the rest drop terms
    on both sides."""
    for beta in (0.01, 0.05, 0.125):
        for gamma in (1e-6, 0.01, 0.05, 0.11):
            assert p_corr(n, beta, gamma) == _wide_window_sum(n, beta, gamma), (beta, gamma)


@pytest.mark.parametrize("beta,gamma", [(0.4, 0.3), (0.5, 0.45)])
def test_p_corr_keeps_the_narrow_window_at_n_2_32(monkeypatch, beta, gamma):
    """At n = 2^32 the slack exceeds the last step into either edge, but not
    the average step over the stride from the mode, so the 44-nat sum is
    certified; at gamma 0.3 it is also the 800-nat window's float."""
    widths = _record_widths(monkeypatch)
    value = p_corr(2**32, beta, gamma)
    assert widths == [44.0]
    if gamma == 0.3:
        assert value == _wide_window_sum(2**32, beta, gamma)


def _record_tails(monkeypatch, extra_slack=0.0):
    """The (drop, stride, slack, result) of each `_geometric_tail` call, with
    `extra_slack` nats per count of the stride added to the slack it is
    given."""
    tail = analysis._geometric_tail
    calls = []

    def recorded(drop, stride, slack, width):
        result = tail(drop, stride, slack + extra_slack * stride, width)
        calls.append((drop, stride, slack, result))
        return result

    monkeypatch.setattr(analysis, "_geometric_tail", recorded)
    return calls


@pytest.mark.parametrize("n,t,gamma,sides", [
    (64, 8, 0.05, 0),  # every count within 44 nats of the mode
    (2**16, 2**13, 1e-4, 1),  # cut at 0: only the upper side drops terms
    (2**18, 10_485, 0.05, 1),  # cut at t, below the mode: only the lower side
    (2**18, 2**15, 0.05, 2),
])
def test_window_tail_bounds_only_the_sides_that_drop_terms(monkeypatch, n, t, gamma, sides):
    calls = _record_tails(monkeypatch)
    _, terms, tail = analysis._window_log_terms(n, t, gamma, 44.0)
    assert len(calls) == sides
    assert tail == sum(result for _, _, _, result in calls)
    assert 0.0 <= tail < 1e-16
    for drop, stride, _, _ in calls:
        # the edge term lies below the mode's, at least one count away
        assert drop < 0.0 and stride >= 1
    assert sum(stride for _, stride, _, _ in calls) <= len(terms) - 1
    if sides == 0:
        assert len(terms) == t + 1


def test_one_term_window_that_drops_terms_falls_back(monkeypatch):
    """At gamma 1e-300 every count above 0 is hundreds of nats below count
    0's, so the window is that one term, with no neighbour to bound the
    dropped side by: the bound is inf and the wide window is summed."""
    _, terms, tail = analysis._window_log_terms(100, 50, 1e-300, 44.0)
    assert len(terms) == 1 and tail == math.inf
    widths = _record_widths(monkeypatch)
    assert p_corr(100, 0.5, 1e-300) == p_corr_full(100, 0.5, 1e-300)
    assert widths == [44.0, 800.0]


def test_geometric_tail_is_finite_only_below_rho_one():
    assert analysis._geometric_tail(-0.5, 1, 0.0, 44.0) == pytest.approx(
        math.exp(-43.0) / (1.0 - math.exp(-0.5)), rel=1e-15
    )
    assert analysis._geometric_tail(-1.5, 3, 0.0, 44.0) == pytest.approx(
        math.exp(-43.0) / (1.0 - math.exp(-0.5)), rel=1e-15
    )
    assert analysis._geometric_tail(0.0, 1, 0.0, 44.0) == math.inf
    assert analysis._geometric_tail(-0.5, 1, 0.5, 44.0) == math.inf
    assert analysis._geometric_tail(-1.5, 3, 1.5, 44.0) == math.inf
    assert analysis._geometric_tail(-1.5, 0, 0.0, 44.0) == math.inf


def test_p_corr_falls_back_when_rho_reaches_one(monkeypatch):
    """One nat per count more slack than the average steps from the mode to
    the edges (about -0.08 nats at 2^16, gamma 0.05) puts rho above 1 on
    both sides; the bound is inf and the wide window gives the full
    evaluation's float."""
    calls = _record_tails(monkeypatch, extra_slack=1.0)
    widths = _record_widths(monkeypatch)
    assert p_corr(2**16, 0.125, 0.05) == p_corr_full(2**16, 0.125, 0.05)
    assert widths == [44.0, 800.0]
    assert [result for _, _, _, result in calls[:2]] == [math.inf, math.inf]


@pytest.mark.parametrize("n", [2**20, 2**24, 2**28, 2**32])
@pytest.mark.parametrize("beta,gamma", [(0.125, 0.05), (0.125, 0.11), (0.01, 0.05)])
def test_p_corr_slack_covers_the_log_terms_error(monkeypatch, n, beta, gamma):
    """The geometric bound needs each computed log-term within half the
    slack of a log-concave function: the exact log-term with the computed
    lgamma(n + 1), log(gamma) and log(1 - gamma), whose errors add a
    constant and a part linear in the count. Checked with mpmath at counts
    across the window and past its edges."""
    calls = _record_tails(monkeypatch)
    t = math.floor(n * beta)
    _, terms, _ = analysis._window_log_terms(n, t, gamma, 44.0)
    slack = calls[0][2]
    lg_n, log_g, log_1g = math.lgamma(n + 1), math.log(gamma), math.log1p(-gamma)
    mode = min(t, math.floor((n + 1) * gamma))
    worst = 0.0
    with mp.workdps(50):
        for k in range(-12, 13):
            c = min(t, max(0, mode + k * len(terms) // 16))
            computed = (lg_n - math.lgamma(c + 1) - math.lgamma(n - c + 1)
                        + c * log_g + (n - c) * log_1g)
            exact = (mp.mpf(lg_n) - mp.loggamma(c + 1) - mp.loggamma(n - c + 1)
                     + c * mp.mpf(log_g) + (n - c) * mp.mpf(log_1g))
            worst = max(worst, abs(float(computed - exact)))
    assert 2.0 * worst <= slack


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
    base = dict(tag_bits=64, n=1024, kappa=429, gamma=0.0, beta=0.125, q_bits=427)
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
    budget = _budget(n=n, kappa=kappa, q_bits=q_bits, tag_bits=128)
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
