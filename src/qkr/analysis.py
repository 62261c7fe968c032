"""Numerical evaluation of the security bounds, rates, and key-expenditure
arithmetic.

All bound arithmetic runs in the log2 domain: the post-selection factor
(n+1)^15 and the privacy-amplification exponentials overflow or underflow
doubles long before the interesting parameter ranges are reached. Linear
values are reported clamped to [0, 1] with the unclamped log2 retained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "binary_entropy",
    "entropy_multi",
    "p_corr",
    "asymptotic_rate_6state",
    "rate_threshold_6state",
    "six_state_error_distribution",
    "SecurityBudget",
    "BoundReport",
    "diamond_bound",
    "min_q_bits",
    "reject_expenditure",
    "required_redundancy",
]


def binary_entropy(p: float) -> float:
    """h(p) in bits, with the continuity convention 0*log(0) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def entropy_multi(probabilities) -> float:
    """Entropy in bits of a full distribution (nonnegative, sums to one)."""
    probs = list(probabilities)
    if any(p < 0.0 for p in probs):
        raise ValueError("probabilities must be nonnegative")
    if abs(math.fsum(probs) - 1.0) > 1e-12:
        raise ValueError("probabilities must sum to 1")
    return -math.fsum(p * math.log2(p) for p in probs if p > 0.0)


# math.exp(x) is exactly 0.0 for x below about -745.13, so a log-term this
# far under the largest adds nothing to p_corr's sum. The 55 to spare cover
# the rounding of computed log-terms, a few ulp of lgamma(n + 1) each.
_LOG_TERM_WINDOW = 800.0
# p_corr sums this narrower window first and keeps its sum when the terms it
# leaves out provably cannot move the rounded result (see p_corr). Its
# log-terms are the same floats as the wide window's, about a quarter as many.
_NARROW_LOG_TERM_WINDOW = 44.0


def p_corr(n: int, beta: float, gamma: float) -> float:
    """Probability that an iid flip channel with rate gamma produces at most
    floor(n*beta) errors, i.e. that a code correcting that many succeeds.

    The binomial terms are evaluated as logs, shifted by the largest and
    summed with fsum. Only a window around the largest is evaluated, and the
    result is bit for bit the float that the sum over all floor(n*beta) + 1
    terms gives:

    - the wide window, the log-terms at most 800 below the mode's, holds
      every term whose exp(lt - peak) is not exactly 0.0 (see
      `_window_log_terms`). So its sum is the full sum's float;
    - the narrow window, at most 44 below the mode's, is evaluated first.
      Its peak and log-terms are the same floats as the wide window's. On
      each side where it leaves terms out, the first term outside has a
      log-term below the cutoff `log_term(mode) - 44`, so at least 44 below
      the peak; its exp is at most `exp(1 - 44)`, the one nat to spare
      covering the rounding of the cutoff, the shift, exp and the
      log-terms' error below;
    - the terms beyond it fall at least geometrically. The binomial terms
      are log-concave in the error count, so each step away from the window
      changes the log-term by at most the average step over the stride from
      the mode to the window's edge: `(lt[high] - lt[mode]) / (high - mode)`
      above, `(lt[low] - lt[mode]) / (mode - low)` below, read from the
      window's log-terms;
    - the computed log-terms carry rounding and lgamma error. A constant or
      a part linear in the count keeps them log-concave; the rest, e, moves
      the computed difference over the stride by up to 2 max|e|, so the
      average step by 2 max|e| / stride. Every intermediate of a log-term is
      at most M = lgamma(n + 1) + t*|log gamma| + n*|log(1 - gamma)|, and
      |e| is a few units of 2^-52 * M: with lgamma within 2 ulps, the slack
      s = 2^-48 * M, 16 units, is at least 2 max|e|. Measured against
      mpmath, lgamma is within 1.25 ulps and 2 max|e| at most 2.3 units
      (about 1e-9 at n = 2^18, 4e-5 at 2^32). So with
      rho = exp((lt[edge] - lt[mode] + s) / stride) the side's terms add at
      most `exp(1 - 44) / (1 - rho)`. If rho >= 1, or the stride is 0 (the
      window ends at the mode and leaves terms out), the bound is inf. At
      n = 2^32 the slack (about 3.4e-4) exceeds the last step into the edge
      alone (about -2.9e-4 at gamma 0.45), but divided by a stride of about
      300,000 it is far below the average step;
    - fsum is correctly rounded and rounding is monotone, so if the narrow
      sum with the sides' bound appended rounds to the same float as
      without it, every tail in between does too: the narrow sum is the wide
      sum's float, and `min(1, exp(peak) * sum)` is bit-identical. Otherwise
      the wide window is summed. The sum is at least 1 (the peak's term),
      whose half ulp is at least 2^-53. A window edge lies about
      sigma * sqrt(88) from the mode, so the average step over the stride
      is about -sqrt(22) / sigma and each side's bound is about
      `e^-43 / (sqrt(22) / sigma - s / stride)`. At gamma 0.05 the two
      sides give 1e-17 at n = 2^18 and 1.3e-15 at 2^32, against sums of
      about 280 and 36,000, and at gamma 0.45 and n = 2^32 they give
      2.9e-15, so the wide window runs only for a narrow sum that close to
      a rounding boundary. The sweep-n-large job at n = 1024, 131,328 and
      261,632 evaluates 126 + 1,481 + 2,092 terms, against
      129 + 1,997 + 2,819 at an 80-nat window and 129 + 6,294 + 8,901 at
      the wide one;
    - the narrow window's exps are kept as a list for the two sums, and
      dropped before any wide window is built. The wide window's are not
      kept: at n = 2^32 it can have 1.7M terms.

    At large n each log-term cancels lgamma values near lg_n (3.0e6 at
    n = 2^18), so the result can be off by about 1e-9 relative, and a
    result that should be 1 can come out as 0.99999999975. This is left
    unfixed here because a fix changes sweep output bytes.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 <= beta:
        raise ValueError("beta must be nonnegative")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    if beta >= 1.0:
        return 1.0
    t = math.floor(n * beta)
    if t >= n:
        return 1.0
    if gamma == 0.0:
        return 1.0
    if gamma == 1.0:
        return 0.0
    peak, terms, tail = _window_log_terms(n, t, gamma, _NARROW_LOG_TERM_WINDOW)
    exps = list(map(math.exp, terms))
    del terms
    total = math.fsum(exps)
    exps.append(tail)
    if math.fsum(exps) != total:
        del exps
        peak, terms, _ = _window_log_terms(n, t, gamma, _LOG_TERM_WINDOW)
        total = math.fsum(map(math.exp, terms))
    return min(1.0, math.exp(peak) * total)


def _window_log_terms(
    n: int, t: int, gamma: float, width: float
) -> tuple[float, list[float], float]:
    """The largest of p_corr's log-terms for counts 0..t, the log-terms at
    most `width` below the mode's, shifted by the largest and sorted largest
    first, and a bound on the exps of the shifted log-terms the window
    leaves out: the sum of `_geometric_tail` over the sides that leave
    terms out, 0.0 if neither does.

    - the terms are log-concave in the error count. Bisection from the mode,
      one `log_term` at a time, finds the window. The largest term is
      inside it. At width 800, every log-term outside it, rounding
      included, is more than 745.14 below the largest, so its
      exp(lt - peak) is exactly 0.0;
    - the window's log-terms are built as one float64 array, in place, by
      the same IEEE operations in the same order as `log_term`:
      lg_n - lgamma(c + 1) - lgamma(n - c + 1) + c*log_g + (n - c)*log_1g,
      with c an int64 arange, which numpy converts to float64 with the
      rounding Python uses for an int. So n must be below 2^63 (numpy
      raises OverflowError above); a run accepts n up to 2^32. Both widths
      therefore give the same float for a count in both windows;
    - lgamma and exp stay on `math`, mapped over the window. numpy has no
      lgamma, and np.exp picks a SIMD kernel by CPU and build, so its last
      bit is not math.exp's: on the 2^18 - 1023 row (beta 0.125, gamma
      0.05, 8,892 terms) numpy 2.4 on an AVX-512 Xeon differed from it on
      2 terms. Any difference can move sweep bytes;
    - fsum is correctly rounded, so the order of the terms does not change
      the sum. The shifted log-terms are sorted largest first, as a list in
      place (in index order they form about one rising and one falling
      run, which the list sort merges quickly; an ndarray.sort form raised
      a sweep process's peak RSS by about 0.3 MB), so fsum takes their
      exps largest first. That keeps fsum's list of partial sums short: on
      that row fsum takes about 0.4 ms largest first and 8-9 ms smallest
      first.
    """
    lg_n = math.lgamma(n + 1)
    log_g = math.log(gamma)
    log_1g = math.log1p(-gamma)

    def log_term(c: int) -> float:
        return lg_n - math.lgamma(c + 1) - math.lgamma(n - c + 1) + c * log_g + (n - c) * log_1g

    # The terms rise up to floor((n+1)*gamma) and fall after it.
    mode = min(t, math.floor((n + 1) * gamma))
    cutoff = log_term(mode) - width

    def edge(inside: int, outside: int) -> int:
        """The last count in the window walking from `inside` towards
        `outside`, a count known to be outside it or one past the range."""
        while abs(outside - inside) > 1:
            mid = (inside + outside) // 2
            if log_term(mid) >= cutoff:
                inside = mid
            else:
                outside = mid
        return inside

    low = edge(mode, -1)
    high = edge(mode, t + 1)
    count = high - low + 1
    log_terms = np.fromiter(map(math.lgamma, range(low + 1, high + 2)), float, count)
    np.subtract(lg_n, log_terms, out=log_terms)
    log_terms -= np.fromiter(map(math.lgamma, range(n - low + 1, n - high, -1)), float, count)
    c = np.arange(low, high + 1, dtype=np.int64)
    log_terms += c * log_g
    log_terms += np.subtract(n, c, out=c) * log_1g  # n - c, in c's buffer
    del c  # 14 MB of the peak at the widest window a run accepts, 1.7M terms
    slack = 2.0**-48 * (lg_n - t * log_g - n * log_1g)
    at_mode = float(log_terms[mode - low])
    tail = 0.0
    if low > 0:
        tail += _geometric_tail(float(log_terms[0]) - at_mode, mode - low, slack, width)
    if high < t:
        tail += _geometric_tail(float(log_terms[-1]) - at_mode, high - mode, slack, width)
    peak = float(log_terms.max())
    log_terms -= peak
    terms = log_terms.tolist()
    terms.sort(reverse=True)
    return peak, terms, tail


def _geometric_tail(drop: float, stride: int, slack: float, width: float) -> float:
    """A bound on the exps of the shifted log-terms that one side of a
    window leaves out, from `drop`, the window's log-term at that side's
    edge minus the mode's, `stride` counts away (see p_corr). inf when the
    stride is 0, or when the average ratio per count with the slack added is
    not below 1."""
    if stride == 0:
        return math.inf
    rho = math.exp((drop + slack) / stride)
    return math.exp(1.0 - width) / (1.0 - rho) if rho < 1.0 else math.inf


def six_state_error_distribution(gamma: float) -> tuple[float, float, float, float]:
    """The four-outcome distribution {1 - 3g/2, g/2, g/2, g/2} describing the
    symmetrized per-qubit channel at bit error rate g."""
    if not 0.0 <= gamma < 2.0 / 3.0:
        raise ValueError("gamma must lie in [0, 2/3)")
    return (1.0 - 1.5 * gamma, gamma / 2.0, gamma / 2.0, gamma / 2.0)


def asymptotic_rate_6state(gamma: float) -> float:
    """Asymptotic message bits per qubit under 6-state encoding:
    1 - h({1 - 3g/2, g/2, g/2, g/2})."""
    return 1.0 - entropy_multi(six_state_error_distribution(gamma))


_THRESHOLD_TOL = 1e-12


def rate_threshold_6state() -> float:
    """Zero crossing of the 6-state rate, located by bisection."""
    lo, hi = 0.0, 0.5
    if asymptotic_rate_6state(hi) >= 0.0:
        raise RuntimeError("rate does not change sign on [0, 0.5]")
    while hi - lo > _THRESHOLD_TOL:
        mid = 0.5 * (lo + hi)
        if asymptotic_rate_6state(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class SecurityBudget:
    """Inputs to the distinguishability bound."""

    tag_bits: int
    n: int
    kappa: int
    gamma: float
    beta: float
    q_bits: int

    def __post_init__(self):
        if not 0.0 <= self.gamma < 0.5:
            raise ValueError("gamma must lie in [0, 1/2)")
        if self.n < 1 or self.kappa < 0 or self.q_bits < 1 or self.tag_bits < 1:
            raise ValueError("invalid budget sizes")
        if not 0.0 <= self.beta <= 0.5:
            raise ValueError("beta must lie in [0, 1/2]")


@dataclass(frozen=True)
class BoundReport:
    """log2 of each bound term and of the total, plus the clamped value.

    The accept term uses the asymptotic privacy-amplification expression
    (no finite-size smoothing); `accept_capped_by_p_corr` records which side
    of the min was active, and `p_corr` is the value it was compared with.
    """

    log2_term_tag: float
    log2_term_reject: float
    log2_term_accept: float
    log2_total: float
    total: float
    accept_capped_by_p_corr: bool
    p_corr: float


def _log2_add(values) -> float:
    peak = max(values)
    if peak == -math.inf:
        return -math.inf
    return peak + math.log2(math.fsum(2.0 ** (v - peak) for v in values))


def diamond_bound(budget: SecurityBudget) -> BoundReport:
    """Distinguishability bound between the real and idealized protocol:

        2^(-lambda+1) + (n+1)^15 * [ 1/(2*sqrt(|Q|))
                                     + min(P_corr, (1/2)*2^((-kappa + n*h4 - n*h)/2)) ]

    with h4 the entropy of the symmetrized 6-state error distribution and h
    the binary entropy, both at the channel rate gamma.
    """
    n = budget.n
    log2_post_selection = 15.0 * math.log2(n + 1)
    log2_tag = float(1 - budget.tag_bits)
    log2_reject = log2_post_selection - 1.0 - budget.q_bits / 2.0

    h4 = entropy_multi(six_state_error_distribution(budget.gamma))
    h = binary_entropy(budget.gamma)
    log2_accept_asymptotic = -1.0 + 0.5 * (-budget.kappa + n * h4 - n * h)
    pc = p_corr(n, budget.beta, budget.gamma)
    log2_pc = math.log2(pc) if pc > 0.0 else -math.inf
    capped = log2_pc <= log2_accept_asymptotic
    log2_accept = log2_post_selection + min(log2_pc, log2_accept_asymptotic)

    log2_total = _log2_add([log2_tag, log2_reject, log2_accept])
    total = 0.0 if log2_total == -math.inf else 2.0**log2_total if log2_total < 0 else 1.0
    return BoundReport(
        log2_term_tag=log2_tag,
        log2_term_reject=log2_reject,
        log2_term_accept=log2_accept,
        log2_total=log2_total,
        total=total,
        accept_capped_by_p_corr=capped,
        p_corr=pc,
    )


def min_q_bits(n: int, alpha: float) -> int:
    """Smallest integer strictly above 30*log2(n+1) - 2 + 2*alpha, the
    reservoir input width needed for alpha bits of security in the reject
    term."""
    if n < 1 or alpha < 1:
        raise ValueError("n and alpha must be at least 1")
    return math.floor(30.0 * math.log2(n + 1) - 2.0 + 2.0 * alpha) + 1


def reject_expenditure(n: int, tag_bits: int, q_bits: int) -> int:
    """Exact reservoir bits consumed by one Reject: a fresh mask, a fresh
    feedback MAC key, and the basis-refresh input."""
    return n + tag_bits + q_bits


def required_redundancy(n: int, gamma: float) -> float:
    """Error-correction redundancy n*h(gamma) that sizing sweeps subtract
    from n to obtain ell + kappa."""
    return n * binary_entropy(gamma)
