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


def p_corr(n: int, beta: float, gamma: float) -> float:
    """Probability that an iid flip channel with rate gamma produces at most
    floor(n*beta) errors, i.e. that a code correcting that many succeeds.

    Terms are evaluated in the log domain and combined with compensated
    summation so the result stays accurate for large n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 <= beta:
        raise ValueError("beta must be nonnegative")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    t = math.floor(n * beta)
    if t >= n:
        return 1.0
    if gamma == 0.0:
        return 1.0
    if gamma == 1.0:
        return 0.0
    log_g = math.log(gamma)
    log_1g = math.log1p(-gamma)
    log_terms = [
        math.lgamma(n + 1) - math.lgamma(c + 1) - math.lgamma(n - c + 1)
        + c * log_g + (n - c) * log_1g
        for c in range(t + 1)
    ]
    peak = max(log_terms)
    total = math.fsum(math.exp(lt - peak) for lt in log_terms)
    return min(1.0, math.exp(peak) * total)


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
    """Inputs to the distinguishability bound.

    alpha is the target security level in bits: the bound should come out at
    or below 2^-alpha.
    """

    alpha: float
    tag_bits: int
    n: int
    kappa: int
    gamma: float
    beta: float
    q_bits: int

    def __post_init__(self):
        if self.alpha < 1:
            raise ValueError("alpha must be at least 1")
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
        total=min(max(total, 0.0), 1.0),
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
