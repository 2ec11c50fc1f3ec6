"""Analytic tolerance-interval methods for uniform stack chains.

Model: the output deviation is Y = sum_i X_i with independent X_i uniform
on [-w_i, w_i], where w_i are the chain's weighted bounds.  Each method
produces a half-width t such that P(|Y| >= t) <= rho (or a fixed
convention for the rho-free methods):

* WC         sum of bounds, never exceeded.
* RSS        sqrt(sum of squares), the classical 3-sigma convention.
* GAUSSIAN   l_rho * T_RSS, the Gaussian deviation inequality with each
             input modeled as N(0, (w_i/3)^2).  Not guaranteed for
             uniform inputs; kept for comparison.
* HOEFFDING  3 * l_rho * T_RSS, the sub-Gaussian bound with parameter
             w_i per input.  Guaranteed, often very conservative.
* CHERNOV    exact optimized exponential bound, the tightest of the family.
* LIPSCHITZ  CHERNOV of the balanced chain plus a linear imbalance price.
* QUADRATIC  CHERNOV of the balanced chain plus a quadratic imbalance price.
* AIRBUS     industrial balance-corrected RSS rule, no rho attached.

The Chernoff family is one formula.  On the chain scaled to u_i = w_i/wbar
each member's log-MGF is K(lam) = k sum_v log(sinh(lam v)/(lam v)) + a lam
+ b lam^2, and its bound is 2 exp(inf_lam K(lam) - lam t).  CHERNOV is the
chain's own K (k = 1, v = u); the relaxations are the K of the balanced
chain, n bounds of 1 (k = n, v = 1), plus a = sum|u_i - 1| (LIPSCHITZ) or
b = c sum (u_i - 1)^2 (QUADRATIC).  The infimum sits where K'(lam) = t, so
every inversion is one monotone root in lam, driven by the slope K' and
the gap K - lam K'; K = gap + lam K' gives the exponents phi, psi and
psi_tilde.  All functions are pure; results are frozen records.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional

from .chain import StackChain, _jensen_gap, _total_and_mean, balance_report, t_rss, t_wc
from .numerics import (
    _one_minus_langevin, invert_monotone, langevin, legendre_term, x2_langevin_prime,
)

__all__ = [
    "Method",
    "ConfidenceLevel",
    "ToleranceResult",
    "gaussian_l",
    "hoeffding_t",
    "phi",
    "chernov_prob",
    "chernov_t",
    "s_lambda",
    "psi",
    "psi_tilde",
    "lipschitz_t",
    "quadratic_t",
    "airbus_t",
    "analyze_all",
    "tolerance",
]


# wbar * slope(lam) carries a few ulps of rounding, and near wc, where the
# exact tail goes as (wc - t)^n, one ulp down can under-cover: round t up.
_ROUND_UP = 1.0 + 8.0 * sys.float_info.epsilon


class Method(str, Enum):
    """Tolerance-interval methods, in canonical reporting order."""

    WC = "wc"
    RSS = "rss"
    GAUSSIAN = "gaussian"
    HOEFFDING = "hoeffding"
    CHERNOV = "chernov"
    LIPSCHITZ = "lipschitz"
    QUADRATIC = "quadratic"
    AIRBUS = "airbus"
    MONTE_CARLO = "mc"


@dataclass(frozen=True)
class ConfidenceLevel:
    """Two-sided out-of-tolerance probability, strictly inside (0, 1)."""

    rho: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rho) and 0.0 < self.rho < 1.0):
            raise ValueError(f"confidence level must lie in (0, 1), got {self.rho!r}")


def _rho_value(rho: "float | ConfidenceLevel") -> float:
    if isinstance(rho, ConfidenceLevel):
        return rho.rho
    return ConfidenceLevel(float(rho)).rho


@dataclass(frozen=True)
class ToleranceResult:
    """One method's half-width with its derived coefficients.

    t is the raw formula value and may exceed the worst case on small or
    unbalanced chains; t_clamped = min(t, t_wc) is the physically
    meaningful interval.  f = t / (l_rho * T_RSS) is the shape
    coefficient (None when the method carries no rho), coverage is
    t / T_RSS.
    """

    method: Method
    t: float
    t_clamped: float
    f: Optional[float]
    coverage: float
    rho: Optional[float]


def gaussian_l(rho: "float | ConfidenceLevel") -> float:
    """Gaussian deviation coefficient l_rho = (1/3) sqrt(2 ln(2/rho)).

    With inputs modeled as N(0, (w_i/3)^2), P(|Y| >= l_rho * T_RSS) <= rho
    by the sub-Gaussian tail bound.  Strictly decreasing in rho; 2/rho is
    never formed, as it overflows for subnormal rho.
    """
    r = _rho_value(rho)
    return math.sqrt(2.0 * (math.log(2.0) - math.log(r))) / 3.0


def _result(
    method: Method, chain: StackChain, t: float, rho: Optional[float]
) -> ToleranceResult:
    rss = t_rss(chain)
    f = t / (gaussian_l(rho) * rss) if rho is not None else None
    return ToleranceResult(
        method=method,
        t=t,
        t_clamped=min(t, t_wc(chain)),
        f=f,
        coverage=t / rss,
        rho=rho,
    )


def hoeffding_t(chain: StackChain, rho: "float | ConfidenceLevel") -> ToleranceResult:
    """Sub-Gaussian half-width t = sqrt(2 ln(2/rho) sum w_i^2) = 3 l_rho T_RSS.

    The shape coefficient is exactly 3: the bound treats each uniform
    input as sub-Gaussian with parameter w_i, three times the standard
    deviation the GAUSSIAN model assumes.  f and coverage are given in
    closed form, so they stay finite where t overflows.
    """
    r = _rho_value(rho)
    l_rho = gaussian_l(r)
    t = 3.0 * (l_rho * t_rss(chain))
    return ToleranceResult(
        method=Method.HOEFFDING,
        t=t,
        t_clamped=min(t, t_wc(chain)),
        f=3.0,
        coverage=3.0 * l_rho,
        rho=r,
    )


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"lambda must be finite and > 0, got {lam!r}")
    return lam


def _check_t(t: float) -> float:
    t = float(t)
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite and >= 0, got {t!r}")
    return t


# On the scaled chain, each member's slope t(lam) = K'(lam) is increasing and
# its gap g = K - lam K' decreases from 0 and is concave in log lam, with
# dg/dlog lam = -lam^2 K''; all are k times sums over v of langevin (L),
# legendre_term (m) or x2_langevin_prime (q) terms, plus the price's part.
_Fn = Callable[[float], float]


class _Member(NamedTuple):
    wbar: float
    slope: _Fn
    gap: _Fn
    dgap: _Fn  # dg / dlog lam
    co_slope: _Fn  # k sum_v v (1 - L(lam v)), = K'(inf) - K' where b = 0, without cancellation
    curv: float  # K''(0): g >= -curv lam^2 / 2
    limit: float  # t(inf), in the chain's own units
    b: float  # g <= -b lam^2


def _member(chain: StackChain, method: Method, curvature: float = 0.5) -> _Member:
    """The Chernoff-family member ``method`` on ``chain``: its (k, v, a, b, limit)."""
    w = chain.weighted_bounds
    n = len(w)
    wc, wbar = _total_and_mean(w)
    u = [wi / wbar for wi in w]
    k, v, a, b, limit = 1, u, 0.0, 0.0, wc
    if method is Method.LIPSCHITZ:
        # a linear price cancels from the gap, so t(inf) is finite
        a = math.fsum(abs(ui - 1.0) for ui in u)
        k, v, limit = n, (1.0,), wc + wbar * a
    elif method is Method.QUADRATIC:
        if curvature < 1.0 / 6.0:
            raise ValueError(f"curvature must be >= 1/6 to keep the bound valid, got {curvature}")
        k, v, b = n, (1.0,), curvature * math.fsum((ui - 1.0) * (ui - 1.0) for ui in u)
    # b lam^2, formed as b lam lam where lam^2 alone overflows: 0 at b = 0, never NaN
    penalty = lambda lam: b * (lam * lam) if lam * lam < math.inf else b * lam * lam
    return _Member(
        wbar,
        lambda lam: k * math.fsum(vi * langevin(lam * vi) for vi in v) + a + 2.0 * b * lam,
        lambda lam: k * math.fsum(legendre_term(lam * vi) for vi in v) - penalty(lam),
        lambda lam: -k * math.fsum(x2_langevin_prime(lam * vi) for vi in v) - 2.0 * penalty(lam),
        lambda lam: k * math.fsum(vi * _one_minus_langevin(lam * vi) for vi in v),
        k * math.fsum(vi * vi for vi in v) / 3.0 + 2.0 * b,
        limit,
        b,
    )


def _exponent(chain: StackChain, method: Method, lam: float, t: float,
              curvature: float = 0.5) -> float:
    lam = _check_lambda(lam)
    t = _check_t(t)
    m = _member(chain, method, curvature)
    x = lam * m.wbar
    gap, tangent = m.gap(x), x * m.slope(x)
    # K = gap + x K' cancels at most one bit: K' is concave from K'(0) >= 0,
    # so K >= x K' / 2.  Where psi_tilde's penalty overflows, gap = -inf, K = +inf.
    k = math.inf if gap == -math.inf else gap + tangent
    return k - lam * t


def phi(chain: StackChain, lam: float, t: float) -> float:
    """Exponential-bound exponent K(lam) - lam t, K = sum_i log(sinh(lam w_i)/(lam w_i)).

    P(|Y| >= t) <= 2 exp(phi(lam, t)) for every lam > 0.  Convex in lam,
    strictly decreasing in t, finite while lam * max(w) and lam * t stay
    below ~1e307.
    """
    return _exponent(chain, Method.CHERNOV, lam, t)


def s_lambda(chain: StackChain, lam: float) -> float:
    """Imbalance functional S_lambda = sum_i [h(2 lam w_i) - h(2 lam wbar)].

    Nonnegative by convexity of h; zero iff all bounds are equal.  This is
    exactly what the balance-agnostic relaxations give away versus the
    optimized exponent at scale lam.
    """
    return _jensen_gap(chain, _check_lambda(lam))


def psi(chain: StackChain, lam: float, t: float) -> float:
    """Imbalance-linear relaxation of phi: K(lam) - lam t with
    K = n log(sinh(lam wbar)/(lam wbar)) + lam sum|w_i - wbar|.

    An upper bound on phi because K exceeds phi's K by
    lam sum|w_i - wbar| - S_lambda >= 0 (h is 1/2-Lipschitz).  Equals phi
    exactly on all-equal chains.
    """
    return _exponent(chain, Method.LIPSCHITZ, lam, t)


def psi_tilde(chain: StackChain, lam: float, t: float, curvature: float = 0.5) -> float:
    """Variance-quadratic relaxation of phi: K(lam) - lam t with
    K = n log(sinh(lam wbar)/(lam wbar)) + curvature lam^2 sum (w_i - wbar)^2.

    An upper bound on phi for any curvature >= 1/6 (the sharp constant,
    from sup h'' = 1/12); the conservative default is 0.5.  Equals phi
    exactly on all-equal chains.  The penalty is formed on the scaled
    chain, as curvature (lam wbar)^2 sum (w_i / wbar - 1)^2, so it stays
    finite at any scale.
    """
    return _exponent(chain, Method.QUADRATIC, lam, t, curvature)


# Past this lam every gap is finite and no slope changes in double precision.
_LAM_MAX = 2.0 ** 900


def _quantile(m: _Member, rho: float) -> float:
    """Smallest t with 2 exp(g) <= rho at the optimal lam.

    The root of g(lam) = log(rho / 2) lies right of lo, where the Gaussian
    bound -curv lam^2 / 2 meets the target, and left of the Newton step in
    log lam from lo (g is concave in log lam) and of the root of -b lam^2.
    Newton steps from there find it.  Once t stops changing in double
    precision, the member's limit is returned.
    """
    target = math.log(rho) - math.log(2.0)
    lo = math.sqrt(-2.0 * target / m.curv)
    # a step past 700 overshoots _LAM_MAX anyway, and exp(700) is finite
    step = min((target - m.gap(lo)) / m.dgap(lo), 700.0)
    pen_root = math.sqrt(-target / m.b) if m.b else math.inf
    # 1e-6 wider keeps g(hi) <= target through rounding where hi is nearly the root
    hi = min((1.0 + 1e-6) * min(lo * math.exp(step), pen_root), _LAM_MAX)
    if hi == _LAM_MAX and m.gap(hi) > target:
        return m.limit
    lam = invert_monotone(m.gap, target, (lo, hi), dg=m.dgap)
    t = m.slope(lam)
    return m.limit if t == m.slope(2.0 * lam) else m.wbar * t * _ROUND_UP


def chernov_prob(chain: StackChain, t: float) -> float:
    """Optimized exponential tail bound min(1, 2 exp(inf_lam phi(lam, t))).

    Returns 1 at t = 0 and 0 for t >= the worst case (the infimum diverges
    to -inf there).  Nonincreasing in t.  The optimal lam solves K' = t, or
    n - K' = (wc - t) / wbar on the scaled chain, which stays exact near wc
    where K' saturates; K - lam t = g + lam (K' - t) bounds at any lam.
    """
    t = _check_t(t)
    if t == 0.0:
        return 1.0
    m = _member(chain, Method.CHERNOV)
    if t >= m.limit:
        return 0.0
    tau = t / m.wbar
    # n - tau where the worst case passes the largest double
    rest = (m.limit - t) / m.wbar if m.limit < math.inf else len(chain) - tau
    # co_slope = n - K' >= n - curv lam puts lo left of the root, and
    # co_slope <= n / lam, from 1 - L(x) <= 1/x, puts hi right of it; both
    # with a factor 2 to spare
    lo, hi = 0.5 * tau / m.curv, 2.0 * len(chain) / rest
    if hi * tau <= math.log(2.0):  # K >= 0 at the optimal lam <= hi: the bound is >= 1
        return 1.0
    lam = invert_monotone(m.co_slope, rest, (lo, hi), dg=lambda x: m.dgap(x) / x)
    return min(1.0, 2.0 * math.exp(m.gap(lam) + lam * (rest - m.co_slope(lam))))


def chernov_t(chain: StackChain, rho: "float | ConfidenceLevel") -> ToleranceResult:
    """Half-width from inverting the optimized exponential bound at rho.

    Below the worst case unless rho is so small that t rounds to it; the
    tightest guaranteed method in this family.
    """
    r = _rho_value(rho)
    m = _member(chain, Method.CHERNOV)
    # wbar * slope can round an ulp past wc near the limit
    return _result(Method.CHERNOV, chain, min(_quantile(m, r), m.limit), r)


def lipschitz_t(chain: StackChain, rho: "float | ConfidenceLevel") -> ToleranceResult:
    """Half-width from inverting the imbalance-linear relaxation (psi) at rho.

    t tends to wc + sum|w_i - wbar| as rho goes to 0.  May exceed the worst
    case on unbalanced chains; both raw and clamped values are reported.
    """
    r = _rho_value(rho)
    t = _quantile(_member(chain, Method.LIPSCHITZ), r)
    return _result(Method.LIPSCHITZ, chain, t, r)


def quadratic_t(
    chain: StackChain, rho: "float | ConfidenceLevel", curvature: float = 0.5
) -> ToleranceResult:
    """Half-width from inverting the variance-quadratic relaxation (psi_tilde) at rho.

    t grows without bound as rho goes to 0 unless all bounds are equal,
    where it is CHERNOV with limit wc.  Tighter than LIPSCHITZ when the
    imbalance is small.
    """
    r = _rho_value(rho)
    t = _quantile(_member(chain, Method.QUADRATIC, curvature), r)
    return _result(Method.QUADRATIC, chain, t, r)


def airbus_t(chain: StackChain) -> ToleranceResult:
    """Industrial balance-corrected rule t = 1.6 (1.04 - 0.56 D) T_RSS.

    D is the dominance factor from the balance report.  The constants
    embed the rule's own quantile calibration, so no rho is attached.
    """
    d = balance_report(chain).d_factor
    t = 1.6 * (-0.56 * d + 1.04) * t_rss(chain)
    return _result(Method.AIRBUS, chain, t, None)


# Every analytic method in reporting order, with its solver.  Each entry
# looks its function up at call time, so a wrapped module attribute is seen.
_SOLVERS: dict[Method, Callable[[StackChain, Optional[float]], ToleranceResult]] = {
    Method.WC: lambda c, r: _result(Method.WC, c, t_wc(c), None),
    Method.RSS: lambda c, r: _result(Method.RSS, c, t_rss(c), None),
    Method.GAUSSIAN: lambda c, r: _result(Method.GAUSSIAN, c, gaussian_l(r) * t_rss(c), r),
    Method.HOEFFDING: lambda c, r: hoeffding_t(c, r),
    Method.CHERNOV: lambda c, r: chernov_t(c, r),
    Method.LIPSCHITZ: lambda c, r: lipschitz_t(c, r),
    Method.QUADRATIC: lambda c, r: quadratic_t(c, r),
    Method.AIRBUS: lambda c, r: airbus_t(c),
}
_RHO_FREE = frozenset({Method.WC, Method.RSS, Method.AIRBUS})


def tolerance(
    chain: StackChain, method: Method, rho: "float | ConfidenceLevel | None" = None
) -> ToleranceResult:
    """Dispatch a single analytic method; rho required for the rho-aware ones."""
    if method is Method.MONTE_CARLO:
        raise ValueError("Monte Carlo estimates need a sampling config; use the montecarlo module")
    solver = _SOLVERS.get(method)
    if solver is None:
        raise ValueError(f"unknown method {method!r}")
    if method in _RHO_FREE:
        return solver(chain, None)
    if rho is None:
        raise ValueError(f"method {method.value} requires a confidence level")
    return solver(chain, _rho_value(rho))


def analyze_all(chain: StackChain, rho: "float | ConfidenceLevel") -> list[ToleranceResult]:
    """All eight analytic methods at one confidence level, fixed order.

    Order: WC, RSS, GAUSSIAN, HOEFFDING, CHERNOV, LIPSCHITZ, QUADRATIC,
    AIRBUS.  WC, RSS and AIRBUS do not consume rho and report f = None.
    """
    r = _rho_value(rho)
    return [tolerance(chain, m, r) for m in _SOLVERS]
