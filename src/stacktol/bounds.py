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
* CHERNOV    exact optimized exponential bound, the tightest of the
             family.
* LIPSCHITZ  closed-form relaxation of CHERNOV paying lambda*sum|w-wbar|
             for imbalance.
* QUADRATIC  relaxation paying a curvature term n*lambda^2*Var(w)*c.
* AIRBUS     industrial balance-corrected RSS rule, no rho attached.

Probability-at-t and t-at-rho directions are both provided for the
Chernoff family.  Each member has a log-MGF K(lam) of which the bound is
2 exp(inf_lam K(lam) - lam t); the infimum sits where K'(lam) = t
(Cramer-Chernoff / Legendre duality), so every inversion is one monotone
root in lam, solved on the chain scaled to mean bound 1.  Each member's
K is written once, on that scaled chain, and serves both its exponent
(phi, psi, psi_tilde) and its inversions.  All functions are pure;
results are frozen records.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional

from .chain import StackChain, _jensen_gap, balance_report, t_rss, t_wc
from .numerics import invert_monotone, langevin, legendre_term, log_sinh_over_x

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


# On the chain scaled to u_i = w_i / wbar, each member of the Chernoff family
# is its log-MGF K(lam), its slope t(lam) = K'(lam), increasing, and its gap
# g = K - lam K', decreasing from 0; slope and gap are sums of langevin and
# legendre_term terms.
_Fn = Callable[[float], float]


class _Member(NamedTuple):
    wbar: float
    k: _Fn
    slope: _Fn
    gap: _Fn
    limit: float  # t(inf), in chain units


def _member(chain: StackChain, method: Method, curvature: float = 0.5) -> _Member:
    """The Chernoff-family member ``method`` on ``chain``: each K is written here once."""
    w = chain.weighted_bounds
    n = len(w)
    wbar = math.fsum(w) / n
    u = [wi / wbar for wi in w]
    wc = t_wc(chain)
    if method is Method.CHERNOV:
        # K = sum_i log(sinh(lam u_i) / (lam u_i)), the exact log-MGF
        return _Member(
            wbar,
            lambda lam: math.fsum(log_sinh_over_x(lam * ui) for ui in u),
            lambda lam: math.fsum(ui * langevin(lam * ui) for ui in u),
            lambda lam: math.fsum(legendre_term(lam * ui) for ui in u),
            wc,
        )
    if method is Method.LIPSCHITZ:
        # K = n log(sinh(lam)/lam) + lam sum|u_i - 1|; the penalty is linear
        # in lam, so it cancels from the gap and t(inf) is finite
        abs_dev = math.fsum(abs(ui - 1.0) for ui in u)
        return _Member(
            wbar,
            lambda lam: n * log_sinh_over_x(lam) + lam * abs_dev,
            lambda lam: n * langevin(lam) + abs_dev,
            lambda lam: n * legendre_term(lam),
            wc + wbar * abs_dev,
        )
    # QUADRATIC: K = n log(sinh(lam)/lam) + curvature lam^2 sum (u_i - 1)^2
    if curvature < 1.0 / 6.0:
        raise ValueError(f"curvature must be >= 1/6 to keep the bound valid, got {curvature}")
    sq_dev = math.fsum((ui - 1.0) * (ui - 1.0) for ui in u)
    return _Member(
        wbar,
        lambda lam: n * log_sinh_over_x(lam) + curvature * lam * lam * sq_dev,
        lambda lam: n * langevin(lam) + 2.0 * curvature * lam * sq_dev,
        lambda lam: n * legendre_term(lam) - curvature * lam * lam * sq_dev,
        wc,
    )


def _exponent(chain: StackChain, method: Method, lam: float, t: float,
              curvature: float = 0.5) -> float:
    lam = _check_lambda(lam)
    t = _check_t(t)
    m = _member(chain, method, curvature)
    return m.k(lam * m.wbar) - lam * t


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


def _lambda_root(g: _Fn, target: float, slope: _Fn) -> tuple[float, bool]:
    """(lam, at_limit): the root of g(lam) = target for a decreasing g, g(0) > target.

    The bracket [1/2, 1] halves or doubles until it straddles the target;
    lam is its edge where g <= target.  If slope stops changing while the
    bracket doubles, t has reached its limit as lam -> inf: at_limit is set.
    """
    lo, hi = 0.5, 1.0
    while g(lo) <= target:
        lo, hi = 0.5 * lo, lo
    t_hi = slope(hi)
    while g(hi) > target:
        lo, hi = hi, 2.0 * hi
        t_lo, t_hi = t_hi, slope(hi)
        if t_hi == t_lo:
            return hi, True
    return invert_monotone(g, target, (lo, hi)), False


def _quantile(m: _Member, rho: float) -> float:
    """Smallest t with 2 exp(g) <= rho at the optimal lam.

    The member's limit is returned exact once rho is beyond double precision.
    """
    lam, at_limit = _lambda_root(m.gap, math.log(rho) - math.log(2.0), m.slope)
    return m.limit if at_limit else m.wbar * m.slope(lam) * _ROUND_UP


def chernov_prob(chain: StackChain, t: float) -> float:
    """Optimized exponential tail bound min(1, 2 exp(inf_lam phi(lam, t))).

    Returns 1 at t = 0 and 0 for t >= the worst case (the infimum diverges
    to -inf there).  Nonincreasing in t.  The optimal lam solves K' = t;
    K - lam t, formed as g + lam (K' - t), is a valid bound at any lam.
    """
    t = _check_t(t)
    if t == 0.0:
        return 1.0
    if t >= t_wc(chain):
        return 0.0
    m = _member(chain, Method.CHERNOV)
    tau = t / m.wbar
    lam, _ = _lambda_root(lambda x: -m.slope(x), -tau, m.slope)
    return min(1.0, 2.0 * math.exp(m.gap(lam) + lam * (m.slope(lam) - tau)))


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
