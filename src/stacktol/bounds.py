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
* LIPSCHITZ  CHERNOV of the balanced chain plus sum|w_i - wbar|.
* QUADRATIC  CHERNOV of the balanced chain plus a quadratic imbalance price.
* AIRBUS     industrial balance-corrected RSS rule, no rho attached.

The Chernoff family is one formula with two member shapes.  On the chain
scaled to u_i = w_i/wbar a member's log-MGF is K(lam) = b lam^2 +
sum_(v, c) c log(sinh(lam v)/(lam v)) over distinct bounds v with counts c,
and its bound is 2 exp(inf_lam K(lam) - lam t).  CHERNOV is the chain's own
groups with b = 0; the relaxations are n bounds of 1, with
b = curvature sum (u_i - 1)^2 (QUADRATIC) or 0.  LIPSCHITZ's price a lam,
a = sum|u_i - 1|, cancels from the gap g = K - lam K', so its t is the
balanced chain's plus wbar a = sum|w_i - wbar|.  The infimum sits where
K'(lam) = t: every inversion is one monotone root in lam, driven by K' and
g; K = g + lam K' gives phi, psi and psi_tilde.  Every quantile and
chernov_prob run that root through numerics._root, each quantile from one
start that follows g from its Gaussian regime to its saturated one (on a
member with more than _SPLIT_GROUPS groups, a start that gives its largest
bound its own curvature), chernov_prob from right of the root.  Each reports
its bound at the lam where the root stops, as it holds at every lam: a
quantile (K - log(rho / 2)) / lam (see _quantile), chernov_prob
2 exp(K - lam t), from the g the root hands back, so no gap is evaluated twice.

Each method has one body, in the solver table _SOLVERS.  analyze_all and
tolerance check rho and form l_rho once per call and pass both down; the
public *_t functions form them per call and call the same body, so every
route gives the same bits.  All functions are pure; results are frozen
records.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from functools import partial
from typing import Callable, NamedTuple, Optional

from .chain import StackChain, _jensen_gap
from .numerics import NonFiniteError, _co_langevin_sum, _langevin_sum, _legendre_sums, _root

__all__ = [
    "Method",
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


# wbar (t(lam) + (g - log(rho / 2)) / lam) carries a few ulps of rounding, and
# near wc, where the exact tail goes as (wc - t)^n, one ulp down can
# under-cover: round t up.
_ROUND_UP = 1.0 + 8.0 * sys.float_info.epsilon

# The records are built as tuple.__new__(Record, fields), what a NamedTuple's own
# __new__ does, without that Python-level frame per record.
_new = tuple.__new__


class Method(str, Enum):
    """The analytic tolerance-interval methods, in canonical reporting order."""

    WC = "wc"
    RSS = "rss"
    GAUSSIAN = "gaussian"
    HOEFFDING = "hoeffding"
    CHERNOV = "chernov"
    LIPSCHITZ = "lipschitz"
    QUADRATIC = "quadratic"
    AIRBUS = "airbus"


def _check_rho(rho: float) -> float:
    """The two-sided out-of-tolerance probability, which must lie strictly inside (0, 1)."""
    rho = float(rho)
    if not 0.0 < rho < 1.0:  # NaN fails this too
        raise ValueError(f"confidence level must lie in (0, 1), got {rho!r}")
    return rho


class ToleranceResult(NamedTuple):
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


def _level(rho: float) -> tuple[float, float]:
    """(rho, l_rho): the checked level and its Gaussian coefficient, formed once per call."""
    r = _check_rho(rho)
    return r, math.sqrt(2.0 * (math.log(2.0) - math.log(r))) / 3.0


def gaussian_l(rho: float) -> float:
    """Gaussian deviation coefficient l_rho = (1/3) sqrt(2 ln(2/rho)).

    With inputs modeled as N(0, (w_i/3)^2), P(|Y| >= l_rho * T_RSS) <= rho
    by the sub-Gaussian tail bound.  Strictly decreasing in rho; 2/rho is
    never formed, as it overflows for subnormal rho.
    """
    return _level(rho)[1]


def _result(method: Method, chain: StackChain, t: float, rho: Optional[float],
            l_rho: Optional[float]) -> ToleranceResult:
    # t and T_RSS scaled by one power of two, exactly, so that l_rho * T_RSS
    # neither underflows on subnormal chains nor overflows near the largest double
    s = chain._sums
    rss_s, e = math.frexp(s.rss)
    t_s = math.ldexp(t, -e)
    f = t_s / (l_rho * rss_s) if rho is not None else None
    return _new(ToleranceResult, (method, t, min(t, s.wc), f, t_s / rss_s, rho))


def _hoeffding(method: Method, chain: StackChain, rho: float, l_rho: float) -> ToleranceResult:
    s = chain._sums
    rss_s, e = math.frexp(s.rss)
    # scaled back by 2^e in two halves: the first is exact, the second rounds
    # once or gives inf, where math.ldexp and 2.0 ** 1024 raise OverflowError
    t = 3.0 * (l_rho * rss_s) * 2.0 ** (e // 2) * 2.0 ** (e - e // 2)
    return _new(ToleranceResult, (method, t, min(t, s.wc), 3.0, 3.0 * l_rho, rho))


def hoeffding_t(chain: StackChain, rho: float) -> ToleranceResult:
    """Sub-Gaussian half-width t = sqrt(2 ln(2/rho) sum w_i^2) = 3 l_rho T_RSS.

    The shape coefficient is exactly 3: the bound treats each uniform
    input as sub-Gaussian with parameter w_i, three times the standard
    deviation the GAUSSIAN model assumes.  f and coverage are given in
    closed form, so they stay finite where t overflows.  t is formed on
    T_RSS scaled like _result's, so it does not round to 0 on subnormal
    chains.
    """
    return _hoeffding(Method.HOEFFDING, chain, *_level(rho))


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
# dg/dlog lam = -lam^2 K''; all are sums over (v, c) of c times L(x) = coth x - 1/x,
# m(x) = log(sinh x / x) - x L(x) or q(x) = x^2 L'(x) at x = lam v, from the kernels
# _langevin_sum (L) and _legendre_sums (m and q), plus the quadratic price's part.
# n - K' where b = 0 is _co_langevin_sum(lam, groups), without cancellation.
# A member is the chain's own groups or n bounds of 1 with a price b >= 0 (0: LIPSCHITZ).
class _Member(NamedTuple):
    wbar: float
    groups: tuple[tuple[float, float], ...]  # the (v, c) pairs of the scaled chain, c a float
    n: int  # the number of bounds, sum c
    b: float  # quadratic price: g <= -b lam^2
    curv: float  # K''(0): g >= -curv lam^2 / 2
    limit: float  # t(inf), in the chain's own units (inf where b > 0): t is clamped to it
    top: tuple[float, float]  # the largest group (v1, c1): max(groups)


def _member(chain: StackChain, method: Method, curvature: float = 0.5) -> _Member:
    """The Chernoff-family member ``method`` on ``chain``: its ((v, c) groups, b, limit)."""
    s = chain._sums
    if method is Method.CHERNOV:
        return _new(_Member, (s.wbar, s.groups, s.n, 0.0, s.curv, s.wc, s.top))
    if not 1.0 / 6.0 <= curvature < math.inf:  # NaN fails this too
        raise ValueError(f"curvature must be finite and >= 1/6, got {curvature}")
    b = curvature * s.sq_dev if method is Method.QUADRATIC else 0.0
    groups = ((1.0, float(s.n)),)
    return _new(_Member, (s.wbar, groups, s.n, b, s.n / 3.0 + 2.0 * b,
                          math.inf if b else s.wc, groups[0]))


def _gap(m: _Member, lam: float) -> tuple[float, float]:
    """(g, dg / dlog lam) of member ``m`` at lam, in one pass."""
    # b lam^2, formed as b lam lam where lam^2 alone overflows: 0 at b = 0, never NaN
    penalty = m.b * (lam * lam) if lam * lam < math.inf else m.b * lam * lam
    ms, qs = _legendre_sums(lam, m.groups)
    return ms - penalty, -qs - 2.0 * penalty


def _slope(m: _Member, lam: float) -> float:
    """The slope t(lam) = K'(lam) of member ``m``."""
    return _langevin_sum(lam, m.groups) + 2.0 * m.b * lam


def _exponent(chain: StackChain, method: Method, lam: float, t: float,
              curvature: float = 0.5, a: float = 0.0) -> float:
    lam = _check_lambda(lam)
    t = _check_t(t)
    m = _member(chain, method, curvature)
    x = lam * m.wbar
    gap, tangent = _gap(m, x)[0], x * (_slope(m, x) + a)  # a: psi's linear price
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
    """Imbalance functional S_lambda = sum_i [f(lam w_i) - f(lam wbar)], f(x) = log(sinh x / x).

    Formed as the sum of f's Bregman divergences D_f(lam w_i, lam wbar), each
    >= 0, within 1e-11 relative of their exact sum: 0 on equal bounds, > 0 on
    any others unless the true value underflows.  This is exactly what the
    balance-agnostic relaxations give away versus the optimized exponent at
    scale lam.  Raises ValueError where lam * max(w) overflows.
    """
    lam = _check_lambda(lam)
    if lam * max(chain.weighted_bounds) == math.inf:
        raise ValueError(f"lambda * max(w) must be finite, got lambda={lam!r}")
    return _jensen_gap(chain, lam)


def psi(chain: StackChain, lam: float, t: float) -> float:
    """Imbalance-linear relaxation of phi: K(lam) - lam t with
    K = n log(sinh(lam wbar)/(lam wbar)) + lam sum|w_i - wbar|.

    An upper bound on phi because K exceeds phi's K by
    lam sum|w_i - wbar| - S_lambda >= 0 (h is 1/2-Lipschitz); the linear
    term enters only the slope.  Equals phi exactly on all-equal chains.
    """
    return _exponent(chain, Method.LIPSCHITZ, lam, t, a=chain._sums.abs_dev)


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


# A member with more than this many groups starts its root on the curve that
# splits off its largest bound (_split_start).  On a mix of uniform, log-uniform and
# one-dominant chains that start pays from 12 bounds on and ties at 10 and 11: its
# 2 to 16 curve steps cost about as much as the gap evaluations they save.  A
# uniform chain alone never gains.  Measured by timing chernov_t with and without it
# at n = 8 to 200 bounds, 6 seeds x rho in (0.1, 0.0027, 1e-6, 1e-12), 2 cores.
_SPLIT_GROUPS = 11


def _split_start(m: _Member, target: float, start: float, cap: float) -> float:
    """The root of -(c1 / 2) log(1 + v1^2 lam^2 / 3) - (r / 2) log(1 + k_r lam^2 / r), from start.

    (v1, c1) is the member's largest group, r = n - c1 and k_r = curv - c1 v1^2 / 3
    the curvature of the rest; r = 0 would give the plain start's curve.  Where a
    term overflows, far past any bound's saturation, this root raises and start is
    kept.
    """
    v1, c1 = m.top
    r = m.n - c1
    k1, kr = v1 * v1 / 3.0, m.curv - c1 * (v1 * v1) / 3.0
    if not kr > 2.0 ** -20 * m.curv:  # 20 bits or more cancelled: sum the rest itself
        kr = math.fsum([c * (v * v) for v, c in m.groups if v != v1]) / 3.0
    kr /= r

    def curve(x: float) -> tuple[float, float]:
        y, z = k1 * (x * x), kr * (x * x)
        return (-0.5 * (c1 * math.log1p(y) + r * math.log1p(z)),
                -(c1 * y / (1.0 + y) + r * z / (1.0 + z)))

    try:
        return _root(curve, target, start, 0.0, cap)[0]
    except NonFiniteError:
        return start


def _quantile(m: _Member, rho: float) -> float:
    """The member's bound t = (K(lam) - log(rho / 2)) / lam at the lam where its root stops.

    The bound holds at every lam > 0 and is least where g(lam) = log(rho / 2).
    g is concave in log lam, -curv lam^2 / 2 near 0 and -n log lam + O(1)
    once every bound saturates, each less b lam^2.  Every member's
    numerics._root starts at the root of -(n / 2) log(1 + curv lam^2 / n),
    which follows both regimes and is the Gaussian point
    sqrt(-2 log(rho / 2) / curv) while |log rho| << n, cut at the root of
    -b lam^2.  That shared curvature lets the largest bound saturate first,
    so on a member with more than _SPLIT_GROUPS groups the start is moved,
    from there, to the root of the curve that splits that bound off
    (_split_start): where one bound dominates the plain start lies 0.8 to
    1.2 left of the root in log lam.  The start only moves the iterates,
    which may stop on either side of the root; the bound holds wherever
    they stop.  Each step is cut at the root of -b lam^2 or at _LAM_MAX.
    t is formed from the g that the root hands back and the slope at the
    lam where it stops.  As lam K'' <= K', it exceeds the optimum by at most
    about step^2 / 2 <= 5e-15 of itself.  t is clamped to the member's limit
    t(inf), so it never falls as rho falls; where the root lies past
    _LAM_MAX it is that limit, with no slope formed.
    """
    target = math.log(rho) - math.log(2.0)
    cap = min(math.sqrt(-target / m.b) if m.b else math.inf, _LAM_MAX)
    try:
        start = min(math.sqrt(m.n * math.expm1(-2.0 * target / m.n) / m.curv), cap)
    except OverflowError:  # past expm1's range: n = 1 below rho ~ 1e-154, n = 2 below ~ 1e-308
        start = cap
    if len(m.groups) > _SPLIT_GROUPS:
        start = _split_start(m, target, start, cap)
    lam, (g, _) = _root(partial(_gap, m), target, start, 0.0, cap)
    # the root stops at _LAM_MAX only where b = 0 and the limit is finite; there
    # n - K' <= n / lam (each c v (1 - L(lam v)) is at most c / lam) puts t(lam)
    # within 2^-900 of t(inf), relative: far inside _ROUND_UP, so the clamp would
    # give the limit, and the slope is not formed
    if lam == _LAM_MAX:
        return m.limit
    return min(m.wbar * (_slope(m, lam) + (g - target) / lam) * _ROUND_UP, m.limit)


def chernov_prob(chain: StackChain, t: float) -> float:
    """Optimized exponential tail bound min(1, 2 exp(inf_lam phi(lam, t))).

    Returns 1 for t up to about wc log 2 / (2 n), t = 0 included, without a
    solve, and 0 for t >= the worst case (the infimum diverges to -inf
    there).  Nonincreasing in t.  The optimal lam solves K' = t, or
    n - K' = (wc - t) / wbar on the scaled chain, which stays exact near wc
    where K' saturates.  K - lam t = g + lam (K' - t) bounds at any lam, and
    is formed from the g and n - K' of the step where the root stops.
    """
    t = _check_t(t)
    m = _member(chain, Method.CHERNOV)
    if t >= m.limit:
        return 0.0
    tau = t / m.wbar
    # n - tau where the worst case passes the largest double
    rest = (m.limit - t) / m.wbar if m.limit < math.inf else m.n - tau
    # n - K' >= n - curv lam puts lo left of the root, and
    # n - K' <= n / lam, from 1 - L(x) <= 1/x, puts hi right of it; both
    # with a factor 2 to spare.  The root runs from hi, cut there, and lo > 0
    # keeps a halved step off lam = 0.
    lo, hi = 0.5 * tau / m.curv, 2.0 * m.n / rest
    if hi * tau <= math.log(2.0):  # K >= 0 at the optimal lam <= hi: the bound is >= 1
        return 1.0

    def co_slope(x: float) -> tuple[float, float, float]:
        # (n - K', its derivative in log lam, g): the root steps on the first two
        co, (g, dg) = _co_langevin_sum(x, m.groups), _gap(m, x)
        return co, dg / x, g

    lam, (co, _, g) = _root(co_slope, rest, hi, lo, hi)
    k = g + lam * (rest - co)
    return min(1.0, 2.0 * math.exp(k))


def _family(method: Method, chain: StackChain, rho: float, l_rho: float,
            curvature: float = 0.5) -> ToleranceResult:
    """The body of CHERNOV, LIPSCHITZ and QUADRATIC: the member's quantile at rho."""
    t = _quantile(_member(chain, method, curvature), rho)
    if method is Method.LIPSCHITZ:  # plus its linear price: the balanced t + sum|w_i - wbar|
        t += chain._sums.wbar * chain._sums.abs_dev
    return _result(method, chain, t, rho, l_rho)


def chernov_t(chain: StackChain, rho: float) -> ToleranceResult:
    """Half-width from inverting the optimized exponential bound at rho.

    Below the worst case unless rho is so small that t rounds to it; the
    tightest guaranteed method in this family.
    """
    return _family(Method.CHERNOV, chain, *_level(rho))


def lipschitz_t(chain: StackChain, rho: float) -> ToleranceResult:
    """Half-width from inverting the imbalance-linear relaxation (psi) at rho.

    t is CHERNOV's on n bounds of wbar plus sum|w_i - wbar|, so it tends to
    wc + sum|w_i - wbar| as rho goes to 0.  May exceed the worst case on
    unbalanced chains; both raw and clamped values are reported.
    """
    return _family(Method.LIPSCHITZ, chain, *_level(rho))


def quadratic_t(chain: StackChain, rho: float, curvature: float = 0.5) -> ToleranceResult:
    """Half-width from inverting the variance-quadratic relaxation (psi_tilde) at rho.

    t grows without bound as rho goes to 0 unless all bounds are equal,
    where it is CHERNOV with limit wc.  Tighter than LIPSCHITZ when the
    imbalance is small.
    """
    return _family(Method.QUADRATIC, chain, *_level(rho), curvature)


def _airbus(method: Method, chain: StackChain, rho: Optional[float],
            l_rho: Optional[float]) -> ToleranceResult:
    s = chain._sums
    return _result(method, chain, 1.6 * (-0.56 * s.d + 1.04) * s.rss, None, None)


def airbus_t(chain: StackChain) -> ToleranceResult:
    """Industrial balance-corrected rule t = 1.6 (1.04 - 0.56 D) T_RSS.

    D is the dominance factor from the balance report.  The constants
    embed the rule's own quantile calibration, so no rho is attached.
    """
    return _airbus(Method.AIRBUS, chain, None, None)


# Each method's solver, keyed in Method's order.  Each is called as
# solve(method, chain, rho, l_rho) with rho's constants formed once by the
# caller (None for the rho-free methods), and holds the method's only body:
# the public *_t functions form the constants and call it.
_SOLVERS: dict[Method, Callable[[Method, StackChain, Optional[float], Optional[float]],
                                ToleranceResult]] = {
    Method.WC: lambda m, c, r, l: _result(m, c, c._sums.wc, None, None),
    Method.RSS: lambda m, c, r, l: _result(m, c, c._sums.rss, None, None),
    Method.GAUSSIAN: lambda m, c, r, l: _result(m, c, l * c._sums.rss, r, l),
    Method.HOEFFDING: _hoeffding,
    Method.CHERNOV: _family,
    Method.LIPSCHITZ: _family,
    Method.QUADRATIC: _family,
    Method.AIRBUS: _airbus,
}
_RHO_FREE = frozenset({Method.WC, Method.RSS, Method.AIRBUS})


def tolerance(chain: StackChain, method: Method, rho: Optional[float] = None) -> ToleranceResult:
    """Dispatch one analytic method, given as a Method or its name; rho-aware ones need rho."""
    try:
        method = Method(method)
    except ValueError:
        raise ValueError(f"unknown method {method!r}") from None
    if method in _RHO_FREE:
        return _SOLVERS[method](method, chain, None, None)
    if rho is None:
        raise ValueError(f"method {method.value} requires a confidence level")
    return _SOLVERS[method](method, chain, *_level(rho))


def analyze_all(chain: StackChain, rho: float) -> list[ToleranceResult]:
    """All eight analytic methods at one confidence level, fixed order.

    Order: WC, RSS, GAUSSIAN, HOEFFDING, CHERNOV, LIPSCHITZ, QUADRATIC,
    AIRBUS.  WC, RSS and AIRBUS do not consume rho and report f = None.
    """
    r, l_rho = _level(rho)
    return [solve(m, chain, r, l_rho) for m, solve in _SOLVERS.items()]
