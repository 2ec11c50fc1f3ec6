"""Stable special functions and the 1-D solver shared by the bound engines.

The special functions here are the building blocks of every analytic
tolerance bound in this package:

* ``h_stable(x) = log((1 - exp(-x)) / x)`` -- convex, 1/2-Lipschitz, with
  h(0+) = 0 and h(x) ~ -log(x) for large x.
* ``log_sinh_over_x(x) = log(sinh(x) / x)`` -- the log moment generating
  function of a uniform variable on [-1, 1] evaluated at x, nonnegative.
* ``langevin(x) = coth(x) - 1/x`` -- the derivative of log(sinh(x) / x).
* ``x2_langevin_prime(x) = x^2 L'(x) = 1 - (x / sinh(x))^2``, x^2 times its
  derivative, rising from 0 to 1.
* ``legendre_term(x) = log(sinh(x) / x) - x * langevin(x)``, falling from 0.

All are evaluated without overflow or cancellation for every finite x in
their domain.  Each sum over a Chernoff-family member's distinct bounds v,
with counts c, at lam * v is one kernel's loop: ``_legendre_sums`` forms the
gap's c m and c q (sharing expm1(-2x)), ``_langevin_sums`` the slope's c v L
and c v (1 - L).  langevin, x2_langevin_prime and legendre_term are their
kernel's one-term view; h_stable has its own series and expm1 form, and
log_sinh_over_x is formed as m + x L from two kernels.

``_root`` is the one lambda-root of the Chernoff family: Newton steps in
log x, on g left of the root and on log |g| right of it, with a halving
safeguard, stopped at the first x whose own step is small, on either side
of the root.  It hands back that x with the whole evaluation made there.
Every quantile and chernov_prob runs it.  Its two errors are
ArithmeticErrors.  Everything in this module is pure and stateless.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

__all__ = [
    "ConvergenceError",
    "NonFiniteError",
    "h_stable",
    "log_sinh_over_x",
    "langevin",
    "x2_langevin_prime",
    "legendre_term",
]

# Below this point the 3-term even series for h is more accurate than the
# expm1/log route; both branches agree to ~1e-14 in [5e-4, 5e-3].
_H_SERIES_SWITCH = 1e-3

# Below this point langevin, x2_langevin_prime and legendre_term use their
# series (truncation below 2e-15 relative there); above it the exp forms
# lose at most ~1e-13 relative to cancellation.
_LANGEVIN_SERIES_SWITCH = 0.1

# _root stops at the first x whose own Newton step in log x is at most
# _STEP_TOL, and raises after _MAX_ITER steps.
_STEP_TOL = 1e-7
_MAX_ITER = 256


class NonFiniteError(ArithmeticError):
    """A callee returned NaN or infinity where a finite value was required."""


class ConvergenceError(ArithmeticError):
    """A solver used up its iteration budget before reaching its tolerance."""


def h_stable(x: float) -> float:
    """log((1 - exp(-x)) / x) for x > 0, relative error below 1e-12.

    For x < 1e-3 uses the even series -x/2 + x^2/24 - x^4/2880 (next term
    is O(x^6), < 1e-22 at the switch point).  Above the switch the single
    log of -expm1(-x)/x is used; the ratio is well conditioned so no
    cancellation occurs even though h itself is tiny near the switch.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"h_stable requires finite x > 0, got {x!r}")
    if x < _H_SERIES_SWITCH:
        x2 = x * x
        return -0.5 * x + x2 / 24.0 - x2 * x2 / 2880.0
    # -expm1(-x) = 1 - exp(-x) in (0, 1]; for x > ~37 it is exactly 1.0
    return math.log(-math.expm1(-x) / x)


def log_sinh_over_x(x: float) -> float:
    """log(sinh(x) / x) for x > 0, overflow-free, always >= 0.

    Formed as legendre_term(x) + x * langevin(x): langevin is concave from
    L(0) = 0, so the sum is at least x L(x) / 2 and cancels at most one
    bit.  Relative error below 1e-13 for x from 1e-150 up to ~1e17.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"log_sinh_over_x requires finite x > 0, got {x!r}")
    return legendre_term(x) + x * langevin(x)


def langevin(x: float) -> float:
    """Langevin function L(x) = coth(x) - 1/x for x >= 0, L(0) = 0.

    L is the derivative of log(sinh(x)/x): increasing, with slope 1/3 at 0
    and L(x) -> 1 as x -> inf.  Relative error below 1e-13.
    """
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"langevin requires finite x >= 0, got {x!r}")
    return _langevin_sums(x, _ONE_TERM)[0]


_ONE_TERM = ((1.0, 1),)


def _langevin_sums(lam: float, groups: Iterable[tuple[float, int]]) -> tuple[float, float]:
    """(sum c v L(lam v), sum c v (1 - L(lam v))) over (v, c) pairs, for lam v >= 0.

    L is langevin, 1 - 1/x + (coth x - 1) above the series switch; above 1,
    1 - L is 1/x - (coth x - 1), which does not cancel where L rounds to 1.
    """
    ls, cos = [], []
    for v, c in groups:
        x = lam * v
        if x < _LANGEVIN_SERIES_SWITCH:
            x2 = x * x
            lx = x * (1 / 3 - x2 * (1 / 45 - x2 * (2 / 945 - x2 * (1 / 4725 - x2 * 2 / 93555))))
        else:
            cm1 = 2.0 * math.exp(-2.0 * x) / -math.expm1(-2.0 * x)
            lx = 1.0 - 1.0 / x + cm1
        ls.append(c * (v * lx))
        cos.append(c * (v * (1.0 / x - cm1 if x > 1.0 else 1.0 - lx)))
    return math.fsum(ls), math.fsum(cos)


def _legendre_sums(lam: float, groups: Iterable[tuple[float, int]]) -> tuple[float, float]:
    """(sum c m(lam v), sum c q(lam v)) over (v, c) pairs, for lam v >= 0.

    m is legendre_term and q is x2_langevin_prime.  Each term is formed
    by the series below the switch, and above it from d = 1 - exp(-2x)
    as 1 + h(2x) - x (coth(x) - 1) and 1 - (x / sinh x)^2, with
    h(2x) = log(d / 2 / x), finite where 2x overflows (d / 2 is exact, so it
    rounds d / 2x once).  Unchecked: the callers check their arguments.
    """
    ms, qs = [], []
    for v, c in groups:
        x = lam * v
        if x < _LANGEVIN_SERIES_SWITCH:
            x2 = x * x  # x (x c), not x2 c: one rounding where m is subnormal
            m = -x * (x * (1 / 6 - x2 * (1 / 60 - x2 * (1 / 567 - x2 * (1 / 5400 - x2 / 51975)))))
            q = x2 * (1 / 3 - x2 * (1 / 15 - x2 * (2 / 189 - x2 * (1 / 675 - x2 * (
                2 / 10395 - x2 * 1382 / 58046625)))))
        else:
            d = -math.expm1(-2.0 * x)
            m = 1.0 + math.log(d / 2.0 / x) - x * (2.0 * math.exp(-2.0 * x) / d)
            r = 2.0 * (x * math.exp(-x)) / d
            q = 1.0 - r * r
        ms.append(c * m)
        qs.append(c * q)
    return math.fsum(ms), math.fsum(qs)


def x2_langevin_prime(x: float) -> float:
    """q(x) = x^2 L'(x) = 1 - (x / sinh x)^2 for x >= 0, q(0) = 0.

    Increasing from x^2/3 near 0 to 1; -q(x) is the derivative of
    legendre_term in log x.  Finite where x^2 overflows or L'(x)
    underflows; relative error below 1e-13.
    """
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"x2_langevin_prime requires finite x >= 0, got {x!r}")
    return _legendre_sums(x, _ONE_TERM)[1]


def legendre_term(x: float) -> float:
    """m(x) = log(sinh(x)/x) - x L(x) for x >= 0, m(0) = 0.

    Decreasing: -x^2/6 near 0, 1 - log(2x) for large x.  Formed as
    1 + h(2x) - x (coth(x) - 1), never as the difference of two large
    terms; relative error below 1e-13.
    """
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"legendre_term requires finite x >= 0, got {x!r}")
    return _legendre_sums(x, _ONE_TERM)[0]


def _root(
    f: Callable[[float], tuple[float, ...]], target: float, x: float, lo: float, cap: float,
) -> tuple[float, tuple[float, ...]]:
    """(x, f(x)) at the first x whose own Newton step toward g = target is at most 1e-7.

    f(x) returns (g(x), x g'(x), ...): a decreasing g and its derivative in
    log x, then whatever else the caller wants from the step where the root
    stops.  The root hands back that whole evaluation, so no caller
    evaluates there again.  Newton steps in log x run from x, each cut at
    cap, and one that would leave the bracket of the points seen so far,
    which starts as (lo, inf), is halved in log x.  Left of the root the
    step is Newton's on g; right of it, where g has the target's sign, it
    is Newton's on log |g|, log(target / g) g / (x g'), which lands on the
    root in one step where |g| is a power of x: the gap -curv x^2 / 2 while
    no bound saturates, n - K' ~ n / x once all do.  The stop test is on g's own
    step either way.  The x returned may lie on either side of the root;
    it is cap where the root lies past cap.  Raises NonFiniteError where g
    or x g' is not finite, and ConvergenceError after 256 steps.
    """
    hi = math.inf
    for _ in range(_MAX_ITER):
        fx = f(x)
        g, dg = fx[0], fx[1]
        if not (math.isfinite(g) and math.isfinite(dg)):
            raise NonFiniteError(f"objective returned {(g, dg)!r} at x={x!r}")
        step = (target - g) / dg
        if abs(step) <= _STEP_TOL or (x == cap and step > 0.0):
            return x, fx
        lo, hi = (x, hi) if step > 0.0 else (lo, x)
        if step < 0.0 and g * target > 0.0:  # right of the root: a step in log |g|
            step = math.log(target / g) * g / dg
        # capped so that exp stays finite
        nxt = min(x * math.exp(min(step, 700.0)), cap)
        x = nxt if lo < nxt < hi else math.sqrt(x) * math.sqrt(hi if step > 0.0 else lo)
    raise ConvergenceError(f"root not found after {_MAX_ITER} steps")
