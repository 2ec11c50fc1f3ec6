"""The special-function kernels of the Chernoff family, and its one lambda-root.

Every analytic bound and the balance gap are sums over (v, c) pairs, at
x = lam v, of c times L(x) = coth(x) - 1/x (the derivative of
log(sinh(x) / x), rising from 0 to 1), its co-slope 1 - L(x),
m(x) = log(sinh(x) / x) - x L(x) (falling from 0) or q(x) = x^2 L'(x)
(rising from 0 to 1).  Three kernels form them for every finite x >= 0
without overflow or cancellation, each only the sums its callers read:
``_legendre_sums`` c m and c q, ``_langevin_sum`` c v L and
``_co_langevin_sum`` c v (1 - L).  The counts c are integer-valued floats.

``_root`` is the one lambda-root of the Chernoff family: Newton steps in
log x, on g left of the root and on log |g| right of it, with a halving
safeguard, stopped at the first x whose own step is small, on either side
of the root.  It hands back that x with the whole evaluation made there.
Its two errors, ArithmeticErrors, are the module's only public names.
Everything in this module is pure and stateless.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

__all__ = ["ConvergenceError", "NonFiniteError"]

# Below this point the kernels use their series for L, m and q (truncation
# below 2e-15 relative there); above it the exp forms lose at most ~1e-13
# relative to cancellation.
_LANGEVIN_SERIES_SWITCH = 0.1

# _root stops at the first x whose own Newton step in log x is at most
# _STEP_TOL, and raises after _MAX_ITER steps.
_STEP_TOL = 1e-7
_MAX_ITER = 256


class NonFiniteError(ArithmeticError):
    """A callee returned NaN or infinity where a finite value was required."""


class ConvergenceError(ArithmeticError):
    """A solver used up its iteration budget before reaching its tolerance."""


# Unexported, unused by the package: bench/layers.py's special-function metrics read both.
def h_stable(x: float) -> float:
    """log((1 - exp(-x)) / x) for x > 0, relative error below 1e-12.

    The even series -x/2 + x^2/24 - x^4/2880 below 1e-3, log(-expm1(-x) / x) above.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"h_stable requires finite x > 0, got {x!r}")
    if x < 1e-3:
        x2 = x * x
        return -0.5 * x + x2 / 24.0 - x2 * x2 / 2880.0
    return math.log(-math.expm1(-x) / x)


def log_sinh_over_x(x: float) -> float:
    """log(sinh(x) / x) = m(x) + x L(x) for x > 0, >= 0, relative error below 1e-13.

    L is concave from L(0) = 0, so the sum is at least x L(x) / 2 and cancels at most one bit.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"log_sinh_over_x requires finite x > 0, got {x!r}")
    return _legendre_sums(x, _ONE_TERM)[0] + x * _langevin_sum(x, _ONE_TERM)


_ONE_TERM = ((1.0, 1.0),)


def _langevin_sum(lam: float, groups: Iterable[tuple[float, float]]) -> float:
    """sum c v L(lam v) over (v, c) pairs, lam v >= 0; past the switch 1 - 1/x + (coth x - 1)."""
    ls = []
    for v, c in groups:
        x = lam * v
        if x < _LANGEVIN_SERIES_SWITCH:
            x2 = x * x
            lx = x * (1 / 3 - x2 * (1 / 45 - x2 * (2 / 945 - x2 * (1 / 4725 - x2 * 2 / 93555))))
        else:
            y = -2.0 * x
            lx = 1.0 - 1.0 / x + 2.0 * math.exp(y) / -math.expm1(y)
        ls.append(c * (v * lx))
    return math.fsum(ls)


def _co_langevin_sum(lam: float, groups: Iterable[tuple[float, float]]) -> float:
    """sum c v (1 - L(lam v)) over (v, c) pairs, lam v >= 0; past x = 1 as 1/x - (coth x - 1)."""
    cos = []
    for v, c in groups:
        x = lam * v
        if x < _LANGEVIN_SERIES_SWITCH:
            x2 = x * x
            co = 1.0 - x * (1 / 3 - x2 * (1 / 45 - x2 * (2 / 945 - x2 * (
                1 / 4725 - x2 * 2 / 93555))))
        else:
            y = -2.0 * x
            cm1 = 2.0 * math.exp(y) / -math.expm1(y)
            co = 1.0 / x - cm1 if x > 1.0 else 1.0 - (1.0 - 1.0 / x + cm1)
        cos.append(c * (v * co))
    return math.fsum(cos)


def _legendre_sums(lam: float, groups: Iterable[tuple[float, float]]) -> tuple[float, float]:
    """(sum c m(lam v), sum c q(lam v)) over (v, c) pairs, for lam v >= 0.

    m(x) = log(sinh x / x) - x L(x) and q(x) = x^2 L'(x).  Each term is formed
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
            y = -2.0 * x
            d = -math.expm1(y)
            m = 1.0 + math.log(d / 2.0 / x) - x * (2.0 * math.exp(y) / d)
            r = 2.0 * (x * math.exp(-x)) / d
            q = 1.0 - r * r
        ms.append(c * m)
        qs.append(c * q)
    return math.fsum(ms), math.fsum(qs)


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
