"""Reference values for the benchmark's output checks.

Nothing here imports stacktol.  The model is the package's: the output is
Y = sum_i U_i with U_i independent and uniform on [-w_i, w_i].

* ``exact_abs_tail`` is the inclusion-exclusion volume formula for
  P(|Y| >= t), evaluated in mpmath so the alternating sum does not cancel
  (the float version loses all digits for n ~ 10 at small tails).
* ``closed_forms`` gives the rho-free and closed-form methods (wc, rss,
  gaussian, hoeffding, airbus) and the balance diagnostics.
* ``chernoff_residual`` minimizes the raw exponent
  phi(lam, t) = sum_i log(sinh(lam w_i) / (lam w_i)) - lam t over lam with
  scipy and returns 2 exp(min), the Chernoff bound at t.

Weights are divided by their mean before any evaluation, so chains at any
scale of the double range are checked with the same arithmetic.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Sequence

import mpmath as mp
from scipy.optimize import minimize_scalar

# enough digits for the inclusion-exclusion sum at n <= 10 and spreads up to
# 1e3: the largest term is ~ n^n and the tail can be ~1e-13 of it
_DPS = 60


def _normalized(weights: Sequence[float], t: float = 0.0) -> tuple[list, object]:
    w = [mp.mpf(float(x)) for x in weights]
    scale = sum(w) / len(w)
    return [x / scale for x in w], mp.mpf(float(t)) / scale


def exact_abs_tail(weights: Sequence[float], t: float) -> float:
    """Exact P(|Y| >= t) for the uniform sum, by inclusion-exclusion.

    P(Y >= t) = sum_S (-1)^|S| max(0, W - t - 2 w_S)^n / (2^n n! prod w).
    Exponential in n; meant for n <= 10.
    """
    with mp.workdps(_DPS):
        w, tt = _normalized(weights, t)
        n = len(w)
        total = sum(w)
        if tt <= 0:
            return 1.0
        if tt >= total:
            return 0.0
        acc = mp.mpf(0)
        for k in range(n + 1):
            for subset in combinations(range(n), k):
                slack = total - tt - 2 * sum(w[i] for i in subset)
                if slack > 0:
                    acc += (-1) ** k * slack**n
        one_sided = acc / (2**n * mp.factorial(n) * mp.fprod(w))
        return float(min(1, max(0, 2 * one_sided)))


def exact_abs_quantile(weights: Sequence[float], rho: float) -> float:
    """The t with P(|Y| >= t) = rho, by bisection on the exact tail."""
    lo, hi = 0.0, math.fsum(float(x) for x in weights)
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if exact_abs_tail(weights, mid) > rho:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _h(x):
    """log((1 - e^-x) / x) in mpmath."""
    return mp.log(-mp.expm1(-x) / x)


def closed_forms(weights: Sequence[float], rho: float) -> dict[str, float]:
    """Closed-form method values and balance diagnostics of one chain.

    Keys: wc, rss, gaussian, hoeffding, airbus, l_rho, s1, d_factor.
    """
    with mp.workdps(_DPS):
        w = [mp.mpf(float(x)) for x in weights]
        n = len(w)
        total = sum(w)
        mean = total / n
        rss = mp.sqrt(sum(x * x for x in w))
        l_rho = mp.sqrt(2 * mp.log(2 / mp.mpf(rho))) / 3
        d = (max(w) - mean) / total
        s1 = sum(_h(2 * x) for x in w) - n * _h(2 * mean)
        return {
            "wc": float(total),
            "rss": float(rss),
            "gaussian": float(l_rho * rss),
            "hoeffding": float(3 * l_rho * rss),
            "airbus": float(mp.mpf("1.6") * (mp.mpf("1.04") - mp.mpf("0.56") * d) * rss),
            "l_rho": float(l_rho),
            "s1": float(s1),
            "d_factor": float(d),
        }


def chernoff_residual(weights: Sequence[float], t: float) -> tuple[float, float]:
    """The Chernoff bound at t and the conditioning of that bound in t.

    Returns ``(2 exp(min_lam phi(lam, t)), lam* t)``.  The bound's log
    moves by lam* dt, so a relative error e in t moves it by lam* t e;
    callers scale their tolerance by the second value.  phi is convex in
    lam, hence unimodal in u = log(lam); scipy's bounded Brent search runs
    over u on the normalized chain.
    """
    with mp.workdps(30):
        w, tt = _normalized(weights, t)
        total = sum(w)
        if tt >= total:
            return 0.0, math.inf

        def phi(u: float) -> float:
            lam = mp.exp(u)
            return float(sum(mp.log(mp.sinh(lam * x) / (lam * x)) for x in w) - lam * tt)

        # the minimizer is below n / (W - t); leave a decade of room
        hi = math.log(10.0 * len(w) / float(total - tt))
        res = minimize_scalar(phi, bounds=(-20.0, max(hi, 5.0)), method="bounded",
                              options={"xatol": 1e-12, "maxiter": 500})
        return min(1.0, 2.0 * math.exp(res.fun)), math.exp(res.x) * float(tt)


def mc_within(value: float, exact: float, stderr: float, k: float) -> bool:
    """The Monte Carlo quantile lies within k standard errors of the exact one."""
    return math.isfinite(value) and abs(value - exact) <= k * stderr
