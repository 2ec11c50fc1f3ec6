"""Independent reference implementations used to validate the package.

Nothing here imports from stacktol: the exact tail uses the classical
inclusion-exclusion volume formula for a sum of uniforms, and the bound
oracle minimizes the raw exponent formulas on a dense lambda grid with a
plain bisection in t.  Slow and simple on purpose.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Sequence

import numpy as np

GRID_POINTS = 1_000_000


def exact_abs_tail(weights: Sequence[float], t: float) -> float:
    """Exact P(|Y| >= t) for Y = sum of independent U[-w_i, w_i].

    Inclusion-exclusion over subsets: with W = sum(w),
    P(Y >= t) = sum_S (-1)^|S| max(0, W - t - 2 sum_S w)^n / (2^n n! prod w).
    Exponential in n; intended for n <= 10.  The weights and t are first
    divided by the power of two 2^frexp(max w), which rounds nothing, so
    the product of bounds neither over- nor underflows at any scale.
    """
    e = math.frexp(max(float(x) for x in weights))[1]
    w = [math.ldexp(float(x), -e) for x in weights]
    t = math.ldexp(float(t), -e)
    n = len(w)
    total = math.fsum(w)
    if t <= 0.0:
        return 1.0
    if t >= total:
        return 0.0
    terms = []
    idx = range(n)
    for k in range(n + 1):
        for subset in combinations(idx, k):
            slack = total - t - 2.0 * sum(w[i] for i in subset)
            if slack > 0.0:
                terms.append((-1.0) ** k * slack**n)
    one_sided = math.fsum(terms) / (2.0**n * math.factorial(n) * math.prod(w))
    return min(1.0, max(0.0, 2.0 * one_sided))


def exact_abs_quantile(weights: Sequence[float], rho: float) -> float:
    """Exact t with P(|Y| >= t) = rho, by bisection on the exact tail."""
    lo, hi = 0.0, math.fsum(float(x) for x in weights)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if exact_abs_tail(weights, mid) > rho:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(hi, 1.0):
            break
    return 0.5 * (lo + hi)


def _lambda_grid(weights: Sequence[float]) -> np.ndarray:
    # keep lam * max(w) < 350 so np.sinh never overflows
    hi = 350.0 / max(weights)
    return np.logspace(-8.0, math.log10(hi), GRID_POINTS)


def grid_min_exponent(weights: Sequence[float], t: float, kind: str, curvature: float = 0.5) -> float:
    """Minimum over a dense lambda grid of the raw exponent formulas."""
    w = np.asarray(weights, dtype=float)
    n = len(w)
    lam = _lambda_grid(weights)
    if kind == "phi":
        x = np.outer(lam, w)
        vals = np.sum(np.log(np.sinh(x) / x), axis=1) - lam * t
    else:
        wbar = float(np.mean(w))
        x = 2.0 * lam * wbar
        base = -lam * t + lam * n * wbar + n * np.log((1.0 - np.exp(-x)) / x)
        if kind == "psi":
            vals = base + lam * float(np.sum(np.abs(w - wbar)))
        elif kind == "psi_tilde":
            vals = base + n * lam**2 * float(np.var(w)) * curvature
        else:
            raise ValueError(kind)
    return float(np.min(vals))


def grid_prob(weights: Sequence[float], t: float, kind: str, curvature: float = 0.5) -> float:
    """min(1, 2 exp(grid-minimized exponent)); 0 at/above the support edge for phi."""
    if kind == "phi" and t >= math.fsum(float(x) for x in weights):
        return 0.0
    m = grid_min_exponent(weights, t, kind, curvature)
    return min(1.0, 2.0 * math.exp(m))


def grid_bound_t(weights: Sequence[float], rho: float, kind: str, curvature: float = 0.5) -> float:
    """Invert the grid bound: smallest t with grid_prob <= rho, to ~1e-7."""
    total = math.fsum(float(x) for x in weights)
    lo = 0.0
    hi = total
    if kind != "phi":
        while grid_prob(weights, hi, kind, curvature) > rho:
            hi *= 2.0
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        if grid_prob(weights, mid, kind, curvature) > rho:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
