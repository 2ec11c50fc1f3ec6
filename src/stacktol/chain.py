"""Stack chain model: contributors, weighted bounds, balance diagnostics.

A stack chain is the linearized model of an assembly characteristic

    Y = sum_i a_i X_i,        X_i uniform on [-T_i, T_i],

where T_i is the half-width tolerance of contributor i and a_i its
influence coefficient.  Everything downstream only ever needs the
weighted bounds w_i = |a_i| * T_i, so those are precomputed once and the
chain object is immutable.

Balance diagnostics quantify how far the chain is from the equal-
contributor ideal; perfectly balanced chains have s1 = 0 and d_factor = 0,
and every relaxed bound collapses to the exact Chernoff one there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .numerics import h_stable

__all__ = [
    "Contributor",
    "StackChain",
    "BalanceReport",
    "build_chain",
    "t_wc",
    "t_rss",
    "balance_report",
]


@dataclass(frozen=True)
class Contributor:
    """One dimension chain member: name, half-width tolerance, influence."""

    name: str
    half_width: float
    influence: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("contributor name must be non-empty")
        if not (math.isfinite(self.half_width) and self.half_width > 0.0):
            raise ValueError(
                f"contributor {self.name!r}: half_width must be finite and > 0, "
                f"got {self.half_width!r}"
            )
        if not math.isfinite(self.influence):
            raise ValueError(
                f"contributor {self.name!r}: influence must be finite, got {self.influence!r}"
            )

    @property
    def weighted_bound(self) -> float:
        """w = |influence| * half_width, the contributor's reach on the output."""
        return abs(self.influence) * self.half_width


@dataclass(frozen=True)
class StackChain:
    """Immutable chain of contributors with nonzero weighted bounds.

    Contributors whose influence is exactly zero are dropped at build time:
    they cannot move the output and would only poison the log-based bounds
    with w_i = 0 terms.
    """

    contributors: tuple[Contributor, ...]
    weighted_bounds: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        kept = tuple(c for c in self.contributors if c.influence != 0.0)
        if not kept:
            raise ValueError("chain needs at least one contributor with nonzero influence")
        object.__setattr__(self, "contributors", kept)
        object.__setattr__(self, "weighted_bounds", tuple(c.weighted_bound for c in kept))

    @classmethod
    def from_bounds(cls, bounds: Iterable[float]) -> "StackChain":
        """Anonymous chain straight from weighted bounds (influence 1)."""
        members = tuple(
            Contributor(name=f"x{i + 1}", half_width=float(w)) for i, w in enumerate(bounds)
        )
        return cls(members)

    def __len__(self) -> int:
        return len(self.contributors)


def build_chain(contributors: Sequence[Contributor] | Iterable[Contributor]) -> StackChain:
    """Validate and freeze a chain from an iterable of contributors."""
    return StackChain(tuple(contributors))


def _total_and_mean(w: Sequence[float]) -> tuple[float, float]:
    """fsum(w), inf past the largest double, and the mean bound, always finite."""
    try:
        total = math.fsum(w)
        return total, total / len(w)
    except OverflowError:  # sum the bounds scaled by 2^-e <= 1/n, which is exact
        e = len(w).bit_length()
        return math.inf, math.ldexp(math.fsum(math.ldexp(wi, -e) for wi in w) / len(w), e)


def _d_factor(w: Sequence[float]) -> float:
    """(max w_i - wbar) / sum w_i, with n wbar standing in for the sum where it overflows."""
    total, mean = _total_and_mean(w)
    spread = max(w) - mean
    return spread / total if total < math.inf else spread / mean / len(w)


def t_wc(chain: StackChain) -> float:
    """Worst case stack: sum of weighted bounds. Never exceeded; inf past the double range."""
    return _total_and_mean(chain.weighted_bounds)[0]


def t_rss(chain: StackChain) -> float:
    """Root sum of squares of the weighted bounds, free of over- and underflow."""
    return math.hypot(*chain.weighted_bounds)


def _h_scaled(lam: float, w: float) -> float:
    """h(2 lam w), without forming 2 lam w where it over- or underflows.

    Past x ~ 745, h(x) = -log(x) in doubles, so the overflowing product is
    only ever needed through its logarithm; an underflowed product is
    h(0+) = 0.
    """
    x = 2.0 * lam * w
    if math.isinf(x):
        return -(math.log(2.0) + math.log(lam) + math.log(w))
    if x == 0.0:
        return 0.0
    return h_stable(x)


def _jensen_gap(chain: StackChain, lam: float) -> float:
    """sum_i h(2 lam w_i) - n h(2 lam wbar), the Jensen gap of h at scale lam.

    Mean of a convex function >= function of the mean; the few-ulp
    negatives on near-equal chains are clipped so callers can rely on >= 0.
    """
    w = chain.weighted_bounds
    wbar = _total_and_mean(w)[1]
    gap = math.fsum(_h_scaled(lam, wi) for wi in w) - len(w) * _h_scaled(lam, wbar)
    return gap if gap > 0.0 else 0.0


@dataclass(frozen=True)
class BalanceReport:
    """How evenly the chain's weighted bounds are spread.

    mean, variance (population, /n) and abs_dev_sum are plain dispersion
    statistics of the weighted bounds.  s1 is the Jensen gap
    sum_i [h(2 w_i) - h(2 wbar)] at unit exponent scale: zero iff all
    bounds are equal, and the exact overhead the balance-agnostic bounds
    pay at lambda = 1.  d_factor = (max w_i - wbar) / sum w_i is the
    dimensionless dominance of the largest contributor.
    """

    mean: float
    variance: float
    abs_dev_sum: float
    s1: float
    d_factor: float


def balance_report(chain: StackChain) -> BalanceReport:
    """Dispersion and dominance diagnostics of the weighted bounds."""
    w = chain.weighted_bounds
    mean = _total_and_mean(w)[1]
    # d * d goes to inf where d ** 2 would raise OverflowError
    variance = math.fsum((wi - mean) * (wi - mean) for wi in w) / len(w)
    abs_dev_sum = math.fsum(abs(wi - mean) for wi in w)
    return BalanceReport(
        mean=mean,
        variance=variance,
        abs_dev_sum=abs_dev_sum,
        s1=_jensen_gap(chain, 1.0),
        d_factor=_d_factor(w),
    )
