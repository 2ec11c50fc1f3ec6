"""Stack chain model: contributors, weighted bounds, balance diagnostics.

A stack chain is the linearized model of an assembly characteristic

    Y = sum_i a_i X_i,        X_i uniform on [-T_i, T_i],

where T_i is the half-width tolerance of contributor i and a_i its
influence coefficient.  Everything downstream only ever needs the
weighted bounds w_i = |a_i| * T_i, so those are precomputed once and the
chain object is immutable.  So are the sums every method reads, formed
once when the chain is built: the worst case wc = sum w_i, the mean bound
wbar, T_RSS, the bounds scaled to mean 1 (u_i = w_i / wbar) grouped by
value, sum u_i^2, sum |u_i - 1|, sum (u_i - 1)^2 and the dominance D.
A contributor whose weighted bound is 0.0, from a zero influence or from
a product |a_i| * T_i that underflows, is dropped at build time.

Balance diagnostics quantify how far the chain is from the equal-
contributor ideal; perfectly balanced chains have s1 = 0 and d_factor = 0,
and every relaxed bound collapses to the exact Chernoff one there.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

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


class _Sums(NamedTuple):
    """The sums of a chain's bounds w_i that every method reads, u_i = w_i / wbar."""

    wc: float  # sum w_i, inf past the largest double
    wbar: float  # the mean bound, always finite
    rss: float  # T_RSS
    groups: tuple[tuple[float, int], ...]  # the u_i as (value, count), in first-occurrence order
    curv: float  # sum u_i^2 / 3
    abs_dev: float  # sum |u_i - 1|
    sq_dev: float  # sum (u_i - 1)^2
    d: float  # D = (max w_i - wbar) / wc, with n wbar standing in for wc where it overflows


@dataclass(frozen=True)
class StackChain:
    """Immutable chain of contributors with nonzero weighted bounds.

    Contributors whose weighted bound is 0.0, from a zero influence or an
    underflowed product, are dropped at build time: they cannot move the
    output and would only poison the log-based bounds with w_i = 0 terms.
    The sums of the kept bounds that the methods read (wc, wbar, T_RSS,
    the scaled bounds' groups, their dispersion sums and D) are formed
    then too, once, in a private field outside equality, hash and repr.
    """

    contributors: tuple[Contributor, ...]
    weighted_bounds: tuple[float, ...] = field(init=False)
    _sums: _Sums = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        kept = tuple(c for c in self.contributors if c.weighted_bound != 0.0)
        if not kept:
            raise ValueError(
                "chain needs a contributor whose weighted bound |influence| * half_width is nonzero"
            )
        w = tuple(c.weighted_bound for c in kept)
        n = len(w)
        try:
            wc = math.fsum(w)
            wbar = wc / n
        except OverflowError:  # sum the bounds scaled by 2^-e <= 1/n, which is exact
            e = n.bit_length()
            wc, wbar = math.inf, math.ldexp(math.fsum(math.ldexp(wi, -e) for wi in w) / n, e)
        u = [wi / wbar for wi in w]
        groups = tuple(Counter(u).items())  # fsum is exact, so the groups' order is moot
        spread = max(w) - wbar
        object.__setattr__(self, "contributors", kept)
        object.__setattr__(self, "weighted_bounds", w)
        object.__setattr__(self, "_sums", _Sums(
            wc, wbar, math.hypot(*w), groups,
            math.fsum(c * (v * v) for v, c in groups) / 3.0,
            math.fsum(abs(ui - 1.0) for ui in u),
            math.fsum((ui - 1.0) * (ui - 1.0) for ui in u),
            spread / wc if wc < math.inf else spread / wbar / n,
        ))

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


def t_wc(chain: StackChain) -> float:
    """Worst case stack: sum of weighted bounds. Never exceeded; inf past the double range."""
    return chain._sums.wc


def t_rss(chain: StackChain) -> float:
    """Root sum of squares of the weighted bounds, free of over- and underflow."""
    return chain._sums.rss


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
    w, wbar = chain.weighted_bounds, chain._sums.wbar
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
    w, mean = chain.weighted_bounds, chain._sums.wbar
    # d * d goes to inf where d ** 2 would raise OverflowError
    variance = math.fsum((wi - mean) * (wi - mean) for wi in w) / len(w)
    abs_dev_sum = math.fsum(abs(wi - mean) for wi in w)
    return BalanceReport(
        mean=mean,
        variance=variance,
        abs_dev_sum=abs_dev_sum,
        s1=_jensen_gap(chain, 1.0),
        d_factor=chain._sums.d,
    )
