"""Stack chain model: contributors, weighted bounds, balance diagnostics.

A stack chain is the linearized model of an assembly characteristic

    Y = sum_i a_i X_i,        X_i uniform on [-T_i, T_i],

where T_i is the half-width tolerance of contributor i and a_i its
influence coefficient.  Everything downstream only ever needs the
weighted bounds w_i = |a_i| * T_i, so those are precomputed once and the
chain object is immutable.  So are the sums every method reads, formed
once when the chain is built: the number of bounds n, the worst case
wc = sum w_i, the mean bound wbar, T_RSS, the bounds scaled to mean 1
(u_i = w_i / wbar) grouped by value, sum u_i^2, sum |u_i - 1|,
sum (u_i - 1)^2, on chains of more than _SPLIT_GROUPS distinct bounds the
largest u_i with its count and the two-node Gauss rule of the other u_i, and
the dominance D.
A contributor whose weighted bound is 0.0, from a zero influence or from
a product |a_i| * T_i that underflows, is dropped at build time.

Balance diagnostics quantify how far the chain is from the equal-
contributor ideal; perfectly balanced chains have s1 = 0 and d_factor = 0,
and every relaxed bound collapses to the exact Chernoff one there.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, NamedTuple, Sequence

from .numerics import _co_langevin_sum, _legendre_sums

__all__ = [
    "Contributor",
    "StackChain",
    "BalanceReport",
    "build_chain",
    "t_wc",
    "t_rss",
    "balance_report",
]


class _ContributorFields(NamedTuple):
    name: str
    half_width: float
    influence: float = 1.0


class Contributor(_ContributorFields):
    """One dimension chain member: name, half-width tolerance, influence."""

    __slots__ = ()

    def __new__(cls, name: str, half_width: float, influence: float = 1.0) -> "Contributor":
        if not name:
            raise ValueError("contributor name must be non-empty")
        if not (math.isfinite(half_width) and half_width > 0.0):
            raise ValueError(
                f"contributor {name!r}: half_width must be finite and > 0, got {half_width!r}"
            )
        if not math.isfinite(influence):
            raise ValueError(f"contributor {name!r}: influence must be finite, got {influence!r}")
        return super().__new__(cls, name, half_width, influence)

    @classmethod
    def _make(cls, iterable: Iterable) -> "Contributor":
        """Build from a sequence, validated; ``_replace`` builds through here too."""
        return cls(*iterable)

    @property
    def weighted_bound(self) -> float:
        """w = |influence| * half_width, the contributor's reach on the output."""
        return abs(self.influence) * self.half_width


# Only a chain with more groups than this forms the three-bound surrogate
# (_Sums.surrogate), and bounds starts a Chernoff root at the surrogate's root
# (bounds._split_start) wherever its member carries one: this is the one place that
# decides where that start runs.  Each surrogate step is a kernel pass over 3 groups, and
# the start takes 2 to 13 of them (6 to 8 on average where one bound dominates), so
# it pays only where the full passes it saves cost more.  Timed with and without it by
# chernov_t on a mix of uniform, log-uniform, one-dominant and two-dominant chains (6
# seeds x rho in (0.1, 0.0027, 1e-6, 1e-12), medians of 5 runs on 2 cores), the start
# cost 4 % more at 11 groups and 1 % at 12, tied at 13, and saved 4 % at 14, 10 % at 16
# and 24 % at 24 (BENCH_32.json "crossover").  On one-dominant chains it pays from 10
# groups; on uniform ones alone only from about 32.
_SPLIT_GROUPS = 13


class _Sums(NamedTuple):
    """The sums of a chain's bounds w_i that every method reads, u_i = w_i / wbar."""

    n: int  # the number of bounds
    wc: float  # sum w_i, inf past the largest double
    wbar: float  # the mean bound, always finite and within [min w, max w]
    rss: float  # T_RSS
    groups: tuple[tuple[float, float], ...]  # (u_i, float count), in first-occurrence order
    curv: float  # sum u_i^2 / 3
    abs_dev: float  # sum |u_i - 1|
    sq_dev: float  # sum (u_i - 1)^2
    # the Chernoff start's three-bound surrogate (bounds._split_start): the largest u_i
    # and its count, then the other groups' two-node Gauss rule (_gauss_rest); () unless
    # there are more than _SPLIT_GROUPS groups
    surrogate: tuple[tuple[float, float], ...]
    d: float  # D = (max w_i - wbar) / wc, with n wbar standing in for wc where it overflows


def _gauss_rest(groups: tuple[tuple[float, float], ...],
                top: float) -> tuple[tuple[float, float], ...]:
    """The two-node Gauss rule of the groups other than ``top``, as (v, c) pairs with float counts.

    Its r = sum c bounds v match the rest's sum c, sum c v^2, sum c v^4 and sum c v^6
    (Golub and Welsch 1969).  It is formed on w = v^2 of the bounds scaled by 2^-e,
    max v 2^-e in [1/2, 1), so that no w underflows where the rest is far below top:
    with m1 the mean of w and mu2, mu3 its central moments, the nodes are m1 + d,
    d^2 - (mu3 / mu2) d - mu2 = 0, with counts r d' / (d' - d), d' the other root.
    The counts need not be integers.  Where mu2 vanishes against m1^2, so that the
    nodes would agree to half the double precision, the rule is one node at m1; where
    top is every bound, it is empty.
    """
    rest = [(v, c) for v, c in groups if v != top]
    if not rest:
        return ()
    e = math.frexp(max(rest)[0])[1]
    ws = [(math.ldexp(v, -e) ** 2, c) for v, c in rest]
    r = math.fsum(c for _, c in rest)
    m1 = math.fsum(c * w for w, c in ws) / r
    devs = [(w - m1, c) for w, c in ws]
    mu2 = math.fsum(c * (d * d) for d, c in devs) / r
    if not mu2 > 2.0 ** -52 * (m1 * m1):
        return ((math.ldexp(math.sqrt(m1), e), r),)
    skew = math.fsum(c * (d * d * d) for d, c in devs) / r / mu2
    hi = 0.5 * (skew + math.sqrt(skew * skew + 4.0 * mu2))
    lo = -mu2 / hi  # the roots' product is -mu2: no cancellation
    return ((math.ldexp(math.sqrt(m1 + hi), e), r * -lo / (hi - lo)),
            (math.ldexp(math.sqrt(max(m1 + lo, 0.0)), e), r * hi / (hi - lo)))


class StackChain:
    """Immutable chain of contributors with nonzero weighted bounds.

    Contributors whose weighted bound is 0.0, from a zero influence or an
    underflowed product, are dropped at build time: they cannot move the
    output and would only poison the log-based bounds with w_i = 0 terms.
    The sums of the kept bounds that the methods read (n, wc, wbar, T_RSS,
    the scaled bounds' groups, their dispersion sums, the largest group and
    the Gauss rule of the rest, and D) are formed
    then too, once, in a private slot outside equality, hash and repr.
    Assigning to or deleting any attribute raises ``AttributeError``.
    """

    __slots__ = ("contributors", "weighted_bounds", "_sums")

    contributors: tuple[Contributor, ...]
    weighted_bounds: tuple[float, ...]
    _sums: _Sums

    def __init__(self, contributors: tuple[Contributor, ...]) -> None:
        kept = tuple(c for c in contributors if c.weighted_bound != 0.0)
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
        wmax = max(w)
        wbar = min(max(wbar, min(w)), wmax)  # the rounded mean can leave [min w, max w]
        u = [wi / wbar for wi in w]
        counts = Counter(u)
        groups = tuple((v, float(c)) for v, c in counts.items())  # fsum is exact: order is moot
        top = wmax / wbar  # division is monotone, so this is max(u)
        object.__setattr__(self, "contributors", kept)
        object.__setattr__(self, "weighted_bounds", w)
        object.__setattr__(self, "_sums", _Sums(
            n, wc, wbar, math.hypot(*w), groups,
            math.fsum(c * (v * v) for v, c in groups) / 3.0,
            math.fsum(abs(ui - 1.0) for ui in u),
            math.fsum((ui - 1.0) * (ui - 1.0) for ui in u),
            ((top, float(counts[top])), *_gauss_rest(groups, top))
            if len(groups) > _SPLIT_GROUPS else (),
            (wmax - wbar) / wc if wc < math.inf else (wmax - wbar) / wbar / n,
        ))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.contributors == other.contributors
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.contributors, self.weighted_bounds))

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(contributors={self.contributors!r}, "
                f"weighted_bounds={self.weighted_bounds!r})")

    def __reduce__(self) -> tuple:
        # rebuild through __init__: the default would restore the slots by assignment
        return type(self), (self.contributors,)

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


# 8-point Gauss-Legendre nodes t > 0 on [-1, 1] with their weights, and from them
# (s, (1 - s) w / 4) for t and -t: the rule for int_0^1 (1 - s) g(s) ds at s = (1 + t) / 2
_GAUSS_LEGENDRE = (
    (0.1834346424956498049394761, 0.3626837833783619829651504),
    (0.5255324099163289858177390, 0.3137066458778872873379622),
    (0.7966664774136267395915539, 0.2223810344533744705443560),
    (0.9602898564975362316835609, 0.1012285362903762591525314),
)
_BREGMAN_NODES = tuple((0.5 * (1.0 + t), 0.25 * wt * (1.0 - t))
                       for r, wt in _GAUSS_LEGENDRE for t in (r, -r))


def _jensen_gap(chain: StackChain, lam: float) -> float:
    """sum_i f(lam w_i) - n f(lam wbar), f(x) = log(sinh x / x), as sum_i D_f(lam w_i, lam wbar).

    D_f(x, xbar) = f(x) - f(xbar) - L(xbar) (x - xbar) >= 0 is f's Bregman divergence.
    Where d = x - xbar = lam (w_i - wbar) is within max(1, xbar) / 4 it is
    d^2 int_0^1 (1 - s) q(z) / z^2 ds at z = xbar + s d, by _BREGMAN_NODES, whose
    nodes all go into one _legendre_sums call; elsewhere (m(x) - m(xbar)) +
    x ((1 - L(xbar)) - (1 - L(x))), in one call of each kernel over all such x.
    0 on equal bounds (their wbar is their bound) and where xbar
    is below the normal range (every term underflows).  lam max(w) must be finite.
    """
    w, wbar = chain.weighted_bounds, chain._sums.wbar
    xbar = lam * wbar
    if xbar < 2.0 ** -1022 or min(w) == max(w):
        return 0.0
    reach = 0.25 * max(1.0, xbar)
    nodes, far = [], []
    for wi in w:
        d = lam * (wi - wbar)
        if abs(d) > reach:
            far.append(lam * wi)
        elif d:
            for s, c in _BREGMAN_NODES:
                z = xbar + s * d
                r = d / z
                nodes.append((z, c * (r * r)))
    gap = [_legendre_sums(1.0, nodes)[1]]
    if far:
        # where xbar and every far x are saturated, D_f depends only on x / xbar:
        # scaled by 2^-e into [32, 64), m is small and its differences keep their bits
        e = math.frexp(min(xbar, *far))[1] - 6
        if e > 0:
            xbar, far = math.ldexp(xbar, -e), [math.ldexp(x, -e) for x in far]
        gap += [_legendre_sums(1.0, [*((x, 1.0) for x in far), (xbar, -float(len(far)))])[0],
                _co_langevin_sum(1.0, [(xbar, math.fsum(x / xbar for x in far)),
                                       *((x, -1.0) for x in far)])]
    return math.fsum(gap)


class BalanceReport(NamedTuple):
    """How evenly the chain's weighted bounds are spread.

    mean, variance (population, /n) and abs_dev_sum are plain dispersion
    statistics of the weighted bounds.  s1 is the Jensen gap
    sum_i [f(w_i) - f(wbar)] of f(x) = log(sinh x / x) at unit exponent scale,
    formed as a sum of Bregman divergences (see s_lambda): 0 on equal bounds
    and > 0 on any others unless the true gap underflows.  It is the overhead
    the balance-agnostic bounds pay at lambda = 1.
    d_factor = (max w_i - wbar) / sum w_i is the dimensionless dominance of
    the largest contributor.
    """

    mean: float
    variance: float
    abs_dev_sum: float
    s1: float
    d_factor: float


def balance_report(chain: StackChain) -> BalanceReport:
    """Dispersion and dominance diagnostics of the weighted bounds."""
    w, mean = chain.weighted_bounds, chain._sums.wbar
    # summed on the deviations scaled by 2^-e, max w 2^-e in [1, 2), exactly: inf only on overflow
    e = math.frexp(max(w))[1] - 1
    scale, d = 2.0 ** e, [math.ldexp(wi - mean, -e) for wi in w]
    return BalanceReport(
        mean=mean,
        variance=math.fsum(x * x for x in d) / len(w) * scale * scale,
        abs_dev_sum=math.fsum(abs(x) for x in d) * scale,
        s1=_jensen_gap(chain, 1.0),
        d_factor=chain._sums.d,
    )
