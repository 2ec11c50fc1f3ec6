"""Seeded Monte Carlo estimates for the uniform-sum output distribution.

The draws come in fixed-size chunks with one independent RNG substream
per (contributor, chunk) pair, derived from the configured seed.  Chunk
boundaries do not depend on the worker count, so serial and parallel runs
produce bit-identical samples, and therefore bit-identical quantiles and
probabilities.  Each substream is drawn in place by ``Generator.random``
and scaled and shifted as ``Generator.uniform`` would do it: the first
contributor's into the chunk, each next one's into one chunk-sized scratch
that a share of chunks allocates once, so no contributor allocates a
temporary of its own.  ``sample_output`` fills one float64 buffer of
``draws`` values.  ``mc_quantile`` and ``mc_prob`` hold no such buffer:
they take |Y| chunk by chunk.  ``mc_prob`` counts the hits in each chunk;
``mc_quantile`` keeps only the draws from the lowest order statistic it
reads upwards, each worker in its own region of one buffer, and selects
among those.

``mc_quantile`` refuses a run that expects fewer than ``_MIN_TAIL`` draws in
the tail, and ``mc_prob`` one where none or all of its draws reach 0 < t < wc.

numpy is needed only here and in ``study``; it is imported on first use,
so the analytic path never loads it.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .bounds import _check_rho, _check_t
from .chain import StackChain, t_wc

if TYPE_CHECKING:
    import numpy as np

__all__ = ["McConfig", "McEstimate", "sample_output", "mc_quantile", "mc_prob"]

# Per-substream block length. Fixed so that the sample stream depends only
# on (seed, draws), never on the worker count.
_CHUNK = 50_000

# The least min(rho, 1-rho) N, the draws expected in the tail, that mc_quantile
# takes: over 60 seeds on (5, 4, 3, 2, 1), 0.92 of its estimates lie within 2
# stderrs of the exact quantile at 10 (the worst 3.2 off), only 0.80 at 2 (6.5).
_MIN_TAIL = 10


def _check_seed(seed: int) -> None:
    """Reject a seed that is not an integer in [0, 2**64); numpy's integer types pass."""
    try:
        ok = 0 <= operator.index(seed) < 2**64
    except TypeError:  # a float, a string, ...: SeedSequence would reject it at the first draw
        ok = False
    if not ok:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")


def _check_count(name: str, value: int, least: int) -> None:
    """Reject a count that is not an integer >= least; numpy's integer types pass."""
    try:
        operator.index(value)
    except TypeError:  # a float, a string, ...: range or numpy would reject it at first use
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


class _KeywordOnly:
    """Mixin for a NamedTuple whose validating ``__new__`` takes keywords only.

    ``_make``, and so ``_replace``, build through that ``__new__``, so they
    validate too; pickle and copy, which would pass ``__new__`` positional
    arguments, rebuild an accepted record with ``tuple.__new__``; and
    ``_field_defaults`` holds ``__new__``'s defaults.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._field_defaults = dict(cls.__new__.__kwdefaults__)

    @classmethod
    def _make(cls, iterable: Iterable):
        return cls(**dict(zip(cls._fields, iterable, strict=True)))

    def __reduce__(self) -> tuple:
        return tuple.__new__, (type(self), tuple(self))


class _McFields(NamedTuple):
    draws: int
    seed: int


class McConfig(_KeywordOnly, _McFields):
    """Sampling budget and seed. The seed is mandatory: no ambient entropy.

    The fields are keyword-only; the default of ``draws`` is in
    ``McConfig._field_defaults``.
    """

    __slots__ = ()

    def __new__(cls, *, draws: int = 200_000, seed: int) -> "McConfig":
        _check_count("draws", draws, 1000)
        _check_seed(seed)
        return super().__new__(cls, draws, seed)


class McEstimate(NamedTuple):
    """Point estimate with its asymptotic standard error."""

    value: float
    stderr: float


def _stream(seed: int, key: tuple[int, ...]) -> np.random.Generator:
    """The PCG64 generator of substream ``key`` of ``seed``, from numpy's SeedSequence."""
    import numpy as np

    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def _fill_chunk(chain: StackChain, seed: int, chunk_index: int, out: np.ndarray,
                scratch: np.ndarray) -> None:
    """Write one chunk of Y into ``out``: the first contributor, then each next one added.

    Each (contributor, chunk) substream is drawn in place by
    ``Generator.random``: the first contributor's straight into ``out``, each
    next one's into ``scratch`` (at least as long), which is then added in.
    A draw U becomes -w + (w - -w) U, scaled then shifted in place, which is
    how ``Generator.uniform(-w, w)`` forms each value from the same stream,
    so the sample keeps its bits, and a range past the largest double
    raises the ``OverflowError`` that it raises.  A sum past the largest
    double raises ``OverflowError`` too, where it would be inf.
    """
    import numpy as np

    with np.errstate(over="raise"):
        for i, w in enumerate(chain.weighted_bounds):
            span = w - -w
            if not math.isfinite(span):
                raise OverflowError("high - low range exceeds valid bounds")
            u = out if i == 0 else scratch[:out.size]
            _stream(seed, (i, chunk_index)).random(out=u)
            u *= span
            u += -w
            if i > 0:
                try:
                    out += u
                except FloatingPointError:
                    raise OverflowError("sum of the draws exceeds the largest double") from None


def _map(fn, items, workers: int) -> list:
    """``[fn(x) for x in items]``, on up to ``workers`` threads; loads the pool only to use it."""
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


def _chunks(draws: int) -> list[tuple[int, int]]:
    """(index, length) of each chunk of a run of ``draws``."""
    return [(k, min(_CHUNK, draws - start)) for k, start in enumerate(range(0, draws, _CHUNK))]


def sample_output(chain: StackChain, cfg: McConfig, workers: int = 1) -> np.ndarray:
    """Draw cfg.draws outputs Y = sum_i U_i, U_i uniform on [-w_i, w_i].

    Deterministic given (chain, cfg); independent of ``workers``.
    """
    import numpy as np

    y = np.empty(cfg.draws)
    slices = [y[start:start + _CHUNK] for start in range(0, cfg.draws, _CHUNK)]
    _map(lambda k: _fill_chunk(chain, cfg.seed, k, slices[k], np.empty(len(slices[k]))),
         range(len(slices)), workers)
    return y


def _tail(chain: StackChain, seed: int, share: list[tuple[int, int]], keep: int,
          buf: np.ndarray) -> int:
    """Keep the largest ``keep`` or more of |Y| over ``share``'s chunks at the front of ``buf``.

    Returns how many are kept, in no order.  Each chunk is drawn after the
    values kept so far.  When the next one would not fit, a selection moves
    the ``keep`` largest to the front and the rest is overwritten.  With
    room for ``2 keep + _CHUNK`` values, at least max(keep, _CHUNK) are
    drawn between two selections over at most that room, so the selections
    stay linear in the draws whatever ``keep``.
    """
    import numpy as np

    scratch = np.empty(max(n for _, n in share))
    m = 0
    for k, n in share:
        if m + n > len(buf):
            buf[:m].partition(m - keep)
            buf[:keep] = buf[m - keep:m]
            m = keep
        out = buf[m:m + n]
        _fill_chunk(chain, seed, k, out, scratch)
        np.abs(out, out=out)
        m += n
    return m


def _quantiles(tail: np.ndarray, n: int, qs: tuple[float, ...]) -> list[float]:
    """``np.quantile(y, qs, method="linear")`` bit for bit, for qs in [0, 1]; reorders ``tail``.

    Each q reads the order statistics at k = floor((n-1) q) and at k + 1
    clipped to n - 1.  ``tail`` holds the n - k largest of the ``n`` values
    of ``y`` for the lowest such k, with any of the others: each order
    statistic is n - k from the top, so at k - (n - len(tail)) in the sorted
    tail.  One selection at the lowest k puts every larger order statistic
    above it, and one selection over the rest places them, so the values
    below it are passed over once.  The values interpolate with numpy's
    rule: a + (b-a) g, or b - (b-a) (1-g) where g >= 0.5.
    """
    skip = n - len(tail)
    picks = []
    for q in qs:
        v = (n - 1) * q
        k = math.floor(v)
        picks.append((v, k, min(k + 1, n - 1)))
    ks = sorted({i - skip for _, k, k1 in picks for i in (k, k1)})
    tail.partition(ks[0])
    if len(ks) > 1:
        tail[ks[0]:].partition([k - ks[0] for k in ks[1:]])
    out = []
    for v, k, k1 in picks:
        a, b, g = float(tail[k - skip]), float(tail[k1 - skip]), v - k
        d = b - a
        out.append(b - d * (1.0 - g) if g >= 0.5 else a + d * g)
    return out


def mc_quantile(chain: StackChain, rho: float, cfg: McConfig, workers: int = 1) -> McEstimate:
    """Empirical (1-rho)-quantile of |Y| with its standard error.

    The quantile uses linear interpolation between order statistics.  The
    standard error is the binomial-quantile asymptotic
    sqrt(rho (1-rho) / N) / f_hat, with the density f_hat estimated by a
    central finite difference of the empirical quantile function over a
    window of half-width rho/2 in probability.  Before any draw, raises
    ``ValueError`` where min(rho, 1-rho) N, the expected number of draws in
    the tail, is below ``_MIN_TAIL``.
    """
    r, n, seed = _check_rho(rho), cfg.draws, cfg.seed
    least = min(r, 1.0 - r)
    need = -(-_MIN_TAIL // least)  # the least N with least N >= _MIN_TAIL; inf past the doubles
    if n < need:
        raise ValueError(f"rho={r!r} with draws={n} expects fewer than {_MIN_TAIL} draws "
                         f"in the tail; draws >= {need:.15g} would pass")
    import numpy as np

    delta = least / 2.0
    qs = (1.0 - r - delta, 1.0 - r, 1.0 - r + delta)
    # only the draws from the lowest order statistic read upwards are kept:
    # the top 1.5 r of them ((1 + r) / 2 where r > 1/2)
    keep = n - math.floor((n - 1) * qs[0])
    chunks = _chunks(n)
    w = max(1, min(workers, len(chunks)))
    shares = [chunks[i::w] for i in range(w)]
    # one buffer with a region per share, room for all its draws or for
    # 2 keep + _CHUNK; each region's kept values are then moved down behind
    # the previous ones (a forward copy, in place)
    starts = [0]
    for share in shares:
        starts.append(starts[-1] + min(sum(c for _, c in share), 2 * keep + _CHUNK))
    buf = np.empty(starts[-1])
    kept = _map(lambda i: _tail(chain, seed, shares[i], keep, buf[starts[i]:starts[i + 1]]),
                range(w), w)
    m = 0
    for start, k in zip(starts, kept):
        buf[m:m + k] = buf[start:start + k]
        m += k
    lo, q, hi = _quantiles(buf[:m], n, qs)
    stderr = math.sqrt(r * (1.0 - r) / n) * (hi - lo) / (2.0 * delta)
    return McEstimate(value=q, stderr=stderr)


def mc_prob(chain: StackChain, t: float, cfg: McConfig) -> McEstimate:
    """Empirical P(|Y| >= t) with binomial standard error sqrt(p(1-p)/N).

    Returns 0, with no draw, for t at or past the worst case, and 1 at t = 0.
    Raises ``ArithmeticError`` where none or all of the draws reach t between:
    P(|Y| >= t), or P(|Y| < t), is then only known to lie under 3/N at 95 %.
    """
    t = _check_t(t)
    if t >= t_wc(chain) or t == 0.0:
        return McEstimate(value=0.0 if t else 1.0, stderr=0.0)
    import numpy as np

    buf = np.empty(min(cfg.draws, _CHUNK))
    scratch = np.empty_like(buf)
    hits = 0
    for k, n in _chunks(cfg.draws):
        y = buf[:n]
        _fill_chunk(chain, cfg.seed, k, y, scratch)
        np.abs(y, out=y)
        hits += int(np.count_nonzero(y >= t))
    if hits in (0, cfg.draws):
        which, event = ("no", "|Y| >= t") if not hits else ("every", "|Y| < t")
        raise ArithmeticError(f"{which} draw of {cfg.draws} reached t={t!r}; P({event}) is below "
                              f"3/draws = {3 / cfg.draws:.3g} at 95 % confidence")
    p = hits / cfg.draws
    stderr = math.sqrt(p * (1.0 - p) / cfg.draws)
    return McEstimate(value=p, stderr=stderr)
