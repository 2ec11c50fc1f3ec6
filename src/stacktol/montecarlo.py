"""Seeded Monte Carlo estimates for the uniform-sum output distribution.

Sampling fills one float64 buffer of ``draws`` values, organized in
fixed-size chunks with one independent RNG substream per (contributor,
chunk) pair, derived from the configured seed.  Chunk boundaries do not
depend on the worker count, so serial and parallel runs produce
bit-identical samples, and therefore bit-identical quantiles and
probabilities.  ``mc_quantile`` and ``mc_prob`` take |Y| in that buffer in
place, and the quantile selects only the tail order statistics it
interpolates between: the draws below the lowest of them are never sorted.

numpy is needed only here and in ``study``; it is imported on first use,
so the analytic path never loads it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .bounds import _check_rho, _check_t
from .chain import StackChain

if TYPE_CHECKING:
    import numpy as np

__all__ = ["McConfig", "McEstimate", "sample_output", "mc_quantile", "mc_prob"]

# Per-substream block length. Fixed so that the sample stream depends only
# on (seed, draws), never on the worker count.
_CHUNK = 50_000


@dataclass(frozen=True, kw_only=True)
class McConfig:
    """Sampling budget and seed. The seed is mandatory: no ambient entropy."""

    draws: int = 200_000
    seed: int

    def __post_init__(self) -> None:
        if self.draws < 1000:
            raise ValueError(f"draws must be >= 1000, got {self.draws}")
        if self.draws < 10_000:
            warnings.warn(
                f"draws={self.draws} is low for tail estimation; "
                "expect noisy quantiles below 1e4 draws",
                stacklevel=2,
            )
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


class McEstimate(NamedTuple):
    """Point estimate with its asymptotic standard error."""

    value: float
    stderr: float


def _fill_chunk(chain: StackChain, seed: int, chunk_index: int, out: np.ndarray) -> None:
    """Write one chunk of Y into ``out``: the first contributor, then each next one added."""
    import numpy as np

    for i, w in enumerate(chain.weighted_bounds):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(i, chunk_index))
        u = np.random.Generator(np.random.PCG64(ss)).uniform(-w, w, out.size)
        if i == 0:
            out[:] = u
        else:
            out += u


def sample_output(chain: StackChain, cfg: McConfig, workers: int = 1) -> np.ndarray:
    """Draw cfg.draws outputs Y = sum_i U_i, U_i uniform on [-w_i, w_i].

    Deterministic given (chain, cfg); independent of ``workers``.
    """
    import numpy as np

    y = np.empty(cfg.draws)
    chunks = list(enumerate(y[start:start + _CHUNK] for start in range(0, cfg.draws, _CHUNK)))
    if workers <= 1 or len(chunks) == 1:
        for k, out in chunks:
            _fill_chunk(chain, cfg.seed, k, out)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda ko: _fill_chunk(chain, cfg.seed, *ko), chunks))
    return y


def _quantiles(y: np.ndarray, qs: tuple[float, ...]) -> list[float]:
    """``np.quantile(y, qs, method="linear")`` bit for bit, for qs in [0, 1]; reorders ``y``.

    Each q reads the order statistics at k = floor((n-1) q) and at k + 1
    clipped to n - 1.  One selection at the lowest such k puts every larger
    order statistic in the tail above it, and one selection over that tail
    places the rest, so the draws below it are passed over once.  The values
    interpolate with numpy's rule: a + (b-a) g, or b - (b-a) (1-g) where
    g >= 0.5.
    """
    n = len(y)
    picks = []
    for q in qs:
        v = (n - 1) * q
        k = math.floor(v)
        picks.append((v, k, min(k + 1, n - 1)))
    ks = sorted({i for _, k, k1 in picks for i in (k, k1)})
    y.partition(ks[0])
    if len(ks) > 1:
        y[ks[0]:].partition([k - ks[0] for k in ks[1:]])
    out = []
    for v, k, k1 in picks:
        a, b, g = float(y[k]), float(y[k1]), v - k
        d = b - a
        out.append(b - d * (1.0 - g) if g >= 0.5 else a + d * g)
    return out


def mc_quantile(chain: StackChain, rho: float, cfg: McConfig, workers: int = 1) -> McEstimate:
    """Empirical (1-rho)-quantile of |Y| with its standard error.

    The quantile uses linear interpolation between order statistics.  The
    standard error is the binomial-quantile asymptotic
    sqrt(rho (1-rho) / N) / f_hat, with the density f_hat estimated by a
    central finite difference of the empirical quantile function over a
    window of half-width rho/2 in probability.
    """
    import numpy as np

    r = _check_rho(rho)
    y = sample_output(chain, cfg, workers=workers)
    np.abs(y, out=y)
    delta = min(r, 1.0 - r) / 2.0
    # the three quantiles lie in the top 1.5 r of the draws ((1 + r) / 2
    # where r > 1/2), the only part that is selected twice
    lo, q, hi = _quantiles(y, (1.0 - r - delta, 1.0 - r, 1.0 - r + delta))
    stderr = math.sqrt(r * (1.0 - r) / cfg.draws) * (hi - lo) / (2.0 * delta)
    return McEstimate(value=q, stderr=stderr)


def mc_prob(chain: StackChain, t: float, cfg: McConfig) -> McEstimate:
    """Empirical P(|Y| >= t) with binomial standard error sqrt(p(1-p)/N)."""
    import numpy as np

    t = _check_t(t)
    y = sample_output(chain, cfg)
    np.abs(y, out=y)
    p = float(np.mean(y >= t))
    stderr = math.sqrt(p * (1.0 - p) / cfg.draws)
    return McEstimate(value=p, stderr=stderr)
