"""Seeded Monte Carlo estimates for the uniform-sum output distribution.

Sampling is organized in fixed-size chunks with one independent RNG
substream per (contributor, chunk) pair, derived from the configured
seed.  Chunk boundaries do not depend on the worker count, so serial and
parallel runs produce bit-identical samples, and therefore bit-identical
quantiles and probabilities.

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


def _chunk_sum(chain: StackChain, seed: int, chunk_index: int, size: int) -> np.ndarray:
    import numpy as np

    y = np.zeros(size)
    for i, w in enumerate(chain.weighted_bounds):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(i, chunk_index))
        rng = np.random.Generator(np.random.PCG64(ss))
        y += rng.uniform(-w, w, size)
    return y


def sample_output(chain: StackChain, cfg: McConfig, workers: int = 1) -> np.ndarray:
    """Draw cfg.draws outputs Y = sum_i U_i, U_i uniform on [-w_i, w_i].

    Deterministic given (chain, cfg); independent of ``workers``.
    """
    import numpy as np

    sizes = [
        min(_CHUNK, cfg.draws - start) for start in range(0, cfg.draws, _CHUNK)
    ]
    if workers <= 1 or len(sizes) == 1:
        parts = [_chunk_sum(chain, cfg.seed, k, m) for k, m in enumerate(sizes)]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(lambda km: _chunk_sum(chain, cfg.seed, km[0], km[1]), enumerate(sizes))
            )
    return np.concatenate(parts)


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
    y = np.abs(sample_output(chain, cfg, workers=workers))
    delta = min(r, 1.0 - r) / 2.0
    # one partition serves all three order statistics
    lo, q, hi = np.quantile(y, [1.0 - r - delta, 1.0 - r, 1.0 - r + delta], method="linear")
    stderr = math.sqrt(r * (1.0 - r) / cfg.draws) * float(hi - lo) / (2.0 * delta)
    return McEstimate(value=float(q), stderr=stderr)


def mc_prob(chain: StackChain, t: float, cfg: McConfig) -> McEstimate:
    """Empirical P(|Y| >= t) with binomial standard error sqrt(p(1-p)/N)."""
    import numpy as np

    t = _check_t(t)
    y = np.abs(sample_output(chain, cfg))
    p = float(np.mean(y >= t))
    stderr = math.sqrt(p * (1.0 - p) / cfg.draws)
    return McEstimate(value=p, stderr=stderr)
