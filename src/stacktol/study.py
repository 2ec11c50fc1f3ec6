"""Batch studies over randomly generated stack chains.

A study draws ``n_chains`` chains with half-widths uniform on
[bound_lo, bound_hi], evaluates the concentration-bound methods
(hoeffding, chernov, lipschitz, quadratic) at one confidence level,
records balance diagnostics, and optionally attaches a Monte Carlo
quantile per chain.  Everything derives from the single study
seed: chain i uses substream (0, i), its Monte Carlo run substream (1, i),
so results are reproducible row by row.  With Monte Carlo, the rows run in
a thread pool as wide as the cores the process may use: the sampling
releases the interpreter lock, and each row depends only on its chain_id,
so the rows are the same on any number of cores.  Rows without it run in
turn, since the analytic path holds the lock.  numpy, used only to draw
chains and seeds, is imported on first use.
"""

from __future__ import annotations

import math
import os
from typing import TYPE_CHECKING, NamedTuple, Optional

from .bounds import Method, _check_rho, tolerance
from .chain import StackChain, balance_report
from .montecarlo import (McConfig, _KeywordOnly, _check_count, _check_seed, _map, _stream,
                         mc_quantile)

if TYPE_CHECKING:
    import numpy as np

__all__ = ["StudySpec", "StudyRow", "random_chain", "run_study"]

_METHODS = (Method.HOEFFDING, Method.CHERNOV, Method.LIPSCHITZ, Method.QUADRATIC)


class _StudyFields(NamedTuple):
    n_inputs: int
    bound_lo: float
    bound_hi: float
    n_chains: int
    rho: float
    seed: int
    mc_cfg: Optional[McConfig]


class StudySpec(_KeywordOnly, _StudyFields):
    """Parameters of one batch study.

    ``mc_cfg`` None disables the Monte Carlo column.  When it is set, its
    seed is the base entropy from which per-chain sampling seeds are
    derived.  The fields are keyword-only; the defaults are in
    ``StudySpec._field_defaults``.
    """

    __slots__ = ()

    def __new__(cls, *, n_inputs: int = 5, bound_lo: float = 1.0, bound_hi: float = 5.0,
                n_chains: int, rho: float, seed: int,
                mc_cfg: Optional[McConfig] = None) -> "StudySpec":
        _check_count("n_inputs", n_inputs, 1)
        if not (math.isfinite(bound_lo) and math.isfinite(bound_hi) and 0.0 < bound_lo < bound_hi):
            raise ValueError(f"bounds must satisfy 0 < lo < hi, got [{bound_lo}, {bound_hi}]")
        _check_count("n_chains", n_chains, 1)
        _check_rho(rho)
        _check_seed(seed)
        return super().__new__(cls, n_inputs, bound_lo, bound_hi, n_chains, rho, seed, mc_cfg)


class StudyRow(NamedTuple):
    """One chain's diagnostics and per-method results.

    ``ts`` and ``fs`` map hoeffding, chernov, lipschitz and quadratic, in
    ``Method`` order, to the t and f of their ``ToleranceResult`` at the
    study's rho.  ``mc_t`` is None when the study ran without Monte Carlo.
    """

    chain_id: int
    s1: float
    d_factor: float
    ts: dict[Method, float]
    fs: dict[Method, float]
    mc_t: Optional[float] = None


def random_chain(n: int, lo: float, hi: float, rng: np.random.Generator) -> StackChain:
    """Chain of n contributors with half-widths i.i.d. uniform on [lo, hi]."""
    if not (0.0 < lo < hi):
        raise ValueError(f"bounds must satisfy 0 < lo < hi, got [{lo}, {hi}]")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return StackChain.from_bounds(rng.uniform(lo, hi, n))


def _mc_seed(base_seed: int, chain_id: int) -> int:
    import numpy as np

    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(1, chain_id))
    return int(ss.generate_state(2, np.uint64)[0])


def _one_row(spec: StudySpec, chain_id: int) -> StudyRow:
    chain = random_chain(
        spec.n_inputs, spec.bound_lo, spec.bound_hi, _stream(spec.seed, (0, chain_id))
    )
    rep = balance_report(chain)
    results = [tolerance(chain, m, spec.rho) for m in _METHODS]
    mc_t = None
    if spec.mc_cfg is not None:
        seed = _mc_seed(spec.mc_cfg.seed, chain_id)
        mc_t = mc_quantile(chain, spec.rho, McConfig(draws=spec.mc_cfg.draws, seed=seed)).value
    return StudyRow(
        chain_id=chain_id,
        s1=rep.s1,
        d_factor=rep.d_factor,
        ts={r.method: r.t for r in results},
        fs={r.method: r.f for r in results},
        mc_t=mc_t,
    )


def _cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_study(spec: StudySpec) -> list[StudyRow]:
    """Evaluate every chain of the study; rows ordered by chain_id.

    Each row depends only on (spec, chain_id).
    """
    # without Monte Carlo one worker: _map then runs the rows in turn and loads no pool
    workers = 1 if spec.mc_cfg is None else _cores()
    return _map(lambda i: _one_row(spec, i), range(spec.n_chains), workers)
