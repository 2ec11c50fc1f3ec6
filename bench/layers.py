"""Per-layer metrics: counts from the traced rounds and layer microbenchmarks.

Counts are exact and repeat from run to run for one seed.  Times are the
best of a few repetitions, scaled to the reference host speed like the
end-to-end latency (see hostspeed.py).
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import sys
from pathlib import Path

import hostspeed
import stacktol
import stacktol.cli
import tracing
import workloads
from stacktol import Contributor, McConfig, StackChain, StudySpec

METHODS = ("chernov_t", "lipschitz_t", "quadratic_t", "hoeffding_t")
SIZES = (1, 5, 30, 200, 1000)
MC_DRAWS = 1_000_000


def best_time(fn, reps: int, reference=hostspeed.COMPUTE) -> float:
    """Best of reps calls of fn, in seconds at the idle host speed."""
    return min(hostspeed.timed(fn, reference)[2] for _ in range(reps))


def count_metrics(c, spans, speed: float, ops) -> dict:
    """Special-function and solver counts per operation, and bounds time per operation.

    ``speed`` converts the spans' wall times to the idle host speed.
    """
    n_ops = sum(op.size for op in ops)

    def per_call(name: str) -> float:
        return c[name + ".evals"] / c[name] if c[name] else 0.0

    bounds_ms = [t * speed * 1e3 / op.size for t, op in
                 zip(tracing.layer_time_per_root(spans, "op", "bounds"), ops)]
    return {
        "numerics.h_stable.calls_per_op": (c["numerics.h_stable"] / n_ops, "count"),
        "numerics.log_sinh_over_x.calls_per_op": (c["numerics.log_sinh_over_x"] / n_ops, "count"),
        "numerics.minimize_1d.calls_per_op": (c["numerics.minimize_1d"] / n_ops, "count"),
        "numerics.minimize_1d.evals_per_call": (per_call("numerics.minimize_1d"), "count"),
        "numerics.invert_monotone.evals_per_call": (per_call("numerics.invert_monotone"), "count"),
        "bounds.analyze_all_ms": (statistics.median(bounds_ms), "ms"),
    }


def _special_functions() -> dict:
    xs = [10.0 ** (-6.0 + 8.0 * k / 1999) for k in range(2000)]
    out = {}
    for name in ("h_stable", "log_sinh_over_x"):
        f = getattr(stacktol.numerics, name)
        dt = best_time(lambda: [f(x) for x in xs], 10)
        out[f"numerics.{name}.evals_per_s"] = (len(xs) / dt, "1/s")
    return out


def _bounds(rng) -> dict:
    out = {}
    for n in SIZES:
        chain = StackChain.from_bounds(rng.uniform(1.0, 5.0, n))
        reps = 5 if n <= 30 else (2 if n <= 200 else 1)
        for m in METHODS:
            fn = getattr(stacktol.bounds, m)
            dt = best_time(lambda: fn(chain, workloads.DEFAULT_RHO), reps)
            out[f"bounds.{m}.n{n}_ms"] = (dt * 1e3, "ms")
    return out


def _chain() -> dict:
    members = [Contributor(name=f"x{i + 1}", half_width=float(w))
               for i, w in enumerate(workloads.PAPER_CHAIN)]
    chain = stacktol.build_chain(members)
    reps = 2000
    build = best_time(lambda: [stacktol.chain.build_chain(members) for _ in range(reps)], 5)
    report = best_time(lambda: [stacktol.chain.balance_report(chain) for _ in range(reps)], 5)
    return {"chain.build_ms": (build * 1e3 / reps, "ms"),
            "chain.balance_report_ms": (report * 1e3 / reps, "ms")}


def _montecarlo(seed: int) -> dict:
    chain = StackChain.from_bounds(workloads.PAPER_CHAIN)
    big = McConfig(draws=MC_DRAWS, seed=seed)
    small = McConfig(draws=workloads.STUDY_DRAWS, seed=seed)
    mc = stacktol.montecarlo
    w1 = best_time(lambda: mc.sample_output(chain, big, workers=1), 3)
    w2 = best_time(lambda: mc.sample_output(chain, big, workers=2), 3)
    q = best_time(lambda: mc.mc_quantile(chain, workloads.DEFAULT_RHO, small), 3)
    return {"montecarlo.sample_output.w1_draws_per_s": (MC_DRAWS / w1, "1/s"),
            "montecarlo.sample_output.w2_draws_per_s": (MC_DRAWS / w2, "1/s"),
            "montecarlo.mc_quantile_ms": (q * 1e3, "ms")}


def _study(seed: int):
    """run_study's own time per chain, without its calls into other layers."""
    spec = StudySpec(n_chains=workloads.STUDY_CHAINS, rho=workloads.DEFAULT_RHO, seed=seed,
                     mc_cfg=McConfig(draws=workloads.STUDY_DRAWS, seed=seed))
    best, rows = float("inf"), None
    for _ in range(3):
        tracer = tracing.Tracer(count_calls=False)
        tracer.install()
        try:
            rows, raw, dt = hostspeed.timed(lambda: stacktol.study.run_study(spec))
        finally:
            tracer.uninstall()
        root = next(i for i, s in enumerate(tracer.spans) if s[0] == "study.run_study")
        best = min(best, tracing.self_time(tracer.spans, root) * dt / raw)
    return {"study.self_ms_per_chain": (best * 1e3 / spec.n_chains, "ms")}, rows


def _io(rows, work: Path) -> dict:
    names = [f"part {i + 1}" for i in range(len(workloads.CASE_CHAIN))]
    infl = [1.0] * len(names)
    files = [work / "layers_chain.csv", work / "layers_chain.json"]
    for path in files:
        workloads.write_chain_file(path, names, workloads.CASE_CHAIN, infl)
    results = stacktol.analyze_all(StackChain.from_bounds(workloads.PAPER_CHAIN),
                                   workloads.DEFAULT_RHO)
    reps = 200
    read = best_time(lambda: [stacktol.io.read_chain(p) for p in files for _ in range(reps)], 5)

    def write():
        for _ in range(reps):
            stacktol.io.write_results(rows, "csv", work / "layers_rows.csv")
            stacktol.io.write_results(results, "json", io.StringIO())
    return {"io.read_chain_ms": (read * 1e3 / (2 * reps), "ms"),
            "io.write_results_ms": (best_time(write, 5) * 1e3 / (2 * reps), "ms")}


def _cli(root: Path, work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-c", "import stacktol"]
    imp = best_time(lambda: subprocess.run(cmd, check=True, env=env, cwd=root), 5,
                    hostspeed.STARTUP)
    path = str(work / "layers_chain.csv")

    def main():
        with contextlib.redirect_stdout(io.StringIO()):
            stacktol.cli.main(["analyze", path, "--format", "json"])
    return {"cli.import_s": (imp, "s"), "cli.main_ms": (best_time(main, 5) * 1e3, "ms")}


def microbenchmarks(seed: int, root: Path, work: Path) -> dict:
    """Layer timings on fixed inputs; the same on every workload."""
    out = _special_functions()
    out.update(_bounds(workloads.rng_for(seed, "layers")))
    out.update(_chain())
    out.update(_montecarlo(seed))
    study, rows = _study(seed)
    out.update(study)
    out.update(_io(rows, work))
    out.update(_cli(root, work))
    return out
