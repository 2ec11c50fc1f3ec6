"""The benchmark's four workloads: inputs, timed operations and their checks.

Each workload is a fixed list of operations made from the seed.  A run
repeats the whole list in rounds, one operation at a time (closed loop,
one caller).  Every operation of a workload has the same cost class, so
its latency percentiles stay within one class:

* ``analyze``    analyze_all on chains of 1 to 10 contributors;
* ``long_chain`` analyze_all on chains of 200 contributors;
* ``study``      run_study with Monte Carlo, then write_results to CSV;
* ``cli``        ``python -m stacktol.cli analyze`` as a subprocess.

Operations return plain data (floats, strings), so that repeated rounds
can be compared for equality and the checks need no stacktol objects.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import hostspeed
import stacktol
from stacktol import StackChain, analyze_all

RHOS = (0.1, 0.0027, 1e-6, 1e-12)
DEFAULT_RHO = 0.0027
PAPER_CHAIN = (5.0, 4.0, 3.0, 2.0, 1.0)
# ten-contributor industrial case: one dominant bound and a tail of small ones
CASE_CHAIN = (1.0, 0.5, 0.25, 0.23, 0.2, 0.2, 0.15, 0.13, 0.1, 0.09)
SINGLE_CHAIN = (1.0,)
PAIR_CHAIN = (1.0, 2.0)
# the 1-2 chain at both ends of the double range
EXTREME_CHAINS = ((1e-200, 2e-200), (1e200, 2e200))
# operations that a known fault in the package breaks on every run; their
# inputs do not depend on the seed (see the README for each fault)
KNOWN_FAULTS = {
    ("analyze", "single@1e-12"),
    ("analyze", "scale1e-200"),
    ("analyze", "scale1e+200"),
}
LONG_N = 200
STUDY_CALLS = 4
STUDY_CHAINS = 4
STUDY_DRAWS = 200_000
CLI_FILES = 8


@dataclass
class Op:
    """One timed operation; ``size`` is how many operations it counts as.

    ``reference`` is the host-speed reference its time is scaled by
    (hostspeed.STARTUP for a new process).
    """

    name: str
    call: Callable[[], object]
    data: dict
    size: int = 1
    reference: tuple = hostspeed.COMPUTE


def rng_for(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(workload.encode())])


def _loguniform_chain(rng: np.random.Generator, n: int) -> tuple[float, ...]:
    """n weights log-uniform over a spread of 1 to 1e3, at a scale of 1e-3 to 1e3."""
    spread = 10.0 ** rng.uniform(0.0, 3.0)
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    return tuple(float(scale * spread ** u) for u in rng.uniform(0.0, 1.0, n))


def result_dict(results) -> dict:
    """ToleranceResult list -> {method: {t, t_clamped, f, coverage, rho}}."""
    return {
        r.method.value: {"t": r.t, "t_clamped": r.t_clamped, "f": r.f,
                         "coverage": r.coverage, "rho": r.rho}
        for r in results
    }


def _analyze_op(name: str, weights: tuple[float, ...], rho: float) -> Op:
    chain = StackChain.from_bounds(weights)
    return Op(name, lambda: result_dict(analyze_all(chain, rho)),
              {"weights": weights, "rho": rho})


def build_analyze(seed: int, work: Path) -> list[Op]:
    rng = rng_for(seed, "analyze")
    chains = {"paper": PAPER_CHAIN, "case": CASE_CHAIN, "single": SINGLE_CHAIN,
              "pair": PAIR_CHAIN}
    for n in range(3, 11):
        chains[f"seeded_n{n}"] = _loguniform_chain(rng, n)
    ops = [_analyze_op(f"{k}@{rho:g}", w, rho) for k, w in chains.items() for rho in RHOS]
    ops += [_analyze_op(f"scale{w[0]:g}", w, DEFAULT_RHO) for w in EXTREME_CHAINS]
    return ops


def build_long_chain(seed: int, work: Path) -> list[Op]:
    rng = rng_for(seed, "long_chain")
    balanced = (float(10.0 ** rng.uniform(-2.0, 2.0)),) * LONG_N
    uniform = tuple(float(x) for x in rng.uniform(1.0, 5.0, LONG_N))
    dominant = (50.0,) + tuple(float(x) for x in rng.uniform(0.5, 1.5, LONG_N - 1))
    chains = {"balanced": balanced, "uniform": uniform, "dominant": dominant}
    return [_analyze_op(f"{k}@{rho:g}", w, rho) for k, w in chains.items() for rho in RHOS]


def study_row_dict(row) -> dict:
    return {"chain_id": row.chain_id, "s1": row.s1, "d_factor": row.d_factor,
            "ts": {m.value: v for m, v in row.ts.items()},
            "fs": {m.value: v for m, v in row.fs.items()}, "mc_t": row.mc_t}


def build_study(seed: int, work: Path) -> list[Op]:
    rng = rng_for(seed, "study")
    ops = []
    for k in range(STUDY_CALLS):
        study_seed = int(rng.integers(0, 2**63))
        spec = stacktol.StudySpec(
            n_inputs=5, bound_lo=1.0, bound_hi=5.0, n_chains=STUDY_CHAINS, rho=DEFAULT_RHO,
            seed=study_seed, mc_cfg=stacktol.McConfig(draws=STUDY_DRAWS, seed=study_seed),
        )
        path = work / f"study{k}.csv"

        def call(spec=spec, path=path):
            rows = stacktol.run_study(spec)
            stacktol.write_results(rows, "csv", path)
            return [study_row_dict(r) for r in rows]

        ops.append(Op(f"study{k}", call, {"spec": spec, "path": path}, size=STUDY_CHAINS))
    return ops


def write_chain_file(path: Path, names, tols, infls) -> None:
    if path.suffix == ".csv":
        lines = ["name,tolerance,influence"]
        lines += [f"{a},{t!r},{i!r}" for a, t, i in zip(names, tols, infls)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        doc = {"contributors": [{"name": a, "tolerance": t, "influence": i}
                                for a, t, i in zip(names, tols, infls)]}
        path.write_text(json.dumps(doc), encoding="utf-8")


class CliRunner:
    """Runs ``python -m stacktol.cli`` and keeps each child's peak RSS."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.err = work / "cli.stderr"
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.peak_rss_kb = 0

    def __call__(self, args: list[str]) -> tuple[int, str]:
        with open(self.err, "w", encoding="utf-8") as err:
            proc = subprocess.Popen([sys.executable, "-m", "stacktol.cli", *args],
                                    stdout=subprocess.PIPE, stderr=err, cwd=self.root,
                                    env=self.env, text=True)
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, out


def build_cli(seed: int, work: Path) -> list[Op]:
    """Chain files of 2 to 9 contributors with signed influences, CSV and JSON in turn.

    The caller binds each operation to a runner for ``data["args"]``.
    """
    rng = rng_for(seed, "cli")
    ops = []
    for k in range(CLI_FILES):
        n = 2 + k
        tols = tuple(float(x) for x in rng.uniform(0.05, 2.0, n))
        infls = tuple(float(x) for x in rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n))
        names = [f"part {i + 1}" for i in range(n)]
        path = work / f"chain{k}.{'csv' if k % 2 == 0 else 'json'}"
        write_chain_file(path, names, tols, infls)
        weights = tuple(abs(i) * t for t, i in zip(tols, infls))
        args = ["analyze", str(path), "--format", "json"]
        ops.append(Op(path.name, None, {"weights": weights, "rho": DEFAULT_RHO, "args": args}))
    return ops


BUILDERS = {
    "analyze": build_analyze,
    "long_chain": build_long_chain,
    "study": build_study,
    "cli": build_cli,
}


# ---------------------------------------------------------------- checks


def study_chain(spec, chain_id: int) -> tuple[float, ...]:
    """Chain ``chain_id`` of a study: substream (0, chain_id) of the study seed."""
    ss = np.random.SeedSequence(entropy=spec.seed, spawn_key=(0, chain_id))
    widths = np.random.Generator(np.random.PCG64(ss)).uniform(
        spec.bound_lo, spec.bound_hi, spec.n_inputs)
    return tuple(float(w) for w in widths)


def study_mc_seed(base: int, chain_id: int) -> int:
    """Monte Carlo seed of a study chain: substream (1, chain_id) of the base seed."""
    ss = np.random.SeedSequence(entropy=base, spawn_key=(1, chain_id))
    return int(ss.generate_state(2, np.uint64)[0])


def check(workload: str, op: Op, out) -> list[str]:
    """Errors in one operation's output; empty when it is right."""
    import checks

    if workload in ("analyze", "long_chain"):
        d = op.data
        return checks.check_methods(d["weights"], d["rho"], out, exact_tail=len(d["weights"]) <= 10)
    if workload == "cli":
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        res = {r["method"]: r for r in json.loads(text)}
        return checks.check_methods(op.data["weights"], op.data["rho"], res, exact_tail=True)
    if workload == "study":
        spec = op.data["spec"]
        errs = checks.check_csv_readback(op.data["path"], out)
        if [r["chain_id"] for r in out] != list(range(spec.n_chains)):
            errs.append("rows are not ordered by chain_id")
        for row in out:
            weights = study_chain(spec, row["chain_id"])
            cfg = stacktol.McConfig(draws=spec.mc_cfg.draws,
                                    seed=study_mc_seed(spec.mc_cfg.seed, row["chain_id"]))
            est = stacktol.mc_quantile(StackChain.from_bounds(weights), spec.rho, cfg, workers=2)
            errs += [f"chain {row['chain_id']}: {e}" for e in
                     checks.check_study_row(weights, spec.rho, row, (est.value, est.stderr))]
        return errs
    raise ValueError(workload)


def is_known_fault(workload: str, op: Op) -> bool:
    return (workload, op.name) in KNOWN_FAULTS

