"""Benchmark for stacktol: one workload per run, result as JSON on the last line.

    python3 bench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Operations repeat in whole rounds until ``--seconds`` have
passed.  Each call's time is scaled to the idle host speed measured
around it (``hostspeed.py``), which keeps the figures steady on a host
whose speed changes from second to second (see README.md).  Outputs are
checked against ``oracle.py`` after the timed loop.  ``--trace 1``
reports the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench_out"
SETUP_PROBES = 5


def _parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["analyze", "long_chain", "study", "cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_package() -> None:
    if not (ROOT / "src" / "stacktol" / "__init__.py").is_file():
        sys.exit(f"bench: no stacktol sources under {ROOT / 'src'}; run from a source checkout")
    sys.path.insert(0, str(ROOT / "src"))


def _cli_in_process(args: list[str]) -> tuple[int, str]:
    """``stacktol.cli.main`` in this process, so the traced run sees its calls."""
    import stacktol.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = stacktol.cli.main(args)
    return code, buf.getvalue()


def _build(args, work: Path, in_process: bool = False):
    """The workload's operations; CLI calls run as subprocesses unless ``in_process``."""
    import workloads

    ops = workloads.BUILDERS[args.workload](args.seed, work)
    runner = None
    if args.workload == "cli":
        runner = _cli_in_process if in_process else workloads.CliRunner(ROOT, work)
        for op in ops:
            op.call = functools.partial(runner, op.data["args"])
            if not in_process:
                op.reference = hostspeed.STARTUP
    return ops, runner


def _setup_probe(args, work: Path) -> tuple[float, float]:
    """A fresh process that imports stacktol and builds the inputs: (wall s, scaled s)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only", str(work)]
    _, wall, scaled = hostspeed.timed(lambda: subprocess.run(cmd, check=True, cwd=ROOT),
                                      hostspeed.STARTUP)
    return wall, scaled


def _run_op(op):
    try:
        return op.call()
    except Exception as exc:  # a failed operation is counted, not fatal
        return ("raised", type(exc).__name__)


def _timed_rounds(args, ops, work: Path):
    """Whole rounds until the deadline, with setup probes spread across the run.

    Returns the rounds run, each operation's wall and scaled time in every
    round, the first round's outputs, whether later rounds repeated them,
    and the setup probes.
    """
    wall = [[] for _ in ops]
    scaled = [[] for _ in ops]
    first: list = [None] * len(ops)
    repeat_ok = True
    probes: list[tuple[float, float]] = []
    rounds = 0
    start = perf_counter()
    deadline = start + args.seconds
    while True:
        for i, op in enumerate(ops):
            out, dt, dt_scaled = hostspeed.timed(functools.partial(_run_op, op), op.reference)
            wall[i].append(dt)
            scaled[i].append(dt_scaled)
            if rounds == 0:
                first[i] = out
            elif out != first[i]:
                repeat_ok = False
            due = start + len(probes) * args.seconds / SETUP_PROBES
            if len(probes) < SETUP_PROBES and perf_counter() >= due:
                probes.append(_setup_probe(args, work))
        rounds += 1
        if perf_counter() >= deadline:
            break
    while len(probes) < SETUP_PROBES:
        probes.append(_setup_probe(args, work))
    return rounds, wall, scaled, first, repeat_ok, probes


def _check_all(args, ops, outputs, repeat_ok: bool) -> tuple[list[bool], bool]:
    """Which operations failed, and whether every failure is a known fault.

    Errors of operations not known to fail go to stderr and make the run
    incorrect, as do outputs or counts that changed between rounds.
    """
    import workloads

    failed, correct = [], repeat_ok
    for op, out in zip(ops, outputs):
        if isinstance(out, tuple) and out[:1] == ("raised",):
            errs = [f"raised {out[1]}"]
        else:
            errs = workloads.check(args.workload, op, out)
        failed.append(bool(errs))
        if errs and not workloads.is_known_fault(args.workload, op):
            correct = False
            for e in errs:
                print(f"bench: check failed: {op.name}: {e}", file=sys.stderr)
    if not repeat_ok:
        print("bench: outputs or counts differ between rounds", file=sys.stderr)
    return failed, correct


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def run_timed(args, work: Path) -> str:
    ops, runner = _build(args, work)
    rounds, wall, scaled, first, repeat_ok, probes = _timed_rounds(args, ops, work)
    if runner is not None:
        peak_kb = runner.peak_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed, correct = _check_all(args, ops, first, repeat_ok)

    # every call of every round, at the reference host speed; a study call
    # counts as one operation per chain
    ok_times = [t for ts, f in zip(scaled, failed) if not f for t in ts]
    if not ok_times:  # every call failed; the run is reported, not crashed
        ok_times = [t for ts in scaled for t in ts]
    per_round = sum(op.size for op in ops)
    failed_per_round = sum(op.size for op, f in zip(ops, failed) if f)
    ok_ops = rounds * (per_round - failed_per_round)
    busy = sum(map(sum, scaled))
    metrics = {
        "setup_s": (statistics.median(p[1] for p in probes), "s"),
        "ops_per_s": (ok_ops / busy, "1/s"),
        "latency_p50_ms": (statistics.median(ok_times) * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    wall_busy = sum(map(sum, wall))
    print(f"{args.workload}: seed={args.seed} rounds={rounds} operations/round={per_round} "
          f"failed/round={failed_per_round} calls/round={len(ops)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<16} {value:12.4f} {unit}")
    if len(ok_times) >= 40:
        p90 = statistics.quantiles(ok_times, n=10, method="inclusive")[-1]
        print(f"  {'latency_p90_ms':<16} {p90 * 1e3:12.4f} ms  "
              f"(over {len(ok_times)} calls; not gated)")
    print(f"  unscaled: ops_per_s {ok_ops / wall_busy:.4f}, "
          f"host speed {busy / wall_busy:.3f} of the reference")
    print(f"  setup probes (wall s): {' '.join(f'{p[0]:.3f}' for p in probes)}")
    print(f"  failed operations: {', '.join(op.name for op, f in zip(ops, failed) if f) or '-'}")
    return _result(correct, rounds * per_round,
                   rounds * failed_per_round, metrics)


def _traced_op(tracer, op):
    idx = tracer.open("op")
    try:
        return _run_op(op)
    finally:
        tracer.close(idx)


def run_traced(args, work: Path) -> str:
    """Rounds untraced, with spans only, and with spans and counts, in turn.

    Per-layer times come from the spans-only rounds, counts from the
    counting rounds; then the layer microbenchmarks run.
    """
    import layers
    import tracing

    ops, _ = _build(args, work, in_process=True)
    best = {"plain": math.inf, "spans": math.inf}
    first, kept = None, {}
    repeat_ok = True
    rounds = 0
    deadline = perf_counter() + args.seconds
    while True:
        plain, _, dt = hostspeed.timed(lambda: [_run_op(op) for op in ops])
        best["plain"] = min(best["plain"], dt)
        outputs = [plain]
        for mode in ("spans", "counts"):
            tracer = tracing.Tracer(count_calls=mode == "counts")
            tracer.install()
            try:
                out, raw, dt = hostspeed.timed(lambda: [_traced_op(tracer, op) for op in ops])
            finally:
                tracer.uninstall()
            outputs.append(out)
            if mode == "spans":
                best["spans"] = min(best["spans"], dt)
            kept.setdefault(mode, (tracer, dt / raw))
        first = first or plain
        repeat_ok &= all(o == first for o in outputs) and tracer.counts == kept["counts"][0].counts
        rounds += 1
        if perf_counter() >= deadline:
            break
    spans, speed = kept["spans"]
    counts = kept["counts"][0].counts
    metrics = layers.count_metrics(counts, spans.spans, speed, ops)
    metrics["trace.overhead_ratio"] = (best["spans"] / best["plain"], "ratio")
    metrics.update(layers.microbenchmarks(args.seed, ROOT, work))
    failed, correct = _check_all(args, ops, first, repeat_ok)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    spans.dump(trace_path, {"workload": args.workload, "seed": args.seed,
                            "ops": [op.name for op in ops]}, counts)
    print(f"{args.workload} traced: seed={args.seed} rounds={rounds} "
          f"spans={len(spans.spans)} -> {trace_path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:14.4f} {unit}")
    per_round = sum(op.size for op in ops)
    failed_per_round = sum(op.size for op, f in zip(ops, failed) if f)
    # each round runs every operation three times
    return _result(correct, 3 * rounds * per_round, 3 * rounds * failed_per_round, metrics)


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_package()
    if args.setup_only:
        _build(args, Path(args.setup_only))  # imports stacktol, makes the inputs
        return 0
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        if args.trace:
            line = run_traced(args, work)
        else:
            line = run_timed(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
