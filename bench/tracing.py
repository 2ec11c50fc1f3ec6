"""Counting wrappers and spans at the package's layer boundaries.

``Tracer.install`` replaces public functions of stacktol's modules with
wrappers, in every stacktol module that holds them, so calls made through
``from .numerics import h_stable`` are seen as well.  Nothing in the
package changes; ``uninstall`` puts the originals back.

* Span targets record (name, start, end, parent) and a call count.
* Count targets (the special functions, called thousands of times per
  solve) record a call count only.
* Solver targets also count how many times the solver evaluated the
  function it was given.

Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

COUNT_TARGETS = ("numerics.h_stable", "numerics.log_sinh_over_x")
SOLVER_TARGETS = ("numerics.minimize_1d", "numerics.invert_monotone")
SPAN_TARGETS = (
    "chain.balance_report",
    "bounds.analyze_all", "bounds.tolerance", "bounds.hoeffding_t", "bounds.chernov_t",
    "bounds.lipschitz_t", "bounds.quadratic_t", "bounds.airbus_t", "bounds.chernov_prob",
    "montecarlo.sample_output", "montecarlo.mc_quantile",
    "study.run_study", "study.random_chain",
    "io.read_chain", "io.write_results",
    "cli.main",
)


class Tracer:
    """Spans and counts of one traced round.

    With ``count_calls`` false only the span targets are wrapped, so the
    spans' times are not inflated by wrappers around the special
    functions, which run thousands of times per solve.
    """

    def __init__(self, count_calls: bool = True) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter[str] = Counter()
        self.count_calls = count_calls
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _solver(self, name: str, fn):
        counts = self.counts
        evals = name + ".evals"

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            counts[name] += 1

            def counted(x):
                counts[evals] += 1
                return f(x)
            return fn(counted, *args, **kwargs)
        return wrapper

    # -- install ------------------------------------------------------------
    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "stacktol" or k.startswith("stacktol.")]
        kinds = [(self._span, SPAN_TARGETS)]
        if self.count_calls:
            kinds += [(self._count, COUNT_TARGETS), (self._solver, SOLVER_TARGETS)]
        for kind, targets in kinds:
            for target in targets:
                mod_name, attr = target.split(".")
                original = getattr(sys.modules.get(f"stacktol.{mod_name}"), attr, None)
                if original is None:
                    continue
                wrapper = kind(target, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    # -- output -------------------------------------------------------------
    def dump(self, path: Path, meta: dict, counts: Counter[str]) -> None:
        doc = {"meta": meta, "counts": dict(counts),
               "spans": [{"name": n, "start": s, "end": e, "parent": p}
                         for n, s, e, p in self.spans]}
        path.write_text(json.dumps(doc), encoding="utf-8")


def self_time(spans: list[list], idx: int) -> float:
    """A span's duration minus the time its direct children cover."""
    name, start, end, _ = spans[idx]
    children = sum(e - s for _, s, e, p in spans if p == idx)
    return (end - start) - children


def layer_time_per_root(spans: list[list], root: str, layer: str) -> list[float]:
    """For each span named ``root``, the time inside entries into ``layer``.

    An entry is a span of that layer whose parent belongs to another layer.
    """
    def layer_of(i: int) -> str:
        return spans[i][0].split(".")[0]

    out: dict[int, float] = {i: 0.0 for i, s in enumerate(spans) if s[0] == root}
    for i, (name, start, end, parent) in enumerate(spans):
        if layer_of(i) != layer or (parent >= 0 and layer_of(parent) == layer):
            continue
        p = parent
        while p >= 0 and spans[p][0] != root:
            p = spans[p][3]
        if p >= 0:
            out[p] += end - start
    return list(out.values())
