"""Noise-free cost ceilings of the benchmark's analytic workloads.

One round of ``bench/workloads.py``'s ``analyze`` and ``long_chain`` operations at
seed 7 makes a fixed number of kernel calls (``_legendre_sums``, ``_langevin_sums``)
and of Python-level calls inside ``analyze_all``.  Both counts are deterministic, so
a ceiling on them fails on a change that adds work, where a timing would drown in
the host's noise.  The builders are imported read-only from ``bench/``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402
from stacktol import StackChain, analyze_all, bounds  # noqa: E402

SEED = 7
# (_legendre_sums, _langevin_sums) calls per round
KERNEL_CEILINGS = {"analyze": (529, 150), "long_chain": (108, 36)}
# Python function calls ("call" profile events) inside analyze_all per analyze round;
# 5 137 when every method formed rho's constants itself, each record was built by its
# NamedTuple's __new__ and a lambda wrapped each gap evaluation
PYTHON_CALL_CEILING = 2758


def _ops(name, tmp_path):
    return workloads.BUILDERS[name](SEED, tmp_path)


@pytest.mark.parametrize("name", sorted(KERNEL_CEILINGS))
def test_kernel_calls_per_round(monkeypatch, tmp_path, name):
    ops = _ops(name, tmp_path)
    calls = {"_legendre_sums": 0, "_langevin_sums": 0}

    def counted(kernel):
        original = getattr(bounds, kernel)

        def call(lam, groups):
            calls[kernel] += 1
            return original(lam, groups)
        return call

    for kernel in calls:
        monkeypatch.setattr(bounds, kernel, counted(kernel))
    for op in ops:
        op.call()
    legendre, langevin = KERNEL_CEILINGS[name]
    assert calls["_legendre_sums"] <= legendre, calls
    assert calls["_langevin_sums"] <= langevin, calls


def test_python_calls_per_analyze_round(tmp_path):
    args = [(StackChain.from_bounds(op.data["weights"]), op.data["rho"])
            for op in _ops("analyze", tmp_path)]
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for chain, rho in args:
            analyze_all(chain, rho)
    finally:
        sys.setprofile(previous)
    assert count <= PYTHON_CALL_CEILING
