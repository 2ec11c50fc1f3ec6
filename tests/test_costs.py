"""Noise-free cost ceilings of the benchmark's analytic workloads.

One round of ``bench/workloads.py``'s ``analyze`` and ``long_chain`` operations at
seed 7 makes a fixed number of kernel calls (``_legendre_sums``, ``_langevin_sums``),
of kernel terms (the group count summed over those calls) and of Python-level calls
inside ``analyze_all``.  These counts are deterministic, so a ceiling on them fails on
a change that adds work, where a timing would drown in the host's noise.  A call on
200 groups costs about 40 times one on 5, so on long chains the terms, not the calls,
measure the work.  The builders are imported read-only from ``bench/``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402
from stacktol import StackChain, analyze_all, bounds  # noqa: E402

SEED = 7
# (_legendre_sums, _langevin_sums) calls per round
KERNEL_CEILINGS = {"analyze": (529, 150), "long_chain": (98, 36)}
# (_legendre_sums, _langevin_sums) terms per round; long_chain was 6 675 + 1 628 when
# every chain started its root on one curvature shared by all its bounds
KERNEL_TERM_CEILINGS = {"analyze": (1314, 380), "long_chain": (4675, 1628)}
# Python function calls ("call" profile events) inside analyze_all per analyze round;
# 5 137 when every method formed rho's constants itself, each record was built by its
# NamedTuple's __new__ and a lambda wrapped each gap evaluation
PYTHON_CALL_CEILING = 2758


def _ops(name, tmp_path):
    return workloads.BUILDERS[name](SEED, tmp_path)


def _kernel_counts(monkeypatch, tmp_path, name):
    """({kernel: calls}, {kernel: terms}) of one round of workload ``name``."""
    ops = _ops(name, tmp_path)
    calls = {"_legendre_sums": 0, "_langevin_sums": 0}
    terms = dict.fromkeys(calls, 0)

    def counted(kernel):
        original = getattr(bounds, kernel)

        def call(lam, groups):
            calls[kernel] += 1
            terms[kernel] += len(groups)
            return original(lam, groups)
        return call

    for kernel in calls:
        monkeypatch.setattr(bounds, kernel, counted(kernel))
    for op in ops:
        op.call()
    return calls, terms


@pytest.mark.parametrize("name", sorted(KERNEL_CEILINGS))
def test_kernel_calls_per_round(monkeypatch, tmp_path, name):
    calls, _ = _kernel_counts(monkeypatch, tmp_path, name)
    legendre, langevin = KERNEL_CEILINGS[name]
    assert calls["_legendre_sums"] <= legendre, calls
    assert calls["_langevin_sums"] <= langevin, calls


@pytest.mark.parametrize("name", sorted(KERNEL_TERM_CEILINGS))
def test_kernel_terms_per_round(monkeypatch, tmp_path, name):
    _, terms = _kernel_counts(monkeypatch, tmp_path, name)
    legendre, langevin = KERNEL_TERM_CEILINGS[name]
    assert terms["_legendre_sums"] <= legendre, terms
    assert terms["_langevin_sums"] <= langevin, terms


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
