"""Noise-free cost ceilings of the benchmark's analytic workloads.

One round of ``bench/workloads.py``'s ``analyze`` and ``long_chain`` operations at
seed 7 makes a fixed number of kernel calls (``_legendre_sums``, ``_langevin_sum``,
``_co_langevin_sum``), of kernel terms (the group count summed over those calls) and of
Python-level calls inside ``analyze_all``.  These counts are deterministic, so a ceiling on them fails on
a change that adds work, where a timing would drown in the host's noise.  A call on
200 groups costs about 40 times one on 5, so on long chains the terms, not the calls,
measure the work.  The start of a many-group Chernoff root, the root of a three-bound
surrogate, is counted apart from the passes over the chain's own groups.  The builders
are imported read-only from ``bench/``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402
from stacktol import StackChain, analyze_all, bounds  # noqa: E402

SEED = 7
KERNELS = ("_legendre_sums", "_langevin_sum", "_co_langevin_sum")
# calls per round of each of KERNELS outside the start of a many-group root; the
# quantiles form no n - K', so no co-slope pass.  analyze was (529, 150, 0) when
# quadratic started its root at the Gaussian point; long_chain was (98, 36, 0) when
# its start was the curve that split off the largest bound
KERNEL_CEILINGS = {"analyze": (518, 150, 0), "long_chain": (88, 36, 0)}
# terms per round of each of KERNELS outside those starts; long_chain was 6 675 + 1 628
# when every chain started its root on one curvature shared by all its bounds, and
# 4 675 + 1 628 from the split curve
KERNEL_TERM_CEILINGS = {"analyze": (1303, 380, 0), "long_chain": (2675, 1628, 0)}
# (calls, terms) of the gap kernel inside bounds._split_start per round: the root of
# the three-bound surrogate, one call over at most 3 groups per step
START_CEILINGS = {"analyze": (0, 0), "long_chain": (33, 99)}
# Python function calls ("call" profile events) inside analyze_all per analyze round;
# 5 137 when every method formed rho's constants itself, each record was built by its
# NamedTuple's __new__ and a lambda wrapped each gap evaluation
PYTHON_CALL_CEILING = 2736


def _ops(name, tmp_path):
    return workloads.BUILDERS[name](SEED, tmp_path)


def _kernel_counts(monkeypatch, tmp_path, name):
    """({kernel: calls}, {kernel: terms}) of one round of workload ``name``.

    The calls made inside ``bounds._split_start`` are counted apart, under "start"."""
    ops = _ops(name, tmp_path)
    calls = dict.fromkeys((*KERNELS, "start"), 0)
    terms = dict.fromkeys(calls, 0)
    in_start = False

    def counted(kernel):
        original = getattr(bounds, kernel)

        def call(lam, groups):
            key = "start" if in_start else kernel
            calls[key] += 1
            terms[key] += len(groups)
            return original(lam, groups)
        return call

    def start(*args):
        nonlocal in_start
        in_start = True
        try:
            return split_start(*args)
        finally:
            in_start = False

    split_start = bounds._split_start
    for kernel in KERNELS:
        monkeypatch.setattr(bounds, kernel, counted(kernel))
    monkeypatch.setattr(bounds, "_split_start", start)
    for op in ops:
        op.call()
    return calls, terms


@pytest.mark.parametrize("name", sorted(KERNEL_CEILINGS))
def test_kernel_calls_per_round(monkeypatch, tmp_path, name):
    calls, _ = _kernel_counts(monkeypatch, tmp_path, name)
    for kernel, ceiling in zip(KERNELS, KERNEL_CEILINGS[name]):
        # a kernel with a ceiling is called at all: a spy on a name that no
        # longer does the work would count nothing and pass any ceiling
        assert 0 < calls[kernel] <= ceiling if ceiling else calls[kernel] == 0, calls


@pytest.mark.parametrize("name", sorted(KERNEL_TERM_CEILINGS))
def test_kernel_terms_per_round(monkeypatch, tmp_path, name):
    _, terms = _kernel_counts(monkeypatch, tmp_path, name)
    for kernel, ceiling in zip(KERNELS, KERNEL_TERM_CEILINGS[name]):
        assert terms[kernel] <= ceiling, terms


@pytest.mark.parametrize("name", sorted(START_CEILINGS))
def test_start_calls_and_terms_per_round(monkeypatch, tmp_path, name):
    calls, terms = _kernel_counts(monkeypatch, tmp_path, name)
    ceiling_calls, ceiling_terms = START_CEILINGS[name]
    assert calls["start"] <= ceiling_calls and terms["start"] <= ceiling_terms, (calls, terms)
    assert terms["start"] <= 3 * calls["start"]
    if ceiling_calls:  # the spy sees the start: a renamed start would count nothing
        assert calls["start"] > 0


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
