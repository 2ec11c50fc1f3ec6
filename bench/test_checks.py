"""Each output check accepts a right answer and rejects a wrong one.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import copy
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from stacktol import McConfig, StackChain, StudySpec, analyze_all, run_study, write_results  # noqa: E402

PAPER = workloads.PAPER_CHAIN
RHO = 0.0027


@pytest.fixture
def paper_result() -> dict:
    return workloads.result_dict(analyze_all(StackChain.from_bounds(PAPER), RHO))


def test_exact_tail_matches_textbook_cases():
    # one uniform on [-2, 2]: P(|U| >= t) = 1 - t/2
    assert oracle.exact_abs_tail([2.0], 0.5) == pytest.approx(0.75, rel=1e-14)
    # two uniforms on [-1, 1]: triangular sum, P(|Y| >= t) = (2 - t)^2 / 4
    assert oracle.exact_abs_tail([1.0, 1.0], 1.2) == pytest.approx(0.16, rel=1e-14)
    # ten contributors far in the tail, where the float formula cancels
    w = workloads.CASE_CHAIN
    t = 0.9 * math.fsum(w)
    tail = oracle.exact_abs_tail(w, t)
    assert 0.0 < tail < 1e-7
    assert oracle.exact_abs_tail([s * 1e-200 for s in w], t * 1e-200) == pytest.approx(tail, rel=1e-12)


def test_closed_forms_of_the_paper_chain():
    cf = oracle.closed_forms(PAPER, RHO)
    assert cf["wc"] == 15.0
    assert cf["rss"] == pytest.approx(math.sqrt(55.0), rel=1e-15)
    assert cf["hoeffding"] == pytest.approx(3.0 * cf["gaussian"], rel=1e-15)
    assert cf["d_factor"] == pytest.approx(2.0 / 15.0, rel=1e-15)


def test_chernoff_residual_returns_rho_at_the_package_t(paper_result):
    bound, lam_t = oracle.chernoff_residual(PAPER, paper_result["chernov"]["t"])
    assert bound == pytest.approx(RHO, rel=1e-6)
    assert lam_t > 0.0


def test_right_answer_passes(paper_result):
    assert checks.check_methods(PAPER, RHO, paper_result, exact_tail=True) == []


def _mutated(result: dict, method: str, t: float) -> dict:
    bad = copy.deepcopy(result)
    r = bad[method]
    scale = t / r["t"]
    r["t"], r["t_clamped"] = t, min(t, 15.0)
    r["coverage"] *= scale
    if r["f"] is not None:
        r["f"] *= scale
    return bad


@pytest.mark.parametrize("method", ["chernov", "lipschitz", "quadratic", "hoeffding"])
def test_t_below_the_exact_quantile_is_rejected(paper_result, method):
    below = 0.999 * oracle.exact_abs_quantile(PAPER, RHO)
    errs = checks.check_methods(PAPER, RHO, _mutated(paper_result, method, below), exact_tail=True)
    assert any("under-covers" in e for e in errs)


def test_chernov_off_its_root_is_rejected(paper_result):
    t = paper_result["chernov"]["t"] * (1.0 + 1e-4)
    errs = checks.check_methods(PAPER, RHO, _mutated(paper_result, "chernov", t), exact_tail=True)
    assert any("Chernoff bound" in e for e in errs)


def test_chernov_above_a_relaxation_is_rejected(paper_result):
    t = paper_result["chernov"]["t"] * 0.99
    errs = checks.check_methods(PAPER, RHO, _mutated(paper_result, "quadratic", t), exact_tail=False)
    assert any("chernov t=" in e and "> quadratic" in e for e in errs)


@pytest.mark.parametrize("method", ["wc", "rss", "gaussian", "hoeffding", "airbus"])
def test_closed_form_mismatch_is_rejected(paper_result, method):
    t = paper_result[method]["t"] * (1.0 + 1e-9)
    errs = checks.check_methods(PAPER, RHO, _mutated(paper_result, method, t), exact_tail=False)
    assert any("closed form" in e for e in errs)


def test_hoeffding_shape_other_than_three_is_rejected(paper_result):
    bad = copy.deepcopy(paper_result)
    bad["hoeffding"]["f"] = 2.9
    assert checks.check_methods(PAPER, RHO, bad, exact_tail=False)


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    spec = StudySpec(n_chains=2, rho=RHO, seed=11, mc_cfg=McConfig(draws=200_000, seed=11))
    rows = [workloads.study_row_dict(r) for r in run_study(spec)]
    path = tmp_path_factory.mktemp("study") / "rows.csv"
    write_results(run_study(spec), "csv", path)
    weights = workloads.study_chain(spec, 0)
    from stacktol import mc_quantile

    cfg = McConfig(draws=200_000, seed=workloads.study_mc_seed(11, 0))
    est = mc_quantile(StackChain.from_bounds(weights), RHO, cfg, workers=2)
    return rows, path, weights, (est.value, est.stderr)


def test_study_row_passes_and_wrong_fields_are_rejected(study):
    rows, _, weights, mc = study
    row = rows[0]
    assert checks.check_study_row(weights, RHO, row, mc) == []
    assert checks.check_study_row(weights, RHO, {**row, "s1": -1e-3}, mc)
    assert checks.check_study_row(weights, RHO, {**row, "d_factor": row["d_factor"] + 1e-6}, mc)
    # a Monte Carlo value that differs between one and two workers
    assert checks.check_study_row(weights, RHO, {**row, "mc_t": mc[0] * (1 + 1e-12)}, mc)
    # a Monte Carlo quantile far from the exact one
    far = (mc[0] + 10.0 * mc[1], mc[1])
    assert checks.check_study_row(weights, RHO, {**row, "mc_t": far[0]}, far)


def test_study_csv_readback(study):
    rows, path, _, _ = study
    assert checks.check_csv_readback(path, rows) == []
    tampered = copy.deepcopy(rows)
    tampered[1]["ts"]["chernov"] = math.nextafter(tampered[1]["ts"]["chernov"], math.inf)
    assert checks.check_csv_readback(path, tampered)
