"""End-to-end command line checks via main(argv)."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stacktol import (
    ConvergenceError,
    McConfig,
    Method,
    NonFiniteError,
    StackChain,
    StudySpec,
    bounds,
    chernov_t,
    gaussian_l,
    hoeffding_t,
    mc_prob,
    mc_quantile,
    run_study,
    t_rss,
    t_wc,
    write_results,
)
from stacktol.cli import main
from conftest import TABLE_BOUNDS


@pytest.fixture()
def chain_csv(tmp_path):
    p = tmp_path / "chain.csv"
    rows = "\n".join(f"x{i},{w}" for i, w in enumerate(TABLE_BOUNDS, start=1))
    p.write_text("name,tolerance\n" + rows + "\n", encoding="utf-8")
    return p


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _analyze_json(capsys, path, bounds):
    path.write_text(
        "name,tolerance\n" + "".join(f"x{i},{w!r}\n" for i, w in enumerate(bounds)),
        encoding="utf-8",
    )
    code, out, err = _run(capsys, ["analyze", str(path), "--format", "json"])
    assert code == 0, err
    return {r["method"]: r["t"] for r in json.loads(out)}


class TestAnalyze:
    def test_table_output(self, capsys, chain_csv):
        code, out, err = _run(capsys, ["analyze", str(chain_csv)])
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert len(lines) == 9  # header + 8 methods
        assert lines[1].startswith("wc") and "15" in lines[1]
        assert "7.416" in lines[2]

    def test_csv_format_and_rho(self, capsys, chain_csv):
        code, out, _ = _run(
            capsys, ["analyze", str(chain_csv), "--rho", "0.05", "--format", "csv"]
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        by_method = {r["method"]: r for r in rows}
        chain = StackChain.from_bounds(TABLE_BOUNDS)
        expect = hoeffding_t(chain, 0.05)
        assert float(by_method["hoeffding"]["t"]) == expect.t
        assert float(by_method["hoeffding"]["rho"]) == 0.05

    def test_method_subset_in_request_order(self, capsys, chain_csv):
        code, out, _ = _run(
            capsys,
            ["analyze", str(chain_csv), "--methods", "chernov,wc", "--format", "csv"],
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert [r["method"] for r in rows] == ["chernov", "wc"]

    def test_all_methods_in_request_order(self, capsys, chain_csv):
        names = ["airbus", "quadratic", "lipschitz", "chernov",
                 "hoeffding", "gaussian", "rss", "wc"]
        code, out, _ = _run(
            capsys,
            ["analyze", str(chain_csv), "--methods", ",".join(names), "--format", "csv"],
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert [r["method"] for r in rows] == names

    def test_json_format(self, capsys, chain_csv):
        code, out, _ = _run(capsys, ["analyze", str(chain_csv), "--format", "json"])
        assert code == 0 and out.lstrip().startswith("[")

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_extreme_scale_is_equivariant(self, capsys, tmp_path, scale):
        base = _analyze_json(capsys, tmp_path / "base.csv", (1.0, 2.0))
        scaled = _analyze_json(capsys, tmp_path / "scaled.csv", (scale, 2.0 * scale))
        assert scaled.keys() == base.keys()
        for method, t in base.items():
            assert scaled[method] == pytest.approx(scale * t, rel=1e-9), method

    def test_bound_near_double_max_exits_0(self, capsys, tmp_path):
        # the second file's worst case, 2e308, passes the largest double
        for lines in ("x1,1e308\n", "x1,1e308\nx2,1e308\n"):
            p = tmp_path / "big.csv"
            p.write_text("name,tolerance\n" + lines, encoding="utf-8")
            code, out, err = _run(capsys, ["analyze", str(p), "--format", "json"])
            assert code == 0, err
            assert len(json.loads(out)) == 8

    def test_subnormal_chain_exits_0(self, capsys, tmp_path):
        p = tmp_path / "tiny.csv"
        p.write_text("name,tolerance\nx1,5e-324\n", encoding="utf-8")
        code, out, err = _run(capsys, ["analyze", str(p), "--rho", "0.9"])
        assert code == 0, err
        assert out.count("\n") == 9

    def test_json_is_strict_where_t_overflows(self, capsys, tmp_path):
        p = tmp_path / "big.csv"
        p.write_text("name,tolerance\nx1,1e308\n", encoding="utf-8")
        code, out, err = _run(capsys, ["analyze", str(p), "--format", "json"])
        assert code == 0, err

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        rows = {r["method"]: r for r in json.loads(out, parse_constant=reject)}
        assert rows["hoeffding"]["t"] is None  # inf has no JSON spelling
        assert rows["hoeffding"]["t_clamped"] == 1e308

    def test_default_rho_is_0027(self, capsys, chain_csv):
        _, out, _ = _run(capsys, ["analyze", str(chain_csv), "--format", "csv"])
        rows = list(csv.DictReader(out.splitlines()))
        rhos = {r["rho"] for r in rows if r["rho"]}
        assert rhos == {"0.0027"}

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, out, err = _run(capsys, ["analyze", str(tmp_path / "nope.csv")])
        assert code == 2 and out == "" and err != ""

    @pytest.mark.parametrize("rho", ["0", "1", "1.5", "-0.1"])
    def test_bad_rho_exits_2(self, capsys, chain_csv, rho):
        code, _, err = _run(capsys, ["analyze", str(chain_csv), "--rho", rho])
        assert code == 2 and err != ""

    def test_unknown_method_exits_2(self, capsys, chain_csv):
        for spec, message in (("bogus", "bogus"), (",", "no methods selected")):
            code, _, err = _run(capsys, ["analyze", str(chain_csv), "--methods", spec])
            assert code == 2 and message in err

    def test_mc_method_rejected(self, capsys, chain_csv):
        code, _, err = _run(capsys, ["analyze", str(chain_csv), "--methods", "mc"])
        assert code == 2 and "mc" in err
        assert "'mc' subcommand" in err

    def test_malformed_chain_exits_2(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("name,tolerance\na,±1\n", encoding="utf-8")
        code, _, err = _run(capsys, ["analyze", str(p)])
        assert code == 2 and "bad.csv" in err


    def test_underflowed_chain_exits_2(self, capsys, tmp_path):
        # every weighted bound 1e-200 * 1e-200 rounds to 0.0
        p = tmp_path / "under.csv"
        p.write_text("name,tolerance,influence\na,1e-200,1e-200\n", encoding="utf-8")
        for argv in (["analyze", str(p)], ["mc", str(p), "--rho", "0.05", "--seed", "1"]):
            code, out, err = _run(capsys, argv)
            assert code == 2 and out == "" and "weighted bound" in err

    def test_huge_json_integer_exits_2(self, capsys, tmp_path):
        p = tmp_path / "huge.json"
        p.write_text(json.dumps({"contributors": [{"name": "a", "tolerance": 10**400}]}),
                     encoding="utf-8")
        code, out, err = _run(capsys, ["analyze", str(p)])
        assert code == 2 and out == "" and "must be finite" in err

    def test_byte_order_mark_exits_0(self, capsys, chain_csv, tmp_path):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + chain_csv.read_bytes())
        code, out, err = _run(capsys, ["analyze", str(bom)])
        assert code == 0 and err == ""
        assert out == _run(capsys, ["analyze", str(chain_csv)])[1]

    @pytest.mark.parametrize("error", [OverflowError, ConvergenceError, NonFiniteError])
    def test_solver_failure_exits_1(self, capsys, chain_csv, monkeypatch, error):
        def fail(*args):
            raise error("solver failed")

        monkeypatch.setattr(bounds, "_gap", fail)
        code, out, err = _run(capsys, ["analyze", str(chain_csv)])
        assert code == 1 and out == ""
        assert "numeric failure" in err


class TestSweep:
    def test_grid_shape_and_ordering(self, capsys, chain_csv):
        code, out, _ = _run(
            capsys,
            ["sweep", str(chain_csv), "--rho-min", "0.001", "--rho-max", "0.1",
             "--points", "7", "--methods", "chernov,lipschitz"],
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 14  # rho-major: 7 grid points x 2 methods
        assert [r["method"] for r in rows[:2]] == ["chernov", "lipschitz"]
        rhos = sorted({float(r["rho"]) for r in rows})
        assert len(rhos) == 7
        assert rhos[0] == pytest.approx(0.001) and rhos[-1] == pytest.approx(0.1)
        # default spacing is geometric: constant ratio between grid points
        ratios = [rhos[i + 1] / rhos[i] for i in range(6)]
        assert max(ratios) == pytest.approx(min(ratios), rel=1e-9)

    def test_linear_spacing(self, capsys, chain_csv):
        code, out, _ = _run(
            capsys,
            ["sweep", str(chain_csv), "--rho-min", "0.01", "--rho-max", "0.05",
             "--points", "5", "--linear", "--methods", "wc"],
        )
        assert code == 0
        rhos = [float(r["rho"]) for r in csv.DictReader(out.splitlines())]
        assert rhos == pytest.approx([0.01, 0.02, 0.03, 0.04, 0.05])

    @pytest.mark.parametrize("rho_min, rho_max, spacing", [
        ("0.3", "0.9999999999999999", ["--linear"]),  # computed, the last point is 1.0
        ("0.01", "0.7", []),  # computed, the last point is 0.7000000000000001
    ])
    def test_grid_ends_at_rho_max(self, capsys, chain_csv, rho_min, rho_max, spacing):
        code, out, err = _run(capsys, ["sweep", str(chain_csv), "--rho-min", rho_min,
                                       "--rho-max", rho_max, "--points", "3", *spacing])
        assert code == 0, err
        rows = list(csv.DictReader(out.splitlines()))
        assert rows[0]["rho"] == rho_min and rows[-1]["rho"] == rho_max

    def test_chernov_below_relaxations_pointwise(self, capsys, chain_csv):
        code, out, _ = _run(
            capsys,
            ["sweep", str(chain_csv), "--rho-min", "0.005", "--rho-max", "0.1",
             "--points", "6", "--methods", "chernov,lipschitz,quadratic,hoeffding"],
        )
        assert code == 0
        t = {}
        for r in csv.DictReader(out.splitlines()):
            t[(float(r["rho"]), r["method"])] = float(r["t"])
        for rho in sorted({k[0] for k in t}):
            assert t[(rho, "chernov")] <= t[(rho, "quadratic")] + 1e-12
            assert t[(rho, "quadratic")] <= t[(rho, "lipschitz")] + 1e-12
            assert t[(rho, "lipschitz")] <= t[(rho, "hoeffding")] + 1e-12

    def test_t_nonincreasing_in_rho(self, capsys, chain_csv):
        _, out, _ = _run(
            capsys,
            ["sweep", str(chain_csv), "--rho-min", "0.001", "--rho-max", "0.2",
             "--points", "10", "--methods", "chernov"],
        )
        ts = [float(r["t"]) for r in csv.DictReader(out.splitlines())]
        assert all(a >= b - 1e-12 for a, b in zip(ts, ts[1:]))

    def test_bad_grid_exits_2(self, capsys, chain_csv):
        for argv in (
            ["sweep", str(chain_csv), "--rho-min", "0.1", "--rho-max", "0.01"],
            ["sweep", str(chain_csv), "--rho-min", "0", "--rho-max", "0.1"],
            ["sweep", str(chain_csv), "--rho-min", "0.01", "--rho-max", "0.1",
             "--points", "1"],
        ):
            code, _, err = _run(capsys, argv)
            assert code == 2 and err != ""


class TestStudy:
    def test_deterministic_file_bytes(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["study", "--chains", "6", "--seed", "31", "--mc-draws", "0", "-o"]
        assert main(argv + [str(out1)]) == 0
        assert main(argv + [str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_columns_and_mc_disabled(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        code = main(["study", "--chains", "3", "--seed", "7", "--mc-draws", "0",
                     "-o", str(out)])
        capsys.readouterr()
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == (
            "chain_id,s1,d_factor,hoeffding_t,hoeffding_f,chernov_t,chernov_f,"
            "lipschitz_t,lipschitz_f,quadratic_t,quadratic_f,mc_t"
        )
        assert len(lines) == 4
        assert all(line.endswith(",") for line in lines[1:])  # mc_t empty

    def test_mc_column_filled(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        code = main(["study", "--chains", "2", "--seed", "7", "--rho", "0.05",
                     "--mc-draws", "20000", "-o", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            mc_t = float(row["mc_t"])
            assert 0.0 < mc_t <= float(row["chernov_t"])

    def test_mc_below_the_tail_guard_exits_2(self, capsys, tmp_path):
        # rho N = 0.06 draws expected in the tail: refused, and no CSV written
        out = tmp_path / "s.csv"
        code, stdout, err = _run(capsys, ["study", "--chains", "2", "--seed", "1", "--rho", "1e-6",
                                          "--mc-draws", "60000", "-o", str(out)])
        assert code == 2 and stdout == ""
        assert err.startswith("stacktol: rho=1e-06 with draws=60000 expects fewer than 10 ")
        assert not out.exists()

    def test_defaults_are_the_library_defaults(self, capsys, tmp_path):
        # flags left out take StudySpec's and McConfig's defaults
        out = tmp_path / "s.csv"
        assert main(["study", "--chains", "2", "--seed", "3", "-o", str(out)]) == 0
        capsys.readouterr()
        spec = StudySpec(n_chains=2, rho=0.0027, seed=3, mc_cfg=McConfig(seed=3))
        write_results(run_study(spec), "csv", tmp_path / "lib.csv")
        assert out.read_bytes() == (tmp_path / "lib.csv").read_bytes()

    @pytest.mark.parametrize("draws", ["-3", "-1000"])
    def test_negative_draws_exits_2(self, capsys, tmp_path, draws):
        # only 0 disables Monte Carlo: a negative count is an input error
        out = tmp_path / "s.csv"
        code, stdout, err = _run(capsys, ["study", "--chains", "2", "--seed", "1",
                                          "--mc-draws", draws, "-o", str(out)])
        assert code == 2 and stdout == ""
        assert err == f"stacktol: draws must be >= 1000, got {draws}\n"
        assert not out.exists()

    def test_zero_draws_disables_mc(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        code, _, err = _run(capsys, ["study", "--chains", "2", "--seed", "1",
                                     "--mc-draws", "0", "-o", str(out)])
        assert code == 0 and err == ""
        with open(out, newline="", encoding="utf-8") as fh:
            assert [row["mc_t"] for row in csv.DictReader(fh)] == ["", ""]

    def test_bad_draws_exits_2(self, capsys, tmp_path):
        code, _, err = _run(
            capsys,
            ["study", "--chains", "2", "--seed", "7", "--mc-draws", "500",
             "-o", str(tmp_path / "s.csv")],
        )
        assert code == 2 and err != ""


class TestMc:
    def test_quantile_output_matches_library(self, capsys, chain_csv):
        argv = ["mc", str(chain_csv), "--rho", "0.05", "--draws", "50000",
                "--seed", "5"]
        code, out, _ = _run(capsys, argv)
        assert code == 0
        chain = StackChain.from_bounds(TABLE_BOUNDS)
        est = mc_quantile(chain, 0.05, McConfig(draws=50_000, seed=5))
        assert out == f"t_hat={est.value!r} stderr={est.stderr!r}\n"

    def test_prob_output_matches_library(self, capsys, chain_csv):
        code, out, _ = _run(
            capsys,
            ["mc", str(chain_csv), "--t", "9.0", "--draws", "50000", "--seed", "5"],
        )
        assert code == 0
        chain = StackChain.from_bounds(TABLE_BOUNDS)
        est = mc_prob(chain, 9.0, McConfig(draws=50_000, seed=5))
        assert out == f"p_hat={est.value!r} stderr={est.stderr!r}\n"

    def test_prob_zero_beyond_worst_case(self, capsys, chain_csv):
        code, out, err = _run(
            capsys,
            ["mc", str(chain_csv), "--t", "15.0", "--draws", "1000",
             "--seed", "1"],
        )
        assert code == 0 and out.startswith("p_hat=0.0 ")
        assert err == ""

    def test_prob_with_no_hit_exits_1(self, capsys, chain_csv):
        # the exact tail at 14.9 is 4.34e-11: no draw of 200 000 reaches it
        code, out, err = _run(capsys, ["mc", str(chain_csv), "--t", "14.9", "--seed", "1"])
        assert code == 1 and out == ""
        assert err == ("stacktol: numeric failure: no draw of 200000 reached t=14.9; "
                       "P(|Y| >= t) is below 3/draws = 1.5e-05 at 95 % confidence\n")

    def test_prob_with_every_hit_exits_1(self, capsys, chain_csv):
        # P(|Y| < 1e-6) is about 1.8e-7: every draw of 200 000 reaches t
        code, out, err = _run(capsys, ["mc", str(chain_csv), "--t", "1e-6", "--seed", "1"])
        assert code == 1 and out == ""
        assert err == ("stacktol: numeric failure: every draw of 200000 reached t=1e-06; "
                       "P(|Y| < t) is below 3/draws = 1.5e-05 at 95 % confidence\n")

    def test_prob_at_zero_is_one(self, capsys, chain_csv):
        code, out, err = _run(capsys, ["mc", str(chain_csv), "--t", "0", "--seed", "1"])
        assert (code, out, err) == (0, "p_hat=1.0 stderr=0.0\n", "")

    @pytest.mark.parametrize("argv,message", [
        (["--rho", "1e-12"], "rho=1e-12 with draws=200000 expects fewer than 10 draws in the "
                             "tail; draws >= 10000000000001 would pass"),
        (["--rho", "0.0027", "--draws", "1000"], "rho=0.0027 with draws=1000 expects fewer "
                                                  "than 10 draws in the tail; draws >= 3704 "
                                                  "would pass"),
    ], ids=["rho_1e-12", "draws_1000"])
    def test_quantile_below_the_tail_guard_exits_2(self, capsys, chain_csv, argv, message):
        code, out, err = _run(capsys, ["mc", str(chain_csv), *argv, "--seed", "1"])
        assert code == 2 and out == ""
        assert err == f"stacktol: {message}\n"

    def test_low_draws_above_the_tail_guard_print_no_warning(self, capsys, chain_csv):
        # rho N = 250: 5000 draws are enough, whatever their count alone
        code, out, err = _run(capsys, ["mc", str(chain_csv), "--draws", "5000", "--rho", "0.05",
                                       "--seed", "1"])
        assert code == 0 and err == ""
        est = mc_quantile(StackChain.from_bounds(TABLE_BOUNDS), 0.05, McConfig(draws=5000, seed=1))
        assert out == f"t_hat={est.value!r} stderr={est.stderr!r}\n"

    def test_bad_seed_at_low_draws_exits_2(self, capsys, chain_csv):
        code, out, err = _run(
            capsys, ["mc", str(chain_csv), "--rho", "0.05", "--draws", "9999", "--seed", "-1"]
        )
        assert code == 2 and out == ""
        assert err == "stacktol: seed must be a 64-bit unsigned integer, got -1\n"

    def test_repeat_runs_identical(self, capsys, chain_csv):
        argv = ["mc", str(chain_csv), "--rho", "0.0027", "--draws", "20000",
                "--seed", "11"]
        _, out1, _ = _run(capsys, argv)
        _, out2, _ = _run(capsys, argv)
        assert out1 == out2

    def test_bound_near_double_max_exits_1(self, capsys, tmp_path):
        # the sampling range 2 * 1e308 exceeds the largest double
        p = tmp_path / "big.csv"
        p.write_text("name,tolerance\nx1,1e308\n", encoding="utf-8")
        code, out, err = _run(capsys, ["mc", str(p), "--rho", "0.05", "--seed", "1"])
        assert code == 1 and out == ""
        assert "numeric failure" in err

    def test_prob_on_a_bound_near_double_max_exits_1(self, capsys, tmp_path):
        p = tmp_path / "big.csv"
        p.write_text("name,tolerance\nx1,1e308\n", encoding="utf-8")
        code, out, err = _run(capsys, ["mc", str(p), "--t", "1.0", "--seed", "1"])
        assert code == 1 and out == ""
        assert err == "stacktol: numeric failure: high - low range exceeds valid bounds\n"

    @pytest.mark.parametrize("flag,value", [("--rho", "0.0027"), ("--t", "1.0")])
    def test_sum_past_double_max_exits_1(self, capsys, tmp_path, flag, value):
        # each range 2w is finite; the sum of four draws can pass the largest double
        p = tmp_path / "big.csv"
        p.write_text("name,tolerance\n" + "".join(f"x{i},6e307\n" for i in range(4)),
                     encoding="utf-8")
        code, out, err = _run(capsys, ["mc", str(p), flag, value, "--seed", "1"])
        assert code == 1 and out == ""
        assert err == "stacktol: numeric failure: sum of the draws exceeds the largest double\n"

    def test_default_draws_are_mc_config_draws(self, capsys, chain_csv):
        code, out, _ = _run(capsys, ["mc", str(chain_csv), "--rho", "0.05", "--seed", "5"])
        assert code == 0
        est = mc_quantile(StackChain.from_bounds(TABLE_BOUNDS), 0.05, McConfig(seed=5))
        assert out == f"t_hat={est.value!r} stderr={est.stderr!r}\n"

    def test_rho_and_t_mutually_exclusive(self, capsys, chain_csv):
        with pytest.raises(SystemExit) as exc:
            main(["mc", str(chain_csv), "--rho", "0.05", "--t", "1.0",
                  "--draws", "2000", "--seed", "1"])
        assert exc.value.code == 2

    def test_one_of_rho_t_required(self, capsys, chain_csv):
        with pytest.raises(SystemExit) as exc:
            main(["mc", str(chain_csv), "--draws", "2000", "--seed", "1"])
        assert exc.value.code == 2


class TestParser:
    def test_no_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("sub", ["analyze", "sweep", "study", "mc"])
    def test_help_exits_0(self, capsys, sub):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        assert sub in capsys.readouterr().out


_LAZY_NUMPY_SCRIPT = """
import sys
from stacktol import cli
assert cli.main(["analyze", sys.argv[1], "--format", "json"]) == 0
assert cli.main(["sweep", sys.argv[1], "--rho-min", "1e-6", "--rho-max", "0.1",
                 "--points", "3"]) == 0
assert "numpy" not in sys.modules, "the analytic path loaded numpy"
assert cli.main(["mc", sys.argv[1], "--rho", "0.0027", "--seed", "1"]) == 0
assert "numpy" in sys.modules
"""


def test_analytic_path_never_loads_numpy(chain_csv):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_NUMPY_SCRIPT, str(chain_csv)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


_LAZY_MODULES_SCRIPT = """
import sys
from stacktol import cli
lazy = ("stacktol.montecarlo", "stacktol.study")
assert cli.main(["analyze", sys.argv[1]]) == 0
assert cli.main(["sweep", sys.argv[1], "--rho-min", "1e-6", "--rho-max", "0.1",
                 "--points", "3"]) == 0
loaded = [m for m in lazy if m in sys.modules]
assert not loaded, f"analyze or sweep loaded {loaded}"
assert cli.main(["mc", sys.argv[1], "--rho", "0.0027", "--draws", "10000", "--seed", "1"]) == 0
assert "stacktol.montecarlo" in sys.modules and "stacktol.study" not in sys.modules
assert cli.main(["study", "--chains", "1", "--seed", "1", "--mc-draws", "0",
                 "-o", sys.argv[2]]) == 0
assert all(m in sys.modules for m in lazy)
"""


def test_analytic_commands_never_load_monte_carlo_or_study(chain_csv, tmp_path):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_MODULES_SCRIPT, str(chain_csv), str(tmp_path / "s.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("sub,flags", [
    ("analyze", []),
    ("sweep", ["--rho-min", "1e-6", "--rho-max", "0.1", "--points", "3"]),
])
def test_module_run_never_loads_monte_carlo_or_study(chain_csv, sub, flags):
    # -X importtime lists on stderr every module that python -m stacktol.cli imports;
    # the records are NamedTuples, so neither dataclasses nor its inspect loads either
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "stacktol.cli", sub, str(chain_csv), *flags],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "stacktol.bounds" in imported
    assert not imported & {"stacktol.montecarlo", "stacktol.study"}
    assert not imported & {"dataclasses", "inspect"}


_NO_POOL_SCRIPT = """
import sys
from stacktol import cli
assert cli.main(["analyze", sys.argv[1]]) == 0
assert cli.main(["sweep", sys.argv[1], "--rho-min", "1e-6", "--rho-max", "0.1",
                 "--points", "3"]) == 0
assert "numpy" not in sys.modules, "analyze or sweep loaded numpy"
assert "concurrent.futures" not in sys.modules, "analyze or sweep loaded concurrent.futures"
assert cli.main(["study", "--chains", "3", "--rho", "0.05", "--seed", "1", "--mc-draws", "0",
                 "-o", sys.argv[2]]) == 0
assert "concurrent.futures" not in sys.modules, "a study without Monte Carlo loaded the pool"
assert cli.main(["study", "--chains", "2", "--rho", "0.05", "--seed", "1", "--mc-draws", "10000",
                 "-o", sys.argv[2]]) == 0
assert "concurrent.futures" in sys.modules
"""


def test_analytic_commands_never_load_the_pool(chain_csv, tmp_path):
    # the thread pool is for Monte Carlo rows only; numpy is loaded by the
    # study itself, to draw its chains
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_POOL_SCRIPT, str(chain_csv), str(tmp_path / "study.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
