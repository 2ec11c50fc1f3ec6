"""Output checks: each returns a list of error strings, empty when the output holds.

The checks compare plain numbers with the oracle and with properties the
method must have; they take no stacktol objects, so the same code checks
in-process results, parsed CLI JSON and study CSV rows.  A method result
is a dict with the keys ``t``, ``t_clamped``, ``f``, ``coverage`` and
``rho`` of the package's ToleranceResult.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Mapping, Sequence

import oracle

GUARANTEED = ("wc", "hoeffding", "chernov", "lipschitz", "quadratic")
RHO_FREE = ("wc", "rss", "airbus")
CLOSED_FORM = ("wc", "rss", "gaussian", "hoeffding", "airbus")
# the solvers stop at 1e-9 relative in t; domination ties are within that
DOMINATION_SLACK = 1e-8
CLOSED_FORM_REL = 1e-11
# a relative error of 1e-8 in t is allowed on top of the residual floor
RESIDUAL_FLOOR = 1e-6
RESIDUAL_T_REL = 1e-8
# Monte Carlo quantile window around the exact quantile, in standard errors
MC_SIGMAS = 6.0


def _rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_methods(
    weights: Sequence[float], rho: float, res: Mapping[str, Mapping], exact_tail: bool
) -> list[str]:
    """Check an analyze_all-style result set of one chain at one rho.

    ``exact_tail`` turns on the inclusion-exclusion coverage check, which
    is exponential in n and meant for n <= 10.
    """
    errs: list[str] = []
    cf = oracle.closed_forms(weights, rho)
    for m, r in res.items():
        t = r["t"]
        if not math.isfinite(t) or t <= 0.0:
            errs.append(f"{m}: t={t!r} is not finite and positive")
            continue
        if not _rel_close(r["t_clamped"], min(t, cf["wc"]), CLOSED_FORM_REL):
            errs.append(f"{m}: t_clamped={r['t_clamped']!r} != min(t, wc)")
        if not _rel_close(r["coverage"], t / cf["rss"], CLOSED_FORM_REL):
            errs.append(f"{m}: coverage={r['coverage']!r} != t / rss")
        if m in RHO_FREE:
            if r["f"] is not None or r["rho"] is not None:
                errs.append(f"{m}: a rho-free method reports f={r['f']!r}, rho={r['rho']!r}")
        elif r["rho"] != rho or not _rel_close(r["f"], t / (cf["l_rho"] * cf["rss"]),
                                               CLOSED_FORM_REL):
            errs.append(f"{m}: f={r['f']!r} or rho={r['rho']!r} inconsistent with t")
        if m in CLOSED_FORM and not _rel_close(t, cf[m], CLOSED_FORM_REL):
            errs.append(f"{m}: t={t!r} but the closed form gives {cf[m]!r}")
        if exact_tail and m in GUARANTEED:
            tail = oracle.exact_abs_tail(weights, t)
            if tail > rho * (1.0 + 1e-9):
                errs.append(f"{m}: under-covers, exact P(|Y| >= {t!r}) = {tail!r} > rho={rho!r}")
    if errs:
        return errs
    if "hoeffding" in res and not _rel_close(res["hoeffding"]["f"], 3.0, CLOSED_FORM_REL):
        errs.append(f"hoeffding: f={res['hoeffding']['f']!r} != 3")
    if "chernov" in res:
        tc = res["chernov"]["t"]
        for m in ("lipschitz", "quadratic", "hoeffding"):
            if m in res and tc > res[m]["t"] * (1.0 + DOMINATION_SLACK):
                errs.append(f"chernov t={tc!r} > {m} t={res[m]['t']!r}")
        if not tc < cf["wc"]:
            errs.append(f"chernov t={tc!r} is not below wc={cf['wc']!r}")
        bound, lam_t = oracle.chernoff_residual(weights, tc)
        allowed = RESIDUAL_FLOOR + RESIDUAL_T_REL * lam_t
        if bound <= 0.0 or abs(math.log(bound / rho)) > allowed:
            errs.append(f"chernov: the Chernoff bound at t={tc!r} is {bound!r}, not rho={rho!r}")
    return errs


def check_study_row(
    weights: Sequence[float], rho: float, row: Mapping, mc: tuple[float, float] | None,
) -> list[str]:
    """Check one study row: balance fields, each method's t and f, the MC column.

    ``row`` holds ``s1``, ``d_factor``, ``ts``/``fs`` (method name -> value)
    and ``mc_t``; ``mc`` is the same chain's Monte Carlo estimate at two
    workers as (value, stderr), or None for a study without Monte Carlo.
    """
    cf = oracle.closed_forms(weights, rho)
    errs: list[str] = []
    if row["s1"] < 0.0:
        errs.append(f"s1={row['s1']!r} < 0")
    if abs(row["s1"] - cf["s1"]) > 1e-9 * max(1.0, abs(cf["s1"])):
        errs.append(f"s1={row['s1']!r} but the closed form gives {cf['s1']!r}")
    if abs(row["d_factor"] - cf["d_factor"]) > 1e-12:
        errs.append(f"d_factor={row['d_factor']!r} but the closed form gives {cf['d_factor']!r}")
    scale = cf["l_rho"] * cf["rss"]
    res = {}
    for m, t in row["ts"].items():
        res[m] = {"t": t, "t_clamped": min(t, cf["wc"]), "f": row["fs"][m],
                  "coverage": t / cf["rss"], "rho": None if m in RHO_FREE else rho}
        if not _rel_close(row["fs"][m], t / scale, CLOSED_FORM_REL):
            errs.append(f"{m}: f={row['fs'][m]!r} != t / (l_rho rss)")
        if m in RHO_FREE:
            res[m]["f"] = None
    errs += check_methods(weights, rho, res, exact_tail=len(weights) <= 10)
    if (mc is None) != (row["mc_t"] is None):
        errs.append(f"mc_t={row['mc_t']!r} but the study's Monte Carlo setting says otherwise")
    elif mc is not None:
        value, stderr = mc
        if row["mc_t"] != value:
            errs.append(f"mc_t={row['mc_t']!r} at one worker, {value!r} at two")
        exact = oracle.exact_abs_quantile(weights, rho)
        if not oracle.mc_within(value, exact, stderr, MC_SIGMAS):
            errs.append(f"mc_t={value!r} is more than {MC_SIGMAS} stderr ({stderr!r}) "
                        f"from the exact quantile {exact!r}")
    return errs


def check_csv_readback(path: Path, rows: Sequence[Mapping]) -> list[str]:
    """The study CSV reads back equal to the in-memory rows."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = list(csv.reader(fh))
    header, body = lines[0], lines[1:]
    if len(body) != len(rows):
        return [f"{path.name}: {len(body)} data lines for {len(rows)} rows"]
    errs = []
    for cells, row in zip(body, rows):
        expect = {"chain_id": str(row["chain_id"]), "s1": row["s1"], "d_factor": row["d_factor"],
                  "mc_t": row["mc_t"]}
        for m in row["ts"]:
            expect[f"{m}_t"] = row["ts"][m]
            expect[f"{m}_f"] = row["fs"][m]
        got = dict(zip(header, cells))
        if set(got) != set(expect):
            errs.append(f"{path.name}: columns {sorted(got)} != {sorted(expect)}")
            continue
        for k, v in expect.items():
            if k == "chain_id":
                ok = got[k] == v
            elif v is None:
                ok = got[k] == ""
            else:
                ok = float(got[k]) == v
            if not ok:
                errs.append(f"{path.name}: row {row['chain_id']} {k}={got[k]!r}, in memory {v!r}")
    return errs
