"""Command-line front end: analyze, sweep, study, and mc subcommands.

Exit codes: 0 success, 1 numeric failure inside a solver, 2 bad input
(unreadable file, malformed value, invalid flag combination).  All
randomness is seeded explicitly; no environment variables are consulted.
"""

from __future__ import annotations

import argparse
import sys
from typing import IO, Optional, Sequence

from .bounds import _SOLVERS, ConfidenceLevel, Method, tolerance
from .io import ChainFileError, CurvePoint, read_chain, write_results
from .montecarlo import McConfig, mc_prob, mc_quantile
from .numerics import BracketError, NonFiniteError
from .study import StudySpec, run_study

__all__ = ["main", "cmd_analyze", "cmd_sweep", "cmd_study", "cmd_mc"]

DEFAULT_RHO = 0.0027  # two-sided exceedance of the 3-sigma convention

def _parse_methods(spec: Optional[str]) -> list[Method]:
    if spec is None or spec.strip().lower() == "all":
        return list(_SOLVERS)
    methods: list[Method] = []
    for token in spec.split(","):
        name = token.strip().lower()
        if not name:
            continue
        try:
            method = Method(name)
        except ValueError:
            raise ValueError(
                f"unknown method {token.strip()!r}; choose from "
                + ",".join(m.value for m in _SOLVERS)
            ) from None
        if method not in _SOLVERS:
            raise ValueError("monte carlo estimation is the separate 'mc' subcommand")
        if method not in methods:
            methods.append(method)
    if not methods:
        raise ValueError("no methods selected")
    return methods


def cmd_analyze(
    chain_file: str,
    rho: float = DEFAULT_RHO,
    methods: Optional[Sequence[Method]] = None,
    out_format: str = "table",
    out: Optional[IO[str]] = None,
) -> int:
    """Evaluate the requested methods on one chain and print the table."""
    out = out or sys.stdout
    chain = read_chain(chain_file)
    wanted = list(methods) if methods else list(_SOLVERS)
    ConfidenceLevel(rho)
    write_results([tolerance(chain, m, rho) for m in wanted], out_format, out)
    return 0


def _rho_grid(rho_min: float, rho_max: float, points: int, linear: bool) -> list[float]:
    ConfidenceLevel(rho_min)
    ConfidenceLevel(rho_max)
    if not rho_min < rho_max:
        raise ValueError(f"need rho_min < rho_max, got {rho_min} >= {rho_max}")
    if points < 2:
        raise ValueError(f"need at least 2 points, got {points}")
    if linear:
        step = (rho_max - rho_min) / (points - 1)
        return [rho_min + k * step for k in range(points)]
    ratio = rho_max / rho_min
    return [rho_min * ratio ** (k / (points - 1)) for k in range(points)]


def cmd_sweep(
    chain_file: str,
    rho_min: float,
    rho_max: float,
    points: int = 50,
    linear: bool = False,
    methods: Optional[Sequence[Method]] = None,
    out: Optional[IO[str]] = None,
) -> int:
    """Emit a CSV curve of t versus confidence level for each method."""
    out = out or sys.stdout
    chain = read_chain(chain_file)
    wanted = list(methods) if methods else list(_SOLVERS)
    grid = _rho_grid(rho_min, rho_max, points, linear)
    curve = [
        CurvePoint(rho=r, method=m, t=tolerance(chain, m, r).t)
        for r in grid
        for m in wanted
    ]
    write_results(curve, "csv", out)
    return 0


def cmd_study(spec: StudySpec, out_path: str) -> int:
    """Run a random-chain study and write its CSV to out_path."""
    rows = run_study(spec)
    write_results(rows, "csv", out_path)
    return 0


def cmd_mc(
    chain_file: str,
    cfg: McConfig,
    rho: Optional[float] = None,
    t: Optional[float] = None,
    out: Optional[IO[str]] = None,
) -> int:
    """Monte Carlo quantile (given rho) or exceedance probability (given t)."""
    out = out or sys.stdout
    if (rho is None) == (t is None):
        raise ValueError("exactly one of rho and t is required")
    chain = read_chain(chain_file)
    if rho is not None:
        est = mc_quantile(chain, rho, cfg)
        out.write(f"t_hat={est.value!r} stderr={est.stderr!r}\n")
    else:
        est = mc_prob(chain, t, cfg)
        out.write(f"p_hat={est.value!r} stderr={est.stderr!r}\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stacktol",
        description="Tolerance stack-up analysis for uniform inputs: "
        "worst case, RSS, and concentration-bound intervals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="evaluate tolerance methods on one chain file")
    p.add_argument("chain_file", help="CSV or JSON chain description")
    p.add_argument("--rho", type=float, default=DEFAULT_RHO,
                   help=f"two-sided exceedance level (default {DEFAULT_RHO})")
    p.add_argument("--methods", default="all",
                   help="comma-separated subset of wc,rss,gaussian,hoeffding,"
                        "chernov,lipschitz,quadratic,airbus (default all)")
    p.add_argument("--format", default="table", choices=["table", "csv", "json"])

    p = sub.add_parser("sweep", help="tabulate t against a confidence-level grid")
    p.add_argument("chain_file")
    p.add_argument("--rho-min", type=float, required=True)
    p.add_argument("--rho-max", type=float, required=True)
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--linear", action="store_true",
                   help="linear rho grid (default log-spaced)")
    p.add_argument("--methods", default="all")

    p = sub.add_parser("study", help="random-chain batch study, CSV output")
    p.add_argument("--n", type=int, default=5, help="contributors per chain")
    p.add_argument("--lo", type=float, default=1.0, help="half-width lower bound")
    p.add_argument("--hi", type=float, default=5.0, help="half-width upper bound")
    p.add_argument("--chains", type=int, required=True)
    p.add_argument("--rho", type=float, default=DEFAULT_RHO)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mc-draws", type=int, default=200_000,
                   help="Monte Carlo draws per chain; 0 disables the mc_t column")
    p.add_argument("-o", "--out", required=True, help="output CSV path")

    p = sub.add_parser("mc", help="seeded Monte Carlo quantile or probability")
    p.add_argument("chain_file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rho", type=float, help="estimate the (1-rho)-quantile of |Y|")
    group.add_argument("--t", type=float, help="estimate P(|Y| >= t)")
    p.add_argument("--draws", type=int, default=200_000)
    p.add_argument("--seed", type=int, required=True)

    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "analyze":
        return cmd_analyze(
            args.chain_file,
            rho=args.rho,
            methods=_parse_methods(args.methods),
            out_format=args.format,
        )
    if args.command == "sweep":
        return cmd_sweep(
            args.chain_file,
            rho_min=args.rho_min,
            rho_max=args.rho_max,
            points=args.points,
            linear=args.linear,
            methods=_parse_methods(args.methods),
        )
    if args.command == "study":
        mc_cfg = None
        if args.mc_draws > 0:
            mc_cfg = McConfig(draws=args.mc_draws, seed=args.seed)
        spec = StudySpec(
            n_inputs=args.n,
            bound_lo=args.lo,
            bound_hi=args.hi,
            n_chains=args.chains,
            rho=args.rho,
            seed=args.seed,
            mc_cfg=mc_cfg,
        )
        return cmd_study(spec, args.out)
    if args.command == "mc":
        cfg = McConfig(draws=args.draws, seed=args.seed)
        return cmd_mc(args.chain_file, cfg, rho=args.rho, t=args.t)
    raise ValueError(f"unknown command {args.command!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (BracketError, NonFiniteError, ArithmeticError) as exc:
        print(f"stacktol: numeric failure: {exc}", file=sys.stderr)
        return 1
    except (ChainFileError, OSError, ValueError) as exc:
        print(f"stacktol: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
