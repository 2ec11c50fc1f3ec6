"""Command-line front end: analyze, sweep, study, and mc subcommands.

Exit codes: 0 success, 1 numeric failure inside a solver, 2 bad input
(unreadable file, malformed value, invalid flag combination).  All
randomness is seeded explicitly; no environment variables are consulted.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .bounds import _SOLVERS, ConfidenceLevel, Method, tolerance
from .io import CurvePoint, read_chain, write_results
from .montecarlo import McConfig, mc_prob, mc_quantile
from .numerics import BracketError
from .study import StudySpec, run_study

__all__ = ["main"]

DEFAULT_RHO = 0.0027  # two-sided exceedance of the 3-sigma convention
_METHOD_NAMES = ",".join(m.value for m in _SOLVERS)

def _parse_methods(spec: str) -> list[Method]:
    if spec.strip().lower() == "all":
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
                f"unknown method {token.strip()!r}; choose from {_METHOD_NAMES}"
            ) from None
        if method not in _SOLVERS:
            raise ValueError("monte carlo estimation is the separate 'mc' subcommand")
        if method not in methods:
            methods.append(method)
    if not methods:
        raise ValueError("no methods selected")
    return methods


def cmd_analyze(args: argparse.Namespace) -> None:
    """Evaluate the requested methods on one chain and print the table."""
    methods = _parse_methods(args.methods)
    chain = read_chain(args.chain_file)
    ConfidenceLevel(args.rho)
    write_results([tolerance(chain, m, args.rho) for m in methods], args.format, sys.stdout)


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


def cmd_sweep(args: argparse.Namespace) -> None:
    """Emit a CSV curve of t versus confidence level for each method."""
    methods = _parse_methods(args.methods)
    chain = read_chain(args.chain_file)
    grid = _rho_grid(args.rho_min, args.rho_max, args.points, args.linear)
    curve = [
        CurvePoint(rho=r, method=m, t=tolerance(chain, m, r).t)
        for r in grid
        for m in methods
    ]
    write_results(curve, "csv", sys.stdout)


def cmd_study(args: argparse.Namespace) -> None:
    """Run a random-chain study and write its CSV to the --out path."""
    mc_cfg = McConfig(draws=args.mc_draws, seed=args.seed) if args.mc_draws > 0 else None
    spec = StudySpec(
        n_inputs=args.n,
        bound_lo=args.lo,
        bound_hi=args.hi,
        n_chains=args.chains,
        rho=args.rho,
        seed=args.seed,
        mc_cfg=mc_cfg,
    )
    write_results(run_study(spec), "csv", args.out)


def cmd_mc(args: argparse.Namespace) -> None:
    """Monte Carlo quantile (given --rho) or exceedance probability (given --t)."""
    cfg = McConfig(draws=args.draws, seed=args.seed)
    chain = read_chain(args.chain_file)
    if args.rho is not None:
        est, label = mc_quantile(chain, args.rho, cfg), "t_hat"
    else:
        est, label = mc_prob(chain, args.t, cfg), "p_hat"
    sys.stdout.write(f"{label}={est.value!r} stderr={est.stderr!r}\n")


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
                   help=f"comma-separated subset of {_METHOD_NAMES} (default all)")
    p.add_argument("--format", default="table", choices=["table", "csv", "json"])
    p.set_defaults(run=cmd_analyze)

    p = sub.add_parser("sweep", help="tabulate t against a confidence-level grid")
    p.add_argument("chain_file")
    p.add_argument("--rho-min", type=float, required=True)
    p.add_argument("--rho-max", type=float, required=True)
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--linear", action="store_true",
                   help="linear rho grid (default log-spaced)")
    p.add_argument("--methods", default="all")
    p.set_defaults(run=cmd_sweep)

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
    p.set_defaults(run=cmd_study)

    p = sub.add_parser("mc", help="seeded Monte Carlo quantile or probability")
    p.add_argument("chain_file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rho", type=float, help="estimate the (1-rho)-quantile of |Y|")
    group.add_argument("--t", type=float, help="estimate P(|Y| >= t)")
    p.add_argument("--draws", type=int, default=200_000)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(run=cmd_mc)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the stacktol command line; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        args.run(args)
    except (BracketError, ArithmeticError) as exc:  # BracketError is a ValueError
        print(f"stacktol: numeric failure: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"stacktol: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
