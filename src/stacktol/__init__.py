"""Tolerance stack-up analysis for assemblies with uniform inputs.

Given a chain of contributors, each with a tolerance half-width and an
influence coefficient, this package computes output tolerance intervals
[-t, t] under the model Y = sum_i a_i X_i with X_i uniform: the worst
case and RSS classics, concentration-bound methods (Hoeffding, optimized
exponential, and two closed-form relaxations), an industrial
balance-corrected rule, balance diagnostics, a seeded Monte Carlo
oracle, and a batch study harness.  See the README for the method
catalogue and the CLI.
"""

from .bounds import (
    ConfidenceLevel,
    Method,
    ToleranceResult,
    airbus_t,
    analyze_all,
    chernov_prob,
    chernov_t,
    gaussian_l,
    hoeffding_t,
    lipschitz_t,
    phi,
    psi,
    psi_tilde,
    quadratic_t,
    s_lambda,
    tolerance,
)
from .chain import (
    BalanceReport,
    Contributor,
    StackChain,
    balance_report,
    build_chain,
    t_rss,
    t_wc,
)
from .io import ChainFileError, CurvePoint, read_chain, write_results
from .montecarlo import McConfig, McEstimate, mc_prob, mc_quantile, sample_output
from .numerics import (
    Bracket,
    BracketError,
    ConvergenceError,
    NonFiniteError,
    h_stable,
    invert_monotone,
    langevin,
    legendre_term,
    log_sinh_over_x,
)
from .study import StudyRow, StudySpec, random_chain, run_study

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # chain model
    "Contributor",
    "StackChain",
    "BalanceReport",
    "build_chain",
    "t_wc",
    "t_rss",
    "balance_report",
    # analytic bounds
    "Method",
    "ConfidenceLevel",
    "ToleranceResult",
    "gaussian_l",
    "hoeffding_t",
    "phi",
    "s_lambda",
    "psi",
    "psi_tilde",
    "chernov_prob",
    "chernov_t",
    "lipschitz_t",
    "quadratic_t",
    "airbus_t",
    "tolerance",
    "analyze_all",
    # Monte Carlo
    "McConfig",
    "McEstimate",
    "sample_output",
    "mc_quantile",
    "mc_prob",
    # studies
    "StudySpec",
    "StudyRow",
    "random_chain",
    "run_study",
    # io
    "read_chain",
    "write_results",
    "CurvePoint",
    "ChainFileError",
    # numerics
    "Bracket",
    "BracketError",
    "ConvergenceError",
    "NonFiniteError",
    "h_stable",
    "log_sinh_over_x",
    "langevin",
    "legendre_term",
    "invert_monotone",
]
