"""Tolerance stack-up analysis for assemblies with uniform inputs.

Given a chain of contributors, each with a tolerance half-width and an
influence coefficient, this package computes output tolerance intervals
[-t, t] under the model Y = sum_i a_i X_i with X_i uniform: the worst
case and RSS classics, concentration-bound methods (Hoeffding, optimized
exponential, and two closed-form relaxations), an industrial
balance-corrected rule, balance diagnostics, a seeded Monte Carlo
oracle, and a batch study harness.  See the README for the method
catalogue and the CLI.

The Monte Carlo and study modules load on first use of one of their
names, so ``import stacktol`` and the analytic commands never compile or
run them.
"""

import importlib

from . import bounds, chain, io, numerics
from .bounds import *
from .chain import *
from .io import *
from .numerics import *

__version__ = "0.1.0"

# each lazy module's __all__; tests/test_package.py checks them against it
_LAZY = {
    "montecarlo": ("McConfig", "McEstimate", "sample_output", "mc_quantile", "mc_prob"),
    "study": ("StudySpec", "StudyRow", "random_chain", "run_study"),
}

__all__ = ["__version__", *chain.__all__, *bounds.__all__, *_LAZY["montecarlo"],
           *_LAZY["study"], *io.__all__, *numerics.__all__]


def __getattr__(name: str) -> object:
    """Import the lazy module that ``name`` is or belongs to, and bind its names here."""
    for module, names in _LAZY.items():
        if name == module or name in names:
            mod = importlib.import_module(f".{module}", __name__)
            globals().update((n, getattr(mod, n)) for n in names)
            return mod if name == module else getattr(mod, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *(n for names in _LAZY.values() for n in names)})
