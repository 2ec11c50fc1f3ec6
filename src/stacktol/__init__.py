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

from . import bounds, chain, io, montecarlo, numerics, study
from .bounds import *
from .chain import *
from .io import *
from .montecarlo import *
from .numerics import *
from .study import *

__version__ = "0.1.0"

__all__ = ["__version__", *chain.__all__, *bounds.__all__, *montecarlo.__all__,
           *study.__all__, *io.__all__, *numerics.__all__]
