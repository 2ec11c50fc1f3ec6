"""Special functions and the 1-D solver: stability, calculus properties, solver contracts.

The kernels are checked through their one-term views: L(x) from
``_langevin_sum(x, _ONE_TERM)``, 1 - L(x) from ``_co_langevin_sum(x, _ONE_TERM)``, m(x)
and q(x) from ``_legendre_sums(x, _ONE_TERM)``; and the two Langevin kernels against
each other on random groups.
"""

import math
import sys

from hypothesis import given, settings, strategies as st
import mpmath
import numpy as np
import pytest

from stacktol import (
    ConvergenceError,
    NonFiniteError,
    StackChain,
    chernov_prob,
    phi,
    psi,
    psi_tilde,
    s_lambda,
)
from stacktol.numerics import (
    _ONE_TERM,
    _co_langevin_sum,
    _langevin_sum,
    _legendre_sums,
    _root,
    h_stable,
    log_sinh_over_x,
)

# 50-digit reference evaluations of log((1 - e^-x)/x), frozen
H_AT_2 = -0.83856063842880436639
H_AT_1E6 = -4.9999995833333333333e-7
LOG_SINH_OVER_X_AT_1 = 0.16143936157119563361


def _h_ref(x: float) -> float:
    # -expm1(-x) = 1 - e^-x without the catastrophic rounding a literal
    # subtraction suffers below x ~ 1e-50 even at 50 digits
    with mpmath.workdps(50):
        mx = mpmath.mpf(x)
        return float(mpmath.log(-mpmath.expm1(-mx) / mx))


class TestHStable:
    def test_frozen_values(self):
        assert h_stable(2.0) == pytest.approx(H_AT_2, rel=1e-13)
        assert h_stable(1e-6) == pytest.approx(H_AT_1E6, rel=1e-13)
        assert h_stable(700.0) == pytest.approx(-math.log(700.0), rel=1e-12)

    def test_limit_at_zero(self):
        assert abs(h_stable(1e-12)) < 1e-9
        assert abs(h_stable(1e-300)) < 1e-12

    def test_against_high_precision_sweep(self):
        xs = np.logspace(-300, math.log10(700.0), 400)
        for x in xs:
            ref = _h_ref(float(x))
            assert h_stable(float(x)) == pytest.approx(ref, rel=1e-12)

    def test_branches_agree_in_crossover_window(self):
        for x in np.linspace(5e-4, 5e-3, 200):
            series = -0.5 * x + x * x / 24.0 - x**4 / 2880.0
            direct = math.log(-math.expm1(-x) / x)
            assert series == pytest.approx(direct, abs=1e-11)

    def test_lipschitz_half(self, rng):
        xs = 10 ** rng.uniform(-6, 2, 10_000)
        ys = 10 ** rng.uniform(-6, 2, 10_000)
        for x, y in zip(xs, ys):
            assert abs(h_stable(x) - h_stable(y)) <= 0.5 * abs(x - y) + 1e-15

    def test_derivative_range(self, rng):
        xs = 10 ** rng.uniform(-6, 2, 2_000)
        for x in xs:
            d = 1e-6 * x
            fd = (h_stable(x + d) - h_stable(x - d)) / (2.0 * d)
            assert -0.5 < fd < 0.0

    def test_convexity_second_differences(self, rng):
        xs = 10 ** rng.uniform(-5, 2, 2_000)
        for x in xs:
            s = 1e-3 * x
            dd = (h_stable(x - s) - 2.0 * h_stable(x) + h_stable(x + s)) / (s * s)
            assert dd >= -1e-9

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            h_stable(bad)


class TestLogSinhOverX:
    def test_frozen_value(self):
        assert log_sinh_over_x(1.0) == pytest.approx(LOG_SINH_OVER_X_AT_1, rel=1e-13)

    def test_large_argument_asymptotic(self):
        assert log_sinh_over_x(1000.0) == pytest.approx(
            1000.0 - math.log(2000.0), rel=1e-9
        )

    def test_limit_at_zero_and_nonnegative(self):
        assert abs(log_sinh_over_x(1e-12)) < 1e-12
        for x in np.logspace(-10, 5, 300):
            assert log_sinh_over_x(float(x)) >= 0.0

    def test_taylor_lower_bound(self):
        for x in np.linspace(1e-6, 1.0, 500):
            assert log_sinh_over_x(float(x)) >= x * x / 6.0 - x**4 / 180.0 - 1e-9

    def test_against_high_precision(self):
        with mpmath.workdps(50):
            for x in (1e-8, 1e-6, 1e-4, 0.01, 0.5, 3.0, 40.0, 500.0):
                ref = float(mpmath.log(mpmath.sinh(x) / x))
                assert log_sinh_over_x(x) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("bad", [0.0, -2.0, math.nan, math.inf])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            log_sinh_over_x(bad)


def langevin(x):
    return _langevin_sum(x, _ONE_TERM)


def co_slope(x):
    """1 - L(x): the kernel's c v (1 - L(lam v)) at lam = x, v = 1."""
    return _co_langevin_sum(x, _ONE_TERM)


def legendre_term(x):
    return _legendre_sums(x, _ONE_TERM)[0]


def x2_langevin_prime(x):
    return _legendre_sums(x, _ONE_TERM)[1]


SWEEP = [float(x) for x in np.logspace(-300, 17, 400)]


def _sweep_digits(x: float) -> int:
    # coth x - 1/x and 1 - (x / sinh x)^2 cancel about 2 log10(1/x) digits
    return 40 + int(2 * max(0.0, -math.log10(x)))


class TestLangevinAndLegendreTerm:
    def test_against_high_precision_sweep(self):
        for x in SWEEP:
            with mpmath.workdps(_sweep_digits(x)):
                mx = mpmath.mpf(x)
                coth_term = mpmath.coth(mx) - 1 / mx
                ref_l = float(coth_term)
                ref_co = float(1 - coth_term)
                ref_m = float(mpmath.log(mpmath.sinh(mx) / mx) - mx * coth_term)
            assert langevin(x) == pytest.approx(ref_l, rel=1e-13, abs=0.0)
            assert co_slope(x) == pytest.approx(ref_co, rel=1e-13, abs=0.0)
            assert legendre_term(x) == pytest.approx(ref_m, rel=1e-13, abs=0.0)

    def test_branches_agree_at_switch(self):
        for f in (langevin, legendre_term):
            below, above = f(0.1 * (1.0 - 1e-15)), f(0.1)
            assert below == pytest.approx(above, rel=1e-12)

    def test_limits(self):
        assert langevin(0.0) == 0.0 and legendre_term(0.0) == 0.0
        assert langevin(1e300) == 1.0
        assert legendre_term(1e300) == pytest.approx(1.0 - math.log(2e300), rel=1e-15)

    def test_legendre_term_is_log_sinh_minus_tangent(self):
        for x in (0.3, 2.0, 25.0):
            assert legendre_term(x) == pytest.approx(
                log_sinh_over_x(x) - x * langevin(x), rel=1e-12
            )

    @pytest.mark.parametrize("bad", [-1e-300, -2.0, math.nan, math.inf])
    def test_domain_errors(self, bad):
        # the kernels are unchecked: the public functions that reach them at lam refuse it
        chain = StackChain.from_bounds((1.0, 2.0))
        for f in (phi, psi, psi_tilde):
            with pytest.raises(ValueError):
                f(chain, bad, 1.0)


# lam from 1e-300 to 1e300, or near 1 / v, where the kernels switch between branches
_LAMBDAS = st.one_of(st.floats(-300.0, 300.0), st.floats(-3.0, 3.0)).map(lambda e: 10.0 ** e)
# scaled bounds from 2^-20 to 2^20, so lam v stays finite, with float counts
_GROUPS = st.lists(st.tuples(st.floats(2.0 ** -20, 2.0 ** 20), st.integers(1, 1000).map(float)),
                   min_size=1, max_size=12)


class TestLangevinPair:
    """_langevin_sum and _co_langevin_sum each form one of sum c v L and sum c v (1 - L)."""

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(groups=_GROUPS, lam=_LAMBDAS)
    def test_sums_split_the_total(self, groups, lam):
        total = math.fsum(c * v for v, c in groups)
        slope, co = _langevin_sum(lam, groups), _co_langevin_sum(lam, groups)
        assert 0.0 <= slope <= total and 0.0 <= co <= total
        assert abs((slope + co) - total) <= 4.0 * math.ulp(total)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(x=_LAMBDAS)
    def test_one_term_views_against_high_precision(self, x):
        # 1 - (coth x - 1/x) cancels about log10(x) digits too
        with mpmath.workdps(_sweep_digits(x) + int(max(0.0, math.log10(x)))):
            mx = mpmath.mpf(x)
            coth_term = mpmath.coth(mx) - 1 / mx
            ref_l, ref_co = float(coth_term), float(1 - coth_term)
        assert langevin(x) == pytest.approx(ref_l, rel=1e-13, abs=0.0)
        assert co_slope(x) == pytest.approx(ref_co, rel=1e-13, abs=0.0)


class TestX2LangevinPrime:
    def test_against_high_precision_sweep(self):
        for x in SWEEP:
            with mpmath.workdps(_sweep_digits(x)):
                mx = mpmath.mpf(x)
                ref = float(1 - (mx / mpmath.sinh(mx)) ** 2)
            assert x2_langevin_prime(x) == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_is_x2_times_the_derivative_of_langevin(self):
        for x in (0.05, 0.1, 0.7, 3.0, 30.0):
            d = 1e-5 * x
            fd = (langevin(x + d) - langevin(x - d)) / (2.0 * d)
            assert x2_langevin_prime(x) == pytest.approx(x * x * fd, rel=1e-8)

    def test_limits(self):
        assert x2_langevin_prime(0.0) == 0.0
        assert x2_langevin_prime(1e-150) == pytest.approx(1e-300 / 3.0, rel=1e-15, abs=0.0)
        assert x2_langevin_prime(1e200) == 1.0  # x^2 overflows, L'(x) underflows

    @pytest.mark.parametrize("bad", [-1e-300, -2.0, math.nan, math.inf])
    def test_domain_errors(self, bad):
        # the kernels are unchecked: s_lambda (q) refuses a bad lam, chernov_prob a bad t
        chain = StackChain.from_bounds((1.0, 2.0))
        for f in (s_lambda, chernov_prob):
            with pytest.raises(ValueError):
                f(chain, bad)


@pytest.mark.parametrize("x", [2.0 ** 1022, 2.0 ** 1023, 1e308, sys.float_info.max])
def test_finite_up_to_the_largest_double(x):
    # 2x overflows from 2^1023 on, and no term needs it
    ref = 1.0 - math.log(2.0) - math.log(x)
    assert legendre_term(x) == pytest.approx(ref, rel=1e-15, abs=0.0)
    assert x2_langevin_prime(x) == 1.0 and langevin(x) == 1.0
    assert math.isfinite(log_sinh_over_x(x))


class TestInvertMonotone:
    """Newton steps in log x (numerics._root): g = -log x is linear there, exp(-x) is not."""

    def test_linear(self):
        root, (g, dg) = _root(lambda x: (-math.log(x), -1.0), -2.0, 100.0, 1.0, math.inf)
        assert root == pytest.approx(math.exp(2.0), rel=1e-15)
        assert (g, dg) == (-math.log(root), -1.0)

    def test_exponential(self):
        # from 10 the first step lands at 0, left of the bracket, and is halved
        f = lambda x: (math.exp(-x), -x * math.exp(-x), x)  # noqa: E731
        root, evaluation = _root(f, 0.5, 10.0, 0.01, 10.0)
        # within about one 1e-7 Newton step in log x of the root
        assert abs(math.log(root / math.log(2.0))) <= 2e-7
        # the whole evaluation at the stopping x, what the root does not read too
        assert evaluation == f(root)

    def test_exhausted_budget_raises(self):
        # g jumps across the target at x = 2, so every Newton step is 1 in log x
        g = lambda x: 1.0 if x < 2.0 else -1.0  # noqa: E731
        with pytest.raises(ConvergenceError):
            _root(lambda x: (g(x), -1.0), 0.0, 3.0, 1.0, math.inf)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_derivative_raises(self, bad):
        # a finite g with a NaN or infinite x g' is refused, not stepped on
        with pytest.raises(NonFiniteError):
            _root(lambda x: (-math.log(x), bad), -2.0, 100.0, 1.0, math.inf)
