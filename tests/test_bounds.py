"""Analytic methods: frozen references, dominations, equivariances, oracles."""

import math
import re
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st
import mpmath
import numpy as np
import pytest

from stacktol import (
    McConfig,
    Method,
    StackChain,
    airbus_t,
    analyze_all,
    balance_report,
    chernov_prob,
    chernov_t,
    gaussian_l,
    hoeffding_t,
    lipschitz_t,
    mc_quantile,
    phi,
    psi,
    psi_tilde,
    quadratic_t,
    s_lambda,
    t_rss,
    t_wc,
    tolerance,
)
import stacktol.cli
from stacktol.bounds import _SOLVERS
from conftest import TABLE_BOUNDS, random_bounds
from oracles import exact_abs_tail, grid_bound_t

# frozen 50-digit references
L_0027 = 1.2117618657266322227
L_005 = 0.90540101049374633233
L_NEAR_1 = 0.39247000750515823034
HOEFF_TABLE_005 = 20.14390081271581801
HOEFF_SINGLE_0027 = 3.6352855971798966682
HOEFF_EQUAL10_0027 = 11.495782432293853195
PHI_TABLE_01_5 = -0.40887010609336901222
S_01_TABLE = 0.016353616808275375356
AIRBUS_TABLE = 11.454565769935487946
AIRBUS_CASE = 1.7643730998863912203
CASE_RSS = 1.2259282197584000472


class TestConfidenceLevel:
    # rho is a plain float; every public function checks it the same way
    def test_valid(self):
        assert hoeffding_t(StackChain.from_bounds((1.0,)), 0.5).rho == 0.5
        assert gaussian_l(0.5) > 0.0

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5, math.nan])
    def test_invalid(self, bad):
        with pytest.raises(ValueError, match="confidence level must lie in"):
            gaussian_l(bad)


class TestGaussianL:
    def test_frozen_values(self):
        assert gaussian_l(0.0027) == pytest.approx(L_0027, rel=1e-13)
        assert gaussian_l(0.05) == pytest.approx(L_005, rel=1e-13)

    def test_limit_toward_one(self):
        # l is still positive as rho -> 1: (1/3) sqrt(2 ln 2)
        assert gaussian_l(1.0 - 1e-12) == pytest.approx(L_NEAR_1, rel=1e-9)
        with pytest.raises(ValueError):
            gaussian_l(1.0)

    def test_decreasing_in_rho(self):
        rhos = [1e-6, 1e-4, 0.0027, 0.05, 0.5, 0.99]
        vals = [gaussian_l(r) for r in rhos]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestHoeffding:
    def test_shape_coefficient_is_three(self, table_chain, case_chain, rng):
        for chain in (table_chain, case_chain):
            for rho in (0.1, 0.05, 0.0027):
                res = hoeffding_t(chain, rho)
                assert res.f == pytest.approx(3.0, rel=1e-12)
                assert res.t == pytest.approx(
                    3.0 * gaussian_l(rho) * t_rss(chain), rel=1e-12
                )

    def test_frozen_values(self, table_chain):
        res = hoeffding_t(table_chain, 0.05)
        assert res.t == pytest.approx(HOEFF_TABLE_005, rel=1e-12)
        assert res.t_clamped == 15.0  # exceeds the worst case, clamped
        single = hoeffding_t(StackChain.from_bounds((1.0,)), 0.0027)
        assert single.t == pytest.approx(HOEFF_SINGLE_0027, rel=1e-12)
        assert single.t_clamped == 1.0

    def test_closed_form_near_double_max(self):
        res = hoeffding_t(StackChain.from_bounds((1e308,)), 0.0027)
        assert res.t == math.inf  # 3 l_rho 1e308 exceeds the largest double
        assert res.t_clamped == 1e308
        assert res.f == 3.0
        assert res.coverage == 3.0 * gaussian_l(0.0027)

    @pytest.mark.parametrize("rho", [0.9, 0.5, 0.0027])
    def test_subnormal_chain_is_covered(self, rho):
        # l_rho * 5e-324 alone rounds to 0 at rho = 0.9
        w = (5e-324,)
        res = hoeffding_t(StackChain.from_bounds(w), rho)
        assert res.t > 0.0
        assert exact_abs_tail(w, res.t) <= rho


class TestPhi:
    def test_nonnegative_at_t_zero(self, table_chain):
        for lam in np.logspace(-6, 2, 50):
            assert phi(table_chain, float(lam), 0.0) >= 0.0

    def test_single_unit_value(self):
        one = StackChain.from_bounds((1.0,))
        assert phi(one, 1.0, 0.0) == pytest.approx(math.log(math.sinh(1.0)), rel=1e-9)

    def test_table_frozen_value(self, table_chain):
        assert phi(table_chain, 0.1, 5.0) == pytest.approx(PHI_TABLE_01_5, rel=1e-10)

    def test_finite_at_extreme_lambda(self, table_chain):
        # 1e6 / min(w) is the stated operating ceiling
        assert math.isfinite(phi(table_chain, 1e6, 5.0))

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan])
    def test_lambda_domain(self, table_chain, lam):
        with pytest.raises(ValueError):
            phi(table_chain, lam, 1.0)

    def test_t_domain(self, table_chain):
        with pytest.raises(ValueError):
            phi(table_chain, 1.0, -1.0)


class TestSLambda:
    def test_equal_chain_is_zero(self):
        eq = StackChain.from_bounds((2.0, 2.0, 2.0))
        for lam in (1e-4, 0.1, 1.0, 50.0):
            assert s_lambda(eq, lam) == 0.0

    def test_table_values(self, table_chain):
        assert s_lambda(table_chain, 1.0) == pytest.approx(
            balance_report(table_chain).s1, rel=1e-12
        )
        assert s_lambda(table_chain, 0.1) == pytest.approx(S_01_TABLE, rel=1e-10)

    def test_vanishes_at_small_lambda(self, table_chain, rng):
        assert s_lambda(table_chain, 1e-6) <= 1e-9
        for _ in range(10):
            chain = StackChain.from_bounds(random_bounds(rng))
            assert s_lambda(chain, 1e-6) <= 1e-9
            assert s_lambda(chain, 0.3) >= 0.0

    def test_against_the_bregman_sum_in_60_digits(self):
        # the reference is sum_i D_f(lam w_i, lam wbar) at the float wbar: the plain
        # sum_i f(lam w_i) - n f(lam wbar) there is off by about n ulp L(lam wbar),
        # more than the gap itself at a spread of 1e-8
        rng = np.random.default_rng(28)
        for spread in (1e-8, 1e-6, 1e-4, 1e-2, 1.0, 10.0, 100.0):
            for xbar in (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3):
                for n in (2, int(rng.integers(3, 11))):
                    chain = StackChain.from_bounds(1.0 + spread * rng.random(n))
                    wbar = balance_report(chain).mean
                    lam = xbar / wbar
                    with mpmath.workdps(60):
                        y = mpmath.mpf(lam) * mpmath.mpf(wbar)
                        f = lambda x: mpmath.log(mpmath.sinh(x) / x)  # noqa: E731
                        slope = mpmath.coth(y) - 1 / y
                        ref = float(mpmath.fsum(
                            f(x) - f(y) - slope * (x - y)
                            for x in (mpmath.mpf(lam) * mpmath.mpf(w)
                                      for w in chain.weighted_bounds)))
                    got = s_lambda(chain, lam)
                    assert got == pytest.approx(ref, rel=1e-11, abs=0.0), (spread, xbar, n)

    def test_zero_where_two_lambda_w_underflows(self):
        chain = StackChain.from_bounds((1e-200, 2e-200))
        assert s_lambda(chain, 1e-200) == 0.0  # h(0+) = 0 for every term

    def test_lambda_domain(self, table_chain):
        with pytest.raises(ValueError):
            s_lambda(table_chain, 0.0)
        with pytest.raises(ValueError):  # lam * max(w) overflows
            s_lambda(table_chain, 1e308)


class TestRelaxations:
    def test_equal_chain_collapse_pointwise(self):
        eq = StackChain.from_bounds((1.5, 1.5, 1.5, 1.5))
        for lam in (0.01, 0.7, 5.0):
            for t in (0.0, 2.0, 5.9):
                base = phi(eq, lam, t)
                assert psi(eq, lam, t) == pytest.approx(base, rel=1e-13, abs=1e-13)
                assert psi_tilde(eq, lam, t) == pytest.approx(base, rel=1e-13, abs=1e-13)

    def test_pointwise_domination(self, rng):
        for _ in range(300):
            chain = StackChain.from_bounds(random_bounds(rng))
            lam = float(10 ** rng.uniform(-3, 1.7))
            t = float(rng.uniform(0.0, 1.5 * t_wc(chain)))
            base = phi(chain, lam, t)
            assert psi(chain, lam, t) >= base - 1e-10
            assert psi_tilde(chain, lam, t) >= base - 1e-10
            assert psi_tilde(chain, lam, t, curvature=1.0 / 6.0) >= base - 1e-10

    def test_table_gap_identities(self, table_chain):
        # psi - phi = lam*abs_dev - S_lam; here 0.1*6 - S_0.1
        gap = psi(table_chain, 0.1, 5.0) - phi(table_chain, 0.1, 5.0)
        assert gap == pytest.approx(0.6 - S_01_TABLE, rel=1e-10)
        # psi_tilde - psi = n lam^2 Var/2 - lam*abs_dev = 0.05 - 0.6
        quad_gap = psi_tilde(table_chain, 0.1, 5.0) - psi(table_chain, 0.1, 5.0)
        assert quad_gap == pytest.approx(0.05 - 0.6, rel=1e-10)

    @pytest.mark.parametrize("bounds", [(1.0,), TABLE_BOUNDS])
    def test_log_mgf_against_high_precision_at_small_lambda(self, bounds):
        # at t = 0 each exponent is its K; lam wbar from 1e-6 to 1e-3
        chain = StackChain.from_bounds(bounds)
        wbar_f = sum(bounds) / len(bounds)
        with mpmath.workdps(50):
            w = [mpmath.mpf(b) for b in bounds]
            wbar = sum(w) / len(w)

            def log_sinh_over_x(y):
                return mpmath.log(mpmath.sinh(y) / y)

            for x in (1e-6, 1e-5, 1e-4, 1e-3):
                lam = x / wbar_f
                ml = mpmath.mpf(lam)
                base = len(w) * log_sinh_over_x(ml * wbar)
                refs = {
                    phi: sum(log_sinh_over_x(ml * wi) for wi in w),
                    psi: base + ml * sum(abs(wi - wbar) for wi in w),
                    psi_tilde: base + ml * ml * sum((wi - wbar) ** 2 for wi in w) / 2,
                }
                for f, ref in refs.items():
                    expected = pytest.approx(float(ref), rel=1e-12, abs=0.0)
                    assert f(chain, lam, 0.0) == expected, (f, x)

    def test_zero_where_lambda_wbar_underflows(self):
        chain = StackChain.from_bounds((1e-200, 2e-200))
        for f in (phi, psi, psi_tilde):
            assert f(chain, 1e-200, 0.0) == 0.0
            assert math.isfinite(f(chain, 1e-200, 3e-200))

    def test_overflowed_penalty_is_plus_inf(self):
        # c (lam wbar)^2 sum (u_i - 1)^2 overflows while lam wbar K' does not:
        # K is +inf, never -inf
        chain = StackChain.from_bounds((0.8, 1.2))
        assert psi_tilde(chain, 1e160, 0.0) == math.inf
        assert psi_tilde(chain, 1e160, 1.0) == math.inf
        # (lam wbar)^2 alone overflows here, the penalty 0.04 (lam wbar)^2 does not
        assert psi_tilde(chain, 2e154, 0.0) == pytest.approx(0.04 * 2e154 * 2e154, rel=1e-12)

    @pytest.mark.parametrize("bounds", [TABLE_BOUNDS, (1.0, 2.0), (50.0,) + (1.0,) * 7,
                                        tuple(1.0 + 0.02 * i for i in range(200))])
    def test_sign_of_high_precision_where_lambda_t_overflows(self, bounds):
        # where lam t and psi_tilde's penalty both overflow, the exponent is the
        # signed infinity (or the finite value) that it is, never inf - inf = NaN
        chain = StackChain.from_bounds(bounds)
        grid = (1.0, 1e100, 1e160, 1e200, 1e300)
        with mpmath.workdps(40):
            w = [mpmath.mpf(b) for b in bounds]
            wbar = sum(w) / len(w)

            def log_sinh_over_x(y):  # log(sinh y / y) without forming sinh y
                return y - mpmath.log(2 * y) + mpmath.log1p(-mpmath.exp(-2 * y))

            for lam in grid:
                ml = mpmath.mpf(lam)
                base = len(w) * log_sinh_over_x(ml * wbar)
                refs = {
                    phi: sum(log_sinh_over_x(ml * wi) for wi in w),
                    psi: base + ml * sum(abs(wi - wbar) for wi in w),
                    psi_tilde: base + ml * ml * sum((wi - wbar) ** 2 for wi in w) / 2,
                }
                for t in grid:
                    for f, k in refs.items():
                        got, ref = f(chain, lam, t), k - ml * t
                        assert not math.isnan(got), (f.__name__, lam, t)
                        assert (got > 0) - (got < 0) == mpmath.sign(ref), (f.__name__, lam, t)
                        if math.isfinite(got):
                            assert got == pytest.approx(float(ref), rel=1e-9), (f, lam, t)

    def test_exponents_name_the_overflowing_range(self):
        # lam wbar = 1.5e360 overflows on the first chain; on the second lam wbar =
        # 5e307 is finite and lam max(w) = 2e308 is not, which only phi's kernels reach.
        # Each raised a bare 'math domain error' from the kernels
        big = StackChain.from_bounds((1e200, 2e200))
        spread = StackChain.from_bounds((1.0, 1.0, 1.0, 2e300))
        for f in (phi, psi, psi_tilde):
            reach = re.escape("max(w)" if f is phi else "wbar")
            with pytest.raises(ValueError, match=rf"lambda \* {reach} must be finite"):
                f(big, 1e160, 1.0)
        with pytest.raises(ValueError, match=r"lambda \* max\(w\) must be finite"):
            phi(spread, 1e8, 1.0)
        assert not math.isnan(psi(spread, 1e8, 1.0)) and not math.isnan(psi_tilde(spread, 1e8, 1.0))
        assert math.isfinite(phi(big, 1e100, 1.0))

    @pytest.mark.parametrize("bounds", [(1.0,), (2.5, 2.5, 2.5, 2.5)])
    @pytest.mark.parametrize("x", [1e156, 1e200, 1e300])
    def test_no_penalty_on_all_equal_chains_where_lambda_squared_overflows(self, bounds, x):
        chain = StackChain.from_bounds(bounds)
        lam, wc = x / bounds[0], sum(bounds)
        for t in (0.0, 0.5 * wc, wc):
            assert psi_tilde(chain, lam, t) == psi(chain, lam, t)

    def test_curvature_knob(self, table_chain):
        sharp = psi_tilde(table_chain, 0.5, 3.0, curvature=1.0 / 6.0)
        default = psi_tilde(table_chain, 0.5, 3.0)
        assert sharp < default
        with pytest.raises(ValueError):
            psi_tilde(table_chain, 0.5, 3.0, curvature=0.1)

    @pytest.mark.parametrize("curvature", [math.nan, math.inf])
    def test_non_finite_curvature_rejected(self, table_chain, curvature):
        with pytest.raises(ValueError, match="finite and >= 1/6"):
            psi_tilde(table_chain, 0.5, 3.0, curvature=curvature)
        with pytest.raises(ValueError, match="finite and >= 1/6"):
            quadratic_t(table_chain, 0.0027, curvature=curvature)


class TestChernovProb:
    def test_edges(self, table_chain):
        assert chernov_prob(table_chain, 0.0) == 1.0
        assert chernov_prob(table_chain, 15.0) == 0.0
        assert chernov_prob(table_chain, 20.0) == 0.0

    def test_pair_bound_brackets_exact(self):
        pair = StackChain.from_bounds((1.0, 1.0))
        t = 2.0 - 2.0 * math.sqrt(0.05)  # exact 5% two-sided point
        p = chernov_prob(pair, t)
        assert 0.05 < p <= 1.0

    def test_at_the_grid_oracle_quantile(self):
        # the grid oracle inverts its own search over lambda at rho = 0.05
        t = grid_bound_t((1.0, 1.0), 0.05, "phi")
        assert chernov_prob(StackChain.from_bounds((1.0, 1.0)), t) == pytest.approx(0.05, rel=1e-4)

    def test_nonincreasing(self, table_chain):
        ts = np.linspace(0.0, 15.0, 60)
        vals = [chernov_prob(table_chain, float(t)) for t in ts]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_t_domain(self, table_chain):
        with pytest.raises(ValueError):
            chernov_prob(table_chain, -0.5)


class TestChernovT:
    def test_single_uniform_between_exact_and_wc(self):
        res = chernov_t(StackChain.from_bounds((1.0,)), 0.1)
        assert 0.9 < res.t < 1.0

    def test_table_against_grid_oracle(self, table_chain):
        res = chernov_t(table_chain, 0.05)
        oracle = grid_bound_t((5.0, 4.0, 3.0, 2.0, 1.0), 0.05, "phi")
        assert res.t == pytest.approx(oracle, rel=1e-4)

    def test_equal_ten_between_mc_and_hoeffding(self):
        eq = StackChain.from_bounds((1.0,) * 10)
        res = chernov_t(eq, 0.0027)
        assert res.t <= HOEFF_EQUAL10_0027
        mc = mc_quantile(eq, 0.0027, McConfig(draws=200_000, seed=1234))
        assert res.t >= mc.value

    def test_below_worst_case(self, rng):
        for _ in range(20):
            chain = StackChain.from_bounds(random_bounds(rng))
            rho = float(10 ** rng.uniform(-4, -0.5))
            assert chernov_t(chain, rho).t < t_wc(chain)

    def test_result_fields(self, table_chain):
        res = chernov_t(table_chain, 0.05)
        assert res.method is Method.CHERNOV
        assert res.rho == 0.05
        assert res.f == pytest.approx(res.t / (gaussian_l(0.05) * t_rss(table_chain)), rel=1e-12)
        assert res.coverage == pytest.approx(res.t / t_rss(table_chain), rel=1e-12)
        assert res.t_clamped == min(res.t, 15.0)


class TestLipschitzAndQuadratic:
    def test_equal_chain_collapse(self):
        eq = StackChain.from_bounds((2.0,) * 6)
        for rho in (0.1, 0.0027):
            tc = chernov_t(eq, rho).t
            assert lipschitz_t(eq, rho).t == pytest.approx(tc, rel=1e-8)
            assert quadratic_t(eq, rho).t == pytest.approx(tc, rel=1e-8)

    def test_dominate_chernov(self, rng):
        for _ in range(25):
            chain = StackChain.from_bounds(random_bounds(rng))
            rho = float(10 ** rng.uniform(-4, -0.5))
            tc = chernov_t(chain, rho).t
            assert lipschitz_t(chain, rho).t >= tc * (1 - 1e-7)
            assert quadratic_t(chain, rho).t >= tc * (1 - 1e-7)

    def test_table_against_grid_oracles(self, table_chain):
        w = (5.0, 4.0, 3.0, 2.0, 1.0)
        assert lipschitz_t(table_chain, 0.05).t == pytest.approx(
            grid_bound_t(w, 0.05, "psi"), rel=1e-4
        )
        assert quadratic_t(table_chain, 0.05).t == pytest.approx(
            grid_bound_t(w, 0.05, "psi_tilde"), rel=1e-4
        )

    def test_sharp_curvature_tightens(self, table_chain):
        loose = quadratic_t(table_chain, 0.0027).t
        sharp = quadratic_t(table_chain, 0.0027, curvature=1.0 / 6.0).t
        assert sharp < loose
        assert sharp >= chernov_t(table_chain, 0.0027).t * (1 - 1e-7)

    def test_extreme_rho_unbalanced_chain_converges(self):
        # at rho near 1 the usual head start does not bracket; the solver
        # must widen on its own
        chain = StackChain.from_bounds((1.0, 0.01))
        for rho in (0.9, 0.5):
            tl = lipschitz_t(chain, rho).t
            tq = quadratic_t(chain, rho).t
            assert math.isfinite(tl) and tl > 0.0
            assert math.isfinite(tq) and tq > 0.0

    def test_may_exceed_worst_case_but_clamped(self):
        chain = StackChain.from_bounds((1.0, 1.0))
        res = lipschitz_t(chain, 0.0027)
        assert res.t_clamped == min(res.t, 2.0)


class TestScaleEquivariance:
    @pytest.mark.parametrize("c", [1e-200, 0.01, 100.0, 1e200])
    def test_all_methods(self, table_chain, c):
        scaled = StackChain.from_bounds([c * w for w in table_chain.weighted_bounds])
        rho = 0.0027
        for method in Method:
            base = tolerance(table_chain, method, rho).t
            other = tolerance(scaled, method, rho).t
            assert other == pytest.approx(c * base, rel=1e-6)

    @pytest.mark.parametrize("c", [1e-200, 0.01, 100.0, 1e200])
    def test_exponents(self, table_chain, c):
        scaled = StackChain.from_bounds([c * w for w in table_chain.weighted_bounds])
        for lam, t in ((0.1, 5.0), (0.5, 3.0), (2.0, 12.0)):
            for exponent in (phi, psi, psi_tilde):
                base = exponent(table_chain, lam, t)
                assert exponent(scaled, lam / c, c * t) == pytest.approx(base, rel=1e-12)


@pytest.mark.parametrize("bounds", [(1e308, 1e308), (1e308, 9e307)])
class TestWorstCaseOverflow:
    # the worst case, 2e308 or 1.9e308, passes the largest double
    def test_analyze_all(self, bounds):
        by = {r.method: r for r in analyze_all(StackChain.from_bounds(bounds), 0.0027)}
        assert len(by) == 8
        assert by[Method.WC].t == math.inf
        assert math.isfinite(by[Method.RSS].t) and math.isfinite(by[Method.GAUSSIAN].t)
        # its true t, 1.95e308 or 1.85e308, passes it too
        assert by[Method.CHERNOV].t == math.inf

    def test_scale_equivariant(self, bounds):
        chain = StackChain.from_bounds(bounds)
        unit = StackChain.from_bounds([math.ldexp(w, -1000) for w in bounds])
        for solver in (chernov_t, lipschitz_t, quadratic_t):
            t = solver(chain, 0.9).t
            assert t == pytest.approx(math.ldexp(solver(unit, 0.9).t, 1000), rel=1e-12)
        for frac in (0.1, 0.5, 0.9, 0.99, 1.0):
            t = frac * 1.7e308
            p = chernov_prob(chain, t)
            assert p == pytest.approx(chernov_prob(unit, math.ldexp(t, -1000)), rel=1e-12)


class TestResultScaling:
    # f and coverage divide by l_rho * T_RSS, which underflows on a subnormal chain
    # and overflows near the largest double unless t and T_RSS are scaled first
    @pytest.mark.parametrize("rho", [0.9, 0.5, 0.0027])
    def test_subnormal_chain_is_finite(self, rho):
        for res in analyze_all(StackChain.from_bounds((5e-324,)), rho):
            assert math.isfinite(res.t) and math.isfinite(res.coverage), res.method
            assert res.f is None or math.isfinite(res.f), res.method

    def test_f_positive_near_double_max(self):
        assert chernov_t(StackChain.from_bounds((1e308,)), 1e-12).f > 0.0


class TestExtremeRho:
    @pytest.mark.parametrize("rho", [1e-300, 1e-308])
    @pytest.mark.parametrize("bounds", [(1.0,), (1.0, 2.0)])
    def test_limits_at_tiny_rho(self, bounds, rho):
        chain = StackChain.from_bounds(bounds)
        wc = t_wc(chain)
        tc = chernov_t(chain, rho).t
        assert tc <= wc
        assert exact_abs_tail(bounds, tc) <= rho
        # the imbalance penalty is linear in lambda, so t tends to its limit
        mean = sum(bounds) / len(bounds)
        limit = wc + sum(abs(w - mean) for w in bounds)
        assert lipschitz_t(chain, rho).t == pytest.approx(limit, rel=1e-12)
        for method in (Method.GAUSSIAN, Method.HOEFFDING, Method.QUADRATIC):
            assert math.isfinite(tolerance(chain, method, rho).t)
        l_rho = math.sqrt(2.0 * (math.log(2.0) - math.log(rho))) / 3.0
        assert hoeffding_t(chain, rho).t == pytest.approx(3.0 * l_rho * t_rss(chain), rel=1e-12)


# n from 1 to 40 bounds e^U[-3, 3], rho log-uniform from 1e-14 to 0.3
_BOUNDS = st.lists(st.floats(-3.0, 3.0).map(math.exp), min_size=1, max_size=40)
_RHOS = st.floats(math.log(1e-14), math.log(0.3)).map(math.exp)


class TestBalancedChain:
    """The relaxations are the balanced chain's bound plus a price for imbalance."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(bounds=_BOUNDS, rho=_RHOS)
    @example(bounds=[1.0, math.exp(1e-6)], rho=math.exp(-15.0))
    def test_lipschitz_is_the_balanced_t_plus_the_absolute_deviation(self, bounds, rho):
        chain = StackChain.from_bounds(bounds)
        rep = balance_report(chain)
        t_balanced = chernov_t(StackChain.from_bounds([rep.mean] * len(bounds)), rho).t
        t_chernov, t_lipschitz = chernov_t(chain, rho).t, lipschitz_t(chain, rho).t
        # n bounds of the float mean sum to n wbar, which may pass wc: scaled exactly to
        # the same worst case, the balanced optimum lies below the chain's, and each t
        # exceeds its optimum by at most 5e-15 of itself.  On the example, t_balanced
        # passes t_chernov by 1.1e-16 unscaled, as the exact optima do
        scale = sum(map(Fraction, chain.weighted_bounds)) / (len(bounds) * Fraction(rep.mean))
        assert Fraction(t_balanced) * scale <= Fraction(t_chernov) * (1 + Fraction(5, 10**15))
        assert t_chernov <= t_lipschitz
        assert t_lipschitz == pytest.approx(t_balanced + rep.abs_dev_sum, rel=4e-15)

    # the float mean of equal bounds, which is clamped into [min w, max w], is the bound
    # itself, so every member is the same balanced chain with no price
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(w=st.floats(-3.0, 3.0).map(math.exp), n=st.integers(1, 40), rho=_RHOS)
    def test_equal_bounds_agree_bit_for_bit(self, w, n, rho):
        chain = StackChain.from_bounds([w] * n)
        ts = {chernov_t(chain, rho).t, lipschitz_t(chain, rho).t, quadratic_t(chain, rho).t,
              quadratic_t(chain, rho, 1.0 / 6.0).t}
        assert len(ts) == 1, ts


class TestMonotonicity:
    def test_t_nonincreasing_in_rho(self, table_chain):
        rhos = [1e-4, 1e-3, 0.0027, 0.01, 0.05, 0.1, 0.3]
        for method in (Method.GAUSSIAN, Method.HOEFFDING, Method.CHERNOV,
                       Method.LIPSCHITZ, Method.QUADRATIC):
            ts = [tolerance(table_chain, method, r).t for r in rhos]
            assert all(a >= b * (1 - 1e-9) for a, b in zip(ts, ts[1:]))

    def test_t_nondecreasing_in_bounds(self):
        small = StackChain.from_bounds((3.0, 2.0, 1.0))
        big = StackChain.from_bounds((3.5, 2.0, 1.0))
        for method in Method:
            a = tolerance(small, method, 0.01).t
            b = tolerance(big, method, 0.01).t
            assert b >= a * (1 - 1e-9)


class TestAirbus:
    def test_frozen_values(self, table_chain, case_chain):
        assert airbus_t(table_chain).t == pytest.approx(AIRBUS_TABLE, rel=1e-12)
        assert airbus_t(case_chain).t == pytest.approx(AIRBUS_CASE, rel=1e-12)

    def test_balanced_chain_coefficient(self):
        eq = StackChain.from_bounds((2.0, 2.0, 2.0))
        res = airbus_t(eq)
        assert res.t == pytest.approx(1.6 * 1.04 * t_rss(eq), rel=1e-12)

    def test_no_rho(self, table_chain):
        res = airbus_t(table_chain)
        assert res.rho is None and res.f is None


class TestAnalyzeAll:
    def test_order_and_length(self, table_chain):
        results = analyze_all(table_chain, 0.05)
        assert [r.method for r in results] == [
            Method.WC, Method.RSS, Method.GAUSSIAN, Method.HOEFFDING,
            Method.CHERNOV, Method.LIPSCHITZ, Method.QUADRATIC, Method.AIRBUS,
        ]

    def test_method_is_the_solver_table(self, table_chain):
        assert list(_SOLVERS) == list(Method)
        assert [r.method for r in analyze_all(table_chain, 0.05)] == list(Method)

    def test_rho_free_methods(self, table_chain):
        by = {r.method: r for r in analyze_all(table_chain, 0.05)}
        for m in (Method.WC, Method.RSS, Method.AIRBUS):
            assert by[m].rho is None and by[m].f is None
        assert by[Method.GAUSSIAN].f == pytest.approx(1.0, rel=1e-12)
        assert by[Method.HOEFFDING].f == pytest.approx(3.0, rel=1e-12)
        assert by[Method.RSS].coverage == pytest.approx(1.0, rel=1e-12)

    def test_dominations(self, table_chain, case_chain):
        for chain in (table_chain, case_chain):
            by = {r.method: r for r in analyze_all(chain, 0.0027)}
            assert by[Method.CHERNOV].t <= by[Method.LIPSCHITZ].t * (1 + 1e-7)
            assert by[Method.CHERNOV].t <= by[Method.QUADRATIC].t * (1 + 1e-7)
            assert by[Method.CHERNOV].t <= by[Method.HOEFFDING].t * (1 + 1e-7)

    def test_case_chain_classics(self, case_chain):
        by = {r.method: r for r in analyze_all(case_chain, 0.0027)}
        assert by[Method.WC].t == pytest.approx(2.85, abs=1e-12)
        assert by[Method.RSS].t == pytest.approx(CASE_RSS, rel=1e-12)

    def test_dispatcher_matches(self, table_chain):
        for res in analyze_all(table_chain, 0.01):
            assert tolerance(table_chain, res.method, 0.01) == res
            assert tolerance(table_chain, res.method.value, 0.01) == res

    def test_dispatcher_errors(self, table_chain):
        with pytest.raises(ValueError):
            tolerance(table_chain, "mc", 0.05)
        for method in (Method.CHERNOV, "chernov"):
            with pytest.raises(ValueError, match="requires a confidence level"):
                tolerance(table_chain, method)

    def test_rho_free_dispatch_ignores_rho(self, table_chain):
        assert tolerance(table_chain, Method.WC).t == 15.0
        assert tolerance(table_chain, Method.RSS, 0.05).rho is None

    def test_chain_sums_are_formed_when_built(self, case_chain, capsys, monkeypatch):
        # T_RSS is the one sum formed by math.hypot: once the chain is built, no
        # method, balance report or sweep may form it again
        monkeypatch.setattr(stacktol.cli, "read_chain", lambda path: case_chain)

        def run():
            stacktol.cli.main(["sweep", "chain.csv", "--rho-min", "1e-9", "--rho-max", "0.5",
                               "--points", "4"])
            return repr((analyze_all(case_chain, 0.0027), balance_report(case_chain),
                         [tolerance(case_chain, m, 1e-6) for m in Method],
                         capsys.readouterr()))

        expected = run()

        def fail(*args):
            raise AssertionError("a sum of the chain was formed again")

        monkeypatch.setattr(math, "hypot", fail)
        assert run() == expected
