"""Self-checks of the reference oracles against closed forms and sampling."""

import math

import numpy as np
import pytest

from oracles import exact_abs_quantile, exact_abs_tail, grid_bound_t, grid_prob


class TestExactTail:
    def test_single_uniform_closed_form(self):
        for t in (0.0, 0.1, 0.5, 0.9, 0.999, 1.0, 1.5):
            assert exact_abs_tail((1.0,), t) == pytest.approx(
                max(0.0, min(1.0, 1.0 - t)), abs=1e-14
            )

    def test_triangular_closed_form(self):
        # sum of two unit uniforms: P(|Y| >= t) = (2 - t)^2 / 4 on [0, 2]
        for t in (0.0, 0.3, 1.0, 1.5528, 1.9, 2.0):
            expect = (2.0 - t) ** 2 / 4.0 if t <= 2.0 else 0.0
            if t == 0.0:
                expect = 1.0
            assert exact_abs_tail((1.0, 1.0), t) == pytest.approx(expect, abs=1e-13)

    def test_scale_invariance(self):
        assert exact_abs_tail((2.0, 6.0, 4.0), 3.0) == pytest.approx(
            exact_abs_tail((1.0, 3.0, 2.0), 1.5), rel=1e-12
        )

    @pytest.mark.parametrize("scale", [2.0**-1000, 1e-200, 1e200, 2.0**1000])
    def test_extreme_scales(self, scale):
        # the product of bounds alone would under- or overflow here
        w = (1.0, 2.0, 0.5)
        expect = exact_abs_tail(w, 1.7)
        assert exact_abs_tail([x * scale for x in w], 1.7 * scale) == pytest.approx(expect, rel=1e-12)

    def test_against_monte_carlo_n3(self):
        w = (2.5, 1.0, 0.4)
        rng = np.random.default_rng(5)
        n = 400_000
        y = sum(rng.uniform(-wi, wi, n) for wi in w)
        for t in (0.5, 1.5, 2.5, 3.5):
            p = exact_abs_tail(w, t)
            p_hat = float(np.mean(np.abs(y) >= t))
            se = math.sqrt(max(p_hat * (1 - p_hat), 1e-9) / n)
            assert abs(p - p_hat) <= 4 * se

    def test_quantile_inverts_tail(self):
        for w in ((1.0,), (1.0, 1.0), (3.0, 2.0, 0.7)):
            for rho in (0.1, 0.05, 0.0027):
                t = exact_abs_quantile(w, rho)
                assert exact_abs_tail(w, t) == pytest.approx(rho, rel=1e-6)

    def test_triangular_quantile_value(self):
        # (2 - t)^2 / 4 = rho  =>  t = 2 - 2 sqrt(rho)
        assert exact_abs_quantile((1.0, 1.0), 0.05) == pytest.approx(
            2.0 - 2.0 * math.sqrt(0.05), rel=1e-9
        )


class TestGridBound:
    def test_grid_prob_upper_bounds_exact(self):
        w = (1.0, 1.0)
        for t in (0.5, 1.0, 1.5, 1.9):
            assert grid_prob(w, t, "phi") >= exact_abs_tail(w, t)

    def test_grid_bound_above_exact_quantile(self):
        w = (1.0, 1.0)
        rho = 0.05
        t = grid_bound_t(w, rho, "phi")
        assert t >= exact_abs_quantile(w, rho)
        assert t < 2.0

    def test_relaxations_dominate_phi(self):
        w = (5.0, 4.0, 3.0, 2.0, 1.0)
        for t in (5.0, 10.0):
            base = grid_prob(w, t, "phi")
            assert grid_prob(w, t, "psi") >= base
            assert grid_prob(w, t, "psi_tilde") >= base
