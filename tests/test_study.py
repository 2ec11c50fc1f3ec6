"""Random-chain studies: generation, determinism, row consistency."""

import numpy as np
import pytest

from stacktol import (
    McConfig,
    Method,
    StudySpec,
    gaussian_l,
    random_chain,
    run_study,
    t_rss,
    tolerance,
)

METHODS = [Method.HOEFFDING, Method.CHERNOV, Method.LIPSCHITZ, Method.QUADRATIC]


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestStudySpec:
    def test_defaults(self):
        spec = StudySpec(n_chains=10, rho=0.05, seed=1)
        assert (spec.n_inputs, spec.bound_lo, spec.bound_hi) == (5, 1.0, 5.0)
        assert spec.mc_cfg is None
        for row in run_study(spec):
            assert Method.CHERNOV in row.ts

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_chains=0, rho=0.05, seed=1),
            dict(n_chains=1, rho=0.0, seed=1),
            dict(n_chains=1, rho=0.05, seed=-1),
            dict(n_chains=1, rho=0.05, seed=1, n_inputs=0),
            dict(n_chains=1, rho=0.05, seed=1, bound_lo=5.0, bound_hi=1.0),
            dict(n_chains=1, rho=0.05, seed=1, bound_lo=0.0, bound_hi=1.0),
            dict(n_chains=1, rho=1.0, seed=1),
            dict(n_chains=1, rho=float("nan"), seed=1),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            StudySpec(**kwargs)

    def test_rows_list_the_four_bounds_in_method_order(self):
        (row,) = run_study(StudySpec(n_chains=1, rho=0.05, seed=1))
        assert list(row.ts) == list(row.fs) == METHODS


class TestRandomChain:
    def test_support(self):
        chain = random_chain(5, 1.0, 5.0, _rng())
        assert all(1.0 <= w <= 5.0 for w in chain.weighted_bounds)
        assert len(chain) == 5

    def test_deterministic(self):
        assert random_chain(5, 1.0, 5.0, _rng(7)) == random_chain(5, 1.0, 5.0, _rng(7))

    def test_mean_of_many(self):
        rng = _rng(123)
        vals = [w for _ in range(10_000) for w in random_chain(5, 1.0, 5.0, rng).weighted_bounds]
        assert 2.97 <= float(np.mean(vals)) <= 3.03

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            random_chain(5, 2.0, 1.0, _rng())
        with pytest.raises(ValueError):
            random_chain(0, 1.0, 5.0, _rng())


class TestRunStudy:
    def test_deterministic_and_parallel_identical(self):
        spec = StudySpec(n_chains=8, rho=0.05, seed=31)
        rows_a = run_study(spec)
        rows_b = run_study(spec)
        assert rows_a == rows_b
        assert [r.chain_id for r in rows_a] == list(range(8))

    def test_f_consistency_and_domination(self):
        spec = StudySpec(n_chains=12, rho=0.05, seed=5)
        for row in run_study(spec):
            chain = random_chain(5, 1.0, 5.0, _rng_for(spec.seed, row.chain_id))
            scale = gaussian_l(0.05) * t_rss(chain)
            for m in row.ts:
                assert row.fs[m] == pytest.approx(row.ts[m] / scale, rel=1e-12)
            assert row.fs[Method.HOEFFDING] == pytest.approx(3.0, rel=1e-12)
            assert row.fs[Method.CHERNOV] <= row.fs[Method.LIPSCHITZ] * (1 + 1e-7)
            assert row.fs[Method.CHERNOV] <= row.fs[Method.QUADRATIC] * (1 + 1e-7)
            assert row.mc_t is None

    def test_row_is_its_tolerance_results(self):
        # recomputing f as t / (l_rho * T_RSS) gives 3.0000000000000004 for hoeffding on chain 0
        spec = StudySpec(n_chains=5, rho=0.0027, seed=3)
        for row in run_study(spec):
            chain = random_chain(5, 1.0, 5.0, _rng_for(spec.seed, row.chain_id))
            for m in METHODS:
                assert row.fs[m].hex() == tolerance(chain, m, spec.rho).f.hex(), (row.chain_id, m)
            assert row.fs[Method.HOEFFDING] == 3.0

    def test_mc_column(self):
        spec = StudySpec(
            n_chains=4, rho=0.05, seed=17,
            mc_cfg=McConfig(draws=50_000, seed=17),
        )
        rows = run_study(spec)
        assert all(r.mc_t is not None and r.mc_t > 0 for r in rows)
        # the bound must sit above the sampled quantile
        for r in rows:
            assert r.mc_t <= r.ts[Method.CHERNOV]
        assert run_study(spec) == rows

    def test_balance_fields_match_chain(self):
        from stacktol import balance_report

        spec = StudySpec(n_chains=3, rho=0.05, seed=2)
        for row in run_study(spec):
            chain = random_chain(5, 1.0, 5.0, _rng_for(spec.seed, row.chain_id))
            rep = balance_report(chain)
            assert row.s1 == pytest.approx(rep.s1, rel=1e-12)
            assert row.d_factor == pytest.approx(rep.d_factor, rel=1e-12)


def _rng_for(seed: int, chain_id: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(0, chain_id))
    return np.random.Generator(np.random.PCG64(ss))
