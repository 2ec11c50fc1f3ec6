"""Random-chain studies: generation, determinism, row consistency."""

import numpy as np
import pytest

from stacktol import (
    McConfig,
    Method,
    StudySpec,
    StudyRow,
    balance_report,
    gaussian_l,
    mc_quantile,
    random_chain,
    run_study,
    study,
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

    @pytest.mark.parametrize("seed", [1.5, "7", -0.5])
    def test_seed_is_an_integer(self, seed):
        # int() would pass these, and numpy would reject them at the first draw
        with pytest.raises(ValueError, match="^seed must be a 64-bit unsigned integer, got "):
            StudySpec(n_chains=1, rho=0.05, seed=seed)

    @pytest.mark.parametrize("field", ["n_inputs", "n_chains"])
    @pytest.mark.parametrize("value", [2.5, 2.0, "3"])
    def test_counts_are_integers(self, field, value):
        # numpy or range would reject these in run_study, with a TypeError
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            StudySpec(**{"n_chains": 1, "rho": 0.05, "seed": 1, field: value})

    def test_numpy_integer_counts_pass(self):
        spec = StudySpec(n_inputs=np.int32(3), n_chains=np.uint8(2), rho=0.05, seed=1)
        assert run_study(spec) == run_study(StudySpec(n_inputs=3, n_chains=2, rho=0.05, seed=1))

    def test_numpy_integer_seed_passes(self):
        spec = StudySpec(n_chains=1, rho=0.05, seed=np.uint64(3))
        assert run_study(spec) == run_study(StudySpec(n_chains=1, rho=0.05, seed=3))

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

    @pytest.mark.parametrize("seed", [17, 2**64 - 1])
    def test_pooled_rows_are_the_rows_built_one_at_a_time(self, seed):
        spec = StudySpec(n_chains=7, rho=0.0027, seed=seed,
                         mc_cfg=McConfig(draws=60_001, seed=seed))
        expected = []
        for i in range(spec.n_chains):
            chain = random_chain(5, 1.0, 5.0, _rng_for(seed, i))
            rep = balance_report(chain)
            results = [tolerance(chain, m, spec.rho) for m in METHODS]
            cfg = McConfig(draws=60_001, seed=_mc_seed_for(seed, i))
            expected.append(StudyRow(
                chain_id=i, s1=rep.s1, d_factor=rep.d_factor,
                ts={r.method: r.t for r in results}, fs={r.method: r.f for r in results},
                mc_t=mc_quantile(chain, spec.rho, cfg).value,
            ))
        assert [_row_hex(r) for r in run_study(spec)] == [_row_hex(r) for r in expected]

    @pytest.mark.parametrize("cores", [1, 3, 16])
    def test_rows_do_not_depend_on_the_core_count(self, monkeypatch, cores):
        spec = StudySpec(n_chains=5, rho=0.05, seed=8, mc_cfg=McConfig(draws=20_000, seed=8))
        rows = run_study(spec)
        monkeypatch.setattr(study, "_cores", lambda: cores)
        assert [_row_hex(r) for r in run_study(spec)] == [_row_hex(r) for r in rows]

    def test_rows_are_mc_quantile_at_their_seeds(self):
        # each row samples with the config's draws and its own seed
        spec = StudySpec(n_chains=3, rho=0.05, seed=1, mc_cfg=McConfig(draws=5000, seed=1))
        for r in run_study(spec):
            cfg = McConfig(draws=5000, seed=_mc_seed_for(1, r.chain_id))
            chain = random_chain(5, 1.0, 5.0, _rng_for(1, r.chain_id))
            assert r.mc_t.hex() == mc_quantile(chain, 0.05, cfg).value.hex()

    def test_mc_below_the_tail_guard_is_refused(self):
        # rho N = 0.06 expected draws in the tail: mc_quantile's guard refuses the study
        spec = StudySpec(n_chains=3, rho=1e-6, seed=1, mc_cfg=McConfig(draws=60_000, seed=1))
        with pytest.raises(ValueError, match="^rho=1e-06 with draws=60000 expects "):
            run_study(spec)

    def test_balance_fields_match_chain(self):
        spec = StudySpec(n_chains=3, rho=0.05, seed=2)
        for row in run_study(spec):
            chain = random_chain(5, 1.0, 5.0, _rng_for(spec.seed, row.chain_id))
            rep = balance_report(chain)
            assert row.s1 == pytest.approx(rep.s1, rel=1e-12)
            assert row.d_factor == pytest.approx(rep.d_factor, rel=1e-12)


def _rng_for(seed: int, chain_id: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(0, chain_id))
    return np.random.Generator(np.random.PCG64(ss))


def _mc_seed_for(base: int, chain_id: int) -> int:
    ss = np.random.SeedSequence(entropy=base, spawn_key=(1, chain_id))
    return int(ss.generate_state(2, np.uint64)[0])


def _row_hex(row):
    return (row.chain_id, row.s1.hex(), row.d_factor.hex(),
            [(m, t.hex()) for m, t in row.ts.items()], [(m, f.hex()) for m, f in row.fs.items()],
            None if row.mc_t is None else row.mc_t.hex())
