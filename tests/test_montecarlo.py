"""Monte Carlo oracle: reproducibility, closed-form targets, stderr calibration."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from stacktol import (
    McConfig,
    StackChain,
    mc_prob,
    mc_quantile,
    sample_output,
    t_rss,
)
from stacktol.montecarlo import _quantiles
from conftest import CASE_BOUNDS

CFG = McConfig(draws=200_000, seed=99)


class TestMcConfig:
    def test_defaults(self):
        cfg = McConfig(seed=1)
        assert cfg.draws == 200_000

    def test_too_few_draws(self):
        with pytest.raises(ValueError):
            McConfig(draws=999, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_range(self, seed):
        with pytest.raises(ValueError):
            McConfig(seed=seed)

    def test_seed_is_required(self):
        with pytest.raises(TypeError):
            McConfig(draws=10_000)

    @pytest.mark.parametrize("seed", [1.5, "7", -0.5])
    def test_seed_is_an_integer(self, seed):
        # int() would pass these, and numpy would reject them at the first draw
        with pytest.raises(ValueError, match="^seed must be a 64-bit unsigned integer, got "):
            McConfig(seed=seed)

    @pytest.mark.parametrize("seed", [np.uint64(2**64 - 1), np.int32(7)])
    def test_integer_seed_types_pass(self, seed):
        assert McConfig(seed=seed).seed == seed

    @pytest.mark.parametrize("draws", [200_000.0, 5000.5, "20000"])
    def test_draws_is_an_integer(self, draws):
        # range would reject these at the first draw, with a TypeError
        with pytest.raises(ValueError, match="^draws must be an integer, got "):
            McConfig(draws=draws, seed=1)

    @pytest.mark.parametrize("draws", [np.int64(20_000), np.uint32(10_000)])
    def test_integer_draws_types_pass(self, draws):
        cfg = McConfig(draws=draws, seed=1)
        assert cfg.draws == draws
        assert mc_quantile(StackChain.from_bounds((1.0, 2.0)), 0.5, cfg).value > 0.0


class TestSampling:
    def test_repeatable(self):
        chain = StackChain.from_bounds((2.0, 1.0))
        a = sample_output(chain, CFG)
        b = sample_output(chain, CFG)
        assert (a == b).all()

    def test_worker_count_invisible(self):
        chain = StackChain.from_bounds((2.0, 1.0, 0.5))
        serial = sample_output(chain, CFG, workers=1)
        parallel = sample_output(chain, CFG, workers=4)
        assert (serial == parallel).all()

    def test_support(self):
        chain = StackChain.from_bounds((1.0, 0.5))
        y = sample_output(chain, CFG)
        assert y.shape == (200_000,)
        assert np.abs(y).max() < 1.5

    def test_symmetric_mean(self):
        chain = StackChain.from_bounds((3.0, 2.0, 1.0))
        y = sample_output(chain, CFG)
        band = 4.0 * y.std() / math.sqrt(len(y))
        assert abs(y.mean()) <= band

    def test_different_seeds_differ(self):
        chain = StackChain.from_bounds((1.0,))
        a = sample_output(chain, McConfig(draws=10_000, seed=1))
        b = sample_output(chain, McConfig(draws=10_000, seed=2))
        assert not (a == b).all()


def _reference_sample(chain, cfg):
    # the stream definition: chunks of 50 000 draws; in chunk k, contributor
    # i draws Generator.uniform(-w, w) from its own substream (i, k), and the
    # contributors are summed in chain order
    parts = []
    for k, start in enumerate(range(0, cfg.draws, 50_000)):
        n = min(50_000, cfg.draws - start)
        y = None
        for i, w in enumerate(chain.weighted_bounds):
            ss = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(i, k))
            u = np.random.Generator(np.random.PCG64(ss)).uniform(-w, w, n)
            y = u if y is None else y + u
        parts.append(y)
    return np.concatenate(parts)


class TestStreamDefinition:
    @pytest.mark.parametrize("bounds", [(0.3,), (2.0, 1e-3), (5.0, 1.0, 0.5, 3.0, 1e6, 0.25, 7.0)])
    @pytest.mark.parametrize("draws", [1000, 50_000, 123_457])
    def test_sample_is_the_uniform_draws_summed(self, bounds, draws):
        chain = StackChain.from_bounds(bounds)
        cfg = McConfig(draws=draws, seed=draws + len(bounds))
        expected = _reference_sample(chain, cfg).tobytes()
        for workers in (1, 2, 3):
            assert sample_output(chain, cfg, workers=workers).tobytes() == expected, workers


OVERFLOWING = [(1e308,), (1.0, 1e308)]  # the second overflows at its second contributor


@pytest.mark.parametrize("bounds", OVERFLOWING)
class TestRangeOverflow:
    """A range 2w past the largest double raises as ``Generator.uniform`` does."""

    MATCH = "^high - low range exceeds valid bounds$"

    def test_sample_output(self, bounds):
        for workers in (1, 2):
            with pytest.raises(OverflowError, match=self.MATCH):
                sample_output(StackChain.from_bounds(bounds), CFG, workers=workers)

    def test_mc_quantile(self, bounds):
        for workers in (1, 2):
            with pytest.raises(OverflowError, match=self.MATCH):
                mc_quantile(StackChain.from_bounds(bounds), 0.05, CFG, workers=workers)

    def test_mc_prob(self, bounds):
        with pytest.raises(OverflowError, match=self.MATCH):
            mc_prob(StackChain.from_bounds(bounds), 1.0, CFG)

    def test_uniform_raises_the_same(self, bounds):
        w = max(bounds)
        with pytest.raises(OverflowError, match=self.MATCH):
            np.random.default_rng(0).uniform(-w, w, 10)


class TestSumOverflow:
    """Every range 2w is finite, but a sum of draws can pass the largest double."""

    CHAIN = StackChain.from_bounds((6e307,) * 4)
    MATCH = "^sum of the draws exceeds the largest double$"

    def test_sample_output(self):
        for workers in (1, 2):
            with pytest.raises(OverflowError, match=self.MATCH):
                sample_output(self.CHAIN, CFG, workers=workers)

    def test_mc_quantile(self):
        for workers in (1, 2):
            with pytest.raises(OverflowError, match=self.MATCH):
                mc_quantile(self.CHAIN, 0.0027, CFG, workers=workers)

    def test_mc_prob(self):
        with pytest.raises(OverflowError, match=self.MATCH):
            mc_prob(self.CHAIN, 1.0, CFG)

    def test_sum_that_stays_finite_is_sampled(self):
        # three of the same bounds stay below the largest double
        y = sample_output(StackChain.from_bounds((6e307,) * 3), CFG, workers=2)
        assert np.isfinite(y).all()


class TestQuantile:
    def test_single_uniform(self):
        est = mc_quantile(StackChain.from_bounds((1.0,)), 0.1, CFG)
        assert est.stderr > 0.0
        assert abs(est.value - 0.9) <= 3.0 * est.stderr

    def test_triangular(self):
        est = mc_quantile(StackChain.from_bounds((1.0, 1.0)), 0.05, CFG)
        exact = 2.0 - 2.0 * math.sqrt(0.05)
        assert abs(est.value - exact) <= 3.0 * est.stderr

    def test_balanced_clt_coverage(self):
        chain = StackChain.from_bounds((1.0,) * 30)
        est = mc_quantile(chain, 0.0027, CFG)
        target = math.sqrt(3.0) * t_rss(chain)
        assert abs(est.value - target) / target <= 0.05

    def test_consistency_with_prob(self):
        chain = StackChain.from_bounds((2.0, 1.5, 0.5))
        q = mc_quantile(chain, 0.05, CFG)
        p = mc_prob(chain, q.value, CFG)
        assert abs(p.value - 0.05) <= 3.0 * max(p.stderr, 1e-12)

    def test_deterministic(self):
        chain = StackChain.from_bounds((1.0, 2.0))
        assert mc_quantile(chain, 0.01, CFG) == mc_quantile(chain, 0.01, CFG)
        assert mc_quantile(chain, 0.01, CFG) == mc_quantile(chain, 0.01, CFG, workers=3)

    def test_caller_sees_nothing_changed(self):
        # mc_quantile and mc_prob reorder their own sample buffer in place:
        # a repeated call, a call at three workers and the caller's own
        # sample must not see it
        chain = StackChain.from_bounds((1.5, 1.0, 0.25))
        cfg = McConfig(draws=123_457, seed=5)
        sample = sample_output(chain, cfg)
        kept = sample.copy()
        first = mc_quantile(chain, 0.0027, cfg)
        assert mc_quantile(chain, 0.0027, cfg) == first
        assert mc_quantile(chain, 0.0027, cfg, workers=3) == first
        assert mc_prob(chain, first.value, cfg) == mc_prob(chain, first.value, cfg)
        assert (sample == kept).all()
        assert (sample_output(chain, cfg) == kept).all()
        assert chain == StackChain.from_bounds((1.5, 1.0, 0.25))
        assert cfg == McConfig(draws=123_457, seed=5)

    def test_seeded_values_pinned(self):
        # literal outputs of one seeded run; any change to sampling or to
        # the quantile arithmetic shows here
        chain = StackChain.from_bounds((2.0, 1.0, 0.5))
        est = mc_quantile(chain, 0.0027, CFG)
        assert est == (3.0970069635119613, 0.005800480558404893)
        assert mc_prob(chain, 3.0, CFG) == (0.005125, 0.0001596673788693232)


QUANTILE_RHOS = (0.9, 0.5, 0.3, 0.05, 0.0027, 1e-6, 1e-12)


def _three_quantiles(rho):
    # the probabilities mc_quantile asks for
    delta = min(rho, 1.0 - rho) / 2.0
    return (1.0 - rho - delta, 1.0 - rho, 1.0 - rho + delta)


def _oracle_hex(y, qs):
    return [float(x).hex() for x in np.quantile(y, qs, method="linear")]


def _quantiles_hex(y, qs):
    return [x.hex() for x in _quantiles(y.copy(), len(y), qs)]


class TestTailQuantiles:
    """``_quantiles`` against ``np.quantile(method="linear")``, compared by float.hex."""

    @pytest.fixture(params=[1000, 1001, 12_345, 200_000])
    def samples(self, request):
        draws = request.param
        rng = np.random.default_rng(draws)
        y = np.abs(rng.uniform(-1.0, 1.0, (3, draws)).sum(axis=0))
        # neighbours far apart, where a + (b-a) g and b - (b-a) (1-g) round apart
        spread = np.exp(rng.uniform(-30.0, 30.0, draws))
        return {"sample": y, "ties": np.round(y, 3), "constant": np.full(draws, 0.7),
                "spread": spread}

    @pytest.mark.parametrize("rho", QUANTILE_RHOS)
    def test_bit_identical(self, samples, rho):
        for y in samples.values():
            qs = _three_quantiles(rho)
            assert _quantiles_hex(y, qs) == _oracle_hex(y, qs)

    def test_clip_to_the_last_order_statistic(self, samples):
        # (n-1) q >= n-1 (only q = 1 gets there) reads the largest draw on
        # both sides; the double below 1 interpolates up to it
        for y in samples.values():
            qs = (1.0, math.nextafter(1.0, 0.0), 1.0 - 1e-12, 0.0)
            assert (len(y) - 1) * qs[0] >= len(y) - 1 > (len(y) - 1) * qs[1]
            assert _quantiles_hex(y, qs) == _oracle_hex(y, qs)
            assert _quantiles(y.copy(), len(y), qs)[0] == y.max()

    def test_bit_identical_on_a_grid(self, samples):
        qs = tuple(float(q) for q in np.linspace(0.0, 1.0, 1001))
        for y in samples.values():
            assert _quantiles_hex(y, qs) == _oracle_hex(y, qs)

    def test_reorders_only(self, samples):
        y = samples["sample"]
        z = y.copy()
        _quantiles(z, len(z), _three_quantiles(0.0027))
        assert (np.sort(z) == np.sort(y)).all()

    @pytest.mark.parametrize("rho", QUANTILE_RHOS)
    def test_from_a_tail(self, samples, rho):
        # the largest values down to the lowest order statistic read, shuffled
        # with any of the others (as the merged tails of several workers
        # are), read the same order statistics as the whole sample
        qs = _three_quantiles(rho)
        rng = np.random.default_rng(5)
        for y in samples.values():
            n = len(y)
            keep = n - math.floor((n - 1) * qs[0])
            z = np.sort(y)
            for extra in sorted({0, 1, min(n - keep, keep + 7)}):
                others = rng.choice(z[:n - keep], extra, replace=False)
                tail = rng.permutation(np.concatenate([z[n - keep:], others]))
                assert [x.hex() for x in _quantiles(tail, n, qs)] == _oracle_hex(y, qs)


def _mc_oracle(chain, rho, cfg):
    # mc_quantile and mc_prob at the quantile, through np.quantile and
    # np.mean over the whole sample
    y = np.abs(sample_output(chain, cfg))
    lo, q, hi = (float(x) for x in np.quantile(y, _three_quantiles(rho), method="linear"))
    delta = min(rho, 1.0 - rho) / 2.0
    stderr = math.sqrt(rho * (1.0 - rho) / cfg.draws) * (hi - lo) / (2.0 * delta)
    return (q.hex(), stderr.hex()), float(np.mean(y >= q)).hex()


class TestStreamedTail:
    """Streamed ``mc_quantile`` and ``mc_prob`` against the whole sample, by float.hex."""

    @pytest.mark.parametrize("draws", [1000, 50_000, 50_001, 123_457])
    @pytest.mark.parametrize("rho", QUANTILE_RHOS)
    def test_bit_identical(self, draws, rho):
        # below the tail-count guard (9 of these cases) mc_quantile refuses,
        # and mc_prob still matches at the whole sample's quantile
        chain = StackChain.from_bounds((1.5, 1.0, 0.25))
        cfg = McConfig(draws=draws, seed=draws)
        est_bits, prob_bits = _mc_oracle(chain, rho, cfg)
        for workers in (1, 2, 3):
            if min(rho, 1.0 - rho) * draws < 10:
                with pytest.raises(ValueError, match="expects fewer than 10 draws in the tail"):
                    mc_quantile(chain, rho, cfg, workers=workers)
                continue
            est = mc_quantile(chain, rho, cfg, workers=workers)
            assert (est.value.hex(), est.stderr.hex()) == est_bits, workers
        assert mc_prob(chain, float.fromhex(est_bits[0]), cfg).value.hex() == prob_bits

    def test_peak_memory_is_a_tail(self):
        # numpy reports its buffers to tracemalloc; 10^6 draws take 8 MB.
        # A first small call loads numpy.random outside the trace.
        chain = StackChain.from_bounds((2.0, 1.0, 0.5))
        mc_quantile(chain, 0.0027, McConfig(draws=10_000, seed=3))
        cfg = McConfig(draws=1_000_000, seed=3)
        for call in (lambda: mc_quantile(chain, 0.0027, cfg), lambda: mc_prob(chain, 3.0, cfg)):
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2**20

    def test_workers_share_one_buffer(self):
        # at rho >= 0.5 each worker keeps most of its share: merging copies of
        # the workers' tails would add about 7 MB to the 8 MB of one worker
        chain = StackChain.from_bounds(CASE_BOUNDS)
        mc_quantile(chain, 0.0027, McConfig(draws=10_000, seed=3), workers=2)
        cfg = McConfig(draws=1_000_000, seed=3)

        def peak(rho, workers):
            tracemalloc.start()
            try:
                mc_quantile(chain, rho, cfg, workers=workers)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for rho in (0.5, 0.9):
            assert peak(rho, 2) <= peak(rho, 1) + 2**20, rho
        assert peak(0.0027, 2) <= 2.43 * 2**20


class TestTailGuard:
    """``mc_quantile`` refuses where min(rho, 1-rho) N, the draws expected in the tail, is < 10."""

    CHAIN = StackChain.from_bounds((1.0, 1.0))

    @pytest.mark.parametrize("rho,draws", [(2.0**-10, 10_240), (1.0 - 2.0**-10, 10_240),
                                           (0.0027, 3704)], ids=["tail", "near_one", "0.0027"])
    def test_at_the_threshold_and_one_draw_below(self, rho, draws):
        # near rho = 1 the upper tail holds min(rho, 1-rho) = 1-rho of the draws
        est = mc_quantile(self.CHAIN, rho, McConfig(draws=draws, seed=1))
        assert est.stderr > 0.0
        message = (f"^rho={rho!r} with draws={draws - 1} expects fewer than 10 draws in the "
                   f"tail; draws >= {draws} would pass$")
        with pytest.raises(ValueError, match=message):
            mc_quantile(self.CHAIN, rho, McConfig(draws=draws - 1, seed=1))

    @pytest.mark.parametrize("rho", [0.005, 0.0027, 1e-4, 3e-6, 0.9999, 1.0 - 2.0**-17])
    def test_names_the_least_draws_that_pass(self, rho):
        # on this chain a draw overflows at once, so a missing guard fails fast
        need = math.ceil(Fraction(10) / Fraction(min(rho, 1.0 - rho)))
        cfg = McConfig(draws=max(1000, need - 1), seed=1)
        with pytest.raises(ValueError, match=f"; draws >= {need} would pass$"):
            mc_quantile(StackChain.from_bounds((1e308,)), rho, cfg)

    def test_smallest_rho(self):
        # 10 / 5e-324 is past the doubles: no count of draws passes
        with pytest.raises(ValueError, match="; draws >= inf would pass$"):
            mc_quantile(self.CHAIN, 5e-324, CFG)

    def test_refused_before_any_draw(self):
        # a draw on this chain raises OverflowError
        for workers in (1, 2):
            with pytest.raises(ValueError, match="^rho=1e-12 with draws=200000 expects "):
                mc_quantile(StackChain.from_bounds((1e308,)), 1e-12, CFG, workers=workers)


class TestProb:
    def test_edges(self):
        chain = StackChain.from_bounds((1.0, 1.0))
        assert mc_prob(chain, 0.0, CFG).value == 1.0
        assert mc_prob(chain, 2.0, CFG).value == 0.0
        assert mc_prob(chain, 5.0, CFG).value == 0.0

    def test_at_the_worst_case_without_a_draw(self):
        # the tail at and past the worst case is empty; a draw on this chain
        # raises OverflowError
        chain = StackChain.from_bounds((1e308,))
        assert mc_prob(chain, 1e308, CFG) == (0.0, 0.0)

    def test_no_hit_below_the_worst_case_raises(self):
        # the exact tail at 14.9 on (5, 4, 3, 2, 1) is 4.34e-11, not 0
        chain = StackChain.from_bounds((5.0, 4.0, 3.0, 2.0, 1.0))
        with pytest.raises(ArithmeticError, match=r"^no draw of 10000 reached t=14\.9; "
                           r"P\(\|Y\| >= t\) is below 3/draws = 0\.0003 at 95 % confidence$"):
            mc_prob(chain, 14.9, McConfig(draws=10_000, seed=1))

    def test_triangular_quarter(self):
        est = mc_prob(StackChain.from_bounds((1.0, 1.0)), 1.0, CFG)
        assert abs(est.value - 0.25) <= 3.0 * est.stderr
        assert est.stderr == pytest.approx(
            math.sqrt(est.value * (1 - est.value) / 200_000), rel=1e-12
        )

    def test_t_domain(self):
        with pytest.raises(ValueError):
            mc_prob(StackChain.from_bounds((1.0,)), -1.0, CFG)
