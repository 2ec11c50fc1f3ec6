"""Chain construction, classical stacks, and balance diagnostics."""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st
import pytest

from stacktol import (
    BalanceReport,
    Contributor,
    StackChain,
    balance_report,
    build_chain,
    t_rss,
    t_wc,
)
from stacktol import chain as chain_module

# frozen 50-digit references for the (5,4,3,2,1) demonstration chain
TABLE_RSS = 7.4161984870956629487
TABLE_S1 = 0.55121719347114764696
# sum_i D_f(w_i, wbar) on (1, 1 + 1e-9, 1 - 1e-9) at its float wbar, f(x) = log(sinh x / x)
NEAR_S1 = 2.7593835406086195e-19
CASE_RSS = 1.2259282197584000472
CASE_D = 0.25087719298245614035


class TestContributor:
    def test_weighted_bound_uses_abs_influence(self):
        assert Contributor("a", 2.0, -0.5).weighted_bound == 1.0
        assert Contributor("a", 2.0).weighted_bound == 2.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(name="", half_width=1.0),
            dict(name="a", half_width=0.0),
            dict(name="a", half_width=-1.0),
            dict(name="a", half_width=math.nan),
            dict(name="a", half_width=math.inf),
            dict(name="a", half_width=1.0, influence=math.nan),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            Contributor(**kwargs)


class TestStackChain:
    def test_build_simple(self):
        ch = build_chain([Contributor("a", 2.0, 1.0)])
        assert ch.weighted_bounds == (2.0,)

    def test_zero_influence_dropped(self):
        ch = build_chain([Contributor("a", 2.0, 0.0), Contributor("b", 1.0, 1.0)])
        assert ch.weighted_bounds == (1.0,)
        assert [c.name for c in ch.contributors] == ["b"]

    def test_all_zero_influence_rejected(self):
        with pytest.raises(ValueError):
            build_chain([Contributor("a", 2.0, 0.0)])

    def test_underflowed_weighted_bound_dropped(self):
        # |influence| * half_width rounds to 0.0: as inert as a zero influence
        ch = build_chain([Contributor("a", 1e-200, 1e-200), Contributor("b", 1.0, 1.0)])
        assert ch.weighted_bounds == (1.0,)
        assert [c.name for c in ch.contributors] == ["b"]

    def test_all_underflowed_rejected(self):
        with pytest.raises(ValueError, match="weighted bound"):
            build_chain([Contributor("a", 1e-200, 1e-200), Contributor("b", 1e-300, -1e-100)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_chain([])

    def test_from_bounds(self):
        ch = StackChain.from_bounds((5, 4, 3, 2, 1))
        assert len(ch) == 5
        assert ch.weighted_bounds == (5.0, 4.0, 3.0, 2.0, 1.0)


class TestClassicalStacks:
    def test_table_chain_values(self, table_chain):
        assert t_wc(table_chain) == 15.0
        assert t_rss(table_chain) == pytest.approx(TABLE_RSS, rel=1e-13)

    def test_case_chain_values(self, case_chain):
        assert t_wc(case_chain) == pytest.approx(2.85, abs=1e-12)
        assert t_rss(case_chain) == pytest.approx(CASE_RSS, rel=1e-13)

    def test_single(self):
        ch = StackChain.from_bounds((3.7,))
        assert t_wc(ch) == 3.7
        assert t_rss(ch) == 3.7

    def test_rss_below_wc(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            ch = StackChain.from_bounds(rng.uniform(0.1, 10.0, n))
            assert t_rss(ch) < t_wc(ch)

    def test_permutation_invariance(self, rng):
        w = list(rng.uniform(0.5, 5.0, 6))
        base = StackChain.from_bounds(w)
        perm = StackChain.from_bounds(w[::-1])
        assert t_wc(base) == pytest.approx(t_wc(perm), rel=1e-15)
        assert t_rss(base) == pytest.approx(t_rss(perm), rel=1e-15)
        rb, rp = balance_report(base), balance_report(perm)
        assert rb.s1 == rp.s1  # each term depends on (w_i, wbar) alone, and fsum is exact
        assert rb.d_factor == pytest.approx(rp.d_factor, rel=1e-15)

    def test_scaling(self, table_chain):
        c = 2.5
        scaled = StackChain.from_bounds([c * w for w in table_chain.weighted_bounds])
        assert t_wc(scaled) == pytest.approx(c * t_wc(table_chain), rel=1e-14)
        assert t_rss(scaled) == pytest.approx(c * t_rss(table_chain), rel=1e-14)
        rb, rs = balance_report(table_chain), balance_report(scaled)
        assert rs.mean == pytest.approx(c * rb.mean, rel=1e-14)
        assert rs.abs_dev_sum == pytest.approx(c * rb.abs_dev_sum, rel=1e-14)
        assert rs.variance == pytest.approx(c * c * rb.variance, rel=1e-14)
        assert rs.d_factor == pytest.approx(rb.d_factor, rel=1e-14)
        assert rs.s1 >= 0.0  # s1 is scale-dependent by design

    def test_sum_past_the_largest_double(self):
        # the worst case overflows; the mean and d_factor stay finite and right
        big = StackChain.from_bounds((1e308, 9e307))
        assert t_wc(big) == math.inf
        rep, ref = balance_report(big), balance_report(StackChain.from_bounds((1.0, 0.9)))
        assert rep.mean == pytest.approx(1e308 * ref.mean, rel=1e-15)
        assert rep.abs_dev_sum == pytest.approx(1e308 * ref.abs_dev_sum, rel=1e-14)
        assert rep.d_factor == pytest.approx(ref.d_factor, rel=1e-14)
        # half of this sum overflows as well
        assert balance_report(StackChain.from_bounds((1.7e308,) * 5)).mean == 1.7e308


class TestBalanceReport:
    def test_all_equal_chain(self):
        rep = balance_report(StackChain.from_bounds((3.0, 3.0, 3.0, 3.0)))
        assert rep == BalanceReport(mean=3.0, variance=0.0, abs_dev_sum=0.0, s1=0.0, d_factor=0.0)

    def test_dispersion_past_the_largest_double(self):
        # the squared deviations, or their sum, pass the largest double where the
        # variance does not: OverflowError from fsum on the first chain, inf on the second
        for w in ((2.5e154, 1.0), (1e170,) * 3 + (1.0000000000000002e170,)):
            rep = balance_report(StackChain.from_bounds(w))
            mean = Fraction(rep.mean)
            variance = sum((Fraction(x) - mean) ** 2 for x in w) / len(w)
            assert rep.variance == pytest.approx(float(variance), rel=1e-15), w
            assert rep.abs_dev_sum == pytest.approx(float(sum(abs(Fraction(x) - mean) for x in w)),
                                                    rel=1e-15), w
        # inf only where the variance itself overflows, and 0, never 0 inf = NaN, at the top
        rep = balance_report(StackChain.from_bounds((1e308, 9e307)))
        assert rep.variance == math.inf and rep.abs_dev_sum == pytest.approx(1e307, rel=1e-15)
        for w in ((1e308,), (1e308, 1e308)):
            rep = balance_report(StackChain.from_bounds(w))
            assert rep.variance == rep.abs_dev_sum == 0.0, w

    def test_table_chain(self, table_chain):
        rep = balance_report(table_chain)
        assert rep.mean == 3.0
        assert rep.variance == 2.0
        assert rep.abs_dev_sum == 6.0
        assert rep.s1 == pytest.approx(TABLE_S1, rel=1e-12)
        assert rep.d_factor == pytest.approx(2.0 / 15.0, rel=1e-15)

    def test_case_chain(self, case_chain):
        rep = balance_report(case_chain)
        assert rep.d_factor == pytest.approx(CASE_D, rel=1e-12)

    def test_s1_zero_iff_equal(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 7))
            w = rng.uniform(0.5, 5.0, n)
            rep = balance_report(StackChain.from_bounds(w))
            if max(w) - min(w) > 1e-6:
                assert rep.s1 > 0.0
        assert balance_report(StackChain.from_bounds((1.7,) * 5)).s1 == 0.0

    def test_s1_near_balance(self):
        rep = balance_report(StackChain.from_bounds((1.0, 1.0 + 1e-9, 1.0 - 1e-9)))
        assert rep.s1 == pytest.approx(NEAR_S1, rel=1e-11, abs=0.0)

    # below about 1e-146 the gap of bounds a few ulps apart, ~ (w eps)^2 / 6, underflows
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(base=st.floats(1e-100, 1e100), n=st.integers(2, 10), ulps=st.integers(0, 8),
           up=st.booleans())
    def test_s1_positive_unless_the_bounds_are_equal(self, base, n, ulps, up):
        moved = base
        for _ in range(ulps):
            moved = math.nextafter(moved, math.inf if up else 0.0)
        s1 = balance_report(StackChain.from_bounds((moved,) + (base,) * (n - 1))).s1
        assert s1 > 0.0 if ulps else s1 == 0.0

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.floats(1e-100, 1e100), min_size=1, max_size=10))
    def test_s1_positive_on_any_unequal_bounds(self, w):
        s1 = balance_report(StackChain.from_bounds(w)).s1
        assert s1 > 0.0 if len(set(w)) > 1 else s1 == 0.0

    def test_s1_single_bound_near_double_max(self):
        assert balance_report(StackChain.from_bounds((1e308,))).s1 == 0.0

    def test_s1_finite_where_2w_overflows(self):
        # 2 * 1e308 overflows; h(x) = -log(x) there, so s1 is scale-free
        top = balance_report(StackChain.from_bounds((1e308, 5e307))).s1
        ref = balance_report(StackChain.from_bounds((1e300, 5e299))).s1
        assert ref == pytest.approx(math.log(1.125), rel=1e-12)
        assert top == pytest.approx(ref, rel=1e-12)

    def test_d_factor_range(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 9))
            rep = balance_report(StackChain.from_bounds(rng.uniform(0.1, 10.0, n)))
            assert 0.0 <= rep.d_factor < (n - 1) / n + 1e-15


class TestGaussRest:
    """chain._gauss_rest: the two-node Gauss rule of the groups other than the largest."""

    @staticmethod
    def _moments(pairs, k):
        return math.fsum(c * v ** (2 * k) for v, c in pairs)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.floats(1e-3, 1e3), min_size=3, max_size=40))
    def test_matches_the_rests_power_sums(self, w):
        s = StackChain.from_bounds(w)._sums
        top = max(s.groups)[0]
        rule = chain_module._gauss_rest(s.groups, top)
        rest = [(v, c) for v, c in s.groups if v != top]
        if not rest:
            assert rule == ()
            return
        assert 1 <= len(rule) <= 2
        assert all(type(c) is float and c > 0.0 for _, c in rule)
        # the nodes lie within the rest's range, each w = v^2 to a few ulps of max w
        lo, hi = min(v * v for v, _ in rest), max(v * v for v, _ in rest)
        assert all(lo - 1e-12 * hi <= v * v <= hi * (1 + 1e-12) for v, _ in rule)
        # count, sum v^2 and, with two nodes, sum v^4 and v^6
        for k in range(4 if len(rule) == 2 else 2):
            ref = self._moments(rest, k)
            assert self._moments(rule, k) == pytest.approx(ref, rel=1e-9, abs=0.0), k

    def test_formed_only_above_the_gate(self):
        # the start that reads it runs only on chains of more than _SPLIT_GROUPS groups
        n = chain_module._SPLIT_GROUPS
        assert StackChain.from_bounds(range(1, n + 1))._sums.surrogate == ()
        assert len(StackChain.from_bounds(range(1, n + 2))._sums.surrogate) == 3

    def test_one_node_where_the_rest_agrees(self):
        # bounds that agree to 1e-12: two nodes would agree to half the double precision
        agree = (50.0,) + tuple(1.0 + 5e-15 * i for i in range(199))
        (_, (v, c)) = StackChain.from_bounds(agree)._sums.surrogate
        assert c == 199.0

    def test_empty_where_top_is_every_bound(self):
        assert chain_module._gauss_rest(((1.0, 7.0),), 1.0) == ()

    def test_no_node_underflows_far_below_top(self):
        # the rest scaled to mean 1 is about 1e-198, whose squares underflow
        s = StackChain.from_bounds((1e200,) + tuple(range(1, 31)))._sums
        rule = s.surrogate[1:]
        assert len(rule) == 2 and all(1e-199 < v < 1e-196 for v, _ in rule), rule

    def test_equivariant_under_powers_of_two(self):
        w = (7.0, 0.3, 0.5, 0.11, 1.9, 2.2, 0.7) + tuple(0.01 * i for i in range(1, 20))
        ref = StackChain.from_bounds(w)._sums.surrogate
        assert ref
        for e in (-1000, -3, 5, 900):
            assert StackChain.from_bounds([math.ldexp(x, e) for x in w])._sums.surrogate == ref
