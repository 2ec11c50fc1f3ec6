"""The Chernoff-family lambda root: Newton steps in log lambda, their cost and their answers."""

import math
import random
import sys

import mpmath
import pytest

from stacktol import (
    StackChain,
    analyze_all,
    bounds,
    chernov_prob,
    chernov_t,
    lipschitz_t,
    quadratic_t,
    t_wc,
    tolerance,
)
from stacktol import chain as chain_module
from stacktol import numerics
from oracles import exact_abs_tail

CHAINS = {
    "single": (1.0,),
    "pair": (1.0, 2.0),
    "table": (5.0, 4.0, 3.0, 2.0, 1.0),
    "case": (1.0, 0.5, 0.25, 0.23, 0.2, 0.2, 0.15, 0.13, 0.1, 0.09),
    "long": tuple(1.0 + 0.02 * i for i in range(200)),
    "tiny": (1e-200, 2e-200),
    "huge": (1e200, 2e200),
    "near": (1.0, 1.00001),
    "decimal": (0.1, 0.1, 0.1),
}
RHOS = (0.1, 0.0027, 1e-6, 1e-12, 1e-300)
SOLVERS = (chernov_t, lipschitz_t, quadratic_t)

# Chains that repeat catalogue tolerances, with mixed multiplicities: a
# chernov gap sums c m(lam v) over distinct bounds v of count c, and fl(c m)
# rounds where a sum of c copies of m would round differently.
CATALOGUE_VALUES = (0.05, 0.1, 0.2, 0.25, 0.5, 1.0, 2.0)
CATALOGUE = {
    "catalogue": (0.1, 0.25, 0.1, 0.5, 0.25, 0.1),
    "catalogue_long": (0.05,) * 31 + (0.2,) * 17 + (1.0,) * 12,
}


def catalogue_chains(count, seed=13):
    """``count`` chains of 2 to 10 bounds, each drawn from at most 3 catalogue values."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        values = rng.sample(CATALOGUE_VALUES, rng.randint(1, 3))
        out.append(tuple(rng.choice(values) for _ in range(rng.randint(2, 10))))
    return out


def ulp_balanced_chains(count, seed=17):
    """``count`` chains of n equal bounds, one of them moved by 1, 2 or 4 ulps."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n, base = rng.choice((1, 2, 3, 5, 10, 200)), rng.uniform(0.1, 10.0)
        moved, toward = base, rng.choice((0.0, math.inf))
        for _ in range(rng.choice((1, 2, 4))):
            moved = math.nextafter(moved, toward)
        out.append((moved,) + (base,) * (n - 1))
    return out


# (chernov, lipschitz, quadratic) t from the bisection in lambda that this
# solver replaced; bisection stopped at the upper edge of a bracket 1e-9 wide.
# On ("pair", 0.0027) the gap rounds just above the target at the last
# Newton iterates, where the bound there still holds.  "near" (and "decimal",
# while its float mean lay an ulp off its bounds) have a quadratic penalty
# that overflows far right of the root.
BISECTION_T = {
    ("single", 0.1): (0.9632120558950119, 0.9632120558950119, 0.9632120558950119),
    ("single", 0.0027): (0.9990067255088534, 0.9990067255088534, 0.9990067255088534),
    ("single", 1e-06): (0.9999996321205609, 0.9999996321205609, 0.9999996321205609),
    ("single", 1e-12): (0.9999999999996338, 0.9999999999996338, 0.9999999999996338),
    ("single", 1e-300): (1.0, 1.0, 1.0),
    ("pair", 0.1): (2.534622019497987, 3.506435343102945, 3.194936692822296),
    ("pair", 0.0027): (2.9235376940312334, 3.9188994774188384, 4.407761502268207),
    ("pair", 1e-06): (2.998528482236064, 3.998439219715487, 5.943127413854883),
    ("pair", 1e-12): (2.9999985284822417, 3.9999984392197225, 7.650015985440999),
    ("pair", 1e-300): (3.0, 4.0, 29.10286577032601),
    ("table", 0.1): (9.476002547575973, 14.887957996239676, 11.986062043778617),
    ("table", 0.0027): (12.432585514285101, 18.05618950344793, 17.397931877797344),
    ("table", 1e-06): (14.473575893771736, 20.393793242122022, 24.748289643157804),
    ("table", 1e-12): (14.966784884409243, 20.96175093937502, 32.94539075307465),
    ("table", 1e-300): (15.0, 21.0, 130.78039873615947),
    ("case", 0.1): (1.5189084507885613, 3.0946928389051673, 2.3944586740365486),
    ("case", 0.0027): (2.0051487966970276, 3.620728308216752, 3.5466101997050172),
    ("case", 1e-06): (2.480407306367944, 4.218547708803662, 5.226876509303912),
    ("case", 1e-12): (2.7572892679477796, 4.5865539000009425, 7.243065829269394),
    ("case", 1e-300): (2.85, 4.71, 33.02720426216003),
    ("long", 0.1): (63.918088103177865, 259.66784855102316, 71.84186737255416),
    ("long", 0.0027): (94.67659199998032, 288.45524594008714, 106.60454643052437),
    ("long", 1e-06): (139.47610073180087, 330.54979655993503, 157.67001188215636),
    ("long", 1e-12): (192.8869268265596, 381.118602585284, 219.57880733769537),
    ("long", 1e-300): (585.2963633788181, 784.1346273045795, 958.0517230746359),
    ("tiny", 0.1): (2.5346220194979868e-200, 3.506435343102945e-200, 3.194936692822296e-200),
    ("tiny", 0.0027): (2.9235376940312334e-200, 3.918899477418838e-200, 4.407761502268207e-200),
    ("tiny", 1e-06): (2.9985284822360634e-200, 3.998439219715487e-200, 5.943127413854883e-200),
    ("tiny", 1e-12): (2.999998528482241e-200, 3.9999984392197223e-200, 7.650015985440999e-200),
    ("tiny", 1e-300): (3e-200, 4e-200, 2.9102865770326006e-199),
    ("huge", 0.1): (2.5346220194979866e+200, 3.506435343102945e+200, 3.194936692822296e+200),
    ("huge", 0.0027): (2.9235376940312332e+200, 3.918899477418838e+200, 4.407761502268207e+200),
    ("huge", 1e-06): (2.998528482236064e+200, 3.9984392197154866e+200, 5.943127413854884e+200),
    ("huge", 1e-12): (2.9999985284822418e+200, 3.9999984392197223e+200, 7.650015985440998e+200),
    ("huge", 1e-300): (3e+200, 4e+200, 2.9102865770326007e+201),
    ("near", 0.1): (1.6709652501864714, 1.670975250186439, 1.670965250288792),
    ("near", 0.0027): (1.945942714610816, 1.9459527146108158, 1.9459427155456048),
    ("near", 1e-06): (1.9989694746077227, 1.998979474607723, 1.9989695226595763),
    ("near", 1e-12): (2.000008959474611, 2.000018959474611, 2.0000227484381186),
    ("near", 1e-300): (2.00001, 2.00002, 2.000266744565357),
    ("decimal", 0.1): (0.2186312782784601, 0.21863127827846024, 0.21863127827846018),
    ("decimal", 0.0027): (0.275604969921507, 0.27560496992150707, 0.275604969921507),
    ("decimal", 1e-06): (0.2982480833651893, 0.2982480833651893, 0.2982480833651893),
    ("decimal", 1e-12): (0.29998248083364515, 0.29998248083364526, 0.2999824808336452),
    ("decimal", 1e-300): (0.30000000000000004, 0.3000000000000001, 0.30000000000000127),
}


@pytest.mark.parametrize("name,rho", list(BISECTION_T))
def test_agrees_with_bisection_from_below(name, rho):
    # the bound where the root stops exceeds the optimum by at most about
    # 5e-15 of t, so it sits at or below the bisection's upper edge, by at
    # most the bracket width
    chain = StackChain.from_bounds(CHAINS[name])
    for solver, old in zip(SOLVERS, BISECTION_T[name, rho]):
        t = solver(chain, rho).t
        assert old * (1.0 - 2e-9) <= t <= old * (1.0 + 1e-12), solver.__name__


def _exact_tail_chains():
    """CHAINS of at most 5 bounds, and the first two ulp-balanced chains of each n in 2 to 10."""
    chains = {k: w for k, w in CHAINS.items() if len(w) <= 5}
    balanced = ulp_balanced_chains(40)
    for n in (2, 3, 5, 10):
        for i, w in enumerate([w for w in balanced if len(w) == n][:2]):
            chains[f"ulp{n}_{i}"] = w
    return chains


# the exact tail's inclusion-exclusion sums 2^n terms: at most 10 bounds
EXACT_TAIL_CHAINS = _exact_tail_chains()


@pytest.mark.parametrize("name", list(EXACT_TAIL_CHAINS))
@pytest.mark.parametrize("rho", RHOS)
def test_never_below_the_exact_quantile(name, rho):
    w = EXACT_TAIL_CHAINS[name]
    chain = StackChain.from_bounds(w)
    for solver in SOLVERS:
        assert exact_abs_tail(w, solver(chain, rho).t) <= rho, solver.__name__


def test_limit_returned_exactly_once_t_stops_changing(gap_terms):
    # wbar * t(lambda) rounded up would sit a few ulps above it
    for name in ("pair", "table", "case", "tiny", "huge", "near"):
        chain = StackChain.from_bounds(CHAINS[name])
        assert lipschitz_t(chain, 1e-300).t == BISECTION_T[name, 1e-300][1]
    # the root lies past _LAM_MAX, where the clamp gives the limit: the small
    # bounds are far from saturated there ("single" is pinned in T_BITS and
    # at subnormal rho)
    for w in ((3.0, 1e-280, 1e-280), (1.0, 1e-250)):
        chain = StackChain.from_bounds(w)
        gap_terms.clear()
        assert chernov_t(chain, 1e-300).t == t_wc(chain), w
        assert gap_terms[-1][0] == bounds._LAM_MAX, w


@pytest.mark.parametrize("rho", [0.1, 0.0027, 1e-6, 1e-12])
def test_repeated_bounds_never_below_the_exact_quantile(rho):
    for w in catalogue_chains(40):
        chain = StackChain.from_bounds(w)
        for method in ("wc", "hoeffding", "chernov", "lipschitz", "quadratic"):
            assert exact_abs_tail(w, tolerance(chain, method, rho).t) <= rho, (w, method)


def _analyze_bits(w, rho):
    return [tuple(x.hex() if isinstance(x, float) else x for x in tuple(r))
            for r in analyze_all(StackChain.from_bounds(w), rho)]


@pytest.mark.parametrize("name", ["case", "long", *CATALOGUE])
def test_contributor_order_is_moot(name):
    # every sum over the contributors is an fsum, and equal bounds group in
    # any order, so a permuted chain gives the same bits
    chains = [CHAINS[name] if name in CHAINS else CATALOGUE[name]]
    if name == "catalogue":
        chains += catalogue_chains(20)
    rng = random.Random(5)
    for w in chains:
        shuffled = list(w)
        rng.shuffle(shuffled)
        for rho in (0.1, 1e-12):
            ref = _analyze_bits(w, rho)
            assert _analyze_bits(w[::-1], rho) == ref, w
            assert _analyze_bits(shuffled, rho) == ref, w


def _kernel_spy(monkeypatch, kernel):
    """(lambda, group count) of every call of bounds' ``kernel``, in order."""
    calls = []
    original = getattr(bounds, kernel)

    def counted(lam, groups):
        calls.append((lam, len(groups)))
        return original(lam, groups)
    monkeypatch.setattr(bounds, kernel, counted)
    return calls


@pytest.fixture
def gap_terms(monkeypatch):
    """(lambda, group count) of every gap evaluation: each is one call of the m-and-q kernel."""
    return _kernel_spy(monkeypatch, "_legendre_sums")


@pytest.mark.parametrize("name", ["single", "pair", "table", "long"])
@pytest.mark.parametrize("rho", [0.1, 0.0027, 1e-6, 1e-12])
def test_few_gap_evaluations_per_solve(gap_terms, name, rho):
    chain = StackChain.from_bounds(CHAINS[name])
    for solver in SOLVERS:
        gap_terms.clear()
        solver(chain, rho)
        assert 1 <= len(gap_terms) <= 10, solver.__name__


@pytest.mark.parametrize("rho", [0.1, 0.0027, 1e-6, 1e-12])
def test_no_gap_evaluated_twice(gap_terms, rho):
    # each gap evaluation serves one Newton step, and the root stops at the
    # first lambda whose own step is small, without evaluating it again
    chernov_t(StackChain.from_bounds(CHAINS["table"]), rho)
    lams = [lam for lam, _ in gap_terms]
    assert lams and len(set(lams)) == len(lams)


@pytest.mark.parametrize("rho", [0.1, 0.0027, 1e-6, 1e-12])
def test_mean_gap_evaluations_per_solve(gap_terms, rho):
    # the root stops at the first lambda whose own Newton step is small, on
    # either side, so no step is taken only to reach the safe side
    counts = []
    for w in CHAINS.values():
        chain = StackChain.from_bounds(w)
        for solver in SOLVERS:
            gap_terms.clear()
            solver(chain, rho)
            counts.append(len(gap_terms))
    assert sum(counts) / len(counts) <= 4.0


def test_mean_gap_evaluations_on_repeated_bounds(gap_terms):
    # a few distinct bounds, some of them saturated at the root: the start on
    # -(n / 2) log(1 + curv lambda^2 / n) lies nearer the root than the
    # Gaussian point, from which the same root takes 4.3 evaluations here
    counts = []
    for w in catalogue_chains(40):
        chain = StackChain.from_bounds(w)
        for rho in (0.1, 0.0027, 1e-6, 1e-12):
            gap_terms.clear()
            chernov_t(chain, rho)
            counts.append(len(gap_terms))
    assert sum(counts) / len(counts) <= 3.6


def _passes(terms, chain):
    """(gap evaluations over all of ``chain``'s groups, the rest) in ``terms``.

    On a chain with more than _SPLIT_GROUPS groups the rest are the start's, each
    over the surrogate's at most 1 + _GAUSS_NODES groups."""
    full = sum(groups == len(chain._sums.groups) for _, groups in terms)
    most = 1 + chain_module._GAUSS_NODES
    assert all(groups <= most for _, groups in terms if groups != len(chain._sums.groups))
    return full, len(terms) - full


def _mean_passes(gap_terms, chains, rhos):
    """The mean (full, start) gap evaluations per chernov_t over ``chains`` x ``rhos``."""
    full = start = 0
    for w in chains:
        chain = StackChain.from_bounds(w)
        for rho in rhos:
            gap_terms.clear()
            chernov_t(chain, rho)
            f, s = _passes(gap_terms, chain)
            full, start = full + f, start + s
    solves = len(chains) * len(rhos)
    return full / solves, start / solves


def test_mean_gap_evaluations_with_one_dominant_bound(gap_terms):
    # one bound of 50 among 199 of about 1 saturates long before the root: the
    # start on the surrogate that keeps it exact lands next to the root (5.58
    # full evaluations on one curvature shared by all bounds, 3.0 from the curve
    # that split it off, 1.5 with the rest as a two-node Gauss rule, one with four
    # nodes), and right of the root the steps are taken in log |g|, so the root
    # does not crawl back from far right
    chains = []
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        chains.append((50.0,) + tuple(rng.uniform(0.5, 1.5) for _ in range(199)))
    full, start = _mean_passes(gap_terms, chains, (0.1, 0.0027, 1e-6, 1e-12))
    assert full <= 1.0 and start <= 5.59, (full, start)


# the four rho of the benchmark's workloads
COUNT_RHOS = (0.1, 0.0027, 1e-6, 1e-12)


def family_chain(family, n, seed):
    """n bounds from U[1, 5] ("uniform"), log-uniform over 1 to 100 ("loguniform"),
    one bound of 2.5 n then n - 1 from U[0.5, 1.5] ("dominant"), or bounds of 2.5 n
    and 2 n then n - 2 from U[0.5, 1.5] ("two_dominant")."""
    rng = random.Random(seed)
    if family == "uniform":
        return tuple(rng.uniform(1.0, 5.0) for _ in range(n))
    if family == "loguniform":
        return tuple(10.0 ** rng.uniform(0.0, 2.0) for _ in range(n))
    if family == "two_dominant":
        return (2.5 * n, 2.0 * n) + tuple(rng.uniform(0.5, 1.5) for _ in range(n - 2))
    return (2.5 * n,) + tuple(rng.uniform(0.5, 1.5) for _ in range(n - 1))


# mean (full, start) gap evaluations per chernov_t over seeds 1 to 3 x COUNT_RHOS:
# the full ones are over all the chain's groups, the start's over the surrogate's, whose
# rest is its two-node Gauss rule at 32 and 64 groups and its rule of four nodes at 200
# (chain._FOUR_NODE_GROUPS).  On one curvature shared by all bounds, the dominant family
# took 7.58, 6.92 and 6.42 full evaluations (its large bound saturates first) and
# log-uniform 4.25, 3.83 and 3.5.  From the curve that split off the largest bound
# they took: dominant 3.5, 3.5 and 3.25; log-uniform 4.08, 3.75 and 3.5; uniform
# 3.08, 3.0 and 2.67; two-dominant 7.33, 7.08 and 5.75 (its second bound saturates
# early too).  With the rest as a two-node Gauss rule at 200 groups they took:
# dominant 1.5, log-uniform 2.5, uniform 1.75 and two-dominant 2.25
MANY_GROUP_CEILINGS = {
    ("dominant", 32): (2.0, 7.75), ("dominant", 64): (1.75, 6.75),
    ("dominant", 200): (1.0, 6.42),
    ("loguniform", 32): (3.34, 4.09), ("loguniform", 64): (3.0, 3.84),
    ("loguniform", 200): (1.34, 3.5),
    ("uniform", 32): (2.5, 3.09), ("uniform", 64): (2.25, 3.0), ("uniform", 200): (1.0, 2.67),
    ("two_dominant", 32): (2.84, 5.75), ("two_dominant", 64): (2.5, 5.84),
    ("two_dominant", 200): (1.0, 5.92),
}


@pytest.mark.parametrize("family,n", list(MANY_GROUP_CEILINGS))
def test_mean_gap_evaluations_on_many_groups(gap_terms, family, n):
    chains = [family_chain(family, n, seed) for seed in (1, 2, 3)]
    full, start = _mean_passes(gap_terms, chains, COUNT_RHOS)
    full_ceiling, start_ceiling = MANY_GROUP_CEILINGS[family, n]
    assert full <= full_ceiling and start <= start_ceiling, (full, start)


@pytest.mark.parametrize("rho", [0.0027, 1e-300, 5e-324])
def test_split_start_at_the_extremes(monkeypatch, rho):
    # the start lands within 1e-14 of the plain start's t on: one bound of 1e200
    # among 199 of about 1, whose squares, scaled to mean 1, would underflow
    # unless the rule is formed on the rest scaled by a power of two; a rest whose
    # bounds agree to 1e-12, whose rule is one node; and a rest with one far outlier
    rng = random.Random(4)
    rest = tuple(rng.uniform(0.5, 1.5) for _ in range(199))
    agree = tuple(1.0 + 5e-15 * i for i in range(199))
    chains = [StackChain.from_bounds(w)
              for w in (CHAINS["long"], family_chain("dominant", 200, 1), (1e200,) + rest,
                        (50.0,) + agree, (50.0, 1e-6) + rest[1:])]
    assert all(len(c._sums.groups) > chain_module._SPLIT_GROUPS for c in chains)
    assert [len(c._sums.surrogate) for c in chains] == [5, 5, 5, 2, 5]
    ts = [chernov_t(c, rho).t for c in chains]
    assert all(math.isfinite(t) and t <= t_wc(c) for c, t in zip(chains, ts)), ts
    # every chain on the plain start
    monkeypatch.setattr(bounds, "_split_start", lambda m, target, start, cap: start)
    assert ts == pytest.approx([chernov_t(c, rho).t for c in chains], rel=1e-14, abs=0.0)


def test_split_start_entered_only_above_the_gate(monkeypatch):
    # chain alone decides which chains carry the surrogate; the quantile starts on
    # it wherever the member carries one, and the balanced members never do
    entered = []
    split_start = bounds._split_start

    def start(m, *args):
        entered.append(len(m.groups))
        return split_start(m, *args)
    monkeypatch.setattr(bounds, "_split_start", start)
    n = chain_module._SPLIT_GROUPS
    for size, expect in ((n, []), (n + 1, [n + 1])):
        chain = StackChain.from_bounds(range(1, size + 1))
        for solver, want in ((chernov_t, expect), (lipschitz_t, []), (quadratic_t, [])):
            entered.clear()
            solver(chain, 0.0027)
            assert entered == want, (size, solver.__name__)


@pytest.mark.parametrize("rho", [5e-324, 1e-310])
def test_subnormal_rho_gives_a_finite_t(rho):
    # -2 log(rho / 2) / n is past expm1's range at n = 1 and 2: the start
    # goes to the cap there, and t is still finite
    for name, w in CHAINS.items():
        chain = StackChain.from_bounds(w)
        ts = [solver(chain, rho).t for solver in SOLVERS]
        assert all(math.isfinite(t) for t in ts), (name, ts)
        if name == "single":
            assert ts == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("rho", [0.1, 0.0027, 1e-6, 1e-12])
def test_quantile_and_prob_agree(rho):
    # chernov_t is the optimized bound at a lambda next to the optimum, so the
    # optimized bound at that t is rho less the tiny excess and the rounding up
    for w in [*CHAINS.values(), *catalogue_chains(40)]:
        chain = StackChain.from_bounds(w)
        t = chernov_t(chain, rho).t
        if t < t_wc(chain):
            assert 0.99 * rho <= chernov_prob(chain, t) <= rho, (w, t)


@pytest.mark.parametrize("solver", SOLVERS)
def test_quantile_reports_its_failures(monkeypatch, solver):
    chain = StackChain.from_bounds(CHAINS["table"])
    monkeypatch.setattr(bounds, "_legendre_sums", lambda lam, groups: (math.nan, 1.0))
    with pytest.raises(numerics.NonFiniteError):
        solver(chain, 0.0027)
    # a gap that jumps across the target at lambda = 3: the bracket closes
    # on it, but no Newton step there ever falls below the tolerance
    target = math.log(0.0027 / 2.0)
    jump = lambda m, lam: (target + (1.0 if lam < 3.0 else -1.0), -1.0)  # noqa: E731
    monkeypatch.setattr(bounds, "_gap", jump)
    with pytest.raises(numerics.ConvergenceError):
        solver(chain, 0.0027)


def test_stalled_newton_step_stops(gap_terms):
    # here g rounds just above the target where the Newton step no longer
    # moves lambda: that step is below the tolerance, so the root stops there
    chain = StackChain.from_bounds((2458938.8200963996, 75.47651397188778, 205532.58582615896))
    quadratic_t(chain, 1e-100)
    assert 1 <= len(gap_terms) <= 10


def test_equal_bounds_are_one_group(gap_terms):
    # a chain of 1000 equal bounds costs one term per gap evaluation, like the relaxations
    chernov_t(StackChain.from_bounds((2.5,) * 1000), 0.0027)
    assert gap_terms and {groups for _, groups in gap_terms} == {1}


def test_analyze_all_forms_no_balance_gap(monkeypatch):
    # airbus needs only the dominance factor, so no Jensen gap is formed; the
    # gap reaches the kernels through chain's own bindings.  On "long" (wbar =
    # 2.99) balance_report's gap takes one call for the 74 bounds within
    # wbar / 4 of wbar, at 8 nodes each, and one of each kernel for the 126
    # others and wbar; it took 201 h_stable calls before the kernels formed it
    calls, terms = [], []

    def counted(kernel):
        original = getattr(chain_module, kernel)

        def call(lam, groups):
            calls.append(kernel)
            terms.append(len(groups))
            return original(lam, groups)
        return call

    for kernel in ("_legendre_sums", "_co_langevin_sum"):
        monkeypatch.setattr(chain_module, kernel, counted(kernel))
    chain = StackChain.from_bounds(CHAINS["long"])
    analyze_all(chain, 0.0027)
    assert calls == []
    chain_module.balance_report(chain)
    assert calls == ["_legendre_sums", "_legendre_sums", "_co_langevin_sum"]
    assert terms == [8 * 74, 126 + 1, 1 + 126]


def test_kernel_counts_are_floats(monkeypatch):
    # the kernels multiply each term by its count c: CPython 3.11 specializes
    # float * float but sends int * float down its generic path, which cost the
    # long-chain solves about 5 %.  Every count is an integer below 2^53, so a float
    # count gives the same bits; an int one put back fails here, not in a timing.
    # The Gauss rule's counts, which weight the start's surrogate, are floats that
    # need not be integers
    seen = []

    def counted(kernel):
        original = getattr(chain_module, kernel)

        def call(lam, groups):
            seen.extend(c for _, c in groups)
            return original(lam, groups)
        return call

    for kernel in ("_legendre_sums", "_co_langevin_sum"):
        monkeypatch.setattr(chain_module, kernel, counted(kernel))
    for w in [*CHAINS.values(), *catalogue_chains(20)]:
        chain = StackChain.from_bounds(w)
        s = chain._sums
        counts = [c for _, c in s.groups]
        for method in (bounds.Method.CHERNOV, bounds.Method.LIPSCHITZ, bounds.Method.QUADRATIC):
            m = bounds._member(chain, method)
            counts += [c for _, c in m.groups]
        assert all(type(c) is float and c.is_integer() for c in counts), w
        assert all(type(c) is float for _, c in s.surrogate), w
        chain_module.balance_report(chain)  # the Jensen gap's node weights and far counts
    assert seen and all(type(c) is float for c in seen)


def test_newton_path_linear_root():
    # g is linear in log x, so one Newton step lands on the root
    g = lambda x: -math.log(x)  # noqa: E731
    dg = lambda x: -1.0  # noqa: E731
    root, _ = numerics._root(lambda x: (g(x), dg(x)), -2.0, 100.0, 1.0, math.inf)
    assert root == pytest.approx(math.exp(2.0), rel=1e-15)


def test_newton_step_out_of_the_bracket_is_replaced_by_bisection():
    # g = -tanh(log x) is flat far right of its root, where a Newton step
    # lands far left of the bracket
    g = lambda x: -math.tanh(math.log(x))  # noqa: E731
    dg = lambda x: -1.0 / math.cosh(math.log(x)) ** 2  # noqa: E731
    root, _ = numerics._root(lambda x: (g(x), dg(x)), -0.9, math.exp(5.0), 0.5, math.exp(5.0))
    # within about one 1e-7 Newton step in log x of the root
    assert abs(math.log(root) - math.atanh(0.9)) <= 2e-7


# Two equal bounds far above ten or more small ones: from the left Newton overshoots
# far right of the root, and from the right the step in log |g| lands just right of
# the last left point, so both ends of the bracket crept toward the root, the halving
# never fired, and the root gave up after 256 steps
PING_PONG = (20.0, 20.0) + (0.1,) * 10


def ping_pong_chains():
    """Two bounds a in 60 to 999 among k bounds of 1, k in (10, 13, 16, 19)."""
    return [(float(a),) * 2 + (1.0,) * k for k in (10, 13, 16, 19) for a in range(60, 1000)]


def test_root_does_not_ping_pong(gap_terms):
    chain = StackChain.from_bounds(PING_PONG)
    t = chernov_t(chain, 1e-9).t
    assert exact_abs_tail(PING_PONG, t) <= 1e-9
    assert 1 <= len(gap_terms) <= 12  # the midpoint is taken from the seventh step on
    assert [r.t for r in analyze_all(chain, 1e-9)][4] == t


@pytest.mark.parametrize("rho", [1e-6, 1e-7, 1e-9])
def test_root_does_not_ping_pong_on_its_family(rho):
    # 45 of these 11 280 (chain, rho) raised ConvergenceError before the
    # midpoint, at rho = 1e-7 and 1e-9
    for w in ping_pong_chains():
        chain = StackChain.from_bounds(w)
        rows = analyze_all(chain, rho)
        assert all(math.isfinite(r.t) for r in rows), w
        assert rows[4].t <= t_wc(chain), w


def test_prob_one_ulp_below_wc():
    # the right end of the bracket, where K' >= n - n / lam, can round
    # below t there: any lambda still gives a valid bound
    chain = StackChain.from_bounds((2.6014965179208285, 3.2520296966886404))
    p = chernov_prob(chain, math.nextafter(t_wc(chain), 0.0))
    assert 0.0 <= p <= 1e-30


@pytest.fixture
def slope_terms(monkeypatch):
    """(lambda, group count) of every slope evaluation: one ``_langevin_sum`` call each."""
    return _kernel_spy(monkeypatch, "_langevin_sum")


@pytest.fixture
def co_slope_terms(monkeypatch):
    """(lambda, group count) of every n - K' evaluation: one ``_co_langevin_sum`` call each."""
    return _kernel_spy(monkeypatch, "_co_langevin_sum")


@pytest.mark.parametrize("t", [0.0, 1e-300, 1e-120, 1e-20, 0.1])
def test_prob_is_one_at_small_t_without_a_solve(slope_terms, co_slope_terms, gap_terms, t):
    # the optimal lambda is at most 2 wc / (wc - t), about 2 here, and K >= 0
    assert chernov_prob(StackChain.from_bounds((1.0, 2.0)), t) == 1.0
    assert chernov_prob(StackChain.from_bounds(CHAINS["long"]), t) == 1.0
    assert slope_terms == co_slope_terms == gap_terms == []


@pytest.mark.parametrize("name", ["single", "pair", "table", "long"])
def test_few_co_slope_evaluations_per_prob(slope_terms, co_slope_terms, name):
    # chernov_prob steps on n - K' alone: it forms no slope
    chain = StackChain.from_bounds(CHAINS[name])
    for frac in (0.3, 0.5, 0.9, 0.99, 1.0 - 1e-9, 1.0 - 1e-15):
        co_slope_terms.clear()
        chernov_prob(chain, frac * t_wc(chain))
        assert 1 <= len(co_slope_terms) <= 20, frac
    assert slope_terms == []


def _mean_kernel_calls_per_prob(terms):
    """The mean length of ``terms``, a kernel's call record, per chernov_prob call."""
    calls = 0
    fracs = (0.3, 0.5, 0.9, 0.99, 1.0 - 1e-9, 1.0 - 1e-15)
    for w in CHAINS.values():
        chain = StackChain.from_bounds(w)
        for frac in fracs:
            terms.clear()
            chernov_prob(chain, frac * t_wc(chain))
            calls += len(terms)
    return calls / (len(CHAINS) * len(fracs))


def test_mean_co_slope_evaluations_per_prob(co_slope_terms):
    # the root takes n - K' from its last evaluation, where the bound is formed
    assert _mean_kernel_calls_per_prob(co_slope_terms) <= 6.5


def test_mean_co_slope_evaluations_per_prob_in_log_co(co_slope_terms):
    # the root starts right of the root, where n - K' ~ n / lambda is a power
    # of lambda: a step in log (n - K') lands next to the root
    assert _mean_kernel_calls_per_prob(co_slope_terms) <= 4.0


def test_mean_gap_evaluations_per_prob(gap_terms):
    # the root hands back the g of its last step, where the bound is formed,
    # so the gap is evaluated once per step and not again at its end
    assert _mean_kernel_calls_per_prob(gap_terms) <= 3.5


# chains whose worst case sums exactly in double precision, so that the
# reference optimizes the same t near wc; the bounds stay normal doubles
EXACT_WC_CHAINS = (
    (1.0,),
    (1.0, 2.0),
    (5.0, 4.0, 3.0, 2.0, 1.0),
    (2.5, 2.5, 2.5, 2.5),
    (0.25, 0.25, 0.25, 0.5, 0.5, 1.0, 1.0),
    (0.75, 1.5, 3.0, 0.375),
    (2.0 ** -660, 2.0 ** -659),
    (2.0 ** 660, 3.0 * 2.0 ** 660),
)


def _optimum_prob(w, t):
    """min(1, 2 exp(min_lam K(lam) - lam t)) to 50 digits, by bisection of K' = t in log lam."""
    with mpmath.workdps(50):
        mw, mt = [mpmath.mpf(x) for x in w], mpmath.mpf(t)
        rest = sum(mw) - mt  # exact: the sum of these doubles is a double
        lo, hi = mpmath.mpf(1e-6) / max(mw), 2 * len(mw) / rest
        for _ in range(100):
            lam = mpmath.sqrt(lo * hi)
            if sum(x * (1 - mpmath.coth(lam * x) + 1 / (lam * x)) for x in mw) > rest:
                lo = lam
            else:
                hi = lam
        k = sum(mpmath.log(mpmath.sinh(lam * x) / (lam * x)) for x in mw) - lam * mt
        return min(mpmath.mpf(1), 2 * mpmath.exp(k))


@pytest.mark.parametrize("w", EXACT_WC_CHAINS)
def test_prob_against_high_precision_optimum(w):
    # the bound at the lambda where the root stops exceeds the optimum by a
    # second-order excess, and falls below it only by rounding: of 1e-14,
    # and of the exponent k, a few ulps of |k| (1.3e-14 relative at k = -142)
    chain = StackChain.from_bounds(w)
    assert math.fsum(w) == t_wc(chain) == float(sum(mpmath.mpf(x) for x in w))
    for frac in (0.3, 0.5, 0.7, 0.9, 0.99, 1.0 - 1e-9, 1.0 - 1e-15):
        t = frac * t_wc(chain)
        ref = _optimum_prob(w, t)
        with mpmath.workdps(50):
            rel = float(chernov_prob(chain, t) / ref - 1)
            k = float(mpmath.log(ref / 2))
        assert -(1e-14 + 2.0 * sys.float_info.epsilon * abs(k)) <= rel <= 5e-13, (frac, rel)


def test_chernov_t_takes_one_slope_evaluation(slope_terms, co_slope_terms):
    # the slope is evaluated once, at the root, over all the chain's groups; no n - K'
    chernov_t(StackChain.from_bounds(CHAINS["long"]), 0.0027)
    assert [groups for _, groups in slope_terms] == [200]
    assert co_slope_terms == []


# from near the double range's floor of rho down to its last subnormal
LIMIT_RHOS = (1e-20, 1e-50, 1e-100, 1e-150, 1e-200, 1e-250, 1e-300, 1e-320, 5e-324)


def test_t_rises_to_the_limit_as_rho_falls():
    # on chains balanced to a few ulps t saturates: clamping it to t(inf)
    # keeps it nondecreasing as rho falls, where a rounded-up slope would not.
    # LIPSCHITZ's limit is wc plus its linear price wbar sum|u_i - 1| = sum|w_i - wbar|
    solves = (
        (chernov_t, lambda s: s.wc),
        (lipschitz_t, lambda s: s.wc + s.wbar * s.abs_dev),
        (quadratic_t, None),
        (lambda c, r: quadratic_t(c, r, 1.0 / 6.0), None),
    )
    for w in ulp_balanced_chains(240):
        chain = StackChain.from_bounds(w)
        for solve, limit in solves:
            ts = [solve(chain, rho).t for rho in LIMIT_RHOS]
            assert ts == sorted(ts), (w, ts)
            if limit is not None:
                assert ts[-1] <= limit(chain._sums), (w, solve)


def test_prob_nonincreasing_in_the_last_ulps_below_wc():
    rng = random.Random(3)
    for _ in range(200):
        chain = StackChain.from_bounds([rng.uniform(0.1, 10.0) for _ in range(rng.randint(1, 10))])
        t, prev = t_wc(chain), 0.0
        for _ in range(8):
            t = math.nextafter(t, 0.0)
            p = chernov_prob(chain, t)
            assert p >= prev, (chain.weighted_bounds, t)
            prev = p


@pytest.mark.parametrize("w", [(1.0, 2.0), (2.5, 2.5, 2.5, 2.5)])
@pytest.mark.parametrize("gap", [1e-6, 1e-12, 1e-15])
def test_prob_near_wc_against_high_precision(w, gap):
    # wc is exact on these chains, so the reference optimizes the same t;
    # K' - t cancels there unless it is formed as (wc - t) - (wc - K')
    chain = StackChain.from_bounds(w)
    t = t_wc(chain) * (1.0 - gap)
    with mpmath.workdps(60):
        mw, mt = [mpmath.mpf(x) for x in w], mpmath.mpf(t)
        lo, hi = mpmath.mpf(1e-3), mpmath.mpf(1e20)
        for _ in range(160):
            lam = mpmath.sqrt(lo * hi)
            if sum(x * (mpmath.coth(lam * x) - 1 / (lam * x)) for x in mw) < mt:
                lo = lam
            else:
                hi = lam
        k = sum(mpmath.log(mpmath.sinh(lam * x) / (lam * x)) for x in mw)
        ref = float(2 * mpmath.exp(k - lam * mt))
    assert chernov_prob(chain, t) == pytest.approx(ref, rel=1e-13, abs=0.0)
