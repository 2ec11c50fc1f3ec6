"""The Chernoff-family lambda root: Newton steps in log lambda, their cost and their answers."""

import math
import random

import mpmath
import pytest

from stacktol import (
    BracketError,
    ConvergenceError,
    StackChain,
    bounds,
    chernov_prob,
    chernov_t,
    invert_monotone,
    lipschitz_t,
    quadratic_t,
    t_wc,
)
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

# (chernov, lipschitz, quadratic) t from the bisection in lambda that this
# solver replaced; bisection stopped at the upper edge of a bracket 1e-9 wide.
# On ("pair", 0.0027) the gap rounds just above the target at the last
# Newton iterates: the solver has to step past them, not stop short.
# "near" and "decimal" (whose bounds differ from their mean in the last
# bit) have a quadratic penalty that overflows far right of the root.
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
    # Newton converges to rounding level, so it sits at or below the
    # bisection's upper edge, by at most the bracket width
    chain = StackChain.from_bounds(CHAINS[name])
    for solver, old in zip(SOLVERS, BISECTION_T[name, rho]):
        t = solver(chain, rho).t
        assert old * (1.0 - 2e-9) <= t <= old * (1.0 + 1e-12), solver.__name__


@pytest.mark.parametrize("name", [k for k, w in CHAINS.items() if len(w) <= 5])
@pytest.mark.parametrize("rho", RHOS)
def test_never_below_the_exact_quantile(name, rho):
    w = CHAINS[name]
    chain = StackChain.from_bounds(w)
    for solver in SOLVERS:
        assert exact_abs_tail(w, solver(chain, rho).t) <= rho, solver.__name__


def test_limit_returned_exactly_once_t_stops_changing():
    # wbar * t(lambda) rounded up would sit a few ulps above it
    for name in ("pair", "table", "case", "tiny", "huge", "near"):
        chain = StackChain.from_bounds(CHAINS[name])
        assert lipschitz_t(chain, 1e-300).t == BISECTION_T[name, 1e-300][1]


@pytest.fixture
def gap_terms(monkeypatch):
    """Every legendre_term call that bounds makes: one per term of a gap evaluation."""
    calls = []
    original = bounds.legendre_term
    monkeypatch.setattr(bounds, "legendre_term", lambda x: calls.append(x) or original(x))
    return calls


@pytest.mark.parametrize("name", ["single", "pair", "table", "long"])
@pytest.mark.parametrize("rho", [0.1, 0.0027, 1e-6, 1e-12])
def test_few_gap_evaluations_per_solve(gap_terms, name, rho):
    # a chernov gap has n terms, a lipschitz or quadratic gap one (times n)
    chain = StackChain.from_bounds(CHAINS[name])
    for solver, terms in ((chernov_t, len(CHAINS[name])), (lipschitz_t, 1), (quadratic_t, 1)):
        gap_terms.clear()
        solver(chain, rho)
        assert len(gap_terms) / terms <= 10, solver.__name__


def test_stalled_newton_step_moves_an_ulp(gap_terms):
    # here g rounds just above the target where the Newton step no longer
    # moves lambda: an ulp steps past it, halving the bracket would not
    chain = StackChain.from_bounds((2458938.8200963996, 75.47651397188778, 205532.58582615896))
    quadratic_t(chain, 1e-100)
    assert len(gap_terms) <= 10


def test_newton_path_budget_and_bracket_errors():
    g = lambda x: -math.log(x)  # noqa: E731
    dg = lambda x: -1.0  # noqa: E731
    assert invert_monotone(g, -2.0, (1.0, 100.0), dg=dg) == pytest.approx(math.exp(2.0), rel=1e-15)
    with pytest.raises(ConvergenceError):
        invert_monotone(g, -2.0, (1.0, 100.0), dg=dg, max_iter=1)
    with pytest.raises(BracketError):
        invert_monotone(lambda x: -x, -2.0, (0.0, 100.0), dg=lambda x: -x)


def test_newton_step_out_of_the_bracket_is_replaced_by_bisection():
    # g = -tanh(log x) is flat far right of its root, where a Newton step
    # lands far left of the bracket
    g = lambda x: -math.tanh(math.log(x))  # noqa: E731
    dg = lambda x: -1.0 / math.cosh(math.log(x)) ** 2  # noqa: E731
    root = invert_monotone(g, -0.9, (0.5, math.exp(5.0)), dg=dg)
    assert root == pytest.approx(math.exp(math.atanh(0.9)), rel=1e-12)


def test_prob_one_ulp_below_wc():
    # the right end of the bracket, where K' >= n - n / lam, can round
    # below t there: any lambda still gives a valid bound
    chain = StackChain.from_bounds((2.6014965179208285, 3.2520296966886404))
    p = chernov_prob(chain, math.nextafter(t_wc(chain), 0.0))
    assert 0.0 <= p <= 1e-30


@pytest.fixture
def co_slope_terms(monkeypatch):
    """Every term of chernov_prob's n - K' evaluations."""
    calls = []
    original = bounds._one_minus_langevin
    monkeypatch.setattr(bounds, "_one_minus_langevin", lambda x: calls.append(x) or original(x))
    return calls


@pytest.mark.parametrize("t", [1e-300, 1e-120, 1e-20, 0.1])
def test_prob_is_one_at_small_t_without_a_solve(co_slope_terms, t):
    # the optimal lambda is at most 2 wc / (wc - t), about 2 here, and K >= 0
    assert chernov_prob(StackChain.from_bounds((1.0, 2.0)), t) == 1.0
    assert chernov_prob(StackChain.from_bounds(CHAINS["long"]), t) == 1.0
    assert co_slope_terms == []


@pytest.mark.parametrize("name", ["single", "pair", "table", "long"])
def test_few_co_slope_evaluations_per_prob(co_slope_terms, name):
    chain = StackChain.from_bounds(CHAINS[name])
    for frac in (0.3, 0.5, 0.9, 0.99, 1.0 - 1e-9, 1.0 - 1e-15):
        co_slope_terms.clear()
        chernov_prob(chain, frac * t_wc(chain))
        assert len(co_slope_terms) / len(CHAINS[name]) <= 20, frac


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
