"""Every route to a ToleranceResult gives the same bits, and results scale with the chain.

``analyze_all`` forms rho's constants once and calls each method's body with
them; the public ``*_t`` functions and ``tolerance`` form them per call.  Each
route must give the same ``float.hex`` in every field.  Scaling every bound by
2^e scales t and t_clamped by exactly 2^e and leaves f and coverage unchanged,
on short chains and on chains long enough for the split start.
"""

import math

from hypothesis import given, settings, strategies as st
import pytest

from stacktol import (
    Method,
    StackChain,
    airbus_t,
    analyze_all,
    chernov_t,
    hoeffding_t,
    lipschitz_t,
    quadratic_t,
    tolerance,
)
from stacktol.bounds import _SPLIT_GROUPS
from test_lambda_root import CHAINS, RHOS

ROUTES = {
    Method.HOEFFDING: hoeffding_t,
    Method.CHERNOV: chernov_t,
    Method.LIPSCHITZ: lipschitz_t,
    Method.QUADRATIC: quadratic_t,
}


def _bits(result):
    return tuple(x if x is None or isinstance(x, Method) else float.hex(x) for x in result)


@pytest.mark.parametrize("name", sorted(CHAINS))
@pytest.mark.parametrize("rho", RHOS)
def test_every_route_gives_the_same_bits(name, rho):
    chain = StackChain.from_bounds(CHAINS[name])
    for r in analyze_all(chain, rho):
        expect = _bits(r)
        if r.method in ROUTES:
            assert _bits(ROUTES[r.method](chain, rho)) == expect, r.method
        if r.method is Method.AIRBUS:
            assert _bits(airbus_t(chain)) == expect
        assert _bits(tolerance(chain, r.method, rho)) == expect, r.method
        assert _bits(tolerance(chain, r.method.value, rho)) == expect, r.method


# chains of 1 to 8 bounds, and chains with more groups than _SPLIT_GROUPS, whose
# Chernoff root starts on the curve that splits off the largest bound
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    bounds=st.lists(st.floats(1e-4, 1e4), min_size=1, max_size=8)
    | st.lists(st.floats(1e-4, 1e4), min_size=_SPLIT_GROUPS + 1, max_size=_SPLIT_GROUPS + 16,
               unique=True),
    rho=st.floats(1e-12, 0.4),
    e=st.integers(-1000, 900),
)
def test_scaling_by_a_power_of_two_is_exact(bounds, rho, e):
    base = analyze_all(StackChain.from_bounds(bounds), rho)
    for k in (-1000, 900, e):
        scaled = analyze_all(StackChain.from_bounds([math.ldexp(w, k) for w in bounds]), rho)
        for r, s in zip(base, scaled):
            moved = r._replace(t=math.ldexp(r.t, k), t_clamped=math.ldexp(r.t_clamped, k))
            assert _bits(s) == _bits(moved), (k, r.method)
