"""The record types: fields, construction, immutability, validation, copies.

Seven records are NamedTuples; StackChain is a class with slots, since its
length counts contributors and it keeps a private ``_sums`` slot.
"""

import copy
import pickle

import pytest

from stacktol import (
    BalanceReport,
    Contributor,
    CurvePoint,
    McConfig,
    Method,
    StackChain,
    StudyRow,
    StudySpec,
    ToleranceResult,
)

# each record's fields, in order, with one valid value per field
RECORDS = {
    Contributor: {"name": "a", "half_width": 1.0, "influence": -2.0},
    BalanceReport: {"mean": 1.0, "variance": 0.25, "abs_dev_sum": 1.0, "s1": 0.5,
                    "d_factor": 0.25},
    ToleranceResult: {"method": Method.CHERNOV, "t": 2.5, "t_clamped": 2.0, "f": 0.9,
                      "coverage": 1.1, "rho": 0.0027},
    CurvePoint: {"rho": 0.01, "method": Method.WC, "t": 3.0},
    McConfig: {"draws": 10_000, "seed": 7},
    StudySpec: {"n_inputs": 3, "bound_lo": 0.5, "bound_hi": 2.0, "n_chains": 4, "rho": 0.05,
                "seed": 9, "mc_cfg": McConfig(draws=20_000, seed=9)},
    StudyRow: {"chain_id": 2, "s1": 0.1, "d_factor": 0.2, "ts": {Method.CHERNOV: 3.0},
               "fs": {Method.CHERNOV: 1.1}, "mc_t": None},
}


def _record(cls):
    return cls(**RECORDS[cls])


def _chain():
    return StackChain((Contributor("a", 1.0), Contributor("b", 0.5, -3.0)))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_keyword_construction_keeps_the_fields_in_order(cls):
    rec = _record(cls)
    assert rec._fields == tuple(RECORDS[cls])
    assert rec._asdict() == RECORDS[cls]
    assert rec == tuple(RECORDS[cls].values())  # a record equals the plain tuple of its values


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_assignment_raises(cls):
    rec = _record(cls)
    for name in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
    with pytest.raises(AttributeError):
        rec.extra = 0


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_copies_are_equal(cls):
    rec = _record(cls)
    for other in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(other) is type(rec) and other == rec


@pytest.mark.parametrize("rec,change", [
    (Contributor("a", 1.0), {"half_width": -1.0}),
    (Contributor("a", 1.0), {"name": ""}),
    (Contributor("a", 1.0), {"influence": float("nan")}),
    (McConfig(seed=1), {"seed": 1.5}),
    (McConfig(seed=1), {"draws": 999}),
    (StudySpec(n_chains=2, rho=0.05, seed=1), {"n_chains": 0}),
    (StudySpec(n_chains=2, rho=0.05, seed=1), {"bound_lo": 6.0}),
    (StudySpec(n_chains=2, rho=0.05, seed=1), {"rho": 1.0}),
], ids=lambda v: type(v).__name__ if not isinstance(v, dict) else next(iter(v)))
def test_replace_and_make_validate(rec, change):
    with pytest.raises(ValueError):
        rec._replace(**change)
    with pytest.raises(ValueError):
        type(rec)._make({**rec._asdict(), **change}.values())


@pytest.mark.parametrize("rec,change", [
    (Contributor("a", 1.0), {"half_width": 2.0}),
    (McConfig(seed=1), {"seed": 2}),
    (StudySpec(n_chains=2, rho=0.05, seed=1), {"n_inputs": 7}),
])
def test_valid_replace_keeps_the_type(rec, change):
    new = rec._replace(**change)
    assert type(new) is type(rec)
    assert new._asdict() == {**rec._asdict(), **change}


@pytest.mark.parametrize("cls", [McConfig, StudySpec])
def test_wrong_length_make_raises(cls):
    with pytest.raises(ValueError):
        cls._make(tuple(RECORDS[cls].values())[:-1])


def test_configs_reject_positional_arguments():
    with pytest.raises(TypeError):
        McConfig(10_000, 1)
    with pytest.raises(TypeError):
        StudySpec(5, 1.0, 5.0, 2, 0.05, 1)


def test_field_defaults_are_the_construction_defaults():
    assert McConfig._field_defaults == {"draws": 200_000}
    assert McConfig(seed=1).draws == 200_000
    assert StudySpec._field_defaults == {"n_inputs": 5, "bound_lo": 1.0, "bound_hi": 5.0,
                                         "mc_cfg": None}
    spec = StudySpec(n_chains=2, rho=0.05, seed=1)
    assert {k: getattr(spec, k) for k in StudySpec._field_defaults} == StudySpec._field_defaults


class TestStackChain:
    def test_slots(self):
        chain = _chain()
        assert StackChain.__slots__ == ("contributors", "weighted_bounds", "_sums")
        assert not hasattr(chain, "__dict__")
        assert chain.weighted_bounds == (1.0, 1.5) and len(chain) == 2

    def test_repr_leaves_out_the_sums(self):
        assert repr(_chain()) == (
            "StackChain(contributors=(Contributor(name='a', half_width=1.0, influence=1.0), "
            "Contributor(name='b', half_width=0.5, influence=-3.0)), "
            "weighted_bounds=(1.0, 1.5))"
        )

    def test_equality_and_hash(self):
        chain = _chain()
        assert chain == _chain() and hash(chain) == hash(_chain())
        assert hash(chain) == hash((chain.contributors, chain.weighted_bounds))
        assert chain != StackChain.from_bounds([1.0, 1.5])  # the names differ
        assert chain != chain.contributors
        assert len({chain, _chain()}) == 1

    def test_dropped_contributors_leave_equality(self):
        kept = (Contributor("a", 1.0), Contributor("b", 0.5, -3.0))
        assert StackChain((*kept, Contributor("z", 1.0, 0.0))) == StackChain(kept)

    @pytest.mark.parametrize("name", ["contributors", "weighted_bounds", "_sums", "extra"])
    def test_assignment_and_deletion_raise(self, name):
        chain = _chain()
        with pytest.raises(AttributeError):
            setattr(chain, name, ())
        with pytest.raises(AttributeError):
            delattr(chain, name)

    def test_copies_are_equal(self):
        chain = _chain()
        for other in (copy.copy(chain), copy.deepcopy(chain), pickle.loads(pickle.dumps(chain))):
            assert type(other) is StackChain and other == chain
            assert other._sums == chain._sums
