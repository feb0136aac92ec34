"""The frozen records behave as the frozen dataclasses they replace.

Each public record is compared with a dataclass twin built here from the
same field names and values: equality, hash, ordering, repr, immutability,
argument checking, copies and pickling.  Equal hashes keep the iteration
order of sets of records, and so the bytes of every output that iterates
one.
"""

import copy
import dataclasses
import itertools
import operator
import pickle

import numpy as np
import pytest

from chaincx import (
    BettiVector,
    ComplexShape,
    RankVector,
    ToleranceConfig,
    all_predictions,
    canonical_complex,
    check_shape,
    conjecture_scan,
    enumerate_maximizers,
    sweep_theorems,
)
from chaincx.core import _unvalidated
from chaincx.numerics import NumericalComplex
from chaincx.optimizer import MaximizerReport
from chaincx.predictions import (
    ComparisonResult,
    HypothesisReading,
    Prediction,
    ScanReport,
    SweepSummary,
)

INTERIOR = HypothesisReading.INTERIOR

# (record, its fields in order, whether it is ordered, instances)
RECORDS = [
    (ToleranceConfig, ("rank_tolerance_factor", "composition_tolerance"), False,
     [ToleranceConfig(), ToleranceConfig(5.0, 1e-6), ToleranceConfig(5.0)]),
    (ComplexShape, ("dims",), False,
     [ComplexShape((2, 1, 1, 2)), ComplexShape((0,)), ComplexShape((3, 3))]),
    (RankVector, ("ranks",), True,
     [RankVector((1, 0, 1)), RankVector((1, 1, 0)), RankVector((1, 0)), RankVector(())]),
    (BettiVector, ("bettis",), True,
     [BettiVector((1, 0, 1)), BettiVector((0, 0, 2)), BettiVector((1, 0))]),
    (MaximizerReport, ("max_dimension", "maximizer_count", "maximizers", "betti_spectrum",
                       "truncated", "enumeration_cap"), False,
     [enumerate_maximizers(ComplexShape((2, 2, 2))),
      enumerate_maximizers(ComplexShape((3, 3, 3, 3)), cap=2),
      enumerate_maximizers(ComplexShape((3, 3, 3, 3)))]),
    (Prediction, ("applicable", "predicted_betti_set", "predicted_sum", "source_theorem"),
     False, list(all_predictions(ComplexShape((2, 2, 2))))),
    (ComparisonResult, ("shape", "prediction", "observed", "verdict", "comparisons"), False,
     [check_shape(ComplexShape((2, 1, 1, 2)), INTERIOR), check_shape(ComplexShape((2, 2, 2))),
      check_shape(ComplexShape((4, 1)))]),
    (ScanReport, ("counterexamples", "shapes_scanned", "truncated"), False,
     [conjecture_scan(3, 2, INTERIOR), conjecture_scan(2, 2), conjecture_scan(2, 2, work_cap=3)]),
    (SweepSummary, ("shapes_checked", "matches", "mismatches", "not_applicable",
                    "mismatch_details"), False,
     [sweep_theorems(3, 2, INTERIOR), sweep_theorems(2, 3)]),
]
IDS = [record.__name__ for record, *_ in RECORDS]


def twin_class(record, fields, order):
    """A frozen dataclass with the record's name, fields and defaults."""
    spec = [(f, object, vars(record)[f]) if f in vars(record) else f for f in fields]
    return dataclasses.make_dataclass(record.__name__, spec, frozen=True, order=order)


def values(x, fields):
    return tuple(getattr(x, f) for f in fields)


@pytest.mark.parametrize("record,fields,order,instances", RECORDS, ids=IDS)
class TestAgainstDataclass:
    def test_equality(self, record, fields, order, instances):
        twin = twin_class(record, fields, order)
        for x, y in itertools.product(instances, repeat=2):
            assert (x == y) == (twin(*values(x, fields)) == twin(*values(y, fields)))
            assert (x != y) == (twin(*values(x, fields)) != twin(*values(y, fields)))
            assert (x == record(*values(y, fields))) == (values(x, fields) == values(y, fields))
        for x in instances:
            assert x != twin(*values(x, fields))
            assert x != values(x, fields)

    def test_hash(self, record, fields, order, instances):
        twin = twin_class(record, fields, order)
        for x in instances:
            assert hash(x) == hash(twin(*values(x, fields))) == hash(values(x, fields))

    def test_set_order(self, record, fields, order, instances):
        twin = twin_class(record, fields, order)
        twins = [twin(*values(x, fields)) for x in instances]
        assert [values(x, fields) for x in set(instances)] == [
            values(t, fields) for t in set(twins)]

    def test_ordering(self, record, fields, order, instances):
        twin = twin_class(record, fields, order)
        for x, y in itertools.product(instances, repeat=2):
            tx, ty = twin(*values(x, fields)), twin(*values(y, fields))
            for op in (operator.lt, operator.le, operator.gt, operator.ge):
                if order:
                    assert op(x, y) == op(tx, ty)
                else:
                    with pytest.raises(TypeError):
                        op(x, y)
        if order:
            assert sorted(instances) == [
                record(*values(t, fields)) for t in sorted(twin(*values(x, fields))
                                                           for x in instances)]

    def test_repr(self, record, fields, order, instances):
        twin = twin_class(record, fields, order)
        for x in instances:
            assert repr(x) == repr(twin(*values(x, fields)))

    def test_fields_are_frozen(self, record, fields, order, instances):
        x = instances[0]
        for name in (*fields, "other"):
            with pytest.raises(AttributeError):
                setattr(x, name, 0)
        for name in fields:
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert values(x, fields) == values(instances[0], fields)

    def test_argument_count(self, record, fields, order, instances):
        twin = twin_class(record, fields, order)
        given = values(instances[0], fields)
        wrong = [(*given, 0)] + ([given[:-1]] if fields[-1] not in vars(record) else [])
        for args in wrong:
            with pytest.raises(TypeError) as ours:
                record(*args)
            with pytest.raises(TypeError) as theirs:
                twin(*args)
            assert str(ours.value) == str(theirs.value)
        with pytest.raises(TypeError, match="unexpected keyword argument 'other'"):
            record(*given, other=0)

    def test_keywords(self, record, fields, order, instances):
        for x in instances:
            assert record(**dict(zip(fields, values(x, fields)))) == x

    def test_copies_and_pickle(self, record, fields, order, instances):
        for x in instances:
            for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
                assert type(y) is record
                assert y == x and hash(y) == hash(x) and repr(y) == repr(x)
            assert copy.copy(x) is not x


def test_distinct_records_never_equal():
    assert RankVector((1,)) != BettiVector((1,))
    assert not RankVector((1,)) == BettiVector((1,))
    assert hash(RankVector((1,))) == hash(BettiVector((1,)))
    assert len({RankVector((1,)), BettiVector((1,))}) == 2
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError, match="not supported between instances of "
                                            "'RankVector' and 'BettiVector'"):
            op(RankVector((1,)), BettiVector((1,)))


def test_tolerance_keywords_and_defaults():
    assert ToleranceConfig() == ToleranceConfig(1000.0, 1e-8)
    assert ToleranceConfig(composition_tolerance=1e-6) == ToleranceConfig(1000.0, 1e-6)
    assert ToleranceConfig(rank_tolerance_factor=5.0) == ToleranceConfig(5.0, 1e-8)
    assert ToleranceConfig.rank_tolerance_factor == 1000.0
    assert ToleranceConfig.composition_tolerance == 1e-8
    for bad in ({"rank_tolerance_factor": 0.0}, {"composition_tolerance": -1.0},
                {"rank_tolerance_factor": float("nan")}):
        with pytest.raises(ValueError, match="tolerances must be positive"):
            ToleranceConfig(**bad)
    with pytest.raises(TypeError, match="multiple values for argument"):
        ToleranceConfig(1.0, rank_tolerance_factor=2.0)


def test_validation_runs_and_unvalidated_skips_it():
    assert RankVector([1, 2]).ranks == (1, 2)
    assert ComplexShape(range(3)).dims == (0, 1, 2)
    for record, field, bad in ((RankVector, "ranks", (-1,)), (BettiVector, "bettis", (0, -2)),
                               (ComplexShape, "dims", (1, -1))):
        with pytest.raises(ValueError, match="non-negative"):
            record(bad)
        x = _unvalidated(record, field, bad)
        assert type(x) is record and getattr(x, field) == bad
        assert x == _unvalidated(record, field, bad) and hash(x) == hash((bad,))


class TestNumericalComplex:
    """Identity equality and hash, as with eq=False, and maps left out of the repr."""

    def complexes(self):
        shape = ComplexShape((2, 3, 1))
        first = canonical_complex(shape, RankVector((2, 1)))
        return first, NumericalComplex(shape, first.maps), first.maps

    def test_identity_equality_and_repr(self):
        first, second, maps = self.complexes()
        twin = dataclasses.make_dataclass("NumericalComplex", [
            "shape", ("maps", tuple, dataclasses.field(repr=False)),
            ("composition_tolerance", float, 1e-8)], frozen=True, eq=False)
        assert first == first and first != second
        assert hash(first) == object.__hash__(first)
        assert repr(first) == repr(twin(first.shape, maps)) == (
            "NumericalComplex(shape=ComplexShape(dims=(2, 3, 1)), composition_tolerance=1e-08)")
        with pytest.raises(TypeError):
            first < second

    def test_frozen_copies_and_pickle(self):
        first, _, _ = self.complexes()
        with pytest.raises(AttributeError):
            first.maps = ()
        with pytest.raises(AttributeError):
            del first.shape
        assert NumericalComplex(first.shape, first.maps, composition_tolerance=1e-6) \
            .composition_tolerance == 1e-6
        for y in (copy.copy(first), copy.deepcopy(first), pickle.loads(pickle.dumps(first))):
            assert type(y) is NumericalComplex and y != first
            assert y.shape == first.shape and repr(y) == repr(first)
            assert all(np.array_equal(a, b) for a, b in zip(y.maps, first.maps))
