"""Closed forms against the optimizer, hypothesis readings, scans, identities."""

import contextlib
import itertools
import random
import time
from collections import Counter
from math import comb
from types import SimpleNamespace

import pytest

from chaincx import (
    BettiVector,
    ComplexShape,
    HypothesisReading,
    Prediction,
    RankVector,
    SourceTheorem,
    Verdict,
    WorkCapExceeded,
    betti_lower_bound,
    brute_force_maximize,
    all_predictions,
    check_shape,
    conjecture_scan,
    enumerate_maximizers,
    euler_characteristic,
    greedy_rank_vector,
    hypothesis_holds,
    predict_equal_dim,
    predict_length1,
    predict_length2,
    is_feasible,
    predict_conjecture,
    stratum_dimension,
    sweep_theorems,
)
from chaincx.core import DEFAULT_WORK_CAP, MAX_ENTRY, MAX_LENGTH, _chi, _feasible
from chaincx import optimizer, predictions
from chaincx.optimizer import _solve
from chaincx.predictions import (
    CHECK_ENUMERATION_GUARD,
    MAX_SWEEP_SHORT_SHAPES,
    ComparisonResult,
    ScanReport,
    SweepSummary,
    _canonical_leaves,
    _check_bounds,
    _fulfils,
)
from test_core import iter_shapes, ranks_from_betti, shape
from test_optimizer import _quadratic_solve

INTERIOR = HypothesisReading.INTERIOR


def spectrum_set(s):
    return {b.bettis for b in brute_force_maximize(s).betti_spectrum}


class TestLength1:
    def test_examples(self):
        assert [b.bettis for b in predict_length1(shape(2, 5)).predicted_betti_set] == [(0, 3)]
        assert [b.bettis for b in predict_length1(shape(5, 2)).predicted_betti_set] == [(3, 0)]
        assert [b.bettis for b in predict_length1(shape(4, 4)).predicted_betti_set] == [(0, 0)]

    def test_wrong_length_not_applicable(self):
        assert not predict_length1(shape(2, 2, 2)).applicable

    def test_matches_brute_force_exhaustively(self):
        for dims in itertools.product(range(9), repeat=2):
            s = ComplexShape(dims)
            predicted = {b.bettis for b in predict_length1(s).predicted_betti_set}
            assert predicted == spectrum_set(s), dims


def _length2_cases(a0, a1, a2):
    """All satisfied cases of the two-map closed form, tagged by name.

    Overlapping guards agree on the boundary, which the property tests
    verify; predict_length2 simply takes the first satisfied case.
    The one-sided dominant cases put the whole surplus in a single Betti
    number; otherwise the surplus chi >= 0 is split evenly across
    beta_0 and beta_2, in two ways when chi is odd.
    """
    chi = a0 - a1 + a2
    cases = []
    if a0 >= a1 + a2:
        cases.append(("a0_dominant", ((a0 - a1, 0, a2),)))
    if a2 >= a0 + a1:
        cases.append(("a2_dominant", ((a0, 0, a2 - a1),)))
    if a1 >= a0 + a2:
        cases.append(("a1_dominant", ((0, a1 - a0 - a2, 0),)))
    if a2 - a1 <= a0 <= a1 + a2 and a1 <= a0 + a2:
        if chi % 2 == 0:
            cases.append(("balanced_even", ((chi // 2, 0, chi // 2),)))
        else:
            lo, hi = (chi - 1) // 2, (chi + 1) // 2
            cases.append(("balanced_odd", ((lo, 0, hi), (hi, 0, lo))))
    return cases


class TestLength2:
    def test_examples(self):
        assert {b.bettis for b in predict_length2(shape(3, 1, 3)).predicted_betti_set} == {
            (2, 0, 3),
            (3, 0, 2),
        }
        assert [b.bettis for b in predict_length2(shape(1, 5, 2)).predicted_betti_set] == [(0, 2, 0)]
        assert [b.bettis for b in predict_length2(shape(2, 2, 2)).predicted_betti_set] == [(1, 0, 1)]

    def test_second_space_dominant(self):
        # a_2 >= a_0 + a_1 concentrates the surplus in beta_2.
        assert [b.bettis for b in predict_length2(shape(1, 0, 5)).predicted_betti_set] == [(1, 0, 5)]
        assert [b.bettis for b in predict_length2(shape(2, 1, 4)).predicted_betti_set] == [(2, 0, 3)]

    def test_total_and_boundary_consistent(self):
        # Every non-negative triple fires at least one case, whenever
        # guards overlap the predicted sets agree, and predict_length2
        # gives that agreed set.
        for dims in itertools.product(range(21), repeat=3):
            cases = _length2_cases(*dims)
            assert cases, dims
            sets = {tuple(sorted(v)) for _, v in cases}
            assert len(sets) == 1, (dims, cases)
            predicted = predict_length2(ComplexShape(dims)).predicted_betti_set
            assert tuple(b.bettis for b in predicted) == sets.pop(), dims

    def test_predictions_are_valid_betti_vectors(self):
        for dims in itertools.product(range(13), repeat=3):
            s = ComplexShape(dims)
            chi = dims[0] - dims[1] + dims[2]
            for b in predict_length2(s).predicted_betti_set:
                assert all(v >= 0 for v in b.bettis)
                assert b.bettis[0] - b.bettis[1] + b.bettis[2] == chi

    def test_sum_is_lower_bound(self):
        for dims in itertools.product(range(13), repeat=3):
            s = ComplexShape(dims)
            for b in predict_length2(s).predicted_betti_set:
                assert sum(b.bettis) == betti_lower_bound(s)


def _hypothesis_oracle(dims, reading):
    """a_i + a_{i+2} >= a_{i+1} over the reading's window, index by index."""
    n = len(dims) - 1

    def a(i):
        return dims[i] if 0 <= i <= n else 0

    if reading is HypothesisReading.SENTINEL:
        window = range(-1, n)
    else:
        window = range(0, n - 1)
    return all(a(i) + a(i + 2) >= a(i + 1) for i in window)


def predict_length3_sum(
    shape: ComplexShape, reading: HypothesisReading = HypothesisReading.SENTINEL
) -> Prediction:
    """Oracle of the three-map theorem, the Length3Sum entry of
    all_predictions: sum beta_i = |chi| under the no-forced-homology
    hypothesis, else not applicable."""
    if shape.n_maps != 3 or not hypothesis_holds(shape, reading):
        return Prediction(False, (), None, SourceTheorem.LENGTH3_SUM)
    return Prediction(True, (), abs(euler_characteristic(shape)), SourceTheorem.LENGTH3_SUM)


class TestLength3:
    def test_examples(self):
        assert predict_length3_sum(shape(2, 2, 2, 2)).predicted_sum == 0
        assert not predict_length3_sum(shape(2, 1, 1, 2)).applicable

    def test_readings_differ_on_forced_ends(self):
        # Interior reading drops the end conditions, so the motivating
        # forced-homology shape slips through it.
        s = shape(2, 1, 1, 2)
        assert not hypothesis_holds(s)
        assert hypothesis_holds(s, INTERIOR)

    def test_sentinel_window(self):
        assert hypothesis_holds(shape(2, 3, 2, 1))
        assert not hypothesis_holds(shape(3, 2, 2, 3))  # a_1 < a_0
        assert not hypothesis_holds(shape(1, 2, 1, 2))  # a_3 > a_2

    def test_hypothesis_matches_window_oracle(self):
        # Every shape with at most 6 spaces and entries <= 4, both readings.
        checked = 0
        for s in iter_shapes(6, 4):
            for reading in HypothesisReading:
                expected = _hypothesis_oracle(s.dims, reading)
                assert hypothesis_holds(s, reading) is expected, (s.dims, reading)
                checked += 1
        assert checked == 39_060

    def test_prediction_verified_by_oracle(self):
        applicable = 0
        for dims in itertools.product(range(5), repeat=4):
            s = ComplexShape(dims)
            for reading in HypothesisReading:
                # all_predictions' Length3Sum entry is the rule under test.
                assert all_predictions(s, reading)[2] == predict_length3_sum(s, reading), dims
            pred = predict_length3_sum(s)
            if not pred.applicable:
                continue
            applicable += 1
            observed = {sum(b.bettis) for b in brute_force_maximize(s).betti_spectrum}
            assert observed == {pred.predicted_sum}, dims
        assert applicable > 50  # the hypothesis is satisfiable, not vacuous


class TestEqualDim:
    def test_examples(self):
        assert [b.bettis for b in predict_equal_dim(shape(2, 2, 2, 2)).predicted_betti_set] == [
            (0, 0, 0, 0)
        ]
        assert {b.bettis for b in predict_equal_dim(shape(3, 3, 3)).predicted_betti_set} == {
            (1, 0, 2),
            (2, 0, 1),
        }
        assert [b.bettis for b in predict_equal_dim(shape(6, 6, 6, 6, 6)).predicted_betti_set] == [
            (2, 0, 2, 0, 2)
        ]

    def test_not_applicable(self):
        assert not predict_equal_dim(shape(2, 3, 2)).applicable
        assert not predict_equal_dim(shape(0, 0, 0)).applicable  # needs m >= 1

    def test_spread_cardinality(self):
        for n in (2, 4, 6, 8):
            slots = n // 2 + 1
            for m in range(1, 10):
                pred = predict_equal_dim(ComplexShape((m,) * (n + 1)))
                assert len(pred.predicted_betti_set) == comb(slots, m % slots)

    def test_spread_set_is_built_in_order(self):
        # The sorted brute construction, for every even n <= 30 and m <= 24.
        for n in range(0, 31, 2):
            slots = n // 2 + 1
            for m in range(25):
                base, extra = divmod(m, slots)
                brute = sorted(
                    tuple(0 if i % 2 else base + (i // 2 in raised) for i in range(n + 1))
                    for raised in itertools.combinations(range(slots), extra))
                assert [b.bettis for b in predictions._spread_set(n, m)] == brute, (n, m)

    def test_spread_set_refused_past_the_guard(self):
        # C(31, 15) = 3.0e8 vectors are refused before any is built, and so
        # is C(20, 10) = 184,756; C(17, 8) = 24,310 is served.
        for m, spaces, size in [(15, 61, 300_540_195), (10, 39, 184_756)]:
            with pytest.raises(WorkCapExceeded, match=f"has {size} Betti vectors, more than "
                                                      f"the comparison guard of 100000"):
                predict_equal_dim(ComplexShape((m,) * spaces))
        assert len(predict_equal_dim(ComplexShape((8,) * 33)).predicted_betti_set) == 24_310

    def test_spread_set_refused_past_the_listing_cap(self, monkeypatch):
        # Under the guard, but 99,681 and 25,425 vectors of 893 and 451
        # entries pass the listing cap; 23,871 of 437 entries do not.
        monkeypatch.setattr(predictions, "combinations", None)
        monkeypatch.setattr(optimizer, "_lexicographic_paths", None)
        for spaces, size in [(893, 99_681), (451, 25_425)]:
            with pytest.raises(WorkCapExceeded, match=f"has {size} Betti vectors of {spaces} "
                                                      f"entries, {size * spaces} in all"):
                predict_equal_dim(ComplexShape((2,) * spaces))
            with pytest.raises(WorkCapExceeded, match=f"has {size} maximizers of {spaces} "
                                                      f"entries, {size * spaces} in all"):
                check_shape(ComplexShape((2,) * spaces))
        monkeypatch.undo()
        assert len(predict_equal_dim(ComplexShape((2,) * 437)).predicted_betti_set) == 23_871

    def test_spread_vectors_realizable(self):
        for n, m in [(2, 3), (4, 5), (6, 4)]:
            s = ComplexShape((m,) * (n + 1))
            best = enumerate_maximizers(s).max_dimension
            for b in predict_equal_dim(s).predicted_betti_set:
                rv = ranks_from_betti(s, b)
                assert is_feasible(s, rv)
                assert stratum_dimension(s, rv) == best


class TestCheckShape:
    def test_examples(self):
        assert check_shape(shape(3, 1, 3)).verdict is Verdict.MATCH
        assert check_shape(shape(5)).verdict is Verdict.MATCH
        assert check_shape(shape(7)).verdict is Verdict.MATCH

    def test_no_applicable_closed_form(self):
        result = check_shape(shape(1, 2, 1, 2))
        assert result.verdict is Verdict.NOT_APPLICABLE
        # Under the interior reading the conjecture applies and holds here.
        assert check_shape(shape(1, 2, 1, 2), INTERIOR).verdict is Verdict.MATCH

    def test_equal_even_check(self):
        result = check_shape(shape(6, 6, 6, 6, 6))
        assert result.verdict is Verdict.MATCH
        assert result.observed.maximizers == (RankVector((4, 2, 2, 4)),)

    def test_comparisons_cover_all_predictions(self):
        # One entry per prediction, in all_predictions order; None exactly
        # where the prediction does not apply, the verdict follows them, and
        # the whole result equals the listing oracle's.  Every shape of at
        # most 4 maps with entries up to 3, and equal shapes with spread sets.
        shapes = [s.dims for s in iter_shapes(5, 3)]
        for dims in shapes + [(6,) * 5, (3,) * 7, (2,) * 9]:
            for reading in HypothesisReading:
                s = ComplexShape(dims)
                result = check_shape(s, reading)
                assert result == _reference_check_shape(s, reading), (dims, reading)
                preds = [p for p, _ in result.comparisons]
                assert preds == list(all_predictions(s, reading))
                outcomes = [m for _, m in result.comparisons]
                assert [m is None for m in outcomes] == [not p.applicable for p in preds]
                if False in outcomes:
                    assert result.verdict is Verdict.MISMATCH
                    assert result.prediction == preds[outcomes.index(False)]
                elif True in outcomes:
                    assert result.verdict is Verdict.MATCH
                    assert result.prediction == preds[outcomes.index(True)]
                else:
                    assert result.verdict is Verdict.NOT_APPLICABLE

    def test_decision_rejects_wrong_predictions(self):
        # The closed forms are right, so wrong ones are made up: _fulfils
        # must judge each as the listing oracle does.  The maximizers of
        # 3,3,3 have Betti vectors (1,0,2) and (2,0,1); the one of 0,0,1 has
        # (0,0,1).
        cases = [
            ((3, 3, 3), [(1, 0, 2), (2, 0, 1)], True),
            ((3, 3, 3), [(2, 0, 1)], False),  # too few
            ((3, 3, 3), [(1, 0, 2), (2, 0, 1), (3, 0, 0)], False),  # too many
            ((3, 3, 3), [(0, 0, 3), (2, 0, 1)], False),  # ranks (3, 0): d = 9 < 11
            ((3, 3, 3), [(1, 0, 1), (2, 0, 1)], False),  # ranks (2, 1) leave r_3 = 1
            ((0, 0, 1), [(1, 0, 0)], False),  # ranks (-1, 1) reach d = 0
            ((3, 3, 3), 3, True),
            ((3, 3, 3), 5, False),
        ]
        for dims, predicted, expected in cases:
            if isinstance(predicted, int):
                pred = Prediction(True, (), predicted, SourceTheorem.CONJECTURE)
            else:
                pred = Prediction(True, tuple(map(BettiVector, predicted)), None,
                                  SourceTheorem.EQUAL_ODD)
            total = sum(dims) - 2 * sum(greedy_rank_vector(ComplexShape(dims)).ranks)
            observed = enumerate_maximizers(ComplexShape(dims))
            assert _fulfils(pred, total, observed.betti_spectrum) is expected, (dims, predicted)
            assert _prediction_matches(pred, observed) is expected, (dims, predicted)

    def test_a_mismatch_outranks_an_earlier_match(self, monkeypatch):
        # The first applicable prediction holds and the later ones fail.
        s = shape(3, 3, 3)
        applicable = [p for p in all_predictions(s) if p.applicable]
        assert len(applicable) >= 2
        monkeypatch.setattr(predictions, "_fulfils", lambda p, *_: p == applicable[0])
        result = check_shape(s)
        assert result.verdict is Verdict.MISMATCH
        assert result.prediction == applicable[1]

    def test_comparisons_record_mismatch(self):
        result = check_shape(shape(2, 1, 1, 2), INTERIOR)
        assert result.verdict is Verdict.MISMATCH
        outcomes = {p.source_theorem: m for p, m in result.comparisons}
        assert outcomes[SourceTheorem.LENGTH3_SUM] is False
        assert outcomes[SourceTheorem.CONJECTURE] is False
        assert outcomes[SourceTheorem.LENGTH1] is None


class TestSweeps:
    def test_theorem_sweep_small(self):
        summary = sweep_theorems(2, 6)
        assert summary.mismatches == 0
        assert summary.shapes_checked == 7 + 49 + 343

    def test_conjecture_scan_sentinel_finds_nothing(self):
        report = conjecture_scan(4, 4)
        assert report.counterexamples == ()
        assert not report.truncated
        assert report.shapes_scanned > 0

    @pytest.mark.parametrize("max_length,max_entry", [(4, 6), (3, 8), (2, 12)])
    def test_conjecture_scan_documented_bounds(self, max_length, max_entry):
        report = conjecture_scan(max_length, max_entry)
        assert report.counterexamples == ()
        assert not report.truncated

    def test_conjecture_scan_interior_flags_forced_homology(self):
        report = conjecture_scan(3, 2, INTERIOR)
        found = {c.shape.dims for c in report.counterexamples}
        assert (2, 1, 1, 2) in found
        for c in report.counterexamples:
            assert c.verdict is Verdict.MISMATCH

    def test_counterexamples_reported_with_mirror(self):
        report = conjecture_scan(3, 2, INTERIOR)
        found = {c.shape.dims for c in report.counterexamples}
        assert (1, 0, 1, 2) in found and (2, 1, 0, 1) in found
        for c in report.counterexamples:
            assert c.comparisons == ((predict_conjecture(c.shape, INTERIOR), False),)

    @pytest.mark.parametrize("reading", list(HypothesisReading), ids=lambda r: r.value)
    def test_reading_by_value_is_the_enum(self, reading):
        # The readings disagree on 2,1,1,2, which is in both rectangles.
        s = shape(2, 1, 1, 2)
        assert check_shape(s, reading.value) == check_shape(s, reading)
        assert conjecture_scan(3, 2, reading.value) == conjecture_scan(3, 2, reading)
        assert sweep_theorems(3, 2, reading.value) == sweep_theorems(3, 2, reading)

    @pytest.mark.parametrize("run", [
        lambda reading: check_shape(shape(2, 1, 1, 2), reading),
        lambda reading: conjecture_scan(3, 2, reading),
        lambda reading: sweep_theorems(3, 2, reading),
    ], ids=["check_shape", "conjecture_scan", "sweep_theorems"])
    def test_unknown_reading_raises(self, run):
        with pytest.raises(ValueError, match="'bogus' is not a valid HypothesisReading"):
            run("bogus")

    @pytest.mark.parametrize("run", [conjecture_scan, sweep_theorems])
    def test_bounds_past_the_caps_refused_before_iterating(self, run):
        # Each bound alone; without the refusal, (0, MAX_ENTRY + 1) would
        # scan about 10^6 shapes before failing on the first over-cap one.
        with pytest.raises(ValueError, match=f"length cap {MAX_LENGTH}"):
            run(MAX_LENGTH, 0)
        with pytest.raises(ValueError, match=f"entry cap {MAX_ENTRY}"):
            run(0, MAX_ENTRY + 1)
        with pytest.raises(ValueError, match="non-negative"):
            run(-1, 0)
        # The caps themselves pass the bounds check; work_cap=0 stops the
        # run (a truncated scan, or a refused sweep) before any real work.
        with contextlib.suppress(WorkCapExceeded):
            run(MAX_LENGTH - 1, MAX_ENTRY, work_cap=0)
        # The work cap is an integer, read after the bounds.
        with pytest.raises(TypeError):
            run(1, 1, work_cap=1.5)
        with pytest.raises(ValueError, match="non-negative"):
            run(-1, 0, work_cap=1.5)

    def test_scan_truncation(self):
        report = conjecture_scan(3, 3, work_cap=5)
        assert report.truncated
        assert report.shapes_scanned == 5

    def test_sweep_runs_the_dp_only_for_betti_sets(self, monkeypatch):
        # A predicted sum is decided by the greedy ranks, so past two maps
        # the DP runs only on the equal-dims shapes, which have a Betti set;
        # up to two maps it runs once per mirror pair, in product order.
        solved = []

        def counted(dims):
            solved.append(dims)
            return _solve(dims)

        monkeypatch.setattr(optimizer, "_solve", counted)
        summary = sweep_theorems(4, 6)
        assert solved == [s.dims for s in iter_shapes(3, 6) if s.dims <= s.dims[::-1]] + [
            (m,) * spaces for spaces in (4, 5) for m in range(1, 7)]
        assert (len(solved), summary.shapes_checked) == (243, 19_607)

    @pytest.mark.parametrize("reading", list(HypothesisReading))
    @pytest.mark.parametrize("bounds", [(4, 6), (5, 4)])
    def test_sweep_judges_only_short_and_equal_dims_shapes(self, monkeypatch, bounds, reading):
        # check_shape judges one shape of each mirror pair of up to two maps
        # and each equal-dims shape; from three maps on any other shape is
        # decided by its greedy total and chi alone.  A mismatch judged that
        # way is its own detail, and check_shape judges only the other
        # representatives of mismatched pairs again.
        judged = []

        def counted(shape, *args):
            judged.append(shape.dims)
            return check_shape(shape, *args)

        monkeypatch.setattr(predictions, "check_shape", counted)
        summary = sweep_theorems(*bounds, reading)
        decided = [s.dims for s in iter_shapes(bounds[0] + 1, bounds[1])
                   if s.dims <= s.dims[::-1]
                   and (s.n_maps <= 2 or (s.dims[0] and len(set(s.dims)) == 1))]
        again = [c.shape.dims for c in summary.mismatch_details if c.shape.dims not in decided]
        assert Counter(judged) == Counter(decided + again)

    def test_short_verdicts_are_reversal_invariant(self):
        # The sweep decides one shape of each mirror pair of up to two maps
        # and counts its verdict twice; every outcome of the reversal is the
        # same, and its spectrum is the reversed one.
        for s in iter_shapes(3, 8):
            mirror = ComplexShape(s.dims[::-1])
            for reading in HypothesisReading:
                result, reversed_result = check_shape(s, reading), check_shape(mirror, reading)
                assert reversed_result.verdict is result.verdict, (s.dims, reading)
                assert [m for _, m in reversed_result.comparisons] == \
                    [m for _, m in result.comparisons], (s.dims, reading)
                assert {b.bettis[::-1] for b in result.observed.betti_spectrum} == \
                    {b.bettis for b in reversed_result.observed.betti_spectrum}, s.dims


class TestSweepShapeCap:
    """A theorem sweep whose rectangle holds more than MAX_SWEEP_SHORT_SHAPES
    shapes of up to two maps, each checked against the DP, is refused
    before any DP."""

    @pytest.mark.parametrize("bounds,shapes", [
        ((0, 333_339), 333_340), ((1, 576), 333_506), ((2, 69), 347_970),
        ((5, 69), 347_970), ((1, 1200), 1_443_602),
    ], ids=["0-333339", "1-576", "2-69", "5-69", "1-1200"])
    def test_refused_before_any_dp(self, monkeypatch, bounds, shapes):
        def refused(*args):
            raise AssertionError(f"the sweep reached the DP with {args}")

        monkeypatch.setattr(predictions, "check_shape", refused)
        monkeypatch.setattr(optimizer, "_solve", refused)
        start = time.perf_counter()
        with pytest.raises(WorkCapExceeded,
                           match=f"checks {shapes} shapes of up to two maps against the DP, "
                                 f"exceeding the cap of {MAX_SWEEP_SHORT_SHAPES}$"):
            sweep_theorems(*bounds, work_cap=10**13)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("bounds,shapes", [
        ((0, 333_338), 333_339), ((1, 575), 332_352), ((2, 68), MAX_SWEEP_SHORT_SHAPES),
    ], ids=["0-333338", "1-575", "2-68"])
    def test_largest_bounds_are_admitted(self, monkeypatch, bounds, shapes):
        # Each is the largest entry served at its length; a stub stands in
        # for check_shape, so no DP runs.
        monkeypatch.setattr(predictions, "check_shape",
                            lambda shape, reading: SimpleNamespace(verdict=Verdict.MATCH))
        summary = sweep_theorems(*bounds)
        assert (summary.shapes_checked, summary.matches) == (shapes, shapes)

    def test_largest_readme_sweep_still_runs(self):
        # Up to two maps with entries up to 40, the largest sweep the README times.
        summary = sweep_theorems(2, 40)
        assert (summary.shapes_checked, summary.mismatches) == (70_643, 0)


def _walk_lazily(lengths, max_entry, reading):
    for path, total, chi, mirrored in _canonical_leaves(lengths, max_entry, reading):
        yield tuple(path), total, chi, mirrored


def _walk(lengths, max_entry, reading):
    return list(_walk_lazily(lengths, max_entry, reading))


def _leaf(dims):
    """What the walk yields for a shape: the total homology of its greedy
    ranks, its Euler characteristic, and whether its reversal differs."""
    greedy = greedy_rank_vector(ComplexShape(dims)).ranks
    return dims, sum(dims) - 2 * sum(greedy), _chi(dims), dims != dims[::-1]


def _brute_walk(lengths, max_entry, reading):
    """The hypothesis shapes no greater than their reversal, by length and
    then in product order, as _leaf describes them."""
    return [_leaf(dims) for length in lengths
            for dims in itertools.product(range(max_entry + 1), repeat=length)
            if dims <= dims[::-1] and hypothesis_holds(ComplexShape(dims), reading)]


class TestGreedyLeaves:
    """The one walk of the scan and the sweep: the hypothesis shapes, one of
    each reversal pair, by length and then lexicographically, each with the
    total homology of its greedy ranks, chi, and whether it is mirrored."""

    def test_every_small_shape_in_lexicographic_order(self):
        for reading in HypothesisReading:
            assert _walk(range(1, 6), 5, reading) == _brute_walk(range(1, 6), 5, reading)

    def test_random_wide_shapes(self):
        # Entries up to 30 exhaustively, and the first leaves of walks with
        # entries up to near MAX_ENTRY, whose last entries run into the
        # thousands.
        for reading in HypothesisReading:
            assert _walk((2, 3), 30, reading) == _brute_walk((2, 3), 30, reading)
        rng = random.Random(20261019)
        for _ in range(6):
            length, max_entry = rng.randint(3, 9), MAX_ENTRY - rng.randint(0, 1000)
            for reading in HypothesisReading:
                leaves = list(itertools.islice(
                    _walk_lazily((length,), max_entry, reading), 3000))
                assert len(leaves) == 3000
                assert [dims for dims, *_ in leaves] == sorted({dims for dims, *_ in leaves})
                assert max(max(dims) for dims, *_ in leaves) > 1000
                for leaf in leaves:
                    dims = leaf[0]
                    assert dims <= dims[::-1] and hypothesis_holds(ComplexShape(dims), reading)
                    assert leaf == _leaf(dims)

    def test_empty_windows_prune(self):
        # Under the sentinel reading a lone entry is 0, a shape of two
        # entries is (a, a), and one of three no greater than its reversal
        # has a_0 <= a_2 <= a_1 <= a_0 + a_2.  A walk with no lengths yields
        # nothing, and one over zero entries the all-zero shapes.
        sentinel = HypothesisReading.SENTINEL
        assert _walk((1,), 9, sentinel) == [((0,), 0, 0, False)]
        assert [dims for dims, *_ in _walk((2,), 9, sentinel)] == [(a, a) for a in range(10)]
        assert [dims for dims, *_ in _walk((3,), 6, sentinel)] == [
            d for d in itertools.product(range(7), repeat=3)
            if d[0] <= d[2] <= d[1] <= d[0] + d[2]]
        for reading in HypothesisReading:
            assert _walk((), 5, reading) == []
            assert _walk(range(1, 5), 0, reading) == [
                ((0,) * length, 0, 0, False) for length in range(1, 5)]


# check_shape as it was before the listing-free decision: list every
# maximizer, then compare the spectrum with each prediction.
def _reference_full_report(shape):
    report = enumerate_maximizers(shape, CHECK_ENUMERATION_GUARD)
    if report.truncated:
        raise WorkCapExceeded(
            f"shape {shape.dims} has {report.maximizer_count} maximizers, "
            f"more than the comparison guard of {CHECK_ENUMERATION_GUARD}"
        )
    return report


def _prediction_matches(prediction, observed):
    """Whether the observed maximizer spectrum fulfils an applicable prediction."""
    if prediction.predicted_betti_set:
        return sorted(observed.betti_spectrum) == sorted(prediction.predicted_betti_set)
    return all(
        sum(b.bettis) == prediction.predicted_sum for b in observed.betti_spectrum
    )


def _reference_check_shape(shape, reading=HypothesisReading.SENTINEL):
    observed = _reference_full_report(shape)
    comparisons = tuple(
        (p, _prediction_matches(p, observed) if p.applicable else None)
        for p in all_predictions(shape, reading)
    )
    applicable = [(p, matched) for p, matched in comparisons if matched is not None]
    if not applicable:
        return ComparisonResult(
            shape,
            Prediction(False, (), None, SourceTheorem.CONJECTURE),
            observed,
            Verdict.NOT_APPLICABLE,
            comparisons,
        )
    for pred, matched in applicable:
        if not matched:
            return ComparisonResult(shape, pred, observed, Verdict.MISMATCH, comparisons)
    return ComparisonResult(shape, applicable[0][0], observed, Verdict.MATCH, comparisons)


# The scan and the sweep as they were before the prefix-sharing engine: a
# fresh DP per shape over the whole rectangle, kept as the reference.  The
# scan reads each shape's rank-sum range from the quadratic reference DP,
# not from the greedy ranks the scan itself relies on.
def _reference_conjecture_scan(
    max_length: int,
    max_entry: int,
    reading: HypothesisReading = HypothesisReading.SENTINEL,
    work_cap: int = DEFAULT_WORK_CAP,
) -> ScanReport:
    """Hunt for hypothesis-satisfying shapes whose maximizers violate
    sum beta_i = |chi|.

    max_length bounds the number of boundary maps; entries run 0..max_entry.
    Shapes are scanned up to reversal (d is symmetric under it); when a
    counterexample is found both representatives are reported.  Hitting
    work_cap stops the scan with partial results and truncated = True.
    Bounds that are negative or reach past MAX_LENGTH or MAX_ENTRY raise
    ValueError before anything is scanned.
    """
    _check_bounds(max_length, max_entry, "scan")
    counterexamples = []
    scanned = 0
    truncated = False
    for shape in iter_shapes(max_length + 1, max_entry):
        dims = shape.dims
        if dims[::-1] < dims:
            continue
        if not hypothesis_holds(shape, reading):
            continue
        if scanned >= work_cap:
            truncated = True
            break
        scanned += 1
        total = sum(dims)
        _, _, _, lo, hi = _quadratic_solve(dims)
        target = betti_lower_bound(shape)
        if total - 2 * hi == target and total - 2 * lo == target:
            continue
        representatives = [dims] if dims == dims[::-1] else [dims, dims[::-1]]
        for rep in representatives:
            rep_shape = ComplexShape(rep)
            prediction = predict_conjecture(rep_shape, reading)
            counterexamples.append(
                ComparisonResult(
                    rep_shape,
                    prediction,
                    _reference_full_report(rep_shape),
                    Verdict.MISMATCH,
                    ((prediction, False),),
                )
            )
    counterexamples.sort(key=lambda c: (len(c.shape.dims), c.shape.dims))
    return ScanReport(tuple(counterexamples), scanned, truncated)


def _reference_sweep_theorems(
    max_length: int,
    max_entry: int,
    reading: HypothesisReading = HypothesisReading.SENTINEL,
    work_cap: int = DEFAULT_WORK_CAP,
) -> SweepSummary:
    """Run the listing oracle of check_shape over every shape in the
    rectangle and tally verdicts.

    Bounds are refused as in conjecture_scan, before the work cap is read.
    """
    _check_bounds(max_length, max_entry, "sweep")
    total = sum((max_entry + 1) ** (n + 1) for n in range(max_length + 1))
    if total > work_cap:  # total can pass the 4300 digits str() allows, so it is not shown
        raise WorkCapExceeded(
            f"sweep up to {max_length} maps with entries up to {max_entry} "
            f"exceeds the work cap of {work_cap} shapes"
        )
    checked = matches = mismatches = not_applicable = 0
    details = []
    for shape in iter_shapes(max_length + 1, max_entry):
        result = _reference_check_shape(shape, reading)
        checked += 1
        if result.verdict is Verdict.MATCH:
            matches += 1
        elif result.verdict is Verdict.MISMATCH:
            mismatches += 1
            details.append(result)
        else:
            not_applicable += 1
    return SweepSummary(checked, matches, mismatches, not_applicable, tuple(details))


def _outcome(run, *args, **kwargs):
    try:
        return run(*args, **kwargs)
    except WorkCapExceeded as exc:
        return str(exc)


_REFERENCE_BOUNDS = [(4, 4), (5, 5), (3, 8), (2, 12), (6, 4), (7, 2)]
# The reference sweep of (5, 5) and (6, 4) takes about 10 s per reading.
_REFERENCE_SWEEP_BOUNDS = [(4, 4), (3, 8), (2, 12), (7, 2), (5, 3)]
_REFERENCE_CAPS = [{"work_cap": cap} for cap in (0, 1, 5, 7, 100, 1000)] + [{}]


class TestAgainstReference:
    """The prefix-sharing scan and sweep equal the per-shape reference
    exactly: counterexample reports, tallies, truncation and refusals."""

    @pytest.mark.parametrize("reading", list(HypothesisReading))
    @pytest.mark.parametrize("bounds", _REFERENCE_BOUNDS)
    def test_conjecture_scan(self, bounds, reading):
        for caps in _REFERENCE_CAPS:
            assert conjecture_scan(*bounds, reading, **caps) == \
                _reference_conjecture_scan(*bounds, reading, **caps), caps

    @pytest.mark.parametrize("reading", list(HypothesisReading))
    @pytest.mark.parametrize("bounds", _REFERENCE_SWEEP_BOUNDS)
    def test_sweep_theorems(self, bounds, reading):
        for caps in _REFERENCE_CAPS:
            assert _outcome(sweep_theorems, *bounds, reading, **caps) == \
                _outcome(_reference_sweep_theorems, *bounds, reading, **caps), caps

    @pytest.mark.parametrize("reading", list(HypothesisReading))
    def test_sweep_reports_both_shapes_of_a_short_mismatch(self, monkeypatch, reading):
        # A wrong two-map form that still maps to its reversal: the sweep
        # decides one shape of each mismatched pair, and its details name
        # both, as the reference finds them.
        right = predictions.predict_length2

        def wrong(shape):
            prediction = right(shape)
            a0, a1, a2 = shape.dims if prediction.applicable else (0, 0, 0)
            if a1 <= a0 + a2:
                return prediction
            return Prediction(True, (BettiVector((1, a1 - a0 - a2, 1)),), None,
                              SourceTheorem.LENGTH2)

        monkeypatch.setattr(predictions, "predict_length2", wrong)
        summary = sweep_theorems(2, 5, reading)
        # a_1 > a_0 + a_2 for 5 + 8 + 9 + 8 + 5 shapes: 13 pairs and 9 palindromes.
        assert summary.mismatches == 35
        found = [c.shape.dims for c in summary.mismatch_details]
        assert (0, 3, 1) in found and (1, 3, 0) in found
        assert summary == _reference_sweep_theorems(2, 5, reading)

    @pytest.mark.parametrize("reading", list(HypothesisReading))
    def test_longest_shapes(self, reading):
        # 1024 all-zero shapes, the longest a walk 1024 deep.
        report = conjecture_scan(MAX_LENGTH - 1, 0, reading)
        assert report.shapes_scanned == MAX_LENGTH
        assert report == _reference_conjecture_scan(MAX_LENGTH - 1, 0, reading)

    @pytest.mark.parametrize("reading", list(HypothesisReading))
    def test_scan_window_admits_the_hypothesis_shapes(self, reading):
        # Exactly the hypothesis shapes no greater than their reversal, in
        # product order, each with the total homology of its greedy ranks,
        # its Euler characteristic and whether it is mirrored.
        for length in range(1, 7):
            assert _walk((length,), 4, reading) == _brute_walk((length,), 4, reading), length

    def test_scan_runs_no_dp_and_the_work_cap_bounds_its_time(self, monkeypatch):
        # Near MAX_ENTRY a DP stage per node would make the cap bound shapes,
        # not time; the scan reaches a DP only to report a counterexample.
        def no_dp(*args):
            raise AssertionError("the scan ran a DP")

        monkeypatch.setattr(optimizer, "_solve", no_dp)
        report = conjecture_scan(2, MAX_ENTRY, work_cap=20_000)
        assert report == ScanReport((), 20_000, True)


class TestConjectureFrontier:
    """What the scan finds past the proven cases, under the sentinel reading."""

    def test_none_up_to_six_maps(self):
        report = conjecture_scan(6, 6)
        assert report.counterexamples == ()
        assert (report.shapes_scanned, report.truncated) == (59_167, False)

    def test_seven_maps_without_a_zero_space(self):
        # No interior space is 0, so the complex does not split; yet every
        # maximizer has total homology 2 > |chi| = 0.
        s = shape(1, 1, 2, 1, 1, 2, 1, 1)
        assert hypothesis_holds(s)
        assert betti_lower_bound(s) == 0
        report = brute_force_maximize(s)
        assert report.maximizer_count == 4
        assert [sum(b.bettis) for b in report.betti_spectrum] == [2] * 4
        scan = conjecture_scan(7, 2)
        assert len(scan.counterexamples) == 36
        assert s in [c.shape for c in scan.counterexamples]


def spread_identity_check(n: int, m: int, ranks: RankVector) -> bool | None:
    """Verify sum beta_i^2 == 2 f(r) - n m^2 + m^2 with f(r) = sum r_i (r_{i-1} + r_i).

    Holds for equal dimensions m, n even, whenever r_i + r_{i+1} = m for
    every odd i; returns None when those hypotheses fail.  The identity is
    what makes maximizing d equivalent to spreading the Betti numbers as
    evenly as possible.
    """
    if n < 2 or n % 2 or m < 1 or len(ranks.ranks) != n:
        return None
    r = ranks.ranks
    dims = (m,) * (n + 1)
    if not _feasible(dims, r):
        return None
    if any(r[i - 1] + r[i] != m for i in range(1, n, 2)):
        return None
    padded = (0,) + r + (0,)
    betti = [dims[i] - padded[i] - padded[i + 1] for i in range(n + 1)]
    g = sum(b * b for b in betti)
    f = sum(padded[i] * (padded[i - 1] + padded[i]) for i in range(1, n + 1))
    return g == 2 * f - n * m * m + m * m


class TestSpreadIdentity:
    def test_examples(self):
        assert spread_identity_check(2, 2, RankVector((1, 1))) is True
        assert spread_identity_check(2, 2, RankVector((2, 0))) is True

    def test_holds_on_all_maximizers(self):
        for n, m in [(2, 3), (4, 3), (4, 5)]:
            s = ComplexShape((m,) * (n + 1))
            for rv in brute_force_maximize(s).maximizers:
                assert spread_identity_check(n, m, rv) is True

    def test_hypothesis_violations_return_none(self):
        assert spread_identity_check(3, 2, RankVector((1, 1, 1))) is None  # odd n
        assert spread_identity_check(2, 2, RankVector((0, 0))) is None  # r1+r2 != m
        assert spread_identity_check(2, 0, RankVector((0, 0))) is None  # m < 1
        assert spread_identity_check(2, 2, RankVector((1,))) is None  # wrong length
