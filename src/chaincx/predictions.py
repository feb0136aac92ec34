"""Closed-form predictions of almost-sure Betti numbers, and their checks.

For several families of shapes the positive-probability Betti vectors
have closed forms: complexes with one or two maps, three maps under a
no-forced-homology hypothesis on the dimensions, and arbitrary length
with all dimensions equal.  This module implements those closed forms,
compares them against the optimizer's observed maximizer spectrum, and
scans shape space for counterexamples to the general conjecture that
total homology is almost surely |chi| whenever no Betti number is
forced positive by the dimensions alone.

The no-forced-homology hypothesis reads a_i + a_{i+2} >= a_{i+1} over a
window of indices with out-of-range dimensions treated as zero.  Two
window conventions are implemented:

* SENTINEL (default): i = -1 .. n-1.  The end conditions a_0 <= a_1 and
  a_n <= a_{n-1} are included, so no beta_i can be forced positive.
* INTERIOR: i = 0 .. n-2 only.  The end conditions are dropped; shapes
  like (2, 1, 1, 2), where beta_0 and beta_n are forced positive, then
  satisfy the hypothesis while violating the predicted total homology.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .core import (
    MAX_ENTRY,
    MAX_LENGTH,
    BettiVector,
    ComplexShape,
    WorkCapExceeded,
    _chi,
    betti_lower_bound,
)
from .optimizer import MaximizerReport, _prefix_leaves, enumerate_maximizers

DEFAULT_SCAN_CAP = 2_000_000
CHECK_ENUMERATION_GUARD = 100_000


class SourceTheorem(Enum):
    LENGTH1 = "Length1"
    LENGTH2 = "Length2"
    LENGTH3_SUM = "Length3Sum"
    EQUAL_ODD = "EqualOdd"
    EQUAL_EVEN_SUM = "EqualEvenSum"
    EQUAL_EVEN_SPREAD = "EqualEvenSpread"
    CONJECTURE = "Conjecture"


class HypothesisReading(Enum):
    """Index-window convention for the no-forced-homology hypothesis."""

    SENTINEL = "sentinel"
    INTERIOR = "interior"


class Verdict(Enum):
    MATCH = "Match"
    MISMATCH = "Mismatch"
    NOT_APPLICABLE = "NotApplicable"


@dataclass(frozen=True)
class Prediction:
    """A closed form's claim about the almost-sure Betti data of a shape.

    Either a full set of Betti vectors (predicted_betti_set) or only the
    total sum beta_i (predicted_sum) is claimed, never both.
    """

    applicable: bool
    predicted_betti_set: tuple[BettiVector, ...]
    predicted_sum: int | None
    source_theorem: SourceTheorem


@dataclass(frozen=True)
class ComparisonResult:
    """A verdict on one shape.  `prediction` is the deciding prediction;
    `comparisons` pairs each compared prediction with whether the observed
    spectrum fulfils it, None when the prediction does not apply."""

    shape: ComplexShape
    prediction: Prediction
    observed: MaximizerReport
    verdict: Verdict
    comparisons: tuple[tuple[Prediction, bool | None], ...]


@dataclass(frozen=True)
class ScanReport:
    """Outcome of a conjecture scan: the counterexamples found (expected
    none), how many hypothesis-satisfying shapes were checked, and whether
    the scan stopped early at the work cap."""

    counterexamples: tuple[ComparisonResult, ...]
    shapes_scanned: int
    truncated: bool


@dataclass(frozen=True)
class SweepSummary:
    """Verdict tally of check_shape over a rectangle of shapes."""

    shapes_checked: int
    matches: int
    mismatches: int
    not_applicable: int
    mismatch_details: tuple[ComparisonResult, ...]


def _not_applicable(source: SourceTheorem) -> Prediction:
    return Prediction(False, (), None, source)


def _sum_prediction(shape: ComplexShape, applies: bool, source: SourceTheorem) -> Prediction:
    """sum beta_i = |chi| when `applies`, else not applicable."""
    if not applies:
        return _not_applicable(source)
    return Prediction(True, (), betti_lower_bound(shape), source)


def hypothesis_holds(
    shape: ComplexShape, reading: HypothesisReading = HypothesisReading.SENTINEL
) -> bool:
    """Whether a_i + a_{i+2} >= a_{i+1} over the reading's index window."""
    p = shape.dims
    if reading is HypothesisReading.SENTINEL:
        p = (0, *p, 0)
    return all(x + z >= y for x, y, z in zip(p, p[1:], p[2:]))


def predict_length1(shape: ComplexShape) -> Prediction:
    """Single map: full rank a.s., so (beta_0, beta_1) = (a_0 - a_1, 0) or (0, a_1 - a_0)."""
    if shape.n_maps != 1:
        return _not_applicable(SourceTheorem.LENGTH1)
    a0, a1 = shape.dims
    betti = (0, a1 - a0) if a0 <= a1 else (a0 - a1, 0)
    return Prediction(True, (BettiVector(betti),), None, SourceTheorem.LENGTH1)


def predict_length2(shape: ComplexShape) -> Prediction:
    """Two maps: the five-case closed form, total over non-negative triples.

    The one-sided dominant cases put the whole surplus in a single Betti
    number; otherwise the surplus chi > 0 is split evenly across beta_0
    and beta_2, in two ways when chi is odd.  Where the guards of two
    cases meet, both give the same set.
    """
    if shape.n_maps != 2:
        return _not_applicable(SourceTheorem.LENGTH2)
    a0, a1, a2 = shape.dims
    if a0 >= a1 + a2:
        bettis = {(a0 - a1, 0, a2)}
    elif a2 >= a0 + a1:
        bettis = {(a0, 0, a2 - a1)}
    elif a1 >= a0 + a2:
        bettis = {(0, a1 - a0 - a2, 0)}
    else:
        chi = a0 - a1 + a2
        lo, hi = chi // 2, (chi + 1) // 2
        bettis = {(lo, 0, hi), (hi, 0, lo)}
    return Prediction(
        True, tuple(sorted(map(BettiVector, bettis))), None, SourceTheorem.LENGTH2
    )


def predict_length3_sum(
    shape: ComplexShape, reading: HypothesisReading = HypothesisReading.SENTINEL
) -> Prediction:
    """Three maps under the no-forced-homology hypothesis: sum beta_i = |chi|."""
    return _sum_prediction(shape, shape.n_maps == 3 and hypothesis_holds(shape, reading),
                           SourceTheorem.LENGTH3_SUM)


def _spread_set(n, m):
    """Betti vectors with zero odd entries and even entries floor/ceil of
    m / (n/2 + 1), summing to m; sorted lexicographically."""
    slots = n // 2 + 1
    base, extra = divmod(m, slots)
    vectors = []
    for raised in combinations(range(slots), extra):
        betti = [0] * (n + 1)
        for k in range(slots):
            betti[2 * k] = base + (1 if k in raised else 0)
        vectors.append(BettiVector(tuple(betti)))
    return tuple(sorted(vectors))


def predict_equal_dim(shape: ComplexShape) -> Prediction:
    """All dimensions equal m >= 1: exact for odd n, evenly spread |chi| = m
    across the even Betti numbers for even n."""
    dims = shape.dims
    n = shape.n_maps
    m = dims[0]
    source = SourceTheorem.EQUAL_ODD if n % 2 else SourceTheorem.EQUAL_EVEN_SPREAD
    if m < 1 or any(a != m for a in dims):
        return _not_applicable(source)
    if n % 2:
        betti_set = (BettiVector((0,) * (n + 1)),)
    else:
        betti_set = _spread_set(n, m)
    return Prediction(True, betti_set, None, source)


def predict_conjecture(
    shape: ComplexShape, reading: HypothesisReading = HypothesisReading.SENTINEL
) -> Prediction:
    """Any length under the no-forced-homology hypothesis: sum beta_i = |chi|."""
    return _sum_prediction(shape, hypothesis_holds(shape, reading), SourceTheorem.CONJECTURE)


def all_predictions(
    shape: ComplexShape, reading: HypothesisReading = HypothesisReading.SENTINEL
) -> tuple[Prediction, ...]:
    """Every implemented prediction for the shape, applicable or not."""
    equal = predict_equal_dim(shape)
    return (
        predict_length1(shape),
        predict_length2(shape),
        predict_length3_sum(shape, reading),
        equal,
        _sum_prediction(shape, equal.applicable and shape.n_maps % 2 == 0,
                        SourceTheorem.EQUAL_EVEN_SUM),
        predict_conjecture(shape, reading),
    )


def _prediction_matches(prediction: Prediction, observed: MaximizerReport) -> bool:
    """Whether the observed maximizer spectrum fulfils an applicable prediction."""
    if prediction.predicted_betti_set:
        return sorted(observed.betti_spectrum) == sorted(prediction.predicted_betti_set)
    return all(
        sum(b.bettis) == prediction.predicted_sum for b in observed.betti_spectrum
    )


def _homology_is_chi(path, lo, hi) -> bool:
    """Whether every maximizer has sum beta_i = |chi|, read from the range
    [lo, hi] of their rank sums: sum beta_i = sum a_i - 2 sum r_i."""
    total = sum(path)
    return total - 2 * lo == abs(_chi(path)) == total - 2 * hi


def _full_report(shape: ComplexShape) -> MaximizerReport:
    report = enumerate_maximizers(shape, CHECK_ENUMERATION_GUARD)
    if report.truncated:
        raise WorkCapExceeded(
            f"shape {shape.dims} has {report.maximizer_count} maximizers, "
            f"more than the comparison guard of {CHECK_ENUMERATION_GUARD}"
        )
    return report


def check_shape(
    shape: ComplexShape, reading: HypothesisReading = HypothesisReading.SENTINEL
) -> ComparisonResult:
    """Compare every applicable prediction with the observed spectrum.

    Any mismatch dominates the verdict; with no applicable prediction the
    verdict is NOT_APPLICABLE.  The returned prediction is the deciding
    one (first mismatch, else first applicable match); `comparisons`
    holds all six predictions with their outcomes.
    """
    observed = _full_report(shape)
    comparisons = tuple(
        (p, _prediction_matches(p, observed) if p.applicable else None)
        for p in all_predictions(shape, reading)
    )
    applicable = [(p, matched) for p, matched in comparisons if matched is not None]
    if not applicable:
        return ComparisonResult(
            shape,
            _not_applicable(SourceTheorem.CONJECTURE),
            observed,
            Verdict.NOT_APPLICABLE,
            comparisons,
        )
    for pred, matched in applicable:
        if not matched:
            return ComparisonResult(shape, pred, observed, Verdict.MISMATCH, comparisons)
    return ComparisonResult(shape, applicable[0][0], observed, Verdict.MATCH, comparisons)


def _check_bounds(max_length: int, max_entry: int, what: str) -> None:
    """Refuse scan bounds that are negative or reach past the shape caps."""
    if max_length < 0 or max_entry < 0:
        raise ValueError(f"{what} bounds must be non-negative")
    if max_length + 1 > MAX_LENGTH:
        raise ValueError(
            f"{what} max_length {max_length} gives shapes of length "
            f"{max_length + 1}, over the length cap {MAX_LENGTH}"
        )
    if max_entry > MAX_ENTRY:
        raise ValueError(
            f"{what} max_entry {max_entry} exceeds the entry cap {MAX_ENTRY}"
        )


def _scan_window(reading, max_entry, length):
    """The _prefix_leaves window of the scan: the hypothesis shapes whose
    last entry is at least their first.

    Every append of x after w, a obeys x >= a - w.  The sentinel reading
    reads a 0 before the shape, so a_1 >= a_0, and one after it, so the
    last entry is at most its predecessor and a lone entry is 0.  A
    surviving prefix extends to a hypothesis shape by repeating its last
    entry.  A shape whose last entry is below its first is greater than
    its reversal, which the scan covers instead.
    """
    sentinel = reading is HypothesisReading.SENTINEL
    last = length - 1

    def window(path, k):
        first = 0
        if k >= 2:
            first = max(path[k - 1] - path[k - 2], 0)
        elif k and sentinel:
            first = path[0]
        if k < last:
            return first, max_entry
        if k:
            first = max(first, path[0])
        if not sentinel:
            return first, max_entry
        return first, path[k - 1] if k else 0

    return window


def conjecture_scan(
    max_length: int,
    max_entry: int,
    reading: HypothesisReading = HypothesisReading.SENTINEL,
    work_cap: int = DEFAULT_SCAN_CAP,
) -> ScanReport:
    """Hunt for hypothesis-satisfying shapes whose maximizers violate
    sum beta_i = |chi|.

    max_length bounds the number of boundary maps; entries run 0..max_entry.
    Shapes are scanned up to reversal (d is symmetric under it), by length
    and then lexicographically; when a counterexample is found both
    representatives are reported.  Only shapes that satisfy the hypothesis
    are generated, and one forward DP is shared along their common
    prefixes.  Hitting work_cap stops the scan with partial results and
    truncated = True.  Bounds that are negative or reach past MAX_LENGTH
    or MAX_ENTRY raise ValueError before anything is scanned.
    """
    _check_bounds(max_length, max_entry, "scan")
    leaves = (
        leaf
        for length in range(1, max_length + 2)
        for leaf in _prefix_leaves(length, _scan_window(reading, max_entry, length))
    )
    counterexamples = []
    scanned = 0
    truncated = False
    for path, _, _, _, lo, hi in leaves:
        if path[::-1] < path:
            continue
        if scanned >= work_cap:
            truncated = True
            break
        scanned += 1
        if _homology_is_chi(path, lo, hi):
            continue
        dims = tuple(path)
        representatives = [dims] if dims == dims[::-1] else [dims, dims[::-1]]
        for rep in representatives:
            rep_shape = ComplexShape(rep)
            prediction = predict_conjecture(rep_shape, reading)
            counterexamples.append(
                ComparisonResult(
                    rep_shape,
                    prediction,
                    _full_report(rep_shape),
                    Verdict.MISMATCH,
                    ((prediction, False),),
                )
            )
    counterexamples.sort(key=lambda c: (len(c.shape.dims), c.shape.dims))
    return ScanReport(tuple(counterexamples), scanned, truncated)


def sweep_theorems(
    max_length: int,
    max_entry: int,
    reading: HypothesisReading = HypothesisReading.SENTINEL,
    work_cap: int = DEFAULT_SCAN_CAP,
) -> SweepSummary:
    """Tally check_shape's verdicts over every shape in the rectangle.

    A shape with three or more maps and unequal dimensions has only the
    two sum-only predictions, both |chi|, so its verdict follows from the
    rank-sum range of a forward DP shared along common prefixes; every
    other shape, every mismatch and every shape with more maximizers than
    the comparison guard goes through check_shape itself.  Bounds are
    refused as in conjecture_scan, before the work cap is read.
    """
    _check_bounds(max_length, max_entry, "sweep")
    total = sum((max_entry + 1) ** (n + 1) for n in range(max_length + 1))
    if total > work_cap:  # total can pass the 4300 digits str() allows, so it is not shown
        raise WorkCapExceeded(
            f"sweep up to {max_length} maps with entries up to {max_entry} "
            f"exceeds the work cap of {work_cap} shapes"
        )
    leaves = (
        leaf
        for length in range(1, max_length + 2)
        for leaf in _prefix_leaves(length, lambda path, k: (0, max_entry))
    )
    checked = matches = mismatches = not_applicable = 0
    details = []
    for path, _, _, count, lo, hi in leaves:
        shape = ComplexShape(tuple(path))
        checked += 1
        if len(path) > 3 and count <= CHECK_ENUMERATION_GUARD and min(path) < max(path):
            if not hypothesis_holds(shape, reading):
                not_applicable += 1
                continue
            if _homology_is_chi(path, lo, hi):
                matches += 1
                continue
        result = check_shape(shape, reading)
        if result.verdict is Verdict.MATCH:
            matches += 1
        elif result.verdict is Verdict.MISMATCH:
            mismatches += 1
            details.append(result)
        else:
            not_applicable += 1
    return SweepSummary(checked, matches, mismatches, not_applicable, tuple(details))
