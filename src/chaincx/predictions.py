"""Closed-form predictions of almost-sure Betti numbers, and their checks.

For several families of shapes the positive-probability Betti vectors
have closed forms: complexes with one or two maps, three maps under a
no-forced-homology hypothesis on the dimensions, and arbitrary length
with all dimensions equal.  This module implements those closed forms,
decides them without listing maximizers, and scans shape space for
counterexamples to the general conjecture that total homology is almost
surely |chi| whenever no Betti number is forced positive by the
dimensions alone.

A total-homology claim needs no DP.  By the forced-homology theorem
(proved in the optimizer module) every maximizer has the rank sum of the
greedy ranks g, so almost surely sum beta_i = sum a_i - 2 sum g_i, which
costs O(n) per shape.  The scan and the sweep carry it and chi along
shared prefixes, so each shape they visit is decided in O(1).  Past two
maps both visit only the hypothesis shapes, one of each reversal pair:
no other shape has an applicable prediction (see sweep_theorems).

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

from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain, combinations
from math import comb
from operator import add, ge

from .core import (
    MAX_ENTRY,
    MAX_LENGTH,
    BettiVector,
    ComplexShape,
    WorkCapExceeded,
    _chi,
    _dimension,
    _greedy,
    _unvalidated,
)
from .optimizer import MaximizerReport, _lexicographic_paths, _report, _solve

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


# One shared not-applicable prediction per source, in SourceTheorem order.
(_NA_LENGTH1, _NA_LENGTH2, _NA_LENGTH3_SUM, _NA_EQUAL_ODD, _NA_EQUAL_EVEN_SUM,
 _NA_EQUAL_EVEN_SPREAD, _NA_CONJECTURE) = (Prediction(False, (), None, s) for s in SourceTheorem)


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


def _sum_prediction(shape: ComplexShape, applies: bool, not_applicable: Prediction) -> Prediction:
    """sum beta_i = |chi| from not_applicable's source when `applies`, else not_applicable."""
    if not applies:
        return not_applicable
    return Prediction(True, (), abs(_chi(shape.dims)), not_applicable.source_theorem)


def hypothesis_holds(
    shape: ComplexShape, reading: HypothesisReading = HypothesisReading.SENTINEL
) -> bool:
    """Whether a_i + a_{i+2} >= a_{i+1} over the reading's index window."""
    p = shape.dims
    if reading is HypothesisReading.SENTINEL:
        p = (0, *p, 0)
    return all(map(ge, map(add, p, p[2:]), p[1:]))


def predict_length1(shape: ComplexShape) -> Prediction:
    """Single map: full rank a.s., so (beta_0, beta_1) = (a_0 - a_1, 0) or (0, a_1 - a_0)."""
    if shape.n_maps != 1:
        return _NA_LENGTH1
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
        return _NA_LENGTH2
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


def _spread_set(n, m):
    """Betti vectors with zero odd entries and even entries floor/ceil of
    m / (n/2 + 1), summing to m; sorted lexicographically."""
    slots = n // 2 + 1
    base, extra = divmod(m, slots)
    size = comb(slots, extra)
    if size > CHECK_ENUMERATION_GUARD:
        raise WorkCapExceeded(
            f"the spread set of {n} maps of dimension {m} has {size} Betti vectors, "
            f"more than the comparison guard of {CHECK_ENUMERATION_GUARD}"
        )
    vectors = []
    for raised in combinations(range(slots), extra):
        betti = [0] * (n + 1)
        for k in range(slots):
            betti[2 * k] = base + (1 if k in raised else 0)
        vectors.append(BettiVector(tuple(betti)))
    return tuple(sorted(vectors))


def predict_equal_dim(shape: ComplexShape) -> Prediction:
    """All dimensions equal m >= 1: exact for odd n, evenly spread |chi| = m
    across the even Betti numbers for even n.  Raises WorkCapExceeded when
    the spread set outnumbers CHECK_ENUMERATION_GUARD."""
    dims = shape.dims
    n = shape.n_maps
    m = dims[0]
    not_applicable = _NA_EQUAL_ODD if n % 2 else _NA_EQUAL_EVEN_SPREAD
    if m < 1 or dims.count(m) != len(dims):
        return not_applicable
    if n % 2:
        betti_set = (BettiVector((0,) * (n + 1)),)
    else:
        betti_set = _spread_set(n, m)
    return Prediction(True, betti_set, None, not_applicable.source_theorem)


def predict_conjecture(
    shape: ComplexShape, reading: HypothesisReading = HypothesisReading.SENTINEL
) -> Prediction:
    """Any length under the no-forced-homology hypothesis: sum beta_i = |chi|."""
    return _sum_prediction(shape, hypothesis_holds(shape, reading), _NA_CONJECTURE)


def all_predictions(
    shape: ComplexShape, reading: HypothesisReading = HypothesisReading.SENTINEL
) -> tuple[Prediction, ...]:
    """Every implemented prediction for the shape, applicable or not."""
    n = shape.n_maps
    holds = hypothesis_holds(shape, reading)
    equal = predict_equal_dim(shape)
    return (
        predict_length1(shape),
        predict_length2(shape),
        _sum_prediction(shape, n == 3 and holds, _NA_LENGTH3_SUM),
        equal,
        _sum_prediction(shape, equal.applicable and n % 2 == 0, _NA_EQUAL_EVEN_SUM),
        _sum_prediction(shape, holds, _NA_CONJECTURE),
    )


def _fulfils(prediction, dims, total, solved) -> bool:
    """Whether the maximizers fulfil an applicable prediction, without listing them.

    Every maximizer has the greedy ranks' sum (the theorem in the optimizer
    module), so a predicted sum holds iff their total homology `total`,
    sum a_i - 2 sum g_i, equals it.  A Betti vector fixes its ranks,
    r_{i+1} = a_i - beta_i - r_i closing at r_{n+1} = 0, so a predicted set
    is the spectrum iff it has `count` members whose ranks are non-negative
    (hence feasible) and reach max d `best`, for _solve's result
    solved = (best, moves, count), which a sum does not read.
    """
    if not prediction.predicted_betti_set:
        return total == prediction.predicted_sum
    best, _, count = solved
    if len(prediction.predicted_betti_set) != count:
        return False
    for betti in prediction.predicted_betti_set:
        ranks = [0]
        for a, b in zip(dims, betti.bettis):
            ranks.append(a - b - ranks[-1])
        if ranks[-1] or min(ranks) < 0 or _dimension(dims, ranks[1:-1]) != best:
            return False
    return True


def _judge(shape, reading, total, solved=None):
    """check_shape's (verdict, deciding prediction, predictions, outcomes)
    from the greedy total homology and _solve's result, which runs here only
    if a Betti set needs it."""
    predictions = all_predictions(shape, reading)
    outcomes = []
    for p in predictions:
        if p.applicable and p.predicted_betti_set and solved is None:
            solved = _solve(shape.dims)
        outcomes.append(_fulfils(p, shape.dims, total, solved) if p.applicable else None)
    if False in outcomes:
        return Verdict.MISMATCH, predictions[outcomes.index(False)], predictions, outcomes
    if True in outcomes:
        return Verdict.MATCH, predictions[outcomes.index(True)], predictions, outcomes
    return Verdict.NOT_APPLICABLE, _NA_CONJECTURE, predictions, outcomes


def check_shape(
    shape: ComplexShape, reading: HypothesisReading = HypothesisReading.SENTINEL
) -> ComparisonResult:
    """Compare every applicable prediction with the observed spectrum.

    Every prediction is decided from one DP's max d and maximizer count,
    a sum from the greedy ranks, as in sweep_theorems; a shape with more
    than CHECK_ENUMERATION_GUARD maximizers is refused before any is listed.
    Any mismatch dominates the verdict; with no applicable prediction it
    is NOT_APPLICABLE.  The returned prediction is the deciding one (first
    mismatch, else first applicable match); `comparisons` holds all six
    predictions with their outcomes.
    """
    solved = best, moves, count = _solve(shape.dims)
    if count > CHECK_ENUMERATION_GUARD:
        raise WorkCapExceeded(
            f"shape {shape.dims} has {count} maximizers, "
            f"more than the comparison guard of {CHECK_ENUMERATION_GUARD}"
        )
    total = sum(shape.dims) - 2 * sum(_greedy(shape.dims))
    verdict, prediction, predictions, outcomes = _judge(shape, reading, total, solved)
    observed = _report(best, count, *_lexicographic_paths(shape.dims, moves, count),
                       CHECK_ENUMERATION_GUARD)
    return ComparisonResult(shape, prediction, observed, verdict,
                            tuple(zip(predictions, outcomes)))


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
    """The _greedy_leaves window of _canonical_leaves: the hypothesis shapes
    whose last entry is at least their first.

    Every append of x after w, a obeys x >= a - w.  The sentinel reading
    reads a 0 before the shape, so a_1 >= a_0, and one after it, so the
    last entry is at most its predecessor and a lone entry is 0.  A
    surviving prefix extends to a hypothesis shape by repeating its last
    entry.  A shape whose last entry is below its first is greater than
    its reversal, which the walk visits instead.
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


def _greedy_leaves(length, window):
    """Every shape of `length` entries that `window` admits, in lexicographic
    order, with its total homology sum a_i - 2 sum g_i for the greedy ranks
    g, which every maximizer has (the theorem in the optimizer module), and
    its Euler characteristic chi: (path, total, chi).

    window(path, k) gives the inclusive range of entry k after path[:k]; an
    empty range prunes.  A node at depth k holds only g_k = min(a_k, a_{k-1}
    - g_{k-1}), g_0 = 0, and the running total and chi, shared by the shapes
    below it, so a leaf costs O(1).  The same path list is yielded at every
    leaf: copy it to keep it.
    """
    last = length - 1
    path = [0] * length
    stop = [0] * length
    rank = [0] * length
    total = [0] * length
    chi = [0] * length
    k = 0
    path[0], stop[0] = window(path, 0)
    while True:
        a = path[k]
        if k == last:
            first = end = 0
        else:
            first, end = window(path, k + 1)
        if a <= stop[k] and first <= end:
            if k:
                g = path[k - 1] - rank[k - 1]
                if a < g:
                    g = a
                t = total[k - 1] + a - 2 * g
                c = chi[k - 1] - a if k & 1 else chi[k - 1] + a
            else:
                g = 0
                t = c = a
            if k == last:
                yield path, t, c
            else:
                rank[k], total[k], chi[k] = g, t, c
                k += 1
                path[k], stop[k] = first, end
                continue
        while path[k] >= stop[k]:
            k -= 1
            if k < 0:
                return
        path[k] += 1


def _canonical_leaves(lengths, max_entry, reading):
    """The hypothesis shapes of the given lengths with entries up to
    max_entry, one of each reversal pair, by length and then
    lexicographically: (path, total, chi, mirrored) as _greedy_leaves
    yields them, where mirrored says whether the reversal is another shape.

    _scan_window admits only shapes whose last entry is at least their
    first, so a shape is greater than its reversal only if those two are
    equal; only then is the reversal compared.
    """
    for length in lengths:
        for path, total, chi in _greedy_leaves(length, _scan_window(reading, max_entry, length)):
            mirrored = True
            if path[0] == path[-1]:
                reverse = path[::-1]
                if reverse < path:
                    continue
                mirrored = reverse != path
            yield path, total, chi, mirrored


def _representatives(path, mirrored):
    """The shape of a canonical leaf and, if it is another shape, its reversal."""
    dims = tuple(path)
    return (dims, dims[::-1]) if mirrored else (dims,)


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
    are generated (_canonical_leaves), and each is decided in O(1) by its
    greedy total homology and chi, which are shared along common prefixes;
    the DP runs only to report a counterexample.  Hitting work_cap stops the
    scan with partial results and truncated = True.  Bounds that are
    negative or reach past MAX_LENGTH or MAX_ENTRY raise ValueError before
    anything is scanned.
    """
    _check_bounds(max_length, max_entry, "scan")
    counterexamples = []
    scanned = 0
    truncated = False
    for path, total, chi, mirrored in _canonical_leaves(
            range(1, max_length + 2), max_entry, reading):
        if scanned >= work_cap:
            truncated = True
            break
        scanned += 1
        if total == abs(chi):
            continue
        for rep in _representatives(path, mirrored):
            # A mismatch, reported against the conjecture alone.
            result = check_shape(ComplexShape(rep), reading)
            prediction = predict_conjecture(result.shape, reading)
            counterexamples.append(
                replace(result, prediction=prediction, comparisons=((prediction, False),)))
    counterexamples.sort(key=lambda c: (len(c.shape.dims), c.shape.dims))
    return ScanReport(tuple(counterexamples), scanned, truncated)


def sweep_theorems(
    max_length: int,
    max_entry: int,
    reading: HypothesisReading = HypothesisReading.SENTINEL,
    work_cap: int = DEFAULT_SCAN_CAP,
) -> SweepSummary:
    """Tally check_shape's verdicts over every shape in the rectangle.

    Shapes of up to two maps are all walked and judged as check_shape
    judges them, from the walk's greedy total homology; the DP runs only
    for an applicable Betti set.  From three maps on, only the shapes of
    _canonical_leaves can get a verdict other than NOT_APPLICABLE:

    * Such a shape's applicable predictions are LENGTH3_SUM and CONJECTURE,
      which need the hypothesis, and the equal-dims ones, which need every
      dimension equal to some m >= 1.  Equal dimensions satisfy both
      readings, as 0 + m >= m and m + m >= m, so a shape that fails the
      hypothesis has no applicable prediction.
    * Every applicable sum prediction predicts |chi|, and every maximizer
      has the greedy total homology.  So a shape without an applicable
      Betti set is a MATCH iff that total is |chi|, else a MISMATCH.  An
      equal-dims shape with m >= 1 has a Betti set and goes to _judge.
    * Every input to the verdict is invariant under reversal: both windows
      of the hypothesis are symmetric, reversal keeps equal dimensions
      equal, chi changes at most its sign, and the total is that of every
      maximizer of d, which is symmetric under reversal.  So a mirror pair
      shares its verdict and counts twice; a palindrome counts once.

    Only a mismatch goes through check_shape itself, each representative
    for its details, which are then put in rectangle order; the rest of the
    rectangle is NOT_APPLICABLE.  Bounds are refused as in conjecture_scan,
    before the work cap is read.
    """
    _check_bounds(max_length, max_entry, "sweep")
    size = sum((max_entry + 1) ** (n + 1) for n in range(max_length + 1))
    if size > work_cap:  # size can pass the 4300 digits str() allows, so it is not shown
        raise WorkCapExceeded(
            f"sweep up to {max_length} maps with entries up to {max_entry} "
            f"exceeds the work cap of {work_cap} shapes"
        )
    # Every shape of up to two maps, then the canonical ones of three maps on.
    leaves = chain(
        ((*leaf, False) for length in range(1, min(max_length, 2) + 2)
         for leaf in _greedy_leaves(length, lambda path, k: (0, max_entry))),
        _canonical_leaves(range(4, max_length + 2), max_entry, reading),
    )
    matches = 0
    details = []
    for path, total, chi, mirrored in leaves:
        if len(path) <= 3 or (not mirrored and path[0] and path.count(path[0]) == len(path)):
            # _check_bounds has admitted every length and entry the walks visit.
            shape = _unvalidated(ComplexShape, "dims", tuple(path))
            verdict = _judge(shape, reading, total)[0]
        else:
            verdict = Verdict.MATCH if total == abs(chi) else Verdict.MISMATCH
        if verdict is Verdict.MATCH:
            matches += 1 + mirrored
        elif verdict is Verdict.MISMATCH:
            details += [check_shape(ComplexShape(rep), reading)
                        for rep in _representatives(path, mirrored)]
    details.sort(key=lambda c: (len(c.shape.dims), c.shape.dims))
    mismatches = len(details)
    return SweepSummary(size, matches, mismatches, size - matches - mismatches,
                        tuple(details))
