"""Closed-form predictions of almost-sure Betti numbers, and their checks.

For several families of shapes the positive-probability Betti vectors
have closed forms: complexes with one or two maps, three maps under a
no-forced-homology hypothesis on the dimensions, and arbitrary length
with all dimensions equal.  This module implements those closed forms,
checks them against the listed maximizers, and scans shape space for
counterexamples to the general conjecture that total homology is almost
surely |chi| whenever no Betti number is forced positive by the
dimensions alone.

A predicted Betti set holds iff it equals the Betti spectrum of the
listed maximizers.  A total-homology claim needs no DP.  By the
forced-homology theorem (proved in the optimizer module) every maximizer
has the rank sum of the greedy ranks g, so almost surely sum beta_i =
sum a_i - 2 sum g_i, which costs O(n) per shape.  The scan and the sweep
carry it and chi along shared prefixes, so each shape they visit is
decided in O(1).  Every verdict is shared by a shape and its reversal,
so both visit one shape of each reversal pair.  Past two maps both visit
only the hypothesis shapes: no other shape has an applicable prediction.
Up to two maps the sweep checks one shape of each pair with check_shape
(see sweep_theorems).

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

from enum import Enum
from itertools import chain, combinations, product
from math import comb
from operator import add, ge, index

from .core import (
    DEFAULT_WORK_CAP,
    MAX_ENTRY,
    MAX_LENGTH,
    BettiVector,
    ComplexShape,
    WorkCapExceeded,
    _chi,
    _greedy,
    _Record,
    _unvalidated,
)
from .optimizer import CHECK_ENUMERATION_GUARD, MaximizerReport, _listing_guard, _observe

# Largest number of shapes of up to two maps in a theorem sweep's rectangle,
# which sweep_theorems runs through check_shape, each with its own DP and
# listing.  A shape takes about 8-17 us at every length, so the largest
# sweep served at each, (0, 333338), (1, 575) and (2, 68), takes 3-4 s.
MAX_SWEEP_SHORT_SHAPES = 69 + 69**2 + 69**3


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


class Prediction(_Record):
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


class ComparisonResult(_Record):
    """A verdict on one shape.  `prediction` is the deciding prediction;
    `comparisons` pairs each compared prediction with whether the observed
    spectrum fulfils it, None when the prediction does not apply."""

    shape: ComplexShape
    prediction: Prediction
    observed: MaximizerReport
    verdict: Verdict
    comparisons: tuple[tuple[Prediction, bool | None], ...]


class ScanReport(_Record):
    """Outcome of a conjecture scan: the counterexamples found (expected
    none), how many hypothesis-satisfying shapes were checked, and whether
    the scan stopped early at the work cap."""

    counterexamples: tuple[ComparisonResult, ...]
    shapes_scanned: int
    truncated: bool


class SweepSummary(_Record):
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
    """Whether a_i + a_{i+2} >= a_{i+1} over the reading's index window.
    The reading may be given by its value; any other raises ValueError."""
    p = shape.dims
    if HypothesisReading(reading) is HypothesisReading.SENTINEL:
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
    _listing_guard(comb(slots, extra), n + 1, f"the spread set of {n} maps of dimension {m}",
                   "Betti vectors")
    even = [0 if i % 2 else base for i in range(n + 1)]
    vectors = []
    for raised in combinations(range(0, n + 1, 2), extra):
        betti = even.copy()
        for i in raised:
            betti[i] += 1
        vectors.append(_unvalidated(BettiVector, "bettis", tuple(betti)))
    # Combinations come in lexicographic order, and raising an earlier slot
    # makes a larger vector, so the reversed list ascends.
    return tuple(reversed(vectors))


def predict_equal_dim(shape: ComplexShape) -> Prediction:
    """All dimensions equal m >= 1: exact for odd n, evenly spread |chi| = m
    across the even Betti numbers for even n.  Raises WorkCapExceeded when
    the spread set outnumbers CHECK_ENUMERATION_GUARD or its entries
    MAX_LISTED_ENTRIES."""
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


def _fulfils(prediction, total, spectrum) -> bool:
    """Whether the listed Betti spectrum fulfils an applicable prediction: a
    Betti set by set equality, a sum by the greedy total homology `total`."""
    if prediction.predicted_betti_set:
        return set(prediction.predicted_betti_set) == set(spectrum)
    return total == prediction.predicted_sum


def check_shape(
    shape: ComplexShape, reading: HypothesisReading = HypothesisReading.SENTINEL
) -> ComparisonResult:
    """Compare every applicable prediction with the observed spectrum.

    The maximizers are listed (_observe), so a shape with more than
    CHECK_ENUMERATION_GUARD of them, or with a listing past
    MAX_LISTED_ENTRIES entries, is refused first.  A predicted Betti set
    holds iff it equals the listed spectrum as a set.  A predicted sum
    holds iff it equals the greedy total homology sum a_i - 2 sum g_i,
    which every maximizer has (the theorem in the optimizer module).  Any
    mismatch dominates the verdict; with no applicable prediction it is
    NOT_APPLICABLE.  The returned prediction is the deciding one (first
    mismatch, else first applicable match); `comparisons` holds all six
    predictions with their outcomes.
    """
    observed = _observe(shape)
    total = sum(shape.dims) - 2 * sum(_greedy(shape.dims))
    predictions = all_predictions(shape, reading)
    outcomes = [_fulfils(p, total, observed.betti_spectrum) if p.applicable else None
                for p in predictions]
    if False in outcomes:
        verdict, prediction = Verdict.MISMATCH, predictions[outcomes.index(False)]
    elif True in outcomes:
        verdict, prediction = Verdict.MATCH, predictions[outcomes.index(True)]
    else:
        verdict, prediction = Verdict.NOT_APPLICABLE, _NA_CONJECTURE
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


def _canonical_leaves(lengths, max_entry, reading):
    """The hypothesis shapes of the given lengths with entries up to
    max_entry, one of each reversal pair, by length and then
    lexicographically: (path, total, chi, mirrored) with the total homology
    sum a_i - 2 sum g_i of the greedy ranks g, which every maximizer has
    (the theorem in the optimizer module), the Euler characteristic chi,
    and whether the reversal is another shape.  The same path list is
    yielded at every leaf: copy it to keep it.

    The walk descends entry by entry.  A node at depth k holds only
    g_k = min(a_k, a_{k-1} - g_{k-1}), g_0 = 0, and the running total and
    chi, shared by the shapes below it, so a leaf costs O(1).  An entry x
    after w, a obeys x >= a - w.  The sentinel reading reads a 0 before the
    shape, so a_1 >= a_0, and one after it, so the last entry is at most
    its predecessor and a lone entry is 0.  The last entry is also at least
    the first: a shape whose last entry is below its first is greater than
    its reversal, which the walk visits instead.  An empty range prunes the
    node above it; any other prefix extends to a hypothesis shape by
    repeating its last entry.  So a shape is greater than its reversal
    only if its first and last entries are equal, and only then is the
    reversal compared.
    """
    sentinel = HypothesisReading(reading) is HypothesisReading.SENTINEL
    for length in lengths:
        last = length - 1
        path = [0] * length
        stop = [0] * length
        rank = [0] * length
        total = [0] * length
        chi = [0] * length
        stop[0] = 0 if sentinel and not last else max_entry
        k = 0
        while True:
            a = path[k]
            # The range [first, end] of entry k + 1 after this node.
            first = end = 0
            if k < last:
                if k:
                    first = a - path[k - 1]
                    if first < 0:
                        first = 0
                elif sentinel:
                    first = a
                end = max_entry
                if k + 1 == last:
                    if first < path[0]:
                        first = path[0]
                    if sentinel:
                        end = a
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
                if k < last:
                    rank[k], total[k], chi[k] = g, t, c
                    k += 1
                    path[k], stop[k] = first, end
                    continue
                if a != path[0]:
                    yield path, t, c, True
                else:
                    reverse = path[::-1]
                    if path <= reverse:
                        yield path, t, c, path != reverse
            while path[k] >= stop[k]:
                k -= 1
                if k < 0:
                    break
            if k < 0:
                break
            path[k] += 1


def conjecture_scan(
    max_length: int,
    max_entry: int,
    reading: HypothesisReading = HypothesisReading.SENTINEL,
    work_cap: int = DEFAULT_WORK_CAP,
) -> ScanReport:
    """Hunt for hypothesis-satisfying shapes whose maximizers violate
    sum beta_i = |chi|.

    max_length bounds the number of boundary maps; entries run 0..max_entry.
    Shapes are scanned up to reversal (d is symmetric under it), by length
    and then lexicographically; when a counterexample is found both
    representatives are reported.  Only shapes that satisfy the hypothesis
    are generated (_canonical_leaves), and each is decided in O(1) by its
    greedy total homology and chi, which are shared along common prefixes;
    the DP runs only to list a counterexample's maximizers (_observe).
    Hitting work_cap, read through operator.index, stops the scan with
    partial results and truncated = True.  Bounds that are negative or
    reach past MAX_LENGTH or MAX_ENTRY raise ValueError before anything is
    scanned.
    """
    _check_bounds(max_length, max_entry, "scan")
    work_cap = index(work_cap)
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
        dims = tuple(path)
        for rep in (dims, dims[::-1]) if mirrored else (dims,):
            # A mismatch, reported against the conjecture alone.
            shape = ComplexShape(rep)
            prediction = predict_conjecture(shape, reading)
            counterexamples.append(ComparisonResult(
                shape, prediction, _observe(shape), Verdict.MISMATCH, ((prediction, False),)))
    counterexamples.sort(key=lambda c: (len(c.shape.dims), c.shape.dims))
    return ScanReport(tuple(counterexamples), scanned, truncated)


def sweep_theorems(
    max_length: int,
    max_entry: int,
    reading: HypothesisReading = HypothesisReading.SENTINEL,
    work_cap: int = DEFAULT_WORK_CAP,
) -> SweepSummary:
    """Tally check_shape's verdicts over every shape in the rectangle.

    Every input to the verdict is invariant under reversal, so the sweep
    decides one shape of each mirror pair, which counts twice; a palindrome
    counts once:

    * d is symmetric under reversal, so the maximizers of the reversal are
      the reversed maximizers, its spectrum is the reversed spectrum, and
      its total homology is the same.
    * Each closed form maps to its reversal.  LENGTH1 swaps its two cases.
      LENGTH2 swaps its two one-sided dominant cases, and the a_1-dominant
      and the balanced sets are closed under reversal, as chi is unchanged.
      Reversal keeps equal dimensions equal, and every sum prediction
      predicts |chi|, whose sign alone reversal may change.  Both windows
      of the hypothesis are symmetric, so every prediction applies to a
      shape iff it applies to its reversal.

    Shapes of up to two maps are taken from the product of the entries,
    those no greater than their reversal, and each goes through check_shape.
    From three maps on, only the shapes of _canonical_leaves can get a
    verdict other than NOT_APPLICABLE:

    * Such a shape's applicable predictions are LENGTH3_SUM and CONJECTURE,
      which need the hypothesis, and the equal-dims ones, which need every
      dimension equal to some m >= 1.  Equal dimensions satisfy both
      readings, as 0 + m >= m and m + m >= m, so a shape that fails the
      hypothesis has no applicable prediction.
    * Every applicable sum prediction predicts |chi|, and every maximizer
      has the greedy total homology.  So a shape without an applicable
      Betti set is a MATCH iff that total is |chi|, else a MISMATCH.  An
      equal-dims shape with m >= 1 has a Betti set and goes through
      check_shape.

    A mismatch that went through check_shape is its own detail; every
    other representative of a mismatched pair goes through check_shape for
    its details, which are then put in rectangle order.  The rest of the
    rectangle is NOT_APPLICABLE.  Bounds are refused as in conjecture_scan,
    before the work cap is read through operator.index; then a rectangle
    of more than work_cap shapes, or of more than MAX_SWEEP_SHORT_SHAPES
    shapes of up to two maps, is refused before any DP.
    """
    _check_bounds(max_length, max_entry, "sweep")
    work_cap = index(work_cap)
    size = sum((max_entry + 1) ** (n + 1) for n in range(max_length + 1))
    if size > work_cap:  # size can pass the 4300 digits str() allows, so it is not shown
        raise WorkCapExceeded(
            f"sweep up to {max_length} maps with entries up to {max_entry} "
            f"exceeds the work cap of {work_cap} shapes"
        )
    checked = sum((max_entry + 1) ** (n + 1) for n in range(min(max_length, 2) + 1))
    if checked > MAX_SWEEP_SHORT_SHAPES:
        raise WorkCapExceeded(
            f"sweep up to {max_length} maps with entries up to {max_entry} checks "
            f"{checked} shapes of up to two maps against the DP, exceeding the cap of "
            f"{MAX_SWEEP_SHORT_SHAPES}"
        )
    # One of each mirror pair: of up to two maps, then the canonical ones.
    short = (dims for length in range(1, min(max_length, 2) + 2)
             for dims in product(range(max_entry + 1), repeat=length) if dims <= dims[::-1])
    leaves = chain(((dims, None, None, dims != dims[::-1]) for dims in short),
                   _canonical_leaves(range(4, max_length + 2), max_entry, reading))
    matches = 0
    details = []
    for path, total, chi, mirrored in leaves:
        result = None
        if len(path) <= 3 or (not mirrored and path[0] and path.count(path[0]) == len(path)):
            # _check_bounds has admitted every length and entry the walks visit.
            result = check_shape(_unvalidated(ComplexShape, "dims", tuple(path)), reading)
            verdict = result.verdict
        else:
            verdict = Verdict.MATCH if total == abs(chi) else Verdict.MISMATCH
        if verdict is Verdict.MATCH:
            matches += 1 + mirrored
        elif verdict is Verdict.MISMATCH:
            dims = tuple(path)
            details.append(result or check_shape(ComplexShape(dims), reading))
            if mirrored:
                details.append(check_shape(ComplexShape(dims[::-1]), reading))
    details.sort(key=lambda c: (len(c.shape.dims), c.shape.dims))
    mismatches = len(details)
    return SweepSummary(size, matches, mismatches, size - matches - mismatches,
                        tuple(details))
