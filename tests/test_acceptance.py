"""Acceptance suite: one test per criterion, one printed verdict line each.

Everything asserted here is exact (integer equality or set equality);
the underlying claims are almost-sure combinatorial identities, so the
checks are oracle-based or exhaustive rather than statistical.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import itertools
import random
from math import comb

from chaincx import (
    BettiVector,
    ComplexShape,
    HypothesisReading,
    RankVector,
    betti_lower_bound,
    brute_force_maximize,
    canonical_complex,
    conjecture_scan,
    enumerate_maximizers,
    greedy_rank_vector,
    hypothesis_holds,
    is_feasible,
    maximizer_rank_sum_range,
    numerical_rank,
    orbit_dimension,
    predict_equal_dim,
    predict_length2,
    random_conjugation,
    sequential_sample,
    stratum_dimension,
)
from chaincx.cli import _run, build_parser
from test_core import iter_feasible_ranks, iter_shapes

SENTINEL = HypothesisReading.SENTINEL
INTERIOR = HypothesisReading.INTERIOR


def _verdict(num, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance {num:02d}] {status}: {description}")
    assert not failures, f"criterion {num}: {failures[:5]}"


def test_criterion_01_length2_exhaustive():
    # All 13^3 = 2197 triples: brute-force Betti spectrum equals the
    # two-map closed form, as sets, with no tolerance.
    failures = []
    count = 0
    for dims in itertools.product(range(13), repeat=3):
        count += 1
        shape = ComplexShape(dims)
        observed = {b.bettis for b in brute_force_maximize(shape).betti_spectrum}
        predicted = {b.bettis for b in predict_length2(shape).predicted_betti_set}
        if observed != predicted:
            failures.append((dims, observed, predicted))
    assert count == 2197
    _verdict(1, "two-map closed form matches brute force on all 2197 shapes", failures)


def test_criterion_02_length3_sum():
    # Three-map shapes with entries 0..8 satisfying the adopted (sentinel)
    # hypothesis: every maximizer has total homology exactly |chi|.
    failures = []
    checked = 0
    for dims in itertools.product(range(9), repeat=4):
        shape = ComplexShape(dims)
        if not hypothesis_holds(shape, SENTINEL):
            continue
        checked += 1
        total = sum(dims)
        _, lo, hi = maximizer_rank_sum_range(shape)
        target = betti_lower_bound(shape)
        if total - 2 * lo != target or total - 2 * hi != target:
            failures.append((dims, total - 2 * hi, total - 2 * lo, target))
    assert checked > 0
    _verdict(2, f"three-map total homology equals |chi| on {checked} hypothesis shapes",
             failures)


def test_criterion_03_equal_dim_odd():
    # Odd number of maps, equal dimensions: unique maximizer
    # (m, 0, m, ..., 0, m) and identically zero homology.
    failures = []
    for n in (1, 3, 5, 7):
        for m in range(1, 7):
            shape = ComplexShape((m,) * (n + 1))
            report = enumerate_maximizers(shape)
            expected = RankVector(tuple(m if i % 2 == 0 else 0 for i in range(n)))
            zeros = BettiVector((0,) * (n + 1))
            if report.maximizers != (expected,) or report.betti_spectrum != (zeros,):
                failures.append((n, m, report.maximizers, report.betti_spectrum))
    _verdict(3, "equal dims, odd maps: unique alternating maximizer, zero homology",
             failures)


def test_criterion_04_equal_dim_even_spread():
    # Even number of maps, equal dimensions: odd Betti numbers vanish,
    # even ones are floor/ceil of m/(n/2+1), the total is m, and the
    # observed spectrum equals the predicted spread set exactly.
    failures = []
    for n in (2, 4, 6):
        slots = n // 2 + 1
        for m in range(1, 9):
            shape = ComplexShape((m,) * (n + 1))
            report = enumerate_maximizers(shape, cap=100_000)
            floor_v, ceil_v = m // slots, -(-m // slots)
            for b in report.betti_spectrum:
                values = b.bettis
                if any(values[i] != 0 for i in range(1, n + 1, 2)):
                    failures.append((n, m, values, "odd entry nonzero"))
                if any(values[2 * k] not in (floor_v, ceil_v) for k in range(slots)):
                    failures.append((n, m, values, "even entry out of range"))
                if sum(values) != m:
                    failures.append((n, m, values, "total not m"))
            predicted = predict_equal_dim(shape).predicted_betti_set
            if tuple(sorted(report.betti_spectrum)) != predicted:
                failures.append((n, m, report.betti_spectrum, predicted))
    _verdict(4, "equal dims, even maps: spectrum is exactly the even spread of m",
             failures)


def test_criterion_05_maximizer_count_formula():
    # m = n^2/4 + n/4 with n divisible by 4 gives binom(n/2+1, n/4)
    # positive-probability Betti vectors.
    failures = []
    for n, m, expected in ((4, 5, comb(3, 1)), (8, 18, comb(5, 2))):
        count = enumerate_maximizers(ComplexShape((m,) * (n + 1))).maximizer_count
        if count != expected:
            failures.append((n, m, count, expected))
    _verdict(5, "maximizer counts: 3 for (n=4, m=5), 10 for (n=8, m=18)", failures)


def test_criterion_06_oracle_equivalence():
    # Dynamic program vs exhaustive oracle: max dimension, exact count and
    # the full lexicographic listing agree on every shape with up to 5
    # spaces and entries <= 6, plus 1000 seeded random shapes, entries <= 10.
    failures = []

    def compare(shape):
        dp = enumerate_maximizers(shape, cap=1_000_000)
        bf = brute_force_maximize(shape)
        if (
            dp.max_dimension != bf.max_dimension
            or dp.maximizer_count != bf.maximizer_count
            or dp.maximizers != bf.maximizers
        ):
            failures.append(shape.dims)

    exhaustive = 0
    for shape in iter_shapes(5, 6):
        exhaustive += 1
        compare(shape)
    rng = random.Random(0xC4A1)
    for _ in range(1000):
        k = rng.randint(1, 5)
        compare(ComplexShape(tuple(rng.randint(0, 10) for _ in range(k))))
    assert exhaustive == 7 + 49 + 343 + 2401 + 16807
    _verdict(6, "optimizer equals the exhaustive oracle on 19607 + 1000 shapes",
             failures)


def test_criterion_07_dimension_formula_verification():
    # Orbit rank of the linearized change-of-basis action equals d(a, r)
    # for every feasible instance with up to 4 spaces and entries <= 4,
    # and stays equal under 10 random conjugations per instance
    # (condition number <= 1e3).  Integer equality throughout.
    failures = []
    instances = 0
    for shape in iter_shapes(4, 4):
        for rv in iter_feasible_ranks(shape):
            instances += 1
            expected = stratum_dimension(shape, rv)
            base = canonical_complex(shape, rv)
            if orbit_dimension(base) != expected:
                failures.append((shape.dims, rv.ranks, "canonical"))
                continue
            for seed in range(10):
                moved = random_conjugation(base, seed)
                if orbit_dimension(moved) != expected:
                    failures.append((shape.dims, rv.ranks, seed))
    _verdict(7, f"orbit rank equals d(a, r) on {instances} instances x 11 bases",
             failures)


def test_criterion_08_monotonicity():
    # 10,000 seeded random feasible pairs: every feasible unit increment
    # of a rank raises the dimension by at least 1.
    rng = random.Random(0x5EED)
    failures = []
    increments_checked = 0
    for _ in range(10_000):
        k = rng.randint(2, 6)
        dims = tuple(rng.randint(0, 8) for _ in range(k))
        shape = ComplexShape(dims)
        values = []
        prev = 0
        for i in range(1, k):
            hi = min(dims[i - 1] - prev, dims[i])
            values.append(rng.randint(0, hi))
            prev = values[-1]
        rv = RankVector(tuple(values))
        base = stratum_dimension(shape, rv)
        for i in range(len(values)):
            bumped = list(values)
            bumped[i] += 1
            bumped_rv = RankVector(tuple(bumped))
            if not is_feasible(shape, bumped_rv):
                continue
            increments_checked += 1
            if stratum_dimension(shape, bumped_rv) < base + 1:
                failures.append((dims, values, i))
    assert increments_checked > 10_000
    _verdict(8, f"dimension strictly increases along {increments_checked} feasible "
                "unit increments", failures)


def test_criterion_09_conjecture_scan():
    # Zero counterexamples among shapes (up to 5 maps, entries <= 5) that
    # satisfy the no-forced-homology hypothesis under both index-window
    # readings.  The sentinel window subsumes the interior one, so the
    # sentinel scan covers the intersection; the interior scan is run as
    # well and every shape it flags must be outside the intersection,
    # i.e. must violate the sentinel (end) conditions.
    failures = []
    sentinel_scan = conjecture_scan(5, 5, SENTINEL)
    assert not sentinel_scan.truncated
    for result in sentinel_scan.counterexamples:
        failures.append(("sentinel", result.shape.dims))
    interior_scan = conjecture_scan(5, 5, INTERIOR)
    assert not interior_scan.truncated
    for result in interior_scan.counterexamples:
        if hypothesis_holds(result.shape, SENTINEL):
            failures.append(("both-readings", result.shape.dims))
    # Subsumption sanity: sentinel-satisfying shapes all satisfy interior.
    for shape in iter_shapes(6, 5):
        if hypothesis_holds(shape, SENTINEL) and not hypothesis_holds(shape, INTERIOR):
            failures.append(("subsumption", shape.dims))
    _verdict(9, f"conjecture scan clean on {sentinel_scan.shapes_scanned} shapes "
                "satisfying the hypothesis under both readings", failures)


def test_criterion_10_sampler_bias():
    # Shape (1, 2, 1, 2): 100 seeded runs all produce numerical ranks
    # (1, 1, 0), which is absent from the maximizer set {(1, 0, 1)};
    # the CLI raises its bias flag.
    failures = []
    shape = ComplexShape((1, 2, 1, 2))
    for seed in range(100):
        cx = sequential_sample(shape, seed)
        observed = tuple(numerical_rank(m) for m in cx.maps)
        if observed != (1, 1, 0):
            failures.append((seed, observed))
    report = enumerate_maximizers(shape)
    if [r.ranks for r in report.maximizers] != [(1, 0, 1)]:
        failures.append(("maximizers", report.maximizers))
    if greedy_rank_vector(shape) in report.maximizers:
        failures.append("greedy unexpectedly optimal")
    args = build_parser().parse_args(
        ["sample", "--dims", "1,2,1,2", "--seed", "0", "--trials", "100"]
    )
    envelope, code = _run(args)
    if code != 0 or envelope["payload"]["biased"] is not True:
        failures.append(("cli", code, envelope["payload"].get("biased")))
    if envelope["payload"]["trial_ranks"] != [[1, 1, 0]] * 100:
        failures.append(("cli trials", envelope["payload"]["trial_ranks"][:3]))
    _verdict(10, "sequential sampler bias on (1,2,1,2) detected and flagged",
             failures)
