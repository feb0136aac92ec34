"""Dynamic program against the exhaustive oracle, counting, enumeration order."""

import functools
import itertools
import random
import tracemalloc
from array import array
from operator import add, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincx import (
    MAX_DP_STATES,
    MAX_ENTRY,
    MAX_LENGTH,
    ComplexShape,
    RankVector,
    WorkCapExceeded,
    brute_force_maximize,
    enumerate_maximizers,
    greedy_rank_vector,
    is_feasible,
    maximize_dp,
    maximizer_rank_sum_range,
    stratum_dimension,
)
from chaincx import optimizer
from chaincx.core import _betti, _dimension, _feasible
from chaincx.optimizer import (
    CHECK_ENUMERATION_GUARD,
    MAX_LISTED_ENTRIES,
    _lexicographic_paths,
    _listing_guard,
    _solve,
    _state_caps,
)
from test_core import iter_feasible_ranks, iter_shapes, shape


class TestMaximizeDp:
    def test_equal_dims_odd_length_unique_alternating(self):
        for n, m in [(1, 4), (3, 2), (5, 3)]:
            s = ComplexShape((m,) * (n + 1))
            expected = tuple(m if i % 2 == 0 else 0 for i in range(n))
            best, witness = maximize_dp(s)
            assert witness.ranks == expected
            report = enumerate_maximizers(s)
            assert report.maximizer_count == 1
            assert report.maximizers == (RankVector(expected),)

    def test_beats_greedy_on_1212(self):
        best, witness = maximize_dp(shape(1, 2, 1, 2))
        assert (best, witness.ranks) == (4, (1, 0, 1))
        assert stratum_dimension(shape(1, 2, 1, 2), RankVector((1, 1, 0))) == 3

    def test_single_space(self):
        assert maximize_dp(shape(5)) == (0, RankVector(()))

    def test_witness_always_feasible_and_optimal(self):
        for s in iter_shapes(4, 4):
            best, witness = maximize_dp(s)
            assert is_feasible(s, witness)
            assert stratum_dimension(s, witness) == best


class TestBruteForce:
    def test_313(self):
        report = brute_force_maximize(shape(3, 1, 3))
        assert report.max_dimension == 3
        assert {r.ranks for r in report.maximizers} == {(1, 0), (0, 1)}
        assert {b.bettis for b in report.betti_spectrum} == {(2, 0, 3), (3, 0, 2)}
        assert not report.truncated

    def test_2112(self):
        report = brute_force_maximize(shape(2, 1, 1, 2))
        assert [r.ranks for r in report.maximizers] == [(1, 0, 1)]
        assert [b.bettis for b in report.betti_spectrum] == [(1, 0, 0, 1)]

    def test_equal_odd_m(self):
        report = brute_force_maximize(shape(3, 3, 3))
        assert {b.bettis for b in report.betti_spectrum} == {(1, 0, 2), (2, 0, 1)}

    def test_work_cap_refusal(self):
        with pytest.raises(WorkCapExceeded, match="17"):
            brute_force_maximize(shape(9, 9, 9, 9), work_cap=17)
        # The cap is an integer: True is 1, and a float is refused.
        with pytest.raises(WorkCapExceeded, match="work cap of 1$"):
            brute_force_maximize(shape(9, 9, 9, 9), work_cap=True)
        with pytest.raises(TypeError):
            brute_force_maximize(shape(2, 2), work_cap=17.5)


class TestEnumerate:
    def test_spread_count_examples(self):
        assert enumerate_maximizers(shape(5, 5, 5, 5, 5)).maximizer_count == 3
        assert enumerate_maximizers(ComplexShape((18,) * 9)).maximizer_count == 10

    def test_spread_spectrum_n4_m5(self):
        report = enumerate_maximizers(shape(5, 5, 5, 5, 5))
        spectrum = {b.bettis for b in report.betti_spectrum}
        assert spectrum == {(1, 0, 2, 0, 2), (2, 0, 1, 0, 2), (2, 0, 2, 0, 1)}

    def test_single_space(self):
        report = enumerate_maximizers(shape(5))
        assert report.maximizer_count == 1
        assert report.maximizers == (RankVector(()),)

    def test_truncation_keeps_exact_count(self):
        report = enumerate_maximizers(shape(5, 5, 5, 5, 5), cap=2)
        assert report.truncated
        assert report.maximizer_count == 3
        assert len(report.maximizers) == 2
        assert report.enumeration_cap == 2
        full = enumerate_maximizers(shape(5, 5, 5, 5, 5))
        assert report.maximizers == full.maximizers[:2]

    def test_lexicographic_order(self):
        for s in [shape(3, 1, 3), shape(4, 4, 4), shape(2, 3, 2, 3)]:
            listed = [r.ranks for r in enumerate_maximizers(s).maximizers]
            assert listed == sorted(listed)

    def test_thousand_maps_lists_without_recursion(self):
        # 1000 maps: one listed maximizer is a path 1000 steps deep.
        s = ComplexShape((20,) * 1001)
        report = enumerate_maximizers(s, cap=2)
        best, witness = maximize_dp(s)
        assert report.max_dimension == best
        assert report.maximizers[0] == witness
        assert report.maximizers[0].ranks < report.maximizers[1].ranks
        assert report.truncated and report.maximizer_count > 2
        assert all(is_feasible(s, r) for r in report.maximizers)

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            enumerate_maximizers(shape(2, 2), cap=0)
        # The cap is an integer.  Read as it came, 1.5 listed two of these
        # three maximizers, and True was reported as the cap.
        with pytest.raises(TypeError):
            enumerate_maximizers(shape(2, 2, 2, 2, 2), cap=1.5)
        report = enumerate_maximizers(shape(2, 2, 2, 2, 2), cap=True)
        assert len(report.maximizers) == 1 and report.maximizer_count == 3
        assert type(report.enumeration_cap) is int and report.enumeration_cap == 1

    def test_deterministic(self):
        a = enumerate_maximizers(shape(4, 2, 4, 2))
        b = enumerate_maximizers(shape(4, 2, 4, 2))
        assert a == b

    def test_spectrum_aligned_with_maximizers(self):
        from chaincx import betti_from_ranks

        report = enumerate_maximizers(shape(3, 1, 3))
        for rv, bv in zip(report.maximizers, report.betti_spectrum):
            assert betti_from_ranks(shape(3, 1, 3), rv) == bv


class TestOracleEquivalence:
    def test_exhaustive_small(self):
        # Unit-scale slice of the oracle comparison; the acceptance suite
        # runs the full documented bounds.
        for s in iter_shapes(4, 4):
            dp = enumerate_maximizers(s, cap=100_000)
            bf = brute_force_maximize(s)
            assert dp.max_dimension == bf.max_dimension, s
            assert dp.maximizer_count == bf.maximizer_count, s
            assert dp.maximizers == bf.maximizers, s

    def test_random_shapes(self):
        rng = random.Random(20240517)
        for _ in range(150):
            k = rng.randint(1, 5)
            s = ComplexShape(tuple(rng.randint(0, 8) for _ in range(k)))
            dp = enumerate_maximizers(s, cap=100_000)
            bf = brute_force_maximize(s)
            assert dp.max_dimension == bf.max_dimension, s
            assert dp.maximizers == bf.maximizers, s


class TestMonotonicity:
    def test_unit_increment_strictly_increases(self):
        # d(r + e_i) >= d(r) + 1 whenever the increment stays feasible.
        for s in iter_shapes(4, 4):
            for rv in iter_feasible_ranks(s):
                base = stratum_dimension(s, rv)
                for i in range(len(rv.ranks)):
                    bumped = list(rv.ranks)
                    bumped[i] += 1
                    bumped_rv = RankVector(tuple(bumped))
                    if is_feasible(s, bumped_rv):
                        assert stratum_dimension(s, bumped_rv) >= base + 1

    def test_maximizers_are_maximal(self):
        # At a maximizer no rank has slack on both adjacent constraints.
        for s in iter_shapes(4, 4):
            dims = s.dims
            for rv in enumerate_maximizers(s, cap=100_000).maximizers:
                padded = (0,) + rv.ranks + (0,)
                for i in range(1, len(dims)):
                    left = padded[i - 1] + padded[i] == dims[i - 1]
                    right = padded[i] + padded[i + 1] == dims[i]
                    assert left or right, (s, rv, i)


class TestRankSumRange:
    def test_matches_enumeration(self):
        # Listed maximizers are an oracle independent of the greedy sum.
        for s in iter_shapes(4, 4):
            best, lo, hi = maximizer_rank_sum_range(s)
            report = enumerate_maximizers(s, cap=100_000)
            sums = [sum(r.ranks) for r in report.maximizers]
            assert best == report.max_dimension
            assert lo == min(sums)
            assert hi == max(sums)


def _quadratic_solve(dims):
    """Reference backward pass: scans every move of every state, O(n A^2).

    The oracle the windowed _solve must reproduce exactly.  It keeps the
    least and greatest rank sum over all maximizers, which _solve no longer
    tracks: (max d, moves, count, min sum r_i, max sum r_i).
    """
    n = len(dims) - 1
    caps = _state_caps(dims)
    best = [0] * (caps[n] + 1)
    count = [1] * (caps[n] + 1)
    lo = [0] * (caps[n] + 1)
    hi = [0] * (caps[n] + 1)
    moves = [None] * n
    for i in range(n - 1, -1, -1):
        a, b = dims[i], dims[i + 1]
        cap = caps[i + 1]
        # q (c - q) + best[q] = c q + base[q] with c = a + b - p.
        base = [v - q * q for q, v in enumerate(best)]
        stage_moves, new_best, new_count, new_lo, new_hi = [], [], [], [], []
        for p in range(caps[i] + 1):
            c = a + b - p
            # c = 0 only when p = a and b = 0: the one move is q = 0.
            values = list(map(add, range(0, c * min(cap, a - p) + 1, c or 1), base))
            top = max(values)
            if values.count(top) == 1:
                q = values.index(top)
                ties = (q,)
                new_count.append(count[q])
                new_lo.append(q + lo[q])
                new_hi.append(q + hi[q])
            else:
                ties = tuple([q for q, v in enumerate(values) if v == top])
                new_count.append(sum([count[q] for q in ties]))
                new_lo.append(min([q + lo[q] for q in ties]))
                new_hi.append(max([q + hi[q] for q in ties]))
            stage_moves.append(ties)
            new_best.append(top)
        moves[i] = stage_moves
        best, count, lo, hi = new_best, new_count, new_lo, new_hi
    return best[0], moves, count[0], lo[0], hi[0]


def _spelled(moves):
    """Each stage's moves as one ascending tie tuple per row."""
    return [[ties_of.get(p, (least[p],)) for p in range(len(least))]
            for least, ties_of in moves]


def _assert_matches_oracle(dims):
    """_solve gives the oracle's best value, tie tuples and count, and
    maximizer_rank_sum_range the oracle's rank-sum range, whose ends agree."""
    best, moves, count, lo, hi = _quadratic_solve(dims)
    solved_best, solved_moves, solved_count = _solve(dims)
    assert (solved_best, _spelled(solved_moves), solved_count) == (best, moves, count), dims
    assert lo == hi, dims
    assert maximizer_rank_sum_range(ComplexShape(dims)) == (best, lo, hi), dims


class TestQuadraticOracle:
    """The windowed pass returns exactly what the full scan returns: the
    best value, every tie tuple and the count; the greedy rank sum is the
    full scan's rank-sum range."""

    def test_every_small_shape(self):
        for s in iter_shapes(5, 5):
            _assert_matches_oracle(s.dims)

    def test_random_shapes(self):
        rng = random.Random(20261018)
        for _ in range(300):
            _assert_matches_oracle(tuple(rng.randint(0, 30) for _ in range(rng.randint(1, 9))))

    @pytest.mark.parametrize("dims", [(50,) * 1000, (700,) * 11])
    def test_long_and_wide_shapes(self, dims):
        _assert_matches_oracle(dims)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=9))
    def test_property(self, dims):
        _assert_matches_oracle(tuple(dims))


def _row_maxima(base, count, c0, a, rows, qmax):
    """_stage's result by brute force: every move of every row."""
    least, ties_of, new_base, new_count = [], {}, [], []
    for p in range(rows):
        values = {q: (c0 - p) * q + base[q] for q in range(min(qmax, a - p) + 1)}
        top = max(values.values())
        ties = tuple(q for q, v in values.items() if v == top)
        least.append(ties[0])
        if len(ties) > 1:
            ties_of[p] = ties
        new_base.append(top - p * p)
        new_count.append(sum(count[q] for q in ties))
    return new_base, (least, ties_of), new_count


def _as_lists(out):
    new_base, (least, ties_of), *rest = out
    return new_base, (list(least), ties_of), *rest


class TestStage:
    """The concave-stages theorem of the optimizer module: Step 2 on every
    pair of feasible rank vectors of small shapes, and every distinct stage
    of a broad walk of _solve against brute force, with its concavity."""

    def test_minus_d_is_midpoint_convex(self):
        # With s_i = (-1)^i r_i, both midpoints of any two feasible s are
        # feasible, and -d(x) - d(y) >= -d(ceil) - d(floor).
        pairs = 0
        for n, max_entry in [(1, 5), (2, 4), (3, 3), (4, 2)]:
            signs = [(-1) ** i for i in range(1, n + 1)]
            for dims in itertools.product(range(max_entry + 1), repeat=n + 1):
                d_of = {tuple(map(mul, signs, rv.ranks)): _dimension(dims, rv.ranks)
                        for rv in iter_feasible_ranks(ComplexShape(dims))}
                for x, y in itertools.product(d_of, repeat=2):
                    up = tuple((u + v + 1) // 2 for u, v in zip(x, y))
                    down = tuple((u + v) // 2 for u, v in zip(x, y))
                    assert up in d_of and down in d_of, (dims, x, y)
                    assert d_of[x] + d_of[y] <= d_of[up] + d_of[down], (dims, x, y)
                    pairs += 1
        assert pairs == 30_216

    @staticmethod
    def _check_every_stage(monkeypatch, shapes):
        stage = optimizer._stage
        seen = set()

        def checked(*args):
            out = stage(*args)
            base, count, *rest = args
            key = (tuple(base), tuple(count), *rest)
            if key not in seen:
                seen.add(key)
                assert {x - 2 * y + z for x, y, z in zip(base, base[1:], base[2:])} <= {-1, -2}
                assert _as_lists(out) == _row_maxima(*args), args
            return out

        monkeypatch.setattr(optimizer, "_stage", checked)
        for dims in shapes:
            _solve(dims)
        return seen

    def test_rectangles(self, monkeypatch):
        # Every shape of at most 4 maps with entries up to 8, then of at most
        # 6 maps with entries up to 4.
        shapes = [s.dims for spaces, max_entry in [(5, 8), (7, 4)]
                  for s in iter_shapes(spaces, max_entry)]
        assert len(self._check_every_stage(monkeypatch, shapes)) > 70_000

    def test_random_shapes(self, monkeypatch):
        rng = random.Random(20261020)
        shapes = [tuple(rng.randint(0, 40) for _ in range(rng.randint(1, 12)))
                  for _ in range(500)]
        stages = self._check_every_stage(monkeypatch, shapes)
        assert max(rows for *_, rows, _ in stages) > 30


def _reference_paths(moves, limit):
    """Reference listing: a depth-first walk that refills the path below
    each advanced tie one step at a time."""
    spelled = _spelled(moves)
    n = len(spelled)
    out = []
    path, pos, ties = [], [], []
    p = 0
    while True:
        for i in range(len(path), n):
            t = spelled[i][p]
            p = t[0]
            path.append(p)
            pos.append(0)
            ties.append(t)
        out.append(tuple(path))
        if len(out) >= limit:
            return out
        while path and pos[-1] + 1 == len(ties[-1]):
            path.pop()
            pos.pop()
            ties.pop()
        if not path:
            return out
        pos[-1] += 1
        p = path[-1] = ties[-1][pos[-1]]


def listing(dims, moves, limit):
    """The rows of _lexicographic_paths, once its Betti tuples are checked
    against _betti of each row."""
    rows, bettis = _lexicographic_paths(dims, moves, limit)
    assert bettis == [_betti(dims, r) for r in rows], dims
    return rows


class TestListing:
    @pytest.mark.parametrize("dims, limit", [
        ((160,) * 101, 3000), ((60,) * 41, 10**6), ((5, 5, 5, 5, 5), 10), ((18,) * 9, 7),
        ((4, 9, 4, 9, 4, 9, 4), 10**6), ((3, 1, 3), 1)])
    def test_matches_step_by_step_walk(self, dims, limit):
        moves = _solve(dims)[1]
        assert listing(dims, moves, limit) == _reference_paths(moves, limit)

    def test_random_shapes(self):
        rng = random.Random(20261022)
        for _ in range(300):
            dims = tuple(rng.randint(0, 12) for _ in range(rng.randint(1, 14)))
            moves = _solve(dims)[1]
            limit = rng.choice([1, 2, 5, 50, 10**6])
            assert listing(dims, moves, limit) == _reference_paths(moves, limit), dims

    def test_random_move_tables(self):
        # Tie tuples of up to four moves with gaps, more general than the
        # DP's concave stages, whose ties are runs of equal slopes.
        rng = random.Random(20261023)
        for _ in range(300):
            sizes = [1] + [rng.randint(1, 5) for _ in range(rng.randint(0, 8))]
            moves = []
            for rows, states in zip(sizes, sizes[1:]):
                spelled = [tuple(sorted(rng.sample(range(states), rng.randint(1, min(4, states)))))
                           for _ in range(rows)]
                moves.append((array("q", [t[0] for t in spelled]),
                              {p: t for p, t in enumerate(spelled) if len(t) > 1}))
            limit = rng.choice([1, 3, 40, 10**6])
            # Any dims give a Betti tuple to check; the state counts will do.
            assert listing(tuple(sizes), moves, limit) == _reference_paths(moves, limit), moves


def _intervals(n):
    """The augmenting moves of n maps: each interval j..k of maps 1..n with
    k - j even, and the move +1, -1, ..., +1 along it as a vector of n."""
    return [(j, k, tuple(0 if i < j or i > k else (-1) ** (i - j) for i in range(1, n + 1)))
            for j in range(1, n + 1) for k in range(j, n + 1, 2)]


def _augments(ranks, betti, j, k):
    """Whether the move along maps j..k is feasible at ranks with Betti
    numbers betti: slack at the end spaces j - 1 and k, and a rank of at
    least 1 on each decremented map (map i is ranks[i - 1])."""
    return betti[j - 1] >= 1 and betti[k] >= 1 and min(ranks[j:k - 1:2], default=1) >= 1


@functools.cache
def _proof_shapes():
    """Every shape of at most 4 maps with entries up to 4, then of 5 maps
    with entries up to 2, with its feasible rank vectors."""
    return [(s.dims, [rv.ranks for rv in iter_feasible_ranks(s)])
            for s in itertools.chain(iter_shapes(5, 4), (
                ComplexShape(dims) for dims in itertools.product(range(3), repeat=6)))]


class TestForcedHomology:
    """The theorem of the optimizer module: every maximizer has the rank sum
    of the greedy ranks g (r_1 = min(a_0, a_1), then r_{i+1} = min(a_{i+1},
    a_i - r_i)), the largest of any feasible rank vector, so sum beta_i =
    sum a_i - 2 sum g_i almost surely.  Both steps of its proof are pinned
    exhaustively on small shapes, and the conclusion against oracles that
    do not read g: the quadratic DP and brute force."""

    def test_step1_every_interval_move_changes_d_by_the_end_slacks(self):
        moves = feasible_moves = 0
        for dims, feasible in _proof_shapes():
            intervals = _intervals(len(dims) - 1)
            for ranks in feasible:
                d = _dimension(dims, ranks)
                betti = _betti(dims, ranks)
                for j, k, step in intervals:
                    moved = tuple(map(add, ranks, step))
                    change = _dimension(dims, moved) - d
                    assert change == betti[j - 1] + betti[k] - 1, (dims, ranks, j, k)
                    ok = min(moved) >= 0 and _feasible(dims, moved)
                    assert ok == _augments(ranks, betti, j, k), (dims, ranks, j, k)
                    moves += 1
                    feasible_moves += ok
        assert (moves, feasible_moves) == (404_298, 153_232)

    def test_step2_an_augmenting_interval_exists_below_the_largest_sum(self):
        below = 0
        for dims, feasible in _proof_shapes():
            intervals = _intervals(len(dims) - 1)
            top = max(map(sum, feasible))
            for ranks in feasible:
                betti = _betti(dims, ranks)
                found = any(_augments(ranks, betti, j, k) for j, k, _ in intervals)
                assert found == (sum(ranks) < top), (dims, ranks)
                below += found
        assert below == 57_070

    def test_greedy_ranks_admit_no_augmenting_interval(self):
        for dims, feasible in _proof_shapes():
            greedy = greedy_rank_vector(ComplexShape(dims)).ranks
            assert greedy in feasible, dims
            betti = _betti(dims, greedy)
            assert not any(_augments(greedy, betti, j, k)
                           for j, k, _ in _intervals(len(greedy))), dims
            assert sum(greedy) == max(map(sum, feasible)), dims

    def test_every_shape_of_the_rectangle(self):
        # Every shape of at most 4 maps with entries up to 6.
        shapes = 0
        for s in iter_shapes(5, 6):
            _, _, _, lo, hi = _quadratic_solve(s.dims)
            assert lo == hi == sum(greedy_rank_vector(s).ranks), s
            shapes += 1
        assert shapes == 19_607

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=5))
    def test_property_against_brute_force(self, dims):
        s = ComplexShape(tuple(dims))
        sums = {sum(r.ranks) for r in brute_force_maximize(s).maximizers}
        assert sums == {sum(greedy_rank_vector(s).ranks)}


class TestStateCap:
    def test_refused_before_allocating(self):
        # 3 (MAX_ENTRY + 1) + 1 states: just over the cap.
        s = ComplexShape((MAX_ENTRY,) * 4)
        assert sum(c + 1 for c in _state_caps(s.dims)) == MAX_DP_STATES + 4
        for call in (maximize_dp, maximizer_rank_sum_range, enumerate_maximizers):
            with pytest.raises(WorkCapExceeded, match=f"exceeding the cap of {MAX_DP_STATES}"):
                call(s)
        # The documented bound still serves three spaces of MAX_ENTRY.
        assert sum(c + 1 for c in _state_caps((MAX_ENTRY,) * 3)) <= MAX_DP_STATES

    def test_bytes_per_state(self):
        # The per-state cost behind MAX_DP_STATES, scaled down.  Moves of 8
        # bytes a row and no rank-sum tables keep it near 71.
        dims = (1 << 16,) * 3
        states = sum(c + 1 for c in _state_caps(dims))
        tracemalloc.start()
        try:
            _solve(dims)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / states < 80

    def test_one_row_stage_lists_no_slopes(self):
        # The closing stage of this shape has one row and 2^20 moves.
        # Listing all its negated slopes for one bisection took the traced
        # peak to 84-88 MB; read through a key, it is about 50 MB.
        tracemalloc.start()
        try:
            assert maximize_dp(ComplexShape((1 << 20, 0, 1 << 20, 1 << 20)))[0] == 1 << 40
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 56e6


class TestListingGuard:
    def test_bounds(self):
        # The default listing of the longest shape fits, as does a listing
        # at the cap; one more row, or one more vector than the comparison
        # guard, is refused.
        _listing_guard(10_000, MAX_LENGTH, "s", "rows", most=None)
        rows = MAX_LISTED_ENTRIES // MAX_LENGTH
        _listing_guard(rows, MAX_LENGTH, "s", "rows")
        with pytest.raises(WorkCapExceeded, match=f"^s has {rows + 1} rows of 1024 entries, "
                                                  f"{(rows + 1) * 1024} in all, more than the "
                                                  f"listing cap of {MAX_LISTED_ENTRIES}$"):
            _listing_guard(rows + 1, MAX_LENGTH, "s", "rows", most=None)
        _listing_guard(CHECK_ENUMERATION_GUARD, 1, "s", "rows")
        with pytest.raises(WorkCapExceeded, match="^s has 100001 rows, more than the "
                                                  "comparison guard of 100000$"):
            _listing_guard(CHECK_ENUMERATION_GUARD + 1, 1, "s", "rows")
        _listing_guard(CHECK_ENUMERATION_GUARD + 1, 1, "s", "rows", most=None)

    def test_enumeration_refused_before_listing(self, monkeypatch):
        # 130,816 maximizers of 1,023 entries under a cap of 200,000; the
        # same shape's default listing of 10,000 rows is served.
        def no_listing(*args):
            raise AssertionError("maximizers were listed")

        monkeypatch.setattr(optimizer, "_lexicographic_paths", no_listing)
        s = ComplexShape((2,) * 1023)
        with pytest.raises(WorkCapExceeded, match="has 130816 maximizers of 1023 entries"):
            enumerate_maximizers(s, cap=200_000)
        monkeypatch.undo()
        report = enumerate_maximizers(s)
        assert (len(report.maximizers), report.maximizer_count) == (10_000, 130_816)


@functools.lru_cache(maxsize=None)
def _matrix_count(m, n, r, q):
    """The m x n matrices of rank r over F_q: prod_{j<r} (q^m - q^j)(q^n - q^j) / (q^r - q^j)."""
    num = den = 1
    for j in range(r):
        num *= (q ** m - q ** j) * (q ** n - q ** j)
        den *= q ** r - q ** j
    return num // den


def _complexes_with_ranks(dims, ranks, q):
    """N_q(a, r): the complexes over F_q with D_i: F_q^{a_{i+1}} -> F_q^{a_i}
    of rank r_i.  Choosing D_0 first, D_i maps into the kernel of D_{i-1},
    of dimension a_i - r_{i-1}."""
    count, prev = 1, 0
    for a, b, r in zip(dims, dims[1:], ranks):
        count *= _matrix_count(a - prev, b, r, q)
        prev = r
    return count


def _rank_mod(matrix, p):
    """The rank over F_p of a matrix given as rows of residues, by elimination."""
    rows = [list(row) for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][col], -1, p)
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                f = row[col] * inverse % p
                rows[i] = [(x - f * y) % p for x, y in zip(row, rows[rank])]
        rank += 1
    return rank


def _enumerated_rank_counts(dims, p):
    """The rank vectors of every complex over F_p on dims, counted by listing
    every matrix of every map and keeping the chains that compose to zero."""
    maps = []
    for a, b in zip(dims, dims[1:]):
        matrices = [tuple(entries[k * b:(k + 1) * b] for k in range(a))
                    for entries in itertools.product(range(p), repeat=a * b)]
        maps.append([(m, _rank_mod(m, p)) for m in matrices])
    counts = {}

    def extend(i, prev, ranks):
        if i == len(maps):
            counts[ranks] = counts.get(ranks, 0) + 1
            return
        for m, r in maps[i]:
            if prev is None or all(sum(map(mul, row, col)) % p == 0
                                   for row in prev for col in zip(*m)):
                extend(i + 1, m, (*ranks, r))

    extend(0, None, ())
    return counts


def _top_term(dims, q):
    """(degree, leading coefficient) of the number of complexes over F_q on
    dims, a polynomial in q, read at one large power of two q.  A path DP
    over the ranks sums N_q(a, r); it shares no code with _solve."""
    totals = {0: 1}  # the last rank -> the complexes of the maps so far
    for a, b in zip(dims, dims[1:]):
        following = {}
        for prev, count in totals.items():
            for r in range(min(a - prev, b) + 1):
                following[r] = following.get(r, 0) + count * _matrix_count(a - prev, b, r, q)
        totals = following
    total = sum(totals.values())
    degree = round(total.bit_length() / (q.bit_length() - 1))
    top = q ** degree
    # Rounded, not truncated: the lower-order terms may be negative.
    coefficient = (total + top // 2) // top
    assert abs(total - coefficient * top) <= top >> 64, dims
    return degree, coefficient


class TestFiniteFieldCounts:
    """Over F_q the complexes of rank vector r number N_q(a, r), a monic
    polynomial in q of degree d(a, r).  So the count of all complexes is
    c q^D plus lower terms, with D the largest d and c the number of
    maximizers: an exact oracle independent of the real DP."""

    @pytest.mark.parametrize("dims,p", [
        *(((2, 2, 2), 2), ((1, 2, 2, 1), 2), ((2, 1, 2), 2), ((1, 1, 1, 1, 1), 2),
          ((3, 2, 2), 2), ((2, 3, 1), 2), ((3, 1, 3), 2), ((2, 2, 1, 2), 2),
          ((0, 2, 1), 2), ((2, 2, 2, 2), 2)),
        *(((2, 2, 2), 3), ((1, 2, 2), 3), ((2, 3), 3), ((1, 3, 2), 3)),
    ])
    def test_enumeration_matches_the_product(self, dims, p):
        counts = _enumerated_rank_counts(dims, p)
        for ranks in itertools.product(*(range(min(a, b) + 1) for a, b in zip(dims, dims[1:]))):
            assert counts.get(ranks, 0) == _complexes_with_ranks(dims, ranks, p), ranks

    def test_top_term_is_the_maximum_and_its_count(self):
        rng = random.Random(31)
        shapes = [(10, 10, 1), (0, 6, 1, 6), (5, 7, 1, 2, 0), (5, 1, 5, 0, 2, 8)]
        shapes += [tuple(rng.randint(0, 12) for _ in range(rng.randint(2, 7)))
                   for _ in range(300)]
        for dims in shapes:
            best, _, count = _solve(dims)
            assert _top_term(dims, 1 << 200) == (best, count), dims
        # The four shapes above have two maximizers each, which truncating
        # the leading coefficient would read as one.
        assert [_solve(dims)[2] for dims in shapes[:4]] == [2, 2, 2, 2]
