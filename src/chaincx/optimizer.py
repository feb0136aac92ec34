"""Maximization of the stratum dimension d(a, r) over feasible rank vectors.

The maximizers are exactly the rank vectors a random complex attains with
positive probability, so everything downstream (closed-form checks, the
conjecture scan, bias detection in the sampler) reduces to computing them.

The objective splits over consecutive ranks,

    d(a, r) = sum_i w_i(r_{i-1}, r_i),   w_i(p, q) = q (a_{i-1} + a_i - p - q),

and the feasible region is the chain of constraints r_{i-1} + r_i <= a_{i-1}
with r_i <= min(a_{i-1}, a_i).  That makes an exact dynamic program over
states r_i in [0, min(a_{i-1}, a_i)] possible: O(n A log A) time and
O(n A) space for A = max a_i.

Theorem (forced homology).  Every maximizer r of d has the largest rank
sum of any feasible rank vector, and that sum is sum_i g_i for the greedy
ranks g_1 = min(a_0, a_1), g_{i+1} = min(a_{i+1}, a_i - g_i)
(core.greedy_rank_vector).  So every maximizer has total homology
sum_i beta_i = sum_i a_i - 2 sum_i g_i.  Proof, with beta_i = a_i - r_i
- r_{i+1} the slack of space i and map i joining spaces i - 1 and i:

Step 1, an identity.  The partial derivative of d in r_i is beta_{i-1} +
beta_i, and the quadratic part of d is -sum_i r_i^2 - sum_i r_{i-1} r_i.
Take maps j..k with k - j even and move r by +1, -1, +1, ..., +1 along
them, which raises sum r_i by 1.  The linear terms telescope to
beta_{j-1} + beta_k, and the quadratic ones give -(k - j + 1) + (k - j),
so d changes by exactly beta_{j-1} + beta_k - 1, with beta taken before
the move.  Interior spaces keep their sums r_i + r_{i+1}, so the move is
feasible iff the end spaces j - 1 and k have slack (beta >= 1) and r >= 1
on each decremented map; such an augmenting interval raises d by at
least 1.

Step 2, an augmenting interval exists below the largest sum.  Let r be
feasible and r' feasible with a larger sum, delta = r' - r, and delta = 0
past the ends; then beta_i(r) = beta_i(r') + delta_i + delta_{i+1} >=
delta_i + delta_{i+1}.  Cut the maps into maximal runs along which delta
is non-zero and alternates in sign; some run has a positive sum.  Call a
positive map u of that run left-open if delta_{u-1} + delta_u >= 1 and
right-open if delta_u + delta_{u+1} >= 1; a positive end of the run is
open on its outer side, since its outer neighbour has delta >= 0.  If a
left-open u is at or before a right-open v, maps u..v are a feasible
augmenting interval: spaces u - 1 and v have slack, and each decremented
map has delta <= -1, so r >= 1 there.  Otherwise every positive map at or
before the last right-open one has a negative predecessor with |delta|
>= its delta, and every later one a negative successor with |delta| >=
its delta; these negatives are distinct, so the run's sum is at most 0,
a contradiction.  This is the augmenting-path theorem for b-matchings
(Schrijver, Combinatorial Optimization, 2003), on a path, whose simple
residual paths are intervals of maps.

The greedy ranks admit no augmenting interval: they are feasible, and if
space u - 1 has slack then g_u = a_u, so beta_u = -g_{u+1} forces
beta_u = 0 and g_{u+1} = 0; an interval starting at map u can neither end
there nor decrement map u + 1.  By Step 2 their sum is the largest, and by
Steps 1 and 2 a rank vector with a smaller sum is not a maximizer.  So
every sum decision reads sum_i g_i (core._greedy) and no DP keeps rank
sums; tests/test_optimizer.py pins both steps exhaustively on small shapes.

_solve runs the DP left to right over the reversal of the shape (d is
symmetric under reversal).  Per state it finds the least optimal move and
any ties, and carries the best value and the exact number of maximizing
paths (Python integers, no overflow).  A stage stores each row's least
optimal move in an 8-byte array, plus a dict of the rows with ties.
Shapes over MAX_DP_STATES states are refused before anything is allocated.

In the shape the DP walks, a stage's table base holds for each q = r_k
the largest sum P(q) of d's terms r_i (a_{i-1} + a_i - r_{i-1} - r_i),
i <= k, over the feasible ranks before r_k, less q (a_{k-1} + a_k); row
p = r_{k+1} reads c q + base[q] = P(q) - p q.  So one bisection over the
negated slopes of base finds a row's optimum, and its ties are a run of
equal slopes, by this theorem.

Theorem (concave stages).  Every base is concave on [0, qmax].  Proof
(after Murota, Discrete Convex Analysis, SIAM 2003), with s_i = (-1)^i r_i:

Step 1.  As r_{i-1} r_i = -s_{i-1} s_i, the quadratic part of -P is
sum s_i^2 - sum s_{i-1} s_i = (s_1^2 + s_k^2 + sum (s_{i-1} - s_i)^2) / 2.
A feasibility constraint bounds one r_i (r_i >= 0, r_1 <= a_0, r_k <= its
cap) or one sum r_{i-1} + r_i = (-1)^(i-1) (s_{i-1} - s_i) <= a_{i-1}.
So -P, +infinity off the feasible set, is f(s) = L(s) + sum phi_i(s_i) +
sum psi_i(s_{i-1} - s_i), L linear and each phi_i, psi_i convex on an
integer interval and +infinity outside it.

Step 2.  f is L-natural-convex: f(x) + f(y) >= f(ceil((x + y) / 2)) +
f(floor((x + y) / 2)) for integer x, y, rounding each coordinate.  This
is linear in f, so it suffices per term; L takes equal sums.  At s_i,
and at s_{i-1} - s_i, with values u at x and v at y, the two midpoints
take values that sum to u + v and lie within 1/2 of (u + v) / 2, hence
floor and ceil of (u + v) / 2, between u and v; so a convex phi_i or
psi_i gives the inequality, finite when f(x) and f(y) are.

Step 3.  h(t) = min {f(s) : s_k = t} is midpoint convex too: with x, y
minimizers for t and t', f(x) + f(y) >= f at the midpoints of x and y,
whose k-th coordinates are the midpoints of t and t'.  In one variable
this is h(t) + h(t + 2) >= 2 h(t + 1), convexity.  So P(q) = -h((-1)^k q)
is concave, and finite on [0, qmax] as every state is reachable; so is
base.  tests/test_optimizer.py checks Step 2 on every pair of feasible
rank vectors of small shapes, and each stage of a broad walk by brute force.

The public entry points only read _solve's result:
maximizer_rank_sum_range returns the root's best value with the greedy
rank sum, and maximize_dp, enumerate_maximizers and _observe, which
lists a shape's maximizers for the predictions module, list them in
ascending lexicographic order through one body, _listing: the first one,
up to a cap, or all.  No other module reads _solve's move tables.  The
listing is an iterative walk, so no shape within MAX_LENGTH exhausts the
recursion limit, and it reuses within a call the least-move suffix below
each state it has descended from, so a listed row costs a few tuple
concatenations however long it is.

brute_force_maximize enumerates the whole feasible region instead and is
kept deliberately naive: it is the independent oracle the dynamic program
is tested against.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import islice, product
from operator import index, sub

from .core import (
    DEFAULT_ENUMERATION_CAP,
    DEFAULT_WORK_CAP,
    BettiVector,
    ComplexShape,
    RankVector,
    WorkCapExceeded,
    _betti,
    _dimension,
    _feasible,
    _greedy,
    _Record,
    _unvalidated,
)

# Largest DP state count sum_i (min(a_{i-1}, a_i) + 1) that _solve accepts.
# At MAX_ENTRY a state costs about 71 bytes at the DP's peak (the stage's
# value and count tables, its negated slopes and its 8-byte least move), so
# the cap keeps a DP under about 0.23 GB; it serves three spaces of
# MAX_ENTRY (2,097,155 states).
MAX_DP_STATES = 3 << 20
# Largest number of vectors that predictions lists to compare a shape.
CHECK_ENUMERATION_GUARD = 100_000
# Largest number of entries, vectors times their length, in one listing of
# maximizers or Betti vectors: the envelope prints each entry on a line of
# its own.  10,000 rows of MAX_LENGTH entries, the default listing of the
# longest shape, fit.
MAX_LISTED_ENTRIES = 10 << 20


class MaximizerReport(_Record):
    """Maximizers of d(a, r) with their common dimension and Betti spectrum.

    maximizer_count is always exact; the listing (and the aligned
    betti_spectrum) is truncated at enumeration_cap, flagged by truncated.
    """

    max_dimension: int
    maximizer_count: int
    maximizers: tuple[RankVector, ...]
    betti_spectrum: tuple[BettiVector, ...]
    truncated: bool
    enumeration_cap: int


def _state_caps(dims):
    """Largest admissible value of each r_i: min(a_{i-1}, a_i); caps[0] = 0."""
    return [0] + [min(dims[i - 1], dims[i]) for i in range(1, len(dims))]


def _stage(base, count, c0, a, rows, qmax):
    """One DP stage: rows p in [0, rows), moves q in [0, min(qmax, a - p)].

    A move's value is c q + base[q] with c = c0 - p.  base is concave on
    [0, qmax] (the theorem in this module's docstring), so its negated
    slopes neg[q] = base[q] - base[q + 1] ascend, and the value rises while
    neg[q] < c and falls once neg[q] > c.  So with last the window's end,
    row p's least optimal move is q = bisect_left(neg, c, 0, last), and its
    ties are the moves from q to bisect_right(neg, c, q, last), the run of
    slopes equal to c.  Returns

        (new base, moves, new count)

    with the best value less p^2 and the count summed over the ties; moves
    is the pair (array of each row's least optimal move, {row: ascending
    tie tuple} for the rows with more than one).

    A one-row stage, the closing one, bisects the slopes through a key that
    computes each one it reads, instead of listing all qmax of them.
    """
    if rows == 1:
        last = min(a, qmax)
        slope = lambda q: base[q] - base[q + 1]
        q = bisect_left(range(last), c0, key=slope)
        end = bisect_right(range(last), c0, q, key=slope) + 1
        ties_of = {0: tuple(range(q, end))} if end > q + 1 else {}
        return [c0 * q + base[q]], (array("q", [q]), ties_of), [sum(count[q:end])]
    neg = list(map(sub, base, islice(base, 1, qmax + 1)))
    least = array("q", bytes(8 * rows))
    ties_of = {}
    new_base = [0] * rows
    new_count = [0] * rows
    for p in range(rows):
        c = c0 - p
        last = a - p
        if last > qmax:
            last = qmax
        q = bisect_left(neg, c, 0, last)
        least[p] = q
        new_base[p] = c * q + base[q] - p * p
        if q < last and neg[q] == c:
            end = bisect_right(neg, c, q, last) + 1
            ties_of[p] = tuple(range(q, end))
            new_count[p] = sum(count[q:end])
        else:
            new_count[p] = count[q]
    return new_base, (least, ties_of), new_count


def _solve(dims):
    """The DP over one shape, as one left-to-right pass over its reversal:

        (max d, moves, maximizer count)

    Entry a after w of the reversal maps the tables of one rank to those of
    the next by one _stage with c0 = w + a and the window on their sum, a;
    the last entry reads row 0, the closing rank.  In the shape's own ranks,
    moves[i] = (least, ties_of): given r_i = p (r_0 = 0), least[p] is the
    least optimal r_{i+1} and ties_of[p], for the rows that have ties, the
    ascending tuple of all of them.  Every state is reachable and admits
    q = 0, so every state lies on some maximizer's path.  Raises
    WorkCapExceeded when the states outnumber MAX_DP_STATES.
    """
    caps = _state_caps(dims)
    states = sum(caps) + len(caps)
    if states > MAX_DP_STATES:
        raise WorkCapExceeded(
            f"the DP over a shape of {len(dims)} spaces needs {states} states, "
            f"exceeding the cap of {MAX_DP_STATES}"
        )
    rev = dims[::-1]
    moves = []
    # The tables of the state r_0 = 0, whose one move is not stored.
    base, count = [0], [1]
    w = 0
    for k, (a, b) in enumerate(zip(rev, (*rev[1:], 0))):
        rows = min(a, b) + 1
        if w and a:
            base, move, count = _stage(base, count, w + a, a, rows, min(w, a))
            moves.append(move)
        else:
            # r_k = 0 is forced: every row's one move is r_k = 0, which
            # bytes(rows) reads at every row.  Skipping _stage saves time and
            # memory at MAX_ENTRY.
            if k:
                moves.append((bytes(rows), {}))
            if a:
                base, count = [base[0] - p * p for p in range(rows)], [count[0]] * rows
            # With a = 0 the next rank is 0 too: only row 0, unchanged, is read.
        w = a
    moves.reverse()
    return base[0], moves, count[0]


def _lexicographic_paths(dims, moves, limit):
    """The first `limit` maximizers in ascending lexicographic order, with
    their Betti tuples: (rows, bettis).

    A descent from depth i after r_i = p follows each stage's least move to
    the end; it gives the suffix of ranks, the Betti numbers beta_i, ...,
    beta_n they fix, and its branch points, the depths whose tie tuple has
    further ties, each with the ties not yet taken.  The next row after a
    listed one advances its deepest branch point j to its next tie t and
    descends from there: prefix + (t,) + suffix, and its Betti tuple is
    the listed one's up to beta_{j-1}, then a_j - r_j - t, then the
    descent's.  Descents are memoized per (depth, state) for the call, and
    a descent that meets a memoized one reuses its suffix, so a row costs a
    few tuple concatenations however deep it is.  Each listed row adds at
    most one memo entry, no longer than the row and its Betti tuple, so the
    memo costs no more than the listing.
    """
    n = len(moves)
    memo = {}

    def descend(i, p):
        start = i, p
        steps, branches = [], []
        while True:
            found = memo.get((i, p))
            if found is not None:
                if not steps:
                    return found
                suffix, tail, below = found
                break
            if i == n:
                suffix, tail, below = (), (dims[n] - p,), []
                break
            least, ties_of = moves[i]
            ties = ties_of.get(p)
            if ties is not None:
                branches.append((i, ties[1:]))
            p = least[p]
            steps.append(p)
            i += 1
        # beta_k = a_k - r_k - r_{k+1} for k from the start to i - 1.
        chain = (start[1], *steps)
        head = tuple(map(sub, map(sub, dims[start[0] : i], chain), steps))
        found = memo[start] = tuple(steps) + suffix, head + tail, branches + below
        return found

    row, betti, below = descend(0, 0)
    rows, bettis = [row], [betti]
    stack = list(below)
    while stack and len(rows) < limit:
        j, rest = stack.pop()
        t = rest[0]
        if len(rest) > 1:
            stack.append((j, rest[1:]))
        suffix, tail, below = descend(j + 1, t)
        betti = betti[:j] + (dims[j] - (row[j - 1] if j else 0) - t,) + tail
        row = row[:j] + (t,) + suffix
        rows.append(row)
        bettis.append(betti)
        stack += below
    return rows, bettis


def _report(best, count, listed, bettis, cap) -> MaximizerReport:
    """The report of listed maximizers and their Betti tuples, which the DP
    or the oracle built as feasible tuples of ints, so they are not
    validated again."""
    return MaximizerReport(
        max_dimension=best,
        maximizer_count=count,
        maximizers=tuple([_unvalidated(RankVector, "ranks", r) for r in listed]),
        betti_spectrum=tuple([_unvalidated(BettiVector, "bettis", b) for b in bettis]),
        truncated=count > cap,
        enumeration_cap=cap,
    )


def _listing_guard(size, length, subject, noun, most=CHECK_ENUMERATION_GUARD):
    """Refuse, before any is listed, a listing of `size` {noun} of `length`
    entries each: more than `most` of them (None: no such bound), or more
    than MAX_LISTED_ENTRIES entries."""
    if most is not None and size > most:
        raise WorkCapExceeded(f"{subject} has {size} {noun}, "
                              f"more than the comparison guard of {most}")
    if size * length > MAX_LISTED_ENTRIES:
        raise WorkCapExceeded(f"{subject} has {size} {noun} of {length} entries, {size * length} "
                              f"in all, more than the listing cap of {MAX_LISTED_ENTRIES}")


def _listing(dims, cap, subject, most=None) -> MaximizerReport:
    """The report of the maximizers of shape `dims`, listed up to cap, with
    its DP's value and exact count.  The listing is refused before any row
    is listed (_listing_guard, naming "{subject} {dims}"); with `most` set,
    so is a shape with more than `most` maximizers, whatever the cap."""
    best, moves, count = _solve(dims)
    _listing_guard(min(count, cap) if most is None else count, len(dims), f"{subject} {dims}",
                   "maximizers", most)
    return _report(best, count, *_lexicographic_paths(dims, moves, cap), cap)


def maximize_dp(shape: ComplexShape) -> tuple[int, RankVector]:
    """Maximum of d(a, r) and its lexicographically smallest maximizer."""
    report = _listing(shape.dims, 1, "the listing of shape")
    return report.max_dimension, report.maximizers[0]


def enumerate_maximizers(
    shape: ComplexShape, cap: int = DEFAULT_ENUMERATION_CAP
) -> MaximizerReport:
    """All maximizers of d(a, r), listed lexicographically up to cap.

    The count is exact regardless of truncation.  A listing of more than
    MAX_LISTED_ENTRIES entries is refused before any row is listed.  cap is
    read through operator.index, so a float raises TypeError.
    """
    cap = index(cap)
    if cap < 1:
        raise ValueError("enumeration cap must be positive")
    return _listing(shape.dims, cap, "the listing of shape")


def _observe(shape: ComplexShape) -> MaximizerReport:
    """Every maximizer of the shape, listed, for the predictions module; a
    shape with more than CHECK_ENUMERATION_GUARD of them, or whose listing
    would pass MAX_LISTED_ENTRIES entries, is refused before any is listed."""
    return _listing(shape.dims, CHECK_ENUMERATION_GUARD, "shape", CHECK_ENUMERATION_GUARD)


def maximizer_rank_sum_range(shape: ComplexShape) -> tuple[int, int, int]:
    """(max d, min sum r_i, max sum r_i) with the extrema over all maximizers.

    By the forced-homology theorem of this module the two extrema are equal,
    to the greedy rank sum, so every maximizer has total homology
    sum beta_i = sum a_i - 2 sum r_i; the DP gives only max d.
    """
    best = _solve(shape.dims)[0]
    total = sum(_greedy(shape.dims))
    return best, total, total


def brute_force_maximize(
    shape: ComplexShape, work_cap: int = DEFAULT_WORK_CAP
) -> MaximizerReport:
    """Independent oracle: exhaust the feasible region, never truncate.

    Refuses shapes whose candidate grid prod(min(a_{i-1}, a_i) + 1)
    exceeds work_cap, which is read through operator.index.
    """
    work_cap = index(work_cap)
    dims = shape.dims
    caps = _state_caps(dims)[1:]
    grid = 1
    for c in caps:
        grid *= c + 1
        if grid > work_cap:
            raise WorkCapExceeded(
                f"brute force over {dims} needs {grid}+ candidates, "
                f"exceeding the work cap of {work_cap}"
            )
    best = 0
    argmax = []
    for r in product(*(range(c + 1) for c in caps)):
        if not _feasible(dims, r):
            continue
        d = _dimension(dims, r)
        if d > best:
            best = d
            argmax = [r]
        elif d == best:
            argmax.append(r)
    return _report(best, len(argmax), argmax, [_betti(dims, r) for r in argmax], len(argmax))
