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

A single backward pass (_solve) finds, per state, the ascending tuple of
tied optimal moves; from the same scan it carries the best suffix value,
the exact number of maximizing suffixes (Python integers, no overflow)
and the least and greatest suffix rank sums.  The scan of a stage is a
divide and conquer over its rows: a move's value is g(q) - p q, so for
q1 < q2 the gain of q2 over q1 falls as p grows, and the admissible
moves q <= a_{i-1} - p shrink with p; hence the least and the greatest
optimal move never increase with p, and each row needs only the window
its neighbours leave open.  Shapes whose pass would exceed MAX_DP_STATES
states are refused before anything is allocated.

The public entry points only read the pass's result: maximize_dp
follows the first tie at each step, maximizer_rank_sum_range returns the
root's rank-sum extrema, and enumerate_maximizers takes the root's count
and lists the maximizers in ascending lexicographic order up to a cap by
an iterative depth-first walk, so no shape within MAX_LENGTH exhausts the
recursion limit.

brute_force_maximize enumerates the whole feasible region instead and is
kept deliberately naive: it is the independent oracle the dynamic program
is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import add

from .core import (
    BettiVector,
    ComplexShape,
    RankVector,
    WorkCapExceeded,
    _betti,
    _dimension,
    _feasible,
)

DEFAULT_ENUMERATION_CAP = 10_000
DEFAULT_WORK_CAP = 100_000_000
# Largest DP state count sum_i (min(a_{i-1}, a_i) + 1) that _solve accepts.
# At MAX_ENTRY a state costs about 150 bytes at the pass's peak (its tie
# tuple plus the stage tables), so the cap keeps a pass under about
# 0.5 GB; it serves three spaces of MAX_ENTRY (2,097,155 states).
MAX_DP_STATES = 3 << 20


@dataclass(frozen=True)
class MaximizerReport:
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


def _solve(dims):
    """One backward pass over the states (i, p), meaning r_i = p with r_0 = 0.

    Each stage solves its rows p in divide-and-conquer order: the middle
    row m of a range scans the moves q (the next rank r_{i+1}) in its
    window once; rows p < m then keep only the moves from m's least
    optimal move up, rows p > m only those up to m's greatest.  Every
    tied optimal move lies inside a row's window, so one scan yields the
    best suffix value of d, the ascending tuple of tied optimal q, the
    number of maximizing suffixes and the least and greatest suffix rank
    sums over them.  Only the tie tuples (moves[i][p]) and the root's four
    values are kept:

        (max d, moves, maximizer count, min sum r_i, max sum r_i)

    Every state is reachable and admits q = 0, so every tie tuple is
    non-empty and every state lies on some maximizer's path.  Raises
    WorkCapExceeded when the states outnumber MAX_DP_STATES.
    """
    n = len(dims) - 1
    caps = _state_caps(dims)
    states = sum(caps) + len(caps)
    if states > MAX_DP_STATES:
        raise WorkCapExceeded(
            f"the DP over a shape of {len(dims)} spaces needs {states} states, "
            f"exceeding the cap of {MAX_DP_STATES}"
        )
    # base[q] = best[q] - q^2: a move's value is then c q + base[q] with
    # c = a + b - p, and base[0] = best[0] at the root.
    base = [-q * q for q in range(caps[n] + 1)]
    count = [1] * (caps[n] + 1)
    lo = [0] * (caps[n] + 1)
    hi = [0] * (caps[n] + 1)
    moves = [None] * n
    for i in range(n - 1, -1, -1):
        a = dims[i]
        ab = a + dims[i + 1]
        rows = caps[i] + 1
        stage_moves = [None] * rows
        new_base = [0] * rows
        new_count = [0] * rows
        new_lo = [0] * rows
        new_hi = [0] * rows
        # Ranges still to solve: (first row, last row, least move, greatest move).
        todo = [(0, rows - 1, 0, caps[i + 1])]
        while todo:
            p0, p1, qlo, qhi = todo.pop()
            p = (p0 + p1) >> 1
            c = ab - p
            last = a - p
            if last > qhi:
                last = qhi
            if qlo == last:
                # A one-move window; c = 0 (p = a, b = 0) always lands here.
                q = qlo
                top = c * q + base[q]
                ties = (q,)
            else:
                values = list(map(add, range(c * qlo, c * last + 1, c),
                                  base[qlo:last + 1]))
                top = max(values)
                if values.count(top) == 1:
                    q = values.index(top) + qlo
                    ties = (q,)
                else:
                    ties = tuple([q for q, v in enumerate(values, qlo) if v == top])
            if len(ties) == 1:
                new_count[p] = count[q]
                new_lo[p] = q + lo[q]
                new_hi[p] = q + hi[q]
            else:
                new_count[p] = sum([count[q] for q in ties])
                new_lo[p] = min([q + lo[q] for q in ties])
                new_hi[p] = max([q + hi[q] for q in ties])
            stage_moves[p] = ties
            new_base[p] = top - p * p
            if p0 < p:
                todo.append((p0, p - 1, ties[0], qhi))
            if p < p1:
                todo.append((p + 1, p1, qlo, ties[-1]))
        moves[i] = stage_moves
        base, count, lo, hi = new_base, new_count, new_lo, new_hi
    return base[0], moves, count[0], lo[0], hi[0]


def _lexicographic_paths(moves, limit):
    """The first `limit` maximizers in ascending lexicographic order.

    Iterative depth-first walk along the tie tuples: fill the path with
    first ties, emit it, then advance the deepest step that has a further
    tie and refill below it.
    """
    n = len(moves)
    out = []
    path, pos, ties = [], [], []
    p = 0
    while True:
        for i in range(len(path), n):
            t = moves[i][p]
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


def maximize_dp(shape: ComplexShape) -> tuple[int, RankVector]:
    """Maximum of d(a, r) and its lexicographically smallest maximizer."""
    best, moves, _, _, _ = _solve(shape.dims)
    witness = []
    p = 0
    for stage in moves:
        p = stage[p][0]
        witness.append(p)
    return best, RankVector(tuple(witness))


def enumerate_maximizers(
    shape: ComplexShape, cap: int = DEFAULT_ENUMERATION_CAP
) -> MaximizerReport:
    """All maximizers of d(a, r), listed lexicographically up to cap.

    The count is exact regardless of truncation.
    """
    if cap < 1:
        raise ValueError("enumeration cap must be positive")
    dims = shape.dims
    best, moves, count, _, _ = _solve(dims)
    listed = _lexicographic_paths(moves, cap)
    maximizers = tuple(RankVector(r) for r in listed)
    spectrum = tuple(BettiVector(_betti(dims, r)) for r in listed)
    return MaximizerReport(
        max_dimension=best,
        maximizer_count=count,
        maximizers=maximizers,
        betti_spectrum=spectrum,
        truncated=count > cap,
        enumeration_cap=cap,
    )


def maximizer_rank_sum_range(shape: ComplexShape) -> tuple[int, int, int]:
    """(max d, min sum r_i, max sum r_i) with the extrema over all maximizers.

    Since sum beta_i = sum a_i - 2 sum r_i, the range certifies whether
    every maximizer attains the same total homology without listing the
    maximizers, which may be exponentially many.
    """
    best, _, _, lo, hi = _solve(shape.dims)
    return best, lo, hi


def brute_force_maximize(
    shape: ComplexShape, work_cap: int = DEFAULT_WORK_CAP
) -> MaximizerReport:
    """Independent oracle: exhaust the feasible region, never truncate.

    Refuses shapes whose candidate grid prod(min(a_{i-1}, a_i) + 1)
    exceeds work_cap.
    """
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
    maximizers = tuple(RankVector(r) for r in argmax)
    spectrum = tuple(BettiVector(_betti(dims, r)) for r in argmax)
    return MaximizerReport(
        max_dimension=best,
        maximizer_count=len(argmax),
        maximizers=maximizers,
        betti_spectrum=spectrum,
        truncated=False,
        enumeration_cap=len(argmax),
    )
