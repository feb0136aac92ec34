"""Reference computations the benchmark checks chaincx against.

Written from the formulas in README.md, not from the package, so that a
defect shared by the package's entry points still shows as a mismatch.
"""

from __future__ import annotations

import numpy as np


def feasible(dims, ranks) -> bool:
    """r_i + r_{i+1} <= a_i for every i, with zero sentinels."""
    padded = (0, *ranks, 0)
    return len(ranks) == len(dims) - 1 and all(
        r >= 0 for r in ranks
    ) and all(padded[i] + padded[i + 1] <= dims[i] for i in range(len(dims)))


def dimension(dims, ranks) -> int:
    """d(a, r) = sum_i r_i (a_i + a_{i-1} - r_{i-1} - r_i)."""
    total, prev = 0, 0
    for i, r in enumerate(ranks):
        total += r * (dims[i] + dims[i + 1] - prev - r)
        prev = r
    return total


def betti(dims, ranks) -> tuple[int, ...]:
    padded = (0, *ranks, 0)
    return tuple(dims[i] - padded[i] - padded[i + 1] for i in range(len(dims)))


def listing_checks(dims, listed):
    """feasible, d and the Betti vector of many rank vectors at once, one
    row each: the three functions above, vectorised over the rows."""
    a = np.asarray(dims, dtype=np.int64)
    r = np.asarray(listed, dtype=np.int64).reshape(len(listed), len(dims) - 1)
    padded = np.pad(r, ((0, 0), (1, 1)))
    bettis = a - padded[:, :-1] - padded[:, 1:]
    feasible = (r >= 0).all(axis=1) & (bettis >= 0).all(axis=1)
    d = (r * (a[:-1] + a[1:] - padded[:, :-2] - r)).sum(axis=1)
    return feasible, d, bettis


def greedy(dims) -> tuple[int, ...]:
    """Rank vector of the sequential sampler: r_1 = min(a_0, a_1), then
    r_{i+1} = min(a_{i+1}, a_i - r_i)."""
    ranks, prev = [], 0
    for i in range(len(dims) - 1):
        prev = min(dims[i + 1], dims[i] - prev)
        ranks.append(prev)
    return tuple(ranks)


def max_dimension(dims) -> int:
    """Maximum of d over feasible ranks by a vectorised suffix DP."""
    caps = [0] + [min(dims[i - 1], dims[i]) for i in range(1, len(dims))]
    nxt = np.zeros(caps[-1] + 1, dtype=np.int64)
    for i in range(len(dims) - 2, -1, -1):
        a, b = dims[i], dims[i + 1]
        p = np.arange(caps[i] + 1, dtype=np.int64)[:, None]
        q = np.arange(caps[i + 1] + 1, dtype=np.int64)[None, :]
        value = q * (a + b - p - q) + nxt[None, :]
        nxt = np.where(q <= a - p, value, np.iinfo(np.int64).min).max(axis=1)
    return int(nxt[0])


def closed_form_rows(dims, rows):
    """Whether each row of Betti vectors fits the closed forms that apply
    to dims (two maps; all dimensions equal); None when none applies."""
    b = np.asarray(rows, dtype=np.int64).reshape(len(rows), len(dims))
    n = len(dims) - 1
    ok = None
    if n == 2:
        a0, a1, a2 = dims
        if a0 >= a1 + a2:
            allowed = [(a0 - a1, 0, a2)]
        elif a2 >= a0 + a1:
            allowed = [(a0, 0, a2 - a1)]
        elif a1 >= a0 + a2:
            allowed = [(0, a1 - a0 - a2, 0)]
        else:
            chi = a0 - a1 + a2
            allowed = [(chi // 2, 0, chi - chi // 2), (chi - chi // 2, 0, chi // 2)]
        ok = np.zeros(len(b), dtype=bool)
        for bettis in allowed:
            ok |= (b == bettis).all(axis=1)
    m = dims[0]
    if n >= 1 and m >= 1 and all(a == m for a in dims):
        if n % 2:
            fits = (b == 0).all(axis=1)
        else:
            low = m // (n // 2 + 1)
            evens = b[:, 0::2]
            fits = ((b[:, 1::2] == 0).all(axis=1)
                    & ((evens == low) | (evens == low + 1)).all(axis=1)
                    & (evens.sum(axis=1) == m))
        ok = fits if ok is None else ok & fits
    return ok


def dp_cells(dims) -> int:
    """State-transition grid of one DP pass: sum (cap_i + 1)(cap_{i+1} + 1)."""
    caps = [0] + [min(dims[i - 1], dims[i]) for i in range(1, len(dims))]
    return sum((caps[i] + 1) * (caps[i + 1] + 1) for i in range(len(caps) - 1))


def rectangle_size(max_length: int, max_entry: int) -> int:
    """Shapes with at most max_length maps and entries 0..max_entry."""
    return sum((max_entry + 1) ** (n + 1) for n in range(max_length + 1))
