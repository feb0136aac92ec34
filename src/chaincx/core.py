"""Exact integer arithmetic for chain-complex shapes, ranks and Betti numbers.

A shape (a_0, ..., a_n) lists the dimensions of the vector spaces in a
bounded complex  0 <- A_0 <- A_1 <- ... <- A_n <- 0  with n boundary
maps.  A rank vector (r_1, ..., r_n) records the ranks of those maps,
with the implicit sentinels r_0 = r_{n+1} = 0.  Everything in this
module is pure integer arithmetic over those tuples:

    chi     = sum_i (-1)^i a_i                      (Euler characteristic)
    beta_i  = a_i - r_i - r_{i+1}                   (Betti numbers)
    d(a, r) = sum_{i=1..n} r_i (a_i + a_{i-1} - r_{i-1} - r_i)

d(a, r) is the dimension of the set of complexes realizing (a, r) inside
the ambient matrix space of dimension N = sum_i a_{i-1} a_i.  A rank
vector is realizable by an actual complex iff r_i + r_{i+1} <= a_i for
every i = 0..n (sentinels included), and in that case all beta_i >= 0
and the alternating sum of the beta_i equals chi.

Entries are capped at 2^20 and lengths at 2^10 so that every derived
quantity fits comfortably in 64-bit signed integers when callers move
the numbers into fixed-width storage.

The float tolerances and the orbit matrix's size rule and block layout
also live here, so that the CLI can build its parser, validate its flags
and refuse oversized orbit checks without importing numpy or scipy.
"""

from __future__ import annotations

import operator
from itertools import accumulate

MAX_ENTRY = 1 << 20
MAX_LENGTH = 1 << 10
# The optimizer's defaults, here so that the CLI can build its parser
# without importing the optimizer.
DEFAULT_ENUMERATION_CAP = 10_000
DEFAULT_WORK_CAP = 100_000_000


class InfeasibleRanksError(ValueError):
    """Rank vector violates r_i + r_{i+1} <= a_i; no such complex exists."""


class WorkCapExceeded(RuntimeError):
    """A documented resource cap would be exceeded; the call is refused."""


DEFAULT_SIZE_CAP = 4096  # refusal cap on either side of the orbit matrix


# The rich comparisons of an ordered record; eq=True records get the first.
_COMPARISONS = (("__eq__", "=="), ("__lt__", "<"), ("__le__", "<="), ("__gt__", ">"),
                ("__ge__", ">="))


class _Record:
    """Base of the frozen records.

    A subclass declares its fields as annotations, defaults as class
    attributes, and gets the methods a frozen dataclass would, compiled from
    generated source as dataclasses does: an __init__ that sets the fields
    in order and then runs __post_init__ if the class has one; with eq (the
    default), __eq__ and __hash__ on the tuple of field values, so sets of
    records iterate in the same order; with order, <, <=, > and >= on that
    tuple.  Fields cannot be assigned or deleted afterwards, and those named
    in `hidden` stay out of the repr.  Importing dataclasses, and the
    inspect module it imports, would cost every command several ms.
    """

    def __init_subclass__(cls, eq=True, order=False, hidden=()):
        super().__init_subclass__()
        names = tuple(cls.__dict__.get("__annotations__", ()))
        defaults = {f"_d_{n}": cls.__dict__[n] for n in names if n in cls.__dict__}
        params = ", ".join(f"{n}=_d_{n}" if f"_d_{n}" in defaults else n for n in names)
        lines = [f"def __init__(self, {params}):",
                 *(f"    _set(self, {n!r}, {n})" for n in names)]
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        if eq:
            mine, theirs = ("(" + "".join(f"{who}.{n}, " for n in names) + ")"
                            for who in ("self", "other"))
            lines += ["def __hash__(self):", f"    return hash({mine})"]
            for name, symbol in _COMPARISONS if order else _COMPARISONS[:1]:
                lines += [f"def {name}(self, other):",
                          "    if other.__class__ is self.__class__:",
                          f"        return {mine} {symbol} {theirs}",
                          "    return NotImplemented"]
        methods = {}
        exec("\n".join(lines), {"_set": object.__setattr__, **defaults}, methods)
        for name, method in methods.items():
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
        cls._shown = tuple(n for n in names if n not in hidden)

    def __repr__(self):
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._shown)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ToleranceConfig(_Record):
    """Knobs for the two floating-point comparisons in the numerics module."""

    rank_tolerance_factor: float = 1000.0
    composition_tolerance: float = 1e-8

    def __post_init__(self):
        if not (self.rank_tolerance_factor > 0 and self.composition_tolerance > 0):
            raise ValueError("tolerances must be positive")


DEFAULT_TOLERANCES = ToleranceConfig()


def _entries(record, field, what, noun):
    """Store record.field as a tuple of ints and return it, refusing a
    non-integer entry and then the first negative one."""
    try:
        values = tuple(map(operator.index, getattr(record, field)))
    except TypeError:
        raise ValueError(f"{what} entries must be integers") from None
    if values and min(values) < 0:
        raise ValueError(f"{noun} must be non-negative, got {next(v for v in values if v < 0)}")
    object.__setattr__(record, field, values)
    return values


class ComplexShape(_Record):
    """Dimension vector (a_0, ..., a_n) of the spaces; n = len(dims) - 1 maps."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = _entries(self, "dims", "shape", "shape entries")
        if len(dims) < 1:
            raise ValueError("shape needs at least one space")
        if len(dims) > MAX_LENGTH:
            raise ValueError(f"shape length {len(dims)} exceeds cap {MAX_LENGTH}")
        if max(dims) > MAX_ENTRY:
            raise ValueError(f"shape entry {next(a for a in dims if a > MAX_ENTRY)} "
                             f"exceeds cap {MAX_ENTRY}")

    @property
    def n_maps(self) -> int:
        return len(self.dims) - 1


class RankVector(_Record, order=True):
    """Ranks (r_1, ..., r_n) of the boundary maps; sentinels never stored.

    Ordering is lexicographic on the entries.
    """

    ranks: tuple[int, ...]

    def __post_init__(self):
        _entries(self, "ranks", "rank", "ranks")


class BettiVector(_Record, order=True):
    """Homology dimensions (beta_0, ..., beta_n); ordered lexicographically."""

    bettis: tuple[int, ...]

    def __post_init__(self):
        _entries(self, "bettis", "Betti", "Betti numbers")


def _unvalidated(cls, field, value):
    """cls(value) for one of the one-field records above, without
    __post_init__: only for a tuple of ints that the caller derived from
    validated input, such as a DP path, its Betti numbers or a walk's shape."""
    obj = object.__new__(cls)
    object.__setattr__(obj, field, value)
    return obj


# Tuple-level kernels, shared with the optimizer's hot loops.

def _feasible(dims, ranks) -> bool:
    n = len(dims) - 1
    prev = 0
    for i in range(n):
        if prev + ranks[i] > dims[i]:
            return False
        prev = ranks[i]
    return prev <= dims[n]


def _dimension(dims, ranks) -> int:
    total = 0
    prev = 0
    for i, r in enumerate(ranks):
        total += r * (dims[i + 1] + dims[i] - prev - r)
        prev = r
    return total


def _betti(dims, ranks):
    padded = (0, *ranks, 0)
    return tuple(map(operator.sub, map(operator.sub, dims, padded), padded[1:]))


def _greedy(dims):
    """The greedy ranks of greedy_rank_vector as a tuple.  Their sum is the
    rank sum of every maximizer of d (the theorem in the optimizer module)."""
    ranks = []
    prev = 0
    for i in range(len(dims) - 1):
        prev = min(dims[i + 1], dims[i] - prev)
        ranks.append(prev)
    return tuple(ranks)


def _chi(dims) -> int:
    return sum(dims[::2]) - sum(dims[1::2])


def euler_characteristic(shape: ComplexShape) -> int:
    """Alternating sum of the space dimensions."""
    return _chi(shape.dims)


def _map_offsets(dims) -> list[int]:
    """The first row of each map's block of L, then N.

    The one statement of the index convention of L.T, for the orbit map L
    of numerics.orbit_dimension: row (t, q) of L.T is X_i[t, q], after the
    rows of X_0, ..., X_{i-1}, and column (p, q) of map j is row
    offsets[j - 1] + p a_j + q of L.  So row (t, q) holds -D_i[p, t] at
    column (p, q) of map i and D_{i+1}[q, u] at column (t, u) of map i+1.
    """
    return [0, *accumulate(map(operator.mul, dims, dims[1:]))]


def ambient_dimension(shape: ComplexShape) -> int:
    """Total matrix-entry count N = sum a_{i-1} a_i of the boundary maps."""
    return _map_offsets(shape.dims)[-1]


def _orbit_matrix_sides(shape: ComplexShape, size_cap: int) -> tuple[int, int]:
    """Rows N and columns sum a_i^2 of the orbit matrix of
    numerics.orbit_dimension; refused when either side exceeds size_cap."""
    ambient = ambient_dimension(shape)
    domain = sum(a * a for a in shape.dims)
    if domain > size_cap or ambient > size_cap:
        raise WorkCapExceeded(
            f"orbit computation needs a {ambient} x {domain} matrix, "
            f"exceeding the size cap of {size_cap}"
        )
    return ambient, domain


def _canonical_orbit_rank(dims, ranks) -> int:
    """rank(L) of numerics.orbit_dimension at numerics.canonical_complex,
    counted exactly in integers, for feasible ranks.

    There D_i = eye(a_{i-1}, a_i, a_i - r_i), so D_i[p, t] = 1 iff
    t = p + a_i - r_i, and by the index convention of _map_offsets each row
    of L.T holds at most one -1 and at most one +1, in different maps'
    columns.  Take the columns and one ground vertex g as vertices, and each
    nonzero row as an edge between its two columns, or between its one
    column and g.  L.T is then the signed incidence matrix of that graph,
    up to row signs, less g's column, which is minus the sum of the others,
    so dropping it keeps the rank.  The rows of a spanning forest are
    independent (a leaf's edge is the only forest row nonzero at the leaf),
    and any other edge is the signed sum of the rows along the forest path
    between its ends.  So over the reals, as over every field, rank(L) is
    the number of edges that join two components, counted by union-find.
    """
    n = len(dims) - 1
    offsets = _map_offsets(dims)
    ground = offsets[-1]
    parent = list(range(ground + 1))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    rank = 0
    for i, a in enumerate(dims):
        # Rows t >= first have a -1, at column offsets[i-1] + (t - first) a + q;
        # rows q < right have a +1, at column offsets[i] + t k + q + k - right.
        first = a - ranks[i - 1] if i else a
        k, right = (dims[i + 1], ranks[i]) if i < n else (0, 0)
        for t in range(a):
            for q in range(a):
                u = offsets[i - 1] + (t - first) * a + q if t >= first else ground
                v = offsets[i] + t * k + q + k - right if q < right else ground
                if u != v:
                    u, v = find(u), find(v)
                    if u != v:
                        parent[u] = v
                        rank += 1
    return rank


def betti_lower_bound(shape: ComplexShape) -> int:
    """|chi|: the smallest total homology any complex on this shape can have."""
    return abs(euler_characteristic(shape))


def is_feasible(shape: ComplexShape, ranks: RankVector) -> bool:
    """True iff r_i + r_{i+1} <= a_i for all i = 0..n with zero sentinels."""
    if len(ranks.ranks) != shape.n_maps:
        raise ValueError(
            f"rank vector of length {len(ranks.ranks)} does not fit shape "
            f"with {shape.n_maps} maps"
        )
    return _feasible(shape.dims, ranks.ranks)


def _require_feasible(shape: ComplexShape, ranks: RankVector) -> None:
    if not is_feasible(shape, ranks):
        raise InfeasibleRanksError(
            f"ranks {ranks.ranks} are infeasible for dims {shape.dims}"
        )


def stratum_dimension(shape: ComplexShape, ranks: RankVector) -> int:
    """Dimension d(a, r) of the set of complexes with these dims and ranks."""
    _require_feasible(shape, ranks)
    return _dimension(shape.dims, ranks.ranks)


def betti_from_ranks(shape: ComplexShape, ranks: RankVector) -> BettiVector:
    """Betti numbers beta_i = a_i - r_i - r_{i+1} of a complex with these ranks."""
    _require_feasible(shape, ranks)
    return BettiVector(_betti(shape.dims, ranks.ranks))


def greedy_rank_vector(shape: ComplexShape) -> RankVector:
    """Ranks the sequential sampler attains almost surely:
    r_1 = min(a_0, a_1), then r_{i+1} = min(a_{i+1}, a_i - r_i)."""
    return _unvalidated(RankVector, "ranks", _greedy(shape.dims))
