"""Floating-point chain complexes: numerical ranks, explicit model
complexes, orbit-dimension verification of the dimension formula, and the
sequential Gaussian sampler.

Map i is stored as the a_{i-1} x a_i matrix of D_i : A_i -> A_{i-1}
(rows = codomain), so the complex condition reads D_i @ D_{i+1} = 0.

Numerical rank counts the pivots of a QR factorization with column
pivoting that exceed a relative threshold

    rank_tolerance_factor * eps * max(rows, cols) * |largest pivot|,

with eps the double-precision machine epsilon.  The same rule fixes the
kernel dimension used by the sampler, so a single tolerance knob governs
all rank decisions.  The factorization is one direct call of LAPACK's
dgeqp3 on a Fortran-ordered array, overwritten in place: a copy of
numerical_rank's input, whatever its shape, or, below a crossover size,
the transpose of orbit_dimension's orbit matrix L, written in C order so
that L.T is factored in place.

Past the crossover (L.T, m x n, with n >= _COMPRESS_MIN_COLS and
m >= _COMPRESS_MIN_ASPECT * n), orbit_dimension pivots an n x n upper
triangular R with R.T @ R = L @ L.T instead (Chan's QR before the pivoted
factorization).  R has L.T's pivots.  Step k of the pivoted QR of a
matrix M takes, among the columns not yet chosen, one farthest from the
span of the chosen set S, and that distance is the k-th |pivot|.  The
squared distance of column j from span(S) is G_jj - G_Sj^T G_SS^+ G_Sj,
which reads only the Gram matrix G = M.T @ M.  Rotating rows by an
orthogonal Q, permuting and stacking them, and dropping zero rows all
keep G.  So in exact arithmetic R and M give the same pivot order, ties
included, and the same |pivots|; in floating point they agree up to
rounding, which the threshold, taken at M's longest side, absorbs.  R is
built by folding: dtpqrt replaces an upper-triangular R and a block B of
rows by the R factor of R stacked on B, an orthogonal transform of those
rows (the sequential fold of tall-skinny QR; Demmel, Grigori, Hoemmen and
Langou, SIAM J. Sci. Comput. 34, 2012).

Past the crossover orbit_dimension never builds L.  In the index
convention of L.T that core._map_offsets states:
  - the rows of X_0 are I_{a_0} (x) D_1, on map 1's columns;
  - the rows of X_n are -(D_n^T (x) I_{a_n}), on map n's columns;
  - the rows of X_i, 0 < i < n, touch only maps i and i+1.
With D_1 = Q_1 R_1 and D_n^T = Q' R', the orthogonal I (x) Q_1^T and
Q'^T (x) I turn the end blocks into I (x) R_1 and -(R' (x) I).  Row (p, s)
of I (x) R_1 is zero left of column (p, s), and row (t, q) of R' (x) I
left of column (t, q); put at the row of that column, each end block is an
upper triangle, less its zero rows.  With two or more maps both triangles
cover disjoint columns and are written straight into R; with one map,
dtpqrt folds the second into the first as a triangular block.  The middle
spaces' rows are folded in blocks of about _FOLD_BYTES, written by
_write_rows, the one writer of L's rows for both routes.  So a check past
the crossover holds R and one block (a second R for one map) instead of L.

The R factor is the orbit check's route only.  numerical_rank pivots its
whole input, which on a tall input past the crossover is slower and
holds more than folding it into R (in process, best of 3, 2-CPU Xeon: a
3000 x 1500 matrix of rank 700 took 677 against 541 ms, traced peak 34.7
against 21.9 MiB; 4096 x 1024 took 510 against 352 ms, 32.3 against 12.5
MiB).  Such an input reaches it only through the sampler, on a shape with
a map that tall, which no benchmark workload samples.

A buffer too large for glibc's heap gets fresh pages from mmap;
orbit_dimension first hands the heap's free pages back to the OS, so the
pages of L, or of R and its block, do not stack on memory that earlier
work freed but the heap kept, and the peak resident size of a large rank
check does not depend on what ran before it.  An R small enough for the
heap can stay resident after it is freed, so the check trims again after
ranking it.

The LAPACK routines, dgeqp3, dgeqrf, dorgqr and dtpqrt, come from scipy's
f2py extension scipy/linalg/_flapack, loaded straight from its file, so
that neither scipy's __init__ nor scipy.linalg's runs; the latter pulls in
numpy.f2py, numpy.testing and numpy.ma and more than doubles the start-up
time of the float commands.  The routines are the same function
objects that scipy.linalg.lapack re-exports.  Every routine with a workspace
query, all but dtpqrt, goes through _lapack, which queries once per routine
and shape of the factored matrix, from whose dimensions alone LAPACK sizes
the workspace, and then calls.  The sampler's kernel step copies its
map once, into one buffer where dgeqp3 and then dorgqr run in place (see
_kernel_basis).  random_conjugation's Q factors come from dgeqrf and
dorgqr, without the R that np.linalg.qr builds, and it conjugates with the
inverse that each basis change carries, not a solve (see its docstring).

The sequential sampler draws D_1 with i.i.d. standard Gaussian entries
and each later map as K @ G, with K an orthonormal kernel basis of the
previous map and G Gaussian.  It is greedy and biased: it almost surely
produces greedy_rank_vector(shape), which for some shapes is not a
maximizer of the stratum dimension, i.e. not a rank vector a random
complex attains with positive probability.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np

from .core import (
    DEFAULT_SIZE_CAP,
    DEFAULT_TOLERANCES,
    ComplexShape,
    RankVector,
    ToleranceConfig,
    _map_offsets,
    _orbit_matrix_sides,
    _Record,
    _require_feasible,
    greedy_rank_vector,
)


def _load_flapack():
    """scipy's LAPACK extension, loaded without executing the scipy package.

    find_spec locates scipy's directory without running its __init__; on
    Linux the extension finds scipy's bundled libraries (scipy.libs) through
    its RPATH.  Once scipy.linalg is loaded, its registered extension is the
    one to use: loading the file again would return that module, and the
    clean-up below would unregister it.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    package = importlib.util.find_spec("scipy")
    if package is None or not package.submodule_search_locations:
        raise ImportError("numerics needs scipy's LAPACK extension, and scipy is not installed",
                          name="scipy")
    stem = os.path.join(package.submodule_search_locations[0], "linalg", "_flapack")
    paths = [stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"scipy's LAPACK extension not found: looked for {', '.join(paths)}")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # Single-phase init registers the module under its name.  Left there, a
    # later `import scipy.linalg` would find it and never bind
    # scipy.linalg._flapack.
    sys.modules.pop(name, None)
    return module


_flapack = _load_flapack()
# glibc's malloc_trim, None where the C library has none.
_malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None) if os.name == "posix" else None
# glibc serves no allocation above 32 MiB from its heap, whatever its
# dynamic mmap threshold: a buffer this large always gets fresh pages.
_HEAP_MAX_BYTES = 32 << 20
_EPS = float(np.finfo(np.float64).eps)
# An orbit matrix L.T with at least this many columns and this many times as
# many rows is ranked through its R factor; below either, building R costs
# more than it saves.
_COMPRESS_MIN_COLS = 1024
_COMPRESS_MIN_ASPECT = 1.5
# Rows folded into an R factor go to dtpqrt in blocks of about this many
# bytes, and dtpqrt's inner block size (on the fold of 30,30,30, 32 beat 16
# and 64, and 2-16 MB blocks took 0.20-0.14 s).
_FOLD_BYTES = 4 << 20
_FOLD_NB = 32
# _lapack's workspace sizes, by routine and the factored matrix's shape.  A
# key and its lwork take about 0.2 KB, so the 1024 entries hold at most about
# 0.2 MB; past them, a new shape queries on every call.
_LWORK: dict[tuple, int] = {}
_LWORK_ENTRIES = 1024
# The normal float range, outside which the composition check scales.
_TINY, _HUGE = sys.float_info.min, sys.float_info.max
# Condition-number bound of the basis changes random_conjugation draws.
_MAX_CONDITION = 1000.0
_HALF_LOG_CONDITION = 0.5 * np.log(_MAX_CONDITION)


def _max_norm(a: np.ndarray) -> float:
    """The largest |entry| of a, 0.0 if a is empty: NaN if an entry is NaN,
    which argmax takes for the largest, as max does.  argmax skips the
    ufunc reduction machinery, which costs more than the work on a small
    array."""
    if not a.size:
        return 0.0
    a = np.abs(a)
    return a.item(a.argmax())


def _real_copy(raw, name: str, order: str) -> np.ndarray:
    """A float64 copy of raw in the given memory order.  Complex entries,
    which the cast would take as their real part, strings, which it would
    parse, whether the array's own or the str or bytes an object array
    holds, and entries it cannot take as reals are refused with a ValueError
    that names raw as `name`."""
    raw = np.asarray(raw)  # a list is converted once, an array not yet copied
    if raw.dtype.kind == "c":
        raise ValueError(f"{name} has complex entries")
    strings = raw.dtype.kind in "SU" or raw.dtype.kind == "O" and any(
        isinstance(x, (str, bytes)) for x in raw.flat)
    try:
        if not strings:
            return np.array(raw, dtype=np.float64, order=order)
    except TypeError:
        pass
    raise ValueError(f"{name} has entries that are not real numbers")


class NumericalComplex(_Record, eq=False, hidden=("maps",)):
    """Explicit real matrices (D_1, ..., D_n) on a shape, with the
    composition-zero condition enforced up to a scale-invariant tolerance:

        max|D_i D_{i+1}|  <=  tol * max|D_i| * max|D_{i+1}| * a_i.

    Where max|D_i| * max|D_{i+1}| * a_i or that bound leaves the normal
    float range, the product would overflow or underflow; the test is then
    made on the two maps divided by their largest |entry|, against tol * a_i.
    A map with complex, string or other non-real entries (_real_copy), or
    with non-finite ones, is refused with a ValueError.
    """

    shape: ComplexShape
    maps: tuple[np.ndarray, ...]
    composition_tolerance: float = DEFAULT_TOLERANCES.composition_tolerance

    def __post_init__(self):
        tol = self.composition_tolerance
        if not tol > 0:
            raise ValueError("composition tolerance must be positive")
        dims = self.shape.dims
        if len(self.maps) != self.shape.n_maps:
            raise ValueError(
                f"expected {self.shape.n_maps} maps for shape {dims}, "
                f"got {len(self.maps)}"
            )
        frozen = []
        norms = []
        for j, raw in enumerate(self.maps):
            m = _real_copy(raw, f"map {j + 1}", "C")
            if m.shape != (dims[j], dims[j + 1]):
                raise ValueError(
                    f"map {j + 1} has shape {m.shape}, expected {(dims[j], dims[j + 1])}"
                )
            # The largest |entry| is non-finite exactly when some entry is.
            norm = _max_norm(m)
            if not math.isfinite(norm):
                raise ValueError(f"map {j + 1} has non-finite entries")
            m.setflags(write=False)
            frozen.append(m)
            norms.append(norm)
        object.__setattr__(self, "maps", tuple(frozen))
        for j in range(len(frozen) - 1):
            if not (norms[j] and norms[j + 1]):
                continue  # a zero map's products with finite maps are 0, within any bound
            left, right, scaled = frozen[j], frozen[j + 1], ""
            scale = norms[j] * norms[j + 1] * dims[j + 1]
            bound = tol * norms[j] * norms[j + 1] * dims[j + 1]
            if not (_TINY <= scale <= _HUGE and _TINY <= bound <= _HUGE):
                left, right = left / norms[j], right / norms[j + 1]
                bound = tol * dims[j + 1]
                scaled = " with both maps scaled to largest entry 1"
            residual = _max_norm(np.dot(left, right))
            if residual > bound:
                raise ValueError(
                    f"maps {j + 1} and {j + 2} do not compose to zero: "
                    f"residual {residual:.3e} exceeds {bound:.3e}{scaled}"
                )


def _check_info(routine: str, info: int) -> None:
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK {routine}")


def _lapack(routine: str, a: np.ndarray, *args) -> tuple:
    """Run LAPACK's dgeqp3, dgeqrf or dorgqr on a, a Fortran-ordered float64
    array it overwrites, and args (dorgqr's tau); return its output tuple,
    which ends with work and info.  lwork comes from a workspace query, as
    in scipy.linalg.qr and np.linalg.qr, whose bits it decides past LAPACK's
    crossover size.  LAPACK sizes the workspace of all three from a's
    dimensions alone (dorgqr's from its column count, whatever tau's
    length), so the answer is kept in _LWORK under the routine and a.shape.
    Query and call pass overwrite_a=1, without which f2py copies the input,
    even for the query; lwork and overwrite_a go by position, which f2py
    parses faster than keywords."""
    key = (routine, a.shape)
    lwork = _LWORK.get(key)
    call = getattr(_flapack, routine)
    if lwork is None:
        lwork = int(call(a, *args, -1, 1)[-2][0])
        if len(_LWORK) < _LWORK_ENTRIES:
            _LWORK[key] = lwork
    out = call(a, *args, lwork, 1)
    if out[-1] < 0:
        _check_info(routine, out[-1])
    return out


def _pivot_rank(qr: np.ndarray, longest_side: int, config: ToleranceConfig) -> int:
    """Pivots on the diagonal of the non-empty pivoted QR factor qr above
    the relative threshold."""
    pivots = qr.diagonal().tolist()
    # A zero largest pivot makes the threshold 0, or NaN under an infinite
    # factor (Python's float NaN, without numpy's warning): no pivot counts.
    threshold = config.rank_tolerance_factor * _EPS * longest_side * abs(pivots[0])
    return sum(abs(p) > threshold for p in pivots)


def _compresses(rows: int, cols: int) -> bool:
    """Whether orbit_dimension ranks the rows x cols L.T through its R factor."""
    return cols >= _COMPRESS_MIN_COLS and rows >= _COMPRESS_MIN_ASPECT * cols


def _rank_in_place(a: np.ndarray, longest_side: int, config: ToleranceConfig) -> int:
    """Pivots of the Fortran-ordered float64 array a above the threshold of
    a matrix whose longest side is longest_side, overwriting a."""
    if a.size == 0:
        return 0
    return _pivot_rank(_lapack("dgeqp3", a)[0], longest_side, config)


def _fold(r: np.ndarray, rows: np.ndarray, l: int = 0) -> None:
    """Fold the Fortran-ordered rows into the upper-triangular n x n R
    factor r, in place: r becomes the R of the matrix r stacked on rows.
    dtpqrt reads and writes only r's upper triangle; rows is overwritten.
    The last l rows of rows must be upper trapezoidal."""
    n = r.shape[0]
    *_, info = _flapack.dtpqrt(l, min(_FOLD_NB, n), r, rows, overwrite_a=1, overwrite_b=1)
    _check_info("dtpqrt", info)


def numerical_rank(matrix, config: ToleranceConfig = DEFAULT_TOLERANCES) -> int:
    """Pivot count of a column-pivoted QR factorization above the relative
    threshold; 0 for empty or zero matrices.  dgeqp3 runs on the one
    Fortran-ordered float64 copy of the whole matrix, whatever its shape:
    the R factor of a tall matrix is orbit_dimension's route only (module
    docstring).  A matrix with complex, string or other non-real entries
    is refused with a ValueError, not cast (_real_copy)."""
    a = _real_copy(matrix, "matrix", "F")
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return _rank_in_place(a, max(a.shape), config)


def _kernel_basis(matrix: np.ndarray, config: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Orthonormal columns spanning the numerical kernel of the finite
    float64 matrix, which is left intact.

    Completes the pivoted QR of the transpose by direct LAPACK calls, which
    keep the sampler faster on small shapes than scipy.linalg.qr.  The trailing
    columns of Q span the kernel; the rank cut is numerical_rank's threshold.
    Both calls run in place in one zeroed Fortran-ordered cols x
    max(rows, cols) buffer: dgeqp3 on the transpose, copied into its first
    rows columns, then dorgqr on its first cols columns, which expands the
    reflectors into the cols x cols Q (a wide matrix's zero columns pad
    them to that square).
    """
    rows, cols = matrix.shape
    # Empty or zero: LAPACK's Q would have -0.0 below the diagonal, np.eye
    # has not.
    if not matrix.any():
        return np.eye(cols)
    buf = np.zeros((cols, max(rows, cols)), order="F")
    buf[:, :rows] = matrix.T
    qr, _, tau, _, _ = _lapack("dgeqp3", buf[:, :rows])
    rank = _pivot_rank(qr, max(rows, cols), config)
    return _lapack("dorgqr", buf[:, :cols], tau)[0][:, rank:]


def _q_factor(g: np.ndarray) -> np.ndarray:
    """Q of the QR factorization of the square matrix g, in C order; g is
    left intact."""
    qr, tau, _, _ = _lapack("dgeqrf", np.array(g, order="F"))
    return np.ascontiguousarray(_lapack("dorgqr", qr, tau)[0])


def canonical_complex(
    shape: ComplexShape,
    ranks: RankVector,
    config: ToleranceConfig = DEFAULT_TOLERANCES,
) -> NumericalComplex:
    """The identity-block model complex realizing (shape, ranks).

    D_i sends the last r_i coordinates of A_i to the first r_i coordinates
    of A_{i-1}; feasibility puts the image inside the kernel of D_{i-1},
    so compositions vanish exactly and every numerical rank is exact.
    """
    _require_feasible(shape, ranks)
    dims = shape.dims
    maps = tuple(np.eye(dims[j], dims[j + 1], dims[j + 1] - r) for j, r in enumerate(ranks.ranks))
    return NumericalComplex(shape, maps, config.composition_tolerance)


def orbit_dimension(
    complex_: NumericalComplex,
    config: ToleranceConfig = DEFAULT_TOLERANCES,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> int:
    """Rank of the linearized change-of-basis action at the complex.

    The action of basis changes (g_0, ..., g_n) on the maps linearizes to
    L(X_0, ..., X_n) = (X_{i-1} D_i - D_i X_i)_{i=1..n}, a linear map from
    the sum of the gl(a_i) into the ambient matrix space.  Complexes with
    fixed dims and ranks form a single orbit of that action, so rank(L)
    equals the stratum dimension; this is the numerical cross-check of the
    closed-form d(a, r).

    Below the crossover L is built and its transpose ranked in place.  Past
    it, L is never built: dgeqp3 runs on an ambient x ambient R with
    R.T @ R = L @ L.T, folded from the Kronecker blocks of the maps (module
    docstring), at the threshold of L's longest side.
    """
    ambient, domain = _orbit_matrix_sides(complex_.shape, size_cap)
    structured = _compresses(domain, ambient)
    # The buffers the check allocates: L, or R and one block of rows (a
    # second R for one map).
    square = 8 * ambient * ambient
    if not structured:
        held = 8 * ambient * domain
    else:
        held = square + (square if complex_.shape.n_maps == 1 else _FOLD_BYTES)
    if _malloc_trim is not None and held > _HEAP_MAX_BYTES:
        _malloc_trim(0)
    if not structured:
        # The maps were checked finite, so L is too.  L.T, domain x ambient
        # and never wide, is the Fortran-ordered matrix factored in place.
        return _rank_in_place(_orbit_matrix(complex_, ambient, domain).T, domain, config)
    rank = _rank_in_place(_orbit_r_factor(complex_, ambient), domain, config)
    # R is freed; pages it held on the heap would otherwise stay resident.
    if _malloc_trim is not None and square <= _HEAP_MAX_BYTES:
        _malloc_trim(0)
    return rank


def _orbit_r_factor(complex_: NumericalComplex, n: int) -> np.ndarray:
    """An n x n upper-triangular R, n = ambient, with R.T @ R = L @ L.T,
    Fortran-ordered, built from the maps without L (module docstring).
    Rows and columns are indexed as in core._map_offsets; _write_rows writes
    the middle spaces' blocks here and, through _write_orbit_matrix, the L
    that _orbit_plan reads its index plan off."""
    maps, dims = complex_.maps, complex_.shape.dims
    r = np.zeros((n, n), order="F")
    offsets = _map_offsets(dims)
    # X_0: I (x) D_1 rotates to I (x) R_1; [p, s, q] -> r[(p, s), (p, q)].
    if maps[0].size:
        a0, a1 = maps[0].shape
        r1 = _triangle(maps[0])
        _view(r, (a0, len(r1), a1), 0, (a1 * (n + 1), 1, n))[:] = r1
    # X_n: -(D_n^T (x) I) rotates to -(R' (x) I); [t, q, p] -> (t, q), (p, q).
    tail = r if len(maps) > 1 else np.zeros((n, n), order="F")
    if maps[-1].size:
        am, an = maps[-1].shape
        rn = _triangle(maps[-1].T)
        at = offsets[-2] * (n + 1)
        _view(tail, (len(rn), an, am), at, (an, n + 1, an * n))[:] = -rn[:, None, :]
    if tail is not r:
        # One map: both triangles cover the same columns.
        _fold(r, tail, n)
    # X_i, 0 < i < n, in blocks of whole rows t.
    for i, a in enumerate(dims[1:-1], 1):
        if a == 0:
            continue
        # Whole rows t of X_i, about _FOLD_BYTES of L.T's rows at a time.
        per_block = max(1, _FOLD_BYTES // (8 * n * a))
        for t0 in range(0, a, per_block):
            t = min(a - t0, per_block)
            block = np.zeros((t * a, n), order="F")
            _write_rows(block, t * a, 0, maps, dims, offsets, i, t0, t)
            _fold(r, block)
    return r


def _view(buf: np.ndarray, shape: tuple, at: int, strides: tuple) -> np.ndarray:
    """A 3-d view of the float64 buffer buf, offset and strides in elements."""
    s0, s1, s2 = strides
    return np.ndarray(shape, np.float64, buf, 8 * at, (8 * s0, 8 * s1, 8 * s2))


def _triangle(d: np.ndarray) -> np.ndarray:
    """The nonzero rows of the R factor of the QR factorization of the
    non-empty matrix d: dgeqrf's first min(d.shape) rows, zeroed below the
    diagonal."""
    return np.triu(_lapack("dgeqrf", np.array(d, order="F"))[0][: min(d.shape)])


def _write_rows(buf: np.ndarray, ld: int, first: int, maps: tuple, dims: tuple,
                offsets: list[int], i: int, t0: int, t: int) -> None:
    """Write rows X_i[t0 : t0 + t, :] of L.T for the maps on dims, from row
    first on, into the zeroed float64 buffer buf, whose element
    row + col * ld is L.T[row, col], in the index convention of
    core._map_offsets, through strided views indexed [p, t, q] and
    [t, q, u].  "0.0 -" and "+ 0.0" turn -0.0 into +0.0, so L holds no
    negative zero (the QR's Householder signs read the sign of zero)."""
    a = dims[i]
    if i and maps[i - 1].size:
        left = maps[i - 1]
        view = _view(buf, (len(left), t, a), first + offsets[i - 1] * ld, (a * ld, a, ld + 1))
        np.subtract(0.0, left[:, t0 : t0 + t, None], out=view)
    if i < len(maps) and maps[i].size:
        k = maps[i].shape[1]
        view = _view(buf, (t, a, k), first + (offsets[i] + t0 * k) * ld, (a + k * ld, 1, ld))
        np.add(maps[i], 0.0, out=view)


def _orbit_matrix(complex_: NumericalComplex, ambient: int, domain: int) -> np.ndarray:
    """L, ambient x domain, in C order so that its transpose, of leading
    dimension domain, is factored in place: one gather of the maps'
    entries, as they are ("+ 0.0") and negated ("0.0 -"), and one scatter,
    by the plan of _orbit_plan."""
    plan = _orbit_plan(complex_.shape.dims, ambient, domain)
    flat = np.concatenate(complex_.maps or [()], axis=None)
    lin = np.zeros(ambient * domain)
    lin.put(plan[0], np.concatenate((flat + 0.0, 0.0 - flat)).take(plan[1]))
    return lin.reshape(ambient, domain)


def _write_orbit_matrix(maps: tuple, dims: tuple, ambient: int, domain: int) -> np.ndarray:
    """L of the maps on dims, written space by space by _write_rows."""
    lin = np.zeros((ambient, domain))
    offsets = _map_offsets(dims)
    first = 0
    for i, a in enumerate(dims):
        _write_rows(lin, domain, first, maps, dims, offsets, i, 0, a)
        first += a * a
    return lin


@functools.lru_cache(maxsize=1)
def _orbit_plan(dims: tuple, ambient: int, domain: int) -> np.ndarray:
    """The index plan of L on dims, built unless dims were the last asked:
    one plan is held, and lru_cache hands each thread the plan of its key.

    Row 0 holds the positions of L's nonzeros in L.ravel(), row 1 the
    index of each one's entry in the maps' entries, concatenated, then
    negated, as np.intp, and empty when L has no nonzero entry.  It is
    read off the L that _write_orbit_matrix writes for maps whose entries
    are 1..N in that order: +k, or -k, where it put entry k, or its
    negation."""
    offsets = _map_offsets(dims)
    index = np.arange(1.0, offsets[-1] + 1.0)
    maps = tuple(index[offsets[j] : offsets[j + 1]].reshape(dims[j], dims[j + 1])
                 for j in range(len(dims) - 1))
    lin = _write_orbit_matrix(maps, dims, ambient, domain).ravel()
    at = (lin != 0).nonzero()[0]  # faster than flatnonzero on floats
    entry = lin[at]
    return np.array((at, np.where(entry > 0, entry - 1, offsets[-1] - 1 - entry)), np.intp)


def _spawned_rng(seed: int, key: int) -> np.random.Generator:
    # Stream-splitting rule: stream `key` draws from PCG64 seeded with
    # SeedSequence(entropy=seed, spawn_key=(key,)); the sampler's map i uses
    # key i, random_conjugation key 0xC0.  This is the generator
    # np.random.default_rng builds, without its dispatch.
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))
    )


def sequential_sample(
    shape: ComplexShape, seed: int, config: ToleranceConfig = DEFAULT_TOLERANCES
) -> NumericalComplex:
    """Greedy kernel-restricted Gaussian complex; deterministic per seed.

    This sampler is biased: its rank vector is greedy_rank_vector(shape)
    almost surely, which need not maximize the stratum dimension.  It does
    not realize the conditional measure on the variety of complexes.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    dims = shape.dims
    maps: list[np.ndarray] = []
    for j in range(shape.n_maps):
        rng = _spawned_rng(seed, j)
        if j == 0:
            m = rng.standard_normal((dims[0], dims[1]))
        else:
            basis = _kernel_basis(maps[-1], config)
            gauss = rng.standard_normal((basis.shape[1], dims[j + 1]))
            m = basis @ gauss
        maps.append(m)
    return NumericalComplex(shape, tuple(maps), config.composition_tolerance)


def random_conjugation(complex_: NumericalComplex, seed: int) -> NumericalComplex:
    """Another point of the same stratum: D_i -> g_{i-1} D_i g_i^{-1} with
    random invertible g_i of condition number at most _MAX_CONDITION.

    g_i is q1 diag(s) q2^T, with q1, q2 the Q factors of Gaussian matrices
    from dgeqrf and dorgqr, so g_i^{-1} is q2 diag(1/s) q1^T; g_i is formed
    only where A_i is a codomain and g_i^{-1} only where it is a domain.  The
    Q factors are copied to C order, as np.linalg.qr returns them, so that
    the products take the same BLAS path as with np.linalg.qr's factors.
    The products go through np.dot, which skips matmul's gufunc dispatch
    and, on these C- and Fortran-ordered float64 operands, gave @'s bits on
    every shape checked: every shape of at most 4 spaces of entries at most
    4, and 30,30,30, 40,40, 200,300,200, 3,4,4,2, 1,40,1,40,1 and 5,7,3.
    So the maps match g_{i-1} @ D_i @ g_i^{-1}, with both formed from
    np.linalg.qr's factors and an explicit np.diag, bit for bit up to
    a_i = 200 (test_conjugation_matches_two_qr pins it up to 40).  At
    a_i = 300 and 500, numpy's and scipy's bundled OpenBLAS builds gave Q
    entries up to about 1e-14 apart.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    rng = _spawned_rng(seed, 0xC0)
    dims = complex_.shape.dims
    maps = list(complex_.maps)
    for i, a in enumerate(dims):
        if a == 0:  # LAPACK refuses a 0 x 0 matrix; the maps at A_i are empty
            continue
        # q1 and q2 factor one stacked draw, in that order.
        q1, q2 = map(_q_factor, rng.standard_normal((2, a, a)))
        singular = np.exp(rng.uniform(-_HALF_LOG_CONDITION, _HALF_LOG_CONDITION, size=a))
        # Map i-1 already has its left factor.  Multiplying by 1/s rounds as
        # q2 @ diag(1/s) does; dividing by s does not.
        if i > 0:
            maps[i - 1] = np.dot(maps[i - 1], np.dot(q2 * (1.0 / singular), q1.T))
        if i < len(maps):
            maps[i] = np.dot(np.dot(q1 * singular, q2.T), maps[i])
    return NumericalComplex(complex_.shape, tuple(maps), complex_.composition_tolerance)
