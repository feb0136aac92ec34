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
all rank decisions.

The sequential sampler draws D_1 with i.i.d. standard Gaussian entries
and each later map as K @ G, with K an orthonormal kernel basis of the
previous map and G Gaussian.  It is greedy and biased: it almost surely
produces greedy_rank_vector(shape), which for some shapes is not a
maximizer of the stratum dimension, i.e. not a rank vector a random
complex attains with positive probability.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .core import (
    DEFAULT_SIZE_CAP,
    DEFAULT_TOLERANCES,
    ComplexShape,
    InfeasibleRanksError,
    RankVector,
    ToleranceConfig,
    WorkCapExceeded,
    is_feasible,
)

_EPS = float(np.finfo(np.float64).eps)


def _max_norm(a: np.ndarray) -> float:
    return float(np.abs(a).max()) if a.size else 0.0


@dataclass(frozen=True, eq=False)
class NumericalComplex:
    """Explicit real matrices (D_1, ..., D_n) on a shape, with the
    composition-zero condition enforced up to a scale-invariant tolerance:

        max|D_i D_{i+1}|  <=  tol * max|D_i| * max|D_{i+1}| * a_i.
    """

    shape: ComplexShape
    maps: tuple[np.ndarray, ...] = field(repr=False)
    composition_tolerance: float = 1e-8

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
            m = np.array(raw, dtype=np.float64)
            if m.shape != (dims[j], dims[j + 1]):
                raise ValueError(
                    f"map {j + 1} has shape {m.shape}, expected {(dims[j], dims[j + 1])}"
                )
            if not np.isfinite(m).all():
                raise ValueError(f"map {j + 1} has non-finite entries")
            m.setflags(write=False)
            frozen.append(m)
            norms.append(_max_norm(m))
        object.__setattr__(self, "maps", tuple(frozen))
        for j in range(len(frozen) - 1):
            residual = _max_norm(frozen[j] @ frozen[j + 1])
            bound = tol * norms[j] * norms[j + 1] * dims[j + 1]
            if residual > bound:
                raise ValueError(
                    f"maps {j + 1} and {j + 2} do not compose to zero: "
                    f"residual {residual:.3e} exceeds {bound:.3e}"
                )


def _pivot_rank(pivots: np.ndarray, longest_side: int, factor: float) -> int:
    if pivots.size == 0 or pivots[0] <= 0.0:
        return 0
    threshold = factor * _EPS * longest_side * pivots[0]
    return int(np.count_nonzero(pivots > threshold))


def numerical_rank(matrix, config: ToleranceConfig = DEFAULT_TOLERANCES) -> int:
    """Pivot count of a column-pivoted QR factorization above the relative
    threshold; 0 for empty or zero matrices."""
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if a.size == 0:
        return 0
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    r = scipy.linalg.qr(a, mode="r", pivoting=True)[0]
    pivots = np.abs(np.diag(r))
    return _pivot_rank(pivots, max(a.shape), config.rank_tolerance_factor)


def _kernel_basis(matrix, config: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Orthonormal columns spanning the numerical kernel.

    Completes the pivoted QR of the transpose: the trailing columns of Q
    are orthogonal to the row space.  The rank cut uses the same pivot
    threshold as numerical_rank.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    cols = a.shape[1]
    if cols == 0:
        return np.zeros((0, 0))
    if a.shape[0] == 0 or not a.any():
        return np.eye(cols)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    q, r, _ = scipy.linalg.qr(a.T, pivoting=True)
    pivots = np.abs(np.diag(r))
    rank = _pivot_rank(pivots, max(a.shape), config.rank_tolerance_factor)
    return q[:, rank:]


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
    if not is_feasible(shape, ranks):
        raise InfeasibleRanksError(
            f"ranks {ranks.ranks} are infeasible for dims {shape.dims}"
        )
    dims = shape.dims
    maps = []
    for j, r in enumerate(ranks.ranks):
        m = np.zeros((dims[j], dims[j + 1]))
        for k in range(r):
            m[k, dims[j + 1] - r + k] = 1.0
        maps.append(m)
    return NumericalComplex(shape, tuple(maps), config.composition_tolerance)


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
    """
    dims = complex_.shape.dims
    n = complex_.shape.n_maps
    domain = sum(a * a for a in dims)
    ambient = sum(dims[i - 1] * dims[i] for i in range(1, n + 1))
    if domain > size_cap or ambient > size_cap:
        raise WorkCapExceeded(
            f"orbit computation needs a {ambient} x {domain} matrix, "
            f"exceeding the size cap of {size_cap}"
        )
    return numerical_rank(_orbit_matrix(complex_, ambient, domain), config)


def _orbit_matrix(complex_: NumericalComplex, ambient: int, domain: int) -> np.ndarray:
    """The ambient x domain matrix of L in row-major vec coordinates."""
    dims = complex_.shape.dims
    lin = np.zeros((ambient, domain))
    row = col = 0
    for i, d in enumerate(complex_.maps, 1):
        m, k = dims[i - 1], dims[i]
        # Row-major vec; row (p, q) of block i:
        #   vec(X_{i-1} D_i):  L[(p, q), X_{i-1}[p, s]] =  D_i[s, q]
        #   vec(D_i X_i):      L[(p, q), X_i[t, q]]     = -D_i[p, t]
        # written by index scatter into reshaped views of the row block.
        # "+ 0.0" and "0.0 -" turn -0.0 into +0.0, so L holds no negative
        # zero (the QR's Householder signs read the sign of zero).
        ar_m, ar_k = np.arange(m), np.arange(k)
        rows = lin[row : row + m * k]
        rows[:, col : col + m * m].reshape(m, k, m, m)[ar_m, :, ar_m, :] = d.T + 0.0
        col += m * m
        rows[:, col : col + k * k].reshape(m, k, k, k)[:, ar_k, :, ar_k] = 0.0 - d
        row += m * k
    return lin


def greedy_rank_vector(shape: ComplexShape) -> RankVector:
    """Ranks the sequential sampler attains almost surely:
    r_1 = min(a_0, a_1), then r_{i+1} = min(a_{i+1}, a_i - r_i)."""
    dims = shape.dims
    ranks = []
    prev = 0
    for i in range(shape.n_maps):
        prev = min(dims[i + 1], dims[i] - prev)
        ranks.append(prev)
    return RankVector(tuple(ranks))


def _matrix_rng(seed: int, index: int) -> np.random.Generator:
    # Stream-splitting rule: map index i draws from PCG64 seeded with
    # SeedSequence(entropy=seed, spawn_key=(i,)).
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


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
        rng = _matrix_rng(seed, j)
        if j == 0:
            m = rng.standard_normal((dims[0], dims[1]))
        else:
            basis = _kernel_basis(maps[-1], config)
            gauss = rng.standard_normal((basis.shape[1], dims[j + 1]))
            m = basis @ gauss
        maps.append(m)
    return NumericalComplex(shape, tuple(maps), config.composition_tolerance)


def random_conjugation(
    complex_: NumericalComplex,
    seed: int,
    max_condition: float = 1000.0,
    config: ToleranceConfig = DEFAULT_TOLERANCES,
) -> NumericalComplex:
    """Another point of the same stratum: D_i -> g_{i-1} D_i g_i^{-1} with
    random invertible g_i of condition number at most max_condition."""
    if not (max_condition >= 1.0 and np.isfinite(max_condition)):
        raise ValueError("condition bound must be finite and at least 1")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xC0,)))
    dims = complex_.shape.dims
    half_log = 0.5 * np.log(max_condition)
    basis_changes = []
    for a in dims:
        if a == 0:
            basis_changes.append(np.zeros((0, 0)))
            continue
        # One stacked QR factors the pair q1, q2, drawn in that order.
        q1, q2 = np.linalg.qr(rng.standard_normal((2, a, a)))[0]
        singular = np.exp(rng.uniform(-half_log, half_log, size=a))
        basis_changes.append((q1 * singular) @ q2.T)
    maps = []
    for i, d in enumerate(complex_.maps):
        g_left, g_right = basis_changes[i], basis_changes[i + 1]
        if d.size == 0:
            maps.append(np.zeros_like(d))
            continue
        maps.append(np.linalg.solve(g_right.T, (g_left @ d).T).T)
    return NumericalComplex(complex_.shape, tuple(maps), config.composition_tolerance)
