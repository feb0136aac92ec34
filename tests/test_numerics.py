"""Numerical ranks, model complexes, orbit dimension, sampler."""

import functools
import inspect
import itertools
import random
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from importlib.machinery import EXTENSION_SUFFIXES, ModuleSpec

import numpy as np
import pytest
import scipy.linalg

from chaincx import (
    DEFAULT_TOLERANCES,
    BettiVector,
    ComplexShape,
    InfeasibleRanksError,
    NumericalComplex,
    RankVector,
    ToleranceConfig,
    WorkCapExceeded,
    betti_from_ranks,
    canonical_complex,
    greedy_rank_vector,
    is_feasible,
    maximize_dp,
    numerical_rank,
    numerics,
    orbit_dimension,
    random_conjugation,
    sequential_sample,
    stratum_dimension,
)
from chaincx.core import (
    DEFAULT_SIZE_CAP,
    _canonical_orbit_rank,
    _feasible,
    _orbit_matrix_sides,
)
from chaincx.numerics import (
    _EPS,
    _kernel_basis,
    _lapack,
    _orbit_matrix,
    _orbit_r_factor,
    _pivot_rank,
    _q_factor,
    _write_orbit_matrix,
)
from test_core import _exactly, iter_feasible_ranks, iter_shapes, ranks, shape


class TestNumericalRank:
    def test_identity(self):
        for k in (1, 3, 7):
            assert numerical_rank(np.eye(k)) == k

    def test_zero_and_empty(self):
        assert numerical_rank(np.zeros((3, 4))) == 0
        # An infinite factor makes the threshold of a zero matrix NaN.
        infinite = ToleranceConfig(rank_tolerance_factor=float("inf"))
        assert numerical_rank(np.zeros((3, 4)), infinite) == 0
        zero_orbit = canonical_complex(shape(2, 2), ranks(0))
        assert orbit_dimension(zero_orbit) == orbit_dimension(zero_orbit, infinite) == 0
        assert numerical_rank(np.zeros((0, 5))) == 0
        assert numerical_rank(np.zeros((5, 0))) == 0

    def test_tiny_residual_dropped(self):
        assert numerical_rank(np.array([[1.0], [1e-15]])) == 1
        assert numerical_rank(np.diag([1.0, 1e-15])) == 1
        assert numerical_rank(np.diag([1.0, 1e-3])) == 2

    def test_scale_invariance(self):
        m = np.diag([1.0, 1e-15]) * 1e8
        assert numerical_rank(m) == 1

    def test_tolerance_factor_is_a_knob(self):
        loose = ToleranceConfig(rank_tolerance_factor=1e14)
        assert numerical_rank(np.diag([1.0, 1e-3]), loose) == 1

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            numerical_rank(np.array([[np.nan]]))
        with pytest.raises(ValueError):
            numerical_rank(np.array([[np.inf, 1.0]]))
        # So is a vector, before its entries are read.
        with pytest.raises(ValueError, match=_exactly("expected a matrix, got ndim=1")):
            numerical_rank(np.array([np.nan, 1.0]))
        # A complex matrix is refused before the cast would drop its
        # imaginary part, without a ComplexWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for complex_matrix in (np.array([[1j, 0], [0, 2j]]), [[1j, 0], [0, 2j]]):
                with pytest.raises(ValueError, match=_exactly("matrix has complex entries")):
                    numerical_rank(complex_matrix)
            # Entries the cast cannot take as reals, and strings, which it
            # would parse.
            not_real = _exactly("matrix has entries that are not real numbers")
            for matrix in (np.array([[1j, 0]], dtype=object), np.array([["1", "2"]]),
                           np.array([[b"1", b"2"]]), [["1", "2"]]):
                with pytest.raises(ValueError, match=not_real):
                    numerical_rank(matrix)

    def test_random_low_rank(self):
        rng = np.random.default_rng(5)
        for m, n, r in [(6, 4, 2), (5, 5, 3), (4, 7, 0)]:
            a = rng.standard_normal((m, r)) @ rng.standard_normal((r, n)) if r else np.zeros((m, n))
            assert numerical_rank(a) == r


class TestKernelBasis:
    def test_orthonormal_and_annihilating(self):
        rng = np.random.default_rng(11)
        for m, n, r in [(3, 5, 2), (4, 4, 4), (2, 6, 1)]:
            a = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
            k = _kernel_basis(a)
            assert k.shape == (n, n - r)
            assert np.allclose(k.T @ k, np.eye(n - r), atol=1e-12)
            if k.size:
                assert np.max(np.abs(a @ k)) < 1e-10

    def test_degenerate_shapes(self):
        assert _kernel_basis(np.zeros((0, 4))).shape == (4, 4)
        assert _kernel_basis(np.zeros((3, 0))).shape == (0, 0)
        full = _kernel_basis(np.zeros((3, 4)))
        assert np.allclose(full, np.eye(4))


class TestCanonicalComplex:
    def test_21_single_column(self):
        cx = canonical_complex(shape(2, 1), ranks(1))
        assert cx.maps[0].tolist() == [[1.0], [0.0]]

    def test_2112_blocks_and_exact_zero_products(self):
        cx = canonical_complex(shape(2, 1, 1, 2), ranks(1, 0, 1))
        assert cx.maps[1].tolist() == [[0.0]]
        for a, b in zip(cx.maps, cx.maps[1:]):
            assert np.max(np.abs(a @ b)) == 0.0

    def test_zero_ranks_zero_maps(self):
        cx = canonical_complex(shape(3, 2, 4), ranks(0, 0))
        assert all(not m.any() for m in cx.maps)

    def test_ranks_exact(self):
        for s in [shape(3, 2, 4), shape(2, 1, 1, 2), shape(4, 4)]:
            for rv in iter_feasible_ranks(s):
                cx = canonical_complex(s, rv)
                assert tuple(numerical_rank(m) for m in cx.maps) == rv.ranks

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleRanksError):
            canonical_complex(shape(1, 1, 1), ranks(1, 1))


class TestNumericalComplexValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            NumericalComplex(shape(2, 2), (np.zeros((3, 2)),))
        with pytest.raises(ValueError, match=_exactly(
                "expected 2 maps for shape (2, 2, 2), got 1")):
            NumericalComplex(shape(2, 2, 2), (np.eye(2),))

    def test_composition_violation_rejected(self):
        bad = (np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="compose"):
            NumericalComplex(shape(2, 2, 2), bad)

    @pytest.mark.parametrize("s", [1e-300, 1e-200, 1e-170, 1e160, 1e200, 1e300])
    def test_composition_checked_past_the_float_range(self, s):
        # D_1 D_2 = s^2, or its bound, overflows or underflows: 1e-200,
        # 1e-170, 1e160 and 1e200 were accepted, 1e200 with a RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=_exactly(
                    "maps 1 and 2 do not compose to zero: residual 1.000e+00 exceeds "
                    f"{DEFAULT_TOLERANCES.composition_tolerance:.3e} "
                    "with both maps scaled to largest entry 1")):
                NumericalComplex(shape(1, 1, 1), ([[s]], [[s]]))
            NumericalComplex(shape(1, 2, 1), ([[s, s]], [[s], [-s]]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            NumericalComplex(shape(1, 1), (np.array([[np.nan]]),))
        # A complex map is refused, not stored as its real part.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=_exactly("map 1 has complex entries")):
                NumericalComplex(shape(1, 1), (np.array([[1j]]),))
            with pytest.raises(ValueError, match=_exactly("map 2 has complex entries")):
                NumericalComplex(shape(1, 1, 1), (np.zeros((1, 1)), [[1j]]))
            for bad in (np.array([[1j, 0]], dtype=object), np.array([["1", "2"]]),
                        np.array([[b"1", b"2"]])):
                with pytest.raises(ValueError,
                                   match=_exactly("map 2 has entries that are not real numbers")):
                    NumericalComplex(shape(1, 1, 2), (np.zeros((1, 1)), bad))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_non_finite_named_before_composition(self, value, j):
        # The identity maps fail the composition check too; the non-finite
        # entry of map j is reported first, without a RuntimeWarning.
        maps = [np.eye(2) for _ in range(3)]
        maps[j - 1] = np.array([[1.0, 0.0], [value, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=_exactly(f"map {j} has non-finite entries")):
                NumericalComplex(shape(2, 2, 2, 2), tuple(maps))

    @pytest.mark.parametrize("maps, tol, message", [
        # The tolerance, then the map count, then map by map: complex
        # entries, shape, non-finite entries; then each pair's composition.
        ((np.eye(2),), 0.0, "composition tolerance must be positive"),
        ((np.array([[1j]]),), 1e-9, "expected 2 maps for shape (2, 2, 2), got 1"),
        ((np.array([[1j, 0], [0, 1]]), np.zeros((3, 2))), 1e-9, "map 1 has complex entries"),
        ((np.array([[np.nan, 0], [0, 1]]), np.zeros((3, 2))), 1e-9,
         "map 1 has non-finite entries"),
        ((np.zeros((3, 2)), np.array([[1j, 0], [0, 1]])), 1e-9,
         "map 1 has shape (3, 2), expected (2, 2)"),
        ((np.full((2, 3), np.inf), np.eye(2)), 1e-9, "map 1 has shape (2, 3), expected (2, 2)"),
        ((np.array([[1j, np.nan], [0, 1]]), np.eye(2)), 1e-9, "map 1 has complex entries"),
        ((np.eye(2), [[np.nan, 0.0], [0.0, 1.0]]), 1e-9, "map 2 has non-finite entries"),
        ((np.eye(2), np.eye(2)), 0.25,
         "maps 1 and 2 do not compose to zero: residual 1.000e+00 exceeds 5.000e-01"),
    ])
    def test_first_fault_named(self, maps, tol, message):
        # On inputs with several faults, the first in the order above.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=_exactly(message)):
                NumericalComplex(shape(2, 2, 2), maps, tol)

    def test_complex_object_array_not_taken_for_complex(self):
        # An object array of complex numbers is not a complex array: the
        # float64 copy refuses it, as entries that are not real numbers.
        with pytest.raises(ValueError, match=_exactly("map 1 has entries that are not real numbers")):
            NumericalComplex(shape(1, 1), (np.array([[1j]], dtype=object),))

    def test_nan_tolerance_rejected(self):
        # A NaN bound would make every composition check pass.
        with pytest.raises(ValueError, match="composition tolerance must be positive"):
            NumericalComplex(shape(2, 2, 2), (np.eye(2), np.eye(2)), float("nan"))
        with pytest.raises(ValueError, match="composition tolerance must be positive"):
            NumericalComplex(shape(2, 2), (np.eye(2),), float("nan"))

    def test_maps_frozen(self):
        cx = canonical_complex(shape(2, 2), ranks(1))
        with pytest.raises(ValueError):
            cx.maps[0][0, 0] = 5.0


class RankInconsistencyError(ValueError):
    """Numerical ranks of a complex are infeasible; adjust tolerances."""


def numerical_betti(
    complex_: NumericalComplex, config: ToleranceConfig = DEFAULT_TOLERANCES
) -> BettiVector:
    """Betti numbers from the numerical ranks of the maps."""
    ranks = tuple(numerical_rank(m, config) for m in complex_.maps)
    if not _feasible(complex_.shape.dims, ranks):
        raise RankInconsistencyError(
            f"numerical ranks {ranks} are infeasible for dims "
            f"{complex_.shape.dims}: rank inconsistency, adjust tolerances"
        )
    return betti_from_ranks(complex_.shape, RankVector(ranks))


class TestNumericalBetti:
    def test_examples(self):
        assert numerical_betti(canonical_complex(shape(3, 1, 3), ranks(1, 0))).bettis == (2, 0, 3)
        assert numerical_betti(canonical_complex(shape(3, 3, 3), ranks(0, 0))).bettis == (3, 3, 3)
        assert numerical_betti(canonical_complex(shape(4, 4, 4, 4), ranks(4, 0, 4))).bettis == (
            0,
            0,
            0,
            0,
        )

    def test_agrees_with_integer_layer(self):
        for s in [shape(3, 2, 4), shape(2, 1, 1, 2)]:
            for rv in iter_feasible_ranks(s):
                cx = canonical_complex(s, rv)
                assert numerical_betti(cx) == betti_from_ranks(s, rv)

    def test_rank_inconsistency_signalled(self):
        # Numerically independent maps have full ranks, which are
        # infeasible as a rank vector on this shape.
        maps = (np.eye(1) * 1e-9, np.eye(1))
        cx = NumericalComplex(shape(1, 1, 1), maps, composition_tolerance=10.0)
        with pytest.raises(RankInconsistencyError):
            numerical_betti(cx)


def kron_orbit_matrix(complex_: NumericalComplex) -> np.ndarray:
    """Reference build of L from Kronecker products, one block at a time."""
    dims = complex_.shape.dims
    n = complex_.shape.n_maps
    col_off = [0]
    for a in dims:
        col_off.append(col_off[-1] + a * a)
    lin = np.zeros((sum(dims[i - 1] * dims[i] for i in range(1, n + 1)), col_off[-1]))
    row = 0
    for i in range(1, n + 1):
        block_rows = dims[i - 1] * dims[i]
        if block_rows:
            d = complex_.maps[i - 1]
            # Row-major vec: vec(X D) = kron(I, D.T) vec(X); vec(D X) = kron(D, I) vec(X).
            lin[row : row + block_rows, col_off[i - 1] : col_off[i]] += np.kron(
                np.eye(dims[i - 1]), d.T
            )
            lin[row : row + block_rows, col_off[i] : col_off[i + 1]] -= np.kron(
                d, np.eye(dims[i])
            )
        row += block_rows
    return lin


def loop_canonical_maps(s: ComplexShape, rv: RankVector) -> list[np.ndarray]:
    """Reference canonical_complex maps, identity blocks written entry by entry."""
    dims = s.dims
    maps = []
    for j, r in enumerate(rv.ranks):
        m = np.zeros((dims[j], dims[j + 1]))
        for k in range(r):
            m[k, dims[j + 1] - r + k] = 1.0
        maps.append(m)
    return maps


def scatter_orbit_matrix(complex_: NumericalComplex, ambient: int, domain: int) -> np.ndarray:
    """Reference _orbit_matrix by index scatter into reshaped views of each
    row block of L."""
    dims = complex_.shape.dims
    lin = np.zeros((domain, ambient)).T
    row = col = 0
    for i, d in enumerate(complex_.maps, 1):
        m, k = dims[i - 1], dims[i]
        ar_m, ar_k = np.arange(m), np.arange(k)
        rows = lin[row : row + m * k]
        rows[:, col : col + m * m].reshape(m, k, m, m)[ar_m, :, ar_m, :] = d.T + 0.0
        col += m * m
        rows[:, col : col + k * k].reshape(m, k, k, k)[:, ar_k, :, ar_k] = 0.0 - d
        row += m * k
    return lin


def reference_basis_changes(dims, seed, max_condition=1000.0):
    """Reference draw of random_conjugation's (g_i, g_i^{-1}): one QR per
    factor and explicit diagonals."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xC0,)))
    half_log = 0.5 * np.log(max_condition)
    basis_changes = []
    for a in dims:
        if a == 0:
            basis_changes.append((np.zeros((0, 0)), np.zeros((0, 0))))
            continue
        q1 = np.linalg.qr(rng.standard_normal((a, a)))[0]
        q2 = np.linalg.qr(rng.standard_normal((a, a)))[0]
        singular = np.exp(rng.uniform(-half_log, half_log, size=a))
        basis_changes.append((q1 @ np.diag(singular) @ q2.T,
                              q2 @ np.diag(1.0 / singular) @ q1.T))
    return basis_changes


def two_qr_conjugation(complex_: NumericalComplex, seed: int) -> list[np.ndarray]:
    """Reference random_conjugation's maps: g_{i-1} @ D_i @ g_i^{-1}."""
    changes = reference_basis_changes(complex_.shape.dims, seed)
    return [changes[i][0] @ d @ changes[i + 1][1] for i, d in enumerate(complex_.maps)]


def solve_conjugation(complex_: NumericalComplex, seed: int) -> list[np.ndarray]:
    """random_conjugation's maps through a solve with g_i instead of its
    inverse."""
    changes = reference_basis_changes(complex_.shape.dims, seed)
    maps = []
    for i, d in enumerate(complex_.maps):
        g_left, g_right = changes[i][0], changes[i + 1][0]
        maps.append(np.linalg.solve(g_right.T, (g_left @ d).T).T if d.size else d)
    return maps


def bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal entries and equal signs of zero."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def orbit_instances(max_spaces, max_entry):
    for s in iter_shapes(max_spaces, max_entry):
        for rv in iter_feasible_ranks(s):
            yield canonical_complex(s, rv)


def orbit_pairs(complexes):
    """Each complex and a conjugate of it, in turn."""
    for cx in complexes:
        yield cx
        yield random_conjugation(cx, sum(cx.shape.dims))


@functools.cache
def plan_instances():
    """(complex, ranks) for every feasible rank vector of every shape of
    iter_shapes(4, 5) and of 5,7,3,6, canonical and then conjugated, in
    shape order."""
    out = []
    for s in [*iter_shapes(4, 5), shape(5, 7, 3, 6)]:
        for rv in iter_feasible_ranks(s):
            out += [(cx, rv) for cx in orbit_pairs([canonical_complex(s, rv)])]
    return tuple(out)


class TestOrbitOracles:
    # The strided-view L, the eye-built canonical maps and the direct-QR
    # conjugation against the Kronecker, scatter, loop and two-QR
    # references, bit for bit.

    def test_orbit_matrix_matches_kron(self):
        for moved in orbit_pairs(orbit_instances(3, 4)):
            ref = kron_orbit_matrix(moved)
            written = _write_orbit_matrix(moved.maps, moved.shape.dims, *ref.shape)
            assert bit_equal(written, ref), moved.shape

    def test_orbit_matrix_negative_zeros(self):
        d = np.array([[-0.0, 2.0], [0.0, -3.0]])
        cx = NumericalComplex(shape(2, 2, 1), (d, np.array([[-0.0], [0.0]])))
        ref = kron_orbit_matrix(cx)
        assert bit_equal(_orbit_matrix(cx, *ref.shape), ref)
        assert not np.signbit(ref[ref == 0]).any()

    def test_builders_match_loop_and_scatter(self):
        # Zero entries and blocks with m != k, both in order.  Each
        # canonical complex is followed by its conjugate.
        for k, (cx, rv) in enumerate(plan_instances()):
            s = cx.shape
            if k % 2 == 0:
                assert all(bit_equal(a, b) for a, b in zip(cx.maps, loop_canonical_maps(s, rv)))
            sides = _orbit_matrix_sides(s, DEFAULT_SIZE_CAP)
            written = _write_orbit_matrix(cx.maps, s.dims, *sides)
            assert written.flags.c_contiguous, s
            assert bit_equal(written, scatter_orbit_matrix(cx, *sides)), (s, rv)

    def test_one_plan_is_held(self):
        # L is filled from the plan of the last shape asked, built again when
        # the shape changes.  Each complex is visited in shape order, then
        # again after a complex of another shape: the plan is kept along a
        # shape and rebuilt on every call when two shapes alternate.
        def held(dims):
            [(shape_held, plan)] = numerics._LAST_PLAN
            return shape_held == dims and plan.dtype == np.int32 and plan.shape[0] == 2

        other = canonical_complex(shape(2, 3), ranks(2))
        other_sides = _orbit_matrix_sides(other.shape, DEFAULT_SIZE_CAP)
        other_lin = kron_orbit_matrix(other)
        for cx, rv in plan_instances():
            dims = cx.shape.dims
            sides = _orbit_matrix_sides(cx.shape, DEFAULT_SIZE_CAP)
            lin = _orbit_matrix(cx, *sides)
            assert lin.flags.c_contiguous and held(dims), dims
            assert bit_equal(lin, _write_orbit_matrix(cx.maps, dims, *sides)), dims
            assert bit_equal(lin, kron_orbit_matrix(cx)), dims
            assert bit_equal(lin, scatter_orbit_matrix(cx, *sides)), dims
            assert orbit_dimension(cx) == stratum_dimension(cx.shape, rv), dims
            assert bit_equal(_orbit_matrix(other, *other_sides), other_lin)
            assert held(other.shape.dims)
            assert bit_equal(_orbit_matrix(cx, *sides), lin) and held(dims), dims
        # Empty maps, one space and no entry at all: an empty plan, a zero L.
        for dims in [(2, 0, 2), (3,), (0,)]:
            cx = canonical_complex(shape(*dims), ranks(*[0] * (len(dims) - 1)))
            sides = _orbit_matrix_sides(cx.shape, DEFAULT_SIZE_CAP)
            assert bit_equal(_orbit_matrix(cx, *sides), np.zeros(sides)) and held(dims), dims
            assert numerics._LAST_PLAN[0][1].size == 0, dims

    def test_threads_fill_from_a_matched_plan(self):
        # Threads alternating between shapes each fill L from the plan of its
        # own shape: the (dims, plan) pair is read and replaced whole.
        shapes = (shape(3, 4, 4, 2), shape(2, 3, 3), shape(4, 4), shape(1, 2, 1, 2, 1))
        cases = []
        for s in shapes:
            cx = random_conjugation(canonical_complex(s, greedy_rank_vector(s)), 1)
            sides = _orbit_matrix_sides(s, DEFAULT_SIZE_CAP)
            cases.append((cx, sides, _write_orbit_matrix(cx.maps, s.dims, *sides)))
        wrong = []

        def fill(k):
            for i in range(300):
                cx, sides, ref = cases[(i + k) % len(cases)]
                if not bit_equal(_orbit_matrix(cx, *sides), ref):
                    wrong.append(cx.shape.dims)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fill, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not wrong

    def test_conjugation_matches_two_qr(self):
        # Also at the sizes the big_instances benchmark conjugates.
        large = [canonical_complex(shape(30, 30, 30), ranks(15, 15)),
                 canonical_complex(shape(40, 40), ranks(40))]
        for cx in [*orbit_instances(3, 4), *large]:
            for seed in range(3 if cx.shape.dims[0] >= 30 else 10):
                moved = random_conjugation(cx, seed)
                ref = two_qr_conjugation(cx, seed)
                assert all(bit_equal(a, b) for a, b in zip(moved.maps, ref)), (
                    cx.shape,
                    seed,
                )

    def test_conjugation_matches_solve(self):
        # The inverse g_i^{-1} against a solve with g_i, to 1e-12 of each
        # map's largest entry.
        large = canonical_complex(shape(200, 300, 200), ranks(100, 100))
        for cx in [*orbit_instances(3, 4), large]:
            for seed in range(3 if cx is large else 10):
                moved = random_conjugation(cx, seed)
                for a, b in zip(moved.maps, solve_conjugation(cx, seed)):
                    bound = 1e-12 * np.abs(b).max(initial=0.0)
                    assert np.abs(a - b).max(initial=0.0) <= bound, (cx.shape, seed)


def wrapper_kernel_basis(a: np.ndarray) -> np.ndarray:
    """Reference _kernel_basis through scipy.linalg.qr's full pivoted QR."""
    rows, cols = a.shape
    if cols == 0:
        return np.zeros((0, 0))
    if rows == 0 or not a.any():
        return np.eye(cols)
    q, r, _ = scipy.linalg.qr(a.T, pivoting=True)
    return q[:, _pivot_rank(r, max(a.shape), DEFAULT_TOLERANCES):]


def low_rank(rng, m, n, r):
    return rng.standard_normal((m, r)) @ rng.standard_normal((r, n))


class TestDirectLapack:
    # The direct dgeqp3, dgeqrf and dorgqr calls against scipy.linalg.qr,
    # bit for bit, and the copies they are allowed to make.

    def test_pivot_diagonal_matches_wrapper(self):
        for cx in orbit_instances(3, 4):
            for moved in (cx, random_conjugation(cx, sum(cx.shape.dims))):
                lin = _orbit_matrix(moved, *_orbit_matrix_sides(moved.shape, DEFAULT_SIZE_CAP))
                if lin.size == 0:
                    continue
                # orbit_dimension factors L.T, which is Fortran-ordered.
                ref = np.diag(scipy.linalg.qr(lin.T, mode="r", pivoting=True)[0])
                assert bit_equal(np.diag(_lapack("dgeqp3", lin.T)[0]), ref), moved.shape

    def test_tall_rank_pivots_match_wrapper(self, monkeypatch):
        # numerical_rank pivots the whole of a tall matrix, also past the
        # orbit check's crossover.
        seen = spy_pivots(monkeypatch)
        a = low_rank(np.random.default_rng(20261020), 2048, 1024, 700)
        assert numerics._compresses(*a.shape)
        assert numerical_rank(a) == 700
        [(pivots, longest)] = seen
        assert longest == 2048
        ref = np.diag(scipy.linalg.qr(a, mode="r", pivoting=True)[0])
        assert bit_equal(pivots, np.abs(ref))

    def test_kernel_basis_matches_wrapper(self):
        rng = np.random.default_rng(20261018)
        small = [(m, n, r) for m, n in [(3, 7), (9, 4), (6, 6), (1, 12), (12, 1), (17, 17)]
                 for r in range(min(m, n) + 1)]
        # Past LAPACK's crossover width the blocked path runs, whose bits
        # depend on the workspace size.
        for m, n, r in small + [(150, 200, 90), (200, 150, 90), (180, 180, 120)]:
            a = low_rank(rng, m, n, r)
            assert bit_equal(_kernel_basis(a), wrapper_kernel_basis(a)), (m, n, r)

    def test_q_factor_matches_wrapper(self):
        rng = np.random.default_rng(20261019)
        # Past LAPACK's crossover size the blocked path runs.
        for a in [*range(1, 9), 64, 129, 150, 200]:
            g = rng.standard_normal((a, a))
            before = g.copy()
            q = _q_factor(g)
            assert q.flags.c_contiguous, a
            assert bit_equal(q, scipy.linalg.qr(g)[0]), a
            assert bit_equal(g, before), a

    def test_orbit_dimension_holds_one_copy_of_orbit_matrix(self):
        cx = random_conjugation(canonical_complex(shape(20, 20), ranks(10)), 3)
        ambient, domain = _orbit_matrix_sides(cx.shape, DEFAULT_SIZE_CAP)
        expected = orbit_dimension(cx)
        tracemalloc.start()
        try:
            assert orbit_dimension(cx) == expected == 300
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * ambient * domain

    def test_orbit_dimension_trims_heap_before_large_matrix_only(self, monkeypatch):
        calls = []
        monkeypatch.setattr(numerics, "_malloc_trim", calls.append)
        cx = canonical_complex(shape(20, 20), ranks(10))
        ambient, domain = _orbit_matrix_sides(cx.shape, DEFAULT_SIZE_CAP)
        monkeypatch.setattr(numerics, "_HEAP_MAX_BYTES", 8 * ambient * domain)
        assert orbit_dimension(cx) == 300
        assert calls == []
        monkeypatch.setattr(numerics, "_HEAP_MAX_BYTES", 8 * ambient * domain - 1)
        assert orbit_dimension(cx) == 300
        assert calls == [0]

    @pytest.mark.parametrize("routine, call", [
        pytest.param("dgeqp3", lambda: _kernel_basis(np.ones((2, 3))), id="dgeqp3"),
        pytest.param("dorgqr", lambda: _kernel_basis(np.ones((2, 3))), id="dorgqr"),
        pytest.param("dgeqrf", lambda: _q_factor(np.ones((2, 2))), id="dgeqrf"),
        # The orbit check's R factor past the crossover: dgeqrf on the end
        # maps (_triangle), dtpqrt folding in the middle space's rows.
        pytest.param("dgeqrf", lambda: orbit_dimension(canonical_complex(
            shape(2, 2, 2), ranks(1, 1))), id="dgeqrf-rank"),
        pytest.param("dtpqrt", lambda: orbit_dimension(canonical_complex(
            shape(2, 2, 2), ranks(1, 1))), id="dtpqrt"),
    ])
    def test_illegal_argument_raises(self, monkeypatch, routine, call):
        # A negative info from LAPACK is an error, as in scipy.linalg.
        real = getattr(numerics._flapack, routine)

        def bad_info(*args, **kwargs):
            *out, _ = real(*args, **kwargs)
            return (*out, -2)

        monkeypatch.setattr(numerics._flapack, routine, bad_info)
        force_compression(monkeypatch)
        with pytest.raises(ValueError, match=f"argument 2 of LAPACK {routine}"):
            call()

    def test_extension_has_every_routine_called(self):
        source = inspect.getsource(numerics)
        called = set(re.findall(r"_flapack\.(\w+)\(", source))
        called |= set(re.findall(r'_lapack\("(\w+)"', source))
        assert called == {"dgeqp3", "dgeqrf", "dorgqr", "dtpqrt"}
        for routine in called:
            assert callable(getattr(numerics._flapack, routine, None)), routine

    @pytest.mark.parametrize("routine, call", [
        pytest.param("dgeqp3", numerical_rank, id="dgeqp3"),
        pytest.param("dgeqrf", _q_factor, id="dgeqrf"),
        pytest.param("dorgqr", _kernel_basis, id="dorgqr"),
    ])
    def test_workspace_query_then_call_in_place(self, monkeypatch, routine, call):
        # On a new shape, a workspace query, then the call with its lwork,
        # both on the same Fortran-ordered float64 array with overwrite_a=1,
        # so that f2py copies it for neither and the factor is written over
        # it.  The same routine on the same shape again makes one call only,
        # with the same lwork.
        real = getattr(numerics._flapack, routine)
        calls = []

        def spy(*args):
            # lwork and overwrite_a go by position, after the arrays.
            out = real(*args)
            calls.append((args[0], args[-2:], out))
            return out

        monkeypatch.setattr(numerics, "_LWORK", {})
        monkeypatch.setattr(numerics._flapack, routine, spy)
        call(low_rank(np.random.default_rng(5), 4, 4, 2))
        (a, query, answer), (again, passed, out) = calls
        assert again is a and a.flags.f_contiguous and a.dtype == np.float64
        assert query == (-1, 1)
        assert passed == (int(answer[-2][0]), 1)
        assert np.shares_memory(out[0], a)
        calls.clear()
        call(low_rank(np.random.default_rng(6), 4, 4, 2))
        [(a, cached, out)] = calls
        assert a.flags.f_contiguous and a.dtype == np.float64
        assert cached == passed
        assert np.shares_memory(out[0], a)

    def test_missing_extension_names_the_path(self, monkeypatch, tmp_path):
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
        spec = ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations.append(str(tmp_path))
        find_spec = numerics.importlib.util.find_spec
        monkeypatch.setattr(numerics.importlib.util, "find_spec",
                            lambda name, *args: spec if name == "scipy" else find_spec(name, *args))
        stem = str(tmp_path / "linalg" / "_flapack")
        with pytest.raises(ImportError, match=re.escape(stem + EXTENSION_SUFFIXES[0])):
            numerics._load_flapack()

    def test_absent_scipy_is_named(self, monkeypatch):
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
        monkeypatch.setattr(numerics.importlib.util, "find_spec", lambda name, *args: None)
        with pytest.raises(ImportError, match="scipy is not installed") as raised:
            numerics._load_flapack()
        assert raised.value.name == "scipy"

    def test_import_leaves_the_scipy_package_unloaded(self):
        # In a fresh interpreter: no module of the scipy package is loaded,
        # not even its __init__, and the extension still factors.
        probe = ("import sys, numpy as np, chaincx.numerics as n;"
                 "assert n.numerical_rank(np.ones((3, 4))) == 1;"
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    def test_numerical_rank_leaves_input_intact(self):
        a = np.asfortranarray(low_rank(np.random.default_rng(4), 7, 5, 3))
        before = a.copy()
        assert numerical_rank(a) == 3
        assert bit_equal(a, before)
        # So are a Python list and an int array, converted by the copy.
        listed = a.tolist()
        assert numerical_rank(listed) == 3
        assert listed == before.tolist()
        ints = np.array([[1, 2, 3], [2, 4, 6], [1, 0, 1]], dtype=np.int64)
        assert numerical_rank(ints) == 2
        assert np.array_equal(ints, [[1, 2, 3], [2, 4, 6], [1, 0, 1]])

    @pytest.mark.parametrize("rows, cols", [(3, 7), (5, 5), (9, 4)],
                             ids=["wide", "square", "tall"])
    def test_kernel_basis_factors_in_one_buffer(self, monkeypatch, rows, cols):
        # One dgeqp3 and one dorgqr call, the second on memory of the first:
        # had f2py copied the column slice that dgeqp3 factors in place,
        # dorgqr would read the unfactored transpose.
        a = low_rank(np.random.default_rng(rows * cols), rows, cols, 2)
        monkeypatch.setattr(numerics, "_LWORK", {})
        _kernel_basis(a)  # Keep the workspace sizes: no queries below.
        calls = []
        for routine in ("dgeqp3", "dorgqr"):
            real = getattr(numerics._flapack, routine)

            def spy(*args, routine=routine, real=real, **kwargs):
                calls.append((routine, args[0]))
                return real(*args, **kwargs)

            monkeypatch.setattr(numerics._flapack, routine, spy)
        _kernel_basis(a)
        [(first, factored), (second, expanded)] = calls
        assert (first, second) == ("dgeqp3", "dorgqr")
        assert factored.shape == (cols, rows) and expanded.shape == (cols, cols)
        assert np.shares_memory(factored, expanded)

    def test_sampler_maps_match_wrapper_and_stay_intact(self):
        # Each map is rebuilt from the sampled map before it: a map that the
        # kernel step overwrote, or a kernel basis off by a bit, fails.
        for dims in [(1, 2, 1, 2), (3, 7, 2, 9), (9, 3, 9, 3), (6, 6, 6, 6, 6), (2, 0, 3, 3)]:
            for seed in range(5):
                cx = sequential_sample(ComplexShape(dims), seed)
                for j, m in enumerate(cx.maps):
                    rng = np.random.default_rng(
                        np.random.SeedSequence(entropy=seed, spawn_key=(j,))
                    )
                    if j == 0:
                        ref = rng.standard_normal(m.shape)
                    else:
                        basis = wrapper_kernel_basis(cx.maps[j - 1])
                        ref = basis @ rng.standard_normal((basis.shape[1], m.shape[1]))
                    assert bit_equal(m, ref), (dims, seed, j)


def force_compression(monkeypatch):
    """Rank every matrix that is not wide through its R factor."""
    monkeypatch.setattr(numerics, "_COMPRESS_MIN_COLS", 1)
    monkeypatch.setattr(numerics, "_COMPRESS_MIN_ASPECT", 1.0)


def spy_pivots(monkeypatch):
    """The |pivots| and longest side of each rank decision, in call order."""
    seen = []
    real = numerics._pivot_rank

    def spy(qr, longest_side, config):
        seen.append((np.abs(np.diag(qr)), longest_side))
        return real(qr, longest_side, config)

    monkeypatch.setattr(numerics, "_pivot_rank", spy)
    return seen


def spy_folds(monkeypatch):
    """The shape of the rows and the l of each fold into an R factor."""
    seen = []
    real = numerics._fold

    def spy(r, rows, l=0):
        seen.append((rows.shape, l))
        return real(r, rows, l)

    monkeypatch.setattr(numerics, "_fold", spy)
    return seen


class TestTallCompression:
    # A tall orbit matrix is pivoted through an R factor with its column
    # inner products: orbit_dimension builds L.T's R from the Kronecker
    # blocks of the maps.

    def test_compression_holds_one_copy_of_orbit_matrix(self, monkeypatch):
        # 33,33 is past the crossover: L.T is 2178 x 1089.  With one map the
        # check holds R and the second end triangle, folded in once.
        folds = spy_folds(monkeypatch)
        s, rv = shape(33, 33), ranks(16)
        cx = random_conjugation(canonical_complex(s, rv), 3)
        ambient, domain = _orbit_matrix_sides(s, DEFAULT_SIZE_CAP)
        tracemalloc.start()
        try:
            assert orbit_dimension(cx) == stratum_dimension(s, rv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert folds == [((ambient, ambient), ambient)]
        assert peak < 1.5 * 8 * ambient * domain

    def test_structured_rank_holds_less_than_orbit_matrix(self, monkeypatch):
        # 30,20,30 is past the crossover: L.T is 2200 x 1200.  The check
        # never builds L, and holds R and one block of X_1's 400 rows.
        def no_orbit_matrix(*args):
            raise AssertionError("L is built")

        monkeypatch.setattr(numerics, "_orbit_matrix", no_orbit_matrix)
        folds = spy_folds(monkeypatch)
        s, rv = shape(30, 20, 30), ranks(10, 10)
        cx = random_conjugation(canonical_complex(s, rv), 3)
        ambient, domain = _orbit_matrix_sides(s, DEFAULT_SIZE_CAP)
        tracemalloc.start()
        try:
            assert orbit_dimension(cx) == stratum_dimension(s, rv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert folds == [((400, ambient), 0)]
        assert peak < 8 * ambient * domain

    def test_structured_pivots_match_direct(self, monkeypatch):
        # The R built from the maps against dgeqp3 of L.T itself.  Small
        # fold blocks split each middle space's rows over several folds.
        force_compression(monkeypatch)
        monkeypatch.setattr(numerics, "_FOLD_BYTES", 8 * 100 * 7)

        def check(moved, rv):
            s = moved.shape
            ambient, domain = _orbit_matrix_sides(s, DEFAULT_SIZE_CAP)
            if ambient == 0:
                return
            r = _orbit_r_factor(moved, ambient)
            assert r.flags.f_contiguous and r.shape == (ambient, ambient)
            assert not np.tril(r, -1).any(), s
            lin = _orbit_matrix(moved, ambient, domain)
            # R has L.T's column inner products, signs included.
            gram = lin @ lin.T
            assert np.abs(r.T @ r - gram).max() <= 4 * _EPS * domain * np.abs(gram).max(), s
            direct = _lapack("dgeqp3", np.array(lin.T, order="F"))[0]
            p_direct = np.abs(np.diag(direct))
            p_structured = np.abs(np.diag(_lapack("dgeqp3", r)[0]))
            assert np.all(np.abs(p_structured - p_direct)
                          <= 4 * _EPS * domain * p_direct[0]), (s, rv)
            d = stratum_dimension(s, rv)
            assert _pivot_rank(direct, domain, DEFAULT_TOLERANCES) == d, (s, rv)
            assert orbit_dimension(moved) == d, (s, rv)

        for s in iter_shapes(3, 4):
            for rv in iter_feasible_ranks(s):
                cx = canonical_complex(s, rv)
                for moved in (cx, random_conjugation(cx, sum(s.dims))):
                    check(moved, rv)
        # Zero end and middle spaces, single maps, and wide and tall end
        # maps, with sides past dtpqrt's block size.
        for dims in [(0, 4, 6, 3), (5, 3, 4, 0), (3, 4, 0, 5, 2), (7, 4), (4, 7), (3, 8, 5, 2),
                     (8, 3, 5, 9), (2, 6, 6, 2)]:
            s = ComplexShape(dims)
            for rv in iter_feasible_ranks(s):
                cx = canonical_complex(s, rv)
                for moved in (cx, random_conjugation(cx, sum(dims))):
                    check(moved, rv)

    def test_folded_blocks_are_the_middle_rows_of_orbit_matrix(self, monkeypatch):
        # Stacked in order, the l = 0 folds of _orbit_r_factor are the
        # middle spaces' rows of L.T, signs of zero included.  Small fold
        # blocks split each middle space's rows over several folds.
        monkeypatch.setattr(numerics, "_FOLD_BYTES", 8 * 100 * 7)
        blocks = []
        real = numerics._fold

        def spy(r, rows, l=0):
            if l == 0:
                blocks.append(rows.copy())
            return real(r, rows, l)

        monkeypatch.setattr(numerics, "_fold", spy)
        instances = list(orbit_instances(3, 4))
        for dims in [(3, 4, 3), (2, 6, 6, 2), (3, 4, 0, 5, 2), (8, 3, 5, 9)]:
            s = ComplexShape(dims)
            instances += [canonical_complex(s, rv) for rv in iter_feasible_ranks(s)]
        for cx in instances:
            dims = cx.shape.dims
            ambient, domain = _orbit_matrix_sides(cx.shape, DEFAULT_SIZE_CAP)
            if ambient == 0:
                continue
            for moved in (cx, random_conjugation(cx, sum(dims))):
                blocks.clear()
                _orbit_r_factor(moved, ambient)
                folded = np.concatenate([np.zeros((0, ambient)), *blocks])
                lin = _orbit_matrix(moved, ambient, domain)
                middle = lin.T[dims[0] ** 2 : domain - dims[-1] ** 2]
                assert bit_equal(folded, middle), dims

    def test_structured_rank_trims_around_r_factor(self, monkeypatch):
        # Before R when R and a block (two R for one map) exceed the heap's
        # largest allocation; after the rank when R may sit on the heap.
        events = []
        monkeypatch.setattr(numerics, "_malloc_trim", lambda pad: events.append("trim"))
        real = numerics._orbit_r_factor
        monkeypatch.setattr(numerics, "_orbit_r_factor",
                            lambda *args: events.append("R") or real(*args))
        force_compression(monkeypatch)
        for dims, rv in [((20, 20), (10,)), ((6, 6, 6), (3, 3))]:
            s = ComplexShape(dims)
            square = 8 * _orbit_matrix_sides(s, DEFAULT_SIZE_CAP)[0] ** 2
            held = square + (square if s.n_maps == 1 else numerics._FOLD_BYTES)
            cx = canonical_complex(s, RankVector(rv))
            for heap_max, expected in [(held, ["R", "trim"]), (held - 1, ["trim", "R", "trim"]),
                                       (square - 1, ["trim", "R"])]:
                monkeypatch.setattr(numerics, "_HEAP_MAX_BYTES", heap_max)
                events.clear()
                assert orbit_dimension(cx) == stratum_dimension(s, RankVector(rv))
                assert events == expected, (dims, heap_max)

    def test_rank_margins_on_bench_instances(self, monkeypatch):
        # The smallest kept pivot over the threshold and the threshold over
        # the largest dropped one, on the two near-cap benchmark checks.
        # Both were above 1e4 when measured; a margin below 10 would leave
        # the rank decision too close to its tolerance to trust.
        seen = spy_pivots(monkeypatch)
        for dims, rv in [((30, 30, 30), (15, 15)), ((40, 40), (40,))]:
            s, rv = ComplexShape(dims), RankVector(rv)
            d = orbit_dimension(random_conjugation(canonical_complex(s, rv), 1))
            assert d == stratum_dimension(s, rv)
            pivots, longest = seen[-1]
            threshold = DEFAULT_TOLERANCES.rank_tolerance_factor * _EPS * longest * pivots[0]
            assert pivots[d - 1] / threshold > 10, dims
            if d < pivots.size:
                assert threshold / pivots[d] > 10, dims


class TestOrbitDimension:
    def test_examples(self):
        assert orbit_dimension(canonical_complex(shape(1, 1), ranks(1))) == 1
        assert orbit_dimension(canonical_complex(shape(2, 1), ranks(1))) == 2
        assert orbit_dimension(canonical_complex(shape(3, 3, 3), ranks(0, 0))) == 0

    def test_matches_formula_small(self):
        # Unit-scale slice; the acceptance suite runs the documented bounds.
        for s in iter_shapes(3, 3):
            for rv in iter_feasible_ranks(s):
                cx = canonical_complex(s, rv)
                assert orbit_dimension(cx) == stratum_dimension(s, rv), (s, rv)

    def test_canonical_orbit_rank_is_exact(self):
        # The forest count, the float rank and the formula agree on every
        # feasible pair of 2 spaces with entries <= 6, 3 <= 4, 4 <= 3, 5 <= 2.
        pairs = 0
        for k, top in ((2, 6), (3, 4), (4, 3), (5, 2)):
            for dims in itertools.product(range(top + 1), repeat=k):
                s = ComplexShape(dims)
                for rv in iter_feasible_ranks(s):
                    exact = _canonical_orbit_rank(dims, rv.ranks)
                    float_rank = orbit_dimension(canonical_complex(s, rv))
                    assert exact == float_rank == stratum_dimension(s, rv), (s, rv)
                    pairs += 1
        assert pairs == 3307
        for s, rv in ((shape(30, 30, 30), ranks(15, 15)), (shape(40, 40), ranks(40))):
            assert _canonical_orbit_rank(s.dims, rv.ranks) == stratum_dimension(s, rv)

    def test_conjugation_invariance(self):
        s = shape(3, 2, 2, 3)
        rv = ranks(2, 0, 2)
        cx = canonical_complex(s, rv)
        expected = stratum_dimension(s, rv)
        for seed in range(100):
            moved = random_conjugation(cx, seed)
            assert orbit_dimension(moved) == expected

    def test_conjugation_keeps_composition_tolerance(self):
        cx = canonical_complex(shape(2, 2), ranks(1), ToleranceConfig(composition_tolerance=10.0))
        assert random_conjugation(cx, 0).composition_tolerance == 10.0

    def test_size_cap_refusal(self):
        cx = canonical_complex(shape(70, 70), ranks(0))
        with pytest.raises(WorkCapExceeded):
            orbit_dimension(cx)


class TestGreedyRanks:
    def test_examples(self):
        assert greedy_rank_vector(shape(1, 2, 1, 2)).ranks == (1, 1, 0)
        assert greedy_rank_vector(shape(4, 4, 4, 4)).ranks == (4, 0, 4)
        assert greedy_rank_vector(shape(5)).ranks == ()

    def test_always_feasible(self):
        rng = random.Random(7)
        for _ in range(200):
            dims = tuple(rng.randint(0, 6) for _ in range(rng.randint(1, 6)))
            s = ComplexShape(dims)
            assert is_feasible(s, greedy_rank_vector(s))


class TestSequentialSampler:
    def test_bit_identical_per_seed(self):
        a = sequential_sample(shape(3, 2, 2, 3), 42)
        b = sequential_sample(shape(3, 2, 2, 3), 42)
        assert all(np.array_equal(x, y) for x, y in zip(a.maps, b.maps))

    def test_seeds_give_different_complexes(self):
        a = sequential_sample(shape(3, 3), 0)
        b = sequential_sample(shape(3, 3), 1)
        assert not np.array_equal(a.maps[0], b.maps[0])

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            sequential_sample(shape(2, 2), -1)
        with pytest.raises(ValueError, match=_exactly("seed must be non-negative")):
            random_conjugation(canonical_complex(shape(2, 2), ranks(1)), -1)

    def test_rank_law(self):
        rng = random.Random(99)
        for _ in range(25):
            dims = tuple(rng.randint(0, 5) for _ in range(rng.randint(1, 4)))
            s = ComplexShape(dims)
            expected = greedy_rank_vector(s).ranks
            for seed in rng.sample(range(10_000), 4):
                cx = sequential_sample(s, seed)
                observed = tuple(numerical_rank(m) for m in cx.maps)
                assert observed == expected, (dims, seed)

    def test_headline_bias_witness(self):
        s = shape(1, 2, 1, 2)
        greedy = greedy_rank_vector(s)
        cx = sequential_sample(s, 7)
        assert tuple(numerical_rank(m) for m in cx.maps) == greedy.ranks == (1, 1, 0)
        # The greedy ranks miss the stratum-dimension maximum.
        best, witness = maximize_dp(s)
        assert stratum_dimension(s, greedy) < best
        assert witness.ranks == (1, 0, 1)

    def test_matches_theorem_on_equal_odd(self):
        for seed in range(5):
            cx = sequential_sample(shape(3, 3, 3, 3), seed)
            assert tuple(numerical_rank(m) for m in cx.maps) == (3, 0, 3)

    def test_single_space(self):
        cx = sequential_sample(shape(2), 0)
        assert cx.maps == ()
