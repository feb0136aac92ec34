"""Numerical ranks, model complexes, orbit dimension, sampler, serialization."""

import itertools
import json
import random

import numpy as np
import pytest

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
    orbit_dimension,
    random_conjugation,
    sequential_sample,
    stratum_dimension,
)
from chaincx.core import _feasible
from chaincx.numerics import _kernel_basis, _orbit_matrix


def shape(*dims):
    return ComplexShape(dims)


def ranks(*values):
    return RankVector(values)


def feasible_rank_vectors(s):
    dims = s.dims
    ranges = [range(min(dims[i - 1], dims[i]) + 1) for i in range(1, len(dims))]
    for r in itertools.product(*ranges):
        rv = RankVector(r)
        if is_feasible(s, rv):
            yield rv


class TestNumericalRank:
    def test_identity(self):
        for k in (1, 3, 7):
            assert numerical_rank(np.eye(k)) == k

    def test_zero_and_empty(self):
        assert numerical_rank(np.zeros((3, 4))) == 0
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
            for rv in feasible_rank_vectors(s):
                cx = canonical_complex(s, rv)
                assert tuple(numerical_rank(m) for m in cx.maps) == rv.ranks

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleRanksError):
            canonical_complex(shape(1, 1, 1), ranks(1, 1))


class TestNumericalComplexValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            NumericalComplex(shape(2, 2), (np.zeros((3, 2)),))

    def test_composition_violation_rejected(self):
        bad = (np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="compose"):
            NumericalComplex(shape(2, 2, 2), bad)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            NumericalComplex(shape(1, 1), (np.array([[np.nan]]),))

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
            for rv in feasible_rank_vectors(s):
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


def two_qr_conjugation(
    complex_: NumericalComplex, seed: int, max_condition: float = 1000.0
) -> NumericalComplex:
    """Reference random_conjugation: one QR per factor and an explicit diagonal."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xC0,)))
    half_log = 0.5 * np.log(max_condition)
    basis_changes = []
    for a in complex_.shape.dims:
        if a == 0:
            basis_changes.append(np.zeros((0, 0)))
            continue
        q1 = np.linalg.qr(rng.standard_normal((a, a)))[0]
        q2 = np.linalg.qr(rng.standard_normal((a, a)))[0]
        singular = np.exp(rng.uniform(-half_log, half_log, size=a))
        basis_changes.append(q1 @ np.diag(singular) @ q2.T)
    maps = []
    for i, d in enumerate(complex_.maps):
        g_left, g_right = basis_changes[i], basis_changes[i + 1]
        if d.size == 0:
            maps.append(np.zeros_like(d))
            continue
        maps.append(np.linalg.solve(g_right.T, (g_left @ d).T).T)
    return NumericalComplex(complex_.shape, tuple(maps), complex_.composition_tolerance)


def bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal entries and equal signs of zero."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def orbit_instances(max_spaces, max_entry):
    for k in range(1, max_spaces + 1):
        for dims in itertools.product(range(max_entry + 1), repeat=k):
            s = ComplexShape(dims)
            for rv in feasible_rank_vectors(s):
                yield canonical_complex(s, rv)


class TestOrbitOracles:
    # The index-scatter L and the stacked-QR conjugation against the
    # Kronecker and two-QR references, bit for bit.

    def test_orbit_matrix_matches_kron(self):
        for cx in orbit_instances(3, 4):
            for moved in (cx, random_conjugation(cx, sum(cx.shape.dims))):
                ref = kron_orbit_matrix(moved)
                assert bit_equal(_orbit_matrix(moved, *ref.shape), ref), moved.shape

    def test_orbit_matrix_negative_zeros(self):
        d = np.array([[-0.0, 2.0], [0.0, -3.0]])
        cx = NumericalComplex(shape(2, 2, 1), (d, np.array([[-0.0], [0.0]])))
        ref = kron_orbit_matrix(cx)
        assert bit_equal(_orbit_matrix(cx, *ref.shape), ref)
        assert not np.signbit(ref[ref == 0]).any()

    def test_conjugation_matches_two_qr(self):
        for cx in orbit_instances(3, 4):
            for seed in range(10):
                moved = random_conjugation(cx, seed)
                ref = two_qr_conjugation(cx, seed)
                assert all(bit_equal(a, b) for a, b in zip(moved.maps, ref.maps)), (
                    cx.shape,
                    seed,
                )


class TestOrbitDimension:
    def test_examples(self):
        assert orbit_dimension(canonical_complex(shape(1, 1), ranks(1))) == 1
        assert orbit_dimension(canonical_complex(shape(2, 1), ranks(1))) == 2
        assert orbit_dimension(canonical_complex(shape(3, 3, 3), ranks(0, 0))) == 0

    def test_matches_formula_small(self):
        # Unit-scale slice; the acceptance suite runs the documented bounds.
        for k in range(1, 4):
            for dims in itertools.product(range(4), repeat=k):
                s = ComplexShape(dims)
                for rv in feasible_rank_vectors(s):
                    cx = canonical_complex(s, rv)
                    assert orbit_dimension(cx) == stratum_dimension(s, rv), (s, rv)

    def test_conjugation_invariance(self):
        s = shape(3, 2, 2, 3)
        rv = ranks(2, 0, 2)
        cx = canonical_complex(s, rv)
        expected = stratum_dimension(s, rv)
        for seed in range(100):
            moved = random_conjugation(cx, seed)
            assert orbit_dimension(moved) == expected

    def test_condition_bound_validated(self):
        cx = canonical_complex(shape(2, 2), ranks(1))
        for bound in (0.5, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="condition bound"):
                random_conjugation(cx, 0, max_condition=bound)

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


def complex_to_json(complex_: NumericalComplex) -> str:
    """Serialize to {dims, maps, tolerance} with row-major map entries.

    Floats are emitted in shortest round-trip decimal form, so parsing the
    document reproduces the exact bit patterns.
    """
    doc = {
        "dims": list(complex_.shape.dims),
        "maps": [m.reshape(-1).tolist() for m in complex_.maps],
        "tolerance": complex_.composition_tolerance,
    }
    return json.dumps(doc)


def complex_from_json(text: str) -> NumericalComplex:
    """Inverse of complex_to_json; ValueError names what a bad document lacks."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("document is not a JSON object")
    missing = [key for key in ("dims", "maps", "tolerance") if key not in doc]
    if missing:
        raise ValueError(f"document lacks {', '.join(missing)}")
    for key in ("dims", "maps"):
        if not isinstance(doc[key], list):
            raise ValueError(f"document field {key} is not a list")
    shape = ComplexShape(tuple(doc["dims"]))
    dims = shape.dims
    flats = doc["maps"]
    if len(flats) != shape.n_maps:
        raise ValueError(
            f"document has {len(flats)} maps, shape {dims} needs {shape.n_maps}"
        )
    try:
        maps = tuple(
            np.array(flat, dtype=np.float64).reshape(dims[j], dims[j + 1])
            for j, flat in enumerate(flats)
        )
    except TypeError:
        raise ValueError("document field maps holds a non-numeric entry") from None
    try:
        tolerance = float(doc["tolerance"])
    except TypeError:
        raise ValueError("document field tolerance is not a number") from None
    return NumericalComplex(shape, maps, tolerance)


class TestSerialization:
    def test_round_trip_exact(self):
        cx = sequential_sample(shape(2, 3, 1, 2), 123)
        back = complex_from_json(complex_to_json(cx))
        assert back.shape == cx.shape
        assert back.composition_tolerance == cx.composition_tolerance
        assert all(np.array_equal(a, b) for a, b in zip(cx.maps, back.maps))

    def test_adversarial_floats_round_trip(self):
        maps = (np.array([[0.1, -0.0, 1e-300, 1.0 + 2**-52]]),)
        cx = NumericalComplex(shape(1, 4), maps)
        back = complex_from_json(complex_to_json(cx))
        assert back.maps[0].tobytes() == cx.maps[0].tobytes()

    def test_document_fields(self):
        doc = json.loads(complex_to_json(canonical_complex(shape(2, 1), ranks(1))))
        assert set(doc) == {"dims", "maps", "tolerance"}
        assert doc["dims"] == [2, 1]
        assert doc["maps"] == [[1.0, 0.0]]  # row-major

    def test_map_count_validated(self):
        with pytest.raises(ValueError):
            complex_from_json('{"dims": [2, 2], "maps": [], "tolerance": 1e-8}')
        for text, problem in [
            ('{"maps": [[1.0]], "tolerance": 1e-8}', "dims"),
            ('{"dims": [1, 1], "tolerance": 1e-8}', "maps"),
            ('{"dims": [1, 1], "maps": [[1.0]]}', "tolerance"),
            ("[[1, 1], [[1.0]], 1e-8]", "not a JSON object"),
            ('"dims"', "not a JSON object"),
            ('{"dims": 3, "maps": [], "tolerance": 1}', "dims"),
            ('{"dims": [1, 1], "maps": 5, "tolerance": 1e-8}', "maps"),
            ('{"dims": [1, 1], "maps": [{"a": 1}], "tolerance": 1e-8}', "maps"),
            ('{"dims": [1, 1], "maps": [[1.0]], "tolerance": null}', "tolerance"),
        ]:
            with pytest.raises(ValueError, match=problem):
                complex_from_json(text)
