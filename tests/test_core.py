"""Integer layer: shapes, feasibility, Betti numbers, the dimension formula."""

import itertools
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaincx import (
    MAX_ENTRY,
    MAX_LENGTH,
    BettiVector,
    ComplexShape,
    InfeasibleRanksError,
    RankVector,
    ambient_dimension,
    betti_from_ranks,
    betti_lower_bound,
    euler_characteristic,
    is_feasible,
    stratum_dimension,
)
from chaincx.core import _feasible


# Helpers shared with the other test modules, which import them from here.
def shape(*dims):
    return ComplexShape(dims)


def _exactly(message):
    return f"^{re.escape(message)}$"


def ranks(*values):
    return RankVector(values)


def bettis(*values):
    return BettiVector(values)


def iter_shapes(max_spaces, max_entry):
    for k in range(1, max_spaces + 1):
        for dims in itertools.product(range(max_entry + 1), repeat=k):
            yield ComplexShape(dims)


def iter_feasible_ranks(s):
    dims = s.dims
    ranges = [range(min(dims[i - 1], dims[i]) + 1) for i in range(1, len(dims))]
    for r in itertools.product(*ranges):
        rv = RankVector(r)
        if is_feasible(s, rv):
            yield rv


small_shapes = st.lists(st.integers(0, 6), min_size=1, max_size=5).map(
    lambda d: ComplexShape(tuple(d))
)


@st.composite
def shape_with_feasible_ranks(draw):
    s = draw(small_shapes)
    dims = s.dims
    values = []
    prev = 0
    for i in range(1, len(dims)):
        hi = min(dims[i - 1] - prev, dims[i])
        values.append(draw(st.integers(0, hi)))
        prev = values[-1]
    return s, RankVector(tuple(values))


class TestTypes:
    def test_shape_normalizes_to_tuple(self):
        assert ComplexShape([2, 1, 1, 2]).dims == (2, 1, 1, 2)

    def test_shape_rejects_empty(self):
        with pytest.raises(ValueError):
            ComplexShape(())

    def test_shape_rejects_negative(self):
        with pytest.raises(ValueError, match=_exactly(
                "shape entries must be non-negative, got -1")):
            shape(2, -1, -3)

    def test_shape_rejects_huge_entry(self):
        with pytest.raises(ValueError, match=_exactly(
                f"shape entry {MAX_ENTRY + 1} exceeds cap {MAX_ENTRY}")):
            shape(MAX_ENTRY + 1)
        shape(MAX_ENTRY)  # boundary is legal

    def test_shape_rejects_huge_length(self):
        with pytest.raises(ValueError, match=_exactly(
                f"shape length {MAX_LENGTH + 1} exceeds cap {MAX_LENGTH}")):
            ComplexShape((1,) * (MAX_LENGTH + 1))

    def test_shape_rejects_non_integers(self):
        for values in [(1.5, 2), (2, "1"), 3]:
            with pytest.raises(ValueError, match=_exactly("shape entries must be integers")):
                ComplexShape(values)

    def test_vectors_reject_non_integers(self):
        for make, what in [(RankVector, "rank"), (BettiVector, "Betti")]:
            for values in [(1, 2.0), (None,), 3]:
                with pytest.raises(ValueError, match=_exactly(
                        f"{what} entries must be integers")):
                    make(values)

    def test_rank_vector_rejects_negative(self):
        # The message names the first negative entry, not the least.
        for values, first in [((1, -2), -2), ((1, -1, -2), -1), ((-3,), -3)]:
            with pytest.raises(ValueError, match=_exactly(
                    f"ranks must be non-negative, got {first}")):
                RankVector(values)

    def test_betti_vector_rejects_negative(self):
        for values, first in [((-1,), -1), ((0, -1, -5), -1), ((2, 0, -4, -3), -4)]:
            with pytest.raises(ValueError, match=_exactly(
                    f"Betti numbers must be non-negative, got {first}")):
                BettiVector(values)

    def test_zero_entries_are_legal(self):
        assert shape(0, 0, 3).dims == (0, 0, 3)

    def test_reversed(self):
        s = shape(1, 2, 3)
        assert ComplexShape(s.dims[::-1]).dims == (3, 2, 1)


class TestEulerCharacteristic:
    def test_examples(self):
        assert euler_characteristic(shape(2, 1, 1, 2)) == 0
        assert euler_characteristic(shape(5)) == 5
        assert euler_characteristic(shape(3, 1, 3)) == 5

    def test_lower_bound_examples(self):
        assert betti_lower_bound(shape(2, 1, 1, 2)) == 0
        assert betti_lower_bound(shape(3, 1, 3)) == 5
        # equal dims, even number of maps: |chi| = m
        assert betti_lower_bound(shape(3, 3, 3, 3, 3)) == 3


class TestAmbientDimension:
    def test_examples(self):
        assert ambient_dimension(shape(2, 3, 2)) == 12
        assert ambient_dimension(shape(5)) == 0
        assert ambient_dimension(shape(1, 2, 1, 2)) == 6


class TestFeasibility:
    def test_examples(self):
        assert is_feasible(shape(2, 1, 1, 2), ranks(1, 0, 1))
        assert is_feasible(shape(4, 4, 4), ranks(0, 0))
        assert not is_feasible(shape(1, 1, 1), ranks(1, 1))

    def test_end_constraints(self):
        assert not is_feasible(shape(1, 2), ranks(2))  # r_1 > a_0
        assert not is_feasible(shape(2, 1), ranks(2))  # r_1 > a_1

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            is_feasible(shape(2, 2), ranks(1, 1))


class TestStratumDimension:
    def test_examples(self):
        assert stratum_dimension(shape(1, 1), ranks(1)) == 1
        assert stratum_dimension(shape(4, 3, 2, 5), ranks(0, 0, 0)) == 0
        assert stratum_dimension(shape(2, 1, 1, 2), ranks(1, 0, 1)) == 4

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleRanksError):
            stratum_dimension(shape(1, 1, 1), ranks(1, 1))

    @given(shape_with_feasible_ranks())
    def test_bounded_by_ambient(self, pair):
        s, r = pair
        assert 0 <= stratum_dimension(s, r) <= ambient_dimension(s)

    @given(shape_with_feasible_ranks())
    def test_reversal_symmetry(self, pair):
        s, r = pair
        rev = RankVector(r.ranks[::-1])
        assert stratum_dimension(s, r) == stratum_dimension(ComplexShape(s.dims[::-1]), rev)


class TestBettiFromRanks:
    def test_examples(self):
        assert betti_from_ranks(shape(2, 1, 1, 2), ranks(1, 0, 1)).bettis == (1, 0, 0, 1)
        assert betti_from_ranks(shape(3, 3, 3, 3), ranks(3, 0, 3)).bettis == (0, 0, 0, 0)
        assert betti_from_ranks(shape(5), RankVector(())).bettis == (5,)

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleRanksError):
            betti_from_ranks(shape(1, 1, 1), ranks(1, 1))

    @given(shape_with_feasible_ranks())
    def test_euler_formula(self, pair):
        s, r = pair
        b = betti_from_ranks(s, r).bettis
        alternating = sum(v if i % 2 == 0 else -v for i, v in enumerate(b))
        assert alternating == euler_characteristic(s)

    @given(shape_with_feasible_ranks())
    def test_total_homology_at_least_lower_bound(self, pair):
        s, r = pair
        assert sum(betti_from_ranks(s, r).bettis) >= betti_lower_bound(s)


class UnrealizableBettiError(ValueError):
    """No feasible rank vector realizes the requested Betti numbers."""


def ranks_from_betti(shape: ComplexShape, bettis: BettiVector) -> RankVector:
    """Invert betti_from_ranks via r_{i+1} = a_i - beta_i - r_i.

    Raises UnrealizableBettiError when the recursion leaves the feasible
    region or the final sentinel r_{n+1} = 0 cannot be met.
    """
    dims = shape.dims
    b = bettis.bettis
    if len(b) != len(dims):
        raise ValueError(
            f"Betti vector of length {len(b)} does not fit shape of length {len(dims)}"
        )
    n = len(dims) - 1
    ranks = []
    r = 0
    for i in range(n):
        r = dims[i] - b[i] - r
        if r < 0:
            raise UnrealizableBettiError(
                f"Betti numbers {b} force a negative rank at map {i + 1}"
            )
        ranks.append(r)
    if b[n] != dims[n] - (ranks[-1] if n else 0):
        raise UnrealizableBettiError(
            f"Betti numbers {b} are inconsistent with the final space of {dims}"
        )
    if not _feasible(dims, ranks):
        raise UnrealizableBettiError(
            f"Betti numbers {b} lead to infeasible ranks {tuple(ranks)} on {dims}"
        )
    return RankVector(tuple(ranks))


class TestRanksFromBetti:
    def test_examples(self):
        assert ranks_from_betti(shape(2, 1, 1, 2), bettis(1, 0, 0, 1)).ranks == (1, 0, 1)
        assert ranks_from_betti(shape(5), bettis(5)).ranks == ()

    def test_realizable_despite_full_homology(self):
        # (1, 1) with Betti (1, 1) is realized by the zero map.
        assert ranks_from_betti(shape(1, 1), bettis(1, 1)).ranks == (0,)

    def test_unrealizable_sentinel_mismatch(self):
        with pytest.raises(UnrealizableBettiError):
            ranks_from_betti(shape(1, 1), bettis(0, 1))

    def test_unrealizable_negative_rank(self):
        with pytest.raises(UnrealizableBettiError):
            ranks_from_betti(shape(1, 2), bettis(0, 0))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            ranks_from_betti(shape(1, 1), bettis(1))

    def test_exhaustive_inversion_and_injectivity(self):
        # Over all shapes with up to 4 spaces and entries <= 5, distinct
        # feasible rank vectors give distinct Betti vectors, and the
        # recursion inverts the map exactly.
        for s in iter_shapes(4, 5):
            seen = {}
            for rv in iter_feasible_ranks(s):
                b = betti_from_ranks(s, rv)
                assert b not in seen, (s, rv, seen[b])
                seen[b] = rv
                assert ranks_from_betti(s, b) == rv
