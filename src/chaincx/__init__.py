"""chaincx: almost-sure homology of random chain complexes of real vector spaces.

The positive-probability rank vectors of a random complex with dimension
vector a are exactly the feasible rank vectors maximizing the stratum
dimension d(a, r).  This package computes them exactly, implements the
known closed forms for the resulting Betti numbers, scans for
counterexamples to the general smallest-total-homology conjecture, and
cross-checks the dimension formula numerically via the rank of the
linearized change-of-basis action.
"""

__version__ = "0.1.0"

from .core import (
    DEFAULT_SIZE_CAP,
    DEFAULT_TOLERANCES,
    MAX_ENTRY,
    MAX_LENGTH,
    BettiVector,
    ComplexShape,
    InfeasibleRanksError,
    RankVector,
    ToleranceConfig,
    WorkCapExceeded,
    ambient_dimension,
    betti_from_ranks,
    betti_lower_bound,
    euler_characteristic,
    greedy_rank_vector,
    is_feasible,
    stratum_dimension,
)
from .optimizer import (
    DEFAULT_ENUMERATION_CAP,
    DEFAULT_WORK_CAP,
    MAX_DP_STATES,
    MaximizerReport,
    brute_force_maximize,
    enumerate_maximizers,
    maximize_dp,
    maximizer_rank_sum_range,
)
from .predictions import (
    ComparisonResult,
    HypothesisReading,
    Prediction,
    ScanReport,
    SourceTheorem,
    SweepSummary,
    Verdict,
    all_predictions,
    check_shape,
    conjecture_scan,
    hypothesis_holds,
    predict_conjecture,
    predict_equal_dim,
    predict_length1,
    predict_length2,
    sweep_theorems,
)

# numerics imports numpy, the bare scipy package and scipy's LAPACK extension
# (not scipy.linalg), so it and its names load on first access.
_NUMERICS_NAMES = ("NumericalComplex", "canonical_complex", "numerical_rank",
                   "orbit_dimension", "random_conjugation", "sequential_sample")

__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + ["numerics", *_NUMERICS_NAMES])


def __getattr__(name):
    if name == "numerics" or name in _NUMERICS_NAMES:
        import importlib

        numerics = importlib.import_module(".numerics", __name__)
        return numerics if name == "numerics" else getattr(numerics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
