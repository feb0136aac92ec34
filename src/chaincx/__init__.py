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
    DEFAULT_ENUMERATION_CAP,
    DEFAULT_SIZE_CAP,
    DEFAULT_TOLERANCES,
    DEFAULT_WORK_CAP,
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

# Every other layer, and its names, load on first access, so that a command
# imports only the layers it runs.  numerics imports numpy and scipy's
# LAPACK extension, not the scipy package.
_LAZY = {
    "optimizer": ("MAX_DP_STATES", "MaximizerReport", "brute_force_maximize",
                  "enumerate_maximizers", "maximize_dp", "maximizer_rank_sum_range"),
    "predictions": ("ComparisonResult", "HypothesisReading", "Prediction", "ScanReport",
                    "SourceTheorem", "SweepSummary", "Verdict", "all_predictions",
                    "check_shape", "conjecture_scan", "hypothesis_holds",
                    "predict_conjecture", "predict_equal_dim", "predict_length1",
                    "predict_length2", "sweep_theorems"),
    "numerics": ("NumericalComplex", "canonical_complex", "numerical_rank",
                 "orbit_dimension", "random_conjugation", "sequential_sample"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in (module, *names)}

__all__ = sorted([name for name in dir() if not name.startswith("_")] + [*_HOME])


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    layer = importlib.import_module(f".{module}", __name__)
    value = globals()[name] = layer if name == module else getattr(layer, name)
    return value


def __dir__():
    return list(__all__)
