"""The public surface of the package: names, re-exports and lazy loading."""

import importlib
import json
import subprocess
import sys

import pytest

import chaincx
from chaincx import core

PUBLIC_NAMES = [
    "BettiVector", "ComparisonResult", "ComplexShape", "DEFAULT_ENUMERATION_CAP",
    "DEFAULT_SIZE_CAP", "DEFAULT_TOLERANCES", "DEFAULT_WORK_CAP", "HypothesisReading",
    "InfeasibleRanksError", "MAX_DP_STATES", "MAX_ENTRY", "MAX_LENGTH", "MaximizerReport",
    "NumericalComplex", "Prediction", "RankVector", "ScanReport", "SourceTheorem",
    "SweepSummary", "ToleranceConfig", "Verdict", "WorkCapExceeded", "all_predictions",
    "ambient_dimension", "betti_from_ranks", "betti_lower_bound", "brute_force_maximize",
    "canonical_complex", "check_shape", "conjecture_scan", "core", "enumerate_maximizers",
    "euler_characteristic", "greedy_rank_vector", "hypothesis_holds", "is_feasible",
    "maximize_dp", "maximizer_rank_sum_range", "numerical_rank", "numerics", "optimizer",
    "orbit_dimension", "predict_conjecture", "predict_equal_dim", "predict_length1",
    "predict_length2", "predictions", "random_conjugation",
    "sequential_sample", "stratum_dimension", "sweep_theorems",
]


def test_all_is_pinned():
    assert sorted(chaincx.__all__) == PUBLIC_NAMES


def test_star_import_binds_every_name():
    namespace = {}
    exec("from chaincx import *", namespace)
    assert set(PUBLIC_NAMES) <= namespace.keys()
    assert namespace["numerics"] is chaincx.numerics
    assert namespace["orbit_dimension"] is chaincx.numerics.orbit_dimension


def test_tolerances_are_one_object_everywhere():
    assert chaincx.ToleranceConfig is chaincx.numerics.ToleranceConfig is core.ToleranceConfig
    assert chaincx.DEFAULT_TOLERANCES is chaincx.numerics.DEFAULT_TOLERANCES
    assert chaincx.DEFAULT_SIZE_CAP == chaincx.numerics.DEFAULT_SIZE_CAP == 4096


def test_greedy_ranks_are_one_object_everywhere():
    # Integer-only, so it lives in core and loads without numpy.
    assert chaincx.greedy_rank_vector is chaincx.numerics.greedy_rank_vector
    assert chaincx.greedy_rank_vector is core.greedy_rank_vector


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="^module 'chaincx' has no attribute 'no_such_name'$"):
        chaincx.no_such_name


def test_dir_lists_the_public_names():
    # The same whichever layers have loaded: the CLI is loaded by now.
    import chaincx.cli  # noqa: F401

    assert dir(chaincx) == PUBLIC_NAMES


def test_caps_are_one_object_everywhere():
    from chaincx import optimizer

    assert chaincx.DEFAULT_WORK_CAP is core.DEFAULT_WORK_CAP is optimizer.DEFAULT_WORK_CAP
    assert (chaincx.DEFAULT_ENUMERATION_CAP is core.DEFAULT_ENUMERATION_CAP
            is optimizer.DEFAULT_ENUMERATION_CAP)


# In a fresh interpreter: every lazily resolved name is its home module's
# object, first before numpy loads (optimizer and predictions), then after
# (numerics too, and the earlier names again).  Prints the names that fail
# and whether numpy had loaded before numerics did.
_LAZY_PROBE = """
import importlib, json, sys
import chaincx
def home(name):
    module = importlib.import_module("chaincx." + chaincx._HOME[name])
    return module if name == chaincx._HOME[name] else getattr(module, name)
def wrong(names):
    return [n for n in names if getattr(chaincx, n) is not home(n)]
early = [n for n in chaincx._HOME if chaincx._HOME[n] != "numerics"]
before = wrong(early)
numpy_early = "numpy" in sys.modules
after = wrong(chaincx._HOME)
print(json.dumps([before, numpy_early, after, "numpy" in sys.modules]))
"""


def test_lazy_names_are_their_home_objects():
    proc = subprocess.run([sys.executable, "-c", _LAZY_PROBE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], False, [], True]
    assert sorted(chaincx._HOME) == [n for n in PUBLIC_NAMES
                                     if n != "core" and not hasattr(core, n)]
    for name, module in chaincx._HOME.items():
        home = importlib.import_module(f"chaincx.{module}")
        assert getattr(chaincx, name) is (home if name == module else getattr(home, name))
