"""End-to-end CLI behavior: envelopes, exit codes, determinism, file output."""

import contextlib
import io
import json
import os
import stat
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from chaincx import ComplexShape, optimizer, predictions
from chaincx.cli import _run, build_parser, main

SAMPLER_WARNING = "sequential sampler does not realize the conditional measure"


def twos(spaces):
    """--dims of `spaces` spaces of dimension 2."""
    return ",".join(["2"] * spaces)


# Listings under the comparison guard or the --limit that would pass the
# listing cap of MAX_LISTED_ENTRIES entries, with their refusals.  Served,
# each one needed more than 3 GB of memory.
OVER_THE_LISTING_CAP = [
    (["check", "--dims", twos(601)], "has 45150 maximizers of 601 entries, 27135150 in all"),
    (["predict", "--dims", twos(893)], "the spread set of 892 maps of dimension 2 has 99681 "
                                       "Betti vectors of 893 entries, 89015133 in all"),
    (["maximize", "--dims", twos(1023), "--limit", "200000"],
     "has 130816 maximizers of 1023 entries, 133824768 in all"),
]


def traced_peak(call):
    """The peak of tracemalloc's traced memory over call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def child_env(env_extra=None):
    env = os.environ.copy()
    env.pop("CHAINCX_RANK_TOL", None)
    env.pop("CHAINCX_WORK_CAP", None)
    if env_extra:
        env.update(env_extra)
    return env


def buffering_env(buffered):
    """child_env() with PYTHONUNBUFFERED unset (buffered) or set to 1."""
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


# The installed script's body, run as `python -c ENTRY_POINT argv...`.
ENTRY_POINT = "from chaincx.cli import entry_point; entry_point()"


def run_cli(*args, env_extra=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "chaincx", *args],
        capture_output=True,
        text=True,
        env=child_env(env_extra),
        timeout=timeout,
    )


def run_json(*args, expect_code=0, env_extra=None):
    proc = run_cli(*args, env_extra=env_extra)
    assert proc.returncode == expect_code, proc.stderr or proc.stdout
    envelope = json.loads(proc.stdout)
    assert envelope["schema_version"] == 1
    assert envelope["tool_version"]
    return envelope


class TestDimension:
    def test_basic(self):
        env = run_json("dimension", "--dims", "2,1,1,2", "--ranks", "1,0,1")
        assert env["command"] == "dimension"
        assert env["shape"] == [2, 1, 1, 2]
        payload = env["payload"]
        assert payload == {
            "feasible": True,
            "ranks": [1, 0, 1],
            "d": 4,
            "N": 5,
            "betti": [1, 0, 0, 1],
            "chi": 0,
            "sum_betti": 2,
            "lower_bound": 0,
        }

    def test_single_space_empty_ranks(self):
        env = run_json("dimension", "--dims", "5", "--ranks", "")
        assert env["payload"]["d"] == 0
        assert env["payload"]["betti"] == [5]

    def test_infeasible_exits_2(self):
        env = run_json("dimension", "--dims", "1,1,1", "--ranks", "1,1", expect_code=2)
        assert env["payload"]["feasible"] is False
        assert "error" in env["payload"]

    def test_parse_failure_exits_64(self):
        assert run_cli("dimension", "--dims", "2,x", "--ranks", "1").returncode == 64
        assert run_cli("dimension", "--dims", "2,2", "--ranks", "1,1,1").returncode == 64
        assert run_cli("dimension", "--dims", "-1", "--ranks", "").returncode == 64
        assert run_cli("dimension", "--dims", "", "--ranks", "").returncode == 64

    def test_unknown_command_exits_64(self):
        assert run_cli("frobnicate").returncode == 64


class TestMaximize:
    def test_dp(self):
        env = run_json("maximize", "--dims", "3,1,3")
        payload = env["payload"]
        assert payload["maximizer_count"] == 2
        assert payload["maximizers"] == [[0, 1], [1, 0]]
        assert sorted(payload["betti_spectrum"]) == [[2, 0, 3], [3, 0, 2]]

    def test_spread_count(self):
        env = run_json("maximize", "--dims", "5,5,5,5,5")
        assert env["payload"]["maximizer_count"] == 3

    def test_degenerate(self):
        env = run_json("maximize", "--dims", "0,0")
        assert env["payload"]["maximizer_count"] == 1
        assert env["payload"]["maximizers"] == [[0]]

    def test_brute_matches_dp(self):
        dp = run_json("maximize", "--dims", "2,3,2")["payload"]
        brute = run_json("maximize", "--dims", "2,3,2", "--method", "brute")["payload"]
        for key in ("max_dimension", "maximizer_count", "maximizers", "betti_spectrum"):
            assert dp[key] == brute[key]

    def test_brute_cap_exits_3(self):
        proc = run_cli("maximize", "--dims", "9,9,9,9", "--method", "brute",
                       "--work-cap", "10")
        assert proc.returncode == 3
        assert "cap" in proc.stderr

    def test_thousand_maps_no_recursion_error(self):
        dims = ",".join(["20"] * 1001)
        proc = run_cli("maximize", "--dims", dims, "--limit", "1")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["payload"]["maximizer_count"] >= 1

    def test_dp_state_cap_exits_3(self, capsys):
        argv = ["maximize", "--dims", ",".join(["1048576"] * 1024)]
        proc = run_cli(*argv, timeout=30)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("chaincx: the DP over a shape of 1024 spaces")
        assert "Traceback" not in proc.stderr
        # The refusal itself, without the interpreter start, is immediate.
        start = time.perf_counter()
        assert main(argv) == 3
        assert time.perf_counter() - start < 1.0
        assert "exceeding the cap" in capsys.readouterr().err

    def test_env_work_cap_respected_and_flag_wins(self):
        proc = run_cli("maximize", "--dims", "9,9,9,9", "--method", "brute",
                       env_extra={"CHAINCX_WORK_CAP": "10"})
        assert proc.returncode == 3
        env = run_json("maximize", "--dims", "9,9,9,9", "--method", "brute",
                       "--work-cap", "100000",
                       env_extra={"CHAINCX_WORK_CAP": "10"})
        assert env["payload"]["max_dimension"] > 0


class TestPredict:
    def test_length2(self):
        env = run_json("predict", "--dims", "2,2,2")
        by_source = {p["source_theorem"]: p for p in env["payload"]["predictions"]}
        assert by_source["Length2"]["applicable"] is True
        assert by_source["Length2"]["predicted_betti_set"] == [[1, 0, 1]]

    def test_equal_odd(self):
        env = run_json("predict", "--dims", "4,4,4,4")
        by_source = {p["source_theorem"]: p for p in env["payload"]["predictions"]}
        assert by_source["EqualOdd"]["predicted_betti_set"] == [[0, 0, 0, 0]]

    def test_all_not_applicable(self):
        env = run_json("predict", "--dims", "2,1,1,2")
        assert all(not p["applicable"] for p in env["payload"]["predictions"])

    def test_spread_set_over_the_guard_exits_3(self):
        # C(31, 15) = 3.0e8 spread vectors and as many maximizers.
        dims = ",".join(["15"] * 61)
        for command, refusal in [("predict", "the spread set of 60 maps of dimension 15 has "
                                             "300540195 Betti vectors"),
                                 ("check", "has 300540195 maximizers")]:
            proc = run_cli(command, "--dims", dims, timeout=60)
            assert proc.returncode == 3, proc.stderr
            assert proc.stdout == ""
            assert proc.stderr.startswith("chaincx: ") and refusal in proc.stderr


class TestCheck:
    def test_match(self):
        env = run_json("check", "--dims", "3,1,3")
        assert env["payload"]["verdict"] == "Match"

    def test_spread(self):
        env = run_json("check", "--dims", "6,6,6,6,6")
        assert env["payload"]["verdict"] == "Match"

    def test_trivial(self):
        env = run_json("check", "--dims", "7")
        assert env["payload"]["verdict"] == "Match"

    def test_not_applicable_exits_0(self):
        env = run_json("check", "--dims", "2,1,1,2")
        assert env["payload"]["verdict"] == "NotApplicable"

    @pytest.mark.parametrize("dims,count", [
        (",".join(["10"] * 41), 352_716),  # equal dimensions, a spread set as large
        (",".join(["10"] * 40 + ["11"]), 184_756),  # no closed form applies
    ])
    def test_over_the_guard_refused_before_listing(self, dims, count, capsys, monkeypatch):
        def no_listing(dims, moves, limit):
            raise AssertionError("maximizers were listed")

        monkeypatch.setattr(optimizer, "_lexicographic_paths", no_listing)
        assert main(["check", "--dims", dims]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert f"has {count} maximizers, more than the comparison guard of 100000" in err


class TestListingCap:
    """A listing of more vectors times entries than MAX_LISTED_ENTRIES exits
    3 within seconds, before any vector is listed."""

    @pytest.mark.parametrize("argv,refusal", OVER_THE_LISTING_CAP + [
        (["check", "--dims", twos(451)], "has 25425 maximizers of 451 entries, 11466675 in all"),
        (["sample", "--dims", twos(1023), "--limit", "200000", "--trials", "200"],
         "has 130816 maximizers of 1023 entries, 133824768 in all"),
        # The listing is refused before these tolerances can break a trial.
        (["sample", "--dims", twos(1023), "--limit", "200000", "--rank-tol", "1e20"],
         "has 130816 maximizers of 1023 entries, 133824768 in all"),
    ])
    def test_refused_before_listing(self, argv, refusal, capsys, monkeypatch):
        from chaincx import numerics

        def no_listing(*args):
            raise AssertionError("vectors were listed")

        def no_trial(*args):
            raise AssertionError("a trial was sampled")

        monkeypatch.setattr(numerics, "sequential_sample", no_trial)
        monkeypatch.setattr(optimizer, "_lexicographic_paths", no_listing)
        monkeypatch.setattr(predictions, "combinations", no_listing)
        start = time.perf_counter()
        assert main(argv) == 3
        assert time.perf_counter() - start < 5.0
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("chaincx: ") and refusal in err
        assert err.endswith(", more than the listing cap of 10485760\n")


class TestVerifyDim:
    def test_agreement(self):
        env = run_json("verify-dim", "--dims", "2,1", "--ranks", "1")
        assert env["payload"] == {
            "feasible": True,
            "ranks": [1],
            "formula_d": 2,
            "orbit_d": 2,
            "agree": True,
        }

    def test_zero_ranks(self):
        env = run_json("verify-dim", "--dims", "3,3,3", "--ranks", "0,0")
        assert env["payload"]["formula_d"] == env["payload"]["orbit_d"] == 0

    def test_nontrivial(self):
        env = run_json("verify-dim", "--dims", "2,2,2", "--ranks", "1,1")
        assert env["payload"]["formula_d"] == env["payload"]["orbit_d"] == 5

    @pytest.mark.parametrize("dims, ranks", [("33,33", "16"), ("30,20,30", "10,10")])
    def test_structured_route(self, dims, ranks):
        # Past the crossover L is never built: R comes from the maps, for
        # one map and with a middle space folded in.
        from chaincx.core import DEFAULT_SIZE_CAP, ComplexShape, _orbit_matrix_sides
        from chaincx.numerics import _compresses

        shape = ComplexShape(tuple(map(int, dims.split(","))))
        ambient, domain = _orbit_matrix_sides(shape, DEFAULT_SIZE_CAP)
        assert _compresses(domain, ambient)
        # A set rank tolerance takes the float route.
        env = run_json("verify-dim", "--dims", dims, "--ranks", ranks, "--rank-tol", "1000")
        assert env["payload"]["agree"] is True
        assert env["payload"]["orbit_d"] == env["payload"]["formula_d"]

    def test_infeasible_exits_2(self):
        run_json("verify-dim", "--dims", "1,1,1", "--ranks", "1,1", expect_code=2)

    def test_size_cap_exits_3(self):
        proc = run_cli("verify-dim", "--dims", "70,70", "--ranks", "0", "--size-cap", "64")
        assert proc.returncode == 3

    def test_nonpositive_size_cap_exits_64(self):
        for cap in ("0", "-1"):
            proc = run_cli("verify-dim", "--dims", "2,2,2", "--ranks", "1,1",
                           "--size-cap", cap)
            assert proc.returncode == 64
            assert proc.stderr == "chaincx: error: --size-cap must be positive\n"

    def test_disagreement_exits_5(self):
        # An absurd rank threshold zeroes the orbit rank, forcing disagreement.
        for tol in ("1e16", "1e30"):
            env = run_json("verify-dim", "--dims", "2,2", "--ranks", "1",
                           "--rank-tol", tol, expect_code=5)
            assert env["payload"]["agree"] is False
            assert env["payload"]["formula_d"] == 3
            assert env["payload"]["orbit_d"] == 0

    def test_exact_rank_holds_no_orbit_matrix(self, capsys, monkeypatch):
        # Without a rank tolerance the orbit rank is a spanning forest's edge
        # count; the float route would hold an L or R of about 1 GB here.
        monkeypatch.delenv("CHAINCX_RANK_TOL", raising=False)
        tracemalloc.start()
        try:
            code = main(["verify-dim", "--dims", "90,90", "--ranks", "45",
                         "--size-cap", "16384"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 4 << 20
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert payload["orbit_d"] == payload["formula_d"] == 6075

    def test_env_rank_tol_respected_and_flag_wins(self):
        run_json("verify-dim", "--dims", "2,2", "--ranks", "1",
                 env_extra={"CHAINCX_RANK_TOL": "1e30"}, expect_code=5)
        env = run_json("verify-dim", "--dims", "2,2", "--ranks", "1",
                       "--rank-tol", "1000",
                       env_extra={"CHAINCX_RANK_TOL": "1e30"})
        assert env["payload"]["agree"] is True


class TestSample:
    def test_bias_flag(self):
        env = run_json("sample", "--dims", "1,2,1,2", "--seed", "7", "--trials", "10")
        payload = env["payload"]
        assert payload["trial_ranks"] == [[1, 1, 0]] * 10
        assert payload["greedy_ranks"] == [1, 1, 0]
        assert payload["maximizers"] == [[1, 0, 1]]
        assert payload["biased"] is True
        assert SAMPLER_WARNING in env["warnings"]

    def test_unbiased_equal_odd(self):
        env = run_json("sample", "--dims", "3,3,3,3", "--seed", "1", "--trials", "5")
        assert env["payload"]["trial_ranks"] == [[3, 0, 3]] * 5
        assert env["payload"]["biased"] is False
        assert SAMPLER_WARNING in env["warnings"]

    def test_single_space(self):
        env = run_json("sample", "--dims", "2", "--seed", "0", "--trials", "1")
        assert env["payload"]["trial_ranks"] == [[]]

    def test_thread_timeout_leaves_the_bytes(self):
        # The entry point's OPENBLAS_THREAD_TIMEOUT of 20 against OpenBLAS's
        # default of 28: when idle workers sleep changes no result.
        argv = [sys.executable, "-m", "chaincx", "sample", "--dims", "20,30,20,30",
                "--trials", "3"]
        env = child_env()
        env.pop("OPENBLAS_THREAD_TIMEOUT", None)
        runs = [subprocess.run(argv, capture_output=True, env=e, timeout=120)
                for e in (env, {**env, "OPENBLAS_THREAD_TIMEOUT": "28"})]
        assert runs[0].returncode == 0 and runs[0].stdout
        assert [(r.returncode, r.stdout, r.stderr) for r in runs[1:]] == [
            (runs[0].returncode, runs[0].stdout, runs[0].stderr)]

    def test_nonpositive_limit_exits_64(self):
        for limit in ("0", "-3"):
            proc = run_cli("sample", "--dims", "1,2,1,2", "--limit", limit)
            assert proc.returncode == 64
            assert proc.stderr == "chaincx: error: --limit must be positive\n"

    def test_trials_past_the_cap_exit_64(self, capsys, monkeypatch):
        # Refused before any trial is sampled; unbounded, the larger count
        # would sample for ever.  The cap itself reaches the sampler.
        from chaincx import numerics

        def failing(*args):
            raise ValueError("no trial is sampled here")

        monkeypatch.setattr(numerics, "sequential_sample", failing)
        for trials in ("10001", "99999999999999999999"):
            assert main(["sample", "--dims", "2,2", "--trials", trials, "--seed", "1"]) == 64
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "chaincx: error: --trials must be at most 10000\n"
        assert main(["sample", "--dims", "2,2", "--trials", "10000", "--seed", "1"]) == 64
        assert "sampling failed" in capsys.readouterr().err

    def test_trial_work_past_the_cap_exits_3(self, capsys, monkeypatch):
        # Trials times (map entries + 256 per map) above 2^26 are refused
        # before any trial is sampled; the cap itself reaches the sampler.
        from chaincx import numerics

        def failing(*args):
            raise ValueError("no trial is sampled here")

        monkeypatch.setattr(numerics, "sequential_sample", failing)
        for dims, trials in [("1024,1024", 64), (",".join(["2"] * 1024), 253)]:
            assert main(["sample", "--dims", dims, "--trials", str(trials)]) == 3
            out, err = capsys.readouterr()
            assert out == ""
            assert err.endswith("exceeding the cap of 67108864\n"), err
        assert main(["sample", "--dims", "1024,1024", "--trials", "63"]) == 64
        assert "sampling failed" in capsys.readouterr().err

    def test_trial_work_counts_kernel_q_and_products(self, capsys, monkeypatch):
        # Each trial also counts a_j^2 for the Q of each interior space and
        # a_(j-1) a_(j+1) for each composition product: 1,4096,1 serves 3
        # trials and refuses 4, and 1024 twos refuse 245, no longer 253.
        from chaincx import numerics

        def failing(*args):
            raise ValueError("no trial is sampled here")

        monkeypatch.setattr(numerics, "sequential_sample", failing)
        twos = ",".join(["2"] * 1024)
        for dims, served in [("1,4096,1", 3), (twos, 244)]:
            assert main(["sample", "--dims", dims, "--trials", str(served + 1)]) == 3
            out, err = capsys.readouterr()
            assert out == ""
            assert err.endswith("exceeding the cap of 67108864\n"), err
            assert main(["sample", "--dims", dims, "--trials", str(served)]) == 64
            assert "sampling failed" in capsys.readouterr().err

    def test_tolerances_that_break_the_sampler_exit_64(self, capsys):
        # A pivot threshold this large reads every map as rank 0, so the
        # next map is drawn on the whole space and does not compose to zero.
        assert main(["sample", "--dims", "3,3,3", "--rank-tol", "1e20"]) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("chaincx: error: sampling failed under the given tolerances: "
                              "maps 1 and 2 do not compose to zero")


class TestSweep:
    def test_theorems(self):
        env = run_json("sweep", "--max-length", "2", "--max-entry", "5",
                       "--mode", "theorems")
        assert env["payload"]["mismatches"] == 0
        assert env["payload"]["shapes_checked"] == 6 + 36 + 216

    def test_conjecture(self):
        env = run_json("sweep", "--max-length", "3", "--max-entry", "4",
                       "--mode", "conjecture")
        assert env["payload"]["counterexamples"] == []

    def test_interior_counterexamples_exit_4(self):
        env = run_json("sweep", "--max-length", "3", "--max-entry", "2",
                       "--mode", "conjecture", "--reading", "interior",
                       expect_code=4)
        found = {tuple(c["shape"]) for c in env["payload"]["counterexamples"]}
        assert (2, 1, 1, 2) in found

    def test_trivial_bounds(self):
        env = run_json("sweep", "--max-length", "1", "--max-entry", "0",
                       "--mode", "theorems")
        assert env["payload"]["mismatches"] == 0

    @pytest.mark.parametrize("mode", ["theorems", "conjecture"])
    @pytest.mark.parametrize("bounds,cap", [(("1100", "0"), "length cap 1024"),
                                            (("0", "1048577"), "entry cap 1048576")])
    def test_bounds_past_the_caps_exit_64(self, mode, bounds, cap, capsys, monkeypatch):
        monkeypatch.delenv("CHAINCX_WORK_CAP", raising=False)
        argv = ["sweep", "--max-length", bounds[0], "--max-entry", bounds[1], "--mode", mode]
        start = time.perf_counter()
        assert main(argv) == 64
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("chaincx: error: ") and cap in err

    def test_short_sweep_past_the_shape_cap_exits_3(self, capsys, monkeypatch):
        # The default cap of 10^8 shapes admits this rectangle, whose shapes
        # of one map would each run the DP, for hours in all.
        monkeypatch.delenv("CHAINCX_WORK_CAP", raising=False)
        argv = ["sweep", "--max-length", "1", "--max-entry", "9998", "--mode", "theorems"]
        start = time.perf_counter()
        assert main(argv) == 3
        assert time.perf_counter() - start < 0.5
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "chaincx: sweep up to 1 maps with entries up to 9998 checks 99990000 shapes of "
            f"up to two maps against the DP, exceeding the cap of "
            f"{predictions.MAX_SWEEP_SHORT_SHAPES}\n")

    @pytest.mark.parametrize("mode,count", [("theorems", 84), ("conjecture", 18)])
    def test_work_cap_past_2_63_is_served(self, mode, count, capsys, monkeypatch):
        # A cap no machine integer holds, such as itertools.islice's stop,
        # bounds nothing here, and is served as such.
        monkeypatch.delenv("CHAINCX_WORK_CAP", raising=False)
        argv = ["sweep", "--max-length", "2", "--max-entry", "3", "--mode", mode,
                "--work-cap", "99999999999999999999999999999"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        key = "shapes_checked" if mode == "theorems" else "shapes_scanned"
        assert payload[key] == count

    def test_wide_entries_reach_the_work_cap(self, capsys, monkeypatch):
        # Only hypothesis shapes are generated, so entries up to MAX_ENTRY
        # reach the cap at once instead of walking the rectangle.
        monkeypatch.delenv("CHAINCX_WORK_CAP", raising=False)
        argv = ["sweep", "--max-length", "1", "--max-entry", "1048576",
                "--mode", "conjecture", "--work-cap", "1000"]
        start = time.perf_counter()
        assert main(argv) == 0
        assert time.perf_counter() - start < 2.0
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert (payload["shapes_scanned"], payload["truncated"]) == (1000, True)


# Imports the module in sys.argv[2], runs cli.main on the argv in sys.argv[1]
# if any, with its output discarded, and prints the exit code and the
# watched modules then loaded: the package's own, dataclasses and inspect,
# numpy, scipy and scipy.linalg.
_IMPORT_PROBE = """
import contextlib, importlib, io, json, sys
importlib.import_module(sys.argv[2])
argv, code = json.loads(sys.argv[1]), None
if argv:
    from chaincx.cli import main
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
watched = ("dataclasses", "inspect", "numpy", "scipy", "scipy.linalg")
print(json.dumps([code, sorted(m for m in sys.modules
                               if m in watched or m.split(".")[0] == "chaincx")]))
"""


def probe_imports(module, argv=(), env_extra=None):
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(list(argv)), module],
        capture_output=True, text=True, env=child_env(env_extra),
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    return code, loaded


def float_layers(loaded):
    """The probe's modules less dataclasses and inspect, which numpy and
    scipy may load themselves."""
    return [m for m in loaded if m not in ("dataclasses", "inspect")]


CLI = ["chaincx", "chaincx.cli", "chaincx.core"]
MAXIMIZE = sorted(CLI + ["chaincx.optimizer"])
PREDICT = sorted(MAXIMIZE + ["chaincx.predictions"])
NUMERICS = sorted(CLI + ["chaincx.numerics", "numpy"])
SAMPLE = sorted(NUMERICS + ["chaincx.optimizer"])

# The numpy-free contract of the CLI: each argv, with its environment, ends
# in its exit code having loaded these layers and no others.  Rows with
# numpy compare through float_layers; the rest compare exactly, so no
# integer path loads dataclasses or inspect.  core, cli, optimizer and
# predictions have no branch on whether numpy is installed, so a row that
# loads no numpy runs the same where numpy is absent.  A new integer path
# gets a row here.
PROBE_TABLE = [
    # Integer commands.
    (["dimension", "--dims", "2,1,1,2", "--ranks", "1,0,1"], None, 0, CLI),
    (["maximize", "--dims", "3,1,3"], None, 0, MAXIMIZE),
    (["predict", "--dims", "2,2,2"], None, 0, PREDICT),
    (["check", "--dims", "2,1,1,2", "--reading", "interior"], None, 4, PREDICT),
    (["sweep", "--max-length", "2", "--max-entry", "4"], None, 0, PREDICT),
    (["sweep", "--max-length", "3", "--max-entry", "2", "--mode", "conjecture"], None, 0,
     PREDICT),
    (["--version"], None, 0, CLI),
    # verify-dim and sample ending before their float work.
    (["verify-dim", "--dims", "2,2,2", "--ranks", "2,1"], None, 2, CLI),
    (["sample", "--dims", "1,2,1,2", "--trials", "0"], None, 64, CLI),
    (["verify-dim", "--dims", "2,2", "--ranks", "1"], {"CHAINCX_RANK_TOL": "x"}, 64, CLI),
    (["verify-dim", "--dims", "70,70", "--ranks", "35"], None, 3, CLI),
    (["sample", "--dims", "1048576,1048576"], None, 3, CLI),
    (["verify-dim", "--dims", "1048576,1048576", "--ranks", "0",
      "--size-cap", "100000000000000"], None, 64, CLI),
    (["sample", "--dims", "4096,4096,4096"], None, 3, CLI),
    (["predict", "--dims", ",".join(["15"] * 61)], None, 3, PREDICT),
    (["check", "--dims", ",".join(["15"] * 61)], None, 3, PREDICT),
    (["sample", "--dims", "1,2,1,2", "--trials", "99999999999999999999"], None, 64, CLI),
    (["sample", "--dims", "1024,1024", "--trials", "64"], None, 3, CLI),
    (["verify-dim", "--dims", "2,2", "--ranks", "1"], None, 0, CLI),
    *((argv, None, 3, MAXIMIZE if argv[0] == "maximize" else PREDICT)
      for argv, _ in OVER_THE_LISTING_CAP),
    # Infeasible ranks are answered, by verify-dim before any tolerance is read.
    (["verify-dim", "--dims", "2,2,2", "--ranks", "2,1"], {"CHAINCX_RANK_TOL": "x"}, 2, CLI),
    (["verify-dim", "--dims", "2,2,2", "--ranks", "2,1", "--composition-tol", "0"], None, 2,
     CLI),
    (["verify-dim", "--dims", "2,2,2", "--ranks", "2,1", "--rank-tol", "1"], None, 2, CLI),
    (["dimension", "--dims", "1,1,1", "--ranks", "1,1"], None, 2, CLI),
    # sample lists its maximizers, or refuses the listing, before any trial.
    (["sample", "--dims", twos(1023), "--limit", "200000", "--trials", "200"], None, 3,
     MAXIMIZE),
    (["sample", "--dims", twos(1023), "--limit", "200000"], None, 3, MAXIMIZE),
    # Usage errors load no layer.
    (["maximize", "--dims", "3,1,3", "--limit", "0"], None, 64, CLI),
    (["predict", "--dims", "2,x"], None, 64, CLI),
    (["check", "--dims", "2,-1"], None, 64, CLI),
    (["sweep", "--max-length", "2", "--max-entry", "4"], {"CHAINCX_WORK_CAP": "x"}, 64, CLI),
    (["dimension", "--dims", "2,2"], None, 64, CLI),
    (["frobnicate"], None, 64, CLI),
    (["dimension", "--dims", "1_0,1", "--ranks", "1"], None, 64, CLI),
    (["maximize", "--dims", "3,3", "--limit", "1_0"], None, 64, CLI),
    # maximize --method brute reads its work cap before the optimizer loads.
    (["maximize", "--dims", "2,2", "--method", "brute"], {"CHAINCX_WORK_CAP": "1_000"}, 64,
     CLI),
    # The float commands.
    (["verify-dim", "--dims", "2,2", "--ranks", "1", "--rank-tol", "1000"], None, 0, NUMERICS),
    (["sample", "--dims", "1,2,1,2"], None, 0, SAMPLE),
    (["verify-dim", "--dims", "2,2", "--ranks", "1"], {"CHAINCX_RANK_TOL": "1000"}, 0,
     NUMERICS),
    # The DP state cap's largest shape, sweeps up to and past their caps, and
    # the exact orbit rank up to the largest --size-cap.
    (["maximize", "--dims", "1048576,1048576,1048576", "--limit", "1"], None, 0, MAXIMIZE),
    (["sweep", "--max-length", "6", "--max-entry", "6", "--mode", "conjecture"], None, 0,
     PREDICT),
    (["sweep", "--max-length", "3", "--max-entry", "2", "--mode", "conjecture",
      "--reading", "interior"], None, 4, PREDICT),
    (["sweep", "--max-length", "4", "--max-entry", "6", "--mode", "theorems"], None, 0,
     PREDICT),
    (["sweep", "--max-length", "5", "--max-entry", "4", "--mode", "theorems"], None, 0,
     PREDICT),
    (["sweep", "--max-length", "4", "--max-entry", "3", "--mode", "theorems",
      "--reading", "interior"], None, 4, PREDICT),
    (["sweep", "--max-length", "2", "--max-entry", "12", "--mode", "theorems"], None, 0,
     PREDICT),
    (["sweep", "--max-length", "1", "--max-entry", "9998", "--mode", "theorems"], None, 3,
     PREDICT),
    (["sweep", "--max-length", "0", "--max-entry", "333339"], None, 3, PREDICT),
    (["sweep", "--max-length", "1", "--max-entry", "400"], None, 0, PREDICT),
    (["verify-dim", "--dims", "2,2,2", "--ranks", "1,1"], None, 0, CLI),
    (["verify-dim", "--dims", "90,90", "--ranks", "45", "--size-cap", "16384"], None, 0, CLI),
]


# Imports the module in sys.argv[1] first, then chaincx.numerics and
# scipy.linalg, and prints whether scipy.linalg's LAPACK extension is both
# bound on the package and registered in sys.modules, and whether
# scipy.linalg.lapack's dgeqp3 gives the bits of numerics' own handle.
_LAPACK_PROBE = """
import importlib, json, sys
import numpy as np
importlib.import_module(sys.argv[1])
from chaincx import numerics
import scipy.linalg
bound = getattr(scipy.linalg, "_flapack", None)
registered = bound is not None and bound is sys.modules.get("scipy.linalg._flapack")
a = np.random.default_rng(40).standard_normal((40, 60))
ours, theirs = numerics._flapack.dgeqp3(a)[0], scipy.linalg.lapack.dgeqp3(a)[0]
if sys.argv[1] == "scipy.linalg":
    # Loaded after scipy.linalg: its registered extension, not a reload.
    shared = numerics._flapack is sys.modules["scipy.linalg._flapack"]
else:
    # Loaded before: a module object of its own, whose routines scipy.linalg
    # binds, and scipy.linalg still factors.
    q, r = scipy.linalg.qr(a)
    shared = scipy.linalg.lapack.dgeqp3 is numerics._flapack.dgeqp3 and np.allclose(q @ r, a)
print(json.dumps([registered, ours.tobytes() == theirs.tobytes(), bool(shared)]))
"""


class TestImportGraph:
    """Each command loads only the layers it runs, as PROBE_TABLE lists.
    --version, dimension, verify-dim without a rank tolerance, and the
    usage errors and size refusals the CLI decides itself load the package,
    core and the CLI alone; maximize adds the optimizer, and predict, check
    and sweep the predictions, which import it.  sample adds the optimizer
    for its listing.  Only sample past its listing and verify-dim with a
    rank tolerance load numerics, numpy and scipy's LAPACK extension, and
    never the scipy or scipy.linalg package.  No command loads dataclasses
    or inspect before numpy does."""

    @pytest.mark.parametrize("module", ["chaincx", "chaincx.cli"])
    def test_import_is_numpy_free(self, module):
        loaded = ["chaincx", "chaincx.core"] if module == "chaincx" else CLI
        assert probe_imports(module) == (None, loaded)

    def test_numerics_skips_scipy_linalg(self):
        code, loaded = probe_imports("chaincx.numerics")
        assert (code, float_layers(loaded)) == (
            None, ["chaincx", "chaincx.core", "chaincx.numerics", "numpy"])

    @pytest.mark.parametrize("first", ["chaincx.numerics", "scipy.linalg"])
    def test_scipy_linalg_shares_the_lapack_extension(self, first):
        proc = subprocess.run([sys.executable, "-c", _LAPACK_PROBE, first],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [True, True, True]

    @pytest.mark.parametrize("argv,env,code,layers", PROBE_TABLE)
    def test_exit_code_and_layers(self, argv, env, code, layers):
        got, loaded = probe_imports("chaincx.cli", argv, env)
        assert (got, float_layers(loaded) if "numpy" in layers else loaded) == (code, layers)


class TestOutputModes:
    def test_byte_stable(self):
        a = run_cli("maximize", "--dims", "4,2,4")
        b = run_cli("maximize", "--dims", "4,2,4")
        assert a.stdout == b.stdout

    def test_out_file_atomic(self, tmp_path):
        target = tmp_path / "result.json"
        proc = run_cli("dimension", "--dims", "2,1", "--ranks", "1",
                       "--out", str(target))
        assert proc.returncode == 0
        assert proc.stdout == ""
        envelope = json.loads(target.read_text())
        assert envelope["payload"]["d"] == 2
        assert not list(tmp_path.glob(".chaincx-*"))  # no temp residue

    def test_unwritable_out_exits_64(self, tmp_path, capsys):
        cases = ((tmp_path / "missing" / "x.json", "No such file or directory"),
                 (tmp_path, "Is a directory"))
        for target, reason in cases:
            assert main(["dimension", "--dims", "2,1", "--ranks", "1",
                         "--out", str(target)]) == 64
            assert capsys.readouterr() == (
                "", f"chaincx: error: cannot write {target}: {reason}\n")
        assert list(tmp_path.iterdir()) == []  # no temp residue

    def test_empty_out_exits_64(self, tmp_path, capsys, monkeypatch):
        # An unset shell variable gives --out "", which names no file.
        monkeypatch.chdir(tmp_path)
        assert main(["dimension", "--dims", "2,1", "--ranks", "1", "--out", ""]) == 64
        assert capsys.readouterr() == (
            "", "chaincx: error: cannot write '': No such file or directory\n")
        assert list(tmp_path.iterdir()) == []  # no temp residue

    @pytest.mark.parametrize("sink", ["full", "pipe"])
    def test_failed_stdout_write_exits_64(self, sink):
        # A full device, or a pipe closed after one byte of a 160 KB
        # envelope, more than a pipe holds: one line on stderr, no traceback.
        argv = [sys.executable, "-m", "chaincx", "maximize", "--dims", ",".join(["4"] * 21)]
        if sink == "full":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full")
            with open("/dev/full", "w") as full:
                proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True,
                                      env=child_env(), timeout=60)
            code, err = proc.returncode, proc.stderr
        else:
            with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, env=child_env()) as proc:
                assert proc.stdout.read(1) == "{"
                proc.stdout.close()
                err = proc.stderr.read()
                code = proc.wait(timeout=60)
        assert code == 64
        assert err.startswith("chaincx: error: cannot write stdout: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err and "Exception ignored" not in err

    @pytest.mark.parametrize("sink", ["stdout", "--out"])
    def test_envelope_written_as_encoded(self, sink, tmp_path):
        # Rows of 1,024 entries, one line each: 617,000 chunks of the
        # indented encoder, 6.8 MB of text.  Joined whole, they peaked at
        # 51.7 MiB traced; written in blocks, at 10.6 MiB, against 8.5 MiB
        # for the listing itself.
        listing = traced_peak(lambda: optimizer.enumerate_maximizers(
            ComplexShape((2,) * 1023 + (0,)), cap=300))
        stdout, out = tmp_path / "stdout", tmp_path / "out.json"
        argv = ["maximize", "--dims", twos(1023) + ",0", "--limit", "300"]
        argv += ["--out", str(out)] if sink == "--out" else []
        with open(stdout, "w") as handle, contextlib.redirect_stdout(handle):
            peak = traced_peak(lambda: main(argv))
        assert peak < 2 * listing
        text = (out if sink == "--out" else stdout).read_text()
        assert len(text) > 6_000_000
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    @pytest.mark.parametrize("argv,library", [
        (["maximize", "--dims", twos(1023) + ",0", "--limit", "2000"],
         lambda shape: optimizer.enumerate_maximizers(shape, cap=2000)),
        (["check", "--dims", twos(201)], predictions.check_shape),
        (["predict", "--dims", twos(201)], predictions.all_predictions),
    ], ids=["maximize", "check", "predict"])
    def test_handlers_hold_each_listing_once(self, argv, library):
        # The envelope takes the records' tuples as they are.  A copy of
        # every listed vector put the handlers at 1.76, 1.88 and 1.95 times
        # the library call's peak.
        args = build_parser().parse_args(argv)
        shape = ComplexShape(tuple(map(int, args.dims.split(","))))
        listing = traced_peak(lambda: library(shape))
        assert traced_peak(lambda: _run(args)) < 1.1 * listing

    def test_out_keeps_what_it_names(self, tmp_path, capsys):
        argv = ["dimension", "--dims", "2,1", "--ranks", "1", "--out"]
        target, link, fifo, new = (tmp_path / name for name in ("t.json", "l.json", "f", "n.json"))
        target.write_text("old")
        target.chmod(0o640)
        link.symlink_to(target.name)
        assert main(argv + [str(link)]) == 0
        assert link.is_symlink() and json.loads(target.read_text())["payload"]["d"] == 2
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        target.chmod(0o644)
        assert main(argv + [str(target)]) == 0
        assert stat.S_IMODE(target.stat().st_mode) == 0o644
        umask = os.umask(0o027)
        try:
            assert main(argv + [str(new)]) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(new.stat().st_mode) == 0o640
        assert capsys.readouterr() == ("", "")
        os.mkfifo(fifo)
        assert main(argv + [str(fifo)]) == 64
        assert capsys.readouterr() == (
            "", f"chaincx: error: cannot write {fifo}: not a regular file\n")
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        # os.replace would give one name new bytes and leave the other the old.
        hard = tmp_path / "h.json"
        hard.hardlink_to(target)
        before = target.read_bytes()
        assert main(argv + [str(hard)]) == 64
        assert capsys.readouterr() == (
            "", f"chaincx: error: cannot write {hard}: it has 2 hard links\n")
        assert hard.read_bytes() == target.read_bytes() == before
        assert hard.stat().st_nlink == target.stat().st_nlink == 2
        assert not list(tmp_path.glob(".chaincx-*"))

    @pytest.mark.parametrize("argv", [
        ["dimension", "--dims", "2,1", "--ranks", "1"],
        ["dimension", "--dims", "1,1,1", "--ranks", "1,1"],
        ["maximize", "--dims", "3,1,3"],
        ["predict", "--dims", "2,2,2"],
        ["check", "--dims", "2,1,1,2", "--reading", "interior"],
        ["verify-dim", "--dims", "2,2", "--ranks", "1"],
        ["sample", "--dims", "1,2,1,2"],
        ["sweep", "--max-length", "2", "--max-entry", "2"],
    ], ids=lambda argv: " ".join(argv[:5]))
    def test_envelope_names_the_command(self, argv, capsys):
        code = main(argv)
        assert json.loads(capsys.readouterr().out)["command"] == argv[0]
        assert main(argv + ["--format", "table"]) == code
        assert capsys.readouterr().out.splitlines()[0] == f"command       {argv[0]}"

    def test_table_format(self):
        proc = run_cli("sample", "--dims", "1,2,1,2", "--trials", "2", "--format", "table")
        assert proc.returncode == 0
        assert "biased" in proc.stdout
        assert SAMPLER_WARNING in proc.stdout

    def test_bad_env_var_exits_64(self):
        proc = run_cli("maximize", "--dims", "2,2", "--method", "brute",
                       env_extra={"CHAINCX_WORK_CAP": "banana"})
        assert proc.returncode == 64
        proc = run_cli("maximize", "--dims", "2,2", "--method", "brute",
                       env_extra={"CHAINCX_WORK_CAP": "1.5"})
        assert proc.stderr == ("chaincx: error: environment variable "
                               "CHAINCX_WORK_CAP='1.5' is not an integer\n")
        proc = run_cli("verify-dim", "--dims", "2,2", "--ranks", "1",
                       env_extra={"CHAINCX_RANK_TOL": "tiny"})
        assert proc.returncode == 64
        assert proc.stderr == ("chaincx: error: environment variable "
                               "CHAINCX_RANK_TOL='tiny' is not a number\n")


    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("flag", ["--version", "--help"])
    def test_version_and_help_to_a_full_device_exit_64(self, flag, buffered):
        # argparse drops a failed write: these exited 0 (unbuffered stdout)
        # or 120 (buffered) having written nothing.
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "chaincx", flag], stdout=full,
                                  stderr=subprocess.PIPE, text=True,
                                  env=buffering_env(buffered), timeout=60)
        assert proc.returncode == 64
        assert proc.stderr.startswith("chaincx: error: cannot write stdout: ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("argv", [["dimension", "--dims", "2,1", "--ranks", "1"],
                                      ["dimension", "--dims", "2,1", "--ranks", "1",
                                       "--format", "table"],
                                      ["--version"], ["--help"]])
    def test_closed_stdout_exits_64(self, argv):
        # fd 1 closed before exec: Python sets sys.stdout to None.  The
        # envelope ended in an AttributeError traceback (exit 1), --version
        # and --help went to stderr (exit 0).
        proc = subprocess.run(["sh", "-c", 'exec "$0" "$@" >&-', sys.executable, "-m",
                               "chaincx", *argv], stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, env=child_env(), timeout=60)
        assert (proc.returncode, proc.stderr) == (
            64, "chaincx: error: cannot write stdout: Bad file descriptor\n")

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("sink", ["closed", "full"])
    @pytest.mark.parametrize("argv,code", [
        (["dimension", "--dims", "x", "--ranks", "1"], 64),
        (["dimension", "--bogus"], 64),
        (["maximize", "--dims", "2,2", "--method", "brute", "--work-cap", "1"], 3),
        (["check", "--dims", "2,1,1,2", "--reading", "interior"], 4),
        (["dimension", "--dims", "2,1", "--ranks", "1"], 0),
    ])
    def test_unwritable_stderr_keeps_the_exit_code(self, argv, code, sink, buffered):
        # With stderr on a full device, print raised OSError out of main
        # (exit 1).  With fd 2 closed, the diagnostic and argparse's usage
        # went to stdout.  The interpreter runs directly: a wrapper script
        # on PATH, such as a pyenv shim, would hold fd 2 itself.
        env = buffering_env(buffered)
        run = [sys.executable, "-m", "chaincx", *argv]
        writable = subprocess.run(run, capture_output=True, env=env, timeout=60)
        assert writable.returncode == code
        if sink == "closed":
            proc = subprocess.run(["sh", "-c", 'exec "$0" "$@" 2>&-', *run],
                                  stdout=subprocess.PIPE, env=env, timeout=60)
        else:
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full")
            with open("/dev/full", "w") as full:
                proc = subprocess.run(run, stdout=subprocess.PIPE, stderr=full, env=env,
                                      timeout=60)
        assert (proc.returncode, proc.stdout) == (code, writable.stdout)


# A well-formed argv of each command, which a test extends by one flag, and
# the commands that read each environment variable, with the noun of its
# refusal.
_WELL_FORMED = {"dimension": ["--dims", "2,1", "--ranks", "1"],
                "maximize": ["--dims", "2,2", "--method", "brute"],
                "predict": ["--dims", "2,2"], "check": ["--dims", "2,2"],
                "verify-dim": ["--dims", "2,1", "--ranks", "1"], "sample": ["--dims", "1,2,1"],
                "sweep": ["--max-length", "1", "--max-entry", "1"]}
_ENV_READERS = {"CHAINCX_RANK_TOL": ("a number", ("verify-dim", "sample")),
                "CHAINCX_WORK_CAP": ("an integer", ("maximize", "sweep"))}
_NUMBER_FLAGS = ("--limit", "--work-cap", "--rank-tol", "--composition-tol", "--size-cap",
                 "--seed", "--trials", "--max-length", "--max-entry")


def _outcome(argv, capsys):
    """main(argv)'s exit code, argparse's own included, and its output."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, *capsys.readouterr()


class TestUsageErrors:
    """Each usage error the library or a bounded setting raises exits 64
    with its exact message, and so does the installed entry point."""

    @pytest.mark.parametrize("argv,env,message", [
        (["dimension", "--dims", "2,2", "--ranks", "-1"], {},
         "ranks must be non-negative, got -1"),
        (["verify-dim", "--dims", "2,2", "--ranks", "1", "--rank-tol", "0"], {},
         "tolerances must be positive"),
        (["verify-dim", "--dims", "2,2", "--ranks", "1", "--composition-tol", "0"], {},
         "tolerances must be positive"),
        (["verify-dim", "--dims", "2,2", "--ranks", "1"], {"CHAINCX_RANK_TOL": "0"},
         "tolerances must be positive"),
        (["sample", "--dims", "1,2,1,2", "--seed", "-1"], {}, "--seed must be non-negative"),
        (["sample", "--dims", "1,2,1,2", "--trials", "0"], {}, "--trials must be positive"),
        (["maximize", "--dims", "3,1,3", "--limit", "0"], {}, "--limit must be positive"),
        (["verify-dim", "--dims", "2,2", "--ranks", "1", "--size-cap", "16385"], {},
         "--size-cap must be at most 16384"),
        (["maximize", "--dims", "2,2", "--method", "brute", "--work-cap", "0"], {},
         "work cap must be positive"),
        (["sweep", "--max-length", "2", "--max-entry", "2"], {"CHAINCX_WORK_CAP": "-5"},
         "work cap must be positive"),
        (["check", "--dims", "2,-1"], {}, "shape entries must be non-negative, got -1"),
        (["sweep", "--max-length", "-1", "--max-entry", "2"], {},
         "sweep bounds must be non-negative"),
    ])
    def test_exit_64_with_the_message(self, argv, env, message, capsys, monkeypatch):
        for name in ("CHAINCX_RANK_TOL", "CHAINCX_WORK_CAP"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert main(argv) == 64
        assert capsys.readouterr() == ("", f"chaincx: error: {message}\n")

    @pytest.mark.parametrize("token", ["1_0", "\u0661", "\uff11"])
    @pytest.mark.parametrize("flag", ["--dims", "--ranks", *_NUMBER_FLAGS, *_ENV_READERS])
    def test_vectors_take_ascii_digits_only(self, flag, token, capsys, monkeypatch):
        # int() and float() alone read the digit separator of "1_0" as 10,
        # and the Arabic-Indic and full-width digits as 1.  Each is refused
        # in a vector, in every numeric flag of every command and in both
        # environment variables.
        for name in _ENV_READERS:
            monkeypatch.delenv(name, raising=False)
        if flag in _ENV_READERS:
            monkeypatch.setenv(flag, token)
            noun, commands = _ENV_READERS[flag]
            message = f"environment variable {flag}={token!r} is not {noun}"
            for command in commands:
                assert _outcome([command, *_WELL_FORMED[command]], capsys) == (
                    64, "", f"chaincx: error: {message}\n")
            return
        given = f"{token},1" if flag == "--dims" else token
        kind = "float" if flag.endswith("-tol") else "int"
        commands = [command for command, flags in _COMMAND_FLAGS.items() if flag in flags]
        assert commands
        for command in commands:
            code, out, err = _outcome([command, *_WELL_FORMED[command], flag, given], capsys)
            assert (code, out) == (64, "")
            if flag in ("--dims", "--ranks"):
                message = f"could not parse {flag} {given!r}: expected comma-separated integers"
                assert err == f"chaincx: error: {message}\n"
            else:
                assert err.endswith(f": error: argument {flag}: invalid {kind} value: {given!r}\n")

    def test_vectors_keep_spaces_and_signs(self, capsys):
        assert main(["dimension", "--dims", " 2, 1", "--ranks", "+1"]) == 0
        assert json.loads(capsys.readouterr().out)["shape"] == [2, 1]

    def test_numbers_keep_spaces_signs_and_inf(self, capsys, monkeypatch):
        for name in _ENV_READERS:
            monkeypatch.delenv(name, raising=False)
        verify = ["verify-dim", "--dims", "2,2", "--ranks", "1"]
        for tol, code in ((" 5", 0), ("+5", 0), ("inf", 5)):
            assert main([*verify, "--rank-tol", tol]) == code
            assert json.loads(capsys.readouterr().out)["payload"]["agree"] is (code == 0)
        assert main(["maximize", "--dims", "3,3", "--limit", " +2"]) == 0
        assert json.loads(capsys.readouterr().out)["payload"]["enumeration_cap"] == 2
        monkeypatch.setenv("CHAINCX_WORK_CAP", " +1")
        assert main(["maximize", "--dims", "2,2", "--method", "brute"]) == 3
        assert capsys.readouterr().out == ""

    def test_a_bound_is_checked_where_its_flag_is_read(self, capsys, monkeypatch):
        # As argparse reads a flag's syntax: a refused bound ends the parse
        # before a later --help, and before any check the command makes.
        monkeypatch.delenv("CHAINCX_WORK_CAP", raising=False)
        code, out, err = _outcome(["sample", "--dims", "2,2", "--trials", "x", "--help"], capsys)
        assert (code, out) == (64, "")
        assert err.endswith(": error: argument --trials: invalid int value: 'x'\n")
        for argv, message in [
            (["sample", "--dims", "2,2", "--trials", "0", "--help"], "--trials must be positive"),
            (["maximize", "--dims", "x", "--limit", "0"], "--limit must be positive"),
        ]:
            assert _outcome(argv, capsys) == (64, "", f"chaincx: error: {message}\n")
        # The work cap is bounded where a command reads it: dp takes none.
        assert main(["maximize", "--dims", "2,2", "--method", "dp", "--work-cap", "0"]) == 0

    @pytest.mark.parametrize("argv,code", [
        (["dimension", "--dims", "2,1", "--ranks", "1"], 0),
        (["dimension", "--dims", "2,2", "--ranks", "-1"], 64),
        (["--version"], 0),
        (["dimension", "--dims", "2,1"], 64),  # argparse's own: --ranks is required
    ])
    def test_entry_point_exits_with_the_code(self, argv, code):
        # In a child process, which the entry point ends by os._exit.
        proc = subprocess.run([sys.executable, "-c", ENTRY_POINT, *argv], capture_output=True,
                              text=True, env=child_env(), timeout=60)
        assert proc.returncode == code
        assert bool(proc.stdout) == (code == 0) and bool(proc.stderr) == (code != 0)

    @pytest.mark.parametrize("user,seen", [(None, "20"), ("28", "28"), ("4", "4")])
    def test_entry_point_sets_the_thread_timeout_unless_the_user_did(self, user, seen):
        probe = ("import os; from chaincx import cli;"
                 "cli.main = lambda: print(os.environ['OPENBLAS_THREAD_TIMEOUT']) or 0;"
                 + ENTRY_POINT)
        env = child_env()
        env.pop("OPENBLAS_THREAD_TIMEOUT", None)
        if user is not None:
            env["OPENBLAS_THREAD_TIMEOUT"] = user
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=env, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{seen}\n", "")

    def test_main_in_process_leaves_the_environment(self, monkeypatch, capsys):
        monkeypatch.delenv("OPENBLAS_THREAD_TIMEOUT", raising=False)
        assert main(["dimension", "--dims", "2,1", "--ranks", "1"]) == 0
        with pytest.raises(SystemExit):
            main(["--version"])
        assert "OPENBLAS_THREAD_TIMEOUT" not in os.environ


_INT_FLAGS = {"--limit": (-1, 5), "--work-cap": (-1, 10_000), "--size-cap": (-1, 400),
              "--seed": (-1, 5), "--trials": (-1, 3), "--max-length": (-1, 3),
              "--max-entry": (-1, 4)}
_CHOICES = {"--format": ("json", "table"), "--reading": ("sentinel", "interior"),
            "--method": ("dp", "brute"), "--mode": ("theorems", "conjecture"),
            "--out": ("OUT", "OUT", "MISSING", "DIR", "LINK"),
            "--rank-tol": ("1", "10", "1000", "1e12", "inf", "-1", "nan"),
            "--composition-tol": ("1e-8", "1e-3", "0.5", "0", "nan")}
_COMMAND_FLAGS = {
    "dimension": ("--dims", "--ranks"),
    "maximize": ("--dims", "--limit", "--method", "--work-cap"),
    "predict": ("--dims", "--reading"),
    "check": ("--dims", "--reading"),
    "verify-dim": ("--dims", "--ranks", "--rank-tol", "--composition-tol", "--size-cap"),
    "sample": ("--dims", "--limit", "--rank-tol", "--composition-tol", "--seed", "--trials"),
    "sweep": ("--max-length", "--max-entry", "--mode", "--work-cap", "--reading"),
}
_REQUIRED = {"--dims", "--ranks", "--max-length", "--max-entry"}
_JUNK = ("", "x", "-1", "0", "1e9", "nan", "1,2", "--bogus", "-h", "--version")


@st.composite
def _argv(draw):
    """A subcommand with its flags, mostly well formed: shapes of at most 6
    spaces with entries <= 8, ranks of the matching length, small bounds."""
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    dims = draw(st.lists(st.integers(0, 8), min_size=1, max_size=6))
    ranks = draw(st.lists(st.integers(0, 3), min_size=len(dims) - 1,
                          max_size=len(dims) - 1))
    vectors = {"--dims": dims, "--ranks": ranks}
    argv = [command]
    for flag in _COMMAND_FLAGS[command] + ("--format", "--out"):
        if draw(st.integers(0, 9)) >= (9 if flag in _REQUIRED else 3):
            continue
        if draw(st.integers(0, 15)) == 0 and flag != "--out":
            value = draw(st.sampled_from(_JUNK))
        elif flag in vectors:
            value = ",".join(map(str, vectors[flag]))
        elif flag in _INT_FLAGS:
            value = str(draw(st.integers(*_INT_FLAGS[flag])))
        else:
            value = draw(st.sampled_from(_CHOICES[flag]))
        argv += [flag, value]
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(_JUNK)))
    return argv


_ENV_VALUES = {"CHAINCX_RANK_TOL": ("1", "1e9", "tiny", "-1", "nan", ""),
               "CHAINCX_WORK_CAP": ("10", "1", "0", "-5", "banana", "1.5", "")}


class TestContractFuzz:
    """Any argv and environment ends in a documented exit code, never an exception."""

    # derandomize: every run, local or CI, draws the same argvs, and no
    # example database carries one run's failures into the next.
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example(["sweep", "--max-length", "1100", "--max-entry", "0"], {})
    @example(["sweep", "--max-length", "1100", "--max-entry", "0", "--mode", "conjecture"], {})
    @example(["sweep", "--max-length", "0", "--max-entry", "1048577", "--mode", "conjecture"],
             {})
    @example(["sweep", "--max-length", "1", "--max-entry", "1048576", "--mode", "conjecture",
              "--work-cap", "1000"], {})
    @example(["dimension", "--dims", "2,1", "--ranks", "1", "--out", "MISSING"], {})
    @example(["dimension", "--dims", "2,1", "--ranks", "1", "--out", "DIR"], {})
    @example(["dimension", "--dims", "2,1", "--ranks", "1", "--out", "LINK"], {})
    @example(["sample", "--dims", "0,0,0,1,1,1", "--rank-tol", "inf"], {})
    @example(["verify-dim", "--dims", "1048576,1048576", "--ranks", "0"], {})
    @example(["sample", "--dims", "1048576,1048576"], {})
    @example(["verify-dim", "--dims", "1048576,1048576", "--ranks", "0",
              "--size-cap", "100000000000000"], {})
    @example(["sample", "--dims", "4096,4096,4096"], {})
    @example(["dimension", "--dims", "1_0,1", "--ranks", "\uff11"], {})
    @example(["maximize", "--dims", "3,3", "--limit", "\u0661"], {})
    @example(OVER_THE_LISTING_CAP[0][0], {})
    @example(OVER_THE_LISTING_CAP[1][0], {})
    @example(OVER_THE_LISTING_CAP[2][0], {})
    @given(argv=_argv(),
           env=st.fixed_dictionaries({k: st.none() | st.sampled_from(v)
                                      for k, v in _ENV_VALUES.items()}))
    def test_documented_exit_codes(self, tmp_path, monkeypatch, argv, env):
        monkeypatch.chdir(tmp_path)  # a junk token taken as a file name stays here
        paths = {"OUT": tmp_path / "out.json", "MISSING": tmp_path / "missing" / "x.json",
                 "DIR": tmp_path / "dir", "LINK": tmp_path / "link.json"}
        paths["DIR"].mkdir(exist_ok=True)
        if not paths["LINK"].is_symlink():
            paths["LINK"].symlink_to("out.json")
        argv = [str(paths.get(token, token)) for token in argv]
        overrides = {name: value for name, value in env.items() if value is not None}
        with mock.patch.dict(os.environ, overrides), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for name in env.keys() - overrides.keys():
                os.environ.pop(name, None)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2, 3, 4, 5, 64), (argv, env, code)
        assert not list(tmp_path.glob("**/.chaincx-*"))
        assert paths["LINK"].is_symlink()
