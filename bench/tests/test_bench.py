"""Tests of the benchmark itself, at tiny size.

    python3 -m pytest bench/tests -q
"""

import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Failed operations per pass at the seed commit: the named known defects.
KNOWN_DEFECTS = {"cli_session": 2, "big_instances": 1, "many_small": 0}


def run_bench(workload, trace, cwd=ROOT, extra=()):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    result = result_of(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float)) and math.isfinite(printed["value"])
    assert result["correct"] is True
    passes = 2 if trace else 1
    assert result["failed"] == passes * KNOWN_DEFECTS[workload]
    assert result["attempted"] > result["failed"]


def _tamper(tmp_path, workload, key, edit):
    expected = tmp_path / "expected"
    shutil.copytree(BENCH / "expected", expected)
    path = expected / f"{workload}-tiny.json"
    recording = json.loads(path.read_text())
    before = json.dumps(recording[key])
    edit(recording[key])
    assert json.dumps(recording[key]) != before
    path.write_text(json.dumps(recording))
    return expected


def test_tampered_library_recording_is_a_failed_operation(tmp_path):
    key = "conjecture_scan 3x4 sentinel"
    expected = _tamper(tmp_path, "many_small", key,
                       lambda r: r.update(scanned=r["scanned"] + 1))
    proc = run_bench("many_small", 0, extra=("--expected-dir", str(expected)))
    result = result_of(proc)
    assert result["failed"] == KNOWN_DEFECTS["many_small"] + 1
    assert result["correct"] is False
    assert f"# FAILED {key}: output differs from the recording" in proc.stdout


def test_tampered_cli_recording_is_a_failed_operation(tmp_path):
    key = "chaincx maximize --dims 3,1,3"
    expected = _tamper(tmp_path, "cli_session", key,
                       lambda r: r.update(stdout=r["stdout"].replace('"maximizer_count": 2',
                                                                     '"maximizer_count": 3')))
    proc = run_bench("cli_session", 0, extra=("--expected-dir", str(expected)))
    result = result_of(proc)
    assert result["failed"] == KNOWN_DEFECTS["cli_session"] + 1
    assert result["correct"] is False
    assert f"# FAILED {key}: stdout differs from the recording" in proc.stdout


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    proc = run_bench("many_small", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _brute_max(dims):
    caps = [range(min(dims[i - 1], dims[i]) + 1) for i in range(1, len(dims))]
    return max(oracles.dimension(dims, r) for r in itertools.product(*caps)
               if oracles.feasible(dims, r))


def test_reference_dp_matches_exhaustive_search():
    for k in range(1, 5):
        for dims in itertools.product(range(4), repeat=k):
            assert oracles.max_dimension(dims) == _brute_max(dims), dims


def test_closed_forms():
    assert oracles.closed_form_rows((3, 3, 3), [(1, 0, 2), (3, 0, 0)]).tolist() == [True, False]
    assert oracles.closed_form_rows((5, 5, 5, 5, 5), [(2, 0, 2, 0, 1)]).tolist() == [True]
    assert oracles.closed_form_rows((4, 4, 4, 4), [(0, 0, 0, 0)]).tolist() == [True]
    assert oracles.closed_form_rows((1, 2, 1, 2), [(0, 0, 0, 1)]) is None


def test_listing_checks_match_the_scalar_oracles():
    for dims in [(3, 3, 3), (2, 1, 1, 2), (4, 0, 4), (5,)]:
        caps = [range(-1, 6)] * (len(dims) - 1)
        rows = list(itertools.product(*caps))
        feasible, d, bettis = oracles.listing_checks(dims, rows)
        for i, ranks in enumerate(rows):
            assert feasible[i] == oracles.feasible(dims, ranks), (dims, ranks)
            assert d[i] == oracles.dimension(dims, ranks), (dims, ranks)
            assert tuple(bettis[i]) == oracles.betti(dims, ranks), (dims, ranks)
