"""chaincx benchmark: one closed-loop client runs a workload and checks
every output.

    python3 bench/run.py --workload cli_session --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ./src.
The run sets up (median of three set-ups in fresh interpreters gives
setup_s), then makes the workload's fixed number of passes over its
operations, starting no further pass once --seconds have elapsed.
With --trace 1 it instead runs one untraced pass, one traced pass, an
in-process replay of the workload's CLI argv through chaincx.cli.main
and a replay of the optimizer on the conjecture scans' own shape
lists; the spans go to bench/out/ and the per-layer metrics are derived
from that file.  The last line of stdout is the JSON result; the lines
before it record the machine, the code and the failed operations.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib
import io
import itertools
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import types
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
CHILD_TIMEOUT_S = 120
SETUP_PROBES = 3
INTERP_PROBES = 5


class BenchError(Exception):
    """The benchmark cannot run here (missing package or recording)."""


def child_env(extra=None) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CHAINCX_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(extra or {})
    return env


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def spawn(argv, env=None):
    """Run a child to completion: (exit code, stdout, stderr, seconds, max RSS in KiB).

    The child writes into unlinked files in bench/out, so a large output
    cannot block it; os.wait4 gives this child's own peak RSS.
    """
    with tempfile.TemporaryFile(dir=OUT_DIR) as out, tempfile.TemporaryFile(dir=OUT_DIR) as err:
        previous = signal.signal(signal.SIGALRM, _alarm)
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env or child_env(), stdout=out, stderr=err)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            status = -1
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        seconds = time.perf_counter() - start
        # Reaped by wait4, so Popen must be told the exit status itself.
        proc.returncode = os.waitstatus_to_exitcode(status) if status != -1 else -1
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read(), seconds, usage.ru_maxrss


# ---------------------------------------------------------------- set-up


@dataclass
class Bench:
    workload: str
    seed: int
    scale: str
    pkg: types.SimpleNamespace
    ops: list
    expected: dict


def setup(workload, seed, scale, expected_dir) -> Bench:
    """Import chaincx from ./src, build the inputs, load the recording
    (none when expected_dir is None), warm up."""
    if not (SRC / "chaincx" / "__init__.py").is_file():
        raise BenchError(f"no package at {SRC / 'chaincx'}; run from a chaincx checkout")
    sys.path.insert(0, str(SRC))
    pkg = types.SimpleNamespace(**{
        name: importlib.import_module(f"chaincx.{name}")
        for name in ("core", "optimizer", "predictions", "numerics", "cli")})
    if Path(pkg.core.__file__).resolve().parent != (SRC / "chaincx").resolve():
        raise BenchError(f"imported chaincx from {pkg.core.__file__}, not from {SRC}")
    ops = workloads.build(pkg, workload, seed, scale)
    expected = {}
    if expected_dir is not None:
        path = Path(expected_dir) / f"{workload}-{scale}.json"
        if not path.is_file():
            raise BenchError(f"no recorded outputs at {path}; run bench/record.py")
        expected = json.loads(path.read_text())
    OUT_DIR.mkdir(exist_ok=True)
    _warm_up(pkg)
    return Bench(workload, seed, scale, pkg, ops, expected)


def _warm_up(pkg):
    """One small call per layer and one CLI start.  A failure here is left
    for the operations to report, so it does not stop the run."""
    shape = pkg.core.ComplexShape((2, 3, 2))
    calls = [
        lambda: pkg.optimizer.enumerate_maximizers(shape),
        lambda: pkg.optimizer.maximizer_rank_sum_range(shape),
        lambda: pkg.numerics.orbit_dimension(pkg.numerics.random_conjugation(
            pkg.numerics.canonical_complex(shape, pkg.optimizer.maximize_dp(shape)[1]), 0)),
        lambda: pkg.numerics.sequential_sample(shape, 0),
        lambda: pkg.predictions.conjecture_scan(2, 2),
        lambda: pkg.predictions.sweep_theorems(1, 2),
    ]
    for call in calls:
        with contextlib.suppress(Exception):
            call()
    spawn([sys.executable, "-m", "chaincx", "--version"])


# ---------------------------------------------------------------- one pass


@dataclass
class Result:
    op: workloads.Op
    seconds: float
    problems: list
    max_rss_kb: int = 0


def normalise_stdout(op, text):
    """The stdout as recorded: a `--seed` value in the envelope reads 0."""
    if op.seed_arg is not None:
        text = text.replace(f'"seed": {op.seed_arg},', '"seed": 0,', 1)
    return text


def run_cli(op, bench, ctx) -> Result:
    out_path = OUT_DIR / "cli-out.json"
    argv = [str(out_path) if a == "OUT" else a for a in op.argv]
    code, stdout, stderr, seconds, rss = spawn(
        [sys.executable, "-m", "chaincx", *argv], child_env(op.env))
    problems = []
    if code != op.exit_code:
        problems.append(f"exit {code}, documented {op.exit_code}")
    if b"Traceback" in stderr:
        problems.append("traceback on stderr")
    text = normalise_stdout(op, stdout.decode())
    want = bench.expected.get(op.id)
    if want is None:
        problems.append("no recorded output")
    elif text != want["stdout"]:
        problems.append("stdout differs from the recording")
    if op.out_file:
        written = out_path.read_text() if out_path.exists() else None
        if want is not None and written != want["file"]:
            problems.append("--out file differs from the recording")
        out_path.unlink(missing_ok=True)
    if op.verify is not None and code == op.exit_code:
        try:
            problems += op.verify(json.loads(text), ctx)
        except Exception as exc:  # a malformed envelope is a failed operation
            problems.append(f"check raised {type(exc).__name__}: {exc}")
    return Result(op, seconds, problems, rss)


def run_lib(op, bench, ctx) -> Result:
    start = time.perf_counter()
    try:
        result = op.run(ctx)
    except Exception as exc:  # any exception is a failed operation
        return Result(op, time.perf_counter() - start, [f"raised {type(exc).__name__}: {exc}"])
    seconds = time.perf_counter() - start
    problems = []
    try:
        if op.recorded:
            want = bench.expected.get(op.id)
            if want is None:
                problems.append("no recorded output")
            elif json.loads(json.dumps(op.summarize(result))) != want:
                problems.append("output differs from the recording")
        if op.verify is not None:
            problems += op.verify(result, ctx)
    except Exception as exc:
        problems.append(f"check raised {type(exc).__name__}: {exc}")
    return Result(op, seconds, problems)


def run_pass(bench, tracer=None):
    ctx = {}
    results = []
    start = time.perf_counter()
    for op in bench.ops:
        if tracer is not None:
            tracer.op = op.id
        results.append((run_cli if op.kind == "cli" else run_lib)(op, bench, ctx))
    return results, time.perf_counter() - start


# ---------------------------------------------------------------- traced run


def replay_cli(bench):
    """Run each CLI argv in process through chaincx.cli.main, output discarded."""
    out_path = OUT_DIR / "replay-out.json"
    for op in bench.ops:
        if op.kind != "cli":
            continue
        argv = [str(out_path) if a == "OUT" else a for a in op.argv]
        saved = dict(os.environ)
        os.environ.clear()
        os.environ.update(child_env(op.env))
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                bench.pkg.cli.main(argv)
        except (SystemExit, Exception):  # usage errors exit; the known defects raise
            pass
        finally:
            os.environ.clear()
            os.environ.update(saved)
    out_path.unlink(missing_ok=True)


def replay_small_calls(bench):
    """maximizer_rank_sum_range on the shapes each conjecture scan scans."""
    core, predictions, optimizer = bench.pkg.core, bench.pkg.predictions, bench.pkg.optimizer
    for op in bench.ops:
        for max_length, max_entry, reading in op.scans:
            hyp = predictions.HypothesisReading(reading)
            for n in range(max_length + 1):
                for dims in itertools.product(range(max_entry + 1), repeat=n + 1):
                    if dims[::-1] < dims:
                        continue
                    shape = core.ComplexShape(dims)
                    if predictions.hypothesis_holds(shape, hyp):
                        optimizer.maximizer_rank_sum_range(shape)


def traced_run(bench, machine):
    untraced, untraced_wall = run_pass(bench)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.phase = "pass"
        traced, traced_wall = run_pass(bench, tracer)
        tracer.op = None
        tracer.phase = "cli_replay"
        replay_cli(bench)
        tracer.phase = "small_replay"
        replay_small_calls(bench)
    finally:
        tracer.remove()
    tracer.phase = "probe"
    for _ in range(INTERP_PROBES):
        tracer.add("cli.interp", spawn([sys.executable, "-c", "pass"])[3])
        tracer.add("cli.import", spawn([sys.executable, "-c", "import chaincx.cli"])[3])
    path = OUT_DIR / f"trace-{bench.workload}-{bench.scale}-seed{bench.seed}.jsonl"
    tracer.write(path, {"workload": bench.workload, "seed": bench.seed, "scale": bench.scale,
                        "traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall,
                        "machine": machine})
    print(f"# trace: {path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    header, spans = tracing.load(path)
    metrics = tracing.layer_metrics(spans, header["traced_wall_s"], header["untraced_wall_s"])
    return untraced + traced, metrics


# ---------------------------------------------------------------- metrics


def best_times(results):
    """Each operation's fastest time over the run's passes.

    The shared host slows the whole machine in spells of several seconds;
    an operation's best pass filters those spells out, while a parent and
    a change still time the same work.
    """
    best = {}
    for r in results:
        best[r.op.id] = min(best.get(r.op.id, math.inf), r.seconds)
    return best


def end_to_end(bench, results, setup_s):
    best = best_times(results)
    ops = {r.op.id: r.op for r in results}
    cli = sorted((best[i] for i, op in ops.items() if op.kind == "cli"), reverse=True)
    # The highest percentile with at least 10 commands beyond it (the
    # 11th slowest), but never below the median.
    if len(cli) > 20:
        tail, note = cli[10], f"p{100.0 * (len(cli) - 10) / len(cli):.1f}"
    else:
        tail, note = statistics.median(cli), "p50 (too few for a tail)"
    print(f"# cli_tail_ms: {note} of {len(cli)} commands, each at its best pass")
    scans = [i for i, op in ops.items() if op.scan_shapes]
    orbits = [i for i, op in ops.items() if op.orbit_checks]
    if bench.workload == "cli_session":
        rss_kb = max(r.max_rss_kb for r in results)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed = sum(1 for r in results if r.problems)
    return {
        "setup_s": setup_s,
        "wall_s": sum(best.values()),
        "cli_p50_ms": 1e3 * statistics.median(cli),
        "cli_tail_ms": 1e3 * tail,
        "scan_shapes_per_s":
            sum(ops[i].scan_shapes for i in scans) / sum(best[i] for i in scans),
        "orbit_checks_per_s":
            sum(ops[i].orbit_checks for i in orbits) / sum(best[i] for i in orbits),
        "peak_rss_mb": rss_kb / 1024.0,
        "ops_ok_frac": 1.0 - failed / len(results),
    }


def measure_setup(args) -> float:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale,
            "--expected-dir", str(args.expected_dir)]
    times = []
    for _ in range(SETUP_PROBES):
        code, _, err, seconds, _ = spawn(argv, dict(os.environ))
        if code != 0:
            raise BenchError(f"set-up failed: {err.decode()[-500:]}")
        times.append(seconds)
    return statistics.median(times)


def _blas_threads():
    counts = set()
    with open("/proc/self/maps") as maps:
        libraries = {line.split()[-1] for line in maps if "blas" in line.lower()}
    for path in sorted(libraries):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.add(fn())
    return sorted(counts) or "unknown"


def machine_record(pkg):
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as info:
        cpu = next((line.split(":", 1)[1].strip() for line in info
                    if line.startswith("model name")), cpu)
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k, "unset") for k in thread_vars},
        "commit": commit,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "chaincx": pkg.cli.__version__,
    }


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


# ---------------------------------------------------------------- main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full",
                        help="tiny: small inputs, for the benchmark's own tests")
    parser.add_argument("--expected-dir", type=Path, default=BENCH_DIR / "expected",
                        help="directory of the recorded outputs")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    try:
        if args.setup_probe:
            setup(args.workload, args.seed, args.scale, args.expected_dir)
            return 0
        declared = declared_metrics(args.trace)
        bench = setup(args.workload, args.seed, args.scale, args.expected_dir)
        setup_s = None if args.trace else measure_setup(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    machine = machine_record(bench.pkg)
    print("# machine: " + json.dumps(machine))
    if args.trace:
        results, metrics = traced_run(bench, machine)
    else:
        results, walls = [], []
        start = time.perf_counter()
        while len(walls) < workloads.PASSES[args.workload] and (
                not walls or time.perf_counter() - start < args.seconds):
            pass_results, wall = run_pass(bench)
            results += pass_results
            walls.append(wall)
        print(f"# passes: {len(walls)}, pass walls (s): {[round(w, 3) for w in walls]}")
        metrics = end_to_end(bench, results, setup_s)
    failed = [r for r in results if r.problems]
    unexpected = [r for r in failed if r.op.known_defect is None]
    print(f"# ops_failed_frac: {len(failed)}/{len(results)} = {len(failed) / len(results):.6f}")
    for defect in sorted({r.op.known_defect for r in failed if r.op.known_defect}):
        n = sum(1 for r in failed if r.op.known_defect == defect)
        print(f"# known defect, failed {n}x: {defect}")
    for r in unexpected[:20]:
        print(f"# FAILED {r.op.id}: {'; '.join(r.problems)[:400]}")
    values = {}
    for name, unit in declared:
        value = metrics[name]
        if not math.isfinite(value):
            print(f"bench: metric {name} was not measured on {args.workload}", file=sys.stderr)
            return 1
        values[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": not unexpected, "attempted": len(results),
                      "failed": len(failed), "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
