"""Record the expected outputs the benchmark compares against.

    python3 bench/record.py [--workload NAME] [--scale full|tiny]

Run once at the commit whose outputs are the reference (the seed commit
of the benchmark) and commit the files under bench/expected/.  Each
operation runs once with seed 0; seed-dependent values are normalised
exactly as in run.py, so one recording serves every seed.  A CLI
operation must exit with its documented code and a library operation
must not raise, unless it is a named known defect: those are recorded
as they behave, and run.py still judges them by the documented contract.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def record(workload, scale):
    bench = run.setup(workload, 0, scale, expected_dir=None)
    expected, ctx = {}, {}
    for op in bench.ops:
        if op.kind == "cli":
            out_path = run.OUT_DIR / "record-out.json"
            argv = [str(out_path) if a == "OUT" else a for a in op.argv]
            code, stdout, _, _, _ = run.spawn(
                [sys.executable, "-m", "chaincx", *argv], run.child_env(op.env))
            if code != op.exit_code and op.known_defect is None:
                raise SystemExit(f"{op.id}: exit {code}, documented {op.exit_code}")
            expected[op.id] = {
                "exit": code,
                "stdout": run.normalise_stdout(op, stdout.decode()),
                "file": out_path.read_text() if op.out_file else None,
            }
            out_path.unlink(missing_ok=True)
        elif op.recorded:
            try:
                result = op.run(ctx)
            except Exception as exc:
                if op.known_defect is None:
                    raise
                print(f"not recorded, known defect: {op.id}: {type(exc).__name__}")
                continue
            expected[op.id] = op.summarize(result)
            problems = op.verify(result, ctx) if op.verify else []
            if problems:
                raise SystemExit(f"{op.id}: {problems}")
    path = run.BENCH_DIR / "expected" / f"{workload}-{scale}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"{path.relative_to(run.ROOT)}: {len(expected)} operations")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--scale", choices=workloads.SCALES)
    args = parser.parse_args()
    run.OUT_DIR.mkdir(exist_ok=True)
    for workload in [args.workload] if args.workload else workloads.WORKLOADS:
        for scale in [args.scale] if args.scale else workloads.SCALES:
            record(workload, scale)


if __name__ == "__main__":
    main()
