"""The three workloads as lists of operations, built from a seed.

An operation is either one `python -m chaincx` invocation or one call
into the library.  Each carries what the harness needs to check it:
the documented exit code or a summary compared with the recording made
at the seed commit, and independent checks against `oracles`.  Any
mismatch marks the operation failed.  `known_defect` names operations
that break the documented contract at the seed commit; they still run
and still count as failed.

Library calls go through module attributes (`opt.maximize_dp`, not a
name imported once) so that the traced run can wrap them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import oracles

SCALES = ("full", "tiny")
WORKLOADS = ("cli_session", "big_instances", "many_small")
# Passes per run: the same work on every commit, so that percentiles
# compare like with like.  --seconds only stops further passes early.
PASSES = {"cli_session": 2, "big_instances": 3, "many_small": 1}


@dataclass
class Op:
    id: str
    kind: str  # "cli" or "lib"
    # lib: ctx -> result; summarize(result) is compared with the recording.
    run: Callable[[dict], Any] | None = None
    summarize: Callable[[Any], Any] | None = None
    # Independent checks: (result, ctx) -> list of problems.  For cli ops
    # the result is the parsed JSON envelope.
    verify: Callable[[Any, dict], list] | None = None
    argv: tuple = ()
    env: dict = field(default_factory=dict)
    exit_code: int = 0  # documented exit code of a cli op
    out_file: bool = False
    seed_arg: int | None = None  # a `--seed` value, normalised to 0 before comparing
    recorded: bool = True
    known_defect: str | None = None
    scan_shapes: int = 0  # shapes covered, for scan_shapes_per_s
    orbit_checks: int = 0  # orbit-rank checks, for orbit_checks_per_s
    scans: tuple = ()  # (max_length, max_entry, reading) of each conjecture scan


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, separators=(",", ":")).encode()).hexdigest()


def _rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"{seed}:{purpose}")


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


# ---------------------------------------------------------------- checks


def _dp_reference(ctx, pkg, dims):
    """(max d, lexicographically smallest maximizer), from this pass if known."""
    key = ("dp", tuple(dims))
    if key not in ctx:
        d, witness = pkg.optimizer.maximize_dp(pkg.core.ComplexShape(tuple(dims)))
        ctx[key] = (d, witness.ranks)
    return ctx[key]


def _check_maximizers(dims, max_d, listed, bettis, problems):
    if len(bettis) != len(listed):
        problems.append("the Betti spectrum and the listing differ in length")
        return
    feasible, d, want_bettis = oracles.listing_checks(dims, listed)
    got_bettis = np.asarray(bettis, dtype=np.int64).reshape(want_bettis.shape)
    checks = [(~feasible, "is infeasible"),
              (feasible & (d != max_d), f"has d != {max_d}"),
              ((got_bettis != want_bettis).any(axis=1), "has the wrong Betti vector")]
    fits = oracles.closed_form_rows(dims, got_bettis)
    if fits is not None:
        checks.append((~fits, "has a Betti vector that breaks the closed form"))
    for rows, what in checks:
        if rows.any():
            first = listed[int(np.flatnonzero(rows)[0])]
            problems.append(f"listed maximizer {tuple(first)} {what} ({rows.sum()} rows)")
    listed = [tuple(r) for r in listed]
    if listed != sorted(set(listed)):
        problems.append("maximizers are not listed in strict lexicographic order")


def _verify_maximize_dp(dims, ref_max):
    def verify(result, ctx):
        d, witness = result[0], result[1].ranks
        ctx[("dp", tuple(dims))] = (d, witness)
        problems = []
        if not oracles.feasible(dims, witness):
            problems.append("witness is infeasible")
        elif oracles.dimension(dims, witness) != d:
            problems.append("d(witness) differs from the reported maximum")
        if ref_max is not None and d != ref_max:
            problems.append(f"max d {d} != reference DP {ref_max}")
        return problems
    return verify


def _verify_rank_sum_range(dims, pkg):
    def verify(result, ctx):
        d, lo, hi = result
        ref_d, witness = _dp_reference(ctx, pkg, dims)
        problems = []
        if d != ref_d:
            problems.append(f"max d {d} != maximize_dp {ref_d}")
        if not lo <= sum(witness) <= hi:
            problems.append(f"witness rank sum {sum(witness)} outside [{lo}, {hi}]")
        return problems
    return verify


def _verify_enumerate(dims, pkg):
    def verify(report, ctx):
        ref_d, witness = _dp_reference(ctx, pkg, dims)
        listed = [r.ranks for r in report.maximizers]
        bettis = [b.bettis for b in report.betti_spectrum]
        problems = []
        if report.max_dimension != ref_d:
            problems.append(f"max d {report.max_dimension} != maximize_dp {ref_d}")
        if not listed or listed[0] != witness:
            problems.append("first listed maximizer is not the maximize_dp witness")
        if len(listed) != min(report.maximizer_count, report.enumeration_cap):
            problems.append("listing length disagrees with count and cap")
        if report.truncated != (report.maximizer_count > report.enumeration_cap):
            problems.append("truncated flag disagrees with count and cap")
        m = dims[0]
        if len(dims) % 2 == 0 and m >= 1 and all(a == m for a in dims):
            if report.maximizer_count != 1:
                problems.append("equal dims with odd n must have a unique maximizer")
        _check_maximizers(dims, ref_d, listed, bettis, problems)
        return problems
    return verify


def _summarize_enumerate(report):
    listed = [list(r.ranks) for r in report.maximizers]
    return {
        "max_d": report.max_dimension,
        "count": report.maximizer_count,
        "listed": len(listed),
        "truncated": report.truncated,
        "first": listed[0] if listed else None,
        "listed_sha256": digest(listed),
    }


def _summarize_scan(report):
    return {
        "scanned": report.shapes_scanned,
        "truncated": report.truncated,
        "counterexamples": [list(c.shape.dims) for c in report.counterexamples],
    }


def _verify_scan(report, ctx):
    problems = []
    for c in report.counterexamples:
        dims = c.shape.dims
        target = abs(sum(a if i % 2 == 0 else -a for i, a in enumerate(dims)))
        if all(sum(b.bettis) == target for b in c.observed.betti_spectrum):
            problems.append(f"reported counterexample {dims} satisfies the conjecture")
    return problems


def _summarize_sweep(summary):
    return {
        "checked": summary.shapes_checked,
        "matches": summary.matches,
        "mismatches": summary.mismatches,
        "not_applicable": summary.not_applicable,
        "mismatch_shapes": [list(r.shape.dims) for r in summary.mismatch_details],
    }


def _verify_sweep(max_length, max_entry):
    def verify(summary, ctx):
        problems = []
        if summary.shapes_checked != oracles.rectangle_size(max_length, max_entry):
            problems.append("sweep did not check every shape of the rectangle")
        if summary.matches + summary.mismatches + summary.not_applicable != summary.shapes_checked:
            problems.append("verdict tallies do not add up")
        return problems
    return verify


# ---------------------------------------------------------------- lib ops


def dp_ops(pkg, label, dims, recorded=True, ref_max=None, enumerate_defect=None):
    """The three public DP entry points on one shape."""
    opt = pkg.optimizer
    shape = pkg.core.ComplexShape(tuple(dims))
    return [
        Op(f"maximize_dp {label}", "lib",
           run=lambda ctx: opt.maximize_dp(shape),
           summarize=lambda r: {"max_d": r[0], "witness": list(r[1].ranks)},
           verify=_verify_maximize_dp(dims, ref_max), recorded=recorded),
        Op(f"maximizer_rank_sum_range {label}", "lib",
           run=lambda ctx: opt.maximizer_rank_sum_range(shape),
           summarize=lambda r: {"max_d": r[0], "lo": r[1], "hi": r[2]},
           verify=_verify_rank_sum_range(dims, pkg), recorded=recorded),
        Op(f"enumerate_maximizers {label}", "lib",
           run=lambda ctx: opt.enumerate_maximizers(shape),
           summarize=_summarize_enumerate,
           verify=_verify_enumerate(dims, pkg), recorded=recorded,
           known_defect=enumerate_defect),
    ]


def orbit_op(pkg, dims, ranks, conjugation_seeds, recorded=True):
    """Orbit rank at the canonical complex (if `conjugation_seeds` holds
    None) and at seeded conjugations of it, each against d(a, r)."""
    num, core = pkg.numerics, pkg.core
    shape, rv = core.ComplexShape(tuple(dims)), core.RankVector(tuple(ranks))

    def run(ctx):
        base = num.canonical_complex(shape, rv)
        found = []
        for s in conjugation_seeds:
            cx = base if s is None else num.random_conjugation(base, s)
            found.append(num.orbit_dimension(cx))
        return core.stratum_dimension(shape, rv), found

    def verify(result, ctx):
        expected, found = result
        want = oracles.dimension(dims, ranks)
        problems = [] if expected == want else [f"stratum_dimension {expected} != {want}"]
        return problems + [f"orbit rank {f} != d = {want}" for f in found if f != want]

    return Op(f"orbit {_csv(dims)} r={_csv(ranks)}", "lib", run=run,
              summarize=lambda r: {"d": r[0], "orbit_d": r[1]}, verify=verify,
              recorded=recorded, orbit_checks=len(conjugation_seeds))


def sample_op(pkg, dims, seed):
    """One sequential-sampler trial; its numerical ranks must be greedy."""
    num = pkg.numerics
    shape = pkg.core.ComplexShape(tuple(dims))

    def run(ctx):
        cx = num.sequential_sample(shape, seed)
        return [num.numerical_rank(m) for m in cx.maps], num.greedy_rank_vector(shape).ranks

    def verify(result, ctx):
        ranks, greedy = result
        want = oracles.greedy(dims)
        return [] if tuple(ranks) == tuple(greedy) == want else [
            f"sampled ranks {ranks}, greedy_rank_vector {greedy}, expected {want}"]

    return Op(f"sequential_sample {_csv(dims)} trial", "lib", run=run,
              summarize=lambda r: {"ranks": list(r[0])}, verify=verify)


def bias_op(pkg, dims):
    """Whether the sampler's greedy ranks are a maximizer of d."""
    opt, num = pkg.optimizer, pkg.numerics
    shape = pkg.core.ComplexShape(tuple(dims))

    def run(ctx):
        return opt.maximize_dp(shape), opt.enumerate_maximizers(shape), num.greedy_rank_vector(shape)

    def summarize(r):
        (d, _), report, greedy = r
        return {"max_d": d, "maximizers": [list(m.ranks) for m in report.maximizers],
                "biased": oracles.dimension(dims, greedy.ranks) != d}

    def verify(r, ctx):
        (d, witness), report, _ = r
        problems = [] if d == report.max_dimension == oracles.max_dimension(dims) else [
            "DP entry points disagree on max d"]
        if report.maximizers[0].ranks != witness.ranks:
            problems.append("first listed maximizer is not the maximize_dp witness")
        return problems

    return Op(f"sampler bias {_csv(dims)}", "lib", run=run, summarize=summarize, verify=verify)


def scan_op(pkg, max_length, max_entry, reading):
    pred = pkg.predictions
    hyp = pred.HypothesisReading(reading)
    return Op(f"conjecture_scan {max_length}x{max_entry} {reading}", "lib",
              run=lambda ctx: pred.conjecture_scan(max_length, max_entry, hyp),
              summarize=_summarize_scan, verify=_verify_scan,
              scan_shapes=oracles.rectangle_size(max_length, max_entry),
              scans=((max_length, max_entry, reading),))


def sweep_op(pkg, max_length, max_entry):
    pred = pkg.predictions
    return Op(f"sweep_theorems {max_length}x{max_entry}", "lib",
              run=lambda ctx: pred.sweep_theorems(max_length, max_entry),
              summarize=_summarize_sweep, verify=_verify_sweep(max_length, max_entry),
              scan_shapes=oracles.rectangle_size(max_length, max_entry))


# ---------------------------------------------------------------- cli ops


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def _verify_cli_maximize(pkg):
    def verify(env, ctx):
        dims = tuple(env["shape"])
        p = env["payload"]
        ref_d, witness = _dp_reference(ctx, pkg, dims)
        problems = [] if p["max_dimension"] == ref_d else [
            f"max d {p['max_dimension']} != maximize_dp {ref_d}"]
        if p["method"] == "dp" and p["maximizers"][0] != list(witness):
            problems.append("first listed maximizer is not the maximize_dp witness")
        _check_maximizers(dims, ref_d, p["maximizers"], p["betti_spectrum"], problems)
        return problems
    return verify


def _verify_cli_verify_dim(pkg, conjugation_seed):
    def verify(env, ctx):
        dims, p = tuple(env["shape"]), env["payload"]
        ranks = tuple(p["ranks"])
        want = oracles.dimension(dims, ranks)
        problems = [f"{key} {p[key]} != d = {want}" for key in ("formula_d", "orbit_d")
                    if p[key] != want]
        if conjugation_seed is not None:
            moved = orbit_op(pkg, dims, ranks, (conjugation_seed,), recorded=False)
            problems += moved.verify(moved.run(ctx), ctx)
        return problems
    return verify


def _verify_cli_sample(pkg):
    def verify(env, ctx):
        dims, p = tuple(env["shape"]), env["payload"]
        greedy = list(oracles.greedy(dims))
        ref_d, _ = _dp_reference(ctx, pkg, dims)
        problems = []
        if any(r != greedy for r in p["trial_ranks"]) or p["greedy_ranks"] != greedy:
            problems.append(f"sampled ranks are not the greedy vector {greedy}")
        if p["max_dimension"] != ref_d:
            problems.append(f"max d {p['max_dimension']} != maximize_dp {ref_d}")
        if p["biased"] != (oracles.dimension(dims, greedy) != ref_d):
            problems.append("bias flag is wrong")
        return problems
    return verify


def cli_op(pkg, argv, exit_code=0, env=None, known_defect=None, out_file=False,
           conjugation_seed=None):
    """One invocation; exit_code is the code the README documents."""
    argv = tuple(argv)
    command = argv[0]
    verify = None
    scan_shapes = orbit_checks = 0
    scans = ()
    if exit_code in (0, 4, 5) and "--format" not in argv and not out_file:
        if command == "maximize":
            verify = _verify_cli_maximize(pkg)
        elif command == "verify-dim" and exit_code == 0:
            verify = _verify_cli_verify_dim(pkg, conjugation_seed)
        elif command == "sample":
            verify = _verify_cli_sample(pkg)
    if command == "sweep" and exit_code in (0, 4):
        length, entry = int(_flag(argv, "--max-length")), int(_flag(argv, "--max-entry"))
        scan_shapes = oracles.rectangle_size(length, entry)
        if "conjecture" in argv:
            reading = _flag(argv, "--reading") if "--reading" in argv else "sentinel"
            scans = ((length, entry, reading),)
    if command == "verify-dim" and exit_code in (0, 5):
        orbit_checks = 1
    seed_arg = int(_flag(argv, "--seed")) if "--seed" in argv else None
    shown = ["SEED" if i and argv[i - 1] == "--seed" else a for i, a in enumerate(argv)]
    prefix = "".join(f"{k}={v} " for k, v in sorted((env or {}).items()))
    return Op(f"{prefix}chaincx {' '.join(shown)}", "cli", argv=argv, env=dict(env or {}),
              exit_code=exit_code, verify=verify, known_defect=known_defect,
              out_file=out_file, seed_arg=seed_arg, scan_shapes=scan_shapes,
              orbit_checks=orbit_checks, scans=scans)


# ---------------------------------------------------------------- workloads

DEFECT_SAMPLE_LIMIT = "sample --limit 0 exits 1 with a traceback (documented: 64)"
DEFECT_SIZE_CAP = "verify-dim --size-cap -1 exits 3 (documented: 64)"
DEFECT_RECURSION = "enumerate_maximizers raises RecursionError on 1000 spaces"


def _interleave(main, extra):
    """main with extra spread evenly through it, so that samples of each
    kind come from the whole pass rather than from one stretch of it."""
    out, step = list(main), len(main) / (len(extra) + 1)
    for i, op in reversed(list(enumerate(extra))):
        out.insert(round((i + 1) * step), op)
    return out


def cli_session(pkg, seed, scale):
    rng = _rng(seed, "cli")
    s1, s2, s3, c1, c2 = (rng.randrange(1 << 20) for _ in range(5))
    # (in the tiny scale, op); sweeps and orbit checks are spread out.
    ops = [
        (1, cli_op(pkg, ["sweep", "--max-length", "2", "--max-entry", "4", "--mode", "theorems"])),
        (1, cli_op(pkg, ["dimension", "--dims", "2,1,1,2", "--ranks", "1,0,1"])),
        (0, cli_op(pkg, ["--version"])),
        (0, cli_op(pkg, ["dimension", "--dims", "1,1,1", "--ranks", "1,1"], exit_code=2)),
        (1, cli_op(pkg, ["verify-dim", "--dims", "2,2,2", "--ranks", "1,1"],
                   conjugation_seed=c1)),
        (0, cli_op(pkg, ["dimension", "--dims", "2,x", "--ranks", "1"], exit_code=64)),
        (1, cli_op(pkg, ["maximize", "--dims", "3,1,3"])),
        (0, cli_op(pkg, ["maximize", "--dims", "6,6,6,6,6", "--limit", "3", "--format",
                         "table"])),
        (0, cli_op(pkg, ["sweep", "--max-length", "3", "--max-entry", "8", "--mode",
                         "theorems"])),
        (0, cli_op(pkg, ["maximize", "--dims", "3,3,3,3", "--method", "brute"])),
        (0, cli_op(pkg, ["maximize", "--dims", "9,9,9,9,9,9,9,9", "--method", "brute",
                         "--work-cap", "1000"], exit_code=3)),
        (1, cli_op(pkg, ["sample", "--dims", "1,2,1,2", "--seed", str(s1), "--trials", "5"])),
        (0, cli_op(pkg, ["verify-dim", "--dims", "3,4,3", "--ranks", "2,1"],
                   conjugation_seed=c2)),
        (0, cli_op(pkg, ["maximize", "--dims", "2,2,2", "--out", "OUT"], out_file=True)),
        (0, cli_op(pkg, ["predict", "--dims", "2,2,2"])),
        (1, cli_op(pkg, ["sweep", "--max-length", "3", "--max-entry", "2", "--mode",
                         "conjecture", "--reading", "interior"], exit_code=4)),
        (0, cli_op(pkg, ["predict", "--dims", "2,1,1,2", "--reading", "interior",
                         "--format", "table"])),
        (0, cli_op(pkg, ["frobnicate"], exit_code=64)),
        (1, cli_op(pkg, ["sample", "--dims", "1,2,1,2", "--seed", str(s3), "--limit", "0"],
                   exit_code=64, known_defect=DEFECT_SAMPLE_LIMIT)),
        (0, cli_op(pkg, ["check", "--dims", "6,6,6,6,6"])),
        (0, cli_op(pkg, ["verify-dim", "--dims", "2,2,2", "--ranks", "1,1", "--rank-tol",
                         "1e16"], exit_code=5)),
        (0, cli_op(pkg, ["check", "--dims", "2,1,1,2", "--reading", "interior"],
                   exit_code=4)),
        (0, cli_op(pkg, ["verify-dim", "--dims", "2,2,2", "--ranks", "2,1"], exit_code=2)),
        (0, cli_op(pkg, ["sweep", "--max-length", "4", "--max-entry", "6", "--mode",
                         "conjecture"])),
        (0, cli_op(pkg, ["verify-dim", "--dims", "70,70", "--ranks", "35"], exit_code=3)),
        (0, cli_op(pkg, ["sample", "--dims", "6,6,6,6,6", "--seed", str(s2), "--trials",
                         "5"])),
        (1, cli_op(pkg, ["verify-dim", "--dims", "2,2,2", "--ranks", "1,1", "--size-cap",
                         "-1"], exit_code=64, known_defect=DEFECT_SIZE_CAP)),
        (0, cli_op(pkg, ["verify-dim", "--dims", "2,2", "--ranks", "1"], exit_code=64,
                   env={"CHAINCX_RANK_TOL": "x"})),
        (0, cli_op(pkg, ["sweep", "--max-length", "3", "--max-entry", "8", "--mode",
                         "theorems", "--work-cap", "100"], exit_code=3)),
        (0, cli_op(pkg, ["sample", "--dims", "1,2,1,2", "--trials", "0"], exit_code=64)),
    ]
    return [op for tiny, op in ops if tiny or scale == "full"]


# Per scale: graded equal-dims DP shapes (A, spaces), the random shape's
# (length, lowest entry, highest entry), the near-cap orbit instances, the
# sampler shape and trial count, and the argv of the CLI invocations.  The
# DP shapes are the diagonal of the ROADMAP grid with A scaled to 40-50%,
# so that three passes fit in one run.
BIG = {
    "full": {
        "graded": [(1500, 3), (700, 11), (160, 101), (50, 1000)],
        "random": (100, 30, 50),
        "orbits": [((30, 30, 30), (15, 15)), ((40, 40), (40,))],
        "sampler": ((200, 300, 200, 300), 2),
        "cli": [["maximize", "--dims", "1500,1500,1500"],
                ["sweep", "--max-length", "2", "--max-entry", "6", "--mode", "theorems"],
                ["sweep", "--max-length", "2", "--max-entry", "12", "--mode", "conjecture"]],
    },
    "tiny": {
        "graded": [(30, 3), (16, 11), (4, 101), (2, 1000)],
        "random": (100, 3, 8),
        "orbits": [((6, 6, 6), (3, 3)), ((8, 8), (8,))],
        "sampler": ((20, 30, 20, 30), 2),
        "cli": [["maximize", "--dims", "30,30,30"],
                ["sweep", "--max-length", "1", "--max-entry", "4", "--mode", "theorems"],
                ["sweep", "--max-length", "2", "--max-entry", "4", "--mode", "conjecture"]],
    },
}


def big_instances(pkg, seed, scale):
    cfg = BIG[scale]
    rng = _rng(seed, "big")
    groups = []
    for a, spaces in cfg["graded"]:
        defect = DEFECT_RECURSION if spaces >= 1000 else None
        groups.append(dp_ops(pkg, f"{a}x{spaces}", (a,) * spaces, enumerate_defect=defect))
    length, lo, hi = cfg["random"]
    dims = tuple(rng.randint(lo, hi) for _ in range(length))
    groups.append(dp_ops(pkg, f"random-length-{length}", dims, recorded=False,
                         ref_max=oracles.max_dimension(dims)))
    # The two near-cap orbit checks go between the DP shapes, apart.
    for at, (orbit_dims, ranks) in zip((1, 3), cfg["orbits"]):
        groups[at].append(orbit_op(pkg, orbit_dims, ranks, (rng.randrange(1 << 20),)))
    sampler_dims, trials = cfg["sampler"]
    groups.append([sample_op(pkg, sampler_dims, rng.randrange(1 << 20)) for _ in range(trials)])
    # One CLI invocation after every other group's DP calls.
    for at, argv in zip((0, 2, 4), cfg["cli"]):
        groups[at].append(cli_op(pkg, argv))
    return [op for group in groups for op in group]


SMALL = {
    "full": {"scans": [(5, 8, "sentinel"), (4, 6, "interior")], "sweep": (4, 6),
             "orbit_family": (4, 4), "samplers": [((1, 2, 1, 2), 30), ((6, 6, 6, 6, 6), 10)]},
    "tiny": {"scans": [(3, 4, "sentinel"), (3, 3, "interior")], "sweep": (2, 4),
             "orbit_family": (3, 2), "samplers": [((1, 2, 1, 2), 3), ((6, 6, 6, 6, 6), 1)]},
}


def _orbit_family(max_spaces, max_entry):
    """Every shape with at most max_spaces spaces and entries <= max_entry,
    with every feasible rank vector."""
    for k in range(1, max_spaces + 1):
        for dims in itertools.product(range(max_entry + 1), repeat=k):
            caps = [range(min(dims[i - 1], dims[i]) + 1) for i in range(1, k)]
            for ranks in itertools.product(*caps):
                if oracles.feasible(dims, ranks):
                    yield dims, ranks


def many_small(pkg, seed, scale):
    cfg = SMALL[scale]
    rng = _rng(seed, "small")
    orbits = [orbit_op(pkg, dims, ranks, (None, rng.randrange(1 << 20)), recorded=False)
              for dims, ranks in _orbit_family(*cfg["orbit_family"])]
    samplers = []
    for dims, trials in cfg["samplers"]:
        samplers.append(bias_op(pkg, dims))
        samplers += [sample_op(pkg, dims, rng.randrange(1 << 20)) for _ in range(trials)]
    # The scans and the sweep go between thirds of the orbit family.
    scans = [scan_op(pkg, *scan) for scan in cfg["scans"]] + [sweep_op(pkg, *cfg["sweep"])]
    third = len(orbits) // 3
    main = (scans[:1] + orbits[:third] + scans[1:2] + orbits[third:2 * third] + scans[2:]
            + orbits[2 * third:] + samplers)
    cli = [
        cli_op(pkg, ["check", "--dims", "1,2,1,2"]),
        cli_op(pkg, ["sample", "--dims", "1,2,1,2", "--seed", str(rng.randrange(1 << 20)),
                     "--trials", "20"]),
        cli_op(pkg, ["sweep", "--max-length", "3", "--max-entry", "3", "--mode", "conjecture"]),
        cli_op(pkg, ["verify-dim", "--dims", "2,1,1,2", "--ranks", "1,0,1"],
               conjugation_seed=rng.randrange(1 << 20)),
        cli_op(pkg, ["predict", "--dims", "2,2,2"]),
        cli_op(pkg, ["sweep", "--max-length", "2", "--max-entry", "4", "--mode", "theorems"]),
        cli_op(pkg, ["dimension", "--dims", "2,1,1,2", "--ranks", "1,0,1"]),
        cli_op(pkg, ["verify-dim", "--dims", "3,4,3", "--ranks", "2,1"],
               conjugation_seed=rng.randrange(1 << 20)),
        cli_op(pkg, ["maximize", "--dims", "3,1,3"]),
        cli_op(pkg, ["sweep", "--max-length", "3", "--max-entry", "4", "--mode", "conjecture",
                     "--reading", "interior"], exit_code=4),
        cli_op(pkg, ["check", "--dims", "6,6,6,6,6"]),
    ]
    return _interleave(main, cli)


BUILDERS = {"cli_session": cli_session, "big_instances": big_instances, "many_small": many_small}


def build(pkg, workload, seed, scale):
    """The workload's operations, each with a unique, seed-independent id."""
    ops = BUILDERS[workload](pkg, seed, scale)
    seen = {}
    for op in ops:
        seen[op.id] = seen.get(op.id, 0) + 1
        if seen[op.id] > 1:
            op.id = f"{op.id} #{seen[op.id]}"
    return ops
