"""Command-line front end: analysis, prediction, verification, sampling
and sweep workflows with machine-readable JSON output.

Every command prints a single envelope document

    {schema_version, tool_version, command, shape, payload, warnings}

to stdout (or writes it atomically to --out).  Diagnostics go to stderr,
and are dropped where it cannot be written.  Exit codes: 0 success or
match, 2 infeasible input, 3 resource cap, 4 scientific mismatch,
5 numerical disagreement, 64 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import sys
from itertools import islice

# Of the package only core loads here.  Each command imports the layers it
# runs, past its own usage checks, so --version, dimension, verify-dim and
# the refusals before any work load neither the optimizer nor predictions.
from . import __version__
from .core import (
    DEFAULT_ENUMERATION_CAP,
    DEFAULT_SIZE_CAP,
    DEFAULT_TOLERANCES,
    DEFAULT_WORK_CAP,
    ComplexShape,
    RankVector,
    ToleranceConfig,
    WorkCapExceeded,
    _canonical_orbit_rank,
    _orbit_matrix_sides,
    ambient_dimension,
    betti_from_ranks,
    betti_lower_bound,
    euler_characteristic,
    greedy_rank_vector,
    is_feasible,
    stratum_dimension,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_RESOURCE = 3
EXIT_MISMATCH = 4
EXIT_NUMERIC_DISAGREEMENT = 5
EXIT_USAGE = 64

# Largest --size-cap: an orbit matrix of at most 16384^2 doubles, 2 GiB.
# The worst argv it admits, verify-dim --dims 90,90 --ranks 45 --size-cap
# 16384 --rank-tol 1e-9, ranks an 8100 x 16200 matrix in floating point:
# 57 s and a peak RSS of 1,059 MB on 2 CPUs of an Intel Xeon.  Without a
# rank tolerance the same argv is ranked exactly in under 0.1 s.
MAX_SIZE_CAP = 16384
# Largest --trials: each trial samples and ranks every map of the shape.
MAX_TRIALS = 10_000
# Largest --trials times the work of one trial: its map entries, plus
# SAMPLE_MAP_ENTRIES per map, a_j^2 per interior space for the Q that the
# kernel step expands there, and a_(j-1) a_(j+1) per pair of adjacent maps
# for the product that the composition check forms.  A run at the cap takes
# at most about 40 s: as CLI processes on 2 CPUs, 4096,4096 (3 trials) took
# 12.6 s, 1024 twos (244) 4.9 s, 200,300,200,300 (152) 1.2-2.4 s, and
# 1,4096,1 (3) and 1,4096,1,4096,1 (1) 0.1-0.2 s each.
MAX_SAMPLE_WORK = 1 << 26
SAMPLE_MAP_ENTRIES = 256

ENV_RANK_TOL = "CHAINCX_RANK_TOL"
ENV_WORK_CAP = "CHAINCX_WORK_CAP"

SAMPLER_WARNING = "sequential sampler does not realize the conditional measure"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.format_usage()}{self.prog}: error: {message}\n")

    def _print_message(self, message, file=None):
        # argparse drops a failed write, so --help or --version to a full
        # device would exit 0 (unbuffered) or 120 (buffered), having written
        # nothing.  With fd 1 closed, file is None for stdout; with fd 2
        # closed, argparse would put stderr's messages on stdout.
        if file is sys.stdout:
            _write_stdout([message])
        else:
            _write_stderr(message)


def _number(kind, name: str | None = None, least: int = 1, most: int | None = None):
    """A reader of one number of `kind` (int or float), for a flag's type=, a
    vector's tokens and the environment.  Text that is not ASCII or holds a
    `_` raises ValueError: int() also reads digit separators ("1_0") and
    non-ASCII digits.  Given a name, a value below `least` (1 or 0) or above
    `most` is a usage error, raised as it is read: argparse does not catch it."""
    def read(text: str):
        if not text.isascii() or "_" in text:
            raise ValueError(text)
        value = kind(text)
        if name and value < least:
            raise _UsageError(f"{name} must be {'positive' if least else 'non-negative'}")
        if name and most is not None and value > most:
            raise _UsageError(f"{name} must be at most {most}")
        return value
    read.__name__ = kind.__name__  # for argparse's "invalid int value" line
    return read


def _parse_vector(text: str, what: str) -> tuple[int, ...]:
    text = text.strip()
    with contextlib.suppress(ValueError):
        return tuple(map(_number(int), text.split(","))) if text else ()
    raise _UsageError(f"could not parse {what} {text!r}: expected comma-separated integers")


def _usage(build, *args):
    """build(*args), with a ValueError it raises turned into a usage error."""
    try:
        return build(*args)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _ranks_of(args, shape: ComplexShape) -> RankVector:
    values = _parse_vector(args.ranks, "--ranks")
    if len(values) != shape.n_maps:
        raise _UsageError(
            f"--ranks has {len(values)} entries but shape {shape.dims} "
            f"has {shape.n_maps} maps"
        )
    return _usage(RankVector, values)


def _setting(flag, name: str, kind, noun: str, default):
    """The flag if given, else environment variable `name` parsed by `kind`, else default."""
    if flag is not None:
        return flag
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return _number(kind)(raw)
    except ValueError:
        raise _UsageError(f"environment variable {name}={raw!r} is not {noun}") from None


def _tolerances(args) -> tuple[ToleranceConfig, bool]:
    """The tolerances, and whether a rank tolerance was set by flag or environment."""
    factor = _setting(args.rank_tol, ENV_RANK_TOL, float, "a number", None)
    rank_tol = DEFAULT_TOLERANCES.rank_tolerance_factor if factor is None else factor
    return _usage(ToleranceConfig, rank_tol, args.composition_tol), factor is not None


def _work_cap(args) -> int:
    cap = _setting(args.work_cap, ENV_WORK_CAP, int, "an integer", DEFAULT_WORK_CAP)
    return _number(int, "work cap")(str(cap))  # bounded here: --method dp takes none


def _report_payload(report):
    return {
        "max_dimension": report.max_dimension,
        "maximizer_count": report.maximizer_count,
        "maximizers": [r.ranks for r in report.maximizers],
        "betti_spectrum": [b.bettis for b in report.betti_spectrum],
        "truncated": report.truncated,
        "enumeration_cap": report.enumeration_cap,
    }


def _prediction_payload(pred):
    return {
        "source_theorem": pred.source_theorem.value,
        "applicable": pred.applicable,
        "predicted_betti_set": [b.bettis for b in pred.predicted_betti_set],
        "predicted_sum": pred.predicted_sum,
    }


def _comparison_payload(result):
    return {
        "shape": result.shape.dims,
        "verdict": result.verdict.value,
        "prediction": _prediction_payload(result.prediction),
        "observed": _report_payload(result.observed),
    }


def cmd_dimension(args, shape, ranks):
    betti = betti_from_ranks(shape, ranks)
    payload = {
        "feasible": True,
        "ranks": ranks.ranks,
        "d": stratum_dimension(shape, ranks),
        "N": ambient_dimension(shape),
        "betti": betti.bettis,
        "chi": euler_characteristic(shape),
        "sum_betti": sum(betti.bettis),
        "lower_bound": betti_lower_bound(shape),
    }
    return payload, EXIT_OK


def cmd_maximize(args, shape, ranks):
    work_cap = _work_cap(args) if args.method == "brute" else None  # a usage error loads no layer
    from .optimizer import brute_force_maximize, enumerate_maximizers

    if args.method == "brute":
        report = brute_force_maximize(shape, work_cap=work_cap)
    else:
        report = enumerate_maximizers(shape, cap=args.limit)
    payload = {"method": args.method, **_report_payload(report)}
    return payload, EXIT_OK


def cmd_predict(args, shape, ranks):
    from .predictions import all_predictions

    payload = {
        "reading": args.reading,
        "predictions": [_prediction_payload(p) for p in all_predictions(shape, args.reading)],
    }
    return payload, EXIT_OK


def cmd_check(args, shape, ranks):
    from .predictions import Verdict, check_shape

    result = check_shape(shape, args.reading)
    comparisons = [
        {**_prediction_payload(pred), "matched": matched}
        for pred, matched in result.comparisons
    ]
    payload = {
        "reading": args.reading,
        "verdict": result.verdict.value,
        "comparisons": comparisons,
        "observed": _report_payload(result.observed),
    }
    code = EXIT_MISMATCH if result.verdict is Verdict.MISMATCH else EXIT_OK
    return payload, code


def cmd_verify_dim(args, shape, ranks):
    config, rank_tol_set = _tolerances(args)
    _orbit_matrix_sides(shape, args.size_cap)
    formula_d = stratum_dimension(shape, ranks)
    if rank_tol_set:
        # Only a set rank tolerance needs the float rank.  numpy and scipy's
        # LAPACK extension load only here and in cmd_sample, past the
        # integer checks; the scipy package never does.
        from .numerics import canonical_complex, orbit_dimension

        complex_ = canonical_complex(shape, ranks, config)
        orbit_d = orbit_dimension(complex_, config, size_cap=args.size_cap)
    else:
        # L at the canonical complex is an incidence matrix: its rank is a
        # spanning forest's edge count, exact and numpy-free.
        orbit_d = _canonical_orbit_rank(shape.dims, ranks.ranks)
    agree = formula_d == orbit_d
    payload = {
        "feasible": True,
        "ranks": ranks.ranks,
        "formula_d": formula_d,
        "orbit_d": orbit_d,
        "agree": agree,
    }
    return payload, EXIT_OK if agree else EXIT_NUMERIC_DISAGREEMENT


def cmd_sample(args, shape, ranks):
    config, _ = _tolerances(args)
    if max(shape.dims) > DEFAULT_SIZE_CAP:
        raise WorkCapExceeded(
            f"sampling shape {shape.dims} needs a space of dimension {max(shape.dims)}, "
            f"exceeding the size cap of {DEFAULT_SIZE_CAP}"
        )
    # Every map stays in memory, so the total is capped as well.
    entries = ambient_dimension(shape)
    if entries > DEFAULT_SIZE_CAP ** 2:
        raise WorkCapExceeded(
            f"sampling shape {shape.dims} needs {entries} map entries, "
            f"exceeding the cap of {DEFAULT_SIZE_CAP ** 2}"
        )
    dims = shape.dims
    squares = sum(a * a for a in dims[1:-1])
    products = sum(a * c for a, c in zip(dims, dims[2:]))
    work = args.trials * (entries + SAMPLE_MAP_ENTRIES * shape.n_maps + squares + products)
    if work > MAX_SAMPLE_WORK:
        raise WorkCapExceeded(
            f"{args.trials} trials on shape {dims} need {work} units of sampling work "
            f"(map entries, plus {SAMPLE_MAP_ENTRIES} per map, a_j^2 per interior space "
            f"and a_(j-1)*a_(j+1) per pair of adjacent maps, per trial), "
            f"exceeding the cap of {MAX_SAMPLE_WORK}"
        )
    # The listing, or its refusal, and the integer work come before any trial.
    from .optimizer import enumerate_maximizers

    report = enumerate_maximizers(shape, cap=args.limit)
    greedy = greedy_rank_vector(shape)
    greedy_d = stratum_dimension(shape, greedy)
    from .numerics import numerical_rank, sequential_sample

    trial_ranks = []
    for t in range(args.trials):
        try:
            complex_ = sequential_sample(shape, args.seed + t, config)
        except ValueError as exc:  # the tolerances broke the composition check
            raise _UsageError(f"sampling failed under the given tolerances: {exc}") from None
        trial_ranks.append([numerical_rank(m, config) for m in complex_.maps])
    payload = {
        "seed": args.seed,
        "trials": args.trials,
        "trial_ranks": trial_ranks,
        "greedy_ranks": greedy.ranks,
        "greedy_dimension": greedy_d,
        "max_dimension": report.max_dimension,
        "maximizers": [r.ranks for r in report.maximizers],
        "maximizers_truncated": report.truncated,
        "biased": greedy_d != report.max_dimension,
    }
    return payload, EXIT_OK, [SAMPLER_WARNING]


def cmd_sweep(args, shape, ranks):
    work_cap = _work_cap(args)
    from .predictions import conjecture_scan, sweep_theorems

    run = sweep_theorems if args.mode == "theorems" else conjecture_scan
    result = _usage(run, args.max_length, args.max_entry, args.reading, work_cap)
    payload = {
        "mode": args.mode,
        "reading": args.reading,
        "max_length": args.max_length,
        "max_entry": args.max_entry,
    }
    warnings = []
    if args.mode == "theorems":
        payload.update(
            shapes_checked=result.shapes_checked,
            matches=result.matches,
            mismatches=result.mismatches,
            not_applicable=result.not_applicable,
            mismatch_details=[_comparison_payload(r) for r in result.mismatch_details],
        )
        failed = result.mismatches > 0
    else:
        if result.truncated:
            warnings.append("scan stopped at the work cap; results are partial")
        payload.update(
            shapes_scanned=result.shapes_scanned,
            counterexamples=[_comparison_payload(r) for r in result.counterexamples],
            truncated=result.truncated,
        )
        failed = bool(result.counterexamples)
    code = EXIT_MISMATCH if failed else EXIT_OK
    return payload, code, warnings


def _run(args):
    """The envelope and exit code of the command that args name.  Its
    --dims and --ranks, where it takes them, are read here, and infeasible
    ranks answered with exit 2, before its handler runs on the shape and
    ranks.  A handler returns its payload, exit code and any warnings."""
    shape = ranks = None
    if "dims" in args:
        shape = _usage(ComplexShape, _parse_vector(args.dims, "--dims"))
    if "ranks" in args:
        ranks = _ranks_of(args, shape)
    if ranks is None or is_feasible(shape, ranks):
        result = args.handler(args, shape, ranks)
    else:
        result = {
            "feasible": False,
            "ranks": ranks.ranks,
            "error": f"ranks {list(ranks.ranks)} are infeasible for dims {list(shape.dims)}",
        }, EXIT_INFEASIBLE
    payload, code, *warnings = result
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": args.command,
        "shape": shape.dims if shape is not None else None,
        "payload": payload,
        "warnings": warnings[0] if warnings else (),
    }
    return envelope, code


def _render_table(envelope) -> str:
    lines = [f"command       {envelope['command']}"]
    if envelope["shape"] is not None:
        lines.append(f"shape         {','.join(str(a) for a in envelope['shape'])}")
    for key, value in envelope["payload"].items():
        rendered = value if isinstance(value, str) else json.dumps(value)
        lines.append(f"{key:<13} {rendered}")
    for warning in envelope["warnings"]:
        lines.append(f"warning       {warning}")
    return "\n".join(lines) + "\n"


def _json_blocks(envelope):
    """json.dumps(envelope, indent=2) and a newline, in blocks as encoded.
    Joined whole, the encoder's small chunks hold far more memory than the
    envelope; written one by one, they make a write call per token."""
    chunks = json.JSONEncoder(indent=2).iterencode(envelope)
    while block := "".join(islice(chunks, 65536)):
        yield block
    yield "\n"


def _emit(envelope, args) -> None:
    if args.out is not None:
        import stat
        import tempfile

        if not args.out:  # realpath would read "" as the working directory
            raise _UsageError(f"cannot write '': {os.strerror(errno.ENOENT)}")
        tmp = None
        try:
            # The file a symlink names is replaced, not the link, and the
            # file keeps the mode open(path, "w") would give it.
            path = os.path.realpath(args.out)
            try:
                st = os.stat(path)
            except FileNotFoundError:
                umask = os.umask(0)
                os.umask(umask)
                mode = 0o666 & ~umask
            else:
                # Refused before any temp file: os.replace would put a
                # regular file in place of a FIFO, a device or a socket,
                # and would part a hard-linked name from its other links.
                mode = st.st_mode
                if not stat.S_ISREG(mode):
                    reason = (os.strerror(errno.EISDIR) if stat.S_ISDIR(mode)
                              else "not a regular file")
                    raise _UsageError(f"cannot write {args.out}: {reason}")
                if st.st_nlink > 1:
                    raise _UsageError(
                        f"cannot write {args.out}: it has {st.st_nlink} hard links")
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".chaincx-",
                                       suffix=".tmp")
            with os.fdopen(fd, "w") as handle:
                os.chmod(tmp, stat.S_IMODE(mode))
                handle.writelines(_json_blocks(envelope))
            os.replace(tmp, path)
        except OSError as exc:
            raise _UsageError(f"cannot write {args.out}: {exc.strerror or exc}") from None
        finally:
            if tmp is not None and os.path.exists(tmp):
                os.unlink(tmp)
        return
    _write_stdout([_render_table(envelope)] if args.format == "table"
                  else _json_blocks(envelope))


def _write_stdout(texts) -> None:
    """Write texts to stdout and flush it.  A full device, a closed pipe or
    an fd 1 closed before start-up is a usage error, raised where the write
    fails whether stdout is buffered or not (PYTHONUNBUFFERED, -u)."""
    if sys.stdout is None:  # Python sets no stdout when fd 1 is closed
        raise _UsageError(f"cannot write stdout: {os.strerror(errno.EBADF)}")
    try:
        sys.stdout.writelines(texts)
        sys.stdout.flush()
    except OSError as exc:
        # With fd 1 on os.devnull, no later flush can fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise _UsageError(f"cannot write stdout: {exc.strerror or exc}") from None


def _write_stderr(text: str) -> None:
    """Write and flush text to stderr, or drop it where that fails."""
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            sys.stderr.write(text)
            sys.stderr.flush()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chaincx",
                     description="Almost-sure homology of random chain complexes.")
    parser.add_argument("--version", action="version", version=f"chaincx {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    # Flags shared between subcommands, each declared once as a parent parser.
    dims, ranks, output, reading, limit, tolerances = (
        argparse.ArgumentParser(add_help=False) for _ in range(6)
    )
    dims.add_argument("--dims", required=True)
    ranks.add_argument("--ranks", required=True)
    output.add_argument("--format", choices=("json", "table"), default="json",
                        help="output format on stdout (default json)")
    output.add_argument("--out", metavar="FILE",
                        help="write the JSON envelope atomically to FILE instead of stdout")
    reading.add_argument("--reading", choices=("sentinel", "interior"), default="sentinel",
                         help="index window of the no-forced-homology hypothesis "
                              "(default sentinel: end conditions included)")
    limit.add_argument("--limit", type=_number(int, "--limit"), default=DEFAULT_ENUMERATION_CAP,
                       help="maximizer listing cap (count stays exact)")
    tolerances.add_argument("--rank-tol", type=_number(float), default=None, metavar="FACTOR",
                            help=f"numerical-rank pivot threshold factor "
                                 f"(default {DEFAULT_TOLERANCES.rank_tolerance_factor:g}; "
                                 f"env {ENV_RANK_TOL})")
    tolerances.add_argument("--composition-tol", type=_number(float), metavar="TOL",
                            default=DEFAULT_TOLERANCES.composition_tolerance,
                            help="relative composition-zero tolerance "
                                 f"(default {DEFAULT_TOLERANCES.composition_tolerance:g})")

    p = commands.add_parser("dimension", parents=[dims, ranks, output],
                            help="stratum dimension and Betti data")
    p.set_defaults(handler=cmd_dimension)

    p = commands.add_parser("maximize", parents=[dims, limit, output],
                            help="rank vectors maximizing the stratum dimension")
    p.add_argument("--method", choices=("dp", "brute"), default="dp")
    p.add_argument("--work-cap", type=_number(int), default=None,
                   help=f"candidate cap for --method brute (env {ENV_WORK_CAP})")
    p.set_defaults(handler=cmd_maximize)

    p = commands.add_parser("predict", parents=[dims, reading, output],
                            help="closed-form Betti predictions")
    p.set_defaults(handler=cmd_predict)

    p = commands.add_parser("check", parents=[dims, reading, output],
                            help="compare predictions against the optimizer")
    p.set_defaults(handler=cmd_check)

    p = commands.add_parser("verify-dim", parents=[dims, ranks, tolerances, output],
                            help="check the dimension formula against the orbit rank")
    p.add_argument("--size-cap", type=_number(int, "--size-cap", most=MAX_SIZE_CAP),
                   default=DEFAULT_SIZE_CAP,
                   help="refusal cap on the linearized-action matrix sides")
    p.set_defaults(handler=cmd_verify_dim)

    p = commands.add_parser("sample", parents=[dims, limit, tolerances, output],
                            help="sequential Gaussian sampler (greedy, biased)")
    p.add_argument("--seed", type=_number(int, "--seed", least=0), default=0)
    p.add_argument("--trials", type=_number(int, "--trials", most=MAX_TRIALS), default=1)
    p.set_defaults(handler=cmd_sample)

    p = commands.add_parser("sweep", parents=[reading, output],
                            help="exhaustive theorem checks or conjecture scan")
    p.add_argument("--max-length", type=_number(int), required=True,
                   help="largest number of boundary maps")
    p.add_argument("--max-entry", type=_number(int), required=True)
    p.add_argument("--mode", choices=("theorems", "conjecture"), default="theorems")
    p.add_argument("--work-cap", type=_number(int), default=None,
                   help=f"cap on shapes examined (env {ENV_WORK_CAP})")
    p.set_defaults(handler=cmd_sweep)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        envelope, code = _run(args)
        _emit(envelope, args)
    except _UsageError as exc:
        _write_stderr(f"chaincx: error: {exc}\n")
        return EXIT_USAGE
    except WorkCapExceeded as exc:
        _write_stderr(f"chaincx: {exc}\n")
        return EXIT_RESOURCE
    return code


def entry_point() -> None:
    """The one process exit of the installed script and `python -m chaincx`.

    Before main, OPENBLAS_THREAD_TIMEOUT is set to 20 unless the user set it:
    numpy's and scipy's OpenBLAS, which load later, then put an idle worker
    to sleep after 2^20 cycles (under 1 ms) instead of busy-waiting 2^28
    (about 0.1 s) beside the main thread.  Of the exponents measured, 2^16
    and below slowed the largest orbit check, whose LAPACK calls then wake
    their workers anew, and 2^22 and above the sampler at its work cap.
    After main returns or argparse exits, stdout and stderr are flushed and
    the process ends by os._exit, without interpreter teardown.  Each
    write was already flushed where it was made: one to stdout was refused
    with exit 64 if it failed, a diagnostic to stderr dropped.
    """
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")
    try:
        code = main()
    except SystemExit as exc:  # --help, --version and argparse's usage errors
        code = exc.code or 0
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            with contextlib.suppress(OSError):
                stream.flush()
    os._exit(code)
