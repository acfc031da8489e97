"""Command-line front end.

Subcommands: gen, check, reduce, stats, sim, enum, det.  Output is
`key: value` lines; human mode appends tables (matrices, plans) that
`--porcelain` suppresses.  Exit codes: 0 success, 1 when `check`
rejects a scheme, 2 for invalid input or flags.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

from .generators import (
    block_compose,
    circulant_matrix,
    cyclic_matrix,
    default_block_cells,
    transpose_cyclic_matrix,
)
from .optimality import (
    TieOrder,
    build_assignment_plan,
    canonical_word,
    decide_optimal,
)
from .oracle import (
    DEFAULT_SPEED_RATIOS,
    cross_validate,
    determinant_exact,
    enumerate_uniform,
)
from .reduction import (
    bicycle_itineraries,
    count_excess_handovers,
    count_rides,
    reduce_scheme,
)
from .scheme import (
    BinaryScheme,
    SchemeFormatError,
    _digit_rows,
    format_scheme,
    parse_scheme,
)
from .simulate import (
    DeadlockError,
    SpeedModel,
    simulate,
    write_trace_csv,
)

def _bool(v: bool) -> str:
    return "true" if v else "false"


def _frac(t: Fraction) -> str:
    return f"{t.numerator}/{t.denominator}"


def _emit(args, pairs, tables=()):
    for key, value in pairs:
        print(f"{key}: {value}")
    if not args.porcelain:
        for line in tables:
            print(line)


def _speed(text: str) -> Fraction:
    # Fraction raises ZeroDivisionError on "1/0", which argparse would
    # not turn into a usage error.
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


def _read_scheme(path: str) -> BinaryScheme:
    if path == "-":
        # As a file is read: strict UTF-8 (the interpreter's own stdin
        # may use surrogateescape and so accept bytes a file would not)
        # and universal newlines, "\r\n" and a lone "\r" read as "\n".
        stdin = sys.stdin
        if stdin is None:  # fd 0 was closed when the interpreter started
            raise OSError("cannot read stdin: it is closed")
        if hasattr(stdin, "buffer"):
            text = stdin.buffer.read().decode("utf-8")
        else:
            text = stdin.read()
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        return parse_scheme(text)
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scheme(fh.read())


def _matrix_table(M: BinaryScheme):
    yield ""
    for row in _digit_rows(M.masks, M.m):
        yield " ".join(row)


def _cmd_gen(args) -> int:
    if args.kind != "block" and args.r is not None:
        raise ValueError("--r applies to the block kind only")
    if args.kind == "cyclic":
        M = cyclic_matrix(args.n, args.k)
        comment = f"cyclic n={args.n} k={args.k}"
    elif args.kind == "transpose-cyclic":
        M = transpose_cyclic_matrix(args.n, args.k)
        comment = f"transpose-cyclic n={args.n} k={args.k}"
    elif args.kind == "circulant":
        M = circulant_matrix(args.n, args.k)
        comment = f"circulant n={args.n} k={args.k}"
    else:
        r = 1 if args.r is None else args.r
        M = block_compose(args.n, args.k, r, default_block_cells(args.n, args.k, r))
        comment = f"block n={args.n} k={args.k} r={r}"
    text = format_scheme(M, comment=comment)
    if args.output is None:
        sys.stdout.write(text)
        return 0
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    _emit(
        args,
        [
            ("kind", args.kind),
            ("n", M.n),
            ("k", args.k),
            ("m", M.m),
            ("file", args.output),
        ],
    )
    return 0


def _cmd_check(args) -> int:
    M = _read_scheme(args.file)
    verdict = decide_optimal(M, args.tie_order)
    pairs = [("optimal", _bool(verdict.optimal)), ("reason", verdict.reason)]
    if verdict.k is not None:
        pairs.append(("k", verdict.k))
    if verdict.reason == "non-dyck":
        # Boundary numbering: the failing post sits between stages
        # failing_boundary and failing_boundary+1 counting from 1,
        # i.e. after column failing_boundary_index counting from 0.
        pairs.append(("failing_boundary", verdict.failing_boundary + 1))
        pairs.append(("failing_boundary_index", verdict.failing_boundary))
        pairs.append(("failing_word", verdict.failing_word))
        if args.witness:
            word = canonical_word(M, verdict.failing_boundary, args.tie_order)
            pairs.append(("failing_rows", " ".join(map(str, word.rows))))
    elif verdict.optimal and args.witness:
        plan = build_assignment_plan(M, args.tie_order)
        for b in range(plan.boundaries):
            line = " ".join(f"{i}->{j}" for i, j in plan.pairs[b])
            pairs.append((f"plan_boundary_{b + 1}", line))
    _emit(args, pairs)
    return 0 if verdict.optimal else 1


def _cmd_reduce(args) -> int:
    M = _read_scheme(args.file)
    reduced, removed = reduce_scheme(M)
    text = format_scheme(reduced, comment=f"reduced from {args.file}")
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    _emit(
        args,
        [("handovers_removed", removed), ("file", args.output)],
        _matrix_table(reduced),
    )
    return 0


def _cmd_stats(args) -> int:
    M = _read_scheme(args.file)
    verdict = decide_optimal(M)
    rides = count_rides(M)
    pairs = [
        ("n", M.n),
        ("m", M.m),
        ("optimal", _bool(verdict.optimal)),
    ]
    if verdict.k is not None:
        pairs.append(("k", verdict.k))
    pairs.append(("total_rides", rides.total_rides))
    pairs.append(("per_traveller", " ".join(map(str, rides.per_traveller))))
    if verdict.optimal:
        pairs.append(("excess_handovers", count_excess_handovers(M)))
    if args.plan:
        if not verdict.optimal:
            raise ValueError("per-bicycle stats need an optimal scheme")
        mounts = bicycle_itineraries(M, build_assignment_plan(M))
        pairs.append(("per_bicycle_mounts", " ".join(map(str, mounts))))
    _emit(args, pairs)
    return 0


def _cmd_sim(args) -> int:
    M = _read_scheme(args.file)
    speeds = SpeedModel(args.walk, args.cycle)
    plan = None
    if args.policy == "plan":
        plan = build_assignment_plan(M)
    trace = simulate(M, speeds, policy=args.policy, plan=plan)
    pairs = [
        ("policy", args.policy),
        ("walk", _frac(speeds.walk_speed)),
        ("cycle", _frac(speeds.cycle_speed)),
        ("makespan", _frac(trace.makespan)),
        ("stall_free", _bool(not trace.stall_events)),
        ("stalls", len(trace.stall_events)),
        ("handovers", len(trace.handover_events)),
    ]
    if trace.stall_events:
        first = min(trace.stall_events, key=lambda s: (s.start, s.post, s.traveller))
        pairs.append(("first_stall_ride", first.ride_index))
    if args.trace is not None:
        with open(args.trace, "w", encoding="utf-8", newline="") as fh:
            write_trace_csv(trace, fh)
        pairs.append(("trace", args.trace))
    _emit(args, pairs)
    return 0


def _cmd_enum(args) -> int:
    # Cross-validation lists every matrix and may be refused, so it
    # goes before the census; a bad flag is refused before either.
    if args.max_examples < 0:
        raise ValueError(f"max_examples must be at least 0, not {args.max_examples}")
    if args.cross_validate:
        mismatches = len(cross_validate(args.n, args.k))
    report = enumerate_uniform(args.n, args.k, max_examples=args.max_examples)
    pairs = [
        ("n", report.n),
        ("k", report.k),
        ("total_uniform", report.total_uniform),
        ("optimal", report.optimal_count),
        ("nonoptimal", report.nonoptimal_count),
    ]
    for idx, M in enumerate(report.minimal_nonoptimal_examples, start=1):
        pairs.append((f"example_{idx}", ";".join(_digit_rows(M.masks, M.m))))
    if args.cross_validate:
        pairs.append(("speed_ratios", " ".join(map(_frac, DEFAULT_SPEED_RATIOS))))
        pairs.append(("mismatches", mismatches))
    _emit(args, pairs)
    return 0


def _cmd_det(args) -> int:
    value = determinant_exact(cyclic_matrix(args.n, args.k))
    _emit(
        args,
        [("n", args.n), ("k", args.k), ("det", value), ("abs_det", abs(value))],
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bikerelay",
        description="Shared-bicycle relay schedules: generate, check, reduce, simulate.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--porcelain",
        action="store_true",
        help="machine-readable output: flat key: value lines only",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="write a generated scheme")
    p.add_argument("--kind", required=True,
                   choices=["cyclic", "transpose-cyclic", "circulant", "block"])
    p.add_argument("--n", type=int, required=True, help="travellers")
    p.add_argument("--k", type=int, required=True, help="bicycles")
    p.add_argument("--r", type=int, default=None,
                   help="stage blocks (block kind), default 1")
    p.add_argument("-o", "--output", default=None,
                   help="output file; stdout when omitted")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check", parents=[common], help="decide optimality of a scheme file")
    p.add_argument("file", help="matrix file, or - for stdin")
    p.add_argument("--witness", action="store_true",
                   help="also print the failing rows or a full handover plan")
    p.add_argument("--tie-order", default="drop-first",
                   choices=[o.value for o in TieOrder],
                   help="rank order for equal ride counts (default drop-first)")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("reduce", parents=[common], help="eliminate excess handovers")
    p.add_argument("file", help="matrix file, or - for stdin")
    p.add_argument("-o", "--output", required=True, help="file for the reduced scheme")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("stats", parents=[common], help="ride and handover counts")
    p.add_argument("file", help="matrix file, or - for stdin")
    p.add_argument("--plan", action="store_true",
                   help="also trace bicycles through the canonical plan")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("sim", parents=[common], help="execute a scheme exactly")
    p.add_argument("file", help="matrix file, or - for stdin")
    p.add_argument("--walk", type=_speed, default=Fraction(1),
                   help="walking speed as P/Q (default 1)")
    p.add_argument("--cycle", type=_speed, default=Fraction(2),
                   help="cycling speed as P/Q (default 2)")
    p.add_argument("--policy", default="greedy", choices=["greedy", "plan"])
    p.add_argument("--trace", default=None, metavar="FILE.csv",
                   help="write the event trace as CSV")
    p.set_defaults(func=_cmd_sim)

    p = sub.add_parser("enum", parents=[common],
                       help="enumerate all uniform matrices for (n, k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cross-validate", action="store_true",
                   help="execute every matrix and compare with the word verdict")
    p.add_argument("--max-examples", type=int, default=4,
                   help="cap on non-optimal examples to print (default 4)")
    p.set_defaults(func=_cmd_enum)

    p = sub.add_parser("det", parents=[common],
                       help="exact determinant of the cyclic matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_det)
    return parser


# One parser per process: parse_args builds a fresh Namespace on every call
# and leaves the parser unchanged, and run never mutates it.
_parser = functools.cache(build_parser)


def run(argv) -> int:
    """Parse and execute a command line; returns the exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SchemeFormatError as exc:
        print(f"error: bad matrix file: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed the output early (say, `| head`): not bad input.
        return 0
    except (ValueError, OSError, DeadlockError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone; send what is left to devnull, so that the
        # flush at interpreter exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
