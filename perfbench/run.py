"""bikerelay benchmark: one workload per run, a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the repository root; the package is imported from ./src, so
the benchmark measures the checkout it sits in.  Workloads:
verdict-large, execute-mid, census (see README.md beside this file).

--trace 0 sets the workload up three to nine times (setup_s is the
median, plus the import time), then runs whole rounds of the workload's pool of
operations until --seconds of operation time have passed (and at least
100 operations for verdict-large and execute-mid).  Each round runs the
same operations in a new seeded order; the time metrics take each
operation's median repetition.  Every time metric is rescaled to a
fixed host speed (see hostclock.py), because the shared host's speed
swings by a third and more.  Every output is checked; the last line of
stdout is one JSON object with the end-to-end metrics.

--trace 1 prints the per-layer metrics instead.  It sets up all three
workloads, runs the chosen one untraced for half of --seconds and then
traced for as many rounds, reports the difference as
trace_overhead_frac, and runs one traced round of each other workload
so that every per-layer metric is measured.

--self-check corrupts one output per workload and confirms it is
counted as failed, and confirms that every metric named in
BENCHMARK.json is emitted with its unit.

Exit codes: 0 with a result; 1 when the benchmark is inconsistent with
BENCHMARK.json or a self-check fails; 2 when there is no package to
measure or the arguments are bad.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter

from hostclock import HostClock
from spans import NullTracer, Tracer, quantile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Set-up is repeated at least SETUP_MIN_REPS times, and more (up to
# SETUP_MAX_REPS) while the repetitions so far took under SETUP_SECONDS,
# so that a cheap set-up still gets a steady median.
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_SECONDS = 3, 9, 3.0


def settle():
    """Collect, then exempt everything alive from later collections.

    The workload's inputs stay alive for the whole run, which a fresh
    CLI process would not hold; without this, cyclic collections that
    walk them land on whichever operation happens to trigger them.
    """
    gc.collect()
    gc.freeze()


def import_workloads():
    """Import the workloads (and with them bikerelay from ./src); returns (classes, rescaled import time in s)."""
    if not os.path.isfile(os.path.join(SRC, "bikerelay", "__init__.py")):
        print(f"perfbench: no bikerelay package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    clock = HostClock()
    t0 = clock.start()
    from census import Census
    from execute_mid import ExecuteMid
    from verdict_large import VerdictLarge

    import_s = clock.stop(t0)[1]
    classes = {cls.name: cls for cls in (VerdictLarge, ExecuteMid, Census)}
    return classes, import_s


class Phase:
    """Outcome of running rounds of one workload.

    Every round runs the same pool of operations, so each operation is
    repeated once per round.  Each repetition's latency is kept twice:
    as measured, and rescaled to the reference host speed (HostClock);
    the time metrics are built from the rescaled ones.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.round_counts: list[Counter] = []
        self.scaled: dict[object, list[float]] = {}  # operation -> rescaled latencies
        self.matrices: dict[object, int] = {}  # operation -> matrices it handles

    @property
    def elapsed(self):
        return sum(self.latencies)

    def typical(self):
        """Each operation's median rescaled latency, in seconds."""
        return {op: statistics.median(ts) for op, ts in self.scaled.items()}

    @property
    def round_s(self):
        """Seconds one round takes at reference speed, each operation at its median."""
        return sum(self.typical().values())


def run_phase(wl, tr, *, seconds=0.0, rounds=None, min_ops=0, min_rounds=1, corrupt=False):
    """Run whole rounds of wl's pool; stop after `rounds`, or once enough has run.

    Only the operation itself is timed; probes (traced runs) and output
    checks run outside the timed interval, after the reference sample
    that closes it.  With corrupt, the first output is damaged before
    its check, to show that checks bite.
    """
    ph = Phase()
    clock = HostClock()
    while True:
        counts = Counter()
        for op in wl.round():
            tr.begin(**wl.attrs(op))
            t0 = clock.start()
            try:
                out = wl.run(op, tr)
                error = None
            except Exception:  # an operation that raises is a failed operation
                error = traceback.format_exc()
            measured, scaled = clock.stop(t0)
            tr.end(t0, t0 + measured)
            ph.latencies.append(measured)
            ph.scaled.setdefault(op, []).append(scaled)
            ph.attempted += 1
            damaged = corrupt and ph.attempted == 1
            if error is None:
                if tr.enabled:
                    wl.probe(op, tr)
                if damaged:
                    out = wl.corrupt(op, out)
                try:
                    problems = wl.check(op, out)
                    counts.update(wl.counts(op, out))
                    ph.matrices[op] = wl.matrices(op, out)
                except Exception:
                    problems = [traceback.format_exc()]
            else:
                problems = [error]
            if problems:
                ph.failed += 1
                if not damaged:
                    print(f"perfbench: {wl.name} {wl.attrs(op)}: {'; '.join(problems)}", file=sys.stderr)
        ph.round_counts.append(counts)
        done = len(ph.round_counts)
        if rounds is not None:
            if done >= rounds:
                return ph
        elif ph.elapsed >= seconds and len(ph.latencies) >= min_ops and done >= min_rounds:
            return ph


def end_to_end(ph, setup_s):
    typical = ph.typical()
    typical_ms = [1000 * t for t in typical.values()]
    return {
        "ops_per_s": (len(typical) / ph.round_s, "1/s"),
        "op_ms.p50": (quantile(typical_ms, 0.5), "ms"),
        "op_ms.p90": (quantile(typical_ms, 0.9), "ms"),
        "matrices_per_s": (sum(ph.matrices.values()) / ph.round_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }


def check_names(metrics, key):
    """Every metric BENCHMARK.json lists under key is emitted, with its unit, and no other."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        want = {m["name"]: m["unit"] for m in json.load(fh)[key]}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        print(
            f"perfbench: {key} metrics differ from BENCHMARK.json: "
            f"missing {missing}, extra {extra}, unit differs {units}",
            file=sys.stderr,
        )
        return False
    return True


def git_sha():
    """The checked-out commit, read from .git without running git; 'unknown' outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


def measure(cls, seed, seconds, import_s, workdir):
    """--trace 0: end-to-end metrics of one workload."""
    tr = NullTracer()
    setups, scaled = [], []
    while len(setups) < SETUP_MIN_REPS or (
        len(setups) < SETUP_MAX_REPS and sum(setups) < SETUP_SECONDS
    ):
        wl = None  # release the previous set-up before building the next
        gc.collect()
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        clock = HostClock()
        t0 = clock.start()
        wl = cls(seed, workdir, tr)
        measured, at_reference = clock.stop(t0)
        setups.append(measured)
        scaled.append(at_reference)
    settle()
    ph = run_phase(wl, tr, seconds=seconds, min_ops=wl.min_ops, min_rounds=wl.min_rounds)
    metrics = end_to_end(ph, import_s + statistics.median(scaled))
    info = [
        f"set-up runs {len(setups)}, as measured: " + " ".join(f"{s:.3f}" for s in setups)
        + " s; at reference speed: " + " ".join(f"{s:.3f}" for s in scaled) + " s",
        f"operations {ph.attempted} in {len(ph.round_counts)} rounds of the same "
        f"{len(ph.scaled)}, operation time {ph.elapsed:.3f} s as measured; time metrics "
        f"use each operation's median of {len(ph.round_counts)} at reference speed "
        f"(latency samples {ph.attempted})",
        f"host speed: operation time at reference speed / as measured "
        f"{sum(map(sum, ph.scaled.values())) / ph.elapsed:.3f}",
        f"failed_frac {ph.failed / ph.attempted} ({ph.failed} of {ph.attempted})",
    ]
    return metrics, ph.attempted, ph.failed, True, info


def measure_traced(classes, name, seed, seconds, workdir):
    """--trace 1: per-layer metrics, with the named workload's tracing overhead."""
    tracers = {n: Tracer() for n in classes}
    workloads = {}
    for n, cls in classes.items():
        os.makedirs(os.path.join(workdir, n))
        workloads[n] = cls(seed, os.path.join(workdir, n), tracers[n])
    settle()
    chosen = workloads[name]
    plain = run_phase(chosen, NullTracer(), seconds=seconds / 2)
    phases = {name: run_phase(chosen, tracers[name], rounds=len(plain.round_counts))}
    for n, wl in workloads.items():
        if n != name:
            phases[n] = run_phase(wl, tracers[n], rounds=1)
    metrics = {}
    for n, wl in workloads.items():
        metrics.update(wl.layer_metrics(tracers[n], phases[n].round_counts[0]))
    traced = phases[name]
    metrics["trace_overhead_frac"] = (
        traced.round_s / plain.round_s - 1,
        "frac",
    )
    # Counts are per round and every round does the same work.
    reference = plain.round_counts[0]
    counts_ok = all(c == reference for c in plain.round_counts + traced.round_counts)
    attempted = plain.attempted + sum(p.attempted for p in phases.values())
    failed = plain.failed + sum(p.failed for p in phases.values())
    tr = tracers[name]
    op_time = sum(tr.durations("op"))
    names = sorted({span for op, span, _, _ in tr.spans if "phase" not in tr.ops[op]} - {"op"})
    shares = ", ".join(
        f"{span} {sum(tr.durations(span, phase=None)) / op_time:.1%}" for span in names
    )
    info = [
        f"time in each call as a share of {name} operation time: {shares}",
        f"untraced rounds {len(plain.round_counts)} ({plain.elapsed:.3f} s), "
        f"traced rounds {len(traced.round_counts)} ({traced.elapsed:.3f} s), "
        f"other workloads one traced round each",
        f"counts per round, untraced vs traced: {'equal' if counts_ok else 'DIFFERENT'} {dict(reference)}",
        f"failed_frac {failed / attempted} ({failed} of {attempted})",
    ]
    if not counts_ok:
        print(f"perfbench: traced counts differ from untraced: {plain.round_counts + traced.round_counts}", file=sys.stderr)
    return metrics, attempted, failed, counts_ok, info


def self_check(classes, workdir):
    ok = True
    for name, cls in classes.items():
        path = os.path.join(workdir, name)
        os.makedirs(path)
        wl = cls(0, path, NullTracer())
        ph = run_phase(wl, NullTracer(), rounds=1, corrupt=True)
        bites = ph.failed == 1
        ok &= bites
        print(
            f"{name}: one corrupted output -> failed {ph.failed} of {ph.attempted}, "
            f"failed_frac {ph.failed / ph.attempted:.4f} ({'ok' if bites else 'NOT COUNTED'})"
        )
        ok &= check_names(end_to_end(ph, 0.0), "end_to_end")
    shutil.rmtree(workdir)
    metrics, _, failed, counts_ok, info = measure_traced(classes, "execute-mid", 0, 1, workdir)
    print("\n".join(info))
    ok &= counts_ok and failed == 0 and check_names(metrics, "per_layer")
    print("self-check", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description="bikerelay benchmark")
    parser.add_argument("--workload", choices=["verdict-large", "execute-mid", "census"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    classes, import_s = import_workloads()
    workdir = os.path.join(ROOT, ".bench_build", "perfbench", str(os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        if args.self_check:
            return self_check(classes, workdir)
        if args.trace:
            key = "per_layer"
            metrics, attempted, failed, consistent, info = measure_traced(
                classes, args.workload, args.seed, args.seconds, workdir
            )
        else:
            key = "end_to_end"
            metrics, attempted, failed, consistent, info = measure(
                classes[args.workload], args.seed, args.seconds, import_s, workdir
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not check_names(metrics, key):
        return 1

    print(
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}  "
        f"git {git_sha()}  python {platform.python_version()}  nproc {nproc()}"
    )
    for line in info:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0 and consistent,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
