"""execute-mid: the library calls behind `sim --trace`, `sim --policy plan`,
`stats --plan` and `reduce`, on mid-sized schemes.

Exact event simulation, trace output and cohort sampling dominate;
there is no parsing and the word scan is small.  n = 48 is in the pool
on purpose, so the cubic growth of cohort_profile shows.

Every expectation is derived at set-up without the layer it checks:
the stall-free verdict from the word test, the makespan from the line
sums, handover and trace-row counts from the 0 -> 1 transitions, the
swap count from a closed form over tied droppers and takers.
"""

from __future__ import annotations

import io
import random
from fractions import Fraction

from bikerelay.generators import (
    circulant_matrix,
    cyclic_matrix,
    transpose_cyclic_matrix,
)
from bikerelay.optimality import build_assignment_plan, decide_optimal
from bikerelay.reduction import (
    bicycle_itineraries,
    count_excess_handovers,
    reduce_scheme,
)
from bikerelay.scheme import BinaryScheme
from bikerelay.simulate import (
    SpeedModel,
    cohort_profile,
    first_stall_ride_index,
    is_executable_without_stall,
    simulate,
    write_trace_csv,
)

from common import line_sums
from spans import NullTracer, median

SIZES = (16, 24, 32, 48)
RATIOS = (Fraction(3, 2), Fraction(2), Fraction(10))


def takers(rows):
    """Number of (traveller, post) pairs where a walker starts riding."""
    return sum(1 for r in rows for a, b in zip(r, r[1:]) if b and not a)


def tied_pairs(rows):
    """Sum over boundaries and ride counts of min(#droppers, #takers).

    A dropper and a taker with equal ride counts meet at the post at
    the same moment; each such pair is one removable handover.
    """
    n, m = len(rows), len(rows[0])
    total = 0
    ridden = [0] * n
    for b in range(m - 1):
        tally: dict[int, list[int]] = {}
        for i, row in enumerate(rows):
            ridden[i] += row[b]
            if row[b] != row[b + 1]:
                tally.setdefault(ridden[i], [0, 0])[row[b + 1]] += 1
        total += sum(min(pair) for pair in tally.values())
    return total


class Execution:
    """One scheme at one speed ratio, with what its outputs must satisfy."""

    def __init__(self, n, family, scheme, ratio):
        self.n, self.family, self.scheme = n, family, scheme
        self.speeds = SpeedModel(1, ratio)
        rows = scheme.rows
        self.m = len(rows[0])
        self.k = sum(r[0] for r in rows)
        self.l = sum(rows[0])
        self.sums = line_sums(rows)
        self.takers = takers(rows)
        self.stall_free = decide_optimal(scheme).optimal
        speeds = self.speeds
        self.makespan = (self.m - self.l) / speeds.walk_speed + self.l / speeds.cycle_speed
        self.excess = tied_pairs(rows) if self.stall_free else None


class ExecuteMid:
    name = "execute-mid"
    min_ops = 100
    min_rounds = 1

    def __init__(self, seed, workdir, tracer):
        self.rng = random.Random(seed)
        schemes = []
        for n in SIZES:
            k = n // 3
            schemes += [
                (n, "cyclic", cyclic_matrix(n, k)),
                (n, "circulant", circulant_matrix(n, k)),
                (n, "transpose-cyclic", transpose_cyclic_matrix(n, k)),
                (n, "reduced", reduce_scheme(transpose_cyclic_matrix(n, n // 4))[0]),
                (n, "permuted", self._stalling(n, k)),
            ]
        self.pool = [
            Execution(n, family, M, RATIOS[idx % len(RATIOS)])
            for idx, (n, family, M) in enumerate(schemes)
        ]
        # Warm-up: every family and both kinds of operation, at the two
        # smallest sizes.
        for job in self.pool:
            if job.n <= SIZES[1]:
                self.run(job, NullTracer())

    def _stalling(self, n, k):
        """A seeded column permutation of cyclic(n, k) that the word test rejects."""
        base = cyclic_matrix(n, k)
        cols = list(range(n))
        for _ in range(100):
            self.rng.shuffle(cols)
            M = BinaryScheme(tuple(row[c] for c in cols) for row in base.rows)
            if not decide_optimal(M).optimal:
                return M
        raise RuntimeError(f"no stalling permutation of cyclic({n}, {k}) found")

    def round(self):
        ops = list(self.pool)
        self.rng.shuffle(ops)
        return ops

    def attrs(self, job):
        return {"n": job.n, "family": job.family}

    def run(self, job, tr):
        M, speeds = job.scheme, job.speeds
        greedy = tr.call("simulate.simulate.greedy", simulate, M, speeds)
        buf = io.StringIO()
        tr.call("simulate.write_trace_csv", write_trace_csv, greedy, buf)
        out = {"greedy": greedy, "csv": buf.getvalue()}
        if job.stall_free:
            out["cohort"] = tr.call("simulate.cohort_profile", cohort_profile, greedy)
            plan = tr.call("optimality.build_assignment_plan", build_assignment_plan, M)
            out["plan"] = tr.call(
                "simulate.simulate.plan", simulate, M, speeds, policy="plan", plan=plan
            )
            out["reduced"], out["swaps"] = tr.call(
                "reduction.reduce_scheme", reduce_scheme, M
            )
            out["excess"] = tr.call(
                "reduction.count_excess_handovers", count_excess_handovers, M
            )
            out["mounts"] = tr.call(
                "reduction.bicycle_itineraries", bicycle_itineraries, M, plan
            )
        else:
            out["first_stall"] = tr.call(
                "simulate.first_stall_ride_index", first_stall_ride_index, M, speeds
            )
            out["executable"] = tr.call(
                "simulate.is_executable_without_stall",
                is_executable_without_stall,
                M,
                speeds,
            )
        return out

    def probe(self, job, tr):
        pass

    def check(self, job, out):
        greedy = out["greedy"]
        stalls, handovers = len(greedy.stall_events), len(greedy.handover_events)
        problems = []
        if (stalls == 0) != job.stall_free:
            problems.append(f"stall_free {stalls == 0}, verdict {job.stall_free}")
        if handovers != job.takers:
            problems.append(f"{handovers} handovers, {job.takers} takers")
        rows = out["csv"].count("\n") - 1
        want = 2 * job.n * job.m + 2 * stalls + handovers
        if rows != want:
            problems.append(f"{rows} trace rows, expected {want}")
        if job.stall_free:
            if greedy.makespan != job.makespan:
                problems.append(f"makespan {greedy.makespan}, expected {job.makespan}")
            plan = out["plan"]
            if plan.stall_events or plan.makespan != job.makespan:
                problems.append("plan execution stalls or finishes late")
            if len(plan.handover_events) != job.takers:
                problems.append("plan execution hands over the wrong number of bicycles")
            reduced = out["reduced"]
            if line_sums(reduced.rows) != job.sums:
                problems.append("reduce_scheme changed line sums")
            if not decide_optimal(reduced).optimal:
                problems.append("reduce_scheme lost the verdict")
            if not out["swaps"] == out["excess"] == job.excess:
                problems.append(
                    f"swaps {out['swaps']}, excess {out['excess']}, expected {job.excess}"
                )
            mounts = out["mounts"]
            if len(mounts) != job.k or sum(mounts) != job.k + job.takers:
                problems.append(f"mounts {mounts} do not fit {job.k} bicycles")
            c = out["cohort"]
            if not (
                1 <= c.max_positions <= job.n
                and 0 <= c.max_adjacent_gap <= c.max_spread <= job.m
            ):
                problems.append(f"cohort profile out of range: {c}")
        else:
            if out["executable"] is not False:
                problems.append("is_executable_without_stall accepts a stalling scheme")
            first = min(greedy.stall_events, key=lambda s: (s.start, s.post, s.traveller), default=None)
            got = out["first_stall"]
            if first is None or got != first.ride_index or not 1 <= got <= job.l:
                problems.append(f"first stall ride {got}, trace says {first}")
        return problems

    def corrupt(self, job, out):
        return dict(out, csv=out["csv"] + "0/1,0,0,arrive,\n")

    def counts(self, job, out):
        greedy = out["greedy"]
        plan = out.get("plan")
        return {
            "simulate.handovers": len(greedy.handover_events)
            + (len(plan.handover_events) if plan else 0),
            "simulate.stalls": len(greedy.stall_events)
            + (len(plan.stall_events) if plan else 0),
            "simulate.trace_rows": out["csv"].count("\n") - 1,
            "reduction.swaps": out.get("swaps", 0),
        }

    def matrices(self, job, out):
        return 1

    def layer_metrics(self, tr, counts):
        out = {}
        for name in (
            "simulate.simulate.greedy",
            "simulate.simulate.plan",
            "simulate.write_trace_csv",
            "simulate.cohort_profile",
            "simulate.first_stall_ride_index",
            "optimality.build_assignment_plan",
            "reduction.reduce_scheme",
            "reduction.count_excess_handovers",
            "reduction.bicycle_itineraries",
        ):
            out[f"{name}.ms"] = (1000 * median(tr.durations(name)), "ms")
        out["simulate.is_executable_without_stall.us"] = (
            1e6 * median(tr.durations("simulate.is_executable_without_stall")),
            "us",
        )
        for name in ("simulate.handovers", "simulate.stalls", "simulate.trace_rows", "reduction.swaps"):
            out[name] = (counts[name], "count")
        return out
