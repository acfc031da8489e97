"""Exact discrete-event execution of a scheme on the linear journey.

All k bicycles start at post 0; stages have unit length.  Walking
stages start the moment the traveller reaches the post.  A riding
stage starts when both the traveller and a bicycle are there; waiting
for one is a stall.  Under the greedy policy a traveller takes the
lowest-numbered bicycle parked on arrival, or waits for the earliest
incoming one; simultaneous arrivals are served lowest row first.
Under a plan policy each traveller waits for the specific bicycle the
plan assigns.

Times and positions are exact.  One executor, _execute, counts whole
ticks of a clock on which both stage durations are integers, and
simulate turns its ticks into Fractions.  Simultaneous arrivals (equal
ride counts) are exactly the handovers the optimality theory relies
on, so float rounding would turn ties into races and change verdicts.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import lcm
from typing import IO

from .optimality import AssignmentPlan, _structural_violation
from .scheme import BinaryScheme, _mask_rows


@dataclass(frozen=True)
class SpeedModel:
    """Walking and cycling speeds in units per time, cycling faster."""

    walk_speed: Fraction
    cycle_speed: Fraction

    def __post_init__(self):
        object.__setattr__(self, "walk_speed", Fraction(self.walk_speed))
        object.__setattr__(self, "cycle_speed", Fraction(self.cycle_speed))
        if self.walk_speed <= 0:
            raise ValueError("walk speed must be positive")
        if self.cycle_speed <= self.walk_speed:
            raise ValueError("cycling must be strictly faster than walking")


DEFAULT_SPEEDS = SpeedModel(Fraction(1), Fraction(2))


class DeadlockError(RuntimeError):
    """A traveller is due to ride but no bicycle can ever reach them."""

    def __init__(self, post: int):
        super().__init__(f"no bicycle can reach a rider waiting at post {post}")
        self.post = post


@dataclass(frozen=True)
class StallEvent:
    """A traveller waiting at a post for a bicycle.

    ride_index is the 1-based ordinal of the riding stage being
    attempted (stages ridden so far plus one).
    """

    traveller: int
    post: int
    start: Fraction
    wait: Fraction
    ride_index: int


@dataclass(frozen=True)
class HandoverEvent:
    """A bicycle changing rider at a boundary post."""

    time: Fraction
    post: int
    giver: int
    taker: int
    bike: int


@dataclass(frozen=True)
class SimulationTrace:
    """Complete timing record of one execution.

    post_arrival_times[i][p] is when traveller i reaches post p
    (n x (m+1)); depart_times[i][j] is when they leave post j into
    stage j (n x m); stage_bike[i][j] is the bicycle ridden on stage
    j, None when walking.
    """

    scheme: BinaryScheme
    speeds: SpeedModel
    policy: str
    post_arrival_times: tuple[tuple[Fraction, ...], ...]
    depart_times: tuple[tuple[Fraction, ...], ...]
    stage_bike: tuple[tuple[int | None, ...], ...]
    stall_events: tuple[StallEvent, ...]
    handover_events: tuple[HandoverEvent, ...]
    makespan: Fraction


def simulate(
    M: BinaryScheme,
    speeds: SpeedModel | None = None,
    policy: str = "greedy",
    plan: AssignmentPlan | None = None,
) -> SimulationTrace:
    """Run a scheme to completion and record every event.

    Args:
        M: the scheme; bicycle count is its first column sum.
        speeds: walking/cycling speeds, walk 1 cycle 2 by default.
        policy: "greedy" or "plan".
        plan: required for the plan policy.  Its shape (domains,
            ranges, injectivity, fixed rows) must be right; a plan
            that merely hands bicycles to faster-ridden travellers is
            allowed and produces stalls.

    Raises:
        ValueError: unknown policy, or a missing/malformed plan.
        DeadlockError: a rider's stage has no bicycle supply at all
            (never happens for uniform schemes).
    """
    if speeds is None:
        speeds = DEFAULT_SPEEDS
    givers = None
    if policy == "plan":
        if plan is None:
            raise ValueError("plan policy needs a plan")
        bad = _structural_violation(M, plan)
        if bad is not None:
            raise ValueError(f"malformed plan: {bad}")
        givers = [{t: g for g, t in pairs if g != t} for pairs in plan.pairs]
    elif policy != "greedy":
        raise ValueError(f"unknown policy {policy!r}")

    log = _Log()
    _execute(M, *_stage_ticks(speeds), givers, log)
    # Every departure is some traveller's arrival at the same post, so
    # the arrivals and the waits hold every tick; each distinct tick
    # becomes one Fraction, shared by every field that holds it.
    per_unit = speeds.walk_speed.numerator * speeds.cycle_speed.numerator
    ticks = set().union(*log.arrive)
    ticks.update(s[3] for s in log.stalls)
    at = {x: Fraction(x, per_unit) for x in ticks}.__getitem__
    return SimulationTrace(
        scheme=M,
        speeds=speeds,
        policy=policy,
        post_arrival_times=tuple(tuple(map(at, r)) for r in zip(*log.arrive)),
        depart_times=tuple(tuple(map(at, r)) for r in zip(*log.depart)),
        stage_bike=tuple(zip(*log.bikes)),
        stall_events=tuple(
            StallEvent(i, j, at(start), at(wait), ride)
            for start, j, i, wait, ride in log.stalls
        ),
        handover_events=tuple(
            HandoverEvent(at(t), j, giver, taker, bike)
            for t, j, giver, taker, bike in log.handovers
        ),
        makespan=at(max(log.arrive[-1])),
    )


class _Log:
    """What _execute records of a run, in ticks and by post.

    arrive[p][i] is when traveller i reaches post p, depart[j][i] when
    they leave post j and bikes[j][i] the bicycle they ride on stage j
    (None when walking).  stalls holds (start, post, traveller, wait,
    ride index) and handovers (time, post, giver, taker, bike), in the
    order they happen post by post.
    """

    __slots__ = ("arrive", "depart", "bikes", "stalls", "handovers")

    def __init__(self):
        self.arrive, self.depart, self.bikes = [], [], []
        self.stalls, self.handovers = [], []


def _execute(M, walk: int, ride: int, givers=None, log: _Log | None = None) -> bool:
    """Run M on the integer clock; whether nobody stalls.

    A stage takes walk or ride whole ticks (see _stage_ticks).  All
    bicycles start at post 0, numbered 0, 1, ... over the riders of
    stage 0 in row order.  At post j the droppers are C[j-1] & ~C[j]
    and the takers C[j] & ~C[j-1], with C the column masks; everybody
    else leaves on arrival.  With givers None (greedy) the takers are
    served in (arrival, row) order and the r-th leaves at the later of
    their arrival and the r-th earliest drop, on the lowest-numbered
    bicycle parked by then: first come first served.  Otherwise
    givers[j-1] maps each taker to the dropper whose bicycle they wait
    for, and the takers are served in row order.

    Without a log the run stops at the first stall, or at the first
    post with more takers than droppers, and returns False.  With a
    log (needed for givers) it runs to the end and records every
    event.

    Raises:
        DeadlockError: with a log, at the first post where a taker has
            no bicycle to wait for.
    """
    rows, cols, n, m = M.rows, M.col_masks, M.n, M.m
    cur = [0] * n  # each traveller's tick at the current post
    bike: list[int | None] = [None] * n
    if log is not None:
        for b, i in enumerate(_mask_rows(cols[0])):
            bike[i] = b
        log.arrive.append(cur[:])
    for j in range(1, m + 1 if log is not None else m):
        if log is not None:
            log.depart.append(cur[:])
            log.bikes.append(bike)
        for i in range(n):
            cur[i] += ride if rows[i][j - 1] else walk
        if log is not None:
            log.arrive.append(cur[:])
        if j == m:
            break
        prev, col = cols[j - 1], cols[j]
        droppers, takers = _mask_rows(prev & ~col), _mask_rows(col & ~prev)
        if givers is None and len(takers) > len(droppers):
            if log is None:
                return False
            raise DeadlockError(j)
        if log is None:
            if takers:
                drops = sorted([cur[i] for i in droppers])
                for r, t_arr in enumerate(sorted([cur[i] for i in takers])):
                    if drops[r] > t_arr:
                        return False
            continue
        if givers is None:
            matches = _first_come(takers, droppers, cur, bike)
        else:
            matches = _as_planned(j, takers, givers[j - 1], cur)
        held, bike = bike, [b if row[j] else None for b, row in zip(bike, rows)]
        for taker, giver, dep in matches:
            t_arr = cur[taker]
            if dep > t_arr:
                ride_index = (M.masks[taker] & ((1 << j) - 1)).bit_count() + 1
                log.stalls.append((t_arr, j, taker, dep - t_arr, ride_index))
                cur[taker] = dep
            bike[taker] = held[giver]
            log.handovers.append((dep, j, giver, taker, held[giver]))
    return log is None or not log.stalls


def _first_come(takers, droppers, at, bike):
    """Greedy (taker, giver, departure) matches at one post, in service order.

    Serving the takers one by one from the parked bicycles, the r-th
    taker leaves at the later of their arrival and the r-th earliest
    drop, and every bicycle dropped by then and not yet taken is
    parked; they take the lowest-numbered one.
    """
    takers = sorted(takers, key=at.__getitem__)
    droppers = sorted(droppers, key=at.__getitem__)
    parked: list[tuple[int, int]] = []  # (bicycle, giver) heap
    dropped = 0
    matches = []
    for r, taker in enumerate(takers):
        dep = max(at[taker], at[droppers[r]])
        while dropped < len(droppers) and at[droppers[dropped]] <= dep:
            giver = droppers[dropped]
            heappush(parked, (bike[giver], giver))
            dropped += 1
        matches.append((taker, heappop(parked)[1], dep))
    return matches


def _as_planned(j, takers, givers, at):
    """Planned (taker, giver, departure) matches at post j, in row order."""
    matches = []
    for taker in takers:
        giver = givers.get(taker)
        if giver is None:
            raise DeadlockError(j)
        matches.append((taker, giver, max(at[taker], at[giver])))
    return matches


def _stage_ticks(speeds: SpeedModel) -> tuple[int, int]:
    """Integer per-stage durations on a common clock (walk, ride).

    A tick is 1 / (walk numerator * cycle numerator) time units.
    """
    t_walk = Fraction(1) / speeds.walk_speed
    t_ride = Fraction(1) / speeds.cycle_speed
    return (
        t_walk.numerator * t_ride.denominator,
        t_ride.numerator * t_walk.denominator,
    )


def is_executable_without_stall(
    M: BinaryScheme, speeds: SpeedModel | None = None
) -> bool:
    """Whether the greedy execution finishes with no stall (nor deadlock)."""
    return _execute(M, *_stage_ticks(speeds or DEFAULT_SPEEDS))


def first_stall_ride_index(
    M: BinaryScheme, speeds: SpeedModel | None = None
) -> int | None:
    """Ride ordinal attempted at the earliest greedy stall, None if none.

    The earliest stall is by start time, then post, then row.

    Raises:
        DeadlockError: as simulate does.
    """
    log = _Log()
    _execute(M, *_stage_ticks(speeds or DEFAULT_SPEEDS), log=log)
    return min(log.stalls)[4] if log.stalls else None


@dataclass(frozen=True)
class CohortProfile:
    """How bunched the group stays during a stall-free run.

    max_positions: most distinct positions held at any sampled moment.
    max_adjacent_gap: largest gap between neighbouring distinct
    positions.  max_spread: largest distance between the leader and
    the straggler.
    """

    max_positions: int
    max_adjacent_gap: Fraction
    max_spread: Fraction


def cohort_profile(trace: SimulationTrace) -> CohortProfile:
    """Sample a stall-free trace at every event time and midpoint.

    The samples are every arrival and departure time plus the midpoint
    of each pair of consecutive ones.  Positions are piecewise linear
    between events, so counts and gap extrema over an interval show up
    either at its ends or at a single interior sample; one midpoint per
    interval therefore suffices.

    The sweep runs on an exact integer clock.  A tick is 1/T with T
    twice the lcm of the time denominators, so every midpoint is a
    whole tick; a stage is T*D position units with D the lcm of the two
    speed denominators, so a traveller moves a whole number of units
    per tick.  Each traveller keeps a pointer into their own departures
    and arrivals that only moves forward as the samples ascend, so S
    samples (S < 2n(2m+1)) cost O(S * n log n) integer operations.
    The gap and spread come back as Fractions.

    Raises:
        ValueError: the trace has stalls.
    """
    if trace.stall_events:
        raise ValueError("cohort profile requires a stall-free trace")
    arrivals, departures = trace.post_arrival_times, trace.depart_times
    T = 2 * lcm(*{t.denominator for row in arrivals + departures for t in row})
    walk, cycle = trace.speeds.walk_speed, trace.speeds.cycle_speed
    D = lcm(walk.denominator, cycle.denominator)
    unit = T * D
    # Position units covered per tick, walking and riding.
    pace = (
        walk.numerator * (D // walk.denominator),
        cycle.numerator * (D // cycle.denominator),
    )

    n, m = trace.scheme.n, trace.scheme.m
    # edges[i] lists traveller i's ticks depart 0, arrive 1, depart 1,
    # ..., arrive m: before edges[i][2j] they wait at post j, before
    # edges[i][2j+1] they are on stage j.
    edges = [
        [
            t.numerator * (T // t.denominator)
            for pair in zip(departures[i], arrivals[i][1:])
            for t in pair
        ]
        for i in range(n)
    ]
    times = {row[0].numerator * (T // row[0].denominator) for row in arrivals}
    for e in edges:
        times.update(e)
    ordered = sorted(times)
    samples = ordered[:1]
    for a, b in zip(ordered, ordered[1:]):
        samples.append((a + b) // 2)
        samples.append(b)

    bikes = trace.stage_bike
    end = 2 * m
    ptr = [0] * n
    max_positions = 1
    max_gap = 0
    max_spread = 0
    for tau in samples:
        spots = set()
        for i in range(n):
            e = edges[i]
            p = ptr[i]
            while p < end and e[p] <= tau:
                p += 1
            ptr[i] = p
            j, moving = divmod(p, 2)
            if moving:
                spots.add(j * unit + (tau - e[p - 1]) * pace[bikes[i][j] is not None])
            else:
                spots.add(j * unit)
        here = sorted(spots)
        max_positions = max(max_positions, len(here))
        max_spread = max(max_spread, here[-1] - here[0])
        for a, b in zip(here, here[1:]):
            if b - a > max_gap:
                max_gap = b - a
    return CohortProfile(max_positions, Fraction(max_gap, unit), Fraction(max_spread, unit))


_EVENT_RANK = {
    "arrive": 0,
    "stall_begin": 1,
    "stall_end": 2,
    "handover": 3,
    "depart_walk": 4,
    "depart_ride": 4,
}


def _frac(t: Fraction) -> str:
    return f"{t.numerator}/{t.denominator}"


def write_trace_csv(trace: SimulationTrace, out: IO[str]):
    """Dump a trace as CSV: time,traveller,post,event,bike.

    Times are exact fractions p/q.  The traveller on a handover row is
    the taker; the giver's own movements appear on their own rows.
    """
    rows = []
    n, m = trace.scheme.n, trace.scheme.m
    for i in range(n):
        for j in range(m):
            bike = trace.stage_bike[i][j]
            rows.append(
                (
                    trace.depart_times[i][j],
                    i,
                    j,
                    "depart_walk" if bike is None else "depart_ride",
                    "" if bike is None else bike,
                )
            )
            rows.append(
                (
                    trace.post_arrival_times[i][j + 1],
                    i,
                    j + 1,
                    "arrive",
                    "" if bike is None else bike,
                )
            )
    for s in trace.stall_events:
        rows.append((s.start, s.traveller, s.post, "stall_begin", ""))
        rows.append((s.start + s.wait, s.traveller, s.post, "stall_end", ""))
    for h in trace.handover_events:
        rows.append((h.time, h.taker, h.post, "handover", h.bike))
    # Sorting on whole ticks of 1/T orders rows exactly as their
    # Fraction times would, without Fraction comparisons.
    T = lcm(*{r[0].denominator for r in rows})
    rows.sort(
        key=lambda r: (
            r[0].numerator * (T // r[0].denominator),
            r[1],
            _EVENT_RANK[r[3]],
            r[2],
        )
    )

    writer = csv.writer(out)
    writer.writerow(["time", "traveller", "post", "event", "bike"])
    for t, traveller, post, event, bike in rows:
        writer.writerow([_frac(t), traveller, post, event, bike])
