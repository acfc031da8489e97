"""Exact discrete-event execution of a scheme on the linear journey.

All k bicycles start at post 0; stages have unit length.  Walking
stages start the moment the traveller reaches the post.  A riding
stage starts when both the traveller and a bicycle are there; waiting
for one is a stall.  Under the greedy policy a traveller takes the
lowest-numbered bicycle parked on arrival, or waits for the earliest
incoming one; simultaneous arrivals are served lowest row first.
Under a plan policy each traveller waits for the specific bicycle the
plan assigns.

Times and positions are exact rationals throughout.  Simultaneous
arrivals (equal ride counts) are exactly the handovers the optimality
theory relies on, so float rounding would turn ties into races and
change verdicts.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import IO

from .optimality import AssignmentPlan, _structural_violation
from .scheme import BinaryScheme, stage_cut

ZERO = Fraction(0)


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
    if policy == "plan":
        if plan is None:
            raise ValueError("plan policy needs a plan")
        bad = _structural_violation(M, plan)
        if bad is not None:
            raise ValueError(f"malformed plan: {bad}")
    elif policy != "greedy":
        raise ValueError(f"unknown policy {policy!r}")

    n, m = M.n, M.m
    t_walk = Fraction(1) / speeds.walk_speed
    t_ride = Fraction(1) / speeds.cycle_speed
    arrive = [[ZERO] * (m + 1) for _ in range(n)]
    depart = [[ZERO] * m for _ in range(n)]
    bikes: list[list[int | None]] = [[None] * m for _ in range(n)]
    stalls: list[StallEvent] = []
    handovers: list[HandoverEvent] = []
    ridden = [0] * n

    # Stage 0: bicycles are numbered by handing 0, 1, ... to the
    # riders of the first stage in row order.
    next_bike = 0
    for i in range(n):
        if M.rows[i][0]:
            bikes[i][0] = next_bike
            next_bike += 1

    for j in range(m):
        if j > 0:
            cut = stage_cut(M, j - 1)
            for i in cut.x00:
                depart[i][j] = arrive[i][j]
            for i in cut.x10:
                # Drop the bicycle at the post and walk on at once.
                depart[i][j] = arrive[i][j]
            for i in cut.x11:
                depart[i][j] = arrive[i][j]
                bikes[i][j] = bikes[i][j - 1]
            if policy == "greedy":
                _greedy_boundary(
                    M, j, cut, arrive, depart, bikes, ridden, stalls, handovers
                )
            else:
                _plan_boundary(
                    M, j, cut, plan, arrive, depart, bikes, ridden, stalls, handovers
                )
        for i in range(n):
            step = t_ride if M.rows[i][j] else t_walk
            arrive[i][j + 1] = depart[i][j] + step
            ridden[i] += M.rows[i][j]

    makespan = max(arrive[i][m] for i in range(n))
    return SimulationTrace(
        scheme=M,
        speeds=speeds,
        policy=policy,
        post_arrival_times=tuple(tuple(r) for r in arrive),
        depart_times=tuple(tuple(r) for r in depart),
        stage_bike=tuple(tuple(r) for r in bikes),
        stall_events=tuple(stalls),
        handover_events=tuple(handovers),
        makespan=makespan,
    )


def _greedy_boundary(M, j, cut, arrive, depart, bikes, ridden, stalls, handovers):
    """Hand the bicycles dropped at post j to its takers, first come first served."""
    pool = [(arrive[i][j], bikes[i][j - 1], i) for i in cut.x10]
    if len(cut.x01) > len(pool):
        raise DeadlockError(j)
    for i2 in sorted(cut.x01, key=lambda i: (arrive[i][j], i)):
        t_arr = arrive[i2][j]
        parked = [(bike, when, giver) for when, bike, giver in pool if when <= t_arr]
        if parked:
            bike, when, giver = min(parked)
            dep = t_arr
        else:
            t_min = min(when for when, _, _ in pool)
            bike, when, giver = min(
                (bike, when, giver) for when, bike, giver in pool if when == t_min
            )
            dep = t_min
            stalls.append(StallEvent(i2, j, t_arr, t_min - t_arr, ridden[i2] + 1))
        pool.remove((when, bike, giver))
        depart[i2][j] = dep
        bikes[i2][j] = bike
        handovers.append(HandoverEvent(dep, j, giver, i2, bike))


def _plan_boundary(M, j, cut, plan, arrive, depart, bikes, ridden, stalls, handovers):
    """Hand each dropped bicycle to the taker the plan names."""
    mp = plan.mapping(j - 1)
    takes = {taker: giver for giver, taker in mp.items() if giver != taker}
    for i2 in sorted(cut.x01):
        giver = takes.get(i2)
        if giver is None:
            raise DeadlockError(j)
        t_arr = arrive[i2][j]
        t_bike = arrive[giver][j]
        dep = max(t_arr, t_bike)
        if t_bike > t_arr:
            stalls.append(StallEvent(i2, j, t_arr, t_bike - t_arr, ridden[i2] + 1))
        bike = bikes[giver][j - 1]
        depart[i2][j] = dep
        bikes[i2][j] = bike
        handovers.append(HandoverEvent(dep, j, giver, i2, bike))


def _stage_ticks(speeds: SpeedModel) -> tuple[int, int]:
    """Integer per-stage durations on a common clock (walk, ride)."""
    t_walk = Fraction(1) / speeds.walk_speed
    t_ride = Fraction(1) / speeds.cycle_speed
    return (
        t_walk.numerator * t_ride.denominator,
        t_ride.numerator * t_walk.denominator,
    )


def _greedy_is_stall_free(rows, walk_ticks: int, ride_ticks: int) -> bool:
    """Integer-clock greedy scan, bailing out at the first stall.

    Matching the r-th earliest dropped bicycle with the r-th earliest
    taker is exactly the first-come-first-served discipline, and until
    a stall happens every departure equals the arrival, so plain
    integer arrival bookkeeping suffices.  Returns False as well when
    takers outnumber dropped bicycles (a deadlock, not a finite stall).
    """
    n = len(rows)
    m = len(rows[0])
    cur = [0] * n
    for j in range(1, m):
        for i in range(n):
            cur[i] += ride_ticks if rows[i][j - 1] else walk_ticks
        drops = sorted(cur[i] for i in range(n) if rows[i][j - 1] > rows[i][j])
        takes = sorted(cur[i] for i in range(n) if rows[i][j - 1] < rows[i][j])
        if len(takes) > len(drops):
            return False
        for r, t_arr in enumerate(takes):
            if drops[r] > t_arr:
                return False
    return True


def is_executable_without_stall(
    M: BinaryScheme, speeds: SpeedModel | None = None
) -> bool:
    """Whether the greedy execution finishes with no stall (nor deadlock)."""
    walk_ticks, ride_ticks = _stage_ticks(speeds or DEFAULT_SPEEDS)
    return _greedy_is_stall_free(M.rows, walk_ticks, ride_ticks)


def first_stall_ride_index(
    M: BinaryScheme, speeds: SpeedModel | None = None
) -> int | None:
    """Ride ordinal attempted at the earliest greedy stall, None if none.

    The earliest stall is by start time, then post, then row.  It is
    found from one pass on the integer clock that assumes nobody
    stalls: every event before the earliest stall runs on time, and
    every event a stall delays falls strictly after that stall starts.
    At each post the takers are served in (arrival, row) order, so the
    first to stall is the first of rank r whose r-th dropped bicycle
    arrives after them.

    Raises:
        DeadlockError: at the first post where takers outnumber the
            bicycles dropped there.
    """
    walk_ticks, ride_ticks = _stage_ticks(speeds or DEFAULT_SPEEDS)
    rows = M.rows
    n, m = M.n, M.m
    cur = [0] * n
    ridden = [0] * n
    first = None  # (start, post, row, ride index) of the earliest stall so far
    for j in range(1, m):
        for i in range(n):
            if rows[i][j - 1]:
                cur[i] += ride_ticks
                ridden[i] += 1
            else:
                cur[i] += walk_ticks
        drops = sorted(cur[i] for i in range(n) if rows[i][j - 1] > rows[i][j])
        takes = sorted((cur[i], i) for i in range(n) if rows[i][j - 1] < rows[i][j])
        if len(takes) > len(drops):
            raise DeadlockError(j)
        for r, (t_arr, i) in enumerate(takes):
            if drops[r] > t_arr:
                stall = (t_arr, j, i, ridden[i] + 1)
                if first is None or stall < first:
                    first = stall
                break
    return None if first is None else first[3]


@dataclass(frozen=True)
class CohortProfile:
    """How bunched the group stays during a stall-free run.

    max_positions: most distinct positions held at any sampled moment.
    max_adjacent_gap: largest gap between neighbouring distinct
    positions.  max_spread: largest distance between the leader and
    the straggler.  mixed_mode_colocation: some sampled moment had a
    walker and a rider at the same position.  That holds for every
    stall-free run whose first stage has both riders and walkers (for
    a uniform scheme, every 0 < k < n): at t = 0 they all leave post 0
    together, so the flag says nothing beyond that.
    """

    max_positions: int
    max_adjacent_gap: Fraction
    max_spread: Fraction
    mixed_mode_colocation: bool


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

    rows = trace.scheme.rows
    end = 2 * m
    ptr = [0] * n
    max_positions = 1
    max_gap = 0
    max_spread = 0
    mixed = False
    for tau in samples:
        # Position -> modes held there: 1 walking or waiting, 2 riding.
        spots: dict[int, int] = {}
        for i in range(n):
            e = edges[i]
            p = ptr[i]
            while p < end and e[p] <= tau:
                p += 1
            ptr[i] = p
            j, moving = divmod(p, 2)
            if moving:
                riding = rows[i][j]
                pos = j * unit + (tau - e[p - 1]) * pace[riding]
                spots[pos] = spots.get(pos, 0) | (2 if riding else 1)
            else:
                pos = j * unit
                spots[pos] = spots.get(pos, 0) | 1
        here = sorted(spots)
        max_positions = max(max_positions, len(here))
        max_spread = max(max_spread, here[-1] - here[0])
        for a, b in zip(here, here[1:]):
            if b - a > max_gap:
                max_gap = b - a
        if not mixed and 3 in spots.values():
            mixed = True
    return CohortProfile(
        max_positions, Fraction(max_gap, unit), Fraction(max_spread, unit), mixed
    )


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
            riding = trace.scheme.rows[i][j]
            bike = trace.stage_bike[i][j]
            rows.append(
                (
                    trace.depart_times[i][j],
                    i,
                    j,
                    "depart_ride" if riding else "depart_walk",
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
