"""Exact discrete-event execution of a scheme on the linear journey.

All k bicycles start at post 0; stages have unit length.  Walking
stages start the moment the traveller reaches the post.  A riding
stage starts when both the traveller and a bicycle are there; waiting
for one is a stall.  Under the greedy policy a traveller takes the
lowest-numbered bicycle parked on arrival, or waits for the earliest
incoming one; simultaneous arrivals are served lowest row first.
Under a plan policy each traveller waits for the specific bicycle the
plan assigns.

Times and positions are exact.  _stage_ticks states the clock, on
which both stage durations are whole ticks.  The one executor,
_execute, counts those ticks and states the service rule once for
both policies.  Each traveller's clock is a leg, a start tick and a
pace that hold until they next drop or take a bicycle, so a post
costs only its droppers and takers.  Only for a trace (simulate) does
it tick every traveller at every post and number the bicycles;
first_stall_ride_index runs it to the end but records only the
stalls.

is_executable_without_stall runs on row classes.  Travellers with
equal rows start together, and until the first stall nobody waits, so
they ride and walk the same stages at the same pace and reach every
post at the same tick; they drop together and, as takers, arrive
together and leave together.  A run without a log stops at the first
stall, so up to there one clock per distinct row, weighted by how many
travellers hold it, decides it, and a post costs its moving classes.
This holds only without a log: after a stall the members of a class
part, and a log names travellers, so a run with one keeps one class
per traveller.  simulate turns ticks into Fractions, cohort_profile reads
the clock off the rows, and write_trace_csv files rows by tick in one
pass.  Simultaneous arrivals (equal ride counts) are exactly the
handovers the optimality theory relies on, so float rounding would
turn ties into races and change verdicts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import accumulate
from math import gcd, inf
from operator import add, eq
from typing import IO

from .optimality import AssignmentPlan, _structural_violation
from .scheme import BinaryScheme, _columns_of, _mask_rows


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
        plan: required for the plan policy and refused by the greedy
            one.  Its shape (domains, ranges, injectivity, fixed rows)
            must be right; a plan that merely hands bicycles to
            faster-ridden travellers is allowed and produces stalls.

    Raises:
        ValueError: unknown policy, a missing or malformed plan, or a
            plan given to the greedy policy.
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
    elif plan is not None:
        raise ValueError("a plan applies to the plan policy only")

    walk, ride, per_unit = _stage_ticks(speeds)
    log = _Log()
    _execute(M, walk, ride, givers, log)
    # Every departure is some traveller's arrival at the same post, so
    # the arrivals and the waits hold every tick; each distinct tick
    # becomes one Fraction, shared by every field that holds it.
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
            StallEvent(i, j, at(start), at(wait), ride_index)
            for start, j, i, wait, ride_index in log.stalls
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
    order they happen post by post.  A log made with full=False keeps
    only the stalls.
    """

    __slots__ = ("full", "arrive", "depart", "bikes", "stalls", "handovers")

    def __init__(self, full: bool = True):
        self.full = full
        self.arrive, self.depart, self.bikes = [], [], []
        self.stalls, self.handovers = [], []


def _execute(M, walk: int, ride: int, givers=None, log: _Log | None = None) -> bool:
    """Run M on the integer clock; whether nobody stalls.

    A stage takes walk or ride whole ticks (see _stage_ticks).  At post
    j the droppers are C[j-1] & ~C[j] and the takers C[j] & ~C[j-1],
    with C the column masks; everybody else leaves on arrival.  With
    givers None (greedy) the takers are served in (arrival, row) order
    and use up the drops in arrival order: first come first served.
    Otherwise givers[j-1] maps each taker to the dropper whose bicycle
    they wait for, the takers are served in row order and each waits
    for their giver's drop.  Either way a taker leaves at the later of
    their arrival and the drop they wait for.

    The run goes on classes of travellers, each of a weight.  Without a
    log a class is a distinct row, weighted by how many travellers hold
    it, and its columns are the byte-packed transpose of the distinct
    masks (M's own column masks when every row is distinct).  Travellers
    with equal rows arrive together at every post until the first
    stall, and the run stops there, so one clock serves the class.  A
    greedy taker class of weight w uses up the next w drops in arrival
    order, and it stalls exactly when the last of them comes after its
    arrival.  With a log every traveller is a class of weight 1, and
    drop r is the r-th earliest.

    Each class keeps a leg clock: it reaches post p at tick
    lead[i] + p * step[i] until it next drops or takes a bicycle, so
    only the droppers and takers at a post change it.  A dropper's lead
    gains j * (ride - walk) there; a taker's lead becomes their
    departure less j * ride.  Every mover's lead at post j is then
    their arrival less j * walk, so the movers are ordered and compared
    on their leads, and a post costs O(moving classes).  Only a full log
    keeps every traveller's tick at every post, one map over the steps
    per post.

    Without a log the run stops at the first stall, or at the first
    post whose takers outweigh its droppers, and returns False.  With a
    log it runs to the end and records the stalls.  Only a full log
    (needed for givers) records the rest and numbers the bicycles: 0,
    1, ... over the riders of stage 0 in row order, and a greedy taker
    gets the lowest-numbered bicycle parked when they leave.

    Raises:
        DeadlockError: with a log, at the first post where a taker has
            no bicycle to wait for.
    """
    n, m = M.n, M.m
    ordered = sorted(M.masks) if log is None else ()
    if any(map(eq, ordered, ordered[1:])):  # some rows repeat
        classes = Counter(ordered)
        cols, weight = _columns_of(tuple(classes), m), list(classes.values())
    else:
        cols, weight = M.col_masks, [1] * n
    full = log is not None and log.full
    step = [ride if cols[0] >> i & 1 else walk for i in range(len(weight))]  # ticks per stage on the current leg
    lead = [0] * len(weight)  # class i reaches post p at lead[i] + p * step[i] on the current leg
    if full:
        cur = [0] * n  # each traveller's tick at the current post
        bike: list[int | None] = [None] * n
        for b, i in enumerate(_mask_rows(cols[0])):
            bike[i] = b
        log.arrive.append(cur[:])
    for j in range(1, m + 1 if full else m):
        if full:
            log.depart.append(cur)  # cur is replaced below, never changed again
            log.bikes.append(bike)
            cur = list(map(add, cur, step))
            log.arrive.append(cur[:])
            if j == m:
                break
        prev, col = cols[j - 1], cols[j]
        moved = prev ^ col
        droppers, takers = _mask_rows(moved & prev), _mask_rows(moved & col)
        gain, here = j * (ride - walk), j * walk  # a mover's lead at post j is their arrival less here
        for i in droppers:
            lead[i] += gain
            step[i] = walk
        for i in takers:
            step[i] = ride
        if full:
            held, bike = bike, bike[:]
            for i in droppers:
                bike[i] = None
        if not takers:
            continue
        if givers is None:
            droppers.sort(key=lead.__getitem__)
            takers.sort(key=lead.__getitem__)
            need = got = used = 0  # weight of takers served, weight and count of drops used
            if full:
                parked: list[tuple[int, int]] = []  # (bicycle, giver) heap
                dropped = 0
        else:
            plan = givers[j - 1]
            if not plan.keys() >= set(takers):
                raise DeadlockError(j)
        for taker in takers:
            if givers is None:
                need += weight[taker]
                while got < need:
                    if used == len(droppers):  # the takers outweigh the droppers
                        if log is None:
                            return False
                        raise DeadlockError(j)
                    got += weight[droppers[used]]
                    used += 1
                drop = lead[droppers[used - 1]]
            else:
                drop = lead[plan[taker]]
            # The taker leaves at the later of their arrival and the drop.
            t_arr = dep = lead[taker]
            if drop > t_arr:
                if log is None:
                    return False
                dep = drop
                ride_index = (M.masks[taker] & ((1 << j) - 1)).bit_count() + 1
                log.stalls.append((t_arr + here, j, taker, dep - t_arr, ride_index))
                if full:
                    cur[taker] = dep + here
            lead[taker] = dep - gain
            if not full:
                continue
            if givers is None:
                while dropped < len(droppers) and lead[droppers[dropped]] <= dep:
                    giver = droppers[dropped]
                    heappush(parked, (held[giver], giver))
                    dropped += 1
                giver = heappop(parked)[1]
            else:
                giver = plan[taker]
            bike[taker] = held[giver]
            log.handovers.append((dep + here, j, giver, taker, held[giver]))
    return log is None or not log.stalls


def _stage_ticks(speeds: SpeedModel) -> tuple[int, int, int]:
    """The run's clock: (walk, ride, per_unit).

    A tick is 1 / per_unit time units, with per_unit the product of
    the two speed numerators; a walking stage takes walk whole ticks
    and a riding stage ride.  Every time of a run is a whole number of
    ticks.
    """
    w, c = speeds.walk_speed, speeds.cycle_speed
    return w.denominator * c.numerator, c.denominator * w.numerator, w.numerator * c.numerator


def is_executable_without_stall(
    M: BinaryScheme, speeds: SpeedModel | None = None
) -> bool:
    """Whether the greedy execution finishes with no stall (nor deadlock)."""
    walk, ride, _ = _stage_ticks(speeds or DEFAULT_SPEEDS)
    return _execute(M, walk, ride)


def first_stall_ride_index(
    M: BinaryScheme, speeds: SpeedModel | None = None
) -> int | None:
    """Ride ordinal attempted at the earliest greedy stall, None if none.

    The earliest stall is by start time, then post, then row.

    Raises:
        DeadlockError: as simulate does.
    """
    walk, ride, _ = _stage_ticks(speeds or DEFAULT_SPEEDS)
    log = _Log(full=False)
    _execute(M, walk, ride, log=log)
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

    The samples are every arrival time plus the midpoint of each pair
    of consecutive ones.  Positions are piecewise linear between
    events, so counts and gap extrema over an interval show up either
    at its ends or at a single interior sample; one midpoint per
    interval therefore suffices.

    Nobody waits in a stall-free run, so each traveller leaves every
    post on arrival and reaches post j after the walk and ride ticks of
    their own first j stages (see _stage_ticks): the profile follows
    from the scheme's rows and the speeds alone.  The sweep counts half
    ticks, so every midpoint is whole; a stage is 2*walk*ride position
    units, covered at ride units per half tick walking and walk units
    riding.  Each traveller keeps a pointer into their own arrivals
    that only moves forward as the samples ascend, so S samples
    (S <= 2nm + 1) cost O(S * n log n) integer operations.  The gap and
    spread come back as Fractions.

    Raises:
        ValueError: the trace has stalls.
    """
    if trace.stall_events:
        raise ValueError("cohort profile requires a stall-free trace")
    walk, ride, _ = _stage_ticks(trace.speeds)
    m = trace.scheme.m
    unit = 2 * walk * ride
    # Each entry of legs holds a distinct row's arrival half ticks at
    # posts 0..m and its pace on stages 0..m-1, then 0 once at post m.
    # Equal rows share a trajectory and the positions form a set, so
    # each distinct row is swept once.
    legs = []
    for x in set(trace.scheme.masks):
        paces = [walk if x >> j & 1 else ride for j in range(m)]
        arrive = list(accumulate((unit // p for p in paces), initial=0))
        paces.append(0)
        legs.append((arrive, paces))
    ordered = sorted({t for arrive, _ in legs for t in arrive})
    samples = ordered[:1]
    for a, b in zip(ordered, ordered[1:]):
        samples.append((a + b) // 2)
        samples.append(b)

    ptr = [0] * len(legs)
    max_positions = 1
    max_gap = 0
    max_spread = 0
    for tau in samples:
        spots = set()
        for i, (arrive, paces) in enumerate(legs):
            p = ptr[i]
            while p < m and arrive[p + 1] <= tau:
                p += 1
            ptr[i] = p
            spots.add(p * unit + (tau - arrive[p]) * paces[p])
        here = sorted(spots)
        max_positions = max(max_positions, len(here))
        max_spread = max(max_spread, here[-1] - here[0])
        for a, b in zip(here, here[1:]):
            if b - a > max_gap:
                max_gap = b - a
    return CohortProfile(max_positions, Fraction(max_gap, unit), Fraction(max_spread, unit))


def write_trace_csv(trace: SimulationTrace, out: IO[str]):
    """Dump a trace as CSV: time,traveller,post,event,bike.

    Times are exact fractions p/q.  The traveller on a handover row is
    the taker; the giver's own movements appear on their own rows.
    Rows sort on (time, traveller, event, post), the events in the
    order arrive, stall_begin, stall_end, handover, depart.  In a run a
    traveller is at one post per tick, so one pass appends each
    traveller's rows, in their own order, to their ticks' buckets
    already sorted; only the distinct ticks are sorted.  A time is read
    as whole ticks (see _stage_ticks) once per Fraction object, and
    each tick is formatted once.  Line ends are CRLF, as csv.writer's.

    Raises:
        ValueError: only for a trace not made by simulate: a time that
            is no whole number of ticks, a traveller's rows going back in
            time or two of their posts at one tick, or a stall or
            handover where its traveller starts no stage.
    """
    per_unit = _stage_ticks(trace.speeds)[2]
    scale: dict[int, int] = {}  # denominator q -> per_unit // q
    buckets: dict[int, list[str]] = {}  # tick -> its rows, less the time
    seen: dict[int, tuple] = {}  # id(t) -> (5 * tick, bucket, t); t pins its id

    def read(t):
        p, q = t.as_integer_ratio()
        s = scale.get(q)
        if s is None:
            s, r = divmod(per_unit, q)
            if r:
                raise ValueError(f"time {p}/{q} is not a whole number of ticks of 1/{per_unit}")
            scale[q] = s
        seen[id(t)] = e = (5 * p * s, buckets.setdefault(p * s, []), t)
        return e

    extra: dict[tuple[int, int], list] = {}  # (traveller, post) -> [(time, rank, row)]
    for s in trace.stall_events:
        at = f"{s.traveller},{s.post},"
        rows = extra.setdefault((s.traveller, s.post), [])
        rows += (s.start, 1, at + "stall_begin,\r\n"), (s.start + s.wait, 2, at + "stall_end,\r\n")
    for h in trace.handover_events:
        row = f"{h.taker},{h.post},handover,{h.bike}\r\n"
        extra.setdefault((h.taker, h.post), []).append((h.time, 3, row))
    posts = [f",{j}," for j in range(trace.scheme.m + 1)]
    texts = {None: ("depart_walk,\r\n", "arrive,\r\n")}  # bike -> (depart, arrive)
    for i, (departs, arrivals, bikes) in enumerate(
        zip(trace.depart_times, trace.post_arrival_times, trace.stage_bike)
    ):
        who = str(i)
        at = who + posts[0]
        rows = []  # (time, rank, row) in the traveller's own order
        for j, bike in enumerate(bikes):
            rows += extra.pop((i, j), ())
            if bike not in texts:
                texts[bike] = (f"depart_ride,{bike}\r\n", f"arrive,{bike}\r\n")
            depart, arrive = texts[bike]
            rows.append((departs[j], 4, at + depart))
            at = who + posts[j + 1]
            rows.append((arrivals[j + 1], 0, at + arrive))
        # 5 * tick + rank must rise, so each arrive row (rank 0) is at a later tick.
        last = -inf
        for t, rank, row in rows:
            e = seen.get(id(t)) or read(t)
            if e[0] + rank <= last:
                post = row.split(",")[1]
                raise ValueError(f"traveller {i}'s rows run out of time order at post {post}")
            e[1].append(row)
            last = e[0] + rank
    if extra:
        i, j = next(iter(extra))
        raise ValueError(f"no stage starts at post {j} for traveller {i}'s stall or handover")
    out.write("time,traveller,post,event,bike\r\n")
    for tick in sorted(buckets):
        g = gcd(tick, per_unit)
        prefix = f"{tick // g}/{per_unit // g},"
        out.write(prefix + prefix.join(buckets[tick]))
