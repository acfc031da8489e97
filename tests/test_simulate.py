import csv
import io
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd

import pytest

from bikerelay import (
    AssignmentPlan,
    BinaryScheme,
    DeadlockError,
    CohortProfile,
    SpeedModel,
    binary_dual,
    block_compose,
    build_assignment_plan,
    circulant_matrix,
    cohort_profile,
    cyclic_matrix,
    decide_optimal,
    default_block_cells,
    enumerate_uniform,
    first_stall_ride_index,
    is_executable_without_stall,
    parse_scheme,
    permute_rows,
    random_uniform,
    reduce_scheme,
    reverse_stages,
    simulate,
    transpose_cyclic_matrix,
    valid_stage_counts,
    write_trace_csv,
)
from bikerelay.optimality import _structural_violation
from bikerelay.oracle import DEFAULT_SPEED_RATIOS
from bikerelay.simulate import HandoverEvent, SimulationTrace, StallEvent, _execute, _Log, _stage_ticks

from reference_listing import reference_enumerate

HALF = SpeedModel(1, 2)
# Non-integer speeds on both sides, so times and positions have
# unrelated denominators.
ODD = SpeedModel(Fraction(2, 3), Fraction(7, 5))


# The executor as it was before it ran on the integer clock, kept
# verbatim as the reference for simulate, is_executable_without_stall
# and first_stall_ride_index.


@dataclass(frozen=True)
class ReferenceStageCut:
    """The partition of travellers at boundary b by their (col b, col b+1) bits.

    x11 keep riding, x10 drop a bike, x01 take a bike, x00 keep
    walking.  Indices are ascending row numbers.
    """

    boundary: int
    x11: tuple[int, ...]
    x10: tuple[int, ...]
    x01: tuple[int, ...]
    x00: tuple[int, ...]


def reference_stage_cut(M: BinaryScheme, boundary: int) -> ReferenceStageCut:
    """Partition of travellers by their behavior across the given boundary.

    Args:
        M: the scheme.
        boundary: 0-based; between columns boundary and boundary+1,
            so valid values are 0..m-2.
    """
    if not 0 <= boundary <= M.m - 2:
        raise ValueError(f"boundary {boundary} out of range 0..{M.m - 2}")
    x11, x10, x01, x00 = [], [], [], []
    b = boundary
    for i, row in enumerate(M.rows):
        pair = (row[b], row[b + 1])
        if pair == (1, 1):
            x11.append(i)
        elif pair == (1, 0):
            x10.append(i)
        elif pair == (0, 1):
            x01.append(i)
        else:
            x00.append(i)
    return ReferenceStageCut(boundary, tuple(x11), tuple(x10), tuple(x01), tuple(x00))


def reference_simulate(
    M: BinaryScheme,
    speeds: SpeedModel | None = None,
    policy: str = "greedy",
    plan: AssignmentPlan | None = None,
) -> SimulationTrace:
    """simulate as it was: Fraction times, the pool rescanned for every taker.

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
        speeds = HALF
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
    arrive = [[Fraction(0)] * (m + 1) for _ in range(n)]
    depart = [[Fraction(0)] * m for _ in range(n)]
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
            cut = reference_stage_cut(M, j - 1)
            for i in cut.x00:
                depart[i][j] = arrive[i][j]
            for i in cut.x10:
                # Drop the bicycle at the post and walk on at once.
                depart[i][j] = arrive[i][j]
            for i in cut.x11:
                depart[i][j] = arrive[i][j]
                bikes[i][j] = bikes[i][j - 1]
            if policy == "greedy":
                _reference_greedy_boundary(
                    M, j, cut, arrive, depart, bikes, ridden, stalls, handovers
                )
            else:
                _reference_plan_boundary(
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


def _reference_greedy_boundary(M, j, cut, arrive, depart, bikes, ridden, stalls, handovers):
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


def _reference_plan_boundary(M, j, cut, plan, arrive, depart, bikes, ridden, stalls, handovers):
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


def test_speed_model_validation():
    assert SpeedModel("3/2", 3).walk_speed == Fraction(3, 2)
    with pytest.raises(ValueError):
        SpeedModel(2, 2)
    with pytest.raises(ValueError):
        SpeedModel(0, 1)
    with pytest.raises(ValueError):
        SpeedModel(3, 2)


def test_split_riders_runs_clean(split_riders):
    tr = simulate(split_riders, HALF)
    assert tr.stall_events == ()
    assert tr.makespan == Fraction(9, 2)
    assert all(row[-1] == Fraction(9, 2) for row in tr.post_arrival_times)
    assert len(tr.handover_events) == 3
    h = tr.handover_events[0]
    assert h.post == 3 and h.time == 3
    # Three bicycles, each ridden the first three stages then the last three.
    assert {e.bike for e in tr.handover_events} == {0, 1, 2}


def test_split_riders_swapped_stalls(split_riders_swapped):
    tr = simulate(split_riders_swapped, HALF)
    assert not decide_optimal(split_riders_swapped).optimal
    assert len(tr.stall_events) == 3
    first = min(tr.stall_events, key=lambda s: s.start)
    assert first.start == 2
    assert first.wait == Fraction(1, 2)
    assert first.ride_index == 3
    assert tr.makespan == Fraction(5)
    assert first_stall_ride_index(split_riders_swapped, HALF) == 3


def test_stall_free_flag_matches_full_simulation():
    rng = random.Random(31)
    for _ in range(120):
        n = rng.randint(2, 8)
        M = random_uniform(n, rng.randint(1, n), rng)
        for speeds in (HALF, SpeedModel(2, 3), SpeedModel(1, 10)):
            try:
                want = reference_simulate(M, speeds)
            except DeadlockError:
                continue
            assert simulate(M, speeds) == want
            assert is_executable_without_stall(M, speeds) is (want.stall_events == ())


def _trace_csv(trace):
    out = io.StringIO()
    write_trace_csv(trace, out)
    return out.getvalue()


def _late_plan(M, rng=None):
    """A plan of the right shape that ignores ride counts.

    The droppers of each boundary give to its takers in row order, or
    in an order rng shuffles.  Droppers left over make it malformed.
    """
    maps = []
    for b in range(M.m - 1):
        cut = reference_stage_cut(M, b)
        takers = list(cut.x01)
        if rng is not None:
            rng.shuffle(takers)
        mp = {i: i for i in cut.x11}
        mp.update(zip(cut.x10, takers))
        maps.append(mp)
    return AssignmentPlan.from_maps(maps)


def _assert_runs_as_the_reference(M, speeds, policy="greedy", plan=None):
    """Check simulate, its CSV and the greedy queries against the reference.

    Returns the reference trace, or None when the reference deadlocks
    or rejects the plan (and the new code raises the same error).
    """
    try:
        want = reference_simulate(M, speeds, policy, plan)
    except (DeadlockError, ValueError) as exc:
        queries = [lambda: simulate(M, speeds, policy, plan)]
        if policy == "greedy":
            queries.append(lambda: first_stall_ride_index(M, speeds))
            assert is_executable_without_stall(M, speeds) is False
        for query in queries:
            with pytest.raises(type(exc)) as got:
                query()
            assert str(got.value) == str(exc)
        return None
    got = simulate(M, speeds, policy, plan)
    assert got == want, (M.rows, speeds, policy)
    assert _trace_csv(got) == _reference_trace_csv(want)
    if policy == "greedy":
        assert is_executable_without_stall(M, speeds) is (want.stall_events == ())
        assert first_stall_ride_index(M, speeds) == reference_first_stall_ride_index(want)
    return want


def test_both_policies_equal_the_reference_on_the_fixtures(fixtures_dir):
    for path in sorted(fixtures_dir.glob("*.mat")):
        M = parse_scheme(path.read_text())
        plans = [_late_plan(M)]
        if decide_optimal(M).optimal:
            plans.append(build_assignment_plan(M))
        for speeds in (HALF, ODD, SpeedModel(1, 10)):
            _assert_runs_as_the_reference(M, speeds)
            tr = simulate(M, speeds)
            times = [*tr.post_arrival_times, *tr.depart_times, [tr.makespan]]
            times.append([t for e in tr.stall_events for t in (e.start, e.wait)])
            times.append([e.time for e in tr.handover_events])
            # Every time is a Fraction, not an int that compares equal.
            assert all(type(t) is Fraction for row in times for t in row)
            for P in plans:
                assert _assert_runs_as_the_reference(M, speeds, "plan", P) is not None


def test_simulate_equals_the_reference_on_random_schemes():
    # Uniform, column-permuted uniform (these stall) and unconstrained
    # schemes (these often deadlock), n <= 12, at four speed pairs, each
    # under greedy and under a plan that ignores ride counts.
    rng = random.Random(9000)
    speed_pairs = (SpeedModel(1, Fraction(3, 2)), HALF, SpeedModel(1, 10), ODD)
    outcomes = {"stall-free": 0, "stalls": 0, "deadlock": 0}
    for idx in range(2000):
        if idx % 3 == 0:
            n = rng.randint(1, 12)
            M = random_uniform(n, rng.randint(0, n), rng)
        elif idx % 3 == 1:
            # Shuffle columns until the word test rejects the scheme
            # (no more than 20 tries).
            n = rng.randint(5, 12)
            base = random_uniform(n, rng.randint(2, n - 2), rng)
            cols = list(range(n))
            for _ in range(20):
                rng.shuffle(cols)
                M = BinaryScheme([[row[c] for c in cols] for row in base.rows])
                if not decide_optimal(M).optimal:
                    break
        else:
            n, m = rng.randint(1, 12), rng.randint(1, 12)
            M = BinaryScheme([[rng.randint(0, 1) for _ in range(m)] for _ in range(n)])
        speeds = speed_pairs[idx % 4]
        tr = _assert_runs_as_the_reference(M, speeds)
        if tr is None:
            outcomes["deadlock"] += 1
        else:
            outcomes["stalls" if tr.stall_events else "stall-free"] += 1
        _assert_runs_as_the_reference(M, speeds, "plan", _late_plan(M, rng))
    assert min(outcomes.values()) >= 250, outcomes


def test_deadlock_when_bicycles_appear():
    M = parse_scheme("2 2\n1 1\n0 1\n")
    with pytest.raises(DeadlockError) as exc:
        simulate(M, HALF)
    assert exc.value.post == 1


def reference_first_stall_ride_index(trace):
    """first_stall_ride_index as it was: the earliest stall of a full simulation."""
    if not trace.stall_events:
        return None
    first = min(trace.stall_events, key=lambda s: (s.start, s.post, s.traveller))
    return first.ride_index


def test_first_stall_equals_the_simulated_reference(
    split_riders, split_riders_swapped, late_first_stall
):
    # Without a visitor, max_examples=9560 collects every stalling (6,3) matrix.
    stalling = enumerate_uniform(6, 3, max_examples=9560).minimal_nonoptimal_examples
    assert len(stalling) == 9560
    # At ratio 10 this scheme's earliest stall (post 6, ride 6) starts
    # before the stall at its lowest stalling post (post 4, ride 3).
    assert first_stall_ride_index(late_first_stall, SpeedModel(1, 10)) == 6
    cases = [split_riders, split_riders_swapped, late_first_stall, *stalling]
    for M in cases:
        failing = decide_optimal(M).failing_boundary
        for ratio in (Fraction(3, 2), Fraction(2), Fraction(10)):
            speeds = SpeedModel(1, ratio)
            trace = reference_simulate(M, speeds)
            assert simulate(M, speeds) == trace, (M.rows, ratio)
            assert is_executable_without_stall(M, speeds) is (trace.stall_events == ())
            want = reference_first_stall_ride_index(trace)
            assert first_stall_ride_index(M, speeds) == want, (M.rows, ratio)
            # The first post where anybody waits is the one after the
            # boundary whose word the decision rejects.
            if failing is None:
                assert trace.stall_events == ()
            else:
                assert min(s.post for s in trace.stall_events) == failing + 1, (M.rows, ratio)
    for speeds in (None, HALF, ODD):
        assert first_stall_ride_index(split_riders_swapped, speeds) == 3
        assert first_stall_ride_index(split_riders, speeds) is None


def test_first_stall_raises_the_simulated_deadlock():
    # Row 1 stalls at post 3 for the bicycle row 0 brings, and still the
    # deadlock at post 4 wins, as in simulate.
    M = parse_scheme("2 5\n0 0 1 0 1\n1 1 0 1 1\n")
    for find in (simulate, first_stall_ride_index):
        with pytest.raises(DeadlockError) as exc:
            find(M, HALF)
        assert exc.value.post == 4
    assert first_stall_ride_index(parse_scheme("2 4\n0 0 1 0\n1 1 0 1\n"), HALF) == 3


def test_word_verdict_equals_execution_past_the_exhaustive_range():
    # random_uniform at n = 16, 32 and 64, far beyond what cross_validate
    # can list, and a seeded column permutation of each: the word verdict
    # equals stall-free greedy execution at the cross-validation ratios,
    # and a first stall is found exactly when the scheme is not optimal.
    rng = random.Random(20261018)
    for n in (16, 32, 64):
        verdicts = set()
        referenced = 0
        schemes = []
        for k in (2, 3, n // 4, n // 2, n - 3, n - 2) * 2:
            base = random_uniform(n, k, rng)
            cols = list(range(n))
            rng.shuffle(cols)
            schemes += [base, BinaryScheme([[row[c] for c in cols] for row in base.rows])]
        if n == 64:
            # random_uniform gives optimal schemes here only at k near 0 or n.
            # The paper's symmetries keep optimality, so applied to the
            # cyclic families and their reductions they give mid-k ones.
            pi = random.Random(n).sample(range(n), n)
            for k in (n // 4, n // 3, n // 2):
                for C in (cyclic_matrix(n, k), transpose_cyclic_matrix(n, k)):
                    for S in (C, reduce_scheme(C)[0]):
                        schemes += [permute_rows(S, pi), reverse_stages(S), binary_dual(S)]
        mid_k_optimal = False
        for M in schemes:
            k = M.row_sums[0]
            optimal = decide_optimal(M).optimal
            verdicts.add(optimal)
            mid_k_optimal |= optimal and n / 4 <= k <= 3 * n / 4
            for ratio in DEFAULT_SPEED_RATIOS:
                speeds = SpeedModel(1, ratio)
                assert is_executable_without_stall(M, speeds) is optimal, (n, k, ratio)
                first = first_stall_ride_index(M, speeds)
                assert (first is None) is optimal, (n, k, ratio)
                if first is not None and referenced < 3:
                    referenced += 1
                    trace = reference_simulate(M, speeds)
                    assert first == reference_first_stall_ride_index(trace), (n, k, ratio)
        assert verdicts == {True, False}, n
        assert referenced == 3, n
        assert mid_k_optimal or n < 64
    # Rectangular schemes: block_compose at stage counts valid_stage_counts
    # allows, tall (m < n) and wide (m > n), and a seeded column
    # permutation of each.
    verdicts = set()
    for n, k in ((16, 8), (16, 4), (16, 6), (16, 3), (32, 8), (32, 12), (32, 6), (32, 3)):
        for r in (1, 2, 3):
            m = r * n // gcd(n, k)
            assert valid_stage_counts(n, k, m).r == r
            base = block_compose(n, k, r, default_block_cells(n, k, r))
            cols = list(range(m))
            rng.shuffle(cols)
            for M in (base, BinaryScheme([[row[c] for c in cols] for row in base.rows])):
                optimal = decide_optimal(M).optimal
                verdicts.add((optimal, m < n, m > n))
                for ratio in DEFAULT_SPEED_RATIOS:
                    speeds = SpeedModel(1, ratio)
                    assert is_executable_without_stall(M, speeds) is optimal, (n, k, r, ratio)
                    first = first_stall_ride_index(M, speeds)
                    assert (first is None) is optimal, (n, k, r, ratio)
    # Both verdicts occur on tall and on wide schemes.
    assert {(True, True, False), (False, True, False)} <= verdicts
    assert {(True, False, True), (False, False, True)} <= verdicts


def _stalling_column_permutation(base, rng):
    """A seeded column permutation of base that decides non-optimal, None after 20 tries."""
    cols = list(range(base.m))
    for _ in range(20):
        rng.shuffle(cols)
        M = BinaryScheme([[row[c] for c in cols] for row in base.rows])
        if not decide_optimal(M).optimal:
            return M
    return None


def test_the_leg_clock_equals_the_full_log_at_large_n():
    # Outside a full log the executor moves only the droppers' and
    # takers' clocks at a post; the full log advances every traveller's.
    # At n = 128 and 256 both reach the same verdict and the same
    # earliest stall.
    rng = random.Random(20261020)
    stalled = 0
    for n in (128, 256):
        k = n // 4
        schemes = [
            cyclic_matrix(n, n // 2 - 1),
            transpose_cyclic_matrix(n, k),
            circulant_matrix(n, k),
            block_compose(n, k, 1, default_block_cells(n, k, 1)),
            _stalling_column_permutation(cyclic_matrix(n, n // 3), rng),
            _stalling_column_permutation(transpose_cyclic_matrix(n, k), rng),
        ]
        for M in schemes:
            for ratio in (Fraction(3, 2), Fraction(2), Fraction(10)):
                speeds = SpeedModel(1, ratio)
                trace = simulate(M, speeds)
                assert is_executable_without_stall(M, speeds) is (trace.stall_events == ()), (n, ratio)
                want = reference_first_stall_ride_index(trace)
                assert first_stall_ride_index(M, speeds) == want, (n, ratio)
                stalled += want is not None
    assert stalled == 12


def test_the_stalls_only_log_equals_the_reference_when_a_traveller_stalls_twice():
    # After a stall a taker's clock restarts from their departure; a
    # second stall of theirs shows whether it restarted right.  Every
    # stage is ridden by k travellers drawn at random, so nobody is left
    # without a bicycle and the ride counts spread widely.
    rng = random.Random(2026)
    twice = 0
    for _ in range(300):
        n, m = rng.randint(3, 8), rng.randint(4, 14)
        k = rng.randint(1, n - 1)
        cols = [set(rng.sample(range(n), k)) for _ in range(m)]
        M = BinaryScheme([[int(i in c) for c in cols] for i in range(n)])
        for speeds in (SpeedModel(1, Fraction(3, 2)), HALF, SpeedModel(1, 10), ODD):
            want = reference_simulate(M, speeds).stall_events
            walk, ride, per_unit = _stage_ticks(speeds)
            log = _Log(full=False)
            assert _execute(M, walk, ride, log=log) is (want == ())
            got = tuple(
                StallEvent(i, j, Fraction(start, per_unit), Fraction(wait, per_unit), ride_index)
                for start, j, i, wait, ride_index in log.stalls
            )
            assert got == want, (M.rows, speeds)
            travellers = [s.traveller for s in want]
            twice += len(set(travellers)) < len(travellers)
    assert twice >= 80, twice


def test_plan_policy_agrees_with_greedy_on_optimal(split_riders, handover_free):
    for M in (split_riders, handover_free):
        P = build_assignment_plan(M)
        a = simulate(M, HALF)
        b = simulate(M, HALF, policy="plan", plan=P)
        assert b.stall_events == ()
        assert a.makespan == b.makespan
        assert a.post_arrival_times == b.post_arrival_times


def test_plan_policy_requires_a_plan(split_riders):
    with pytest.raises(ValueError):
        simulate(split_riders, HALF, policy="plan")
    with pytest.raises(ValueError):
        simulate(split_riders, HALF, policy="nonsense")


def test_greedy_policy_refuses_a_plan(split_riders):
    # The greedy run ignores any plan, so a plan given to it is a mistake.
    P = build_assignment_plan(split_riders)
    with pytest.raises(ValueError, match="plan policy only"):
        simulate(split_riders, HALF, plan=P)
    with pytest.raises(ValueError, match="plan policy only"):
        simulate(split_riders, HALF, policy="greedy", plan=P)


def test_structurally_sound_plan_with_late_bicycles_stalls(split_riders_swapped):
    # The scheme admits no stall-free execution; a plan that is shaped
    # correctly still leaves takers waiting for bicycles in transit.
    M = split_riders_swapped
    maps = []
    for b in range(M.m - 1):
        cut = reference_stage_cut(M, b)
        m = {i: i for i in cut.x11}
        m.update(zip(cut.x10, cut.x01))
        maps.append(m)
    tr = simulate(M, HALF, policy="plan", plan=AssignmentPlan.from_maps(maps))
    assert tr.stall_events
    assert tr.makespan == Fraction(5)


def test_malformed_plan_is_rejected_by_simulate(split_riders):
    P = build_assignment_plan(split_riders)
    maps = [P.mapping(b) for b in range(P.boundaries)]
    del maps[2][0]
    with pytest.raises(ValueError):
        simulate(split_riders, HALF, policy="plan", plan=AssignmentPlan.from_maps(maps))


def test_conservation_of_bicycles(split_riders):
    tr = simulate(split_riders, HALF)
    k = 3
    times = sorted({t for row in tr.post_arrival_times for t in row})
    probes = times + [(a + b) / 2 for a, b in zip(times, times[1:])]
    for t in probes:
        riding = 0
        for i in range(split_riders.n):
            for j in range(split_riders.m):
                if (
                    tr.stage_bike[i][j] is not None
                    and tr.depart_times[i][j] <= t < tr.post_arrival_times[i][j + 1]
                ):
                    riding += 1
        assert riding <= k


def test_cohort_profile_stays_tight():
    for n, k in ((6, 3), (8, 3), (10, 5), (12, 4)):
        tr = simulate(transpose_cyclic_matrix(n, k), HALF)
        prof = cohort_profile(tr)
        assert prof.max_positions <= 3
        assert prof.max_adjacent_gap < 1


def _reference_position(trace, i, t):
    """Where traveller i is at time t."""
    arr = trace.post_arrival_times[i]
    dep = trace.depart_times[i]
    row = trace.scheme.rows[i]
    m = trace.scheme.m
    if t >= arr[m]:
        return Fraction(m)
    for j in range(m):
        if t < dep[j]:
            return Fraction(j)
        if t < arr[j + 1]:
            speed = trace.speeds.cycle_speed if row[j] else trace.speeds.walk_speed
            return j + (t - dep[j]) * speed
    return Fraction(m)


def _reference_cohort_profile(trace):
    """Locate every traveller afresh, in Fractions, at each sample."""
    times = {t for row in trace.post_arrival_times for t in row}
    times.update(t for row in trace.depart_times for t in row)
    ordered = sorted(times)
    samples = sorted(ordered + [(a + b) / 2 for a, b in zip(ordered, ordered[1:])])
    max_positions = 1
    max_gap = max_spread = Fraction(0)
    for t in samples:
        here = sorted({_reference_position(trace, i, t) for i in range(trace.scheme.n)})
        max_positions = max(max_positions, len(here))
        max_spread = max(max_spread, here[-1] - here[0])
        for a, b in zip(here, here[1:]):
            max_gap = max(max_gap, b - a)
    return CohortProfile(max_positions, max_gap, max_spread)


def _cohort_reference_cases():
    for n in range(1, 13):
        for k in range(n + 1):
            M = transpose_cyclic_matrix(n, k)
            plan = build_assignment_plan(M)
            for speeds in (SpeedModel(1, Fraction(3, 2)), ODD, SpeedModel(1, 100)):
                yield simulate(M, speeds)
                yield simulate(M, speeds, "plan", plan)
    for n, k in ((4, 2), (6, 4), (9, 6)):
        for r in (1, 2, 3):
            M = block_compose(n, k, r, default_block_cells(n, k, r))
            yield simulate(M, ODD)
            yield simulate(M, ODD, "plan", build_assignment_plan(M))
    # Walking the last stage instead leaves the row sums unequal, so the
    # travellers finish at different times and must stay at post m.
    for n in range(2, 9):
        for k in range(1, n):
            M = transpose_cyclic_matrix(n, k)
            yield simulate(BinaryScheme([r[:-1] + (0,) for r in M.rows]), ODD)
    five_two = []
    reference_enumerate(5, 2, lambda M, optimal: five_two.append(M))
    for M in five_two:
        yield simulate(M, ODD)


def test_cohort_profile_equals_the_fraction_reference():
    # Nobody waits in a stall-free run, so each trajectory is fixed by
    # its own row and the profile by the multiset of rows: the slow
    # reference runs once per multiset and policy (22 multisets among
    # the 2040 (5,2) matrices), the sweep on every trace.  Some plan
    # runs hand bicycles on differently from the greedy ones; the sweep
    # reads neither's bicycles nor times.
    reference = {}
    seen = set()
    for tr in _cohort_reference_cases():
        plan = build_assignment_plan(tr.scheme) if tr.policy == "plan" else None
        assert tr == reference_simulate(tr.scheme, tr.speeds, tr.policy, plan)
        assert tr.stall_events == ()
        key = (tuple(sorted(tr.scheme.rows)), tr.speeds, tr.policy)
        if key not in reference:
            reference[key] = _reference_cohort_profile(tr)
        got = cohort_profile(tr)
        assert got == reference[key], (tr.scheme.rows, tr.speeds)
        seen.add(got.max_positions)
    # The cases reach twelve distinct positions at one moment.
    assert max(seen) >= 12


def test_cohort_profile_rejects_stalled_runs(split_riders_swapped):
    tr = simulate(split_riders_swapped, HALF)
    with pytest.raises(ValueError):
        cohort_profile(tr)


def test_wide_speed_ratio_spreads_the_group():
    n = 5
    tr = simulate(transpose_cyclic_matrix(n, n - 1), SpeedModel(1, 100))
    prof = cohort_profile(tr)
    assert prof.max_spread > n - 2
    assert prof.max_adjacent_gap < 1
    assert prof.max_positions == n


def test_trace_csv_golden():
    M = parse_scheme("2 2\n1 0\n0 1\n")
    tr = simulate(M, HALF)
    out = io.StringIO()
    write_trace_csv(tr, out)
    # Arrivals carry the bicycle ridden into the post, if any.
    assert out.getvalue() == (
        "time,traveller,post,event,bike\r\n"
        "0/1,0,0,depart_ride,0\r\n"
        "0/1,1,0,depart_walk,\r\n"
        "1/2,0,1,arrive,0\r\n"
        "1/2,0,1,depart_walk,\r\n"
        "1/1,1,1,arrive,\r\n"
        "1/1,1,1,handover,0\r\n"
        "1/1,1,1,depart_ride,0\r\n"
        "3/2,0,2,arrive,\r\n"
        "3/2,1,2,arrive,0\r\n"
    )


_REFERENCE_RANK = {
    "arrive": 0,
    "stall_begin": 1,
    "stall_end": 2,
    "handover": 3,
    "depart_walk": 4,
    "depart_ride": 4,
}


def _reference_trace_csv(trace):
    """The trace CSV with rows sorted on their Fraction times."""
    rows = []
    for i in range(trace.scheme.n):
        for j in range(trace.scheme.m):
            bike = trace.stage_bike[i][j]
            bike = "" if bike is None else bike
            event = "depart_ride" if trace.scheme.rows[i][j] else "depart_walk"
            rows.append((trace.depart_times[i][j], i, j, event, bike))
            rows.append((trace.post_arrival_times[i][j + 1], i, j + 1, "arrive", bike))
    for s in trace.stall_events:
        rows.append((s.start, s.traveller, s.post, "stall_begin", ""))
        rows.append((s.start + s.wait, s.traveller, s.post, "stall_end", ""))
    for h in trace.handover_events:
        rows.append((h.time, h.taker, h.post, "handover", h.bike))
    rows.sort(key=lambda r: (r[0], r[1], _REFERENCE_RANK[r[3]], r[2]))
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["time", "traveller", "post", "event", "bike"])
    for t, traveller, post, event, bike in rows:
        writer.writerow([f"{t.numerator}/{t.denominator}", traveller, post, event, bike])
    return out.getvalue()


def test_trace_csv_equals_the_fraction_sorted_reference(split_riders, split_riders_swapped):
    rng = random.Random(63)
    stalling = []
    while len(stalling) < 6:
        M = random_uniform(6, 3, rng)
        if not decide_optimal(M).optimal:
            stalling.append(M)
    schemes = [split_riders, split_riders_swapped, *stalling]
    schemes += [transpose_cyclic_matrix(9, 4), cyclic_matrix(10, 3)]
    traces = [
        simulate(M, speeds)
        for M in schemes
        for speeds in (HALF, ODD, SpeedModel(1, 10))
    ]
    assert sum(1 for tr in traces if tr.stall_events) >= 3 * 7
    for tr in traces:
        assert tr == reference_simulate(tr.scheme, tr.speeds)
        out = io.StringIO()
        write_trace_csv(tr, out)
        assert out.getvalue() == _reference_trace_csv(tr), tr.scheme.rows


def test_trace_csv_equals_the_reference_at_benchmark_sizes():
    # cyclic, transpose-cyclic and a seeded stalling column permutation
    # at the sizes the execute-mid benchmark runs, greedy at three speed
    # models and the plan policy on the optimal schemes.
    rng = random.Random(4816)
    traces = []
    for n in (16, 24, 32, 48):
        base = cyclic_matrix(n, n // 3)
        cols = list(range(n))
        while True:
            rng.shuffle(cols)
            stalling = BinaryScheme([[row[c] for c in cols] for row in base.rows])
            if not decide_optimal(stalling).optimal:
                break
        optimal = [base, transpose_cyclic_matrix(n, n // 3)]
        assert all(decide_optimal(M).optimal for M in optimal)
        plans = [build_assignment_plan(M) for M in optimal]
        for speeds in (HALF, ODD, SpeedModel(1, 10)):
            traces += [simulate(M, speeds) for M in (*optimal, stalling)]
            traces += [simulate(M, speeds, "plan", P) for M, P in zip(optimal, plans)]
    assert sum(1 for tr in traces if tr.stall_events) == 4 * 3
    for tr in traces:
        out = io.StringIO()
        write_trace_csv(tr, out)
        assert out.getvalue() == _reference_trace_csv(tr), (tr.scheme.n, tr.speeds, tr.policy)


def test_trace_csv_rejects_a_time_off_the_tick_clock(split_riders):
    # At speeds 1:2 a tick is 1/2; a hand-built handover at 1/3 is no
    # whole number of ticks, so its row has no place on the clock.
    tr = simulate(split_riders, HALF)
    h = tr.handover_events[0]
    bad = replace(tr, handover_events=(replace(h, time=Fraction(1, 3)),))
    with pytest.raises(ValueError, match="1/3"):
        write_trace_csv(bad, io.StringIO())


def test_trace_csv_rejects_two_posts_at_one_tick(split_riders):
    # Traveller 4 walks stages 0-2 at speed 1.  A hand-built trace that
    # has them reach post 2 at time 1, the moment they leave post 1,
    # puts two of their posts at one tick.
    tr = simulate(split_riders, HALF)
    arrivals = list(tr.post_arrival_times[4])
    assert arrivals[2] == 2 and tr.depart_times[4][1] == 1
    arrivals[2] = tr.depart_times[4][1]
    times = list(tr.post_arrival_times)
    times[4] = tuple(arrivals)
    bad = replace(tr, post_arrival_times=tuple(times))
    with pytest.raises(ValueError, match="traveller 4's .* post 2"):
        write_trace_csv(bad, io.StringIO())


def test_trace_csv_rejects_a_handover_where_no_stage_starts(split_riders):
    # Post m ends the journey; no stage starts there to take a bicycle for.
    tr = simulate(split_riders, HALF)
    h = tr.handover_events[0]
    bad = replace(tr, handover_events=(replace(h, post=split_riders.m),))
    with pytest.raises(ValueError, match=f"no stage starts at post 6 for traveller {h.taker}'s"):
        write_trace_csv(bad, io.StringIO())


def test_stalls_appear_in_trace(split_riders_swapped):
    tr = simulate(split_riders_swapped, HALF)
    out = io.StringIO()
    write_trace_csv(tr, out)
    text = out.getvalue()
    assert "stall_begin" in text and "stall_end" in text
    assert text.count("handover") == len(tr.handover_events)


def test_equal_speeds_single_walker():
    # One traveller, one bicycle: rides everything, no boundaries crossed.
    M = parse_scheme("1 3\n1 1 1\n")
    tr = simulate(M, HALF)
    assert tr.makespan == Fraction(3, 2)
    assert tr.handover_events == ()


def test_deterministic_replay(handover_free):
    a = simulate(handover_free, HALF)
    b = simulate(handover_free, HALF)
    assert a.post_arrival_times == b.post_arrival_times
    assert a.handover_events == b.handover_events
