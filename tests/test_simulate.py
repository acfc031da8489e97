import csv
import io
import random
from fractions import Fraction

import pytest

from bikerelay import (
    AssignmentPlan,
    DeadlockError,
    CohortProfile,
    SpeedModel,
    block_compose,
    build_assignment_plan,
    cohort_profile,
    cyclic_matrix,
    decide_optimal,
    default_block_cells,
    enumerate_uniform,
    first_stall_ride_index,
    is_executable_without_stall,
    parse_scheme,
    random_uniform,
    simulate,
    stage_cut,
    transpose_cyclic_matrix,
    write_trace_csv,
)

HALF = SpeedModel(1, 2)
# Non-integer speeds on both sides, so times and positions have
# unrelated denominators.
ODD = SpeedModel(Fraction(2, 3), Fraction(7, 5))


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
                full = not simulate(M, speeds).stall_events
            except DeadlockError:
                continue
            assert is_executable_without_stall(M, speeds) is full


def test_deadlock_when_bicycles_appear():
    M = parse_scheme("2 2\n1 1\n0 1\n")
    with pytest.raises(DeadlockError) as exc:
        simulate(M, HALF)
    assert exc.value.post == 1


def reference_first_stall_ride_index(M, speeds=None):
    """first_stall_ride_index as it was: the earliest stall of a full simulation."""
    trace = simulate(M, speeds)
    if not trace.stall_events:
        return None
    first = min(trace.stall_events, key=lambda s: (s.start, s.post, s.traveller))
    return first.ride_index


def test_first_stall_equals_the_simulated_reference(split_riders, split_riders_swapped):
    # Without a visitor, max_examples=9560 collects every stalling (6,3) matrix.
    stalling = enumerate_uniform(6, 3, max_examples=9560).minimal_nonoptimal_examples
    assert len(stalling) == 9560
    cases = [split_riders, split_riders_swapped, *stalling]
    for ratio in (Fraction(3, 2), Fraction(2), Fraction(10)):
        speeds = SpeedModel(1, ratio)
        for M in cases:
            want = reference_first_stall_ride_index(M, speeds)
            assert first_stall_ride_index(M, speeds) == want, (M.rows, ratio)
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


def test_structurally_sound_plan_with_late_bicycles_stalls(split_riders_swapped):
    # The scheme admits no stall-free execution; a plan that is shaped
    # correctly still leaves takers waiting for bicycles in transit.
    M = split_riders_swapped
    maps = []
    for b in range(M.m - 1):
        cut = stage_cut(M, b)
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


def _reference_position_and_mode(trace, i, t):
    """Where traveller i is at time t and whether they are mid-ride."""
    arr = trace.post_arrival_times[i]
    dep = trace.depart_times[i]
    row = trace.scheme.rows[i]
    m = trace.scheme.m
    if t >= arr[m]:
        return Fraction(m), False
    for j in range(m):
        if t < dep[j]:
            return Fraction(j), False
        if t < arr[j + 1]:
            speed = trace.speeds.cycle_speed if row[j] else trace.speeds.walk_speed
            return j + (t - dep[j]) * speed, bool(row[j])
    return Fraction(m), False


def _reference_cohort_profile(trace):
    """Locate every traveller afresh, in Fractions, at each sample."""
    times = {t for row in trace.post_arrival_times for t in row}
    times.update(t for row in trace.depart_times for t in row)
    ordered = sorted(times)
    samples = sorted(ordered + [(a + b) / 2 for a, b in zip(ordered, ordered[1:])])
    max_positions = 1
    max_gap = max_spread = Fraction(0)
    mixed = False
    for t in samples:
        spots = {}
        for i in range(trace.scheme.n):
            pos, riding = _reference_position_and_mode(trace, i, t)
            spots.setdefault(pos, set()).add(riding)
        here = sorted(spots)
        max_positions = max(max_positions, len(here))
        max_spread = max(max_spread, here[-1] - here[0])
        for a, b in zip(here, here[1:]):
            max_gap = max(max_gap, b - a)
        mixed = mixed or any(len(modes) > 1 for modes in spots.values())
    return CohortProfile(max_positions, max_gap, max_spread, mixed)


def _cohort_reference_cases():
    for n in range(1, 13):
        for k in range(n + 1):
            M = transpose_cyclic_matrix(n, k)
            for speeds in (SpeedModel(1, Fraction(3, 2)), ODD, SpeedModel(1, 100)):
                yield simulate(M, speeds)
    for n, k in ((4, 2), (6, 4), (9, 6)):
        for r in (1, 2, 3):
            yield simulate(block_compose(n, k, r, default_block_cells(n, k, r)), ODD)
    five_two = []
    enumerate_uniform(5, 2, lambda M, optimal: five_two.append(M))
    for M in five_two:
        yield simulate(M, ODD)


def test_cohort_profile_equals_the_fraction_reference():
    # Nobody waits in a stall-free run, so each trajectory is fixed by
    # its own row and the profile by the multiset of rows: the slow
    # reference runs once per multiset (22 of them among the 2040
    # (5,2) matrices), the sweep on every trace.
    reference = {}
    seen = set()
    for tr in _cohort_reference_cases():
        assert tr.stall_events == ()
        key = (tuple(sorted(tr.scheme.rows)), tr.speeds)
        if key not in reference:
            reference[key] = _reference_cohort_profile(tr)
        got = cohort_profile(tr)
        assert got == reference[key], (tr.scheme.rows, tr.speeds)
        seen.add((got.max_positions, got.mixed_mode_colocation))
    # The cases reach every shape the sweep distinguishes.
    assert {True, False} == {mixed for _, mixed in seen}
    assert max(positions for positions, _ in seen) >= 12


def test_mixed_mode_colocation_marks_only_mixed_first_stages():
    # At t = 0 the riders and walkers of stage 0 all leave post 0, so
    # every stall-free run with 0 < k < n sets the flag.
    for n in range(1, 13):
        for k in range(n + 1):
            for speeds in (HALF, ODD, SpeedModel(1, 100)):
                prof = cohort_profile(simulate(transpose_cyclic_matrix(n, k), speeds))
                assert prof.mixed_mode_colocation is (0 < k < n), (n, k, speeds)


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
        out = io.StringIO()
        write_trace_csv(tr, out)
        assert out.getvalue() == _reference_trace_csv(tr), tr.scheme.rows


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
