import random
from fractions import Fraction
from math import ceil, gcd

import pytest

from bikerelay import (
    BinaryScheme,
    SpeedModel,
    bicycle_itineraries,
    block_compose,
    build_assignment_plan,
    circulant_matrix,
    cohort_profile,
    count_excess_handovers,
    count_rides,
    cyclic_matrix,
    decide_optimal,
    default_block_cells,
    parse_scheme,
    random_uniform,
    reduce_scheme,
    simulate,
    transpose_cyclic_matrix,
    uniformity,
)

from reference_listing import reference_enumerate


def reference_reduce(M: BinaryScheme) -> tuple[BinaryScheme, int]:
    """The row-list reduction, repeating full passes until one makes no swap."""
    verdict = decide_optimal(M)
    if not verdict.optimal:
        raise ValueError(f"scheme is not optimal ({verdict.reason})")
    rows = [list(r) for r in M.rows]
    n, m = M.n, M.m
    removed = 0
    changed = True
    while changed:
        changed = False
        ridden = [0] * n  # stages ridden before the current boundary's post
        for b in range(m - 1):
            for i in range(n):
                ridden[i] += rows[i][b]
            by_sum: dict[int, tuple[list[int], list[int]]] = {}
            for i in range(n):
                first, second = rows[i][b], rows[i][b + 1]
                if first == second:
                    continue
                droppers, takers = by_sum.setdefault(ridden[i], ([], []))
                (droppers if first else takers).append(i)
            for droppers, takers in by_sum.values():
                for i1, i2 in zip(droppers, takers):
                    tail = b + 1
                    rows[i1][tail:], rows[i2][tail:] = rows[i2][tail:], rows[i1][tail:]
                    removed += 1
                    changed = True
    return BinaryScheme(rows), removed


@pytest.mark.parametrize(
    "row, rides",
    [
        ("1 1 1 0 0 0", 1),
        ("1 1 0 1 0 0", 2),
        ("0 1 0 1 0 1", 3),
        ("0 0 0 0 0 0", 0),
        ("1 1 1 1 1 1", 1),
    ],
)
def test_count_rides_counts_runs(row, rides):
    M = parse_scheme("1 6\n" + row + "\n")
    stats = count_rides(M)
    assert stats.total_rides == rides
    assert stats.per_traveller == (rides,)


def test_handover_free_fixture_stats(handover_free):
    stats = count_rides(handover_free)
    assert stats.total_rides == 35
    assert stats.per_traveller == (3, 3, 3, 3, 3, 4, 3, 3, 3, 4, 3)
    assert count_excess_handovers(handover_free) == 0
    reduced, removed = reduce_scheme(handover_free)
    assert removed == 0 and reduced == handover_free


def test_reduce_transpose_cyclic_11_7():
    T = transpose_cyclic_matrix(11, 7)
    before = count_rides(T)
    assert before.total_rides == 47
    assert count_excess_handovers(T) == 12
    R, removed = reduce_scheme(T)
    assert removed == 12
    after = count_rides(R)
    assert after.total_rides == 35
    assert sorted(after.per_traveller) == [3] * 9 + [4, 4]
    assert R.row_sums == T.row_sums and R.col_sums == T.col_sums
    assert decide_optimal(R).optimal
    assert count_excess_handovers(R) == 0


def test_reduction_reaches_a_fixpoint_on_random_matrices():
    rng = random.Random(1234)
    checked = 0
    while checked < 60:
        n = rng.randint(2, 9)
        M = random_uniform(n, rng.randint(0, n), rng)
        if not decide_optimal(M).optimal:
            continue
        checked += 1
        R, removed = reduce_scheme(M)
        assert count_rides(M).total_rides - removed == count_rides(R).total_rides
        assert count_excess_handovers(R) == 0
        assert R.row_sums == M.row_sums and R.col_sums == M.col_sums
        again, more = reduce_scheme(R)
        assert more == 0 and again == R
        assert decide_optimal(R).optimal


def test_excess_handover_count_is_a_boundary_sum():
    # Independently recount: at each boundary, pairs of a dropper and a
    # taker with the same number of rides behind them.
    from bikerelay import prefix_sums

    rng = random.Random(99)
    checked = 0
    while checked < 40:
        n = rng.randint(2, 8)
        M = random_uniform(n, rng.randint(0, n), rng)
        if not decide_optimal(M).optimal:
            continue
        checked += 1
        S = prefix_sums(M)
        total = 0
        for b in range(M.m - 1):
            droppers = [i for i, r in enumerate(M.rows) if r[b] > r[b + 1]]
            takers = [i for i, r in enumerate(M.rows) if r[b] < r[b + 1]]
            for v in set(S.table[i][b + 1] for i in droppers):
                drops = sum(1 for i in droppers if S.table[i][b + 1] == v)
                takes = sum(1 for i in takers if S.table[i][b + 1] == v)
                total += min(drops, takes)
        assert count_excess_handovers(M) == total


def test_excess_count_equals_the_reduction_swap_count():
    schemes = []
    for n in range(1, 6):
        for k in range(n + 1):
            reference_enumerate(n, k, lambda M, optimal: schemes.append(M))
    assert len(schemes) == 4482  # every uniform matrix with n <= 5
    for n in range(1, 26):
        for k in range(1, n + 1):
            schemes += [transpose_cyclic_matrix(n, k), circulant_matrix(n, k)]
    rng = random.Random(146)
    drawn = 0
    while drawn < 200:
        n = rng.randint(1, 12)
        M = random_uniform(n, rng.randint(0, n), rng)
        if decide_optimal(M).optimal:
            schemes.append(M)
            drawn += 1
    for M in schemes:
        reduced, removed = reference_reduce(M)
        got, swaps = reduce_scheme(M)
        assert got == reduced and got.rows == reduced.rows, M.rows
        assert swaps == removed == count_excess_handovers(M), M.rows


def test_excess_count_rejects_non_optimal_schemes(split_riders_swapped):
    with pytest.raises(ValueError):
        count_excess_handovers(split_riders_swapped)


def test_transpose_cyclic_closed_forms():
    for n in range(1, 16):
        for k in range(1, n + 1):
            T = transpose_cyclic_matrix(n, k)
            got = count_rides(T).total_rides
            want = n * k if 2 * k <= n else n * (n - k - 1) + 2 * k
            assert got == want, (n, k)
            assert count_excess_handovers(T) == min(k * (k - 1), (n - k) * (n - k - 1))
            reduced, _ = reduce_scheme(T)
            assert count_rides(reduced).total_rides == k * (n - k + 1)


def test_cyclic_ride_count_closed_form():
    for n in range(1, 16):
        for k in range(1, n + 1):
            rides = count_rides(cyclic_matrix(n, k)).total_rides
            assert rides == n + k - gcd(n, k)


def test_bicycle_itineraries_split(split_riders):
    P = build_assignment_plan(split_riders)
    mounts = bicycle_itineraries(split_riders, P)
    assert mounts == (2, 2, 2)


def test_cyclic_mounts_stay_within_one_of_the_quotient():
    for n in range(1, 13):
        for k in range(1, n + 1):
            C = cyclic_matrix(n, k)
            mounts = bicycle_itineraries(C, build_assignment_plan(C))
            assert len(mounts) == k
            base = ceil(n / k)
            assert set(mounts) <= {base, base + 1}, (n, k, mounts)


def test_reduction_keeps_uniformity_class(handover_free):
    T = transpose_cyclic_matrix(11, 7)
    R, _ = reduce_scheme(T)
    a, b = uniformity(R), uniformity(handover_free)
    assert (a.is_uniform, a.k, a.l) == (b.is_uniform, b.k, b.l)


def test_reduction_keeps_the_group_motion():
    # The module's promise: the reduced scheme moves the group exactly as
    # the original does, so the same positions are held at every moment.
    schemes = []
    for n in (6, 12, 24, 48):
        k = n // 3
        schemes += [cyclic_matrix(n, k), circulant_matrix(n, k), transpose_cyclic_matrix(n, k)]
        schemes.append(transpose_cyclic_matrix(n, n // 4 + 1))
    schemes += [
        block_compose(n, k, r, default_block_cells(n, k, r))
        for n, k, r in ((12, 4, 2), (24, 16, 3), (48, 12, 1))
    ]
    swapped = 0
    for M in schemes:
        R, swaps = reduce_scheme(M)
        swapped += swaps > 0
        assert R.col_masks == BinaryScheme(R.rows).col_masks
        for ratio in (Fraction(3, 2), Fraction(2), Fraction(10)):
            speeds = SpeedModel(1, ratio)
            a, b = simulate(M, speeds), simulate(R, speeds)
            assert b.makespan == a.makespan
            assert cohort_profile(b) == cohort_profile(a)
            assert [sorted(p) for p in zip(*b.post_arrival_times)] == [
                sorted(p) for p in zip(*a.post_arrival_times)
            ], (M, ratio)
    assert swapped >= 6
