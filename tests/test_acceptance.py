"""Acceptance gate: one test per shipped guarantee.

Everything here is exact rational or integer arithmetic, so every
comparison is equality; no tolerances anywhere.  The scaling benchmark
at the end reports timings without asserting them.
"""

import random
import time
from fractions import Fraction
from math import ceil, gcd

import pytest

from bikerelay import (
    SpeedModel,
    bicycle_itineraries,
    binary_dual,
    block_compose,
    build_assignment_plan,
    circulant_matrix,
    cohort_profile,
    count_excess_handovers,
    count_rides,
    cross_validate,
    cyclic_matrix,
    decide_optimal,
    default_block_cells,
    determinant_exact,
    enumerate_uniform,
    first_stall_ride_index,
    is_executable_without_stall,
    permute_rows,
    random_uniform,
    reduce_scheme,
    reverse_stages,
    simulate,
    transpose_cyclic_matrix,
    uniformity,
)
from bikerelay.oracle import DEFAULT_SPEED_RATIOS

SPEED_RATIOS = (Fraction(3, 2), Fraction(2), Fraction(10))


def test_c01_fixture_verdicts_under_a_second(split_riders, split_riders_swapped, handover_free):
    t0 = time.perf_counter()
    good = decide_optimal(split_riders)
    bad = decide_optimal(split_riders_swapped)
    big = decide_optimal(handover_free)
    elapsed = time.perf_counter() - t0
    assert good.optimal
    assert big.optimal
    assert not bad.optimal
    assert bad.failing_word == "bbbaaa"
    assert bad.failing_boundary == 2  # fourth stage starts here; 1-based boundary 3
    assert elapsed < 1.0
    print(f"criterion 1 PASS: fixture verdicts in {elapsed * 1000:.1f} ms")


def test_c02_every_small_uniform_matrix_is_optimal():
    total = 0
    for n in range(1, 6):
        for k in range(0, n + 1):
            rep = enumerate_uniform(n, k)
            assert rep.nonoptimal_count == 0, (n, k)
            total += rep.total_uniform
    print(f"criterion 2 PASS: {total} matrices with n <= 5, none non-optimal")


def test_c03_first_non_optimal_matrices_appear_at_n6_k3():
    by_k = {}
    for k in range(0, 7):
        rep = enumerate_uniform(6, k)
        by_k[k] = rep.nonoptimal_count
    assert by_k[3] > 0
    assert all(count == 0 for k, count in by_k.items() if k != 3)
    assert by_k[3] == 9560
    assert enumerate_uniform(6, 3).total_uniform == 297200
    print(f"criterion 3 PASS: non-optimal counts by k at n=6: {by_k}")


def test_c04_word_verdict_equals_greedy_execution():
    for n in range(1, 7):
        for k in range(0, n + 1):
            assert cross_validate(n, k) == [], (n, k)
    # The sampled half runs at the same ratios as cross_validate.
    assert SPEED_RATIOS == DEFAULT_SPEED_RATIOS
    rng = random.Random(20260814)
    disagreements = 0
    nonoptimal_seen = 0
    for n in (7, 8):
        for _ in range(5000):
            M = random_uniform(n, rng.randint(0, n), rng)
            verdict = decide_optimal(M).optimal
            if not verdict:
                nonoptimal_seen += 1
            for ratio in SPEED_RATIOS:
                if is_executable_without_stall(M, SpeedModel(1, ratio)) != verdict:
                    disagreements += 1
    assert disagreements == 0
    assert nonoptimal_seen > 0  # the sample genuinely exercises both verdicts
    print(
        "criterion 4 PASS: exhaustive n<=6 plus 10000 samples at n in {7,8}, "
        f"3 speed ratios, 0 mismatches ({nonoptimal_seen} non-optimal samples)"
    )


def test_c05_generator_families_decide_optimal():
    for n in range(1, 41):
        for k in range(0, n + 1):
            assert decide_optimal(cyclic_matrix(n, k)).optimal, ("cyclic", n, k)
            assert decide_optimal(transpose_cyclic_matrix(n, k)).optimal, ("transpose", n, k)
    print("criterion 5 PASS: cyclic and transpose-cyclic optimal for all 0 <= k <= n <= 40")


def test_c06_transforms_preserve_optimality_and_handover_count():
    pool = []
    for n in range(4, 14):
        for k in range(0, n + 1):
            pool.append(cyclic_matrix(n, k))
            pool.append(transpose_cyclic_matrix(n, k))
            if k and gcd(n, k) == 1:
                pool.append(circulant_matrix(n, k))
    pool = pool[:200]
    assert len(pool) == 200
    for idx, M in enumerate(pool):
        h = count_excess_handovers(M)
        pi = list(range(M.n))
        random.Random(idx).shuffle(pi)
        for variant in (permute_rows(M, pi), reverse_stages(M), binary_dual(M)):
            assert decide_optimal(variant).optimal
            assert count_excess_handovers(variant) == h
    print("criterion 6 PASS: 200 matrices, permuted/reversed/dual all optimal with equal h")


def test_c07_ride_and_mount_counts_match_closed_forms():
    for n in range(1, 26):
        for k in range(1, n + 1):
            d = gcd(n, k)
            C = cyclic_matrix(n, k)
            assert count_rides(C).total_rides == n + k - d, (n, k)

            mounts = bicycle_itineraries(C, build_assignment_plan(C))
            base = ceil(n / k)
            r = n % k
            riders = [i for i in range(n) if C.rows[i][0] == 1]
            for m_idx, owner in enumerate(riders):
                c_m = ((k * (owner + 1) - 1) % n) + 1
                want = base if r <= c_m else base + 1
                assert mounts[m_idx] == want, (n, k, m_idx)

            T = transpose_cyclic_matrix(n, k)
            trides = n * k if 2 * k <= n else n * (n - k - 1) + 2 * k
            assert count_rides(T).total_rides == trides, (n, k)
            assert count_excess_handovers(T) == min(k * (k - 1), (n - k) * (n - k - 1))
            reduced, _ = reduce_scheme(T)
            assert count_rides(reduced).total_rides == k * (n - k + 1)

    T = transpose_cyclic_matrix(11, 7)
    stats = count_rides(T)
    assert stats.total_rides == 47
    assert stats.per_traveller == (4, 4, 4, 4, 5, 5, 5, 4, 4, 4, 4)
    assert count_excess_handovers(T) == 12
    reduced, removed = reduce_scheme(T)
    assert removed == 12
    assert count_rides(reduced).total_rides == 35
    print("criterion 7 PASS: closed forms hold for n <= 25; the (11,7) worked example is exact")


def test_c08_group_stays_in_three_tight_cohorts():
    for n in range(2, 25):
        for k in range(1, n // 2 + 1):
            M = transpose_cyclic_matrix(n, k)
            for ratio in (Fraction(3, 2), Fraction(2), Fraction(5)):
                prof = cohort_profile(simulate(M, SpeedModel(1, ratio)))
                assert prof.max_positions <= 3, (n, k, ratio)
                assert prof.max_adjacent_gap < 1, (n, k, ratio)
    for n in (5, 10, 20):
        prof = cohort_profile(simulate(transpose_cyclic_matrix(n, n - 1), SpeedModel(1, 100)))
        assert prof.max_spread > n - 2, (n, prof)
        assert prof.max_adjacent_gap < 1
    print("criterion 8 PASS: <= 3 cohorts with gaps < 1 for 2k <= n <= 24; ratio 100 spreads past n-2")


def test_c13_cohort_separation_stays_under_two_stages():
    # The abstract bounds the separation of transpose-cyclic's three
    # cohorts, for 2k <= n, to under 2/n of the journey: under two of
    # its n stages.
    peak = Fraction(0)
    for n in range(1, 25):
        for k in range(n // 2 + 1):
            M = transpose_cyclic_matrix(n, k)
            for ratio in (Fraction(3, 2), Fraction(2), Fraction(5), Fraction(100)):
                prof = cohort_profile(simulate(M, SpeedModel(1, ratio)))
                assert prof.max_positions <= 3, (n, k, ratio)
                assert prof.max_spread < 2, (n, k, ratio, prof)
                peak = max(peak, prof.max_spread)
    assert peak == Fraction(99, 50)
    # At (5, 2) the spread is 2 - 2/ratio, so the bound is approached
    # as cycling gets faster but never reached.
    for ratio in (10, 100, 1000):
        prof = cohort_profile(simulate(transpose_cyclic_matrix(5, 2), SpeedModel(1, ratio)))
        assert prof.max_spread == 2 - Fraction(2, ratio), ratio
    print("criterion 13 PASS: separation < 2 stages for 2k <= n <= 24; peak 99/50 at ratio 100")


def test_c09_cyclic_determinants():
    for n in range(2, 13):
        for k in range(0, n + 1):
            got = abs(determinant_exact(cyclic_matrix(n, k)))
            want = k if gcd(n, k) == 1 else 0
            assert got == want, (n, k)
    print("criterion 9 PASS: |det| = k exactly when gcd(n,k) = 1, for 2 <= n <= 12")


def test_c10_block_composition_is_optimal_and_synchronised():
    for n, k in ((4, 2), (6, 4), (9, 6)):
        d = gcd(n, k)
        for r in (1, 2, 3):
            B = block_compose(n, k, r, default_block_cells(n, k, r))
            rep = uniformity(B)
            l = r * k // d
            assert rep.is_uniform and rep.k == k and rep.l == l
            assert decide_optimal(B).optimal
            tr = simulate(B)
            assert tr.stall_events == ()
            finish = Fraction(B.m - l) + Fraction(l, 2)
            assert all(row[-1] == finish for row in tr.post_arrival_times)
    print("criterion 10 PASS: nine block schemes, all uniform, optimal, and finishing together")


def test_c11_stalls_never_hit_the_first_two_rides():
    examples = enumerate_uniform(6, 3, max_examples=9560).minimal_nonoptimal_examples
    assert len(examples) == 9560
    ordinals = {first_stall_ride_index(M) for M in examples}
    assert all(o is not None and o >= 3 for o in ordinals)
    assert min(ordinals) == 3
    print(f"criterion 11 PASS: all 9560 stalling schemes stall first at ride ordinal {sorted(ordinals)}")


def test_c12_scaling_benchmark_reported_not_asserted():
    timings = {}
    for n in (256, 512, 1024):
        M = cyclic_matrix(n, n // 2 - 1)
        best = None
        for _ in range(3):
            t0 = time.perf_counter()
            verdict = decide_optimal(M)
            elapsed = time.perf_counter() - t0
            best = elapsed if best is None else min(best, elapsed)
            assert verdict.optimal
        timings[n] = best
    factors = [timings[512] / timings[256], timings[1024] / timings[512]]
    line = ", ".join(f"n={n}: {t * 1000:.0f} ms" for n, t in timings.items())
    print(f"criterion 12 REPORT: {line}; growth per doubling {factors[0]:.2f}x, {factors[1]:.2f}x")
    if any(f > 5 for f in factors):
        import warnings

        warnings.warn(f"decide_optimal growth factors {factors} exceed 5 per doubling")
