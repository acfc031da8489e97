import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bikerelay import (
    BinaryScheme,
    cross_validate,
    cyclic_matrix,
    determinant_exact,
    enumerate_uniform,
    random_uniform,
    uniformity,
    verify_cyclic_structure,
)

# Counts of n x n binary matrices with all line sums k, by independent
# per-column dynamic programming over row capacity multisets.
UNIFORM_COUNTS = {
    3: [1, 6, 6, 1],
    4: [1, 24, 90, 24, 1],
    5: [1, 120, 2040, 2040, 120, 1],
}


@pytest.mark.parametrize("n", sorted(UNIFORM_COUNTS))
def test_enumeration_census(n):
    for k, want in enumerate(UNIFORM_COUNTS[n]):
        rep = enumerate_uniform(n, k)
        assert rep.total_uniform == want
        assert rep.optimal_count + rep.nonoptimal_count == want


def test_enumeration_visits_every_matrix_once():
    seen = set()

    def visit(M, optimal):
        assert isinstance(M, BinaryScheme)
        assert optimal is True
        seen.add(M.rows)

    rep = enumerate_uniform(4, 2, visit)
    assert len(seen) == 90 == rep.total_uniform
    assert all(set(sum(rows, ())) <= {0, 1} for rows in seen)


def test_enumeration_collects_limited_examples():
    rep = enumerate_uniform(6, 3, max_examples=2)
    assert rep.nonoptimal_count == 9560
    assert len(rep.minimal_nonoptimal_examples) == 2


def test_enumeration_guard():
    with pytest.raises(ValueError):
        enumerate_uniform(8, 4)
    rep = enumerate_uniform(2, 1, force=True)
    assert rep.total_uniform == 2


def test_cross_validate_small():
    assert cross_validate(4, 2) == []
    assert cross_validate(5, 2) == []


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 10), st.integers(0, 10), st.integers(0, 2**32 - 1))
@example(40, 20, 0)
def test_random_uniform_is_uniform(n, k, seed):
    k = min(k, n)
    M = random_uniform(n, k, random.Random(seed))
    rep = uniformity(M)
    assert rep.is_uniform and rep.k == k
    assert (M.n, M.m) == (n, n)


def test_random_uniform_is_deterministic_per_seed():
    a = random_uniform(8, 3, random.Random(5))
    b = random_uniform(8, 3, random.Random(5))
    assert a == b


@pytest.mark.parametrize(
    "rows, det",
    [
        (((1,),), 1),
        (((1, 1), (1, 0)), -1),
        (((1, 0), (0, 1)), 1),
        (((1, 1), (1, 1)), 0),
        (((0, 1, 1), (1, 0, 1), (1, 1, 0)), 2),
    ],
)
def test_determinant_exact_hand_values(rows, det):
    assert determinant_exact(BinaryScheme(rows)) == det


def test_determinant_rejects_rectangles():
    with pytest.raises(ValueError):
        determinant_exact(BinaryScheme(((1, 0, 1),)))


def test_cyclic_determinant_spot_checks():
    assert abs(determinant_exact(cyclic_matrix(5, 2))) == 2
    assert abs(determinant_exact(cyclic_matrix(7, 3))) == 3
    assert determinant_exact(cyclic_matrix(6, 3)) == 0


def test_cyclic_structure_report():
    rep = verify_cyclic_structure(6, 4)
    assert rep.all_ok
    assert (rep.d, rep.n_prime, rep.k_prime) == (2, 3, 2)
    assert rep.rotation_offset == 2  # inverse of 2 mod 3
    for n in range(1, 15):
        for k in range(1, n + 1):
            assert verify_cyclic_structure(n, k).all_ok, (n, k)
