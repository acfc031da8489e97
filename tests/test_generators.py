from math import gcd

import pytest

from bikerelay import (
    BinaryScheme,
    binary_dual,
    block_compose,
    circulant_matrix,
    cyclic_matrix,
    decide_optimal,
    default_block_cells,
    is_single_ride_cyclic,
    permute_rows,
    reverse_stages,
    transpose,
    transpose_cyclic_matrix,
    uniformity,
    valid_stage_counts,
)


@pytest.mark.parametrize("n, k", [(1, 0), (1, 1), (4, 2), (5, 3), (6, 6), (9, 4)])
def test_cyclic_matrix_line_sums(n, k):
    M = cyclic_matrix(n, k)
    assert (M.n, M.m) == (n, n)
    assert set(M.row_sums) == {k} and set(M.col_sums) == {k}


def test_cyclic_matrix_layout():
    M = cyclic_matrix(5, 2)
    assert M.rows == (
        (1, 1, 0, 0, 0),
        (0, 0, 1, 1, 0),
        (1, 0, 0, 0, 1),  # interval 4..5 wraps back to column 0
        (0, 1, 1, 0, 0),
        (0, 0, 0, 1, 1),
    )


def test_cyclic_matrix_rejects_bad_arguments():
    with pytest.raises(ValueError):
        cyclic_matrix(0, 0)
    with pytest.raises(ValueError):
        cyclic_matrix(3, 4)


def test_transpose_cyclic_is_the_transpose():
    for n in range(1, 10):
        for k in range(0, n + 1):
            assert transpose_cyclic_matrix(n, k) == transpose(cyclic_matrix(n, k))


def test_circulant_layout():
    M = circulant_matrix(4, 2)
    assert M.rows == (
        (1, 1, 0, 0),
        (0, 1, 1, 0),
        (0, 0, 1, 1),
        (1, 0, 0, 1),
    )


def test_single_ride_recognition():
    assert is_single_ride_cyclic(cyclic_matrix(6, 2))
    assert is_single_ride_cyclic(permute_rows(cyclic_matrix(6, 2), [3, 0, 5, 1, 2, 4]))
    # Same row shapes, different multiset: not a reordering of the cyclic scheme.
    assert not is_single_ride_cyclic(circulant_matrix(6, 2))
    with pytest.raises(ValueError):
        is_single_ride_cyclic(BinaryScheme(((1, 1), (1, 0))))


def test_circulant_agrees_with_cyclic_up_to_rows_when_coprime():
    for n, k in ((5, 2), (5, 3), (7, 3), (8, 3)):
        assert gcd(n, k) == 1
        assert sorted(circulant_matrix(n, k).rows) == sorted(cyclic_matrix(n, k).rows)


def test_stage_and_row_reversal_coincide_on_cyclic():
    for n in range(1, 12):
        for k in range(0, n + 1):
            C = cyclic_matrix(n, k)
            assert reverse_stages(C) == permute_rows(C, range(n - 1, -1, -1))


def test_dual_of_cyclic():
    for n in range(1, 12):
        for k in range(0, n + 1):
            assert binary_dual(cyclic_matrix(n, k)) == reverse_stages(cyclic_matrix(n, n - k))


@pytest.mark.parametrize(
    "n, k, m, valid, r, l",
    [
        (6, 4, 3, True, 1, 2),
        (6, 4, 6, True, 2, 4),
        (6, 4, 4, False, None, None),
        (4, 2, 2, True, 1, 1),
        (9, 6, 9, True, 3, 6),
        (5, 3, 7, False, None, None),
    ],
)
def test_valid_stage_counts(n, k, m, valid, r, l):
    chk = valid_stage_counts(n, k, m)
    assert (chk.valid, chk.r, chk.l) == (valid, r, l)


def test_default_block_cells_shape():
    cells = default_block_cells(6, 4, 2)
    assert len(cells) == 2 and len(cells[0]) == 2
    assert all(cell == cyclic_matrix(3, 2) for row in cells for cell in row)


@pytest.mark.parametrize("n, k, r", [(4, 2, 1), (6, 4, 2), (9, 6, 3)])
def test_block_compose_output(n, k, r):
    B = block_compose(n, k, r, default_block_cells(n, k, r))
    d = gcd(n, k)
    rep = uniformity(B)
    assert (B.n, B.m) == (n, r * n // d)
    assert rep.is_uniform and rep.k == k and rep.l == r * k // d
    assert decide_optimal(B).optimal


def test_block_compose_accepts_mixed_cells():
    cell = cyclic_matrix(3, 2)
    other = permute_rows(cell, [1, 2, 0])
    B = block_compose(6, 4, 2, [[cell, other], [other, cell]])
    assert decide_optimal(B).optimal


def test_block_compose_rejects_bad_cells():
    with pytest.raises(ValueError):
        block_compose(6, 4, 2, default_block_cells(6, 4, 1))
    with pytest.raises(ValueError):
        block_compose(6, 4, 1, [[cyclic_matrix(4, 2)], [cyclic_matrix(4, 2)]])
    with pytest.raises(ValueError):
        block_compose(6, 4, 1, [[cyclic_matrix(3, 1)], [cyclic_matrix(3, 1)]])


def test_block_compose_rejects_non_optimal_cell():
    import random

    from bikerelay import random_uniform

    rng = random.Random(11)
    while True:
        cell = random_uniform(7, 3, rng)
        if not decide_optimal(cell).optimal:
            break
    with pytest.raises(ValueError):
        block_compose(7, 3, 1, [[cell]])
