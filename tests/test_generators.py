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
    enumerate_uniform,
    is_single_ride_cyclic,
    permute_rows,
    reverse_stages,
    transpose,
    transpose_cyclic_matrix,
    uniformity,
    valid_stage_counts,
)
from bikerelay import generators
from bikerelay.generators import _check_nk

from reference_listing import reference_enumerate


def reference_cyclic_matrix(n, k):
    _check_nk(n, k)
    rows = []
    for i in range(n):
        row = [0] * n
        for t in range(k):
            row[(i * k + t) % n] = 1
        rows.append(row)
    return BinaryScheme(rows)


def reference_circulant_matrix(n, k):
    _check_nk(n, k)
    rows = []
    for i in range(n):
        row = [0] * n
        for t in range(k):
            row[(i + t) % n] = 1
        rows.append(row)
    return BinaryScheme(rows)


def reference_block_compose(n, k, r, cells):
    _check_nk(n, k)
    if r < 1:
        raise ValueError(f"need at least one stage block, got r={r}")
    d = gcd(n, k) if k else n
    n_prime, k_prime = n // d, k // d
    if len(cells) != d or any(len(row) != r for row in cells):
        raise ValueError(f"cells must form a {d}x{r} array")
    for g, cell_row in enumerate(cells):
        for t, cell in enumerate(cell_row):
            if cell.n != n_prime or cell.m != n_prime:
                raise ValueError(
                    f"cell ({g},{t}) is {cell.n}x{cell.m}, expected {n_prime}x{n_prime}"
                )
            uni = uniformity(cell)
            if not uni.is_uniform or uni.k != k_prime:
                raise ValueError(f"cell ({g},{t}) is not {k_prime}-uniform")
            if not decide_optimal(cell).optimal:
                raise ValueError(f"cell ({g},{t}) does not decide optimal")
    rows = []
    for g in range(d):
        for i in range(n_prime):
            row = []
            for t in range(r):
                row.extend(cells[g][t].rows[i])
            rows.append(row)
    return BinaryScheme(rows)


def reference_is_single_ride_cyclic(M):
    if not M.is_square:
        raise ValueError("defined for square schemes only")
    uni = uniformity(M)
    if not uni.is_uniform:
        raise ValueError("defined for uniform schemes only")
    n = M.n
    for row in M.rows:
        starts = sum(
            1 for j in range(n) if row[j] == 0 and row[(j + 1) % n] == 1
        )
        if starts > 1:
            return False
    reference = sorted(reference_cyclic_matrix(n, uni.k).rows)
    return sorted(M.rows) == reference


def assert_same_scheme(got, want):
    assert got == want
    assert (got.n, got.m) == (want.n, want.m)
    assert got.rows == want.rows and got.col_masks == want.col_masks


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
    for n in range(1, 65):
        for k in range(0, n + 1):
            T, C = transpose_cyclic_matrix(n, k), cyclic_matrix(n, k)
            assert T == transpose(C), (n, k)
            assert T.col_masks == C.masks, (n, k)


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
    with pytest.raises(ValueError, match="uniform"):
        is_single_ride_cyclic(BinaryScheme(((1, 1), (1, 0))))
    with pytest.raises(ValueError, match="square"):
        is_single_ride_cyclic(BinaryScheme(((1, 0),) * 4))


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
    with pytest.raises(ValueError, match="stage block"):
        block_compose(4, 2, 0, [])
    with pytest.raises(ValueError, match="stage"):
        valid_stage_counts(4, 2, 0)


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


def test_generators_equal_the_row_references():
    for n in range(1, 41):
        for k in range(n + 1):
            want = reference_cyclic_matrix(n, k)
            assert_same_scheme(cyclic_matrix(n, k), want)
            T = transpose_cyclic_matrix(n, k)
            assert T.rows == tuple(zip(*want.rows))
            assert T.col_masks == want.masks
            assert_same_scheme(circulant_matrix(n, k), reference_circulant_matrix(n, k))
    for n, k in ((0, 0), (3, 4), (3, -1)):
        for generator in (cyclic_matrix, circulant_matrix):
            with pytest.raises(ValueError):
                generator(n, k)


def test_block_compose_equals_the_row_reference():
    # The shapes of test_block_compose_output and the valid cases of
    # test_valid_stage_counts, with stock cells and with mixed ones.
    for n, k, r in ((4, 2, 1), (4, 2, 2), (6, 4, 1), (6, 4, 2), (9, 6, 3)):
        d = gcd(n, k)
        cell = cyclic_matrix(n // d, k // d)
        other = permute_rows(cell, [(i + 1) % cell.n for i in range(cell.n)])
        mixed = [[(cell, other)[(g + t) % 2] for t in range(r)] for g in range(d)]
        for cells in (default_block_cells(n, k, r), mixed):
            assert_same_scheme(
                block_compose(n, k, r, cells), reference_block_compose(n, k, r, cells)
            )
    # Three distinct cells, repeated in no regular pattern.
    cell = cyclic_matrix(3, 2)
    shifts = [permute_rows(cell, [(i + s) % 3 for i in range(3)]) for s in range(3)]
    cells = [[shifts[(g * g + t) % 3] for t in range(5)] for g in range(3)]
    assert_same_scheme(block_compose(9, 6, 5, cells), reference_block_compose(9, 6, 5, cells))


def test_block_compose_decides_each_distinct_cell_once(monkeypatch):
    calls = []

    def counted(M):
        calls.append(M)
        return decide_optimal(M)

    monkeypatch.setattr(generators, "decide_optimal", counted)
    cell = cyclic_matrix(3, 2)
    other = permute_rows(cell, [1, 2, 0])
    grids = [
        (12, 8, 3, default_block_cells(12, 8, 3), 1),
        # Equal cells that are distinct objects count once too.
        (6, 4, 2, [[cyclic_matrix(3, 2) for _ in range(2)] for _ in range(2)], 1),
        (6, 4, 2, [[cell, other], [other, cell]], 2),
    ]
    for n, k, r, cells, distinct in grids:
        calls.clear()
        block_compose(n, k, r, cells)
        assert len(calls) == distinct


def _bad_cells():
    # (n, k, good cell, bad cell, error text without the position)
    nonoptimal = enumerate_uniform(7, 3, max_examples=1).minimal_nonoptimal_examples[0]
    yield 6, 4, cyclic_matrix(3, 2), cyclic_matrix(4, 2), "is 4x4, expected 3x3"
    yield 6, 4, cyclic_matrix(3, 2), cyclic_matrix(3, 1), "is not 2-uniform"
    yield 14, 6, cyclic_matrix(7, 3), nonoptimal, "does not decide optimal"


@pytest.mark.parametrize(
    "layout, first",
    [
        # Equal valid cells before the bad one do not hide it.
        (("good", "good", "good", "bad"), (1, 1)),
        # A bad cell that repeats is named where it first appears.
        (("good", "bad", "bad", "bad"), (0, 1)),
        (("bad", "good", "good", "bad"), (0, 0)),
    ],
)
def test_block_compose_names_the_first_bad_cell(layout, first):
    g, t = first
    for n, k, good, bad, text in _bad_cells():
        flat = [{"good": good, "bad": bad}[name] for name in layout]
        cells = [flat[:2], flat[2:]]
        with pytest.raises(ValueError) as got:
            block_compose(n, k, 2, cells)
        with pytest.raises(ValueError) as want:
            reference_block_compose(n, k, 2, cells)
        assert str(got.value) == str(want.value) == f"cell ({g},{t}) {text}"


def test_single_ride_recognition_equals_the_row_reference():
    seen = []

    def visit(M, optimal):
        got = is_single_ride_cyclic(M)
        assert got == reference_is_single_ride_cyclic(M), M.rows
        seen.append(got)

    for n in range(1, 6):
        for k in range(n + 1):
            reference_enumerate(n, k, visit)
    assert len(seen) == 4482
    assert 0 < seen.count(True) < len(seen)
