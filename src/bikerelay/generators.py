"""Constructors for the named scheme families.

cyclic: traveller i rides the k stages starting at stage i*k (mod n),
so each bicycle circulates through the whole group with one ride per
traveller per circuit.  transpose_cyclic is its matrix transpose and
keeps the group bunched.  circulant staggers the riding windows by one
stage per traveller.  block_compose tiles optimal square cells into a
rectangular scheme for journeys whose stage count is a multiple of
n/gcd(n,k).
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple, Sequence

from .optimality import decide_optimal
from .scheme import BinaryScheme, transpose, uniformity


def _check_nk(n: int, k: int):
    if n < 1:
        raise ValueError(f"need at least one traveller, got n={n}")
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range 0..{n}")


def _windows(n: int, k: int, step: int) -> BinaryScheme:
    """Row i rides the k stages i*step .. i*step+k-1 (mod n)."""
    _check_nk(n, k)
    full = (1 << n) - 1
    masks = []
    for i in range(n):
        x = full >> (n - k) << (i * step % n)
        masks.append((x | x >> n) & full)
    return BinaryScheme._from_masks(tuple(masks), n)


def cyclic_matrix(n: int, k: int) -> BinaryScheme:
    """Row i rides stages i*k .. i*k+k-1 (mod n); k-uniform and square."""
    return _windows(n, k, k)


def transpose_cyclic_matrix(n: int, k: int) -> BinaryScheme:
    """Column j carries rows j*k .. j*k+k-1 (mod n); the cyclic transpose."""
    return transpose(cyclic_matrix(n, k))


def circulant_matrix(n: int, k: int) -> BinaryScheme:
    """Row i rides stages i .. i+k-1 (mod n)."""
    return _windows(n, k, 1)


class StageCountCheck(NamedTuple):
    """Whether m stages are schedulable for (n, k), and the shape if so.

    r is the number of square blocks per block row, l the per-traveller
    ride count; both None when m is not a multiple of n/gcd(n,k).
    """

    valid: bool
    r: int | None
    l: int | None


def valid_stage_counts(n: int, k: int, m: int) -> StageCountCheck:
    """Feasible stage counts are the multiples of n' = n/gcd(n,k)."""
    _check_nk(n, k)
    if m < 1:
        raise ValueError(f"need at least one stage, got m={m}")
    d = gcd(n, k)
    n_prime = n // d
    if m % n_prime:
        return StageCountCheck(False, None, None)
    r = m // n_prime
    return StageCountCheck(True, r, r * (k // d))


def block_compose(
    n: int, k: int, r: int, cells: Sequence[Sequence[BinaryScheme]]
) -> BinaryScheme:
    """Tile a d x r array of optimal n' x n' cells into an n x (r*n') scheme.

    d = gcd(n,k), n' = n/d, k' = k/d.  Cell (g, t) occupies rows
    g*n'..(g+1)*n'-1 and columns t*n'..(t+1)*n'-1.  Column sums come
    to d*k' = k and row sums to r*k', so the result is uniform; with
    optimal cells it decides optimal as a rectangular scheme.  One pass
    checks each distinct cell where it first appears and ORs in its masks.

    Args:
        n: travellers.
        k: bicycles.
        r: stage blocks (m = r * n').
        cells: d rows of r schemes, each n' x n', each optimal and
            k'-uniform.

    Raises:
        ValueError: bad shape, wrong cell dimensions, a cell that is
            not k'-uniform, or a cell that does not decide optimal.
    """
    _check_nk(n, k)
    if r < 1:
        raise ValueError(f"need at least one stage block, got r={r}")
    d = gcd(n, k)
    n_prime, k_prime = n // d, k // d
    if len(cells) != d or any(len(row) != r for row in cells):
        raise ValueError(f"cells must form a {d}x{r} array")
    masks = [0] * n
    checked: set[BinaryScheme] = set()
    for g, cell_row in enumerate(cells):
        for t, cell in enumerate(cell_row):
            if cell not in checked:  # the checks read only masks and m
                if cell.n != n_prime or cell.m != n_prime:
                    raise ValueError(
                        f"cell ({g},{t}) is {cell.n}x{cell.m}, expected {n_prime}x{n_prime}"
                    )
                uni = uniformity(cell)
                if not uni.is_uniform or uni.k != k_prime:
                    raise ValueError(f"cell ({g},{t}) is not {k_prime}-uniform")
                if not decide_optimal(cell).optimal:
                    raise ValueError(f"cell ({g},{t}) does not decide optimal")
                checked.add(cell)
            for i, x in enumerate(cell.masks, g * n_prime):
                masks[i] |= x << t * n_prime
    return BinaryScheme._from_masks(tuple(masks), r * n_prime)


def default_block_cells(n: int, k: int, r: int) -> list[list[BinaryScheme]]:
    """A d x r array of cyclic(n', k') cells, the stock choice."""
    _check_nk(n, k)
    d = gcd(n, k)
    cell = cyclic_matrix(n // d, k // d)
    return [[cell for _ in range(r)] for _ in range(d)]


def is_single_ride_cyclic(M: BinaryScheme) -> bool:
    """Whether every traveller rides one cyclic block and M is the cyclic scheme.

    True iff each row's 1-entries form a single interval read
    cyclically and the rows are a permutation of cyclic(n, k)'s rows.

    Raises:
        ValueError: M is not square or not uniform.
    """
    if not M.is_square:
        raise ValueError("defined for square schemes only")
    uni = uniformity(M)
    if not uni.is_uniform:
        raise ValueError("defined for uniform schemes only")
    # Each row of cyclic(n, k) is one cyclic interval, so equal rows imply that too.
    return sorted(M.masks) == sorted(cyclic_matrix(M.n, uni.k).masks)
