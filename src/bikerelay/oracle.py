"""Ground-truth machinery for checking the decision algorithm.

enumerate_uniform counts the n x n matrices with all line sums k,
deciding each verdict on the column prefix with decide_optimal's
boundary test (_is_dyck_at over _scanned_boundaries); without a visitor
it counts row classes of prefixes.  The checks on that verdict are
deliberately independent of the word-based decision: cross_validate
tests every matrix for a first-come run with no stall, post by post on
the ride counts, in the same descent and once per column prefix, and
runs simulate's executor at each speed ratio on the matrices where
that test and the words disagree; determinants come from fraction-free
elimination, and the cyclic family's structure claims are verified
on its row and column masks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import le
from typing import Callable

from .generators import cyclic_matrix
from .optimality import _add_column, _is_dyck_at, _scanned_boundaries
from .scheme import BinaryScheme
from .simulate import SpeedModel, _execute, _stage_ticks

EXHAUSTIVE_GUARD = 7

DEFAULT_SPEED_RATIOS = (Fraction(3, 2), Fraction(2), Fraction(10))


@dataclass(frozen=True)
class EnumerationReport:
    """Census of the n x n matrices with all line sums k."""

    n: int
    k: int
    total_uniform: int
    optimal_count: int
    nonoptimal_count: int
    minimal_nonoptimal_examples: tuple[BinaryScheme, ...] = ()


@dataclass(frozen=True)
class Mismatch:
    """A matrix where the word verdict and the stall-free test disagree.

    stall_free holds whether simulate's greedy executor runs the
    matrix with no stall at each of DEFAULT_SPEED_RATIOS, in order.
    """

    scheme: BinaryScheme
    dyck_optimal: bool
    stall_free: tuple[bool, ...]


def enumerate_uniform(
    n: int,
    k: int,
    visitor: Callable[[BinaryScheme, bool], None] | None = None,
    *,
    max_examples: int = 4,
) -> EnumerationReport:
    """Census of the n x n binary matrices whose rows and columns all sum to k.

    Columns are generated left to right, choosing each column's
    support in lexicographic order; a row whose missing rides equal
    the remaining columns is forced into every one of them, so no
    branch dies and the last column is the rows with one ride left.
    Each matrix is built from the row and column masks, kept up to
    date as columns are placed, without validation.  The visitor, when
    given, is called once per matrix with (matrix, optimal flag).

    The verdict is decided on the column prefix: placing column b+1
    tests boundary b, for the boundaries decide_optimal scans, while
    the prefix is still optimal, and every matrix below the prefix
    shares the outcome.  Without a visitor, what each finished prefix
    adds to the totals is memoised on its row classes (see _descend),
    so the descent counts classes of prefixes rather than matrices.  A
    memoised prefix is descended again only while it may still add a
    wanted example, so the examples are the first max_examples
    non-optimal matrices in the order the visitor would see them.

    Counting alone is never refused.  Listing the matrices one by one
    to a visitor is refused beyond n = EXHAUSTIVE_GUARD: past it, every
    k with a non-optimal matrix (3 <= k <= n-3, where a boundary is
    scanned) has billions of matrices to list.

    Raises:
        ValueError: k out of range, a negative max_examples, or a
            visitor with n beyond the exhaustive guard.
    """
    return _descend(n, k, visitor, max_examples, probe=False)


def cross_validate(n: int, k: int) -> list[Mismatch]:
    """Compare the word verdict with greedy execution over all (n, k) matrices.

    Every uniform matrix is tested for a first-come run with no stall,
    decided post by post on the column prefix as the word verdict is
    (see _descend).  The test reads only ride counts, so one test
    holds at every speed ratio.  Each matrix where it disagrees with
    the word verdict is built, run by simulate's greedy executor at
    each of DEFAULT_SPEED_RATIOS, and returned as a Mismatch carrying
    those runs' flags, in the order enumerate_uniform visits the
    matrices.  An empty list is the expected outcome; a Mismatch whose
    flags all equal dyck_optimal points at the prefix test instead.
    Every matrix is decided on its own, so the exhaustive guard
    applies.
    """
    ticks = [_stage_ticks(SpeedModel(1, r))[:2] for r in DEFAULT_SPEED_RATIOS]
    mismatches: list[Mismatch] = []

    def execute(M: BinaryScheme, ok: bool) -> None:
        stall_free = tuple(_execute(M, walk, ride) for walk, ride in ticks)
        mismatches.append(Mismatch(M, ok, stall_free))

    _descend(n, k, execute, 0, probe=True)
    return mismatches


def _descend(
    n: int,
    k: int,
    visitor: Callable[[BinaryScheme, bool], None] | None,
    max_examples: int,
    probe: bool,
) -> EnumerationReport:
    """The labelled descent behind enumerate_uniform and cross_validate.

    With probe, every matrix is also tested for a greedy first-come
    run with no stall, decided on the column prefix.  Until the first
    stall, traveller i reaches post j at tick
    j*walk - rides*(walk - ride), with rides = k - cap their ride count
    through column j-1.  A ride is shorter than a walk, so at every
    speed ratio arrival order is cap order, and the first-come test at
    post j (the m-th earliest taker leaves on the m-th earliest drop)
    passes iff each dropper's cap is at most the matching taker's,
    both sorted.  Every column has k rows, so a post has as many
    takers as droppers.  Placing column j >= 1 runs the test while the
    run is still free of stalls; a failure is final, since the run
    would stop there.  The visitor then gets (matrix, word verdict)
    only for the matrices where the test and the word verdict
    disagree; the others are never built.

    The prefix is recorded once, as caps, row masks and columns; ride
    count slices are built where a boundary is tested.  Each node keeps
    the supports of one table of columns that its caps allow, sorts its
    caps once for the test, and at depth n-2 counts its children, which
    the forced last column finishes, without placing them.
    """
    if n < 1 or not 0 <= k <= n:
        raise ValueError(f"bad parameters n={n}, k={k}")
    if max_examples < 0:
        raise ValueError(f"max_examples must be at least 0, not {max_examples}")
    if visitor is not None and n > EXHAUSTIVE_GUARD:
        raise ValueError(
            f"listing every matrix at n={n} is enormous; "
            f"the limit is n={EXHAUSTIVE_GUARD}"
        )
    scanned = _scanned_boundaries(k, n)
    # Every column support as (mask, rows), in lexicographic order.  Two
    # supports that hold the same forced rows first differ outside them,
    # so the ones a node keeps come in the order of their free parts.
    table = [(sum(1 << i for i in rows), rows) for rows in combinations(range(n), k)]
    caps = [k] * n
    masks = [0] * n  # row masks of the columns placed so far
    cols: list[int] = []
    total = optimal = 0
    examples: list[BinaryScheme] = []
    memo: dict[tuple, tuple[int, int]] = {}
    # The visitor gets every matrix, or with probe only those where the
    # test and the word verdict disagree.
    list_all = visitor is not None and not probe
    list_odd = visitor is not None and probe

    def build(col: int) -> BinaryScheme:
        # The matrix whose column n-2 is col: the last column is the
        # rows with a ride left after it.
        left = [c - (col >> i & 1) for i, c in enumerate(caps)]
        last = sum(c << i for i, c in enumerate(left))
        rows = tuple(
            x | (col >> i & 1) << (n - 2) | c << (n - 1)
            for i, (x, c) in enumerate(zip(masks, left))
        )
        return BinaryScheme._from_masks(rows, n, (*cols, col, last))

    def place(j: int, ok: bool, runs: bool):
        # On entry j <= n-2, every cap is at most n-j and the caps sum to
        # k*(n-j), so no branch dies; runs is whether the probe found no
        # stall.  The children at j = n-2 are finished matrices: the last
        # column is the k rows with cap 1, it closes no scanned boundary,
        # and its droppers have one ride more than its takers.  They are
        # counted here and built only to be shown or kept as examples.
        nonlocal total, optimal
        prev = cols[-1] if j else 0
        if visitor is None:
            # A row's class is its cap and whether it rides column j-1.
            # A row permutation that maps one prefix's classes onto
            # another's maps their completions one to one, and keeps
            # every later word: the word is read off ride counts (caps)
            # and the two columns beside the boundary, and rows tied on
            # ride count that both drop (or both take) carry the same
            # letter.  So the two prefixes add the same (total, optimal).
            classes = sorted(2 * c + (prev >> i & 1) for i, c in enumerate(caps))
            key = (j, ok, tuple(classes))
            hit = memo.get(key)
            # Taken unless the subtree may hold an example still wanted.
            if hit is not None and (hit[0] == hit[1] or len(examples) >= max_examples):
                total += hit[0]
                optimal += hit[1]
                return
            before = total, optimal
        # A support holds every forced row (cap n-j) and no spent one (cap 0).
        forced = spent = 0
        for i, c in enumerate(caps):
            if c == n - j:
                forced |= 1 << i
            elif not c:
                spent |= 1 << i
        held = forced | spent
        finishing = j == n - 2
        bit = 1 << j
        test = ok and j - 1 in scanned
        if test:
            slices: list[int] = []  # ride counts through column j-1
            for col in cols:
                _add_column(slices, col)
        probing = j and runs
        if probing:
            # The caps through column j-1, ascending, of the rows that
            # ride it (droppers, unless they ride column j too) and of the
            # rest (takers, if they ride column j).
            ranked = sorted((c, i) for i, c in enumerate(caps))
            drops = [(c, 1 << i) for c, i in ranked if prev >> i & 1]
            rest = [(c, 1 << i) for c, i in ranked if not prev >> i & 1]
        for col, support in table:
            if col & held != forced:
                continue
            child_ok = ok
            if test:
                child_ok = _is_dyck_at(prev & ~col, col & ~prev, slices)
            child_runs = runs
            if probing:
                # The first-come test at post j.
                dropped = [c for c, b in drops if not col & b]
                taken = [c for c, b in rest if col & b]
                child_runs = all(map(le, dropped, taken))
            if finishing:
                total += 1
                if child_ok:
                    optimal += 1
                wanted = not child_ok and len(examples) < max_examples
                shown = list_all or list_odd and child_runs != child_ok
                if wanted or shown:
                    M = build(col)
                    if wanted:
                        examples.append(M)
                    if shown:
                        visitor(M, child_ok)
                continue
            for i in support:
                caps[i] -= 1
                masks[i] |= bit
            cols.append(col)
            place(j + 1, child_ok, child_runs)
            cols.pop()
            for i in support:
                caps[i] += 1
                masks[i] ^= bit
        if visitor is None:
            memo[key] = (total - before[0], optimal - before[1])

    if n == 1:
        # The one matrix [k]: no post to probe, no boundary to scan.
        total = optimal = 1
        if list_all:
            visitor(BinaryScheme._from_masks((k,), 1, (k,)), True)
    else:
        place(0, True, probe)
    return EnumerationReport(
        n=n,
        k=k,
        total_uniform=total,
        optimal_count=optimal,
        nonoptimal_count=total - optimal,
        minimal_nonoptimal_examples=tuple(examples),
    )


def random_uniform(n: int, k: int, rng: random.Random) -> BinaryScheme:
    """A random n x n matrix with all line sums k.

    Starts from cyclic_matrix(n, k) with its rows and columns shuffled,
    then makes n*n attempts at a Ryser interchange: pick two rows and
    two columns at random and, when the 2x2 submatrix they cut out is
    [[1, 0], [0, 1]] or [[0, 1], [1, 0]], flip it.  Every interchange
    keeps all line sums, and any two matrices with the same line sums
    are linked by interchanges (Ryser 1957).  The running time is
    O(n^2) whatever k is.  Not a uniform distribution over uniform
    matrices, which no caller here needs.
    """
    if n < 1 or not 0 <= k <= n:
        raise ValueError(f"bad parameters n={n}, k={k}")
    shuffled = list(cyclic_matrix(n, k).masks)
    rng.shuffle(shuffled)
    cols = list(range(n))
    rng.shuffle(cols)
    # Column j of the result is column cols[j] of the row-shuffled matrix.
    masks = [sum((x >> c & 1) << j for j, c in enumerate(cols)) for x in shuffled]
    for _ in range(n * n):
        i1, i2 = divmod(rng.randrange(n * n), n)
        j1, j2 = divmod(rng.randrange(n * n), n)
        flip = 1 << j1 | 1 << j2
        cut = masks[i1] & flip
        # One 1 in each row of the 2x2 cut, in different columns.
        if cut and cut != flip and masks[i2] & flip == flip ^ cut:
            masks[i1] ^= flip
            masks[i2] ^= flip
    return BinaryScheme._from_masks(tuple(masks), n)


def determinant_exact(M: BinaryScheme) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination.

    Raises:
        ValueError: M is not square.
    """
    if not M.is_square:
        raise ValueError("determinant of a non-square scheme")
    n = M.n
    a = [list(row) for row in M.rows]
    sign = 1
    prev = 1
    for col in range(n - 1):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                a[r][c] = (a[r][c] * a[col][col] - a[r][col] * a[col][c]) // prev
            a[r][col] = 0
        prev = a[col][col]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class CyclicStructureReport:
    """Entry-level verification of the cyclic family's inner structure.

    rotation_offset is the column-block rotation step r with
    k*r = d (mod n); moving one block of d columns to the right
    rotates every column downward by r rows.
    """

    n: int
    k: int
    d: int
    n_prime: int
    k_prime: int
    rotation_offset: int
    row_classes_ok: bool
    column_blocks_ok: bool
    quotient_ok: bool
    rotation_ok: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.row_classes_ok
            and self.column_blocks_ok
            and self.quotient_ok
            and self.rotation_ok
        )


def verify_cyclic_structure(n: int, k: int) -> CyclicStructureReport:
    """Check rows, column blocks, quotient and rotations of cyclic(n, k).

    Rows are equal exactly within residue classes mod n/d; columns are
    equal exactly within blocks of d consecutive ones; collapsing both
    gives cyclic(n/d, k/d); and the column blocks are rotations of one
    another with offset r solving k*r = d (mod n).
    """
    M = cyclic_matrix(n, k)
    d = gcd(n, k)
    n_p, k_p = n // d, k // d
    rows, cols = M.masks, M.col_masks

    # Equal exactly within classes: each line equals its class's first,
    # and the firsts are distinct.
    row_classes_ok = (
        all(rows[i] == rows[i % n_p] for i in range(n))
        and len(set(rows[:n_p])) == n_p
    )
    column_blocks_ok = (
        all(cols[p] == cols[p - p % d] for p in range(n))
        and len(set(cols[::d])) == n_p
    )

    # Each row is its class's quotient row with every entry read as a
    # d-bit field of equal bits, so every quotient cell is constant.
    field = (1 << d) - 1
    quotient = [
        sum((q >> b & 1) * field << b * d for b in range(n_p))
        for q in cyclic_matrix(n_p, k_p).masks
    ]
    quotient_ok = all(rows[i] == quotient[i % n_p] for i in range(n))

    # Column j is column 0 rotated down by (j // d) * rotation_offset rows.
    rotation_offset = 0 if n_p == 1 else pow(k_p, -1, n_p)
    doubled = cols[0] << n | cols[0]
    rotation_ok = all(
        cols[j] == doubled >> (n - j // d * rotation_offset % n) & (1 << n) - 1
        for j in range(n)
    )
    return CyclicStructureReport(
        n=n,
        k=k,
        d=d,
        n_prime=n_p,
        k_prime=k_p,
        rotation_offset=rotation_offset,
        row_classes_ok=row_classes_ok,
        column_blocks_ok=column_blocks_ok,
        quotient_ok=quotient_ok,
        rotation_ok=rotation_ok,
    )
