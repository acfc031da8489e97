"""Ground-truth machinery for checking the decision algorithm.

enumerate_uniform counts the n x n matrices with all line sums k on
row classes, and lists its first non-optimal ones in labelled order,
deciding each verdict on the column prefix with decide_optimal's
boundary test (_is_dyck_at over _scanned_boundaries).  The checks on
that verdict are deliberately independent of the word-based decision:
cross_validate tests every matrix for a first-come run with no stall,
post by post on the ride counts, in the same descent and once per
column prefix, and runs simulate's executor at each speed ratio on the
matrices where that test and the words disagree.  The descent keeps
its prefix as caps and columns, and builds each matrix it hands out
from its columns, so a matrix derives its row masks only when read.
Determinants come from fraction-free elimination, and the cyclic
family's structure claims are verified on its row and column masks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, combinations, groupby
from math import comb, gcd
from operator import le
from typing import Callable

from .generators import cyclic_matrix
from .optimality import _is_dyck_at, _scanned_boundaries
from .scheme import BinaryScheme
from .simulate import SpeedModel, is_executable_without_stall

EXHAUSTIVE_GUARD = 7

DEFAULT_SPEED_RATIOS = (Fraction(3, 2), Fraction(2), Fraction(10))


@dataclass(frozen=True)
class EnumerationReport:
    """Census of the n x n matrices with all line sums k.

    minimal_nonoptimal_examples are the first non-optimal matrices in
    the labelled order of the descent (columns left to right, supports
    in lexicographic order), not the paper's minimal non-optimal
    members.
    """

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


def enumerate_uniform(n: int, k: int, *, max_examples: int = 4) -> EnumerationReport:
    """Census of the n x n binary matrices whose rows and columns all sum to k.

    The counts come from _class_census, on row classes with binomial
    weights; the examples are the first max_examples non-optimal
    matrices in the labelled order of _descend.  Counting is never
    refused.

    Raises:
        ValueError: k out of range, or a negative max_examples.
    """
    count = _class_census(n, k)
    examples = _descend(n, k, None, max_examples, count)
    total, optimal = count(0, True, (2 * k + 1,) * n)
    return EnumerationReport(n, k, total, optimal, total - optimal, tuple(examples))


def cross_validate(n: int, k: int) -> list[Mismatch]:
    """Compare the word verdict with greedy execution over all (n, k) matrices.

    Every uniform matrix gets the first-come test of _descend, on ride
    counts and so at every speed ratio at once.  Each matrix where the
    test and the word verdict disagree runs through
    is_executable_without_stall at each of DEFAULT_SPEED_RATIOS and is
    returned as a Mismatch with those flags, in labelled order.  An
    empty list is the expected outcome; a Mismatch whose flags all
    equal dyck_optimal points at the prefix test instead.  Every matrix
    is decided on its own, so n is refused beyond EXHAUSTIVE_GUARD: past
    it, every k with a non-optimal matrix has billions to list.
    """
    mismatches: list[Mismatch] = []

    def execute(M: BinaryScheme, ok: bool) -> None:
        stall_free = (is_executable_without_stall(M, SpeedModel(1, r)) for r in DEFAULT_SPEED_RATIOS)
        mismatches.append(Mismatch(M, ok, tuple(stall_free)))

    _descend(n, k, execute)
    return mismatches


def _class_census(n: int, k: int) -> Callable[[int, bool, tuple[int, ...]], tuple[int, int]]:
    """The (n, k) census on row classes, as a function with its own cache.

    count(j, ok, classes) -> (total, optimal) counts the completions of
    a prefix through column j-1 and the optimal ones; ok is its verdict
    so far, classes the sorted 2*cap + (the row walks column j-1).
    Equal classes give a row permutation that maps the completions one
    to one and keeps every later word: a word reads only ride counts
    (caps) and the columns beside it, and rows tied on ride count that
    both drop (or take) carry one letter.  A column takes t rows of a
    class in C(size, t) ways: all at cap n-j, none at cap 0, k in all;
    least[g] and most[g], what classes g.. must and can take, bound t.
    Ascending classes list boundary j-1's word, droppers first on a
    tie, so a scanned word is Dyck iff the running depth (droppers
    minus takers) stays at or above zero.  The last column is forced.
    """
    scanned = _scanned_boundaries(k, n)

    @cache
    def count(j: int, ok: bool, classes: tuple[int, ...]) -> tuple[int, int]:
        if j >= n - 1:
            return 1, int(ok)
        test = ok and j - 1 in scanned
        groups = [(*divmod(c, 2), len(list(g))) for c, g in groupby(classes)]
        least = [*accumulate((s * (c == n - j) for c, _, s in groups[::-1]), initial=0)][::-1]
        most = [*accumulate((s * (c > 0) for c, _, s in groups[::-1]), initial=0)][::-1]
        columns: list[tuple[int, tuple[int, int]]] = []

        def choose(g: int, left: int, ways: int, depth: int, good: bool, child: tuple) -> None:
            if g == len(groups):
                columns.append((ways, count(j + 1, good, tuple(sorted(child)))))
                return
            cap, walks, size = groups[g]
            low = max(least[g] - least[g + 1], left - most[g + 1])
            for t in range(low, min(most[g] - most[g + 1], left - least[g + 1]) + 1):
                # t rows ride column j: takers if they walked column j-1; else size - t drop.
                d = depth - t if walks else depth + size - t
                ok_t = good and (d >= 0 or not test)
                child_t = child + (2 * cap - 2,) * t + (2 * cap + 1,) * (size - t)
                choose(g + 1, left - t, ways * comb(size, t), d, ok_t, child_t)

        choose(0, k, 1, 0, ok, ())
        return sum(w * t for w, (t, _) in columns), sum(w * o for w, (_, o) in columns)

    return count


def _descend(
    n: int,
    k: int,
    visitor: Callable[[BinaryScheme, bool], None] | None,
    max_examples: int = 0,
    count: Callable[[int, bool, tuple[int, ...]], tuple[int, int]] | None = None,
) -> list[BinaryScheme]:
    """The labelled descent behind enumerate_uniform and cross_validate.

    Columns go left to right, supports in lexicographic order; placing
    column b+1 tests boundary b on the ride counts k - cap if it is
    scanned and the prefix is still optimal.  The prefix is kept once,
    as caps and columns; depth n-2 finishes its children with the
    forced last column, and a matrix built there holds only its columns
    and row sums.  With no visitor, it returns the first max_examples
    non-optimal matrices, entering an optimal child only while count
    finds non-optimal completions.

    With a visitor, every matrix is also tested for a greedy first-come
    run with no stall, on the column prefix.  Until the first stall,
    traveller i reaches post j at tick j*walk - rides*(walk - ride),
    rides = k - cap.  A ride is shorter than a walk, so at every speed
    ratio arrival order is cap order, and the test at post j passes
    iff each dropper's cap is at most the matching taker's, both sorted
    (a post has as many of each).  A failure is final: the run stops
    there.  The visitor gets (matrix, word verdict) only where the test
    and the word verdict disagree; the others are never built.  Every
    matrix is placed, so n is bounded by EXHAUSTIVE_GUARD.
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
    ride_bits = [[t for t in range(k.bit_length()) if k - c >> t & 1] for c in range(k + 1)]
    # Every column support as (mask, rows), in lexicographic order.  Two
    # supports that hold the same forced rows first differ outside them,
    # so the ones a node keeps come in the order of their free parts.
    table = [(sum(1 << i for i in rows), rows) for rows in combinations(range(n), k)]
    caps = [k] * n
    cols: list[int] = []
    examples: list[BinaryScheme] = []

    def build(col: int) -> BinaryScheme:
        # The matrix whose column n-2 is col: the last column is the
        # rows with a ride left after it.
        last = sum(c - (col >> i & 1) << i for i, c in enumerate(caps))
        return BinaryScheme._from_columns((*cols, col, last), (k,) * n)

    def place(j: int, ok: bool, runs: bool) -> None:
        # On entry j <= n-2, every cap is at most n-j and the caps sum to
        # k*(n-j), so no branch dies; runs is whether the probe found no
        # stall.  The children at j = n-2 are finished: the last column is
        # the k rows with cap 1, and no word or first stall falls there.
        prev = cols[-1] if j else 0
        # A support holds every forced row (cap n-j) and no spent one (cap 0).
        forced = spent = 0
        for i, c in enumerate(caps):
            if c == n - j:
                forced |= 1 << i
            elif not c:
                spent |= 1 << i
        held = forced | spent
        finishing = j == n - 2
        test = ok and j - 1 in scanned
        if test:
            slices = [0] * k.bit_length()  # bit t of each row's rides through column j-1
            for i, c in enumerate(caps):
                for t in ride_bits[c]:
                    slices[t] |= 1 << i
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
            if visitor is None and len(examples) == max_examples:
                return
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
                if visitor is None:
                    if not child_ok:
                        examples.append(build(col))
                elif child_runs != child_ok:
                    visitor(build(col), child_ok)
                continue
            if visitor is None and child_ok:
                classes = (2 * c - 2 if col >> i & 1 else 2 * c + 1 for i, c in enumerate(caps))
                below, fine = count(j + 1, True, tuple(sorted(classes)))
                if fine == below:
                    continue
            for i in support:
                caps[i] -= 1
            cols.append(col)
            place(j + 1, child_ok, child_runs)
            cols.pop()
            for i in support:
                caps[i] += 1

    if n > 1:  # the one 1 x 1 matrix [k] is optimal, with no post to probe
        place(0, True, visitor is not None)
    return examples


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
