"""The per-leaf lister of uniform matrices, shared by the tests.

enumerate_uniform only counts and returns examples; tests that need
every uniform matrix take it from here.
"""

from itertools import combinations

from bikerelay import BinaryScheme, EnumerationReport, decide_optimal


def reference_enumerate(n, k, visitor=None, *, max_examples=4):
    """enumerate_uniform as it was before the per-prefix decision.

    Every leaf is built and decided by decide_optimal on its own, and
    the visitor, when given, gets (matrix, optimal flag) for each, in
    the labelled order of enumerate_uniform's descent: columns left to
    right, supports in lexicographic order.
    """
    caps = [k] * n
    masks = [0] * n
    cols = []
    total = optimal = 0
    examples = []

    def place(j):
        nonlocal total, optimal
        if j == n:
            M = BinaryScheme._from_masks(tuple(masks), n, tuple(cols))
            verdict = decide_optimal(M)
            total += 1
            if verdict.optimal:
                optimal += 1
            elif len(examples) < max_examples:
                examples.append(M)
            if visitor is not None:
                visitor(M, verdict.optimal)
            return
        cols_left = n - j
        forced = [i for i in range(n) if caps[i] == cols_left]
        if len(forced) > k:
            return
        free = [i for i in range(n) if 0 < caps[i] < cols_left]
        need = k - len(forced)
        if need > len(free):
            return
        bit = 1 << j
        for combo in combinations(free, need):
            support = forced + list(combo)
            col = 0
            for i in support:
                caps[i] -= 1
                masks[i] |= bit
                col |= 1 << i
            cols.append(col)
            place(j + 1)
            cols.pop()
            for i in support:
                caps[i] += 1
                masks[i] ^= bit

    place(0)
    return EnumerationReport(
        n, k, total, optimal, total - optimal, minimal_nonoptimal_examples=tuple(examples)
    )
