"""Removing pointless bicycle exchanges and counting rides and mounts.

When a dropper and a taker at the same post have ridden equally many
stages, they arrive simultaneously, so the exchange between them gains
nothing: swapping the two rows' tails after that post makes the
dropper keep riding and the taker keep walking.  Repeating until no
such pair is left yields a scheme with the same column sums, row sums
and outward appearance (the same multiset of positions at every
moment) but fewer handovers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .optimality import AssignmentPlan, decide_optimal, verify_plan
from .scheme import BinaryScheme


@dataclass(frozen=True)
class RideStats:
    """Ride counts of a scheme.

    per_traveller[i] is the number of maximal runs of 1s in row i read
    left to right.  per_bicycle_mounts and excess_handovers are filled
    only by callers that have a plan / an optimal scheme at hand.
    """

    total_rides: int
    per_traveller: tuple[int, ...]
    per_bicycle_mounts: tuple[int, ...] | None = None
    excess_handovers: int | None = None


def reduce_scheme(M: BinaryScheme) -> tuple[BinaryScheme, int]:
    """Eliminate all excess handovers; returns (reduced scheme, swap count).

    Scans boundaries left to right; at each boundary, droppers and
    takers with equal ride counts so far are paired lowest row index
    with lowest row index and their row tails after the boundary are
    swapped.  Repeats until a full pass makes no swap.  Row and column
    sums are unchanged and the result still decides optimal.

    Raises:
        ValueError: M does not decide optimal.
    """
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


def _equal_sum_pairings(M: BinaryScheme) -> int:
    """Sum over boundaries and ride counts of min(#droppers, #takers).

    Swapping a tied pair's tails never creates or destroys ties
    elsewhere, so this closed form on the unmodified matrix equals the
    swap count of reduce_scheme.
    """
    n, m = M.n, M.m
    total = 0
    ridden = [0] * n
    for b in range(m - 1):
        counts: dict[int, list[int]] = {}
        for i in range(n):
            ridden[i] += M.rows[i][b]
            first, second = M.rows[i][b], M.rows[i][b + 1]
            if first == second:
                continue
            pair = counts.setdefault(ridden[i], [0, 0])
            pair[0 if first else 1] += 1
        total += sum(min(c[0], c[1]) for c in counts.values())
    return total


def count_excess_handovers(M: BinaryScheme) -> int:
    """The number of removable handovers; the swap count of reduce_scheme.

    Counted in one pass by the closed form over tied droppers and
    takers, without performing the swaps.

    Raises:
        ValueError: M does not decide optimal.
    """
    verdict = decide_optimal(M)
    if not verdict.optimal:
        raise ValueError(f"scheme is not optimal ({verdict.reason})")
    return _equal_sum_pairings(M)


def count_rides(M: BinaryScheme) -> RideStats:
    """Per-traveller and total ride counts (maximal runs of 1s per row)."""
    per = []
    for row in M.rows:
        runs = 0
        prev = 0
        for v in row:
            if v and not prev:
                runs += 1
            prev = v
        per.append(runs)
    return RideStats(sum(per), tuple(per))


def bicycle_itineraries(M: BinaryScheme, P: AssignmentPlan) -> tuple[int, ...]:
    """How many times each bicycle is mounted under a plan.

    Bicycle b is the one first ridden by the (b+1)th rider of stage 0
    in row order.  It follows the plan across boundaries; each change
    of rider is a fresh mount, plus the initial one.

    Raises:
        ValueError: P is not a valid plan for M.
    """
    check = verify_plan(M, P)
    if not check.valid:
        raise ValueError(f"plan is not valid for the scheme: {check.violation}")
    owners = [i for i in range(M.n) if M.rows[i][0]]
    mounts = [1] * len(owners)
    for b in range(M.m - 1):
        mp = P.mapping(b)
        for idx, owner in enumerate(owners):
            nxt = mp[owner]
            if nxt != owner:
                mounts[idx] += 1
            owners[idx] = nxt
    return tuple(mounts)
