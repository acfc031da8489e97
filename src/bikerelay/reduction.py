"""Removing pointless bicycle exchanges and counting rides and mounts.

When a dropper and a taker at the same post have ridden equally many
stages, they arrive simultaneously, so the exchange between them gains
nothing: swapping the two rows' tails after that post makes the
dropper keep riding and the taker keep walking.  One left-to-right
pass over the boundaries removes every such pair, giving a scheme with
the same column sums, row sums and outward appearance (the same
multiset of positions at every moment) but fewer handovers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .optimality import AssignmentPlan, _rank_groups, _ride_slices, decide_optimal, verify_plan
from .scheme import BinaryScheme, _mask_rows


@dataclass(frozen=True)
class RideStats:
    """Ride counts of a scheme.

    per_traveller[i] is the number of maximal runs of 1s in row i read
    left to right.
    """

    total_rides: int
    per_traveller: tuple[int, ...]


def reduce_scheme(M: BinaryScheme) -> tuple[BinaryScheme, int]:
    """Eliminate all excess handovers; returns (reduced scheme, swap count).

    Scans boundaries left to right; at each boundary, droppers and
    takers with equal ride counts so far are paired lowest row index
    with lowest row index and their row tails after the boundary are
    swapped.  One pass suffices: a swapped pair has equal ride counts,
    so the swap only trades the two rows' futures.  It creates or
    destroys no tie at a later boundary and leaves earlier ones alone.
    Row and column sums are unchanged and the result still decides
    optimal.

    The movers are ranked on M's ride-count slices: at boundary b, row
    holder[o] has M's row o's rides through b and entries in columns b
    and b+1, since each swap trades futures of equal count.

    Raises:
        ValueError: M does not decide optimal.
    """
    tied = _tied_movers(M)
    masks = list(M.masks)
    holder = list(range(M.n))  # past the boundary, M's row o is row holder[o]
    removed = 0
    for b, drop, take in tied:
        head = (1 << (b + 1)) - 1  # columns 0..b
        droppers = sorted((holder[o], o) for o in _mask_rows(drop))
        takers = sorted((holder[o], o) for o in _mask_rows(take))
        for (i1, o1), (i2, o2) in zip(droppers, takers):
            x = (masks[i1] ^ masks[i2]) & ~head
            masks[i1] ^= x
            masks[i2] ^= x
            holder[o1], holder[o2] = i2, i1
            removed += 1
    return BinaryScheme._from_masks(tuple(masks), M.m), removed


def count_excess_handovers(M: BinaryScheme) -> int:
    """The number of removable handovers; the swap count of reduce_scheme.

    Each group of tied movers gives as many swaps as it has droppers
    or takers, whichever is fewer, so the count needs no swaps.

    Raises:
        ValueError: M does not decide optimal.
    """
    return sum(min(drop.bit_count(), take.bit_count()) for _, drop, take in _tied_movers(M))


def _tied_movers(M: BinaryScheme) -> list[tuple[int, int, int]]:
    """The tied movers of each boundary b, as (b, droppers, takers) row masks of M.

    Movers are tied when they have ridden equally often through column
    b; only groups that hold both kinds are listed, boundary by
    boundary.

    Raises:
        ValueError: M does not decide optimal.
    """
    verdict = decide_optimal(M)
    if not verdict.optimal:
        raise ValueError(f"scheme is not optimal ({verdict.reason})")
    cols = M.col_masks
    tied = []
    for b, slices in _ride_slices(cols, M.m - 1):
        drop, take = cols[b] & ~cols[b + 1], cols[b + 1] & ~cols[b]
        for g in _rank_groups(drop | take, slices):
            if g & drop and g & take:
                tied.append((b, g & drop, g & take))
    return tied


def count_rides(M: BinaryScheme) -> RideStats:
    """Per-traveller and total ride counts (maximal runs of 1s per row)."""
    # A run starts at every 1 whose left neighbour is 0.
    per = tuple((x & ~(x << 1)).bit_count() for x in M.masks)
    return RideStats(sum(per), per)


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
    owners = _mask_rows(M.col_masks[0])
    mounts = [1] * len(owners)
    for b in range(M.m - 1):
        mp = P.mapping(b)
        for idx, owner in enumerate(owners):
            nxt = mp[owner]
            if nxt != owner:
                mounts[idx] += 1
            owners[idx] = nxt
    return tuple(mounts)
