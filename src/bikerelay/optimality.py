"""Deciding whether a uniform scheme admits a stall-free execution.

At the staging post between stages b and b+1, the travellers who drop
a bicycle there (rows going 1 -> 0) and those who pick one up (rows
going 0 -> 1) are ranked by how many stages they have ridden so far.
Writing droppers as 'a' and takers as 'b' in descending rank order
gives one word per boundary; the scheme can be executed with nobody
ever waiting if and only if every boundary word is a Dyck word, i.e.
every prefix contains at least as many a's as b's.

Two tie-break orders are implemented for equal ride counts.  The
default, DROP_FIRST, places droppers ahead of takers (equal counts
mean simultaneous arrivals, so the handover is feasible).  TAKE_FIRST,
kept for comparison, reverses the ascending melded ranking, so a taker
ranks half a ride ahead of a tied dropper; it rejects some schemes the
default accepts.  One split of the movers into groups of equal rank,
on bit slices of their ride counts, gives every word and its Dyck test.

Assignment plans make the execution explicit: a per-boundary partial
bijection saying who rides each bicycle next.  A plan is feasible when
it fixes exactly the keep-riding rows and never hands a bicycle to
somebody who has ridden more stages than the donor (the receiver would
otherwise already be further down the road than the bicycle).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import islice
from operator import index
from typing import Iterable, Iterator, Mapping

from .scheme import BinaryScheme, _mask_rows, uniformity


class TieOrder(enum.Enum):
    """How to order equal ride counts inside a boundary word."""

    DROP_FIRST = "drop-first"
    TAKE_FIRST = "take-first"


@dataclass(frozen=True)
class CanonicalWord:
    """Boundary word over {a, b} with the contributing rows.

    letters[r] describes rows[r]: 'a' for a dropper, 'b' for a taker.
    The word is balanced for uniform schemes (equal column sums give
    equally many droppers and takers).
    """

    boundary: int
    letters: str
    rows: tuple[int, ...]

    def __len__(self):
        return len(self.letters)


@dataclass(frozen=True)
class Verdict:
    """Outcome of the optimality decision.

    reason is one of "optimal", "not-uniform", "non-dyck".  The
    failing fields are set only for "non-dyck" and name the first
    boundary (0-based) whose word breaks the prefix condition.
    """

    optimal: bool
    k: int | None
    reason: str
    failing_boundary: int | None = None
    failing_word: str | None = None


@dataclass(frozen=True)
class AssignmentPlan:
    """Per-boundary bicycle handover maps.

    pairs[b] lists (donor_row, receiver_row) sorted by donor for the
    boundary between columns b and b+1.  Donors are the rows riding
    stage b, receivers the rows riding stage b+1; a row keeping its
    bicycle appears as (i, i).
    """

    pairs: tuple[tuple[tuple[int, int], ...], ...]

    @classmethod
    def from_maps(cls, maps: Iterable[Mapping[int, int]]) -> "AssignmentPlan":
        return cls(tuple(tuple(sorted(m.items())) for m in maps))

    def mapping(self, boundary: int) -> dict[int, int]:
        """The handover map at one boundary as a plain dict."""
        return dict(self.pairs[boundary])

    @property
    def boundaries(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class PlanViolation:
    """First defect found in a plan.

    condition is one of "domain", "identity", "range", "injectivity",
    "partial-sum".  row is the offending source row (or the duplicated
    target for injectivity); mapped_to is its image where applicable.
    """

    boundary: int
    condition: str
    row: int | None
    mapped_to: int | None
    detail: str


@dataclass(frozen=True)
class PlanCheck:
    valid: bool
    violation: PlanViolation | None


def _ride_slices(cols: tuple[int, ...], stop: int) -> Iterator[tuple[int, list[int]]]:
    """Yield (b, slices) for b < stop: bit t of each row's ride count through column b is in slices[t]."""
    slices: list[int] = []  # one list, updated in place for each b
    for b in range(stop):
        carry = cols[b]  # one more ride for each row of column b, added bitwise
        for t, s in enumerate(slices):
            if not carry:
                break
            slices[t] = s ^ carry
            carry &= s
        if carry:
            slices.append(carry)
        yield b, slices


def _rank_groups(movers: int, ranks: list[int]) -> list[int]:
    """The movers as masks of equal rank, highest first, split on ranks[t] (rank bit t) top bit first."""
    groups, stack = [], [(movers, len(ranks))]
    while stack:
        group, t = stack.pop()
        if not t or not group & (group - 1):  # no bit left, or one mover
            groups.append(group)
            continue
        t -= 1
        high = group & ranks[t]
        low = group ^ high
        if low:
            stack.append((low, t))
        if high:
            stack.append((high, t))
    return groups


def _word(drop: int, take: int, slices: list[int], take_first: bool) -> list[int]:
    """The rows of a boundary's word in order; see canonical_word.

    Drop-first lists each group of equal rides as droppers then takers,
    lowest row first.  Take-first ranks a taker half a ride ahead, so
    each group holds one kind, listed highest row first.
    """
    if take_first:
        return [i for g in _rank_groups(drop | take, [take, *slices]) for i in reversed(_mask_rows(g))]
    return [i for g in _rank_groups(drop | take, slices) for i in _mask_rows(g & drop) + _mask_rows(g & take)]


def canonical_word(
    M: BinaryScheme,
    boundary: int,
    tie_order: TieOrder | str = TieOrder.DROP_FIRST,
) -> CanonicalWord:
    """The boundary word of a uniform scheme.

    Droppers (letter a) and takers (letter b) at the given boundary
    are ranked by ride count so far, descending; ties follow
    tie_order.

    Args:
        M: a uniform scheme.
        boundary: 0-based, between columns boundary and boundary+1.
        tie_order: a TieOrder or its value string, DROP_FIRST by default.

    Raises:
        ValueError: tie_order names no TieOrder, M is not uniform, or
            the boundary is out of range.
    """
    take_first = TieOrder(tie_order) is TieOrder.TAKE_FIRST
    if not uniformity(M).is_uniform:
        raise ValueError("canonical words are defined for uniform schemes only")
    if not 0 <= boundary <= M.m - 2:
        raise ValueError(f"boundary {boundary} out of range 0..{M.m - 2}")
    cols = M.col_masks
    *_, (_, slices) = _ride_slices(cols, boundary + 1)
    first, second = cols[boundary], cols[boundary + 1]
    rows = _word(first & ~second, second & ~first, slices, take_first)
    letters = "".join("a" if first >> i & 1 else "b" for i in rows)
    return CanonicalWord(boundary, letters, tuple(rows))


def is_dyck(w: CanonicalWord | str) -> bool:
    """True iff the word is balanced and no prefix has more b's than a's."""
    letters = w.letters if isinstance(w, CanonicalWord) else w
    depth = 0
    for ch in letters:
        depth += 1 if ch == "a" else -1
        if depth < 0:
            return False
    return depth == 0


def dual_reverse_word(w: CanonicalWord | str) -> str:
    """Reverse the word and swap a with b; an involution on words."""
    letters = w.letters if isinstance(w, CanonicalWord) else w
    swap = {"a": "b", "b": "a"}
    return "".join(swap[ch] for ch in reversed(letters))


def _is_dyck_at(drop: int, take: int, slices: list[int]) -> bool:
    """Whether the word of a boundary with these dropper and taker masks is Dyck.

    slices[t] holds bit t of each row's rank: its ride count, or under
    take-first 2 * rides + is_taker.  The word lists rows by rank,
    highest first and droppers first on equal rank, so it is Dyck iff
    the running depth (droppers minus takers) never drops below zero
    over the groups of equal rank, split as _rank_groups does but only
    while a group's order matters: once the depth before it covers all
    its takers, no order inside it can go below zero.
    """
    depth = 0
    stack = [(drop | take, len(slices))]
    while stack:
        group, t = stack.pop()
        takers = (group & take).bit_count()
        if depth >= takers:
            depth += group.bit_count() - 2 * takers
            continue
        end = depth + group.bit_count() - 2 * takers
        if end < 0:
            return False
        if t == 0:
            # One rank: the droppers go ahead, so the depth is lowest at the end.
            depth = end
            continue
        t -= 1
        high = group & slices[t]
        low = group ^ high
        if low:
            stack.append((low, t))
        if high:
            stack.append((high, t))
    return True


def _scanned_boundaries(l: int, m: int) -> range:
    """The boundaries whose drop-first words decide a uniform scheme with row sum l.

    Boundaries 0, 1, m-3, m-2 are left out, and so is everything when
    l <= 2 or l >= m-2 (every word is then forced to be Dyck).
    """
    if l <= 2 or l >= m - 2:
        return range(0)
    # The two outermost boundaries at each end are Dyck for every
    # uniform scheme under DROP_FIRST: takers there have ridden at most
    # as much as every dropper, so with droppers first on ties the word
    # sorts as a-block then b-block (and dually at the far end).  Under
    # TAKE_FIRST a taker ranks half a ride ahead of a tied dropper, so
    # decide_optimal never applies the rule there.
    return range(2, m - 3)


def decide_optimal(
    M: BinaryScheme, tie_order: TieOrder | str = TieOrder.DROP_FIRST
) -> Verdict:
    """Decide whether a scheme admits a stall-free execution.

    A scheme is optimal iff it is uniform and every boundary word is
    Dyck.  Non-uniform input yields a "not-uniform" verdict rather
    than an error.

    The scan runs on column masks: the droppers at boundary b are
    C[b] & ~C[b+1], the takers C[b+1] & ~C[b], and the ride counts so
    far are kept as bit slices.  The word itself is built only for the
    failing boundary, from the same masks and slices, so no row mask
    is read.

    Under DROP_FIRST, boundaries 0, 1, m-3, m-2 are not scanned and the
    whole scan is dropped when the common row sum l satisfies l <= 2 or
    l >= m-2 (see _scanned_boundaries): those words are Dyck for every
    uniform scheme.  TAKE_FIRST scans every boundary, since ties can
    break those words.

    Raises:
        ValueError: tie_order names no TieOrder.
    """
    take_first = TieOrder(tie_order) is TieOrder.TAKE_FIRST
    uni = uniformity(M)
    if not uni.is_uniform:
        return Verdict(False, None, "not-uniform")
    scanned = range(M.m - 1) if take_first else _scanned_boundaries(uni.l, M.m)
    cols = M.col_masks
    for b, slices in islice(_ride_slices(cols, scanned.stop), scanned.start, None):
        first, second = cols[b], cols[b + 1]
        drop, take = first & ~second, second & ~first
        ranks = [take, *slices] if take_first else slices
        if not _is_dyck_at(drop, take, ranks):
            groups = _rank_groups(drop | take, ranks)
            word = "".join("a" * (g & drop).bit_count() + "b" * (g & take).bit_count() for g in groups)
            return Verdict(False, uni.k, "non-dyck", b, word)
    return Verdict(True, uni.k, "optimal")


def build_assignment_plan(
    M: BinaryScheme, tie_order: TieOrder | str = TieOrder.DROP_FIRST
) -> AssignmentPlan:
    """The canonical feasible plan of an optimal scheme.

    At each boundary the rth dropper of the word donates to the rth
    taker; keep-riding rows keep their own bicycle.  Because the word
    is Dyck, the rth taker has ridden no more than the rth dropper,
    so the plan passes verify_plan.

    Raises:
        ValueError: tie_order names no TieOrder, or the scheme does not
            decide optimal under it.
    """
    take_first = TieOrder(tie_order) is TieOrder.TAKE_FIRST
    verdict = decide_optimal(M, tie_order)
    if not verdict.optimal:
        raise ValueError(f"scheme is not optimal ({verdict.reason})")
    cols = M.col_masks
    maps = []
    for b, slices in _ride_slices(cols, M.m - 1):
        first, second = cols[b], cols[b + 1]
        drop, take = first & ~second, second & ~first
        word = _word(drop, take, slices, take_first)
        mp = {i: i for i in _mask_rows(first & second)}
        mp.update(zip([i for i in word if drop >> i & 1], [i for i in word if take >> i & 1]))
        maps.append(mp)
    return AssignmentPlan.from_maps(maps)


def _row_key(x: object) -> object:
    """x if it is a row index (an integer, in the operator.index sense), else (x,), no row."""
    try:
        index(x)
    except TypeError:
        return (x,)
    return x


def _entry(key: object) -> object:
    """The plan entry behind a _row_key."""
    return key[0] if type(key) is tuple else key


def _order(key: object) -> tuple:
    """A total order on _row_keys: rows by index first, then other entries by type name and repr."""
    return (1, type(key[0]).__name__, repr(key[0])) if type(key) is tuple else (0, index(key), "")


def _structural_violation(M: BinaryScheme, P: AssignmentPlan) -> PlanViolation | None:
    """Domain/identity/range/injectivity checks, lowest boundary first.

    Only an integer names a row; 3.0 and "3" name none.  A boundary passes
    on masks: donors C[b], fixed points C[b] & C[b+1], receivers within
    C[b+1], as many of each as pairs, and no entry negative.  Any other
    is scanned row by row to name its violation: first an entry that is
    no sequence of hashable values, such as ([1], 0), then a repeated
    donor.  Where several entries break one rule, rows come first, then
    the other entries by type name and repr.
    """
    if P.boundaries != M.m - 1:
        raise ValueError(
            f"plan covers {P.boundaries} boundaries, scheme has {M.m - 1}"
        )
    cols = M.col_masks
    bit = [1 << i for i in range(M.n)]  # a list takes only integer indices, and wraps negative ones
    for b, pairs in enumerate(P.pairs):
        first, second = cols[b], cols[b + 1]
        donors = receivers = fixed = signs = 0
        try:
            for i, j in pairs:
                donors |= bit[i]
                receivers |= bit[j]
                signs |= i | j  # negative once an entry is
                if i == j:
                    fixed |= bit[i]
        except (IndexError, TypeError, ValueError):  # an entry that is no pair of rows
            signs = -1
        if (signs >= 0 and donors == first and fixed == first & second and not receivers & ~second
                and donors.bit_count() == receivers.bit_count() == len(pairs)):
            continue
        for pair in pairs:
            try:
                hash(tuple(pair))  # as a dict reads a pair: a sequence of hashable values
            except TypeError:
                return PlanViolation(b, "domain", None, None, f"entry {pair!r} cannot be read as a pair of rows")
        mp = dict(tuple(map(_row_key, pair)) for pair in pairs)
        if len(mp) != len(pairs):
            rows = [_row_key(i) for i, _ in pairs]
            i = min((i for i in mp if rows.count(i) > 1), key=_order)
            return PlanViolation(b, "domain", _entry(i), None, f"row {_entry(i)} has {rows.count(i)} map entries")
        need = set(_mask_rows(first))
        have = set(mp)
        for i in sorted(need - have):
            return PlanViolation(b, "domain", i, None, f"row {i} rides stage {b} but has no map entry")
        for i in sorted(have - need, key=_order):
            i, j = _entry(i), _entry(mp[i])
            return PlanViolation(b, "domain", i, j, f"row {i} does not ride stage {b} yet appears in the map")
        x11 = set(_mask_rows(first & second))
        allowed = set(_mask_rows(second))
        for i in sorted(mp):
            j = _entry(mp[i])
            if (mp[i] == i) != (i in x11):
                return PlanViolation(
                    b, "identity", i, j,
                    "a row keeps its bicycle exactly when it rides both stages",
                )
            if mp[i] not in allowed:
                return PlanViolation(b, "range", i, j, f"row {j} does not ride stage {b + 1}")
        seen: dict[int, int] = {}
        for i in sorted(mp):
            if mp[i] in seen:
                return PlanViolation(
                    b, "injectivity", i, mp[i],
                    f"rows {seen[mp[i]]} and {i} both map to {mp[i]}",
                )
            seen[mp[i]] = i
    return None


def verify_plan(M: BinaryScheme, P: AssignmentPlan) -> PlanCheck:
    """Check a plan against its scheme.

    Valid means: at every boundary the map's domain is exactly the
    riders of the earlier stage, each listed once, it is injective
    into the riders of the later stage, it fixes exactly the
    keep-riding rows, and every receiver has ridden at most as many
    stages as its donor.

    The shape is checked on masks; then one pass over each boundary's
    handovers names the lowest donor whose receiver has ridden more.

    Raises:
        ValueError: the plan does not have one map per boundary.
    """
    v = _structural_violation(M, P)
    if v is not None:
        return PlanCheck(False, v)
    masks = M.masks
    for b, pairs in enumerate(P.pairs):
        stages = (1 << (b + 1)) - 1  # columns 0..b
        worst = None
        for i, j in pairs:
            if i != j and (masks[j] & stages).bit_count() > (masks[i] & stages).bit_count():
                if worst is None or i < worst[0]:
                    worst = i, j
        if worst is not None:
            i, j = worst
            given, taken = (masks[i] & stages).bit_count(), (masks[j] & stages).bit_count()
            detail = f"receiver {j} has ridden {taken} stages, donor {i} only {given}"
            return PlanCheck(False, PlanViolation(b, "partial-sum", i, j, detail))
    return PlanCheck(True, None)


def complementary_plan(M: BinaryScheme, P: AssignmentPlan) -> AssignmentPlan:
    """The induced plan for the bit-flipped scheme.

    Walkers of M are riders of its dual; the complementary map fixes
    the keep-walking rows and reverses each handover of P, so it is a
    feasible plan for binary_dual(M) whenever P is feasible for M.

    Raises:
        ValueError: P is not a valid plan for M.
    """
    check = verify_plan(M, P)
    if not check.valid:
        raise ValueError(f"plan is not valid for the scheme: {check.violation}")
    cols = M.col_masks
    everyone = (1 << M.n) - 1
    maps = []
    for b in range(M.m - 1):
        first, second = cols[b], cols[b + 1]
        mp = P.mapping(b)
        inverse = {v: i for i, v in mp.items() if v != i}
        comp = {i: i for i in _mask_rows(everyone & ~(first | second))}
        comp.update((i, inverse[i]) for i in _mask_rows(second & ~first))
        maps.append(comp)
    return AssignmentPlan.from_maps(maps)
