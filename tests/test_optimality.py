import random
from collections import Counter
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bikerelay import (
    AssignmentPlan,
    BinaryScheme,
    SpeedModel,
    TieOrder,
    Verdict,
    bicycle_itineraries,
    binary_dual,
    block_compose,
    build_assignment_plan,
    canonical_word,
    circulant_matrix,
    complementary_plan,
    count_excess_handovers,
    cyclic_matrix,
    decide_optimal,
    default_block_cells,
    dual_reverse_word,
    enumerate_uniform,
    format_scheme,
    is_dyck,
    is_executable_without_stall,
    parse_scheme,
    permute_rows,
    prefix_sums,
    random_uniform,
    reverse_stages,
    transpose_cyclic_matrix,
    uniformity,
    verify_plan,
)
from bikerelay.oracle import DEFAULT_SPEED_RATIOS

from reference_listing import reference_enumerate
from test_scheme import slot_is_empty


def reference_word_letters(M, table, b, tie_order):
    """Sorted (ride count, kind, row, letter) entries of boundary b, row by row."""
    entries = []
    for i, row in enumerate(M.rows):
        first, second = row[b], row[b + 1]
        if first == second:
            continue
        s = table[i][b + 1]
        if first:  # dropper
            entries.append((s, 0, i, "a"))
        else:  # taker
            entries.append((s, 1, i, "b"))
    if tie_order is TieOrder.DROP_FIRST:
        entries.sort(key=lambda e: (-e[0], e[1], e[2]))
    else:
        entries.sort(key=lambda e: (e[0], e[1], e[2]), reverse=True)
    return entries


def reference_decide(M, use_skip_rule=True, tie_order=TieOrder.DROP_FIRST):
    """The list scan: prefix table, then every boundary word sorted and walked.

    With use_skip_rule and DROP_FIRST, the boundaries decide_optimal
    leaves out are left out here too; without it every boundary is
    scanned, which is the definition the skip rule must agree with.
    """
    uni = uniformity(M)
    if not uni.is_uniform:
        return Verdict(False, None, "not-uniform")
    m = M.m
    if m < 2:
        return Verdict(True, uni.k, "optimal")
    # The skip rule holds under drop-first only: under take-first a tie
    # can put a taker first at the outer boundaries.
    use_skip_rule = use_skip_rule and tie_order is TieOrder.DROP_FIRST
    if use_skip_rule and (uni.l <= 2 or uni.l >= m - 2):
        return Verdict(True, uni.k, "optimal")
    table = prefix_sums(M).table
    skipped = {0, 1, m - 3, m - 2} if use_skip_rule else set()
    for b in range(m - 1):
        if b in skipped:
            continue
        entries = reference_word_letters(M, table, b, tie_order)
        depth = 0
        for e in entries:
            depth += 1 if e[3] == "a" else -1
            if depth < 0:
                word = "".join(x[3] for x in entries)
                return Verdict(False, uni.k, "non-dyck", b, word)
    return Verdict(True, uni.k, "optimal")


def assert_same_verdicts(M):
    # decide_optimal equals the list scan with and without the skip rule.
    for order in TieOrder:
        got = decide_optimal(M, order)
        for skip in (True, False):
            assert got == reference_decide(M, skip, order), (M.rows, skip, order)


@pytest.mark.parametrize(
    "word, ok",
    [
        ("", True),
        ("ab", True),
        ("aabb", True),
        ("abab", True),
        ("aababb", True),
        ("ba", False),
        ("abba", False),
        ("aab", False),
        ("bbbaaa", False),
    ],
)
def test_is_dyck(word, ok):
    assert is_dyck(word) is ok


def test_dual_reverse_word_is_an_involution():
    assert dual_reverse_word("aab") == "abb"
    assert dual_reverse_word(dual_reverse_word("abaabb")) == "abaabb"


def test_canonical_word_on_the_split_fixtures(split_riders, split_riders_swapped):
    w = canonical_word(split_riders, 2)
    assert w.letters == "aaabbb"
    assert w.rows == (0, 1, 2, 3, 4, 5)
    w = canonical_word(split_riders_swapped, 2)
    assert w.letters == "bbbaaa"
    assert not is_dyck(w)


def test_canonical_word_rejects_bad_input(split_riders):
    with pytest.raises(ValueError):
        canonical_word(split_riders, 5)
    bad = parse_scheme("2 2\n1 1\n1 0\n")
    with pytest.raises(ValueError):
        canonical_word(bad, 0)


def test_verdicts_on_fixtures(split_riders, split_riders_swapped):
    v = decide_optimal(split_riders)
    assert v.optimal and v.reason == "optimal" and v.k == 3
    v = decide_optimal(split_riders_swapped)
    assert not v.optimal
    assert v.reason == "non-dyck"
    assert v.failing_boundary == 2
    assert v.failing_word == "bbbaaa"


def test_verdict_on_non_uniform():
    v = decide_optimal(parse_scheme("2 2\n1 1\n1 0\n"))
    assert not v.optimal and v.reason == "not-uniform"
    assert v.failing_boundary is None


def test_skip_rule_changes_nothing_small():
    # Exhaustive over every uniform matrix with n <= 5, under both tie
    # orders.
    diffs = []

    def visit(M, optimal):
        for order in TieOrder:
            full = reference_decide(M, False, order)
            if decide_optimal(M, order) != full:
                diffs.append((M.rows, order))

    for n in range(1, 6):
        for k in range(0, n + 1):
            reference_enumerate(n, k, visit)
    assert diffs == []


def test_skip_rule_changes_nothing_on_random_samples():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(2, 8)
        M = random_uniform(n, rng.randint(0, n), rng)
        a = decide_optimal(M)
        b = reference_decide(M, False)
        assert (a.optimal, a.failing_boundary) == (b.optimal, b.failing_boundary)


def test_skip_rule_sound_on_rectangles():
    # Rectangular uniform matrix whose only failing boundary sits mid-scan;
    # a shortcut keyed to column sums alone would skip the whole scan here.
    R = parse_scheme("4 6\n0 0 1 0 1 1\n1 1 0 1 0 0\n0 0 1 0 1 1\n1 1 0 1 0 0\n")
    a = decide_optimal(R)
    b = reference_decide(R, False)
    assert not a.optimal and not b.optimal
    assert a.failing_boundary == b.failing_boundary == 2


def uniform_rectangles(n, m, l):
    """Every n x m binary matrix with row sums l and equal column sums, row by row."""
    k, rem = divmod(n * l, m)
    if rem:
        return
    choices = [tuple(int(c in s) for c in range(m)) for s in combinations(range(m), l)]

    def extend(rows, sums):
        left = n - len(rows)
        if not left:
            yield BinaryScheme(rows)
            return
        for row in choices:
            new = [s + x for s, x in zip(sums, row)]
            # Each column can still reach k with the rows left after this one.
            if all(k - left + 1 <= s <= k for s in new):
                yield from extend(rows + [row], new)

    yield from extend([], [0] * m)


def test_skip_rule_sound_on_every_small_uniform_rectangle():
    # Off the square, non-optimal schemes appear at 2 x 6 already, far
    # below the (6,3) where square ones start.  Every uniform n x m with
    # n <= 4, m <= 8 and n*m <= 24: decide_optimal equals the list scan
    # under both tie orders, and the drop-first verdict equals the greedy
    # run at every speed ratio.
    speeds = [SpeedModel(1, r) for r in DEFAULT_SPEED_RATIOS]
    census = {}
    for n in range(1, 5):
        for m in range(1, min(8, 24 // n) + 1):
            for l in range(m + 1):
                total = optimal = 0
                for M in uniform_rectangles(n, m, l):
                    assert_same_verdicts(M)
                    ok = decide_optimal(M).optimal
                    for speed in speeds:
                        assert is_executable_without_stall(M, speed) is ok, M.rows
                    total += 1
                    optimal += ok
                if total:
                    census[n, m, l] = total, optimal
    assert sum(total for total, _ in census.values()) == 2354
    assert census[2, 6, 3] == (20, 18)
    assert census[2, 8, 4] == (70, 54)
    assert census[4, 6, 3] == (1860, 1758)


def test_tie_order_divergence(tie_order_split):
    drop = decide_optimal(tie_order_split, tie_order=TieOrder.DROP_FIRST)
    take = decide_optimal(tie_order_split, tie_order=TieOrder.TAKE_FIRST)
    assert drop.optimal
    assert not take.optimal
    assert take.failing_boundary == 2 and take.failing_word == "abbbaa"
    # The execution itself sides with the drop-first reading.
    assert is_executable_without_stall(tie_order_split)


def test_tie_order_is_read_the_same_way_everywhere(tie_order_split):
    # The enum and its value string mean the same order in every public
    # entry, and any other value is refused, even for a non-uniform scheme.
    M = tie_order_split
    for order in TieOrder:
        assert decide_optimal(M, order.value) == decide_optimal(M, order)
        for b in range(M.m - 1):
            assert canonical_word(M, b, order.value) == canonical_word(M, b, order)
    assert build_assignment_plan(M, "drop-first") == build_assignment_plan(M, TieOrder.DROP_FIRST)
    for order in (TieOrder.TAKE_FIRST, "take-first"):
        with pytest.raises(ValueError, match="not optimal"):
            build_assignment_plan(M, order)
    for scheme in (M, parse_scheme("2 2\n1 1\n1 0\n")):
        for use in (decide_optimal, build_assignment_plan, lambda S, t: canonical_word(S, 0, t)):
            with pytest.raises(ValueError, match="not a valid TieOrder"):
                use(scheme, "bogus")


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.randoms(use_true_random=False))
def test_word_transforms(n, rng):
    M = random_uniform(n, rng.randint(1, n - 1), rng)
    D = binary_dual(M)
    R = reverse_stages(M)
    for b in range(M.m - 1):
        w = canonical_word(M, b).letters
        assert canonical_word(D, b).letters == dual_reverse_word(w)
        back = canonical_word(M, M.m - 2 - b).letters
        assert canonical_word(R, b).letters == dual_reverse_word(back)


def test_word_transforms_move_the_failing_boundary():
    # A sample of the stalling (6,3) matrices: the dual keeps the first
    # non-Dyck boundary, and stage reversal brings the last one first.
    stalling = enumerate_uniform(6, 3, max_examples=9560).minimal_nonoptimal_examples
    for M in stalling[::20]:
        bad = [b for b in range(M.m - 1) if not is_dyck(canonical_word(M, b))]
        verdict = decide_optimal(M)
        assert verdict.failing_boundary == bad[0]
        dual = decide_optimal(binary_dual(M))
        assert dual.failing_boundary == bad[0]
        assert dual.failing_word == dual_reverse_word(verdict.failing_word)
        rev = decide_optimal(reverse_stages(M))
        assert rev.failing_boundary == M.m - 2 - bad[-1]
        assert rev.failing_word == dual_reverse_word(canonical_word(M, bad[-1]))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.randoms(use_true_random=False))
def test_verdict_invariant_under_row_permutation(n, rng):
    M = random_uniform(n, rng.randint(0, n), rng)
    pi = list(range(n))
    rng.shuffle(pi)
    assert decide_optimal(permute_rows(M, pi)).optimal == decide_optimal(M).optimal


def test_plan_for_split_riders(split_riders):
    P = build_assignment_plan(split_riders)
    assert P.boundaries == 5
    assert P.mapping(2) == {0: 3, 1: 4, 2: 5}
    assert P.mapping(0) == {0: 0, 1: 1, 2: 2}
    assert verify_plan(split_riders, P).valid


def test_plans_with_tied_handovers_are_valid():
    # A receiver whose ride count through the boundary equals the
    # donor's reaches the post with the bicycle: the plan stays valid.
    tied = 0
    for n in range(2, 8):
        for k in range(1, n):
            M = transpose_cyclic_matrix(n, k)
            P = build_assignment_plan(M)
            assert verify_plan(M, P).valid, (n, k)
            assert verify_plan(binary_dual(M), complementary_plan(M, P)).valid, (n, k)
            tied += count_excess_handovers(M) > 0
    assert tied >= 10


def test_plan_requires_an_optimal_scheme(split_riders_swapped):
    with pytest.raises(ValueError):
        build_assignment_plan(split_riders_swapped)


def test_plan_violations_are_located(split_riders):
    P = build_assignment_plan(split_riders)
    maps = [P.mapping(b) for b in range(P.boundaries)]

    broken = [dict(m) for m in maps]
    broken[2] = {0: 3, 1: 3, 2: 5}
    check = verify_plan(split_riders, AssignmentPlan.from_maps(broken))
    assert not check.valid
    assert check.violation.boundary == 2
    assert check.violation.condition == "injectivity"

    broken = [dict(m) for m in maps]
    del broken[1][0]
    check = verify_plan(split_riders, AssignmentPlan.from_maps(broken))
    assert not check.valid
    assert check.violation.condition == "domain"

    broken = [dict(m) for m in maps]
    broken[0][0] = 1
    check = verify_plan(split_riders, AssignmentPlan.from_maps(broken))
    assert not check.valid
    assert check.violation.condition in ("identity", "injectivity")

    broken = [dict(m) for m in maps]
    broken[0][5] = 5
    check = verify_plan(split_riders, AssignmentPlan.from_maps(broken))
    assert not check.valid
    assert (check.violation.boundary, check.violation.condition) == (0, "domain")
    assert (check.violation.row, check.violation.mapped_to) == (5, 5)

    broken = [dict(m) for m in maps]
    broken[2][0] = 1
    bad = AssignmentPlan.from_maps(broken)
    check = verify_plan(split_riders, bad)
    assert not check.valid
    assert (check.violation.boundary, check.violation.condition) == (2, "range")
    assert (check.violation.row, check.violation.mapped_to) == (0, 1)
    for use in (complementary_plan, bicycle_itineraries):
        with pytest.raises(ValueError, match="not valid"):
            use(split_riders, bad)

    with pytest.raises(ValueError):
        verify_plan(split_riders, AssignmentPlan.from_maps(maps[:3]))


def test_partial_sum_condition_reported():
    # Donors at the third boundary are one ride behind the receivers.
    M = parse_scheme("6 6\n" + "1 1 0 1 0 0\n" * 3 + "0 0 1 0 1 1\n" * 3)
    maps = []
    for b in range(5):
        m = {i: i for i, r in enumerate(M.rows) if r[b] and r[b + 1]}
        droppers = [i for i, r in enumerate(M.rows) if r[b] > r[b + 1]]
        takers = [i for i, r in enumerate(M.rows) if r[b] < r[b + 1]]
        for g, t in zip(droppers, takers):
            m[g] = t
        maps.append(m)
    check = verify_plan(M, AssignmentPlan.from_maps(maps))
    assert not check.valid
    assert check.violation.condition == "partial-sum"
    assert check.violation.boundary == 2


def test_complementary_plan(split_riders):
    P = build_assignment_plan(split_riders)
    Q = complementary_plan(split_riders, P)
    D = binary_dual(split_riders)
    assert verify_plan(D, Q).valid
    # Walkers keep "their" slot; the old handover runs backwards.
    assert Q.mapping(2) == {3: 0, 4: 1, 5: 2}


def test_plan_existence_matches_word_verdict_exhaustively():
    # For tiny schemes, compare the word verdict against brute force over
    # every possible handover bijection at every boundary.
    from itertools import permutations

    def some_plan_everywhere(M):
        S = prefix_sums(M)
        for b in range(M.m - 1):
            droppers = [i for i, r in enumerate(M.rows) if r[b] > r[b + 1]]
            takers = [i for i, r in enumerate(M.rows) if r[b] < r[b + 1]]
            found = False
            for perm in permutations(takers):
                if all(S.table[t][b + 1] <= S.table[g][b + 1] for g, t in zip(droppers, perm)):
                    found = True
                    break
            if not found:
                return False
        return True

    outcomes = []

    def visit(M, optimal):
        outcomes.append(optimal == some_plan_everywhere(M))

    for n in range(2, 5):
        for k in range(0, n + 1):
            reference_enumerate(n, k, visit)
    assert all(outcomes)


def test_decision_equals_the_list_scan_on_every_uniform_5x5():
    take_first_rejects = []

    def visit(M, optimal):
        assert_same_verdicts(M)
        full = reference_decide(M, False, TieOrder.TAKE_FIRST)
        take_first_rejects.append(not full.optimal)

    for k in (2, 3):
        reference_enumerate(5, k, visit)
    assert sum(take_first_rejects) == 2280


def test_words_and_plans_equal_the_reference_in_both_orders(fixtures_dir):
    # Every uniform 5x5 (k = 2, 3), a stride of the stalling (6,3)
    # matrices, every fixture and six parsed schemes with deep ranks: at
    # every boundary and in both orders, the word's letters and rows
    # equal the reference sort, and an accepted scheme's plan hands the
    # rth dropper's bicycle to the rth taker of that word.
    schemes = []
    for k in (2, 3):
        reference_enumerate(5, k, lambda M, ok: schemes.append(M))
    schemes += enumerate_uniform(6, 3, max_examples=9560).minimal_nonoptimal_examples[::40]
    schemes += [parse_scheme(p.read_text()) for p in sorted(fixtures_dir.glob("*.mat"))]
    # Rides up to 16, so the ranks split on five slices: these files are
    # parsed, and their words and plans must build no row masks.
    deep = [circulant_matrix(48, 16), transpose_cyclic_matrix(48, 16), cyclic_matrix(24, 7)]
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        n = rng.randint(20, 40)
        deep.append(random_uniform(n, rng.randint(n // 4, 3 * n // 4), rng))
    schemes += [parse_scheme(format_scheme(M)) for M in deep]
    plans = from_columns = 0
    for M in schemes:
        columns_only = slot_is_empty(M, "masks")
        words = {order: [canonical_word(M, b, order) for b in range(M.m - 1)] for order in TieOrder}
        built = {order: build_assignment_plan(M, order) for order in TieOrder if decide_optimal(M, order).optimal}
        if columns_only:
            assert slot_is_empty(M, "masks"), M.col_masks
            from_columns += 1
        table = prefix_sums(M).table
        for order in TieOrder:
            P = built.get(order)
            for b in range(M.m - 1):
                entries = reference_word_letters(M, table, b, order)
                w = words[order][b]
                assert w.letters == "".join(e[3] for e in entries), (M.rows, b, order)
                assert w.rows == tuple(e[2] for e in entries), (M.rows, b, order)
                if P is not None:
                    droppers = [e[2] for e in entries if e[3] == "a"]
                    takers = [e[2] for e in entries if e[3] == "b"]
                    handovers = {i: j for i, j in P.pairs[b] if i != j}
                    assert handovers == dict(zip(droppers, takers)), (M.rows, b, order)
            plans += P is not None
    # Drop-first accepts all 4,080 5x5s, four fixtures and the three
    # stock schemes, take-first 1,800 of the 5x5s, two fixtures and all
    # but transpose-cyclic; no (6,3) example or random draw is accepted.
    assert plans == 4080 + 4 + 3 + 1800 + 2 + 2
    # The (6,3) examples are built from their columns, the rest parsed.
    assert from_columns == 239 + len(list(fixtures_dir.glob("*.mat"))) + len(deep), from_columns


def failing_words_checked(M):
    """The tie orders that reject M at a word, each failing word checked against canonical_word.

    decide_optimal reads the failing word off its split of the movers
    by rank; canonical_word sorts the rows.
    """
    rejecting = []
    for order in TieOrder:
        v = decide_optimal(M, order)
        if v.reason == "non-dyck":
            assert v.failing_word == canonical_word(M, v.failing_boundary, order).letters, (M, order)
            rejecting.append(order)
    return rejecting


def shuffled_columns(M, seed):
    """M with its columns in a seeded random order, written and parsed back."""
    cols = list(range(M.m))
    random.Random(seed).shuffle(cols)
    return parse_scheme(format_scheme(BinaryScheme([[row[c] for c in cols] for row in M.rows])))


def test_the_failing_word_is_the_canonical_word_on_every_nonoptimal_6x6():
    # Take-first rejects every matrix drop-first rejects.
    rejected = Counter()
    for M in reference_enumerate(6, 3, max_examples=9560).minimal_nonoptimal_examples:
        rejected.update(failing_words_checked(M))
    assert rejected == {TieOrder.DROP_FIRST: 9560, TieOrder.TAKE_FIRST: 9560}


@pytest.mark.parametrize(
    "make, rejecting",
    [
        (lambda fixtures: parse_scheme((fixtures / "tie_order_split.mat").read_text()), [TieOrder.TAKE_FIRST]),
        (lambda fixtures: parse_scheme((fixtures / "take_first_outer_tie.mat").read_text()), [TieOrder.TAKE_FIRST]),
        (lambda fixtures: shuffled_columns(cyclic_matrix(256, 85), 3), list(TieOrder)),
        # Wide, 10 x 40, and tall, 30 x 10: block grids of cyclic(5, 2) cells.
        (lambda fixtures: shuffled_columns(block_compose(10, 4, 8, default_block_cells(10, 4, 8)), 4), list(TieOrder)),
        (lambda fixtures: shuffled_columns(block_compose(30, 12, 2, default_block_cells(30, 12, 2)), 2), list(TieOrder)),
    ],
)
def test_the_failing_word_is_the_canonical_word(make, rejecting, fixtures_dir):
    assert failing_words_checked(make(fixtures_dir)) == rejecting


@st.composite
def wide_schemes(draw):
    """Square and rectangular schemes up to 64 rows, optimal or not.

    Block compositions of random optimal cells, random uniform squares,
    and cyclic matrices; then optionally rows and columns shuffled
    (column shuffles make most of them non-Dyck) and one bit flipped
    (never uniform).
    """
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["block", "uniform", "cyclic"]))
    if kind == "block":
        n_cell = draw(st.integers(1, 8))
        k_cell = draw(st.integers(0, n_cell).filter(lambda k: gcd(n_cell, k) == 1 or n_cell == 1))
        d = draw(st.integers(1, 64 // n_cell))
        r = draw(st.integers(1, 3))
        cells = []
        for _ in range(d):
            row = []
            for _ in range(r):
                cell = random_uniform(n_cell, k_cell, rng)
                if not reference_decide(cell).optimal:
                    cell = cyclic_matrix(n_cell, k_cell)
                row.append(cell)
            cells.append(row)
        M = block_compose(d * n_cell, d * k_cell, r, cells)
    else:
        n = draw(st.integers(1, 64))
        k = draw(st.integers(0, n))
        M = random_uniform(n, k, rng) if kind == "uniform" else cyclic_matrix(n, k)
    rows = [list(row) for row in M.rows]
    if draw(st.booleans()):
        rng.shuffle(rows)
    if draw(st.booleans()):
        cols = list(range(M.m))
        rng.shuffle(cols)
        rows = [[row[c] for c in cols] for row in rows]
    if draw(st.integers(0, 3)) == 0:
        i, j = rng.randrange(M.n), rng.randrange(M.m)
        rows[i][j] ^= 1
    return BinaryScheme(rows)


@settings(max_examples=80, deadline=None)
@given(wide_schemes())
def test_decision_equals_the_list_scan_up_to_n64(M):
    assert_same_verdicts(M)


def test_decision_equals_the_list_scan_on_permuted_cyclics():
    rng = random.Random(11)
    reasons = set()
    for n in (12, 24, 40, 64):
        for k in (n // 3, n // 2 - 1):
            base = cyclic_matrix(n, k)
            cols = list(range(n))
            rng.shuffle(cols)
            M = BinaryScheme([[row[c] for c in cols] for row in base.rows])
            assert_same_verdicts(M)
            reasons.add(decide_optimal(M).reason)
    assert "non-dyck" in reasons
