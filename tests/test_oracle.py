import dataclasses
import random
from operator import gt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bikerelay import (
    BinaryScheme,
    Mismatch,
    SpeedModel,
    canonical_word,
    cross_validate,
    cyclic_matrix,
    cyclic_determinant,
    determinant_exact,
    enumerate_uniform,
    is_dyck,
    random_uniform,
    uniformity,
    verify_cyclic_structure,
)
from bikerelay import oracle
from bikerelay.oracle import DEFAULT_SPEED_RATIOS
from bikerelay.simulate import _Log, _execute, _stage_ticks

from reference_listing import reference_enumerate
from test_scheme import slot_is_empty

# Counts of n x n binary matrices with all line sums k, by independent
# per-column dynamic programming over row capacity multisets.
UNIFORM_COUNTS = {
    3: [1, 6, 6, 1],
    4: [1, 24, 90, 24, 1],
    5: [1, 120, 2040, 2040, 120, 1],
}


def full_scan(M):
    """Whether every drop-first word of a uniform M is Dyck, every boundary scanned.

    Droppers precede takers on equal ride counts, so the word is Dyck
    iff the rth highest ride count among the takers is at most the rth
    highest among the droppers, for every r (a uniform boundary has as
    many of each).
    """
    rides = [0] * M.n
    cols = list(zip(*M.rows))
    for first, second in zip(cols, cols[1:]):
        drop, take = [], []
        for i, (x, y) in enumerate(zip(first, second)):
            rides[i] += x
            if x != y:
                (drop if x else take).append(rides[i])
        drop.sort()
        take.sort()
        if any(map(gt, take, drop)):
            return False
    return True


MAX_EXAMPLES = (0, 1, 4, 50)


def assert_built_from_columns(got, want):
    """Each scheme of got holds no row masks until read, and its views equal want's.

    The descent builds every matrix from its columns, so the masks slot
    must still be empty; it is checked before anything reads it.
    """
    assert len(got) == len(want)
    assert all(slot_is_empty(M, "masks") for M in got)
    for M, R in zip(got, want):
        assert (M.masks, M.col_masks, M.rows) == (R.masks, R.col_masks, R.rows)


def assert_enumeration_equals_reference(n, k):
    """Reports of enumerate_uniform equal the reference's.

    The reference runs once, with a visitor and max_examples=50; its
    report for fewer examples keeps the first non-optimal matrices in
    visiting order, which the visitor sequence names.  Asking for every
    non-optimal matrix pins the descent's verdict on each matrix.
    Returns the visitor sequence.
    """
    seen = []
    ref = reference_enumerate(n, k, lambda M, ok: seen.append((M, ok)), max_examples=50)
    nonoptimal = [M for M, ok in seen if not ok]
    assert ref.minimal_nonoptimal_examples == tuple(nonoptimal[:50])
    for e in (*MAX_EXAMPLES, len(nonoptimal)):
        want = dataclasses.replace(ref, minimal_nonoptimal_examples=tuple(nonoptimal[:e]))
        got = enumerate_uniform(n, k, max_examples=e)
        assert_built_from_columns(got.minimal_nonoptimal_examples, nonoptimal[:e])
        assert got == want, (n, k, e)
    return seen


def test_enumeration_equals_the_per_leaf_reference_up_to_n5():
    for n in range(1, 6):
        for k in range(n + 1):
            assert_enumeration_equals_reference(n, k)


@pytest.mark.parametrize("k", range(7))
def test_enumeration_equals_the_per_leaf_reference_at_n6(k):
    seen = assert_enumeration_equals_reference(6, k)
    if k == 3:
        # The prefix verdict also equals a scan of every boundary.
        assert sum(not ok for _, ok in seen) == 9560
        assert all(ok == full_scan(M) for M, ok in seen)


# (total, non-optimal) at k = 3; the totals are OEIS A001501.  Up to
# n = 14 the counts were checked against a labelled descent memoised on
# row classes, as was (12, 4) below.
LINE_SUMS_3 = {
    3: (1, 0),
    4: (24, 0),
    5: (2_040, 0),
    6: (297_200, 9_560),
    7: (68_938_800, 4_412_940),
    8: (24_046_189_440, 2_314_868_640),
    9: (12_025_780_892_160, 1_518_432_941_760),
    10: (8_302_816_499_443_200, 1_286_313_784_560_000),
    11: (7_673_688_777_463_632_000, 1_399_797_475_712_143_200),
    12: (9_254_768_770_160_124_288_000, 1_932_820_179_808_131_398_400),
    13: (14_255_616_537_578_735_986_867_200, 3_340_160_763_405_398_729_596_800),
    14: (27_537_152_449_960_680_597_739_468_800, 7_128_139_003_253_412_954_992_582_400),
    15: (
        65_662_040_698_002_721_810_659_005_184_000,
        18_552_855_649_679_294_018_083_056_048_000,
    ),
    16: (
        190_637_228_506_535_883_540_302_038_364_160_000,
        58_227_415_914_384_726_092_322_602_178_816_000,
    ),
    17: (
        665_825_560_532_772_251_175_492_202_972_938_240_000,
        218_090_593_963_521_061_348_405_592_083_339_008_000,
    ),
    18: (
        2_767_806_480_542_211_571_651_550_187_279_222_472_704_000,
        965_757_942_175_816_429_135_923_686_233_260_109_824_000,
    ),
}


def test_enumeration_counts_settled_prefixes_to_the_known_census():
    # OEIS A001499: n x n binary matrices with all line sums 2.
    for n, k in ((7, 2), (7, 5), (8, 2)):
        rep = enumerate_uniform(n, k)
        want = {7: 3_110_940, 8: 187_530_840}[n]
        assert (rep.total_uniform, rep.optimal_count, rep.nonoptimal_count) == (want, want, 0)
    # All line sums 3, far past listing reach; the stalling share grows.
    for n, (total, nonoptimal) in LINE_SUMS_3.items():
        rep = enumerate_uniform(n, 3, max_examples=0)
        assert (rep.total_uniform, rep.nonoptimal_count) == (total, nonoptimal), n
        assert rep.optimal_count == total - nonoptimal
    shares = {n: f"{100 * bad / total:.2f}%" for n, (total, bad) in LINE_SUMS_3.items()}
    assert (shares[10], shares[18]) == ("15.49%", "34.89%")
    rep = enumerate_uniform(12, 4, max_examples=0)
    assert (rep.total_uniform, rep.nonoptimal_count) == (
        65_599_839_591_251_908_982_712_750,
        22_063_355_829_703_690_580_647_800,
    )
    # Non-optimal counts beyond the labelled reference's reach, pinned
    # from a separate count over row classes.
    for n, k, want in ((7, 3, 4_412_940), (7, 4, 4_412_940), (8, 4, 14_837_357_640)):
        rep = enumerate_uniform(n, k)
        assert rep.nonoptimal_count == want, (n, k)
        assert rep.optimal_count + want == rep.total_uniform
        if (n, k) == (7, 3):
            # The first examples in the labelled descent's order: the
            # class census skips only prefixes it counts all optimal.
            assert [M.masks for M in rep.minimal_nonoptimal_examples] == [
                (7, 7, 19, 28, 104, 104, 112),
                (7, 7, 19, 28, 104, 112, 104),
                (7, 7, 19, 28, 112, 104, 104),
                (7, 7, 19, 52, 88, 104, 104),
            ]
    # The binary dual maps (n, k) matrices onto (n, n-k) ones and keeps
    # optimality, so the counts at k and n-k agree.
    for n in range(1, 10):
        counts = [enumerate_uniform(n, k) for k in range(n + 1)]
        for k in range(n + 1):
            a, b = counts[k], counts[n - k]
            assert (a.total_uniform, a.nonoptimal_count) == (b.total_uniform, b.nonoptimal_count)


@pytest.mark.parametrize("n", sorted(UNIFORM_COUNTS))
def test_enumeration_census(n):
    for k, want in enumerate(UNIFORM_COUNTS[n]):
        rep = enumerate_uniform(n, k)
        assert rep.total_uniform == want
        assert rep.optimal_count + rep.nonoptimal_count == want


def test_enumeration_collects_limited_examples():
    rep = enumerate_uniform(6, 3, max_examples=2)
    assert rep.nonoptimal_count == 9560
    assert len(rep.minimal_nonoptimal_examples) == 2


def test_enumeration_guard():
    # Counting is never refused; listing every matrix to cross-validate
    # it is refused beyond n = 7, and allowed at n = 7.
    assert enumerate_uniform(8, 4).total_uniform == 116963796250
    with pytest.raises(ValueError, match="listing every matrix"):
        cross_validate(8, 4)
    assert cross_validate(7, 1) == []


def test_negative_max_examples_is_refused():
    with pytest.raises(ValueError, match="max_examples"):
        enumerate_uniform(4, 2, max_examples=-1)


def test_bad_parameters_are_refused():
    with pytest.raises(ValueError, match="bad parameters"):
        enumerate_uniform(0, 0)
    with pytest.raises(ValueError, match="bad parameters"):
        cross_validate(3, -1)
    with pytest.raises(ValueError, match="bad parameters"):
        random_uniform(3, 4, random.Random(0))


def test_the_forced_last_column_changes_no_verdict():
    # The descent stops before the last column.  That is sound because
    # no boundary next to it can fail a word (the skip rule's claim) and
    # no greedy run stalls first at the last post.  Both facts read only
    # ride counts, so they hold for a matrix iff they hold for its row
    # permutations: one stalling (6,3) matrix per row multiset stands
    # for all 9,560.  Random uniform schemes up to n = 16 join them.
    stalling = enumerate_uniform(6, 3, max_examples=10_000).minimal_nonoptimal_examples
    assert len(stalling) == 9560
    by_rows = {tuple(sorted(M.masks)): M for M in stalling}
    rng = random.Random(20261018)
    sampled = [random_uniform(n, rng.randint(0, n), rng) for n in range(1, 17) for _ in range(25)]
    ticks = [_stage_ticks(SpeedModel(1, r))[:2] for r in DEFAULT_SPEED_RATIOS]

    def stalling_runs(M):
        m = M.m
        for b in {0, 1, m - 3, m - 2} & set(range(m - 1)):
            assert is_dyck(canonical_word(M, b)), (M.masks, b)
        runs = 0
        for walk, ride in ticks:
            log = _Log(full=False)
            if not _execute(M, walk, ride, log=log):
                runs += 1
                assert log.stalls[0][1] < m - 1, (M.masks, walk, ride)
        return runs

    assert all(stalling_runs(M) == len(ticks) for M in by_rows.values())
    assert sum(map(stalling_runs, sampled)) >= 100


def test_cross_validate_small():
    assert cross_validate(4, 2) == []
    assert cross_validate(5, 2) == []


def reference_cross_validate(n, k):
    """cross_validate as it was before the per-prefix probe.

    Every matrix is listed by the per-leaf reference, which decides it
    with decide_optimal, and executed greedily at each ratio.
    """
    ticks = [_stage_ticks(SpeedModel(1, r)) for r in DEFAULT_SPEED_RATIOS]
    mismatches = []

    def probe(M, dyck_optimal):
        flags = tuple(_execute(M, walk, ride) for walk, ride, _ in ticks)
        if any(flag != dyck_optimal for flag in flags):
            mismatches.append(Mismatch(M, dyck_optimal, flags))

    reference_enumerate(n, k, probe)
    return mismatches


def test_cross_validation_equals_the_per_leaf_executions_up_to_n5(monkeypatch):
    # The patch fails every scanned boundary, so wherever one is scanned
    # a matrix is listed unless all three runs stall, and equal lists
    # mean equal flags on every matrix.  No n <= 5 scans a boundary (see
    # _scanned_boundaries): there the word verdict stays True, and equal
    # lists show that neither side finds a stall; the reference's verdict,
    # decide_optimal's, is out of the patch's reach, and True there too.
    # The stalling side is seen at (6,3) by the planted-mismatch test in
    # test_cli.py.
    monkeypatch.setattr(oracle, "_is_dyck_at", lambda *args: False)
    for n in range(1, 6):
        for k in range(n + 1):
            assert cross_validate(n, k) == reference_cross_validate(n, k), (n, k)


def test_the_probe_alone_finds_every_stall_in_order(monkeypatch):
    # With every word called Dyck, the matrices shown are exactly those
    # the probe finds a stall in: the 9,560 stalling (6,3) matrices, in
    # the order of the census's examples.  That pins the presorted caps,
    # the column order and the level counted in place.
    # Both lists are built from columns; the census's examples are the
    # reference's non-optimal (6,3) matrices, view for view, by
    # test_enumeration_equals_the_per_leaf_reference_at_n6.
    stalling = enumerate_uniform(6, 3, max_examples=10_000).minimal_nonoptimal_examples
    monkeypatch.setattr(oracle, "_is_dyck_at", lambda *args: True)
    shown = []
    assert oracle._descend(6, 3, lambda M, ok: shown.append((M, ok))) == []
    assert len(shown) == 9560
    assert all(slot_is_empty(M, "masks") for M in stalling)
    assert_built_from_columns([M for M, _ in shown], stalling)
    assert shown == [(M, True) for M in stalling]


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 10), st.integers(0, 10), st.integers(0, 2**32 - 1))
@example(40, 20, 0)
def test_random_uniform_is_uniform(n, k, seed):
    k = min(k, n)
    M = random_uniform(n, k, random.Random(seed))
    rep = uniformity(M)
    assert rep.is_uniform and rep.k == k
    assert (M.n, M.m) == (n, n)


@pytest.mark.parametrize(
    "seed, masks",
    [
        (1, (145, 140, 70, 49, 98, 11, 84, 168)),
        (2, (140, 37, 97, 168, 82, 82, 22, 137)),
        (3, (152, 49, 196, 14, 7, 224, 25, 98)),
    ],
)
def test_random_uniform_is_deterministic_per_seed(seed, masks):
    # The same seed gives the same matrix, pinned row mask by row mask.
    assert random_uniform(8, 3, random.Random(seed)).masks == masks


@pytest.mark.parametrize(
    "rows, det",
    [
        (((1,),), 1),
        (((1, 1), (1, 0)), -1),
        (((1, 0), (0, 1)), 1),
        (((1, 1), (1, 1)), 0),
        (((0, 1, 1), (1, 0, 1), (1, 1, 0)), 2),
    ],
)
def test_determinant_exact_hand_values(rows, det):
    assert determinant_exact(BinaryScheme(rows)) == det


def test_determinant_rejects_rectangles():
    with pytest.raises(ValueError):
        determinant_exact(BinaryScheme(((1, 0, 1),)))


def test_the_closed_form_cyclic_determinant_equals_elimination():
    for n in range(1, 31):
        for k in range(n + 1):
            assert cyclic_determinant(n, k) == determinant_exact(cyclic_matrix(n, k)), (n, k)
    for n, k in ((0, 0), (3, -1), (3, 4)):
        with pytest.raises(ValueError) as exc:
            cyclic_determinant(n, k)
        with pytest.raises(ValueError) as want:
            cyclic_matrix(n, k)
        assert str(exc.value) == str(want.value)


def test_cyclic_determinant_spot_checks():
    assert abs(determinant_exact(cyclic_matrix(5, 2))) == 2
    assert abs(determinant_exact(cyclic_matrix(7, 3))) == 3
    assert determinant_exact(cyclic_matrix(6, 3)) == 0


def test_cyclic_structure_report():
    rep = verify_cyclic_structure(6, 4)
    assert rep.all_ok
    assert (rep.d, rep.n_prime, rep.k_prime) == (2, 3, 2)
    assert rep.rotation_offset == 2  # inverse of 2 mod 3
    for n in range(1, 15):
        for k in range(1, n + 1):
            assert verify_cyclic_structure(n, k).all_ok, (n, k)
