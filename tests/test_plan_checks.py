"""The plan checks give the verdicts of the row-by-row scan.

Each corrupted plan goes through all four entry points that check a
plan: verify_plan, simulate(policy="plan"), bicycle_itineraries and
complementary_plan.  The expected outcome comes from the scan the
checks were first written as (sets and sorts at every boundary, then
the ride counts of every pair).  Two kinds of plan are judged
differently, since that scan read the pairs through a dict: a donor
listed twice, where it let the last entry win, and an entry such as 3.0
that equals a row index without being an integer, which it took for
that row.
"""

import pytest

from bikerelay import (
    AssignmentPlan,
    SpeedModel,
    bicycle_itineraries,
    build_assignment_plan,
    complementary_plan,
    cyclic_matrix,
    decide_optimal,
    parse_scheme,
    simulate,
    verify_plan,
)
from bikerelay.optimality import PlanCheck, PlanViolation

HALF = SpeedModel(1, 2)

# A 3-uniform 6 x 6 optimal scheme.  Boundary 2 hands over twice, from
# donors with different ride counts, so swapping the two receivers
# breaks the ride-count condition.
SCHEME = parse_scheme(
    "6 6\n"
    "0 0 1 0 1 1\n"
    "1 0 0 1 0 1\n"
    "0 1 1 0 0 1\n"
    "1 1 0 1 0 0\n"
    "0 0 1 1 1 0\n"
    "1 1 0 0 1 0\n"
)


def reference_violation(M, P):
    """The first violation by the row-by-row scan, or None; ValueError as it raised."""
    if P.boundaries != M.m - 1:
        raise ValueError(f"plan covers {P.boundaries} boundaries, scheme has {M.m - 1}")
    rows = M.rows
    for b in range(M.m - 1):
        mp = dict(P.pairs[b])
        need = {i for i in range(M.n) if rows[i][b]}
        have = set(mp)
        for i in sorted(need - have):
            return PlanViolation(b, "domain", i, None, f"row {i} rides stage {b} but has no map entry")
        for i in sorted(have - need):
            return PlanViolation(b, "domain", i, mp[i], f"row {i} does not ride stage {b} yet appears in the map")
        x11 = {i for i in need if rows[i][b + 1]}
        allowed = {i for i in range(M.n) if rows[i][b + 1]}
        for i in sorted(mp):
            if (mp[i] == i) != (i in x11):
                return PlanViolation(
                    b, "identity", i, mp[i], "a row keeps its bicycle exactly when it rides both stages"
                )
            if mp[i] not in allowed:
                return PlanViolation(b, "range", i, mp[i], f"row {mp[i]} does not ride stage {b + 1}")
        seen = {}
        for i in sorted(mp):
            if mp[i] in seen:
                return PlanViolation(
                    b, "injectivity", i, mp[i], f"rows {seen[mp[i]]} and {i} both map to {mp[i]}"
                )
            seen[mp[i]] = i
    for b in range(M.m - 1):
        mp = dict(P.pairs[b])
        for i in sorted(mp):
            given, taken = sum(rows[i][: b + 1]), sum(rows[mp[i]][: b + 1])
            if taken > given:
                return PlanViolation(
                    b, "partial-sum", i, mp[i],
                    f"receiver {mp[i]} has ridden {taken} stages, donor {i} only {given}",
                )
    return None


def replace(P, b, pairs):
    return AssignmentPlan(P.pairs[:b] + (tuple(pairs),) + P.pairs[b + 1 :])


CANONICAL = build_assignment_plan(SCHEME)
# Boundary 1 is ((2, 2), (3, 0), (5, 4)): row 2 keeps riding, 3 hands to
# 0 and 5 to 4.  Boundary 2 is ((0, 1), (2, 3), (4, 4)).
CORRUPTED = {
    "domain missing": replace(CANONICAL, 1, [(2, 2), (5, 4)]),
    "domain extra": replace(CANONICAL, 1, [(1, 1), (2, 2), (3, 0), (5, 4)]),
    "identity, a keep-rider moves": replace(CANONICAL, 1, [(2, 0), (3, 2), (5, 4)]),
    "identity, a dropper keeps": replace(CANONICAL, 1, [(2, 2), (3, 3), (5, 4)]),
    "range": replace(CANONICAL, 1, [(2, 2), (3, 1), (5, 4)]),
    "injectivity": replace(CANONICAL, 1, [(2, 2), (3, 4), (5, 4)]),
    "partial-sum": replace(CANONICAL, 2, [(0, 3), (2, 1), (4, 4)]),
    "unsorted pairs": replace(CANONICAL, 1, [(5, 4), (2, 2), (3, 0)]),
    "negative key, extra": replace(CANONICAL, 1, [(-1, 0), (2, 2), (3, 0), (5, 4)]),
    "negative key, in place": replace(CANONICAL, 1, [(2, 2), (-3, 0), (5, 4)]),
    "negative receiver": replace(CANONICAL, 1, [(2, 2), (3, -1), (5, 4)]),
    "key past the last row": replace(CANONICAL, 1, [(2, 2), (3, 0), (5, 4), (6, 0)]),
    "str key": replace(CANONICAL, 1, [(2, 2), (3, 0), (5, 4), ("x", 1)]),
    "str key, in place": replace(CANONICAL, 1, [(2, 2), ("3", 0), (5, 4)]),
    "float key": replace(CANONICAL, 1, [(1.5, 0), (2, 2), (3, 0), (5, 4)]),
    "float receiver": replace(CANONICAL, 1, [(2, 2), (3, 0.5), (5, 4)]),
    "bool rows, valid": replace(CANONICAL, 2, [(False, True), (2, 3), (4, 4)]),
    "bool donor, partial-sum": replace(CANONICAL, 2, [(False, 3), (2, True), (4, 4)]),
    "bool receiver, injectivity": replace(CANONICAL, 2, [(0, True), (2, 1), (4, 4)]),
    "too few boundaries": AssignmentPlan(CANONICAL.pairs[:-1]),
    "too many boundaries": AssignmentPlan(CANONICAL.pairs + CANONICAL.pairs[:1]),
    "an entry that is no pair": replace(CANONICAL, 1, [(2, 2, 2), (3, 0), (5, 4)]),
    "canonical": CANONICAL,
}


def outcomes(M, P):
    """What each of the four entry points gives: a value, or the type and text of its error."""
    out = {}
    for name, call in (
        ("verify_plan", lambda: verify_plan(M, P)),
        ("simulate", lambda: len(simulate(M, HALF, policy="plan", plan=P).stall_events) > 0),
        ("bicycle_itineraries", lambda: bicycle_itineraries(M, P)),
        ("complementary_plan", lambda: complementary_plan(M, P)),
    ):
        try:
            out[name] = call()
        except (ValueError, TypeError) as exc:
            out[name] = (type(exc), str(exc))
    return out


def expected_outcomes(M, P, violation):
    """The four outcomes for a plan whose first violation is the given one (None if valid)."""
    if violation is None:
        return {
            "verify_plan": PlanCheck(True, None),
            "simulate": False,
            "bicycle_itineraries": bicycle_itineraries(M, CANONICAL),
            "complementary_plan": complementary_plan(M, CANONICAL),
        }
    bad = (ValueError, f"plan is not valid for the scheme: {violation}")
    structural = violation.condition != "partial-sum"
    return {
        "verify_plan": PlanCheck(False, violation),
        "simulate": (ValueError, f"malformed plan: {violation}") if structural else True,
        "bicycle_itineraries": bad,
        "complementary_plan": bad,
    }


@pytest.mark.parametrize("case", sorted(CORRUPTED))
def test_plan_checks_give_the_scan_verdicts(case):
    P = CORRUPTED[case]
    try:
        want = expected_outcomes(SCHEME, P, reference_violation(SCHEME, P))
    except ValueError as exc:
        want = dict.fromkeys(
            ("verify_plan", "simulate", "bicycle_itineraries", "complementary_plan"),
            (ValueError, str(exc)),
        )
    assert outcomes(SCHEME, P) == want


def test_the_table_names_every_condition():
    seen = set()
    for P in CORRUPTED.values():
        try:
            v = reference_violation(SCHEME, P)
        except ValueError:
            continue
        if v is not None:
            seen.add(v.condition)
    assert seen == {"domain", "identity", "range", "injectivity", "partial-sum"}
    assert decide_optimal(SCHEME).optimal


def test_a_bool_donor_is_named_as_the_plan_writes_it():
    v = verify_plan(SCHEME, CORRUPTED["bool donor, partial-sum"]).violation
    assert v == PlanViolation(2, "partial-sum", 0, 3, "receiver 3 has ridden 2 stages, donor False only 1")


def assert_refused(M, P, want):
    """Every entry point that checks a plan names the violation want."""
    # repr tells 4.0 from 4, which compare equal.
    assert repr(verify_plan(M, P)) == repr(PlanCheck(False, want))
    with pytest.raises(ValueError) as exc:
        simulate(M, HALF, policy="plan", plan=P)
    assert str(exc.value) == f"malformed plan: {want}"
    for use in (bicycle_itineraries, complementary_plan):
        with pytest.raises(ValueError) as exc:
            use(M, P)
        assert str(exc.value) == f"plan is not valid for the scheme: {want}"


@pytest.mark.parametrize(
    "M, b, pairs, row, count",
    [
        (cyclic_matrix(5, 2), 0, ((0, 0), (2, 2), (2, 3)), 2, 2),
        # The dict kept the last entry, (3, 1), and named a range violation.
        (SCHEME, 1, ((2, 2), (3, 0), (5, 4), (3, 1)), 3, 2),
        # Listed three times, with the canonical image last.
        (SCHEME, 1, ((2, 2), (3, 1), (3, 4), (3, 0), (5, 4)), 3, 3),
        # True and 1 are one key to a dict: row 1 listed twice.
        (SCHEME, 0, ((1, 2), (True, 2), (3, 3), (5, 5)), 1, 2),
    ],
)
def test_a_repeated_donor_is_refused(M, b, pairs, row, count):
    P = replace(build_assignment_plan(M), b, pairs)
    assert_refused(M, P, PlanViolation(b, "domain", row, None, f"row {row} has {count} map entries"))


@pytest.mark.parametrize(
    "pairs, want",
    [
        # 3.0 equals row 3 but is no integer, so row 3 has no map entry.
        (((2, 2), (3.0, 0), (5, 4)), (1, "domain", 3, None, "row 3 rides stage 1 but has no map entry")),
        (((2.0, 2.0), (3, 0), (5, 4)), (1, "domain", 2, None, "row 2 rides stage 1 but has no map entry")),
        (((2, 2), (3, 0), (5, 4.0)), (1, "range", 5, 4.0, "row 4.0 does not ride stage 2")),
    ],
)
def test_a_row_that_is_no_integer_is_no_row(pairs, want):
    assert_refused(SCHEME, replace(CANONICAL, 1, pairs), PlanViolation(*want))


@pytest.mark.parametrize(
    "extra, want",
    [
        # A row and a str, both extra: rows come first, and "x" is never
        # compared with 6.
        ((("x", 1), (6, 1)), (1, "domain", 6, 1, "row 6 does not ride stage 1 yet appears in the map")),
        ((("x", 1), ("3", 1)), (1, "domain", "3", 1, "row 3 does not ride stage 1 yet appears in the map")),
        # A dict cannot hold [1] as a key.
        ((([1], 0),), (1, "domain", None, None, "entry ([1], 0) cannot be read as a pair of rows")),
        (((3, [0]),), (1, "domain", None, None, "entry (3, [0]) cannot be read as a pair of rows")),
        ((5,), (1, "domain", None, None, "entry 5 cannot be read as a pair of rows")),
    ],
)
def test_entries_of_mixed_types_are_refused_without_type_errors(extra, want):
    assert_refused(SCHEME, replace(CANONICAL, 1, CANONICAL.pairs[1] + extra), PlanViolation(*want))
