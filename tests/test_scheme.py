import io
import random
from contextlib import redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bikerelay import (
    BinaryScheme,
    SchemeFormatError,
    TieOrder,
    bicycle_itineraries,
    binary_dual,
    block_compose,
    build_assignment_plan,
    canonical_word,
    circulant_matrix,
    complementary_plan,
    count_excess_handovers,
    count_rides,
    cyclic_matrix,
    decide_optimal,
    default_block_cells,
    first_stall_ride_index,
    format_scheme,
    is_executable_without_stall,
    is_single_ride_cyclic,
    parse_scheme,
    permute_rows,
    prefix_sums,
    reduce_scheme,
    reverse_stages,
    simulate,
    transpose,
    transpose_cyclic_matrix,
    uniformity,
    verify_plan,
)
from bikerelay import scheme
from bikerelay.cli import run


def reference_parse(text):
    """The token-by-token parser: one tuple per row, validated entry by entry."""
    lines = text.splitlines()
    header = None
    header_line = 0
    body_start = 0
    for idx, raw in enumerate(lines):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        header = stripped
        header_line = idx + 1
        body_start = idx + 1
        break
    if header is None:
        raise SchemeFormatError(len(lines) or 1, "missing header line '<rows> <cols>'")
    parts = header.split()
    if len(parts) != 2:
        raise SchemeFormatError(header_line, f"header must be '<rows> <cols>', got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise SchemeFormatError(header_line, f"header must be two integers, got {header!r}") from None
    if n < 1 or m < 1:
        raise SchemeFormatError(header_line, f"dimensions must be positive, got {n}x{m}")
    rows = []
    for idx in range(body_start, len(lines)):
        stripped = lines[idx].strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != m:
            raise SchemeFormatError(idx + 1, f"expected {m} entries, got {len(tokens)}")
        row = []
        for tok in tokens:
            if tok == "0":
                row.append(0)
            elif tok == "1":
                row.append(1)
            else:
                raise SchemeFormatError(idx + 1, f"entry {tok!r} not binary")
        rows.append(tuple(row))
        if len(rows) == n:
            for later in range(idx + 1, len(lines)):
                tail = lines[later].strip()
                if tail and not tail.startswith("#"):
                    raise SchemeFormatError(later + 1, "trailing data after last row")
            break
    if len(rows) != n:
        raise SchemeFormatError(len(lines) or 1, f"expected {n} rows, got {len(rows)}")
    return BinaryScheme(rows)


def outcome(parse, text):
    try:
        return parse(text)
    except SchemeFormatError as exc:
        return f"SchemeFormatError: {exc}"


@st.composite
def matrix_texts(draw):
    """Matrix files, mostly almost right: bad tokens, ragged, missing or extra rows."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 6))
    seps = st.sampled_from([" ", "  ", "\t", " \t "])
    token = st.sampled_from(["0", "1"] * 12 + ["2", "01", "x"])
    lines = draw(st.lists(st.sampled_from(["", "   ", "# note", "  # indented"]), max_size=2))
    good = [f"{n} {m}"] * 6 + [f"{n}\t{m}", f" {n}  {m} "]
    lines.append(draw(st.sampled_from(good + [f"{n} {m} 1", "x 2", f"{n}", "0 3"])))
    for _ in range(n + draw(st.sampled_from([0] * 6 + [-1, 1]))):
        width = m + draw(st.sampled_from([0] * 10 + [-1, 1]))
        tokens = draw(st.lists(token, min_size=width, max_size=width))
        line = ""
        for tok in tokens:
            line += draw(seps) + tok if line else tok
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + line + draw(st.sampled_from(["", " "])))
        lines.extend(draw(st.lists(st.sampled_from(["", "# c", "\t"]), max_size=1)))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


matrices = st.integers(1, 6).flatmap(
    lambda n: st.integers(1, 8).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(0, 1), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
).map(lambda rows: BinaryScheme(tuple(tuple(r) for r in rows)))


@given(matrices)
def test_parse_format_round_trip(M):
    assert parse_scheme(format_scheme(M)) == M


def test_parse_skips_comments_and_blank_lines():
    M = parse_scheme("# a comment\n\n2 3\n1 0 1\n\n# another\n0 1 0\n")
    assert M.rows == ((1, 0, 1), (0, 1, 0))
    assert (M.n, M.m) == (2, 3)


def test_format_scheme_carries_comment():
    M = BinaryScheme(((1, 0), (0, 1)))
    text = format_scheme(M, comment="hello")
    assert text.startswith("# hello\n")
    assert parse_scheme(text) == M


@pytest.mark.parametrize(
    "text, bad_line",
    [
        ("", 1),
        ("x 2\n1 0\n", 1),
        ("2 2\n1 0\n", 2),
        ("2 2\n1 0\n1 2\n", 3),
        ("2 2\n1 0 1\n0 1\n", 2),
        ("1 2\n1 0\n1 1\n", 3),
    ],
)
def test_parse_errors_carry_line_numbers(text, bad_line):
    with pytest.raises(SchemeFormatError) as exc:
        parse_scheme(text)
    assert exc.value.line == bad_line


def test_scheme_rejects_ragged_rows():
    with pytest.raises(ValueError):
        BinaryScheme(((1, 0), (1,)))
    with pytest.raises(ValueError, match="traveller"):
        BinaryScheme([])
    with pytest.raises(ValueError, match="stage"):
        BinaryScheme([[]])


def test_line_sums():
    M = parse_scheme("2 3\n1 0 1\n0 1 1\n")
    assert M.row_sums == (2, 2)
    assert M.col_sums == (1, 1, 2)
    assert not M.is_square


def test_uniformity_report(split_riders):
    rep = uniformity(split_riders)
    assert rep.is_uniform and rep.k == 3 and rep.l == 3
    rep = uniformity(parse_scheme("2 2\n1 1\n1 0\n"))
    assert not rep.is_uniform


def test_prefix_sums_table():
    M = parse_scheme("2 4\n1 0 1 1\n0 1 0 1\n")
    S = prefix_sums(M)
    assert S.table[0] == (0, 1, 1, 2, 3)
    assert S.table[1] == (0, 0, 1, 1, 2)


def test_stage_cut_partitions(split_riders):
    # The partition at boundary b is read from the column masks C[b]
    # and C[b+1]: keep riding, drop, take, keep walking.
    C = split_riders.col_masks
    everyone = 0b111111
    assert C[2] & ~C[3] == 0b000111
    assert C[3] & ~C[2] == 0b111000
    assert C[2] & C[3] == 0 and everyone & ~(C[2] | C[3]) == 0
    assert C[0] & C[1] == 0b000111 and everyone & ~(C[0] | C[1]) == 0b111000
    assert C[0] & ~C[1] == 0 and C[1] & ~C[0] == 0


def test_permute_rows_indexing():
    M = parse_scheme("3 2\n1 1\n1 0\n0 0\n")
    P = permute_rows(M, [2, 0, 1])
    assert P.rows == ((0, 0), (1, 1), (1, 0))
    with pytest.raises(ValueError):
        permute_rows(M, [0, 0, 1])


@given(matrices)
def test_transforms_are_involutions(M):
    assert reverse_stages(reverse_stages(M)) == M
    backwards = range(M.n - 1, -1, -1)
    assert permute_rows(permute_rows(M, backwards), backwards) == M
    assert binary_dual(binary_dual(M)) == M
    assert transpose(transpose(M)) == M


@given(matrices)
def test_transforms_commute_with_transpose(M):
    T = transpose(M)
    assert transpose(reverse_stages(M)) == permute_rows(T, range(T.n - 1, -1, -1))
    assert transpose(binary_dual(M)) == binary_dual(T)


def test_scheme_usable_as_dict_key():
    a = BinaryScheme(((1, 0), (0, 1)))
    b = BinaryScheme(((1, 0), (0, 1)))
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    with pytest.raises(AttributeError):
        a.n = 3
    assert a == b and a.n == 2


@settings(max_examples=250, deadline=None)
@given(matrix_texts())
def test_parse_equals_the_token_parser(text):
    got = outcome(parse_scheme, text)
    want = outcome(reference_parse, text)
    assert got == want
    if isinstance(got, BinaryScheme):
        assert got.rows == want.rows
        assert got.col_sums == want.col_sums and got.row_sums == want.row_sums


@pytest.mark.parametrize("bad", [2, -1, "1", 0.5, None, [1]])
def test_scheme_rejects_non_binary_entries(bad):
    with pytest.raises(ValueError) as exc:
        BinaryScheme(((1, 0, 1), (0, bad, 1)))
    assert str(exc.value) == f"entry (1,1) is {bad!r}, expected 0 or 1"


def test_scheme_accepts_true_and_float_one():
    M = BinaryScheme(((True, 0), (1.0, False)))
    assert M == BinaryScheme(((1, 0), (1, 0)))
    assert M.col_sums == (2, 0) and M.row_sums == (1, 1)


def test_trailing_zero_columns_make_a_different_scheme():
    a = BinaryScheme(((1, 0), (0, 1)))
    b = BinaryScheme(((1, 0, 0), (0, 1, 0)))
    assert a.masks == b.masks
    assert a != b
    assert len({a, b}) == 2
    again = parse_scheme("2 2\n1 0\n0 1\n")
    assert a == again and hash(a) == hash(again)


@given(matrices)
def test_mask_views_agree_with_the_rows(M):
    text = format_scheme(M)
    # The one-pass reader, and the line parser (a space before each line end).
    parsed = [parse_scheme(text), parse_scheme(text.replace("\n", " \n"))]
    for S in (M, *parsed):
        assert S.row_sums == tuple(map(sum, M.rows))
        assert S.masks == tuple(sum(v << j for j, v in enumerate(row)) for row in M.rows)
        assert S.col_masks == tuple(
            sum(row[j] << i for i, row in enumerate(M.rows)) for j in range(M.m)
        )
        assert S.rows == M.rows and S.col_sums == M.col_sums
        # A view is computed once, then read from its slot; a parsed
        # scheme's masks are one of them.
        assert S.rows is S.rows and S.col_masks is S.col_masks and S.masks is S.masks
    # Comparing and hashing derive the masks of a scheme parsed afresh.
    again = parse_scheme(text)
    assert again == M and hash(again) == hash(M)


def test_absurd_header_width_is_rejected_without_allocating_it():
    # A parser that built anything of length m would raise MemoryError here.
    with pytest.raises(SchemeFormatError) as exc:
        parse_scheme("1 1000000000000000000\n0 1\n")
    assert str(exc.value) == "line 2: expected 1000000000000000000 entries, got 2"
    assert exc.value.line == 2


@pytest.mark.parametrize(
    "text",
    [
        "1 3\n0   1\n",  # odd positions are spaces, the middle entry is one too
        "1 3\n0  10\n",  # right length and space count, a space at an even position
        "1 3\n010 1\n",  # right length, a digit at an odd position
        "1 2\n01 0\n",
        "1 3\n0 1 2\n",
        "1 3\n0\xa01 0\n",  # a separator that str.split accepts
        "1 3\n0\u20031\u20030\n",  # em spaces
        "2 3\n0\t1\t0\n1 \t0  1\n",
        "2 3\n   0 1 0\n1 0 1   \n",
        "2 3\r\n0 1 0\r\n1 0 1\r\n",
        "2 3\r\n0 1 0 \r\n\r\n1\t0 1",
        "3 1\n1\n0\n1\n",
        "2 1\n1\n0 1\n",
        "1 1\n2\n",
        "1 2\n0 1\n1 0\n",
        "2 2\n0 1\n",
        "1 3\n0 1\n",
        "1 2\n0 1 0\n",
    ],
)
def test_parse_matches_the_token_parser_where_the_slice_test_partly_holds(text):
    got = outcome(parse_scheme, text)
    want = outcome(reference_parse, text)
    assert got == want
    if isinstance(got, BinaryScheme):
        assert got.rows == want.rows


# Where str.splitlines breaks a line, "\n" aside.
LINE_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
ONE_PASS_SCHEME = BinaryScheme(((1, 0, 1, 1), (0, 1, 0, 0), (1, 1, 0, 1)))


def header_at(text):
    """Index of the header line: just past the leading '#' lines."""
    start = 0
    while text.startswith("#", start):
        start = text.index("\n", start) + 1
    return start


def body_at(text):
    """Index of the first row: just past the header line."""
    return text.index("\n", header_at(text)) + 1


def at(text, i, new, cut=1):
    return text[:i] + new + text[i + cut :]


# Each row is 8 characters, so row 1 starts at body_at + 8.
MUTATIONS = [
    ("no final newline", lambda t: t[:-1]),
    ("crlf", lambda t: t.replace("\n", "\r\n")),
    ("trailing comment", lambda t: t + "# tail\n"),
    ("tab in the header", lambda t: at(t, t.index(" ", header_at(t)), "\t")),
    ("tab in a row", lambda t: at(t, body_at(t) + 9, "\t")),
    *(
        (f"{ch!r} at a digit", lambda t, ch=ch: at(t, body_at(t) + 10, ch))
        # The one-pass reader keeps only the low bit of each digit's byte,
        # so it must refuse every character but '0' and '1' first: '3',
        # 'a' and '\x01' have that bit set, '\x00' has it clear, and the
        # fullwidth '１' is a digit int(..., 2) takes.
        for ch in ("_", " ", "2", "３", "3", "a", "\x01", "\x00", "１")
    ),
    ("short last row", lambda t: t[:-3] + "\n"),
    ("extra row", lambda t: t + t[-8:]),
    *(
        (f"{ch!r} in a comment", lambda t, ch=ch: f"# a{ch}1 1\n" + t)
        for ch in LINE_BREAKS
    ),
    ("space before the header", lambda t: at(t, header_at(t), " ", 0)),
    ("blank line before a row", lambda t: at(t, body_at(t) + 8, "\n", 0)),
]


# Mutations of the header line alone leave a body the one-pass reader takes.
HEADER_MUTATIONS = {"tab in the header", "space before the header"}


def one_mutation_texts():
    for comment in (None, "a", "a\nb", ""):
        text = format_scheme(ONE_PASS_SCHEME, comment)
        for name, mutate in MUTATIONS:
            yield pytest.param(
                mutate(text), name in HEADER_MUTATIONS, id=f"{name}, comment {comment!r}"
            )
    # A header of 10**24 entries: neither parser may build anything that size.
    yield pytest.param("# c\n1000000000000 1000000000000\n0 1\n", False, id="absurd header")
    yield pytest.param("9" * 5000 + " 1\n1\n", False, id="header past int's digit limit")


def assert_same_outcome(text):
    got = outcome(parse_scheme, text)
    want = outcome(reference_parse, text)
    assert got == want
    if isinstance(got, BinaryScheme):
        assert got.rows == want.rows and got.col_masks == want.col_masks


@pytest.fixture
def one_pass_reads(monkeypatch):
    """What each call of the one-pass reader returned, in order."""
    reads = []
    read_body = scheme._read_body

    def spy(*args):
        reads.append(read_body(*args))
        return reads[-1]

    monkeypatch.setattr(scheme, "_read_body", spy)
    return reads


def assert_read_in_one_pass(text, reads):
    # Falling back to the line parser would give the same schemes, only
    # slower, so the parse must return the one-pass reader's own result.
    got = parse_scheme(text)
    assert got is reads[-1]
    want = reference_parse(text)
    assert got == want
    assert got.rows == want.rows and got.col_masks == want.col_masks


@pytest.mark.parametrize("text, in_one_pass", one_mutation_texts())
def test_the_one_pass_reader_leaves_each_mutation_to_the_line_parser(
    text, in_one_pass, one_pass_reads
):
    assert_same_outcome(text)
    if in_one_pass:
        assert_read_in_one_pass(text, one_pass_reads)
    else:
        assert all(M is None for M in one_pass_reads)


HEADERS = [
    ("tab", "3\t4\n"),
    ("runs of spaces", "3    4\n"),
    ("leading and trailing spaces", "  3 4   \n"),
    ("blank and indented # lines before it", "\n   \n  # indented\n\t#\n3 4\n"),
    *((f"ended by {ch!r}", f"3 4{ch}") for ch in (*LINE_BREAKS, "\r\n")),
]


@pytest.mark.parametrize("comment", [None, "a", "a\nb"])
@pytest.mark.parametrize("header", [h for _, h in HEADERS], ids=[name for name, _ in HEADERS])
def test_the_one_pass_reader_takes_every_header_the_grammar_accepts(
    header, comment, one_pass_reads
):
    text = format_scheme(ONE_PASS_SCHEME, comment)
    text = text[: header_at(text)] + header + text[body_at(text) :]
    assert_read_in_one_pass(text, one_pass_reads)
    assert one_pass_reads[-1] == ONE_PASS_SCHEME


@st.composite
def damaged_formatted_texts(draw):
    """format_scheme output with up to two characters cut and up to two put in, at one place."""
    text = format_scheme(draw(matrices), draw(st.sampled_from([None, "a", "a\nb", ""])))
    i = draw(st.integers(0, len(text)))
    new = draw(st.text("01 \t\n#_2３" + LINE_BREAKS, max_size=2))
    return at(text, i, new, draw(st.integers(0, 2)))


@settings(max_examples=300, deadline=None)
@given(damaged_formatted_texts())
def test_parse_equals_the_token_parser_on_damaged_formatted_text(text):
    assert_same_outcome(text)


def test_parse_scheme_reads_what_format_scheme_writes_in_one_pass(
    fixtures_dir, tmp_path, one_pass_reads
):
    M = transpose_cyclic_matrix(11, 7)
    for comment in (None, "a comment\nof two lines", "\n#\n"):
        assert_read_in_one_pass(format_scheme(M, comment), one_pass_reads)
    reduced = tmp_path / "reduced.mat"
    with redirect_stdout(io.StringIO()):
        assert run(["reduce", str(fixtures_dir / "split_riders.mat"), "-o", str(reduced)]) == 0
    # Every fixture is written in format_scheme's shape.
    for path in [reduced, *sorted(fixtures_dir.glob("*.mat"))]:
        assert_read_in_one_pass(path.read_text(encoding="utf-8"), one_pass_reads)


schemes_up_to_64 = st.integers(1, 64).flatmap(
    lambda n: st.integers(1, 64).flatmap(
        lambda m: st.lists(st.integers(0, (1 << m) - 1), min_size=n, max_size=n).map(
            lambda masks: BinaryScheme(
                tuple(tuple((x >> j) & 1 for j in range(m)) for x in masks)
            )
        )
    )
)


@settings(max_examples=60, deadline=None)
@given(schemes_up_to_64)
def test_formatted_schemes_parse_back_as_the_token_parser_reads_them(M):
    text = format_scheme(M)
    got = parse_scheme(text)
    assert got == M == reference_parse(text)
    assert got.rows == M.rows and got.col_masks == M.col_masks


def naive_masks(rows):
    """Row masks, column masks and row sums of a 0/1 row list, entry by entry."""
    n, m = len(rows), len(rows[0])
    masks = tuple(sum(rows[i][j] << j for j in range(m)) for i in range(n))
    col_masks = tuple(sum(rows[i][j] << i for i in range(n)) for j in range(m))
    return masks, col_masks, tuple(map(sum, rows))


def assert_transposes_naively(rows):
    masks, col_masks, row_sums = naive_masks(rows)
    n, m = len(rows), len(rows[0])
    assert scheme._columns_of(masks, m) == col_masks
    assert scheme._columns_of(col_masks, n) == masks
    text = format_scheme(BinaryScheme(rows))
    # The canonical text takes the one-pass reader, the tab-separated
    # copy the line parser.
    for body in (text, text.replace(" ", "\t")):
        M = parse_scheme(body)
        assert (M.col_masks, M.row_sums) == (col_masks, row_sums)
        assert M.masks == masks


def random_rows(rng, n, m):
    """n random rows of m entries, each row at its own density, some all zero or all one."""
    rows = []
    for _ in range(n):
        p = rng.choice([0.0, 1.0, 0.5, rng.random()])
        rows.append(tuple(int(rng.random() < p) for _ in range(m)))
    return rows


def test_the_byte_packed_transpose_on_every_shape_up_to_17():
    # Every group size 1..8 for the last group of eight rows, and every
    # width, against a per-entry transpose.
    rng = random.Random(30)
    for n in range(1, 18):
        for m in range(1, 18):
            assert_transposes_naively(random_rows(rng, n, m))


@pytest.mark.parametrize("n", [7, 8, 9, 63, 64, 65, *random.Random(31).sample(range(1, 71), 6)])
def test_the_byte_packed_transpose_on_random_shapes_up_to_70(n):
    rng = random.Random(n)
    for m in (1, 7, 8, 9, 64, 65, 70, rng.randint(1, 70)):
        assert_transposes_naively(random_rows(rng, n, m))
        assert_transposes_naively([(0,) * m] * n)
        assert_transposes_naively([(1,) * m] * n)


def test_mask_rows_equals_a_bit_by_bit_listing_at_widths_up_to_1100():
    # Masks whose top bit is bit w-1: no bit, one, either side of the
    # switch to the one-pass listing (more than one set bit in eight), a
    # quarter, a half and all of them.
    rng = random.Random(1100)
    for w in range(1, 1101):
        dense = w // 8 + 1  # the fewest set bits listed in one pass
        masks = {0, 1 << (w - 1), (1 << w) - 1}
        for c in (1, dense - 1, dense, dense + 1, w // 4, w // 2):
            if 1 <= c <= w:
                masks.add(sum(1 << b for b in rng.sample(range(w - 1), c - 1)) | 1 << (w - 1))
        for x in masks:
            want = [b for b in range(w) if x >> b & 1]
            got = scheme._mask_rows(x)
            assert got == want, (w, x)
            # Callers sort the list in place, so each call makes a new one.
            got.reverse()
            assert scheme._mask_rows(x) == want


def reference_format_scheme(M, comment=None):
    """format_scheme as it was: each row's digits joined by spaces, one line at a time."""
    out = [f"# {line}".rstrip() for line in (comment or "").splitlines()]
    out.append(f"{M.n} {M.m}")
    out.extend(" ".join(str(v) for v in row) for row in M.rows)
    return "\n".join(out) + "\n"


def test_format_scheme_equals_the_row_join_on_every_shape():
    rng = random.Random(70)
    shapes = [(1, 1), (1, 2), (1, 70), (2, 1), (70, 1)]
    shapes += [(rng.randint(1, 70), rng.randint(1, 70)) for _ in range(30)]
    for n, m in shapes:
        for rows in (random_rows(rng, n, m), [(0,) * m] * n, [(1,) * m] * n):
            M = BinaryScheme(rows)
            for comment in (None, "", "one", "two\n lines ", "\n"):
                text = format_scheme(M, comment)
                assert text == reference_format_scheme(M, comment), (n, m, comment)


def reference_permute_rows(M, pi):
    if sorted(pi) != list(range(M.n)):
        raise ValueError("pi is not a permutation of the row indices")
    return BinaryScheme(M.rows[p] for p in pi)


def reference_reverse_stages(M):
    return BinaryScheme(tuple(reversed(row)) for row in M.rows)


def reference_binary_dual(M):
    return BinaryScheme(tuple(1 - v for v in row) for row in M.rows)


def reference_transpose(M):
    return BinaryScheme(zip(*M.rows))


@st.composite
def schemes_and_permutations(draw):
    """Schemes up to 64 x 64 whose entries mix 0/1, False/True and 0.0/1.0, with a row permutation."""
    n = draw(st.integers(1, 64))
    m = draw(st.integers(1, 64))
    masks = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=n, max_size=n))
    zeros = draw(st.lists(st.sampled_from([0, False, 0.0]), min_size=1, max_size=3))
    ones = draw(st.lists(st.sampled_from([1, True, 1.0]), min_size=1, max_size=3))

    def entry(i, j, bit):
        choices = ones if bit else zeros
        return choices[(i + j) % len(choices)]

    rows = [[entry(i, j, x >> j & 1) for j in range(m)] for i, x in enumerate(masks)]
    return BinaryScheme(rows), draw(st.permutations(range(n)))


def assert_same_scheme(got, want):
    assert got == want
    assert (got.n, got.m) == (want.n, want.m)
    assert got.rows == want.rows and got.col_masks == want.col_masks
    assert got.row_sums == want.row_sums and got.col_sums == want.col_sums


@settings(max_examples=150, deadline=None)
@given(schemes_and_permutations())
@example((BinaryScheme([[1]]), [0]))
@example((BinaryScheme([[True, 0, 1.0, False, 0.0]]), [0]))
@example((BinaryScheme([[1.0], [False], [True], [0]]), [3, 1, 0, 2]))
@example((BinaryScheme([[1] * 64] * 64), list(range(63, -1, -1))))
def test_transforms_equal_the_row_references(case):
    M, pi = case
    assert_same_scheme(permute_rows(M, pi), reference_permute_rows(M, pi))
    assert_same_scheme(reverse_stages(M), reference_reverse_stages(M))
    assert_same_scheme(binary_dual(M), reference_binary_dual(M))
    assert_same_scheme(transpose(M), reference_transpose(M))


def slot_is_empty(M, name):
    try:
        BinaryScheme.__dict__[name].__get__(M, BinaryScheme)
    except AttributeError:
        return True
    return False


@pytest.mark.parametrize(
    "text, reason",
    [
        (format_scheme(cyclic_matrix(64, 31)), "optimal"),
        # split_riders_swapped.mat: the word after column 3 is bbbaaa.
        ("6 6\n" + "1 1 0 1 0 0\n" * 3 + "0 0 1 0 1 1\n" * 3, "non-dyck"),
        ("2 2\n1 1\n1 0\n", "not-uniform"),
    ],
)
def test_deciding_a_parsed_scheme_builds_no_row_masks(text, reason):
    # Both parsers, the one-pass reader and the line parser (which takes
    # the doubled spaces), read a body into column masks and row sums,
    # and decide_optimal reads nothing else, in either tie order.
    for body in (text, text.replace(" ", "  ")):
        M = parse_scheme(body)
        assert slot_is_empty(M, "masks")
        assert decide_optimal(M).reason == reason
        decide_optimal(M, TieOrder.TAKE_FIRST)
        assert slot_is_empty(M, "masks") and slot_is_empty(M, "rows")


def test_no_layer_builds_the_rows_view(fixtures_dir):
    # Every layer, the greedy executor too, reads masks, so on schemes
    # built from masks none of them fills the rows slot.
    text = format_scheme(transpose_cyclic_matrix(11, 7))
    M = parse_scheme(text)
    swapped = parse_scheme((fixtures_dir / "split_riders_swapped.mat").read_text())
    made = [M, swapped]
    assert decide_optimal(M).optimal and not decide_optimal(swapped).optimal
    for order in TieOrder:
        for b in range(M.m - 1):
            canonical_word(M, b, order)
    P = build_assignment_plan(M)
    assert verify_plan(M, P).valid
    assert verify_plan(binary_dual(M), complementary_plan(M, P)).valid
    assert len(bicycle_itineraries(M, P)) == 7
    reduced, removed = reduce_scheme(M)
    assert removed == count_excess_handovers(M) == 12
    assert count_rides(M).total_rides == 47
    made += [
        reduced,
        binary_dual(M),
        permute_rows(M, range(M.n - 1, -1, -1)),
        reverse_stages(M),
        transpose(M),
        cyclic_matrix(7, 3),
        circulant_matrix(8, 3),
        block_compose(6, 4, 2, default_block_cells(6, 4, 2)),
    ]
    assert is_single_ride_cyclic(made[-3])
    assert uniformity(made[-1]).is_uniform
    assert format_scheme(M) == text
    assert is_executable_without_stall(M) and not is_executable_without_stall(swapped)
    assert not simulate(M).stall_events
    assert not simulate(M, policy="plan", plan=P).stall_events
    assert first_stall_ride_index(M) is None
    assert first_stall_ride_index(swapped) is not None
    for S in made:
        assert slot_is_empty(S, "rows"), S
