"""Binary scheme matrices for the shared-bicycle relay problem.

A journey of m unit stages is travelled by n people sharing k bicycles.
A scheme assigns each traveller, for each stage, either walking or
riding; it is stored as an n x m 0/1 matrix where entry (i, j) = 1
means traveller i rides stage j.  Rows are travellers, columns are
stages, and "boundary b" refers to the staging post between columns b
and b+1 (0-based everywhere).

A scheme is stored as one Python int per row, its row mask: bit j of
masks[i] is entry (i, j), or per column: bit i of col_masks[j] is entry
(i, j).  The other masks, the row tuples and the line sums are views
derived on first use and kept from then on.  The rows view holds one
tuple per distinct mask: equal rows share it.  A parsed scheme holds its
column masks and row sums only, so its row masks are a view too, built
only by what reads them.  Every switch between rows and columns goes
through one byte-packed transpose: each row is first read as an int
with entry j in byte j (straight from the file's ASCII digits, or from
a mask's binary digits), eight rows are ORed into each byte, and each
column is every m-th byte of that n*m/8-byte buffer.  A ride count up to
a boundary is a masked bit count, and the optimality decision works on
whole columns at once, so no per-entry Python loop is needed to parse or
decide a scheme.

This module holds the matrix data model (validation, cached views), the
text file format, and the structural transforms used by the rest of the
package: row permutation, stage reversal, the binary dual (bit flip),
and transposition.  The transforms permute, bit-reverse or flip the
row masks, or swap them with the column masks, so none of them builds
the rows view.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate, compress, count
from typing import Iterable, Sequence

# Row entries as bytes to the characters '0' and '1', and back.
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")
_set = object.__setattr__
# Where str.splitlines ends a line, and the end of the text.
_LINE_END = re.compile("\r\n|[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]|\\Z")


class SchemeFormatError(ValueError):
    """Raised when matrix file text is malformed; carries a line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class BinaryScheme:
    """An immutable n x m 0/1 matrix stored as row or column bitmasks.

    Attributes:
        masks: tuple of n ints; bit j of masks[i] is entry (i, j).
        n: number of travellers (rows).
        m: number of stages (columns).
        rows: tuple of n row tuples, each of m ints in {0, 1}.
        col_masks: tuple of m ints; bit i of col_masks[j] is entry (i, j).
        row_sums: per-traveller count of ridden stages.
        col_sums: per-stage count of riders.

    rows, col_masks, row_sums and col_sums are views: each is computed
    from masks the first time it is read and stored in its slot, so
    later reads are plain slot reads.  A derived rows view holds one
    tuple per distinct mask, shared by the rows equal to it.  A scheme
    built from rows keeps them as its rows view.  A parsed scheme holds
    col_masks and row_sums, and masks is then a view as well, the
    transpose of col_masks.
    """

    __slots__ = ("masks", "n", "m", "rows", "col_masks", "row_sums", "col_sums")

    def __init__(self, rows: Iterable[Sequence[int]]):
        tup = tuple(tuple(r) for r in rows)
        if not tup:
            raise ValueError("a scheme needs at least one traveller")
        m = len(tup[0])
        if m == 0:
            raise ValueError("a scheme needs at least one stage")
        masks = []
        for i, row in enumerate(tup):
            if len(row) != m:
                raise ValueError(f"row {i} has {len(row)} entries, expected {m}")
            masks.append(_row_mask(i, row))
        _set(self, "masks", tuple(masks))
        _set(self, "n", len(tup))
        _set(self, "m", m)
        _set(self, "rows", tup)

    @classmethod
    def _from_masks(
        cls, masks: tuple[int, ...], m: int, col_masks: tuple[int, ...] | None = None
    ) -> "BinaryScheme":
        """A scheme from its row masks, without validation.

        The caller guarantees that the masks fit in m bits.  Only
        transpose passes col_masks, the same matrix's columns: its
        input's two mask views are its own, swapped.  Without it the
        view is derived on first read, like the others.
        """
        self = object.__new__(cls)
        _set(self, "masks", masks)
        _set(self, "n", len(masks))
        _set(self, "m", m)
        if col_masks is not None:
            _set(self, "col_masks", col_masks)
        return self

    @classmethod
    def _from_columns(cls, col_masks: tuple[int, ...], row_sums: tuple[int, ...]) -> "BinaryScheme":
        """A scheme from its column masks and row sums, without validation; see _from_masks."""
        self = object.__new__(cls)
        _set(self, "col_masks", col_masks)
        _set(self, "row_sums", row_sums)
        _set(self, "n", len(row_sums))
        _set(self, "m", len(col_masks))
        return self

    def __getattr__(self, name):
        # Reached only while a view's slot is still empty.
        if name == "masks":
            value = _columns_of(self.col_masks, self.n)
        elif name == "rows":
            value = _rows_of(self.masks, self.m)
        elif name == "col_masks":
            value = _columns_of(self.masks, self.m)
        elif name == "row_sums":
            value = tuple(map(int.bit_count, self.masks))
        elif name == "col_sums":
            value = tuple(map(int.bit_count, self.col_masks))
        else:
            raise AttributeError(f"'BinaryScheme' object has no attribute {name!r}")
        _set(self, name, value)
        return value

    def __setattr__(self, name, value):
        raise AttributeError("BinaryScheme is immutable")

    def __eq__(self, other):
        # m takes part: rows (1, 0) and (1, 0, 0) have the same mask.
        return (
            isinstance(other, BinaryScheme)
            and self.m == other.m
            and self.masks == other.masks
        )

    def __hash__(self):
        return hash((self.m, self.masks))

    def __repr__(self):
        return f"BinaryScheme({self.n}x{self.m})"

    @property
    def is_square(self) -> bool:
        return self.n == self.m


def _row_mask(i: int, row: tuple) -> int:
    """Validate row i's entries and pack them into a mask, bit j = entry j.

    A row of int entries is read as bytes once: deleting the bytes 0
    and 1 must leave nothing, and the same bytes, reversed and written
    as digits, are the mask.  Any other row takes the loop below.
    """
    try:
        raw = bytes(row)
    except (TypeError, ValueError):  # an entry that is no int, or no byte
        raw = None
    if raw is None or raw.translate(None, b"\x00\x01"):
        # Equality, not the bytes, decides what counts as 0 or 1.
        for j, v in enumerate(row):
            if v not in (0, 1):
                raise ValueError(f"entry ({i},{j}) is {v!r}, expected 0 or 1")
        raw = bytes(v == 1 for v in row)  # entries equal to 0 or 1, such as 1.0
    return int(raw[::-1].translate(_TO_DIGITS), 2)


def _mask_rows(x: int) -> list[int]:
    """The set bits of x, lowest first: the rows a column mask holds.

    A mask with more than one bit set in eight is listed in one pass
    over its binary digits; a sparser one bit by bit, each step costing
    a pass over x.  Either way the list is new, for callers to sort.
    """
    if x.bit_count() << 3 > x.bit_length():
        return list(compress(count(), format(x, "b")[::-1].encode().translate(_FROM_DIGITS)))
    rows = []
    while x:
        low = x & -x
        rows.append(low.bit_length() - 1)
        x ^= low
    return rows


def _digit_rows(masks: tuple[int, ...], m: int) -> list[str]:
    """Each row as m characters '0' or '1', stage 0 first; equal rows share one string."""
    fmt = f"0{m}b"
    return _per_distinct(masks, lambda x: format(x, fmt)[::-1])


def _rows_of(masks: tuple[int, ...], m: int) -> tuple[tuple[int, ...], ...]:
    """The rows view: one tuple per distinct mask, shared by the rows that hold it."""
    fmt = f"0{m}b"
    return tuple(
        _per_distinct(masks, lambda x: tuple(format(x, fmt)[::-1].encode().translate(_FROM_DIGITS)))
    )


def _per_distinct(masks: tuple[int, ...], f) -> list:
    """[f(x) for x in masks], with f called once per distinct mask."""
    return list(map({x: f(x) for x in set(masks)}.__getitem__, masks))


def _columns_of(masks: tuple[int, ...], m: int) -> tuple[int, ...]:
    # A mask in m binary digits, read as bytes highest first, puts entry j in byte j.
    fmt = f"0{m}b"
    ones = int.from_bytes(b"\x01" * m, "little")
    return _packed_columns(
        [int.from_bytes(format(x, fmt).encode(), "big") & ones for x in masks], m
    )


def _packed_columns(rows: list[int], m: int) -> tuple[int, ...]:
    """Column masks of the n x m matrix whose row i holds entry (i, j) in bit 8j of rows[i].

    Eight rows make one group: row 8g+t is shifted left by t and ORed
    in, so bit t of byte j of group g is entry (8g+t, j).  The groups,
    written m bytes each and joined, put column j's bytes every m-th
    from byte j, and column j is that slice read as a little-endian int.
    """
    groups = []
    for g in range(0, len(rows), 8):
        acc = 0
        for t, x in enumerate(rows[g : g + 8]):
            acc |= x << t
        groups.append(acc.to_bytes(m, "little"))
    packed = b"".join(groups)
    return tuple(int.from_bytes(packed[j::m], "little") for j in range(m))


def _from_digits(digits: bytes, n: int, m: int) -> BinaryScheme:
    """The n x m scheme whose entries, row after row, are the ASCII digits 0 and 1 of digits."""
    # A row's digits read as one int put entry j in byte j; '0' and '1'
    # differ only in the low bit, so masking each byte with 1 leaves the entry.
    ones = int.from_bytes(b"\x01" * m, "little")
    rows = [int.from_bytes(digits[i : i + m], "little") & ones for i in range(0, n * m, m)]
    return BinaryScheme._from_columns(_packed_columns(rows, m), tuple(map(int.bit_count, rows)))


@dataclass(frozen=True)
class UniformityReport:
    """Whether all column sums equal some k and all row sums equal some l.

    For a uniform matrix l*n = k*m (both count the 1-entries); square
    uniform matrices have l = k.
    """

    is_uniform: bool
    k: int | None  # common column sum (bicycles) when uniform
    l: int | None  # common row sum (rides per traveller) when uniform


@dataclass(frozen=True)
class PrefixSums:
    """Cumulative ride counts: table[i][t] = #rides of traveller i among columns 0..t-1.

    table[i][0] == 0 and table[i][m] == row_sums[i].
    """

    table: tuple[tuple[int, ...], ...]


def parse_scheme(text: str) -> BinaryScheme:
    """Parse matrix file text into a BinaryScheme.

    Format: optional comment lines starting with '#'; the first
    non-comment line is '<rows> <cols>'; then that many rows of
    0/1 tokens separated by any whitespace.  Trailing newline optional.
    Lines end where str.splitlines ends them.  A body in format_scheme's
    exact shape is read in one pass; any other body line by line, with
    the same result.

    Raises:
        SchemeFormatError: malformed header, non-binary entry, or
            ragged row, reported with its 1-based line number.
    """
    start = 0
    line = 1
    while True:
        brk = _LINE_END.search(text, start)
        header = text[start : brk.start()].strip()
        if header and not header.startswith("#"):
            break
        if brk.end() == len(text):
            raise SchemeFormatError(len(text.splitlines()) or 1, "missing header line '<rows> <cols>'")
        start = brk.end()
        line += 1

    parts = header.split()
    if len(parts) != 2:
        raise SchemeFormatError(line, f"header must be '<rows> <cols>', got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise SchemeFormatError(line, f"header must be two integers, got {header!r}") from None
    if n < 1 or m < 1:
        raise SchemeFormatError(line, f"dimensions must be positive, got {n}x{m}")

    body = brk.end()
    M = _read_body(text, body, n, m)
    if M is not None:
        return M
    lines = text[body:].splitlines()
    digits: list[str] = []
    for idx, raw in enumerate(lines, line + 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if len(digits) == n:
            raise SchemeFormatError(idx, "trailing data after last row")
        # Only counts of the line itself are compared with m, so a huge
        # header m allocates nothing.
        tokens = stripped.split()
        if len(tokens) != m:
            raise SchemeFormatError(idx, f"expected {m} entries, got {len(tokens)}")
        bits = "".join(tokens)
        # m tokens joined into m digits 0 or 1 means every token is "0" or "1".
        if len(bits) != m or bits.count("0") + bits.count("1") != m:
            bad = next(tok for tok in tokens if tok not in ("0", "1"))
            raise SchemeFormatError(idx, f"entry {bad!r} not binary")
        digits.append(bits)
    if len(digits) != n:
        raise SchemeFormatError(line + len(lines), f"expected {n} rows, got {len(digits)}")
    return _from_digits("".join(digits).encode(), n, m)


def _read_body(text: str, body: int, n: int, m: int) -> BinaryScheme | None:
    """Read text[body:] in one pass if it is n rows as format_scheme writes them, else None.

    Such a row is m digits 0 or 1 with one " " between them and "\n"
    after the last.  Any other body, well formed or not, is left to the
    line parser, so every SchemeFormatError comes from there.  The
    digits, every other character, are checked to be ASCII '0' and '1'
    on their bytes, and each row's m bytes are read as one int, entry j
    in byte j, for the byte-packed transpose.
    """
    # The length is checked first, so an absurd header allocates nothing.
    if len(text) - body != 2 * n * m or text[body + 1 :: 2] != (" " * (m - 1) + "\n") * n:
        return None
    digits = text[body::2]
    if not digits.isascii():
        return None
    raw = digits.encode("ascii")
    if raw.translate(None, b"01"):
        return None
    return _from_digits(raw, n, m)


def format_scheme(M: BinaryScheme, comment: str | None = None) -> str:
    """Render a scheme in the matrix file format (bit-exact round trip)."""
    n, m = M.n, M.m
    out = []
    if comment:
        for line in comment.splitlines():
            out.append(f"# {line}".rstrip())
    out.append(f"{n} {m}\n")
    # Each digit of the body is followed by a space, or by a newline after
    # a row's last one: the digits fill the even bytes, the separators the odd.
    body = bytearray(2 * n * m)
    body[0::2] = "".join(_digit_rows(M.masks, m)).encode()
    body[1::2] = (b" " * (m - 1) + b"\n") * n
    return "\n".join(out) + body.decode()


def uniformity(M: BinaryScheme) -> UniformityReport:
    """Report whether every column sums to one constant k and every row to one constant l."""
    ks = set(map(int.bit_count, M.col_masks))
    ls = set(M.row_sums)
    if len(ks) == 1 and len(ls) == 1:
        return UniformityReport(True, ks.pop(), ls.pop())
    return UniformityReport(False, None, None)


def prefix_sums(M: BinaryScheme) -> PrefixSums:
    """Cumulative ride-count table; see PrefixSums."""
    return PrefixSums(tuple(tuple(accumulate(row, initial=0)) for row in M.rows))


def permute_rows(M: BinaryScheme, pi: Sequence[int]) -> BinaryScheme:
    """Row i of the result is row pi[i] of M.

    Raises:
        ValueError: pi is not a permutation of 0..n-1.
    """
    if sorted(pi) != list(range(M.n)):
        raise ValueError("pi is not a permutation of the row indices")
    return BinaryScheme._from_masks(tuple(M.masks[p] for p in pi), M.m)


def reverse_stages(M: BinaryScheme) -> BinaryScheme:
    """Reverse the column (stage) order."""
    # A row written stage 0 first is the reversed row's mask in binary.
    return BinaryScheme._from_masks(
        tuple(int(row, 2) for row in _digit_rows(M.masks, M.m)), M.m
    )


def binary_dual(M: BinaryScheme) -> BinaryScheme:
    """Flip every bit: walkers ride and riders walk.

    A k-uniform square input yields an (n-k)-uniform output.
    """
    full = (1 << M.m) - 1
    return BinaryScheme._from_masks(tuple(x ^ full for x in M.masks), M.m)


def transpose(M: BinaryScheme) -> BinaryScheme:
    """Standard transpose; result is m x n."""
    return BinaryScheme._from_masks(M.col_masks, M.n, M.masks)
