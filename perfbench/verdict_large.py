"""verdict-large: `bikerelay check FILE --porcelain` on large generated files.

Parsing, building BinaryScheme, uniformity, prefix sums and the
boundary-word scan do nearly all the work; there is no Fraction
arithmetic and no enumeration.  Full scans (optimal schemes) are mixed
with an early exit (a column-permuted scheme rejected at one of its
first boundaries) and a scheme rejected before the scan (not uniform),
so a gain on one path that costs another shows.

Expected verdicts come from greedy execution at set-up
(is_executable_without_stall) and from line sums the benchmark adds up
itself, never from decide_optimal.
"""

from __future__ import annotations

import os
import random

from bikerelay.generators import (
    block_compose,
    cyclic_matrix,
    default_block_cells,
    transpose_cyclic_matrix,
)
from bikerelay.optimality import decide_optimal
from bikerelay.scheme import (
    BinaryScheme,
    format_scheme,
    parse_scheme,
    prefix_sums,
    uniformity,
)
from bikerelay.simulate import is_executable_without_stall

from common import line_sums, porcelain, run_cli
from spans import NullTracer, median

SIZES = (256, 512, 1024)


def is_dyck_word(word):
    depth = 0
    for ch in word:
        depth += 1 if ch == "a" else -1
        if depth < 0:
            return False
    return depth == 0


class Case:
    """One scheme file and the porcelain output `check` must print for it."""

    def __init__(self, n, kind, path, text, scheme):
        self.n, self.kind, self.path, self.text, self.scheme = n, kind, path, text, scheme
        rows = scheme.rows
        self.m = len(rows[0])
        row_sums, col_sums = line_sums(rows)
        if len(set(row_sums)) == 1 and len(set(col_sums)) == 1:
            stall_free = is_executable_without_stall(scheme)
            self.reason = "optimal" if stall_free else "non-dyck"
            self.expect = {
                "optimal": "true" if stall_free else "false",
                "reason": self.reason,
                "k": str(col_sums[0]),
            }
        else:
            self.reason = "not-uniform"
            self.expect = {"optimal": "false", "reason": self.reason}
        self.code = 0 if self.reason == "optimal" else 1


class VerdictLarge:
    name = "verdict-large"
    min_ops = 100
    min_rounds = 1

    def __init__(self, seed, workdir, tracer):
        self.rng = random.Random(seed)
        self.pool = []
        for n in SIZES:
            for kind, scheme in self._schemes(n, tracer):
                text = format_scheme(scheme, comment=f"{kind} n={n}")
                path = os.path.join(workdir, f"{kind}-n{n}.mat")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                self.pool.append(Case(n, kind, path, text, scheme))
        # Warm-up: every kind once, at the smallest size.
        for case in self.pool:
            if case.n == SIZES[0]:
                self.run(case, NullTracer())

    def _schemes(self, n, tr):
        tr.begin(phase="setup", n=n)
        cyc = tr.call("generators.cyclic_matrix", cyclic_matrix, n, n // 2 - 1)
        yield "cyclic", cyc
        yield "transpose-cyclic", tr.call(
            "generators.transpose_cyclic_matrix", transpose_cyclic_matrix, n, n // 4
        )
        # Tall: n/4 row groups of cyclic(4, 1) cells, n/16 blocks -> n x n/4.
        k, r = n // 4, n // 16
        yield "tall-block", tr.call(
            "generators.block_compose", block_compose, n, k, r, default_block_cells(n, k, r)
        )
        # Wide: 2 row groups of cyclic(n/2, n/4 - 1) cells, 3 blocks -> n x 3n/2.
        k, r = n // 2 - 2, 3
        yield "wide-block", tr.call(
            "generators.block_compose", block_compose, n, k, r, default_block_cells(n, k, r)
        )
        base = tr.call("generators.cyclic_matrix", cyclic_matrix, n, n // 3)
        cols = list(range(n))
        self.rng.shuffle(cols)
        yield "permuted", BinaryScheme(tuple(row[c] for c in cols) for row in base.rows)
        rows = [list(row) for row in cyc.rows]
        rows[0][0] ^= 1
        yield "not-uniform", BinaryScheme(rows)

    def round(self):
        ops = list(self.pool)
        self.rng.shuffle(ops)
        return ops

    def attrs(self, case):
        return {"n": case.n, "kind": case.kind, "reason": case.reason}

    def run(self, case, tr):
        return tr.call("cli.run", run_cli, ["check", case.path, "--porcelain"])

    def probe(self, case, tr):
        """Traced run only: the layers behind `check`, called standalone on the same text."""
        M = tr.call("scheme.parse_scheme", parse_scheme, case.text)
        tr.call("scheme.BinaryScheme", BinaryScheme, M.rows)
        tr.call("scheme.uniformity", uniformity, M)
        tr.call("scheme.prefix_sums", prefix_sums, M)
        tr.call("optimality.decide_optimal", decide_optimal, M)

    def check(self, case, out):
        code, text = out
        got = porcelain(text)
        problems = []
        if code != case.code:
            problems.append(f"exit code {code}, expected {case.code}")
        for key, want in case.expect.items():
            if got.get(key) != want:
                problems.append(f"{key}: {got.get(key)!r}, expected {want!r}")
        if "k" not in case.expect and "k" in got:
            problems.append("k printed for a non-uniform scheme")
        if case.reason == "non-dyck":
            try:
                b = int(got["failing_boundary_index"])
                word = got["failing_word"]
                ok = got["failing_boundary"] == str(b + 1) and 0 <= b <= case.m - 2
            except (KeyError, ValueError):
                return problems + ["missing or malformed failing_* keys"]
            rows = case.scheme.rows
            movers = sum(1 for r in rows if r[b] != r[b + 1]) if ok else -1
            if not ok or len(word) != movers or word.count("a") != word.count("b"):
                problems.append(f"failing word {word!r} does not fit boundary {b}")
            elif is_dyck_word(word):
                problems.append(f"failing word {word!r} is a Dyck word")
        return problems

    def corrupt(self, case, out):
        code, text = out
        return code, text.replace("reason: ", "reason: x")

    def counts(self, case, out):
        got = porcelain(out[1])
        reason = got.get("reason")
        if reason == "optimal":
            scanned = case.m - 1
        elif reason == "non-dyck":
            scanned = int(got["failing_boundary_index"]) + 1
        else:
            scanned = 0
        return {
            "optimality.boundaries_scanned": scanned,
            "verdicts.decided": int(reason in ("optimal", "non-dyck")),
            "verdicts.nondyck": int(reason == "non-dyck"),
        }

    def matrices(self, case, out):
        return 1

    def layer_metrics(self, tr, counts):
        def ms(name, **where):
            return 1000 * median(tr.durations(name, **where))

        out = {}
        for n in SIZES:
            out[f"scheme.parse_scheme.ms.n{n}"] = (ms("scheme.parse_scheme", n=n), "ms")
        for name in ("BinaryScheme", "uniformity", "prefix_sums"):
            out[f"scheme.{name}.ms.n1024"] = (ms(f"scheme.{name}", n=1024), "ms")
        for n in SIZES:
            for reason, tag in (("optimal", "optimal"), ("non-dyck", "nondyck")):
                out[f"optimality.decide_optimal.ms.n{n}.{tag}"] = (
                    ms("optimality.decide_optimal", n=n, reason=reason),
                    "ms",
                )
        out["optimality.decide_optimal.growth"] = (
            out["optimality.decide_optimal.ms.n1024.optimal"][0]
            / out["optimality.decide_optimal.ms.n512.optimal"][0],
            "x",
        )
        out["optimality.boundaries_scanned"] = (
            counts["optimality.boundaries_scanned"],
            "count",
        )
        out["optimality.early_exit_frac"] = (
            counts["verdicts.nondyck"] / counts["verdicts.decided"],
            "frac",
        )
        out["cli.run.check.ms.n1024"] = (ms("cli.run", n=1024), "ms")
        run = tr.per_op("cli.run", n=1024)
        parse = tr.per_op("scheme.parse_scheme", n=1024)
        decide = tr.per_op("optimality.decide_optimal", n=1024)
        out["cli.self.check.ms"] = (
            1000 * median([run[op] - parse[op] - decide[op] for op in run]),
            "ms",
        )
        for name in ("cyclic_matrix", "transpose_cyclic_matrix"):
            out[f"generators.{name}.ms.n1024"] = (
                ms(f"generators.{name}", phase="setup", n=1024),
                "ms",
            )
        out["generators.block_compose.ms"] = (
            ms("generators.block_compose", phase="setup", n=1024),
            "ms",
        )
        return out
