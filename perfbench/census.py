"""census: exhaustive enumeration and cross-validation.

Each round runs `enum --n 6 --k 3` through cli.run (297,200 matrices),
and cross-validation of (5, 2) and (5, 3) both through the library
(cross_validate) and through the CLI's own copy
(`enum --cross-validate`).  The same scheme and optimality layers as
verdict-large do the work, but on 6 x 6 matrices the per-call constant
cost dominates, plus the integer-clock greedy scan.  An asymptotic
rewrite that raises per-call overhead shows up here and not there.

The expected totals are the known census sizes; the non-optimal
examples the CLI prints are re-checked by greedy execution.
random_uniform is not used: its running time is unbounded for larger
(n, k), so a benchmark built on it could hang.
"""

from __future__ import annotations

import random

from bikerelay.generators import cyclic_matrix
from bikerelay.optimality import decide_optimal
from bikerelay.oracle import cross_validate, enumerate_uniform
from bikerelay.scheme import BinaryScheme
from bikerelay.simulate import is_executable_without_stall

from common import line_sums, porcelain, run_cli
from spans import NullTracer, median

# (n, k) -> (uniform matrices, non-optimal ones)
CENSUS = {(6, 3): (297_200, 9_560), (5, 2): (2_040, 0), (5, 3): (2_040, 0)}
SAMPLE_SIZE = 200
# Each round runs the (6,3) enumeration once and every (5,k) call this
# many times: the (5,k) calls take about 2% as long, and without repeats
# a run of two rounds would time each of them only twice.
SMALL_REPEATS = 4


class Call:
    def __init__(self, kind, n, k):
        self.kind, self.n, self.k = kind, n, k
        self.total, self.nonoptimal = CENSUS[(n, k)]

    def argv(self):
        argv = ["enum", "--n", str(self.n), "--k", str(self.k), "--porcelain"]
        return argv + ["--cross-validate"] if self.kind == "cli-xval" else argv


def ryser_sample(seed, count, steps=20):
    """(6,3)-uniform matrices from a seeded walk of 2x2 interchanges on cyclic(6, 3)."""
    rng = random.Random(seed)
    rows = [list(r) for r in cyclic_matrix(6, 3).rows]
    sample = []
    while len(sample) < count:
        for _ in range(steps):
            i, j = rng.sample(range(6), 2)
            a, b = rng.sample(range(6), 2)
            if rows[i][a] and rows[j][b] and not rows[i][b] and not rows[j][a]:
                rows[i][a] = rows[j][b] = 0
                rows[i][b] = rows[j][a] = 1
        sample.append(tuple(tuple(r) for r in rows))
    return sample


class Census:
    name = "census"
    min_ops = 0
    # The (6,3) enumeration takes about 7 s; time it at least twice.
    min_rounds = 2

    def __init__(self, seed, workdir, tracer):
        self.rng = random.Random(seed)
        self.enum = Call("cli-enum", 6, 3)
        self.small = [Call(kind, 5, k) for kind in ("lib-xval", "cli-xval") for k in (2, 3)]
        self.sample = ryser_sample(seed, SAMPLE_SIZE)
        # Warm-up: the library and CLI paths on a census small enough to be cheap.
        warm = NullTracer()
        for call in (Call("lib-xval", 5, 2), Call("cli-xval", 5, 2)):
            self.run(call, warm)

    def round(self):
        ops = [self.enum] + self.small * SMALL_REPEATS
        self.rng.shuffle(ops)
        return ops

    def attrs(self, call):
        return {"kind": call.kind, "n": call.n, "k": call.k}

    def run(self, call, tr):
        if call.kind == "lib-xval":
            return tr.call("oracle.cross_validate", cross_validate, call.n, call.k)
        return tr.call("cli.run", run_cli, call.argv())

    def probe(self, call, tr):
        """Traced run only: per-matrix costs the round's calls hide."""
        if call.kind == "lib-xval":
            tr.call("oracle.enumerate_uniform", enumerate_uniform, call.n, call.k)
        elif call.kind == "cli-enum":
            for rows in self.sample:
                M = tr.call("scheme.BinaryScheme", BinaryScheme, rows)
                tr.call("optimality.decide_optimal", decide_optimal, M)
                tr.call("simulate.is_executable_without_stall", is_executable_without_stall, M)

    def check(self, call, out):
        if call.kind == "lib-xval":
            return [] if out == [] else [f"{len(out)} mismatches"]
        code, text = out
        got = porcelain(text)
        want = {
            "n": str(call.n),
            "k": str(call.k),
            "total_uniform": str(call.total),
            "optimal": str(call.total - call.nonoptimal),
            "nonoptimal": str(call.nonoptimal),
        }
        if call.kind == "cli-xval":
            want["mismatches"] = "0"
        problems = [f"exit code {code}"] if code else []
        problems += [
            f"{key}: {got.get(key)!r}, expected {value!r}"
            for key, value in want.items()
            if got.get(key) != value
        ]
        for key, bits in got.items():
            if key.startswith("example_"):
                rows = tuple(tuple(int(c) for c in row) for row in bits.split(";"))
                sums = line_sums(rows)
                if sums != ((call.k,) * call.n,) * 2 or is_executable_without_stall(
                    BinaryScheme(rows)
                ):
                    problems.append(f"{key} is not a stalling ({call.n},{call.k}) matrix")
        return problems

    def corrupt(self, call, out):
        if call.kind == "lib-xval":
            return ["forged mismatch"]
        code, text = out
        return code, text.replace("total_uniform: ", "total_uniform: 1")

    def counts(self, call, out):
        if call.kind == "lib-xval":
            # cross_validate visits the whole (n, k) census, which the CLI
            # runs of the same round report and check.
            return {"oracle.matrices": call.total}
        got = porcelain(out[1])
        return {
            "oracle.matrices": int(got["total_uniform"]),
            "oracle.nonoptimal": int(got["nonoptimal"]),
        }

    def matrices(self, call, out):
        return self.counts(call, out)["oracle.matrices"]

    def layer_metrics(self, tr, counts):
        out = {}
        for name, unit_name in (
            ("scheme.BinaryScheme", "scheme.BinaryScheme.us.n6"),
            ("optimality.decide_optimal", "optimality.decide_optimal.us.n6"),
            ("simulate.is_executable_without_stall", "simulate.is_executable_without_stall.us.n6"),
        ):
            out[unit_name] = (1e6 * median(tr.durations(name)), "us")
        total = {k: CENSUS[(5, k)][0] for k in (2, 3)}
        for name in ("oracle.enumerate_uniform", "oracle.cross_validate"):
            per_matrix = [
                d / total[k] for k in (2, 3) for d in tr.durations(name, k=k)
            ]
            out[f"{name}.us_per_matrix"] = (1e6 * median(per_matrix), "us")
        out["oracle.matrices"] = (counts["oracle.matrices"], "count")
        out["oracle.nonoptimal"] = (counts["oracle.nonoptimal"], "count")
        out["cli.run.enum.s"] = (median(tr.durations("cli.run", kind="cli-enum")), "s")
        # The CLI's own share of `enum --cross-validate`: its run minus the
        # library cross_validate on the same (n, k) in the same round.
        self_times = [
            cli - lib
            for k in (2, 3)
            for cli, lib in zip(
                tr.durations("cli.run", kind="cli-xval", k=k),
                tr.durations("oracle.cross_validate", k=k),
            )
        ]
        out["cli.self.enum.s"] = (median(self_times), "s")
        return out
