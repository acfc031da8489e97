import argparse
import hashlib
import io
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bikerelay import (
    BinaryScheme,
    SpeedModel,
    TieOrder,
    canonical_word,
    cross_validate,
    cyclic_matrix,
    enumerate_uniform,
    format_scheme,
    is_executable_without_stall,
    parse_scheme,
)
from bikerelay import cli, oracle
from bikerelay.cli import build_parser, run
from bikerelay.oracle import DEFAULT_SPEED_RATIOS


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_gen_writes_matrix_to_stdout():
    code, out, err = invoke("gen", "--kind", "cyclic", "--n", "4", "--k", "2")
    assert code == 0 and err == ""
    M = parse_scheme(out)
    assert (M.n, M.m) == (4, 4) and set(M.row_sums) == {2}


def test_gen_to_file_then_check(tmp_path):
    for kind in ("transpose-cyclic", "circulant"):
        target = tmp_path / f"{kind}.mat"
        code, out, _ = invoke("gen", "--kind", kind, "--n", "7", "--k", "3", "-o", str(target))
        assert code == 0
        assert f"file: {target}" in out
        code, out, _ = invoke("check", str(target))
        assert code == 0, kind
        assert "optimal: true" in out


def test_check_reads_stdin(monkeypatch, fixtures_dir):
    text = (fixtures_dir / "split_riders.mat").read_text()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = invoke("check", "-")
    assert code == 0 and "optimal: true" in out


@pytest.mark.parametrize(
    "data, code",
    [(b"# caf\xe9\n2 2\n1 0\n0 1\n", 2), ("# caf\u00e9\n2 2\n1 0\n0 1\n".encode(), 0)],
)
def test_stdin_and_file_read_the_same_bytes_alike(monkeypatch, tmp_path, data, code):
    # The interpreter's stdin decodes with surrogateescape in UTF-8 mode
    # or the POSIX locale; check must still read it as it reads a file.
    src = tmp_path / "cafe.mat"
    src.write_bytes(data)
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr(sys, "stdin", stdin)
    assert invoke("check", "-") == invoke("check", str(src))
    procs = [
        subprocess.run(
            [sys.executable, "-X", "utf8", "-m", "bikerelay.cli", "check", path],
            input=data,
            capture_output=True,
        )
        for path in ("-", str(src))
    ]
    assert [(p.returncode, p.stdout, p.stderr) for p in procs] == [
        (procs[1].returncode, procs[1].stdout, procs[1].stderr)
    ] * 2
    assert procs[0].returncode == code
    if code == 0:
        assert b"optimal: true" in procs[0].stdout
    else:
        assert procs[0].stderr == (
            b"error: 'utf-8' codec can't decode byte 0xe9 in position 5: "
            b"invalid continuation byte\n"
        )


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_stdin_reads_line_ends_as_a_file_does(monkeypatch, tmp_path, newline):
    # A file is read with universal newlines; stdin must be too, so the
    # text reaches parse_scheme (and its one-pass reader) without "\r".
    text = format_scheme(cyclic_matrix(64, 31), comment="cyclic n=64 k=31")
    data = text.replace("\n", newline).encode()
    src = tmp_path / "cyclic.mat"
    src.write_bytes(data)
    handed = []
    parse = cli.parse_scheme
    monkeypatch.setattr(cli, "parse_scheme", lambda t: handed.append(t) or parse(t))
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    assert invoke("check", "-", "--porcelain") == invoke("check", str(src), "--porcelain")
    assert handed == [text, text]
    procs = [
        subprocess.run(
            [sys.executable, "-m", "bikerelay.cli", "check", path, "--porcelain"],
            input=data,
            capture_output=True,
        )
        for path in ("-", str(src))
    ]
    assert procs[0].returncode == procs[1].returncode == 0
    assert procs[0].stdout == procs[1].stdout
    assert b"optimal: true" in procs[0].stdout


def test_check_non_optimal_reports_boundary(fixtures_dir):
    code, out, _ = invoke("check", str(fixtures_dir / "split_riders_swapped.mat"))
    assert code == 1
    assert "optimal: false" in out
    assert "failing_boundary: 3" in out
    assert "failing_boundary_index: 2" in out
    assert "failing_word: bbbaaa" in out


def test_check_witness_lists_word_rows(fixtures_dir):
    code, out, _ = invoke("check", str(fixtures_dir / "split_riders_swapped.mat"), "--witness")
    assert code == 1
    # Word letters run bbbaaa; rows follow the word order, takers first here.
    assert "failing_rows: 0 1 2 3 4 5" in out


def test_check_witness_rows_equal_the_canonical_word(tmp_path):
    cyclic = cyclic_matrix(24, 8)
    for seed in (0, 2):
        cols = list(range(24))
        random.Random(seed).shuffle(cols)
        M = BinaryScheme([[row[c] for c in cols] for row in cyclic.rows])
        target = tmp_path / f"permuted_{seed}.mat"
        target.write_text(format_scheme(M))
        for flag, tie_order in (("drop-first", TieOrder.DROP_FIRST), ("take-first", TieOrder.TAKE_FIRST)):
            code, out, _ = invoke("check", str(target), "--witness", "--tie-order", flag, "--porcelain")
            assert code == 1
            lines = dict(line.split(": ", 1) for line in out.splitlines())
            w = canonical_word(M, int(lines["failing_boundary_index"]), tie_order)
            assert lines["failing_rows"] == " ".join(map(str, w.rows))
            assert lines["failing_word"] == w.letters


def test_check_witness_prints_plan_for_optimal(fixtures_dir):
    code, out, _ = invoke("check", str(fixtures_dir / "split_riders.mat"), "--witness")
    assert code == 0
    assert "plan_boundary_3: 0->3 1->4 2->5" in out


def test_check_tie_order(fixtures_dir):
    path = str(fixtures_dir / "tie_order_split.mat")
    code, out, _ = invoke("check", path, "--tie-order", "drop-first")
    assert code == 0
    code, out, _ = invoke("check", path, "--tie-order", "take-first")
    assert code == 1
    assert "failing_word: abbbaa" in out


def test_check_take_first_scans_the_outer_boundaries(fixtures_dir):
    # Drop-first never scans boundary index 1 here; take-first must,
    # since a tie there puts the taker first.
    path = str(fixtures_dir / "take_first_outer_tie.mat")
    assert invoke("check", path, "--porcelain")[0] == 0
    code, out, _ = invoke("check", path, "--tie-order", "take-first", "--porcelain")
    assert code == 1
    assert out.endswith("failing_boundary_index: 1\nfailing_word: ba\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--no-skip-rule"),
        ("check", "--tie-order", "thm37"),
        ("check", "--tie-order", "def33"),
        ("enum", "--n", "4", "--k", "2", "--force"),
    ],
)
def test_retired_options_are_usage_errors(fixtures_dir, argv):
    if argv[0] == "check":
        argv = (argv[0], str(fixtures_dir / "split_riders.mat"), *argv[1:])
    code, out, err = invoke(*argv)
    assert (code, out) == (2, "")
    assert "usage: bikerelay" in err


def test_porcelain_is_flat_and_stable(fixtures_dir):
    path = str(fixtures_dir / "split_riders.mat")
    code, out, _ = invoke("check", path, "--porcelain")
    assert code == 0
    assert out == "optimal: true\nreason: optimal\nk: 3\n"
    assert invoke("check", path, "--porcelain")[1] == out


def test_reduce_command(tmp_path):
    src = tmp_path / "t.mat"
    invoke("gen", "--kind", "transpose-cyclic", "--n", "11", "--k", "7", "-o", str(src))
    dst = tmp_path / "r.mat"
    code, out, _ = invoke("reduce", str(src), "-o", str(dst))
    assert code == 0
    assert "handovers_removed: 12" in out
    R = parse_scheme(dst.read_text())
    assert R.row_sums == parse_scheme(src.read_text()).row_sums
    # The human table lists the reduced rows as the file does.
    table = out.split("\n\n", 1)[1].splitlines()
    assert table == dst.read_text().splitlines()[2:]


def test_stats_command(fixtures_dir):
    code, out, _ = invoke("stats", str(fixtures_dir / "handover_free_11x7.mat"), "--porcelain")
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["n"] == "11" and lines["m"] == "11"
    assert lines["total_rides"] == "35"
    assert lines["per_traveller"] == "3 3 3 3 3 4 3 3 3 4 3"
    assert lines["excess_handovers"] == "0"
    assert "per_bicycle_mounts" not in lines


def test_stats_with_plan(fixtures_dir):
    code, out, _ = invoke("stats", str(fixtures_dir / "split_riders.mat"), "--plan")
    assert code == 0
    assert "per_bicycle_mounts: 2 2 2" in out


def test_stats_plan_on_non_optimal_fails(fixtures_dir):
    code, _, err = invoke("stats", str(fixtures_dir / "split_riders_swapped.mat"), "--plan")
    assert code == 2
    assert "error:" in err


def test_sim_command(tmp_path, fixtures_dir):
    trace = tmp_path / "t.csv"
    code, out, _ = invoke(
        "sim",
        str(fixtures_dir / "split_riders_swapped.mat"),
        "--walk", "1/1",
        "--cycle", "2/1",
        "--trace", str(trace),
    )
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["makespan"] == "5/1"
    assert lines["stall_free"] == "false"
    assert lines["stalls"] == "3"
    assert lines["first_stall_ride"] == "3"
    text = trace.read_text()
    assert text.startswith("time,traveller,post,event,bike")


def test_sim_orders_stalls_by_time(fixtures_dir):
    # The earliest stall is at post 6 on ride 6; the stall at the
    # lowest post (post 4) is on ride 3.
    path = str(fixtures_dir / "late_first_stall.mat")
    code, out, _ = invoke("sim", path, "--cycle", "10", "--porcelain")
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["first_stall_ride"] == "6"


def test_sim_trace_equals_the_golden_file(tmp_path, fixtures_dir):
    # The fixture holds 3 stalls and 27 handovers at ride ratio 10.
    trace = tmp_path / "t.csv"
    path = str(fixtures_dir / "late_first_stall.mat")
    code, _, _ = invoke("sim", path, "--cycle", "10", "--trace", str(trace))
    assert code == 0
    golden = fixtures_dir / "late_first_stall_cycle10.csv"
    assert trace.read_bytes() == golden.read_bytes()


def test_sim_plan_policy(fixtures_dir):
    code, out, _ = invoke("sim", str(fixtures_dir / "split_riders.mat"), "--policy", "plan")
    assert code == 0
    assert "makespan: 9/2" in out
    assert "stall_free: true" in out


def test_sim_rejects_bad_speeds(fixtures_dir):
    code, _, err = invoke("sim", str(fixtures_dir / "split_riders.mat"), "--walk", "3/1", "--cycle", "2/1")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("flag", ["--walk", "--cycle"])
@pytest.mark.parametrize("value", ["1/0", "x"])
def test_sim_bad_speed_text_is_a_usage_error(fixtures_dir, flag, value):
    code, out, err = invoke("sim", str(fixtures_dir / "split_riders.mat"), flag, value)
    assert code == 2 and out == ""
    assert err.startswith("usage: bikerelay sim")
    assert f"argument {flag}: invalid Fraction value: '{value}'" in err


def test_enum_command():
    code, out, _ = invoke("enum", "--n", "4", "--k", "2", "--porcelain")
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["total_uniform"] == "90"
    assert lines["optimal"] == "90"
    assert lines["nonoptimal"] == "0"


def test_enum_examples_are_rows_of_digits():
    code, out, _ = invoke("enum", "--n", "6", "--k", "3", "--max-examples", "2", "--porcelain")
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    report = enumerate_uniform(6, 3, max_examples=2)
    for idx, M in enumerate(report.minimal_nonoptimal_examples, start=1):
        assert lines[f"example_{idx}"] == ";".join("".join(map(str, row)) for row in M.rows)


def test_enum_cross_validate():
    code, out, _ = invoke("enum", "--n", "4", "--k", "2", "--cross-validate")
    assert code == 0
    assert "mismatches: 0" in out


@pytest.mark.parametrize("n", range(1, 6))
def test_enum_cross_validate_only_appends_its_two_keys(n):
    for k in range(n + 1):
        argv = ["enum", "--n", str(n), "--k", str(k), "--porcelain"]
        code, plain, _ = invoke(*argv)
        assert code == 0
        extra = "speed_ratios: 3/2 2/1 10/1\nmismatches: 0\n"
        assert invoke(*argv, "--cross-validate") == (0, plain + extra, ""), (n, k)


def test_cross_validation_reports_a_planted_mismatch(monkeypatch):
    # With every boundary word taken to be Dyck, the word verdict calls
    # every (6,3) matrix optimal, so the ones that stall are mismatches,
    # listed in labelled order with all three executions stalling.
    stalling = enumerate_uniform(6, 3, max_examples=9560).minimal_nonoptimal_examples
    monkeypatch.setattr(oracle, "_is_dyck_at", lambda *args: True)
    results = []

    def recorded(*args, **kwargs):
        results.append(cross_validate(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "cross_validate", recorded)
    code, out, _ = invoke("enum", "--n", "6", "--k", "3", "--cross-validate", "--porcelain")
    assert code == 0
    assert out.endswith("mismatches: 9560\n")
    [mismatches] = results
    assert [m.scheme for m in mismatches] == list(stalling)
    for m in mismatches:
        assert m.dyck_optimal is True and m.stall_free == (False, False, False)
        for ratio in DEFAULT_SPEED_RATIOS:
            assert not is_executable_without_stall(m.scheme, SpeedModel(1, ratio))


def test_enum_guard():
    # The census counts at any n; only --cross-validate lists matrices,
    # and it is refused beyond n = 7 whatever k is.
    code, out, err = invoke("enum", "--n", "9", "--k", "2", "--porcelain")
    assert code == 0 and err == ""
    assert out.startswith("n: 9\nk: 2\ntotal_uniform: 14398171200\n")
    for n, k in (("9", "2"), ("8", "1")):
        code, out, err = invoke("enum", "--n", n, "--k", k, "--cross-validate")
        assert (code, out) == (2, "") and "error: listing every matrix" in err
        assert "the limit is n=7" in err


def test_enum_negative_max_examples_is_a_usage_error():
    code, out, err = invoke("enum", "--n", "4", "--k", "2", "--max-examples", "-1")
    assert (code, out) == (2, "") and "error: max_examples" in err


def test_enum_refuses_negative_max_examples_before_cross_validating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("cross_validate ran")

    monkeypatch.setattr(cli, "cross_validate", refuse)
    argv = ["enum", "--n", "6", "--k", "3", "--cross-validate", "--max-examples", "-1"]
    code, out, err = invoke(*argv)
    assert (code, out) == (2, "") and "error: max_examples" in err


def test_det_command():
    code, out, _ = invoke("det", "--n", "6", "--k", "3", "--porcelain")
    assert code == 0
    assert out == "n: 6\nk: 3\ndet: 0\nabs_det: 0\n"
    code, out, _ = invoke("det", "--n", "5", "--k", "2", "--porcelain")
    assert "abs_det: 2" in out


def test_det_prints_the_elimination_determinant_up_to_n_40():
    # det is the closed form; its porcelain is byte for byte what the
    # elimination on the matrix prints, on every 1 <= n <= 40, 0 <= k <= n.
    everything = []
    for n in range(1, 41):
        for k in range(n + 1):
            value = oracle.determinant_exact(cyclic_matrix(n, k))
            code, out, err = invoke("det", "--n", str(n), "--k", str(k), "--porcelain")
            assert (code, err) == (0, "")
            assert out == f"n: {n}\nk: {k}\ndet: {value}\nabs_det: {abs(value)}\n", (n, k)
            everything.append(out)
    text = "".join(everything)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "84b64d547f5d8ab89c6f9198abe88b542bce4a5028c66ba875e6971b7c53d22e"
    )


def test_det_at_n_1024():
    # Checked modulo the primes 2**31 - 1 and 2**31 - 19 by elimination.
    code, out, _ = invoke("det", "--n", "1024", "--k", "511", "--porcelain")
    assert (code, out) == (0, "n: 1024\nk: 511\ndet: -511\nabs_det: 511\n")
    code, out, _ = invoke("det", "--n", "1024", "--k", "256", "--porcelain")
    assert (code, out) == (0, "n: 1024\nk: 256\ndet: 0\nabs_det: 0\n")


@pytest.mark.parametrize(
    "n, k, message",
    [
        (0, 0, "error: need at least one traveller, got n=0\n"),
        (5, -1, "error: k=-1 out of range 0..5\n"),
        (5, 6, "error: k=6 out of range 0..5\n"),
    ],
)
def test_det_refuses_what_cyclic_matrix_refuses(n, k, message):
    assert invoke("det", "--n", str(n), "--k", str(k)) == (2, "", message)


def test_missing_file_is_exit_2():
    code, _, err = invoke("check", "no-such-file.mat")
    assert code == 2 and "error:" in err


def test_malformed_matrix_is_exit_2(tmp_path):
    bad = tmp_path / "bad.mat"
    bad.write_text("2 2\n1 0\n1 2\n")
    code, _, err = invoke("check", str(bad))
    assert code == 2
    assert "line 3" in err


def test_unknown_kind_is_a_usage_error():
    code, _, err = invoke("gen", "--kind", "spiral", "--n", "4", "--k", "2")
    assert code == 2


def test_stray_r_flag_rejected():
    code, _, err = invoke("gen", "--kind", "cyclic", "--n", "4", "--k", "2", "--r", "2")
    assert code == 2
    assert "--r applies to the block kind only" in err


def test_gen_block_kind():
    code, out, _ = invoke("gen", "--kind", "block", "--n", "6", "--k", "4", "--r", "2")
    assert code == 0
    M = parse_scheme(out)
    assert (M.n, M.m) == (6, 6)


def test_console_entry_point(fixtures_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "bikerelay.cli", "check", str(fixtures_dir / "split_riders.mat")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "optimal: true" in proc.stdout


def test_gen_check_pipe_round_trip():
    gen = subprocess.run(
        [sys.executable, "-m", "bikerelay.cli", "gen", "--kind", "cyclic", "--n", "9", "--k", "4"],
        capture_output=True,
        text=True,
    )
    chk = subprocess.run(
        [sys.executable, "-m", "bikerelay.cli", "check", "-"],
        input=gen.stdout,
        capture_output=True,
        text=True,
    )
    assert chk.returncode == 0
    assert "optimal: true" in chk.stdout


def test_successive_runs_share_no_state(fixtures_dir):
    swapped = str(fixtures_dir / "split_riders_swapped.mat")
    assert "failing_rows" in invoke("check", swapped, "--witness")[1]
    code, out, _ = invoke("check", swapped)
    assert code == 1 and "failing_word: bbbaaa" in out
    assert "failing_rows" not in out

    plain = str(fixtures_dir / "split_riders.mat")
    assert "policy: plan" in invoke("sim", plain, "--policy", "plan")[1]
    code, out, _ = invoke("sim", plain)
    assert code == 0 and "policy: greedy" in out

    argv = ["check", plain, "--witness", "--porcelain"]
    code, _, err = invoke("check", plain, "--tie-order", "sideways")
    assert code == 2 and "invalid choice" in err
    code, out, err = invoke(*argv)
    fresh = subprocess.run(
        [sys.executable, "-m", "bikerelay.cli", *argv], capture_output=True, text=True
    )
    assert (code, out, err) == (0, fresh.stdout, fresh.stderr)
    assert fresh.returncode == 0


def test_closed_output_pipe_is_not_an_error():
    # About 100 KB of examples, more than a pipe holds, so the writer
    # meets the closed read end whatever the timing.
    argv = ["enum", "--n", "6", "--k", "3", "--max-examples", "2000", "--porcelain"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "bikerelay.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.stdout.readline() == "n: 6\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, "")


@pytest.mark.parametrize("command", ["check", "sim", "stats", "reduce"])
def test_a_closed_stdin_is_refused_as_bad_input(monkeypatch, tmp_path, command):
    # An interpreter started with fd 0 closed has sys.stdin None.
    monkeypatch.setattr(sys, "stdin", None)
    argv = [command, "-"]
    if command == "reduce":
        argv += ["-o", str(tmp_path / "out.mat")]
    assert invoke(*argv) == (2, "", "error: cannot read stdin: it is closed\n")


def test_check_with_fd_0_closed_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "bikerelay.cli", "check", "-"],
        capture_output=True,
        text=True,
        preexec_fn=lambda: os.close(0),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2,
        "",
        "error: cannot read stdin: it is closed\n",
    )


@st.composite
def matrix_file_text(draw):
    """A small 0/1 matrix as file text, often with a wrong header or damaged text."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rows = draw(st.lists(st.text("01", min_size=m, max_size=m), min_size=n, max_size=n))
    headers = [f"{n} {m}", f"# note\n{n} {m}", f"{m} {n}", f"{n}", f"{n} {m} 1", "0 3", "x y", ""]
    text = "\n".join([draw(st.sampled_from(headers))] + [" ".join(row) for row in rows])
    text += draw(st.sampled_from(["", "\n"]))
    if draw(st.booleans()):
        junk = draw(st.text("0123456789 \t\n#x-", max_size=6))
        at = draw(st.integers(0, len(text)))
        text = text[:at] + junk + text[at + draw(st.integers(0, 3)) :]
    return text


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=matrix_file_text())
def test_file_commands_exit_0_1_or_2_on_any_text(tmp_path, text):
    src = tmp_path / "fuzz.mat"
    src.write_text(text)
    for argv in (
        ["check", str(src)],
        ["check", str(src), "--witness"],
        ["stats", str(src)],
        ["sim", str(src)],
        ["reduce", str(src), "-o", str(tmp_path / "reduced.mat")],
    ):
        code, _, _ = invoke(*argv)
        assert code in (0, 1, 2), (argv, text)


def test_build_parser_returns_a_new_parser():
    assert build_parser() is not build_parser()


def _readme_synopsis():
    """The README's `## Command line` synopsis as {command: options it names}."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1]
    block = section.split("```\n", 2)[1]
    synopsis = {}
    for line in block.splitlines():
        _, command, rest = line.split(None, 2)
        synopsis[command] = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", rest))
    return synopsis


def test_readme_synopsis_matches_the_parser():
    [subparsers] = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    synopsis = _readme_synopsis()
    assert set(synopsis) == set(subparsers.choices)
    for command, parser in subparsers.choices.items():
        named = synopsis[command]
        known = {s for a in parser._actions for s in a.option_strings}
        assert named <= known, (command, named - known)
        for action in parser._actions:
            flags = set(action.option_strings)
            if not flags or flags & {"-h", "--porcelain"}:
                continue
            assert flags & named, (command, action.option_strings)
