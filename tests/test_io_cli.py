import os
import re
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridpair
from gridpair import (
    GridSpec,
    emit_instance,
    emit_routing,
    from_pairing,
    parse_instance,
    parse_routing,
    random_demand_multigraph,
    random_pairing,
    solve,
)
from gridpair.cli import EXIT_BROKEN_PIPE, EXIT_TABLE, main
from gridpair.errors import (
    BaseSolverExhaustedError,
    ClaimViolationError,
    FormatError,
    GridpairError,
    InfeasibleBudgetError,
)


def test_instance_roundtrip_simple():
    spec = GridSpec(18, 2)
    dg = from_pairing(spec, random_pairing(spec, Random(0)))
    assert parse_instance(emit_instance(dg)) == dg


@given(st.integers(0, 2**32 - 1), st.sampled_from([(4, 1), (3, 2), (4, 3)]))
@settings(max_examples=25, deadline=None)
def test_instance_roundtrip_property(seed, shape):
    t, n = shape
    spec = GridSpec(t, n)
    dg = from_pairing(spec, random_demand_multigraph(spec, 2, Random(seed)))
    assert parse_instance(emit_instance(dg)) == dg


def test_routing_roundtrip():
    spec = GridSpec(18, 2)
    dg = from_pairing(spec, random_pairing(spec, Random(1)))
    routing = solve(dg, seed=1)
    assert parse_routing(emit_routing(routing, spec), spec) == routing


def test_parse_instance_diagnostics():
    with pytest.raises(FormatError):
        parse_instance("nonsense\n")
    with pytest.raises(FormatError):
        parse_instance("GRID 3 2\nDEMANDS 2\n0 0 0 0 1\n")  # promises 2, has 1
    with pytest.raises(FormatError):
        parse_instance("GRID 3 2\nDEMANDS 1\n0 0 0 9 1\n")  # coordinate out of range
    with pytest.raises(FormatError):
        parse_instance("GRID 3 2\nDEMANDS 1\n0 0 0 x 1\n")  # not an integer
    with pytest.raises(FormatError, match=r"^line 3: expected integer coordinate, got '1a'$"):
        parse_instance("GRID 3 2\nDEMANDS 1\n0 0 1a 0 b\n")  # the first bad token is named
    with pytest.raises(FormatError):
        parse_instance("GRID 3 2\nDEMANDS 2\n0 0 0 0 1\n0 0 0 1 0\n")  # dup id


def test_parse_routing_diagnostics():
    spec = GridSpec(3, 2)
    with pytest.raises(FormatError):
        parse_routing("ROUTING 1\n0 2 0 0 | 0 1\n", spec)  # wrong declared length
    with pytest.raises(FormatError):
        parse_routing("ROUTING 1\n0 1 0 | 0 1\n", spec)  # vertex arity
    with pytest.raises(FormatError):
        parse_routing("ROUTING 2\n0 1 0 0 | 0 1\n0 1 0 0 | 0 2\n", spec)  # dup id
    # the first bad token is named; vertices are read in order, so a bad
    # integer before a short vertex is reported, and a short vertex before one
    with pytest.raises(FormatError, match=r"^line 2: expected integer coordinate, got 'x'$"):
        parse_routing("ROUTING 1\n0 2 0 0 | 0 x | 1 y\n", spec)
    with pytest.raises(FormatError, match=r"got 'x'$"):
        parse_routing("ROUTING 1\n0 2 0 x | 0 | 1 1\n", spec)
    with pytest.raises(FormatError, match=r"vertex needs 2 coordinates, got 1$"):
        parse_routing("ROUTING 1\n0 2 0 0 | 0 | 1 x\n", spec)
    # every coordinate is range-checked as the vertex is ranked
    outside = r"^line 3: vertex \(0, 3\): coordinate 3 outside \[0, 3\)$"
    with pytest.raises(FormatError, match=outside):
        parse_routing("ROUTING 2\n0 1 0 0 | 0 1\n1 1 0 2 | 0 3\n", spec)
    with pytest.raises(FormatError, match=r"^line 2: vertex \(-1, 0\): coordinate -1"):
        parse_routing("ROUTING 1\n0 1 -1 0 | 0 0\n", spec)


def test_gen_pairing_cli(tmp_path, capsys):
    out = tmp_path / "inst.txt"
    assert main(["gen", "18", "1", "--mode", "pairing", "--seed", "7", "-o", str(out)]) == 0
    dg = parse_instance(out.read_text())
    assert len(dg.edges) == 9
    covered = sorted(v for d in dg.edges for v in (d.u, d.v))
    assert covered == list(range(18))


def test_gen_multigraph_cli(tmp_path):
    out = tmp_path / "inst.txt"
    assert main(["gen", "18", "2", "--mode", "multigraph", "--q", "2", "--seed", "7", "-o", str(out)]) == 0
    dg = parse_instance(out.read_text())
    deg = dg.degrees()
    assert max(deg.values()) == 2


def test_gen_rejects_odd_pairing():
    assert main(["gen", "3", "1", "--mode", "pairing", "--seed", "7"]) == 2


def test_gen_rejects_infeasible_q():
    assert main(["gen", "18", "1", "--mode", "multigraph", "--q", "4", "--seed", "7"]) == 2
    assert main(["gen", "18", "1", "--mode", "multigraph", "--seed", "7"]) == 2


def test_route_verify_stats_happy_path(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    routed = tmp_path / "routing.txt"
    assert main(["gen", "18", "2", "--seed", "3", "-o", str(inst)]) == 0
    assert main(["route", str(inst), str(routed), "--seed", "5"]) == 0
    written = parse_routing(routed.read_text(), GridSpec(18, 2))
    assert len(written) == 162
    assert main(["verify", str(inst), str(routed)]) == 0
    assert main(["stats", str(inst), str(routed)]) == 0
    text = capsys.readouterr().out
    assert "4.317" in text  # t*n convention at t=18
    assert "4.077" in text


def test_route_exit_codes(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "inst.txt"
    out = tmp_path / "routing.txt"
    assert main(["gen", "12", "1", "--seed", "1", "-o", str(inst)]) == 0
    assert main(["route", str(inst), str(out)]) == 2  # floor(12/6)-1 = 1 < 2
    assert main(["route", str(inst), str(out), "--unchecked"]) == 0
    bad = tmp_path / "bad.txt"
    bad.write_text("GRID x\n")
    assert main(["route", str(bad), str(out)]) == 5
    assert main(["route", str(tmp_path / "missing.txt"), str(out)]) == 5
    capsys.readouterr()
    # grids above the size budget, and output paths that cannot be written
    for text in ("GRID 10000000000 1\nDEMANDS 1\n0 0 5\n", "GRID 3 10000\nDEMANDS 0\n"):
        bad.write_text(text)
        assert main(["route", str(bad), str(out)]) == 5
    bad.write_bytes(b"\xff\xfeGRID 12 1\n")  # not UTF-8
    assert main(["route", str(bad), str(out)]) == 5
    unwritable = str(tmp_path / "missing" / "out.txt")

    def unreachable_solve(*args, **kwargs):
        raise AssertionError("an unwritable output must fail before routing")

    with monkeypatch.context() as m:
        m.setattr("gridpair.cli.solve", unreachable_solve)
        assert main(["route", str(inst), unwritable, "--unchecked"]) == 5
        assert main(["route", str(inst), str(tmp_path), "--unchecked"]) == 5  # a directory
    assert main(["gen", "18", "1", "-o", unwritable]) == 5
    err = capsys.readouterr().err
    assert err.count("error: ") == 6
    assert f"cannot write {tmp_path}: it is a directory" in err
    assert "not UTF-8" in err
    assert "Traceback" not in err


def test_verify_and_stats_reject_non_utf8_files(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    routed = tmp_path / "routing.txt"
    assert main(["gen", "18", "1", "--seed", "1", "-o", str(inst)]) == 0
    assert main(["route", str(inst), str(routed)]) == 0
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe" + routed.read_bytes())
    capsys.readouterr()
    for command in ("verify", "stats"):
        # exit 1 would mean "violations found"; an unreadable file is a format error
        assert main([command, str(bad), str(routed)]) == 5
        assert main([command, str(inst), str(bad)]) == 5
    err = capsys.readouterr().err
    assert err.count("error: ") == 4
    assert err.count("not UTF-8") == 4
    assert "Traceback" not in err


def test_route_exit_3_when_instance_is_unroutable(tmp_path):
    # four parallel demands 0-1 on K_4 exceed vertex degree 3; even best
    # effort must fail honestly
    inst = tmp_path / "inst.txt"
    inst.write_text("GRID 4 1\nDEMANDS 4\n0 0 1\n1 0 1\n2 0 1\n3 0 1\n")
    out = tmp_path / "routing.txt"
    assert main(["route", str(inst), str(out), "--unchecked"]) == 3
    assert not out.exists()


def test_claim_violation_exits_4_without_traceback(tmp_path, monkeypatch, capsys):
    def broken_solve(*args, **kwargs):
        raise ClaimViolationError("i", "layer 0 reaches demand degree 3 > q=2")

    monkeypatch.setattr("gridpair.cli.solve", broken_solve)
    inst = tmp_path / "inst.txt"
    assert main(["gen", "18", "1", "--seed", "1", "-o", str(inst)]) == 0
    assert main(["route", str(inst), str(tmp_path / "routing.txt")]) == 4
    assert main(["bench", "18", "1", "--seeds", "1"]) == 4
    err = capsys.readouterr().err
    assert err.count("error: claim i: layer 0") == 2
    assert "Traceback" not in err


def test_verify_detects_tampered_endpoint(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    routed = tmp_path / "routing.txt"
    main(["gen", "18", "1", "--seed", "3", "-o", str(inst)])
    main(["route", str(inst), str(routed), "--seed", "5"])
    lines = routed.read_text().splitlines()
    head, length, rest = lines[1].split(" ", 2)
    verts = rest.split(" | ")
    victim = int(verts[-1])
    verts[-1] = str((victim + 1) % 18)
    lines[1] = f"{head} {length} " + " | ".join(verts)
    routed.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(inst), str(routed)]) == 1
    assert "ENDPOINT_MISMATCH" in capsys.readouterr().out


def test_out_of_range_routing_coordinate_is_a_format_error(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    routed = tmp_path / "routing.txt"
    main(["gen", "18", "2", "--seed", "3", "-o", str(inst)])
    main(["route", str(inst), str(routed), "--seed", "5"])
    lines = routed.read_text().splitlines()
    head, length, rest = lines[2].split(" ", 2)
    lines[2] = f"{head} {length} 18 0 | {rest.split(' | ', 1)[1]}"  # coordinate 18 on K_18^2
    routed.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    for command in ("verify", "stats"):
        assert main([command, str(inst), str(routed)]) == 5
    err = capsys.readouterr().err
    message = f"error: {routed}: line 3: vertex (18, 0): coordinate 18 outside [0, 18)"
    assert err.count(message) == 2
    assert "Traceback" not in err


def test_verify_detects_duplicated_trail_line(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    routed = tmp_path / "routing.txt"
    main(["gen", "18", "1", "--seed", "4", "-o", str(inst)])
    main(["route", str(inst), str(routed), "--seed", "5"])
    lines = routed.read_text().splitlines()
    # duplicate demand 0's trail onto demand 1's id: reuses every edge
    first = lines[1].split(" ", 1)[1]
    second_id = lines[2].split(" ", 1)[0]
    lines[2] = f"{second_id} {first}"
    routed.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(inst), str(routed)]) == 1
    out = capsys.readouterr().out
    assert "DUPLICATE_EDGE" in out


def test_verify_json_report(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    routed = tmp_path / "routing.txt"
    main(["gen", "18", "1", "--seed", "6", "-o", str(inst)])
    main(["route", str(inst), str(routed)])
    capsys.readouterr()
    assert main(["verify", str(inst), str(routed), "--json"]) == 0
    import json

    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["stats"]["edges_total"] == 153


# Every violation kind and a two-length histogram: the exact bytes of `verify --json`.
PINNED_REPORT = """\
{
  "ok": false,
  "stats": {
    "degree_ratio_exact": 1.261859507142915,
    "degree_ratio_tn": 1.8927892607143724,
    "edges_total": 18,
    "edges_used": 3,
    "length_histogram": {
      "1": 4,
      "2": 1
    },
    "max_trail_length": 2
  },
  "violations": [
    {
      "demand_ids": [
        2
      ],
      "detail": "no trail routed",
      "kind": "MISSING_DEMAND"
    },
    {
      "demand_ids": [
        5
      ],
      "detail": "trail without a demand",
      "kind": "EXTRA_TRAIL"
    },
    {
      "demand_ids": [
        3
      ],
      "detail": "trail ends ((2, 0), (1, 1)), demand joins ((2, 0), (2, 1))",
      "kind": "ENDPOINT_MISMATCH"
    },
    {
      "demand_ids": [
        3
      ],
      "detail": "step (2, 0) -> (1, 1)",
      "kind": "NOT_AN_EDGE"
    },
    {
      "demand_ids": [
        0,
        1,
        4
      ],
      "detail": "edge (0, 0) -- (0, 2) used 3 times",
      "kind": "DUPLICATE_EDGE"
    }
  ]
}
"""


def test_verify_json_report_bytes_are_pinned(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    routed = tmp_path / "routing.txt"
    inst.write_text("GRID 3 2\nDEMANDS 5\n0 0 0 0 2\n1 0 0 0 2\n2 1 1 2 2\n3 2 0 2 1\n4 0 2 0 0\n")
    routed.write_text(
        "ROUTING 5\n0 1 0 0 | 0 2\n1 1 0 0 | 0 2\n3 1 2 0 | 1 1\n4 1 0 2 | 0 0\n"
        "5 2 2 2 | 2 1 | 2 0\n"
    )
    assert main(["verify", str(inst), str(routed), "--json"]) == 1
    assert capsys.readouterr().out == PINNED_REPORT


def test_seed_env_fallback(tmp_path, monkeypatch):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    monkeypatch.setenv("GRIDPAIR_SEED", "42")
    assert main(["gen", "18", "1", "-o", str(a)]) == 0
    monkeypatch.delenv("GRIDPAIR_SEED")
    assert main(["gen", "18", "1", "--seed", "42", "-o", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_malformed_env_seed_is_a_clean_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GRIDPAIR_SEED", "not-a-number")
    assert main(["gen", "18", "1", "-o", str(tmp_path / "x.txt")]) == 5
    assert "GRIDPAIR_SEED" in capsys.readouterr().err


def test_bench_cli(capsys):
    assert main(["bench", "18", "1", "--seeds", "2", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "summary" in out
    assert re.search(r"verify ok in \d+\.\d ms", out)
    # peak RSS of the process in MB, on the summary line
    summary = out.splitlines()[-1]
    peak = re.search(r", peak RSS (\d+\.\d) MB$", summary)
    assert peak and 1 < float(peak.group(1)) < 100_000, summary


def test_bench_rejects_fewer_than_one_seed(capsys):
    for seeds in ("0", "-3"):
        assert main(["bench", "18", "2", "--seeds", seeds]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --seeds must be >= 1, got {seeds}\n"


def _one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: gridpair"), captured.err
    return lines[0]


def test_usage_error_malformed_argument_exits_5(capsys):
    assert main(["bench", "18", "x"]) == 5
    assert _one_error_line(capsys) == "error: gridpair bench: argument n: invalid int value: 'x'"


def test_usage_error_unknown_option_exits_5(tmp_path, capsys):
    inst, out = str(tmp_path / "inst.txt"), str(tmp_path / "out.txt")
    assert main(["route", inst, out, "--bogus"]) == 5
    # which parser (gridpair or gridpair route) reports it is left to argparse
    assert _one_error_line(capsys).endswith(": unrecognized arguments: --bogus")


def test_usage_error_missing_argument_exits_5(tmp_path, capsys):
    assert main(["route", str(tmp_path / "inst.txt")]) == 5
    assert _one_error_line(capsys) == (
        "error: gridpair route: the following arguments are required: output"
    )


def test_help_still_exits_0(capsys):
    for argv in (["--help"], ["route", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: gridpair") and captured.err == ""


def test_bench_multigraph_mode(capsys):
    assert main(["bench", "18", "1", "--seeds", "1", "--mode", "multigraph", "--q", "2"]) == 0
    assert "verify ok" in capsys.readouterr().out


def test_bench_rejects_bad_q_like_gen(capsys):
    assert main(["bench", "18", "2", "--mode", "multigraph", "--q", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --q must be even")
    assert "Traceback" not in err
    assert main(["bench", "18", "1", "--seeds", "1", "--mode", "multigraph", "--q", "4"]) == 2
    assert main(["bench", "3", "1", "--seeds", "1"]) == 2


def test_route_shorten_produces_simple_verified_trails(tmp_path):
    # plain route output is already made of paths; there is nothing to shorten
    inst = tmp_path / "inst.txt"
    routed = tmp_path / "routing.txt"
    main(["gen", "18", "2", "--seed", "9", "-o", str(inst)])
    assert main(["route", str(inst), str(routed), "--seed", "2"]) == 0
    assert main(["verify", str(inst), str(routed)]) == 0
    spec = GridSpec(18, 2)
    for did, tr in parse_routing(routed.read_text(), spec).items():
        assert len(set(tr.vertices)) == len(tr.vertices), f"demand {did} revisits a vertex"


def test_exit_table_covers_every_error_class():
    assert set(GridpairError.__subclasses__()) == set(EXIT_TABLE)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from gridpair import *", namespace)  # a stale __all__ entry raises here
    assert set(gridpair.__all__) <= namespace.keys()


@pytest.mark.parametrize(
    "error, code, message",
    [
        (InfeasibleBudgetError("no budget fits"), 2, "no budget fits"),
        (BaseSolverExhaustedError("greedy routing failed"), 3, "greedy routing failed"),
        (ClaimViolationError("i", "layer 0 reaches 3 > q=2"), 4,
         "claim i: layer 0 reaches 3 > q=2; this is a bug"),
    ],
)
@pytest.mark.parametrize("command", ["route", "bench"])
def test_exit_table_maps_solver_errors(
    tmp_path, monkeypatch, capsys, command, error, code, message
):
    def failing_solve(*args, **kwargs):
        raise error

    inst = tmp_path / "inst.txt"
    assert main(["gen", "18", "1", "--seed", "1", "-o", str(inst)]) == 0
    monkeypatch.setattr("gridpair.cli.solve", failing_solve)
    if command == "route":
        argv = ["route", str(inst), str(tmp_path / "routing.txt")]
    else:
        argv = ["bench", "18", "1", "--seeds", "1"]
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"  # one line, the same for route and bench
    assert "Traceback" not in err


def _verify_closing_stdout(inst: Path, routed: Path, *flags: str, lines: int) -> tuple[int, str]:
    """Run `python -m gridpair verify` whose reader closes stdout after `lines` lines.

    With lines=0 the read end is closed before the process starts, so its
    first write to stdout fails.
    """
    # the child process imports the same gridpair as this test run, and
    # buffers stdout as it does by default in a pipe
    src = str(Path(gridpair.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("PYTHONUNBUFFERED", None)
    argv = [sys.executable, "-m", "gridpair", "verify", str(inst), str(routed), *flags]
    read_end, write_end = os.pipe()
    with open(read_end, "rb") as reader:
        if lines == 0:
            reader.close()
        with subprocess.Popen(argv, stdout=write_end, stderr=subprocess.PIPE, env=env) as proc:
            os.close(write_end)
            for _ in range(lines):
                reader.readline()
            reader.close()
            err = proc.stderr.read().decode()
            return proc.wait(timeout=60), err


def test_closed_stdout_exits_quietly(tmp_path):
    inst = tmp_path / "inst.txt"
    routed = tmp_path / "routing.txt"
    assert main(["gen", "18", "2", "--seed", "3", "-o", str(inst)]) == 0
    assert main(["route", str(inst), str(routed)]) == 0
    assert _verify_closing_stdout(inst, routed, lines=0) == (EXIT_BROKEN_PIPE, "")
    for _ in range(4):  # a short report: the reader may leave before or after the write
        code, err = _verify_closing_stdout(inst, routed, lines=1)
        assert code in (0, EXIT_BROKEN_PIPE)
        assert "Traceback" not in err and "Exception ignored" not in err
    # 20,000 demands sharing one edge: a report far larger than a pipe holds
    m = 20_000
    inst.write_text(f"GRID 18 1\nDEMANDS {m}\n" + "".join(f"{i} 0 1\n" for i in range(m)))
    routed.write_text(f"ROUTING {m}\n" + "".join(f"{i} 1 0 | 1\n" for i in range(m)))
    assert _verify_closing_stdout(inst, routed, "--json", lines=1) == (EXIT_BROKEN_PIPE, "")


def test_instance_roundtrip_with_sparse_ids():
    spec = GridSpec(18, 1)
    from gridpair import DemandEdge, DemandGraph

    dg = DemandGraph(spec, (DemandEdge(7, 0, 1), DemandEdge(3, 2, 5)))
    assert parse_instance(emit_instance(dg)) == dg


def test_stats_rejects_unverified_routing(tmp_path):
    inst = tmp_path / "inst.txt"
    routed = tmp_path / "routing.txt"
    main(["gen", "18", "1", "--seed", "8", "-o", str(inst)])
    main(["route", str(inst), str(routed)])
    text = routed.read_text().splitlines()
    text.append(text[-1].replace(text[-1].split()[0], "99", 1))
    header = text[0].split()
    text[0] = f"{header[0]} {int(header[1]) + 1}"
    (tmp_path / "routing.txt").write_text("\n".join(text) + "\n")
    assert main(["stats", str(inst), str(routed)]) == 1
