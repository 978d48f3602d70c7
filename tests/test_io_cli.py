import os
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from gridpair.cli import main
from gridpair.errors import ClaimViolationError, FormatError


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
    assert parse_routing(emit_routing(routing), spec) == routing


def test_parse_instance_diagnostics():
    with pytest.raises(FormatError):
        parse_instance("nonsense\n")
    with pytest.raises(FormatError):
        parse_instance("GRID 3 2\nDEMANDS 2\n0 0 0 0 1\n")  # promises 2, has 1
    with pytest.raises(FormatError):
        parse_instance("GRID 3 2\nDEMANDS 1\n0 0 0 9 1\n")  # coordinate out of range
    with pytest.raises(FormatError):
        parse_instance("GRID 3 2\nDEMANDS 1\n0 0 0 x 1\n")  # not an integer
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


def test_gen_pairing_cli(tmp_path, capsys):
    out = tmp_path / "inst.txt"
    assert main(["gen", "18", "1", "--mode", "pairing", "--seed", "7", "-o", str(out)]) == 0
    dg = parse_instance(out.read_text())
    assert len(dg.edges) == 9
    covered = sorted(v for d in dg.edges for v in (d.u, d.v))
    assert covered == sorted(GridSpec(18, 1).vertices())


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


def test_route_exit_codes(tmp_path):
    inst = tmp_path / "inst.txt"
    out = tmp_path / "routing.txt"
    assert main(["gen", "12", "1", "--seed", "1", "-o", str(inst)]) == 0
    assert main(["route", str(inst), str(out)]) == 2  # floor(12/6)-1 = 1 < 2
    assert main(["route", str(inst), str(out), "--unchecked"]) == 0
    bad = tmp_path / "bad.txt"
    bad.write_text("GRID x\n")
    assert main(["route", str(bad), str(out)]) == 5
    assert main(["route", str(tmp_path / "missing.txt"), str(out)]) == 5


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
    inst = tmp_path / "inst.txt"
    plain = tmp_path / "plain.txt"
    short = tmp_path / "short.txt"
    main(["gen", "18", "2", "--seed", "9", "-o", str(inst)])
    assert main(["route", str(inst), str(plain), "--seed", "2"]) == 0
    assert main(["route", str(inst), str(short), "--seed", "2", "--shorten"]) == 0
    assert main(["verify", str(inst), str(short)]) == 0
    spec = GridSpec(18, 2)
    for did, tr in parse_routing(short.read_text(), spec).items():
        assert len(set(tr.vertices)) == len(tr.vertices), f"demand {did} revisits a vertex"


def test_instance_roundtrip_with_sparse_ids():
    spec = GridSpec(18, 1)
    from gridpair import DemandEdge, DemandGraph

    dg = DemandGraph(spec, (DemandEdge(7, (0,), (1,)), DemandEdge(3, (2,), (5,))))
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
