"""The bulk text codec against its line-by-line reader.

`parse_instance` and `parse_routing` read chunks of lines through token
tables; a chunk they refuse goes to a line-by-line reader, which also names
errors. Each file here is parsed twice, as usual and with the bulk path
switched off, and both must give the same demands, trails or error.
"""

from __future__ import annotations

import pytest

from gridpair import (
    DemandEdge,
    DemandGraph,
    GridSpec,
    Trail,
    emit_instance,
    emit_routing,
    formats,
    vertex_from_rank,
)
from gridpair.errors import FormatError

SPEC = GridSpec(4, 3)
COUNT = 600  # demand and trail lines: three chunks


def _instance_lines() -> list[str]:
    lines = ["GRID 4 3", f"DEMANDS {COUNT}"]
    for i in range(COUNT):
        u, v = vertex_from_rank(i % 64, SPEC), vertex_from_rank((i * 7 + 1) % 64, SPEC)
        lines.append(" ".join(map(str, (i, *u, *v))))
    return lines


def _routing_lines() -> list[str]:
    lines = [f"ROUTING {COUNT}"]
    for i in range(COUNT):
        ranks = [(i + k * 5) % 64 for k in range(1 + i % 4)]
        body = " | ".join(" ".join(map(str, vertex_from_rank(r, SPEC))) for r in ranks)
        lines.append(f"{i} {len(ranks) - 1} {body}")
    return lines


def _text(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _outcome(parse, *args):
    try:
        return parse(*args)
    except FormatError as exc:
        return f"FormatError: {exc}"


def _refuse(*args):
    raise ValueError("bulk path switched off")


def _both(monkeypatch, parse, *args):
    """(outcome of parse with the bulk path, outcome with the line reader alone)."""
    bulk = _outcome(parse, *args)
    with monkeypatch.context() as m:
        m.setattr(formats, "_demands_bulk", _refuse)
        m.setattr(formats, "_trails_bulk", _refuse)
        by_line = _outcome(parse, *args)
    return bulk, by_line


def _no_line_reader(monkeypatch):
    def fail(*args):
        raise AssertionError("the bulk path refused a chunk")

    monkeypatch.setattr(formats, "_demand_lines", fail)
    monkeypatch.setattr(formats, "_trail_lines", fail)


def test_canonical_files_take_the_bulk_path_and_round_trip(monkeypatch):
    instance, routing = _text(_instance_lines()), _text(_routing_lines())
    _no_line_reader(monkeypatch)
    dg = formats.parse_instance(instance)
    trails = formats.parse_routing(routing, SPEC)
    assert len(dg.edges) == len(trails) == COUNT
    assert emit_instance(dg) == instance
    assert emit_routing(trails, SPEC) == routing


# One name table (K_5^4, K_2896^1), even groups of coordinates (K_2896^2) and
# uneven ones (K_18^5: 2 + 2 + 1, K_7^5: 3 + 2).
@pytest.mark.parametrize("t, n", [(5, 4), (2896, 1), (2896, 2), (18, 5), (7, 5)])
def test_emitters_match_a_rank_by_rank_rendering(t, n):
    spec = GridSpec(t, n)
    size = spec.num_vertices
    routing = {
        i: Trail(tuple((i * 7919 + k * 104729) % size for k in range(1 + i % 5)))
        for i in range(700)
    }
    expected = [f"ROUTING {len(routing)}"]
    for did in sorted(routing):
        vs = routing[did].vertices
        body = " | ".join(" ".join(map(str, vertex_from_rank(r, spec))) for r in vs)
        expected.append(f"{did} {len(vs) - 1} {body}")
    assert emit_routing(routing, spec) == _text(expected)
    dg = DemandGraph(
        spec, tuple(DemandEdge(i, *tr.ends) for i, tr in routing.items() if tr.length)
    )
    assert emit_instance(dg).splitlines()[2:] == [
        " ".join(map(str, (e.id, *vertex_from_rank(e.u, spec), *vertex_from_rank(e.v, spec))))
        for e in dg.edges
    ]


def test_emitting_a_rank_outside_the_grid_raises():
    with pytest.raises(ValueError, match=r"^rank 64 outside \[0, 64\)$"):
        emit_routing({0: Trail((0, 64))}, SPEC)


def test_non_canonical_tokens_stay_on_the_bulk_path(monkeypatch):
    lines = _instance_lines()
    lines[5] = lines[5].replace(" ", " 0", 1)  # a coordinate written 03, 01 or 00
    lines[6] = lines[6].replace(" ", " +", 2)  # an id and a coordinate with a sign
    routing = _routing_lines()
    routing[7] = routing[7].replace(" | ", " | +0", 1)
    _no_line_reader(monkeypatch)
    assert formats.parse_instance(_text(lines)) == formats.parse_instance(
        _text(_instance_lines())
    )
    assert formats.parse_routing(_text(routing), SPEC) == formats.parse_routing(
        _text(_routing_lines()), SPEC
    )


def _prefix(line: str, sign: str) -> str:
    """The line with sign before every integer token."""
    return " ".join(sign + token if token.isdigit() else token for token in line.split(" "))


@pytest.mark.parametrize(
    "kind, line_no, edit",
    [
        ("instance", 5, lambda s: _prefix(s, "0")),  # every token zero-padded: 00, 03
        ("instance", 300, lambda s: _prefix(s, "+")),
        ("instance", 301, lambda s: s.replace(" ", "\t")),
        ("instance", 302, lambda s: s + " \t"),
        ("routing", 2, lambda s: s.replace(" | ", "|")),  # a|b, no spaces round the bar
        ("routing", 400, lambda s: s.replace(" | ", " |\t")),
        ("routing", 401, lambda s: _prefix(s, "0")),
        ("routing", 402, lambda s: _prefix(s, "+")),
    ],
)
def test_valid_non_canonical_files_parse_as_their_canonical_form(monkeypatch, kind, line_no, edit):
    lines = _instance_lines() if kind == "instance" else _routing_lines()
    canonical = _text(lines)
    lines[line_no - 1] = edit(lines[line_no - 1])
    text = _text(lines) + "\n"  # and a trailing blank line
    if kind == "instance":
        bulk, by_line = _both(monkeypatch, formats.parse_instance, text)
        assert bulk == by_line == formats.parse_instance(canonical)
    else:
        bulk, by_line = _both(monkeypatch, formats.parse_routing, text, SPEC)
        assert bulk == by_line == formats.parse_routing(canonical, SPEC)


def _set_token(index: int, value: str):
    def edit(line: str) -> str:
        tokens = line.split(" ")
        tokens[index] = value
        return " ".join(tokens)

    return edit


def _drop_token(index: int):
    def edit(line: str) -> str:
        tokens = line.split(" ")
        del tokens[index]
        return " ".join(tokens)

    return edit


# (file, faults as {line number: edit}, the one error reported). Lines 3-258
# of an instance and 2-257 of a routing form the first chunk.
FAULTS = {
    "instance bad integer": (
        "instance", {300: _set_token(2, "x")}, "line 300: expected integer coordinate, got 'x'"
    ),
    "instance wrong arity": (
        "instance", {300: _drop_token(6)}, "line 300: demand line needs 1 + 2n = 7 integers, got 6"
    ),
    "instance out of range": (
        "instance", {300: _set_token(5, "4")},
        "line 300: vertex (2, 4, 0): coordinate 4 outside [0, 4)",
    ),
    "instance self pairing": (
        "instance", {300: lambda s: "297 1 2 3 1 2 3"},
        "line 300: demand 297 pairs vertex (1, 2, 3) with itself",
    ),
    "instance duplicate id": (
        "instance", {300: _set_token(0, "5")}, "duplicate demand id 5"
    ),
    "routing bad integer": (
        "routing", {300: _set_token(3, "1a")}, "line 300: expected integer coordinate, got '1a'"
    ),
    "routing bad length token": (
        "routing", {300: _set_token(1, "-")}, "line 300: expected integer trail length, got '-'"
    ),
    "routing wrong arity": (
        "routing", {300: _drop_token(7)}, "line 300: vertex needs 3 coordinates, got 2"
    ),
    "routing out of range": (
        "routing", {300: _set_token(2, "7")},
        "line 300: vertex (7, 2, 2): coordinate 7 outside [0, 4)",
    ),
    "routing wrong declared length": (
        "routing", {300: _set_token(1, "3")},
        "line 300: declared length 3 but trail has 2 edges",
    ),
    "routing duplicate id": (
        "routing", {300: _set_token(0, "12")}, "line 300: duplicate trail for demand 12"
    ),
    "routing duplicate id within a chunk": (
        "routing", {301: _set_token(0, "298")}, "line 301: duplicate trail for demand 298"
    ),
    "routing bar replaced by a coordinate": (
        "routing", {300: lambda s: s.replace(" | ", " 3 ", 1)},
        "line 300: vertex needs 3 coordinates, got 7",
    ),
    "instance short last line of a chunk": (
        "instance", {258: _drop_token(6)}, "line 258: demand line needs 1 + 2n = 7 integers, got 6"
    ),
    "instance long last line of the file": (
        "instance", {602: lambda s: s + " 1"},
        "line 602: demand line needs 1 + 2n = 7 integers, got 8",
    ),
    "routing short last line of a chunk": (
        "routing", {257: _drop_token(-1)}, "line 257: vertex needs 3 coordinates, got 2"
    ),
    "routing long last line of the file": (
        "routing", {601: lambda s: s + " 1"}, "line 601: vertex needs 3 coordinates, got 4"
    ),
    "routing missing bar": (
        "routing", {300: lambda s: s.replace(" | ", " ", 1)},
        "line 300: vertex needs 3 coordinates, got 6",
    ),
    # Two faults: the first in file order is reported, across chunks and
    # within one, whatever the bulk path checks first.
    "instance two faults in two chunks": (
        "instance", {10: _set_token(1, "9"), 280: _set_token(2, "x")},
        "line 10: vertex (9, 1, 3): coordinate 9 outside [0, 4)",
    ),
    "instance two faults in one chunk": (
        "instance", {290: _set_token(3, "x"), 295: _drop_token(1)},
        "line 290: expected integer coordinate, got 'x'",
    ),
    "routing two faults in one chunk": (
        "routing", {290: _set_token(0, "x"), 291: _set_token(1, "9")},
        "line 290: expected integer demand id, got 'x'",
    ),
    "routing duplicate id before a bad token": (
        "routing", {520: _set_token(0, "3"), 521: _set_token(2, "x")},
        "line 520: duplicate trail for demand 3",
    ),
}


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_faults_name_the_first_bad_line_like_the_line_reader(monkeypatch, name):
    kind, faults, message = FAULTS[name]
    lines = _instance_lines() if kind == "instance" else _routing_lines()
    for line_no, edit in faults.items():
        lines[line_no - 1] = edit(lines[line_no - 1])
    if kind == "instance":
        bulk, by_line = _both(monkeypatch, formats.parse_instance, _text(lines))
    else:
        bulk, by_line = _both(monkeypatch, formats.parse_routing, _text(lines), SPEC)
    assert bulk == by_line == f"FormatError: {message}"
