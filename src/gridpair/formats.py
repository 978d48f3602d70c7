"""Line-oriented, diff-friendly instance and routing file formats.

Instance:
    GRID t n
    DEMANDS m
    <id> <u coords> <v coords>          (m lines, 0-indexed coordinates)

Routing:
    ROUTING m
    <id> <len> <v0> | <v1> | ... | <v_len>

Files hold coordinates; demands and trails in memory hold vertex ranks.
Parsing range-checks and ranks every vertex once, emitting renders every
rank once.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .demand import DemandEdge, DemandGraph
from .errors import FormatError
from .grid import GridSpec, Trail, vertex_from_rank, vertex_rank


def _renderer(spec: GridSpec) -> Callable[[int], str]:
    """Rank -> its coordinates as space-separated text, each rank rendered once."""
    text: dict[int, str] = {}

    def render(rank: int) -> str:
        coords = text.get(rank)
        if coords is None:
            coords = text[rank] = " ".join(map(str, vertex_from_rank(rank, spec)))
        return coords

    return render


def emit_instance(dg: DemandGraph) -> str:
    spec, render = dg.spec, _renderer(dg.spec)
    lines = [f"GRID {spec.t} {spec.n}", f"DEMANDS {len(dg.edges)}"]
    for did, u, v in dg.edges:
        lines.append(f"{did} {render(u)} {render(v)}")
    return "\n".join(lines) + "\n"


def _int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"expected integer {what}, got {token!r}", line_no) from None


def _ints(tokens: list[str], line_no: int, what: str) -> list[int]:
    """All tokens as integers; on a bad one, the error `_int` gives for the first."""
    try:
        return list(map(int, tokens))
    except ValueError:
        for token in tokens:
            _int(token, line_no, what)
        raise


def _rank(coords: tuple[int, ...], spec: GridSpec, line_no: int) -> int:
    try:
        return vertex_rank(coords, spec)
    except ValueError as exc:
        raise FormatError(str(exc), line_no) from None


def parse_instance(text: str) -> DemandGraph:
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if len(lines) < 2:
        raise FormatError("instance needs a GRID line and a DEMANDS line")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "GRID":
        raise FormatError(f"expected 'GRID t n', got {lines[0]!r}", 1)
    t, n = _int(head[1], 1, "t"), _int(head[2], 1, "n")
    try:
        spec = GridSpec(t, n)
    except ValueError as exc:
        raise FormatError(str(exc), 1) from None
    count_line = lines[1].split()
    if len(count_line) != 2 or count_line[0] != "DEMANDS":
        raise FormatError(f"expected 'DEMANDS m', got {lines[1]!r}", 2)
    m = _int(count_line[1], 2, "demand count")
    if len(lines) - 2 != m:
        raise FormatError(f"header promises {m} demands, file has {len(lines) - 2}")
    edges = []
    for offset, line in enumerate(lines[2:], start=3):
        tokens = line.split()
        if len(tokens) != 1 + 2 * n:
            raise FormatError(
                f"demand line needs 1 + 2n = {1 + 2 * n} integers, got {len(tokens)}",
                offset,
            )
        values = _ints(tokens, offset, "coordinate")
        did, cu, cv = values[0], tuple(values[1 : n + 1]), tuple(values[n + 1 :])
        u, v = _rank(cu, spec, offset), _rank(cv, spec, offset)
        if u == v:
            raise FormatError(f"demand {did} pairs vertex {cu!r} with itself", offset)
        edges.append(DemandEdge(did, u, v))
    try:
        return DemandGraph(spec, tuple(edges))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def emit_routing(routing: Mapping[int, Trail], spec: GridSpec) -> str:
    render = _renderer(spec)
    lines = [f"ROUTING {len(routing)}"]
    for did in sorted(routing):
        tr = routing[did]
        lines.append(f"{did} {tr.length} {' | '.join(map(render, tr.vertices))}")
    return "\n".join(lines) + "\n"


def parse_routing(text: str, spec: GridSpec) -> dict[int, Trail]:
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise FormatError("routing needs a ROUTING header")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "ROUTING":
        raise FormatError(f"expected 'ROUTING m', got {lines[0]!r}", 1)
    m = _int(head[1], 1, "trail count")
    if len(lines) - 1 != m:
        raise FormatError(f"header promises {m} trails, file has {len(lines) - 1}")
    t = spec.t
    routing: dict[int, Trail] = {}
    for offset, line in enumerate(lines[1:], start=2):
        segments = line.split("|")
        first = segments[0].split()
        if len(first) < 2 + spec.n:
            raise FormatError("trail line needs an id, a length, and a first vertex", offset)
        did = _int(first[0], offset, "demand id")
        declared = _int(first[1], offset, "trail length")
        vertex_tokens = [first[2:]] + [seg.split() for seg in segments[1:]]
        vertices = []
        for tokens in vertex_tokens:
            if len(tokens) != spec.n:
                raise FormatError(
                    f"vertex needs {spec.n} coordinates, got {len(tokens)}", offset
                )
            try:
                coords = tuple(map(int, tokens))
            except ValueError:
                _ints(tokens, offset, "coordinate")  # raises, naming the first bad token
                raise
            rank = 0
            for c in coords:  # vertex_rank inlined: this loop runs once per trail vertex
                if not 0 <= c < t:
                    _rank(coords, spec, offset)  # raises, naming the coordinate
                rank = rank * t + c
            vertices.append(rank)
        if declared != len(vertices) - 1:
            raise FormatError(
                f"declared length {declared} but trail has {len(vertices) - 1} edges",
                offset,
            )
        if did in routing:
            raise FormatError(f"duplicate trail for demand {did}", offset)
        routing[did] = Trail(tuple(vertices))
    return routing
