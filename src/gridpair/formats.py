"""Line-oriented, diff-friendly instance and routing file formats.

Instance:
    GRID t n
    DEMANDS m
    <id> <u coords> <v coords>          (m lines, 0-indexed coordinates)

Routing:
    ROUTING m
    <id> <len> <v0> | <v1> | ... | <v_len>

Files hold coordinates; demands and trails in memory hold vertex ranks.
All four converters work on chunks of `_CHUNK` lines, and no Python loop
runs per coordinate. A parser splits each line of a chunk once and checks
the chunk's shape with list operations. Then every coordinate token is
looked up in a table for its position that maps it to its coordinate times
its place value, and the lookups are summed into ranks. An emitter cuts a
chunk's ranks into groups of base-t digits and looks each group's text up
in a table of at most `_NAMES_MAX` names.

A chunk the bulk path refuses is read again line by line. That slower code
accepts what the bulk path cannot take (a vertex written `0|1`, say) and
otherwise raises the first bad line's error, naming its line number.
"""

from __future__ import annotations

from itertools import accumulate, chain, product, repeat
from operator import add, eq, floordiv, itemgetter, mod
from typing import Iterable, Mapping, Sequence, TypeVar

from .demand import DemandEdge, DemandGraph
from .errors import FormatError
from .grid import GridSpec, Trail, vertex_from_rank, vertex_rank

# Lines per bulk step: big enough that per-chunk overhead vanishes, small
# enough that a chunk's token lists add little to the file text at peak.
_CHUNK = 256

# Names per emitter table: a group of coordinates is rendered by one lookup,
# and a table stays a few hundred kB whatever t and n are.
_NAMES_MAX = 4096

T = TypeVar("T")


class _PlaceValues(dict):
    """Coordinate token -> coordinate * place value, for one position of a vertex.

    Holds the t canonical tokens. `__missing__` reads any other token as
    `int()` does (so `03` and `+3` are 3) and raises ValueError unless it is
    a coordinate in [0, t).
    """

    def __init__(self, t: int, place: int) -> None:
        super().__init__(zip(map(str, range(t)), range(0, t * place, place)))
        self.t, self.place = t, place

    def __missing__(self, token: str) -> int:
        c = int(token)
        if not 0 <= c < self.t:
            raise ValueError(token)
        return c * self.place


def _place_values(spec: GridSpec) -> list[_PlaceValues]:
    """One token table per coordinate position, the most significant first."""
    t, n = spec.t, spec.n
    return [_PlaceValues(t, t ** (n - 1 - i)) for i in range(n)]


def _ranks(tokens: list[str], start: int, step: int, tables: list[_PlaceValues]) -> list[int]:
    """Ranks of the vertices whose coordinates are tokens[start + i :: step], i < n."""
    ranks = list(map(tables[0].__getitem__, tokens[start::step]))
    for i in range(1, len(tables)):
        ranks = list(map(add, ranks, map(tables[i].__getitem__, tokens[start + i :: step])))
    return ranks


def _name_tables(spec: GridSpec) -> list[tuple[int, int, list[str]]]:
    """(place value, radix, names) for each group of coordinates, the most
    significant first. The groups are as even as they can be with at most
    _NAMES_MAX names each; names[g] is the text of the group's coordinates
    at value g, with a space after it unless the group is the last."""
    t, n = spec.t, spec.n
    per = 1  # coordinates per group
    while per < n and t ** (per + 1) <= _NAMES_MAX:
        per += 1
    count = -(-n // per)
    digits = list(map(str, range(t)))
    tables, place = [], t**n
    for i in range(count):
        size = n // count + (i < n % count)
        place //= t**size
        end = " " if i < count - 1 else ""
        tables.append((place, t**size, [" ".join(p) + end for p in product(digits, repeat=size)]))
    return tables


def _render(
    ranks: Sequence[int], spec: GridSpec, tables: list[tuple[int, int, list[str]]]
) -> Iterable[str]:
    """Each rank's coordinates as space-separated text."""
    if ranks and not (0 <= min(ranks) and max(ranks) < spec.num_vertices):
        for rank in ranks:
            vertex_from_rank(rank, spec)  # raises, naming the rank
    columns = [
        map(names.__getitem__, map(mod, map(floordiv, ranks, repeat(place)), repeat(radix)))
        for place, radix, names in tables
    ]
    texts = columns[0]
    for column in columns[1:]:
        texts = map(add, texts, column)
    return texts


def _chunks(items: Sequence[T]) -> Iterable[tuple[int, Sequence[T]]]:
    """(index of the first item, items) for each chunk of _CHUNK items."""
    for start in range(0, len(items), _CHUNK):
        yield start, items[start : start + _CHUNK]


def emit_instance(dg: DemandGraph) -> str:
    spec, tables = dg.spec, _name_tables(dg.spec)
    parts = [f"GRID {spec.t} {spec.n}\nDEMANDS {len(dg.edges)}\n"]
    for _, chunk in _chunks(dg.edges):
        ids, us, vs = zip(*chunk)
        lines = map("{} {} {}\n".format, ids, _render(us, spec, tables), _render(vs, spec, tables))
        parts.append("".join(lines))
    return "".join(parts)


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


def _demands_bulk(chunk: list[str], tables: list[_PlaceValues]) -> list[DemandEdge]:
    """The chunk's demands; ValueError when any line is not a well-formed demand."""
    n = len(tables)
    width = 1 + 2 * n
    rows = list(map(str.split, chunk))
    if list(map(len, rows)).count(width) != len(rows):
        raise ValueError("a line has the wrong token count")
    tokens = list(chain.from_iterable(rows))
    us, vs = _ranks(tokens, 1, width, tables), _ranks(tokens, 1 + n, width, tables)
    if any(map(eq, us, vs)):
        raise ValueError("a demand pairs a vertex with itself")
    return list(map(DemandEdge, map(int, tokens[::width]), us, vs))


def _demand_lines(chunk: list[str], first_line: int, spec: GridSpec) -> list[DemandEdge]:
    """The chunk's demands read line by line; raises the first bad line's FormatError."""
    n = spec.n
    edges = []
    for offset, line in enumerate(chunk, start=first_line):
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
    return edges


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
    del lines[:2]
    tables = _place_values(spec)
    edges: list[DemandEdge] = []
    for start, chunk in _chunks(lines):
        try:
            edges += _demands_bulk(chunk, tables)
        except ValueError:
            edges += _demand_lines(chunk, start + 3, spec)
    try:
        return DemandGraph(spec, tuple(edges))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def emit_routing(routing: Mapping[int, Trail], spec: GridSpec) -> str:
    tables = _name_tables(spec)
    parts = [f"ROUTING {len(routing)}\n"]
    for _, ids in _chunks(sorted(routing)):
        trails = [routing[did].vertices for did in ids]
        ends = list(accumulate(map(len, trails)))
        texts = list(_render(list(chain.from_iterable(trails)), spec, tables))
        bodies = map(" | ".join, map(texts.__getitem__, map(slice, [0] + ends, ends)))
        lengths = [len(vs) - 1 for vs in trails]
        parts.append("".join(map("{} {} {}\n".format, ids, lengths, bodies)))
    return "".join(parts)


def _trails_bulk(
    chunk: list[str], tables: list[_PlaceValues], routing: dict[int, Trail]
) -> dict[int, Trail]:
    """The chunk's trails by demand id; ValueError when any line is not a
    well-formed trail, or repeats a demand id of the chunk or of `routing`."""
    n = len(tables)
    width = n + 1  # a vertex's coordinates and the bar after it
    # With a bar appended, a line is its id, its length and `width` tokens per
    # vertex. A line of one token fits with no vertex; int() refuses its length "|".
    rows = [(line + " |").split() for line in chunk]
    counts = [(len(row) - 2) // width for row in rows]
    if [2 + k * width for k in counts] != list(map(len, rows)):
        raise ValueError("a line has the wrong token count")
    tokens = list(chain.from_iterable(map(itemgetter(slice(2, None)), rows)))
    bars = tokens[n::width]
    if bars.count("|") != len(bars):
        raise ValueError("a bar is missing")
    if list(map(int, map(itemgetter(1), rows))) != [k - 1 for k in counts]:
        raise ValueError("a declared length is wrong")
    ranks = tuple(_ranks(tokens, 0, width, tables))
    ends = list(accumulate(counts))
    trails = map(Trail, map(ranks.__getitem__, map(slice, [0] + ends, ends)))
    part = dict(zip(map(int, map(itemgetter(0), rows)), trails))
    if len(part) != len(rows) or not routing.keys().isdisjoint(part):
        raise ValueError("a demand id repeats")
    return part


def _trail_lines(
    chunk: list[str], first_line: int, spec: GridSpec, routing: dict[int, Trail]
) -> None:
    """Add the chunk's trails to routing line by line; raises the first bad line's FormatError."""
    for offset, line in enumerate(chunk, start=first_line):
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
            vertices.append(_rank(tuple(_ints(tokens, offset, "coordinate")), spec, offset))
        if declared != len(vertices) - 1:
            raise FormatError(
                f"declared length {declared} but trail has {len(vertices) - 1} edges",
                offset,
            )
        if did in routing:
            raise FormatError(f"duplicate trail for demand {did}", offset)
        routing[did] = Trail(tuple(vertices))


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
    del lines[0]
    tables = _place_values(spec)
    routing: dict[int, Trail] = {}
    for start, chunk in _chunks(lines):
        try:
            routing.update(_trails_bulk(chunk, tables, routing))
        except ValueError:
            _trail_lines(chunk, start + 2, spec, routing)
    return routing
