"""Complete grid graphs K_t^n: coordinates, edges, layers, and columns.

Vertices are n-tuples over [0, t); two vertices are adjacent iff they differ
in exactly one coordinate. The last coordinate is the distinguished one:
fixing it yields the t layers (each a copy of K_t^(n-1)), while fixing the
first n-1 coordinates yields the t^(n-1) columns (each a complete graph K_t).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

Vertex = tuple[int, ...]

# Largest t^max(n, 2) a GridSpec admits: K_24^5 fits, and a tiny file cannot
# declare a grid whose vertex or column tables would exhaust memory.
_MAX_GRID_SIZE = 2**23


@dataclass(frozen=True)
class GridSpec:
    """Host graph parameters: side length t (>= 2), dimension n (>= 1), t^max(n, 2) <= 2^23."""

    t: int
    n: int

    def __post_init__(self) -> None:
        if self.t < 2:
            raise ValueError(f"side length must be >= 2, got t={self.t}")
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got n={self.n}")
        size = 1
        for _ in range(max(self.n, 2)):  # t >= 2 ends this within 24 rounds
            size *= self.t
            if size > _MAX_GRID_SIZE:
                raise ValueError(
                    f"K_{self.t}^{self.n} exceeds the size budget t^max(n, 2) <= {_MAX_GRID_SIZE}"
                )

    @property
    def num_vertices(self) -> int:
        return self.t**self.n

    @property
    def degree(self) -> int:
        """Degree of every vertex: n * (t - 1)."""
        return self.n * (self.t - 1)

    def sub(self) -> GridSpec:
        """The grid one dimension down, hosting the layers."""
        if self.n < 2:
            raise ValueError("K_t^1 has no layer grid")
        return GridSpec(self.t, self.n - 1)

    def vertices(self) -> Iterator[Vertex]:
        """All vertices in rank order (last coordinate varies fastest)."""
        return itertools.product(range(self.t), repeat=self.n)

    def check_vertex(self, v: Vertex) -> None:
        if len(v) != self.n:
            raise ValueError(f"vertex {v!r} has {len(v)} coordinates, expected {self.n}")
        for c in v:
            if not 0 <= c < self.t:
                raise ValueError(f"vertex {v!r}: coordinate {c} outside [0, {self.t})")


def vertex_rank(v: Vertex, spec: GridSpec) -> int:
    """Mixed-radix rank of v; the last coordinate is the least significant digit."""
    spec.check_vertex(v)
    rank = 0
    for c in v:
        rank = rank * spec.t + c
    return rank


def vertex_from_rank(rank: int, spec: GridSpec) -> Vertex:
    if not 0 <= rank < spec.num_vertices:
        raise ValueError(f"rank {rank} outside [0, {spec.num_vertices})")
    coords = []
    for _ in range(spec.n):
        rank, c = divmod(rank, spec.t)
        coords.append(c)
    coords.reverse()
    return tuple(coords)


def is_grid_edge(u: Vertex, v: Vertex, spec: GridSpec) -> bool:
    """True iff u and v differ in exactly one coordinate."""
    spec.check_vertex(u)
    spec.check_vertex(v)
    return sum(a != b for a, b in zip(u, v)) == 1


def layer_of(v: Vertex) -> int:
    """Index of the layer containing v: its last coordinate."""
    return v[-1]


def column_of(v: Vertex) -> Vertex:
    """Coordinates of the column containing v: all but the last; () when n = 1."""
    return v[:-1]


def edge_count(spec: GridSpec) -> int:
    """Number of edges of K_t^n: n * t^(n-1) * t(t-1)/2."""
    return spec.n * spec.t ** (spec.n - 1) * (spec.t * (spec.t - 1) // 2)


def edges(spec: GridSpec) -> Iterator[tuple[Vertex, Vertex]]:
    """Every edge exactly once, ordered by (vertex, position, partner value)."""
    for u in spec.vertices():
        for p in range(spec.n):
            for b in range(u[p] + 1, spec.t):
                yield u, u[:p] + (b,) + u[p + 1 :]


def edge_rank(u: Vertex, v: Vertex, spec: GridSpec) -> int:
    """Canonical dense index of edge {u, v} in [0, edge_count(spec)).

    Edges are keyed by (varying position, fixed coordinates, value pair);
    raises for non-adjacent vertex pairs. Coordinates must already be valid.
    """
    t = spec.t
    pos = lo = hi = -1
    rest = 0
    for p, (a, b) in enumerate(zip(u, v)):
        if a == b:
            rest = rest * t + a
        elif pos < 0:
            pos, lo, hi = p, a, b
        else:
            raise ValueError(f"{u!r} -- {v!r} is not a grid edge")
    if pos < 0:
        raise ValueError(f"{u!r} -- {v!r} is not a grid edge")
    if lo > hi:
        lo, hi = hi, lo
    pair_rank = lo * t - lo * (lo + 1) // 2 + (hi - lo - 1)
    return (pos * t ** (spec.n - 1) + rest) * (t * (t - 1) // 2) + pair_rank


@dataclass(frozen=True)
class Trail:
    """Walk with no repeated edge; vertices may repeat."""

    vertices: tuple[Vertex, ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise ValueError("a trail contains at least one vertex")

    @property
    def length(self) -> int:
        """Number of edges."""
        return len(self.vertices) - 1

    @property
    def ends(self) -> tuple[Vertex, Vertex]:
        return self.vertices[0], self.vertices[-1]

    def edges(self) -> list[tuple[Vertex, Vertex]]:
        return list(zip(self.vertices, self.vertices[1:]))

    def validate(self, spec: GridSpec) -> None:
        """Raise unless every step is a grid edge and no edge repeats."""
        seen: set[int] = set()
        for u, v in self.edges():
            if not is_grid_edge(u, v, spec):
                raise ValueError(f"step {u!r} -> {v!r} is not a grid edge")
            rank = edge_rank(u, v, spec)
            if rank in seen:
                raise ValueError(f"edge {u!r} -- {v!r} repeats within the trail")
            seen.add(rank)
