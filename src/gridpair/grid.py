"""Complete grid graphs K_t^n: the grid, vertex ranks, and trails.

Vertices are n-tuples over [0, t); two vertices are adjacent iff they differ
in exactly one coordinate. Inside the package a vertex is its mixed-radix
rank (last coordinate least significant), so rank r lies in column r // t
(the t^(n-1) complete graphs K_t that fix the first n-1 coordinates) and in
layer r % t (the t copies of K_t^(n-1) that fix the last one). Coordinates
appear only in the file formats.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def vertex_rank(v: Vertex, spec: GridSpec) -> int:
    """Mixed-radix rank of v; the last coordinate is the least significant digit.

    Raises ValueError unless v has n coordinates, each in [0, t).
    """
    t = spec.t
    if len(v) != spec.n:
        raise ValueError(f"vertex {v!r} has {len(v)} coordinates, expected {spec.n}")
    rank = 0
    for c in v:
        if not 0 <= c < t:
            raise ValueError(f"vertex {v!r}: coordinate {c} outside [0, {t})")
        rank = rank * t + c
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


def edge_count(spec: GridSpec) -> int:
    """Number of edges of K_t^n: n * t^(n-1) * t(t-1)/2."""
    return spec.n * spec.t ** (spec.n - 1) * (spec.t * (spec.t - 1) // 2)


@dataclass(frozen=True, slots=True)
class Trail:
    """Walk over vertex ranks with no repeated edge; vertices may repeat."""

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise ValueError("a trail contains at least one vertex")

    @property
    def length(self) -> int:
        """Number of edges."""
        return len(self.vertices) - 1

    @property
    def ends(self) -> tuple[int, int]:
        return self.vertices[0], self.vertices[-1]
