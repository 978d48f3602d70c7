"""Demand multigraphs, degree budgets, and the column-projection graph.

A demand asks for a trail between two grid vertices. Inside the router a
demand is a (key, u rank, v rank) triple. Cross-column demands are projected
onto the active columns (those that some cross demand touches) to form an
auxiliary multigraph of maximum degree at most t*q; `two_factorization`
pads it to t*q-regular itself and splits it into t*q/2 factors. Inactive
columns are left out, so the work follows the demands rather than the
t^(n-1) columns of the grid.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from random import Random
from typing import Sequence

from .errors import InfeasibleBudgetError
from .grid import GridSpec, Vertex


@dataclass(frozen=True)
class DemandEdge:
    """One demand: connect u and v by a trail."""

    id: int
    u: Vertex
    v: Vertex

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise ValueError(f"demand {self.id} pairs vertex {self.u!r} with itself")


@dataclass(frozen=True)
class DemandGraph:
    """Demand multigraph over a grid."""

    spec: GridSpec
    edges: tuple[DemandEdge, ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for d in self.edges:
            if d.id in seen:
                raise ValueError(f"duplicate demand id {d.id}")
            seen.add(d.id)
            self.spec.check_vertex(d.u)
            self.spec.check_vertex(d.v)

    def degrees(self) -> Counter[Vertex]:
        deg: Counter[Vertex] = Counter()
        for d in self.edges:
            deg[d.u] += 1
            deg[d.v] += 1
        return deg

    @property
    def max_degree(self) -> int:
        deg = self.degrees()
        return max(deg.values()) if deg else 0


def from_pairing(spec: GridSpec, pairs: Sequence[tuple[Vertex, Vertex]]) -> DemandGraph:
    """Demand graph with one edge per pair, ids numbered in input order."""
    edges = tuple(DemandEdge(i, u, v) for i, (u, v) in enumerate(pairs))
    return DemandGraph(spec, edges)


def choose_q(spec: GridSpec, delta: int) -> int:
    """Smallest even budget q >= max(2, delta), subject to q <= floor(t/6) - 1."""
    if delta < 1:
        raise ValueError(f"maximum demand degree must be >= 1, got {delta}")
    q = max(2, delta + delta % 2)
    cap = spec.t // 6 - 1
    if q > cap:
        raise InfeasibleBudgetError(
            f"demand degree {delta} needs even budget {q}, but t={spec.t} admits "
            f"at most {cap} (requires t >= {6 * (q + 1)})"
        )
    return q


RankDemand = tuple[int, int, int]
"""(key, u, v) with u and v vertex ranks of one grid: the router's demand form."""


def split_demands(
    demands: Sequence[RankDemand], t: int
) -> tuple[list[RankDemand], list[RankDemand]]:
    """Partition rank demands into (intra_column, cross_column); rank r lies in column r // t."""
    intra: list[RankDemand] = []
    cross: list[RankDemand] = []
    for d in demands:
        (cross if d[1] // t != d[2] // t else intra).append(d)
    return intra, cross


def project(
    cross: Sequence[RankDemand], t: int, n: int
) -> tuple[list[int], list[tuple[int, int]]]:
    """The active columns of K_t^n and the cross demands' edges over them.

    The active columns are the sorted ranks of the columns that some cross
    demand touches; edge i joins the positions in that list of cross[i]'s
    two columns. Inactive columns carry no demand, so the multigraph stays
    as small as the demands.
    """
    if n < 2:
        raise ValueError("projection requires dimension n >= 2")
    pairs = []
    for key, u, v in cross:
        a, b = u // t, v // t
        if a == b:
            raise ValueError(f"demand {key} stays inside column {a}; not projectable")
        pairs.append((a, b))
    active = sorted({c for pair in pairs for c in pair})
    index = {c: i for i, c in enumerate(active)}
    return active, [(index[a], index[b]) for a, b in pairs]


def random_pairing(spec: GridSpec, rng: Random) -> list[tuple[Vertex, Vertex]]:
    """Uniformly random perfect pairing of all grid vertices; t^n must be even."""
    verts = list(spec.vertices())
    if len(verts) % 2:
        raise ValueError(f"cannot pair an odd number of vertices ({len(verts)})")
    rng.shuffle(verts)
    return [(verts[i], verts[i + 1]) for i in range(0, len(verts), 2)]


def random_demand_multigraph(
    spec: GridSpec, q: int, rng: Random
) -> list[tuple[Vertex, Vertex]]:
    """Random demand multiset with maximum degree exactly q.

    Built by repeated random matchings over the vertices still below budget;
    parallel demands are allowed, self-demands never occur.
    """
    if q < 1:
        raise ValueError(f"degree budget must be >= 1, got {q}")
    deg: Counter[Vertex] = Counter()
    pairs: list[tuple[Vertex, Vertex]] = []
    while True:
        open_verts = [v for v in spec.vertices() if deg[v] < q]
        if len(open_verts) < 2:
            break
        rng.shuffle(open_verts)
        if len(open_verts) % 2:
            open_verts.pop()
        for i in range(0, len(open_verts), 2):
            u, v = open_verts[i], open_verts[i + 1]
            pairs.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return pairs
