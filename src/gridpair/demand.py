"""Demand multigraphs, degree budgets, and the column-projection graph.

A demand asks for a trail between two grid vertices, held as a DemandEdge
(id, u rank, v rank); the router's subproblems are plain triples of that form.
Cross-column demands are projected onto the active columns (those that
some cross demand touches) to form an auxiliary multigraph of maximum
degree at most t*q, which `two_factorization` splits into t*q/2 factors
of degree at most 2. Inactive columns are left out, so the work
follows the demands rather than the t^(n-1) columns of the grid.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from random import Random
from typing import NamedTuple, Sequence

from .errors import InfeasibleBudgetError
from .grid import GridSpec


class DemandEdge(NamedTuple):
    """One demand: connect vertex ranks u and v by a trail."""

    id: int
    u: int
    v: int


@dataclass(frozen=True)
class DemandGraph:
    """Demand multigraph over a grid, in the router's (id, u rank, v rank) form."""

    spec: GridSpec
    edges: tuple[DemandEdge, ...]

    def __post_init__(self) -> None:
        size = self.spec.num_vertices
        seen: set[int] = set()
        for did, u, v in self.edges:
            if did in seen:
                raise ValueError(f"duplicate demand id {did}")
            seen.add(did)
            if u == v:
                raise ValueError(f"demand {did} pairs vertex rank {u} with itself")
            if not (0 <= u < size and 0 <= v < size):
                raise ValueError(f"demand {did}: vertex rank outside [0, {size})")

    def degrees(self) -> Counter[int]:
        deg: Counter[int] = Counter()
        for d in self.edges:
            deg[d.u] += 1
            deg[d.v] += 1
        return deg

    @property
    def max_degree(self) -> int:
        deg = self.degrees()
        return max(deg.values()) if deg else 0


def from_pairing(spec: GridSpec, pairs: Sequence[tuple[int, int]]) -> DemandGraph:
    """Demand graph with one edge per pair of vertex ranks, ids numbered in input order."""
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
            f"at most {cap} (requires t >= {6 * (q + 1)}; unchecked routing skips this gate)"
        )
    return q


def split_demands(
    demands: Sequence[tuple[int, int, int]], t: int
) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int]]]:
    """Partition (key, u, v) demands into (intra_column, cross_column).

    Rank r lies in column r // t.
    """
    intra: list[tuple[int, int, int]] = []
    cross: list[tuple[int, int, int]] = []
    for d in demands:
        (cross if d[1] // t != d[2] // t else intra).append(d)
    return intra, cross


def project(
    cross: Sequence[tuple[int, int, int]], t: int, n: int
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


def random_pairing(spec: GridSpec, rng: Random) -> list[tuple[int, int]]:
    """Uniformly random perfect pairing of all vertex ranks; t^n must be even."""
    verts = list(range(spec.num_vertices))
    if len(verts) % 2:
        raise ValueError(f"cannot pair an odd number of vertices ({len(verts)})")
    rng.shuffle(verts)
    return [(verts[i], verts[i + 1]) for i in range(0, len(verts), 2)]


def random_demand_multigraph(spec: GridSpec, q: int, rng: Random) -> list[tuple[int, int]]:
    """Random demand multiset over vertex ranks with maximum degree exactly q.

    Built by repeated random matchings over the vertices still below budget;
    parallel demands are allowed, self-demands never occur.
    """
    if q < 1:
        raise ValueError(f"degree budget must be >= 1, got {q}")
    deg = [0] * spec.num_vertices
    pairs: list[tuple[int, int]] = []
    while True:
        open_verts = [v for v, d in enumerate(deg) if d < q]
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
