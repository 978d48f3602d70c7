"""Constructive 2-factor decomposition of regular multigraphs.

The classical recipe: orient each component along an Euler circuit, form the
out/in bipartite double cover (one bipartite edge per original edge), split
that k-regular bipartite multigraph into k perfect matchings, and read each
matching back as a spanning 2-regular subgraph. Everything is deterministic
for a fixed edge ordering; edge identity is the index into the edge list, so
parallel edges and loops are never conflated.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Multigraph:
    """Undirected multigraph on vertices 0..num_vertices-1; loops and parallels allowed."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError(f"edge ({u}, {v}) outside vertex range")

    def degrees(self) -> list[int]:
        deg = [0] * self.num_vertices
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1  # a loop adds 2 at its vertex
        return deg


@dataclass(frozen=True)
class Orientation:
    """Per-edge direction assignment with in-degree = out-degree everywhere."""

    arcs: tuple[tuple[int, int], ...]

    def out_degrees(self, num_vertices: int) -> list[int]:
        out = [0] * num_vertices
        for tail, _ in self.arcs:
            out[tail] += 1
        return out

    def in_degrees(self, num_vertices: int) -> list[int]:
        inc = [0] * num_vertices
        for _, head in self.arcs:
            inc[head] += 1
        return inc


@dataclass(frozen=True)
class TwoFactor:
    """Edge ids of a spanning 2-regular subgraph."""

    edge_ids: tuple[int, ...]


@dataclass(frozen=True)
class LayerAssignment:
    """Layer index per host-graph edge id; q/2 consecutive factors feed each layer."""

    edge_layer: dict[int, int]
    t: int
    q: int


def euler_orient(g: Multigraph) -> Orientation:
    """Orient every edge along per-component Euler circuits.

    Each maximal closed walk is oriented cyclically, so in-degree equals
    out-degree at every vertex. A loop counts once in and once out.
    """
    deg = g.degrees()
    odd = [v for v, d in enumerate(deg) if d % 2]
    if odd:
        raise ValueError(f"Euler orientation needs even degrees; odd at {odd[:5]}")
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.num_vertices)]
    for eid, (u, v) in enumerate(g.edges):
        adj[u].append((eid, v))
        if u != v:
            adj[v].append((eid, u))
    arcs: list[tuple[int, int] | None] = [None] * len(g.edges)
    used = bytearray(len(g.edges))
    ptr = [0] * g.num_vertices
    for start in range(g.num_vertices):
        stack = [start]
        while stack:
            v = stack[-1]
            lst = adj[v]
            i = ptr[v]
            while i < len(lst) and used[lst[i][0]]:
                i += 1
            ptr[v] = i
            if i == len(lst):
                stack.pop()
            else:
                eid, w = lst[i]
                used[eid] = 1
                arcs[eid] = (v, w)
                stack.append(w)
    assert all(a is not None for a in arcs), "walks must exhaust every edge"
    return Orientation(tuple(arcs))  # type: ignore[arg-type]


def two_factorization(g: Multigraph, k: int) -> list[TwoFactor]:
    """Decompose a 2k-regular multigraph into k edge-disjoint spanning 2-factors."""
    if k < 1:
        raise ValueError(f"factor count must be >= 1, got {k}")
    deg = g.degrees()
    bad = [v for v, d in enumerate(deg) if d != 2 * k]
    if bad:
        raise ValueError(
            f"graph is not {2 * k}-regular: vertex {bad[0]} has degree {deg[bad[0]]}"
        )
    orientation = euler_orient(g)
    # Arc (u, v) becomes a bipartite edge between u's out-copy and v's in-copy;
    # a perfect matching picks one out-arc and one in-arc per vertex: degree 2.
    matchings = bipartite_matching_decomposition(
        g.num_vertices, g.num_vertices, orientation.arcs, k
    )
    return [TwoFactor(tuple(sorted(m))) for m in matchings]


def bipartite_matching_decomposition(
    num_left: int,
    num_right: int,
    edges: Sequence[tuple[int, int]],
    k: int,
) -> list[list[int]]:
    """Split a k-regular bipartite multigraph into k perfect matchings.

    Returns edge-index lists. Even regularity is halved along Euler circuits;
    odd regularity peels one matching by augmenting paths and recurses on the
    remainder.
    """
    if k < 1:
        raise ValueError(f"regularity must be >= 1, got {k}")
    deg_l = [0] * num_left
    deg_r = [0] * num_right
    for l, r in edges:
        if not (0 <= l < num_left and 0 <= r < num_right):
            raise ValueError(f"edge ({l}, {r}) outside side ranges")
        deg_l[l] += 1
        deg_r[r] += 1
    if any(d != k for d in deg_l) or any(d != k for d in deg_r):
        raise ValueError(f"graph is not {k}-regular on both sides")
    return _decompose(num_left, num_right, edges, list(range(len(edges))), k)


def _decompose(
    num_left: int,
    num_right: int,
    edges: Sequence[tuple[int, int]],
    idxs: list[int],
    k: int,
) -> list[list[int]]:
    if k == 1:
        return [idxs]
    if k % 2 == 0:
        forward, backward = _euler_split(num_left, num_right, edges, idxs)
        return _decompose(num_left, num_right, edges, forward, k // 2) + _decompose(
            num_left, num_right, edges, backward, k // 2
        )
    matching = _peel_matching(num_left, num_right, edges, idxs)
    taken = set(matching)
    rest = [i for i in idxs if i not in taken]
    return [matching] + _decompose(num_left, num_right, edges, rest, k - 1)


def _euler_split(
    num_left: int,
    num_right: int,
    edges: Sequence[tuple[int, int]],
    idxs: list[int],
) -> tuple[list[int], list[int]]:
    """Orient Euler circuits and split edges by direction into two half-regular parts."""
    sub = Multigraph(
        num_left + num_right,
        tuple((edges[i][0], num_left + edges[i][1]) for i in idxs),
    )
    orientation = euler_orient(sub)
    forward = [i for i, (tail, _) in zip(idxs, orientation.arcs) if tail < num_left]
    backward = [i for i, (tail, _) in zip(idxs, orientation.arcs) if tail >= num_left]
    return forward, backward


def _peel_matching(
    num_left: int,
    num_right: int,
    edges: Sequence[tuple[int, int]],
    idxs: list[int],
) -> list[int]:
    """One perfect matching of a regular bipartite multigraph, via Hopcroft-Karp."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(num_left)]
    for i in idxs:
        l, r = edges[i]
        adj[l].append((i, r))
    match_l = [-1] * num_left  # edge index matched at each left vertex
    match_r = [-1] * num_right
    owner_r = [-1] * num_right  # left endpoint of the matched edge at each right vertex
    dist = [-1] * num_left

    def bfs() -> bool:
        queue: deque[int] = deque()
        for l in range(num_left):
            if match_l[l] == -1:
                dist[l] = 0
                queue.append(l)
            else:
                dist[l] = -1
        reachable_free = False
        while queue:
            l = queue.popleft()
            for _, r in adj[l]:
                l2 = owner_r[r]
                if l2 == -1:
                    reachable_free = True
                elif dist[l2] == -1:
                    dist[l2] = dist[l] + 1
                    queue.append(l2)
        return reachable_free

    def dfs(l: int) -> bool:
        for i, r in adj[l]:
            l2 = owner_r[r]
            if l2 == -1 or (dist[l2] == dist[l] + 1 and dfs(l2)):
                match_l[l] = i
                match_r[r] = i
                owner_r[r] = l
                return True
        dist[l] = -1
        return False

    matched = 0
    while matched < num_left and bfs():
        for l in range(num_left):
            if match_l[l] == -1 and dfs(l):
                matched += 1
    if matched != num_left:
        raise RuntimeError("regular bipartite multigraph without a perfect matching: bug")
    return sorted(match_l)


def group_factors(factors: Sequence[TwoFactor], q: int, t: int) -> LayerAssignment:
    """Assign q/2 consecutive factors to each of the t layers.

    Each factor contributes at most 2 to any vertex degree, so every layer's
    subgraph has maximum degree at most q.
    """
    if q < 2 or q % 2:
        raise ValueError(f"budget must be even and >= 2, got {q}")
    expected = t * q // 2
    if len(factors) != expected:
        raise ValueError(f"expected {expected} factors for t={t}, q={q}, got {len(factors)}")
    per_layer = q // 2
    edge_layer: dict[int, int] = {}
    for pos, factor in enumerate(factors):
        layer = pos // per_layer
        for eid in factor.edge_ids:
            edge_layer[eid] = layer
    return LayerAssignment(edge_layer=edge_layer, t=t, q=q)
