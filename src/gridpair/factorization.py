"""Constructive 2-factor decomposition of multigraphs of bounded degree.

Petersen's recipe in two steps: orient each component along an Euler
circuit, so every vertex has as many out-arcs as in-arcs, then properly
k-edge-colour the out/in bipartite double cover (one bipartite edge per arc
tail -> head; König's theorem guarantees k colours suffice). A colour class
picks at most one out-arc and one in-arc per vertex, so it is a 2-factor.
Padding is only for the walk: odd-degree vertices are joined in pairs by
dummy edges so that Euler circuits exist, and the dummies are never
coloured. Everything is deterministic for a fixed edge ordering; edge
identity is the index into the edge list, so parallel edges and loops are
never conflated.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence


def _degrees(num_vertices: int, edges: Sequence[tuple[int, int]]) -> list[int]:
    """Degree of every vertex; a loop adds 2. Raises ValueError for an endpoint out of range."""
    if edges and not 0 <= min(map(min, edges)) <= max(map(max, edges)) < num_vertices:
        raise ValueError("edge endpoint outside vertex range")
    deg = [0] * num_vertices
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def _euler_walk(num_vertices: int, edges: Sequence[tuple[int, int]]) -> list[int]:
    """Tail of every edge when each component is walked along Euler circuits.

    The head of edge i is its other endpoint. Each maximal closed walk is
    oriented cyclically, so in-degree equals out-degree at every vertex. A
    loop counts once in and once out. The caller guarantees that every
    degree is even and every endpoint lies in [0, num_vertices); nothing
    here checks either.
    """
    adj: list[list[int]] = [[] for _ in range(num_vertices)]
    for eid, (u, v) in enumerate(edges):
        adj[u].append(eid)
        if u != v:
            adj[v].append(eid)
    tails = [-1] * len(edges)
    unread = [iter(lst) for lst in adj]  # each vertex's edges, consumed in order
    for start in range(num_vertices):
        stack = [start]
        while stack:
            v = stack[-1]
            for eid in unread[v]:
                if tails[eid] < 0:
                    tails[eid] = v
                    a, b = edges[eid]
                    stack.append(b if a == v else a)
                    break
            else:
                stack.pop()
    assert -1 not in tails, "walks must exhaust every edge"
    return tails


def two_factorization(
    num_vertices: int,
    edges: Sequence[tuple[int, int]],
    k: int,
    prefer: Sequence[Sequence[int]] | None = None,
) -> list[list[int]]:
    """Split a multigraph of maximum degree <= 2k into k factors, as sorted edge ids.

    The odd-degree vertices are joined in pairs in rank order by dummy
    edges, the result is oriented along Euler circuits, and the real arcs
    (tail, head) are k-edge-coloured as a bipartite graph of out- and
    in-copies. Each colour class is one factor: it adds at most 2 to any
    degree, and exactly 2 at a vertex of degree 2k, whose out- and in-copy
    both have degree k and so see every colour once. `prefer[i]`, if
    given, lists factors edge i should join, best first; see
    `_edge_colouring`. Any choice leaves the colouring proper.
    """
    if k < 1:
        raise ValueError(f"factor count must be >= 1, got {k}")
    if prefer is not None and (
        len(prefer) != len(edges) or not all(0 <= c < k for p in prefer for c in p)
    ):
        raise ValueError(f"prefer needs one tuple of factors in [0, {k}) per edge")
    deg = _degrees(num_vertices, edges)
    over = [v for v, d in enumerate(deg) if d > 2 * k]
    if over:
        raise ValueError(f"vertex {over[0]} has degree {deg[over[0]]} > {2 * k}")
    odd = [v for v, d in enumerate(deg) if d % 2]  # even count: degrees sum to 2|E|
    host = [*edges, *zip(odd[::2], odd[1::2])] if odd else edges
    tails = _euler_walk(num_vertices, host)  # in range (checked above), even (padded)
    # zip stops at the real edges: out- and in-degree are each at most k.
    arcs = [(tail, v if tail == u else u) for tail, (u, v) in zip(tails, edges)]
    return _edge_colouring(num_vertices, arcs, k, prefer)


def _edge_colouring(
    num_left: int,
    edges: Sequence[tuple[int, int]],
    k: int,
    prefer: Sequence[Sequence[int]] | None = None,
) -> list[list[int]]:
    """Colour classes of a proper k-edge-colouring of a bipartite multigraph, degree <= k.

    Edge (x, y) joins left vertex x to right vertex y, numbered num_left + y
    here. Edges are coloured in order, each by the first colour free at both
    ends if there is one, trying the colours of prefer[eid] (if given)
    before 0..k-1. Otherwise a is free at x and b at y, and the a/b
    path that leaves y by a cannot reach x (it enters left vertices by a):
    swapping its colours frees a at y for the edge; the swap may move
    earlier edges off their preferred colours. Each vertex keeps a dict
    colour -> edge id, so memory grows with the edges, not with k.
    """
    num_right = 1 + max((y for _, y in edges), default=-1)
    at: list[dict[int, int]] = [{} for _ in range(num_left + num_right)]
    colour = [0] * len(edges)
    for eid, (x, y) in enumerate(edges):
        at_x, at_y = at[x], at[num_left + y]
        for a in chain(prefer[eid], range(k)) if prefer else range(k):
            if a not in at_x and a not in at_y:
                break
        else:
            a = next(c for c in range(k) if c not in at_x)
            b = next(c for c in range(k) if c not in at_y)
            path, v, c = [], num_left + y, a
            while c in at[v]:
                e = at[v][c]
                path.append(e)
                v = edges[e][0] if v >= num_left else num_left + edges[e][1]
                c = a + b - c
            for e in path:
                del at[edges[e][0]][colour[e]], at[num_left + edges[e][1]][colour[e]]
            for e in path:
                colour[e] = c = a + b - colour[e]
                at[edges[e][0]][c] = at[num_left + edges[e][1]][c] = e
        colour[eid] = a
        at_x[a] = at_y[a] = eid
    classes: list[list[int]] = [[] for _ in range(k)]
    for eid, c in enumerate(colour):
        classes[c].append(eid)
    return classes
