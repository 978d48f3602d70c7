"""Constructive 2-factor decomposition of multigraphs of bounded degree.

The classical recipe: pad the graph to 2k-regular, orient each component
along an Euler circuit, form the out/in bipartite double cover (one
bipartite edge per original edge), split that k-regular bipartite
multigraph into k perfect matchings, and read each matching back as a
spanning 2-regular subgraph. Padding that is a loop is never materialized:
a loop is one out- and one in-arc of its own vertex, so it is carried as a
count per vertex through the Euler splits and the matching peels, and only
the real edges (plus at most one dummy edge per two odd-degree vertices)
are walked. Everything is deterministic for a fixed edge ordering; edge
identity is the index into the edge list, so parallel edges and loops are
never conflated.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence


def euler_orient(num_vertices: int, edges: Sequence[tuple[int, int]]) -> list[int]:
    """Tail of every edge when each component is walked along Euler circuits.

    The head of edge i is its other endpoint. Each maximal closed walk is
    oriented cyclically, so in-degree equals out-degree at every vertex. A
    loop counts once in and once out. Raises ValueError for an endpoint
    outside [0, num_vertices) or a vertex of odd degree.
    """
    if edges and not 0 <= min(map(min, edges)) <= max(map(max, edges)) < num_vertices:
        raise ValueError("edge endpoint outside vertex range")
    deg = [0] * num_vertices
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1  # a loop adds 2 at its vertex
    odd = [v for v, d in enumerate(deg) if d % 2]
    if odd:
        raise ValueError(f"Euler orientation needs even degrees; odd at {odd[:5]}")
    return _euler_walk(num_vertices, edges)


def _euler_walk(num_vertices: int, edges: Sequence[tuple[int, int]]) -> list[int]:
    """`euler_orient` without its checks, for graphs even and in range by construction."""
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
    num_vertices: int, edges: Sequence[tuple[int, int]], k: int
) -> list[list[int]]:
    """Split a multigraph of maximum degree <= 2k into k factors, as sorted edge ids.

    The graph is padded to 2k-regular first: the odd-degree vertices are
    joined in pairs in rank order (dummy edges, ids from len(edges) on), and
    every remaining deficiency becomes loops, kept as a count per vertex.
    Each factor is a 2-factor of the padded graph with its padding left
    out, so it adds at most 2 to any degree and exactly 2 at a vertex of
    degree 2k. A graph that is already 2k-regular is not padded.
    """
    if k < 1:
        raise ValueError(f"factor count must be >= 1, got {k}")
    if edges and not 0 <= min(map(min, edges)) <= max(map(max, edges)) < num_vertices:
        raise ValueError("edge endpoint outside vertex range")
    deg = [0] * num_vertices
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1  # a loop adds 2 at its vertex
    over = [v for v, d in enumerate(deg) if d > 2 * k]
    if over:
        raise ValueError(f"vertex {over[0]} has degree {deg[over[0]]} > {2 * k}")
    odd = [v for v, d in enumerate(deg) if d % 2]  # even count: degrees sum to 2|E|
    host = [*edges, *zip(odd[::2], odd[1::2])] if odd else edges
    for v in odd:
        deg[v] += 1
    loops = [k - d // 2 for d in deg]
    tails = _euler_walk(num_vertices, host)  # in range (checked above), even (padded)
    # A loop is one out- and one in-arc of its vertex, so with the loops a
    # vertex of out-degree k - loops[v] has degree 2k.
    out = [0] * num_vertices
    for tail in tails:
        out[tail] += 1
    bad = [v for v in range(num_vertices) if out[v] + loops[v] != k]
    if bad:
        raise ValueError(
            f"graph is not {2 * k}-regular after padding: vertex {bad[0]} has "
            f"degree {2 * (out[bad[0]] + loops[bad[0]])}"
        )
    # Arc tail -> head becomes a bipartite edge between the tail's out-copy and
    # the head's in-copy; a loop joins v's out-copy to its own in-copy. A perfect
    # matching picks one out-arc and one in-arc per vertex: degree 2. Arcs and
    # loops together are k-regular on both sides.
    arcs = [(tail, v if tail == u else u) for tail, (u, v) in zip(tails, host)]
    matchings = _decompose(num_vertices, num_vertices, arcs, list(range(len(arcs))), loops, k)
    real = len(edges)
    return [sorted(i for i in m if i < real) for m in matchings]


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
    return _decompose(num_left, num_right, edges, list(range(len(edges))), [0] * num_left, k)


def _decompose(
    num_left: int,
    num_right: int,
    edges: Sequence[tuple[int, int]],
    idxs: list[int],
    loops: list[int],
    k: int,
) -> list[list[int]]:
    """k perfect matchings of edges[idxs] plus loops[v] copies of (v, v), loops left out.

    Loops appear only when both sides are the same vertex set, as in the
    double cover; they are counted, never listed.
    """
    if not idxs:
        return [[] for _ in range(k)]  # only loops are left: each matching is loops alone
    if k == 1:
        return [idxs]
    if k % 2 == 0:
        # Orient the cover's Euler circuits; left-to-right arcs form one
        # (k/2)-regular half, right-to-left arcs the other. Each half takes
        # half of a vertex's loops; an odd one is walked, and its direction
        # says which half gains it.
        odd = [v for v, c in enumerate(loops) if c % 2]
        tails = _euler_walk(
            num_left + num_right,
            [(edges[i][0], num_left + edges[i][1]) for i in idxs]
            + [(v, num_left + v) for v in odd],
        )
        forward = [i for i, tail in zip(idxs, tails) if tail < num_left]
        backward = [i for i, tail in zip(idxs, tails) if tail >= num_left]
        loops_f = [c // 2 for c in loops]
        loops_b = loops_f.copy()
        for v, tail in zip(odd, tails[len(idxs) :]):
            (loops_f if tail < num_left else loops_b)[v] += 1
        return _decompose(num_left, num_right, edges, forward, loops_f, k // 2) + _decompose(
            num_left, num_right, edges, backward, loops_b, k // 2
        )
    matching, loops_rest = _peel_matching(num_left, num_right, edges, idxs, loops)
    taken = set(matching)
    rest = [i for i in idxs if i not in taken]
    return [matching] + _decompose(num_left, num_right, edges, rest, loops_rest, k - 1)


def _peel_matching(
    num_left: int,
    num_right: int,
    edges: Sequence[tuple[int, int]],
    idxs: list[int],
    loops: list[int],
) -> tuple[list[int], list[int]]:
    """One perfect matching of a regular bipartite multigraph, via Hopcroft-Karp.

    The loops already match each v that has one to its own right copy, so the
    search starts from that partial matching and augments from the other
    left vertices. Returns the matching's edge indices and the loop counts
    that remain.
    """
    loop = len(edges)  # candidate id loop + v stands for one of v's loops
    adj: list[list[tuple[int, int]]] = [[] for _ in range(num_left)]
    for i in idxs:
        l, r = edges[i]
        adj[l].append((i, r))
    match_l = [-1] * num_left  # edge index matched at each left vertex
    owner_r = [-1] * num_right  # left endpoint of the matched edge at each right vertex
    matched = 0
    for v, c in enumerate(loops):
        if c:
            adj[v].append((loop + v, v))
            match_l[v] = loop + v
            owner_r[v] = v
            matched += 1
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
                owner_r[r] = l
                return True
        dist[l] = -1
        return False

    while matched < num_left and bfs():
        for l in range(num_left):
            if match_l[l] == -1 and dfs(l):
                matched += 1
    if matched != num_left:
        raise RuntimeError("regular bipartite multigraph without a perfect matching: bug")
    loops_rest = loops.copy()
    matching = []
    for i in match_l:
        if i >= loop:
            loops_rest[i - loop] -= 1
        else:
            matching.append(i)
    return sorted(matching), loops_rest


def group_factors(factors: Sequence[Sequence[int]], q: int, t: int) -> list[int]:
    """Layer of every edge id when q/2 consecutive factors feed each of the t layers.

    The factors partition the edge ids 0..m-1; factor i goes to layer i // (q/2).
    Each factor contributes at most 2 to any vertex degree, so every layer's
    subgraph has maximum degree at most q.
    """
    if q < 2 or q % 2:
        raise ValueError(f"budget must be even and >= 2, got {q}")
    expected = t * q // 2
    if len(factors) != expected:
        raise ValueError(f"expected {expected} factors for t={t}, q={q}, got {len(factors)}")
    per_layer = q // 2
    edge_layer = [0] * sum(map(len, factors))
    for pos, factor in enumerate(factors):
        layer = pos // per_layer
        for eid in factor:
            edge_layer[eid] = layer
    return edge_layer
