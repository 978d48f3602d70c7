"""Recursive routing engine for demand multigraphs on complete grid graphs.

The engine works on vertex ranks (mixed radix, last coordinate least
significant), so rank r of K_t^n lies in column r // t and layer r % t.
Cross-column demands are rerouted through a layer chosen by 2-factorizing the
regularized column-projection graph: each becomes a column hop, a layer
crossing, and a second column hop. Layers recurse one dimension down, columns
and one-dimensional instances are solved directly on the complete graph, and
the pieces are concatenated per original demand. Column and layer edge sets
are pairwise disjoint, so edge-disjointness composes across subproblems.
Coordinates appear only where `solve` reads its input and builds its result.
"""

from __future__ import annotations

import hashlib
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from random import Random
from typing import Hashable, Sequence

from .demand import DemandGraph, RankDemand, choose_q, project, regularize, split_demands
from .errors import BaseSolverExhaustedError, ClaimViolationError, InfeasibleBudgetError
from .factorization import group_factors, two_factorization
from .grid import Trail, Vertex, vertex_from_rank, vertex_rank

Routing = dict[int, Trail]


@dataclass
class RouteDiagnostics:
    """Observed subproblem degree maxima, one record per recursion level."""

    records: list[tuple[int, int, int, int, int]] = field(default_factory=list)
    # (dimension, layer max, layer bound, column max, column bound)

    def record(
        self, n: int, layer_max: int, layer_bound: int, column_max: int, column_bound: int
    ) -> None:
        self.records.append((n, layer_max, layer_bound, column_max, column_bound))


def build_subproblems(
    intra: Sequence[RankDemand],
    cross: Sequence[RankDemand],
    edge_layer: Sequence[int],
    t: int,
    q: int,
    n: int,
    diagnostics: RouteDiagnostics | None = None,
) -> tuple[list[list[RankDemand]], dict[int, list[RankDemand]]]:
    """Distribute the demands of K_t^n into t layer and per-column subproblems.

    cross[i] crosses in layer k = edge_layer[i] as (key, column of u, column
    of v) on K_t^(n-1). Its connectors join the columns of u and v
    as (key, u % t, k) and (key, k, v % t); a connector vanishes when its
    endpoint already lies in layer k; a cross demand inside one column raises
    ValueError. Intra-column demands join their column as (key, u % t,
    v % t). Columns are keyed by column rank, and a key occurs at most once
    per column. Degree bounds are asserted here: a layer
    above q or a column above 2q raises ClaimViolationError, which always
    means an upstream bug.
    """
    layers: list[list[RankDemand]] = [[] for _ in range(t)]
    columns: defaultdict[int, list[RankDemand]] = defaultdict(list)
    # Endpoints as grid ranks: layer k's vertex c is grid vertex c*t + k.
    layer_ends: list[int] = []
    column_ends: list[int] = []
    for eid, (key, u, v) in enumerate(cross):
        k = edge_layer[eid]
        cu, i = divmod(u, t)
        cv, j = divmod(v, t)
        if cu == cv:
            raise ValueError(f"demand {key} lies inside column {cu}; it is not a cross demand")
        top_u, top_v = cu * t + k, cv * t + k
        layers[k].append((key, cu, cv))
        layer_ends += (top_u, top_v)
        if i != k:
            columns[cu].append((key, i, k))
            column_ends += (u, top_u)
        if j != k:
            columns[cv].append((key, k, j))
            column_ends += (top_v, v)
    for key, u, v in intra:
        c, i = divmod(u, t)
        columns[c].append((key, i, v % t))
        column_ends += (u, v)

    layer_max = column_max = 0
    if layer_ends:
        rank, layer_max = Counter(layer_ends).most_common(1)[0]
        if layer_max > q:
            raise ClaimViolationError(
                "i", f"layer {rank % t} reaches demand degree {layer_max} > q={q}"
            )
    if column_ends:
        rank, column_max = Counter(column_ends).most_common(1)[0]
        if column_max > 2 * q:
            raise ClaimViolationError(
                "ii", f"column {rank // t} reaches demand degree {column_max} > 2q={2 * q}"
            )
    if diagnostics is not None:
        diagnostics.record(n, layer_max, q, column_max, 2 * q)
    return layers, dict(columns)


_EXHAUSTIVE_MAX_T = 8
# Cap matches the certification oracle's trail bound so feasibility verdicts agree.
_EXHAUSTIVE_TRAIL_CAP = 4


def solve_complete(
    t: int,
    demands: Sequence[tuple[Hashable, int, int]],
    rng: Random | None = None,
    max_restarts: int = 200,
) -> dict[Hashable, tuple[int, ...]]:
    """Pairwise edge-disjoint trails for demands (key, from, to) on K_t.

    Greedy passes first: direct edges, then length-2 detours through the
    least-loaded intermediate, then length-3 detours. On failure the demand
    order is reshuffled, up to max_restarts times; for t <= 8 an exhaustive
    search runs last. Raises BaseSolverExhaustedError when everything fails.
    """
    for key, x, y in demands:
        if not (0 <= x < t and 0 <= y < t):
            raise ValueError(f"demand {key!r} endpoint outside [0, {t})")
        if x == y:
            raise ValueError(f"demand {key!r} pairs vertex {x} with itself")
    if not demands:
        return {}
    rng = rng if rng is not None else Random(0)
    order = list(range(len(demands)))
    for _ in range(max_restarts + 1):
        routed = _greedy_pass(t, demands, order)
        if routed is not None:
            return routed
        rng.shuffle(order)
    if t <= _EXHAUSTIVE_MAX_T:
        routed = _exhaustive_pass(t, demands, _EXHAUSTIVE_TRAIL_CAP)
        if routed is not None:
            return routed
        raise BaseSolverExhaustedError(
            f"no edge-disjoint trail system with length <= {_EXHAUSTIVE_TRAIL_CAP} "
            f"exists on K_{t} for demands {_triage(demands)}"
        )
    raise BaseSolverExhaustedError(
        f"greedy routing failed after {max_restarts} restarts on K_{t} "
        f"for demands {_triage(demands)}"
    )


def _triage(demands: Sequence[tuple[Hashable, int, int]]) -> str:
    """Render the full instance so a failure report can be replayed."""
    body = " ".join(f"{x}-{y}" for _, x, y in demands)
    return f"[{body}]"


def _greedy_pass(
    t: int,
    demands: Sequence[tuple[Hashable, int, int]],
    order: Sequence[int],
) -> dict[Hashable, tuple[int, ...]] | None:
    used = bytearray(t * t)
    load = [0] * t
    trails: dict[Hashable, tuple[int, ...]] = {}

    def edge(a: int, b: int) -> int:
        return a * t + b if a < b else b * t + a

    def commit(key: Hashable, verts: tuple[int, ...]) -> None:
        for a, b in zip(verts, verts[1:]):
            used[edge(a, b)] = 1
            load[a] += 1
            load[b] += 1
        trails[key] = verts

    detour2: list[int] = []
    for idx in order:
        key, x, y = demands[idx]
        if not used[edge(x, y)]:
            commit(key, (x, y))
        else:
            detour2.append(idx)
    detour3: list[int] = []
    for idx in detour2:
        key, x, y = demands[idx]
        best = -1
        best_load = -1
        for w in range(t):
            if w == x or w == y or used[edge(x, w)] or used[edge(w, y)]:
                continue
            if best < 0 or load[w] < best_load:
                best, best_load = w, load[w]
        if best >= 0:
            commit(key, (x, best, y))
        else:
            detour3.append(idx)
    for idx in detour3:
        key, x, y = demands[idx]
        pick: tuple[int, int] | None = None
        pick_load = -1
        for w1 in range(t):
            if w1 == x or w1 == y or used[edge(x, w1)]:
                continue
            for w2 in range(t):
                if w2 == x or w2 == y or w2 == w1:
                    continue
                if used[edge(w1, w2)] or used[edge(w2, y)]:
                    continue
                cand = load[w1] + load[w2]
                if pick is None or cand < pick_load:
                    pick, pick_load = (w1, w2), cand
        if pick is None:
            return None
        commit(key, (x, pick[0], pick[1], y))
    return trails


def _exhaustive_pass(
    t: int,
    demands: Sequence[tuple[Hashable, int, int]],
    cap: int,
) -> dict[Hashable, tuple[int, ...]] | None:
    """Depth-first search over all edge-disjoint systems with bounded trail length."""
    used = bytearray(t * t)
    result: dict[Hashable, tuple[int, ...]] = {}

    def edge(a: int, b: int) -> int:
        return a * t + b if a < b else b * t + a

    def trails_between(x: int, y: int, budget: int):
        path = [x]
        path_edges: list[int] = []

        def extend(v: int, left: int):
            if left == 0:
                if v == y:
                    yield tuple(path)
                return
            for w in range(t):
                if w == v:
                    continue
                e = edge(v, w)
                if used[e] or e in path_edges:
                    continue
                path.append(w)
                path_edges.append(e)
                yield from extend(w, left - 1)
                path.pop()
                path_edges.pop()

        yield from extend(x, budget)

    def place(i: int) -> bool:
        if i == len(demands):
            return True
        key, x, y = demands[i]
        for budget in range(1, cap + 1):
            for verts in trails_between(x, y, budget):
                for a, b in zip(verts, verts[1:]):
                    used[edge(a, b)] = 1
                if place(i + 1):
                    result[key] = verts
                    return True
                for a, b in zip(verts, verts[1:]):
                    used[edge(a, b)] = 0
        return False

    return result if place(0) else None


def _derive_seed(seed: int, tag: str, index: int) -> int:
    """Stable per-subproblem seed, independent of scheduling and worker count."""
    digest = hashlib.blake2b(f"{seed}:{tag}:{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def shorten_trail(tr: Trail) -> Trail:
    """Remove cycles at repeated vertices; keeps endpoints, never lengthens."""
    verts = list(tr.vertices)
    i = 0
    while i < len(verts):
        j = len(verts) - 1
        while j > i:
            if verts[j] == verts[i]:
                del verts[i + 1 : j + 1]
                break
            j -= 1
        i += 1
    return Trail(tuple(verts))


def solve(
    dg: DemandGraph,
    seed: int = 0,
    jobs: int = 1,
    unchecked: bool = False,
    diagnostics: RouteDiagnostics | None = None,
) -> Routing:
    """Route every demand along a trail so that all trails are edge-disjoint.

    One-dimensional instances go straight to the complete-graph solver. In
    higher dimensions the cross-column demands are spread over layers by a
    2-factor decomposition, layers recurse, columns are solved directly, and
    the pieces are concatenated per demand. Every trail starts at its
    demand's u. `unchecked` skips the degree-budget feasibility gate (best
    effort; the result is still worth verifying). `jobs` is accepted for
    compatibility and has no effect on output or speed.
    """
    if not dg.edges:
        return {}
    spec, q = dg.spec, dg.q
    if q is None:
        delta = dg.max_degree
        if unchecked:
            q = max(2, delta + delta % 2)
        else:
            q = choose_q(spec, delta)
    elif not unchecked:
        cap = spec.t // 6 - 1
        if q > cap:
            raise InfeasibleBudgetError(
                f"budget q={q} exceeds floor(t/6)-1 = {cap} for t={spec.t}"
            )
    demands = [(d.id, vertex_rank(d.u, spec), vertex_rank(d.v, spec)) for d in dg.edges]
    trails = _solve_rec(spec.t, spec.n, demands, q, seed, diagnostics)
    coords: dict[int, Vertex] = {}

    def vertex(rank: int) -> Vertex:
        v = coords.get(rank)
        if v is None:
            v = coords[rank] = vertex_from_rank(rank, spec)
        return v

    return {d.id: Trail(tuple(map(vertex, trails[d.id]))) for d in dg.edges}


def _solve_rec(
    t: int,
    n: int,
    demands: Sequence[RankDemand],
    q: int,
    seed: int,
    diagnostics: RouteDiagnostics | None,
) -> dict[int, Sequence[int]]:
    """Rank trails of K_t^n, keyed like `demands` and each starting at its demand's u."""
    if n == 1:
        return solve_complete(t, demands, Random(_derive_seed(seed, "kt", 0)))

    intra, cross = split_demands(demands, t)
    edge_layer: list[int] = []
    if cross:
        host = regularize(project(cross, t, n), t * q)
        edge_layer = group_factors(two_factorization(host, t * q // 2), q, t)
    layers, columns = build_subproblems(intra, cross, edge_layer, t, q, n, diagnostics)

    column_trails = {
        c: solve_complete(t, ds, Random(_derive_seed(seed, "column", c)))
        for c, ds in columns.items()
    }
    layer_trails = {
        k: _solve_rec(t, n - 1, ds, q, _derive_seed(seed, "layer", k), diagnostics)
        for k, ds in enumerate(layers)
        if ds
    }

    # Column c's vertex x is grid rank c*t + x; layer k's vertex c is c*t + k.
    trails: dict[int, Sequence[int]] = {}
    for key, u, _ in intra:
        c = u // t
        trails[key] = [c * t + x for x in column_trails[c][key]]
    for eid, (key, u, v) in enumerate(cross):
        k = edge_layer[eid]
        cu, cv = u // t, v // t
        trail = [u] if u % t == k else [cu * t + x for x in column_trails[cu][key]]
        trail += [c * t + k for c in layer_trails[k][key][1:]]
        if v % t != k:
            trail += [cv * t + x for x in column_trails[cv][key][1:]]
        trails[key] = trail
    return trails
