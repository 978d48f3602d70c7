"""Recursive routing engine for demand multigraphs on complete grid graphs.

The engine works on vertex ranks (mixed radix, last coordinate least
significant), so rank r of K_t^n lies in column r // t and layer r % t.
Cross-column demands are rerouted through a layer chosen by 2-factorizing the
projection onto the active columns into t*q/2 factors (`two_factorization`)
and grouping q/2 of them per layer: each becomes a column hop, a layer
crossing, and a second column hop. The factorization prefers, for each
cross demand, the factors of the layer of u and then of v; any proper
colouring keeps the degree claims, and a demand that crosses in an
endpoint's own layer needs no column hop at that endpoint. Layers recurse
one dimension down, columns and one-dimensional instances are solved
directly on the complete graph, and each piece is appended at its grid
ranks to its original demand's one list, so a trail is written once.
Column and layer edge sets are pairwise disjoint, so edge-disjointness
composes across subproblems. A solve makes one `Random(seed)`, and every base
solver restart draws from it in the fixed order the recursion visits its
subproblems, so the routing depends on the (instance, seed) alone.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cache
from random import Random
from typing import Hashable, Sequence

from .demand import DemandGraph, choose_q, project, split_demands
from .errors import BaseSolverExhaustedError, ClaimViolationError
from .factorization import two_factorization
from .grid import Trail

Routing = dict[int, Trail]


@dataclass
class RouteDiagnostics:
    """Observed degree maxima, one record per subproblem split into layers and columns.

    A lone demand is never split (its trail is known), so it adds no record.
    """

    records: list[tuple[int, int, int, int, int]] = field(default_factory=list)
    # (dimension, layer max, layer bound, column max, column bound)

    def record(
        self, n: int, layer_max: int, layer_bound: int, column_max: int, column_bound: int
    ) -> None:
        self.records.append((n, layer_max, layer_bound, column_max, column_bound))


def build_subproblems(
    intra: Sequence[tuple[int, int, int]],
    cross: Sequence[tuple[int, int, int]],
    edge_layer: Sequence[int],
    t: int,
    q: int,
    n: int,
    diagnostics: RouteDiagnostics | None = None,
) -> tuple[list[list[tuple[int, int, int]]], dict[int, list[tuple[int, int, int]]]]:
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
    layers: list[list[tuple[int, int, int]]] = [[] for _ in range(t)]
    columns: defaultdict[int, list[tuple[int, int, int]]] = defaultdict(list)
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


_MAX_RESTARTS = 200
_EXHAUSTIVE_MAX_T = 8
# Cap matches the certification oracle's trail bound so feasibility verdicts agree.
_EXHAUSTIVE_TRAIL_CAP = 4


def solve_complete(
    t: int,
    demands: Sequence[tuple[Hashable, int, int]],
    seed: int | Random = 0,
) -> dict[Hashable, tuple[int, ...]]:
    """Pairwise edge-disjoint trails for demands (key, from, to) on K_t.

    Greedy passes first: direct edges, then length-2 detours through the
    least-loaded intermediate, then length-3 detours. On failure the demand
    order is reshuffled, up to 200 times, by `seed`: a Random is drawn from
    as given (the router passes its solve's one RNG), and an int becomes
    `Random(seed)` at the first failure only. For t <= 8 an exhaustive
    search runs last. Raises BaseSolverExhaustedError when everything fails.
    """
    for key, x, y in demands:
        if not (0 <= x < t and 0 <= y < t):
            raise ValueError(f"demand {key!r} endpoint outside [0, {t})")
        if x == y:
            raise ValueError(f"demand {key!r} pairs vertex {x} with itself")
    if not demands:
        return {}
    order = list(range(len(demands)))
    routed = _greedy_pass(t, demands, order)
    if routed is not None:
        return routed
    rng = seed if isinstance(seed, Random) else Random(seed)
    for _ in range(_MAX_RESTARTS):
        rng.shuffle(order)
        routed = _greedy_pass(t, demands, order)
        if routed is not None:
            return routed
    if t <= _EXHAUSTIVE_MAX_T:
        routed = _exhaustive_pass(t, demands, _EXHAUSTIVE_TRAIL_CAP)
        if routed is not None:
            return routed
        raise BaseSolverExhaustedError(
            f"no edge-disjoint trail system with length <= {_EXHAUSTIVE_TRAIL_CAP} "
            f"exists on K_{t} for demands {_triage(demands)}"
        )
    raise BaseSolverExhaustedError(
        f"greedy routing failed after {_MAX_RESTARTS} restarts on K_{t} "
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


@cache
def _layer_factors(t: int, q: int) -> tuple[tuple[int, ...], ...]:
    """The factors of each layer: layer k gets k*q/2 .. k*q/2 + q/2 - 1."""
    h = q // 2
    return tuple(tuple(range(k * h, k * h + h)) for k in range(t))


def solve(
    dg: DemandGraph,
    *,
    seed: int = 0,
    unchecked: bool = False,
    diagnostics: RouteDiagnostics | None = None,
) -> Routing:
    """Route every demand along a trail so that all trails are edge-disjoint.

    One-dimensional instances go straight to the complete-graph solver. In
    higher dimensions the cross-column demands are spread over layers by a
    2-factor decomposition, layers recurse, columns are solved directly, and
    each piece is appended, at its grid ranks, to its demand's one list. Every
    trail is a sequence of vertex ranks that starts at its demand's u, and it
    is a path: column c and layer k share only the vertex c*t + k, and every
    base-solver trail is a path, so no vertex repeats. The budget q comes
    from the maximum demand degree via choose_q; `unchecked` skips its
    feasibility gate and only rounds the degree up to even (best effort; the
    result is still worth verifying).
    """
    if not dg.edges:
        return {}
    spec, delta = dg.spec, dg.max_degree
    q = max(2, delta + delta % 2) if unchecked else choose_q(spec, delta)
    trails = {d.id: [d.u] for d in dg.edges}
    _solve_rec(spec.t, spec.n, dg.edges, q, Random(seed), 1, 0, trails, diagnostics)
    return {d.id: Trail(tuple(trails.pop(d.id))) for d in dg.edges}


def _solve_rec(
    t: int,
    n: int,
    demands: Sequence[tuple[int, int, int]],
    q: int,
    rng: Random,
    scale: int,
    offset: int,
    trails: dict[int, list[int]],
    diagnostics: RouteDiagnostics | None,
) -> None:
    """Append the trail of each demand through this K_t^n to trails[key].

    Rank r here is grid rank r*scale + offset. Each trails[key] already ends
    at its demand's u, so a piece is appended without its first vertex. A
    cross demand's pieces go in trail order: its u-side column hop, then its
    layer (depth first), then its v-side column hop.
    """
    if len(demands) == 1:
        # What the recursion gives a lone demand: it crosses in its u's layer
        # (that factor is free) and its column hop is a direct edge, so each
        # level fixes one coordinate, first to last, skipping equal ones.
        ((key, r, v),) = demands
        trail = trails[key]
        for place in (t**i for i in range(n - 1, -1, -1)):
            step = (v // place % t - r // place % t) * place
            if step:
                r += step
                trail.append(r * scale + offset)
        return
    if n == 1:
        for key, piece in solve_complete(t, demands, rng).items():
            trails[key] += [x * scale + offset for x in piece[1:]]
        return

    intra, cross = split_demands(demands, t)
    edge_layer = [0] * len(cross)
    if cross:
        active, aux = project(cross, t, n)
        own = _layer_factors(t, q)
        prefer = [own[u % t] + own[v % t] for _, u, v in cross]  # u's layer first, then v's
        factors = two_factorization(len(active), aux, t * q // 2, prefer=prefer)
        for layer, fs in enumerate(own):
            for f in fs:
                for eid in factors[f]:
                    edge_layer[eid] = layer
    layers, columns = build_subproblems(intra, cross, edge_layer, t, q, n, diagnostics)

    column_trails = {c: solve_complete(t, ds, rng) for c, ds in columns.items()}

    def append_column_piece(key: int, c: int) -> None:
        # Column c's vertex x is rank c*t + x.
        base = c * t * scale + offset
        trails[key] += [base + x * scale for x in column_trails[c][key][1:]]

    for key, u, _ in intra:
        append_column_piece(key, u // t)
    for eid, (key, u, _) in enumerate(cross):
        if u % t != edge_layer[eid]:
            append_column_piece(key, u // t)
    # Layer k's vertex c is rank c*t + k.
    for k, ds in enumerate(layers):
        if ds:
            _solve_rec(t, n - 1, ds, q, rng, scale * t, offset + k * scale, trails, diagnostics)
    for eid, (key, _, v) in enumerate(cross):
        if v % t != edge_layer[eid]:
            append_column_piece(key, v // t)
