"""Independent routing certification, headline statistics, and the exhaustive oracle.

The verifier rebuilds edge usage from the trails alone and never trusts the
router's bookkeeping; problems are reported, not raised. The oracle is a
separate exhaustive search used to cross-check the complete-graph solver on
tiny instances.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Mapping, Sequence

from .demand import DemandEdge, DemandGraph
from .errors import SizeLimitError
from .grid import GridSpec, Trail, Vertex, edge_count, edge_rank

_ORACLE_MAX_EDGES = 100
_ORACLE_MAX_DEMANDS = 8
_ORACLE_TRAIL_CAP = 4  # sufficient for every cross-check instance; documented limit


@dataclass(frozen=True)
class Violation:
    kind: str
    demand_ids: tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class StatsBlock:
    """Routing statistics; degree ratios use base-2 logarithms."""

    length_histogram: dict[int, int]
    max_trail_length: int
    edges_used: int
    edges_total: int
    degree_ratio_exact: float  # n(t-1) / log2(N)
    degree_ratio_tn: float  # t*n / log2(N)


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    violations: tuple[Violation, ...]
    stats: StatsBlock


def degree_ratio(spec: GridSpec) -> tuple[float, float]:
    """Maximum degree over log2(N): exact n(t-1) convention, then the t*n convention.

    Both are independent of n: n(t-1)/log2(t^n) = (t-1)/log2(t).
    """
    log_t = math.log2(spec.t)
    return (spec.t - 1) / log_t, spec.t / log_t


def verify(
    spec: GridSpec, dg: DemandGraph, routing: Mapping[int, Trail]
) -> VerificationReport:
    """Certify a routing against its demands.

    Checks, from the trails alone: demand-id coverage, endpoint agreement,
    step adjacency, and that no grid edge is used more than once across all
    trails combined (repeats within a single trail included).
    """
    violations: list[Violation] = []
    by_id = {d.id: d for d in dg.edges}
    for did in sorted(set(by_id) - set(routing)):
        violations.append(Violation("MISSING_DEMAND", (did,), "no trail routed"))
    for did in sorted(set(routing) - set(by_id)):
        violations.append(Violation("EXTRA_TRAIL", (did,), "trail without a demand"))

    total = edge_count(spec)
    # Dense ledger for O(1) checks at the sizes routing targets; sparse map
    # beyond that so a crafted huge header cannot force the allocation.
    counts: dict[int, int] | list[int]
    counts = [0] * total if total <= 8_000_000 else defaultdict(int)
    first_use: dict[int, tuple[Vertex, Vertex, int]] = {}  # endpoints and first trail
    shared: dict[int, list[int]] = {}  # trails of each edge that more than one trail takes
    histogram: dict[int, int] = {}
    max_len = 0
    for did in sorted(routing):
        tr = routing[did]
        histogram[tr.length] = histogram.get(tr.length, 0) + 1
        max_len = max(max_len, tr.length)
        bad_vertex = next(
            (
                v
                for v in tr.vertices
                if len(v) != spec.n or any(not 0 <= c < spec.t for c in v)
            ),
            None,
        )
        if bad_vertex is not None:
            violations.append(Violation("BAD_VERTEX", (did,), f"vertex {bad_vertex!r}"))
            continue
        d = by_id.get(did)
        if d is not None and {tr.vertices[0], tr.vertices[-1]} != {d.u, d.v}:
            violations.append(
                Violation(
                    "ENDPOINT_MISMATCH",
                    (did,),
                    f"trail ends {tr.ends!r}, demand joins ({d.u!r}, {d.v!r})",
                )
            )
        for u, v in tr.edges():
            if sum(a != b for a, b in zip(u, v)) != 1:
                violations.append(Violation("NOT_AN_EDGE", (did,), f"step {u!r} -> {v!r}"))
                continue
            rank = edge_rank(u, v, spec)
            counts[rank] += 1
            first = first_use.setdefault(rank, (u, v, did))[2]
            if first != did:
                users = shared.setdefault(rank, [first])
                if users[-1] != did:  # trails run in id order, so each is listed once
                    users.append(did)

    for rank in sorted(first_use):
        if counts[rank] > 1:
            u, v, first = first_use[rank]
            users = tuple(shared.get(rank, (first,)))
            violations.append(
                Violation(
                    "DUPLICATE_EDGE", users, f"edge {u!r} -- {v!r} used {counts[rank]} times"
                )
            )

    exact, tn_convention = degree_ratio(spec)
    stats = StatsBlock(
        length_histogram=histogram,
        max_trail_length=max_len,
        edges_used=len(first_use),
        edges_total=total,
        degree_ratio_exact=exact,
        degree_ratio_tn=tn_convention,
    )
    return VerificationReport(not violations, tuple(violations), stats)


def oracle_solve(
    spec: GridSpec, demands: Sequence[DemandEdge]
) -> dict[int, Trail] | None:
    """Ground-truth search for an edge-disjoint trail system on a tiny instance.

    Demands are processed in the given order; for each, candidate trails over
    still-unused edges are tried shortest first, backtracking across demands.
    Trails are capped at 4 edges. Returns None when no system exists within
    that cap; raises SizeLimitError beyond the search bounds.
    """
    total = edge_count(spec)
    if total > _ORACLE_MAX_EDGES or len(demands) > _ORACLE_MAX_DEMANDS:
        raise SizeLimitError(
            f"instance has {total} edges / {len(demands)} demands; oracle handles "
            f"at most {_ORACLE_MAX_EDGES} edges and {_ORACLE_MAX_DEMANDS} demands"
        )
    for d in demands:
        spec.check_vertex(d.u)
        spec.check_vertex(d.v)
    verts = list(spec.vertices())
    neighbors: dict[Vertex, list[Vertex]] = {
        v: [w for w in verts if sum(a != b for a, b in zip(v, w)) == 1] for v in verts
    }
    catalog: dict[tuple[Vertex, Vertex], list[tuple[int, tuple[Vertex, ...]]]] = {}

    def trails(u: Vertex, v: Vertex) -> list[tuple[int, tuple[Vertex, ...]]]:
        found = catalog.get((u, v))
        if found is not None:
            return found
        found = []

        def walk(x: Vertex, mask: int, path: tuple[Vertex, ...]) -> None:
            if x == v and len(path) > 1:
                # Continuations past v only burn extra edges; prefixes suffice.
                found.append((mask, path))
                return
            if len(path) - 1 == _ORACLE_TRAIL_CAP:
                return
            for w in neighbors[x]:
                bit = 1 << edge_rank(x, w, spec)
                if mask & bit:
                    continue
                walk(w, mask | bit, path + (w,))

        walk(u, 0, (u,))
        found.sort(key=lambda entry: (len(entry[1]), entry[1]))
        catalog[(u, v)] = found
        return found

    chosen: dict[int, tuple[Vertex, ...]] = {}

    def place(i: int, used_mask: int) -> bool:
        if i == len(demands):
            return True
        d = demands[i]
        for mask, path in trails(d.u, d.v):
            if mask & used_mask:
                continue
            if place(i + 1, used_mask | mask):
                chosen[d.id] = path
                return True
        return False

    if not place(0, 0):
        return None
    return {did: Trail(path) for did, path in chosen.items()}
