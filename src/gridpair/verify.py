"""Independent routing certification, headline statistics, and the exhaustive oracle.

The verifier rebuilds edge usage from the trails alone and never trusts the
router's bookkeeping; problems are reported, not raised. The oracle is a
separate exhaustive search used to cross-check the complete-graph solver on
tiny instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .demand import DemandEdge, DemandGraph
from .errors import SizeLimitError
from .grid import GridSpec, Trail, Vertex, edge_count, vertex_from_rank

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
    """Certify a routing of vertex-rank trails against its demands.

    Checks, from the trails alone: demand-id coverage, vertex ranks in
    [0, t^n), endpoint agreement, step adjacency, and that no grid edge is
    used more than once across all trails combined (repeats within a single
    trail included). Adjacency comes from the ranks' base-t digits, not from
    the router; violation details name vertices by their coordinates.
    """
    violations: list[Violation] = []
    by_id = {d.id: d for d in dg.edges}
    for did in sorted(set(by_id) - set(routing)):
        violations.append(Violation("MISSING_DEMAND", (did,), "no trail routed"))
    for did in sorted(set(routing) - set(by_id)):
        violations.append(Violation("EXTRA_TRAIL", (did,), "trail without a demand"))

    t, size = spec.t, spec.num_vertices
    # Ranks lo < hi differ in exactly one digit, digit d, iff hi - lo = k * t^d
    # with 0 < k < t and both lie in one block of t^(d+1) consecutive ranks;
    # the digits below d then agree as well. Maps hi - lo to that block size.
    block = {k * t**d: t ** (d + 1) for d in range(spec.n) for k in range(1, t)}
    first_use: dict[int, int] = {}  # first trail of each edge
    repeats: dict[int, int] = {}  # uses of each edge taken more than once
    shared: dict[int, list[int]] = {}  # trails of each edge that more than one trail takes
    histogram: dict[int, int] = {}
    max_len = 0

    def coords(rank: int) -> Vertex:
        return vertex_from_rank(rank, spec)

    for did in sorted(routing):
        vs = routing[did].vertices
        length = len(vs) - 1
        histogram[length] = histogram.get(length, 0) + 1
        max_len = max(max_len, length)
        if min(vs) < 0 or max(vs) >= size:
            bad = next(r for r in vs if not 0 <= r < size)
            violations.append(
                Violation("BAD_VERTEX", (did,), f"vertex rank {bad} outside [0, {size})")
            )
            continue
        d = by_id.get(did)
        if d is not None and (vs[0], vs[-1]) not in ((d.u, d.v), (d.v, d.u)):
            violations.append(
                Violation(
                    "ENDPOINT_MISMATCH",
                    (did,),
                    f"trail ends ({coords(vs[0])!r}, {coords(vs[-1])!r}), "
                    f"demand joins ({coords(d.u)!r}, {coords(d.v)!r})",
                )
            )
        for u, v in zip(vs, vs[1:]):
            lo, hi = (u, v) if u < v else (v, u)
            span = block.get(hi - lo)
            if span is None or lo // span != hi // span:
                violations.append(
                    Violation("NOT_AN_EDGE", (did,), f"step {coords(u)!r} -> {coords(v)!r}")
                )
                continue
            key = lo * size + hi
            first = first_use.get(key)
            if first is None:
                first_use[key] = did
                continue
            repeats[key] = repeats.get(key, 1) + 1
            if first != did:
                users = shared.setdefault(key, [first])
                if users[-1] != did:  # trails run in id order, so each is listed once
                    users.append(did)

    def grid_order(key: int) -> tuple[int, int, int]:
        """Report order: the coordinate the edge varies (the first coordinate
        first), then its fixed coordinates, then its ends."""
        lo, hi = divmod(key, size)
        span = block[hi - lo]
        place = span // t
        return -place, lo // span * place + lo % place, key

    # The orientation of each repeated edge's first use, for the report: one
    # scan of each trail that first took a repeated edge, in id order, so an
    # edge an earlier trail took first is already set when a later one meets it.
    first_ends: dict[int, tuple[int, int]] = {}
    for did in sorted({first_use[key] for key in repeats}):
        vs = routing[did].vertices
        for u, v in zip(vs, vs[1:]):
            key = u * size + v if u < v else v * size + u
            if key in repeats and key not in first_ends:
                first_ends[key] = (u, v)

    for key in sorted(repeats, key=grid_order):
        u, v = first_ends[key]
        first = first_use[key]
        users = tuple(shared.get(key, (first,)))
        violations.append(
            Violation(
                "DUPLICATE_EDGE",
                users,
                f"edge {coords(u)!r} -- {coords(v)!r} used {repeats[key]} times",
            )
        )

    exact, tn_convention = degree_ratio(spec)
    stats = StatsBlock(
        length_histogram=histogram,
        max_trail_length=max_len,
        edges_used=len(first_use),
        edges_total=edge_count(spec),
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
    size = spec.num_vertices
    for d in demands:
        if not (0 <= d.u < size and 0 <= d.v < size):
            raise ValueError(f"demand {d.id}: vertex rank outside [0, {size})")
    t = spec.t
    places = [t**i for i in range(spec.n)]
    neighbors = {
        v: sorted(v + (b - v // w % t) * w for w in places for b in range(t) if b != v // w % t)
        for v in range(size)
    }
    catalog: dict[tuple[int, int], list[tuple[int, tuple[int, ...]]]] = {}

    def trails(u: int, v: int) -> list[tuple[int, tuple[int, ...]]]:
        found = catalog.get((u, v))
        if found is not None:
            return found
        found = []

        def walk(x: int, mask: int, path: tuple[int, ...]) -> None:
            if x == v and len(path) > 1:
                # Continuations past v only burn extra edges; prefixes suffice.
                found.append((mask, path))
                return
            if len(path) - 1 == _ORACLE_TRAIL_CAP:
                return
            for w in neighbors[x]:
                bit = 1 << (x * size + w if x < w else w * size + x)
                if mask & bit:
                    continue
                walk(w, mask | bit, path + (w,))

        walk(u, 0, (u,))
        found.sort(key=lambda entry: (len(entry[1]), entry[1]))
        catalog[(u, v)] = found
        return found

    chosen: dict[int, tuple[int, ...]] = {}

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
