"""Shared test utilities."""

from __future__ import annotations

from random import Random

from gridpair import DemandGraph, GridSpec, Trail, vertex_rank


def random_regular_multigraph(
    num_vertices: int, degree: int, rng: Random
) -> list[tuple[int, int]]:
    """Edges of a degree-regular multigraph on vertices 0..num_vertices-1.

    Configuration model: pair up degree stubs per vertex; loops and parallels
    arise naturally.
    """
    assert (num_vertices * degree) % 2 == 0
    stubs = [v for v in range(num_vertices) for _ in range(degree)]
    rng.shuffle(stubs)
    return [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]


def assert_padded_factorization(nv: int, edges, k: int, factors: list[list[int]]) -> None:
    """k factors that partition the edge ids, each adding at most 2 to every degree
    and exactly 2 where the degree is already 2k (nothing is padded there)."""
    assert len(factors) == k
    assert sorted(eid for f in factors for eid in f) == list(range(len(edges)))
    full = [0] * nv
    for u, v in edges:
        full[u] += 1
        full[v] += 1
    for f in factors:
        assert f == sorted(f)
        deg = [0] * nv
        for eid in f:
            u, v = edges[eid]
            deg[u] += 1
            deg[v] += 1
        assert all(d <= 2 for d in deg)
        assert all(d == 2 for d, dv in zip(deg, full) if dv == 2 * k)


def wrap_complete_routing(trails: dict) -> dict[int, Trail]:
    """Lift integer trails from the complete-graph solver into 1-tuple grid trails."""
    return {key: Trail(tuple((x,) for x in verts)) for key, verts in trails.items()}


def demand_graph_from_int_pairs(t: int, pairs: list[tuple[int, int]]) -> DemandGraph:
    spec = GridSpec(t, 1)
    from gridpair import from_pairing

    return from_pairing(spec, [((x,), (y,)) for x, y in pairs])


def rank_demands(dg: DemandGraph) -> list[tuple[int, int, int]]:
    """The router's (id, u rank, v rank) form of a demand graph."""
    return [(d.id, vertex_rank(d.u, dg.spec), vertex_rank(d.v, dg.spec)) for d in dg.edges]
