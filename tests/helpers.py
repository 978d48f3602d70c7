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
