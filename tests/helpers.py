"""Shared test utilities."""

from __future__ import annotations

from random import Random

from gridpair import GridSpec, Trail


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
    """Trails from the complete-graph solver as grid trails: on K_t^1 a vertex is its rank."""
    return {key: Trail(tuple(verts)) for key, verts in trails.items()}


def grid_edges(spec: GridSpec):
    """Every edge of K_t^n once, as (lower rank, higher rank): the ranks differ in one digit."""
    t = spec.t
    for u in range(spec.num_vertices):
        place = 1
        for _ in range(spec.n):
            digit = u // place % t
            for b in range(digit + 1, t):
                yield u, u + (b - digit) * place
            place *= t
