from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridpair import (
    GridSpec,
    Trail,
    edge_count,
    from_pairing,
    parse_routing,
    verify,
    vertex_from_rank,
    vertex_rank,
)
from gridpair.errors import FormatError
from helpers import grid_edges


def _is_step(spec: GridSpec, a: int, b: int) -> bool:
    """Whether the verifier accepts a one-step trail between vertex ranks a and b."""
    dg = from_pairing(spec, [(a, b)])
    return verify(spec, dg, {0: Trail((a, b))}).ok


def _differs_in_one_coordinate(spec: GridSpec, a: int, b: int) -> bool:
    u, v = vertex_from_rank(a, spec), vertex_from_rank(b, spec)
    return sum(x != y for x, y in zip(u, v)) == 1


def test_spec_rejects_bad_parameters():
    with pytest.raises(ValueError):
        GridSpec(1, 2)
    with pytest.raises(ValueError):
        GridSpec(3, 0)
    for t, n in ((10**10, 1), (3, 10**8), (2, 24)):  # above the size budget
        with pytest.raises(ValueError):
            GridSpec(t, n)
    assert GridSpec(24, 5).num_vertices == 7_962_624


def test_is_grid_edge_examples():
    # the verifier decides adjacency from ranks: K_3^2 (0, 1) -- (0, 2) is an
    # edge, (0, 1) -- (1, 2) and a stalled step are not
    spec = GridSpec(3, 2)
    assert _is_step(spec, 1, 2)
    assert not _is_step(spec, 1, 5)
    assert not verify(spec, from_pairing(spec, [(1, 2)]), {0: Trail((1, 1, 2))}).ok
    # on every pair of K_3^2 and K_2^3 it agrees with the coordinates
    for spec in (GridSpec(3, 2), GridSpec(2, 3)):
        for a in range(spec.num_vertices):
            for b in range(spec.num_vertices):
                if a != b:
                    assert _is_step(spec, a, b) == _differs_in_one_coordinate(spec, a, b)


def test_is_grid_edge_dimension_mismatch():
    # a vertex with the wrong number of coordinates is never ranked
    with pytest.raises(ValueError):
        vertex_rank((0, 1, 2), GridSpec(3, 2))
    with pytest.raises(FormatError, match="vertex needs 2 coordinates, got 3"):
        parse_routing("ROUTING 1\n0 1 0 1 | 0 1 2\n", GridSpec(3, 2))


def test_layer_and_column_of():
    # rank r lies in layer r % t (its last coordinate) and column r // t (the
    # rank of the other coordinates one dimension down)
    spec, sub = GridSpec(8, 3), GridSpec(8, 2)
    r = vertex_rank((2, 5, 7), spec)
    assert r % 8 == 7
    assert r // 8 == vertex_rank((2, 5), sub)
    assert vertex_rank((4,), GridSpec(8, 1)) // 8 == 0
    r = vertex_rank((0, 3), sub)
    assert (r // 8, r % 8) == (0, 3)


def test_edge_count_examples():
    assert edge_count(GridSpec(3, 2)) == 18
    assert edge_count(GridSpec(2, 3)) == 12  # the 3-cube
    assert edge_count(GridSpec(18, 3)) == 148716


@pytest.mark.parametrize("t,n", [(2, 1), (3, 2), (4, 2), (2, 3), (3, 3)])
def test_edge_enumeration_matches_count(t, n):
    spec = GridSpec(t, n)
    listed = list(grid_edges(spec))
    assert len(listed) == len(set(listed)) == edge_count(spec)
    assert all(_differs_in_one_coordinate(spec, a, b) for a, b in listed)
    # the verifier accepts every edge as a step and counts each once
    dg = from_pairing(spec, listed)
    report = verify(spec, dg, {i: Trail(pair) for i, pair in enumerate(listed)})
    assert report.ok
    assert report.stats.edges_used == report.stats.edges_total == edge_count(spec)


@pytest.mark.parametrize("t,n", [(2, 2), (3, 2), (4, 2), (3, 3), (4, 3)])
def test_layers_and_columns_partition_edges(t, n):
    spec = GridSpec(t, n)
    layer_edges = Counter()
    column_edges = Counter()
    for u, v in grid_edges(spec):
        if u // t == v // t:
            column_edges[u // t] += 1
        else:
            assert u % t == v % t
            layer_edges[u % t] += 1
    per_column = t * (t - 1) // 2
    assert all(c == per_column for c in column_edges.values())
    assert len(column_edges) == t ** (n - 1)
    assert sum(layer_edges.values()) + sum(column_edges.values()) == edge_count(spec)
    if n >= 2:
        per_layer = edge_count(GridSpec(t, n - 1))
        assert all(c == per_layer for c in layer_edges.values())


def test_degree_splits_between_layer_and_column():
    spec = GridSpec(4, 3)
    t, v = spec.t, vertex_rank((1, 2, 3), spec)
    neighbours = [w for w in range(spec.num_vertices) if w != v and _is_step(spec, v, w)]
    column_deg = sum(1 for w in neighbours if w // t == v // t)
    layer_deg = sum(1 for w in neighbours if w % t == v % t)
    assert column_deg == spec.t - 1
    assert layer_deg == (spec.n - 1) * (spec.t - 1)
    assert column_deg + layer_deg == len(neighbours) == spec.n * (spec.t - 1)


@given(st.integers(2, 7), st.integers(1, 4), st.data())
def test_vertex_rank_roundtrip(t, n, data):
    spec = GridSpec(t, n)
    v = tuple(data.draw(st.integers(0, t - 1)) for _ in range(n))
    assert vertex_from_rank(vertex_rank(v, spec), spec) == v


def test_vertex_rank_orders_last_coordinate_fastest():
    spec = GridSpec(3, 2)
    coords = [(a, b) for a in range(3) for b in range(3)]
    assert [vertex_rank(v, spec) for v in coords] == list(range(9))
    assert vertex_rank((0, 1), spec) == 1
    assert vertex_rank((1, 0), spec) == 3


def test_lift_trail_examples():
    # The router lifts by rank: vertex c of a layer grid is c*t + k in layer k,
    # and vertex x of column c is c*t + x.
    t = 3
    assert [vertex_from_rank(c * t + 2, GridSpec(t, 2)) for c in (0, 1)] == [(0, 2), (1, 2)]
    c = vertex_rank((1, 1), GridSpec(t, 2))
    assert vertex_from_rank(c * t + 0, GridSpec(t, 3)) == (1, 1, 0)
    assert [vertex_from_rank(c * t + x, GridSpec(t, 3)) for x in (2, 0)] == [(1, 1, 2), (1, 1, 0)]


@given(st.integers(2, 5), st.integers(0, 4))
def test_lifted_trails_stay_in_their_layer(t, k):
    if k >= t:
        k = t - 1
    spec = GridSpec(t, 2)
    lifted = Trail(tuple(c * t + k for c in range(t)))
    dg = from_pairing(spec, [lifted.ends])
    assert verify(spec, dg, {0: lifted}).ok
    assert all(v % t == k for v in lifted.vertices)
    assert [vertex_from_rank(v, spec)[:-1] for v in lifted.vertices] == [(c,) for c in range(t)]


def test_trail_needs_a_vertex():
    with pytest.raises(ValueError):
        Trail(())


def test_vertex_from_rank_rejects_out_of_range():
    from gridpair import vertex_from_rank

    with pytest.raises(ValueError):
        vertex_from_rank(9, GridSpec(3, 2))  # valid ranks are 0..8

