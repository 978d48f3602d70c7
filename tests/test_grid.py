from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridpair import (
    GridSpec,
    Trail,
    column_of,
    edge_count,
    edge_rank,
    edges,
    is_grid_edge,
    layer_of,
    vertex_from_rank,
    vertex_rank,
)


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
    spec = GridSpec(3, 2)
    assert is_grid_edge((0, 1), (0, 2), spec)
    assert not is_grid_edge((0, 1), (1, 2), spec)
    assert not is_grid_edge((0, 1), (0, 1), spec)


def test_is_grid_edge_dimension_mismatch():
    with pytest.raises(ValueError):
        is_grid_edge((0, 1), (0, 1, 2), GridSpec(3, 2))


def test_layer_and_column_of():
    assert layer_of((2, 5, 7)) == 7
    assert layer_of((4,)) == 4
    assert layer_of((0, 0)) == 0
    assert column_of((2, 5, 7)) == (2, 5)
    assert column_of((4,)) == ()
    assert column_of((0, 3)) == (0,)


def test_edge_count_examples():
    assert edge_count(GridSpec(3, 2)) == 18
    assert edge_count(GridSpec(2, 3)) == 12  # the 3-cube
    assert edge_count(GridSpec(18, 3)) == 148716


@pytest.mark.parametrize("t,n", [(2, 1), (3, 2), (4, 2), (2, 3), (3, 3)])
def test_edge_enumeration_matches_count(t, n):
    spec = GridSpec(t, n)
    listed = list(edges(spec))
    assert len(listed) == edge_count(spec)
    assert len({edge_rank(u, v, spec) for u, v in listed}) == len(listed)


@pytest.mark.parametrize("t,n", [(2, 2), (3, 2), (4, 2), (3, 3), (4, 3)])
def test_layers_and_columns_partition_edges(t, n):
    spec = GridSpec(t, n)
    layer_edges = Counter()
    column_edges = Counter()
    for u, v in edges(spec):
        if column_of(u) == column_of(v):
            column_edges[column_of(u)] += 1
        else:
            assert layer_of(u) == layer_of(v)
            layer_edges[layer_of(u)] += 1
    per_column = t * (t - 1) // 2
    assert all(c == per_column for c in column_edges.values())
    assert len(column_edges) == t ** (n - 1)
    assert sum(layer_edges.values()) + sum(column_edges.values()) == edge_count(spec)
    if n >= 2:
        per_layer = edge_count(GridSpec(t, n - 1))
        assert all(c == per_layer for c in layer_edges.values())


def test_degree_splits_between_layer_and_column():
    spec = GridSpec(4, 3)
    v = (1, 2, 3)
    column_deg = sum(1 for w in spec.vertices() if is_grid_edge(v, w, spec) and column_of(w) == column_of(v))
    layer_deg = sum(1 for w in spec.vertices() if is_grid_edge(v, w, spec) and layer_of(w) == layer_of(v))
    assert column_deg == spec.t - 1
    assert layer_deg == (spec.n - 1) * (spec.t - 1)
    assert column_deg + layer_deg == spec.degree


@given(st.integers(2, 7), st.integers(1, 4), st.data())
def test_vertex_rank_roundtrip(t, n, data):
    spec = GridSpec(t, n)
    v = tuple(data.draw(st.integers(0, t - 1)) for _ in range(n))
    assert vertex_from_rank(vertex_rank(v, spec), spec) == v


def test_vertex_rank_orders_last_coordinate_fastest():
    spec = GridSpec(3, 2)
    ranked = sorted(spec.vertices(), key=lambda v: vertex_rank(v, spec))
    assert ranked == list(spec.vertices())
    assert vertex_rank((0, 1), spec) == 1
    assert vertex_rank((1, 0), spec) == 3


def test_edge_rank_rejects_non_edges():
    spec = GridSpec(3, 2)
    with pytest.raises(ValueError):
        edge_rank((0, 0), (1, 1), spec)
    with pytest.raises(ValueError):
        edge_rank((0, 0), (0, 0), spec)


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
    lifted = Trail(tuple(vertex_from_rank(c * t + k, spec) for c in range(t)))
    lifted.validate(spec)
    assert all(layer_of(v) == k for v in lifted.vertices)
    assert [v[:-1] for v in lifted.vertices] == [(c,) for c in range(t)]


def test_trail_validate_catches_bad_steps():
    spec = GridSpec(3, 2)
    with pytest.raises(ValueError):
        Trail(((0, 0), (1, 1))).validate(spec)
    with pytest.raises(ValueError):
        Trail(((0, 0), (0, 1), (0, 0), (0, 1))).validate(spec)  # edge repeats
    Trail(((0, 0), (0, 1), (1, 1), (1, 0), (0, 0))).validate(spec)  # cycle is fine


def test_trail_needs_a_vertex():
    with pytest.raises(ValueError):
        Trail(())


def test_sub_grid_requires_two_dimensions():
    assert GridSpec(5, 3).sub() == GridSpec(5, 2)
    with pytest.raises(ValueError):
        GridSpec(5, 1).sub()


def test_vertex_from_rank_rejects_out_of_range():
    from gridpair import vertex_from_rank

    with pytest.raises(ValueError):
        vertex_from_rank(9, GridSpec(3, 2))  # valid ranks are 0..8

