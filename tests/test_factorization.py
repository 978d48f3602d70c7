from collections import Counter
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridpair import (
    Multigraph,
    TwoFactor,
    bipartite_matching_decomposition,
    euler_orient,
    group_factors,
    two_factorization,
)
from helpers import random_regular_multigraph


def factor_degrees(g: Multigraph, factor: TwoFactor) -> list[int]:
    deg = [0] * g.num_vertices
    for eid in factor.edge_ids:
        u, v = g.edges[eid]
        deg[u] += 1
        deg[v] += 1
    return deg


def assert_valid_factorization(g: Multigraph, k: int, factors: list[TwoFactor]) -> None:
    assert len(factors) == k
    seen: list[int] = []
    for f in factors:
        assert all(d == 2 for d in factor_degrees(g, f))
        seen.extend(f.edge_ids)
    assert sorted(seen) == list(range(len(g.edges)))


def test_euler_orient_triangle():
    g = Multigraph(3, ((0, 1), (1, 2), (2, 0)))
    o = euler_orient(g)
    assert o.in_degrees(3) == [1, 1, 1]
    assert o.out_degrees(3) == [1, 1, 1]


def test_euler_orient_two_disjoint_cycles():
    g = Multigraph(8, ((0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)))
    o = euler_orient(g)
    assert o.in_degrees(8) == [1] * 8
    assert o.out_degrees(8) == [1] * 8


def test_euler_orient_double_loop():
    g = Multigraph(1, ((0, 0), (0, 0)))
    o = euler_orient(g)
    assert o.in_degrees(1) == [2]
    assert o.out_degrees(1) == [2]


def test_euler_orient_rejects_odd_degree():
    with pytest.raises(ValueError):
        euler_orient(Multigraph(2, ((0, 1),)))


@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_euler_orient_balances_random_even_graphs(seed, k, nv):
    g = random_regular_multigraph(nv, 2 * k, Random(seed))
    o = euler_orient(g)
    assert o.in_degrees(nv) == o.out_degrees(nv)
    assert len(o.arcs) == len(g.edges)
    assert Counter(tuple(sorted(a)) for a in o.arcs) == Counter(
        tuple(sorted(e)) for e in g.edges
    )


def test_two_factorization_identity_on_2_regular():
    g = Multigraph(5, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 3)))
    factors = two_factorization(g, 1)
    assert_valid_factorization(g, 1, factors)
    assert factors[0].edge_ids == tuple(range(5))


def test_two_factorization_k5():
    edges = tuple(combinations(range(5), 2))
    g = Multigraph(5, edges)
    factors = two_factorization(g, 2)
    assert_valid_factorization(g, 2, factors)


def test_two_factorization_loops_only():
    g = Multigraph(1, ((0, 0), (0, 0), (0, 0)))
    factors = two_factorization(g, 3)
    assert_valid_factorization(g, 3, factors)
    assert all(len(f.edge_ids) == 1 for f in factors)


def test_two_factorization_rejects_irregular():
    with pytest.raises(ValueError):
        two_factorization(Multigraph(3, ((0, 1), (1, 2), (2, 0), (0, 1))), 2)


def test_two_factorization_is_deterministic():
    g = random_regular_multigraph(30, 6, Random(99))
    a = two_factorization(g, 3)
    b = two_factorization(g, 3)
    assert a == b


@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 6]), st.integers(1, 60))
@settings(max_examples=40, deadline=None)
def test_two_factorization_property(seed, k, nv):
    g = random_regular_multigraph(nv, 2 * k, Random(seed))
    assert_valid_factorization(g, k, two_factorization(g, k))


def test_matching_decomposition_1_regular_identity():
    edges = ((0, 1), (1, 0), (2, 2))
    out = bipartite_matching_decomposition(3, 3, edges, 1)
    assert out == [[0, 1, 2]]


def test_matching_decomposition_even_cycles():
    # a bipartite 4-cycle as a 2-regular multigraph: alternating edges split out
    edges = ((0, 0), (0, 1), (1, 1), (1, 0))
    out = bipartite_matching_decomposition(2, 2, edges, 2)
    assert len(out) == 2
    for matching in out:
        lefts = [edges[i][0] for i in matching]
        rights = [edges[i][1] for i in matching]
        assert sorted(lefts) == [0, 1]
        assert sorted(rights) == [0, 1]
    assert sorted(out[0] + out[1]) == [0, 1, 2, 3]


def test_matching_decomposition_k44():
    edges = tuple((l, r) for l in range(4) for r in range(4))
    out = bipartite_matching_decomposition(4, 4, edges, 4)
    assert len(out) == 4
    seen = []
    for matching in out:
        assert sorted(edges[i][0] for i in matching) == [0, 1, 2, 3]
        assert sorted(edges[i][1] for i in matching) == [0, 1, 2, 3]
        seen.extend(matching)
    assert sorted(seen) == list(range(16))


def test_matching_decomposition_rejects_irregular():
    with pytest.raises(ValueError):
        bipartite_matching_decomposition(2, 2, ((0, 0), (0, 1), (1, 0)), 2)


@given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(1, 25))
@settings(max_examples=40, deadline=None)
def test_matching_decomposition_property(seed, k, side):
    rng = Random(seed)
    # random k-regular bipartite multigraph: union of k random permutations
    edges = []
    for _ in range(k):
        perm = list(range(side))
        rng.shuffle(perm)
        edges.extend((l, perm[l]) for l in range(side))
    out = bipartite_matching_decomposition(side, side, tuple(edges), k)
    assert len(out) == k
    seen = []
    for matching in out:
        assert sorted(edges[i][0] for i in matching) == list(range(side))
        assert sorted(edges[i][1] for i in matching) == list(range(side))
        seen.extend(matching)
    assert sorted(seen) == list(range(len(edges)))


def test_group_factors_q2():
    factors = [TwoFactor((0,)), TwoFactor((1,)), TwoFactor((2,))]
    assignment = group_factors(factors, 2, 3)
    assert assignment.edge_layer == {0: 0, 1: 1, 2: 2}


def test_group_factors_q4_consecutive():
    factors = [TwoFactor((i,)) for i in range(4)]
    assignment = group_factors(factors, 4, 2)
    assert assignment.edge_layer == {0: 0, 1: 0, 2: 1, 3: 1}


def test_group_factors_wrong_count():
    with pytest.raises(ValueError):
        group_factors([TwoFactor((0,))], 2, 3)


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4]), st.integers(2, 8))
@settings(max_examples=30, deadline=None)
def test_grouped_layers_respect_degree_budget(seed, q, t):
    rng = Random(seed)
    nv = rng.randrange(1, 30)
    g = random_regular_multigraph(nv, t * q, rng)
    factors = two_factorization(g, t * q // 2)
    assignment = group_factors(factors, q, t)
    per_layer_deg: dict[int, Counter] = {}
    for eid, layer in assignment.edge_layer.items():
        u, v = g.edges[eid]
        deg = per_layer_deg.setdefault(layer, Counter())
        deg[u] += 1
        deg[v] += 1
    for deg in per_layer_deg.values():
        assert max(deg.values()) <= q
