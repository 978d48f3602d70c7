import hashlib
from collections import Counter
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridpair import (
    Multigraph,
    bipartite_matching_decomposition,
    euler_orient,
    group_factors,
    two_factorization,
)
from helpers import random_regular_multigraph


def factor_degrees(g: Multigraph, factor: list[int]) -> list[int]:
    deg = [0] * g.num_vertices
    for eid in factor:
        u, v = g.edges[eid]
        deg[u] += 1
        deg[v] += 1
    return deg


def assert_valid_factorization(g: Multigraph, k: int, factors: list[list[int]]) -> None:
    assert len(factors) == k
    seen: list[int] = []
    for f in factors:
        assert all(d == 2 for d in factor_degrees(g, f))
        seen.extend(f)
    assert sorted(seen) == list(range(len(g.edges)))


def out_in_degrees(g: Multigraph) -> tuple[list[int], list[int]]:
    """Out- and in-degrees of g's edges as oriented by euler_orient."""
    out, inc = [0] * g.num_vertices, [0] * g.num_vertices
    for tail, (u, v) in zip(euler_orient(g.num_vertices, g.edges), g.edges):
        assert tail in (u, v)
        out[tail] += 1
        inc[v if tail == u else u] += 1
    return out, inc


def test_euler_orient_triangle():
    g = Multigraph(3, ((0, 1), (1, 2), (2, 0)))
    assert out_in_degrees(g) == ([1, 1, 1], [1, 1, 1])


def test_euler_orient_two_disjoint_cycles():
    g = Multigraph(8, ((0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)))
    assert out_in_degrees(g) == ([1] * 8, [1] * 8)


def test_euler_orient_double_loop():
    g = Multigraph(1, ((0, 0), (0, 0)))
    assert out_in_degrees(g) == ([2], [2])


def test_euler_orient_rejects_odd_degree():
    with pytest.raises(ValueError):
        euler_orient(2, ((0, 1),))


def test_euler_orient_rejects_edges_outside_vertex_range():
    for edges in (((0, 2), (2, 0)), ((0, -1), (-1, 0))):
        with pytest.raises(ValueError):
            euler_orient(2, edges)


@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_euler_orient_balances_random_even_graphs(seed, k, nv):
    g = random_regular_multigraph(nv, 2 * k, Random(seed))
    tails = euler_orient(nv, g.edges)
    assert len(tails) == len(g.edges)
    out, inc = out_in_degrees(g)
    assert out == inc


def test_two_factorization_identity_on_2_regular():
    g = Multigraph(5, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 3)))
    factors = two_factorization(g, 1)
    assert_valid_factorization(g, 1, factors)
    assert factors[0] == list(range(5))


def test_two_factorization_k5():
    edges = tuple(combinations(range(5), 2))
    g = Multigraph(5, edges)
    factors = two_factorization(g, 2)
    assert_valid_factorization(g, 2, factors)


def test_two_factorization_loops_only():
    g = Multigraph(1, ((0, 0), (0, 0), (0, 0)))
    factors = two_factorization(g, 3)
    assert_valid_factorization(g, 3, factors)
    assert all(len(f) == 1 for f in factors)


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
    assert group_factors([[0], [1], [2]], 2, 3) == [0, 1, 2]


def test_group_factors_q4_consecutive():
    assert group_factors([[i] for i in range(4)], 4, 2) == [0, 0, 1, 1]


def test_group_factors_wrong_count():
    with pytest.raises(ValueError):
        group_factors([[0]], 2, 3)


def test_group_factors_rejects_odd_budget():
    with pytest.raises(ValueError):
        group_factors([[0], [1], [2]], 3, 2)


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4]), st.integers(2, 8))
@settings(max_examples=30, deadline=None)
def test_grouped_layers_respect_degree_budget(seed, q, t):
    rng = Random(seed)
    nv = rng.randrange(1, 30)
    g = random_regular_multigraph(nv, t * q, rng)
    factors = two_factorization(g, t * q // 2)
    edge_layer = group_factors(factors, q, t)
    assert len(edge_layer) == len(g.edges)
    per_layer_deg: dict[int, Counter] = {}
    for eid, layer in enumerate(edge_layer):
        u, v = g.edges[eid]
        deg = per_layer_deg.setdefault(layer, Counter())
        deg[u] += 1
        deg[v] += 1
    for deg in per_layer_deg.values():
        assert max(deg.values()) <= q


# (vertices, k, seed): 2k-regular configuration-model graphs. k = 3 and 9 peel
# a matching first; k = 6 and the even remainders split along Euler circuits.
FACTOR_GOLDEN = {
    (18, 3, 1): "e532264dec4b86734211f2093b180446ef0919051aa98f0fcc3385976b546185",
    (30, 6, 2): "a309f1ee06489fd0c37571dafb8d268b221a765c1bb2eaf909699f0bb441505f",
    (36, 9, 3): "bf4de12fbbbb8f3fff97615dbf473fba680eca2de2edc4c7cf6695721cd3ef3e",
    (7, 9, 4): "6f77299300a767ad047e9d482b064f5e49e81cf91ea9c3eb249ac4545aa8aaed",
    (55, 6, 5): "aff15e31b738e869f3d98e2cd11d7e03420d1bae7909ab98a2798fd82d4d3a9d",
}


def factor_digest(factors) -> str:
    """sha256 of the factors' edge ids, one comma-joined factor per ';' field."""
    body = ";".join(",".join(map(str, f)) for f in factors)
    return hashlib.sha256(body.encode()).hexdigest()


@pytest.mark.parametrize("nv, k, seed", sorted(FACTOR_GOLDEN))
def test_two_factorization_golden(nv, k, seed):
    g = random_regular_multigraph(nv, 2 * k, Random(seed))
    assert factor_digest(two_factorization(g, k)) == FACTOR_GOLDEN[nv, k, seed]
