import hashlib
import time
from collections import Counter
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridpair import factorization, two_factorization
from helpers import assert_padded_factorization, random_regular_multigraph


def factor_degrees(nv: int, edges, factor: list[int]) -> list[int]:
    deg = [0] * nv
    for eid in factor:
        u, v = edges[eid]
        deg[u] += 1
        deg[v] += 1
    return deg


def assert_valid_factorization(nv: int, edges, k: int, factors: list[list[int]]) -> None:
    assert len(factors) == k
    seen: list[int] = []
    for f in factors:
        assert all(d == 2 for d in factor_degrees(nv, edges, f))
        seen.extend(f)
    assert sorted(seen) == list(range(len(edges)))


def out_in_degrees(nv: int, edges) -> tuple[list[int], list[int]]:
    """Out- and in-degrees of the edges as oriented by the Euler walk."""
    out, inc = [0] * nv, [0] * nv
    for tail, (u, v) in zip(factorization._euler_walk(nv, edges), edges):
        assert tail in (u, v)
        out[tail] += 1
        inc[v if tail == u else u] += 1
    return out, inc


def test_euler_orient_triangle():
    assert out_in_degrees(3, ((0, 1), (1, 2), (2, 0))) == ([1, 1, 1], [1, 1, 1])


def test_euler_orient_two_disjoint_cycles():
    edges = ((0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4))
    assert out_in_degrees(8, edges) == ([1] * 8, [1] * 8)


def test_euler_orient_double_loop():
    assert out_in_degrees(1, ((0, 0), (0, 0))) == ([2], [2])


@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_euler_orient_balances_random_even_graphs(seed, k, nv):
    edges = random_regular_multigraph(nv, 2 * k, Random(seed))
    tails = factorization._euler_walk(nv, edges)
    assert len(tails) == len(edges)
    out, inc = out_in_degrees(nv, edges)
    assert out == inc


def test_two_factorization_identity_on_2_regular():
    edges = ((0, 1), (1, 2), (2, 0), (3, 4), (4, 3))
    factors = two_factorization(5, edges, 1)
    assert_valid_factorization(5, edges, 1, factors)
    assert factors[0] == list(range(5))


def test_two_factorization_k5():
    edges = tuple(combinations(range(5), 2))
    factors = two_factorization(5, edges, 2)
    assert_valid_factorization(5, edges, 2, factors)


def test_two_factorization_loops_only():
    edges = ((0, 0), (0, 0), (0, 0))
    factors = two_factorization(1, edges, 3)
    assert_valid_factorization(1, edges, 3, factors)
    assert all(len(f) == 1 for f in factors)


def test_two_factorization_rejects_irregular():
    # degrees 3, 3, 2: deficient vertices are padded, but 3 > 2k = 2 cannot be
    with pytest.raises(ValueError):
        two_factorization(3, ((0, 1), (1, 2), (2, 0), (0, 1)), 1)
    # endpoint outside the 2 vertices; doubled, so every degree stays even
    for edges in (((0, 2), (2, 0)), ((0, -1), (-1, 0))):
        with pytest.raises(ValueError):
            two_factorization(2, edges, 1)


def test_two_factorization_is_deterministic():
    edges = random_regular_multigraph(30, 6, Random(99))
    a = two_factorization(30, edges, 3)
    b = two_factorization(30, edges, 3)
    assert a == b


@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 6]), st.integers(1, 60))
@settings(max_examples=40, deadline=None)
def test_two_factorization_property(seed, k, nv):
    edges = random_regular_multigraph(nv, 2 * k, Random(seed))
    assert_valid_factorization(nv, edges, k, two_factorization(nv, edges, k))


def bounded_multigraph(nv: int, k: int, rng: Random) -> list[tuple[int, int]]:
    """Random multigraph of maximum degree <= 2k with loops and odd deficiencies."""
    deg = [0] * nv
    edges = []
    for _ in range(rng.randrange(nv * k + 1)):
        u = rng.randrange(nv)
        v = u if rng.random() < 0.2 else rng.randrange(nv)
        if deg[u] + 1 + (u == v) > 2 * k or deg[v] + 1 > 2 * k:
            continue
        deg[u] += 1
        deg[v] += 1
        edges.append((u, v))
    return edges


@given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(1, 30), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_two_factorization_pads_bounded_degree_graphs(seed, k, nv, isolated):
    # `isolated` extra vertices that no edge touches
    edges = bounded_multigraph(nv, k, Random(seed))
    num_vertices = nv + isolated
    factors = two_factorization(num_vertices, edges, k)
    assert_padded_factorization(num_vertices, edges, k, factors)


def test_two_factorization_star_with_many_factors():
    # 500 edges, 10^5 factors: the colour table must grow with the edges, not
    # with k (a dense table would hold 10^8 slots)
    edges = [(0, i) for i in range(1, 501)]
    start = time.perf_counter()
    factors = two_factorization(501, edges, 10**5)
    elapsed = time.perf_counter() - start
    assert_padded_factorization(501, edges, 10**5, factors)
    assert elapsed < 1.0, f"two_factorization took {elapsed:.2f} s"


@given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(1, 30))
@settings(max_examples=60, deadline=None)
def test_two_factorization_with_preferences_stays_valid(seed, k, nv):
    # preferences that clash everywhere still give factors of degree <= 2
    rng = Random(seed)
    edges = bounded_multigraph(nv, k, rng)
    prefer = [tuple(rng.randrange(k) for _ in range(rng.randrange(4))) for _ in edges]
    assert_padded_factorization(nv, edges, k, two_factorization(nv, edges, k, prefer=prefer))


def test_two_factorization_takes_free_preferred_factors():
    assert two_factorization(2, [(0, 1)], 5, prefer=[(3, 1)]) == [[], [], [], [0], []]
    cycle = [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert two_factorization(4, cycle, 3, prefer=[(2,)] * 4) == [[], [], [0, 1, 2, 3]]
    # two loops at one vertex cannot share a factor; the second takes its next choice
    assert two_factorization(1, [(0, 0), (0, 0)], 3, prefer=[(1,), (1, 2)]) == [[], [0], [1]]
    # and with no preferred factor free, the first free factor
    assert two_factorization(1, [(0, 0), (0, 0)], 3, prefer=[(1,), (1,)]) == [[1], [0], []]


def test_two_factorization_rejects_bad_preferences():
    for prefer in ([(0,)], [(0,), (3,)], [(0,), (-1,)]):
        with pytest.raises(ValueError):
            two_factorization(3, [(0, 1), (1, 2)], 3, prefer=prefer)


@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_edge_colouring_takes_a_preferred_colour_free_at_both_ends(seed, k, nv):
    # Edges are coloured in order, so colouring the prefix edges[:m] replays
    # the state the full run had before edge m. If one of its preferred
    # colours is free at both ends there, edge m takes the first such colour
    # and no earlier edge is recoloured.
    rng = Random(seed)
    left, right = [0] * nv, [0] * nv
    edges = []
    for _ in range(rng.randrange(nv * k + 1)):
        x, y = rng.randrange(nv), rng.randrange(nv)
        if left[x] < k and right[y] < k:
            left[x] += 1
            right[y] += 1
            edges.append((x, y))
    prefer = [tuple(rng.randrange(k) for _ in range(rng.randrange(4))) for _ in edges]
    before: list[list[int]] = [[] for _ in range(k)]
    for m, (x, y) in enumerate(edges):
        after = factorization._edge_colouring(nv, edges[: m + 1], k, prefer[: m + 1])
        busy = {c for c, cls in enumerate(before) for e in cls if edges[e][0] == x}
        busy |= {c for c, cls in enumerate(before) for e in cls if edges[e][1] == y}
        free = [c for c in prefer[m] if c not in busy]
        if free:
            assert m in after[free[0]]
            assert [[e for e in cls if e != m] for cls in after] == before
        before = after


def test_matching_decomposition_1_regular_identity():
    edges = ((0, 1), (1, 0), (2, 2))
    out = factorization._edge_colouring(3, edges, 1)
    assert out == [[0, 1, 2]]


def test_matching_decomposition_even_cycles():
    # a bipartite 4-cycle as a 2-regular multigraph: alternating edges split out
    edges = ((0, 0), (0, 1), (1, 1), (1, 0))
    out = factorization._edge_colouring(2, edges, 2)
    assert len(out) == 2
    for matching in out:
        lefts = [edges[i][0] for i in matching]
        rights = [edges[i][1] for i in matching]
        assert sorted(lefts) == [0, 1]
        assert sorted(rights) == [0, 1]
    assert sorted(out[0] + out[1]) == [0, 1, 2, 3]


def test_matching_decomposition_k44():
    edges = tuple((l, r) for l in range(4) for r in range(4))
    out = factorization._edge_colouring(4, edges, 4)
    assert len(out) == 4
    seen = []
    for matching in out:
        assert sorted(edges[i][0] for i in matching) == [0, 1, 2, 3]
        assert sorted(edges[i][1] for i in matching) == [0, 1, 2, 3]
        seen.extend(matching)
    assert sorted(seen) == list(range(16))


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
    out = factorization._edge_colouring(side, tuple(edges), k)
    assert len(out) == k
    seen = []
    for matching in out:
        assert sorted(edges[i][0] for i in matching) == list(range(side))
        assert sorted(edges[i][1] for i in matching) == list(range(side))
        seen.extend(matching)
    assert sorted(seen) == list(range(len(edges)))


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4]), st.integers(2, 8))
@settings(max_examples=30, deadline=None)
def test_grouped_layers_respect_degree_budget(seed, q, t):
    rng = Random(seed)
    nv = rng.randrange(1, 30)
    edges = random_regular_multigraph(nv, t * q, rng)
    factors = two_factorization(nv, edges, t * q // 2)
    per_layer_deg: dict[int, Counter] = {}
    for f, factor in enumerate(factors):
        deg = per_layer_deg.setdefault(f // (q // 2), Counter())
        for eid in factor:
            u, v = edges[eid]
            deg[u] += 1
            deg[v] += 1
    for deg in per_layer_deg.values():
        assert max(deg.values()) <= q


# (vertices, k, seed): 2k-regular configuration-model graphs, loops and
# parallel edges included, so the colouring meets alternating-path swaps.
FACTOR_GOLDEN = {
    (18, 3, 1): "251bc9fd607379437a855a1f849b42aa64f9333cbd2f8c959f5667cd6470dda2",
    (30, 6, 2): "cef261586150e991f25b00155fcb2e24a7361835d79995b0d2cb3a220f3e5c85",
    (36, 9, 3): "63c957e9bdbfcb13b8e7d2ede22077bcf6f56f6baa5d70ba23724ca6cae2e339",
    (7, 9, 4): "c6713ed892f6c87a54ec3c9a06a0a328c94638ee977356505cea79d3ac51ba48",
    (55, 6, 5): "5c20de025be863397dcd63953793810f853dc49692c3d504883f1c3d67df7904",
}


def factor_digest(factors) -> str:
    """sha256 of the factors' edge ids, one comma-joined factor per ';' field."""
    body = ";".join(",".join(map(str, f)) for f in factors)
    return hashlib.sha256(body.encode()).hexdigest()


@pytest.mark.parametrize("nv, k, seed", sorted(FACTOR_GOLDEN))
def test_two_factorization_golden(nv, k, seed):
    edges = random_regular_multigraph(nv, 2 * k, Random(seed))
    assert factor_digest(two_factorization(nv, edges, k)) == FACTOR_GOLDEN[nv, k, seed]
