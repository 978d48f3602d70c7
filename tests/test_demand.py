from collections import Counter
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridpair import (
    GridSpec,
    choose_q,
    from_pairing,
    random_demand_multigraph,
    random_pairing,
    solve,
    two_factorization,
)
from gridpair.demand import project, split_demands
from gridpair.errors import InfeasibleBudgetError
from helpers import assert_padded_factorization


def degrees(nv: int, edges) -> list[int]:
    deg = [0] * nv
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def test_from_pairing_single_pair():
    dg = from_pairing(GridSpec(2, 1), [(0, 1)])
    assert len(dg.edges) == 1
    assert dg.max_degree == 1


def test_from_pairing_two_pairs():
    dg = from_pairing(GridSpec(3, 2), [(0, 8), (1, 3)])  # (0, 0)-(2, 2), (0, 1)-(1, 0)
    assert dg.max_degree == 1
    assert len(dg.edges) == 2


def test_from_pairing_rejects_self_demand():
    with pytest.raises(ValueError):
        from_pairing(GridSpec(2, 1), [(0, 0)])


def test_from_pairing_rejects_out_of_range():
    with pytest.raises(ValueError):
        from_pairing(GridSpec(2, 1), [(0, 5)])
    with pytest.raises(ValueError):
        from_pairing(GridSpec(2, 1), [(-1, 1)])


def test_choose_q_examples():
    assert choose_q(GridSpec(18, 2), 1) == 2
    assert choose_q(GridSpec(30, 2), 3) == 4
    with pytest.raises(InfeasibleBudgetError):
        choose_q(GridSpec(17, 1), 1)


def test_choose_q_rounds_odd_up_and_respects_cap():
    assert choose_q(GridSpec(30, 1), 4) == 4
    with pytest.raises(InfeasibleBudgetError):
        choose_q(GridSpec(30, 1), 5)  # needs 6 > floor(30/6)-1 = 4


def test_split_demands_examples():
    # K_3^2: (0, 1) -- (0, 2) stays in column 0; (0, 1) -- (1, 1) crosses to column 1
    intra, cross = split_demands([(0, 1, 2), (1, 1, 4)], 3)
    assert intra == [(0, 1, 2)]
    assert cross == [(1, 1, 4)]


def test_split_demands_n1_is_all_intra():
    intra, cross = split_demands([(0, 0, 1), (1, 2, 3)], 4)
    assert len(intra) == 2 and not cross


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_split_is_a_partition(seed):
    spec = GridSpec(4, 2)
    rng = Random(seed)
    demands = from_pairing(spec, random_pairing(spec, rng)).edges
    intra, cross = split_demands(demands, spec.t)
    assert sorted(intra + cross) == sorted(demands)
    assert all(u // 4 == v // 4 for _, u, v in intra)
    assert all(u // 4 != v // 4 for _, u, v in cross)


def test_project_example():
    # K_4^3: (0, 1, 0) has rank 4, (2, 3, 1) rank 45; their columns (0, 1) and (2, 3)
    # are ranks 1 and 11 of K_4^2, the only active columns, at positions 0 and 1
    assert project([(7, 4, 45)], 4, 3) == ([1, 11], [(0, 1)])
    assert project([(7, 45, 4)], 4, 3) == ([1, 11], [(1, 0)])


def test_project_keeps_parallel_edges():
    # K_3^2: (0, 0) -- (1, 1) and (0, 2) -- (1, 0) both join columns 0 and 1
    assert project([(0, 0, 4), (1, 2, 3)], 3, 2) == ([0, 1], [(0, 1), (0, 1)])


def test_project_rejects_intra_column_demand():
    with pytest.raises(ValueError):
        project([(0, 0, 1)], 3, 2)


def test_projection_degree_stays_under_t_times_q():
    spec = GridSpec(18, 2)
    for seed in range(100):
        dg = from_pairing(spec, random_pairing(spec, Random(seed)))
        _, cross = split_demands(dg.edges, spec.t)
        active, edges = project(cross, spec.t, spec.n)
        assert len(edges) == len(cross)
        deg = degrees(len(active), edges)
        assert min(deg) >= 1, "every active column carries a cross demand"
        assert max(deg) <= spec.t * 2  # q = 2 for a perfect pairing


# The projection is padded to regular inside two_factorization; these tests pin
# that padding through the factors it yields.


def test_regularize_identity_when_already_regular():
    assert two_factorization(2, ((0, 1), (0, 1)), 1) == [[0, 1]]


def test_regularize_balances_two_deficient_vertices():
    # degrees: 0 -> 2, 1 -> 1, 2 -> 1 against target 2; the dummy (1, 2) is left out
    assert two_factorization(3, ((0, 1), (0, 2)), 1) == [[0, 1]]


def test_regularize_pads_lone_vertex_with_loops():
    # 0 and 1 are full at 2; vertex 2 alone is short by 2 and gets one loop
    assert two_factorization(3, ((0, 1), (0, 1)), 1) == [[0, 1]]
    # at k = 2 every vertex carries loops, so one factor may be empty
    edges = ((0, 1), (0, 1))
    assert_padded_factorization(3, edges, 2, two_factorization(3, edges, 2))


def test_regularize_loops_only_case():
    # 0 already full at 4 from its own two loops; 1 deficient by 4 -> two loops
    factors = two_factorization(2, ((0, 0), (0, 0)), 2)
    assert sorted(factors) == [[0], [1]]


def test_regularize_rejects_overfull_vertex():
    with pytest.raises(ValueError):
        two_factorization(2, ((0, 1),) * 3, 1)


def test_regularize_rejects_edges_outside_vertex_range():
    for edges in (((0, 2),), ((0, -1),)):
        with pytest.raises(ValueError):
            two_factorization(2, edges, 1)


@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_regularize_property(seed, half_q):
    q = 2 * half_q
    spec = GridSpec(6, 2)
    rng = Random(seed)
    dg = from_pairing(spec, random_demand_multigraph(spec, q, rng))
    _, cross = split_demands(dg.edges, spec.t)
    active, edges = project(cross, spec.t, spec.n)
    k = spec.t * q // 2
    assert all(a != b for a, b in edges)
    assert_padded_factorization(len(active), edges, k, two_factorization(len(active), edges, k))


def test_random_pairing_covers_every_vertex_once():
    spec = GridSpec(4, 2)
    pairs = random_pairing(spec, Random(5))
    seen = [v for p in pairs for v in p]
    assert sorted(seen) == list(range(spec.num_vertices))


def test_random_pairing_rejects_odd_vertex_count():
    with pytest.raises(ValueError):
        random_pairing(GridSpec(3, 1), Random(0))


def test_random_demand_multigraph_hits_budget_exactly():
    spec = GridSpec(18, 1)
    pairs = random_demand_multigraph(spec, 4, Random(11))
    deg = Counter()
    for u, v in pairs:
        deg[u] += 1
        deg[v] += 1
    assert max(deg.values()) == 4
    assert all(d <= 4 for d in deg.values())


def test_demand_graph_rejects_duplicate_ids():
    from gridpair import DemandEdge, DemandGraph

    spec = GridSpec(3, 1)
    with pytest.raises(ValueError):
        DemandGraph(spec, (DemandEdge(0, 0, 1), DemandEdge(0, 1, 2)))


def test_demand_graph_budget_validation():
    # degree 3 needs q = 4, but K_18 admits at most floor(18/6)-1 = 2
    dg = from_pairing(GridSpec(18, 1), [(0, 1)] * 3)
    with pytest.raises(InfeasibleBudgetError):
        solve(dg)
