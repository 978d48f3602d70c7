from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridpair import (
    DemandEdge,
    DemandGraph,
    GridSpec,
    RouteDiagnostics,
    Trail,
    build_subproblems,
    from_pairing,
    group_factors,
    oracle_solve,
    project,
    random_demand_multigraph,
    random_pairing,
    regularize,
    shorten_trail,
    solve,
    solve_complete,
    split_demands,
    two_factorization,
    verify,
)
from gridpair.errors import BaseSolverExhaustedError, ClaimViolationError
from helpers import wrap_complete_routing


def _through_layer(u: int, v: int, k: int):
    """Layer and column subproblems of one cross demand of K_10^2 routed through layer k."""
    return build_subproblems([], [(0, u, v)], [k], 10, 2, 2)


def test_rewrite_general_case():
    # (5, 1) -- (9, 3) through layer 2: column hop, layer crossing, column hop
    layers, columns = _through_layer(51, 93, 2)
    assert layers[2] == [(0, 5, 9)]
    assert columns == {5: [(0, 1, 2)], 9: [(0, 2, 3)]}


def test_rewrite_degenerate_u_side():
    layers, columns = _through_layer(52, 93, 2)
    assert layers[2] == [(0, 5, 9)]
    assert columns == {9: [(0, 2, 3)]}


def test_rewrite_both_endpoints_in_layer():
    layers, columns = _through_layer(52, 92, 2)
    assert layers[2] == [(0, 5, 9)]
    assert columns == {}


def test_rewrite_rejects_intra_column():
    # (5, 1) -- (5, 3) stays in column 5, so it cannot cross through a layer
    with pytest.raises(ValueError):
        _through_layer(51, 53, 2)


def test_build_subproblems_single_cross_demand():
    # K_4^2: (0, 1) -- (1, 3) are ranks 1 and 7
    intra, cross = split_demands([(0, 1, 7)], 4)
    layers, columns = build_subproblems(intra, cross, [2], 4, 2, 2)
    assert [len(ds) for ds in layers] == [0, 0, 1, 0]
    assert layers[2] == [(0, 0, 1)]
    assert columns == {0: [(0, 1, 2)], 1: [(0, 2, 3)]}


def test_build_subproblems_intra_column_only():
    # K_4^2: (2, 1) -- (2, 3) are ranks 9 and 11
    layers, columns = build_subproblems([(0, 9, 11)], [], [], 4, 2, 2)
    assert all(not ds for ds in layers)
    assert columns == {2: [(0, 1, 3)]}


def test_build_subproblems_detects_claim_violation():
    # a malformed assignment puts three parallel crossings 0 -- 1 into layer 0
    cross = [(0, 1, 5), (1, 2, 6), (2, 3, 7)]
    with pytest.raises(ClaimViolationError) as err:
        build_subproblems([], cross, [0, 0, 0], 4, 2, 2)
    assert err.value.claim == "i"
    # five demands at vertex 0 of column 0 exceed 2q = 4
    intra = [(i, 0, 1 + i % 3) for i in range(5)]
    with pytest.raises(ClaimViolationError) as err:
        build_subproblems(intra, [], [], 4, 2, 2)
    assert err.value.claim == "ii"


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_claims_hold_on_random_pairings(seed):
    spec = GridSpec(18, 2)
    dg = from_pairing(spec, random_pairing(spec, Random(seed)))
    diag = RouteDiagnostics()
    solve(dg, seed=seed, diagnostics=diag)
    assert diag.records
    for _, layer_max, layer_bound, column_max, column_bound in diag.records:
        assert layer_max <= layer_bound == 2
        assert column_max <= column_bound == 4


def test_solve_complete_direct_edges():
    out = solve_complete(4, [(0, 0, 1), (1, 2, 3)])
    assert out == {0: (0, 1), 1: (2, 3)}


def test_solve_complete_parallel_demands():
    out = solve_complete(4, [(0, 0, 1), (1, 0, 1)], Random(0))
    spec = GridSpec(4, 1)
    demands = [DemandEdge(0, (0,), (1,)), DemandEdge(1, (0,), (1,))]
    assert oracle_solve(spec, demands) is not None
    dg = from_pairing(spec, [((0,), (1,)), ((0,), (1,))])
    report = verify(spec, dg, wrap_complete_routing(out))
    assert report.ok


def test_solve_complete_rejects_bad_demands():
    with pytest.raises(ValueError):
        solve_complete(4, [(0, 0, 0)])
    with pytest.raises(ValueError):
        solve_complete(4, [(0, 0, 7)])


def test_solve_complete_exhausts_on_infeasible():
    # three parallel demands on K_3 exceed vertex degree 2
    with pytest.raises(BaseSolverExhaustedError):
        solve_complete(3, [(0, 0, 1), (1, 0, 1), (2, 0, 1)], Random(0), max_restarts=5)


def test_solve_complete_k18_degree_4_sample():
    spec = GridSpec(18, 1)
    for seed in range(25):
        pairs = random_demand_multigraph(spec, 4, Random(seed))
        demands = [(i, u[0], v[0]) for i, (u, v) in enumerate(pairs)]
        out = solve_complete(18, demands, Random(seed))
        assert all(len(tr) - 1 <= 3 for tr in out.values())
        dg = from_pairing(spec, pairs)
        assert verify(spec, dg, wrap_complete_routing(out)).ok


def _layer_of_crossing(cu: int, cv: int) -> int:
    """Layer a lone demand from column cu to column cv of K_18^2 is routed through."""
    host = regularize(project([(0, cu * 18, cv * 18)], 18, 2), 36)
    return group_factors(two_factorization(host, 18), 2, 18)[0]


def _route_one(u, v) -> Trail:
    return solve(DemandGraph(GridSpec(18, 2), (DemandEdge(0, u, v),)))[0]


def test_stitch_degenerate_connectors():
    k = _layer_of_crossing(5, 9)
    assert _route_one((5, k), (9, k)) == Trail(((5, k), (9, k)))


def test_stitch_concatenates_and_orients():
    for cu, cv in ((5, 9), (9, 5)):
        k = _layer_of_crossing(cu, cv)
        i, j = (k + 1) % 18, (k + 3) % 18
        assert _route_one((cu, i), (cv, j)) == Trail(((cu, i), (cu, k), (cv, k), (cv, j)))


def test_solve_empty_demands():
    assert solve(from_pairing(GridSpec(18, 2), [])) == {}


def test_solve_n1_pairing():
    spec = GridSpec(18, 1)
    dg = from_pairing(spec, random_pairing(spec, Random(2)))
    routing = solve(dg, seed=2)
    assert len(routing) == 9
    assert verify(spec, dg, routing).ok


def test_solve_n2_pairing_verifies_and_bounds_lengths():
    spec = GridSpec(18, 2)
    dg = from_pairing(spec, random_pairing(spec, Random(3)))
    routing = solve(dg, seed=3)
    assert len(routing) == 162
    report = verify(spec, dg, routing)
    assert report.ok
    assert report.stats.max_trail_length <= 9


def test_solve_routes_general_multigraph_demands():
    spec = GridSpec(18, 2)
    dg = from_pairing(spec, random_demand_multigraph(spec, 2, Random(4)))
    routing = solve(dg, seed=4)
    assert verify(spec, dg, routing).ok


def test_solve_is_deterministic_across_jobs():
    spec = GridSpec(18, 2)
    dg = from_pairing(spec, random_pairing(spec, Random(6)))
    a = solve(dg, seed=10, jobs=1)
    b = solve(dg, seed=10, jobs=4)
    assert a == b


def test_solve_seed_changes_nothing_structural():
    spec = GridSpec(18, 2)
    dg = from_pairing(spec, random_pairing(spec, Random(8)))
    for seed in (0, 1):
        assert verify(spec, dg, solve(dg, seed=seed)).ok


def test_solve_unchecked_small_grid_succeeds_and_verifies():
    # t=6 is far below the t >= 18 guarantee; best effort still routes here
    spec = GridSpec(6, 2)
    dg = from_pairing(spec, random_pairing(spec, Random(1)))
    routing = solve(dg, seed=1, unchecked=True)
    assert verify(spec, dg, routing).ok


def test_solve_unchecked_never_reports_an_invalid_routing():
    # K_4^2 columns can demand degree 4 > deg(K_4) = 3; failure must be an
    # exception, never a bad routing
    spec = GridSpec(4, 2)
    for seed in range(6):
        dg = from_pairing(spec, random_pairing(spec, Random(seed)))
        try:
            routing = solve(dg, seed=seed, unchecked=True)
        except BaseSolverExhaustedError:
            continue
        assert verify(spec, dg, routing).ok


def test_solve_accepts_non_contiguous_demand_ids():
    spec = GridSpec(18, 2)
    base = from_pairing(spec, random_pairing(spec, Random(15)))
    renumbered = DemandGraph(
        spec, tuple(DemandEdge(d.id * 10 + 3, d.u, d.v) for d in base.edges)
    )
    routing = solve(renumbered, seed=15)
    assert set(routing) == {d.id for d in renumbered.edges}
    assert verify(spec, renumbered, routing).ok


def test_shorten_trail_removes_cycles():
    tr = Trail(((0,), (1,), (2,), (1,), (3,)))
    assert shorten_trail(tr) == Trail(((0,), (1,), (3,)))
    simple = Trail(((0,), (2,), (3,)))
    assert shorten_trail(simple) == simple


def test_shorten_preserves_verification():
    spec = GridSpec(18, 2)
    dg = from_pairing(spec, random_pairing(spec, Random(12)))
    routing = solve(dg, seed=12)
    shortened = {did: shorten_trail(tr) for did, tr in routing.items()}
    report = verify(spec, dg, shortened)
    assert report.ok
    assert all(shortened[d].length <= routing[d].length for d in routing)
