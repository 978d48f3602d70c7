import time
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
    from_pairing,
    oracle_solve,
    random_demand_multigraph,
    random_pairing,
    solve,
    solve_complete,
    two_factorization,
    verify,
    vertex_from_rank,
    vertex_rank,
)
from gridpair import factorization, router
from gridpair.demand import project, split_demands
from gridpair.errors import BaseSolverExhaustedError, ClaimViolationError
from gridpair.router import build_subproblems
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
    out = solve_complete(4, [(0, 0, 1), (1, 0, 1)], 0)
    spec = GridSpec(4, 1)
    demands = [DemandEdge(0, 0, 1), DemandEdge(1, 0, 1)]
    assert oracle_solve(spec, demands) is not None
    dg = from_pairing(spec, [(0, 1), (0, 1)])
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
        solve_complete(3, [(0, 0, 1), (1, 0, 1), (2, 0, 1)], 0)


def test_solve_complete_k18_degree_4_sample():
    spec = GridSpec(18, 1)
    for seed in range(25):
        pairs = random_demand_multigraph(spec, 4, Random(seed))
        demands = [(i, u, v) for i, (u, v) in enumerate(pairs)]
        out = solve_complete(18, demands, seed)
        assert all(len(tr) - 1 <= 3 for tr in out.values())
        dg = from_pairing(spec, pairs)
        assert verify(spec, dg, wrap_complete_routing(out)).ok


def _layers_of_crossings(cross: list[tuple[int, int, int]]) -> list[int]:
    """Layer each cross demand (key, u, v) of K_18^2 at q = 2 crosses in, as the router picks it."""
    active, edges = project(cross, 18, 2)
    prefer = [(u % 18, v % 18) for _, u, v in cross]
    layer = [0] * len(cross)
    for f, factor in enumerate(two_factorization(len(active), edges, 18, prefer=prefer)):
        for eid in factor:
            layer[eid] = f  # q = 2: factor f feeds layer f // (q/2) = f
    return layer


def _route(*pairs: tuple[int, int]) -> dict[int, Trail]:
    return solve(from_pairing(GridSpec(18, 2), list(pairs)))


def _at(c: int, x: int) -> int:
    """Rank of vertex (c, x) of K_18^2: vertex x of column c, in layer x."""
    return c * 18 + x


def test_stitch_degenerate_connectors():
    # a lone demand crosses in the layer of its u: one column hop, at v
    assert _layers_of_crossings([(0, _at(5, 1), _at(9, 3))]) == [1]
    assert _route((_at(5, 1), _at(9, 3)))[0] == Trail((_at(5, 1), _at(9, 1), _at(9, 3)))
    assert _route((_at(5, 4), _at(9, 4)))[0] == Trail((_at(5, 4), _at(9, 4)))


def test_stitch_concatenates_and_orients():
    # The blockers take layers 1, 1 and 3: layer 1 is full (q = 2) at column
    # 5, and layer 3 is taken at column 9 on the side the last demand's arc
    # needs. So (5, 1) -- (9, 3) crosses in neither of its own layers, and its
    # trail is column hop, layer crossing, column hop, in either direction.
    blockers = [(_at(2, 1), _at(5, 3)), (_at(5, 1), _at(9, 1)), (_at(2, 3), _at(9, 3))]
    for u, v in ((_at(5, 1), _at(9, 3)), (_at(9, 3), _at(5, 1))):
        pairs = [*blockers, (u, v)]
        *taken, k = _layers_of_crossings([(i, a, b) for i, (a, b) in enumerate(pairs)])
        assert taken == [1, 1, 3] and k not in (1, 3)
        cu, cv = u // 18, v // 18
        assert _route(*pairs)[3] == Trail((u, _at(cu, k), _at(cv, k), v))


def test_top_level_crosses_in_an_endpoints_own_layer(monkeypatch):
    # a seed-1 K_18^3 pairing: the preferences spread the top level's cross
    # demands over all 18 layers, most of them in a layer one endpoint lies in
    levels = []

    def recording_build_subproblems(intra, cross, edge_layer, t, q, n, *rest):
        levels.append((n, cross, edge_layer))
        return build_subproblems(intra, cross, edge_layer, t, q, n, *rest)

    monkeypatch.setattr("gridpair.router.build_subproblems", recording_build_subproblems)
    spec = GridSpec(18, 3)
    dg = from_pairing(spec, random_pairing(spec, Random(1)))
    assert verify(spec, dg, solve(dg, seed=1)).ok
    [(cross, edge_layer)] = [(cross, edge_layer) for n, cross, edge_layer in levels if n == 3]
    assert set(edge_layer) == set(range(18))
    own = sum(k in (u % 18, v % 18) for (_, u, v), k in zip(cross, edge_layer))
    assert own >= 0.8 * len(cross), f"{own} of {len(cross)} cross in an endpoint's layer"


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


def test_solve_is_deterministic():
    spec = GridSpec(18, 2)
    dg = from_pairing(spec, random_pairing(spec, Random(6)))
    assert solve(dg, seed=10) == solve(dg, seed=10)
    # The seed-41 K_6^5 pairing restarts the base solver in two columns. Equal
    # routings from two solves in one process show that each solve makes its
    # own RNG rather than drawing on from a shared one.
    spec = GridSpec(6, 5)
    dg = from_pairing(spec, random_pairing(spec, Random(41)))
    assert solve(dg, seed=41, unchecked=True) == solve(dg, seed=41, unchecked=True)


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


def test_factorization_size_follows_the_cross_demands(monkeypatch):
    # each level pads and 2-factorizes only the columns its cross demands
    # touch, never all t^(n-1) of them
    sizes: list[list[int]] = []  # [dimension, cross demands, factorized vertices]

    def recording_project(cross, t, n):
        sizes.append([n, len(cross)])
        return project(cross, t, n)

    def recording_two_factorization(num_vertices, edges, k, **options):
        sizes[-1].append(num_vertices)
        return two_factorization(num_vertices, edges, k, **options)

    monkeypatch.setattr("gridpair.router.project", recording_project)
    monkeypatch.setattr("gridpair.router.two_factorization", recording_two_factorization)
    spec = GridSpec(18, 4)
    rng = Random(5)
    verts = rng.sample(range(spec.num_vertices), 100)
    dg = from_pairing(spec, list(zip(verts[::2], verts[1::2])))
    assert verify(spec, dg, solve(dg, seed=5)).ok
    assert {n for n, _, _ in sizes} == {2, 3, 4}
    assert all(num_vertices <= 2 * m for _, m, num_vertices in sizes), sizes


def test_euler_walks_visit_real_edges_only(monkeypatch):
    # each level walks once: its cross edges plus at most one dummy edge per
    # two odd-degree columns; no padding loop is walked
    walks: list[tuple[int, int]] = []  # (edges walked, bound of the level)

    def recording_project(cross, t, n):
        active, edges = project(cross, t, n)
        walks.append((-1, len(cross) + len(active) // 2))
        return active, edges

    euler_walk = factorization._euler_walk

    def recording_euler_walk(num_vertices, edges):
        walks.append((len(edges), walks[-1][1]))
        return euler_walk(num_vertices, edges)

    monkeypatch.setattr("gridpair.router.project", recording_project)
    monkeypatch.setattr("gridpair.factorization._euler_walk", recording_euler_walk)
    # the golden sparse_t18_n4_m50 instance: 50 demands on K_18^4, seed 105
    spec = GridSpec(18, 4)
    rng = Random(105)
    verts = rng.sample(range(spec.num_vertices), 100)
    dg = from_pairing(spec, list(zip(verts[::2], verts[1::2])))
    assert verify(spec, dg, solve(dg, seed=105)).ok
    over = [(walked, bound) for walked, bound in walks if walked > bound]
    assert any(walked >= 0 for walked, _ in walks)
    assert not over, f"{len(over)} walks above their bound, largest {max(over)}"


def test_lone_demand_fixes_coordinates_in_order():
    # a lone demand crosses in its u's layer at every level and its column
    # hops are direct edges: the trail fixes coordinates first to last
    rng = Random(9)
    for t, n in ((2, 1), (6, 3), (18, 4), (5, 5)):
        spec = GridSpec(t, n)
        for _ in range(20):
            u, v = rng.sample(range(spec.num_vertices), 2)
            cur, want = list(vertex_from_rank(u, spec)), [u]
            for i, c in enumerate(vertex_from_rank(v, spec)):
                if cur[i] != c:
                    cur[i] = c
                    want.append(vertex_rank(tuple(cur), spec))
            dg = from_pairing(spec, [(u, v)])
            routing = solve(dg, seed=rng.randrange(9), unchecked=t < 18)
            assert routing == {0: Trail(tuple(want))}


def test_one_demand_on_k24_5_routes_quickly():
    spec = GridSpec(24, 5)
    dg = from_pairing(spec, [(0, spec.num_vertices - 1)])  # (0, ..., 0) -- (23, ..., 23)
    start = time.perf_counter()
    routing = solve(dg)
    assert verify(spec, dg, routing).ok
    assert time.perf_counter() - start < 5


def test_shorten_preserves_verification(monkeypatch):
    # Every trail solve returns is already a path: a column and a layer share
    # one vertex only, and every base-solver trail is a path. The unchecked
    # K_8^3 instance takes greedy restarts and length-3 detours on the way.
    passes = []

    def recording_greedy_pass(*args):
        routed = original_greedy_pass(*args)
        passes.append(routed)
        return routed

    original_greedy_pass = router._greedy_pass
    monkeypatch.setattr("gridpair.router._greedy_pass", recording_greedy_pass)
    k18_2, k8_3 = GridSpec(18, 2), GridSpec(8, 3)
    cases = [
        (from_pairing(k18_2, random_pairing(k18_2, Random(12))), 12, False),
        (from_pairing(k8_3, random_demand_multigraph(k8_3, 2, Random(1))), 1, True),
    ]
    for dg, seed, unchecked in cases:
        routing = solve(dg, seed=seed, unchecked=unchecked)
        assert verify(dg.spec, dg, routing).ok
        for did, tr in routing.items():
            assert len(set(tr.vertices)) == len(tr.vertices), f"demand {did} revisits a vertex"
    assert None in passes, "no greedy restart was exercised"
    assert any(len(v) == 4 for r in passes if r for v in r.values()), "no length-3 detour"
