import time
from random import Random

import pytest

from gridpair import (
    DemandEdge,
    DemandGraph,
    GridSpec,
    Trail,
    degree_ratio,
    from_pairing,
    oracle_solve,
    random_demand_multigraph,
    solve,
    solve_complete,
    verify,
)
from gridpair.errors import BaseSolverExhaustedError, SizeLimitError
from helpers import wrap_complete_routing


# On K_3^2 the coordinates (a, b) have rank 3a + b.


def test_verify_accepts_single_edge_routing():
    spec = GridSpec(3, 2)
    dg = from_pairing(spec, [(0, 1)])
    report = verify(spec, dg, {0: Trail((0, 1))})
    assert report.ok
    assert not report.violations
    assert report.stats.edges_used == 1


def test_verify_flags_duplicate_edge():
    spec = GridSpec(3, 2)
    dg = from_pairing(spec, [(0, 1), (0, 1)])
    routing = {0: Trail((0, 1)), 1: Trail((1, 0))}
    report = verify(spec, dg, routing)
    assert not report.ok
    kinds = [v.kind for v in report.violations]
    assert kinds == ["DUPLICATE_EDGE"]
    assert report.violations[0].demand_ids == (0, 1)
    assert report.violations[0].detail == "edge (0, 0) -- (0, 1) used 2 times"


def test_verify_flags_non_adjacent_step():
    spec = GridSpec(3, 2)
    dg = from_pairing(spec, [(0, 4)])
    report = verify(spec, dg, {0: Trail((0, 4))})
    assert not report.ok
    assert report.violations[0].kind == "NOT_AN_EDGE"
    assert report.violations[0].detail == "step (0, 0) -> (1, 1)"
    # a stalled step changes no coordinate
    report = verify(spec, dg, {0: Trail((0, 0, 3, 4))})
    assert [v.kind for v in report.violations] == ["NOT_AN_EDGE"]
    assert report.violations[0].detail == "step (0, 0) -> (0, 0)"


def test_verify_flags_endpoint_mismatch():
    spec = GridSpec(3, 2)
    dg = from_pairing(spec, [(0, 6)])
    report = verify(spec, dg, {0: Trail((0, 3))})
    assert not report.ok
    (mismatch,) = [v for v in report.violations if v.kind == "ENDPOINT_MISMATCH"]
    assert mismatch.detail == "trail ends ((0, 0), (1, 0)), demand joins ((0, 0), (2, 0))"


def test_verify_flags_missing_and_extra():
    spec = GridSpec(3, 2)
    dg = from_pairing(spec, [(0, 6)])
    report = verify(spec, dg, {5: Trail((0, 6))})
    kinds = {v.kind for v in report.violations}
    assert kinds == {"MISSING_DEMAND", "EXTRA_TRAIL"}


def test_verify_flags_bad_vertex_gracefully():
    spec = GridSpec(3, 2)
    dg = from_pairing(spec, [(0, 6)])
    report = verify(spec, dg, {0: Trail((0, 27))})  # (9, 0) would be rank 27; ranks stop at 8
    assert not report.ok
    assert [(v.kind, v.detail) for v in report.violations] == [
        ("BAD_VERTEX", "vertex rank 27 outside [0, 9)")
    ]
    report = verify(spec, dg, {0: Trail((0, -1, 6))})
    assert [v.kind for v in report.violations] == ["BAD_VERTEX"]


def test_verify_accepts_a_cycle_and_flags_bad_steps():
    spec = GridSpec(3, 2)
    dg = from_pairing(spec, [(0, 6)])
    # (0, 0) (0, 1) (1, 1) (1, 0) (0, 0) (2, 0): a vertex repeats, no edge does
    assert verify(spec, dg, {0: Trail((0, 1, 4, 3, 0, 6))}).ok
    report = verify(spec, dg, {0: Trail((0, 1, 4, 6))})  # (1, 1) -> (2, 0) is no edge
    assert [(v.kind, v.detail) for v in report.violations] == [
        ("NOT_AN_EDGE", "step (1, 1) -> (2, 0)")
    ]


def test_verify_counts_repeats_within_one_trail():
    spec = GridSpec(3, 2)
    dg = from_pairing(spec, [(0, 1)])
    walk = Trail((0, 1, 0, 1))
    report = verify(spec, dg, {0: walk})
    assert not report.ok
    assert any(v.kind == "DUPLICATE_EDGE" for v in report.violations)


def test_verify_lists_a_self_repeating_trail_once():
    spec = GridSpec(3, 2)
    dg = from_pairing(spec, [(0, 1), (0, 1)])
    walk = Trail((0, 1, 0, 1))
    report = verify(spec, dg, {0: walk, 1: Trail((0, 1))})
    (dup,) = report.violations
    assert dup.kind == "DUPLICATE_EDGE"
    assert dup.demand_ids == (0, 1)
    assert dup.detail.endswith("used 4 times")


def test_verify_duplicate_path_is_linear():
    # every trail of a K_18^3 routing is handed to a second demand as well;
    # degree-2 demands keep the routing near 27,000 edges
    spec = GridSpec(18, 3)
    pairs = random_demand_multigraph(spec, 2, Random(7))
    m = len(pairs)
    routing = solve(from_pairing(spec, pairs), seed=7)
    doubled = {**routing, **{did + m: tr for did, tr in routing.items()}}
    start = time.perf_counter()
    report = verify(spec, from_pairing(spec, pairs + pairs), doubled)
    elapsed = time.perf_counter() - start
    assert [v.kind for v in report.violations] == ["DUPLICATE_EDGE"] * sum(
        tr.length for tr in routing.values()
    )
    assert len(report.violations) == 27175
    for v in report.violations:
        did = v.demand_ids[0]
        assert v.demand_ids == (did, did + m)
    assert elapsed < 3.0, f"verify took {elapsed:.2f} s"


def test_verify_repeats_inside_one_long_trail_are_linear():
    # One trail on K_120^2 snakes through every column (up column 0, down
    # column 1, ...), walks the same snake back to rank 0 and steps to 1, so
    # each of its 14,399 snake edges repeats inside that one trail.
    t = 120
    spec = GridSpec(t, 2)
    snake = [c * t + (x if c % 2 == 0 else t - 1 - x) for c in range(t) for x in range(t)]
    walk = snake + snake[-2::-1] + [1]
    assert len(walk) - 1 == 28799
    dg = from_pairing(spec, [(0, 1)])
    start = time.perf_counter()
    report = verify(spec, dg, {0: Trail(tuple(walk))})
    elapsed = time.perf_counter() - start
    assert len(report.violations) == 14399
    assert {v.kind for v in report.violations} == {"DUPLICATE_EDGE"}
    assert report.violations[0].detail == "edge (1, 0) -- (2, 0) used 2 times"
    # column 119 runs downwards, so its first use goes from the higher rank to the lower
    assert report.violations[-1].detail == "edge (119, 119) -- (119, 118) used 2 times"
    assert elapsed < 2.0, f"verify took {elapsed:.2f} s"


def test_degree_ratio_values():
    exact, tn_convention = degree_ratio(GridSpec(18, 2))
    assert tn_convention == pytest.approx(4.317, abs=5e-4)
    assert exact == pytest.approx(4.077, abs=5e-4)
    exact2, _ = degree_ratio(GridSpec(2, 5))
    assert exact2 == pytest.approx(1.0)


def test_degree_ratio_is_dimension_free():
    assert degree_ratio(GridSpec(18, 1)) == degree_ratio(GridSpec(18, 3))


def test_oracle_three_parallel_on_k4():
    spec = GridSpec(4, 1)
    demands = [DemandEdge(i, 0, 1) for i in range(3)]
    routing = oracle_solve(spec, demands)
    assert routing is not None
    dg = from_pairing(spec, [(0, 1)] * 3)
    assert verify(spec, dg, routing).ok


def test_oracle_three_parallel_on_k3_is_infeasible():
    spec = GridSpec(3, 1)
    demands = [DemandEdge(i, 0, 1) for i in range(3)]
    assert oracle_solve(spec, demands) is None


def test_oracle_empty_demands():
    assert oracle_solve(GridSpec(4, 1), []) == {}


def test_oracle_handles_small_grids():
    spec = GridSpec(3, 2)
    demands = [DemandEdge(0, 0, 8), DemandEdge(1, 2, 6)]  # (0, 0)-(2, 2), (0, 2)-(2, 0)
    routing = oracle_solve(spec, demands)
    assert routing is not None
    for d in demands:
        assert set(routing[d.id].ends) == {d.u, d.v}
    assert verify(spec, DemandGraph(spec, tuple(demands)), routing).ok
    with pytest.raises(ValueError):
        oracle_solve(spec, [DemandEdge(0, 0, 9)])


def test_oracle_size_limit():
    spec = GridSpec(9, 1)  # 36 edges is fine; 9 demands is not
    demands = [DemandEdge(i, 0, i % 8 + 1) for i in range(9)]
    with pytest.raises(SizeLimitError):
        oracle_solve(spec, demands)
    with pytest.raises(SizeLimitError):
        oracle_solve(GridSpec(18, 2), [])  # 5508 edges


def test_oracle_agreement_with_base_solver_on_random_instances():
    spec = GridSpec(5, 1)
    rng = Random(0)
    for trial in range(40):
        m = rng.randrange(1, 6)
        pairs = []
        for _ in range(m):
            x = rng.randrange(5)
            y = rng.randrange(5)
            if x == y:
                y = (y + 1) % 5
            pairs.append((min(x, y), max(x, y)))
        demands = [DemandEdge(i, x, y) for i, (x, y) in enumerate(pairs)]
        expected = oracle_solve(spec, demands)
        try:
            got = solve_complete(5, [(i, x, y) for i, (x, y) in enumerate(pairs)], trial)
        except BaseSolverExhaustedError:
            got = None
        if expected is None:
            assert got is None
        else:
            assert got is not None
            dg = from_pairing(spec, pairs)
            assert verify(spec, dg, wrap_complete_routing(got)).ok


def test_solver_success_always_verifies():
    spec = GridSpec(18, 1)
    for seed in range(10):
        pairs = random_demand_multigraph(spec, 2, Random(seed))
        flat = [(i, u, v) for i, (u, v) in enumerate(pairs)]
        out = solve_complete(18, flat, seed)
        dg = from_pairing(spec, pairs)
        assert verify(spec, dg, wrap_complete_routing(out)).ok
