import time
from random import Random

import pytest

from gridpair import (
    DemandEdge,
    GridSpec,
    Trail,
    degree_ratio,
    from_pairing,
    oracle_solve,
    random_demand_multigraph,
    random_pairing,
    solve,
    solve_complete,
    verify,
)
from gridpair.errors import BaseSolverExhaustedError, SizeLimitError
from helpers import wrap_complete_routing


def test_verify_accepts_single_edge_routing():
    spec = GridSpec(3, 2)
    dg = from_pairing(spec, [((0, 0), (0, 1))])
    report = verify(spec, dg, {0: Trail(((0, 0), (0, 1)))})
    assert report.ok
    assert not report.violations
    assert report.stats.edges_used == 1


def test_verify_flags_duplicate_edge():
    spec = GridSpec(3, 2)
    dg = from_pairing(spec, [((0, 0), (0, 1)), ((0, 0), (0, 1))])
    routing = {0: Trail(((0, 0), (0, 1))), 1: Trail(((0, 0), (0, 1)))}
    report = verify(spec, dg, routing)
    assert not report.ok
    kinds = [v.kind for v in report.violations]
    assert kinds == ["DUPLICATE_EDGE"]
    assert report.violations[0].demand_ids == (0, 1)


def test_verify_flags_non_adjacent_step():
    spec = GridSpec(3, 2)
    dg = from_pairing(spec, [((0, 0), (1, 1))])
    report = verify(spec, dg, {0: Trail(((0, 0), (1, 1)))})
    assert not report.ok
    assert report.violations[0].kind == "NOT_AN_EDGE"


def test_verify_flags_endpoint_mismatch():
    spec = GridSpec(3, 2)
    dg = from_pairing(spec, [((0, 0), (2, 0))])
    report = verify(spec, dg, {0: Trail(((0, 0), (1, 0)))})
    assert not report.ok
    assert any(v.kind == "ENDPOINT_MISMATCH" for v in report.violations)


def test_verify_flags_missing_and_extra():
    spec = GridSpec(3, 2)
    dg = from_pairing(spec, [((0, 0), (2, 0))])
    report = verify(spec, dg, {5: Trail(((0, 0), (2, 0)))})
    kinds = {v.kind for v in report.violations}
    assert kinds == {"MISSING_DEMAND", "EXTRA_TRAIL"}


def test_verify_flags_bad_vertex_gracefully():
    spec = GridSpec(3, 2)
    dg = from_pairing(spec, [((0, 0), (2, 0))])
    report = verify(spec, dg, {0: Trail(((0, 0), (9, 0)))})
    assert not report.ok
    assert any(v.kind == "BAD_VERTEX" for v in report.violations)


def test_verify_counts_repeats_within_one_trail():
    spec = GridSpec(3, 2)
    dg = from_pairing(spec, [((0, 0), (0, 1))])
    walk = Trail(((0, 0), (0, 1), (0, 0), (0, 1)))
    report = verify(spec, dg, {0: walk})
    assert not report.ok
    assert any(v.kind == "DUPLICATE_EDGE" for v in report.violations)


def test_verify_lists_a_self_repeating_trail_once():
    spec = GridSpec(3, 2)
    dg = from_pairing(spec, [((0, 0), (0, 1)), ((0, 0), (0, 1))])
    walk = Trail(((0, 0), (0, 1), (0, 0), (0, 1)))
    report = verify(spec, dg, {0: walk, 1: Trail(((0, 0), (0, 1)))})
    (dup,) = report.violations
    assert dup.kind == "DUPLICATE_EDGE"
    assert dup.demand_ids == (0, 1)
    assert dup.detail.endswith("used 4 times")


def test_verify_duplicate_path_is_linear():
    # every trail of a K_18^3 routing is handed to a second demand as well
    spec = GridSpec(18, 3)
    pairs = random_pairing(spec, Random(7))
    m = len(pairs)
    routing = solve(from_pairing(spec, pairs), seed=7)
    doubled = {**routing, **{did + m: tr for did, tr in routing.items()}}
    start = time.perf_counter()
    report = verify(spec, from_pairing(spec, pairs + pairs), doubled)
    elapsed = time.perf_counter() - start
    assert [v.kind for v in report.violations] == ["DUPLICATE_EDGE"] * sum(
        tr.length for tr in routing.values()
    )
    assert len(report.violations) == 14079
    for v in report.violations:
        did = v.demand_ids[0]
        assert v.demand_ids == (did, did + m)
    assert elapsed < 3.0, f"verify took {elapsed:.2f} s"


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
    demands = [DemandEdge(i, (0,), (1,)) for i in range(3)]
    routing = oracle_solve(spec, demands)
    assert routing is not None
    dg = from_pairing(spec, [((0,), (1,))] * 3)
    assert verify(spec, dg, routing).ok


def test_oracle_three_parallel_on_k3_is_infeasible():
    spec = GridSpec(3, 1)
    demands = [DemandEdge(i, (0,), (1,)) for i in range(3)]
    assert oracle_solve(spec, demands) is None


def test_oracle_empty_demands():
    assert oracle_solve(GridSpec(4, 1), []) == {}


def test_oracle_handles_small_grids():
    spec = GridSpec(3, 2)
    demands = [DemandEdge(0, (0, 0), (2, 2)), DemandEdge(1, (0, 2), (2, 0))]
    routing = oracle_solve(spec, demands)
    assert routing is not None
    for d in demands:
        assert set(routing[d.id].ends) == {d.u, d.v}
        routing[d.id].validate(spec)


def test_oracle_size_limit():
    spec = GridSpec(9, 1)  # 36 edges is fine; 9 demands is not
    demands = [DemandEdge(i, (0,), (i % 8 + 1,)) for i in range(9)]
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
        demands = [DemandEdge(i, (x,), (y,)) for i, (x, y) in enumerate(pairs)]
        expected = oracle_solve(spec, demands)
        try:
            got = solve_complete(5, [(i, x, y) for i, (x, y) in enumerate(pairs)], Random(trial))
        except BaseSolverExhaustedError:
            got = None
        if expected is None:
            assert got is None
        else:
            assert got is not None
            dg = from_pairing(spec, [((x,), (y,)) for x, y in pairs])
            assert verify(spec, dg, wrap_complete_routing(got)).ok


def test_solver_success_always_verifies():
    spec = GridSpec(18, 1)
    for seed in range(10):
        pairs = random_demand_multigraph(spec, 2, Random(seed))
        flat = [(i, u[0], v[0]) for i, (u, v) in enumerate(pairs)]
        out = solve_complete(18, flat, Random(seed))
        dg = from_pairing(spec, pairs)
        assert verify(spec, dg, wrap_complete_routing(out)).ok
