"""End-to-end acceptance runs. Each criterion prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen; without -s they appear in captured output on failure.
"""

import os
import subprocess
import sys
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from pathlib import Path
from random import Random

import pytest

import gridpair
from gridpair import (
    DemandEdge,
    DemandGraph,
    GridSpec,
    RouteDiagnostics,
    VerificationReport,
    degree_ratio,
    edge_count,
    from_pairing,
    oracle_solve,
    random_demand_multigraph,
    random_pairing,
    solve,
    solve_complete,
    two_factorization,
    verify,
)
from gridpair.cli import main as cli_main
from gridpair.errors import BaseSolverExhaustedError
from helpers import grid_edges, random_regular_multigraph, wrap_complete_routing


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"{criterion}: {detail}"


@dataclass
class PipelineRun:
    t: int
    n: int
    seed: int
    demand_count: int
    report: VerificationReport
    diagnostics: RouteDiagnostics


def _run_pipeline(spec: GridSpec, pairs, seed: int) -> PipelineRun:
    dg = from_pairing(spec, pairs)
    diag = RouteDiagnostics()
    routing = solve(dg, seed=seed, diagnostics=diag)
    report = verify(spec, dg, routing)
    return PipelineRun(spec.t, spec.n, seed, len(dg.edges), report, diag)


@pytest.fixture(scope="module")
def pairing_runs() -> list[PipelineRun]:
    runs = []
    for n, seeds in ((1, 100), (2, 100), (3, 10)):
        spec = GridSpec(18, n)
        for seed in range(seeds):
            rng = Random(f"pairing/{n}/{seed}")
            runs.append(_run_pipeline(spec, random_pairing(spec, rng), seed))
    return runs


@pytest.fixture(scope="module")
def multigraph_runs() -> list[PipelineRun]:
    runs = []
    spec = GridSpec(18, 2)
    for seed in range(100):
        rng = Random(f"multi/18/{seed}")
        runs.append(_run_pipeline(spec, random_demand_multigraph(spec, 2, rng), seed))
    spec30 = GridSpec(30, 2)
    for seed in range(20):
        rng = Random(f"multi/30/{seed}")
        runs.append(_run_pipeline(spec30, random_demand_multigraph(spec30, 4, rng), seed))
    return runs


def test_criterion_1_pairings_route_at_scale(pairing_runs):
    listed = sum(1 for _ in grid_edges(GridSpec(18, 3)))
    assert edge_count(GridSpec(18, 3)) == listed == 148716
    bad = [(r.n, r.seed) for r in pairing_runs if not r.report.ok]
    coverage = all(r.demand_count == 18**r.n // 2 for r in pairing_runs)
    _report(
        "criterion 1 (perfect pairings, t=18, n=1/2/3)",
        not bad and coverage,
        f"{len(pairing_runs)} runs, failures={bad[:5]}, edge count cross-checked",
    )


def test_criterion_2_demand_multigraphs_route(multigraph_runs):
    bad = [(r.t, r.seed) for r in multigraph_runs if not r.report.ok]
    _report(
        "criterion 2 (multigraph demands, t=18 q=2 and t=30 q=4)",
        not bad,
        f"{len(multigraph_runs)} runs, failures={bad[:5]}",
    )


def test_criterion_3_two_factorization_suite():
    rng = Random("factor-suite")
    checked = 0
    for _ in range(200):
        k = rng.choice([1, 2, 3, 6])
        nv = rng.randrange(1, 201)
        edge_list = random_regular_multigraph(nv, 2 * k, rng)
        factors = two_factorization(nv, edge_list, k)
        assert len(factors) == k
        spent: list[int] = []
        for f in factors:
            deg = [0] * nv
            for eid in f:
                u, v = edge_list[eid]
                deg[u] += 1
                deg[v] += 1
            assert deg == [2] * nv, "factor must be spanning and 2-regular"
            spent.extend(f)
        assert sorted(spent) == list(range(len(edge_list))), "factors must partition the edges"
        checked += 1
    _report(
        "criterion 3 (2-factor decomposition, 200 random regular multigraphs)",
        checked == 200,
        f"{checked} graphs, k in {{1,2,3,6}}, up to 200 vertices with loops/parallels",
    )


def test_criterion_4_layer_and_column_degree_claims(pairing_runs, multigraph_runs):
    records = [rec for r in pairing_runs + multigraph_runs for rec in r.diagnostics.records]
    bad = [rec for rec in records if rec[1] > rec[2] or rec[3] > rec[4]]
    _report(
        "criterion 4 (layer <= q, column <= 2q on every run)",
        bool(records) and not bad,
        f"{len(records)} subproblem records, violations={bad[:3]}",
    )


def test_criterion_5_base_solver_reliability():
    spec = GridSpec(18, 1)
    failures = []
    worst = 0
    for seed in range(1000):
        rng = Random(f"base/{seed}")
        pairs = random_demand_multigraph(spec, 4, rng)
        flat = [(i, u, v) for i, (u, v) in enumerate(pairs)]
        try:
            out = solve_complete(18, flat, seed)
        except BaseSolverExhaustedError:
            failures.append(seed)
            continue
        longest = max(len(tr) - 1 for tr in out.values())
        worst = max(worst, longest)
        if longest > 3:
            failures.append(seed)
            continue
        dg = from_pairing(spec, pairs)
        if not verify(spec, dg, wrap_complete_routing(out)).ok:
            failures.append(seed)
    _report(
        "criterion 5 (K_18 base solver, 1000 instances, degree <= 4)",
        not failures and worst <= 3,
        f"failures={failures[:5]}, max trail length {worst}",
    )


def test_criterion_6_oracle_consistency():
    disagreements = []
    invalid = []
    instances = 0
    for t in (4, 5):
        spec = GridSpec(t, 1)
        pair_types = list(combinations(range(t), 2))
        for m in range(0, 6):
            for combo in combinations_with_replacement(pair_types, m):
                instances += 1
                demands = [DemandEdge(i, x, y) for i, (x, y) in enumerate(combo)]
                expected = oracle_solve(spec, demands)
                flat = [(i, x, y) for i, (x, y) in enumerate(combo)]
                try:
                    got = solve_complete(t, flat, 1)
                except BaseSolverExhaustedError:
                    got = None
                if (expected is None) != (got is None):
                    disagreements.append((t, combo))
                    continue
                if got is not None:
                    dg = DemandGraph(spec, tuple(demands))
                    if not verify(spec, dg, wrap_complete_routing(got)).ok:
                        invalid.append((t, combo))
    _report(
        "criterion 6 (oracle vs base solver on every K_4/K_5 multiset, <= 5 demands)",
        not disagreements and not invalid,
        f"{instances} instances, disagreements={disagreements[:3]}, invalid={invalid[:3]}",
    )


def test_criterion_7_trail_length_bound(pairing_runs):
    over = [
        (r.n, r.seed, r.report.stats.max_trail_length)
        for r in pairing_runs
        if r.report.stats.max_trail_length > 6 * r.n - 3
    ]
    observed = {
        n: max(r.report.stats.max_trail_length for r in pairing_runs if r.n == n)
        for n in (1, 2, 3)
    }
    _report(
        "criterion 7 (max trail length <= 6n-3)",
        not over,
        f"observed maxima by dimension {observed}, bound breaches={over[:3]}",
    )


def test_criterion_8_degree_statistic():
    exact, tn_convention = degree_ratio(GridSpec(18, 1))
    ok = abs(tn_convention - 4.32) <= 0.02 and abs(exact - 4.08) <= 0.02
    _report(
        "criterion 8 (degree over log2 N at t=18)",
        ok,
        f"t*n convention {tn_convention:.4f} (target 4.32 +/- 0.02), "
        f"exact {exact:.4f} (target 4.08 +/- 0.02)",
    )


def test_criterion_9_jobs_determinism(tmp_path):
    # Two processes per instance that differ in PYTHONHASHSEED and --jobs must
    # write the same bytes: on a K_18^2 pairing and on a K_6^5 pairing whose
    # base solver restarts in two columns, both drawing from the solve's one RNG.
    # The child processes import the same gridpair as this test run.
    src = str(Path(gridpair.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    compared = []
    for gen_args, route_args in (
        (["18", "2", "--seed", "11"], ["--seed", "5"]),
        (["6", "5", "--seed", "41"], ["--seed", "41", "--unchecked"]),
    ):
        inst = tmp_path / "inst.txt"
        assert cli_main(["gen", *gen_args, "-o", str(inst)]) == 0
        outputs = []
        for hash_seed, jobs in (("0", "1"), ("1", "4")):
            out = tmp_path / f"routing_{hash_seed}.txt"
            proc = subprocess.run(
                [sys.executable, "-m", "gridpair", "route", str(inst), str(out),
                 *route_args, "--jobs", jobs],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        grid = f"K_{gen_args[0]}^{gen_args[1]}"
        compared.append((grid, outputs[0] == outputs[1], len(outputs[0])))
    _report(
        "criterion 9 (byte-identical output across PYTHONHASHSEED and --jobs, separate processes)",
        all(same for _, same, _ in compared),
        ", ".join(f"{grid}: {size} bytes {'equal' if same else 'DIFFER'}"
                  for grid, same, size in compared),
    )
