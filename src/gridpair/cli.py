"""Command-line interface: gen, route, verify, stats, bench."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path
from random import Random
from typing import Sequence

from .demand import DemandGraph, from_pairing, random_demand_multigraph, random_pairing
from .errors import (
    BaseSolverExhaustedError,
    ClaimViolationError,
    FormatError,
    InfeasibleBudgetError,
)
from .formats import emit_instance, emit_routing, parse_instance, parse_routing
from .grid import GridSpec, Vertex
from .router import shorten_trail, solve
from .verify import VerificationReport, verify

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_INFEASIBLE = 2
EXIT_EXHAUSTED = 3
EXIT_BUG = 4
EXIT_FORMAT = 5


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("GRIDPAIR_SEED")
    if not env:
        return 0
    try:
        return int(env)
    except ValueError:
        raise FormatError(f"GRIDPAIR_SEED must be an integer, got {env!r}") from None


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _read_instance(path: str) -> DemandGraph:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None
    try:
        return parse_instance(text)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _render_report(report: VerificationReport, bound: int) -> str:
    lines = []
    if report.ok:
        lines.append("ok: all trails verified edge-disjoint with matching endpoints")
    else:
        lines.append(f"FAILED: {len(report.violations)} violations")
        for v in report.violations[:20]:
            ids = ",".join(str(i) for i in v.demand_ids)
            lines.append(f"  {v.kind} demands=[{ids}] {v.detail}")
        if len(report.violations) > 20:
            lines.append(f"  ... {len(report.violations) - 20} more")
    s = report.stats
    hist = " ".join(f"{length}:{count}" for length, count in sorted(s.length_histogram.items()))
    lines.append(f"trail lengths: {hist or '(none)'}")
    lines.append(f"max trail length: {s.max_trail_length} (bound 6n-3 = {bound})")
    used_pct = 100.0 * s.edges_used / s.edges_total if s.edges_total else 0.0
    lines.append(f"edges used: {s.edges_used}/{s.edges_total} ({used_pct:.1f}%)")
    lines.append(
        f"degree/log2(N): {s.degree_ratio_exact:.3f} exact n*(t-1) | "
        f"{s.degree_ratio_tn:.3f} t*n convention (logs base 2)"
    )
    return "\n".join(lines)


def _random_pairs(
    spec: GridSpec, mode: str, q: int | None, rng: Random, unchecked: bool = False
) -> list[tuple[Vertex, Vertex]]:
    """Demand pairs of a random instance for gen and bench.

    Raises ValueError when no such instance exists or the budget q is out of
    range; `unchecked` lifts only the q <= floor(t/6)-1 cap.
    """
    if mode == "pairing":
        if spec.num_vertices % 2:
            raise ValueError(
                f"pairing mode needs an even vertex count, t^n = {spec.num_vertices} is odd"
            )
        return random_pairing(spec, rng)
    if q is None:
        raise ValueError("multigraph mode requires --q")
    cap = spec.t // 6 - 1
    if q % 2 or q < 2 or (q > cap and not unchecked):
        raise ValueError(f"--q must be even with 2 <= q <= floor(t/6)-1 = {cap}")
    return random_demand_multigraph(spec, q, rng)


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        spec = GridSpec(args.t, args.n)
    except ValueError as exc:
        return _fail(str(exc), EXIT_FORMAT)
    try:
        pairs = _random_pairs(spec, args.mode, args.q, Random(_resolve_seed(args)))
    except ValueError as exc:
        return _fail(str(exc), EXIT_INFEASIBLE)
    text = emit_instance(from_pairing(spec, pairs))
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_route(args: argparse.Namespace) -> int:
    try:
        dg = _read_instance(args.instance)
    except FormatError as exc:
        return _fail(str(exc), EXIT_FORMAT)
    seed = _resolve_seed(args)
    try:
        routing = solve(dg, seed=seed, jobs=args.jobs, unchecked=args.unchecked)
    except InfeasibleBudgetError as exc:
        return _fail(f"infeasible: {exc} (use --unchecked for best effort)", EXIT_INFEASIBLE)
    except BaseSolverExhaustedError as exc:
        return _fail(f"exhausted: {exc}", EXIT_EXHAUSTED)
    if args.shorten:
        routing = {did: shorten_trail(tr) for did, tr in routing.items()}
    report = verify(dg.spec, dg, routing)
    if not report.ok:
        print(_render_report(report, 6 * dg.spec.n - 3), file=sys.stderr)
        return _fail("routing failed verification; this is a bug", EXIT_BUG)
    Path(args.output).write_text(emit_routing(routing))
    print(
        f"routed {len(routing)} demands on K_{dg.spec.t}^{dg.spec.n}; "
        f"max trail length {report.stats.max_trail_length}; "
        f"edges used {report.stats.edges_used}/{report.stats.edges_total}"
    )
    return EXIT_OK


def _load_pair(args: argparse.Namespace) -> tuple[DemandGraph, dict]:
    dg = _read_instance(args.instance)
    try:
        text = Path(args.routing).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {args.routing}: {exc}") from None
    try:
        routing = parse_routing(text, dg.spec)
    except FormatError as exc:
        raise FormatError(f"{args.routing}: {exc}") from None
    return dg, routing


def _report_json(report: VerificationReport) -> str:
    payload = {
        "ok": report.ok,
        "violations": [asdict(v) for v in report.violations],
        "stats": asdict(report.stats),
    }
    return json.dumps(payload, indent=2, sort_keys=True, default=list)


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        dg, routing = _load_pair(args)
    except FormatError as exc:
        return _fail(str(exc), EXIT_FORMAT)
    report = verify(dg.spec, dg, routing)
    print(_report_json(report) if args.json else _render_report(report, 6 * dg.spec.n - 3))
    return EXIT_OK if report.ok else EXIT_VIOLATIONS


def _cmd_stats(args: argparse.Namespace) -> int:
    try:
        dg, routing = _load_pair(args)
    except FormatError as exc:
        return _fail(str(exc), EXIT_FORMAT)
    report = verify(dg.spec, dg, routing)
    if not report.ok:
        print(_render_report(report, 6 * dg.spec.n - 3), file=sys.stderr)
        return _fail("stats need a verified routing", EXIT_VIOLATIONS)
    print(_report_json(report) if args.json else _render_report(report, 6 * dg.spec.n - 3))
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        spec = GridSpec(args.t, args.n)
    except ValueError as exc:
        return _fail(str(exc), EXIT_FORMAT)
    base_seed = _resolve_seed(args)
    all_ok = True
    times = []
    for i in range(args.seeds):
        rng = Random(base_seed + i)
        try:
            pairs = _random_pairs(spec, args.mode, args.q, rng, args.unchecked)
        except ValueError as exc:
            return _fail(str(exc), EXIT_INFEASIBLE)
        dg = from_pairing(spec, pairs)
        start = time.perf_counter()
        try:
            routing = solve(dg, seed=base_seed + i, jobs=args.jobs, unchecked=args.unchecked)
        except InfeasibleBudgetError as exc:
            return _fail(str(exc), EXIT_INFEASIBLE)
        except BaseSolverExhaustedError as exc:
            return _fail(str(exc), EXIT_EXHAUSTED)
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        report = verify(spec, dg, routing)
        all_ok = all_ok and report.ok
        print(
            f"seed {base_seed + i}: {len(routing)} demands in {elapsed * 1000:.1f} ms, "
            f"max trail {report.stats.max_trail_length}, "
            f"verify {'ok' if report.ok else 'FAILED'}"
        )
    if times:
        print(
            f"summary: {args.seeds} runs on K_{spec.t}^{spec.n}, "
            f"mean {sum(times) / len(times) * 1000:.1f} ms, "
            f"max {max(times) * 1000:.1f} ms"
        )
    return EXIT_OK if all_ok else EXIT_BUG


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridpair",
        description="Edge-disjoint demand routing on complete grid graphs K_t^n",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random demand instance")
    gen.add_argument("t", type=int, help="side length")
    gen.add_argument("n", type=int, help="dimension")
    gen.add_argument(
        "--mode", choices=("pairing", "multigraph"), default="pairing",
        help="perfect pairing of all vertices, or a bounded-degree demand multigraph",
    )
    gen.add_argument("--q", type=int, help="target max degree for multigraph mode (even)")
    gen.add_argument("--seed", type=int, help="seed (default: $GRIDPAIR_SEED or 0)")
    gen.add_argument("-o", "--out", help="output path (default: stdout)")
    gen.set_defaults(func=_cmd_gen)

    route = sub.add_parser("route", help="route an instance and write the trail system")
    route.add_argument("instance", help="instance file")
    route.add_argument("output", help="routing file to write")
    route.add_argument("--seed", type=int, help="seed (default: $GRIDPAIR_SEED or 0)")
    route.add_argument(
        "--jobs", type=int, default=1,
        help="accepted for compatibility; changes neither output nor speed",
    )
    route.add_argument(
        "--unchecked", action="store_true",
        help="skip the degree-budget feasibility gate (best effort, still verified)",
    )
    route.add_argument(
        "--shorten", action="store_true",
        help="post-process trails into vertex-simple paths",
    )
    route.set_defaults(func=_cmd_route)

    ver = sub.add_parser("verify", help="re-check a routing against its instance")
    ver.add_argument("instance")
    ver.add_argument("routing")
    ver.add_argument("--json", action="store_true", help="machine-readable report")
    ver.set_defaults(func=_cmd_verify)

    stats = sub.add_parser("stats", help="print statistics for a verified routing")
    stats.add_argument("instance")
    stats.add_argument("routing")
    stats.add_argument("--json", action="store_true", help="machine-readable report")
    stats.set_defaults(func=_cmd_stats)

    bench = sub.add_parser("bench", help="time end-to-end routing over several seeds")
    bench.add_argument("t", type=int)
    bench.add_argument("n", type=int)
    bench.add_argument("--seeds", type=int, default=5, help="number of runs")
    bench.add_argument("--mode", choices=("pairing", "multigraph"), default="pairing")
    bench.add_argument("--q", type=int, help="target max degree for multigraph mode")
    bench.add_argument("--seed", type=int, help="base seed (default: $GRIDPAIR_SEED or 0)")
    bench.add_argument("--jobs", type=int, default=1, help="as for route: no effect")
    bench.add_argument("--unchecked", action="store_true")
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        return _fail(str(exc), EXIT_FORMAT)
    except ClaimViolationError as exc:
        return _fail(f"{exc}; this is a bug", EXIT_BUG)
