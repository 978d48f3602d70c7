"""Command-line interface: gen, route, verify, stats, bench."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from random import Random
from typing import Callable, NoReturn, Sequence, TypeVar

from .demand import from_pairing, random_demand_multigraph, random_pairing
from .errors import (
    BaseSolverExhaustedError,
    ClaimViolationError,
    FormatError,
    GridpairError,
    InfeasibleBudgetError,
    SizeLimitError,
)
from .formats import emit_instance, emit_routing, parse_instance, parse_routing
from .grid import GridSpec
from .router import solve
from .verify import VerificationReport, verify

T = TypeVar("T")

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_INFEASIBLE = 2
EXIT_EXHAUSTED = 3
EXIT_BUG = 4
EXIT_FORMAT = 5
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: what a shell reports for a writer whose reader left

# The one place a raised failure becomes an exit code: code and stderr form per class.
EXIT_TABLE: dict[type[GridpairError], tuple[int, str]] = {
    FormatError: (EXIT_FORMAT, "{}"),
    InfeasibleBudgetError: (EXIT_INFEASIBLE, "{}"),
    BaseSolverExhaustedError: (EXIT_EXHAUSTED, "{}"),
    ClaimViolationError: (EXIT_BUG, "{}; this is a bug"),
    SizeLimitError: (EXIT_BUG, "{}; this is a bug"),  # only the oracle raises it
}


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


def _grid(args: argparse.Namespace) -> GridSpec:
    try:
        return GridSpec(args.t, args.n)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def _parse_file(path: str, parse: Callable[..., T], *args: object) -> T:
    """parse(text of the file, *args); every FormatError names the file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    try:
        return parse(text, *args)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from None


def _check_writable(path: str) -> None:
    """Fail before any work when path is a directory or its directory is missing or read-only."""
    if Path(path).is_dir():
        raise FormatError(f"cannot write {path}: it is a directory")
    parent = Path(path).parent
    if not parent.is_dir() or not os.access(parent, os.W_OK):
        raise FormatError(f"cannot write {path}: {parent} is not a writable directory")


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
) -> list[tuple[int, int]]:
    """Demand pairs (vertex ranks) of a random instance for gen and bench.

    Raises InfeasibleBudgetError when no such instance exists or the budget q
    is out of range; `unchecked` lifts only the q <= floor(t/6)-1 cap.
    """
    if mode == "pairing":
        if spec.num_vertices % 2:
            raise InfeasibleBudgetError(
                f"pairing mode needs an even vertex count, t^n = {spec.num_vertices} is odd"
            )
        return random_pairing(spec, rng)
    if q is None:
        raise InfeasibleBudgetError("multigraph mode requires --q")
    cap = spec.t // 6 - 1
    if q % 2 or q < 2 or (q > cap and not unchecked):
        raise InfeasibleBudgetError(f"--q must be even with 2 <= q <= floor(t/6)-1 = {cap}")
    return random_demand_multigraph(spec, q, rng)


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = _grid(args)
    pairs = _random_pairs(spec, args.mode, args.q, Random(_resolve_seed(args)))
    text = emit_instance(from_pairing(spec, pairs))
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_route(args: argparse.Namespace) -> int:
    _check_writable(args.output)
    dg = _parse_file(args.instance, parse_instance)
    routing = solve(dg, seed=_resolve_seed(args), unchecked=args.unchecked)
    report = verify(dg.spec, dg, routing)
    if not report.ok:
        print(_render_report(report, 6 * dg.spec.n - 3), file=sys.stderr)
        return _fail("routing failed verification; this is a bug", EXIT_BUG)
    _write(args.output, emit_routing(routing, dg.spec))
    print(
        f"routed {len(routing)} demands on K_{dg.spec.t}^{dg.spec.n}; "
        f"max trail length {report.stats.max_trail_length}; "
        f"edges used {report.stats.edges_used}/{report.stats.edges_total}"
    )
    return EXIT_OK


def _report_json(report: VerificationReport) -> str:
    # The dataclasses' own field dicts, not deep copies: json.dumps only reads them.
    payload = {
        "ok": report.ok,
        "violations": [vars(v) for v in report.violations],
        "stats": vars(report.stats),
    }
    return json.dumps(payload, indent=2, sort_keys=True, default=list)


def _cmd_verify(args: argparse.Namespace) -> int:
    """verify and stats: print the report; stats refuses a routing with violations."""
    dg = _parse_file(args.instance, parse_instance)
    routing = _parse_file(args.routing, parse_routing, dg.spec)
    report = verify(dg.spec, dg, routing)
    bound = 6 * dg.spec.n - 3
    if not report.ok and args.command == "stats":
        print(_render_report(report, bound), file=sys.stderr)
        return _fail("stats need a verified routing", EXIT_VIOLATIONS)
    print(_report_json(report) if args.json else _render_report(report, bound))
    return EXIT_OK if report.ok else EXIT_VIOLATIONS


def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    import resource  # POSIX only, and only bench reads it

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024 * 1024 if sys.platform == "darwin" else 1024)  # bytes there, KiB here


def _cmd_bench(args: argparse.Namespace) -> int:
    spec = _grid(args)
    if args.seeds < 1:
        raise FormatError(f"--seeds must be >= 1, got {args.seeds}")
    base_seed = _resolve_seed(args)
    all_ok = True
    times = []
    for i in range(args.seeds):
        # no name holds the pairs list, so it is freed before solve runs
        dg = from_pairing(
            spec, _random_pairs(spec, args.mode, args.q, Random(base_seed + i), args.unchecked)
        )
        start = time.perf_counter()
        routing = solve(dg, seed=base_seed + i, unchecked=args.unchecked)
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        start = time.perf_counter()
        report = verify(spec, dg, routing)
        checked = time.perf_counter() - start
        all_ok = all_ok and report.ok
        print(
            f"seed {base_seed + i}: {len(routing)} demands in {elapsed * 1000:.1f} ms, "
            f"max trail {report.stats.max_trail_length}, "
            f"verify {'ok' if report.ok else 'FAILED'} in {checked * 1000:.1f} ms"
        )
        del dg, routing, report  # freed before the next seed builds its own
    print(
        f"summary: {args.seeds} runs on K_{spec.t}^{spec.n}, "
        f"mean {sum(times) / len(times) * 1000:.1f} ms, "
        f"max {max(times) * 1000:.1f} ms, "
        f"peak RSS {_peak_rss_mb():.1f} MB"
    )
    return EXIT_OK if all_ok else EXIT_BUG


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise FormatError, so main reports them in one line."""

    def error(self, message: str) -> NoReturn:
        raise FormatError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        help="accepted but not used; changes neither output nor speed",
    )
    route.add_argument(
        "--unchecked", action="store_true",
        help="skip the degree-budget feasibility gate (best effort, still verified)",
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
    stats.set_defaults(func=_cmd_verify)

    bench = sub.add_parser("bench", help="time end-to-end routing over several seeds")
    bench.add_argument("t", type=int)
    bench.add_argument("n", type=int)
    bench.add_argument("--seeds", type=int, default=5, help="number of runs")
    bench.add_argument("--mode", choices=("pairing", "multigraph"), default="pairing")
    bench.add_argument("--q", type=int, help="target max degree for multigraph mode")
    bench.add_argument("--seed", type=int, help="base seed (default: $GRIDPAIR_SEED or 0)")
    bench.add_argument("--unchecked", action="store_true")
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; every failure, a usage error included, leaves through EXIT_TABLE."""
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return code
    except GridpairError as exc:
        code, form = EXIT_TABLE[type(exc)]
        return _fail(form.format(exc), code)
    except BrokenPipeError:
        # The reader left (`gridpair verify ... | head -1`). Whatever stdout still
        # buffers goes to devnull, so the flush at exit cannot fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
