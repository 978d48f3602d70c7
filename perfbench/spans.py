"""Spans around gridpair's public functions, recorded from outside the package.

Each public function is replaced at the name its caller looks it up by
(`gridpair.router.two_factorization`, `gridpair.cli.verify`, ...), so the
program's own code is unchanged. Span durations are CPU seconds: on pool
threads the thread's own CPU clock, on the main thread the process clock,
which also covers pool threads while the main thread waits in `solve`. Under
the interpreter lock two threads interleave, so wall-clock spans would
count the same second twice; CPU time keeps the layers additive.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable

Info = Callable[[tuple, dict, Any], tuple]


def _dim(num_vertices: int, t: int) -> int:
    """n such that t^n == num_vertices."""
    n, size = 0, 1
    while size < num_vertices:
        size *= t
        n += 1
    return n


def _targets(t: int) -> list[tuple[str, str, str, Info | None]]:
    """(module, attribute, span name, info) for every wrapped call site.

    `info` returns (level, *counts) from the call's arguments and result;
    the level is the dimension of the grid the call works on.
    """
    return [
        ("gridpair.cli", "parse_instance", "formats.parse_instance",
         lambda a, k, r: (0, len(a[0]))),
        ("gridpair.cli", "parse_routing", "formats.parse_routing",
         lambda a, k, r: (0, len(a[0]))),
        ("gridpair.cli", "emit_routing", "formats.emit_routing",
         lambda a, k, r: (0, len(r))),
        ("gridpair.cli", "solve", "router.solve",
         lambda a, k, r: (a[0].spec.n, max((x[1] for x in k["diagnostics"].records), default=0),
                          max((x[3] for x in k["diagnostics"].records), default=0))),
        ("gridpair.cli", "verify", "verify.verify",
         lambda a, k, r: (0, sum(len(tr.vertices) - 1 for tr in a[2].values()),
                          len(r.violations))),
        ("gridpair.router", "split_demands", "demand.split_demands",
         lambda a, k, r: (a[0].spec.n,)),
        ("gridpair.router", "project", "demand.project",
         lambda a, k, r: (a[1].n,)),
        ("gridpair.router", "regularize", "demand.regularize",
         lambda a, k, r: (a[0].base.n + 1, len(a[0].edges), len(r.edges) - len(a[0].edges))),
        ("gridpair.router", "two_factorization", "factorization.two_factorization",
         lambda a, k, r: (_dim(a[0].num_vertices, t) + 1, len(a[0].edges))),
        ("gridpair.router", "group_factors", "factorization.group_factors", None),
        ("gridpair.router", "build_subproblems", "router.build_subproblems",
         lambda a, k, r: (a[0].spec.n,)),
        ("gridpair.router", "solve_complete", "router.solve_complete",
         lambda a, k, r: (1, len(a[1]), sum(1 for v in r.values() if len(v) > 2), len(r))),
        ("gridpair.router", "stitch", "router.stitch",
         lambda a, k, r: (len(a[0].middle.u),)),
        ("gridpair.router", "lift_trail", "grid.lift_trail",
         lambda a, k, r: (len(a[0].vertices[0]) + 1,)),
        ("gridpair.factorization", "euler_orient", "factorization.euler_orient", None),
        ("gridpair.factorization", "bipartite_matching_decomposition",
         "factorization.matching_decomposition", None),
    ]


class Tracer:
    """Thread-local span stacks over one shared in-memory span list.

    A span is (name, wall start, wall end, cpu seconds, parent index, op id,
    info). A span opened on a pool thread with an empty stack takes the
    main thread's innermost open span as parent: the call that fanned out.
    Call sites that no longer exist and counts that can no longer be read
    are listed in `missing` and `info_errors`; their metrics read 0.
    """

    def __init__(self, t: int) -> None:
        self.t = t
        self.spans: list[tuple | None] = []
        self.op = 0
        self._main_ident = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()  # pool threads claim span slots concurrently
        self._saved: list[tuple[Any, str, Any]] = []
        self.missing: set[str] = set()
        self.info_errors: set[str] = set()

    def _thread_state(self) -> tuple[list[int], Callable[[], float]]:
        loc = self._local
        try:
            return loc.stack, loc.clock
        except AttributeError:
            if threading.get_ident() == self._main_ident:
                loc.stack, loc.clock = self._main_stack, time.process_time
            else:
                loc.stack, loc.clock = [], time.thread_time
            return loc.stack, loc.clock

    def span(self, name: str, fn: Callable, info: Info | None = None,
             before: Callable[[dict], None] | None = None) -> Callable:
        spans = self.spans
        main_stack = self._main_stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            stack, clock = self._thread_state()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else -1
            if before is not None:
                before(kwargs)
            with self._lock:
                idx = len(spans)
                spans.append(None)
            stack.append(idx)
            c0, w0 = clock(), perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                w1, c1 = perf(), clock()
                stack.pop()
            counts = None
            if info is not None:
                try:
                    counts = info(args, kwargs, result)
                except Exception:  # a changed signature loses the counts, not the run
                    self.info_errors.add(name)
            spans[idx] = (name, w0, w1, c1 - c0, parent, self.op, counts)
            return result

        return traced

    def install(self) -> None:
        diagnostics = getattr(importlib.import_module("gridpair.router"), "RouteDiagnostics", None)

        def with_diagnostics(kwargs: dict) -> None:
            kwargs.setdefault("diagnostics", diagnostics())

        for module_name, attr, name, info in _targets(self.t):
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.add(f"{module_name}.{attr}")
                continue
            before = with_diagnostics if name == "router.solve" and diagnostics else None
            self._saved.append((module, attr, original))
            setattr(module, attr, self.span(name, original, info, before))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def dump(self, path, workload: str, seed: int) -> None:
        """Write this tracer's spans as JSON lines."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                if s is None:
                    continue
                name, w0, w1, cpu, parent, op, info = s
                fh.write(json.dumps({
                    "workload": workload, "seed": seed, "op": op, "id": i, "parent": parent,
                    "name": name, "start": w0, "end": w1, "cpu_s": cpu, "info": info,
                }) + "\n")


LEVEL_STAGES = {
    "demand.project": "project",
    "demand.regularize": "regularize",
    "factorization.two_factorization": "two_factorization",
    "router.build_subproblems": "build_subproblems",
    "router.stitch": "stitch",
    "grid.lift_trail": "lift_trail",
}
LEVELS = (2, 3, 4)


def layer_metrics(spans: list[tuple | None], op: int) -> dict[str, float]:
    """Per-layer totals, self times and counts for one traced operation."""
    ops = [(i, s) for i, s in enumerate(spans) if s is not None and s[5] == op]
    child_cpu: dict[int, float] = defaultdict(float)
    for _, s in ops:
        if s[4] >= 0:
            child_cpu[s[4]] += s[3]
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    level: dict[str, float] = defaultdict(float)
    info: dict[str, list] = defaultdict(list)
    for i, s in ops:
        name, cpu = s[0], s[3]
        total[name] += cpu
        self_s[name] += cpu - child_cpu.get(i, 0.0)
        calls[name] += 1
        if s[6] is not None:
            info[name].append(s[6])
            stage = LEVEL_STAGES.get(name)
            if stage is not None:
                level[f"level{s[6][0]}.{stage}_s"] += cpu

    reg = info["demand.regularize"]
    real = sum(x[1] for x in reg)
    dummy = sum(x[2] for x in reg)
    columns = info["router.solve_complete"]
    trails = sum(x[3] for x in columns)
    m = {
        "cli.op_s": total["cli.main"],
        "cli.self_s": self_s["cli.main"],
        "formats.parse_instance_s": total["formats.parse_instance"],
        "formats.parse_routing_s": total["formats.parse_routing"],
        "formats.emit_routing_s": total["formats.emit_routing"],
        "formats.instance_bytes": sum(x[1] for x in info["formats.parse_instance"]),
        "formats.routing_bytes": sum(x[1] for x in info["formats.emit_routing"])
        + sum(x[1] for x in info["formats.parse_routing"]),
        "demand.project_s": total["demand.project"],
        "demand.regularize_s": total["demand.regularize"],
        "demand.split_demands_s": total["demand.split_demands"],
        "demand.real_aux_edges": real,
        "demand.dummy_aux_edges": dummy,
        "demand.real_aux_ratio": real / (real + dummy) if real + dummy else 0.0,
        "factorization.calls": calls["factorization.two_factorization"],
        "factorization.host_edges": sum(x[1] for x in info["factorization.two_factorization"]),
        "factorization.two_factorization_s": total["factorization.two_factorization"],
        "factorization.euler_orient_s": total["factorization.euler_orient"],
        "factorization.euler_orient_calls": calls["factorization.euler_orient"],
        "factorization.matching_decomposition_s": self_s["factorization.matching_decomposition"],
        "factorization.group_factors_s": total["factorization.group_factors"],
        "router.solve_s": total["router.solve"],
        "router.self_s": self_s["router.solve"],
        "router.build_subproblems_s": total["router.build_subproblems"],
        "router.build_subproblems_calls": calls["router.build_subproblems"],
        "router.stitch_s": total["router.stitch"],
        "router.stitch_calls": calls["router.stitch"],
        "router.solve_complete_s": total["router.solve_complete"],
        "router.solve_complete_calls": calls["router.solve_complete"],
        "router.column_demands": sum(x[1] for x in columns),
        "router.detour_ratio": sum(x[2] for x in columns) / trails if trails else 0.0,
        "router.layer_degree_max": max((x[1] for x in info["router.solve"]), default=0),
        "router.column_degree_max": max((x[2] for x in info["router.solve"]), default=0),
        "grid.lift_trail_s": total["grid.lift_trail"],
        "grid.lift_trail_calls": calls["grid.lift_trail"],
        "verify.verify_s": total["verify.verify"],
        "verify.edges_checked": sum(x[1] for x in info["verify.verify"]),
        "verify.violations": sum(x[2] for x in info["verify.verify"]),
    }
    for lv in LEVELS:
        for stage in LEVEL_STAGES.values():
            key = f"level{lv}.{stage}_s"
            m[key] = level.get(key, 0.0)
    return m
