#!/usr/bin/env python3
"""gridpair benchmark: time `gridpair route` / `gridpair verify` in-process.

One workload, the form BENCHMARK.json's command takes:

    python3 perfbench/run.py --workload pairing_t18_n3 --seed 1 --seconds 24 --trace 0

Every workload, each in a fresh process, untraced then traced, with a table
of every metric and a results file under .perfbench/:

    python3 perfbench/run.py --seed 1 --seconds 24

Run from the repository root; the program is imported from ./src. The last
line of a single-workload run is the JSON result. With --trace 0 it holds
the end-to-end metrics, with --trace 1 the per-layer metrics of a traced
run (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 12  # set-ups timed per run, spread over the timed operations
DEADLINE_S = 150.0  # a run stops starting operations after this long

sys.path.insert(0, str(HERE))
from check import check_route, check_verify  # noqa: E402
from workloads import WORKLOADS, Workload, make_inputs  # noqa: E402

END_TO_END_UNITS = {
    "op_s": "s",
    "us_per_demand": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "max_trail_len": "edges",
    "mean_trail_len": "edges",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def import_program():
    """Import gridpair.cli from ./src afresh, as a new process would."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "gridpair" or m.startswith("gridpair.")]:
        del sys.modules[name]
    cli = importlib.import_module("gridpair.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"gridpair was imported from {cli.__file__}, not from {SRC}")
    return cli


def run_op(main, argv: list[str]) -> tuple[int | str, float, str]:
    """One timed CLI call with output captured: (exit code, wall seconds, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # counted as a failed operation
            code = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    return code, wall, out.getvalue()


def check_op(w: Workload, inputs, code, stdout: str, routing: Path) -> tuple[list[str], list[int]]:
    if w.op == "verify":
        return check_verify(code, stdout, inputs.duplicated_edges), inputs.naive_lengths
    text = routing.read_text() if code == 0 and routing.is_file() else ""
    return check_route(w.t, w.n, inputs.pairs, code, text)


def commit_id() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(w: Workload, seed: int, inputs) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit_id(),
        "workload": w.name,
        "seed": seed,
        "grid": f"K_{w.t}^{w.n}",
        "demands": len(inputs.pairs),
        "vertices": inputs.vertices,
    }


def run_workload(w: Workload, seed: int, seconds: int, trace: bool) -> int:
    began = time.perf_counter()
    workdir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        def set_up():
            start = time.perf_counter()
            cli = import_program()
            inputs = make_inputs(w, seed, workdir)
            return time.perf_counter() - start, cli, inputs

        setup_s, cli, inputs = set_up()
        setups = [setup_s]
        routing = workdir / "routing.txt"
        problems: list[str] = []
        attempted = failed = 0

        def measured(main, reference: bytes | None = None) -> tuple[float, bytes, list[int]]:
            """Run, check and count one operation; `reference` is the output it must repeat."""
            nonlocal attempted, failed
            code, wall, stdout = run_op(main, inputs.argv)
            found, lengths = check_op(w, inputs, code, stdout, routing)
            output = stdout.encode() if w.op == "verify" else (
                routing.read_bytes() if routing.is_file() else b"")
            if reference is not None and output != reference:
                found.append("traced output differs from the untraced output")
            attempted += 1
            if found:
                failed += 1
                problems.extend(found)
            return wall, output, lengths

        def keep_going(walls: list[float]) -> bool:
            return not walls or (
                sum(walls) < seconds and time.perf_counter() - began < DEADLINE_S
            )

        env = environment(w, seed, inputs)
        if not trace:
            walls: list[float] = []
            _, _, lengths = measured(cli.main)  # warm-up, checked but not timed
            while keep_going(walls):
                wall, _, lengths = measured(cli.main)
                walls.append(wall)
                # Later set-ups rewrite identical files; their module objects go unused.
                if sum(walls) * SETUP_SAMPLES >= seconds * len(setups):
                    setups.append(set_up()[0])
            metrics = {
                "op_s": statistics.median(walls),
                "us_per_demand": sum(walls) / (len(walls) * len(inputs.pairs)) * 1e6,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "max_trail_len": max(lengths, default=0),
                "mean_trail_len": sum(lengths) / len(lengths) if lengths else 0.0,
            }
            units = END_TO_END_UNITS
            print(f"# timed operations (s): {' '.join(f'{x:.4f}' for x in walls)}")
        else:
            from spans import Tracer, layer_metrics

            tracer = Tracer(w.t)
            span_file = WORK / f"spans-{w.name}-{seed}.jsonl"
            plain: list[float] = []
            traced: list[float] = []
            per_op: list[dict[str, float]] = []
            while keep_going(plain + traced):
                wall, reference, _ = measured(cli.main)
                plain.append(wall)
                tracer.op = len(traced)
                tracer.install()
                try:
                    wall, _, _ = measured(tracer.span("cli.main", cli.main), reference)
                finally:
                    tracer.uninstall()
                traced.append(wall)
                per_op.append(layer_metrics(tracer.spans, tracer.op))
                if tracer.op == 0:
                    tracer.dump(span_file, w.name, seed)
                tracer.spans.clear()
            metrics = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
            metrics["trace.overhead_ratio"] = (
                statistics.median(traced) / statistics.median(plain) - 1
            )
            env["real_aux_edges"] = metrics["demand.real_aux_edges"]
            env["dummy_aux_edges"] = metrics["demand.dummy_aux_edges"]
            env["spans"] = str(span_file.relative_to(ROOT))
            units = {k: layer_unit(k) for k in metrics}
            if tracer.missing or tracer.info_errors:
                print(f"# trace: call sites missing {sorted(tracer.missing)}, "
                      f"counts unreadable {sorted(tracer.info_errors)}")
        for p in problems[:20]:
            print(f"# check failed: {p}")
        print(f"# failed_ratio {failed / attempted:.4f} ({failed} of {attempted})")
        print("# env " + json.dumps(env))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(seed: int, seconds: int) -> int:
    """Every workload in its own process, untraced then traced; prints every metric."""
    results = {"seed": seed, "seconds": seconds, "workloads": {}}
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} --trace {trace}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            env = next(json.loads(x[6:]) for x in lines if x.startswith("# env "))
            entry = results["workloads"].setdefault(name, {"env": {}, "metrics": {}})
            entry["env"].update(env)
            failed = {f"failed_ratio.trace{trace}": {
                "value": result["failed"] / result["attempted"], "unit": "ratio"}}
            entry["metrics"].update(result["metrics"] | failed)
            ok = ok and result["correct"]
            print(f"== {name} (trace {trace}): {result['attempted']} operations, "
                  f"{result['failed']} failed")
            for metric, mv in (result["metrics"] | failed).items():
                print(f"   {metric:<42} {mv['value']:>16.6g} {mv['unit']}")
    WORK.mkdir(exist_ok=True)
    (WORK / "results.json").write_text(json.dumps(results, indent=2) + "\n")
    print(f"results written to {(WORK / 'results.json').relative_to(ROOT)}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=24,
                        help="timed operation seconds per run (at least one operation)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "gridpair" / "cli.py").is_file():
        print(f"error: no gridpair sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    try:
        return run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
