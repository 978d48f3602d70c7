"""Workload definitions and the benchmark's own seeded input generators.

The generators work on vertex ranks (mixed radix, last coordinate least
significant) and emit the instance and routing text formats directly, so
the workloads stay fixed when the library's own generators change.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from random import Random


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "pairing", "multigraph", "sparse" or "naive"
    t: int
    n: int
    op: str  # "route" or "verify"
    jobs: int = 1
    q: int = 2  # maximum demand degree (multigraph)
    demands: int = 0  # demand count (sparse)
    duplicated: int = 0  # edges used more than once by the naive routing


# Why each workload exists: README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("pairing_t18_n3", "pairing", 18, 3, "route", jobs=2),
        Workload("multigraph_t30_n2_q4", "multigraph", 30, 2, "route", q=4),
        Workload("sparse_t18_n4_m50", "sparse", 18, 4, "route", demands=50),
        Workload("verify_naive_t12_n4", "naive", 12, 4, "verify", duplicated=700),
    )
}


def coords(rank: int, t: int, n: int) -> tuple[int, ...]:
    out = [0] * n
    for i in range(n - 1, -1, -1):
        rank, out[i] = divmod(rank, t)
    return tuple(out)


def rank_of(v: tuple[int, ...], t: int) -> int:
    r = 0
    for c in v:
        r = r * t + c
    return r


def perfect_pairing(t: int, n: int, rng: Random) -> list[tuple[int, int]]:
    """Uniformly random perfect pairing of all t^n vertex ranks."""
    ranks = list(range(t**n))
    rng.shuffle(ranks)
    return [(ranks[i], ranks[i + 1]) for i in range(0, len(ranks), 2)]


def degree_q_multigraph(t: int, n: int, q: int, rng: Random) -> list[tuple[int, int]]:
    """q independent random perfect pairings: every vertex has degree exactly q.

    Parallel demands can occur; self-demands cannot.
    """
    pairs: list[tuple[int, int]] = []
    for _ in range(q):
        pairs.extend(perfect_pairing(t, n, rng))
    return pairs


def sparse_pairs(t: int, n: int, m: int, rng: Random) -> list[tuple[int, int]]:
    """m demands on 2m distinct random vertices, drawn without listing the grid."""
    seen: set[int] = set()
    order: list[int] = []
    total = t**n
    while len(order) < 2 * m:
        r = rng.randrange(total)
        if r not in seen:
            seen.add(r)
            order.append(r)
    return [(order[i], order[i + 1]) for i in range(0, 2 * m, 2)]


def instance_text(t: int, n: int, pairs: list[tuple[int, int]]) -> str:
    lines = [f"GRID {t} {n}", f"DEMANDS {len(pairs)}"]
    for did, (u, v) in enumerate(pairs):
        cu = " ".join(map(str, coords(u, t, n)))
        cv = " ".join(map(str, coords(v, t, n)))
        lines.append(f"{did} {cu} {cv}")
    return "\n".join(lines) + "\n"


def dimension_order_trail(u: tuple[int, ...], v: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Walk from u to v fixing coordinates left to right, skipping equal ones."""
    cur = list(u)
    verts = [u]
    for i, c in enumerate(v):
        if cur[i] != c:
            cur[i] = c
            verts.append(tuple(cur))
    return verts


def naive_routing(
    t: int, n: int, pairs: list[tuple[int, int]], duplicated: int
) -> tuple[int, int, str, list[int]]:
    """Dimension-order routing of the shortest prefix of pairs that reuses `duplicated` edges.

    Returns the prefix length, the count of reused edges (the last trail can
    add more than one), the routing text and the trail lengths. The
    verifier's violation path costs about (reused edges) x (trails), so a
    fixed count keeps that cost alike across seeds.
    """
    uses: Counter[int] = Counter()
    found = 0
    lines: list[str] = []
    lengths: list[int] = []
    total = t**n
    for did, (u, v) in enumerate(pairs):
        if found >= duplicated:
            break
        verts = dimension_order_trail(coords(u, t, n), coords(v, t, n))
        ranks = [rank_of(x, t) for x in verts]
        for a, b in zip(ranks, ranks[1:]):
            key = a * total + b if a < b else b * total + a
            uses[key] += 1
            found += uses[key] == 2
        lengths.append(len(verts) - 1)
        body = " | ".join(" ".join(map(str, x)) for x in verts)
        lines.append(f"{did} {len(verts) - 1} {body}")
    if found < duplicated:
        raise ValueError(f"{len(pairs)} pairs reuse only {found} edges, not {duplicated}")
    return len(lines), found, f"ROUTING {len(lines)}\n" + "\n".join(lines) + "\n", lengths


@dataclass
class Inputs:
    """Files for one workload plus what the output check needs to know."""

    argv: list[str]
    pairs: list[tuple[int, int]]
    vertices: int
    duplicated_edges: int = 0
    naive_lengths: list[int] | None = None


def make_inputs(w: Workload, seed: int, workdir: Path) -> Inputs:
    """Generate and write the workload's input files; same seed, same bytes."""
    rng = Random(f"perfbench/{w.name}/{seed}")
    if w.kind == "pairing":
        pairs = perfect_pairing(w.t, w.n, rng)
    elif w.kind == "multigraph":
        pairs = degree_q_multigraph(w.t, w.n, w.q, rng)
    elif w.kind == "sparse":
        pairs = sparse_pairs(w.t, w.n, w.demands, rng)
    else:
        pairs = perfect_pairing(w.t, w.n, rng)
    instance = workdir / "instance.txt"
    routing = workdir / "routing.txt"
    if w.op == "route":
        argv = ["route", str(instance), str(routing), "--seed", str(seed), "--jobs", str(w.jobs)]
        inputs = Inputs(argv, pairs, w.t**w.n)
    else:
        used, found, routing_text, lengths = naive_routing(w.t, w.n, pairs, w.duplicated)
        routing.write_text(routing_text)
        argv = ["verify", str(instance), str(routing), "--json"]
        inputs = Inputs(argv, pairs[:used], w.t**w.n, found, lengths)
    instance.write_text(instance_text(w.t, w.n, inputs.pairs))
    return inputs
