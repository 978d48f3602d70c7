"""Output checks that share no code with gridpair.verify.

The verifier itself is a measured layer and will be rewritten, so the
benchmark decides correctness with its own parser and edge ledger.
"""

from __future__ import annotations

import json

from workloads import rank_of


def check_route(
    t: int, n: int, pairs: list[tuple[int, int]], exit_code: int, routing_text: str
) -> tuple[list[str], list[int]]:
    """Problems found in a routing file, and its trail lengths.

    Checks: exit code 0, every demand routed exactly once, trail ends equal
    the demand's ends, every step changes exactly one in-range coordinate,
    and no grid edge appears twice across all trails.
    """
    problems: list[str] = []
    if exit_code != 0:
        problems.append(f"route exited {exit_code}")
        return problems, []
    lines = routing_text.splitlines()
    head = lines[0].split() if lines else []
    if head != ["ROUTING", str(len(pairs))] or len(lines) != len(pairs) + 1:
        problems.append(f"header {lines[:1]!r} with {len(lines) - 1} trails, expected {len(pairs)}")
        return problems, []
    seen_ids: set[int] = set()
    used: set[int] = set()
    lengths: list[int] = []
    total = t**n
    for line in lines[1:]:
        segments = line.split("|")
        first = segments[0].split()
        try:
            did, declared = int(first[0]), int(first[1])
            verts = [tuple(map(int, first[2:]))] + [tuple(map(int, s.split())) for s in segments[1:]]
        except (ValueError, IndexError):
            problems.append(f"unreadable trail line {line[:80]!r}")
            continue
        if did in seen_ids or not 0 <= did < len(pairs):
            problems.append(f"demand {did} routed twice or unknown")
            continue
        seen_ids.add(did)
        if declared != len(verts) - 1:
            problems.append(f"demand {did}: declared length {declared}, has {len(verts) - 1}")
        if any(len(v) != n or not all(0 <= c < t for c in v) for v in verts):
            problems.append(f"demand {did}: vertex outside K_{t}^{n}")
            continue
        ranks = [rank_of(v, t) for v in verts]
        if {ranks[0], ranks[-1]} != set(pairs[did]):
            problems.append(f"demand {did}: trail ends do not match the demand")
        for (a, b), (ra, rb) in zip(zip(verts, verts[1:]), zip(ranks, ranks[1:])):
            if sum(x != y for x, y in zip(a, b)) != 1:
                problems.append(f"demand {did}: step {a} -> {b} is not a grid edge")
                continue
            key = ra * total + rb if ra < rb else rb * total + ra
            if key in used:
                problems.append(f"demand {did}: edge {a} -- {b} used twice")
            used.add(key)
        lengths.append(len(verts) - 1)
    if len(seen_ids) != len(pairs):
        problems.append(f"{len(pairs) - len(seen_ids)} demands not routed")
    return problems[:20], lengths


def check_verify(exit_code: int, report_text: str, duplicated_edges: int) -> list[str]:
    """Problems with a `verify --json` run on a routing known to reuse edges."""
    if exit_code != 1:
        return [f"verify exited {exit_code}, expected 1 (violations)"]
    try:
        violations = json.loads(report_text)["violations"]
        found = sum(1 for v in violations if v["kind"] == "DUPLICATE_EDGE")
    except (ValueError, KeyError, TypeError):
        return [f"unreadable verify report {report_text[:80]!r}"]
    if found != duplicated_edges:
        return [f"verify reported {found} DUPLICATE_EDGE, expected {duplicated_edges}"]
    return []
