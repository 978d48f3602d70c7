"""Golden routings: fixed (instance, seed) cases pinned to their routing bytes.

Each case records the sha256 of `emit_routing(solve(dg, seed))`, or the name
of the exception `solve` raises. A refactor of the router must leave every
digest unchanged; a change that alters routing on purpose updates the digest
and says why.
"""

import hashlib
from random import Random

import pytest

from gridpair import (
    GridSpec,
    emit_routing,
    from_pairing,
    random_demand_multigraph,
    random_pairing,
    solve,
    vertex_from_rank,
)

# name: (instance kind, t, n, seed for both the instance and solve, unchecked)
CASES = {
    "pairing_t18_n1": ("pairing", 18, 1, 101, False),
    "pairing_t18_n2": ("pairing", 18, 2, 102, False),
    "multigraph_t30_n2_q4": ("q4", 30, 2, 103, False),
    "pairing_t18_n3": ("pairing", 18, 3, 104, False),
    "sparse_t18_n4_m50": ("sparse50", 18, 4, 105, False),
    "unchecked_t4_n2": ("pairing", 4, 2, 102, True),
    "unchecked_t6_n3": ("pairing", 6, 3, 103, True),
    "unchecked_t8_n3": ("pairing", 8, 3, 108, True),
}

GOLDEN = {
    "pairing_t18_n1": "258ad12be40ae6133662a1deec2777c4b53a99c4b5f6a261bf5d2eaea8c25e3c",
    "pairing_t18_n2": "a76832cd6f07cb3c256416bd09393ea12e11013b8f5b72acbcbe3db02ba60d52",
    "multigraph_t30_n2_q4": "6d99972611f6fc2a47e89bac22b2ba0b7c4d07f4909c32aede711bbf2e600d40",
    "pairing_t18_n3": "f752d5570ef8a703b6cee24b63b4fc387a9ed6e41f40f51b9d5eda869f0ae857",
    "sparse_t18_n4_m50": "75e26504afe49b9f04acdde12d0e5022e548daf7581cbf98ad0a750cda2e4825",
    "unchecked_t4_n2": "BaseSolverExhaustedError",
    "unchecked_t6_n3": "2ba07fba589ae77f128b2e053717aeb1b51b93839c25e1e4e3776ddc0fc22c10",
    "unchecked_t8_n3": "dc60723c7016b2b1ec3810452405ab2c449faaa23c7d2841f61f2e1d62aece26",
}


def _pairs(kind: str, spec: GridSpec, rng: Random):
    if kind == "pairing":
        return random_pairing(spec, rng)
    if kind == "q4":
        return random_demand_multigraph(spec, 4, rng)
    # 50 demands on 100 distinct random vertices, drawn by rank
    verts = [vertex_from_rank(r, spec) for r in rng.sample(range(spec.num_vertices), 100)]
    return list(zip(verts[::2], verts[1::2]))


def _outcome(name: str) -> str:
    kind, t, n, seed, unchecked = CASES[name]
    spec = GridSpec(t, n)
    dg = from_pairing(spec, _pairs(kind, spec, Random(seed)))
    try:
        routing = solve(dg, seed=seed, unchecked=unchecked)
    except Exception as exc:  # the exception type is part of the pinned outcome
        return type(exc).__name__
    return hashlib.sha256(emit_routing(routing).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_routing(name):
    assert _outcome(name) == GOLDEN[name]
