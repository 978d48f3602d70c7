"""Golden routings: fixed (instance, seed) cases pinned to their routing bytes.

Each case records the sha256 of `emit_routing(solve(dg, seed))`, or the name
of the exception `solve` raises. A refactor of the router must leave every
digest unchanged; a change that alters routing on purpose updates the digest
and says why. The `gen` cases pin the instance files the generators write.
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
)
from gridpair.cli import main as cli_main

# name: (instance kind, t, n, seed for both the instance and solve, unchecked)
CASES = {
    "pairing_t18_n1": ("pairing", 18, 1, 101, False),
    "pairing_t18_n2": ("pairing", 18, 2, 102, False),
    "multigraph_t30_n2_q4": ("q4", 30, 2, 103, False),
    "pairing_t18_n3": ("pairing", 18, 3, 104, False),
    "sparse_t18_n4_m50": ("sparse50", 18, 4, 105, False),
    "unchecked_t4_n2": ("pairing", 4, 2, 102, True),
    "unchecked_t6_n3": ("pairing", 6, 3, 103, True),
    "unchecked_t4_n3": ("pairing", 4, 3, 103, True),
    "unchecked_t8_n3": ("pairing", 8, 3, 108, True),
    # Greedy restarts deep in the recursion pin the order in which restarts
    # draw from the solve's one RNG: t6_n5 restarts one column of layer 3/5,
    # s36 one of layer 0/0/1, s41 one of layer 0/1 and then one of layer 1.
    "unchecked_t6_n5": ("pairing", 6, 5, 105, True),
    "restart_t6_n5_s36": ("pairing", 6, 5, 36, True),
    "restart_t6_n5_s41": ("pairing", 6, 5, 41, True),
}

GOLDEN = {
    "pairing_t18_n1": "258ad12be40ae6133662a1deec2777c4b53a99c4b5f6a261bf5d2eaea8c25e3c",
    "pairing_t18_n2": "411c5062fcc9e26e8f2d138e538211f6ad6d810f92defac53229abbb57a38771",
    "multigraph_t30_n2_q4": "8ae9ccfb5cc9ba45a7b0a2775c913353cc000aa8c237ffa8eadf531bf5f88675",
    "pairing_t18_n3": "dcf126bf7f30ce729b78ac75e61705ffb81ef50b53889fd66dbf1418a708f881",
    "sparse_t18_n4_m50": "5b57ef65648ed7a454c1c365009507ae7b58d1f804e2dd89bf87e85b7a0d5f23",
    "unchecked_t4_n2": "a9e469008c60cc47aa3ae5ee38db924c19fedea98700a6190d7a2ee9376d85ab",
    "unchecked_t6_n3": "075e24ca1c6dadd4ee5715e00f6a85b4a3dff3ebc7d7e1c4c2b647975c30741a",
    "unchecked_t4_n3": "BaseSolverExhaustedError",
    "unchecked_t8_n3": "8ca48b3033e5853338f2242ecfeaaf27352c567cec560feea1e17db18594c3c5",
    "unchecked_t6_n5": "698a7773e1022ff26b31b6717c249bb15570fb4cf1f351b28e086c9f818326a1",
    "restart_t6_n5_s36": "7145ee9ccf222a0b762b7ced0fe8c48306747d1a7ede0a6403291c02b30d5e35",
    "restart_t6_n5_s41": "ab43570ad30049d05556b7cdd95a408d973bf5bb2dfeb95cf6d356baadb66d70",
}


def _pairs(kind: str, spec: GridSpec, rng: Random):
    if kind == "pairing":
        return random_pairing(spec, rng)
    if kind == "q4":
        return random_demand_multigraph(spec, 4, rng)
    # 50 demands on 100 distinct random vertices, drawn by rank
    verts = rng.sample(range(spec.num_vertices), 100)
    return list(zip(verts[::2], verts[1::2]))


def _outcome(name: str) -> str:
    kind, t, n, seed, unchecked = CASES[name]
    spec = GridSpec(t, n)
    dg = from_pairing(spec, _pairs(kind, spec, Random(seed)))
    try:
        routing = solve(dg, seed=seed, unchecked=unchecked)
    except Exception as exc:  # the exception type is part of the pinned outcome
        return type(exc).__name__
    return hashlib.sha256(emit_routing(routing, spec).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_routing(name):
    assert _outcome(name) == GOLDEN[name]


# name: (`gridpair gen` arguments, sha256 of the instance file they write)
GEN_GOLDEN = {
    "pairing_t18_n2": (
        "18 2 --seed 1",
        "061a633ee29183d05c382e365b937474314ef9e8bbbb85a15a8faa164b8a40f3",
    ),
    "pairing_t18_n3": (
        "18 3 --seed 2",
        "a0ea522100153b9897867a5b6286da51fbabb18dd2b033c554bc43f8e0c8953e",
    ),
    "multigraph_t30_n2_q4": (
        "30 2 --mode multigraph --q 4 --seed 3",
        "ca52da1571a1c0c966b544d2577aa8939ad58ad0404a9abd08358daecd3a1d11",
    ),
}


@pytest.mark.parametrize("name", sorted(GEN_GOLDEN))
def test_golden_gen(name, tmp_path):
    args, digest = GEN_GOLDEN[name]
    out = tmp_path / "instance.txt"
    assert cli_main(["gen", *args.split(), "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
