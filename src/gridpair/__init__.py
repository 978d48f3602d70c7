"""Edge-disjoint demand routing on complete grid graphs K_t^n."""

from .demand import (
    DemandEdge,
    DemandGraph,
    choose_q,
    from_pairing,
    random_demand_multigraph,
    random_pairing,
)
from .errors import (
    BaseSolverExhaustedError,
    ClaimViolationError,
    FormatError,
    GridpairError,
    InfeasibleBudgetError,
    SizeLimitError,
)
from .factorization import two_factorization
from .formats import emit_instance, emit_routing, parse_instance, parse_routing
from .grid import (
    GridSpec,
    Trail,
    Vertex,
    edge_count,
    vertex_from_rank,
    vertex_rank,
)
from .router import (
    RouteDiagnostics,
    Routing,
    solve,
    solve_complete,
)
from .verify import (
    StatsBlock,
    VerificationReport,
    Violation,
    degree_ratio,
    oracle_solve,
    verify,
)

__all__ = [
    "BaseSolverExhaustedError",
    "ClaimViolationError",
    "DemandEdge",
    "DemandGraph",
    "FormatError",
    "GridSpec",
    "GridpairError",
    "InfeasibleBudgetError",
    "RouteDiagnostics",
    "Routing",
    "SizeLimitError",
    "StatsBlock",
    "Trail",
    "VerificationReport",
    "Vertex",
    "Violation",
    "choose_q",
    "degree_ratio",
    "edge_count",
    "emit_instance",
    "emit_routing",
    "from_pairing",
    "oracle_solve",
    "parse_instance",
    "parse_routing",
    "random_demand_multigraph",
    "random_pairing",
    "solve",
    "solve_complete",
    "two_factorization",
    "verify",
    "vertex_from_rank",
    "vertex_rank",
]
