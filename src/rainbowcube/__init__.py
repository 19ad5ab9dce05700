"""Rainbow cycle colorings of hypercubes.

Constructions from generalized Sidon sets and progression-free sets,
exhaustive rainbow verification, exact minimum color search, and the
equation-genus tooling behind solution-free subset searches.
"""

from .addsets import (
    behrend_set,
    bose_chowla,
    conjecture_system,
    equation_free_subset,
    find_solutions,
    genus,
    greedy_bt,
    is_trivial_solution,
    verify_3ap_free,
    verify_bt,
)
from .coloring import (
    EdgeColoring,
    construction1,
    construction2,
    count_colors,
    derive_c2_params,
    weight_a,
)
from .errors import BudgetError, InternalError, RainbowCubeError, UsageError
from .hypercube import (
    Edge,
    build_cycle_same_level,
    canonical_cycle,
    count_level_edges,
    cycle_problem,
    cycles_containing_pair,
    edge_between,
    edge_level,
    edges_of_cycle,
    enumerate_cycles,
    enumerate_edges,
)
from .verifier import (
    BoundCertificate,
    ConflictGraph,
    Violation,
    conflict_graph,
    exact_min_colors,
    lower_bound_clique,
    verify_rainbow,
)

__version__ = "0.1.0"

__all__ = [
    "BoundCertificate",
    "BudgetError",
    "ConflictGraph",
    "Edge",
    "EdgeColoring",
    "InternalError",
    "RainbowCubeError",
    "UsageError",
    "Violation",
    "behrend_set",
    "bose_chowla",
    "build_cycle_same_level",
    "canonical_cycle",
    "conflict_graph",
    "conjecture_system",
    "construction1",
    "construction2",
    "count_colors",
    "count_level_edges",
    "cycle_problem",
    "cycles_containing_pair",
    "derive_c2_params",
    "edge_between",
    "edge_level",
    "edges_of_cycle",
    "enumerate_cycles",
    "enumerate_edges",
    "equation_free_subset",
    "exact_min_colors",
    "find_solutions",
    "genus",
    "greedy_bt",
    "is_trivial_solution",
    "lower_bound_clique",
    "verify_3ap_free",
    "verify_bt",
    "verify_rainbow",
    "weight_a",
]
