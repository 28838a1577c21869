"""Solvers and experiment tooling for lattice cost minimization.

The problem: minimize a cost function over all subsets of a finite set,
where the cost is U-shaped along every chain of the subset lattice. The
package ships the corrected lattice search (optimal), a branch-and-bound
baseline (optimal), floating sequential selection (heuristic), exhaustive
enumeration (oracle), a reimplementation of the earlier flawed search for
counter-example demonstration, and an experiment harness.
"""

from .cost import (
    BudgetExhausted,
    CostEvaluator,
    Instance,
    SampleTable,
    TargetReached,
    Witness,
    generate_decomposable_explicit,
    generate_sample_table,
    generate_subset_sum_instance,
    load_instance,
    mce_cost,
    mce_instance,
    save_instance,
    verify_decomposable,
)
from .harness import (
    ExperimentConfig,
    dynamics_profile,
    run_benchmark,
    run_optimal,
    run_solver,
    run_suboptimal,
)
from .lattice import (
    LOWER,
    UPPER,
    RestrictionSet,
    full_set,
    maximal_element,
    minimal_element,
    parse_element,
    render_element,
)
from .oracle import exhaustive_solve, find_counterexample, legacy_ucurve_solve
from .report import SearchReport
from .sffs import sbs_step, sffs_solve, sfs_step
from .ubb import ubb_solve
from .ucs import Node, dfs, node_pruning, select_unvisited_adjacent, ucs_solve

__all__ = [
    "BudgetExhausted",
    "CostEvaluator",
    "ExperimentConfig",
    "Instance",
    "LOWER",
    "Node",
    "RestrictionSet",
    "SampleTable",
    "SearchReport",
    "TargetReached",
    "UPPER",
    "Witness",
    "dfs",
    "dynamics_profile",
    "exhaustive_solve",
    "find_counterexample",
    "full_set",
    "generate_decomposable_explicit",
    "generate_sample_table",
    "generate_subset_sum_instance",
    "legacy_ucurve_solve",
    "load_instance",
    "maximal_element",
    "mce_cost",
    "mce_instance",
    "minimal_element",
    "node_pruning",
    "parse_element",
    "render_element",
    "run_benchmark",
    "run_optimal",
    "run_solver",
    "run_suboptimal",
    "save_instance",
    "sbs_step",
    "select_unvisited_adjacent",
    "sffs_solve",
    "sfs_step",
    "ubb_solve",
    "ucs_solve",
    "verify_decomposable",
]
