"""Adaptive reconstruction of bandlimited graph signals.

Online LMS and RLS estimators that track a bandlimited signal on a graph
from randomly sampled noisy vertex observations, closed-form steady-state
and convergence theory for both, solvers that design the per-vertex
sampling probabilities against rate and accuracy targets, and a simulated
fully distributed RLS based on consensus ADMM.
"""

from .graphs import (
    Bandlimit,
    Graph,
    GraphFormatError,
    build_laplacian,
    connected_components,
    eigendecompose,
    load_edge_list,
    random_geometric_graph,
    save_edge_list,
)
from .sampling import (
    NoiseModel,
    ReconstructabilityError,
    SamplingProbabilities,
    draw_blocks,
    leverage_score_probabilities,
    leverage_scores,
    max_det_greedy,
    reconstructability_lambda,
    uniform_random_set,
    weighted_gram,
)
from .filters import (
    lms_msd_theory,
    lms_msd_upper_bound,
    lms_rate_theory,
    lms_step_bound,
    lms_theory_report,
    lms_update,
    rls_msd_theory,
    rls_outer_table,
    rls_theory_report,
    rls_update,
)
from .design import (
    DesignSpec,
    InfeasibleDesignError,
    dinkelbach_min_msd,
    sca_min_msd,
    sca_min_rate,
    solve_min_rate_convex,
    solve_rls_design,
)
from .distributed import (
    CommGraph,
    DrlsConfig,
    drls_local_update,
    drls_multiplier_update,
    drls_network_init,
    drls_round,
    drls_simulate,
)
from .harness import (
    build_setup,
    compare_sampling,
)

__version__ = "0.1.0"

__all__ = [
    "Bandlimit",
    "CommGraph",
    "DesignSpec",
    "DrlsConfig",
    "Graph",
    "GraphFormatError",
    "InfeasibleDesignError",
    "NoiseModel",
    "ReconstructabilityError",
    "SamplingProbabilities",
    "build_laplacian",
    "build_setup",
    "compare_sampling",
    "connected_components",
    "dinkelbach_min_msd",
    "draw_blocks",
    "drls_local_update",
    "drls_multiplier_update",
    "drls_network_init",
    "drls_round",
    "drls_simulate",
    "eigendecompose",
    "leverage_score_probabilities",
    "leverage_scores",
    "lms_msd_theory",
    "lms_msd_upper_bound",
    "lms_rate_theory",
    "lms_step_bound",
    "lms_theory_report",
    "lms_update",
    "load_edge_list",
    "max_det_greedy",
    "random_geometric_graph",
    "reconstructability_lambda",
    "rls_msd_theory",
    "rls_outer_table",
    "rls_theory_report",
    "rls_update",
    "save_edge_list",
    "sca_min_msd",
    "sca_min_rate",
    "solve_min_rate_convex",
    "solve_rls_design",
    "uniform_random_set",
    "weighted_gram",
]
