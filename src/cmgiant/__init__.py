"""Random multigraphs with prescribed degrees.

Build them by uniform half-edge pairing, decompose them into clusters,
compare their local neighborhoods with the two-stage branching process that
describes them in the large-n limit, and measure giant-component sizes,
typical distances, and coupling quality along the way.
"""

__version__ = "0.6.0"

from .components import (
    ComponentSummary,
    GiantStatistics,
    boundary_pair_fraction,
    component_decomposition,
    disconnected_pair_fraction,
    giant_statistics,
    sum_squares_ratio,
)
from .coupling import (
    CouplingTrace,
    coupled_exploration,
    reuse_bounds,
)
from .degree_model import (
    DegreeSequence,
    Pmf,
    empirical_distribution,
    sample_iid_degrees,
)
from .distances import sample_distances
from .graph_build import (
    ExplosionMap,
    HalfEdgeGraph,
    apply_shared_matching,
    coupled_pairing,
    disjoint_union,
    pair_half_edges,
    truncate_explode,
)
from .local_limit import (
    DegenerateDegreeTwoError,
    Envelope,
    OffspringSpec,
    build_offspring_spec,
    envelope_recursion,
    estimate_cond_limit,
    simulate_unimodular_bp,
    theoretical_giant,
    zeta_geq_k,
)
from .neighborhoods import (
    RootedBall,
    bp_ball_distribution,
    canonical_ball,
    canonical_code,
    empirical_ball_distribution,
    restricted_ball_distribution,
    tv_distance,
)

__all__ = [
    "__version__",
    "ComponentSummary",
    "CouplingTrace",
    "DegenerateDegreeTwoError",
    "DegreeSequence",
    "Envelope",
    "ExplosionMap",
    "GiantStatistics",
    "HalfEdgeGraph",
    "OffspringSpec",
    "Pmf",
    "RootedBall",
    "apply_shared_matching",
    "boundary_pair_fraction",
    "bp_ball_distribution",
    "build_offspring_spec",
    "canonical_ball",
    "canonical_code",
    "component_decomposition",
    "coupled_exploration",
    "coupled_pairing",
    "disconnected_pair_fraction",
    "disjoint_union",
    "empirical_ball_distribution",
    "empirical_distribution",
    "envelope_recursion",
    "estimate_cond_limit",
    "giant_statistics",
    "pair_half_edges",
    "restricted_ball_distribution",
    "reuse_bounds",
    "sample_distances",
    "sample_iid_degrees",
    "simulate_unimodular_bp",
    "sum_squares_ratio",
    "theoretical_giant",
    "truncate_explode",
    "tv_distance",
    "zeta_geq_k",
]
