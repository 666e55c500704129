"""Rigidity analysis and localization for planar sensor networks mixing
signed-angle and distance-ratio measurements."""

from .construction import (
    Construction,
    ConstructionError,
    apply_two_vertex_addition,
    apply_vertex_addition,
    generate,
    generate_bilateration,
    generate_minimal_rigid,
    generate_mixed,
    generate_quadrilateralized,
    generate_two_step,
    merge_add_edges,
    merge_contract,
)
from .geometry import (
    CollocationError,
    Framework,
    MeasurementSet,
    SimilarityTransform,
    fit_similarity,
    ratio_of_distance,
    rigidity_function,
    signed_angle,
    synthesize_measurements,
)
from .graph import (
    Bipartition,
    Graph,
    TripleIndexSet,
    augment_anchor_clique,
    enumerate_triples,
    fundamental_cycle_basis,
    incidence_matrix,
    path_matrix,
    triple_index_components,
)
from .rigidity import (
    RankReport,
    assemble_rigidity_matrix,
    duality_check,
    equivalent_shape_search,
    infinitesimal_rigidity_test,
    null_space,
    numerical_rank,
    quad_global_rigidity,
)
from .snl import (
    EdgeSolution,
    InfeasibleMeasurementsError,
    LocalizationResult,
    SensorNetwork,
    SolverConfig,
    assemble_bearing_system,
    assemble_distance_system,
    build_network,
    closure_system,
    localizability_check,
    localize_network,
    mean_squared_error,
    propagate_bearings,
    propagate_distances,
    recover_positions,
    solution_residuals,
)

__version__ = "0.1.0"
