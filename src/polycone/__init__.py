"""polycone: exact polyhedral geometry on unbounded polyhedra.

Linear programming via vertex normal cones with exact certificates, plus
construction and diagnosis of Kuratowski limits of parametric polyhedron
families.
"""

from . import errors
from .geometry import (
    Cone,
    HalfSpace,
    IndexSet,
    Polyhedron,
    Vertex,
    active_set,
    canonical_ray,
    contains_point,
    enumerate_vertices,
    normal_cone,
    polyhedron_from_dict,
    polyhedron_to_dict,
    tangent_cone,
)
from .linprog import (
    ConeMembership,
    LPResult,
    cone_member,
    find_feasible_point,
    is_feasible,
    solve_lp,
)
from .optimality import GLPSolution, StabilityCone, argmin_face, solve_glp, stability_cone
from .structure import (
    Containment,
    StructureReport,
    is_bounded,
    poly_contains,
    recession_and_lineality,
    reconstruct_check,
    remove_redundant,
    structure,
)
from .kuratowski import (
    PLUS_INFINITY,
    DIVERGENT,
    ArgmaxReport,
    AuxiliaryConstraint,
    BoundaryReport,
    ConeConvergenceReport,
    ConstraintTrajectory,
    ConvergenceReport,
    CostTrajectory,
    LimitReport,
    OffsetLimit,
    PolyhedronTrajectory,
    TrackReport,
    VertexTrack,
    WindowDistance,
    argmax_convergence,
    auxiliary_limit,
    boundary_convergence,
    classify_offset,
    cone_convergence,
    construct_limit,
    default_directions,
    default_window,
    detect_ie_pairs,
    track_vertices,
    trajectory_from_dict,
    trajectory_to_dict,
    verify_convergence,
    window_distance,
)

__version__ = "0.1.0"
