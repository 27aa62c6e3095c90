"""slaglab: a numerical laboratory for special-Lagrangian necks, Lagrangian
MCF expanders, and the grading/potential calculus around them."""

from .errors import (
    BranchCutError,
    DegenerateFrameError,
    DifferentialError,
    DimensionMismatchError,
    GradingError,
    NewtonError,
    NonTransverseError,
    QuadratureError,
)
from .geometry import (
    AngleVector,
    GradedPointPair,
    LagrangianPlane,
    LagrangianSample,
    TangentFrame,
    characteristic_angles,
    degree_window_check,
    holomorphic_volume,
    lift_phase_path,
    liouville_form,
    maslov_degree,
    phase_of_frame,
    strip_area,
    symplectic_form,
)
from .lawlor import LawlorNeck, RotatedNeck, lawlor_invert
from .expanders import JLTExpander, jlt_invert
from .graphs import (
    ScalarField,
    expander_graph_residual,
    inversion_laplacian_pair,
    inversion_transform,
    linearized_expander_residual,
    polynomial_field,
    sl_graph_residual,
)
from .modes import (
    ExpansionMode,
    HarmonicPolynomial,
    RadialSolution,
    assemble_expansion,
    expansion_field,
    harmonic_basis,
    harmonic_dimension,
    solve_radial_mode,
    solve_separation_radial,
    taylor_c1,
)
from .plumbing import (
    DarbouxCoords,
    PlumbingChart,
    bump_h,
    compactified_graph_value,
    compactified_potential,
    from_darboux,
    liouville_tilde,
    sphere_chart,
    sphere_chart_inverse,
    to_darboux,
)
from .floer import (
    FloerComplexZ2,
    Generator,
    build_complex,
    complex_from_json,
    complex_to_json,
    expected_sphere_cohomology,
    validate_degree_windows,
    verify_degree_zero_identity,
)

__version__ = "0.1.0"
