"""Smooth approximation of displacement fields with small crack sets,
with a desk-scale brute-force Griffith energy oracle."""

from .approximator import (
    ApproxConfig,
    ApproxResult,
    PropertyReport,
    approximate,
    boundary_trace_check,
    fit_decay_exponent,
    verify_properties,
)
from .covering import (
    CrownSelection,
    DyadicCube,
    Partition,
    WhitneyCovering,
    bad_set_perimeter,
    build_covering,
    classify,
    covering_structure_report,
    default_eta,
    partition_of_unity,
    select_crown,
)
from .energy import (
    EnergyParams,
    HookeTensor,
    energy_G,
    energy_G0,
    f_mu,
    f_zero,
    jump_measure,
)
from .errors import CoveringError, FitError, RegimeError, SolverError
from .grid import (
    BallRegion,
    BoxRegion,
    DisplacementField,
    GridSpec,
    JumpSet,
    load_field,
    load_jump,
    save_field,
    save_jump,
)
from .kornfit import (
    AffineMap,
    ExceptionalSet,
    FitReport,
    RigidMotion,
    affine_subset_bound,
    extract_exceptional_set,
    fit_rigid_motion,
    mollified_strain_error,
    neighbor_affine_distance,
)
from .mollify import mollify
from .oracle import (
    CrackConfig,
    OracleResult,
    brute_force_minimize,
    density_lower_bound_check,
    deviation_psi0,
    solve_elastic,
    vanishing_jump_harness,
)
from .strain import symmetric_gradient

__all__ = [
    "AffineMap", "ApproxConfig", "ApproxResult", "BallRegion", "BoxRegion",
    "CoveringError", "CrackConfig", "CrownSelection", "DisplacementField",
    "DyadicCube", "EnergyParams", "ExceptionalSet", "FitError", "FitReport",
    "GridSpec", "HookeTensor", "JumpSet", "OracleResult",
    "Partition", "PropertyReport", "RegimeError", "RigidMotion",
    "SolverError", "WhitneyCovering", "affine_subset_bound",
    "approximate", "bad_set_perimeter", "boundary_trace_check",
    "brute_force_minimize", "build_covering", "classify",
    "covering_structure_report", "default_eta", "density_lower_bound_check",
    "deviation_psi0", "energy_G", "energy_G0", "extract_exceptional_set",
    "f_mu", "f_zero", "fit_decay_exponent", "fit_rigid_motion",
    "jump_measure", "load_field", "load_jump", "mollified_strain_error",
    "mollify", "neighbor_affine_distance", "partition_of_unity",
    "save_field", "save_jump", "select_crown", "solve_elastic",
    "symmetric_gradient", "vanishing_jump_harness", "verify_properties",
]
