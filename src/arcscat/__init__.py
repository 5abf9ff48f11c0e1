"""Spectral integral-equation solver for TE/TM scattering by smooth
open arcs in two dimensions."""

from .geometry import Arc, eval_arc, make_arc, wavenumber_for_ratio
from .grids import (
    DensityVector,
    ThetaGrid,
    apply_D0,
    apply_T0,
    apply_T0_tau,
    cosine_coeffs,
    from_cosine_coeffs,
    is_admissible,
    nearest_admissible,
    theta_grid,
)
from .linalg import SolveReport, eig_dense, gmres
from .operators import (
    LogQuadVector,
    OperatorMatrix,
    apply_C,
    apply_J0,
    apply_N,
    apply_N0,
    apply_NS,
    apply_S0,
    apply_S0_inverse,
    apply_S0tau,
    apply_S0tau_inverse,
    assemble_dense,
    build_log_quad,
    build_S_matrix,
    dense_operator,
    s0_eigenvalue,
)
from .scattering import (
    FarField,
    Incidence,
    Solution,
    far_field,
    far_field_error,
    incident_field,
    near_field,
    recover_mu,
    recover_nu,
    rhs_te,
    rhs_tm,
    solve,
)
from .specfun import (
    KernelSplit,
    bessel_j0,
    bessel_j1,
    bessel_y0,
    bessel_y1,
    hankel1_0,
    hankel1_1,
    kernel_split,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
