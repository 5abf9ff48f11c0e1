"""Spectral integral-equation solver for TE/TM scattering by smooth
open arcs in two dimensions."""

from .geometry import Arc, eval_arc, make_arc, wavenumber_for_ratio
from .grids import (
    ThetaGrid,
    is_admissible,
    nearest_admissible,
    theta_grid,
)
from .linalg import SolveReport, eig_dense, gmres
from .operators import (
    OperatorMatrix,
    build_log_quad,
    build_S_matrix,
    dense_operator,
    n_apply,
    n_frame,
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
    solve,
    te_data,
    tm_data,
)
from .specfun import hankel1_0, hankel1_1

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
