"""Discrete boundary-integral operators on the cosine-node grid.

Three layers live here.

* Flat-arc zero-frequency operators, exact in coefficient space: the
  log-kernel single layer S0 (diagonal in the cosine basis with
  eigenvalues ln2/2, 1/(2m)), its weighted variant S0_tau = S0 (tau .),
  the hypersingular composition N0 = D0 S0 T0, the Calderon composition
  J0 = N0 S0 realized through its upper-triangular cosine-basis action,
  and the Cesaro-like operator C appearing in its explicit form.  These
  serve as oracles and as the analytic preconditioner inverse.

* The Nystrom matrix of the weighted single-layer operator S at
  wavenumber k > 0.  The log-singular factor is integrated by the
  spectral product rule

      int_0^pi ln|cos t - cos t'| v(t') dt'
          ~ (pi/N) sum_j v(theta_j) R_j(theta),

  where R_j(theta_n) = r(|n-j|) + r(n+j+1) and the length-2N vector r
  is produced by a single FFT, so the N x N matrix assembles in
  O(N^2 log N).

* Matrix-free pipelines: the full hypersingular action
  N v = Ng v + (1/tau) D0 S T0_tau v and the second-kind composition
  NS v = N (S v), applied as dense matvecs interleaved with fast
  transforms.  The smooth part Ng has the S kernel times
  k^2 (n . n') sin^2 theta', so it is applied through S as
  Ng v = k^2 sum_{c in x, y} n_c S(n_c sin^2 theta v) and never stored:
  N costs three passes over S and NS four.  Dense materializations
  exist for spectrum studies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .geometry import Arc, eval_arc
from .grids import (
    DensityVector,
    ThetaGrid,
    coeffs_from_values,
    d0_coeffs,
    d0_values,
    node_speed,
    parity_suffix_sums,
    t0_coeffs,
    t0_values,
    values_from_coeffs,
)
from .specfun import _a1a2_offdiag, _a2_diagonal

DENSE_CAP = 4096


@dataclass(frozen=True)
class LogQuadVector:
    """Length-2N weight vector of the spectral log-kernel rule."""

    r: np.ndarray


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense discretization of S or S0_tau with its provenance."""

    kind: str
    n: int
    k: float
    arc: Arc
    entries: np.ndarray

    def __post_init__(self):
        if self.kind not in ("S", "S0tau"):
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.k == 0.0 and self.kind != "S0tau":
            raise ValueError("k = 0 is only meaningful for the S0tau matrix")


def s0_eigenvalue(m: int) -> float:
    """Cosine-basis eigenvalue of the flat-arc log single layer."""
    if m < 0:
        raise ValueError("mode index must be nonnegative")
    return 0.5 * np.log(2.0) if m == 0 else 0.5 / m


def s0_eigenvalues(n: int) -> np.ndarray:
    """Eigenvalues for modes 0..n-1 as a vector."""
    lam = np.empty(n)
    lam[0] = 0.5 * np.log(2.0)
    lam[1:] = 0.5 / np.arange(1, n)
    return lam


# ---------------------------------------------------------------------------
# Flat-arc zero-frequency actions (coefficient space, spectrally exact)
# ---------------------------------------------------------------------------
def s0_apply_values(values: np.ndarray) -> np.ndarray:
    c = coeffs_from_values(values)
    return values_from_coeffs(c * s0_eigenvalues(values.shape[-1]))


def s0_solve_values(values: np.ndarray) -> np.ndarray:
    c = coeffs_from_values(values)
    return values_from_coeffs(c / s0_eigenvalues(values.shape[-1]))


def n0_apply_values(values: np.ndarray) -> np.ndarray:
    """Flat-arc zero-frequency hypersingular action D0 S0 T0.

    Runs entirely in coefficient space so the top sine mode produced by
    T0 (invisible at the nodes) still feeds the outer differentiation;
    this keeps the discrete composition N0 S0 exactly equal to the
    analytic upper-triangular action of J0.
    """
    n = values.shape[-1]
    c = t0_coeffs(values)  # modes 0..N
    lam = np.empty(n + 1)
    lam[0] = 0.5 * np.log(2.0)
    lam[1:] = 0.5 / np.arange(1, n + 1)
    d = d0_coeffs(c * lam)  # modes 0..N-1
    return values_from_coeffs(d)


def j0_apply_values(values: np.ndarray) -> np.ndarray:
    """Calderon composition J0 = N0 S0 via its cosine-basis action.

    On the basis e_m the map is upper triangular with diagonal
    -ln2/4 (m = 0) and -1/4 - 1/(4m) (m > 0); the strictly upper part
    couples each mode to the lower modes of equal parity.
    """
    a = coeffs_from_values(values)
    n = a.shape[-1]
    w = np.zeros_like(a)
    w[..., 1:] = a[..., 1:] / np.arange(1, n)
    excl = parity_suffix_sums(w) - w
    lam = np.empty(n)
    lam[0] = -0.25 * np.log(2.0)
    lam[1:] = -0.25 - 0.25 / np.arange(1, n)
    factor = np.full(n, 0.5)
    factor[0] = 0.25
    return values_from_coeffs(lam * a - factor * excl)


def c_apply_values(values: np.ndarray) -> np.ndarray:
    """Cesaro-like operator: e_0 -> 0, e_m -> sin(m theta)/(m sin theta)."""
    a = coeffs_from_values(values)
    n = a.shape[-1]
    w = np.zeros_like(a)
    w[..., 1:] = a[..., 1:] / np.arange(1, n)
    incl = parity_suffix_sums(w)
    out = np.zeros_like(a)
    # even output mode 2i collects odd inputs > 2i; odd mode 2i+1 collects
    # even inputs > 2i+1
    so = incl[..., 1::2]
    se = incl[..., 0::2]
    out[..., 0 : 2 * so.shape[-1] : 2] = 2.0 * so
    out[..., 1 : 2 * se.shape[-1] - 1 : 2] = 2.0 * se[..., 1:]
    out[..., 0] *= 0.5
    return values_from_coeffs(out)


def s0tau_apply_values(arc: Arc, grid: ThetaGrid, values: np.ndarray) -> np.ndarray:
    return s0_apply_values(values * node_speed(arc, grid))


def s0tau_solve_values(arc: Arc, grid: ThetaGrid, values: np.ndarray) -> np.ndarray:
    return s0_solve_values(values) / node_speed(arc, grid)


def apply_S0(v: DensityVector) -> DensityVector:
    """Flat-arc zero-frequency single layer (diagonal in cosine modes)."""
    return DensityVector(v.grid, s0_apply_values(v.values))


def apply_S0_inverse(v: DensityVector) -> DensityVector:
    """Exact inverse of ``apply_S0`` (divide coefficients by eigenvalues)."""
    return DensityVector(v.grid, s0_solve_values(v.values))


def apply_N0(v: DensityVector) -> DensityVector:
    """Flat-arc zero-frequency hypersingular operator D0 S0 T0."""
    return DensityVector(v.grid, n0_apply_values(v.values))


def apply_J0(v: DensityVector) -> DensityVector:
    """Flat-arc zero-frequency Calderon composition N0 S0."""
    return DensityVector(v.grid, j0_apply_values(v.values))


def apply_C(v: DensityVector) -> DensityVector:
    """The non-compact Cesaro-like component of the J0 decomposition."""
    return DensityVector(v.grid, c_apply_values(v.values))


def apply_S0tau(arc: Arc, v: DensityVector) -> DensityVector:
    """Weighted flat-arc single layer S0 (tau .)."""
    return DensityVector(v.grid, s0tau_apply_values(arc, v.grid, v.values))


def apply_S0tau_inverse(arc: Arc, v: DensityVector) -> DensityVector:
    """Exact inverse of the weighted flat-arc single layer."""
    return DensityVector(v.grid, s0tau_solve_values(arc, v.grid, v.values))


# ---------------------------------------------------------------------------
# Log-kernel quadrature and Nystrom matrices
# ---------------------------------------------------------------------------
def build_log_quad(grid: ThetaGrid) -> LogQuadVector:
    """FFT evaluation of r(l) = -sum_m (2 - delta_m0) lambda_m cos(m pi l / N),
    l = 0..2N-1, from which R_j(theta_n) = r(|n-j|) + r(n+j+1)."""
    n = grid.n
    c = np.zeros(2 * n)
    lam = s0_eigenvalues(n)
    c[0] = lam[0]
    c[1:n] = 2.0 * lam[1:]
    return LogQuadVector(r=-np.real(scipy.fft.fft(c)))


def log_quad_matrix(grid: ThetaGrid, lq: LogQuadVector | None = None) -> np.ndarray:
    """The N x N table R_j(theta_n)."""
    if lq is None:
        lq = build_log_quad(grid)
    idx = np.arange(grid.n)
    return lq.r[np.abs(idx[:, None] - idx[None, :])] + lq.r[idx[:, None] + idx[None, :] + 1]


def build_S_matrix(arc: Arc, k: float, grid: ThetaGrid) -> OperatorMatrix:
    """Nystrom matrix of the weighted single-layer operator at k > 0.

    Entry (n, j) is (pi/N) tau_j (A1(n,j) R_j(theta_n) + A2(n,j)); applied
    to node samples it realizes the spectral quadrature of the weighted
    single-layer integral.  Assembly runs over row blocks so every
    intermediate stays cache resident; the log-rule vector comes from one
    FFT, for an overall O(N^2 log N) build.
    """
    if k <= 0.0:
        raise ValueError("build_S_matrix requires k > 0; the flat-arc k = 0 "
                         "operator is available analytically as apply_S0")
    n = grid.n
    x = np.cos(grid.nodes)
    points, _, _, tau = eval_arc(arc, x)
    px, py = np.ascontiguousarray(points[:, 0]), np.ascontiguousarray(points[:, 1])
    r = build_log_quad(grid).r
    idx = np.arange(n)
    weight = (np.pi / n) * tau
    a2_diag = _a2_diagonal(k, tau)

    entries = np.empty((n, n), dtype=complex)
    block = max(1, (1 << 16) // n)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        rows = slice(lo, hi)
        dx = px[rows, None] - px[None, :]
        dist = dx * dx
        dx = py[rows, None] - py[None, :]
        dist += dx * dx
        np.sqrt(dist, out=dist)
        dcos = np.abs(x[rows, None] - x[None, :])
        diag = idx[rows, None] == idx[None, :]
        dist[diag] = 1.0
        dcos[diag] = 1.0
        np.log(dcos, out=dcos)
        a1, a2 = _a1a2_offdiag(k, dist, dcos)
        a1[diag] = -1.0 / (2.0 * np.pi)
        a2[diag] = a2_diag[rows]
        rmat = r[np.abs(idx[rows, None] - idx[None, :])] + r[idx[rows, None] + idx[None, :] + 1]
        np.multiply(a1, rmat, out=rmat)
        out = entries[rows]
        out[...] = a2
        out.real += rmat
        out *= weight[None, :]
    return OperatorMatrix(kind="S", n=n, k=k, arc=arc, entries=entries)


def build_S0tau_matrix(arc: Arc, grid: ThetaGrid) -> OperatorMatrix:
    """Dense weighted flat-arc single layer (k = 0), for spectrum studies."""
    tau = node_speed(arc, grid)
    entries = s0_apply_values(np.eye(grid.n) * tau[None, :]).T
    return OperatorMatrix(kind="S0tau", n=grid.n, k=0.0, arc=arc, entries=entries)


def _check_pipeline(arc: Arc, k: float, s_matrix: OperatorMatrix, n: int):
    if s_matrix.kind != "S":
        raise ValueError("apply_N expects an S matrix")
    if s_matrix.n != n:
        raise ValueError("matrix size does not match the density grid")
    if s_matrix.k != k or s_matrix.arc is not arc:
        raise ValueError("S was built for a different arc or wavenumber")


def _ng_action(arc: Arc, k: float, s_entries: np.ndarray, grid: ThetaGrid,
               values: np.ndarray) -> np.ndarray:
    """Smooth hypersingular part Ng v = k^2 sum_c n_c S(n_c sin^2 theta v),
    one S matvec per normal component."""
    normals = eval_arc(arc, np.cos(grid.nodes))[2]
    w = (k * k) * np.sin(grid.nodes) ** 2 * values
    return sum(n_c * (s_entries @ (n_c * w)) for n_c in normals.T)


def n_apply_values(arc: Arc, k: float, s_entries: np.ndarray, grid: ThetaGrid,
                   values: np.ndarray) -> np.ndarray:
    """Hypersingular pipeline Ng v + (1/tau) D0 S T0_tau v on raw samples."""
    tau = node_speed(arc, grid)
    w = t0_values(values) / tau
    return _ng_action(arc, k, s_entries, grid, values) + d0_values(s_entries @ w) / tau


def apply_N(arc: Arc, k: float, s_matrix: OperatorMatrix, v: DensityVector) -> DensityVector:
    """Full weighted hypersingular action at wavenumber k."""
    _check_pipeline(arc, k, s_matrix, v.grid.n)
    return DensityVector(v.grid, n_apply_values(arc, k, s_matrix.entries, v.grid, v.values))


def apply_NS(arc: Arc, k: float, s_matrix: OperatorMatrix, v: DensityVector) -> DensityVector:
    """Second-kind composition: one S matvec, then the N pipeline."""
    _check_pipeline(arc, k, s_matrix, v.grid.n)
    u = s_matrix.entries @ v.values
    return DensityVector(v.grid, n_apply_values(arc, k, s_matrix.entries, v.grid, u))


# ---------------------------------------------------------------------------
# Dense materializations
# ---------------------------------------------------------------------------
def assemble_dense(op, grid: ThetaGrid, cap: int = DENSE_CAP) -> np.ndarray:
    """Materialize an operator action column by column.

    ``op`` maps DensityVector to DensityVector; column j of the result is
    op(e_j) where e_j is the j-th unit sample vector.
    """
    n = grid.n
    if n > cap:
        raise ValueError(f"dense assembly capped at {cap}, requested {n}")
    out = np.empty((n, n), dtype=complex)
    e = np.zeros(n, dtype=complex)
    for j in range(n):
        e[:] = 0.0
        e[j] = 1.0
        out[:, j] = op(DensityVector(grid, e)).values
    return out


def dense_t0tau(arc: Arc, grid: ThetaGrid) -> np.ndarray:
    tau = node_speed(arc, grid)
    return t0_values(np.eye(grid.n)).T / tau[:, None]


def dense_d0(grid: ThetaGrid) -> np.ndarray:
    return d0_values(np.eye(grid.n)).T


def dense_n(arc: Arc, s_matrix: OperatorMatrix, grid: ThetaGrid) -> np.ndarray:
    """Dense N = Ng + diag(1/tau) D0 S T0_tau, with Ng built entry by
    entry as k^2 (n_n . n_j) sin^2(theta_j) S(n, j)."""
    k = s_matrix.k
    normals = eval_arc(arc, np.cos(grid.nodes))[2]
    sin2 = np.sin(grid.nodes) ** 2
    ng = (k * k) * (normals @ normals.T) * sin2[None, :] * s_matrix.entries
    tau = node_speed(arc, grid)
    pv = dense_d0(grid) @ s_matrix.entries @ dense_t0tau(arc, grid)
    return ng + pv / tau[:, None]


def dense_operator(name: str, arc: Arc, k: float, grid: ThetaGrid) -> np.ndarray:
    """Dense matrix of one of the studied operators.

    ``name`` is one of ``S`` (weighted single layer), ``N`` (weighted
    hypersingular), ``NS`` (second-kind composition) or ``S0invS``
    (single layer preconditioned by the inverse flat-arc operator).
    """
    if grid.n > DENSE_CAP:
        raise ValueError(f"dense assembly capped at {DENSE_CAP}")
    s = build_S_matrix(arc, k, grid)
    if name == "S":
        return s.entries
    if name == "S0invS":
        tau = node_speed(arc, grid)
        inv = s0_solve_values(np.eye(grid.n)).T / tau[:, None]
        return s.entries @ inv
    nd = dense_n(arc, s, grid)
    if name == "N":
        return nd
    if name == "NS":
        return nd @ s.entries
    raise ValueError(f"unknown operator name {name!r}; expected S, N, NS or S0invS")
