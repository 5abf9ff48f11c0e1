"""Reference implementations the tests compare the solver against.

None of these is called by the library, the CLI or the benchmark:

* the flat-arc zero-frequency operators, exact in coefficient space: the
  log-kernel single layer S0 (diagonal in the cosine basis with
  eigenvalues ln2/2, 1/(2m)), the hypersingular composition
  N0 = D0 S0 T0, the Calderon composition J0 = N0 S0 realized through
  its upper-triangular cosine-basis action, and the Cesaro-like
  operator C appearing in its explicit form;
* the dense log-rule table R_j(theta_n) and the column-by-column
  materialization of a linear action;
* the pointwise split of the Helmholtz kernel into its log-singular and
  smooth factors, and the arc speed it needs;
* helpers several test modules share: complex node vectors, bitwise
  comparison and adaptive quadrature of a complex integrand.

Test modules import them as ``from oracles import ...``.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad

from arcscat.geometry import Arc, eval_arc
from arcscat.grids import (
    ThetaGrid,
    coeffs_from_values,
    d0_coeffs,
    parity_suffix_sums,
    t0_coeffs,
    values_from_coeffs,
)
from arcscat.linalg import DENSE_CAP
from arcscat.operators import build_log_quad, s0_eigenvalues
from arcscat.specfun import _a1a2_offdiag, _a2_diagonal


# ---------------------------------------------------------------------------
# Flat-arc zero-frequency actions (coefficient space, spectrally exact)
# ---------------------------------------------------------------------------
def s0_apply_values(values: np.ndarray) -> np.ndarray:
    """Flat-arc zero-frequency single layer (diagonal in cosine modes)."""
    c = coeffs_from_values(values)
    return values_from_coeffs(c * s0_eigenvalues(values.shape[-1]))


def n0_apply_values(values: np.ndarray) -> np.ndarray:
    """Flat-arc zero-frequency hypersingular action D0 S0 T0.

    Runs entirely in coefficient space so the top sine mode produced by
    T0 (invisible at the nodes) still feeds the outer differentiation;
    this keeps the discrete composition N0 S0 exactly equal to the
    analytic upper-triangular action of J0.
    """
    n = values.shape[-1]
    c = t0_coeffs(values)  # modes 0..N
    d = d0_coeffs(c * s0_eigenvalues(n + 1))  # modes 0..N-1
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


# ---------------------------------------------------------------------------
# Dense tables
# ---------------------------------------------------------------------------
def log_quad_matrix(grid: ThetaGrid) -> np.ndarray:
    """The N x N table R_j(theta_n)."""
    r = build_log_quad(grid)
    idx = np.arange(grid.n)
    return r[np.abs(idx[:, None] - idx[None, :])] + r[idx[:, None] + idx[None, :] + 1]


def assemble_dense(op, grid: ThetaGrid) -> np.ndarray:
    """Materialize a linear action on node values column by column:
    column j of the result is op(e_j), e_j the j-th unit sample vector.
    An action that transforms a stack of densities along the last axis
    gives the same matrix in one call, as op(np.eye(N)).T."""
    if grid.n > DENSE_CAP:
        raise ValueError(f"dense assembly capped at {DENSE_CAP}, requested {grid.n}")
    return np.column_stack([op(e) for e in np.eye(grid.n, dtype=complex)])


# ---------------------------------------------------------------------------
# Pointwise kernel split
# ---------------------------------------------------------------------------
def speed(arc: Arc, t):
    """tau(t) = |r'(t)| for scalar or array t."""
    _, tangent, _, _ = eval_arc(arc, t)
    return np.hypot(tangent[..., 0], tangent[..., 1])


def kernel_split(k: float, arc: Arc, theta, theta_p):
    """Split the Helmholtz kernel into log-singular and smooth factors.

    Returns the smooth factors ``(a1, a2)`` such that for theta != theta_p

        a1 * ln|cos theta - cos theta'| + a2
            = (i/4) H_0^1(k |r(cos theta) - r(cos theta')|),

    while entries with theta == theta_p get the analytic coincidence
    limit.  The angles may be scalars or broadcastable arrays; the result
    depends on them only through their cosines, hence is even and
    2 pi periodic in both.
    """
    if not np.isfinite(k):
        raise ValueError("kernel_split requires a finite wavenumber")
    if k <= 0.0:
        raise ValueError("kernel_split requires k > 0")
    x = np.cos(np.asarray(theta, dtype=float))
    xp = np.cos(np.asarray(theta_p, dtype=float))
    x, xp = np.broadcast_arrays(x, xp)
    diag = x == xp

    p = eval_arc(arc, x)[0]
    pp = eval_arc(arc, xp)[0]
    dist = np.hypot(p[..., 0] - pp[..., 0], p[..., 1] - pp[..., 1])
    with np.errstate(divide="ignore"):
        log_dcos = np.log(np.abs(x - xp))
    a2 = np.empty(np.shape(dist), dtype=complex)
    a1 = _a1a2_offdiag(k, np.where(diag, 1.0, dist), np.where(diag, 0.0, log_dcos), a2)

    if np.any(diag):
        a1 = np.where(diag, -1.0 / (2.0 * np.pi), a1)
        a2 = np.where(diag, _a2_diagonal(k, speed(arc, x)), a2)
    if np.ndim(a1) == 0:
        return complex(a1), complex(a2)
    return a1.astype(complex), a2


# ---------------------------------------------------------------------------
# Shared test helpers
# ---------------------------------------------------------------------------
def dv(values):
    """Node values as a complex array."""
    return np.asarray(values, dtype=complex)


def same_bits(a, b) -> bool:
    """Whether two arrays (or sequences) have the same shape and bits."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.float64), b.view(np.float64))


def quad_complex(f, singular_point):
    """Adaptive quadrature of a complex f over [0, pi], split at the
    integrand's singular point."""
    re = quad(lambda t: f(t).real, 0.0, np.pi, points=[singular_point],
              limit=400, epsabs=1e-13)[0]
    im = quad(lambda t: f(t).imag, 0.0, np.pi, points=[singular_point],
              limit=400, epsabs=1e-13)[0]
    return re + 1j * im
