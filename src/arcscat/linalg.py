"""Dense complex linear algebra: full GMRES with residual history and
nonsymmetric eigenvalue computation.

GMRES is the non-restarted variant (the Krylov basis is stored densely):
Arnoldi with classical Gram-Schmidt run twice (CGS2: each pass is one
BLAS-2 projection onto the whole basis, and the second pass makes it as
stable as reorthogonalized modified Gram-Schmidt; Giraud, Langou and
Rozloznik, Comput. Math. Appl. 50, 2005), Givens rotations on the
Hessenberg least-squares problem, and the usual relative-residual
recurrence.  Iteration counts reported by the solver
are the number of Arnoldi steps taken, which for a well-scaled problem
equals the number of operator applications beyond the initial residual.

Eigenvalues are computed with LAPACK's Hessenberg-reduction + shifted-QR
driver (via numpy); a backward-error check runs inverse iteration on a
few computed eigenvalues and verifies ||A v - lambda v|| against ||A||.
"""

from __future__ import annotations

import math
import numbers
import operator
import time
from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

DENSE_CAP = 4096  # largest N of any dense N x N matrix (268 MB complex)


@dataclass
class SolveReport:
    """Iteration count, residual history and timing of one linear solve."""

    iterations: int
    residuals: List[float]
    converged: bool
    elapsed: float
    final_residual: float = field(default=np.nan)


class GmresError(RuntimeError):
    """Raised when GMRES encounters non-finite data."""


def gmres_limits(tol, maxit) -> int:
    """``maxit`` as an int, after checking that ``tol`` is a real number
    in (0, 1) and ``maxit`` an integer (not a bool) of at least 1, so a
    solve can reject them before it builds anything."""
    if isinstance(maxit, bool) or not hasattr(type(maxit), "__index__"):
        raise TypeError(f"gmres requires an integer maxit, got {maxit!r}")
    maxit = operator.index(maxit)
    if maxit < 1:
        raise ValueError("gmres requires maxit >= 1")
    if not isinstance(tol, numbers.Real):
        raise TypeError(f"gmres requires a real tol, got {tol!r}")
    if not 0.0 < tol < 1.0:
        raise ValueError("gmres requires 0 < tol < 1")
    return maxit


def gmres(apply_op: Callable[[np.ndarray], np.ndarray], b: np.ndarray,
          tol: float = 1e-8, maxit: int = 2000) -> tuple[np.ndarray, SolveReport]:
    """Solve A x = b with full (non-restarted) GMRES, x0 = 0.

    Parameters
    ----------
    apply_op : callable
        The action v -> A v on 1-d complex arrays.
    b : ndarray
        Right-hand side; b = 0 gives x = 0 after 0 steps.
    tol : float
        Relative residual target ||b - A x|| / ||b||.
    maxit : int
        Maximum number of Arnoldi steps.

    Returns
    -------
    (x, SolveReport)
        ``report.residuals[i]`` is the GMRES residual estimate after
        i + 1 steps; the true final residual is recomputed explicitly.
    """
    start = time.perf_counter()
    maxit = gmres_limits(tol, maxit)
    b = np.asarray(b, dtype=complex)
    n = b.shape[0]
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:  # dark data, e.g. TM on the strip at horizontal incidence
        return np.zeros(n, dtype=complex), SolveReport(
            iterations=0, residuals=[], converged=True, elapsed=0.0, final_residual=0.0)
    maxit = min(maxit, n)

    basis = np.empty((maxit + 1, n), dtype=complex)
    # Hessenberg column j, rotated, as it is made: its storage grows with
    # the steps taken, not with maxit
    columns: List[np.ndarray] = []
    # Givens cosines and sines, and the rotated right-hand side, as Python
    # scalars: their per-entry updates are cheaper than on numpy scalars
    cs: List[complex] = []
    sn: List[complex] = []
    basis[0] = b / bnorm
    g = [complex(bnorm)]
    residuals: List[float] = []
    converged = False
    steps = 0

    for j in range(maxit):
        w = np.array(apply_op(basis[j]), dtype=complex)  # fresh buffer: updated in place
        if not np.all(np.isfinite(w)):
            raise GmresError(f"operator produced non-finite values at iteration {j + 1}")
        # classical Gram-Schmidt, twice (CGS2): two BLAS-2 projections
        v = basis[: j + 1]
        h = np.zeros(j + 2, dtype=complex)
        for _ in range(2):
            c = (v @ w.conj()).conj()  # c_i = <v_i, w>
            w -= c @ v
            h[: j + 1] += c
        wnorm = np.linalg.norm(w)
        h[j + 1] = wnorm

        # previously accumulated rotations, then a new one zeroing h[j+1]
        col = h.tolist()
        for i in range(j):
            col[i], col[i + 1] = (cs[i].conjugate() * col[i] + sn[i].conjugate() * col[i + 1],
                                  -sn[i] * col[i] + cs[i] * col[i + 1])
        denom = math.hypot(abs(col[j]), abs(col[j + 1]))
        if denom == 0.0:
            cs.append(1.0 + 0j)
            sn.append(0j)
        else:
            cs.append(col[j] / denom)
            sn.append(col[j + 1] / denom)
        col[j] = denom
        columns.append(np.array(col[: j + 1], dtype=complex))
        g.append(-sn[j] * g[j])
        g[j] = cs[j].conjugate() * g[j]

        steps = j + 1
        est = abs(g[j + 1]) / bnorm
        residuals.append(float(est))
        if est <= tol:
            converged = True
            break
        if wnorm == 0.0:
            converged = True  # happy breakdown: the Krylov space is invariant
            break
        basis[j + 1] = w / wnorm

    # the rotated Hessenberg's upper triangle, steps x steps
    triangle = np.zeros((steps, steps), dtype=complex)
    for j, column in enumerate(columns):
        triangle[: j + 1, j] = column
    y = np.linalg.solve(triangle, np.array(g[:steps]))
    x = basis[:steps].T @ y
    final = float(np.linalg.norm(b - apply_op(x)) / bnorm)
    report = SolveReport(iterations=steps, residuals=residuals, converged=converged,
                         elapsed=time.perf_counter() - start, final_residual=final)
    return x, report


class EigenvalueError(RuntimeError):
    """Raised when the QR eigenvalue computation fails its checks."""


def eig_dense(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a dense complex matrix of size at most
    ``DENSE_CAP``.

    Uses the LAPACK Hessenberg + shifted-QR driver.  Up to five computed
    eigenvalues, picked by a fixed seed, are verified by inverse
    iteration: ||A v - lambda v|| / ||A|| must be below 1e-8.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("eig_dense requires a square matrix")
    n = a.shape[0]
    if n > DENSE_CAP:
        raise ValueError(f"dense eigenvalue computation capped at {DENSE_CAP}, got {n}")
    lam = np.linalg.eigvals(a)
    if n >= 2:
        rng = np.random.default_rng(0)
        anorm = np.linalg.norm(a, ord=np.inf)
        idx = rng.choice(n, size=min(5, n), replace=False)
        eye = np.eye(n)
        for i in idx:
            # one inverse-iteration step per random start; further steps
            # degrade on non-normal clusters
            shift = lam[i] + 1e-13 * (1.0 + abs(lam[i]))
            best = np.inf
            for _ in range(3):
                v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                v = np.linalg.solve(a - shift * eye, v)
                v /= np.linalg.norm(v)
                best = min(best, np.linalg.norm(a @ v - lam[i] * v) / anorm)
                if best < 1e-8:
                    break
            if not best < 1e-8:
                raise EigenvalueError(
                    f"eigenvalue {lam[i]} failed backward-error check: {best:.2e}")
    return lam
