"""GMRES and dense eigenvalue routines."""

import mpmath
import numpy as np
import pytest

from arcscat.grids import theta_grid
from arcscat.linalg import GmresError, eig_dense, gmres
from arcscat.operators import apply_J0, assemble_dense, apply_S0, s0_eigenvalues


def test_gmres_identity_one_iteration():
    b = np.ones(7, dtype=complex)
    x, rep = gmres(lambda u: u, b, tol=1e-12)
    assert rep.iterations == 1
    assert rep.converged
    assert np.max(np.abs(x - b)) < 1e-14
    assert rep.final_residual < 1e-14


def test_gmres_diagonal_krylov_bound():
    d = np.arange(1.0, 11.0)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    x, rep = gmres(lambda u: d * u, b, tol=1e-12)
    assert rep.iterations <= 10
    assert np.max(np.abs(x - b / d)) < 1e-12


def test_gmres_matches_lu_solve():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50)) + 8 * np.eye(50)
    b = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    x, rep = gmres(lambda u: a @ u, b, tol=1e-12, maxit=100)
    assert rep.converged
    assert np.max(np.abs(x - np.linalg.solve(a, b))) < 1e-10


def test_gmres_residuals_non_increasing():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40)) + 4 * np.eye(40)
    b = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    _, rep = gmres(lambda u: a @ u, b, tol=1e-10, maxit=40)
    r = rep.residuals
    assert all(r[i + 1] <= r[i] * (1.0 + 1e-12) for i in range(len(r) - 1))


def test_gmres_final_residual_near_estimate():
    # stop mid-Krylov so the recurrence estimate is meaningfully nonzero
    rng = np.random.default_rng(3)
    a = rng.standard_normal((30, 30)) + 15 * np.eye(30)
    b = rng.standard_normal(30) + 0j
    _, rep = gmres(lambda u: a @ u, b, tol=1e-6, maxit=60)
    assert rep.iterations < 30
    assert rep.final_residual <= 10 * rep.residuals[-1]


def test_gmres_non_convergence_reported():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    b = rng.standard_normal(40) + 0j
    _, rep = gmres(lambda u: a @ u, b, tol=1e-14, maxit=5)
    assert not rep.converged
    assert rep.iterations == 5


def test_gmres_input_validation():
    with pytest.raises(ValueError):
        gmres(lambda u: u, np.zeros(4, dtype=complex))
    with pytest.raises(ValueError):
        gmres(lambda u: u, np.ones(4, dtype=complex), tol=2.0)
    with pytest.raises(GmresError):
        gmres(lambda u: u * np.nan, np.ones(4, dtype=complex))


@pytest.mark.parametrize("maxit", [0, -3])
def test_gmres_rejects_maxit_below_one(maxit):
    with pytest.raises(ValueError, match="maxit"):
        gmres(lambda u: u, np.ones(4, dtype=complex), maxit=maxit)


def test_gmres_on_second_kind_operator_converges_fast():
    # eigenvalues clustered near -1/4 give rapid Krylov convergence
    g = theta_grid(256)
    j0 = assemble_dense(apply_J0, g)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    _, rep = gmres(lambda u: j0 @ u, b, tol=1e-12, maxit=100)
    assert rep.converged
    assert rep.iterations <= 25


def test_eig_upper_triangular():
    rng = np.random.default_rng(6)
    a = np.triu(rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
    lam = np.sort_complex(eig_dense(a, check=False))
    assert np.max(np.abs(lam - np.sort_complex(np.diag(a)))) < 1e-12


def test_eig_s0_matrix():
    g = theta_grid(16)
    lam = np.sort(eig_dense(assemble_dense(apply_S0, g)).real)
    assert np.max(np.abs(lam - np.sort(s0_eigenvalues(16)))) < 1e-10


def leverrier_charpoly(a):
    # Faddeev-LeVerrier: trace recursion, no eigenvalue computation
    n = a.shape[0]
    coeffs = [1.0 + 0j]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ m) / k)
    return coeffs


def test_eig_against_characteristic_polynomial_roots():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    lam = eig_dense(a)
    mpmath.mp.dps = 40
    roots = mpmath.polyroots([mpmath.mpc(c) for c in leverrier_charpoly(a)], maxsteps=200)
    roots = np.array([complex(r) for r in roots])
    for r in roots:
        assert np.min(np.abs(lam - r)) < 1e-9


def test_eig_invariant_under_unitary_similarity():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    q, _ = np.linalg.qr(rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32)))
    lam1 = eig_dense(a)
    lam2 = eig_dense(q @ a @ q.conj().T)
    for v in lam1:
        assert np.min(np.abs(lam2 - v)) < 1e-8


def test_eig_validation():
    with pytest.raises(ValueError):
        eig_dense(np.ones((3, 4)))
    with pytest.raises(ValueError):
        eig_dense(np.eye(8), cap=4)
