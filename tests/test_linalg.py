"""GMRES and dense eigenvalue routines."""

import mpmath
import numpy as np
import pytest

from arcscat.geometry import make_arc, wavenumber_for_ratio
from arcscat.grids import theta_grid
import arcscat.linalg as linalg
from arcscat.linalg import GmresError, eig_dense, gmres
from arcscat.operators import build_S_matrix, dense_operator, n_frame, s0_eigenvalues
from arcscat.scattering import Incidence, tm_data
from oracles import assemble_dense, j0_apply_values, s0_apply_values


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


def test_gmres_hessenberg_grows_with_the_steps_taken(allocation_peak):
    # 11 distinct eigenvalues: converged after 11 steps at N = 512.  The
    # basis takes (N + 1) x N entries (4.2 MB); a zeroed (N + 1) x N
    # Hessenberg took as much again.
    n = 512
    d = np.arange(n) % 11 + 1.0
    b = np.random.default_rng(4).standard_normal(n) + 0j
    reports = []
    peak = allocation_peak(lambda: reports.append(gmres(lambda u: d * u, b, tol=1e-12)[1]))
    assert reports[0].iterations == 11 and reports[0].converged
    assert peak <= (n + 1) * n * 16 + 2 ** 20


def test_gmres_non_convergence_reported():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    b = rng.standard_normal(40) + 0j
    _, rep = gmres(lambda u: a @ u, b, tol=1e-14, maxit=5)
    assert not rep.converged
    assert rep.iterations == 5


def test_gmres_input_validation():
    x, rep = gmres(lambda u: pytest.fail("A was applied"), np.zeros(4, dtype=complex))
    assert np.array_equal(x, np.zeros(4, dtype=complex))
    assert (rep.iterations, rep.residuals, rep.converged, rep.final_residual) == (0, [], True, 0.0)
    with pytest.raises(ValueError):
        gmres(lambda u: u, np.ones(4, dtype=complex), tol=2.0)
    with pytest.raises(ValueError, match="tol"):
        gmres(lambda u: u, np.zeros(4, dtype=complex), tol=2.0)
    with pytest.raises(ValueError, match="maxit"):
        gmres(lambda u: u, np.zeros(4, dtype=complex), maxit=0)
    with pytest.raises(GmresError):
        gmres(lambda u: u * np.nan, np.ones(4, dtype=complex))


@pytest.mark.parametrize("maxit", [0, -3])
def test_gmres_rejects_maxit_below_one(maxit):
    with pytest.raises(ValueError, match="maxit"):
        gmres(lambda u: u, np.ones(4, dtype=complex), maxit=maxit)


@pytest.mark.parametrize("kwargs", [dict(maxit=5.5), dict(maxit=True), dict(maxit="10"),
                                    dict(tol=1e-8j)], ids=["float", "bool", "str", "complex-tol"])
def test_gmres_rejects_non_integer_maxit_and_non_real_tol(kwargs):
    with pytest.raises(TypeError, match=next(iter(kwargs))):
        gmres(lambda u: u, np.ones(4, dtype=complex), **kwargs)


def test_gmres_on_second_kind_operator_converges_fast():
    # eigenvalues clustered near -1/4 give rapid Krylov convergence
    g = theta_grid(256)
    j0 = assemble_dense(j0_apply_values, g)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    _, rep = gmres(lambda u: j0 @ u, b, tol=1e-12, maxit=100)
    assert rep.converged
    assert rep.iterations <= 25


def mgs_gmres_residuals(apply_op, b, tol, maxit):
    """The GMRES loop with modified Gram-Schmidt and one
    reorthogonalization pass, one vector at a time, kept verbatim from
    before CGS2 as the reference: its residual estimates."""
    b = np.asarray(b, dtype=complex)
    n = b.shape[0]
    bnorm = np.linalg.norm(b)
    maxit = min(maxit, n)
    basis = np.empty((maxit + 1, n), dtype=complex)
    h = np.zeros((maxit + 1, maxit), dtype=complex)
    cs = np.zeros(maxit, dtype=complex)
    sn = np.zeros(maxit, dtype=complex)
    g = np.zeros(maxit + 1, dtype=complex)
    basis[0] = b / bnorm
    g[0] = bnorm
    residuals = []
    for j in range(maxit):
        w = np.array(apply_op(basis[j]), dtype=complex)  # fresh buffer: MGS updates in place
        # modified Gram-Schmidt with one reorthogonalization pass
        for i in range(j + 1):
            h[i, j] = np.vdot(basis[i], w)
            w -= h[i, j] * basis[i]
        for i in range(j + 1):
            corr = np.vdot(basis[i], w)
            h[i, j] += corr
            w -= corr * basis[i]
        wnorm = np.linalg.norm(w)
        h[j + 1, j] = wnorm

        # previously accumulated rotations, then a new one zeroing h[j+1, j]
        for i in range(j):
            hi = np.conj(cs[i]) * h[i, j] + np.conj(sn[i]) * h[i + 1, j]
            h[i + 1, j] = -sn[i] * h[i, j] + cs[i] * h[i + 1, j]
            h[i, j] = hi
        denom = np.hypot(abs(h[j, j]), abs(h[j + 1, j]))
        if denom == 0.0:
            cs[j], sn[j] = 1.0, 0.0
        else:
            cs[j] = h[j, j] / denom
            sn[j] = h[j + 1, j] / denom
        h[j, j] = denom
        h[j + 1, j] = 0.0
        g[j + 1] = -sn[j] * g[j]
        g[j] = np.conj(cs[j]) * g[j]

        est = abs(g[j + 1]) / bnorm
        residuals.append(float(est))
        if est <= tol or wnorm == 0.0:
            break
        basis[j + 1] = w / wnorm
    return residuals


def test_gmres_cgs2_matches_mgs_on_long_run():
    # the dense hypersingular N of the spiral needs 160 steps here
    arc = make_arc("spiral")
    k = wavenumber_for_ratio(arc, 25.0)
    g = theta_grid(200)
    a = dense_operator("N", build_S_matrix(arc, k, g))
    frame = n_frame(arc, k, g)
    b = tm_data(frame.points, frame.normals, Incidence(90.0, k))
    tol = 1e-10
    _, rep = gmres(lambda u: a @ u, b, tol=tol, maxit=1000)
    ref = mgs_gmres_residuals(lambda u: a @ u, b, tol=tol, maxit=1000)
    assert len(ref) >= 100
    assert rep.converged
    assert rep.iterations == len(ref)
    assert np.max(np.abs(np.array(rep.residuals) / np.array(ref) - 1.0)) <= 1e-6
    assert rep.final_residual <= 10 * tol


def test_eig_upper_triangular():
    rng = np.random.default_rng(6)
    a = np.triu(rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
    lam = np.sort_complex(eig_dense(a))
    assert np.max(np.abs(lam - np.sort_complex(np.diag(a)))) < 1e-12


def test_eig_s0_matrix():
    g = theta_grid(16)
    lam = np.sort(eig_dense(assemble_dense(s0_apply_values, g)).real)
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


def test_eig_validation(monkeypatch):
    with pytest.raises(ValueError):
        eig_dense(np.ones((3, 4)))
    monkeypatch.setattr(linalg, "DENSE_CAP", 4)
    with pytest.raises(ValueError):
        eig_dense(np.eye(8))
