"""Discrete operator algebra: flat-arc oracles, Nystrom matrices and the
composed pipelines.

Oracles used here are independent of the code paths they verify: brute
force double sums for the log-quadrature vector, adaptive quadrature
(scipy.integrate.quad with singular-point hints) for matrix rows,
explicit trigonometric matrices for transform conjugation, and analytic
eigenvalue formulas.
"""

import itertools
import math
import os
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

import arcscat.operators as operators
import arcscat.scattering as scattering
import arcscat.specfun as specfun

from arcscat.geometry import eval_arc, make_arc, speed, wavenumber_for_ratio
from arcscat.grids import (
    coeffs_from_values,
    d0_values,
    t0_values,
    theta_grid,
    values_from_coeffs,
)
from arcscat.linalg import eig_dense
from arcscat.operators import (
    _n_terms,
    assemble_dense,
    build_log_quad,
    build_S_matrix,
    c_apply_values,
    j0_apply_values,
    log_quad_matrix,
    n0_apply_values,
    n_apply,
    n_frame,
    operator_action,
    s0_apply_values,
    s0_eigenvalue,
    s0_eigenvalues,
    s0_solve_values,
    s0tau_solve_values,
)
from arcscat.scattering import Incidence, dense_operator, solve, tm_data
from arcscat.specfun import _a2_diagonal


def dv(values):
    return np.asarray(values, dtype=complex)


def rand_dv(grid, seed=0):
    rng = np.random.default_rng(seed)
    return dv(rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.float64), b.view(np.float64))


def reference_s_entries(arc, k, grid):
    """The serial full-matrix row-block loop that built S before the
    triangle assembly, kept verbatim (with its A1/A2 evaluation inlined)
    as the bitwise reference."""
    n = grid.n
    x = np.cos(grid.nodes)
    points, _, _, tau = eval_arc(arc, x)
    px, py = np.ascontiguousarray(points[:, 0]), np.ascontiguousarray(points[:, 1])
    r = build_log_quad(grid)
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
        kr = k * dist
        j0, y0 = special.j0(kr), special.y0(kr)
        a1 = j0 / (-2.0 * np.pi)
        a2 = np.empty(dist.shape, dtype=complex)
        a2.real = j0 * (dcos / (2.0 * np.pi)) - 0.25 * y0
        a2.imag = 0.25 * j0
        a1[diag] = -1.0 / (2.0 * np.pi)
        a2[diag] = a2_diag[rows]
        rmat = r[np.abs(idx[rows, None] - idx[None, :])] + r[idx[rows, None] + idx[None, :] + 1]
        np.multiply(a1, rmat, out=rmat)
        out = entries[rows]
        out[...] = a2
        out.real += rmat
        out *= weight[None, :]
    return entries


# ---------------------------------------------------------------------------
# flat-arc zero-frequency operators
# ---------------------------------------------------------------------------
def test_s0_eigenvalue_values():
    assert abs(s0_eigenvalue(0) - 0.5 * math.log(2.0)) < 1e-16
    assert s0_eigenvalue(1) == 0.5
    assert s0_eigenvalue(10) == 0.05
    with pytest.raises(ValueError):
        s0_eigenvalue(-1)


def test_s0_diagonal_action():
    g = theta_grid(32)
    out = s0_apply_values(dv(np.ones(32)))
    assert np.max(np.abs(out - 0.5 * math.log(2.0))) < 1e-14
    out = s0_apply_values(dv(np.cos(5 * g.nodes)))
    assert np.max(np.abs(out - 0.1 * np.cos(5 * g.nodes))) < 1e-14


def test_s0_matches_log_quadrature_rule():
    g = theta_grid(32)
    v = rand_dv(g, 1)
    rule = -(0.5 / np.pi) * (np.pi / g.n) * (log_quad_matrix(g) @ v)
    assert np.max(np.abs(s0_apply_values(v) - rule)) < 1e-12


def test_j0_constant_mode():
    g = theta_grid(16)
    out = j0_apply_values(dv(np.ones(16)))
    assert np.max(np.abs(out + 0.25 * math.log(2.0))) < 1e-14


@pytest.mark.parametrize("n", range(1, 32))
def test_j0_analytic_action(n):
    g = theta_grid(32)
    th = g.nodes
    out = j0_apply_values(dv(np.cos(n * th)))
    expect = -np.cos(th) * np.sin(n * th) / (4 * n * np.sin(th)) - np.cos(n * th) / 4
    assert np.max(np.abs(out - expect)) < 1e-13


def test_j0_triangular_diagonal():
    # in the cosine basis the map is upper triangular with the analytic
    # diagonal -1/4 - 1/(4n)
    g = theta_grid(32)
    mat = np.empty((32, 32), dtype=complex)
    for j in range(32):
        e = np.zeros(32)
        e[j] = 1.0
        mat[:, j] = coeffs_from_values(j0_apply_values(values_from_coeffs(e + 0j)))
    lower = np.tril(mat, -1)
    assert np.max(np.abs(lower)) < 1e-14
    diag = np.real(np.diag(mat))
    assert abs(diag[0] + 0.25 * math.log(2.0)) < 1e-14
    assert np.max(np.abs(diag[1:] - (-0.25 - 0.25 / np.arange(1, 32)))) < 1e-14


def test_j0_equals_n0_s0_composition():
    g = theta_grid(32)
    v = rand_dv(g, 2)
    lhs = j0_apply_values(v)
    rhs = n0_apply_values(s0_apply_values(v))
    assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_c_operator_basis_action():
    g = theta_grid(32)
    th = g.nodes
    assert np.max(np.abs(c_apply_values(dv(np.ones(32))))) < 1e-15
    assert np.max(np.abs(c_apply_values(dv(np.cos(th))) - 1.0)) < 1e-14
    for n in range(2, 32):
        out = c_apply_values(dv(np.cos(n * th)))
        assert np.max(np.abs(out - np.sin(n * th) / (n * np.sin(th)))) < 1e-12


def test_c_operator_cesaro_integral_form():
    # C v = (theta(pi-theta)/(pi sin theta)) [ mean_0^theta v - mean_theta^pi v ]
    g = theta_grid(32)
    v = rand_dv(g, 3)
    coeffs = coeffs_from_values(v)

    def vfun(t):
        return np.real(coeffs[0]) + sum(np.real(coeffs[m]) * math.cos(m * t) for m in range(1, 32))

    out = c_apply_values(dv(np.real(v)))
    for idx in (5, 13, 20, 28):
        th = g.nodes[idx]
        left = quad(vfun, 0.0, th, epsabs=1e-12, limit=200)[0] / th
        right = quad(vfun, th, np.pi, epsabs=1e-12, limit=200)[0] / (np.pi - th)
        expect = th * (np.pi - th) / (np.pi * math.sin(th)) * (left - right)
        assert abs(out[idx].real - expect) < 1e-10


def test_jfact_identity():
    # J0 v = -v/4 - (cos theta/4) C v + ((1 - ln 2)/(4 pi)) int_0^pi v
    g = theta_grid(48)
    v = rand_dv(g, 4)
    th = g.nodes
    integral = np.pi * coeffs_from_values(v)[0]
    expect = (-0.25 * v - 0.25 * np.cos(th) * c_apply_values(v)
              + (1.0 - math.log(2.0)) / (4.0 * np.pi) * integral)
    assert np.max(np.abs(j0_apply_values(v) - expect)) < 1e-13


def test_s0tau_inverse_strip_constant():
    g = theta_grid(16)
    arc = make_arc("strip")
    out = s0tau_solve_values(n_frame(arc, 1.0, g), dv(np.ones(16)))
    assert np.max(np.abs(out - 2.0 / math.log(2.0))) < 1e-13


def test_s0tau_round_trip():
    g = theta_grid(32)
    arc = make_arc("spiral")
    frame = n_frame(arc, 1.0, g)
    v = rand_dv(g, 5)
    back = s0_apply_values(s0tau_solve_values(frame, v) * frame.tau)
    assert np.max(np.abs(back - v)) < 1e-12
    back2 = s0_solve_values(s0_apply_values(v))
    assert np.max(np.abs(back2 - v)) < 1e-12


def test_s0tau_matrix_matches_action():
    # the dense weighted flat-arc single layer from one batched call
    g = theta_grid(16)
    arc = make_arc("spiral")
    tau = n_frame(arc, 1.0, g).tau
    m = s0_apply_values(np.eye(g.n) * tau[None, :]).T
    v = rand_dv(g, 6)
    assert np.max(np.abs(m @ v - s0_apply_values(v * tau))) < 1e-13


# ---------------------------------------------------------------------------
# log-kernel quadrature
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("n", [8, 32, 64, 128])
def test_log_quad_vector_vs_brute_force(n):
    g = theta_grid(n)
    lam = s0_eigenvalues(n)
    direct = np.array([
        -sum((2.0 if m else 1.0) * lam[m] * math.cos(m * np.pi * l / n) for m in range(n))
        for l in range(2 * n)
    ])
    assert np.max(np.abs(build_log_quad(g) - direct)) < 1e-12


def test_log_quad_smallest_grid_constant_term():
    # r(0) = -(lambda_0 + 2 sum_{m>0} lambda_m)
    g = theta_grid(4)
    lam = s0_eigenvalues(4)
    assert abs(build_log_quad(g)[0] + lam[0] + 2 * lam[1:].sum()) < 1e-14


def test_log_quad_matrix_split_identity():
    g = theta_grid(24)
    r = build_log_quad(g)
    idx = np.arange(24)
    rebuilt = r[np.abs(idx[:, None] - idx[None, :])] + r[idx[:, None] + idx[None, :] + 1]
    lam = s0_eigenvalues(24)
    th = g.nodes
    direct = np.zeros((24, 24))
    for m in range(24):
        w = (2.0 if m else 1.0) * lam[m]
        direct -= 2.0 * w * np.outer(np.cos(m * th), np.cos(m * th))
    assert np.max(np.abs(rebuilt - direct)) < 1e-11


def test_log_rule_integrates_log_kernel():
    # (pi/N) sum_j cos(m theta_j) R_j(theta) = -2 pi lambda_m cos(m theta)
    g = theta_grid(32)
    rmat = log_quad_matrix(g)
    th = g.nodes
    for m in range(32):
        got = (np.pi / 32) * (rmat @ np.cos(m * th))
        want = -2.0 * np.pi * s0_eigenvalue(m) * np.cos(m * th)
        assert np.max(np.abs(got - want)) < 1e-12
    const = (np.pi / 32) * rmat.sum(axis=1)
    assert np.max(np.abs(const + np.pi * math.log(2.0))) < 1e-12


# ---------------------------------------------------------------------------
# Nystrom matrices
# ---------------------------------------------------------------------------
def quad_complex(f, theta_n):
    re = quad(lambda t: f(t).real, 0, np.pi, points=[theta_n], limit=400, epsabs=1e-13)[0]
    im = quad(lambda t: f(t).imag, 0, np.pi, points=[theta_n], limit=400, epsabs=1e-13)[0]
    return re + 1j * im


def single_layer_oracle(arc, k, theta_n, dens):
    from arcscat.specfun import kernel_split

    def f(tp):
        a1, a2 = kernel_split(k, arc, theta_n, tp)
        g = a1 * math.log(abs(math.cos(theta_n) - math.cos(tp))) + a2
        return g * dens(tp) * speed(arc, math.cos(tp))

    return quad_complex(f, theta_n)


def smooth_hypersingular_oracle(arc, k, theta_n, dens):
    from arcscat.specfun import kernel_split

    nrm_n = eval_arc(arc, math.cos(theta_n))[2]

    def f(tp):
        a1, a2 = kernel_split(k, arc, theta_n, tp)
        g = a1 * math.log(abs(math.cos(theta_n) - math.cos(tp))) + a2
        nrm_p = eval_arc(arc, math.cos(tp))[2]
        return (k * k * g * dens(tp) * speed(arc, math.cos(tp))
                * math.sin(tp) ** 2 * float(nrm_n @ nrm_p))

    return quad_complex(f, theta_n)


@pytest.mark.parametrize("kind", ["strip", "halfcircle"])
def test_s_matrix_against_adaptive_quadrature(kind):
    arc = make_arc(kind)
    k = np.pi
    g = theta_grid(64)
    s = build_S_matrix(arc, k, g)
    dens = lambda tp: math.exp(math.cos(tp))
    applied = s.dense() @ np.exp(np.cos(g.nodes))
    for idx in (3, 17, 31, 44, 60):
        exact = single_layer_oracle(arc, k, g.nodes[idx], dens)
        assert abs(applied[idx] - exact) / abs(exact) < 1e-9


@pytest.mark.parametrize("kind", ["strip", "halfcircle"])
def test_ng_matrix_against_adaptive_quadrature(kind):
    arc = make_arc(kind)
    k = np.pi
    g = theta_grid(64)
    s = build_S_matrix(arc, k, g)
    dens = lambda tp: math.exp(math.cos(tp))
    applied = _n_terms(n_frame(arc, k, g), s, np.exp(np.cos(g.nodes)))[0]
    for idx in (3, 17, 31, 44, 60):
        exact = smooth_hypersingular_oracle(arc, k, g.nodes[idx], dens)
        assert abs(applied[idx] - exact) / abs(exact) < 1e-9


def test_s_matrix_strip_symmetric():
    s = build_S_matrix(make_arc("strip"), 2.0 * np.pi, theta_grid(64)).dense()
    assert np.max(np.abs(s - s.T)) < 1e-12


def test_s_matrix_self_convergence():
    # same smooth input, outputs compared on the coarse grid via the
    # cosine interpolant of the fine result
    arc = make_arc("strip")
    k = 2.0 * np.pi
    g32, g64 = theta_grid(32), theta_grid(64)
    out32 = build_S_matrix(arc, k, g32).dense() @ np.ones(32)
    out64 = build_S_matrix(arc, k, g64).dense() @ np.ones(64)
    c64 = coeffs_from_values(out64)
    interp = np.array([
        np.real(c64[0]) + sum(np.real(c64[m]) * math.cos(m * t) for m in range(1, 64))
        + 1j * (np.imag(c64[0]) + sum(np.imag(c64[m]) * math.cos(m * t) for m in range(1, 64)))
        for t in g32.nodes
    ])
    assert np.max(np.abs(out32 - interp)) < 1e-10


def test_s_matrix_rejects_zero_k():
    with pytest.raises(ValueError):
        build_S_matrix(make_arc("strip"), 0.0, theta_grid(16))


@pytest.mark.parametrize("k", [np.nan, np.inf])
def test_s_matrix_rejects_nonfinite_k(k):
    with pytest.raises(ValueError, match="finite"):
        build_S_matrix(make_arc("strip"), k, theta_grid(16))


# ---------------------------------------------------------------------------
# packed storage of the symmetric kernel and its blocked products
# ---------------------------------------------------------------------------
# (n, ROW_BLOCK_BYTES or None for the default, the block layout it gives)
PACKED_CASES = [(4, None, "one block"), (6, None, "one block"), (200, None, "one block"),
                (1200, None, "many blocks"), (64, 16, "last block of 2 rows"),
                (45, 16, "last block of 3 rows")]


@pytest.mark.parametrize("n,block_bytes,layout", PACKED_CASES)
def test_packed_products_match_the_dense_s(monkeypatch, n, block_bytes, layout):
    if block_bytes is not None:
        monkeypatch.setattr(operators, "ROW_BLOCK_BYTES", block_bytes)
    arc = make_arc("spiral")
    k = wavenumber_for_ratio(arc, 10.0)
    g = theta_grid(n)
    s = build_S_matrix(arc, k, g)
    heights = np.diff(s.rows)
    assert s.rows[0] == 0 and s.rows[-1] == n and heights.min() >= 2
    assert s.entries.shape == (sum(h * (n - r0) for h, r0 in zip(heights, s.rows)),)
    if layout == "one block":
        assert len(heights) == 1
    elif layout == "many blocks":
        assert len(heights) >= 5
    else:
        assert len(heights) > 10 and heights[-1] == int(layout.split()[-2])
    dense = s.dense()
    action = operator_action("S", n_frame(arc, k, g), s)
    v = rand_dv(g, 21)
    stack = np.array([rand_dv(g, seed) for seed in range(3)])
    for x in (v, stack):
        expect = (dense @ x.T).T
        for got in (operators._s_products(s, [x])[0], action(x)):
            assert got.shape == x.shape
            assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


def test_packed_s_keeps_little_more_than_half_the_full_matrix():
    n = 2048
    arc = make_arc("spiral")
    s = build_S_matrix(arc, wavenumber_for_ratio(arc, 100.0), theta_grid(n))
    assert s.entries.nbytes <= 0.55 * 16 * n ** 2


def test_s_build_evaluates_the_kernel_in_l2_sized_panels(monkeypatch):
    # the stored blocks are sized for the products, the panels for the
    # J0/Y0 temporaries: their evaluations stay those of the 16384-entry
    # panels, diagonal squares included
    sizes = []
    real = operators._a1a2_offdiag

    def counting(k, dist, dcos, pool):
        sizes.append(dist.size)
        return real(k, dist, dcos, pool)

    monkeypatch.setattr(operators, "_a1a2_offdiag", counting)
    arc = make_arc("strip")
    build_S_matrix(arc, wavenumber_for_ratio(arc, 20.0), theta_grid(512))
    assert sum(sizes) == 147260
    assert max(sizes) <= operators.PANEL_ENTRIES


# ---------------------------------------------------------------------------
# triangle assembly on a thread pool, against the serial full-matrix loop
# ---------------------------------------------------------------------------
# panels hold PANEL_ENTRIES entries up to N = 1024 and N^2/64 beyond it
@pytest.mark.parametrize("kind,n", [
    *itertools.product(["strip", "halfcircle", "parabola", "spiral"], [4, 6, 250, 400, 512]),
    ("spiral", 1024), ("spiral", 2048)])
def test_s_matrix_bitwise_equals_full_matrix_loop(kind, n):
    arc = make_arc(kind)
    k = wavenumber_for_ratio(arc, 20.0)
    g = theta_grid(n)
    assert same_bits(build_S_matrix(arc, k, g).dense(), reference_s_entries(arc, k, g))


def spiral_case(n=400):
    arc = make_arc("spiral")
    return arc, wavenumber_for_ratio(arc, 50.0), theta_grid(n)


def small_pool_tasks(monkeypatch, cores):
    """Pretend to have ``cores`` usable cores, and split J0/Y0 into tasks
    small enough that every panel of a few-hundred-node S uses the pool."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    monkeypatch.setattr(specfun, "A1A2_CHUNK", 1 << 12)


def recording_j0(calls):
    """A stand-in for scipy.special in specfun whose j0 records the
    calling thread and the live thread count."""
    def j0(x):
        calls.append((threading.current_thread(), threading.active_count()))
        return special.j0(x)
    return SimpleNamespace(j0=j0, y0=special.y0)


def test_s_matrix_bitwise_under_fast_thread_switching(monkeypatch):
    # more workers than this machine may have cores, and a thread switch
    # every microsecond
    small_pool_tasks(monkeypatch, 4)
    arc, k, g = spiral_case(512)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        entries = build_S_matrix(arc, k, g).dense()
    finally:
        sys.setswitchinterval(old)
    assert same_bits(entries, reference_s_entries(arc, k, g))


def test_s_matrix_pool_threads_bounded_by_cores(monkeypatch):
    small_pool_tasks(monkeypatch, 2)
    calls = []
    monkeypatch.setattr(specfun, "special", recording_j0(calls))
    before = threading.active_count()
    build_S_matrix(*spiral_case())
    workers = {t for t, _ in calls if t is not threading.current_thread()}
    assert 1 <= len(workers) <= 2
    assert max(count for _, count in calls) <= before + 2


def test_s_matrix_worker_error_propagates(monkeypatch):
    small_pool_tasks(monkeypatch, 2)
    caller, errors = [], []

    def j0(x):
        if threading.current_thread() is not caller[0]:
            raise FloatingPointError("j0 failed in a pool worker")
        return special.j0(x)

    monkeypatch.setattr(specfun, "special", SimpleNamespace(j0=j0, y0=special.y0))

    def run():
        try:
            build_S_matrix(*spiral_case())
        except FloatingPointError as exc:
            errors.append(exc)

    thread = threading.Thread(target=run)
    caller.append(thread)
    thread.start()
    thread.join(timeout=60.0)
    assert not thread.is_alive()
    assert [str(e) for e in errors] == ["j0 failed in a pool worker"]


def test_s_matrix_on_one_core_starts_no_thread(monkeypatch):
    small_pool_tasks(monkeypatch, 1)
    calls = []
    monkeypatch.setattr(specfun, "special", recording_j0(calls))
    before = threading.active_count()
    arc, k, g = spiral_case()
    entries = build_S_matrix(arc, k, g).dense()
    assert calls
    assert all(t is threading.current_thread() and count == before for t, count in calls)
    assert same_bits(entries, reference_s_entries(arc, k, g))


def test_ng_strip_entrywise_relation():
    # on the strip n . n' = 1, so Ng v = k^2 S(sin^2 theta v); the action
    # sums two products in another order, so it agrees to rounding only
    arc = make_arc("strip")
    k = np.pi
    g = theta_grid(32)
    s = build_S_matrix(arc, k, g)
    v = rand_dv(g, 4)
    got = _n_terms(n_frame(arc, k, g), s, v)[0]
    expect = s.dense() @ (k * k * np.sin(g.nodes) ** 2 * v)
    assert np.max(np.abs(got - expect)) < 1e-13 * np.max(np.abs(expect))


def test_ng_k_squared_prefactor():
    arc = make_arc("halfcircle")
    g = theta_grid(32)
    ratios = []
    for k in (1.0, 3.0):
        s = build_S_matrix(arc, k, g)
        ng = np.column_stack([_n_terms(n_frame(arc, k, g), s, e)[0] for e in np.eye(g.n)])
        ratios.append(ng / s.dense() / (k * k))
    assert np.max(np.abs(ratios[0] - ratios[1])) < 1e-12


# ---------------------------------------------------------------------------
# composed pipelines
# ---------------------------------------------------------------------------
def test_apply_n_zero_frequency_factorization(monkeypatch):
    # with the dense flat-arc log operator in place of S at k = 0 (no
    # smooth part), the pipeline reduces to D0 S0 T0 (top mode excluded:
    # it is invisible to a nodal matrix)
    g = theta_grid(64)
    arc = make_arc("strip")
    s0 = assemble_dense(s0_apply_values, g)
    monkeypatch.setattr(operators, "_s_products",
                        lambda s, vectors: np.array([(s @ v.T).T for v in vectors]))
    frame = n_frame(arc, 0.0, g)
    for n in range(63):
        e = dv(np.cos(n * g.nodes))
        lhs = n_apply(frame, s0, e)
        rhs = n0_apply_values(e)
        assert np.max(np.abs(lhs - rhs)) < 1e-11


@pytest.mark.parametrize("n", [64, 1200, 1600])
def test_n_stage_bitwise_equals_separate_products(n):
    # the shared blocked pass must reproduce three separate S products;
    # S is stored in 1, 7 and 11 blocks
    arc = make_arc("spiral")
    k = wavenumber_for_ratio(arc, n / 8.0)
    g = theta_grid(n)
    s, frame = build_S_matrix(arc, k, g), n_frame(arc, k, g)
    apply_s = operator_action("S", frame, s)
    v = rand_dv(g, 12)
    _, _, normals, tau = eval_arc(arc, np.cos(g.nodes))
    w = (k * k) * np.sin(g.nodes) ** 2 * v
    expect = (sum(n_c * apply_s(n_c * w) for n_c in normals.T)
              + d0_values(apply_s(t0_values(v) / tau)) / tau)
    assert same_bits(n_apply(frame, s, v), expect)


def test_apply_n_linearity():
    arc = make_arc("spiral")
    k = 3.0
    g = theta_grid(48)
    s, frame = build_S_matrix(arc, k, g), n_frame(arc, k, g)
    u, v = rand_dv(g, 7), rand_dv(g, 8)
    a, b = 0.3 + 1.1j, -2.0 + 0.4j
    lhs = n_apply(frame, s, a * u + b * v)
    rhs = a * n_apply(frame, s, u) + b * n_apply(frame, s, v)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))


def test_apply_ns_linearity():
    arc = make_arc("strip")
    k = 2.0
    g = theta_grid(32)
    s, frame = build_S_matrix(arc, k, g), n_frame(arc, k, g)
    u, v = rand_dv(g, 9), rand_dv(g, 10)
    a, b = 1.7 - 0.3j, 0.2 + 0.9j

    def ns(x):
        return n_apply(frame, s, operator_action("S", frame, s)(x))

    lhs = ns(a * u + b * v)
    rhs = a * ns(u) + b * ns(v)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))


def test_ns_small_k_clusters_at_quarter():
    arc = make_arc("strip")
    k = 0.1
    g = theta_grid(64)
    lam = eig_dense(dense_operator("NS", arc, k, g))
    dist = np.sort(np.abs(lam + 0.25))
    bulk = dist[: int(0.8 * 64)]
    assert bulk.mean() < 0.05


def test_j0_possesses_log2_eigenvalue():
    g = theta_grid(64)
    mat = np.empty((64, 64), dtype=complex)
    for j in range(64):
        e = np.zeros(64)
        e[j] = 1.0
        mat[:, j] = coeffs_from_values(j0_apply_values(values_from_coeffs(e + 0j)))
    lam = eig_dense(mat)
    assert np.min(np.abs(lam + 0.25 * math.log(2.0))) < 1e-10


def test_tm_residual_end_to_end():
    arc = make_arc("strip")
    k = wavenumber_for_ratio(arc, 10.0)
    g = theta_grid(128)
    inc = Incidence(angle_deg=90.0, k=k)
    tol = 1e-10
    sol = solve("TM_N", arc, inc, g, tol=tol)
    frame = n_frame(arc, k, g)
    rhs = tm_data(frame.points, frame.normals, inc)
    resid = n_apply(frame, build_S_matrix(arc, k, g), sol.density) - rhs
    rel = np.max(np.abs(resid)) / np.max(np.abs(rhs))
    assert rel < 10 * tol


# ---------------------------------------------------------------------------
# dense materializations and spectra
# ---------------------------------------------------------------------------
def test_assemble_identity():
    g = theta_grid(16)
    mat = assemble_dense(lambda v: v, g)
    assert np.array_equal(mat, np.eye(16, dtype=complex))


def test_assemble_cap(monkeypatch):
    monkeypatch.setattr(operators, "DENSE_CAP", 16)
    with pytest.raises(ValueError):
        assemble_dense(lambda v: v, theta_grid(32))


def test_assemble_s0_transform_conjugation():
    # independent construction from explicit trigonometric matrices
    n = 16
    g = theta_grid(n)
    th = g.nodes
    modes = np.arange(n)
    recon = np.cos(np.outer(th, modes))              # values from coefficients
    fwd = np.cos(np.outer(modes, th)) * (2.0 / n)    # coefficients from values
    fwd[0] *= 0.5
    expect = recon @ np.diag(s0_eigenvalues(n)) @ fwd
    got = assemble_dense(s0_apply_values, g)
    assert np.max(np.abs(got - expect)) < 1e-13


@pytest.mark.parametrize("kind", ["strip", "halfcircle", "spiral"])
def test_assemble_ns_associativity(kind):
    # curved arcs have n . n' != 1, so they also check the normals in
    # the Ng action against Ng built entry by entry as
    # k^2 (n_n . n_j) sin^2(theta_j) S(n, j), with D0 and T0_tau as
    # dense matrices
    arc = make_arc(kind)
    k = 2.0
    g = theta_grid(32)
    s, frame = build_S_matrix(arc, k, g), n_frame(arc, k, g)
    dense = s.dense()
    eye = np.eye(g.n)
    ng = (k * k) * (frame.normals @ frame.normals.T) * np.sin(g.nodes) ** 2 * dense
    pv = d0_values(eye).T @ dense @ (t0_values(eye) / frame.tau).T
    nd = ng + pv / frame.tau[:, None]
    piped_n = assemble_dense(lambda v: n_apply(frame, s, v), g)
    assert np.max(np.abs(piped_n - nd)) < 1e-11
    assert np.max(np.abs(dense_operator("N", arc, k, g) - nd)) < 1e-11
    piped = assemble_dense(lambda v: n_apply(frame, s, dense @ v), g)
    product = nd @ dense
    assert np.max(np.abs(piped - product)) < 1e-11
    assert np.max(np.abs(dense_operator("NS", arc, k, g) - product)) < 1e-11


@pytest.mark.parametrize("kind", ["spiral", "halfcircle"])
@pytest.mark.parametrize("name", ["S", "N", "NS", "S0invS"])
def test_operator_action_on_a_stack_matches_single_densities(kind, name):
    arc = make_arc(kind)
    k = wavenumber_for_ratio(arc, 4.0)
    g = theta_grid(64)
    action = operator_action(name, n_frame(arc, k, g), build_S_matrix(arc, k, g))
    stack = np.array([rand_dv(g, seed) for seed in range(5)])
    rows = np.array([action(v) for v in stack])
    got = action(stack)
    assert got.shape == (5, g.n)
    assert np.max(np.abs(got - rows)) <= 1e-13 * np.max(np.abs(rows))


def test_operator_action_rejects_an_unknown_name():
    arc, g = make_arc("strip"), theta_grid(16)
    with pytest.raises(ValueError, match="unknown operator name"):
        operator_action("Q", n_frame(arc, 1.0, g), build_S_matrix(arc, 1.0, g))


def test_discrete_calderon_identity():
    for n in (32, 64):
        g = theta_grid(n)
        comp = assemble_dense(lambda v: n0_apply_values(s0_apply_values(v)), g)
        j0 = assemble_dense(j0_apply_values, g)
        assert np.max(np.abs(comp - j0).sum(axis=1)) < 1e-10


def test_first_kind_smallest_singular_value_decays():
    arc = make_arc("strip")
    k = 2.0 * np.pi
    smin = []
    for n in (64, 128, 256):
        s = build_S_matrix(arc, k, theta_grid(n))
        smin.append(np.linalg.svd(s.dense(), compute_uv=False)[-1])
    assert smin[0] > smin[1] > smin[2]


# cavity gap 1.0: a narrower aperture raises the cavity Q until a
# physical quasi-resonance parks an NS eigenvalue near zero
CLUSTER_ARCS = [("strip", ()), ("spiral", ()), ("parabola", ()), ("halfcircle", ()),
                ("circlecavity", (1.0, 1.0))]


@pytest.mark.parametrize("kind,params", CLUSTER_ARCS)
@pytest.mark.parametrize("ratio", [10.0, 50.0])
def test_ns_eigenvalue_clustering(kind, params, ratio):
    # second-kind composition: eigenvalues bounded away from zero and
    # infinity, bulk clustered near -1/4; grid paired to the frequency
    # as in the solve experiments (8 nodes per unit of L/lambda)
    from arcscat.grids import nearest_admissible

    arc = make_arc(kind, params)
    k = wavenumber_for_ratio(arc, ratio)
    n = nearest_admissible(int(8 * ratio))
    lam = eig_dense(dense_operator("NS", arc, k, theta_grid(n)))
    mods = np.abs(lam)
    assert mods.min() > 0.02
    assert mods.max() < 50.0
    assert np.mean(np.abs(lam + 0.25) < 0.35) >= 0.70


def test_atkinson_spread_exceeds_ns_spread():
    arc = make_arc("spiral")
    k = wavenumber_for_ratio(arc, 50.0)
    g = theta_grid(512)
    lam_ns = eig_dense(dense_operator("NS", arc, k, g))
    lam_atk = eig_dense(dense_operator("S0invS", arc, k, g))
    spread_ns = np.abs(lam_ns).max() / np.abs(lam_ns).min()
    spread_atk = np.abs(lam_atk).max() / np.abs(lam_atk).min()
    assert spread_atk >= 10.0 * spread_ns


def test_dense_operator_names():
    arc = make_arc("strip")
    g = theta_grid(16)
    for name in ("S", "N", "NS", "S0invS"):
        assert dense_operator(name, arc, 1.0, g).shape == (16, 16)
    with pytest.raises(ValueError):
        dense_operator("Q", arc, 1.0, g)


def test_dense_operator_rejects_an_unknown_name_before_building_s(monkeypatch):
    monkeypatch.setattr(scattering, "build_S_matrix", lambda *args: pytest.fail("S was built"))
    with pytest.raises(ValueError, match="unknown operator name"):
        dense_operator("Q", make_arc("strip"), 1.0, theta_grid(16))


def test_dense_operator_rejects_n_above_the_cap_before_building_s(monkeypatch):
    monkeypatch.setattr(scattering, "build_S_matrix", lambda *args: pytest.fail("S was built"))
    assert 4320 > scattering.DENSE_CAP
    with pytest.raises(ValueError, match="capped"):
        dense_operator("S", make_arc("strip"), 1.0, theta_grid(4320))
