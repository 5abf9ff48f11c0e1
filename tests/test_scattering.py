"""Right-hand sides, the five formulations, density recovery and field
evaluation."""

import dataclasses
import gc
import math
import os
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import arcscat
import arcscat.operators as operators
import arcscat.scattering as scattering
import arcscat.specfun as specfun
from arcscat.geometry import eval_arc, make_arc, wavenumber_for_ratio
from arcscat.grids import coeffs_from_values, nearest_admissible, theta_grid
from arcscat.linalg import SolveReport, gmres
from arcscat.operators import (
    NFrame,
    build_S_matrix,
    n_frame,
    operator_action,
    s0_solve_values,
)
from arcscat.scattering import (
    FORMULATIONS,
    Incidence,
    Solution,
    dense_operator,
    far_field,
    far_field_error,
    incident_field,
    near_field,
    recover_mu,
    recover_nu,
    solve,
    te_data,
    te_layer_density,
    tm_data,
)


def make_solution(formulation, grid, values, arc=None, k=1.0):
    """A TE_S or TM_N Solution with the given density, which is also its
    layer density, on the discretization's node frame."""
    assert formulation in ("TE_S", "TM_N")
    arc = arc or make_arc("strip")
    density = np.asarray(values, dtype=complex)
    report = SolveReport(iterations=0, residuals=[], converged=True, elapsed=0.0, n=grid.n)
    return Solution(formulation=formulation, density=density, layer_density=density,
                    report=report, arc=arc, k=k, grid=grid, incidence=Incidence(90.0, k),
                    frame=n_frame(arc, k, grid))


def memo_s(sol):
    """The S of the solve's discretization, which the memo still holds
    (a Solution keeps its layer density, not S)."""
    last = scattering._last
    assert last is not None and last.matches(sol.arc, sol.k, sol.grid)
    return last.s


def node_te_data(arc, inc, grid):
    """Dirichlet data at the nodes, from the node frame as ``solve`` builds it."""
    return te_data(n_frame(arc, inc.k, grid).points, inc)


def node_tm_data(arc, inc, grid):
    """Neumann data at the nodes, from the node frame as ``solve`` builds it."""
    frame = n_frame(arc, inc.k, grid)
    return tm_data(frame.points, frame.normals, inc)


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("angle,k", [(np.nan, 3.0), (90.0, np.nan), (90.0, np.inf)])
def test_incidence_rejects_non_finite(angle, k):
    with pytest.raises(ValueError):
        Incidence(angle, k)


def test_rhs_te_low_frequency_limit():
    arc = make_arc("strip")
    g = theta_grid(16)
    f = node_te_data(arc, Incidence(33.0, 1e-8), g)
    assert np.max(np.abs(f + 1.0)) < 1e-7


def test_rhs_te_strip_normal_incidence_constant():
    arc = make_arc("strip")
    g = theta_grid(16)
    f = node_te_data(arc, Incidence(90.0, 7.0), g)
    assert np.max(np.abs(f + 1.0)) < 1e-14


def test_rhs_te_pointwise():
    arc = make_arc("spiral")
    k = 4.0
    inc = Incidence(25.0, k)
    g = theta_grid(32)
    f = node_te_data(arc, inc, g)
    rng = np.random.default_rng(0)
    for j in rng.choice(32, 10, replace=False):
        p = eval_arc(arc, math.cos(g.nodes[j]))[0]
        assert abs(f[j] + np.exp(1j * k * (p @ inc.direction))) < 1e-14


def test_rhs_tm_strip_horizontal_identically_zero():
    arc = make_arc("strip")
    g = theta_grid(64)
    gvec = node_tm_data(arc, Incidence(0.0, 31.4), g)
    assert np.max(np.abs(gvec)) == 0.0


def test_dark_tm_solve_gives_the_zero_density():
    sol = solve("TM_N", make_arc("strip"), Incidence(0.0, 5.0), theta_grid(32))
    assert np.array_equal(sol.density, np.zeros(32))
    report = sol.report
    assert (report.iterations, report.converged, report.final_residual) == (0, True, 0.0)
    assert np.max(np.abs(far_field(sol, 36).values)) == 0.0


@pytest.mark.parametrize("options", [{"tol": 7.0}, {"maxit": -3}], ids=["tol", "maxit"])
def test_dark_tm_solve_validates_tol_and_maxit(options):
    with pytest.raises(ValueError):
        solve("TM_N", make_arc("strip"), Incidence(0.0, 5.0), theta_grid(32), **options)


def test_rhs_tm_bounded_by_k():
    arc = make_arc("spiral")
    k = 5.5
    gvec = node_tm_data(arc, Incidence(70.0, k), theta_grid(32))
    assert np.max(np.abs(gvec)) <= k + 1e-12


def test_rhs_tm_finite_difference_check():
    arc = make_arc("parabola")
    k = 3.0
    inc = Incidence(40.0, k)
    g = theta_grid(32)
    gvec = node_tm_data(arc, inc, g)
    h = 1e-6
    for j in (2, 9, 15, 23, 30):
        p, _, nrm, _ = eval_arc(arc, math.cos(g.nodes[j]))
        up = np.exp(1j * k * ((p + h * nrm) @ inc.direction))
        dn = np.exp(1j * k * ((p - h * nrm) @ inc.direction))
        fd = -(up - dn) / (2 * h)
        assert abs(gvec[j] - fd) < 1e-6 * max(1.0, abs(fd))


# ---------------------------------------------------------------------------
# solve and recovery
# ---------------------------------------------------------------------------
def test_te_formulations_same_density():
    arc = make_arc("strip")
    k = wavenumber_for_ratio(arc, 10.0)
    g = theta_grid(128)
    inc = Incidence(90.0, k)
    s1 = solve("TE_S", arc, inc, g, tol=1e-10)
    s2 = solve("TE_NS", arc, inc, g, tol=1e-10)
    assert s1.report.converged and s2.report.converged
    assert np.max(np.abs(s1.density - s2.density)) < 1e-8


def test_tm_formulations_same_physical_density():
    arc = make_arc("strip")
    k = wavenumber_for_ratio(arc, 10.0)
    g = theta_grid(128)
    inc = Incidence(90.0, k)
    t1 = solve("TM_N", arc, inc, g, tol=1e-10)
    t2 = solve("TM_NS", arc, inc, g, tol=1e-10)
    nu1, nu2 = recover_nu(t1), recover_nu(t2)
    assert np.max(np.abs(nu1 - nu2)) < 1e-7


def test_atkinson_recovers_same_mu():
    arc = make_arc("strip")
    k = wavenumber_for_ratio(arc, 10.0)
    g = theta_grid(128)
    inc = Incidence(90.0, k)
    s1 = solve("TE_S", arc, inc, g, tol=1e-10)
    s3 = solve("TE_ATKINSON", arc, inc, g, tol=1e-10)
    m1, m3 = recover_mu(s1), recover_mu(s3)
    assert np.max(np.abs(m1 - m3)) < 1e-7 * np.max(np.abs(m1))


def test_strip_tm_ns_iteration_count():
    arc = make_arc("strip")
    k = wavenumber_for_ratio(arc, 50.0)
    sol = solve("TM_NS", arc, Incidence(90.0, k), theta_grid(400), tol=1e-8)
    assert abs(sol.report.iterations - 9) <= 3


def test_unknown_formulation_rejected():
    with pytest.raises(ValueError):
        solve("TE_X", make_arc("strip"), Incidence(0.0, 1.0), theta_grid(16))


def test_recover_mu_sine_density():
    g = theta_grid(32)
    sol = make_solution("TE_S", g, np.sin(g.nodes).astype(complex))
    assert np.max(np.abs(recover_mu(sol) - 1.0)) < 1e-13


def test_recover_formulation_mismatch():
    g = theta_grid(16)
    sol = make_solution("TM_N", g, np.ones(16, dtype=complex))
    with pytest.raises(ValueError):
        recover_mu(sol)
    sol2 = make_solution("TE_S", g, np.ones(16, dtype=complex))
    with pytest.raises(ValueError):
        recover_nu(sol2)


def test_edge_behavior_of_converged_densities():
    arc = make_arc("strip")
    k = wavenumber_for_ratio(arc, 10.0)
    g = theta_grid(128)
    inc = Incidence(90.0, k)
    # nu vanishes linearly in sin theta at the edges
    nu = recover_nu(solve("TM_N", arc, inc, g, tol=1e-10))
    s = np.sin(g.nodes)
    sel = s < 0.2
    slope = np.polyfit(np.log(s[sel]), np.log(np.abs(nu[sel])), 1)[0]
    assert 0.9 <= slope <= 1.1
    # phi stays bounded away from zero at the extreme nodes
    phi = solve("TE_S", arc, inc, g, tol=1e-10).density
    scale = np.max(np.abs(phi))
    assert abs(phi[0]) > 0.01 * scale and abs(phi[-1]) > 0.01 * scale


def test_density_coefficient_tail_decays():
    arc = make_arc("strip")
    k = wavenumber_for_ratio(arc, 10.0)
    sol = solve("TE_S", arc, Incidence(90.0, k), theta_grid(256), tol=1e-10)
    c = np.abs(coeffs_from_values(sol.density))
    assert np.max(c[-26:]) < 1e-6 * np.max(c)


def test_defining_equation_residual_within_tolerance():
    arc = make_arc("spiral")
    k = wavenumber_for_ratio(arc, 10.0)
    g = theta_grid(128)
    inc = Incidence(90.0, k)
    tol = 1e-8
    for formulation in FORMULATIONS:
        sol = solve(formulation, arc, inc, g, tol=tol)
        assert sol.report.converged
        assert sol.report.final_residual <= 10 * tol


# ---------------------------------------------------------------------------
# far field
# ---------------------------------------------------------------------------
def test_far_field_zero_density():
    g = theta_grid(32)
    sol = make_solution("TE_S", g, np.zeros(32, dtype=complex))
    ff = far_field(sol, 90)
    assert ff.values.shape == (90,)
    assert np.max(np.abs(ff.values)) == 0.0


def test_far_field_strip_mirror_symmetries():
    arc = make_arc("strip")
    k = wavenumber_for_ratio(arc, 10.0)
    g = theta_grid(128)
    m = 360
    # incidence along +x: u_inf(a) = u_inf(-a)
    ff = far_field(solve("TE_S", arc, Incidence(0.0, k), g, tol=1e-11), m)
    refl = (-np.arange(m)) % m
    assert np.max(np.abs(ff.values - ff.values[refl])) < 1e-10 * np.max(np.abs(ff.values))
    # normal incidence: |u_inf| symmetric about the vertical axis
    ff = far_field(solve("TE_S", arc, Incidence(90.0, k), g, tol=1e-11), m)
    mirror = (180 - np.arange(m)) % m
    mags = np.abs(ff.values)
    assert np.max(np.abs(mags - mags[mirror])) < 1e-10 * mags.max()


def test_far_field_self_convergence():
    arc = make_arc("strip")
    k = wavenumber_for_ratio(arc, 50.0)
    inc = Incidence(90.0, k)
    ff_400 = far_field(solve("TE_S", arc, inc, theta_grid(400), tol=1e-12), 360)
    ff_800 = far_field(solve("TE_S", arc, inc, theta_grid(800), tol=1e-12), 360)
    assert far_field_error(ff_400, ff_800) < 1e-10


def test_far_field_superalgebraic_decay():
    # spiral at L/lambda = 50: in the pre-plateau regime each ~11% grid
    # increment cuts the far-field error by well over 3x
    arc = make_arc("spiral")
    k = wavenumber_for_ratio(arc, 50.0)
    inc = Incidence(90.0, k)
    ffs = {n: far_field(solve("TE_S", arc, inc, theta_grid(n), tol=1e-12, maxit=3000), 360)
           for n in (288, 320, 360, 400, 512)}
    eps = [far_field_error(ffs[n], ffs[512]) for n in (288, 320, 360, 400)]
    assert eps[0] / eps[1] > 2.5
    assert eps[1] / eps[2] > 3.0
    assert eps[2] / eps[3] > 3.0


def test_far_field_reciprocity():
    arc = make_arc("strip")
    k = wavenumber_for_ratio(arc, 10.0)
    g = theta_grid(128)
    alpha, beta = 37.0, 122.0
    m = 720
    fa = far_field(solve("TE_S", arc, Incidence(alpha, k), g, tol=1e-12), m)
    fb = far_field(solve("TE_S", arc, Incidence(beta + 180.0, k), g, tol=1e-12), m)
    i_beta = int(round(beta / (360.0 / m)))
    i_alpha = int(round(((alpha + 180.0) % 360.0) / (360.0 / m)))
    diff = abs(fa.values[i_beta] - fb.values[i_alpha])
    assert diff < 1e-6 * np.max(np.abs(fa.values))


CROSS_ARCS = [("strip", ()), ("spiral", ()), ("parabola", ()), ("halfcircle", ()),
              ("circlecavity", (1.0, 1.0))]


@pytest.mark.parametrize("kind,params", CROSS_ARCS)
def test_cross_formulation_far_fields(kind, params):
    arc = make_arc(kind, params)
    k = wavenumber_for_ratio(arc, 10.0)
    g = theta_grid(160)
    inc = Incidence(90.0, k)
    te = [far_field(solve(f, arc, inc, g, tol=1e-10, maxit=3000), 180)
          for f in ("TE_S", "TE_NS")]
    assert far_field_error(te[0], te[1]) < 1e-6
    tm = [far_field(solve(f, arc, inc, g, tol=1e-10, maxit=3000), 180)
          for f in ("TM_N", "TM_NS")]
    assert far_field_error(tm[0], tm[1]) < 1e-6


def test_far_field_error_shape_mismatch():
    g = theta_grid(16)
    sol = make_solution("TE_S", g, np.zeros(16, dtype=complex))
    with pytest.raises(ValueError):
        far_field_error(far_field(sol, 10), far_field(sol, 20))


@pytest.mark.filterwarnings("error")
def test_far_field_error_on_dark_data():
    g = theta_grid(16)
    dark = far_field(solve("TM_N", make_arc("strip"), Incidence(0.0, 5.0), g), 36)
    lit = far_field(make_solution("TE_S", g, np.ones(16, dtype=complex)), 36)
    assert far_field_error(dark, dark) == 0.0
    assert far_field_error(lit, dark) == math.inf
    assert far_field_error(dark, lit) == 1.0


@pytest.mark.parametrize("m,error", [(2.5, TypeError), (True, TypeError), (False, TypeError),
                                     ("4", TypeError), (0, ValueError), (-3, ValueError)])
def test_far_field_rejects_bad_observation_count(m, error):
    g = theta_grid(16)
    sol = make_solution("TE_S", g, np.ones(16, dtype=complex))
    with pytest.raises(error, match="observation count|integer"):
        far_field(sol, m)


def test_far_field_accepts_numpy_integer_count():
    g = theta_grid(16)
    sol = make_solution("TE_S", g, np.ones(16, dtype=complex))
    assert far_field(sol, np.int64(6)).values.shape == (6,)


def direct_far_field_values(sol, m):
    """The direct m x N far-field quadrature, one exponential per
    (direction, node), kept verbatim as the reference for the half-phase
    evaluation."""
    grid, k = sol.grid, sol.k
    points, _, normals, tau = eval_arc(sol.arc, np.cos(grid.nodes))
    angles = 360.0 * np.arange(m) / m
    rad = np.deg2rad(angles)
    obs = np.stack([np.cos(rad), np.sin(rad)], axis=-1)  # (m, 2)
    phase = np.exp(-1j * k * (obs @ points.T))  # (m, n)
    w = np.pi / grid.n
    if sol.formulation == "TE_S":
        density = sol.density * tau
        values = w * (phase @ density)
    else:
        psi = memo_s(sol).dense() @ sol.density * tau * np.sin(grid.nodes) ** 2
        values = w * ((-1j * k) * (obs @ normals.T) * phase) @ psi
    return angles, values


def band_limit_samples(arc, k, grid):
    """M = 2L + 2 of the far-field rule: L = ceil(kR + 12 (kR)^(1/3) + 12)
    with R the radius of the nodes about their bounding-box centre."""
    points = eval_arc(arc, np.cos(grid.nodes))[0]
    center = 0.5 * (points.min(axis=0) + points.max(axis=0))
    kr = k * np.max(np.hypot(*(points - center).T))
    return 2 * math.ceil(kr + 12.0 * np.cbrt(kr) + 12.0) + 2


@pytest.mark.parametrize("formulation", ["TE_S", "TM_NS"])
def test_far_field_matches_direct_quadrature(formulation):
    # M runs from 32 to 470 here: m = 7 is always summed directly, m = 90
    # is resampled up to L/lambda = 1 and direct above, and 720 and the
    # odd 721 are always resampled.
    g = theta_grid(400)
    paths = set()
    for kind in ("strip", "spiral", "parabola", "halfcircle"):
        arc = make_arc(kind)
        for ratio in (0.01, 1.0, 20.0, 50.0):
            k = wavenumber_for_ratio(arc, ratio)
            sol = solve(formulation, arc, Incidence(90.0, k), g, tol=1e-10)
            samples = band_limit_samples(arc, k, g)
            for m in (7, 90, 720, 721):
                ff = far_field(sol, m)
                angles, ref = direct_far_field_values(sol, m)
                assert np.array_equal(ff.angles_deg, angles)
                assert np.max(np.abs(ff.values - ref)) <= 1e-12 * np.max(np.abs(ref)), \
                    (kind, ratio, m)
                paths.add((samples < m, m % 2))
    assert paths == {(False, 0), (False, 1), (True, 0), (True, 1)}


@pytest.mark.parametrize("formulation,kind,ratio", [("TE_S", "strip", 20.0),
                                                    ("TM_N", "spiral", 0.01)])
def test_far_field_evaluates_exponentials_for_half_its_samples(formulation, kind, ratio,
                                                               monkeypatch):
    # Rows of exp(-i k d . r): M/2 when the m directions are resampled from
    # M = 2L + 2, m/2 for an even m summed directly and m for an odd one.
    arc = make_arc(kind)
    k = wavenumber_for_ratio(arc, ratio)
    g = theta_grid(256)
    sol = make_solution(formulation, g, np.cos(g.nodes) + 0.5j, arc=arc, k=k)
    samples = band_limit_samples(arc, k, g)
    rows = []
    real_exp = np.exp

    def exp(x, *args, **kwargs):
        if np.ndim(x) == 2 and np.shape(x)[1] == g.n:
            rows.append(np.shape(x)[0])
        return real_exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", exp)
    for m in (samples - 1, samples, samples + 1, 720, 721):
        rows.clear()
        far_field(sol, m)
        if m > samples:
            assert sum(rows) == samples // 2
        else:
            assert sum(rows) == (m // 2 if m % 2 == 0 else m)


# ---------------------------------------------------------------------------
# near field
# ---------------------------------------------------------------------------
def test_near_field_zero_density():
    g = theta_grid(32)
    sol = make_solution("TE_S", g, np.zeros(32, dtype=complex), k=3.0)
    pts = np.array([[0.5, 1.0], [-2.0, 0.3]])
    u = near_field(sol, pts)
    assert np.max(np.abs(u)) == 0.0


def test_near_field_accepts_list_and_tuple_points():
    g = theta_grid(32)
    sol = make_solution("TE_S", g, np.ones(32, dtype=complex), k=3.0)
    from_list = near_field(sol, [[0, 1], [0, 2]])
    assert from_list.shape == (2,)
    assert np.array_equal(from_list, near_field(sol, np.array([[0.0, 1.0], [0.0, 2.0]])))
    from_tuple = near_field(sol, (0.0, 1.0))
    assert np.ndim(from_tuple) == 0
    assert from_tuple == near_field(sol, np.array([0.0, 1.0]))


def strip_map_solution(formulation):
    arc = make_arc("strip")
    k = wavenumber_for_ratio(arc, 20.0)
    return solve(formulation, arc, Incidence(60.0, k), theta_grid(512))


def map_points(count, seed=0):
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.uniform(-2.0, 2.0, count), rng.uniform(-1.5, 1.5, count)])


def test_near_field_memory_is_bounded_by_its_chunks():
    # one 4096-point chunk at N = 512 takes about 134 MB of temporaries,
    # chunks of NEAR_CHUNK_ENTRIES kernel entries about 5 MB
    sol = strip_map_solution("TE_S")
    pts = map_points(4096)
    tracemalloc.start()
    try:
        near_field(sol, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@pytest.mark.parametrize("formulation", ["TE_S", "TM_NS"])
def test_near_field_values_do_not_depend_on_chunking(formulation, monkeypatch):
    sol = strip_map_solution(formulation)
    pts = map_points(301)  # 3 chunks whole, 2 + 2 chunks as halves
    pts[7] = [0.0, 1e-6]  # masked
    whole = near_field(sol, pts)
    halves = np.concatenate([near_field(sol, pts[:150]), near_field(sol, pts[150:])])
    assert np.isnan(whole[7])
    assert np.array_equal(whole.view(float), halves.view(float), equal_nan=True)
    # the smallest chunks still hold two or three points each
    monkeypatch.setattr(scattering, "NEAR_CHUNK_ENTRIES", 1)
    smallest = near_field(sol, pts)
    assert np.array_equal(whole.view(float), smallest.view(float), equal_nan=True)


@pytest.mark.parametrize("formulation", ["TE_S", "TM_NS"])
def test_near_field_of_a_lone_point_matches_it_in_a_batch(formulation):
    sol = strip_map_solution(formulation)
    pts = map_points(24, seed=3)
    batch = near_field(sol, pts)
    for i, (p, q) in enumerate(zip(pts, pts[::-1])):
        lone = near_field(sol, p)
        assert np.array_equal(lone, near_field(sol, [p, q])[0], equal_nan=True)
        assert np.array_equal(lone, batch[i], equal_nan=True)
        assert np.array_equal(near_field(sol, p[None]), [lone], equal_nan=True)


@pytest.mark.parametrize("points", [np.zeros((3, 3)), np.zeros(3), np.zeros((2, 2, 2)),
                                    np.zeros((2, 1)), np.zeros(()), np.zeros((0, 3))],
                         ids=["three-columns", "three-vector", "3d", "one-column", "scalar",
                              "empty-three-columns"])
def test_near_field_rejects_points_of_the_wrong_shape(points):
    sol = make_solution("TE_S", theta_grid(32), np.ones(32, dtype=complex), k=3.0)
    with pytest.raises(ValueError, match="shape"):
        near_field(sol, points)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_near_field_rejects_non_finite_points(bad):
    sol = make_solution("TE_S", theta_grid(32), np.ones(32, dtype=complex), k=3.0)
    with pytest.raises(ValueError, match="finite"):
        near_field(sol, [[0.0, 1.0], [bad, 2.0]])
    with pytest.raises(ValueError, match="finite"):
        near_field(sol, (0.0, bad))


@pytest.mark.parametrize("mask_distance", [np.nan, np.inf, -1e-3])
def test_near_field_rejects_a_bad_mask_distance(mask_distance):
    sol = make_solution("TE_S", theta_grid(32), np.ones(32, dtype=complex), k=3.0)
    with pytest.raises(ValueError, match="mask_distance"):
        near_field(sol, [[0.0, 1e-9]], mask_distance=mask_distance)


def test_near_field_of_no_points_is_empty():
    sol = make_solution("TE_S", theta_grid(32), np.ones(32, dtype=complex), k=3.0)
    u = near_field(sol, np.zeros((0, 2)))
    assert u.shape == (0,) and u.dtype == complex


def n_node_rule(sol, pts):
    """The near field on all N nodes for every point, as near_field
    computed it before it chose a node count per point."""
    frame = sol.frame
    nodes_xy, normals = frame.points, frame.normals
    grid, k = sol.grid, sol.k
    mask_distance = 2.0 * scattering._max_spacing(nodes_xy)
    w = np.pi / grid.n
    if sol.formulation in scattering.TE_FORMULATIONS:
        density = scattering.te_layer_density(sol) * frame.tau
        tm = False
    else:
        density = scattering.tm_layer_density(sol) * frame.tau * np.sin(grid.nodes) ** 2
        tm = True

    chunks = max(1, min(len(pts) // 2, -(-len(pts) * grid.n // scattering.NEAR_CHUNK_ENTRIES)))
    out = np.empty(len(pts), dtype=complex)
    for c in range(chunks):
        rows = slice(len(pts) * c // chunks, len(pts) * (c + 1) // chunks)
        block = pts[rows]
        dx = block[:, 0][:, None] - nodes_xy[:, 0][None, :]
        dy = block[:, 1][:, None] - nodes_xy[:, 1][None, :]
        dist = np.hypot(dx, dy)
        near = dist.min(axis=1) < mask_distance
        dist[dist == 0.0] = 1.0  # masked anyway
        if tm:
            # grad_y G . n_y with G = (i/4) H_0^1(k |x - y|)
            kernel = (0.25j * k) * specfun.hankel1_1(k * dist) * \
                (dx * normals[None, :, 0] + dy * normals[None, :, 1]) / dist
        else:
            kernel = 0.25j * specfun.hankel1_0(k * dist)
        vals = w * (kernel @ density)
        vals[near] = np.nan + 1j * np.nan
        out[rows] = vals
    return out


def resolved_size(arc, k, factor):
    """The admissible N nearest factor * max(64, 2.2 k max tau sin theta)."""
    theta = theta_grid(1024).nodes
    rho = np.max(eval_arc(arc, np.cos(theta))[3] * np.sin(theta))
    return nearest_admissible(round(factor * max(64.0, 2.2 * k * rho)))


def near_field_probes(arc, seed=0):
    """A 24 x 12 map over the arc's box widened by 30 % of its size on
    each side, and 200 points at distances from 3e-4 to 2 box sizes off
    the arc along its normals."""
    rng = np.random.default_rng(seed)
    on_arc = eval_arc(arc, np.linspace(-1.0, 1.0, 400))[0]
    lo, hi = on_arc.min(axis=0), on_arc.max(axis=0)
    size = float(np.max(hi - lo))
    lo, hi = lo - 0.3 * size, hi + 0.3 * size
    gx, gy = np.meshgrid(np.linspace(lo[0], hi[0], 24), np.linspace(lo[1], hi[1], 12))
    foot, _, normals, _ = eval_arc(arc, rng.uniform(-1.0, 1.0, 200))
    offsets = size * 10.0 ** rng.uniform(-3.5, 0.3, 200) * rng.choice([-1.0, 1.0], 200)
    return np.vstack([np.column_stack([gx.ravel(), gy.ravel()]),
                      foot + offsets[:, None] * normals])


@pytest.mark.parametrize("kind", ["strip", "spiral", "parabola", "halfcircle"])
def test_near_field_on_fewer_nodes_matches_the_n_node_rule(kind, monkeypatch):
    # Each point's rule on M <= N nodes agrees with the N-node rule to
    # 1e-12 of max |u|, and a point evaluated on N nodes equals it bitwise.
    counts = []
    real = scattering._layer_sums

    def spy(pts, nodes_xy, *args):
        counts.append((pts.copy(), len(nodes_xy)))
        return real(pts, nodes_xy, *args)

    monkeypatch.setattr(scattering, "_layer_sums", spy)
    arc = make_arc(kind)
    pts = near_field_probes(arc)
    reduced = 0
    for ratio in (1.0, 10.0, 20.0, 50.0):
        k = wavenumber_for_ratio(arc, ratio)
        for factor in (1, 2, 4):
            grid = theta_grid(resolved_size(arc, k, factor))
            for formulation in ("TE_S", "TM_NS"):
                sol = solve(formulation, arc, Incidence(60.0, k), grid)
                counts.clear()
                u = near_field(sol, pts)
                ref = n_node_rule(sol, pts)
                kept = np.isfinite(ref)
                assert np.array_equal(np.isfinite(u), kept)
                err = np.max(np.abs(u[kept] - ref[kept])) / np.max(np.abs(ref[kept]))
                assert err <= 1e-12, (ratio, grid.n, formulation, err)
                on_n = np.vstack([p for p, m in counts if m == grid.n] or [np.zeros((0, 2))])
                rows = (pts[:, None, :] == on_n[None, :, :]).all(axis=2).any(axis=1)
                assert np.all(rows[~kept])  # masked points take the N-node rule
                assert np.array_equal(u[rows].view(float), ref[rows].view(float), equal_nan=True)
                reduced += sum(len(p) for p, m in counts if m < grid.n)
    assert reduced > 0


def test_near_field_map_evaluates_a_third_of_the_kernel_entries(monkeypatch):
    # The 48 x 24 map of the benchmark on the strip at L/lambda = 20 and
    # N = 512: the N-node rule evaluates P N Hankel entries.
    entries = []
    real = scattering.hankel1_0
    monkeypatch.setattr(scattering, "hankel1_0", lambda x: entries.append(np.size(x)) or real(x))
    sol = strip_map_solution("TE_S")
    gx, gy = np.meshgrid(np.linspace(-2.0, 2.0, 48), np.linspace(1.5, -1.5, 24))
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    u = near_field(sol, pts)
    assert sum(entries) <= len(pts) * 512 / 3
    ref = n_node_rule(sol, pts)
    kept = np.isfinite(ref)
    assert np.array_equal(np.isfinite(u), kept)
    assert np.max(np.abs(u[kept] - ref[kept])) <= 1e-12 * np.max(np.abs(ref[kept]))


def test_near_field_masks_points_on_arc():
    arc = make_arc("strip")
    k = wavenumber_for_ratio(arc, 10.0)
    sol = solve("TE_S", arc, Incidence(90.0, k), theta_grid(128), tol=1e-8)
    u = near_field(sol, np.array([[0.0, 1e-6], [0.0, 1.5]]))
    assert np.isnan(u[0].real)
    assert np.isfinite(u[1].real)


def test_near_field_matches_far_field_asymptotics():
    arc = make_arc("strip")
    k = wavenumber_for_ratio(arc, 10.0)
    sol = solve("TE_S", arc, Incidence(90.0, k), theta_grid(128), tol=1e-12)
    radius = 1e4 * (2 * np.pi / k)
    angles = np.deg2rad([10.0, 80.0, 200.0, 275.0])
    pts = radius * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    u = near_field(sol, pts)
    scale = 0.25j * math.sqrt(2.0 / (np.pi * k)) * np.exp(-0.25j * np.pi)
    matched = u * math.sqrt(radius) * np.exp(-1j * k * radius) / scale
    ff = far_field(sol, 720)
    idx = [int(round(np.degrees(t) / 0.5)) for t in angles]
    assert np.max(np.abs(matched - ff.values[idx]) / np.abs(ff.values[idx])) < 0.01


def test_near_field_tm_asymptotics():
    arc = make_arc("halfcircle")
    k = wavenumber_for_ratio(arc, 10.0)
    sol = solve("TM_N", arc, Incidence(90.0, k), theta_grid(128), tol=1e-12)
    radius = 1e4 * (2 * np.pi / k)
    angles = np.deg2rad([25.0, 130.0, 310.0])
    pts = radius * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    v = near_field(sol, pts)
    scale = 0.25j * math.sqrt(2.0 / (np.pi * k)) * np.exp(-0.25j * np.pi)
    matched = v * math.sqrt(radius) * np.exp(-1j * k * radius) / scale
    ff = far_field(sol, 720)
    idx = [int(round(np.degrees(t) / 0.5)) for t in angles]
    assert np.max(np.abs(matched - ff.values[idx]) / np.abs(ff.values[idx])) < 0.01


def test_total_field_vanishes_toward_dirichlet_boundary():
    # |u_total| ~ d |du/dn| with |du/dn| <= O(k): verify the linear decay
    # toward the arc and the physical magnitude bound
    arc = make_arc("strip")
    k = wavenumber_for_ratio(arc, 10.0)
    inc = Incidence(0.0, k)
    sol = solve("TE_S", arc, inc, theta_grid(2048), tol=1e-12)
    t = np.linspace(-0.9, 0.9, 25)

    def probe(d):
        pts = np.vstack([np.column_stack([t, np.full_like(t, d)]),
                         np.column_stack([t, np.full_like(t, -d)])])
        u = near_field(sol, pts, mask_distance=5e-4) + incident_field(inc, pts)
        return np.max(np.abs(u))

    d1, d2 = 2e-3, 1e-3
    m1, m2 = probe(d1), probe(d2)
    assert m1 < 4.0 * k * d1
    assert m2 < 4.0 * k * d2
    assert m2 < 0.75 * m1  # decays toward the boundary


def test_node_spacing_positive():
    arc = make_arc("spiral")
    assert scattering._max_spacing(n_frame(arc, 1.0, theta_grid(64)).points) > 0.0


def test_incident_field_values():
    inc = Incidence(0.0, 2.0)
    pts = np.array([[1.0, 0.0], [0.0, 3.0]])
    u = incident_field(inc, pts)
    assert abs(u[0] - np.exp(2j)) < 1e-15
    assert abs(u[1] - 1.0) < 1e-15


def test_solves_and_fields_on_one_discretization_share_its_frame(monkeypatch):
    # The right-hand sides, far fields and near fields read the node frame
    # of the solve's discretization; the arc is evaluated at the nodes when
    # the discretization is built, and never again.
    frames = []
    real = operators.eval_arc
    monkeypatch.setattr(operators, "eval_arc", lambda *args: frames.append(args) or real(*args))
    arc = make_arc("spiral")
    k = wavenumber_for_ratio(arc, 5.0)
    g = theta_grid(64)
    pts = np.array([[0.0, 3.0], [2.5, -1.0], [-3.0, 0.5]])
    sols, built = [], None
    for form, angle in [(f, 60.0) for f in FORMULATIONS] + [("TE_S", 120.0)]:
        sol = solve(form, arc, Incidence(angle, k), g)
        built = len(frames) if built is None else built
        sols.append((sol, far_field(sol, 720), near_field(sol, pts), near_field(sol, pts[0])))
    assert len(frames) == built
    assert all(sol.frame is sols[0][0].frame for sol, *_ in sols)
    # the frame a solve carries equals a fresh evaluation bitwise, and so
    # do the fields on either
    fresh = n_frame(arc, k, g)
    for name in (f.name for f in dataclasses.fields(NFrame)):
        assert same_bits(getattr(sols[0][0].frame, name), getattr(fresh, name))
    for sol, ff, nf, lone in sols:
        on_fresh = dataclasses.replace(sol, frame=fresh)
        assert same_bits(far_field(on_fresh, 720).values, ff.values)
        assert same_bits(near_field(on_fresh, pts), nf)
        assert same_bits([near_field(on_fresh, pts[0])], [lone])


def test_atkinson_on_a_reused_discretization_evaluates_no_arc_speed(monkeypatch):
    # TE_ATKINSON divides by tau in every GMRES iteration and in its density
    # recovery; it reads tau from the frame, which holds the same bits as
    # the arc speed at the nodes.
    arc = make_arc("spiral")
    k = wavenumber_for_ratio(arc, 5.0)
    g = theta_grid(64)
    inc = Incidence(60.0, k)
    solve("TE_S", arc, inc, g)
    calls = []
    real_speed, real_eval_arc = arcscat.geometry.speed, arcscat.geometry.eval_arc
    for module in (arcscat.geometry, arcscat.grids, operators, scattering, specfun):
        if hasattr(module, "speed"):
            monkeypatch.setattr(module, "speed", lambda *a: calls.append(a) or real_speed(*a))
        if hasattr(module, "eval_arc"):
            monkeypatch.setattr(module, "eval_arc",
                                lambda *a: calls.append(a) or real_eval_arc(*a))
    sol = solve("TE_ATKINSON", arc, inc, g)
    ff = far_field(sol, 720)
    phi = te_layer_density(sol)
    assert sol.mat_seconds == 0.0 and calls == []
    # the same solve with tau evaluated as the arc speed
    tau = real_speed(arc, np.cos(g.nodes))
    apply_s = operator_action("S", sol.frame, memo_s(sol))
    x, report = gmres(lambda u: apply_s(s0_solve_values(u) / tau),
                      te_data(sol.frame.points, inc), tol=1e-8, maxit=2000)
    assert report.iterations == sol.report.iterations
    assert same_bits(sol.density, x)
    assert same_bits(phi, s0_solve_values(x) / tau)
    as_te_s = dataclasses.replace(sol, formulation="TE_S", density=s0_solve_values(x) / tau,
                                  layer_density=s0_solve_values(x) / tau)
    assert same_bits(ff.values, far_field(as_te_s, 720).values)


# ---------------------------------------------------------------------------
# thread discipline of a solve
# ---------------------------------------------------------------------------
TRACED_OPERATOR_ATTRIBUTES = ("_a1a2_offdiag", "_a2_diagonal", "eval_arc", "build_log_quad",
                              "t0_values", "d0_values")


def test_traced_operator_attributes_run_on_the_main_thread(monkeypatch):
    # The benchmark's tracer wraps these module attributes with spans on
    # one shared stack, so they may only be called from the thread that
    # runs the solve, never from a pool worker of the S assembly.  Two
    # cores and small J0/Y0 tasks make the N = 400 assembly use the pool.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(specfun, "A1A2_CHUNK", 1 << 12)
    calls = {}
    for name in TRACED_OPERATOR_ATTRIBUTES:
        def guard(*args, _orig=getattr(operators, name), _name=name, **kwargs):
            assert threading.current_thread() is threading.main_thread(), \
                f"{_name} called off the main thread"
            calls[_name] = calls.get(_name, 0) + 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(operators, name, guard)
    arc = make_arc("spiral")
    k = wavenumber_for_ratio(arc, 50.0)
    for formulation in ("TE_S", "TM_NS"):
        assert solve(formulation, arc, Incidence(90.0, k), theta_grid(400)).report.converged
    assert set(calls) == set(TRACED_OPERATOR_ATTRIBUTES)


# ---------------------------------------------------------------------------
# reuse of S across solves on one discretization
# ---------------------------------------------------------------------------
@pytest.fixture
def builds(monkeypatch):
    """Grid sizes of the S assemblies solves make from here on."""
    sizes = []
    real = scattering.build_S_matrix

    def counting(arc, k, grid):
        sizes.append(grid.n)
        return real(arc, k, grid)

    monkeypatch.setattr(scattering, "build_S_matrix", counting)
    return sizes


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(float), np.asarray(b).view(float))


def test_second_solve_reuses_s(builds):
    arc = make_arc("spiral")
    k = wavenumber_for_ratio(arc, 5.0)
    g = theta_grid(64)
    first = solve("TM_NS", arc, Incidence(60.0, k), g)
    s = weakref.ref(memo_s(first))
    second = solve("TM_NS", arc, Incidence(60.0, k), g)
    assert builds == [64]
    assert memo_s(second) is s()
    assert first.mat_seconds > 0.0 and second.mat_seconds == 0.0
    assert same_bits(second.density, first.density)
    assert same_bits(far_field(second, 90).values, far_field(first, 90).values)


@pytest.mark.parametrize("change,rebuilds", [
    ("k", True),
    ("arc object", True),
    ("n", True),
    ("builder", True),
    ("fresh grid", False),
    ("incidence and formulation", False),
])
def test_which_changes_rebuild_s(builds, monkeypatch, change, rebuilds):
    arc, k, n = make_arc("strip"), 3.0, 32
    solve("TE_S", arc, Incidence(60.0, k), theta_grid(n))
    form, angle = "TE_S", 60.0
    if change == "k":
        k = 4.0
    elif change == "arc object":
        arc = make_arc("strip")
    elif change == "n":
        n = 48
    elif change == "builder":
        real = scattering.build_S_matrix
        monkeypatch.setattr(scattering, "build_S_matrix", lambda *a: real(*a))
    elif change == "incidence and formulation":
        form, angle = "TM_N", 30.0
    sol = solve(form, arc, Incidence(angle, k), theta_grid(n))
    assert len(builds) == (2 if rebuilds else 1)
    assert (sol.mat_seconds == 0.0) is not rebuilds


def test_dense_s_is_the_solves_s(builds):
    arc, g = make_arc("spiral"), theta_grid(64)
    sol = solve("TE_S", arc, Incidence(60.0, 3.0), g)
    s = memo_s(sol)
    dense = dense_operator("S", arc, 3.0, g)
    assert memo_s(sol) is s and same_bits(dense, s.dense())
    assert builds == [64]
    assert same_bits(dense, build_S_matrix(arc, 3.0, g).dense())


def test_solve_after_dense_operator_reuses_s(builds):
    arc, g = make_arc("spiral"), theta_grid(64)
    dense_operator("NS", arc, 3.0, g)
    sol = solve("TM_NS", arc, Incidence(60.0, 3.0), g)
    assert sol.mat_seconds == 0.0
    assert builds == [64]


def test_reused_s_is_read_only():
    sol = solve("TE_S", make_arc("strip"), Incidence(60.0, 3.0), theta_grid(32))
    with pytest.raises(ValueError, match="read-only"):
        memo_s(sol).entries[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        memo_s(sol).weight[0] = 0.0


def test_shared_frame_is_read_only():
    sol = solve("TE_S", make_arc("strip"), Incidence(60.0, 3.0), theta_grid(32))
    for name in (f.name for f in dataclasses.fields(NFrame)):
        with pytest.raises(ValueError, match="read-only"):
            getattr(sol.frame, name)[0] += 0.5


@pytest.mark.parametrize("formulation", FORMULATIONS)
def test_solution_outlives_its_s(formulation):
    # A Solution holds its layer density, not S: once the memo lets S go,
    # the fields and densities are still those of the solve, bitwise.
    arc = make_arc("spiral")
    sol = solve(formulation, arc, Incidence(60.0, wavenumber_for_ratio(arc, 5.0)),
                theta_grid(64))
    pts = np.array([[0.0, 3.0], [2.5, -1.0], [-3.0, 0.5]])
    te = formulation in scattering.TE_FORMULATIONS
    layer, recover = ((scattering.te_layer_density, recover_mu) if te
                      else (scattering.tm_layer_density, recover_nu))

    def evaluations():
        return [far_field(sol, 720).values, near_field(sol, pts), layer(sol), recover(sol)]

    before = evaluations()
    s = weakref.ref(memo_s(sol))
    scattering._last = None  # not monkeypatch, which would keep the old slot
    gc.collect()
    assert s() is None
    for a, b in zip(evaluations(), before):
        assert same_bits(a, b)


def test_miss_frees_the_old_s_before_building(monkeypatch):
    real = scattering.build_S_matrix
    watched, alive_at_build = [], []

    def build(arc, k, grid):
        alive_at_build.append([ref() is not None for ref in watched])
        return real(arc, k, grid)

    monkeypatch.setattr(scattering, "build_S_matrix", build)
    arc = make_arc("strip")
    sol = solve("TE_S", arc, Incidence(60.0, 3.0), theta_grid(32))
    watched.append(weakref.ref(memo_s(sol)))
    # the Solution stays alive: it holds no S
    solve("TE_S", arc, Incidence(60.0, 4.0), theta_grid(32))
    assert alive_at_build == [[], [False]]
    assert sol.report.converged


def test_failed_build_leaves_the_memo_empty(builds, monkeypatch):
    arc = make_arc("strip")
    solve("TE_S", arc, Incidence(60.0, 3.0), theta_grid(32))

    def failing(arc, k, grid):
        raise RuntimeError("assembly failed")

    monkeypatch.setattr(scattering, "build_S_matrix", failing)
    with pytest.raises(RuntimeError, match="assembly failed"):
        solve("TE_S", arc, Incidence(60.0, 4.0), theta_grid(32))
    assert scattering._last is None


def test_solves_racing_on_the_memo_stay_correct():
    # More threads than cores and fast switching, alternating between two
    # discretizations: every density must equal the serial one bitwise.
    arc = make_arc("strip")
    inc = Incidence(60.0, 3.0)
    grids = [theta_grid(32), theta_grid(48)]
    expect = {g.n: solve("TM_NS", arc, inc, g).density for g in grids}
    results, errors = [], []

    def worker(i):
        try:
            for j in range(6):
                g = grids[(i + j) % 2]
                results.append((g.n, solve("TM_NS", arc, inc, g).density))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    count = len(os.sched_getaffinity(0)) + 2
    threads = [threading.Thread(target=worker, args=(i,)) for i in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(results) == 6 * len(threads)
    assert all(same_bits(values, expect[n]) for n, values in results)
