"""Cosine-node grid, fast expansions and the spectral first-order
operators."""

import numpy as np
import pytest

from arcscat.geometry import make_arc, speed
from arcscat.grids import (
    ThetaGrid,
    chebyshev_derivative_coeffs,
    coeffs_from_values,
    d0_values,
    is_admissible,
    nearest_admissible,
    t0_values,
    theta_grid,
    values_from_coeffs,
)
from arcscat.operators import n_frame


def dv(values):
    return np.asarray(values, dtype=complex)


def t0_tau_values(arc, grid, values):
    """T0 v / tau with tau from the node frame, as the N pipeline applies it."""
    return t0_values(values) / n_frame(arc, 1.0, grid).tau


def test_admissible_sizes():
    for n in (4, 6, 8, 10, 12, 16, 200, 400, 1600, 3000, 3200):
        assert is_admissible(n)
    for n in (1, 2, 3, 7, 14, 22, 3100, 3350):
        assert not is_admissible(n)


def test_grids_of_one_size_are_equal():
    assert theta_grid(8) == theta_grid(8)
    assert hash(theta_grid(8)) == hash(theta_grid(8))
    assert theta_grid(8) != theta_grid(16)
    with pytest.raises(TypeError):
        ThetaGrid(8, nodes=np.zeros(8))


@pytest.mark.parametrize("n", [4, 400, 6400])
def test_grid_nodes_are_the_cosine_nodes_bitwise(n):
    j = np.arange(n)
    nodes = theta_grid(n).nodes
    assert nodes.tobytes() == (np.pi * (2.0 * j + 1.0) / (2.0 * n)).tobytes()
    assert not nodes.flags.writeable


def test_nearest_admissible():
    assert nearest_admissible(400) == 400
    assert nearest_admissible(3100) in (3072, 3125)
    assert nearest_admissible(7) in (6, 8)


def scan_nearest_admissible(n):
    """The integer-by-integer scan nearest_admissible replaced: the
    closest admissible size, ties upward, and 4 below 4."""
    lo, hi = n, n
    while not is_admissible(hi):
        hi += 1
    while lo >= 4 and not is_admissible(lo):
        lo -= 1
    if lo < 4:
        return hi
    return lo if n - lo < hi - n else hi


def test_nearest_admissible_matches_the_scan():
    for n in range(-3, 30001):
        assert nearest_admissible(n) == scan_nearest_admissible(n), n


@pytest.mark.parametrize("n,nearest", [(10**12 + 1, 10**12), (10**18 + 1, 10**18),
                                       (np.int64(7), 8)])
def test_nearest_admissible_of_large_and_numpy_sizes(n, nearest):
    assert nearest_admissible(n) == nearest


def test_nearest_admissible_rejects_non_integer_size():
    with pytest.raises(TypeError):
        nearest_admissible(7.5)


def test_grid_rejects_inadmissible():
    with pytest.raises(ValueError):
        theta_grid(17)


@pytest.mark.parametrize("n", [8.0, 4.5, True])
def test_grid_rejects_non_integer_size(n):
    with pytest.raises(TypeError, match="integer|bool"):
        theta_grid(n)


def test_grid_nodes():
    g = theta_grid(8)
    assert np.allclose(g.nodes, np.pi * (2 * np.arange(8) + 1) / 16.0)
    assert np.all(np.diff(g.nodes) > 0)
    assert 0.0 < g.nodes[0] and g.nodes[-1] < np.pi


def test_cosine_coeffs_orthogonality():
    g = theta_grid(8)
    c = coeffs_from_values(dv(np.cos(3 * g.nodes)))
    assert abs(c[3] - 1.0) < 1e-14
    assert np.max(np.abs(np.delete(c, 3))) < 1e-14


def test_cosine_coeffs_constant():
    g = theta_grid(8)
    c = coeffs_from_values(dv(np.ones(8)))
    assert abs(c[0] - 1.0) < 1e-15
    assert np.max(np.abs(c[1:])) < 1e-15
    # the round trip is the normative convention
    back = values_from_coeffs(c)
    assert np.max(np.abs(back - 1.0)) < 1e-14


def test_cosine_roundtrip_random():
    g = theta_grid(48)
    rng = np.random.default_rng(0)
    v = dv(rng.standard_normal(48) + 1j * rng.standard_normal(48))
    back = values_from_coeffs(coeffs_from_values(v))
    assert np.max(np.abs(back - v)) < 1e-13 * np.max(np.abs(v))


def test_t0_constant():
    g = theta_grid(16)
    out = t0_values(dv(np.ones(16)))
    assert np.max(np.abs(out - np.cos(g.nodes))) < 1e-13


def test_t0_cosine():
    g = theta_grid(16)
    out = t0_values(dv(np.cos(g.nodes)))
    assert np.max(np.abs(out - np.cos(2 * g.nodes))) < 1e-13


@pytest.mark.parametrize("n", range(0, 16))
def test_t0_trig_identity(n):
    # d/dtheta (sin theta cos n theta)
    #   = ((n+1) cos (n+1) theta - (n-1) cos (n-1) theta) / 2
    g = theta_grid(16)
    th = g.nodes
    out = t0_values(dv(np.cos(n * th)))
    expect = 0.5 * ((n + 1) * np.cos((n + 1) * th) - (n - 1) * np.cos((n - 1) * th))
    assert np.max(np.abs(out - expect)) < 1e-12


def test_t0_tau_strip_matches_t0():
    g = theta_grid(16)
    arc = make_arc("strip")
    rng = np.random.default_rng(1)
    v = dv(rng.standard_normal(16))
    assert np.array_equal(t0_tau_values(arc, g, v), t0_values(v))


def test_t0_tau_spiral_constant():
    g = theta_grid(16)
    arc = make_arc("spiral")
    out = t0_tau_values(arc, g, dv(np.ones(16)))
    expect = np.cos(g.nodes) / speed(arc, np.cos(g.nodes))
    assert np.max(np.abs(out - expect)) < 1e-13


def test_t0_tau_matches_dense_matrix():
    g = theta_grid(16)
    arc = make_arc("spiral")
    cols = []
    for j in range(16):
        e = np.zeros(16)
        e[j] = 1.0
        cols.append(t0_tau_values(arc, g, dv(e)))
    mat = np.array(cols).T
    rng = np.random.default_rng(2)
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    assert np.max(np.abs(mat @ v - t0_tau_values(arc, g, dv(v)))) < 1e-13


def test_d0_linear_mode():
    g = theta_grid(16)
    out = d0_values(dv(np.cos(g.nodes)))
    assert np.max(np.abs(out + 1.0)) < 1e-13


def test_d0_quadratic_mode():
    g = theta_grid(16)
    out = d0_values(dv(np.cos(2 * g.nodes)))
    assert np.max(np.abs(out + 4.0 * np.cos(g.nodes))) < 1e-13


@pytest.mark.parametrize("n", range(1, 16))
def test_d0_chebyshev_derivative(n):
    # D0 cos(n theta) = -n sin(n theta)/sin(theta)
    g = theta_grid(16)
    th = g.nodes
    out = d0_values(dv(np.cos(n * th)))
    assert np.max(np.abs(out + n * np.sin(n * th) / np.sin(th))) < 1e-11


def chebyshev_derivative_loop(coeffs):
    # reference: the backward recurrence c'_j = c'_{j+2} + 2 (j + 1) c_{j+1}
    m = coeffs.shape[-1] - 1
    out = np.zeros(coeffs.shape[:-1] + (max(m, 1),), dtype=coeffs.dtype)
    for j in range(m - 1, -1, -1):
        prev = out[..., j + 2] if j + 2 <= m - 1 else 0.0
        out[..., j] = prev + 2.0 * (j + 1) * coeffs[..., j + 1]
    out[..., 0] *= 0.5
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 16, 65])
def test_chebyshev_derivative_closed_form(n):
    # T_m' = 2m sum' T_k over k = m-1, m-3, ... >= 0, the T_0 term halved
    for m in range(n):
        e = np.zeros(n)
        e[m] = 1.0
        want = np.zeros(max(n - 1, 1))
        for k in range(m - 1, -1, -2):
            want[k] = m if k == 0 else 2.0 * m
        assert np.array_equal(chebyshev_derivative_coeffs(e), want)
    rng = np.random.default_rng(n)
    batch = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    rows = [chebyshev_derivative_coeffs(row) for row in batch]
    assert np.array_equal(chebyshev_derivative_coeffs(batch), np.array(rows))
    # same additions in the same order as the recurrence, so bitwise equal
    assert np.array_equal(chebyshev_derivative_coeffs(batch), chebyshev_derivative_loop(batch))


@pytest.mark.parametrize("op", [t0_values, d0_values])
def test_linearity(op):
    g = theta_grid(24)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    v = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    a, b = 1.3 - 0.2j, -0.7 + 2.1j
    lhs = op(dv(a * u + b * v))
    rhs = a * op(dv(u)) + b * op(dv(v))
    assert np.max(np.abs(lhs - rhs)) < 1e-13 * max(1.0, np.max(np.abs(rhs)))


def test_degree_bound_on_basis():
    # both operators keep the representable band {cos m theta : m < N}
    g = theta_grid(32)
    th = g.nodes
    for m in range(32):
        for op, reach in ((t0_values, m + 1), (d0_values, max(m - 1, 0))):
            c = coeffs_from_values(op(dv(np.cos(m * th))))
            beyond = c[min(reach, 31) + 1 :]
            if beyond.size:
                assert np.max(np.abs(beyond)) < 1e-12


def test_spectral_accuracy_differentiation():
    # error for v = exp(cos theta) falls faster than any power until the
    # rounding floor
    errs = []
    for n in (16, 32, 64):
        g = theta_grid(n)
        th = g.nodes
        out = d0_values(dv(np.exp(np.cos(th))))
        errs.append(np.max(np.abs(out + np.exp(np.cos(th)))))
    for e_coarse, e_fine in zip(errs, errs[1:]):
        assert e_fine < max(e_coarse / 1e3, 2e-12)  # 2e-12 is the rounding floor
