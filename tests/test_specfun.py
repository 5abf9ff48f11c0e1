"""Bessel/Hankel evaluation and the Helmholtz kernel split.

Reference values come from independent routes: mpmath (arbitrary
precision) for frozen point values and direct Green-function evaluation
for the kernel split.  The scipy.special sweeps check the Hankel
functions' real parts (J) and imaginary parts (Y) only, since specfun
evaluates the same scipy ufuncs.  The kernel split itself is the
reference ``oracles.kernel_split`` over specfun's A1/A2 evaluation.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.special as ss

from arcscat.geometry import eval_arc, make_arc
from arcscat.specfun import EULER_GAMMA, hankel1_0, hankel1_1
from oracles import kernel_split

# frozen with mpmath at 50 digits
J0_AT_1 = 0.7651976865579665514497175261026632209093
Y0_AT_1 = 0.0882569642156769579829267660235151628278
J0_FIRST_ZERO = 2.404825557695772768621631879326454643124


def test_j0_frozen_value():
    assert abs(hankel1_0(1.0).real - J0_AT_1) < 1e-15


def test_j0_first_zero():
    assert abs(hankel1_0(J0_FIRST_ZERO).real) < 1e-12


def test_y0_frozen_value():
    assert abs(hankel1_0(1.0).imag - Y0_AT_1) < 1e-15


def test_hankel_frozen_value():
    h = hankel1_0(1.0)
    assert abs(h - (J0_AT_1 + 1j * Y0_AT_1)) < 1e-15


def test_hankel_small_argument_log_divergence():
    # Im H_0^1(x) = Y_0(x) -> (2/pi)(ln(x/2) + gamma) -> -inf
    for x in (1e-3, 1e-6, 1e-9):
        h = hankel1_0(x)
        assert h.imag < 0.0
        asym = (2.0 / math.pi) * (math.log(x / 2.0) + EULER_GAMMA)
        assert abs(h.imag / asym - 1.0) < 1e-4


def test_hankel_large_argument_modulus():
    assert abs(abs(hankel1_0(10.0)) / math.sqrt(2.0 / (math.pi * 10.0)) - 1.0) < 0.02


def test_j0_against_scipy_sweep():
    x = np.concatenate([np.linspace(0.0, 5.0, 2001)[1:], np.geomspace(5.0, 1e4, 2001)])
    assert np.max(np.abs(hankel1_0(x).real - ss.j0(x))) < 1e-13


def test_y0_against_scipy_sweep():
    x = np.concatenate([np.geomspace(1e-8, 5.0, 2001), np.geomspace(5.0, 1e4, 2001)])
    assert np.max(np.abs((hankel1_0(x).imag - ss.y0(x)) / np.maximum(np.abs(ss.y0(x)), 1.0))) < 1e-13


def test_hankel_relative_error_sweep():
    x = np.geomspace(1e-6, 1e4, 4001)
    h = hankel1_0(x)
    ref = ss.hankel1(0, x)
    assert np.max(np.abs(h - ref) / np.abs(ref)) < 1e-12


@pytest.mark.parametrize("hankel,j,y", [(hankel1_0, ss.j0, ss.y0), (hankel1_1, ss.j1, ss.y1)],
                         ids=["order-0", "order-1"])
def test_hankel_is_j_plus_i_y_bitwise(hankel, j, y):
    x = np.geomspace(1e-8, 1e4, 4002).reshape(3, -1)[:, ::3]  # strided 2-D input too
    h = hankel(x)
    assert h.shape == x.shape
    assert np.array_equal(h.view(float), (j(x) + 1j * y(x)).view(float))


def test_order_one_against_scipy():
    x = np.concatenate([np.geomspace(1e-6, 12.0, 1501), np.geomspace(12.0, 1e4, 1501)])
    assert np.max(np.abs(hankel1_1(x).real - ss.j1(x))) < 5e-11
    y1_err = np.abs(hankel1_1(x).imag - ss.y1(x)) / (1.0 + np.abs(ss.y1(x)))
    assert np.max(y1_err) < 5e-11
    h1_err = np.abs(hankel1_1(x) - ss.hankel1(1, x)) / (1.0 + np.abs(ss.hankel1(1, x)))
    assert np.max(h1_err) < 1e-10


def test_mpmath_spot_values():
    mpmath.mp.dps = 30
    for x in (0.37, 2.0, 7.7, 12.0, 15.5, 123.25, 1e3, 1e4):
        h0, h1 = hankel1_0(x), hankel1_1(x)
        assert abs(h0.real - float(mpmath.besselj(0, x))) < 2e-14
        assert abs(h0.imag - float(mpmath.bessely(0, x))) < 2e-14
        assert abs(h1.real - float(mpmath.besselj(1, x))) < 2e-14
        assert abs(h1.imag - float(mpmath.bessely(1, x))) < 2e-14


def test_wronskian():
    # J0 Y0' - J0' Y0 = J1 Y0 - J0 Y1 = 2 / (pi x)
    x = np.geomspace(0.2, 500.0, 100)
    h0, h1 = hankel1_0(x), hankel1_1(x)
    w = h1.real * h0.imag - h0.real * h1.imag
    assert np.max(np.abs(w - 2.0 / (np.pi * x))) < 1e-10


def test_input_validation():
    with pytest.raises(ValueError):
        hankel1_0(np.inf)
    with pytest.raises(ValueError):
        hankel1_0(0.0)
    with pytest.raises(ValueError):
        hankel1_0(-2.0)


# ---------------------------------------------------------------------------
# kernel split
# ---------------------------------------------------------------------------
def test_kernel_split_diagonal_values():
    arc = make_arc("strip")
    a1, a2 = kernel_split(2.0, arc, 0.7, 0.7)
    assert abs(a1 + 1.0 / (2.0 * np.pi)) < 1e-16
    expected = 0.25j - (EULER_GAMMA + math.log(0.5 * 2.0 * 1.0)) / (2.0 * np.pi)
    assert abs(a2 - expected) < 1e-15


def test_kernel_split_strip_reconstruction_example():
    # theta, theta' = pi/3, 2pi/3 on the strip: R = |cos - cos'| = 1
    arc = make_arc("strip")
    k = np.pi
    a1, a2 = kernel_split(k, arc, np.pi / 3.0, 2.0 * np.pi / 3.0)
    rebuilt = a1 * math.log(abs(math.cos(np.pi / 3) - math.cos(2 * np.pi / 3))) + a2
    assert abs(rebuilt - 0.25j * hankel1_0(k)) < 1e-13


@pytest.mark.parametrize("kind,k", [("strip", np.pi), ("spiral", 2.0)])
def test_kernel_split_reconstruction_sweep(kind, k):
    arc = make_arc(kind)
    rng = np.random.default_rng(7)
    theta = rng.uniform(0.0, np.pi, 100000)
    theta_p = rng.uniform(0.0, np.pi, 100000)
    keep = np.abs(theta - theta_p) > 1e-3
    theta, theta_p = theta[keep], theta_p[keep]
    a1, a2 = kernel_split(k, arc, theta, theta_p)
    p = eval_arc(arc, np.cos(theta))[0]
    pp = eval_arc(arc, np.cos(theta_p))[0]
    dist = np.hypot(p[:, 0] - pp[:, 0], p[:, 1] - pp[:, 1])
    green = 0.25j * hankel1_0(k * dist)
    rebuilt = a1 * np.log(np.abs(np.cos(theta) - np.cos(theta_p))) + a2
    assert np.max(np.abs(rebuilt - green) / (1.0 + np.abs(green))) < 1e-12


def test_kernel_split_a1_essentially_real():
    arc = make_arc("spiral")
    rng = np.random.default_rng(11)
    theta = rng.uniform(0.0, np.pi, 1000)
    theta_p = rng.uniform(0.0, np.pi, 1000)
    a1, _ = kernel_split(3.0, arc, theta, theta_p)
    assert np.max(np.abs(np.imag(a1))) < 1e-14


def test_kernel_split_even_and_periodic():
    arc = make_arc("parabola")
    rng = np.random.default_rng(13)
    theta = rng.uniform(0.05, np.pi - 0.05, 200)
    theta_p = rng.uniform(0.05, np.pi - 0.05, 200)
    base_a1, base_a2 = kernel_split(1.5, arc, theta, theta_p)
    neg_a1, neg_a2 = kernel_split(1.5, arc, -theta, theta_p)
    assert np.array_equal(base_a1, neg_a1) and np.array_equal(base_a2, neg_a2)
    refl_a1, refl_a2 = kernel_split(1.5, arc, 2.0 * np.pi - theta, theta_p)
    assert np.max(np.abs(refl_a1 - base_a1)) < 1e-13
    assert np.max(np.abs(refl_a2 - base_a2)) < 1e-12


def test_kernel_split_diagonal_limit():
    # centered average kills the O(delta) term of the smooth kernel,
    # leaving O(delta^2) agreement with the analytic coincidence value
    arc = make_arc("spiral")
    k = 2.0
    theta = 1.1
    delta = 1e-5
    diag = kernel_split(k, arc, theta, theta)[1]
    lo = kernel_split(k, arc, theta, theta - delta)[1]
    hi = kernel_split(k, arc, theta, theta + delta)[1]
    assert abs(0.5 * (lo + hi) - diag) < 1e-8
    assert abs(hi - diag) < 1e-4  # one-sided limit converges too


def test_kernel_split_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        kernel_split(0.0, make_arc("strip"), 0.3, 0.4)


@pytest.mark.parametrize("k", [np.nan, np.inf])
def test_kernel_split_rejects_nonfinite_k(k):
    with pytest.raises(ValueError, match="finite"):
        kernel_split(k, make_arc("strip"), 0.3, 0.4)
