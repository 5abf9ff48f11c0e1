"""Arc parameterizations, frames, lengths and wavenumber scaling."""

import math
import pickle

import numpy as np
import pytest
from scipy.integrate import quad

from arcscat import geometry
from arcscat.geometry import Arc, eval_arc, make_arc, wavenumber_for_ratio
from oracles import speed

ALL_KINDS = [("strip", ()), ("spiral", ()), ("parabola", ()), ("halfcircle", ()),
             ("circlecavity", (1.0, 0.5))]


@pytest.mark.parametrize("kind,params", ALL_KINDS)
def test_unit_normals_orthogonal(kind, params):
    arc = make_arc(kind, params)
    t = np.random.default_rng(42).uniform(-1.0, 1.0, 1000)
    _, tangent, normal, tau = eval_arc(arc, t)
    assert np.max(np.abs(np.hypot(normal[:, 0], normal[:, 1]) - 1.0)) < 1e-14
    dots = np.abs(np.sum(normal * tangent, axis=1))
    assert np.all(dots < 1e-12 * tau)


def test_strip_length_exact():
    assert abs(make_arc("strip").length - 2.0) < 1e-12


def test_halfcircle_length_exact():
    assert abs(make_arc("halfcircle").length - math.pi) < 1e-12


def test_spiral_length_closed_form():
    # |r'(t)| = e^t sqrt(26), so the length is sqrt(26) (e - 1/e)
    arc = make_arc("spiral")
    exact = math.sqrt(26.0) * (math.e - 1.0 / math.e)
    assert abs(arc.length - exact) < 1e-12 * exact
    numeric = quad(lambda t: speed(arc, t), -1.0, 1.0, epsabs=1e-13, epsrel=1e-13)[0]
    assert abs(arc.length - numeric) < 1e-10


def test_circlecavity_length():
    radius, gap = 1.5, 0.7
    arc = make_arc("circlecavity", (radius, gap))
    assert abs(arc.length - (2.0 * math.pi * radius - gap)) < 1e-11


def test_length_quadrature_converged():
    for kind, params in ALL_KINDS:
        arc = make_arc(kind, params)
        fine = geometry._fejer_length(arc.kind, arc.params, 16384)
        coarse = geometry._fejer_length(arc.kind, arc.params, 8192)
        assert abs(fine - coarse) < 1e-12 * abs(fine)


def test_eval_strip_center():
    arc = make_arc("strip")
    point, _, normal, tau = eval_arc(arc, 0.0)
    assert np.allclose(point, [0.0, 0.0])
    assert np.allclose(normal, [0.0, -1.0])
    assert tau == 1.0


def test_eval_parabola_vertex():
    point, tangent, _, tau = eval_arc(make_arc("parabola"), 0.0)
    assert np.allclose(point, [1.0, 0.0])
    assert np.allclose(tangent, [0.0, 1.0])
    assert abs(tau - 1.0) < 1e-15


def test_eval_spiral_speed():
    _, _, _, tau = eval_arc(make_arc("spiral"), 0.0)
    assert abs(tau - math.sqrt(26.0)) < 1e-14


def test_halfcircle_normal_radial():
    arc = make_arc("halfcircle")
    t = np.linspace(-1.0, 1.0, 17)
    point, _, normal, _ = eval_arc(arc, t)
    assert np.max(np.abs(normal - point)) < 1e-14


def test_wavenumber_for_ratio():
    strip = make_arc("strip")
    assert abs(wavenumber_for_ratio(strip, 1.0) - math.pi) < 1e-14
    assert abs(wavenumber_for_ratio(strip, 50.0) - 50.0 * math.pi) < 1e-12
    spiral = make_arc("spiral")
    assert abs(wavenumber_for_ratio(spiral, 100.0) - 200.0 * math.pi / spiral.length) < 1e-12
    with pytest.raises(ValueError):
        wavenumber_for_ratio(strip, 0.0)


@pytest.mark.parametrize("ratio", [math.nan, math.inf])
def test_wavenumber_for_ratio_rejects_non_finite(ratio):
    with pytest.raises(ValueError, match="finite and positive"):
        wavenumber_for_ratio(make_arc("strip"), ratio)


@pytest.mark.parametrize("kind,params", ALL_KINDS)
def test_speed_smooth_on_cosine_grid(kind, params):
    # second differences of tau(cos theta) stay bounded under refinement
    arc = make_arc(kind, params)

    def fd2_max(n):
        theta = np.pi * (2.0 * np.arange(n) + 1.0) / (2.0 * n)
        tau = speed(arc, np.cos(theta))
        h = np.pi / n
        return np.max(np.abs(tau[2:] - 2.0 * tau[1:-1] + tau[:-2])) / h**2

    coarse, fine = fd2_max(128), fd2_max(512)
    assert fine < 1.2 * coarse + 1.0


def test_make_arc_errors():
    with pytest.raises(ValueError):
        make_arc("helix")
    with pytest.raises(ValueError):
        make_arc("circlecavity", (1.0,))
    with pytest.raises(ValueError):
        make_arc("circlecavity", (1.0, 10.0))  # gap exceeds the circumference
    with pytest.raises(ValueError):
        make_arc("strip", (3.0,))


@pytest.mark.parametrize("params,name", [
    ((math.nan, 0.5), "radius"),
    ((math.inf, 0.5), "radius"),
    ((-math.inf, 0.5), "radius"),
    ((1.0, math.nan), "gap_arclength"),
    ((1.0, math.inf), "gap_arclength"),
    ((1.0, -math.inf), "gap_arclength"),
], ids=["radius-nan", "radius-inf", "radius-minus-inf", "gap-nan", "gap-inf", "gap-minus-inf"])
def test_circlecavity_rejects_non_finite_params(params, name):
    with pytest.raises(ValueError, match=f"circlecavity {name} must") as info:
        make_arc("circlecavity", params)
    other = "gap_arclength" if name == "radius" else "radius"
    assert other not in str(info.value)


@pytest.mark.parametrize("kind,params", ALL_KINDS)
def test_arc_round_trips_through_pickle(kind, params):
    arc = make_arc(kind, params)
    copy = pickle.loads(pickle.dumps(arc))
    assert copy == arc and copy.length == arc.length
    t = np.linspace(-1.0, 1.0, 9)
    for a, b in zip(eval_arc(copy, t), eval_arc(arc, t)):
        assert a.tobytes() == b.tobytes()


def test_arc_is_its_kind_and_params():
    arc = Arc("circlecavity", [1, 0.5])
    assert arc == make_arc("circlecavity", (1.0, 0.5)) and arc.params == (1.0, 0.5)
    assert hash(arc) == hash(make_arc("circlecavity", (1.0, 0.5)))
    assert arc != make_arc("circlecavity", (1.0, 0.25))
    assert make_arc("spiral") == Arc("spiral") != Arc("strip")
    with pytest.raises(TypeError):
        Arc("strip", (), 2.0)


@pytest.mark.parametrize("kind,params,message", [
    ("circlecavity", (1.0, -1.0), "gap_arclength must"),
    ("strip", (3.0,), "takes no parameters"),
    ("helix", (), "unknown arc kind"),
])
def test_arc_checks_itself_on_construction(kind, params, message):
    with pytest.raises(ValueError, match=message):
        Arc(kind, params)


def test_eval_vectorized_shapes():
    arc = make_arc("spiral")
    t = np.linspace(-1, 1, 7)
    point, tangent, normal, tau = eval_arc(arc, t)
    assert point.shape == (7, 2) and tangent.shape == (7, 2)
    assert normal.shape == (7, 2) and tau.shape == (7,)
