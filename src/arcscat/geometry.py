"""Open-arc geometries: parameterizations, frames and arc length.

Every arc is a smooth curve r(t) = (x(t), y(t)) on t in [-1, 1] with
analytic first derivatives, so tangents, unit normals and the speed
tau(t) = |r'(t)| carry no numerical-differentiation error.  The built-in
families are

    strip        r(t) = (t, 0)
    spiral       r(t) = (e^t cos 5t, e^t sin 5t)
    parabola     r(t) = (1 - 2 t^2, t)
    halfcircle   r(t) = (cos a, sin a),  a = pi (t + 1) / 2
    circlecavity r(t) = R (cos a, sin a),  a = a0 + (2 pi - delta)(t + 1)/2

where the circular cavity takes params (R, gap_arclength), delta =
gap_arclength / R, and a0 = -pi/2 + delta/2 places the aperture at the
bottom of the circle.

Arc length is computed with Fejer quadrature at first-kind Chebyshev
nodes (exact cosine expansion of tau(cos theta), then term-by-term
integration), which converges spectrally for these smooth speeds; a
refinement check guards the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Tuple

import numpy as np

from .grids import coeffs_from_values, theta_grid

ARC_KINDS = ("strip", "spiral", "parabola", "halfcircle", "circlecavity")

_LENGTH_NODES = 16384


@dataclass(frozen=True)
class Arc:
    """Immutable smooth open arc with analytic parameterization.

    Attributes
    ----------
    kind : str
        Arc family name, one of ``ARC_KINDS``.
    params : tuple of float
        Family-specific parameters (empty for all built-ins except the
        circular cavity, which takes ``(radius, gap_arclength)``).
    length : float
        Geometric arc length of r([-1, 1]).
    """

    kind: str
    params: Tuple[float, ...]
    length: float
    _pos: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]] = field(repr=False, compare=False, default=None)
    _vel: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]] = field(repr=False, compare=False, default=None)


def _strip_pos(t):
    return t, np.zeros_like(t)


def _strip_vel(t):
    return np.ones_like(t), np.zeros_like(t)


def _spiral_pos(t):
    e = np.exp(t)
    return e * np.cos(5.0 * t), e * np.sin(5.0 * t)


def _spiral_vel(t):
    e = np.exp(t)
    c, s = np.cos(5.0 * t), np.sin(5.0 * t)
    return e * (c - 5.0 * s), e * (s + 5.0 * c)


def _parabola_pos(t):
    return 1.0 - 2.0 * t * t, t


def _parabola_vel(t):
    return -4.0 * t, np.ones_like(t)


def _halfcircle_pos(t):
    a = 0.5 * np.pi * (t + 1.0)
    return np.cos(a), np.sin(a)


def _halfcircle_vel(t):
    a = 0.5 * np.pi * (t + 1.0)
    return -0.5 * np.pi * np.sin(a), 0.5 * np.pi * np.cos(a)


def _make_circlecavity(radius: float, gap: float):
    if not (np.isfinite(radius) and radius > 0.0):
        raise ValueError(f"circlecavity radius must be finite and positive, got {radius}")
    if not (np.isfinite(gap) and 0.0 < gap < 2.0 * np.pi * radius):
        raise ValueError(f"circlecavity gap_arclength must lie in (0, 2 pi R), got {gap}")
    delta = gap / radius
    a0 = -0.5 * np.pi + 0.5 * delta
    rate = 0.5 * (2.0 * np.pi - delta)

    def pos(t):
        a = a0 + rate * (t + 1.0)
        return radius * np.cos(a), radius * np.sin(a)

    def vel(t):
        a = a0 + rate * (t + 1.0)
        return -radius * rate * np.sin(a), radius * rate * np.cos(a)

    return pos, vel


def _fejer_length(vel, n: int) -> float:
    # integral of tau over [-1,1] = sum over even cosine modes of tau(cos theta)
    dx, dy = vel(np.cos(theta_grid(n).nodes))
    coef = coeffs_from_values(np.hypot(dx, dy))
    m = np.arange(0, n, 2)
    weights = np.zeros_like(m, dtype=float)
    weights[0] = 2.0
    weights[1:] = -2.0 / (m[1:] ** 2 - 1.0)
    return float(np.dot(weights, coef[m]))


def make_arc(kind: str, params=()) -> Arc:
    """Construct a built-in arc and compute its length.

    Parameters
    ----------
    kind : str
        One of ``ARC_KINDS``.
    params : sequence of float
        Family parameters; only ``circlecavity`` takes any,
        ``(radius, gap_arclength)``.

    Returns
    -------
    Arc

    Raises
    ------
    ValueError
        Unknown family, wrong parameter count, or a parameterization
        that degenerates (tau = 0 or non-finite coordinates).
    """
    params = tuple(float(p) for p in params)
    if kind == "strip":
        pos, vel = _strip_pos, _strip_vel
    elif kind == "spiral":
        pos, vel = _spiral_pos, _spiral_vel
    elif kind == "parabola":
        pos, vel = _parabola_pos, _parabola_vel
    elif kind == "halfcircle":
        pos, vel = _halfcircle_pos, _halfcircle_vel
    elif kind == "circlecavity":
        if len(params) != 2:
            raise ValueError("circlecavity requires params (radius, gap_arclength)")
        pos, vel = _make_circlecavity(*params)
    else:
        raise ValueError(f"unknown arc kind {kind!r}; expected one of {ARC_KINDS}")
    if kind != "circlecavity" and params:
        raise ValueError(f"arc kind {kind!r} takes no parameters")

    t = np.linspace(-1.0, 1.0, 257)
    x, y = pos(t)
    dx, dy = vel(t)
    tau = np.hypot(dx, dy)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y)) and np.all(np.isfinite(tau))):
        raise ValueError(f"arc {kind!r} with params {params} has non-finite coordinates")
    if np.any(tau <= 0.0):
        raise ValueError(f"arc {kind!r} with params {params} has vanishing speed")

    length = _fejer_length(vel, _LENGTH_NODES)
    check = _fejer_length(vel, _LENGTH_NODES // 2)
    if abs(length - check) > 1e-10 * abs(length):
        raise ValueError(f"arc length quadrature failed to converge for {kind!r}")
    return Arc(kind=kind, params=params, length=length, _pos=pos, _vel=vel)


def eval_arc(arc: Arc, t):
    """Evaluate position, tangent, unit normal and speed at parameter t.

    Accepts a scalar or array ``t`` in [-1, 1] and returns
    ``(point, tangent, normal, tau)`` where the vector quantities have a
    trailing axis of length 2, ``tau = |r'(t)| > 0`` and the normal is
    (y', -x') / tau.
    """
    t = np.asarray(t, dtype=float)
    x, y = arc._pos(t)
    dx, dy = arc._vel(t)
    tau = np.hypot(dx, dy)
    point = np.stack([np.broadcast_to(x, t.shape), np.broadcast_to(y, t.shape)], axis=-1)
    tangent = np.stack([np.broadcast_to(dx, t.shape), np.broadcast_to(dy, t.shape)], axis=-1)
    normal = np.stack([dy / tau, -dx / tau], axis=-1)
    return point, tangent, normal, tau


def wavenumber_for_ratio(arc: Arc, l_over_lambda: float) -> float:
    """Wavenumber k giving the requested arc-length-to-wavelength ratio.

    k = 2 pi (L / lambda) / L, so that arc.length / (2 pi / k) equals
    ``l_over_lambda``.
    """
    if not (np.isfinite(l_over_lambda) and l_over_lambda > 0.0):
        raise ValueError("L/lambda ratio must be finite and positive")
    return 2.0 * np.pi * l_over_lambda / arc.length
