"""Open-arc geometries: parameterizations, frames and arc length.

Every arc is a smooth curve r(t) = (x(t), y(t)) on t in [-1, 1] with
analytic first derivatives, so tangents, unit normals and the speed
tau(t) = |r'(t)| carry no numerical-differentiation error.  An ``Arc``
is a frozen value, its family and parameters, checked when it is built
and compared by those two fields, like ``grids.ThetaGrid``; its length
is derived from them.  Each family is one function of ``_FAMILIES``,
t, *params -> (x, y, x', y'):

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
from typing import Tuple

import numpy as np

from .grids import coeffs_from_values, theta_grid

_LENGTH_NODES = 16384


def _strip(t):
    return t, np.zeros_like(t), np.ones_like(t), np.zeros_like(t)


def _spiral(t):
    e = np.exp(t)
    c, s = np.cos(5.0 * t), np.sin(5.0 * t)
    return e * c, e * s, e * (c - 5.0 * s), e * (s + 5.0 * c)


def _parabola(t):
    return 1.0 - 2.0 * t * t, t, -4.0 * t, np.ones_like(t)


def _halfcircle(t):
    a = 0.5 * np.pi * (t + 1.0)
    c, s = np.cos(a), np.sin(a)
    return c, s, -0.5 * np.pi * s, 0.5 * np.pi * c


def _circlecavity(t, radius, gap):
    delta = gap / radius
    a0 = -0.5 * np.pi + 0.5 * delta
    rate = 0.5 * (2.0 * np.pi - delta)
    a = a0 + rate * (t + 1.0)
    c, s = np.cos(a), np.sin(a)
    return radius * c, radius * s, -radius * rate * s, radius * rate * c


# Each family's position and velocity, t, *params -> (x, y, x', y').
_FAMILIES = {"strip": _strip, "spiral": _spiral, "parabola": _parabola,
             "halfcircle": _halfcircle, "circlecavity": _circlecavity}
ARC_KINDS = tuple(_FAMILIES)


def _fejer_length(kind: str, params, n: int) -> float:
    # integral of tau over [-1,1] = sum over even cosine modes of tau(cos theta)
    _, _, dx, dy = _FAMILIES[kind](np.cos(theta_grid(n).nodes), *params)
    coef = coeffs_from_values(np.hypot(dx, dy))
    m = np.arange(0, n, 2)
    weights = np.zeros_like(m, dtype=float)
    weights[0] = 2.0
    weights[1:] = -2.0 / (m[1:] ** 2 - 1.0)
    return float(np.dot(weights, coef[m]))


@dataclass(frozen=True)
class Arc:
    """Immutable smooth open arc of a built-in family.

    Attributes
    ----------
    kind : str
        Arc family name, one of ``ARC_KINDS``.
    params : tuple of float
        Family parameters: empty for all built-ins except the circular
        cavity, which takes ``(radius, gap_arclength)``.
    length : float
        Geometric arc length of r([-1, 1]), derived from kind and params.

    Raises
    ------
    ValueError
        Unknown family, wrong parameter count, or a parameterization
        that degenerates (tau = 0 or non-finite coordinates).
    """

    kind: str
    params: Tuple[float, ...] = ()
    length: float = field(init=False, compare=False)

    def __post_init__(self):
        kind, params = self.kind, tuple(float(p) for p in self.params)
        object.__setattr__(self, "params", params)
        if kind not in _FAMILIES:
            raise ValueError(f"unknown arc kind {kind!r}; expected one of {ARC_KINDS}")
        if kind == "circlecavity":
            if len(params) != 2:
                raise ValueError("circlecavity requires params (radius, gap_arclength)")
            radius, gap = params
            if not (np.isfinite(radius) and radius > 0.0):
                raise ValueError(f"circlecavity radius must be finite and positive, got {radius}")
            if not (np.isfinite(gap) and 0.0 < gap < 2.0 * np.pi * radius):
                raise ValueError(f"circlecavity gap_arclength must lie in (0, 2 pi R), got {gap}")
        elif params:
            raise ValueError(f"arc kind {kind!r} takes no parameters")

        x, y, dx, dy = _FAMILIES[kind](np.linspace(-1.0, 1.0, 257), *params)
        tau = np.hypot(dx, dy)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y)) and np.all(np.isfinite(tau))):
            raise ValueError(f"arc {kind!r} with params {params} has non-finite coordinates")
        if np.any(tau <= 0.0):
            raise ValueError(f"arc {kind!r} with params {params} has vanishing speed")

        length = _fejer_length(kind, params, _LENGTH_NODES)
        check = _fejer_length(kind, params, _LENGTH_NODES // 2)
        if abs(length - check) > 1e-10 * abs(length):
            raise ValueError(f"arc length quadrature failed to converge for {kind!r}")
        object.__setattr__(self, "length", length)


def make_arc(kind: str, params=()) -> Arc:
    """The built-in arc ``Arc(kind, params)``."""
    return Arc(kind, params)


def eval_arc(arc: Arc, t):
    """Evaluate position, tangent, unit normal and speed at parameter t.

    Accepts a scalar or array ``t`` in [-1, 1] and returns
    ``(point, tangent, normal, tau)`` where the vector quantities have a
    trailing axis of length 2, ``tau = |r'(t)| > 0`` and the normal is
    (y', -x') / tau.
    """
    t = np.asarray(t, dtype=float)
    x, y, dx, dy = _FAMILIES[arc.kind](t, *arc.params)
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
