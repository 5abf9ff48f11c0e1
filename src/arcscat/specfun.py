"""Bessel/Hankel functions of order zero and one, and the kernel split
of the 2D Helmholtz Green function.

The Green function G_k(r, r') = (i/4) H_0^1(k |r - r'|) restricted to an
arc parameterized through t = cos(theta) decomposes as

    G_k = A1(k, cos theta, cos theta') ln|cos theta - cos theta'| + A2,

with

    A1 = -J_0(k R) / (2 pi),
    A2 = (i/4) H_0^1(k R) + J_0(k R) ln|cos theta - cos theta'| / (2 pi),

R = |r(cos theta) - r(cos theta')|.  A1 and A2 are smooth and even in
both angles; the coincidence limit is

    A1 -> -1/(2 pi),
    A2 -> i/4 - (euler_gamma + ln(k tau(cos theta) / 2)) / (2 pi),

using R / |cos theta - cos theta'| -> tau(cos theta).

J_0, Y_0, J_1 and Y_1 are the scipy.special ufuncs j0, y0, j1, y1; the
Hankel functions are written from them into one complex array, J into
its real part and Y into its imaginary part.  The public
functions validate their input (finite, and x > 0 where Y is involved)
and are vectorized over numpy arrays.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from .geometry import Arc, eval_arc, speed

EULER_GAMMA = float(np.euler_gamma)
# kernel entries per pool task of _a1a2_offdiag, about 5 ms of J0/Y0:
# shorter tasks lose to thread wake-ups on a busy host
A1A2_CHUNK = 1 << 16


def _validated(x, name, positive):
    a = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} requires finite input")
    if positive:
        if np.any(a <= 0.0):
            raise ValueError(f"{name} requires x > 0")
    elif np.any(a < 0.0):
        raise ValueError(f"{name} requires x >= 0")
    return a


def _dispatch(x, name, positive, kernel, scalar_type=float):
    a = _validated(x, name, positive)
    out = kernel(a.ravel())
    if a.ndim == 0:
        return scalar_type(out[0])
    return out.reshape(a.shape)


def _hankel(j, y):
    """a -> J(a) + i Y(a), with J and Y written straight into the real
    and imaginary parts of the result."""
    def kernel(a):
        h = np.empty(a.shape, dtype=complex)
        j(a, out=h.real)
        y(a, out=h.imag)
        return h
    return kernel


def bessel_j0(x):
    """Bessel function J_0 for x >= 0 (scalar or array)."""
    return _dispatch(x, "bessel_j0", False, special.j0)


def bessel_y0(x):
    """Bessel function Y_0 for x > 0 (scalar or array)."""
    return _dispatch(x, "bessel_y0", True, special.y0)


def hankel1_0(x):
    """First-kind Hankel function H_0^1(x) = J_0(x) + i Y_0(x), x > 0."""
    return _dispatch(x, "hankel1_0", True, _hankel(special.j0, special.y0), complex)


def bessel_j1(x):
    """Bessel function J_1 for x >= 0 (scalar or array)."""
    return _dispatch(x, "bessel_j1", False, special.j1)


def bessel_y1(x):
    """Bessel function Y_1 for x > 0 (scalar or array)."""
    return _dispatch(x, "bessel_y1", True, special.y1)


def hankel1_1(x):
    """First-kind Hankel function H_1^1(x) = J_1(x) + i Y_1(x), x > 0."""
    return _dispatch(x, "hankel1_1", True, _hankel(special.j1, special.y1), complex)


def _a1a2_offdiag(k, dist, log_dcos, pool=None):
    """A1 (real) and A2 (complex) from precomputed distances R and
    ln|cos t - cos t'|.

    With a thread pool and more than ``A1A2_CHUNK`` entries, the entries
    are split into chunks of that size for the pool's workers; the scipy
    ufuncs release the interpreter lock, and every entry gets the same
    arithmetic as in the serial call, so the result is bitwise the same.
    """
    d, lg = dist.reshape(-1), log_dcos.reshape(-1)
    a1 = np.empty(d.shape)
    a2 = np.empty(d.shape, dtype=complex)

    def fill(lo, hi):
        kr = k * d[lo:hi]
        j0, y0 = special.j0(kr), special.y0(kr)
        a1[lo:hi] = j0 / (-2.0 * np.pi)
        a2.real[lo:hi] = j0 * (lg[lo:hi] / (2.0 * np.pi)) - 0.25 * y0
        a2.imag[lo:hi] = 0.25 * j0

    if pool is None or d.size <= A1A2_CHUNK:
        fill(0, d.size)
    else:
        futures = [pool.submit(fill, lo, min(lo + A1A2_CHUNK, d.size))
                   for lo in range(0, d.size, A1A2_CHUNK)]
        for f in futures:
            f.result()
    return a1.reshape(dist.shape), a2.reshape(dist.shape)


def _a2_diagonal(k, tau):
    """Coincidence limit of A2 on the arc (A1 limit is -1/(2 pi))."""
    return 0.25j - (EULER_GAMMA + np.log(0.5 * k * tau)) / (2.0 * np.pi)


def kernel_split(k: float, arc: Arc, theta, theta_p):
    """Split the Helmholtz kernel into log-singular and smooth factors.

    Returns the smooth factors ``(a1, a2)`` such that for theta != theta_p

        a1 * ln|cos theta - cos theta'| + a2
            = (i/4) H_0^1(k |r(cos theta) - r(cos theta')|),

    while entries with theta == theta_p get the analytic coincidence
    limit.  The angles may be scalars or broadcastable arrays; the result
    depends on them only through their cosines, hence is even and
    2 pi periodic in both.
    """
    if not np.isfinite(k):
        raise ValueError("kernel_split requires a finite wavenumber")
    if k <= 0.0:
        raise ValueError("kernel_split requires k > 0")
    x = np.cos(np.asarray(theta, dtype=float))
    xp = np.cos(np.asarray(theta_p, dtype=float))
    x, xp = np.broadcast_arrays(x, xp)
    diag = x == xp

    p = eval_arc(arc, x)[0]
    pp = eval_arc(arc, xp)[0]
    dist = np.hypot(p[..., 0] - pp[..., 0], p[..., 1] - pp[..., 1])
    with np.errstate(divide="ignore"):
        log_dcos = np.log(np.abs(x - xp))
    a1, a2 = _a1a2_offdiag(k, np.where(diag, 1.0, dist), np.where(diag, 0.0, log_dcos))

    if np.any(diag):
        a1 = np.where(diag, -1.0 / (2.0 * np.pi), a1)
        a2 = np.where(diag, _a2_diagonal(k, speed(arc, x)), a2)
    if np.ndim(a1) == 0:
        return complex(a1), complex(a2)
    return a1.astype(complex), a2
