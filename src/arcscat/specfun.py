"""Hankel functions of order zero and one, and the smooth factors of
the kernel split of the 2D Helmholtz Green function.

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

using R / |cos theta - cos theta'| -> tau(cos theta).  ``_a1a2_offdiag``
and ``_a2_diagonal`` evaluate A1 and A2 on the entries of the S
assembly, from distances and cosine gaps the caller computes;
``_a1a2_offdiag`` writes A2 into the caller's array, a panel's rows of a
stored block of S, in one pass on the calling thread.

J_0, Y_0, J_1 and Y_1 are the scipy.special ufuncs j0, y0, j1, y1; the
Hankel functions are written from them into one complex array, J into
its real part and Y into its imaginary part.  ``hankel1_0`` and
``hankel1_1`` require finite x > 0 and are vectorized over numpy arrays.
"""

from __future__ import annotations

import numpy as np
from scipy import special

EULER_GAMMA = float(np.euler_gamma)
# Entries per chunk of every chunked loop of arcscat: the row panels of
# the S assembly (about this many entries each, one row at least) and the
# row chunks of the near and far fields.  Their temporaries take about 40
# bytes an entry, so one chunk's fit in a 2 MiB L2.  Each loop reads it
# when called.
CHUNK_ENTRIES = 1 << 14


def _hankel(x, name, j, y):
    """J(x) + i Y(x) for finite x > 0 (scalar or array), with J and Y
    written straight into the real and imaginary parts of the result."""
    a = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} requires finite input")
    if np.any(a <= 0.0):
        raise ValueError(f"{name} requires x > 0")
    flat = a.ravel()
    h = np.empty(flat.shape, dtype=complex)
    j(flat, out=h.real)
    y(flat, out=h.imag)
    return complex(h[0]) if a.ndim == 0 else h.reshape(a.shape)


def hankel1_0(x):
    """First-kind Hankel function H_0^1(x) = J_0(x) + i Y_0(x), x > 0."""
    return _hankel(x, "hankel1_0", special.j0, special.y0)


def hankel1_1(x):
    """First-kind Hankel function H_1^1(x) = J_1(x) + i Y_1(x), x > 0."""
    return _hankel(x, "hankel1_1", special.j1, special.y1)


def _a1a2_offdiag(k, dist, log_dcos, out):
    """A1 (real, returned) and A2 (complex, written into ``out``) from
    precomputed distances R and ln|cos t - cos t'|, arrays of one shape;
    ``out`` may be a strided view, such as the rows of a stored block of
    S.  The caller bounds the size: the S build passes panels of about
    ``CHUNK_ENTRIES`` entries."""
    kr = k * dist
    j0, y0 = special.j0(kr), special.y0(kr)
    out.real = j0 * (log_dcos / (2.0 * np.pi)) - 0.25 * y0
    out.imag = 0.25 * j0
    return j0 / (-2.0 * np.pi)


def _a2_diagonal(k, tau):
    """Coincidence limit of A2 on the arc (A1 limit is -1/(2 pi))."""
    return 0.25j - (EULER_GAMMA + np.log(0.5 * k * tau)) / (2.0 * np.pi)

