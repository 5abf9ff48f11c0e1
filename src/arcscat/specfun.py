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
stored block of S.

J_0, Y_0, J_1 and Y_1 are the scipy.special ufuncs j0, y0, j1, y1; the
Hankel functions are written from them into one complex array, J into
its real part and Y into its imaginary part.  ``hankel1_0`` and
``hankel1_1`` require finite x > 0 and are vectorized over numpy arrays.
"""

from __future__ import annotations

import numpy as np
from scipy import special

EULER_GAMMA = float(np.euler_gamma)
# Entries per chunk of every chunked loop of arcscat: the row chunks of
# _a1a2_offdiag (about this many entries each, one row at least), the
# floor of the S assembly's panels and the row chunks of the near and far
# fields.  Their temporaries take about 40 bytes an entry, so one chunk's
# fit in a 2 MiB L2.  Each loop reads it when called.
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


def _a1a2_offdiag(k, dist, log_dcos, out, pool=None):
    """A1 (real, returned) and A2 (complex, written into ``out``) from
    precomputed distances R and ln|cos t - cos t'|, arrays of one shape
    of at most two dimensions; ``out`` may be a strided view, such as
    the rows of a stored block of S.

    The entries are filled in row chunks of about ``CHUNK_ENTRIES``
    entries (one row at least), so the temporaries stay bounded whatever
    the size.  With a thread pool and more than one chunk, the chunks go
    to the pool's workers; the scipy ufuncs release the interpreter
    lock, and every entry gets the same arithmetic as in the serial
    call, so the result is bitwise the same.  A pool gains little within
    about 0.2 s of a multithreaded BLAS call, while OpenBLAS's idle
    worker busy-waits on the other core.
    """
    d, lg, a2 = (np.atleast_2d(a) for a in (dist, log_dcos, out))
    a1 = np.empty(d.shape)
    step = max(1, CHUNK_ENTRIES // max(1, d.shape[1]))
    spans = [(lo, min(lo + step, len(d))) for lo in range(0, len(d), step)]

    def fill(lo, hi):
        kr = k * d[lo:hi]
        j0, y0 = special.j0(kr), special.y0(kr)
        a1[lo:hi] = j0 / (-2.0 * np.pi)
        a2.real[lo:hi] = j0 * (lg[lo:hi] / (2.0 * np.pi)) - 0.25 * y0
        a2.imag[lo:hi] = 0.25 * j0

    if pool is None or len(spans) == 1:
        for span in spans:
            fill(*span)
    else:
        for f in [pool.submit(fill, *span) for span in spans]:
            f.result()
    return a1.reshape(np.shape(dist))


def _a2_diagonal(k, tau):
    """Coincidence limit of A2 on the arc (A1 limit is -1/(2 pi))."""
    return 0.25j - (EULER_GAMMA + np.log(0.5 * k * tau)) / (2.0 * np.pi)

