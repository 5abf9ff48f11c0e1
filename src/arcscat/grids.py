"""Cosine-node grid, fast cosine/sine expansions, and the first-order
operators built from them.

The grid holds the N first-kind Chebyshev angles theta_j =
pi (2j + 1) / (2N).  An even, 2 pi periodic density sampled there has
the exact degree-(N-1) representation

    v(theta) = sum_{m=0}^{N-1} c_m cos(m theta),
    c_0 = (1/N) sum_j v(theta_j),
    c_m = (2/N) sum_j v(theta_j) cos(m theta_j),

computed here via fast DCT-II / DCT-III pairs.  On top of the
expansions sit two spectral operators:

    T0[v] = d/dtheta (v sin theta)      (sine expansion, termwise derivative)
    D0[v] = (1/sin theta) dv/dtheta = -d/dx v(x)|_{x=cos theta}
                                        (Chebyshev differentiation)

Every function here maps node values (plain arrays) to node values or
coefficients, with no arc: the weighted T0_tau v = T0[v] / tau divides
by the speed the node frame of ``operators.n_frame`` carries.  The
helpers operate along the last axis, so a stack of densities (batch, N)
transforms in one call.  T0 maps degree N-1 input onto cosine degree N;
the top mode vanishes identically at the nodes, so resampling drops it
(callers that need it keep coefficients instead, see ``t0_coeffs``).
``chop`` reads from a row of coefficients how many of them stand above
its rounding plateau.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np
import scipy.fft


def is_admissible(n: int) -> bool:
    """True when n >= 4 and n factors over {2, 3, 5} (fast FFT sizes);
    False beyond about 1.7e18, the largest size ``scipy.fft`` plans."""
    try:
        return n >= 4 and scipy.fft.next_fast_len(n, real=True) == n
    except (ValueError, OverflowError):  # too large to plan
        return False


def nearest_admissible(n: int) -> int:
    """Closest admissible grid size to n (ties resolved upward; 4 for
    n < 4; the size below when the one above is beyond the largest that
    ``scipy.fft`` plans, about 1.7e18).  Sizes beyond that limit raise
    ValueError, and sizes from 2^63 on OverflowError."""
    n = operator.index(n)
    if n < 4:
        return 4
    lo, hi = scipy.fft.prev_fast_len(n, real=True), scipy.fft.next_fast_len(n, real=True)
    return hi if hi - n <= n - lo and is_admissible(hi) else lo


@dataclass(frozen=True)
class ThetaGrid:
    """N-point cosine-node grid theta_j = pi (2j + 1) / (2N), defined by
    N alone: grids of one size are equal, and their nodes are read-only.
    A size whose nodes cannot be allocated raises ValueError."""

    n: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.n, bool):
            raise TypeError("grid size must be an integer, not bool")
        operator.index(self.n)
        if not is_admissible(self.n):
            raise ValueError(
                f"grid size {self.n} not admissible; need n >= 4 with prime factors in {{2, 3, 5}}, "
                "below about 1.7e18, the largest size scipy.fft plans")
        try:
            nodes = np.pi * (2.0 * np.arange(self.n) + 1.0) / (2.0 * self.n)
        except MemoryError:
            raise ValueError(f"grid size {self.n} too large: its nodes do not fit in memory") from None
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)


def theta_grid(n: int) -> ThetaGrid:
    """Build the admissible N-point grid."""
    return ThetaGrid(n)


def coeffs_from_values(values: np.ndarray) -> np.ndarray:
    """Cosine coefficients c_0..c_{N-1} of samples (last axis)."""
    n = values.shape[-1]
    c = scipy.fft.dct(values, type=2, axis=-1) / n
    c[..., 0] *= 0.5
    return c


def values_from_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """Samples at the N nodes of sum_m c_m cos(m theta) (inverse of
    ``coeffs_from_values`` when len(coeffs) == N along the last axis)."""
    x = coeffs.copy()
    x[..., 1:] *= 0.5
    return scipy.fft.dct(x, type=3, axis=-1)


def chop(coeffs: np.ndarray) -> int:
    """How many leading coefficients of a decaying sequence to keep: 1 +
    the last mode above the tail's noise plateau, by Chebfun's
    ``standardChop`` (Aurentz & Trefethen, ACM TOMS 43, 2017) at its
    default tolerance, tol = machine epsilon.

    The magnitudes are replaced by their nonincreasing envelope,
    normalized to start at 1.  A plateau starts at the first mode j
    (1-based) whose envelope e_j is followed, at mode j2 = 1.25 j + 5,
    by a value above r e_j, with r = 3 (1 - log e_j / log tol): r runs
    from 0 at e_j = tol to 1 at tol^(2/3), so a plateau near tol^(2/3)
    must be flat and one near tol need not be.  Without a plateau, or
    with fewer than 17 coefficients, all n are kept.  With one, the cut
    is where log10 of the envelope up to j2, plus a line rising by
    log10(1 / tol) / 3 over those modes, is least, which biases it
    toward the plateau's start.  An all-zero sequence keeps 1.
    """
    magnitudes = np.abs(coeffs)
    n = len(magnitudes)
    if n < 17:
        return n
    envelope = np.maximum.accumulate(magnitudes[::-1])[::-1]
    if envelope[0] == 0.0:
        return 1
    envelope = envelope / envelope[0]
    tol = np.finfo(float).eps
    j = np.arange(2, n + 1)
    j2 = np.floor(1.25 * j + 5.5).astype(int)  # rounded half up, as in Matlab
    j, j2 = j[j2 <= n], j2[j2 <= n]
    e1, e2 = envelope[j - 1], envelope[j2 - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        plateau = (e1 == 0.0) | (e2 / e1 > 3.0 * (1.0 - np.log(e1) / np.log(tol)))
    if not plateau.any():
        return n
    end = int(j2[np.argmax(plateau)])
    floor = tol ** (7.0 / 6.0)
    above = int(np.sum(envelope >= floor))
    envelope = envelope[:min(end, above + 1)].copy()
    if above < end:
        envelope[-1] = floor
    biased = np.log10(envelope) + np.linspace(0.0, -np.log10(tol) / 3.0, len(envelope))
    return max(int(np.argmin(biased)), 1)


def sine_coeffs(values: np.ndarray) -> np.ndarray:
    """Sine coefficients b_1..b_N of odd samples (last axis), i.e.
    values_j = sum_{m=1}^{N} b_m sin(m theta_j)."""
    n = values.shape[-1]
    b = scipy.fft.dst(values, type=2, axis=-1) / n
    b[..., -1] *= 0.5
    return b


def t0_coeffs(values: np.ndarray) -> np.ndarray:
    """Cosine coefficients (modes 0..N, length N + 1) of
    d/dtheta (v sin theta) for node samples v."""
    n = values.shape[-1]
    theta = np.pi * (2.0 * np.arange(n) + 1.0) / (2.0 * n)
    b = sine_coeffs(values * np.sin(theta))
    c = np.zeros(values.shape[:-1] + (n + 1,), dtype=b.dtype)
    c[..., 1:] = b * np.arange(1, n + 1)
    return c


def parity_suffix_sums(w: np.ndarray) -> np.ndarray:
    """Inclusive same-parity suffix sums along the last axis,
    out[..., j] = w[..., j] + w[..., j + 2] + w[..., j + 4] + ...;
    the exclusive sums are ``out - w``."""
    out = np.empty_like(w)
    for p in (0, 1):
        out[..., p::2] = np.cumsum(w[..., p::2][..., ::-1], axis=-1)[..., ::-1]
    return out


def chebyshev_derivative_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of phi'(x) given those of phi (last axis).

    The recurrence c'_j = c'_{j+2} + 2 (j + 1) c_{j+1} is a same-parity
    suffix sum, halved at j = 0.
    """
    m = coeffs.shape[-1] - 1
    if m == 0:
        return np.zeros(coeffs.shape[:-1] + (1,), dtype=coeffs.dtype)
    out = parity_suffix_sums(2.0 * np.arange(1, m + 1) * coeffs[..., 1:])
    out[..., 0] *= 0.5
    return out


def d0_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """Cosine coefficients of D0 v = -d/dx v, from cosine coefficients."""
    return -chebyshev_derivative_coeffs(coeffs)


def t0_values(values: np.ndarray) -> np.ndarray:
    """Node samples of T0 v = d/dtheta (v sin theta)."""
    n = values.shape[-1]
    return values_from_coeffs(t0_coeffs(values)[..., :n])


def d0_values(values: np.ndarray) -> np.ndarray:
    """Node samples of D0 v = (1/sin theta) dv/dtheta."""
    n = values.shape[-1]
    d = d0_coeffs(coeffs_from_values(values))
    out = np.zeros(values.shape, dtype=d.dtype)
    out[..., : d.shape[-1]] = d
    return values_from_coeffs(out)
