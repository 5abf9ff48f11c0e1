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
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np
import scipy.fft


def is_admissible(n: int) -> bool:
    """True when n >= 4 and n factors over {2, 3, 5} (fast FFT sizes)."""
    if n < 4:
        return False
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def nearest_admissible(n: int) -> int:
    """Closest admissible grid size to n (ties resolved upward; 4 for
    n < 4), from the p 2^a nearest n for each p = 3^b 5^c below 2n."""
    n = operator.index(n)
    if n < 4:
        return 4
    exponents = range(n.bit_length())
    odd = [3 ** b * 5 ** c for b in exponents for c in exponents if 3 ** b * 5 ** c < 2 * n]
    lo = max(p << ((n // p).bit_length() - 1) for p in odd if p <= n)
    hi = min(p << (-(-n // p) - 1).bit_length() for p in odd)
    return lo if n - lo < hi - n else hi


@dataclass(frozen=True)
class ThetaGrid:
    """N-point cosine-node grid theta_j = pi (2j + 1) / (2N), defined by
    N alone: grids of one size are equal, and their nodes are read-only."""

    n: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.n, bool):
            raise TypeError("grid size must be an integer, not bool")
        operator.index(self.n)
        if not is_admissible(self.n):
            raise ValueError(
                f"grid size {self.n} not admissible; need n >= 4 with prime factors in {{2, 3, 5}}")
        nodes = np.pi * (2.0 * np.arange(self.n) + 1.0) / (2.0 * self.n)
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
