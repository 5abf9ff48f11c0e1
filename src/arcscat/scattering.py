"""Plane-wave scattering by open arcs: right-hand sides, the solver
front end for the five integral formulations, density recovery and
field evaluation.

The incident field is u_inc = exp(i k d . r) with d the unit propagation
direction.  The Dirichlet (TE) and Neumann (TM) data are f = -u_inc and
g = -du_inc/dn on the arc; after the cosine change of variables these
become even periodic node vectors, and each formulation solves one of

    TE_S         S phi = f
    TE_NS        N S phi = N f
    TM_N         N psi = g
    TM_NS        N S psi = g
    TE_ATKINSON  S (S0_tau)^{-1} phi = f

with GMRES on the matrix-free pipelines.  The physical layer densities
are recovered from the periodic unknowns (mu = phi / sin theta for the
single layer, nu = sin theta S psi or sin theta psi for the double
layer), and far/near fields are quadratures of the layer representations
with smooth even integrands, so the plain node rule is spectral.

A solve evaluates the arc once per discretization, when S is built:
S carries the node frame, the right-hand side comes from it (``te_data``
/ ``tm_data`` of the frame's points and normals), and every ``Solution``
carries that frame and its layer density, which its density recovery
and field evaluations read.  Densities and data are plain arrays of node
values.

Far fields use the normalization

    TE:  u_inf(d_obs) = int_0^pi e^{-i k d_obs . r} phi tau dtheta
    TM:  v_inf(d_obs) = int_0^pi (-i k d_obs . n) e^{-i k d_obs . r}
                               psi_eff tau sin^2 theta dtheta

which is the Colton-Kress far-field pattern: the scattered field is
u_s ~ e^{i pi/4} (8 pi k rho)^{-1/2} e^{i k rho} u_inf as rho -> inf.
"""

from __future__ import annotations

import math
import numbers
import operator
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.fft

from . import specfun
from .geometry import Arc
from .grids import ThetaGrid, chop, coeffs_from_values, values_from_coeffs
from .linalg import SolveReport, gmres, gmres_limits
from .operators import (
    NFrame,
    build_S_matrix,
    n_frame,
    operator_action,
    s0tau_solve_values,
)
from .specfun import hankel1_0, hankel1_1

# The operator of ``operators.operator_action`` that each formulation's
# GMRES applies; TE_NS also applies N to its data.
_OPERATORS = {"TE_S": "S", "TE_NS": "NS", "TM_N": "N", "TM_NS": "NS", "TE_ATKINSON": "S0invS"}
FORMULATIONS = tuple(_OPERATORS)
TE_FORMULATIONS = ("TE_S", "TE_NS", "TE_ATKINSON")
TM_FORMULATIONS = ("TM_N", "TM_NS")


def _real(value, label: str) -> float:
    """Any Real (a Fraction, say) as the float numpy computes with; a bool
    or a non-real value raises TypeError naming the label."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise TypeError(f"{label} must be a real number")
    return float(value)


@dataclass(frozen=True)
class Incidence:
    """Incident plane wave: propagation angle (degrees from +x) and k."""

    angle_deg: float
    k: float

    def __post_init__(self):
        angle = _real(self.angle_deg, "incidence angle")
        if not np.isfinite(angle):
            raise ValueError("incidence angle must be finite")
        k = _real(self.k, "wavenumber")
        if not (np.isfinite(k) and k > 0.0):
            raise ValueError("wavenumber must be finite and positive")
        object.__setattr__(self, "angle_deg", angle)
        object.__setattr__(self, "k", k)

    @property
    def direction(self) -> np.ndarray:
        a = np.deg2rad(self.angle_deg)
        return np.array([np.cos(a), np.sin(a)])


@dataclass
class FarField:
    """Far-field samples on uniformly spaced observation angles."""

    angles_deg: np.ndarray
    values: np.ndarray


@dataclass
class Solution:
    """Solved periodic density (node values) with its provenance and
    solver report.

    ``layer_density`` is the periodic layer density the fields read:
    psi = S density for TM_NS, phi = (S0_tau)^{-1} density for
    TE_ATKINSON, else ``density``.  ``frame`` is the read-only node frame
    every solve on the same (arc, k, grid) shares; no Solution holds S.
    ``mat_seconds`` is the time spent assembling S, 0.0 on reuse.
    """

    formulation: str
    density: np.ndarray
    layer_density: np.ndarray = field(repr=False)
    report: SolveReport
    arc: Arc
    k: float
    grid: ThetaGrid
    incidence: Incidence
    frame: NFrame = field(repr=False)
    mat_seconds: float = 0.0

    @property
    def kernel_bandwidth(self) -> float:
        """B = 2 k max(tau sin theta) over the nodes, the bandwidth of the
        kernel times the density that the product rule interpolates: on a
        grid of N < B nodes it aliases, and the fields may be wrong (see
        the README's note on aliasing)."""
        return 2.0 * self.k * _theta_speed(self.frame, self.grid)


def _theta_speed(frame: NFrame, grid: ThetaGrid) -> float:
    """rho = max |dr/dtheta| = max tau sin theta over the nodes."""
    return float(np.max(frame.tau * np.sin(grid.nodes)))


def incident_field(inc: Incidence, points: np.ndarray) -> np.ndarray:
    """u_inc = exp(i k d . r) at the given points."""
    pts = np.asarray(points, dtype=float)
    return np.exp(1j * inc.k * (pts @ inc.direction))


def te_data(points: np.ndarray, inc: Incidence) -> np.ndarray:
    """Dirichlet data f = -u_inc at the given points (the frame's nodes)."""
    return -incident_field(inc, points)


def tm_data(points: np.ndarray, normals: np.ndarray, inc: Incidence) -> np.ndarray:
    """Neumann data g = -du_inc/dn at the given points and unit normals."""
    return -1j * inc.k * (normals @ inc.direction) * incident_field(inc, points)


# One-slot memo (builder, S): the S of the last discretization solved on
# and the builder that assembled it.  It is read once and replaced by one
# assignment, without a lock: threads that race on a miss may each build
# S, which wastes work but is correct, since every build of one
# discretization gives the same S.
_last: Optional[tuple] = None


def _discretize(arc: Arc, k: float, grid: ThetaGrid):
    """S of (arc, k, grid), read-only and carrying its node frame, reused
    from the previous solve when it ran on the same discretization, with
    the seconds spent assembling S (0.0 on reuse)."""
    global _last
    builder, s = _last or (None, None)
    # Equal arcs are the same curve.  A builder since replaced (patched
    # or instrumented) must assemble its own S.
    if builder is build_S_matrix and s.arc == arc and s.k == k and s.n == grid.n:
        return s, 0.0
    # Empty the slot before building, so that the old S is freed first
    # and two of them are never resident at once.
    _last = s = None
    builder = build_S_matrix
    start = time.perf_counter()
    s = builder(arc, k, grid)
    mat_seconds = time.perf_counter() - start
    _last = (builder, s)
    return s, mat_seconds


# What each problem argument of solve must be.
_ARGUMENT_TYPES = {"arc": (Arc, "an Arc, from make_arc(kind)"),
                   "inc": (Incidence, "an Incidence(angle_deg, k)"),
                   "grid": (ThetaGrid, "a ThetaGrid, from theta_grid(n)")}


def _check_types(**arguments) -> None:
    """Reject a wrongly typed problem argument by name, before S is built."""
    for name, value in arguments.items():
        cls, what = _ARGUMENT_TYPES[name]
        if not isinstance(value, cls):
            raise TypeError(f"{name} must be {what}, not {type(value).__name__}")


def solve(formulation: str, arc: Arc, inc: Incidence, grid: ThetaGrid,
          tol: float = 1e-8, maxit: int = 2000) -> Solution:
    """Run GMRES on the chosen equation, with S assembled once per
    discretization.

    S is the only stored matrix, and it keeps each entry of its
    symmetric kernel once: the N pipeline applies its smooth part Ng
    through S as well, and N's three S products share one pass over the
    stored blocks, so an N application costs one pass and an NS
    application two.

    S and the node frame it carries depend on the arc, k and the grid,
    not on the incidence or the formulation, so a solve on an equal
    arc, the same k and grid size as the last solve reuses S and
    reports ``mat_seconds`` = 0.0.  The memo alone holds S: the last S
    stays resident until a solve on another discretization replaces it
    (331 MB at N = 6400), and no Solution keeps it alive.

    Returns a Solution whose ``report`` carries the iteration count and
    residual history; ``report.converged`` is False when maxit was hit.
    The formulation, the types of ``arc``, ``inc`` and ``grid``, ``tol``
    and ``maxit`` are checked before S is built.
    """
    if formulation not in FORMULATIONS:
        raise ValueError(f"unknown formulation {formulation!r}; expected one of {FORMULATIONS}")
    _check_types(arc=arc, inc=inc, grid=grid)
    gmres_limits(tol, maxit)
    k = inc.k
    s, mat_seconds = _discretize(arc, k, grid)
    frame = s.frame
    action = operator_action(_OPERATORS[formulation], s)
    if formulation in TE_FORMULATIONS:
        b = te_data(frame.points, inc)
    else:
        b = tm_data(frame.points, frame.normals, inc)
    if formulation == "TE_NS":
        b = operator_action("N", s)(b)
    x, report = gmres(action, b, tol=tol, maxit=maxit)
    layer = x
    if formulation == "TM_NS":
        layer = operator_action("S", s)(x)
    elif formulation == "TE_ATKINSON":
        layer = s0tau_solve_values(frame, x)
    return Solution(formulation=formulation, density=x, layer_density=layer, report=report,
                    arc=arc, k=k, grid=grid, incidence=inc, frame=frame,
                    mat_seconds=mat_seconds)


def te_layer_density(sol: Solution) -> np.ndarray:
    """Periodic single-layer density phi solving S phi = f, at the nodes."""
    if sol.formulation not in TE_FORMULATIONS:
        raise ValueError(f"{sol.formulation} is not a TE solution")
    return sol.layer_density


def tm_layer_density(sol: Solution) -> np.ndarray:
    """Periodic weighted double-layer density psi solving N psi = g."""
    if sol.formulation not in TM_FORMULATIONS:
        raise ValueError(f"{sol.formulation} is not a TM solution")
    return sol.layer_density


def recover_mu(sol: Solution) -> np.ndarray:
    """Single-layer density mu = phi / sin theta at the nodes (finite:
    the nodes are interior, and phi tends to a nonzero edge limit)."""
    return te_layer_density(sol) / np.sin(sol.grid.nodes)


def recover_nu(sol: Solution) -> np.ndarray:
    """Double-layer density nu = sin theta * psi at the nodes; vanishes
    at the edges like the square-root distance weight."""
    return np.sin(sol.grid.nodes) * tm_layer_density(sol)


def _quadrature_density(sol: Solution) -> np.ndarray:
    """The density both field quadratures sum at the nodes: the layer
    density times tau, and times sin^2 theta for TM."""
    density = sol.layer_density * sol.frame.tau
    return density if sol.formulation in TE_FORMULATIONS else density * np.sin(sol.grid.nodes) ** 2


def _row_chunks(count: int, width: int) -> list:
    """Near-equal row slices of a count x width array, of about
    ``specfun.CHUNK_ENTRIES`` entries each and at least two rows: a
    one-row product takes another BLAS path and may differ in the last
    bit.  A near-field chunk's distance, kernel and Hankel temporaries
    then take about 1.5 MB, a far-field chunk's phases 0.4 MB, whatever
    N and the number of points or directions."""
    chunks = max(1, min(count // 2, -(-count * width // specfun.CHUNK_ENTRIES)))
    return [slice(count * c // chunks, count * (c + 1) // chunks) for c in range(chunks)]


def _directions(m: int):
    """m uniformly spaced observation angles (degrees from +x) and their
    unit directions, (m, 2)."""
    angles = 360.0 * np.arange(m) / m
    rad = np.deg2rad(angles)
    return angles, np.stack([np.cos(rad), np.sin(rad)], axis=-1)


def _phase_sums(points: np.ndarray, cols: np.ndarray, k: float, obs: np.ndarray) -> np.ndarray:
    """Row j is sum_n exp(-i k d_j . r_n) cols[n] at the m directions
    d_j = obs[j] of ``_directions(m)``.

    For even m, direction j + m/2 is the negative of direction j, so its
    row of phases is the complex conjugate of row j: the exponentials are
    evaluated for the first m/2 directions only, and the second half
    comes from the same matrix applied to the conjugated columns.  The
    phases are made and summed in the row chunks of ``_row_chunks``, so
    no (m/2) x N array is held.
    """
    m = len(obs)
    half = m // 2 if m % 2 == 0 else m
    if half < m:
        cols = np.hstack((cols, cols.conj()))
    sums = np.empty((half, cols.shape[1]), dtype=complex)
    for rows in _row_chunks(half, len(points)):
        phase = -1j * k * (obs[rows] @ points.T)
        np.exp(phase, out=phase)
        sums[rows] = phase @ cols
    if half == m:
        return sums
    top, bottom = np.split(sums, 2, axis=1)
    return np.concatenate((top, bottom.conj()))  # (m, columns)


def _far_samples(points: np.ndarray, k: float):
    """The centre c of the points' bounding box and M = 2L + 2, the
    directions that resolve a far field summed about it (see
    ``far_field``)."""
    center = 0.5 * (points.min(axis=0) + points.max(axis=0))
    kr = k * float(np.max(np.hypot(*(points - center).T)))
    return center, 2 * math.ceil(kr + 12.0 * np.cbrt(kr) + 12.0) + 2


def _interpolate_periodic(samples: np.ndarray, m: int) -> np.ndarray:
    """Trigonometric interpolation of an even number M of equispaced
    samples of a period (axis 0) to m > M equispaced samples: the FFT
    zero-padded to m, with the Nyquist coefficient split between +-M/2."""
    count = samples.shape[0]
    h = count // 2
    coeffs = scipy.fft.fft(samples, axis=0)
    padded = np.zeros((m,) + samples.shape[1:], dtype=complex)
    padded[:h] = coeffs[:h]
    padded[m - h + 1:] = coeffs[h + 1:]
    padded[h] = padded[m - h] = 0.5 * coeffs[h]
    values = scipy.fft.ifft(padded, axis=0, overwrite_x=True)
    values *= m / count
    return values


def far_field(sol: Solution, m: int) -> FarField:
    """Far-field samples at m uniformly spaced observation angles, of the
    Colton-Kress pattern u_inf of the module docstring.

    Both far fields are sums over the nodes of exp(-i k d_obs . r) times a
    density column (TM applies d_obs . n after the sum, through the
    columns n_x psi and n_y psi).  About the centre c of the nodes'
    bounding box, with R = max |r - c|, such a sum is a trigonometric
    polynomial in the observation angle whose Fourier coefficients beyond
    degree kR + O((kR)^(1/3)) fall below machine precision (Jacobi-Anger;
    the excess-bandwidth rule of Rokhlin, J. Comput. Phys. 86, 1990).
    So with L = ceil(kR + 12 (kR)^(1/3) + 12) the sums are evaluated at
    M = 2L + 2 directions on the centred nodes, trigonometrically
    interpolated to the m directions by FFT, and shifted back by
    exp(-i k d_obs . c), whenever M < m.  Otherwise the m directions are
    summed directly.  M is 28 at low frequency and 248 on the strip at
    L/lambda = 20.  The two paths agree to 3e-14 of max |u_inf| on the
    strip, spiral, parabola and half-circle up to L/lambda = 50, and to
    2e-14 on the spiral at L/lambda = 200.  On the strip at L/lambda = 200
    (kR = 628) they differ by 2e-13: the direct sum feels the rounding of
    its directions, and the resampled values are within 3e-14 of the
    field at the exact directions.  Either path evaluates the
    exponentials of half its directions only, in chunks of about
    ``specfun.CHUNK_ENTRIES`` phases (see ``_phase_sums``), so its phase
    arrays stay near 0.4 MB whatever N.
    """
    if isinstance(m, bool):
        raise TypeError("observation count must be an integer, not bool")
    m = operator.index(m)
    if m <= 0:
        raise ValueError("observation count must be positive")
    grid, k = sol.grid, sol.k
    points = sol.frame.points
    cols = _quadrature_density(sol)[:, None]
    if sol.formulation not in TE_FORMULATIONS:
        cols = sol.frame.normals * cols
    angles, obs = _directions(m)
    center, samples = _far_samples(points, k)
    if samples < m:
        sums = _phase_sums(points - center, cols, k, _directions(samples)[1])
        sums = _interpolate_periodic(sums, m)
        sums *= np.exp(-1j * k * (obs @ center))[:, None]
    else:
        sums = _phase_sums(points, cols, k, obs)
    w = np.pi / grid.n
    if sol.formulation in TE_FORMULATIONS:
        values = w * sums[:, 0]
    else:
        values = obs[:, 0] * sums[:, 0]
        values += obs[:, 1] * sums[:, 1]
        values *= -1j * k * w
    return FarField(angles_deg=angles, values=values)


def far_field_error(candidate: FarField, reference: FarField) -> float:
    """Relative maximum far-field error against a reference run (0.0 when
    both vanish identically, inf when only the reference does)."""
    if candidate.values.shape != reference.values.shape:
        raise ValueError("far fields sampled on different angle grids")
    error = float(np.max(np.abs(candidate.values - reference.values)))
    scale = float(np.max(np.abs(reference.values)))
    return error / scale if scale else (math.inf if error else 0.0)


def _max_spacing(points: np.ndarray) -> float:
    return float(np.max(np.hypot(np.diff(points[:, 0]), np.diff(points[:, 1]))))


# The share of its peak below which near_field takes the kernel's cosine
# coefficients to have ended.
KERNEL_CUTOFF = 1e-14
# Arc nodes the distance bound of near_field measures against.
COARSE_NODES = 64


def _layer_sums(pts: np.ndarray, nodes_xy: np.ndarray, normals: np.ndarray,
                density: np.ndarray, k: float, w: float, mask_distance: float,
                tm: bool) -> np.ndarray:
    """w * sum_j K(x, r_j) density_j at each point x, where K is the
    single-layer (TE) or double-layer (TM) kernel; points closer than
    ``mask_distance`` to a node, or on one, are NaN."""
    count = len(pts)
    if count == 1:
        # a lone point is evaluated as a two-row block, like any other
        pts = np.vstack((pts, pts))
    out = np.empty(len(pts), dtype=complex)
    for rows in _row_chunks(len(pts), len(nodes_xy)):
        block = pts[rows]
        dx = block[:, 0][:, None] - nodes_xy[:, 0][None, :]
        dy = block[:, 1][:, None] - nodes_xy[:, 1][None, :]
        dist = np.hypot(dx, dy)
        closest = dist.min(axis=1)
        # a point on a node is masked even when mask_distance is 0
        near = (closest < mask_distance) | (closest == 0.0)
        dist[dist == 0.0] = 1.0  # rows masked above
        if tm:
            # grad_y G . n_y with G = (i/4) H_0^1(k |x - y|)
            kernel = (0.25j * k) * hankel1_1(k * dist) * \
                (dx * normals[None, :, 0] + dy * normals[None, :, 1]) / dist
        else:
            kernel = 0.25j * hankel1_0(k * dist)
        vals = w * (kernel @ density)
        vals[near] = np.nan + 1j * np.nan
        out[rows] = vals
    return out[:count]


def _phase_bandwidth(points: np.ndarray, k: float) -> int:
    """B_phase: 1 + the last cosine mode above ``KERNEL_CUTOFF`` of its
    peak of the far-field phase exp(-i k x . r) at the nodes r, the most
    over the M directions x of ``far_field``.  Direction -x gives the
    conjugate phase, whose coefficients have the same magnitudes, so
    half of them are evaluated, in the row chunks of ``_row_chunks``."""
    center, samples = _far_samples(points, k)
    obs = _directions(samples)[1][: samples // 2]
    local = points - center
    bandwidth = 1
    for rows in _row_chunks(len(obs), len(points)):
        phase = -1j * k * (obs[rows] @ local.T)
        np.exp(phase, out=phase)
        mags = np.abs(coeffs_from_values(phase))
        above = mags > KERNEL_CUTOFF * mags.max(axis=1, keepdims=True)
        below = np.argmax(above[:, ::-1], axis=1)  # each row's trailing modes below
        bandwidth = max(bandwidth, len(points) - int(below.min()))
    return bandwidth


def _distance_bound(pts: np.ndarray, nodes_xy: np.ndarray, rho: float) -> np.ndarray:
    """A lower bound on each point's distance to the arc.

    Every ``step``-th node and the last one are at most step * pi / N
    apart in theta, and the tips pi / (2N) from the end nodes, so every
    point of the arc lies within arc length rho * step * pi / (2N) of one
    of them, rho = max tau sin theta.
    """
    n = len(nodes_xy)
    step = max(1, n // COARSE_NODES)
    dist = np.full(len(pts), np.inf)
    for x, y in nodes_xy[np.r_[0:n:step, n - 1]]:
        np.minimum(dist, np.hypot(pts[:, 0] - x, pts[:, 1] - y), out=dist)
    return dist - rho * step * np.pi / (2.0 * n)


def _node_counts(pts: np.ndarray, frame: NFrame, grid: ThetaGrid, k: float,
                 coeffs: np.ndarray, mask_distance: float) -> np.ndarray:
    """The node count M <= N of each point's rule (see ``near_field``)."""
    n = grid.n
    b_sigma = chop(coeffs)
    rho = _theta_speed(frame, grid)
    b_far = k * rho + 2.0 * np.cbrt(k * rho) + 8.0
    # far away the kernel's bandwidth is its phase's, which b_far may miss
    b_phase = frame.kept("phase_bandwidth", lambda: _phase_bandwidth(frame.points, k))
    fewest = max(b_far, b_phase)
    # B_K + excess is the kernel's bandwidth at rounding level, by the
    # excess rule of far_field: density modes beyond it meet no kernel mode
    excess = 10.0 * np.cbrt(k * rho) + 4.0

    counts = np.full(len(pts), n)
    # the admissible sizes from the fewest any point may take up to N
    sizes, size = [], math.ceil(0.5 * (fewest + min(fewest + excess, b_sigma)))
    while (size := scipy.fft.next_fast_len(size, real=True)) < n:
        sizes.append(size)
        size += 1
    if not sizes:
        return counts
    sizes = np.array(sizes + [n])
    d = _distance_bound(pts, frame.points, rho)
    far = d >= mask_distance  # so d >= 0
    # the cosine coefficients of an integrand analytic in a strip of
    # half-width a decay like exp(-a m), so they fall below the cutoff
    # beyond mode floor(ln(1 / KERNEL_CUTOFF)) / a; at d = 0 this is
    # infinite, so a point on the arc takes N nodes
    with np.errstate(divide="ignore"):
        b_kernel = np.maximum(b_far + math.floor(-math.log(KERNEL_CUTOFF)) * rho / d[far],
                              b_phase)
    steps = np.searchsorted(sizes, 0.5 * (b_kernel + np.minimum(b_kernel + excess, b_sigma)))
    counts[far] = sizes[np.minimum(steps, len(sizes) - 1)]
    return counts


def near_field(sol: Solution, points: np.ndarray,
               mask_distance: Optional[float] = None) -> np.ndarray:
    """Scattered field at arbitrary points by node quadrature.

    ``points`` has shape (2,), which gives a scalar, or (P, 2).  Points
    closer to the arc than ``mask_distance`` (default: twice the maximum
    node spacing, below which the smooth rule degrades) are returned as
    NaN, as is a point on a node, whatever the mask.  A mask that is not
    a real number (a bool, say) raises TypeError.  No
    singularity-cancellation close evaluation is attempted.

    Each point is evaluated with the node rule on M <= N nodes, chosen
    from two bandwidths (Trefethen & Weideman, SIAM Rev. 56, 2014):

    * the density's, B_sigma: ``grids.chop`` of the cosine coefficients
      of the quadrature density (the layer density times tau, and times
      sin^2 theta for TM), 1 + its last mode above the tail's rounding
      plateau.  Where the coefficients end on a 1-2e-14 plateau (TE_S on
      the strip at L/lambda = 20, N = 512, at 15 or 141 degrees), chop
      reads about 100 modes where a 1e-14 cutoff read about 500;
    * the kernel's at distance d from the arc, B_K(d) = max(k rho +
      2 (k rho)^(1/3) + 8 + 32 rho / d, B_phase) with rho = max tau
      sin theta.  The first term assumes the integrand analytic in a
      strip of half-width about d / rho in theta (32 is
      ln(1 / ``KERNEL_CUTOFF``) rounded down); d is a lower bound on the
      distance: the distance to ``COARSE_NODES`` evenly picked nodes,
      less the arc length between them.  Far away that term tends to
      k rho + 2 (k rho)^(1/3) + 8, but the kernel's bandwidth tends to
      B_phase, the last cosine mode above ``KERNEL_CUTOFF`` of the
      far-field phase exp(-i k x . r), the most over the directions x of
      ``far_field``: on the spiral the strip stays about 0.5 wide at any
      distance, and B_phase is 355 against 282.5 for the first term
      plus E at L/lambda = 50.  B_phase is evaluated once per
      discretization.

    M is the smallest admissible size, between the fewest any point may
    take and N, that is at least (B_K + min(B_K + E, B_sigma)) / 2, with
    E = 10 (k rho)^(1/3) + 4: the M-node rule integrates cosine modes
    below 2M exactly, so the product of kernel and density is integrated
    exactly up to the cutoff.  B_K + E is the kernel's bandwidth at
    rounding level, by the excess rule of ``far_field`` (k rho +
    12 (k rho)^(1/3) + 12): density modes beyond it meet no kernel mode.
    The density is resampled by truncating its cosine coefficients to M
    modes.  The M-node points and normals, like B_phase, are evaluated
    once per discretization: the N-node frame, which every Solution of
    the discretization shares, keeps them (``NFrame.kept``).

    Points with d < ``mask_distance``, and every point when no admissible
    size below N suffices even far away (e.g. a marginal grid), take the
    N-node rule with no distance pass, and their values and NaN masks are
    those of the N-node rule bitwise.  On the 48 x 24 map of the strip at
    L/lambda = 20 with N = 512, the rule evaluates 0.26-0.27 of the P N
    kernel entries.  It agrees with the N-node rule to 1e-12 of
    max |u| on the strip, spiral, parabola and half-circle at points up
    to about 2 box sizes off the arc, at L/lambda up to 50 (the probes
    of ``test_near_field_on_fewer_nodes_matches_the_n_node_rule``), and
    at d = 15, 40 and 100 (the spiral at L/lambda = 10, 20 and 50, the
    others at 20: ``test_near_field_far_from_the_arc_matches_the_n_node_rule``,
    worst 1.5e-13).  Where k d is in the thousands the rounding of the
    Hankel argument, about eps k d, moves the N-node rule itself: on the
    strip at L/lambda = 20 and d = 100 (k d = 6283) one ulp of the
    points moves it by 1.0e-12, and the two rules differ by up to
    1.1e-12 (N = 256).

    Points are evaluated in chunks of about ``specfun.CHUNK_ENTRIES``
    kernel entries (32 points at N = 512), and a point's value does not
    depend on the chunk it falls in, nor on the other points of the call.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape != (2,) and (pts.ndim != 2 or pts.shape[1] != 2):
        raise ValueError(f"points must have shape (2,) or (P, 2), not {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    lone = pts.ndim == 1
    pts = pts.reshape(-1, 2)
    grid, k = sol.grid, sol.k
    frame = sol.frame
    if mask_distance is None:
        mask_distance = 2.0 * _max_spacing(frame.points)
    else:
        mask_distance = _real(mask_distance, "mask_distance")
        if not (np.isfinite(mask_distance) and mask_distance >= 0.0):
            raise ValueError("mask_distance must be finite and >= 0")
    tm = sol.formulation not in TE_FORMULATIONS
    density = _quadrature_density(sol)
    coeffs = coeffs_from_values(density)
    counts = _node_counts(pts, frame, grid, k, coeffs, mask_distance)
    out = np.empty(len(pts), dtype=complex)
    for m in map(int, np.unique(counts)):
        rows = np.flatnonzero(counts == m)
        if m == grid.n:
            nodes_xy, normals, values = frame.points, frame.normals, density
        else:
            reduced = frame.kept(("frame", m), lambda: n_frame(sol.arc, k, ThetaGrid(m)))
            nodes_xy, normals = reduced.points, reduced.normals
            values = values_from_coeffs(coeffs[:m])
        out[rows] = _layer_sums(pts[rows], nodes_xy, normals, values, k,
                                np.pi / m, mask_distance, tm)
    return out[0] if lone else out
