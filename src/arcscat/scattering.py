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

A solve evaluates the arc once per discretization: the right-hand side
comes from its node frame (``te_data`` / ``tm_data`` of the frame's
points and normals), and every ``Solution`` carries that frame and its
layer density, which its density recovery and field evaluations read.
Densities and data are plain arrays of node values.

Far fields use the normalization

    TE:  u_inf(d_obs) = int_0^pi e^{-i k d_obs . r} phi tau dtheta
    TM:  v_inf(d_obs) = int_0^pi (-i k d_obs . n) e^{-i k d_obs . r}
                               psi_eff tau sin^2 theta dtheta

(the overall radiating-cylinder constant is dropped; only relative
far-field quantities are reported).
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.fft

from .geometry import Arc
from .grids import (
    ThetaGrid,
    coeffs_from_values,
    nearest_admissible,
    theta_grid,
    values_from_coeffs,
)
from .linalg import DENSE_CAP, SolveReport, gmres
from .operators import (
    NFrame,
    OperatorMatrix,
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


@dataclass(frozen=True)
class Incidence:
    """Incident plane wave: propagation angle (degrees from +x) and k."""

    angle_deg: float
    k: float

    def __post_init__(self):
        if not np.isfinite(self.angle_deg):
            raise ValueError("incidence angle must be finite")
        if not (np.isfinite(self.k) and self.k > 0.0):
            raise ValueError("wavenumber must be finite and positive")

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


def te_data(points: np.ndarray, inc: Incidence) -> np.ndarray:
    """Dirichlet data f = -u_inc at the given points (the frame's nodes)."""
    phase = points @ inc.direction
    return -np.exp(1j * inc.k * phase)


def tm_data(points: np.ndarray, normals: np.ndarray, inc: Incidence) -> np.ndarray:
    """Neumann data g = -du_inc/dn at the given points and unit normals."""
    phase = points @ inc.direction
    dn = normals @ inc.direction
    return -1j * inc.k * dn * np.exp(1j * inc.k * phase)


@dataclass(frozen=True)
class _Discretization:
    """The incidence-independent part of a solve: S and the N frame of
    the (arc, k, grid) S records, with the builder that assembled S."""

    builder: object
    s: OperatorMatrix
    frame: NFrame

    def matches(self, arc: Arc, k: float, grid: ThetaGrid) -> bool:
        # Arc identity, not equality: Arc.__eq__ ignores the
        # parameterization callables.  A builder since replaced (patched
        # or instrumented) must assemble its own S.
        return (self.s.arc is arc and self.s.k == k and self.s.n == grid.n
                and self.builder is build_S_matrix)


# One-slot memo of the last discretization solved on.  It is read once
# and replaced by one assignment, without a lock: threads that race on a
# miss may each build S, which wastes work but is correct, since every
# build of one discretization gives the same S.
_last: Optional[_Discretization] = None


def _discretize(arc: Arc, k: float, grid: ThetaGrid):
    """S and the N frame of (arc, k, grid), both read-only, reused from
    the previous solve or ``dense_operator`` when it ran on the same
    discretization, with the seconds spent assembling S (0.0 on reuse)."""
    global _last
    last = _last
    if last is not None and last.matches(arc, k, grid):
        return last.s, last.frame, 0.0
    # Empty the slot before building, so that the old S is freed first
    # and two of them are never resident at once.
    _last = last = None
    builder = build_S_matrix
    start = time.perf_counter()
    s = builder(arc, k, grid)
    mat_seconds = time.perf_counter() - start
    frame = n_frame(arc, k, grid)
    for values in (s.entries, s.weight, frame.points, frame.tau, frame.normals,
                   frame.ng_weight):
        values.flags.writeable = False
    _last = _Discretization(builder=builder, s=s, frame=frame)
    return s, frame, mat_seconds


def solve(formulation: str, arc: Arc, inc: Incidence, grid: ThetaGrid,
          tol: float = 1e-8, maxit: int = 2000) -> Solution:
    """Run GMRES on the chosen equation, with S assembled once per
    discretization.

    S is the only stored matrix, and it keeps each entry of its
    symmetric kernel once: the N pipeline applies its smooth part Ng
    through S as well, and N's three S products share one pass over the
    stored blocks, so an N application costs one pass and an NS
    application two.

    S and the N frame depend on the arc, k and the grid, not on the
    incidence or the formulation, so a solve on the same ``arc`` object,
    k and grid size as the last solve or ``dense_operator`` reuses them
    and reports ``mat_seconds`` = 0.0.  The memo alone holds S: the last
    S stays resident until a solve on another discretization replaces it
    (331 MB at N = 6400), and no Solution keeps it alive.

    Returns a Solution whose ``report`` carries the iteration count and
    residual history; ``report.converged`` is False when maxit was hit.
    """
    if formulation not in FORMULATIONS:
        raise ValueError(f"unknown formulation {formulation!r}; expected one of {FORMULATIONS}")
    k = inc.k
    s, frame, mat_seconds = _discretize(arc, k, grid)
    action = operator_action(_OPERATORS[formulation], frame, s)
    if formulation in TE_FORMULATIONS:
        b = te_data(frame.points, inc)
    else:
        b = tm_data(frame.points, frame.normals, inc)
    if formulation == "TE_NS":
        b = operator_action("N", frame, s)(b)
    x, report = gmres(action, b, tol=tol, maxit=maxit)
    layer = x
    if formulation == "TM_NS":
        layer = operator_action("S", frame, s)(x)
    elif formulation == "TE_ATKINSON":
        layer = s0tau_solve_values(frame, x)
    return Solution(formulation=formulation, density=x, layer_density=layer, report=report,
                    arc=arc, k=k, grid=grid, incidence=inc, frame=frame,
                    mat_seconds=mat_seconds)


def dense_operator(name: str, arc: Arc, k: float, grid: ThetaGrid) -> np.ndarray:
    """Dense matrix of ``operator_action(name, ...)``, the action GMRES
    applies, on the S and frame a solve on (arc, k, grid) shares and
    leaves resident: for ``"S"`` a new array ``S.dense()``, else the
    action on the identity stack.  Name and size are checked before S is
    built."""
    if name not in _OPERATORS.values():
        raise ValueError(f"unknown operator name {name!r}; expected S, N, NS or S0invS")
    if grid.n > DENSE_CAP:
        raise ValueError(f"dense assembly capped at {DENSE_CAP}, requested {grid.n}")
    s, frame, _ = _discretize(arc, k, grid)
    if name == "S":
        return s.dense()
    return operator_action(name, frame, s)(np.eye(grid.n)).T


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
    comes from the same matrix applied to the conjugated columns.
    """
    m = len(obs)
    half = m // 2 if m % 2 == 0 else m
    phase = -1j * k * (obs[:half] @ points.T)  # (half, n)
    np.exp(phase, out=phase)
    if half == m:
        return phase @ cols
    top, bottom = np.split(phase @ np.hstack((cols, cols.conj())), 2, axis=1)
    return np.concatenate((top, bottom.conj()))  # (m, columns)


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
    return scipy.fft.ifft(padded, axis=0) * (m / count)


def far_field(sol: Solution, m: int) -> FarField:
    """Far-field samples at m uniformly spaced observation angles.

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
    exponentials of half its directions only (see ``_phase_sums``).
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
    center = 0.5 * (points.min(axis=0) + points.max(axis=0))
    kr = k * float(np.max(np.hypot(*(points - center).T)))
    samples = 2 * math.ceil(kr + 12.0 * np.cbrt(kr) + 12.0) + 2
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
        values = (-1j * k * w) * np.sum(obs * sums, axis=1)
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


# Kernel entries per point chunk of near_field: a chunk's distance, kernel
# and Hankel temporaries then take about 5 MB, whatever N and the number
# of points.
NEAR_CHUNK_ENTRIES = 1 << 16
# Cosine modes of the near-field density below this share of its peak are
# dropped when the density is resampled to fewer nodes.
DENSITY_CUTOFF = 1e-14
# ln(1 / DENSITY_CUTOFF), rounded down: the cosine coefficients of an
# integrand analytic in a strip of half-width a decay like exp(-a m), so
# they fall below the cutoff beyond mode CUTOFF_EFOLDS / a.
CUTOFF_EFOLDS = 32.0
# Arc nodes the distance bound of near_field measures against.
COARSE_NODES = 64


def _layer_sums(pts: np.ndarray, nodes_xy: np.ndarray, normals: np.ndarray,
                density: np.ndarray, k: float, w: float, mask_distance: float,
                tm: bool) -> np.ndarray:
    """w * sum_j K(x, r_j) density_j at each point x, where K is the
    single-layer (TE) or double-layer (TM) kernel; points closer than
    ``mask_distance`` to a node are NaN."""
    count = len(pts)
    if count == 1:
        # a lone point is evaluated as a two-row block, like any other
        pts = np.vstack((pts, pts))
    n = len(nodes_xy)
    # Near-equal chunks of at least two points: a one-row product takes
    # another BLAS path and may differ in the last bit.
    chunks = max(1, min(len(pts) // 2, -(-len(pts) * n // NEAR_CHUNK_ENTRIES)))
    out = np.empty(len(pts), dtype=complex)
    for c in range(chunks):
        rows = slice(len(pts) * c // chunks, len(pts) * (c + 1) // chunks)
        block = pts[rows]
        dx = block[:, 0][:, None] - nodes_xy[:, 0][None, :]
        dy = block[:, 1][:, None] - nodes_xy[:, 1][None, :]
        dist = np.hypot(dx, dy)
        near = dist.min(axis=1) < mask_distance
        dist[dist == 0.0] = 1.0  # masked anyway
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


def _node_ladder(n: int, fewest: float) -> np.ndarray:
    """n and the admissible sizes at half-octave steps below it that are
    at least ``fewest``, ascending."""
    sizes, target = [n], n / math.sqrt(2.0)
    while (size := nearest_admissible(round(target))) >= fewest and size < sizes[-1]:
        sizes.append(size)
        target /= math.sqrt(2.0)
    return np.array(sizes[::-1])


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
    mags = np.abs(coeffs)
    above = np.flatnonzero(mags > DENSITY_CUTOFF * mags.max())
    b_sigma = above[-1] + 1.0 if above.size else 1.0
    rho = float(np.max(frame.tau * np.sin(grid.nodes)))
    b_far = k * rho + 2.0 * np.cbrt(k * rho) + 8.0

    counts = np.full(len(pts), n)
    ladder = _node_ladder(n, 0.5 * (b_far + b_sigma))
    if len(ladder) == 1:
        return counts
    d = _distance_bound(pts, frame.points, rho)
    far = d >= mask_distance  # so d >= 0
    with np.errstate(divide="ignore"):
        b_kernel = b_far + CUTOFF_EFOLDS * rho / d[far]
    steps = np.searchsorted(ladder, 0.5 * (b_kernel + b_sigma))
    counts[far] = ladder[np.minimum(steps, len(ladder) - 1)]
    return counts


def near_field(sol: Solution, points: np.ndarray,
               mask_distance: Optional[float] = None) -> np.ndarray:
    """Scattered field at arbitrary points by node quadrature.

    ``points`` has shape (2,), which gives a scalar, or (P, 2).  Points
    closer to the arc than ``mask_distance`` (default: twice the maximum
    node spacing, below which the smooth rule degrades) are returned as
    NaN.  No singularity-cancellation close evaluation is attempted.

    Each point is evaluated with the node rule on M <= N nodes, chosen
    from two bandwidths (Trefethen & Weideman, SIAM Rev. 56, 2014):

    * the density's, B_sigma: 1 + the last cosine mode of the quadrature
      density (the layer density times tau, and times sin^2 theta for
      TM) above ``DENSITY_CUTOFF`` (1e-14) of its peak;
    * the kernel's at distance d from the arc, B_K(d) = k rho +
      2 (k rho)^(1/3) + 8 + 32 rho / d with rho = max tau sin theta: the
      integrand is analytic in a strip of half-width about d / rho in
      theta, and 32 (``CUTOFF_EFOLDS``) is ln(1e14).  d is a lower bound
      on the distance: the distance to ``COARSE_NODES`` evenly picked
      nodes, less the arc length between them.

    M is the smallest size of a ladder, N and the admissible sizes at
    half-octave steps below it, that is at least (B_K + B_sigma) / 2:
    the M-node rule integrates cosine modes below 2M exactly, so the
    product of kernel and density is integrated exactly up to the
    cutoff, and as M >= min(B_sigma, B_K), the density modes beyond M
    meet no kernel mode.  The density is resampled by truncating its
    cosine coefficients to M modes, and the M-node points and normals
    come from ``n_frame`` once per distinct M.
    Points with d < ``mask_distance``, and every point when no ladder
    size below N suffices even far away (e.g. a marginal grid), take the
    N-node rule with no distance pass, and their values and NaN masks
    are those of the N-node rule bitwise.  On the 48 x 24 map of the
    strip at L/lambda = 20 with N = 512 (B_sigma about 100), the rule
    evaluates 0.3 of the P N kernel entries, and agrees with the N-node
    rule to 1e-14 of max |u| (1e-12 on strip, spiral, parabola and
    half-circle at L/lambda up to 50).

    Points are evaluated in chunks of about ``NEAR_CHUNK_ENTRIES`` kernel
    entries (128 points at N = 512), and a point's value does not depend
    on the chunk it falls in, nor on the other points of the call.
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
    elif not (np.isfinite(mask_distance) and mask_distance >= 0.0):
        raise ValueError("mask_distance must be finite and >= 0")
    tm = sol.formulation not in TE_FORMULATIONS
    density = _quadrature_density(sol)
    coeffs = coeffs_from_values(density)
    counts = _node_counts(pts, frame, grid, k, coeffs, mask_distance)
    out = np.empty(len(pts), dtype=complex)
    for m in np.unique(counts):
        rows = np.flatnonzero(counts == m)
        if m == grid.n:
            nodes_xy, normals, values = frame.points, frame.normals, density
        else:
            reduced = n_frame(sol.arc, k, theta_grid(m))
            nodes_xy, normals = reduced.points, reduced.normals
            values = values_from_coeffs(coeffs[:m])
        out[rows] = _layer_sums(pts[rows], nodes_xy, normals, values, k,
                                np.pi / m, mask_distance, tm)
    return out[0] if lone else out


def incident_field(inc: Incidence, points: np.ndarray) -> np.ndarray:
    """u_inc = exp(i k d . r) at the given points."""
    pts = np.asarray(points, dtype=float)
    return np.exp(1j * inc.k * (pts @ inc.direction))
