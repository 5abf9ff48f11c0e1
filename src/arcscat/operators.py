"""Discrete boundary-integral operators on the cosine-node grid.

Every action here maps node values (plain arrays) to node values.  The
arc and k enter only through the one object a solve holds per
discretization: the Nystrom matrix S, which carries the node frame
``NFrame`` (points, tau, normals, k^2 sin^2 theta) it was built from.
There are three groups.

* The flat-arc zero-frequency single layer S0, diagonal in the cosine
  basis with eigenvalues ln2/2, 1/(2m), enters through its eigenvalues
  (which also give the log-rule table below) and the exact inverse of
  its weighted variant S0_tau = S0 (tau .), the preconditioner of
  TE_ATKINSON.

* The Nystrom matrix of the weighted single-layer operator S at
  wavenumber k > 0.  The log-singular factor is integrated by the
  spectral product rule

      int_0^pi ln|cos t - cos t'| v(t') dt'
          ~ (pi/N) sum_j v(theta_j) R_j(theta),

  where R_j(theta_n) = r(|n-j|) + r(n+j+1) and the length-2N vector r
  is produced by a single FFT, so the N x N matrix assembles in
  O(N^2 log N).  S = K diag(w) with a kernel K that is symmetric to the
  last bit, so K is evaluated on the upper triangle only and stored
  once, as packed upper row blocks, assembled in place on the calling
  thread in row panels of one L2-sized chunk each.

* The hypersingular action N v = Ng v + (1/tau) D0 S T0_tau v
  (``n_apply``), applied as dense matvecs interleaved with fast
  transforms; the second-kind composition is n_apply of S v.  The
  smooth part Ng has the S kernel times k^2 (n . n') sin^2 theta', so
  it is applied through S as Ng v = k^2 sum_{c in x, y} n_c S(n_c
  sin^2 theta v) and never stored.  S v = K (w v) is applied by one
  pass over the stored row blocks of K, each serving its own rows and
  their mirror; the three S products of N share one such pass, so N
  reads the stored half of K from memory once and NS twice.
  ``operator_action`` is the one table of S, N, NS and S0invS, applied
  by GMRES; ``dense_operator`` is its dense matrix on the S its caller
  holds.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
import scipy.fft
from numpy.lib.stride_tricks import sliding_window_view

from . import specfun
from .geometry import Arc, eval_arc
from .grids import ThetaGrid, coeffs_from_values, d0_values, t0_values, values_from_coeffs
from .linalg import DENSE_CAP
from .specfun import _a1a2_offdiag, _a2_diagonal

# bytes of K per stored row block, the unit of the blocked S products
ROW_BLOCK_BYTES = 2 << 20


def _row_bounds(n: int) -> tuple:
    """Row bounds 0 = r_0 < r_1 < ... = n of the stored blocks K[r0:r1, r0:]:
    each block takes the rows that reach ``ROW_BLOCK_BYTES``, at least
    two, and the last block takes what is left, a single row included."""
    target = max(1, ROW_BLOCK_BYTES // 16)
    bounds = [0]
    while bounds[-1] < n:
        r0 = bounds[-1]
        r1 = min(n, r0 + max(2, -(-target // (n - r0))))
        bounds.append(n if n - r1 == 1 else r1)
    return tuple(bounds)


@dataclass(frozen=True)
class OperatorMatrix:
    """The Nystrom matrix S = K diag(weight) of one (arc, k, grid), with
    its provenance and the node frame of the same discretization.

    K is symmetric, so only its upper row blocks K[r0:r1, r0:] are kept,
    for consecutive bounds r0, r1 of ``rows``: ``entries`` holds them one
    after the other, each in row order, including the whole diagonal
    square of each block.  ``weight`` is w_j = (pi/N) tau_j, with tau
    from ``frame``."""

    n: int
    k: float
    arc: Arc
    entries: np.ndarray
    weight: np.ndarray
    rows: tuple
    frame: NFrame

    def blocks(self) -> list:
        """(r0, r1, K[r0:r1, r0:]) for every stored block, the block a 2-D
        view of ``entries``."""
        views, start = [], 0
        for r0, r1 in zip(self.rows, self.rows[1:]):
            stop = start + (r1 - r0) * (self.n - r0)
            views.append((r0, r1, self.entries[start:stop].reshape(r1 - r0, self.n - r0)))
            start = stop
        return views

    def dense(self) -> np.ndarray:
        """The full N x N matrix S, each entry K_ij w_j rounded once."""
        full = np.empty((self.n, self.n), dtype=self.entries.dtype)
        for r0, r1, block in self.blocks():
            full[r0:r1, r0:] = block
            full[r1:, r0:r1] = block[:, r1 - r0 :].T
        full *= self.weight
        return full


@dataclass(frozen=True)
class NFrame:
    """Node data of one (arc, k, grid): the points (N x 2), the speed tau,
    the unit normals (N x 2) and the Ng weight k^2 sin^2 theta.  It also
    keeps what ``kept`` has derived from its discretization (the near
    field's frames on fewer nodes, say), so every holder shares it."""

    points: np.ndarray
    tau: np.ndarray
    normals: np.ndarray
    ng_weight: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "_kept", {})

    def kept(self, key, make):
        """make(), evaluated on the first request for key and kept.
        Threads that race on a first request may each evaluate it, which
        wastes work but is correct when, as here, every evaluation of one
        key gives the same value."""
        if key not in self._kept:
            self._kept[key] = make()
        return self._kept[key]


def n_frame(arc: Arc, k: float, grid: ThetaGrid) -> NFrame:
    """Evaluate the arc frame at the nodes once, for any number of N
    applications, right-hand sides and field evaluations."""
    points, _, normals, tau = eval_arc(arc, np.cos(grid.nodes))
    return NFrame(points=points, tau=tau, normals=normals,
                  ng_weight=(k * k) * np.sin(grid.nodes) ** 2)


def s0_eigenvalues(n: int) -> np.ndarray:
    """Cosine-basis eigenvalues of the flat-arc log single layer S0 for
    modes 0..n-1: ln2/2 for m = 0, then 1/(2m)."""
    lam = np.empty(n)
    lam[0] = 0.5 * np.log(2.0)
    lam[1:] = 0.5 / np.arange(1, n)
    return lam


def s0_solve_values(values: np.ndarray) -> np.ndarray:
    """Exact inverse of the flat-arc single layer S0 (divide the cosine
    coefficients by its eigenvalues)."""
    c = coeffs_from_values(values)
    return values_from_coeffs(c / s0_eigenvalues(values.shape[-1]))


def s0tau_solve_values(frame: NFrame, values: np.ndarray) -> np.ndarray:
    """Exact inverse of the weighted flat-arc single layer S0 (tau .),
    with tau from the node frame."""
    return s0_solve_values(values) / frame.tau


# ---------------------------------------------------------------------------
# Log-kernel quadrature and Nystrom matrices
# ---------------------------------------------------------------------------
def build_log_quad(grid: ThetaGrid) -> np.ndarray:
    """FFT evaluation of r(l) = -sum_m (2 - delta_m0) lambda_m cos(m pi l / N),
    l = 0..2N-1, from which R_j(theta_n) = r(|n-j|) + r(n+j+1)."""
    n = grid.n
    c = np.zeros(2 * n)
    lam = s0_eigenvalues(n)
    c[0] = lam[0]
    c[1:n] = 2.0 * lam[1:]
    return -np.real(scipy.fft.fft(c))


def _kernel_panel(k, x, px, py, r, a2_diag, lo: int, hi: int, out) -> None:
    """Write the unweighted kernel A1 R + A2 of S on the upper-triangle
    row panel rows lo..hi-1, columns lo..N-1, with the coincidence limits
    on its diagonal, into ``out``, a view of that shape."""
    rows, cols = slice(lo, hi), slice(lo, None)
    dist = np.square(px[rows, None] - px[None, cols])
    dist += np.square(py[rows, None] - py[None, cols])
    np.sqrt(dist, out=dist)
    dcos = np.abs(x[rows, None] - x[None, cols])
    diag = (np.arange(hi - lo),) * 2
    dist[diag] = 1.0
    dcos[diag] = 1.0
    np.log(dcos, out=dcos)
    a1 = _a1a2_offdiag(k, dist, dcos, out)
    a1[diag] = -1.0 / (2.0 * np.pi)
    out[diag] = a2_diag
    # R_j(theta_n) = r(|n - j|) + r(n + j + 1): Toeplitz and Hankel views of r
    h, m = hi - lo, len(x) - lo
    rmat = (sliding_window_view(np.concatenate((r[h - 1 : 0 : -1], r[:m])), m)[::-1]
            + sliding_window_view(r[2 * lo + 1 : hi + len(x)], m))
    np.multiply(a1, rmat, out=rmat)
    out.real += rmat


def build_S_matrix(arc: Arc, k: float, grid: ThetaGrid) -> OperatorMatrix:
    """Nystrom matrix of the weighted single-layer operator at k > 0.

    Entry (n, j) is (pi/N) tau_j (A1(n,j) R_j(theta_n) + A2(n,j)); applied
    to node samples it realizes the spectral quadrature of the weighted
    single-layer integral.  S = K diag(w) with w_j = (pi/N) tau_j, and
    the kernel K is symmetric to the last bit, because R, the distances
    and the cosine gaps are.  So K is evaluated on the upper triangle
    only and stored once, unweighted, in the row blocks of
    ``OperatorMatrix`` (sized by ``ROW_BLOCK_BYTES`` for the products).
    The build walks those blocks and assembles each in place, in row
    panels of about ``specfun.CHUNK_ENTRIES`` entries (one row at least)
    that end at their block's last row, so a panel's temporaries fit in
    L2 and its diagonal square, evaluated whole, stays small.  Each
    panel's A1 R + A2 is written straight into its rows of the block,
    and the part of the block's diagonal square left of the panel is
    filled by a transpose copy of the block's earlier rows; no panel is
    held apart from S.  Every step, J0/Y0 included, runs on the calling
    thread.  ``dense()`` is bitwise the same as a serial full-matrix
    build.  The log-rule vector comes from one FFT, for an overall
    O(N^2 log N) build.  The arc is evaluated once, by ``n_frame``, and S
    keeps that frame; every array of the returned S and its frame is
    read-only.
    """
    if not np.isfinite(k):
        raise ValueError("build_S_matrix requires a finite wavenumber")
    if k <= 0.0:
        raise ValueError("build_S_matrix requires k > 0; the flat-arc k = 0 "
                         "operator is diagonal in the cosine basis, see s0_eigenvalues")
    n = grid.n
    x = np.cos(grid.nodes)
    frame = n_frame(arc, k, grid)
    px, py = (np.ascontiguousarray(c) for c in frame.points.T)
    r = build_log_quad(grid)
    a2_diag = _a2_diagonal(k, frame.tau)

    rows = _row_bounds(n)
    size = sum((r1 - r0) * (n - r0) for r0, r1 in zip(rows, rows[1:]))
    s = OperatorMatrix(n=n, k=k, arc=arc, entries=np.empty(size, dtype=complex),
                       weight=(np.pi / n) * frame.tau, rows=rows, frame=frame)
    for r0, r1, block in s.blocks():
        lo = r0
        while lo < r1:
            hi = min(r1, lo + max(1, specfun.CHUNK_ENTRIES // (n - lo)))
            _kernel_panel(k, x, px, py, r, a2_diag[lo:hi], lo, hi,
                          block[lo - r0 : hi - r0, lo - r0 :])
            block[lo - r0 : hi - r0, : lo - r0] = block[: lo - r0, lo - r0 : hi - r0].T
            lo = hi
    for values in (s.entries, s.weight, *(getattr(frame, f.name) for f in fields(frame))):
        values.flags.writeable = False
    return s


def _s_products(s: OperatorMatrix, vectors) -> np.ndarray:
    """Entry i of the result is S applied to vectors[i], a density or a
    stack of densities along the last axis: K (w v) in one pass over the
    stored blocks of K.  Block K[r0:r1, r0:] gives rows r0..r1-1 of the
    product, and its part right of the diagonal square, transposed, adds
    to the rows below.  The blocks are walked from the last one up, so
    each block's rows are set before the blocks above add to them.  Each
    block is read from memory once and stays in L2 for the other
    products."""
    us = [(s.weight * v).T for v in vectors]
    out = np.empty((len(vectors), *vectors[0].shape), dtype=complex)
    ys = [y.T for y in out]
    for r0, r1, block in reversed(s.blocks()):
        mirror = block[:, r1 - r0 :].T
        for y, u in zip(ys, us):
            y[r0:r1] = block @ u[r0:]
            if r1 < s.n:
                y[r1:] += mirror @ u[r0:r1]
    return out


def _n_terms(s: OperatorMatrix, values: np.ndarray):
    """The two terms of N v on the node frame of S: the smooth part
    Ng v = k^2 sum_c n_c S(n_c sin^2 theta v) and (1/tau) D0 S T0_tau v.
    Their three S products share one blocked pass over S."""
    frame = s.frame
    w = frame.ng_weight * values
    normals = frame.normals.T
    *ng_products, pv = _s_products(s, [*(n_c * w for n_c in normals),
                                       t0_values(values) / frame.tau])
    ng = sum(n_c * y for n_c, y in zip(normals, ng_products))
    return ng, d0_values(pv) / frame.tau


def n_apply(s: OperatorMatrix, values: np.ndarray) -> np.ndarray:
    """Hypersingular pipeline Ng v + (1/tau) D0 S T0_tau v on raw samples
    (a density, or a stack of densities along the last axis)."""
    ng, pv = _n_terms(s, values)
    return ng + pv


def operator_action(name: str, s: OperatorMatrix):
    """The action on a density, or on a stack of densities along the last
    axis, of ``S`` (weighted single layer), ``N`` (weighted
    hypersingular), ``NS`` (second-kind composition) or ``S0invS``
    (single layer preconditioned by the inverse of S0 (tau .))."""
    def s_apply(values):
        return _s_products(s, [values])[0]

    actions = {
        "S": s_apply,
        "N": lambda values: n_apply(s, values),
        "NS": lambda values: n_apply(s, s_apply(values)),
        "S0invS": lambda values: s_apply(s0tau_solve_values(s.frame, values)),
    }
    if name not in actions:
        raise ValueError(f"unknown operator name {name!r}; expected S, N, NS or S0invS")
    return actions[name]


def dense_operator(name: str, s: OperatorMatrix) -> np.ndarray:
    """Dense matrix of ``operator_action(name, s)``: for ``"S"`` a new
    array ``s.dense()``, else the action on the identity, applied to
    stacks of about N/8 of its columns at a time, so that the action's
    temporaries (about 12 densities per density for N) stay below twice
    the result.  The name and N <= ``DENSE_CAP`` are checked first."""
    action, n = operator_action(name, s), s.n
    if n > DENSE_CAP:
        raise ValueError(f"dense assembly capped at {DENSE_CAP}, requested {n}")
    if name == "S":
        return s.dense()
    dense = np.empty((n, n), dtype=complex)
    step = -(-n // 8)
    for c0 in range(0, n, step):
        c1 = min(n, c0 + step)
        dense[:, c0:c1] = action(np.eye(c1 - c0, n, c0)).T
    return dense
