"""The benchmark's workloads, their seeded inputs, the closed solve loop
and its correctness gates.

Each workload is a set of incidence angles (one "pass") solved in a
closed loop with one client: a solve starts only after the previous one
has finished.  One *case* is one incidence angle solved for each of the
workload's formulations, each followed by a 720-sample far field and,
on the field-map workload, a near field on a pixel rectangle.  The
first pass always completes; further passes repeat the same angles
while the time budget lasts.

Gates (each counted as one attempt, a failure or exception counted as
one failure, never dropped):

* every solve: ``converged`` and the true final residual <= 10 tol;
  on the fixed-input workloads, also the far field against the
  reference stored in ``perfbench/refs`` (written by ``make_refs.py``);
* the sweep: far-field reciprocity u(x; d) = u(-d; -x) over every pair
  of incidences of a pass, which needs angles on the 0.5 degree grid;
* the field map: a seeded sample of near-field points against direct
  quadrature of the same density with ``scipy.special.hankel1``.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
import traceback
from pathlib import Path

import numpy as np
import scipy.special

TOL = 1e-8
FAR_SAMPLES = 720
RESIDUAL_FACTOR = 10.0
# A reference far field is reproduced to ~1e-9 by any solve at TOL; an
# error above REFERENCE_TOL means the discrete solution changed.
REFERENCE_TOL = 1e-6
# Reciprocity holds to 1e-9..5e-9 at TOL; 1e-6 is the discretization
# error of the sweep's N = 400 grid at L/lambda = 50.
RECIPROCITY_TOL = 1e-6
# specfun's J1/Y1 are good to ~1e-10 relative.
ORACLE_TOL = 1e-8
ORACLE_POINTS = 24

REF_DIR = Path(__file__).resolve().parent / "refs"


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    arc: str
    ratio: float
    n: int
    formulations: tuple
    sweep_angles: int = 0         # > 0: that many seeded angles per pass
    seeded_angle: bool = False    # one seeded angle in [15, 165] degrees
    near_res: tuple | None = None  # (width, height) of the near-field map
    near_rect: tuple = (-2.0, -1.5, 2.0, 1.5)
    reference: bool = False       # fixed inputs checked against refs/
    thread_baseline: bool = False  # traced run repeats the pass at 1 thread


WORKLOADS = {
    w.name: w for w in (
        Workload("tmns_spiral800", "spiral", 800.0, 6400, ("TM_NS",),
                 reference=True, thread_baseline=True),
        Workload("tmn_spiral200", "spiral", 200.0, 1600, ("TM_N",), reference=True),
        Workload("rcs_sweep_spiral50", "spiral", 50.0, 400, ("TE_S", "TM_NS"),
                 sweep_angles=24),
        Workload("fieldmap_strip20", "strip", 20.0, 512, ("TE_S", "TM_NS"),
                 seeded_angle=True, near_res=(48, 24)),
    )
}

# Same structure at toy sizes, for the benchmark's own tests.
SMOKE = {
    "tmns_spiral800": dict(ratio=10.0, n=160),
    "tmn_spiral200": dict(ratio=10.0, n=160),
    "rcs_sweep_spiral50": dict(ratio=5.0, n=64, sweep_angles=6),
    "fieldmap_strip20": dict(ratio=4.0, n=64, near_res=(16, 8)),
}


def get_workload(name: str, smoke: bool = False) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}")
    w = WORKLOADS[name]
    return dataclasses.replace(w, **SMOKE[name]) if smoke else w


def reference_path(w: Workload) -> Path:
    return REF_DIR / f"{w.name}-{w.arc}-{w.ratio:g}-{w.n}.npy"


@dataclasses.dataclass(frozen=True)
class Inputs:
    angles: tuple            # incidence angles of one pass, degrees
    oracle_order: tuple      # near-field point indices to try for the oracle


def make_inputs(w: Workload, seed: int) -> Inputs:
    """Everything the seed decides; the library only sees these values."""
    rng = np.random.default_rng(seed)
    if w.sweep_angles:
        angles = 0.5 * rng.choice(720, size=w.sweep_angles, replace=False)
    elif w.seeded_angle:
        angles = [0.5 * rng.integers(30, 331)]
    else:
        angles = [90.0]
    order = rng.permutation(w.near_res[0] * w.near_res[1]) if w.near_res else []
    return Inputs(tuple(float(a) for a in angles), tuple(int(i) for i in order))


def near_points(w: Workload) -> np.ndarray:
    x0, y0, x1, y1 = w.near_rect
    gx, gy = np.meshgrid(np.linspace(x0, x1, w.near_res[0]), np.linspace(y1, y0, w.near_res[1]))
    return np.column_stack([gx.ravel(), gy.ravel()])


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------
def reciprocity_errors(fields: dict, angles) -> list[float]:
    """|u(a2 + 180; a1) - u(a1 + 180; a2)| / max|u| for each angle pair.

    ``fields[a]`` holds the far field for incidence angle ``a`` on the
    720-sample observation grid.
    """
    done = [a for a in angles if a in fields]
    if not done:
        return []
    scale = max(float(np.max(np.abs(fields[a]))) for a in done)
    step = 360.0 / FAR_SAMPLES
    errs = []
    for i, a1 in enumerate(done):
        for a2 in done[i + 1:]:
            j12 = int(round(((a2 + 180.0) % 360.0) / step))
            j21 = int(round(((a1 + 180.0) % 360.0) / step))
            errs.append(abs(fields[a1][j12] - fields[a2][j21]) / scale)
    return errs


def near_field_oracle(sol, points: np.ndarray, modules) -> np.ndarray:
    """Direct node quadrature of the layer potential with scipy's Hankel
    functions, on the density the solve produced."""
    geometry, scattering = modules["geometry"], modules["scattering"]
    grid, k = sol.grid, sol.k
    nodes, _, normals, tau = geometry.eval_arc(sol.arc, np.cos(grid.nodes))
    d = points[:, None, :] - nodes[None, :, :]
    r = np.hypot(d[..., 0], d[..., 1])
    if sol.formulation in scattering.TE_FORMULATIONS:
        density = scattering.te_layer_density(sol) * tau
        kernel = 0.25j * scipy.special.hankel1(0, k * r)
    else:
        density = scattering.tm_layer_density(sol) * tau * np.sin(grid.nodes) ** 2
        kernel = (0.25j * k) * scipy.special.hankel1(1, k * r) * np.einsum("pjc,jc->pj", d, normals) / r
    return (np.pi / grid.n) * (kernel @ density)


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class LoopResult:
    case_solve_s: list = dataclasses.field(default_factory=list)  # mean per solve, per case
    case_wall_s: list = dataclasses.field(default_factory=list)
    solves: int = 0
    first_pass_iters: int = 0
    attempted: int = 0
    failed: int = 0
    ff_err: float = 0.0
    nf_err: float = 0.0
    start: float = 0.0
    end: float = 0.0


class Problem:
    """Arc, wavenumber, grid and the fixed data of one workload."""

    def __init__(self, w: Workload, inputs: Inputs, modules):
        self.w, self.inputs, self.m = w, inputs, modules
        self.arc = modules["geometry"].make_arc(w.arc)
        self.k = modules["geometry"].wavenumber_for_ratio(self.arc, w.ratio)
        self.grid = modules["grids"].theta_grid(w.n)
        self.points = near_points(w) if w.near_res else None
        self.reference = np.load(reference_path(w)) if w.reference else None


def run_loop(p: Problem, seconds: float, tracer=None) -> LoopResult:
    """Run passes over the inputs' angles until ``seconds`` would be
    exceeded by one more case (the first pass always completes)."""
    check = tracer.call if tracer is not None else (lambda _name, fn, *a: fn(*a))
    res = LoopResult()
    angles = p.inputs.angles
    res.start = time.perf_counter()
    i = 0
    while True:
        pass_index, a = divmod(i, len(angles))
        if pass_index == 0 and a == 0:
            fields = {f: {} for f in p.w.formulations}
        elif a == 0:
            _reciprocity_gate(p, fields, res, check)
            fields = {f: {} for f in p.w.formulations}
        t0 = time.perf_counter()
        _run_case(p, angles[a], pass_index == 0, fields, res, check)
        res.case_wall_s.append(time.perf_counter() - t0)
        i += 1
        elapsed = time.perf_counter() - res.start
        if i >= len(angles) and elapsed + statistics.median(res.case_wall_s) > seconds:
            break
    _reciprocity_gate(p, fields, res, check)
    res.end = time.perf_counter()
    return res


def _run_case(p: Problem, angle: float, first_pass: bool, fields, res: LoopResult, check):
    scattering = p.m["scattering"]
    inc = scattering.Incidence(angle, p.k)
    solve_s, solved = 0.0, 0
    for form in p.w.formulations:
        res.attempted += 1
        try:
            t0 = time.perf_counter()
            sol = scattering.solve(form, p.arc, inc, p.grid, tol=TOL)
            ff = scattering.far_field(sol, FAR_SAMPLES)
            t1 = time.perf_counter()
        except Exception:
            traceback.print_exc()
            res.failed += 1
            continue
        solve_s += t1 - t0
        solved += 1
        res.solves += 1
        if first_pass:
            res.first_pass_iters += sol.report.iterations
        if not check("bench.check", _solve_ok, p, form, sol, ff, res):
            res.failed += 1
        fields[form][angle] = ff.values
        if p.points is not None:
            try:
                near = scattering.near_field(sol, p.points)
                check("bench.check", _oracle_gate, p, sol, near, res)
            except Exception:
                traceback.print_exc()
                res.attempted += 1
                res.failed += 1
        del sol
    if solved:
        res.case_solve_s.append(solve_s / solved)


def _solve_ok(p: Problem, form: str, sol, ff, res: LoopResult) -> bool:
    rep = sol.report
    ok = bool(rep.converged) and rep.final_residual <= RESIDUAL_FACTOR * TOL
    if not ok:
        print(f"gate: {p.w.name} {form} at {sol.incidence.angle_deg} deg: converged="
              f"{rep.converged} final residual {rep.final_residual:.3e}")
    if p.reference is not None:
        ref = p.reference[p.w.formulations.index(form)]
        err = float(np.max(np.abs(ff.values - ref)) / np.max(np.abs(ref)))
        res.ff_err = max(res.ff_err, err)
        if not err <= REFERENCE_TOL:
            print(f"gate: {p.w.name} {form} far field differs from reference by {err:.3e}")
            ok = False
    return ok


def _oracle_gate(p: Problem, sol, near: np.ndarray, res: LoopResult) -> None:
    finite = [i for i in p.inputs.oracle_order if np.isfinite(near[i])][:ORACLE_POINTS]
    expect = near_field_oracle(sol, p.points[finite], p.m)
    scale = float(np.max(np.abs(expect)))
    errs = np.abs(near[finite] - expect) / scale
    res.nf_err = max(res.nf_err, float(np.max(errs)))
    bad = int(np.sum(~(errs <= ORACLE_TOL)))
    short = len(finite) < ORACLE_POINTS  # too few unmasked points is a failure too
    res.attempted += len(finite) + short
    res.failed += bad + short
    if bad or short:
        print(f"gate: {p.w.name} {sol.formulation}: {bad} near-field points off the oracle "
              f"(max {np.max(errs):.3e}), {len(finite)} checked")


def _reciprocity_gate(p: Problem, fields, res: LoopResult, check) -> None:
    if not p.w.sweep_angles:
        return

    def gate():
        for form, by_angle in fields.items():
            errs = reciprocity_errors(by_angle, p.inputs.angles)
            res.attempted += len(errs)
            bad = sum(not e <= RECIPROCITY_TOL for e in errs)
            res.failed += bad
            if errs:
                res.ff_err = max(res.ff_err, max(errs))
            if bad:
                print(f"gate: {p.w.name} {form}: {bad} of {len(errs)} reciprocity pairs "
                      f"off by more than {RECIPROCITY_TOL:g} (max {max(errs):.3e})")

    check("bench.check", gate)
