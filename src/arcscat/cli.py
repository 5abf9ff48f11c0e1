"""Command-line experiment drivers.

Subcommands
-----------
solve     one scattering solve; writes farfield.csv, density.csv, report.txt
spectrum  dense eigenvalues of the discretized operators; writes eigs_*.csv
converge  far-field self-convergence over a list of grid sizes
fieldmap  total-field map on a rectangle; writes fieldmap.csv/.pgm/.meta
tables    iteration-count/timing tables for the canonical geometries

All CSV output uses '.' decimals, ',' separators, '\n' line endings, a
single header line, and 17 significant digits, so repeated runs with
identical flags are byte-identical (timing columns excepted: they only
appear in report.txt and in the tables command).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import scattering
from .geometry import ARC_KINDS, make_arc, wavenumber_for_ratio
from .grids import nearest_admissible, theta_grid
from .linalg import DENSE_CAP, eig_dense
from .operators import dense_operator
from .scattering import (
    FORMULATIONS,
    Incidence,
    far_field,
    far_field_error,
    incident_field,
    near_field,
    solve,
)

# The bytes per --obs direction that a command takes at its peak, as
# tracemalloc counts them: 88 for a TM far field, plus 24 for each far
# field held meanwhile (one in solve's self-check and in converge, two in
# a self-checked table).
FAR_FIELD_BYTES = 144

_SPECTRUM_NAMES = {"S": "S", "N": "N", "NS": "NS", "ATK": "S0invS", "S0invS": "S0invS"}

_TABLE_ROWS = [(50.0, 400), (200.0, 1600), (800.0, 6400)]
_TABLE_SPECS = {
    "strip-te": ("strip", ["TE_S", "TE_NS"]),
    "spiral-te": ("spiral", ["TE_S", "TE_NS"]),
    "strip-tm": ("strip", ["TM_N", "TM_NS"]),
    "spiral-tm": ("spiral", ["TM_N", "TM_NS"]),
    "atkinson": ("spiral", ["TE_ATKINSON"]),
}


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path: Path, header: str, rows) -> None:
    """Write the header and the rows line by line, so a long table is
    never held as text."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _parse_floats(text: str, count: int | None = None, name: str = "value"):
    try:
        vals = [float(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise SystemExit(f"error: could not parse {name} list {text!r}")
    if count is not None and len(vals) != count:
        raise SystemExit(f"error: {name} expects {count} comma-separated values")
    return vals


def _make_arc(args):
    params = _parse_floats(args.arc_params, name="--arc-params") if args.arc_params else []
    try:
        return make_arc(args.arc, params)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _wavenumber(args, arc):
    if (args.ratio is None) == (args.k is None):
        raise SystemExit("error: provide exactly one of --ratio and --k")
    value = args.ratio if args.ratio is not None else args.k
    if not (np.isfinite(value) and value > 0.0):
        raise SystemExit("error: wavenumber must be finite and positive")
    return wavenumber_for_ratio(arc, args.ratio) if args.ratio is not None else args.k


def _grid(n: int):
    try:
        return theta_grid(n)
    except ValueError as exc:  # not admissible, or too large to allocate
        raise SystemExit(f"error: {exc}")


def _problem(args):
    """The arc, incidence and formulation that the shared flags spell;
    --pol and --form name one of ``FORMULATIONS``, with ATK for ATKINSON."""
    arc = _make_arc(args)
    inc = Incidence(angle_deg=args.inc_deg, k=_wavenumber(args, arc))
    # ATK is the one alias; ATKINSON itself becomes ATKINSONINSON and is rejected
    formulation = f"{args.pol}_{args.form}".replace("ATK", "ATKINSON")
    if formulation not in FORMULATIONS:
        raise SystemExit(f"error: no formulation for polarization {args.pol} with --form {args.form}")
    return arc, inc, formulation


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _run_solve(formulation, arc, inc, grid, args):
    sol = solve(formulation, arc, inc, grid, tol=args.tol, maxit=args.maxit)
    if not sol.report.converged:
        raise SystemExit(f"error: GMRES did not converge in {args.maxit} iterations "
                         f"(residual {sol.report.final_residual:.3e})")
    if sol.report.final_residual > 10 * args.tol:
        print(f"warning: true residual {sol.report.final_residual:.3e} exceeds 10 x tol",
              file=sys.stderr)
    bandwidth = sol.kernel_bandwidth
    if sol.grid.n < bandwidth:
        print(f"warning: N = {sol.grid.n} is below the kernel bandwidth "
              f"B = 2 k max(tau sin theta) = {bandwidth:.0f}; the product rule aliases "
              "there and the far field may be wrong (README, note on aliasing)",
              file=sys.stderr)
    return sol


def _self_check(ff, formulation, arc, inc, n, args) -> float:
    """eps_r of the far field ff of a solve on n against the solve on 2n."""
    ref = _run_solve(formulation, arc, inc, _grid(2 * n), args)
    return far_field_error(ff, far_field(ref, args.obs))


def cmd_solve(args) -> int:
    arc, inc, formulation = _problem(args)
    grid = _grid(args.n)
    sol = _run_solve(formulation, arc, inc, grid, args)
    ff = far_field(sol, args.obs)
    eps_r = _self_check(ff, formulation, arc, inc, grid.n, args) if args.self_check else None

    out = _outdir(args)
    _write_csv(out / "farfield.csv", "angle_deg,re,im,abs",
               ([_fmt(a), _fmt(v.real), _fmt(v.imag), _fmt(abs(v))]
                for a, v in zip(ff.angles_deg, ff.values)))
    _write_csv(out / "density.csv", "theta,re,im",
               ([_fmt(t), _fmt(v.real), _fmt(v.imag)]
                for t, v in zip(grid.nodes, sol.density)))
    lines = [
        f"formulation: {formulation}",
        f"n: {grid.n}",
        f"k: {_fmt(inc.k)}",
        f"L_over_lambda: {_fmt(inc.k * arc.length / (2.0 * np.pi))}",
        f"iterations: {sol.report.iterations}",
        f"final_residual: {_fmt(sol.report.final_residual)}",
        f"mat_seconds: {_fmt(sol.mat_seconds)}",
        f"solve_seconds: {_fmt(sol.report.elapsed)}",
    ]
    if eps_r is not None:
        lines.append(f"eps_r_estimate: {_fmt(eps_r)}")
    (out / "report.txt").write_text("\n".join(lines) + "\n")
    print(f"{formulation}: n={grid.n} iterations={sol.report.iterations} "
          f"residual={sol.report.final_residual:.3e}")
    return 0


def cmd_spectrum(args) -> int:
    arc = _make_arc(args)
    k = _wavenumber(args, arc)
    grid = _grid(args.n)
    if grid.n > DENSE_CAP:
        raise SystemExit(f"error: spectrum needs n <= {DENSE_CAP}")
    names = []
    for part in args.form.split(","):
        if part not in _SPECTRUM_NAMES:
            raise SystemExit(f"error: unknown operator {part!r}; expected S, N, NS or ATK")
        if _SPECTRUM_NAMES[part] not in names:  # a repeat, or ATK beside S0invS
            names.append(_SPECTRUM_NAMES[part])
    out = _outdir(args)
    # one S for every name, built through scattering like a solve's
    s = scattering.build_S_matrix(arc, k, grid)
    for name in names:
        lam = eig_dense(dense_operator(name, s))
        order = np.lexsort((lam.imag, lam.real))
        _write_csv(out / f"eigs_{name}.csv", "re,im",
                   ([_fmt(v.real), _fmt(v.imag)] for v in lam[order]))
        print(f"{name}: {grid.n} eigenvalues, |lambda| in "
              f"[{np.abs(lam).min():.3e}, {np.abs(lam).max():.3e}]")
    return 0


def cmd_converge(args) -> int:
    arc, inc, formulation = _problem(args)
    values = _parse_floats(args.n, name="--n")
    if not all(v.is_integer() for v in values):
        raise SystemExit(f"error: --n expects integer grid sizes, got {args.n!r}")
    if any(v < 4 for v in values):
        raise SystemExit(f"error: --n expects grid sizes of at least 4, got {args.n!r}")
    requested = sorted(int(v) for v in values)
    sizes = []
    for n in requested:
        try:
            m = nearest_admissible(n)
        except (ValueError, OverflowError):  # beyond what scipy.fft plans
            raise SystemExit(f"error: --n expects grid sizes below about 1.7e18, "
                             f"the largest size scipy.fft plans, got {args.n!r}")
        if m != n:
            print(f"note: grid size {n} is not FFT-admissible, using {m}")
        if m not in sizes:
            sizes.append(m)
    if len(sizes) < 2:
        raise SystemExit("error: converge requires at least two distinct grid sizes")
    grids = [_grid(n) for n in sizes]  # every size checked before the first solve
    # the reference first, so that one far field is held beside the one in hand
    ref = far_field(_run_solve(formulation, arc, inc, grids[-1], args), args.obs)
    rows = []
    for grid in grids[:-1]:
        sol = _run_solve(formulation, arc, inc, grid, args)
        rows.append([str(grid.n), _fmt(far_field_error(far_field(sol, args.obs), ref))])
        print(f"n={grid.n}: eps_r={rows[-1][1]}")
    _write_csv(_outdir(args) / "converge.csv", "n,eps_r", rows)
    return 0


def cmd_fieldmap(args) -> int:
    arc, inc, formulation = _problem(args)
    grid = _grid(args.n)
    x0, y0, x1, y1 = _parse_floats(args.rect, 4, "--rect")
    if not (np.all(np.isfinite([x0, y0, x1, y1])) and x0 < x1 and y0 < y1):
        raise SystemExit("error: --rect expects finite x0,y0,x1,y1 with x0 < x1 and y0 < y1")
    try:
        w, h = (int(p) for p in args.res.lower().split("x"))
    except ValueError:
        raise SystemExit("error: --res expects WxH, e.g. 300x200")
    if w < 2 or h < 2:
        raise SystemExit("error: --res expects at least 2x2")

    try:  # row 0 at the top of the image
        gx, gy = np.meshgrid(np.linspace(x0, x1, w), np.linspace(y1, y0, h))
        pts = np.column_stack([gx.ravel(), gy.ravel()])
    except MemoryError:
        raise SystemExit(f"error: --res {w}x{h} too large: its points do not fit in memory")

    sol = _run_solve(formulation, arc, inc, grid, args)
    total = near_field(sol, pts) + incident_field(inc, pts)
    masked = ~np.isfinite(total.real)

    out = _outdir(args)
    rows = []
    for p, v, m in zip(pts, total, masked):
        if m:
            rows.append([_fmt(p[0]), _fmt(p[1]), "", "", ""])
        else:
            rows.append([_fmt(p[0]), _fmt(p[1]), _fmt(v.real), _fmt(v.imag), _fmt(abs(v))])
    _write_csv(out / "fieldmap.csv", "x,y,re,im,abs", rows)

    mag = np.abs(total)
    finite = mag[~masked]
    vmin, vmax = 0.0, (float(finite.max()) if finite.size else 1.0)
    if vmax <= vmin:
        vmax = vmin + 1.0
    pixels = np.clip((mag - vmin) / (vmax - vmin), 0.0, 1.0)
    img = np.where(masked, 128, np.round(255.0 * pixels)).astype(np.uint8)
    with open(out / "fieldmap.pgm", "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())
    (out / "fieldmap.meta").write_text(
        f"min: {_fmt(vmin)}\nmax: {_fmt(vmax)}\nwidth: {w}\nheight: {h}\n")
    print(f"fieldmap: {w}x{h} pixels, {int(masked.sum())} masked")
    return 0


def cmd_tables(args) -> int:
    if args.table not in _TABLE_SPECS:
        raise SystemExit(f"error: unknown table {args.table!r}; "
                         f"expected one of {sorted(_TABLE_SPECS)}")
    if not args.cap >= _TABLE_ROWS[0][0]:
        raise SystemExit(f"error: --cap must be at least {_TABLE_ROWS[0][0]:g}, "
                         "the smallest L/lambda of a table row")
    kind, formulations = _TABLE_SPECS[args.table]
    arc = make_arc(kind)
    rows = []
    for ratio, n in _TABLE_ROWS:
        if ratio > args.cap:
            continue
        inc = Incidence(angle_deg=args.inc_deg, k=wavenumber_for_ratio(arc, ratio))
        # Every formulation on grid n, then every reference on 2n (fields
        # stays empty without --self-check), so the solves on one grid
        # reuse one S.
        grid = _grid(n)
        fields = []
        for formulation in formulations:
            sol = _run_solve(formulation, arc, inc, grid, args)
            if args.self_check:
                fields.append(far_field(sol, args.obs))
            rows.append([_fmt(ratio), str(n), formulation, str(sol.report.iterations),
                         _fmt(sol.mat_seconds), _fmt(sol.report.elapsed), ""])
            print(f"L/lambda={ratio:g} n={n} {formulation}: "
                  f"iterations={sol.report.iterations}")
        for row, formulation, ff in zip(rows[-len(formulations):], formulations, fields):
            row[-1] = _fmt(_self_check(ff, formulation, arc, inc, n, args))
    _write_csv(_outdir(args) / f"table_{args.table}.csv",
               "L_over_lambda,n,formulation,iterations,mat_seconds,solve_seconds,eps_r",
               rows)
    return 0


# The shared flags and the subcommands that read them; argparse rejects
# a flag on a subcommand that does not read it.
_PROBLEM, _SOLVING = "solve spectrum converge fieldmap", "solve converge fieldmap tables"
_FLAGS = [
    ("--arc", _PROBLEM, dict(default="strip", choices=ARC_KINDS)),
    ("--arc-params", _PROBLEM, dict(default="", help="comma-separated family parameters")),
    ("--ratio", _PROBLEM, dict(type=float, default=None, help="arc length over wavelength")),
    ("--k", _PROBLEM, dict(type=float, default=None, help="explicit wavenumber")),
    ("--pol", "solve converge fieldmap", dict(default="TE", choices=["TE", "TM"])),
    ("--form", _PROBLEM, dict(default="S", help="S, N, NS or ATK")),
    ("--n", "solve spectrum fieldmap", dict(type=int, default=400, help="grid size (2/3/5-smooth)")),
    ("--inc-deg", _SOLVING, dict(type=float, default=90.0, dest="inc_deg")),
    ("--tol", _SOLVING, dict(type=float, default=1e-8)),
    ("--maxit", _SOLVING, dict(type=int, default=2000)),
    ("--obs", "solve converge tables", dict(type=int, default=360, help="observation angle count")),
    ("--out", f"{_PROBLEM} tables", dict(default=".", help="output directory")),
    ("--self-check", "solve tables", dict(action="store_true", dest="self_check",
                                          help="estimate eps_r against an internally doubled grid")),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="arcscat",
                                     description="TE/TM scattering by smooth open arcs")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, func):
        p = sub.add_parser(name, help=help_text)
        for flag, commands, kwargs in _FLAGS:
            if name in commands.split():
                p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
        return p

    command("solve", "solve one problem and write far field/density", cmd_solve)
    command("spectrum", "dense operator eigenvalues", cmd_spectrum)
    p = command("converge", "far-field self-convergence study", cmd_converge)
    p.add_argument("--n", default="128,256,400", help="comma-separated grid sizes")
    p = command("fieldmap", "total-field map on a rectangle", cmd_fieldmap)
    p.add_argument("--rect", default="-2,-2,2,2", help="x0,y0,x1,y1")
    p.add_argument("--res", default="200x200", help="WxH pixels")
    p = command("tables", "iteration-count tables", cmd_tables)
    p.add_argument("--table", required=True, help=",".join(sorted(_TABLE_SPECS)))
    p.add_argument("--cap", type=float, default=200.0, help="largest L/lambda to run")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if "maxit" in args and args.maxit < 1:
        raise SystemExit("error: --maxit must be at least 1")
    if "tol" in args and not 0.0 < args.tol < 1.0:
        raise SystemExit("error: --tol must be in (0, 1)")
    if "obs" in args:
        if args.obs < 1:
            raise SystemExit("error: --obs must be at least 1")
        try:  # the far field's peak, asked for (not touched) before any S is built
            np.empty(FAR_FIELD_BYTES * args.obs, dtype=np.uint8)
        except (MemoryError, ValueError, OverflowError):  # beyond numpy's largest array
            raise SystemExit(f"error: --obs {args.obs} too large: its far field does not fit in memory")
    if "inc_deg" in args and not np.isfinite(args.inc_deg):
        raise SystemExit("error: --inc-deg must be finite")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
