"""The golden record: a fixed set of solver outputs, kept in
``tests/golden/outputs.npz`` and compared by ``test_golden.py``.

Regenerate it from the repository root with

    PYTHONPATH=src python3 tests/make_golden.py

only when an output is meant to change, and state the largest change
per output and why: over an existing record it prints each output it
adds, removes or changes, with the change's maximum relative to the
output's peak.  The record holds, for each case, the GMRES iteration
count and residual history, 64 far-field samples and the density's
cosine coefficients:

* every arc family x every formulation at L/lambda = 5, N = 128;
* the spiral at L/lambda = 50, N = 512, TE_S and TM_NS;
* the strip at L/lambda = 20, N = 512 (the field-map benchmark's
  problem), TE_S and TM_NS, with the scattered field on a 12 x 6 map
  and the far field at 720 and 63 samples too: its M = 248 resampling
  directions make 720 samples take the FFT-resampled branch of
  ``scattering.far_field``, and 63 the direct sum over an odd count;

and the sha256 of ``S.entries`` at N = 512 on the strip and the spiral,
and of the dense S, N, NS and S0invS of ``dense_operator`` on the
spiral at L/lambda = 5, N = 128.
Beside the data it keeps the numpy, scipy and BLAS versions and the
widest SIMD target numpy dispatches to, which decide the last bits.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import scipy

from arcscat.geometry import ARC_KINDS, make_arc, wavenumber_for_ratio
from arcscat.grids import coeffs_from_values, theta_grid
from arcscat.operators import build_S_matrix, dense_operator
from arcscat.scattering import FORMULATIONS, Incidence, far_field, near_field, solve

GOLDEN = Path(__file__).resolve().parent / "golden" / "outputs.npz"
INCIDENCE_DEG = 50.0
FAR_SAMPLES = 64
FAMILY_PARAMS = {"circlecavity": (1.0, 0.5)}


def environment() -> dict:
    """The versions and CPU target the recorded bits depend on."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    config = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {})
    blas = config.get("blas", {})
    simd = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]
    return {"env.numpy": np.__version__, "env.scipy": scipy.__version__,
            "env.blas": f"{blas.get('name')} {blas.get('version')}",
            "env.simd": simd[-1] if simd else "baseline"}


def _near_points() -> np.ndarray:
    """A 12 x 6 map over the field-map benchmark's rectangle."""
    gx, gy = np.meshgrid(np.linspace(-2.0, 2.0, 12), np.linspace(1.5, -1.5, 6))
    return np.column_stack([gx.ravel(), gy.ravel()])


def _case(out: dict, kind: str, ratio: float, n: int, formulations, near=False) -> None:
    """Record each formulation's solve; ``near`` adds the near-field map
    and the far field at 720 and 63 samples."""
    arc = make_arc(kind, FAMILY_PARAMS.get(kind, ()))
    k = wavenumber_for_ratio(arc, ratio)
    inc, grid = Incidence(INCIDENCE_DEG, k), theta_grid(n)
    for formulation in formulations:
        sol = solve(formulation, arc, inc, grid)
        key = f"{kind}-{ratio:g}-{n}-{formulation}"
        out[f"{key}.iterations"] = np.array(sol.report.iterations)
        out[f"{key}.residuals"] = np.array(sol.report.residuals)
        out[f"{key}.far_field"] = far_field(sol, FAR_SAMPLES).values
        out[f"{key}.density_coeffs"] = coeffs_from_values(sol.density)
        if near:
            out[f"{key}.near_field"] = near_field(sol, _near_points())
            for m in (720, 63):
                out[f"{key}.far_field_{m}"] = far_field(sol, m).values
    if n == 512:
        entries = build_S_matrix(arc, k, grid).entries
        out[f"{kind}-{ratio:g}-{n}.s_sha256"] = np.array(hashlib.sha256(entries).hexdigest())


def _dense_hashes(out: dict, kind: str, ratio: float, n: int) -> None:
    """Record the sha256 of the dense matrix of each operator GMRES applies."""
    arc = make_arc(kind)
    s = build_S_matrix(arc, wavenumber_for_ratio(arc, ratio), theta_grid(n))
    for name in ("S", "N", "NS", "S0invS"):
        dense = dense_operator(name, s)
        out[f"{kind}-{ratio:g}-{n}.dense_{name}_sha256"] = np.array(hashlib.sha256(dense).hexdigest())


def outputs() -> dict:
    """Every recorded output, by name, as numpy arrays."""
    out = {}
    for kind in ARC_KINDS:
        _case(out, kind, 5.0, 128, FORMULATIONS)
    _dense_hashes(out, "spiral", 5.0, 128)
    _case(out, "spiral", 50.0, 512, ("TE_S", "TM_NS"))
    _case(out, "strip", 20.0, 512, ("TE_S", "TM_NS"), near=True)
    return out


def changes(old: dict, new: dict) -> list:
    """One line per output added, removed or changed from old to new,
    with a changed numeric output's largest change relative to its peak."""
    lines = [f"added {name}" for name in sorted(new.keys() - old.keys())]
    lines += [f"removed {name}" for name in sorted(old.keys() - new.keys())]
    for name in sorted(old.keys() & new.keys()):
        a, b = old[name], new[name]
        if a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes():
            continue
        if a.dtype.kind not in "iufc" or b.dtype.kind not in "iufc":
            lines.append(f"changed {name}: {a} -> {b}")
        elif a.shape != b.shape:
            lines.append(f"changed {name}: shape {a.shape} -> {b.shape}")
        else:
            delta, peak = np.max(np.abs(b - a)), np.max(np.abs(a))
            lines.append(f"changed {name}: max change {delta / peak:.3e} of its peak"
                         if peak else f"changed {name}: max change {delta:.3e}, peak 0")
    return lines


def main() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    env = {name: np.array(value) for name, value in environment().items()}
    new = {**outputs(), **env}
    old = None
    if GOLDEN.exists():
        with np.load(GOLDEN) as record:
            old = dict(record)
    np.savez_compressed(GOLDEN, **new)
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)")
    if old is not None:
        print("\n".join(changes(old, new)) or "no output changed")


if __name__ == "__main__":
    main()
