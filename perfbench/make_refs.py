"""Write the reference far fields of the fixed-input workloads.

    python3 perfbench/make_refs.py

Run from the repository root.  Each file in ``perfbench/refs`` holds one
720-sample far field per formulation of the workload (full and smoke
sizes), computed at the workload's tolerance.  Regenerate only when a
change to the discrete solution is intended, and say so in CHANGES.md.
"""

import dataclasses
import sys

import run  # fixes the BLAS thread count before numpy loads

import numpy as np

from workloads import FAR_SAMPLES, TOL, WORKLOADS, Problem, get_workload, make_inputs, reference_path


def main() -> int:
    modules = run.load_arcscat()
    scattering = modules["scattering"]
    for name in WORKLOADS:
        for smoke in (False, True):
            w = get_workload(name, smoke=smoke)
            if not w.reference:
                continue
            # the reference is being written, so the problem must not load it
            p = Problem(dataclasses.replace(w, reference=False), make_inputs(w, 0), modules)
            fields = []
            for form in w.formulations:
                sol = scattering.solve(form, p.arc, scattering.Incidence(p.inputs.angles[0], p.k),
                                       p.grid, tol=TOL)
                fields.append(scattering.far_field(sol, FAR_SAMPLES).values)
                print(f"{w.name} n={w.n} {form}: {sol.report.iterations} iterations, "
                      f"final residual {sol.report.final_residual:.3e}")
                del sol
            np.save(reference_path(w), np.array(fields))
    return 0


if __name__ == "__main__":
    sys.exit(main())
