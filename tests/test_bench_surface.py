"""What the benchmark under perfbench/ needs from the library.

The benchmark calls these module attributes and wraps them with trace
spans; a wrap of a missing attribute only reads zero in a traced run.
So a rename or a move that drops one of them fails here instead.
"""

import dataclasses

import numpy as np
import pytest

import arcscat
from arcscat import geometry, grids, operators, scattering

NEEDED = [
    (scattering, ["solve", "far_field", "near_field", "build_S_matrix", "gmres", "hankel1_0",
                  "hankel1_1", "Incidence", "te_layer_density", "tm_layer_density",
                  "TE_FORMULATIONS"]),
    (operators, ["eval_arc", "build_log_quad", "_a1a2_offdiag", "_a2_diagonal", "t0_values",
                 "d0_values"]),
    (geometry, ["make_arc", "wavenumber_for_ratio", "eval_arc"]),
    (grids, ["theta_grid"]),
    (arcscat, ["make_arc", "theta_grid"]),
]


@pytest.mark.parametrize("module,name", [(m, n) for m, names in NEEDED for n in names],
                         ids=[f"{m.__name__}.{n}" for m, names in NEEDED for n in names])
def test_benchmark_attribute_exists(module, name):
    assert hasattr(module, name)


def test_eval_arc_returns_four_arrays():
    out = geometry.eval_arc(geometry.make_arc("spiral"), np.linspace(-1.0, 1.0, 5))
    assert len(out) == 4 and all(isinstance(a, np.ndarray) for a in out)


def test_operator_matrix_fields():
    # the tracer passes these to dataclasses.replace
    names = {f.name for f in dataclasses.fields(operators.OperatorMatrix)}
    assert {"entries", "arc", "k", "n"} <= names
