"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

Run from the repository root.  The smoke runs start the benchmark as a
subprocess at toy problem sizes, so every gate and both modes run end
to end in a few seconds each.
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_of_nested_spans():
    spans = [
        tracing.Span("root", 0.0, 10.0),
        tracing.Span("a", 1.0, 3.0, parent=0),
        tracing.Span("b", 2.0, 5.0, parent=0),  # overlaps a: union 1..5
        tracing.Span("leaf", 1.5, 2.0, parent=1),
        tracing.Span("later", 11.0, 12.0),
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 1.5, 3.0, 0.5, 1.0])
    assert tracing.uncovered(spans, -1.0, 13.0) == pytest.approx(3.0)


def test_traced_self_times_and_gap_add_up_to_wall():
    t = tracing.Tracer()

    def leaf():
        sum(range(20000))

    def middle():
        t.call("leaf", leaf)
        sum(range(20000))
        t.call("leaf", leaf)

    start = time.perf_counter()
    t.call("top", middle)
    sum(range(20000))
    t.call("top", leaf)
    end = time.perf_counter()
    own = tracing.self_times(t.spans)
    gap = tracing.uncovered(t.spans, start, end)
    assert sum(own) + gap == pytest.approx(end - start, rel=1e-12)
    totals = t.totals()
    assert totals["leaf"][0] == 2 and totals["top"][0] == 2
    assert totals["leaf"][1] == pytest.approx(totals["leaf"][2])


def test_wrap_restores_and_tolerates_missing_attribute():
    import types

    mod = types.ModuleType("fake")
    mod.f = lambda x: 2 * x
    orig = mod.f
    t = tracing.Tracer()
    t.wrap(mod, "f", "fake.f")
    t.wrap(mod, "gone", "fake.gone")
    assert mod.f(3) == 6
    t.unwrap()
    assert mod.f is orig
    assert t.missing == ["fake.gone"]
    assert "fake.gone" not in t.totals() and t.totals()["fake.f"][0] == 1


def test_timed_matrix_counts_only_matrix_products():
    t = tracing.Tracer()
    a = np.arange(9.0).reshape(3, 3).view(t.matrix_class)
    v = np.ones(3)
    out = a @ v
    assert type(out) is np.ndarray and np.allclose(out, [3, 12, 21])
    _ = v @ np.ones(3)
    assert t.totals()["linalg.matvec"][0] == 1
    assert t.counts["linalg.matvec.bytes"] == a.nbytes


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    w = workloads.get_workload(name)
    assert workloads.make_inputs(w, 7) == workloads.make_inputs(w, 7)
    inputs = workloads.make_inputs(w, 7)
    assert all((2 * a) == int(2 * a) for a in inputs.angles)  # on the 0.5 degree grid
    if w.sweep_angles or w.seeded_angle:
        assert inputs != workloads.make_inputs(w, 8)
    if w.seeded_angle:
        assert all(15.0 <= a <= 165.0 for a in inputs.angles)


def test_metric_names_and_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_reciprocity_gate_sees_asymmetry():
    rng = np.random.default_rng(0)
    angles = (10.0, 95.5, 200.0)
    table = rng.standard_normal((720, 720)) + 1j * rng.standard_normal((720, 720))
    # u(x; d) = u(-d; -x) when table[x, d] = table[d + 360, x + 360] (half-degree steps)
    sym = {a: np.array([table[j, int(2 * a)] for j in range(720)]) for a in angles}
    for a1 in angles:
        for a2 in angles:
            j, i = int(2 * ((a2 + 180) % 360)), int(2 * ((a1 + 180) % 360))
            sym[a2][i] = sym[a1][j]
    assert max(workloads.reciprocity_errors(sym, angles)) == 0.0
    sym[95.5][int(2 * ((10.0 + 180) % 360))] += 1.0
    assert max(workloads.reciprocity_errors(sym, angles)) > workloads.RECIPROCITY_TOL


def test_reference_gate_counts_a_changed_far_field():
    modules = run.load_arcscat()
    w = workloads.get_workload("tmn_spiral200", smoke=True)
    p = workloads.Problem(w, workloads.make_inputs(w, 0), modules)
    ok = workloads.run_loop(p, 0.0)
    assert (ok.attempted, ok.failed) == (1, 0) and ok.ff_err < workloads.REFERENCE_TOL
    p.reference = p.reference * (1.0 + 1e-4)
    bad = workloads.run_loop(p, 0.0)
    assert (bad.attempted, bad.failed) == (1, 1)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run(name, trace):
    out = _bench("--workload", name, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out.stdout
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    m = {k: v["value"] for k, v in result["metrics"].items()}
    w = workloads.get_workload(name, smoke=True)
    if not trace:
        assert all(v > 0 for v in m.values())
        return
    # every gate ran: reference, reciprocity, oracle
    if w.reference:
        assert 0.0 <= m["scattering.ff_err"] < workloads.REFERENCE_TOL
    if w.sweep_angles:
        assert 0.0 < m["scattering.ff_err"] < workloads.RECIPROCITY_TOL
        assert m["operators.build_S.useful_frac"] < 1.0
    if w.near_res:
        assert 0.0 < m["scattering.nf_err"] < workloads.ORACLE_TOL
        assert m["specfun.hankel.evals"] > 0 and m["scattering.near_field.pts_per_s"] > 0
    else:
        assert m["specfun.hankel.evals"] == 0
    if w.thread_baseline:
        assert m["linalg.matvec.thread_speedup"] > 0.0
    assert m["linalg.matvec.calls"] > 0 and m["trace.uncovered_s"] >= 0.0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = _bench("--workload", "tmn_spiral200", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
