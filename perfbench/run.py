"""arcscat benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
With ``--trace 0`` the last stdout line is a JSON object carrying the
end-to-end metrics declared in ``BENCHMARK.json``; with ``--trace 1``
it carries the per-layer metrics, measured by wrapping the package's
module attributes (see ``tracing.py``).  The line before it holds the
run's provenance (machine, BLAS, versions, commit, seed).
"""

from __future__ import annotations

import os
import sys

# BLAS threads are fixed before numpy loads: at most one per usable core.
_NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _have = os.environ.get(_var, "")
    os.environ[_var] = str(min(int(_have), _NPROC) if _have.isdigit() and int(_have) > 0 else _NPROC)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
from workloads import Problem, get_workload, make_inputs, run_loop  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 7
TAIL_BEYOND = 10

SETUP_CODE = """
import sys, time
sys.path.insert(0, {src!r})
import arcscat
arcscat.make_arc({arc!r})
arcscat.theta_grid({n})
print(time.monotonic())
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="toy problem sizes, for the benchmark's own tests")
    p.add_argument("--thread-baseline", action="store_true", dest="thread_baseline",
                   help=argparse.SUPPRESS)  # child of a traced run: one traced pass
    return p.parse_args(argv)


def load_arcscat():
    if not (SRC / "arcscat" / "__init__.py").is_file():
        raise SystemExit(f"error: no arcscat sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module(f"arcscat.{m}")
            for m in ("geometry", "grids", "operators", "linalg", "scattering", "specfun")}
    if not Path(mods["geometry"].__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: arcscat imported from {mods['geometry'].__file__}, not {SRC}")
    return mods


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------
def measure_setup(w) -> float:
    """Median over fresh interpreters of the time from process start to
    imports, arc (with its arc-length quadrature) and grid done."""
    code = SETUP_CODE.format(src=str(SRC), arc=w.arc, n=w.n)
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=120)
        times.append(float(out.stdout.split()[-1]) - t0)
    return statistics.median(times)


def tail(values) -> float:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    With 2 TAIL_BEYOND samples or fewer no percentile above the median
    has that many beyond it, and the median is reported instead.
    """
    v = sorted(values)
    return v[len(v) - TAIL_BEYOND - 1] if len(v) > 2 * TAIL_BEYOND else statistics.median(v)


def end_to_end(res, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "solve_s": statistics.median(res.case_solve_s),
        "solve_s_tail": tail(res.case_solve_s),
        "solves_per_s": res.solves / (res.end - res.start),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "gmres_iters": res.first_pass_iters,
    }


def per_layer(tracer, plain, traced, thread_speedup: float):
    """The per-layer metrics, and by how much the span self times plus
    the uncovered time miss the traced wall time (0 for a sound span tree)."""
    tot = tracer.totals()

    def calls(name):
        return tot[name][0] if name in tot else 0

    def total(name):
        return tot[name][1] if name in tot else 0.0

    def own(name):
        return tot[name][2] if name in tot else 0.0

    wall = traced.end - traced.start
    gap = tracing.uncovered(tracer.spans, traced.start, traced.end)
    m = {
        "geometry.frames.calls": calls("geometry.frames"),
        "geometry.frames.s": total("geometry.frames"),
        "specfun.a1a2.evals": tracer.counts["specfun.a1a2.evals"],
        "specfun.a1a2.s": total("specfun.a1a2"),
        "specfun.hankel.evals": tracer.counts["specfun.hankel.evals"],
        "specfun.hankel.s": total("specfun.hankel"),
        "grids.t0.calls": calls("grids.t0"),
        "grids.t0.s": total("grids.t0"),
        "grids.d0.calls": calls("grids.d0"),
        "grids.d0.s": total("grids.d0"),
        "operators.log_quad.s": total("operators.log_quad"),
        "operators.build_S.calls": calls("operators.build_S"),
        "operators.build_S.self_s": own("operators.build_S"),
        "operators.build_S.useful_frac": (len(tracer.build_keys) / calls("operators.build_S")
                                          if calls("operators.build_S") else 0.0),
        "operators.build_Ng.s": total("operators.build_Ng"),
        "operators.build_Ng.self_s": own("operators.build_Ng"),
        "operators.n_apply.calls": calls("operators.n_apply"),
        "operators.n_apply.self_s": own("operators.n_apply"),
        "operators.matrix_bytes": tracer.peaks["operators.matrix_bytes"],
        "linalg.gmres.self_s": own("linalg.gmres"),
        "linalg.matvec.calls": calls("linalg.matvec"),
        "linalg.matvec.s": total("linalg.matvec"),
        "linalg.matvec.gbps_computed": (tracer.counts["linalg.matvec.bytes"] / total("linalg.matvec") / 1e9
                                        if calls("linalg.matvec") else 0.0),
        "linalg.matvec.thread_speedup": thread_speedup,
        "linalg.basis_bytes": tracer.peaks["linalg.basis_bytes"],
        "linalg.residual_ratio": tracer.peaks["linalg.residual_ratio"],
        "scattering.solve.s": total("scattering.solve"),
        "scattering.solve.self_s": own("scattering.solve"),
        "scattering.far_field.s": total("scattering.far_field"),
        "scattering.far_field.self_s": own("scattering.far_field"),
        "scattering.near_field.self_s": own("scattering.near_field"),
        "scattering.near_field.pts_per_s": (tracer.counts["scattering.near_field.points"]
                                            / total("scattering.near_field")
                                            if calls("scattering.near_field") else 0.0),
        "scattering.ff_err": traced.ff_err,
        "scattering.nf_err": traced.nf_err,
        "bench.check.self_s": own("bench.check"),
        "trace.wall_s": wall,
        "trace.uncovered_s": gap,
        "trace.overhead_frac": (statistics.median(traced.case_solve_s)
                                / statistics.median(plain.case_solve_s) - 1.0
                                if plain is not None else 0.0),
        "solve_samples": len(traced.case_solve_s),
        "failed_frac": traced.failed / traced.attempted,
    }
    return m, abs(sum(tracing.self_times(tracer.spans)) + gap - wall)


def thread_baseline(args) -> float:
    """Per-matvec time at 1 BLAS thread, from a traced child process."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "1", "--thread-baseline"]
    if args.smoke:
        cmd.append("--smoke")
    out = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=150, cwd=ROOT)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise RuntimeError(f"single-thread baseline exited with {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    m = result["metrics"]
    if not result["correct"] or not m["linalg.matvec.calls"]["value"]:
        raise RuntimeError("single-thread baseline failed its gates or made no matvecs")
    return m["linalg.matvec.s"]["value"] / m["linalg.matvec.calls"]["value"]


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------
def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def provenance(seed: int) -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    mem = next((int(line.split()[1]) // 1024 for line in _read("/proc/meminfo").splitlines()
                if line.startswith("MemTotal:")), None)
    llc, level = None, 0
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        lv = _read(str(idx / "level")).strip()
        if lv.isdigit() and int(lv) >= level:
            level, llc = int(lv), f"L{lv} {_read(str(idx / 'size')).strip()}"
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for f in sorted((SRC / "arcscat").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "usable_cpus": _NPROC,
        "cpu_model": cpu,
        "llc": llc,
        "mem_total_mb": mem,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": os.environ["OPENBLAS_NUM_THREADS"]},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    args = parse_args(argv)
    w = get_workload(args.workload, smoke=args.smoke)
    modules = load_arcscat()
    e2e_units, layer_units = declared_metrics()
    setup_s = measure_setup(w) if args.trace == 0 else 0.0
    problem = Problem(w, make_inputs(w, args.seed), modules)
    # One untimed pass at toy size takes lazy imports and first calls
    # off the clock; its gates count like any other.
    toy = get_workload(args.workload, smoke=True)
    warm = run_loop(Problem(toy, make_inputs(toy, args.seed), modules), 0.0)

    if args.trace == 0:
        res = run_loop(problem, args.seconds)
        attempted, failed = res.attempted + warm.attempted, res.failed + warm.failed
        values, units = end_to_end(res, setup_s), e2e_units
    else:
        plain = None if args.thread_baseline else run_loop(problem, args.seconds / 2)
        tracer = tracing.Tracer()
        tracing.instrument(tracer, modules)
        try:
            traced = run_loop(problem, args.seconds / 2, tracer)
        finally:
            tracer.unwrap()
        attempted = warm.attempted + traced.attempted + (plain.attempted if plain else 0)
        failed = warm.failed + traced.failed + (plain.failed if plain else 0)
        speedup = 0.0
        matvec = tracer.totals().get("linalg.matvec")  # absent if S is no longer wrapped
        if w.thread_baseline and not args.thread_baseline and matvec:
            attempted += 1
            try:
                speedup = thread_baseline(args) / (matvec[1] / matvec[0])
            except (RuntimeError, OSError, subprocess.SubprocessError, ValueError, KeyError):
                traceback.print_exc()
                failed += 1
        values, accounting_error = per_layer(tracer, plain, traced, speedup)
        units = layer_units
        attempted += 1
        if not accounting_error <= 1e-6 * values["trace.wall_s"] + 1e-6:
            print("gate: span self times plus uncovered time do not add up to the wall time")
            failed += 1
        if tracer.missing:
            print("wrapped attributes missing (zero calls reported): " + ", ".join(tracer.missing))
        write_spans(tracer, args)

    if set(values) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(values) ^ set(units))} "
                         f"disagree with BENCHMARK.json")
    print(f"workload {w.name} seed {args.seed} trace {args.trace}: "
          f"{failed} of {attempted} checks failed")
    for name, value in values.items():
        print(f"  {name:34s} {value:.6g} {units[name]}")
    print(json.dumps({"provenance": provenance(args.seed)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }))
    return 0


def write_spans(tracer, args) -> None:
    """Keep the raw spans of a traced run beside the checkout's sources."""
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    tag = "-baseline" if args.thread_baseline else ""
    with open(out / f"spans-{args.workload}-{args.seed}{tag}.json", "w") as fh:
        json.dump([[s.name, s.start, s.end, s.parent] for s in tracer.spans], fh)


if __name__ == "__main__":
    sys.exit(main())
