"""Run the benchmark once per seed and summarize every metric.

    python3 perfbench/repeat.py --workload NAME --seeds 1-10 [--trace 0|1]
                                [--seconds S] [--out FILE]

Run from the repository root.  Runs are sequential.  For each metric it
prints the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread, the quartile distance as a share of the median.  ``--out``
appends one JSON record with every run's values and the provenance of
the first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="run length (default: run_seconds from BENCHMARK.json)")
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    runs, provenance = [], None
    for seed in args.seeds:
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            print(f"seed {seed}: exit {out.returncode}")
            return 1
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        provenance = provenance or json.loads(lines[-2])["provenance"]
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} failed {result['failed']} "
              f"of {result['attempted']}", flush=True)

    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0, "unit": first["unit"]}
        print(f"  {name:34s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {summary[name]['spread']:.4f} {first['unit']}")
    if args.out:
        record = {"workload": args.workload, "trace": args.trace, "seconds": seconds,
                  "seeds": args.seeds, "all_correct": all(r["correct"] for r in runs),
                  "summary": summary, "runs": runs, "provenance": provenance}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
