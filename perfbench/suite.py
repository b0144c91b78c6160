"""Run every workload over seeds 1 to 10 and write one result file.

    python3 perfbench/suite.py --out perfbench/out/base.json

Each run is ``run.py`` with ``--trace 0`` and the ``run_seconds`` of
BENCHMARK.json, one after another.  The workloads take turns within each
seed, so that a slow stretch of a shared host falls on all of them rather
than on one.  The result file keeps every run and, per workload and
end-to-end metric, the median, the quartiles and their distance as a share
of the median (the spread that the metric's bound in BENCHMARK.json has to
cover).  ``compare.py`` reads two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEEDS = range(1, 11)


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def run_one(workload, seed):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, cwd=HERE.parent, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=HERE / "out" / "results.json")
    args = parser.parse_args(argv)

    runs = {workload: [] for workload in WORKLOADS}
    for seed in SEEDS:
        for workload in WORKLOADS:
            runs[workload].append(run_one(workload, seed))
            print(f"{workload} seed {seed}: {json.dumps(runs[workload][-1])}", file=sys.stderr)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    results = {}
    for workload, done in runs.items():
        summary = {}
        for name in bounds:
            unit = done[0]["metrics"][name]["unit"]
            summary[name] = {"unit": unit, **summarize([r["metrics"][name]["value"] for r in done])}
        results[workload] = {
            "runs": done,
            "summary": summary,
            "correct": all(r["correct"] for r in done),
            "failed_share": sorted({f"{r['failed']}/{r['attempted']}" for r in done}),
        }
        for name, s in summary.items():
            print(
                f"{workload:14} {name:12} median {s['median']:10.4f} {s['unit']:3} "
                f"spread {s['spread']:6.2%} (bound {bounds[name]:.0%})"
            )

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(
        json.dumps(
            {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "seconds": SPEC["run_seconds"],
                "seeds": list(SEEDS),
                "workloads": results,
            },
            indent=1,
        )
        + "\n"
    )
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
