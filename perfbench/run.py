"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload runs in a child process (``worker.py``) started from here, so
that ``setup_s`` is one cold set-up in a fresh process and ``peak_rss_mb`` is
the child's own peak resident memory.  The child runs isolated from the
environment and from site-packages, whose start-up cost varies by machine
and says nothing about mcgcert.  With ``--trace 0`` the result holds the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of a traced run,
whose spans go to ``perfbench/out/trace-NAME-seedN.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TIMEOUT_S = 170


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    child = subprocess.Popen(
        [
            sys.executable,
            "-I",  # isolated: no environment variables, no user site
            "-S",  # no site-packages: mcgcert needs only the standard library
            str(HERE / "worker.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        cwd=HERE.parent,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        stdout, _ = child.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        sys.exit(f"{args.workload}: no result within {TIMEOUT_S} s")
    if child.returncode != 0:
        sys.exit(f"{args.workload}: worker exited with {child.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{args.workload}: worker printed no result")
    result = json.loads(lines[-1])
    if not args.trace:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["metrics"]["peak_rss_mb"] = {"value": peak_kb / 1024, "unit": "MB"}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
