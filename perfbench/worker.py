"""One workload in one process: set-up, timed passes, checks, result line.

Started by ``run.py``.  ``setup_s`` runs from the first line of this file,
before anything is imported, to the end of the first pass: it covers
importing ``mcgcert`` from the checkout's ``src``, building the inputs and
one untimed warm-up pass, the first certificates from a cold process.  It
leaves out the interpreter's own start-up.  The timed passes then run back
to back, a closed loop with a single caller, until ``--seconds`` have
passed (at least two).  Each pass's outputs, the warm-up's too, are checked
outside any timed region before the next pass starts.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # the set-up clock; nothing is imported before it

import argparse
import contextlib
import gc
import json
import os
import shutil
import statistics
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_PASSES = 2


class Untraced:
    """The tracer's interface with nothing recorded."""

    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def timed_pass(self):
        return self._null


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def import_program():
    """Import mcgcert from this checkout's src, never from elsewhere, and
    the benchmark's own modules from beside this file."""
    src = ROOT / "src"
    sys.path[:0] = [str(HERE), str(src)]
    import mcgcert

    if not Path(mcgcert.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"mcgcert was imported from {mcgcert.__file__}, not from {src}")


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    tracer = spans.Tracer() if args.trace else Untraced()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, tracer)
        tally = Tally(workload)
        out = workload.run_pass()  # the warm-up pass, untraced
        setup_s = time.perf_counter() - STARTED
        tally.count(workload.check(out))
        del out
        if args.trace:
            tracer.install()
        pass_s = measure(workload, tracer, args.seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not pass_s:
        raise SystemExit("no pass completed")

    if args.trace:
        metrics = tracer.layer_metrics()
        write_trace(args, tracer)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "certify_s": {"value": statistics.median(pass_s), "unit": "s"},
        }
    print(
        f"{args.workload}: set-up {setup_s:.3f} s, {len(pass_s)} passes of "
        + ", ".join(f"{s:.3f}" for s in pass_s)
        + " s",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": tally.correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )


class Tally:
    """Operations attempted and failed over a run; ``correct`` stays true
    while every failure is one of the workload's known faults."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = 0
        self.correct = True
        self.reported = set()

    def count(self, problems):
        self.attempted += len(self.workload.ops)
        for op, found in problems.items():
            if not found:
                continue
            self.failed += 1
            if op not in self.workload.known_faults:
                self.correct = False
            if op not in self.reported:
                self.reported.add(op)
                print(f"{op} failed: " + "; ".join(found), file=sys.stderr)

    def crashed(self):
        traceback.print_exc()
        self.attempted += len(self.workload.ops)
        self.failed += len(self.workload.ops)
        self.correct = False


def measure(workload, tracer, seconds, tally):
    """Seconds of each timed pass."""
    pass_s = []
    start = time.perf_counter()
    while len(pass_s) < MIN_PASSES or time.perf_counter() - start < seconds:
        gc.collect()  # every pass starts without the last one's garbage
        try:
            begin = time.perf_counter()
            with tracer.timed_pass():
                out = workload.run_pass()
            pass_s.append(time.perf_counter() - begin)
            problems = workload.check(out)
            del out  # the next pass must not run beside this one's outputs
        except Exception:
            tally.crashed()
            break
        tally.count(problems)
    return pass_s


def write_trace(args, tracer):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    payload = {"workload": args.workload, "seed": args.seed, "passes": tracer.pass_metrics()}
    payload.update(tracer.to_json())
    path.write_text(json.dumps(payload, indent=1) + "\n")
    top = list(payload["self_s"].items())[:5]
    print("largest self times: " + ", ".join(f"{n} {s:.3f} s" for n, s in top), file=sys.stderr)


if __name__ == "__main__":
    main()
