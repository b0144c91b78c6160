"""Print each workload x end-to-end metric of two result files as a ratio.

    python3 perfbench/compare.py BASE.json NEW.json

Both files come from ``suite.py``.  Each row gives the base median, the new
median, the ratio new/base, the base's own spread, and a verdict against
the metric's bound in BENCHMARK.json: ``worse`` when the new median is worse
than the base by more than the bound, ``unresolved`` when the base's spread
is wider than the bound, ``ok`` otherwise.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def rows(base, new):
    for workload, b in base["workloads"].items():
        n = new["workloads"].get(workload)
        if n is None:
            continue
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            bs, ns = b["summary"][name], n["summary"][name]
            ratio = ns["median"] / bs["median"]
            worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            if bs["spread"] > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "worse"
            else:
                verdict = "ok"
            yield workload, name, bs, ns, ratio, metric["bound"], verdict


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    base = json.loads(args.base.read_text())
    new = json.loads(args.new.read_text())
    print(f"base: {args.base} ({base['nproc']} cores, Python {base['python']})")
    print(f"new:  {args.new} ({new['nproc']} cores, Python {new['python']})")
    if base["seconds"] != new["seconds"]:
        raise SystemExit(f"runs of {base['seconds']} s cannot be compared with runs of {new['seconds']} s")
    print(f"{'workload':14} {'metric':12} {'base':>10} {'new':>10} {'new/base':>9} {'base spread':>12}  verdict")
    for workload, name, bs, ns, ratio, bound, verdict in rows(base, new):
        print(
            f"{workload:14} {name:12} {bs['median']:10.4f} {ns['median']:10.4f} "
            f"{ratio:9.3f} {bs['spread']:12.2%}  {verdict} (bound {bound:.0%})"
        )


if __name__ == "__main__":
    main()
