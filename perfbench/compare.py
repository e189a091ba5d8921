"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py --base p1.json p2.json ... --change c1.json ...

Each file is a ``run.py --out`` result of one untraced run.  Runs are grouped
by workload.  For every end-to-end metric the report gives each side's
median and quartiles and the change's median relative to the base's: a
regression when it is worse by more than the metric's bound, unresolved when
the base's own spread (quartile distance over median) exceeds the bound.
Results from different backends are refused as not comparable.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(paths):
    runs = [json.loads(Path(p).read_text()) for p in paths]
    by_workload = defaultdict(list)
    for run in runs:
        by_workload[run["provenance"]["workload"]].append(run)
    return runs, by_workload


def summary(values):
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else (values[0],) * 3)
    return med, q1, q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    base_runs, base = load(args.base)
    change_runs, change = load(args.change)
    backends = {r["provenance"]["backend"] for r in base_runs + change_runs}
    if len(backends) != 1:
        print(f"not comparable: results come from backends {sorted(backends)}",
              file=sys.stderr)
        return 2
    regressions = 0
    for workload in sorted(set(base) & set(change)):
        print(f"{workload}: {len(base[workload])} base runs, "
              f"{len(change[workload])} change runs")
        for m in SPEC["end_to_end"]:
            name = m["name"]
            b = summary([r["result"]["metrics"][name]["value"] for r in base[workload]])
            c = summary([r["result"]["metrics"][name]["value"] for r in change[workload]])
            rel = c[0] / b[0] - 1.0
            worse = -rel if m["better"] == "higher" else rel
            spread = (b[2] - b[1]) / b[0]
            verdict = ("REGRESSION" if worse > m["bound"]
                       else "unresolved" if spread > m["bound"] else "ok")
            regressions += verdict == "REGRESSION"
            print(f"  {name:<12} base {b[0]:.5g} [{b[1]:.5g}, {b[2]:.5g}]  "
                  f"change {c[0]:.5g} [{c[1]:.5g}, {c[2]:.5g}]  {rel:+.1%} "
                  f"(bound {m['bound']:.0%}, base spread {spread:.1%}) {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
