#!/usr/bin/env python3
"""Compare two sets of saved benchmark runs, metric by metric.

    python3 bench/compare.py --base base/*.out --new new/*.out

Each file is the stdout of one ``bench/run.py`` run.  Refuses to compare
when the runs' configuration stamps differ (rational backend, kernel
backend, Python version, processor count), and when runs of one workload
and seed disagree on the deterministic counts.  For every workload and
metric it prints each side's median and quartiles, the change of the
medians, and, for end-to-end metrics, whether the change stays within the
bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict:
    with open(path) as fh:
        lines = [json.loads(line) for line in fh if line.startswith("{")]
    return {"details": lines[-2]["details"], "result": lines[-1]}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    sides = {"base": [load(p) for p in args.base], "new": [load(p) for p in args.new]}
    stamps = {json.dumps(r["details"]["stamp"], sort_keys=True) for runs in sides.values() for r in runs}
    if len(stamps) != 1:
        print("refusing to compare runs with different configuration stamps:", file=sys.stderr)
        for stamp in sorted(stamps):
            print("  " + stamp, file=sys.stderr)
        return 2
    for side, runs in sides.items():
        seen = {}
        for r in runs:
            d = r["details"]
            counts = d.get("counts_at_checkpoint") or d.get("counts")
            key = (d["workload"], d["seed"])
            if seen.setdefault(key, counts) != counts:
                print(f"{side}: deterministic counts differ between runs of {key}", file=sys.stderr)
                return 2

    status = 0
    workloads = sorted({r["details"]["workload"] for runs in sides.values() for r in runs})
    for workload in workloads:
        print(f"== {workload}")
        values = {
            side: [r["result"] for r in runs if r["details"]["workload"] == workload]
            for side, runs in sides.items()
        }
        names = sorted({n for results in values.values() for res in results for n in res["metrics"]})
        for name in names:
            row = {}
            for side, results in values.items():
                got = [res["metrics"][name]["value"] for res in results if name in res["metrics"]]
                row[side] = quartiles(got) if got else None
            if row["base"] is None or row["new"] is None:
                print(f"  {name:44s} present on one side only")
                continue
            change = row["new"][1] / row["base"][1] - 1 if row["base"][1] else float("nan")
            verdict = ""
            if name in bounds:
                bound, direction = bounds[name]
                worse = -change if direction == "higher" else change
                verdict = "REGRESSION" if worse > bound else "ok"
                status = status or (worse > bound)
            print(
                f"  {name:44s} base {row['base'][1]:.6g} [{row['base'][0]:.6g}, {row['base'][2]:.6g}]"
                f"  new {row['new'][1]:.6g} [{row['new'][0]:.6g}, {row['new'][2]:.6g}]"
                f"  {change:+.1%} ({better.get(name, '?')} is better) {verdict}"
            )
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
