#!/usr/bin/env python3
"""Record the expected output digest and the cost of every item.

    python3 bench/record.py [--workload NAME ...]

Runs each item of each workload's universe in a fresh worker process, after
one warm-up item as in a pass, and writes ``bench/expected.json``: per item
the sha256 of its exact result and its latency at the reference speed (see
``run.REFERENCE_CALIBRATION_S``), which ``Workload.select`` uses to
stratify passes.  Refuses to write if any item fails its own check.
Re-record only when a change is meant to alter results, and say why.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")
JOBS = 2  # rescaled latencies tolerate two items running side by side


def run_key(workload: str, key: str, warmup: str) -> tuple:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", "0", "--keys", f"{warmup},{key}"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = [json.loads(line) for line in out.splitlines()]
    items = [line["item"] for line in lines if "item" in line]
    stamp = next(line["ready"]["stamp"] for line in lines if "ready" in line)
    return items[1], stamp


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads
    from run import REFERENCE_CALIBRATION_S

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()

    data = {"stamp": None, "workloads": {}}
    if os.path.exists(EXPECTED):
        with open(EXPECTED) as fh:
            data = json.load(fh)
    for name in args.workload or sorted(workloads.WORKLOADS):
        keys = workloads.WORKLOADS[name]().universe()
        warmups = {key: keys[1] if key == keys[0] else keys[0] for key in keys}
        with ThreadPoolExecutor(JOBS) as pool:
            runs = list(pool.map(lambda key: run_key(name, key, warmups[key]), keys))
        table = {}
        for key, (item, stamp) in zip(keys, runs):
            if item["error"] or not item["ok"]:
                print(f"{name} {key}: item failed its own check: {item}", file=sys.stderr)
                return 1
            scale = REFERENCE_CALIBRATION_S / item["calibration_s"]
            table[key] = {"digest": item["digest"], "cost_s": round(sum(item["ms"]) * scale / 1000, 4)}
        data["workloads"][name] = table
        data["stamp"] = stamp
        print(name, len(table), "items recorded", flush=True)
    with open(EXPECTED, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
