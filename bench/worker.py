"""One benchmark pass in a fresh process: set up, run the pass's items, report.

Started by ``run.py``; it speaks JSON lines on stdout:

* ``{"ready": ...}`` once the library is imported and the inputs are built
  (the parent times set-up from process start to this line);
* ``{"calibration": ...}`` the time of a fixed task (``calibrate``) right
  after set-up, the machine's speed at that moment;
* ``{"item": ...}`` per item: key, latencies in ms, the mean calibration
  time just before and just after it, digest, own check, error;
* ``{"checkpoint": ...}`` after the first half of the pass (see
  ``first_half``): the deterministic counts so far, comparable with a
  traced run of those keys;
* ``{"done": ...}`` at the end: peak RSS, the counts and, when traced, the
  per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def emit(kind: str, payload) -> None:
    sys.__stdout__.write(json.dumps({kind: payload}) + "\n")
    sys.__stdout__.flush()


def import_library():
    """Import gaugeradii from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    import gaugeradii

    where = os.path.realpath(gaugeradii.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"gaugeradii imported from {where}, not from {SRC}")
    return gaugeradii


def config_stamp() -> dict:
    """The configuration that actually runs; results with different stamps
    are not comparable."""
    from gaugeradii import ratcore

    stamp = {
        "rational_backend": ratcore.RATIONAL_BACKEND,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    kernel = sys.modules.get("gaugeradii.kernel")
    if kernel is not None and hasattr(kernel, "BACKEND"):
        stamp["kernel_backend"] = kernel.BACKEND
    return stamp


def first_half(keys: list, costs: dict) -> int:
    """How many leading keys of the pass hold half its recorded cost: the
    part a traced run covers, once traced and once untraced."""
    total = sum(costs[k] for k in keys)
    spent = 0.0
    for count, key in enumerate(keys, 1):
        spent += costs[key]
        if 2 * spent >= total:
            return count
    return len(keys)


def calibrate() -> float:
    """Seconds for a fixed exact-arithmetic task that shares no code with
    the library: the machine's current speed.  The median of five short
    repetitions, so that one preempted repetition does not count."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 1200):
            total += Fraction(i % 7 - 3, i)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--first", action="store_true", help="run only the first half of the pass")
    parser.add_argument("--keys", help="run these comma-separated keys instead of a seeded pass")
    args = parser.parse_args()

    import_library()
    sys.path.insert(0, HERE)
    import hooks
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    if args.keys:
        keys = args.keys.split(",")
        first = len(keys)
    else:
        with open(os.path.join(HERE, "expected.json")) as fh:
            recorded = json.load(fh)["workloads"][args.workload]
        costs = {k: v["cost_s"] for k, v in recorded.items()}
        keys = workload.select(args.seed, costs)
        first = first_half(keys, costs)
    workload.build(keys)
    emit("ready", {"stamp": config_stamp(), "keys": keys})
    calibrate()  # the first call pays one-time costs of the fractions module
    speed = calibrate()
    emit("calibration", speed)
    if args.setup_only:
        return 0
    if args.first:
        keys = keys[:first]

    probe = hooks.Probe(trace=args.trace)
    probe.install()
    for index, key in enumerate(keys):
        probe.item_boundary(clear=workload.COLD_ITEMS)
        error = None
        result, ok = None, False
        if args.trace:
            probe.enter(hooks.ROOT)
        t0 = time.perf_counter()
        try:
            result, ok = workload.run(key)
        except Exception:  # an item that raises is a failed item, not a crash
            error = traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        if args.trace:
            probe.exit()
        previous, speed = speed, calibrate()
        emit(
            "item",
            {
                "key": key,
                "ms": [1000 * s for s in workload.latencies(t0, t1)],
                "calibration_s": (previous + speed) / 2,
                "digest": None if result is None else workloads.digest(result),
                "ok": bool(ok),
                "error": error,
            },
        )
        if index + 1 == first:
            emit("checkpoint", {"items": index + 1, "counts": dict(probe.counts)})
    done = {"peak_rss_mb": peak_rss_mb(), "counts": dict(probe.counts)}
    if args.trace:
        done["layers"] = probe.layer_metrics()
    emit("done", done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
