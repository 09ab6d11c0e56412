"""The benchmark command as it is run end to end: ``bench/run.py`` for every
workload of ``BENCHMARK.json``, traced and untraced, each as its own
process for about one second.  The last stdout line must be the result the
benchmark reads: ``correct`` true, nothing failed, and every metric that
``BENCHMARK.json`` names present, the end-to-end ones in the untraced run
and the per-layer ones in the traced run.  ``PYTHONDONTWRITEBYTECODE=1``
keeps the runs from writing a bytecode cache under ``bench/``."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_bench_run_prints_every_declared_metric(workload, trace):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, *SPEC["command"][1:], "--workload", workload]
    command += ["--seed", "1", "--seconds", "1", "--trace", str(trace)]
    run = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in result["metrics"]]
    assert not missing, missing
