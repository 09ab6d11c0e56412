"""The benchmark's recorded digests as a regression guard: a fixed handful of
property-pairs and complete-simplices items, run in-process through
``bench/workloads.py``, and two explore chunks, run through ``cli.main``,
must reproduce the sha256 digests recorded in ``bench/expected.json``.
Every item starts with empty memo caches, as the benchmark's cold items do.
Nothing under ``bench/`` is written."""

import contextlib
import io
import json
import os
import sys

import pytest

from gaugeradii import cli, radii

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)
# Found in bench/ through the path above; compiled without leaving a cache
# there.
dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import workloads  # noqa: E402

sys.dont_write_bytecode = dont_write

with open(os.path.join(BENCH, "expected.json")) as fh:
    RECORDED = json.load(fh)["workloads"]

GUARDED = {
    "property-pairs": ("2d-pair-0", "3d-pair-1", "2d-pair-112", "3d-pair-71"),
    "complete-simplices": (
        "2d-min-plus-1-1/2",
        "2d-max-minus-3-1",
        "3d-min-minus-4-3",
        "3d-max-plus-1-1/2",
    ),
}


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_workload_items_match_recorded_digests(name):
    """Each item passes its workload's own exact check and hashes to its
    recorded digest."""
    workload = workloads.WORKLOADS[name]()
    keys = GUARDED[name]
    workload.build(list(keys))
    for key in keys:
        radii.clear_caches()
        result, ok = workload.run(key)
        assert ok, key
        assert workloads.digest(result) == RECORDED[name][key]["digest"], key


@pytest.mark.parametrize("chunk", [1, 74])
def test_explore_chunks_match_recorded_digests(chunk):
    """One explore-2d chunk: the exit code and the stdout bytes of
    ``explore --dim 2`` over the chunk's trials, with the chunk's seed."""
    argv = ["explore", "--dim", "2", "--trials", str(workloads.EXPLORE_TRIALS), "--seed", str(chunk)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    result = {"exit": code, "stdout": out.getvalue()}
    assert workloads.digest(result) == RECORDED["explore-2d"][f"chunk-{chunk}"]["digest"]
