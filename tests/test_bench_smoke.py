"""Smoke test of the benchmark script: a short traced run per workload
whose output checks hold and whose spans reach the circuits and dual
layers.  The bound workloads call `certify_optimality` as the benchmark
does, so a change to what it calls fails here.  Spans go to bench/out/,
which git ignores."""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["catalog-cold", "dual-batch", "bound-mixed", "bound-sonc"])
def test_short_traced_run_is_correct(workload):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", "1"]
    run = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    records = [json.loads(line) for line in run.stdout.splitlines() if line.startswith("{")]
    last = records[-1]
    assert last["correct"] is True and last["failed"] == 0, run.stdout
    (info,) = [r["info"] for r in records if "info" in r]
    missing = [t for t in info["missing_targets"] if t.startswith(("sonckit.circuits.", "sonckit.dual."))]
    assert missing == []
