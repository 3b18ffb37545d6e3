"""Smoke tests of the benchmark itself: every workload on A2/G2-sized inputs,
untraced and traced, checked against BENCHMARK.json.

    python3 -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import speed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    MANIFEST = json.load(fh)
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    want = MANIFEST["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in want}
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool)
        if not trace:
            assert m["value"] > 0

    path = os.path.join(ROOT, ".bench_run", "results", f"{workload}-smoke-seed0-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    assert {k: record[k] for k in result} == result
    env = record["environment"]
    for key in ("python", "nproc", "platform", "git_commit", "source_sha256", "seed", "jobs"):
        assert key in env
    assert env["seed"] == 0 and env["jobs"]
    assert record["digests"] and record["fail_frac"] == 0
    if trace:
        assert set(record["trace"]) == {"funcs", "layers", "edges", "counters", "caches"}


def test_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in MANIFEST["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(str(tmp_path), "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


def test_speed_factor_averages_the_probes_of_the_stretch():
    s = speed.Speed([(0.0, 0.001), (1.0, 0.002), (2.0, 0.003), (3.0, 0.004)])
    assert s.factor(0.5, 2.5) == pytest.approx(speed.REF_S / 0.0025)
    assert s.factor(-1.0, 9.0) == pytest.approx(speed.REF_S / 0.0025)
    # Fewer than two probes in the stretch: the two nearest ones.
    assert s.factor(2.9, 3.1) == pytest.approx(speed.REF_S / 0.0035)
    assert s.factor(9.0, 9.5) == pytest.approx(speed.REF_S / 0.0035)


def test_probes_stop_their_clock():
    speed.start()
    try:
        t0, spent0 = speed.clock(), speed.spent
        speed.probe()
        assert speed.spent > spent0
        assert speed.clock() - t0 < speed.spent - spent0
    finally:
        speed.stop()
