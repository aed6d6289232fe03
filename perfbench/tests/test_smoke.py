"""Smoke test of the benchmark command: tiny fleets, no timing asserted.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def session_members(sid: int) -> list[str]:
    """Processes of session ``sid``, zombies included, as "pid state"."""
    found = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", encoding="ascii", errors="replace") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # ended meanwhile
        if int(fields[3]) == sid:  # state, ppid, pgrp, session
            found.append(f"{name} {fields[0]}")
    return found


def run(workload: str, trace: int, cwd: str = ROOT, seed: int = 7):
    """Run the benchmark in a session of its own; it must leave no process."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "2", "--trace", str(trace), "--drivers", "3"]
    with subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        out, err = proc.communicate(timeout=170)
    assert session_members(proc.pid) == [], "left running after the benchmark"
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def test_benchmark_json_matches_the_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert spec["paths"] == ["perfbench"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_shape(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    table = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == table
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert "# missing:" not in proc.stdout
    if trace:
        spans_dir = os.path.join(ROOT, ".perfbench", "spans", f"{workload}-seed7")
        roles = {"driver", "api"} | ({"viz"} if WORKLOADS[workload].viz else set())
        assert {f[:-len(".jsonl")] for f in os.listdir(spans_dir)} == roles
        for role in roles:
            with open(os.path.join(spans_dir, f"{role}.jsonl"), encoding="utf-8") as fh:
                spans = [json.loads(line) for line in fh]
            assert spans
            ids = {s["id"] for s in spans}
            for s in spans:
                assert s["process"] == role
                assert s["end_ns"] >= s["start_ns"]
                assert s["parent"] is None or s["parent"] in ids
                assert s["msg"] is None or len(s["msg"]) == 2


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run("ipmi-signed", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
