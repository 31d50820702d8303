"""Smoke test of the benchmark, on the smallest rung of each workload.

    python3 -m pytest perfbench/test_smoke.py

It checks the output against the schema in BENCHMARK.json and the
determinism gate: two untraced runs and the traced run print the same
digest, node counts, step counts and code sizes.  It also checks that
the benchmark refuses to run without the program beside it.  Timings
are not asserted; they are noise on a shared machine.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run(workload, trace, cwd=ROOT):
    script = os.path.join(cwd, "perfbench", "run.py")
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=cwd)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    digest = next(line for line in lines if line.startswith("digest="))
    return digest, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smallest_rung(workload):
    digest_a, plain = result(run(workload, 0))
    digest_b, _ = result(run(workload, 0))
    digest_t, traced = result(run(workload, 1))
    assert digest_a == digest_b == digest_t
    for res, spec in ((plain, SPEC["end_to_end"]),
                      (traced, SPEC["per_layer"])):
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True
        assert res["failed"] == 0 and res["attempted"] >= 1
        units = {name: m["unit"] for name, m in res["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in spec}
        for m in res["metrics"].values():
            assert isinstance(m["value"], (int, float))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("passwise", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
