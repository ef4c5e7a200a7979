"""Smoke test of the benchmark at tiny sizes (under a minute).

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "range_scan": {"hi": 2000},
    "point_queries": {"per_pass": 20},
    "bulk_output": {"prime": 101, "units_n": 1000, "units_k": 12, "solve_k": 12, "c0_limit": 300},
}


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_emitted_with_its_unit(name, trace):
    sys.set_int_max_str_digits(0)
    record = run.run_workload(name, seed=3, seconds=0, trace=trace, **TINY[name])
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    wanted = {m["name"]: m["unit"] for m in _spec()["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert set(record["machine"]) == {"nproc", "cpu", "python", "numpy", "commit"}
    # The tail's known hang is the only failure.
    assert result["failed"] == (1 if name == "point_queries" else 0)


def test_deadline_turns_a_hang_into_a_failed_operation():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import kunits
    from runner import Runner
    from speed import SpeedProbe

    queries = workloads.PointQueries(1, HERE)
    hang = {**queries.tail()[0], "deadline": 0.3}
    speed = SpeedProbe()
    speed.start()
    try:
        status, seconds, _ = Runner(kunits, HERE, speed).run(hang)
    finally:
        speed.stop()
    assert status == "deadline"
    assert 0.3 <= seconds < 2
    assert queries.judge(hang, status, None) == "failed"


def test_a_wrong_answer_is_judged_wrong():
    queries = workloads.PointQueries(1, HERE)
    op = queries._factorize(random.Random(0), 0)
    n = op["args"][0]
    assert queries.judge(op, "ok", {"n": n, "factors": op["expect"]}) == "ok"
    assert queries.judge(op, "ok", {"n": n, "factors": [[n, 1]]}) == "wrong"


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "range_scan", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
