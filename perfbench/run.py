"""Runs the kunits benchmark.

    python3 perfbench/run.py --workload range_scan --seed 1 --seconds 30 --trace 0

Runs one workload (or ``all`` of them, one after another) in fresh
single-threaded worker processes, started one at a time: one worker per
pass of the workload, each after a few set-up probes, then one for the
tail operations.  The number of passes fills ``--seconds`` at the pass
time pinned in workloads.py, so it is the same on every commit.  This
process makes the inputs, checks every output against oracle.py outside
the timed region, and prints the machine, then the result as the last
line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
reports its per-layer metrics instead: it runs the first pass and the
tail with spans, between two untraced runs of the first pass.
``--out FILE`` also appends the machine, the arguments and the result to
FILE as one JSON line, for compare.py.  Exit code 0 when every output is
correct, 1 when a check fails, 2 when nothing could be measured.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import time
from statistics import median

import metrics
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
# Fresh workers that only time set-up, before each pass; every worker
# that runs a pass times its set-up too.
PROBES_PER_PASS = 3
IMPORTTIME_PROBES = 3
# Two passes at least: a workload that repeats its operations then has a
# fastest run of each (see metrics.py).
MIN_PASSES = 2
# A run ends within this, whatever the program does; the operations'
# deadlines make a hang a failed operation long before.
RUN_LIMIT_S = 170
# Single-threaded workers with reproducible hashing.
WORKER_ENV = {
    **os.environ,
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchmarkError(Exception):
    """Nothing could be measured; the run prints no result."""


def _worker(args: list[str], until: float, job: dict | None = None, python_flags: tuple = ()) -> tuple[dict, str]:
    """Run one worker to completion, or fail the run at the perf_counter time until."""
    try:
        proc = subprocess.run(
            [sys.executable, *python_flags, WORKER, *args],
            input=json.dumps(job) if job is not None else "",
            capture_output=True,
            text=True,
            timeout=max(until - time.perf_counter(), 1),
            cwd=ROOT,
            env=WORKER_ENV,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker {args} ran past the {RUN_LIMIT_S} s limit of a run") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"worker {args} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def _importtime(stderr: str) -> dict:
    """Cumulative import seconds of kunits and numpy from `python -X importtime`."""
    out = {}
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$", line)
        if m and m.group(2) in ("kunits", "numpy"):
            out[m.group(2)] = int(m.group(1)) / 1e6
    if set(out) != {"kunits", "numpy"}:
        raise BenchmarkError("no import times for kunits and numpy")
    return out


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _machine(probe: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": probe["python"],
        "numpy": probe["numpy"],
        "commit": _commit(),
    }


def _specs(trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def pass_count(workload, seconds: float) -> int:
    """Passes of a run: enough to fill seconds at the workload's pinned pass time.

    The count depends on the arguments only, never on how fast the program
    runs, so the same seed and seconds give the same work on every commit.
    """
    return max(MIN_PASSES, round(seconds / workload.PASS_SECONDS))


def _passes(workload, workdir: str, count: int, until: float):
    """count untraced passes, each in a fresh worker after PROBES_PER_PASS set-up probes.

    Returns the passes' operations, the workers' outputs and the probes'
    set-up times.
    """
    passes, outs, setups = [], [], []
    for index in range(count):
        setups += [_worker(["probe"], until)[0]["setup_s"] for _ in range(PROBES_PER_PASS)]
        passes.append(workload.pass_ops(index))
        outs.append(_worker(["run"], until, {"workdir": workdir, "trace": False, "ops": passes[-1]})[0])
    return passes, outs, setups


def run_workload(name: str, seed: int, seconds: float, trace: bool, **sizes) -> dict:
    """Measure one workload; returns the machine and the result object."""
    until = time.perf_counter() + RUN_LIMIT_S
    workdir = os.path.join(HERE, ".work", name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[name](seed, workdir, **sizes)
        # The first worker warms the file cache and writes bytecode; it is not counted.
        probe = _worker(["probe"], until)[0]
        tail = workload.tail()
        if trace:
            probes = [
                _worker(["probe"], until, python_flags=("-X", "importtime")) for _ in range(IMPORTTIME_PROBES)
            ]
            importtime = {
                key: median(_importtime(stderr)[key] for _, stderr in probes) for key in ("kunits", "numpy")
            }
            # The traced run sits between two untraced runs of the first
            # pass, so that a shared machine's drift cancels in the overhead.
            first = workload.pass_ops(0)
            before = _worker(["run"], until, {"workdir": workdir, "trace": False, "ops": first})[0]
            traced = _worker(["run"], until, {"workdir": workdir, "trace": True, "ops": first + tail})[0]
            after = _worker(["run"], until, {"workdir": workdir, "trace": False, "ops": first})[0]
            jobs = [(first, before), (first + tail, traced), (first, after)]
        else:
            passes, outs, setups = _passes(workload, workdir, pass_count(workload, seconds), until)
            tail_job = {"workdir": workdir, "trace": False, "ops": tail}
            tail_outs = [_worker(["run"], until, tail_job)[0]] if tail else []
            jobs = list(zip(passes, outs)) + [(tail, out) for out in tail_outs]
        ops = [op for job_ops, _ in jobs for op in job_ops]
        results = [r for _, out in jobs for r in out["results"]]
        verdicts = workload.judge_all(ops, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for op, (status, _, value), verdict in zip(ops, results, verdicts):
        if verdict != "ok":
            what = op.get("argv") or [op["fn"], *op["args"]]
            print(f"{name}: {verdict} ({status}) on {what}: {str(value)[:300]}", file=sys.stderr)
    failed = sum(v != "ok" for v in verdicts)
    if trace:
        values = metrics.per_layer(workload, first + tail, traced, [before, after], importtime)
    else:
        setups += [out["setup_s"] for out in outs + tail_outs]
        values = metrics.end_to_end(workload, passes, outs, tail_outs, setups, 1 - failed / len(verdicts))
    units = _specs(trace)
    if set(values) != set(units):
        raise BenchmarkError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    result = {
        "correct": "wrong" not in verdicts,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return {"machine": _machine(probe), "result": result}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append one JSON line per workload to this file")
    args = parser.parse_args(argv)
    sys.set_int_max_str_digits(0)  # n_max of a highly composite k has thousands of digits
    if not os.path.isfile(os.path.join(ROOT, "src", "kunits", "__init__.py")):
        print(f"error: no kunits sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchmarkError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        result = record["result"]
        correct &= result["correct"]
        for key, metric in result["metrics"].items():
            print(f"{name:14} {key:52} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                line = {"workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, **record}
                fh.write(json.dumps(line) + "\n")
        print(json.dumps({"machine": record["machine"], "workload": name}))
        print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
