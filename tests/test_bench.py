"""bench/layers.py at --quick, with this tree against itself.

The harness reads private names of the library (``_write_ints``, ``_k_units``,
``_not_k_unit``, ``_solutions``, ``_ecm_curve``, ``_Budget.take``,
``_certified_prime`` and ``_primes_below``), so a rename breaks it here rather
than in a later measurement.  It runs in a subprocess, as loading the package a
second time in this process would replace modules that other tests hold.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMINGS = {"median", "q1", "q3", "cpu_s"}


def _counts(side: dict) -> dict:
    return {key: value for key, value in side.items() if key not in TIMINGS}


def test_layers_quick_against_this_tree():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "layers.py"), "--quick", "--against", str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    blocks = ["curve_ms", "factorize", "solve_us", "enumerate_us", "layers_ms", "range_ms"]
    assert [key for key in report if key in blocks] == blocks
    rows = [report["factorize"]]
    rows += [row for block in blocks if block != "factorize" for row in report[block].values()]
    for row in rows:
        assert _counts(row["tree"]) == _counts(row["against"]), row
        assert row["ratio"] > 0
    # the wrapped names were called
    assert report["factorize"]["tree"]["curves"] > 0 and report["factorize"]["tree"]["charged"] > 0
    assert all(row["tree"]["kept"] > 0 for row in report["solve_us"].values())
    layers = {name: row["tree"] for name, row in report["layers_ms"].items()}
    assert layers["k_units"]["count"] == 1866240 and layers["oracle"]["verdict"] is None
    assert report["range_ms"]["3-100000"]["tree"]["hits"] == 16  # the Carmichael numbers below 1e5
    assert report["range_ms"]["3-100000"]["tree"]["table"] == 97  # the primes below 2^9 >= isqrt(1e5)
