"""The solver over the benchmark's k: CPU time of ``solve_rdu_one`` beside the work it does.

    python bench/solver.py [--quick] [--against SRC]

Prints one JSON object with a row for each of perfbench's ``HIGHLY_COMPOSITE_KS``: the CPU
per call of ``solve_rdu_one(k)`` (``time.thread_time``; median and quartiles, in µs, over
``repeats`` calls), the candidates it tested and the primes it kept.  The two counts come
from one more call, made with ``solver._certified_prime`` wrapped in this process; the
library is not changed for it, and the timed calls run unwrapped.

The ``enumerate_us`` block times ``solve --enumerate --json``'s list for k = 720 (the k of
perfbench's ``bulk_output``), 2^61 (whose solutions straddle 2^63), 2^100 (whose
solutions past 2^63 include products of two others past it) and, truncated by
``--limit 100000``, 720720: ``solver._solutions`` of the solved k, then
``cli._write_ints`` of its values into a sink in memory.  Each row carries the solutions
listed, and the bytes written with their SHA-256, from one more call.

``--against SRC`` loads a second tree's package from its ``src`` directory (say, a
``git archive`` of the parent commit) and runs every k on both trees, alternating which
goes first; each row then carries the ratio of this tree's median to the other's.  Equal
counts on both sides show that the two trees do the same work.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import sys
import time
from pathlib import Path

from ecm import SRC, load, quartiles

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import HIGHLY_COMPOSITE_KS  # noqa: E402


def counted(solver, k: int) -> dict[str, int]:
    """The candidates ``solver.solve_rdu_one(k)`` tests for primality and the primes it keeps."""
    counts = {"candidates": 0, "kept": 0}
    certified = solver._certified_prime

    def certified_prime(m, n=None):
        prime = certified(m, n)
        counts["candidates"] += 1
        counts["kept"] += prime
        return prime

    solver._certified_prime = certified_prime
    try:
        solver.solve_rdu_one(k)
    finally:
        solver._certified_prime = certified
    return counts


# (k, limit); a row's key is k, or "k/limit" for a truncated list
ENUMERATED = ((720, None), (2**61, None), (2**100, None), (720720, 10**5))


class Sink:
    """A stdout that keeps only the bytes written, or also their SHA-256."""

    def __init__(self, digest: bool = False):
        self.bytes = 0
        self.sha256 = hashlib.sha256() if digest else None

    def write(self, text: str) -> None:
        self.bytes += len(text)
        if self.sha256 is not None:
            self.sha256.update(text.encode("ascii"))


def enumerate_once(solver, cli, sol, sink: Sink, limit: int | None) -> int:
    """Lists sol's first ``limit`` solutions (all for None) as ``solve --enumerate --json``
    writes them into sink; their count."""
    low, high = solver._solutions(sol, limit)
    with contextlib.redirect_stdout(sink):
        cli._write_ints(low, '"', ", ", high)
    return len(low) + len(high)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true", help="5 calls per k, in about a second")
    parser.add_argument("--against", type=Path, help="the src directory of a second tree")
    args = parser.parse_args(argv)
    trees = {"tree": load(SRC, "kunits")}
    if args.against:
        trees["against"] = load(args.against.resolve(), "kunits_against")
    solvers = {side: sys.modules[f"{package.__name__}.solver"] for side, package in trees.items()}
    clis = {side: importlib.import_module(f"{package.__name__}.cli") for side, package in trees.items()}
    repeats = 5 if args.quick else 41
    report: dict = {"repeats": repeats, "quick": args.quick, "solve_us": {}}
    for k in HIGHLY_COMPOSITE_KS:
        times: dict[str, list[float]] = {side: [] for side in trees}
        for i in range(repeats):
            for side in sorted(trees, reverse=i % 2 == 1):
                start = time.thread_time()
                solvers[side].solve_rdu_one(k)
                times[side].append((time.thread_time() - start) * 1e6)
        row = {side: {**quartiles(times[side]), **counted(solvers[side], k)} for side in trees}
        if args.against:
            row["ratio"] = round(row["tree"]["median"] / row["against"]["median"], 4)
        report["solve_us"][str(k)] = row
    report["enumerate_us"] = {}
    for k, limit in ENUMERATED:
        sols = {side: solvers[side].solve_rdu_one(k) for side in trees}
        times = {side: [] for side in trees}
        for i in range(repeats):
            for side in sorted(trees, reverse=i % 2 == 1):
                start = time.thread_time()
                enumerate_once(solvers[side], clis[side], sols[side], Sink(), limit)
                times[side].append((time.thread_time() - start) * 1e6)
        row = {}
        for side in trees:
            sink = Sink(digest=True)
            listed = enumerate_once(solvers[side], clis[side], sols[side], sink, limit)
            written = {"solutions": listed, "bytes": sink.bytes, "sha256": sink.sha256.hexdigest()}
            row[side] = {**quartiles(times[side]), **written}
        if args.against:
            row["ratio"] = round(row["tree"]["median"] / row["against"]["median"], 4)
        report["enumerate_us"][str(k) if limit is None else f"{k}/{limit}"] = row
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
