"""ECM's cost per curve and inside factorize: CPU time beside the work budget's exact counts.

    python bench/ecm.py [--quick] [--against SRC]

Prints one JSON object:

- ``curve_ms``: CPU per curve (``time.thread_time``; median and quartiles, in ms) of
  ``arith._ecm_curve`` at B1 = 500, 2000 and 11,000, over seeded products of two 60-bit
  primes at sigma = 6, 7, ..., with how many of those curves split their n.  Primes that
  large are seldom found, so nearly every curve runs both of its stages in full, the work
  its charge is for; a curve that splits n in stage 1 skips stage 2;
- ``factorize``: the CPU of ``factorize`` over 300 seeded products of two 32-bit primes
  (30 with ``--quick``), the ECM curves it ran and the modular multiplications it charged.

``--against SRC`` loads a second tree's package from its ``src`` directory (say, a
``git archive`` of the parent commit) and runs every case on both trees, alternating
which goes first, so the two sides share the machine's state; each CPU figure then
carries the ratio of this tree's median or total to the other's.  Curves and charges are
counted by wrapping ``arith._ecm_curve`` and ``arith._Budget.take`` in this process; the
library is not changed for it.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import random
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SEED = 32
B1S = (500, 2_000, 11_000)


def load(src: Path, name: str):
    """The kunits package under ``src``, imported as ``name``."""
    if name == "kunits":
        sys.path.insert(0, str(src))
        return importlib.import_module("kunits")
    init = src / "kunits" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def counted(arith) -> dict[str, int]:
    """Counts of the curves run and the multiplications charged by ``arith``, from now on."""
    counts = {"curves": 0, "charged": 0}
    curve, take = arith._ecm_curve, arith._Budget.take

    def ecm_curve(n, sigma, plan):
        counts["curves"] += 1
        return curve(n, sigma, plan)

    def budget_take(budget, cost):
        taken = take(budget, cost)
        counts["charged"] += cost if taken else 0
        return taken

    arith._ecm_curve, arith._Budget.take = ecm_curve, budget_take
    return counts


def semiprimes(is_prime, count: int, rng: random.Random, bits: int) -> list[int]:
    """``count`` products of two random primes of ``bits`` bits."""

    def prime() -> int:
        while True:
            p = rng.getrandbits(bits) | 1 << (bits - 1) | 1
            if is_prime(p, bound=1 << bits):
                return p

    return [prime() * prime() for _ in range(count)]


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true", help="a few cases each, in seconds")
    parser.add_argument("--against", type=Path, help="the src directory of a second tree")
    args = parser.parse_args(argv)
    trees = {"tree": load(SRC, "kunits")}
    if args.against:
        trees["against"] = load(args.against.resolve(), "kunits_against")
    ariths = {side: sys.modules[f"{package.__name__}.arith"] for side, package in trees.items()}
    rng = random.Random(SEED)
    factored = semiprimes(trees["tree"].is_prime, 30 if args.quick else 300, rng, 32)
    curves = {500: 6, 2_000: 3, 11_000: 2} if args.quick else {500: 60, 2_000: 20, 11_000: 8}
    report: dict = {"seed": SEED, "quick": args.quick}

    report["curve_ms"] = {}
    for b1 in B1S:
        times: dict[str, list[float]] = {side: [] for side in trees}
        splits = dict.fromkeys(trees, 0)
        cases = semiprimes(trees["tree"].is_prime, curves[b1], rng, 60)
        for i, n in enumerate(cases):
            for side in sorted(trees, reverse=i % 2 == 1):
                arith = ariths[side]
                plan = arith._ecm_plan(b1)
                start = time.thread_time()
                g = arith._ecm_curve(n, 6 + i, plan)
                times[side].append((time.thread_time() - start) * 1e3)
                splits[side] += 1 < g < n
        row = {side: {**quartiles(times[side]), "splits": splits[side]} for side in trees}
        if args.against:
            row["ratio"] = round(row["tree"]["median"] / row["against"]["median"], 4)
        report["curve_ms"][str(b1)] = row

    counts = {side: counted(arith) for side, arith in ariths.items()}
    cpu = dict.fromkeys(trees, 0.0)
    for i, n in enumerate(factored):
        for side in sorted(trees, reverse=i % 2 == 1):
            start = time.thread_time()
            trees[side].factorize(n)
            cpu[side] += time.thread_time() - start
    row = {side: {"cpu_s": round(cpu[side], 4), **counts[side]} for side in trees}
    if args.against:
        row["ratio"] = round(cpu["tree"] / cpu["against"], 4)
    report["factorize"] = {"n": len(factored), **row}
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
