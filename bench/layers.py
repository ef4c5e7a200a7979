"""The library's layers one case at a time: CPU time beside exact counts of the work done.

    python bench/layers.py [--quick] [--against SRC]

Prints one JSON object.  Each row gives the thread CPU (``time.thread_time``) of a call,
as the median and quartiles of the block's 41 calls (5 with ``--quick``; one per n in
``curve_ms`` and ``factorize``; 11 for the sweep to 10^7), beside the counts of one
more call made before them, with a private name of the library wrapped in this process
and restored after it.  The library is not changed for it.  The blocks:

- ``curve_ms``: ``arith._ecm_curve`` at B1 = 500, 2000 and 11,000, one curve per seeded
  product of two 60-bit primes at sigma = 6, 7, ..., how many split their n and the SHA-256
  of the gcds the curves return.  Primes that large are seldom found, so nearly every curve
  runs both of its stages in full;
- ``factorize``: the total CPU in seconds over 300 seeded products of two 32-bit primes
  (30 with ``--quick``), the ECM curves run, the multiplications charged
  (``arith._Budget.take``) and the SHA-256 of the factorizations;
- ``solve_us``: ``solve_rdu_one(k)`` for each of perfbench's ``HIGHLY_COMPOSITE_KS``, with
  the candidates tested and the primes kept (``solver._certified_prime``);
- ``enumerate_us``: ``solve --enumerate --json``'s list, ``solver._solutions`` then
  ``cli._write_ints`` into a sink in memory, for k = 720 (``bulk_output``'s k), 2^61 (whose
  solutions straddle 2^63), 2^100 (whose solutions past 2^63 include products of two
  others past it) and 720720 at ``--limit 100000``, with the solutions listed, the bytes
  written and their SHA-256;
- ``layers_ms``: ``units --n 9999990 --k 720 --json --oracle``, the heaviest command of
  ``bulk_output``, layer by layer: ``unitgroup._k_units`` with its array's dtype, length
  and nbytes, ``cli._not_k_unit`` with its verdict (None when every residue passes), and
  ``cli._write_ints`` in the ``--json`` and the plain style, with bytes and SHA-256;
- ``range_ms``: ``range_scan``'s Carmichael sweep (``classify.sweep``, rule n - 1,
  ``odd_only`` and ``composite_only``) over [3, 10^6], over [3, 10^7] (the north star's
  sweep, 105 hits), and over 2^18 odd n from 2^32, 2^40 and 2^48, which hold no hit;
  ``--quick`` takes [3, 10^5] and 2^14 odd n, and no sweep to 10^7.  Each row has its
  hits, the multiplications charged, and ``table``, the length of the prime table the
  sieve read (``unitgroup._primes_below``, built once per size, in the counting call).

``--against SRC`` loads a second tree's package from its ``src`` directory (say, a
``git archive`` of the parent commit) and runs every case on both trees, alternating which
goes first, so the two sides share the machine's state; each row then carries the ratio
of this tree's median (or total) to the other's.  Equal counts on both sides show that the
two trees do the same work.  Standard library only.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import importlib
import importlib.util
import json
import random
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import HIGHLY_COMPOSITE_KS  # noqa: E402

SEED = 32
# (k, limit); a row's key is k, or "k/limit" for a truncated list
ENUMERATED = ((720, None), (2**61, None), (2**100, None), (720720, 10**5))
N, K = 9999990, 720
STYLES = {"write_json": ('"', ", "), "write_plain": ("", " ")}


def load(src: Path, name: str) -> SimpleNamespace:
    """The layers of the kunits package under ``src``, imported as the package ``name``."""
    init = src / "kunits" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    layers = ("arith", "unitgroup", "solver", "classify", "cli")
    return SimpleNamespace(**{layer: importlib.import_module(f"{name}.{layer}") for layer in layers})


def timed(trees: dict, repeats: int, call, scale: float) -> dict[str, list[float]]:
    """The CPU of call(side, i), times scale, for i < repeats on each tree, alternating
    which tree goes first."""
    times: dict[str, list[float]] = {side: [] for side in trees}
    for i in range(repeats):
        for side in sorted(trees, reverse=i % 2 == 1):
            start = time.thread_time()
            call(side, i)
            times[side].append((time.thread_time() - start) * scale)
    return times


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def row(trees: dict, repeats: int, call, count, scale: float, summary=quartiles) -> dict:
    """The row of call(side, i) for i < repeats: count(side) first, on each tree, then
    summary of the timed calls' CPU beside it, and the ratio of this tree's first figure
    (the median, or the total) to the other's."""
    counts = {side: count(side) for side in trees}
    times = timed(trees, repeats, call, scale)
    result = {side: {**summary(times[side]), **counts[side]} for side in trees}
    if "against" in result:
        first = next(iter(result["tree"]))
        result["ratio"] = round(result["tree"][first] / result["against"][first], 4)
    return result


def counted(call, *wraps) -> tuple:
    """call()'s result and what it did, counted by each (owner, name, tally) of wraps:
    owner.name is wrapped to add tally(result, *args) of each of its calls to the counts
    while call runs, and restored after."""
    counts: collections.Counter = collections.Counter()
    with contextlib.ExitStack() as restore:
        for owner, name, tally in wraps:
            real = getattr(owner, name)

            def wrapper(*args, real=real, tally=tally):
                result = real(*args)
                counts.update(tally(result, *args))
                return result

            setattr(owner, name, wrapper)
            restore.callback(setattr, owner, name, real)
        return call(), counts


def charged(arith) -> tuple:
    """The wrap of counted that counts the multiplications charged to arith's work budget."""
    return arith._Budget, "take", lambda taken, budget, cost: {"charged": cost if taken else 0}


class Sink:
    """A stdout that keeps only the bytes written, or also their SHA-256."""

    def __init__(self, digest: bool = False):
        self.bytes = 0
        self.sha256 = hashlib.sha256() if digest else None

    def write(self, text: str) -> None:
        self.bytes += len(text)
        if self.sha256 is not None:
            self.sha256.update(text.encode("ascii"))


def written(cli, sink: Sink | None, *args) -> dict:
    """``cli._write_ints(*args)`` into sink, or into a new one that digests what it keeps:
    the bytes written, with their SHA-256 when it was taken."""
    sink = sink or Sink(digest=True)
    with contextlib.redirect_stdout(sink):
        cli._write_ints(*args)
    return {"bytes": sink.bytes, "sha256": sink.sha256 and sink.sha256.hexdigest()}


def digest(values) -> str:
    """The SHA-256 of the values' decimal text, one per line, so that two trees' answers compare
    in one field."""
    return hashlib.sha256("\n".join(map(str, values)).encode("ascii")).hexdigest()


def semiprimes(is_prime, count: int, rng: random.Random, bits: int) -> list[int]:
    """``count`` products of two random primes of ``bits`` bits."""

    def prime() -> int:
        while True:
            p = rng.getrandbits(bits) | 1 << (bits - 1) | 1
            if is_prime(p, bound=1 << bits):
                return p

    return [prime() * prime() for _ in range(count)]


def ecm(trees: dict, quick: bool) -> dict:
    """The ``curve_ms`` and ``factorize`` blocks."""
    rng = random.Random(SEED)
    is_prime = trees["tree"].arith.is_prime
    factored = semiprimes(is_prime, 30 if quick else 300, rng, 32)
    curve_ms = {}
    for b1, count in zip((500, 2_000, 11_000), (6, 3, 2) if quick else (60, 20, 8)):
        cases = semiprimes(is_prime, count, rng, 60)
        plans = {side: tree.arith._ecm_plan(b1) for side, tree in trees.items()}

        def curve(side, i):
            return trees[side].arith._ecm_curve(cases[i], 6 + i, plans[side])

        def splits(side):
            found = [curve(side, i) for i in range(len(cases))]
            return {"splits": sum(1 < g < n for g, n in zip(found, cases)), "sha256": digest(found)}

        curve_ms[str(b1)] = row(trees, count, curve, splits, 1e3)

    def work(side):
        arith = trees[side].arith
        curves = arith, "_ecm_curve", lambda g, *args: {"curves": 1}
        found, done = counted(lambda: [arith.factorize(n) for n in factored], curves, charged(arith))
        answers = digest(f.factors for f in found)
        return {"curves": done["curves"], "charged": done["charged"], "sha256": answers}

    factor = lambda side, i: trees[side].arith.factorize(factored[i])  # noqa: E731
    total = lambda times: {"cpu_s": round(sum(times), 4)}  # noqa: E731
    return {
        "curve_ms": curve_ms,
        "factorize": {"n": len(factored), **row(trees, len(factored), factor, work, 1, total)},
    }


def solver(trees: dict, repeats: int) -> dict:
    """The ``solve_us`` and ``enumerate_us`` blocks."""
    solve_us = {}
    for k in HIGHLY_COMPOSITE_KS:

        def solve(side, i=0):
            return trees[side].solver.solve_rdu_one(k)

        def tested(side):
            tally = lambda prime, *args: {"candidates": 1, "kept": int(prime)}  # noqa: E731
            _, done = counted(lambda: solve(side), (trees[side].solver, "_certified_prime", tally))
            return {"candidates": done["candidates"], "kept": done["kept"]}

        solve_us[str(k)] = row(trees, repeats, solve, tested, 1e6)

    enumerate_us = {}
    for k, limit in ENUMERATED:
        sols = {side: tree.solver.solve_rdu_one(k) for side, tree in trees.items()}

        def listed(side, sink=None):
            low, high = trees[side].solver._solutions(sols[side], limit)
            return {"solutions": len(low) + len(high), **written(trees[side].cli, sink, low, '"', ", ", high)}

        key = str(k) if limit is None else f"{k}/{limit}"
        enumerate_us[key] = row(trees, repeats, lambda side, i: listed(side, Sink()), listed, 1e6)
    return {"solve_us": solve_us, "enumerate_us": enumerate_us}


def units(trees: dict, repeats: int) -> dict:
    """The ``layers_ms`` block."""
    arrays = {side: tree.unitgroup._k_units(N, K, N) for side, tree in trees.items()}

    def oracle(side, i=0):
        return trees[side].cli._not_k_unit(arrays[side], N, K)

    def shape(side):
        return {"dtype": str(arrays[side].dtype), "count": len(arrays[side]), "nbytes": arrays[side].nbytes}

    construct = lambda side, i: trees[side].unitgroup._k_units(N, K, N)  # noqa: E731
    layers_ms = {
        "k_units": row(trees, repeats, construct, shape, 1e3),
        "oracle": row(trees, repeats, oracle, lambda side: {"verdict": oracle(side)}, 1e3),
    }
    for name, style in STYLES.items():

        def write(side, sink=None):
            return written(trees[side].cli, sink, arrays[side], *style)

        layers_ms[name] = row(trees, repeats, lambda side, i: write(side, Sink()), write, 1e3)
    return {"layers_ms": layers_ms}


def sweeps(trees: dict, repeats: int, quick: bool) -> dict:
    """The ``range_ms`` block."""
    span = 1 << (15 if quick else 19)  # 2^14 or 2^18 odd n
    top = 10**5 if quick else 10**6
    windows = {f"3-{top}": (3, top, repeats)}
    if not quick:  # one sweep to 10^7 takes about 0.5 s, so it is timed 11 times
        windows["3-10000000"] = (3, 10**7, 11)
    windows |= {f"2^{b}+{span}": (1 << b, (1 << b) + span - 1, repeats) for b in (32, 40, 48)}
    rules = {side: tree.classify.parse_rule("n-1") for side, tree in trees.items()}
    range_ms = {}
    for key, (lo, hi, calls) in windows.items():

        def sweep(side, i=0):
            return trees[side].classify.sweep(lo, hi, rules[side], odd_only=True, composite_only=True)

        def work(side):
            table = trees[side].unitgroup, "_primes_below", lambda primes, bits: {"table": len(primes)}
            result, done = counted(lambda: sweep(side), charged(trees[side].arith), table)
            return {"hits": len(result.hits), "charged": done["charged"], "table": done["table"]}

        range_ms[key] = row(trees, calls, sweep, work, 1e3)
    return {"range_ms": range_ms}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true", help="a few calls per case, in seconds")
    parser.add_argument("--against", type=Path, help="the src directory of a second tree")
    args = parser.parse_args(argv)
    trees = {"tree": load(ROOT / "src", "kunits")}
    if args.against:
        trees["against"] = load(args.against.resolve(), "kunits_against")
    repeats = 5 if args.quick else 41
    report = {"seed": SEED, "repeats": repeats, "quick": args.quick}
    report |= ecm(trees, args.quick) | solver(trees, repeats) | units(trees, repeats)
    report |= sweeps(trees, repeats, args.quick)
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
