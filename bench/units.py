"""The ``units`` command's layers at the benchmark's size: construction, oracle and writer.

    python bench/units.py [--quick] [--against SRC]

Prints one JSON object with the CPU per call (``time.thread_time``; median and quartiles,
in ms, over ``repeats`` calls) of each layer of ``units --n 9999990 --k 720 --json
--oracle``, the heaviest command of perfbench's ``bulk_output``:

- ``k_units``: ``unitgroup._k_units(n, k, n)``, with the dtype, length and nbytes of the
  array it returns;
- ``oracle``: ``cli._not_k_unit`` on that array, with its verdict (None when every
  residue passes);
- ``write_json`` and ``write_plain``: ``cli._write_ints`` of the array into a sink in
  memory, in the ``--json`` and the plain style, with the bytes written and their SHA-256
  from one more call.

``--against SRC`` loads a second tree's package from its ``src`` directory (say, a
``git archive`` of the parent commit) and runs every layer on both trees, alternating
which goes first; each row then carries the ratio of this tree's median to the other's.
Equal lengths, verdicts, bytes and digests show that the two trees do the same work.
Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import sys
import time
from pathlib import Path

from ecm import SRC, load, quartiles
from solver import Sink

N, K = 9999990, 720
STYLES = {"write_json": ('"', ", "), "write_plain": ("", " ")}


def write(cli, units, style: tuple[str, str], sink: Sink) -> None:
    """``cli._write_ints`` of units into sink, in the quote and separator of ``style``."""
    with contextlib.redirect_stdout(sink):
        cli._write_ints(units, *style)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true", help="5 calls per layer, in seconds")
    parser.add_argument("--against", type=Path, help="the src directory of a second tree")
    args = parser.parse_args(argv)
    trees = {"tree": load(SRC, "kunits")}
    if args.against:
        trees["against"] = load(args.against.resolve(), "kunits_against")
    unitgroups = {side: sys.modules[f"{package.__name__}.unitgroup"] for side, package in trees.items()}
    clis = {side: importlib.import_module(f"{package.__name__}.cli") for side, package in trees.items()}
    units = {side: unitgroups[side]._k_units(N, K, N) for side in trees}
    layers = {
        "k_units": lambda side: unitgroups[side]._k_units(N, K, N),
        "oracle": lambda side: clis[side]._not_k_unit(units[side], N, K),
        **{
            name: lambda side, style=style: write(clis[side], units[side], style, Sink())
            for name, style in STYLES.items()
        },
    }
    repeats = 5 if args.quick else 41
    report: dict = {"repeats": repeats, "quick": args.quick, "n": N, "k": K, "layers_ms": {}}
    for name, layer in layers.items():
        times: dict[str, list[float]] = {side: [] for side in trees}
        for i in range(repeats):
            for side in sorted(trees, reverse=i % 2 == 1):
                start = time.thread_time()
                layer(side)
                times[side].append((time.thread_time() - start) * 1e3)
        row = {}
        for side in trees:
            array = units[side]
            if name == "k_units":
                done = {"dtype": str(array.dtype), "count": len(array), "nbytes": array.nbytes}
            elif name == "oracle":
                done = {"verdict": layer(side)}
            else:
                sink = Sink(digest=True)
                write(clis[side], array, STYLES[name], sink)
                done = {"bytes": sink.bytes, "sha256": sink.sha256.hexdigest()}
            row[side] = {**quartiles(times[side]), **done}
        if args.against:
            row["ratio"] = round(row["tree"]["median"] / row["against"]["median"], 4)
        report["layers_ms"][name] = row
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
