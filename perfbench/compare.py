"""Compare two sets of benchmark results.

    python3 perfbench/run.py --workload all --seed 1 --out base.jsonl    # on the parent commit
    python3 perfbench/run.py --workload all --seed 1 --out change.jsonl  # on the change
    ... more seeds, alternating which side runs first ...
    python3 perfbench/compare.py base.jsonl change.jsonl

For each workload and metric, prints the median and the quartile spread
of each side, the change of the median, and for end-to-end metrics
whether the change is worse than the parent by more than the metric's
bound in BENCHMARK.json.  Runs are paired by (workload, seed, trace) to
count how many pairs the change wins.  The ``failed`` count of each result
is compared too: a change whose median is above the parent's fails,
since a gain does not count when more operations fail.  Exit code 1 when
any of these checks fails.
"""

from __future__ import annotations

import argparse
import json
import os
from collections import defaultdict
from statistics import median, quantiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(path: str) -> dict:
    """(workload, trace, metric) -> {seed: value}; the last run of a seed wins.

    The metric "failed" holds the result's count of failed operations.
    """
    out: dict = defaultdict(dict)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            values = {name: metric["value"] for name, metric in record["result"]["metrics"].items()}
            values["failed"] = record["result"]["failed"]
            for name, value in values.items():
                out[(record["workload"], record["trace"], name)][record["seed"]] = value
    return out


def _spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2 or median(values) == 0:
        return 0.0
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / abs(median(values))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    rules = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = _load(args.base), _load(args.change)
    worse = 0
    print(f"{'workload':14} {'metric':48} {'base':>12} {'change':>12} {'diff':>8} {'spread':>7} {'wins':>6}  verdict")
    for key in sorted(set(base) & set(change)):
        workload, _, name = key
        rule = rules.get(name, {"better": "lower"})
        a, b = base[key], change[key]
        ma, mb = median(a.values()), median(b.values())
        diff = (mb - ma) / abs(ma) if ma else 0.0
        sign = 1 if rule["better"] == "higher" else -1
        seeds = set(a) & set(b)
        wins = sum(sign * (b[s] - a[s]) > 0 for s in seeds)
        verdict = ""
        if name == "failed":
            if mb > ma:
                verdict = "WORSE: more operations failed"
                worse += 1
        elif "bound" in rule:
            if sign * diff < -rule["bound"]:
                verdict = f"WORSE than bound {rule['bound']}"
                worse += 1
            elif _spread(list(a.values())) > rule["bound"]:
                verdict = "unresolved: spread above bound"
            else:
                verdict = "within bound"
        print(
            f"{workload:14} {name:48} {ma:12.5g} {mb:12.5g} {diff:+8.1%} "
            f"{_spread(list(a.values())):7.1%} {wins:>2}/{len(seeds):<3}  {verdict}"
        )
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
