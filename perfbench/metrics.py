"""End-to-end and per-layer metrics from the workers' results.

A result is ``[status, seconds, value]`` (see runner.py).  End-to-end
metrics come from untraced passes only; per-layer metrics come only from
the traced worker, whose spans slow the program down.
"""

from __future__ import annotations

from math import floor
from statistics import median

from spans import LAYERS


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 1]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _op_seconds(passes: list[list[dict]], results: list[list[list]]) -> list[tuple[dict, float]]:
    """Each distinct operation with its fastest run.

    Passes that repeat the same operations ran in different fresh
    workers, so no state carried over between them; on a shared machine
    the slower runs measure the neighbours.
    """
    runs: list[tuple[list[dict], list[list[list]]]] = []
    for ops, res in zip(passes, results):
        same = next((r for o, r in runs if o == ops), None)
        if same is None:
            runs.append((ops, [res]))
        else:
            same.append(res)
    return [(op, min(res[i][1] for res in rs)) for ops, rs in runs for i, op in enumerate(ops)]


def end_to_end(workload, passes, outs, tail_outs, setup_samples, ok_share) -> dict:
    """outs are the pass workers' outputs, tail_outs those of the tail's worker."""
    timed = _op_seconds(passes, [out["results"] for out in outs])
    seconds = sum(t for _, t in timed)
    latencies_ms = [t * 1000 for _, t in timed] + [r[1] * 1000 for out in tail_outs for r in out["results"]]
    return {
        "setup_s": median(setup_samples),
        "items_per_s": sum(workload.items(op) for op, _ in timed) / seconds,
        "op_p50_ms": percentile(latencies_ms, 0.50),
        "op_p99_ms": percentile(latencies_ms, 0.99),
        "peak_rss_mb": median(out["peak_rss_mb"] for out in outs),
        "ok_share": ok_share,
    }


def _overhead_share(untraced: list[list[list]], traced: list[list]) -> float:
    """Program time of the traced run over the mean of the untraced runs of
    the same operations, minus 1.

    traced may go on past the untraced runs (the tail); operations that hit
    their deadline in any run are left out of every sum.
    """
    keep = [
        i for i in range(len(untraced[0]))
        if all(res[i][0] != "deadline" for res in [*untraced, traced])
    ]
    base = sum(res[i][1] for res in untraced for i in keep) / len(untraced)
    return sum(traced[i][1] for i in keep) / base - 1 if base > 0 else 0.0


def per_layer(workload, traced_ops, traced: dict, untraced: list[dict], importtime: dict) -> dict:
    """Metrics of the traced worker, which ran traced_ops (the first pass and the tail).

    untraced are the outputs of the workers that ran the first pass
    untraced, just before and just after it.
    """
    report = traced["spans"]
    spans = report["spans"]  # [name, parent, count, busy_s, self_s]

    def total(name: str, column: int) -> float:
        return sum(row[column] for row in spans if row[0] == name)

    def calls(name):
        return total(name, 2)

    def busy(name):
        return total(name, 3)

    def self_s(name):
        return total(name, 4)

    def children(name, child=None):
        return sum(row[2] for row in spans if row[1] == name and child in (None, row[0]))

    def under_root(name, root):
        return sum(row[2] for row in report["under_root"] if row[0] == name and row[1] == root)

    def ratio(a, b):
        return a / b if b else 0.0

    work = report["work"]
    items = sum(workload.items(op) for op in traced_ops)
    stdout_bytes = sum(
        r[2]["bytes"] for op, r in zip(traced_ops, traced["results"]) if "argv" in op and r[0] == "ok"
    )
    metrics = {
        "arith.factorize.calls": calls("arith.factorize"),
        "arith.factorize.self_s": self_s("arith.factorize"),
        "arith.factorize.per_n": ratio(calls("arith.factorize"), items),
        "arith.factorize.large_cofactor_share": ratio(
            work["arith.factorize.large_cofactor"], work["arith.factorize.returned"]
        ),
        "arith.is_prime.calls": calls("arith.is_prime"),
        "arith.is_prime.self_s": self_s("arith.is_prime"),
        "unitgroup.k_unit_stats.calls": calls("unitgroup.k_unit_stats"),
        "unitgroup.k_unit_stats.self_s": self_s("unitgroup.k_unit_stats"),
        "unitgroup.enumerate_k_units.self_s": self_s("unitgroup.enumerate_k_units"),
        "unitgroup.enumerate_k_units.residues_per_s": ratio(
            work["unitgroup.enumerate_k_units.residues"], busy("unitgroup.enumerate_k_units")
        ),
        "solver.solve_rdu_one.calls": calls("solver.solve_rdu_one"),
        "solver.solve_rdu_one.self_s": self_s("solver.solve_rdu_one"),
        "solver.solve_rdu_one.is_prime_per_kept": ratio(
            children("solver.solve_rdu_one", "arith.is_prime"), work["solver.solve_rdu_one.kept"]
        ),
        "solver.enumerate_rdu_one_solutions.self_s": self_s("solver.enumerate_rdu_one_solutions"),
        "solver.enumerate_rdu_one_solutions.solutions_per_s": ratio(
            work["solver.enumerate_rdu_one_solutions.solutions"],
            busy("solver.enumerate_rdu_one_solutions"),
        ),
        "solver.is_rdu_one.calls": calls("solver.is_rdu_one"),
        "solver.is_rdu_one.self_s": self_s("solver.is_rdu_one"),
        "classify.sweep.self_s": self_s("classify.sweep"),
        "classify.is_carmichael.calls": calls("classify.is_carmichael"),
        "classify.classify.calls": calls("classify.classify"),
        "classify.classify.factorize_per_call": ratio(
            under_root("arith.factorize", "classify.classify"),
            under_root("classify.classify", "classify.classify"),
        ),
        "classify.is_knodel.self_s": self_s("classify.is_knodel"),
        "classify.is_generalized_carmichael.calls": calls("classify.is_generalized_carmichael"),
        "classify.is_generalized_carmichael.self_s": self_s("classify.is_generalized_carmichael"),
        "bfile.parse_path.self_s": self_s("bfile.parse_path"),
        "bfile.compare_bfile.self_s": self_s("bfile.compare_bfile"),
        "bfile.compare_bfile.predicate_calls": children("bfile.compare_bfile"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.stdout_bytes": stdout_bytes,
        "setup.import_s": importtime["kunits"],
        "setup.import_numpy_s": importtime["numpy"],
        "trace.overhead_share": _overhead_share([out["results"] for out in untraced], traced["results"]),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(row[4] for row in spans if row[0].startswith(layer + "."))
        metrics[f"{layer}.capability_errors"] = report["capability_errors"][layer]
        metrics[f"{layer}.deadline_misses"] = report["deadline_misses"][layer]
    return metrics
