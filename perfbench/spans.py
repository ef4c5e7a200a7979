"""Spans around the public functions of kunits, installed from outside.

``Tracer.install`` wraps every public function (and public classmethod)
that a layer module lists in ``__all__``, and rebinds the wrapper in every
``kunits`` namespace that holds the original, so calls between modules
and inside one module are both seen.  Spans are aggregated as they close,
per (function, parent function), into a count, busy time and self time
(busy time minus the busy time of child spans); ``range_scan`` makes about
1.4M ``factorize`` calls, too many to keep one record each.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from math import prod
from time import perf_counter

LAYERS = ("arith", "unitgroup", "solver", "classify", "bfile", "cli")


def _factorize_work(work, args, result):
    # Inputs left with a cofactor >= 2**32 after the primes below 2**16
    # are gone need the rho path; only n >= 2**32 can have one.
    work["arith.factorize.returned"] += 1
    if result.n >= 1 << 32:
        cofactor = prod(p**e for p, e in result.factors if p >= 1 << 16)
        work["arith.factorize.large_cofactor"] += cofactor >= 1 << 32


def _solve_work(work, args, result):
    work["solver.solve_rdu_one.kept"] += len(result.set_a) + len(result.set_b)


def _enumerate_units_work(work, args, result):
    work["unitgroup.enumerate_k_units.residues"] += max(args[0] - 1, 0)


def _enumerate_solutions_work(work, args, result):
    work["solver.enumerate_rdu_one_solutions.solutions"] += len(result)


# Work counted from a call's arguments and result, keyed by span name.
_WORK = {
    "arith.factorize": _factorize_work,
    "solver.solve_rdu_one": _solve_work,
    "unitgroup.enumerate_k_units": _enumerate_units_work,
    "solver.enumerate_rdu_one_solutions": _enumerate_solutions_work,
}


class Tracer:
    """Aggregated spans of one traced pass; create one, then ``install``."""

    def __init__(self, deadline_error: type[BaseException]):
        self.deadline_error = deadline_error
        self.stack: list[list] = []  # open spans: [name, busy time of children]
        self.spans: dict[tuple[str, str | None], list] = {}  # -> [count, busy, self]
        self.under_root: dict[tuple[str, str], int] = {}  # (name, outermost span) -> count
        self.work = dict.fromkeys(
            [
                "arith.factorize.returned",
                "arith.factorize.large_cofactor",
                "solver.solve_rdu_one.kept",
                "unitgroup.enumerate_k_units.residues",
                "solver.enumerate_rdu_one_solutions.solutions",
            ],
            0,
        )
        self.capability_errors = dict.fromkeys(LAYERS, 0)
        self.deadline_misses = dict.fromkeys(LAYERS, 0)
        self._capability_error: type[BaseException] | None = None

    def install(self) -> int:
        """Wrap the public functions of every layer; returns how many."""
        self._capability_error = importlib.import_module("kunits.errors").CapabilityError
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"kunits.{layer}")
            for attr in module.__all__:
                obj = getattr(module, attr)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", layer, obj)
                elif inspect.isclass(obj):
                    for name, raw in list(vars(obj).items()):
                        if isinstance(raw, classmethod) and not name.startswith("_"):
                            traced = self._wrap(f"{layer}.{name}", layer, raw.__func__)
                            setattr(obj, name, classmethod(traced))
                            wrappers[raw.__func__] = traced
        for name, module in list(sys.modules.items()):
            if name == "kunits" or name.startswith("kunits."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        setattr(module, attr, wrappers[value])
        return len(wrappers)

    def _failed(self, layer: str, exc: BaseException) -> None:
        # Charge the error to the innermost layer it passed through.
        if getattr(exc, "_perfbench_layer", None):
            return
        exc._perfbench_layer = layer
        if isinstance(exc, self._capability_error):
            self.capability_errors[layer] += 1
        elif isinstance(exc, self.deadline_error):
            self.deadline_misses[layer] += 1

    def _wrap(self, name: str, layer: str, fn):
        stack, spans, under_root = self.stack, self.spans, self.under_root
        count_work = _WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            root = stack[0][0] if stack else name
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._failed(layer, exc)
                raise
            finally:
                busy = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += busy
                record = spans.get((name, parent))
                if record is None:
                    record = spans[(name, parent)] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += busy
                record[2] += busy - frame[1]
                under_root[(name, root)] = under_root.get((name, root), 0) + 1
            if count_work is not None:
                count_work(self.work, args, result)
            return result

        return traced

    def report(self) -> dict:
        return {
            "spans": [[name, parent, *record] for (name, parent), record in self.spans.items()],
            "under_root": [[name, root, count] for (name, root), count in self.under_root.items()],
            "work": self.work,
            "capability_errors": self.capability_errors,
            "deadline_misses": self.deadline_misses,
        }
