"""Command-line front end.

Subcommands: stats, units, solve, classify, sweep, oeis-check.  Every
subcommand accepts --json (one canonical object, keys sorted, integers as
decimal strings so 64-bit consumers never overflow) and --bound N >= 1,
the factorization bound (for units, the enumeration bound); sweep also
accepts --csv.  units and solve --enumerate write their long list as they
go, in the same bytes as the whole object or line would be.

Exit codes: 0 success or match, 1 predicate mismatch (oeis-check, the
units --oracle check), 2 usage or parse errors, 3 capability errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal
from fractions import Fraction
from functools import cache
from typing import Any, Callable, Sequence

import numpy as np

from .arith import SUPPORTED_BOUND, _read_int, factorize
from .bfile import BFile, compare_bfile
from .classify import _PREDICATE_HELP, _predicate, classify, parse_rule, sweep
from .errors import CapabilityError, DomainError
from .solver import _solutions, solve_rdu_one
from .unitgroup import ENUMERATION_BOUND, _k_units, k_unit_stats

__all__ = ["main"]


# The interpreter refuses str() of an int with more digits than its
# int-to-str limit, which is never below 640 digits; an int of fewer bits
# than this has fewer digits.
_STR_SAFE_BITS = 640 * 3


def _decimal(largest: int) -> Callable[[int], str]:
    """A function that writes ints up to ``largest`` in decimal, whatever
    the process's int-to-str digit limit, without changing that setting.

    ``str`` when ``largest`` is below every limit, else the route through
    ``decimal.Decimal``, which has none.  Picked once per list, as
    ``str`` takes 118 ns a value here and the Decimal route 292 ns.
    """
    return str if largest.bit_length() < _STR_SAFE_BITS else lambda n: str(Decimal(n))


def _jsonable(value: Any) -> Any:
    """Integers become decimal strings; bools and None pass through."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return _text(value)
    if isinstance(value, Fraction):
        return {"num": _text(value.numerator), "den": _text(value.denominator)}
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


# Stands in for the streamed list in the JSON envelope; no other value of
# units or solve holds it.
_PLACEHOLDER = "\0"
# Values per write of a streamed list that is already in memory.
_SLICE = 1 << 14


def _emit_json(
    command: str,
    inputs: dict,
    result: dict,
    streamed: tuple[str, list[int] | np.ndarray] | None = None,
) -> None:
    """Print ``json.dumps(obj, sort_keys=True)`` of the command's object.

    ``streamed`` names one more list of ints in ``result`` and gives its
    values, which ``_write_ints`` writes between the list's brackets.
    """
    obj = {"command": command, "input": _jsonable(inputs), "result": _jsonable(result)}
    if streamed is None:
        print(json.dumps(obj, sort_keys=True))
        return
    key, values = streamed
    obj["result"][key] = _PLACEHOLDER
    head, tail = json.dumps(obj, sort_keys=True).split(json.dumps(_PLACEHOLDER))
    sys.stdout.write(head + "[")
    _write_ints(values, '"', ", ")
    sys.stdout.write("]" + tail + "\n")


def _write_ints(values: list[int] | np.ndarray, quote: str, sep: str) -> None:
    """Write the values in decimal, each in quotes, separated by sep, one
    slice of ``_SLICE`` values per write.

    An int64 array of ascending non-negative values (the ``units``
    residues) is turned into text by ``_decimal_text`` without a str per
    value; any other array, which only a wrong construction gives
    (``units --oracle`` reports it), is written as a list.  A list of
    ascending ints is joined from one str each: the ``solve`` solutions,
    whose values go past 2^63 and, as n_max, past the int-to-str digit
    limit.  Its last value picks the route of ``_decimal`` for all.
    """
    if not isinstance(values, list) and (
        (values[:1] < 0).any() or (values[1:] < values[:-1]).any()
    ):
        values = values.tolist()
    inner = quote + sep + quote
    text_of = _decimal(values[-1]) if isinstance(values, list) and values else str
    for i in range(0, len(values), _SLICE):
        part = values[i : i + _SLICE]
        if isinstance(part, list):
            text = quote + inner.join(map(text_of, part)) + quote
        else:
            text = _decimal_text(part, quote, sep)
        sys.stdout.write(sep + text if i else text)


@cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """10, 100, ..., 10^18 as int64, as a non-negative int64 v has
    1 + #{p <= v} digits; and the four ASCII digits of ``"%04d" % i``, read
    as one native uint32, at i.

    The digits of i are its index in a 10x10x10x10 array.  Built on first
    use, so that only ``units`` pays for them.
    """
    digits = np.moveaxis(np.indices((10, 10, 10, 10), dtype=np.uint8), 0, -1) + ord("0")
    quads = np.ascontiguousarray(digits).reshape(10000, 4).view(np.uint32).ravel()
    return 10 ** np.arange(1, 19, dtype=np.int64), quads


def _decimal_text(values: np.ndarray, quote: str, sep: str) -> str:
    """``sep.join(quote + str(v) + quote for v in values)`` for the
    ascending non-negative int64 values that ``_write_ints`` passes, built
    in numpy without a Python str per value.

    Each value becomes the row sep, quote, digits, quote.  The values with
    the same digit count form one run, bounded by where each power of ten
    falls among the ascending values (18 searches, not one per value), and
    filled as a (rows, width) uint8 block of the output: the fixed columns
    from one template row, the digits four at a time from
    ``divmod(·, 10000)`` and the quads of ``_digit_tables``.  The leading
    sep is cut off.
    """
    powers_of_ten, quad_text = _digit_tables()
    head, tail = (sep + quote).encode("ascii"), quote.encode("ascii")
    cuts = [0, *np.searchsorted(values, powers_of_ten).tolist(), len(values)]
    runs = [
        (a, b, len(head) + d + len(tail))
        for d, (a, b) in enumerate(zip(cuts, cuts[1:]), 1)
        if a < b
    ]
    out = np.empty(sum((b - a) * width for a, b, width in runs), dtype=np.uint8)
    at = 0
    for a, b, width in runs:
        d = width - len(head) - len(tail)
        rows = out[at : at + (b - a) * width].reshape(b - a, width)
        at += rows.size
        rows[:] = np.frombuffer(head + b"0" * d + tail, dtype=np.uint8)
        quads = np.empty((b - a, -(-d // 4)), dtype=np.uint32)
        rest = values[a:b]
        for j in reversed(range(quads.shape[1])):
            rest, low = np.divmod(rest, 10000)
            quads[:, j] = quad_text[low]
        rows[:, len(head) : len(head) + d] = quads.view(np.uint8)[:, -d:]
    return out[len(sep) :].tobytes().decode("ascii")


def _text(value: Any) -> str:
    """One value of the plain output: a bool as true or false, an int in
    full decimal by ``_decimal``, a Fraction as a/b, anything else by str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return _decimal(value)(value)
    if isinstance(value, Fraction):
        return f"{_text(value.numerator)}/{_text(value.denominator)}"
    return str(value)


def _emit_table(rows: list[tuple[str, Any]]) -> None:
    width = max(len(key) for key, _ in rows)
    for key, value in rows:
        print(f"{key.ljust(width)}  {_text(value)}")


def _cmd_stats(args: argparse.Namespace) -> int:
    n = factorize(args.n, bound=args.bound) if args.n >= 1 else args.n
    stats = k_unit_stats(n, args.k)
    result = {"phi": stats.phi, "du": stats.du, "pdu": stats.pdu, "rdu": stats.rdu}
    if args.json:
        _emit_json("stats", {"n": stats.n, "k": stats.k}, result)
    else:
        _emit_table([("n", stats.n), ("k", stats.k), *result.items()])
    return 0


def _cmd_units(args: argparse.Namespace) -> int:
    units = _k_units(args.n, args.k, args.bound)
    count = len(units)
    result: dict[str, Any] = {"count": count}
    mismatches: list[str] = []
    if args.oracle:
        expected = k_unit_stats(args.n, args.k).du
        if expected != count:
            mismatches.append(f"closed form expects {expected} k-units, enumeration found {count}")
        if (failure := _not_k_unit(units, args.n, args.k)) is not None:
            mismatches.append(failure)
        result["oracle"] = {"expected_count": expected, "matched": not mismatches}
    for mismatch in mismatches:
        print(f"oracle mismatch: {mismatch}", file=sys.stderr)
    if args.json:
        _emit_json("units", {"n": args.n, "k": args.k}, result, ("residues", units))
    else:
        _write_ints(units, "", " ")
        print()
        if args.oracle and not mismatches:
            print(f"oracle ok: count {count} matches the closed form")
    return 1 if mismatches else 0


def _not_k_unit(units: np.ndarray, n: int, k: int) -> str | None:
    """The first residue out of order, out of [0, n) or with a^k != 1 mod n,
    worded, or None.  a^k is taken by square-and-multiply in int64, one
    slice at a time; x - x // n * n is x mod n, as numpy divides by a scalar
    without a hardware division, and its ``%`` took 4 times as long."""
    stalls = units[1:] <= units[:-1]
    if stalls.any():
        return f"the residues do not strictly ascend at {units[stalls.argmax() + 1]}"
    if len(units) and not 0 <= units[0] <= units[-1] < n:
        return f"the residues leave [0, {n})"
    for i in range(0, len(units), _SLICE):
        chunk = units[i : i + _SLICE]
        acc = chunk.copy()
        for bit in bin(k)[3:]:
            acc *= acc
            acc -= acc // n * n
            if bit == "1":
                acc *= chunk
                acc -= acc // n * n
        if (wrong := acc != 1 % n).any():
            a, power = chunk[wrong][0], acc[wrong][0]
            return f"residue {a} is not a k-unit: {a}^{k} = {power} mod {n}"
    return None


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.limit is not None and not args.enumerate:
        raise DomainError("--limit requires --enumerate")
    sol = solve_rdu_one(args.k, bound=args.bound)
    solutions = _solutions(sol, args.limit) if args.enumerate else None
    truncated = solutions is not None and len(solutions) < sol.count
    if args.json:
        result: dict[str, Any] = {
            "parity": sol.k_parity,
            "beta": sol.beta,
            "m": sol.m,
            "set_a": sol.set_a,
            "set_b": sol.set_b,
            "n_max": sol.n_max,
            "count": sol.count,
        }
        if solutions is None:
            _emit_json("solve", {"k": args.k}, result)
        else:
            result["truncated"] = truncated
            _emit_json("solve", {"k": args.k}, result, ("solutions", solutions))
    else:
        rows = [
            ("k", sol.k),
            ("parity", sol.k_parity),
            ("beta", sol.beta),
            ("M", sol.m),
            ("A", "{" + ", ".join(map(_text, sol.set_a)) + "}"),
            ("B", "{" + ", ".join(f"{_text(q)}^{_text(e)}" for q, e in sol.set_b) + "}"),
            ("n_max", sol.n_max),
            ("count", sol.count),
        ]
        _emit_table(rows)
        if solutions is not None:
            sys.stdout.write("solutions  ")
            _write_ints(solutions, "", " ")
            print()
            if truncated:
                print(f"... truncated to {len(solutions)} of {_text(sol.count)}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    if args.liars and (args.n < 3 or args.n % 2 == 0):
        raise DomainError(f"--liars requires odd n >= 3, got {args.n}")
    n = factorize(args.n, bound=args.bound) if args.n >= 1 else args.n
    report = classify(
        n,
        liars=args.liars,
        knodel_indices=tuple(args.knodel or ()),
        gen_carmichael_ks=tuple(args.gen_carmichael or ()),
    )
    if args.json:
        result: dict[str, Any] = {
            "factorization": report.evidence.factors,
            "composite": report.is_composite,
            "carmichael": report.carmichael,
            "carmichael_reason": report.carmichael_reason,
            "knodel": report.knodel_for,
            "gen_carmichael": report.gen_carmichael_for,
        }
        if report.fermat_liar_count is not None:
            result["fermat_liars"] = report.fermat_liar_count
        _emit_json("classify", {"n": args.n}, result)
    else:
        verdict = _text(report.carmichael)
        if report.carmichael_reason is not None:
            verdict += f"  ({report.carmichael_reason})"
        rows = [
            ("n", report.n),
            ("factorization", report.evidence),
            ("composite", report.is_composite),
            ("carmichael", verdict),
        ]
        if report.fermat_liar_count is not None:
            rows.append(("fermat-liars", report.fermat_liar_count))
        families = [("knodel", report.knodel_for), ("gen-carmichael", report.gen_carmichael_for)]
        rows += [(f"{name}:{_text(i)}", v) for name, verdicts in families for i, v in verdicts]
        _emit_table(rows)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    rule = parse_rule(args.rule)
    filters = {"composite_only": args.composite_only, "odd_only": args.odd_only}
    result = sweep(args.lo, args.hi, rule, **filters, bound=args.bound)
    summary = f"hits={len(result.hits)} skipped={len(result.skipped)}"
    if args.json:
        inputs = {"from": args.lo, "to": args.hi, "rule": rule.text, **filters}
        counts = {"hit_count": len(result.hits), "skip_count": len(result.skipped)}
        _emit_json("sweep", inputs, {"hits": result.hits, "skipped": result.skipped, **counts})
    elif args.csv:
        print("n,exponent")
        for n in result.hits:
            print(f"{_text(n)},{_text(rule(n))}")
        print(summary, file=sys.stderr)
    else:
        for n in result.hits:
            print(_text(n))
        print(summary)
    return 0


def _cmd_oeis_check(args: argparse.Namespace) -> int:
    bfile = BFile.parse_path(args.bfile)
    # compare_bfile takes the members up to the limit, or up to the file's
    # largest value; for an empty file it takes none.
    top = args.limit if args.limit is not None else max(bfile.values, default=0)
    members = _predicate(args.predicate, top if bfile.entries else 0, bound=args.bound)
    report = compare_bfile(bfile, members, args.limit)
    if args.json:
        _emit_json(
            "oeis-check",
            {"bfile": args.bfile, "predicate": args.predicate, "limit": args.limit},
            {
                "compared": report.compared,
                "limit": report.limit,
                "missing": report.missing,
                "extra": report.extra,
                "matched": report.matched,
            },
        )
    else:
        _emit_table(
            [
                ("bfile", args.bfile),
                ("predicate", args.predicate),
                ("limit", report.limit),
                ("compared", report.compared),
                ("missing", " ".join(map(_text, report.missing)) or "none"),
                ("extra", " ".join(map(_text, report.extra)) or "none"),
                ("verdict", "match" if report.matched else "MISMATCH"),
            ]
        )
    return 0 if report.matched else 1


def _integer(text: str) -> int:
    """The type of every integer option: ``_read_int``, refusing in argparse's words for int."""
    try:
        value = _read_int(text, "integer")
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return value


def _common() -> argparse.ArgumentParser:
    """Options for one subcommand; set_defaults(bound=...) on a shared parent sets all."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one canonical JSON object")
    common.add_argument(
        "--bound",
        type=_integer,
        metavar="N",
        help="override the command's working bound, N >= 1 (factorization or enumeration)",
    )
    return common


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kunits",
        description="k-units modulo n: statistics, the rdu_k(n)=1 solver, and classifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", parents=[_common()], help="phi, du, pdu and rdu for (n, k)")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--k", type=_integer, required=True)
    p.set_defaults(handler=_cmd_stats, bound=SUPPORTED_BOUND)

    p = sub.add_parser("units", parents=[_common()], help="enumerate the k-units modulo n")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--k", type=_integer, required=True)
    p.add_argument(
        "--oracle",
        action="store_true",
        help="check the list apart from its construction: strictly ascending residues in "
        "[0, n), each with a^k = 1 mod n, du of them by the closed form; exit 1 on mismatch",
    )
    p.set_defaults(handler=_cmd_units, bound=ENUMERATION_BOUND)

    p = sub.add_parser("solve", parents=[_common()], help="solve rdu_k(n) = 1 for a fixed k")
    p.add_argument("--k", type=_integer, required=True)
    p.add_argument("--enumerate", action="store_true", help="also list the solutions")
    p.add_argument("--limit", type=_integer, default=None, help="truncate the solution list")
    p.set_defaults(handler=_cmd_solve, bound=SUPPORTED_BOUND)

    p = sub.add_parser("classify", parents=[_common()], help="classifier verdicts for one n")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--liars", action="store_true", help="count Fermat liars (odd n only)")
    p.add_argument(
        "--knodel", type=_integer, action="append", metavar="I", help="test i-Knodel membership"
    )
    p.add_argument(
        "--gen-carmichael",
        type=_integer,
        action="append",
        metavar="K",
        help="test generalized-Carmichael membership for shift K",
    )
    p.set_defaults(handler=_cmd_classify, bound=SUPPORTED_BOUND)

    p = sub.add_parser("sweep", parents=[_common()], help="scan a range for rdu_f(n)(n) = 1")
    p.add_argument("--from", dest="lo", type=_integer, required=True)
    p.add_argument("--to", dest="hi", type=_integer, required=True)
    p.add_argument(
        "--rule", required=True, help="exponent rule: const:K | n | n-I | n+I | A*n+B | poly:c0,c1,..."
    )
    p.add_argument("--composite-only", action="store_true")
    p.add_argument("--odd-only", action="store_true")
    p.add_argument("--csv", action="store_true", help="CSV output: n,exponent per hit")
    p.set_defaults(handler=_cmd_sweep, bound=SUPPORTED_BOUND)

    p = sub.add_parser(
        "oeis-check", parents=[_common()], help="compare a local OEIS b-file against a predicate"
    )
    p.add_argument("bfile", help="path to the b-file")
    p.add_argument("--predicate", required=True, help=_PREDICATE_HELP)
    p.add_argument("--limit", type=_integer, default=None, help="compare values up to this limit")
    p.set_defaults(handler=_cmd_oeis_check, bound=SUPPORTED_BOUND)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        if args.bound < 1:
            raise DomainError(f"--bound must be >= 1, got {args.bound}")
        return args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
