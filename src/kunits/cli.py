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
from typing import TYPE_CHECKING, Any, Callable, Sequence

from .arith import SUPPORTED_BOUND, factorize
from .bfile import BFile, compare_bfile
from .classify import _PREDICATE_HELP, _predicate, classify, parse_rule, sweep
from .errors import CapabilityError, DomainError
from .solver import _solutions, solve_rdu_one
from .unitgroup import ENUMERATION_BOUND, _decimal_text, _k_units, k_unit_stats

if TYPE_CHECKING:
    import numpy as np

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
        return _decimal(value)(value)
    if isinstance(value, Fraction):
        return {"num": str(value.numerator), "den": str(value.denominator)}
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
    value; an array out of order, which only a wrong construction gives
    (``units --oracle`` reports it), is written as a list.  A list of
    ascending ints is joined from one str each: the ``solve`` solutions,
    whose values go past 2^63 and, as n_max, past the int-to-str digit
    limit.  Its last value picks the route of ``_decimal`` for all.
    """
    if not isinstance(values, list) and (values[1:] < values[:-1]).any():
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


def _emit_table(rows: list[tuple[str, str]]) -> None:
    width = max(len(key) for key, _ in rows)
    for key, value in rows:
        print(f"{key.ljust(width)}  {value}")


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _cmd_stats(args: argparse.Namespace) -> int:
    n = factorize(args.n, bound=args.bound) if args.n >= 1 else args.n
    stats = k_unit_stats(n, args.k)
    if args.json:
        _emit_json(
            "stats",
            {"n": stats.n, "k": stats.k},
            {"phi": stats.phi, "du": stats.du, "pdu": stats.pdu, "rdu": stats.rdu},
        )
    else:
        _emit_table(
            [
                ("n", str(stats.n)),
                ("k", str(stats.k)),
                ("phi", str(stats.phi)),
                ("du", str(stats.du)),
                ("pdu", f"{stats.pdu.numerator}/{stats.pdu.denominator}"),
                ("rdu", str(stats.rdu)),
            ]
        )
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
            "set_a": list(sol.set_a),
            "set_b": [[q, e] for q, e in sol.set_b],
            "n_max": sol.n_max,
            "count": sol.count,
        }
        if solutions is None:
            _emit_json("solve", {"k": args.k}, result)
        else:
            result["truncated"] = truncated
            _emit_json("solve", {"k": args.k}, result, ("solutions", solutions))
    else:
        text = _decimal(max(sol.k, sol.n_max))
        rows = [
            ("k", text(sol.k)),
            ("parity", sol.k_parity),
            ("beta", str(sol.beta)),
            ("M", text(sol.m)),
            ("A", "{" + ", ".join(map(text, sol.set_a)) + "}"),
            ("B", "{" + ", ".join(f"{text(q)}^{e}" for q, e in sol.set_b) + "}"),
            ("n_max", text(sol.n_max)),
            ("count", text(sol.count)),
        ]
        _emit_table(rows)
        if solutions is not None:
            sys.stdout.write("solutions  ")
            _write_ints(solutions, "", " ")
            print()
            if truncated:
                print(f"... truncated to {len(solutions)} of {text(sol.count)}")
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
            "factorization": [[p, e] for p, e in report.evidence.factors],
            "composite": report.is_composite,
            "carmichael": report.carmichael,
            "carmichael_reason": report.carmichael_reason,
            "knodel": [[i, v] for i, v in report.knodel_for],
            "gen_carmichael": [[k, v] for k, v in report.gen_carmichael_for],
        }
        if report.fermat_liar_count is not None:
            result["fermat_liars"] = report.fermat_liar_count
        _emit_json("classify", {"n": args.n}, result)
    else:
        rows = [
            ("n", str(report.n)),
            ("factorization", str(report.evidence)),
            ("composite", _bool(report.is_composite)),
        ]
        verdict = _bool(report.carmichael)
        if report.carmichael_reason is not None:
            verdict += f"  ({report.carmichael_reason})"
        rows.append(("carmichael", verdict))
        if report.fermat_liar_count is not None:
            rows.append(("fermat-liars", str(report.fermat_liar_count)))
        families = [("knodel", report.knodel_for), ("gen-carmichael", report.gen_carmichael_for)]
        rows += [(f"{name}:{i}", _bool(v)) for name, verdicts in families for i, v in verdicts]
        _emit_table(rows)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    rule = parse_rule(args.rule)
    filters = {"composite_only": args.composite_only, "odd_only": args.odd_only}
    result = sweep(args.lo, args.hi, rule, **filters, bound=args.bound)
    summary = f"hits={len(result.hits)} skipped={len(result.skipped)}"
    if args.json:
        _emit_json(
            "sweep",
            {
                "from": args.lo,
                "to": args.hi,
                "rule": rule.text,
                "composite_only": args.composite_only,
                "odd_only": args.odd_only,
            },
            {
                "hits": list(result.hits),
                "skipped": list(result.skipped),
                "hit_count": len(result.hits),
                "skip_count": len(result.skipped),
            },
        )
    elif args.csv:
        print("n,exponent")
        for n in result.hits:
            print(f"{n},{rule(n)}")
        print(summary, file=sys.stderr)
    else:
        for n in result.hits:
            print(n)
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
                "missing": list(report.missing),
                "extra": list(report.extra),
                "matched": report.matched,
            },
        )
    else:
        _emit_table(
            [
                ("bfile", args.bfile),
                ("predicate", args.predicate),
                ("limit", str(report.limit)),
                ("compared", str(report.compared)),
                ("missing", " ".join(map(str, report.missing)) or "none"),
                ("extra", " ".join(map(str, report.extra)) or "none"),
                ("verdict", "match" if report.matched else "MISMATCH"),
            ]
        )
    return 0 if report.matched else 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one canonical JSON object")
    common.add_argument(
        "--bound",
        type=int,
        default=None,
        metavar="N",
        help="override the command's working bound, N >= 1 (factorization or enumeration)",
    )

    parser = argparse.ArgumentParser(
        prog="kunits",
        description="k-units modulo n: statistics, the rdu_k(n)=1 solver, and classifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", parents=[common], help="phi, du, pdu and rdu for (n, k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("units", parents=[common], help="enumerate the k-units modulo n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--oracle",
        action="store_true",
        help="check the list apart from its construction: strictly ascending residues in "
        "[0, n), each with a^k = 1 mod n, du of them by the closed form; exit 1 on mismatch",
    )
    p.set_defaults(handler=_cmd_units)

    p = sub.add_parser("solve", parents=[common], help="solve rdu_k(n) = 1 for a fixed k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--enumerate", action="store_true", help="also list the solutions")
    p.add_argument("--limit", type=int, default=None, help="truncate the solution list")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("classify", parents=[common], help="classifier verdicts for one n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--liars", action="store_true", help="count Fermat liars (odd n only)")
    p.add_argument(
        "--knodel", type=int, action="append", metavar="I", help="test i-Knodel membership"
    )
    p.add_argument(
        "--gen-carmichael",
        type=int,
        action="append",
        metavar="K",
        help="test generalized-Carmichael membership for shift K",
    )
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("sweep", parents=[common], help="scan a range for rdu_f(n)(n) = 1")
    p.add_argument("--from", dest="lo", type=int, required=True)
    p.add_argument("--to", dest="hi", type=int, required=True)
    p.add_argument(
        "--rule", required=True, help="exponent rule: const:K | n | n-I | n+I | A*n+B | poly:c0,c1,..."
    )
    p.add_argument("--composite-only", action="store_true")
    p.add_argument("--odd-only", action="store_true")
    p.add_argument("--csv", action="store_true", help="CSV output: n,exponent per hit")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser(
        "oeis-check", parents=[common], help="compare a local OEIS b-file against a predicate"
    )
    p.add_argument("bfile", help="path to the b-file")
    p.add_argument("--predicate", required=True, help=_PREDICATE_HELP)
    p.add_argument("--limit", type=int, default=None, help="compare values up to this limit")
    p.set_defaults(handler=_cmd_oeis_check)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        if args.bound is not None and args.bound < 1:
            raise DomainError(f"--bound must be >= 1, got {args.bound}")
        if args.bound is None:
            args.bound = ENUMERATION_BOUND if args.command == "units" else SUPPORTED_BOUND
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
