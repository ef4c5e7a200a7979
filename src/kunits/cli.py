"""Command-line front end.

Subcommands: stats, units, solve, classify, sweep, oeis-check.  Every
subcommand accepts --json (one canonical object, keys sorted, integers as
decimal strings so 64-bit consumers never overflow); all but oeis-check,
which factors nothing, accept --bound N >= 1, the factorization bound
(for units, the enumeration bound); sweep alone accepts --csv, which
excludes --json.  units and solve --enumerate write their long list as they
go, in the same bytes as the whole object or line would be: the k-units
from one uint32 array, the solutions in the two parts of
``solver._solutions``, an int64 array of those below 2^63 and a list of
the Python ints at or above it.

Exit codes: 0 success or match, 1 predicate mismatch (oeis-check, the
units --oracle check), 2 usage or parse errors, 3 capability errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, localcontext
from fractions import Fraction
from functools import cache
from math import gcd
from typing import Any, Callable, Sequence

import numpy as np

from .arith import SUPPORTED_BOUND, Factorization, _as_factorization, _gate, _read_int, factorize
from .bfile import BFile, compare_bfile
from .classify import _PREDICATE_HELP, _RULE_HELP, _predicate, classify, parse_rule, sweep
from .errors import CapabilityError, DomainError
from .solver import _solutions, solve_rdu_one
from .unitgroup import ENUMERATION_BOUND, _k_units, _mod, carmichael_lambda, k_unit_stats

__all__ = ["main"]


# Widths, in bits, that _split_digits converts by Decimal(m) itself.
_SPLIT_BITS = 128


def _digits(n: int) -> str:
    """n in decimal, whatever the process's int-to-str digit limit, without
    changing that setting: ``str``, or, past the limit, where ``str``
    raises ValueError, ``_split_digits``."""
    try:
        return str(n)
    except ValueError:
        return _split_digits(n)


def _split_digits(n: int) -> str:
    """n in decimal by binary splitting through ``decimal``, which has no
    int-to-str digit limit: the scheme of CPython 3.12's
    ``_pylong.int_to_decimal_string``.

    A value m below 2^w is hi * 2^h + lo with h = w // 2, each half
    converted the same way, so the cost follows libmpdec's multiplication
    rather than the quadratic ``Decimal(n)``.  Every step is exact:
    ``MAX_PREC`` digits, and ``Inexact`` trapped.  Kept apart from
    ``_digits``, whose every call would otherwise make the closures' cells.
    """
    powers: dict[int, Decimal] = {}

    def power(w: int) -> Decimal:
        """2^w, each w computed once."""
        if w not in powers:
            half = w >> 1
            powers[w] = Decimal(2) ** w if w <= _SPLIT_BITS else power(half) * power(w - half)
        return powers[w]

    def split(m: int, w: int) -> Decimal:
        """m < 2^w as a Decimal."""
        if w <= _SPLIT_BITS:
            return Decimal(m)
        half = w >> 1
        hi = m >> half
        return split(m - (hi << half), half) + split(hi, w - half) * power(half)

    m = abs(n)
    with localcontext(Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])):
        return ("-" if n < 0 else "") + str(split(m, m.bit_length()))


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
# The largest modulus that the units --oracle check reads from a table: 2^16 bools stay in L2,
# and (m - 1)^2 < 2^32 for each m up to it, so a table is powered in uint32.
_TABLE = 1 << 16


def _emit_json(
    command: str,
    inputs: dict,
    result: dict,
    streamed: tuple[str, np.ndarray, Sequence[int]] | None = None,
) -> None:
    """Print ``json.dumps(obj, sort_keys=True)`` of the command's object.

    ``streamed`` names one more list of ints in ``result`` and gives its
    values in two parts, an int64 array and the ints after it (the
    ``solve`` solutions at or above 2^63), which ``_write_ints`` writes
    between the list's brackets.
    """
    obj = {"command": command, "input": _jsonable(inputs), "result": _jsonable(result)}
    if streamed is None:
        print(json.dumps(obj, sort_keys=True))
        return
    key, values, rest = streamed
    obj["result"][key] = _PLACEHOLDER
    head, tail = json.dumps(obj, sort_keys=True).split(json.dumps(_PLACEHOLDER))
    sys.stdout.write(head + "[")
    _write_ints(values, '"', ", ", rest)
    sys.stdout.write("]" + tail + "\n")


def _write_ints(values: np.ndarray, quote: str, sep: str, rest: Sequence[int] = ()) -> None:
    """Write the values of the array, then the ints of ``rest``, in
    decimal, each in quotes, separated by sep, one slice of ``_SLICE``
    values per write.

    Ascending non-negative values (the uint32 ``units`` residues, or the
    int64 ``solve`` solutions below 2^63) are turned into text by
    ``_decimal_text`` without a str per value; any other array, which only
    a wrong construction gives (``units --oracle`` reports it), is written
    as part of ``rest``.  ``rest`` (the ``solve`` solutions at or above
    2^63) is joined from one ``_digits`` per value, as n_max can pass the
    int-to-str digit limit.
    """
    if (values[:1] < 0).any() or (values[1:] < values[:-1]).any():
        values, rest = values[:0], [*values.tolist(), *rest]
    inner = quote + sep + quote
    parts = [values[i : i + _SLICE] for i in range(0, len(values), _SLICE)]
    parts += [rest[i : i + _SLICE] for i in range(0, len(rest), _SLICE)]
    for i, part in enumerate(parts):
        if isinstance(part, np.ndarray):
            text = _decimal_text(part, quote, sep)
        else:
            text = quote + inner.join(map(_digits, part)) + quote
        sys.stdout.write(sep + text if i else text)


@cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """10, 100, ..., 10^18 as int64, as a non-negative int64 v has
    1 + #{p <= v} digits; and the four ASCII digits of ``"%04d" % i``, read
    as one native uint32, at i.

    The digits of i are its index in a 10x10x10x10 array.  Built on first
    use, so that only ``units`` pays for them; shared, so read-only.
    """
    digits = np.moveaxis(np.indices((10, 10, 10, 10), dtype=np.uint8), 0, -1) + ord("0")
    quads = np.ascontiguousarray(digits).reshape(10000, 4).view(np.uint32).ravel()
    powers = 10 ** np.arange(1, 19, dtype=np.int64)
    powers.flags.writeable = quads.flags.writeable = False
    return powers, quads


def _decimal_text(values: np.ndarray, quote: str, sep: str) -> str:
    """``sep.join(quote + str(v) + quote for v in values)`` for the
    ascending non-negative integer values that ``_write_ints`` passes
    (uint32 or int64), built in numpy without a Python str per value.

    Each value becomes the row sep, quote, digits, quote.  The values with
    the same digit count d form one run, bounded by where each power of ten
    falls among the ascending values (a search per power the dtype holds,
    not one per value).  Its digits are cut into four-digit groups, in
    uint32 for d <= 9, else in the array's own dtype, and the
    ``_digit_tables`` quad of each group is stored straight into its place
    in every row, through a uint32 view of the output bytes that strides by
    the row width; then the fixed sep and quote columns are written.

    A leading group of fewer than four digits starts before its row's
    digits, in the row's fixed columns and, in plain output, in the row
    before, whose last group and fixed columns are written after it: the
    runs go from the last, and each writes its leading group first.  The
    output starts with room for the first such group, and a run whose rows
    are narrower than a quad, where one store would cover a whole row
    before, writes its digits bytewise instead.  The leading sep is cut off.
    """
    powers_of_ten, quad_text = _digit_tables()
    head, tail = (sep + quote).encode("ascii"), quote.encode("ascii")
    held = powers_of_ten[powers_of_ten <= np.iinfo(values.dtype).max].astype(values.dtype)
    cuts = [0, *np.searchsorted(values, held).tolist(), len(values)]
    room = 3  # before the first row, whose leading group may start 3 bytes before its digits
    runs, at = [], room
    for d, (a, b) in enumerate(zip(cuts, cuts[1:]), 1):
        if a < b:
            runs.append((values[a:b], d, at))
            at += (b - a) * (len(head) + d + len(tail))
    out = np.empty(at, dtype=np.uint8)
    for run, d, at in reversed(runs):
        width = len(head) + d + len(tail)
        end = at + len(run) * width
        if d <= 9:
            run = run.astype(np.uint32, copy=False)
        if width < 4:
            rows = out[at:end].reshape(len(run), width)
            quads = quad_text.take(run, mode="clip").view(np.uint8).reshape(-1, 4)
            rows[:, len(head) : len(head) + d] = quads[:, 4 - d :]
        else:
            groups = -(-d // 4)
            scale = 10 ** (4 * (groups - 1))
            for j in reversed(range(groups)):
                low = run // scale if j else run
                start = at + len(head) + d - 4 * (j + 1)
                quads = np.ndarray(len(run), np.uint32, out, start, (width,))
                quads[...] = quad_text.take(low, mode="clip")
                if j:
                    run = run - low * scale
                    scale //= 10000
        for c, byte in [*enumerate(head), *enumerate(tail, len(head) + d)]:
            out[at + c : end : width] = byte
    return str(out[room + len(sep) :], "ascii")


def _text(value: Any) -> str:
    """One value of the plain output: a bool as true or false, an int in
    full decimal by ``_digits``, a Fraction as a/b, anything else by str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return _digits(value)
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
        f = factorize(args.n)
        expected = k_unit_stats(f, args.k).du
        if expected != count:
            mismatches.append(f"closed form expects {expected} k-units, enumeration found {count}")
        if (failure := _not_k_unit(units, f, args.k)) is not None:
            mismatches.append(failure)
        result["oracle"] = {"expected_count": expected, "matched": not mismatches}
    for mismatch in mismatches:
        print(f"oracle mismatch: {mismatch}", file=sys.stderr)
    if args.json:
        _emit_json("units", {"n": args.n, "k": args.k}, result, ("residues", units, ()))
    else:
        _write_ints(units, "", " ")
        print()
        if args.oracle and not mismatches:
            print(f"oracle ok: count {count} matches the closed form")
    return 1 if mismatches else 0


def _not_k_unit(units: np.ndarray, n: Factorization | int, k: int) -> str | None:
    """The first residue out of order, out of [0, n) or with a^k != 1 mod n,
    worded, or None.

    By the CRT, a^k = 1 mod n exactly when a^k = 1 mod m for each m of a
    coprime split of n, and that depends on a mod m alone.  n's prime powers
    are grouped, ascending, into moduli m of at most ``_TABLE`` and at most
    as many as the residues, so that a table never costs more than the
    residues it serves; those above that cap multiply into one ``rest``.
    Each m gets a bool table of x^g = 1 mod m over x < m, g = gcd(k,
    lambda(m)), built in uint32 by ``_power`` from the x themselves, apart
    from the construction: a^k = 1 exactly when a^g = 1, as a is then a
    unit whose order divides lambda(m), so the work grows with n, not with
    k.  One slice at a time, a residue is looked up in each table by its
    a mod m, taken in the residues' own dtype (uint32 from ``_k_units``,
    which ``take`` reads faster than a copy in intp), and raised mod
    ``rest`` by ``_power`` in uint64; every residue is in [0, n) by then,
    and ``_k_units`` refuses n > 2^32, so no product wraps."""
    f = _as_factorization(n, n)
    stalls = units[1:] <= units[:-1]
    if stalls.any():
        return f"the residues do not strictly ascend at {units[stalls.argmax() + 1]}"
    if len(units) and not 0 <= units[0] <= units[-1] < f.n:
        return f"the residues leave [0, {f.n})"
    cap, moduli, rest = min(_TABLE, len(units)), [], 1
    for p, e in f.factors:
        q = p**e
        if q > cap:
            rest *= q
        elif moduli and moduli[-1] * q <= cap:
            moduli[-1] *= q
        else:
            moduli.append(q)

    def exponent(m: int) -> int:  # gcd(k, lambda(m)), m a product of prime powers of f
        factors = tuple((p, e) for p, e in f.factors if m % p == 0)
        return gcd(k, carmichael_lambda(Factorization(m, factors)))

    tables = []
    for m in moduli:
        x, table = np.arange(m, dtype=np.uint32), np.empty(m, dtype=np.uint32)
        _power(table, x, exponent(m), m, np.empty_like(x))
        tables.append((m, table == 1))
    g = exponent(rest)
    size = min(len(units), _SLICE)
    index, passed = np.empty(size, units.dtype), np.empty(size, bool)
    wide, power, quotient = (np.empty(size, np.uint64) for _ in range(3))
    for i in range(0, len(units), _SLICE):
        chunk = units[i : i + _SLICE]
        ok, r = passed[: len(chunk)], index[: len(chunk)]
        ok[:] = True
        for m, table in tables:
            _mod(chunk, m, r, r)
            ok &= table.take(r)
        if rest > 1:
            a, acc, q = wide[: len(chunk)], power[: len(chunk)], quotient[: len(chunk)]
            a[:] = chunk  # casts int64 too, which a uint64 *= refuses as not same_kind
            _mod(a, rest, q, a)
            _power(acc, a, g, rest, q)
            ok &= acc == 1
        if not ok.all():
            first = int(chunk[ok.argmin()])
            return f"residue {first} is not a k-unit: {first}^{k} = {pow(first, k, f.n)} mod {f.n}"
    return None


def _power(acc: np.ndarray, a: np.ndarray, g: int, m: int, q: np.ndarray) -> None:
    """acc = a^g mod m for g >= 1, by square-and-multiply in the unsigned
    dtype of a, the unsigned division being faster than the signed one; a
    is in [0, m), so that no product passes (m - 1)^2, and q is a buffer of
    their length and dtype."""
    acc[:] = a
    for bit in bin(g)[3:]:
        acc *= acc
        _mod(acc, m, q, acc)
        if bit == "1":
            acc *= a
            _mod(acc, m, q, acc)


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.limit is not None and not args.enumerate:
        raise DomainError("--limit requires --enumerate")
    sol = solve_rdu_one(args.k, bound=args.bound)
    solutions = _solutions(sol, args.limit) if args.enumerate else None
    listed = sum(map(len, solutions or ()))
    truncated = solutions is not None and listed < sol.count
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
            _emit_json("solve", {"k": args.k}, result, ("solutions", *solutions))
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
            low, high = solutions
            _write_ints(low, "", " ", high)
            print()
            if truncated:
                print(f"... truncated to {listed} of {_text(sol.count)}")
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
    if args.csv and args.json:
        raise DomainError("--csv cannot be combined with --json")
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
    members = _predicate(args.predicate, top if bfile.entries else 0)
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


def _subcommand(
    sub: Any, name: str, handler: Callable[[argparse.Namespace], int], bound: int | None, help: str
) -> argparse.ArgumentParser:
    """The parser of one subcommand: --json, and --bound with default ``bound`` unless None."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--json", action="store_true", help="emit one canonical JSON object")
    if bound is not None:
        words = "override the command's working bound, N >= 1 (factorization or enumeration)"
        p.add_argument("--bound", type=_integer, default=bound, metavar="N", help=words)
    p.set_defaults(handler=handler)
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kunits",
        description="k-units modulo n: statistics, the rdu_k(n)=1 solver, and classifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "stats", _cmd_stats, SUPPORTED_BOUND, "phi, du, pdu and rdu for (n, k)")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--k", type=_integer, required=True)

    p = _subcommand(sub, "units", _cmd_units, ENUMERATION_BOUND, "enumerate the k-units modulo n")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--k", type=_integer, required=True)
    p.add_argument(
        "--oracle",
        action="store_true",
        help="check the list apart from its construction: strictly ascending residues in "
        "[0, n), each with a^k = 1 mod n (as a^gcd(k, lambda(n)) = 1), du of them by the "
        "closed form; exit 1 on mismatch",
    )

    p = _subcommand(sub, "solve", _cmd_solve, SUPPORTED_BOUND, "solve rdu_k(n) = 1 for a fixed k")
    p.add_argument("--k", type=_integer, required=True)
    p.add_argument("--enumerate", action="store_true", help="also list the solutions")
    p.add_argument("--limit", type=_integer, default=None, help="truncate the solution list")

    p = _subcommand(
        sub, "classify", _cmd_classify, SUPPORTED_BOUND, "classifier verdicts for one n"
    )
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

    p = _subcommand(sub, "sweep", _cmd_sweep, SUPPORTED_BOUND, "scan a range for rdu_f(n)(n) = 1")
    p.add_argument("--from", dest="lo", type=_integer, required=True)
    p.add_argument("--to", dest="hi", type=_integer, required=True)
    p.add_argument("--rule", required=True, help=f"exponent rule: {_RULE_HELP}")
    p.add_argument("--composite-only", action="store_true")
    p.add_argument("--odd-only", action="store_true")
    p.add_argument("--csv", action="store_true", help="CSV output: n,exponent per hit")

    p = _subcommand(
        sub, "oeis-check", _cmd_oeis_check, None, "compare a local OEIS b-file against a predicate"
    )
    p.add_argument("bfile", help="path to the b-file")
    p.add_argument("--predicate", required=True, help=_PREDICATE_HELP)
    p.add_argument("--limit", type=_integer, default=None, help="compare values up to this limit")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        if "bound" in args:
            _gate("--bound must be >= 1, got {}", 1, args.bound)
        return args.handler(args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
