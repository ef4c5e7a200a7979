"""OEIS b-file parsing and predicate cross-checking.

A b-file is UTF-8 text with one ``<index> <value>`` pair per line; lines
whose first non-blank character is '#' and blank lines are ignored.  Each token
is ASCII [+-]?[0-9]+, refused past the int-to-str digit limit by its digit count;
indices must strictly increase.  Comparison against a predicate is index-agnostic:
only the value sets up to the limit are compared, as offset conventions differ.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass
from pathlib import Path

from .arith import _gate, _read_int
from .errors import DomainError

__all__ = ["BFile", "BFileParseError", "ComparisonReport", "compare_bfile"]


class BFileParseError(DomainError):
    """Malformed b-file content; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class BFile:
    """Parsed b-file: the source path and the (index, value) entries in order."""

    source_path: str
    entries: tuple[tuple[int, int], ...]

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.entries)

    @classmethod
    def parse_text(cls, text: str, source_path: str = "<string>") -> BFile:
        entries: list[tuple[int, int]] = []
        previous_index: int | None = None
        for line_number, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            tokens = stripped.split()
            if len(tokens) != 2:
                raise BFileParseError(
                    line_number, f"expected exactly two integer tokens, got {len(tokens)}"
                )
            try:
                index, value = map(_read_int, tokens, ("index", "value"))
            except DomainError as exc:
                raise BFileParseError(line_number, str(exc)) from None
            if index is None or value is None:
                raise BFileParseError(line_number, f"non-integer token in {stripped!r}")
            if value < 0:
                raise BFileParseError(line_number, f"negative value {value}")
            if previous_index is not None and index <= previous_index:
                raise BFileParseError(
                    line_number,
                    f"index {index} does not increase past {previous_index}",
                )
            previous_index = index
            entries.append((index, value))
        return cls(source_path=source_path, entries=tuple(entries))

    @classmethod
    def parse_path(cls, path: str | Path) -> BFile:
        data = Path(path).read_bytes()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_number = data.count(b"\n", 0, exc.start) + 1
            raise BFileParseError(line_number, f"not UTF-8 text: {exc.reason}") from None
        return cls.parse_text(text, str(path))


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of checking a b-file against a predicate over [1, limit]."""

    limit: int
    compared: int
    missing: tuple[int, ...]  # predicate holds but value absent from the file
    extra: tuple[int, ...]  # value in the file but predicate does not hold

    @property
    def matched(self) -> bool:
        return not self.missing and not self.extra


def compare_bfile(bfile: BFile, members: Set[int], limit: int | None = None) -> ComparisonReport:
    """Compare the file's value set against the members in [1, L] of a predicate.

    L is ``limit`` when given, else the largest value in the file; file
    values and members above L are ignored.  An empty file compares 0
    terms and matches.  A negative limit is refused with DomainError.
    """
    if limit is not None:
        limit = _gate("limit must be >= 0, got {}", 0, limit)
    if not bfile.entries:
        return ComparisonReport(limit or 0, 0, (), ())
    top = limit if limit is not None else max(bfile.values)
    file_values = {v for v in bfile.values if 1 <= v <= top}
    computed = {n for n in members if 1 <= n <= top}
    return ComparisonReport(
        limit=top,
        compared=len(file_values),
        missing=tuple(sorted(computed - file_values)),
        extra=tuple(sorted(file_values - computed)),
    )
