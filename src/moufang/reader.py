"""One reader for the line-record text formats (README "File formats").

A format is a table from directive words to fields: a parse function per
word (``int``, ``Fraction``, ...), ``Many(parse)`` or ``Rest(parse)``.
Blank lines and ``#`` comments are skipped; a bad line raises the format's
own error class with a message that starts ``line N: ``.
"""

from collections import namedtuple
from typing import Any, Callable, NamedTuple, Optional

from .diagram import DiagramError

# The table key for lines that start with a value (proof-trace steps), and
# the fields that read all remaining words, or the non-empty rest of a line.
ANY = None
Many = namedtuple("Many", "parse", defaults=(str,))
Rest = namedtuple("Rest", "parse", defaults=(str,))


def at_least(least: int) -> Callable[[str], int]:
    """A field parse function for an integer no smaller than `least`."""
    def parse(word: str) -> int:
        value = int(word)
        if value < least:
            raise ValueError(f"must be at least {least}")
        return value
    return parse


class Record(NamedTuple):
    line: int
    head: Optional[str]
    values: tuple
    error: type

    def fail(self, message: str) -> Exception:
        return self.error(f"line {self.line}: {message}")


def read(text: str, table: dict, error: type) -> list[Record]:
    records = []
    for number, line in enumerate(text.splitlines(), start=1):
        words = line.split()
        if not words or words[0].startswith("#"):
            continue
        head = words[0] if words[0] in table else ANY
        if head not in table:
            raise error(f"line {number}: unknown directive {words[0]!r}")
        try:
            values = _values(line, words, int(head is not ANY), table[head])
        except (ValueError, ZeroDivisionError, DiagramError) as exc:
            raise error(f"line {number}: {exc}") from None
        records.append(Record(number, head, values, error))
    return records


def settings(records: list[Record]) -> dict[str, Any]:
    """The value of the last record of each one-field directive."""
    return {r.head: r.values[0] for r in records if len(r.values) == 1}


def _values(line: str, words: list[str], start: int, fields) -> tuple:
    values: list = []
    for at, field in enumerate(fields, start):
        if isinstance(field, Many):
            return (*values, tuple(_word(words[0], field.parse, w)
                                   for w in words[at:]))
        if at >= len(words):
            break
        if isinstance(field, Rest):
            return (*values, field.parse(line.split(None, at)[at]))
        values.append(_word(words[0], field, words[at]))
    fixed = len(fields) - any(isinstance(f, Many) for f in fields)
    if len(words) - start != fixed:
        raise ValueError(f"{words[0]} takes {fixed} value(s), got "
                         f"{len(words) - start}")
    return tuple(values)


def _word(head: str, parse: Callable[[str], Any], word: str):
    try:
        return parse(word)
    except (ValueError, ZeroDivisionError) as exc:
        why = "zero denominator" if isinstance(exc, ZeroDivisionError) else exc
        raise ValueError(f"{head}: bad value {word!r} ({why})") from None
