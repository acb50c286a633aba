"""Parsing of .bib database files into an ordered, key-indexed collection.

Entry types and field names are case-insensitive and stored lowercase;
citation keys are matched verbatim.  Field values accept both "..." and
{...} delimiters, may span lines, and are whitespace-normalized.  The
@string/@preamble/@comment constructs and `#` concatenation are rejected
with a warning diagnostic and the offending block is skipped.

The parser matches precompiled patterns at an integer offset.  Most
fields take one match of _FIELD: the separators before the field, its
name, `=', a value ({...} with at most one level of inner groups, "..."
without braces, or an ASCII digit run) and the whitespace up to the `,'
or `}' after it.  Where that pattern does not match (`#', deeper groups,
an unclosed value, other digits, a macro, a missing `=' or comma), the
general reader runs from the same offset, so every diagnostic keeps its
text and line.  group_end is the one brace-group scanner; latexpass and
names use it too.
"""

from __future__ import annotations

import re

from .diagnostics import ERROR, WARNING, Diagnostic, Record, line_counter


def normalize_value(raw: str) -> str:
    """Trim and collapse whitespace runs (line breaks included) to single spaces."""
    return " ".join(raw.split())


class Entry(Record):
    __slots__ = ("key", "entry_type", "fields")
    def __init__(self, key: str, entry_type: str, fields=None):
        self.key, self.entry_type = key, entry_type
        self.fields: dict[str, str] = {} if fields is None else fields


class Database(Record):
    __slots__ = ("by_key",)
    def __init__(self, by_key=None):
        self.by_key: dict[str, Entry] = {} if by_key is None else by_key

    @property
    def entries(self) -> list[Entry]:
        """The entries in the order they were added."""
        return list(self.by_key.values())

    def add(self, entry: Entry) -> None:
        """Append an entry; a duplicate key stores nothing."""
        self.by_key.setdefault(entry.key, entry)


def lookup(db: Database, key: str) -> Entry | None:
    """Exact, case-sensitive key lookup; absence is a value, not an error."""
    return db.by_key.get(key)


def get_field(entry: Entry, name: str) -> str | None:
    """Field value, or None when the field does not appear in the entry."""
    return entry.fields.get(name.lower())


_SPACE = re.compile(r"\s*")
_TYPE = re.compile(r"[^{(,\s]*")
_KEY = re.compile(r"[^,}\s]*")
_FIELD_NAME = re.compile(r"[^=,{}\"\s]*")
_BARE_WORD = re.compile(r"[^,}#\s]*")
_QUOTED_STOP = re.compile(r'[{}"]')
# one well-formed field (see above); every quantifier is possessive, so a
# failed match is linear in what it read
_FIELD = re.compile(
    r'[\s,]*+([^=,{}"\s]++)\s*+=\s*+'
    r'(?:\{((?:[^{}]++|\{[^{}]*+\})*+)\}|"([^{}"]*+)"|([0-9]++))'
    r'\s*+(?=[,}])'
)


def group_end(text: str, pos: int) -> int:
    """Offset just past the `}' that closes the `{' at pos, or -1 if it never closes."""
    # the depth after each `}' is the count of `{' before it less the `}' up to it
    depth, start = 0, pos
    while (end := text.find("}", start)) >= 0:
        depth += text.count("{", start, end) - 1
        if depth == 0:
            return end + 1
        start = end + 1
    return -1


class _EntryError(Exception):
    """Internal: abandon the current entry at offset pos and resync at the next `@`."""

    def __init__(self, severity: str, message: str, pos: int):
        self.severity = severity
        self.message = message
        self.pos = pos


def parse_bib(text: str, source_name: str = "<bib>") -> tuple[Database, list[Diagnostic]]:
    """Parse .bib source text.

    Every syntactically valid entry becomes an Entry; text outside entries
    is ignored.  Broken entries are skipped with a diagnostic and parsing
    resumes at the next `@`.  Raises nothing: every problem is a Diagnostic.
    """
    db = Database()
    diags: list[Diagnostic] = []
    # diagnostics arrive in text order, so one forward counter serves them all
    line_at = line_counter(text)

    def diag(severity: str, message: str, pos: int) -> None:
        diags.append(Diagnostic(severity, message, line_at(pos), source_name))

    pos = text.find("@")
    while pos >= 0:
        try:
            pos = _parse_entry(text, pos + 1, db, diag)
        except _EntryError as err:
            diag(err.severity, err.message, err.pos)
            pos = err.pos
        pos = text.find("@", pos)
    return db, diags


def _parse_entry(text: str, pos: int, db: Database, diag) -> int:
    """Parse one entry whose `@' ends just before pos; returns the offset past it."""
    pos = _SPACE.match(text, pos).end()
    m = _TYPE.match(text, pos)
    if not m.group():
        raise _EntryError(ERROR, "expected an entry type after `@'", pos)
    etype = m.group().lower()
    pos = _SPACE.match(text, m.end()).end()
    if etype in ("string", "preamble", "comment"):
        if text.startswith("{", pos):
            end = group_end(text, pos)
            pos = len(text) if end < 0 else end
        raise _EntryError(WARNING, f"`@{etype}' is not supported; block skipped", pos)
    if not text.startswith("{", pos):
        raise _EntryError(ERROR, f"expected `{{' after `@{etype}'", pos)

    m = _KEY.match(text, _SPACE.match(text, pos + 1).end())
    pos = m.end()
    key = m.group()
    if not key or "{" in key:
        raise _EntryError(ERROR, f"invalid entry key {key!r}", pos)
    if key in db.by_key:
        diag(WARNING, f"duplicate entry key `{key}'; later entry dropped", m.start())
    entry = Entry(key=key, entry_type=etype)

    while True:
        if (m := _FIELD.match(text, pos)) is not None:
            # the value is the one alternative's group that matched, the last one
            name, value, at, pos = m[1].lower(), m[m.lastindex], m.start(1), m.end()
        else:
            # anything else takes the general reader from the same offset
            pos = _SPACE.match(text, pos).end()
            if pos == len(text):
                raise _EntryError(ERROR, f"unexpected end of file inside entry `{key}'", pos)
            ch = text[pos]
            if ch == "}":
                pos += 1
                break
            if ch == ",":
                pos += 1
                continue
            m = _FIELD_NAME.match(text, pos)
            name, at = m.group().lower(), pos
            if not name:
                raise _EntryError(ERROR, f"expected a field name in entry `{key}'", pos)
            pos = _SPACE.match(text, m.end()).end()
            if not text.startswith("=", pos):
                raise _EntryError(ERROR, f"expected `=' after field `{name}' in entry `{key}'", pos)
            value, pos = _read_value(text, _SPACE.match(text, pos + 1).end(), name, key)
            pos = _SPACE.match(text, pos).end()
            if text.startswith("#", pos):
                raise _EntryError(WARNING, f"string concatenation with `#' is not supported; entry `{key}' skipped", pos)
        if name in entry.fields:
            diag(WARNING, f"duplicate field `{name}' in entry `{key}'; first value kept", at)
        else:
            entry.fields[name] = normalize_value(value)

    db.add(entry)
    return pos


def _read_value(text: str, pos: int, field_name: str, key: str) -> tuple[str, int]:
    """Read the value starting at pos; returns it and the offset past it."""
    if pos == len(text):
        raise _EntryError(ERROR, f"missing value for field `{field_name}' in entry `{key}'", pos)
    ch = text[pos]
    if ch == '"':
        # a quoted value ends at a `"' outside braces; a brace group inside is skipped whole
        k = pos + 1
        while (m := _QUOTED_STOP.search(text, k)) is not None:
            k = m.end()
            if m.group() == '"':
                return text[pos + 1 : k - 1], k
            if m.group() == "}":
                raise _EntryError(ERROR, f"unbalanced braces in value of `{field_name}'; entry `{key}' skipped", k)
            k = group_end(text, m.start())
            if k < 0:
                break
    elif ch == "{":
        end = group_end(text, pos)
        if end >= 0:
            return text[pos + 1 : end - 1], end
    else:
        m = _BARE_WORD.match(text, pos)
        if ch.isdigit():
            # bare digit runs need no delimiter
            return m.group(), m.end()
        word = m.group() or ch
        raise _EntryError(WARNING, f"unquoted value `{word}' (macros are not supported); entry `{key}' skipped", m.end())
    raise _EntryError(ERROR, f"unterminated value of `{field_name}'; entry `{key}' skipped", len(text))
