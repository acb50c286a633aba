"""Parsing of .bib database files into an ordered, key-indexed collection.

Entry types and field names are case-insensitive and stored lowercase;
citation keys are matched verbatim.  Field values accept both "..." and
{...} delimiters, may span lines, and are whitespace-normalized.  The
@string/@preamble/@comment constructs and `#` concatenation are rejected
with a warning diagnostic and the offending block is skipped.

Every entry is checked when the text is parsed.  A repeated field is
looked for only in the cited entries, as classic BibTeX warns of an extra
field only in an entry it stores: parse_bib takes the cited keys, or None
to count every entry as cited.  An uncited entry keeps the first value of
a repeated field without a word; every other diagnostic is given for
every entry.  Most entries take one match of _ENTRY: the type, `{', the
key, a run of well-formed fields and the `}'.  A well-formed field is one
match of _FIELD: the separators before it, its name, `=', a value ({...}
with at most two levels of inner groups, "..." whose groups have at most
one level inside, or an ASCII digit run) and the whitespace up to the `,'
or `}' after it.  _read_fields builds such an entry's fields with one
_FIELD.findall over its span, and a name repeats when the dict comes out
shorter than the findall.  A cited entry's fields are built at parse
time; an uncited one keeps its span, and its fields are built on first
read.

Any entry _ENTRY rejects (a special type, `#', a macro, deeper groups, no
closing brace), and a cited one with a repeated field, is read eagerly
from the same `@' by the general reader, field by field, so every
diagnostic keeps its text and line, and all of them are known before any
field is read.  group_end is the one brace-group scanner; latexpass and
names use it too.
"""

from __future__ import annotations

import re

from .diagnostics import ERROR, WARNING, Diagnostic, Record, line_counter


def normalize_value(raw: str) -> str:
    """Trim and collapse whitespace runs (line breaks included) to single spaces."""
    return " ".join(raw.split())


class Entry(Record):
    # _source, (text, start, end), stands in for fields until they are read
    __slots__ = ("key", "entry_type", "fields", "_source")
    def __init__(self, key: str, entry_type: str, fields=None):
        self.key, self.entry_type = key, entry_type
        self.fields: dict[str, str] = {} if fields is None else fields

    def __getattr__(self, name: str):
        # reached only for an unset slot: fields not yet built from _source
        if name != "fields":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        fields = _read_fields(*self._source)[0]
        # the span goes only once the dict is whole, so a cut-off build can be retried
        self.fields = fields
        del self._source
        return fields


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
_SPECIAL_TYPES = ("string", "preamble", "comment")

# One well-formed field (see above) is a name and a value.  Every
# quantifier is possessive, so a failed match is linear in what it read.
_GROUP = r"\{(?:[^{}]++|\{[^{}]*+\})*+\}"  # a brace group, at most one level inside
_NAME_SOURCE = r'[\s,]*+([^=,{}"\s]++)\s*+=\s*+'
_VALUE_SOURCE = (
    r'(?:\{((?:[^{}]++|' + _GROUP + r')*+)\}|"((?:[^{}"]++|' + _GROUP + r')*+)"|([0-9]++))'
    r'\s*+(?=[,}])'
)


def _uncaptured(source: str) -> str:
    """Pattern source with each capturing group made non-capturing (the
    sources here hold no literal `(', so each `(' opens a group)."""
    return source.replace("(", "(?:").replace("(?:?", "(?")


# The patterns below are sources that re.compile turns into patterns
# on first use and keeps in re's cache: every command imports this module,
# and only the .bib reader needs them.
_FIELD = _NAME_SOURCE + _VALUE_SOURCE
# a whole entry after its `@': type, `{', key, well-formed fields, `}'
_ENTRY = r"\s*+([^{(,\s]++)\s*+\{\s*+([^,}\s{]++)(?:" + _uncaptured(_FIELD) + r")*+[\s,]*+\}"


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


def parse_bib(text: str, source_name: str = "<bib>",
              cited: set[str] | None = None) -> tuple[Database, list[Diagnostic]]:
    """Parse .bib source text.

    Every syntactically valid entry becomes an Entry; text outside entries
    is ignored.  Broken entries are skipped with a diagnostic and parsing
    resumes at the next `@`.  Raises nothing: every problem is a Diagnostic.
    An entry whose key, verbatim, is in cited has its fields built here,
    and a repeated field in it is reported.  Any other entry's fields are
    built on first read, each with its first value, without a word.  None,
    the default, counts every entry as cited, so every entry's fields are
    built here.
    """
    db = Database()
    diags: list[Diagnostic] = []
    # diagnostics arrive in text order, so one forward counter serves them all
    line_at = line_counter(text)

    def diag(severity: str, message: str, pos: int) -> None:
        diags.append(Diagnostic(severity, message, line_at(pos), source_name))

    match_entry = re.compile(_ENTRY).match
    pos = text.find("@")
    while pos >= 0:
        m = match_entry(text, pos + 1)
        if m is not None and (entry := _unread_entry(text, m, cited)) is not None:
            _check_key(db, entry.key, m.start(2), diag)
            db.add(entry)
            pos = m.end()
        else:
            try:
                pos = _parse_entry(text, pos + 1, db, diag, cited)
            except _EntryError as err:
                diag(err.severity, err.message, err.pos)
                pos = err.pos
        pos = text.find("@", pos)
    return db, diags


def _unread_entry(text: str, m: re.Match, cited) -> Entry | None:
    """The entry _ENTRY matched, unless its type is special or a field of a
    cited entry repeats; those take _parse_entry.  A cited entry's fields
    are built here, an uncited one's on first read."""
    etype = m[1].lower()
    if etype in _SPECIAL_TYPES:
        return None
    # the end stays at the `}', so that the last field's lookahead sees it
    start, end, key = m.end(2), m.end(), m[2]
    if cited is None or key in cited:
        fields, repeated = _read_fields(text, start, end)
        return None if repeated else Entry(key, etype, fields)
    entry = Entry.__new__(Entry)
    entry.key, entry.entry_type, entry._source = key, etype, (text, start, end)
    return entry


def _read_fields(text: str, start: int, end: int) -> tuple[dict[str, str], bool]:
    """The fields of the run of well-formed fields text[start:end], each
    name with its first value, and whether a name repeats."""
    found = re.compile(_FIELD).findall(text, start, end)
    # at most one of the three value groups is not empty
    fields = {
        field.lower(): normalize_value(braced + quoted + digits)
        for field, braced, quoted, digits in found
    }
    repeated = len(fields) < len(found)
    if repeated:
        # the comprehension kept each repeated name's last value
        fields = {}
        for field, braced, quoted, digits in found:
            fields.setdefault(field.lower(), normalize_value(braced + quoted + digits))
    return fields, repeated


def _check_key(db: Database, key: str, at: int, diag) -> None:
    if key in db.by_key:
        diag(WARNING, f"duplicate entry key `{key}'; later entry dropped", at)


def _parse_entry(text: str, pos: int, db: Database, diag, cited) -> int:
    """Parse one entry whose `@' ends just before pos; returns the offset past it."""
    pos = _SPACE.match(text, pos).end()
    m = _TYPE.match(text, pos)
    if not m.group():
        raise _EntryError(ERROR, "expected an entry type after `@'", pos)
    etype = m.group().lower()
    pos = _SPACE.match(text, m.end()).end()
    if etype in _SPECIAL_TYPES:
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
    _check_key(db, key, m.start(), diag)
    entry = Entry(key=key, entry_type=etype)
    checked = cited is None or key in cited

    while True:
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
        if name not in entry.fields:
            entry.fields[name] = normalize_value(value)
        elif checked:
            diag(WARNING, f"duplicate field `{name}' in entry `{key}'; first value kept", at)

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
