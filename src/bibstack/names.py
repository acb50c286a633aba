"""Author-list splitting, name decomposition, and format-template rendering.

A name list separates individual names with the word "and" at brace depth
zero.  A single name takes one of three forms selected by its depth-zero
comma count (brace groups are skipped whole with database.group_end; a
stray } is text, and an unclosed { runs to the end):

    First von Last
    von Last, First
    von Last, Suffix, First

The von part is the span from the first to the last lowercase-initial
word strictly before the final word; a brace-group token counts as
uppercase-initial.  Templates are sequences of pieces such as {ff},
{l.} or {, jj}: a doubled letter renders the full part, a single letter
abbreviates each token to its first character, and the text before and
after the letters is a literal prefix and suffix, written only when the
part is non-empty.  A token that starts with a brace or a backslash
abbreviates as in BibTeX instead: to its first letter (str.isalpha), or
to a special character, a whole {\\...} group, met before it, or to
nothing if it has neither.

parse_name returns a NameParts NamedTuple of word lists and
parse_template a list of (NameParts index, full, prefix, suffix)
pieces.  Only parse_template keeps a cache, of 64 entries, since a style
passes the same few templates on every format.name$; its results are
shared and must not be mutated.  split_names and parse_name cache
nothing: the VM splits each distinct name list and parses each distinct
name once per run and keeps the results for its later passes, and
format_name takes the parsed parts from a caller that has them (the
README gives measured counts).
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import NamedTuple

from .database import group_end

_SPACE_OR_BRACE = re.compile(r"[{}\s]")
_COMMA_OR_BRACE = re.compile(r"[{},]")
# a piece's body: its prefix, its letter, the letter again if full, its suffix
_PIECE = re.compile(r"([^a-zA-Z]*)([a-zA-Z]?)(\2?)(.*)", re.S)


class NameParseError(ValueError):
    pass


class TemplateError(ValueError):
    pass


class NameParts(NamedTuple):
    first: list[str]
    von: list[str]
    last: list[str]
    jr: list[str]


_LETTERS = "".join(name[0] for name in NameParts._fields)


def split_names(author: str) -> list[str]:
    """Split a name list on the word "and" at brace depth zero."""
    words = _split_top(author, None)
    if not words:
        return []
    names: list[str] = []
    current: list[str] = []
    for w in words:
        if w == "and":
            names.append(" ".join(current))
            current = []
        else:
            current.append(w)
    names.append(" ".join(current))
    return names


def count_names(author: str) -> int:
    """Number of names in a list; the empty list counts zero."""
    return len(split_names(author))


def parse_name(name: str) -> NameParts:
    sections = _split_top(name, ",")
    if len(sections) > 3:
        raise NameParseError(f"too many commas in name {name!r}")
    word_sections = [_split_top(s, None) for s in sections]
    if not any(word_sections):
        raise NameParseError(f"name {name!r} is empty")

    if len(word_sections) == 1:
        before, von, last = _von_split(word_sections[0])
        return NameParts(first=before, von=von, last=last, jr=[])

    pre = word_sections[0]
    if not pre:
        raise NameParseError(f"missing last name before the comma in {name!r}")
    before, von, last = _von_split(pre)
    # words ahead of the von span have nowhere else to go in comma forms
    last = before + last
    first = word_sections[-1]
    jr = word_sections[1] if len(word_sections) == 3 else []
    return NameParts(first=first, von=von, last=last, jr=jr)


def format_name(name: str, template: str, parts: NameParts | None = None) -> str:
    """name formatted by template; parts, if given, must be what parse_name(name) gives."""
    if parts is None:
        parts = parse_name(name)
    out = []
    for index, full, prefix, suffix in parse_template(template):
        tokens = parts[index]
        if not tokens:
            continue
        out.append(prefix)
        if full:
            text = " ".join(tokens)
        else:
            # a token with no initial, such as {} or {1984}, adds nothing
            text = ". ".join(initial for t in tokens if (initial := _initial(t)))
        out.append(text + suffix)
    return "".join(out)


@lru_cache(maxsize=64)  # a style passes a few templates, over and over
def parse_template(template: str) -> list[tuple[int, bool, str, str]]:
    pieces = []
    i, n = 0, len(template)
    while i < n:
        if template[i] != "{":
            raise TemplateError(f"unexpected text outside a {{}} piece: {template[i:]!r}")
        j = template.find("}", i + 1)
        if j < 0:
            raise TemplateError(f"unclosed {{ in template {template!r}")
        body = template[i + 1 : j]
        if "{" in body:
            raise TemplateError(f"nested braces are not allowed in a piece: {{{body}}}")
        prefix, letter, double, suffix = _PIECE.fullmatch(body).groups()
        if not letter or letter not in _LETTERS:
            raise TemplateError(f"piece must start with one of {', '.join(_LETTERS)}: {{{body}}}")
        if suffix.startswith(letter):
            raise TemplateError(f"tripled piece letter: {{{body}}}")
        pieces.append((_LETTERS.index(letter), bool(double), prefix, suffix))
        i = j + 1
    return pieces


def _initial(token: str) -> str:
    if token[0] not in "{\\":
        return token[0]
    for i, ch in enumerate(token):
        if ch.isalpha():
            return ch
        if token.startswith("{\\", i):  # a special character: its whole group
            end = group_end(token, i)
            return token[i:end] if end > 0 else token[i:]
    return ""


def _is_von_word(token: str) -> bool:
    return not token.startswith("{") and token[0].islower()


def _von_split(words: list[str]) -> tuple[list[str], list[str], list[str]]:
    """Split into (words-before-von, von, last); last holds at least the final word."""
    candidates = [i for i, w in enumerate(words[:-1]) if _is_von_word(w)]
    if not candidates:
        return words[:-1], [], words[-1:]
    v0, v1 = candidates[0], candidates[-1]
    return words[:v0], words[v0 : v1 + 1], words[v1 + 1 :]


def _split_top(s: str, sep: str | None) -> list[str]:
    """s.split(sep), for sep "," or None, that leaves brace groups whole;
    a stray } is text and an unclosed { runs to the end."""
    if "{" not in s:
        return s.split(sep)
    stop = _SPACE_OR_BRACE if sep is None else _COMMA_OR_BRACE
    parts: list[str] = []
    start = pos = 0
    while m := stop.search(s, pos):
        ch, pos = m.group(), m.end()
        if ch == "{":
            pos = group_end(s, m.start())
            if pos < 0:
                break
        elif ch != "}":
            parts.append(s[start:m.start()])
            start = pos
    parts.append(s[start:])
    return parts if sep is not None else [p for p in parts if p]
