"""Author-list splitting, name decomposition, and format-template rendering.

A name list separates individual names with the word "and" at brace depth
zero.  A single name takes one of three forms selected by its depth-zero
comma count:

    First von Last
    von Last, First
    von Last, Suffix, First

tokenize reads a list once into its depth-zero tokens (words, commas, and
"and" with whitespace or an end on both sides, so "and," is text) and
groups them into names, each a list of its comma sections of words, that
name_parts parses with no rescan.  A word keeps its brace groups whole; a
stray } is text and an unclosed { runs to the end.  One findall of a
pattern built on database._GROUP reads most lists; a lone { among its
tokens, a group nested deeper than _GROUP reads or one never closed, sends
the list to a scan that reads such groups with database.group_end.
split_names, count_names and parse_name wrap the same tokenizer; a name's
text, its whitespace-parted words joined by one space, is what split_names
gives and what a NameParseError quotes.

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

name_parts and parse_name return a NameParts named tuple of word lists and
parse_template a list of (NameParts index, full, prefix, suffix) pieces.
Only parse_template keeps a cache, of 64 entries, since a style passes the
same few templates on every format.name$; its results are shared and must
not be mutated.  The VM tokenizes each distinct list once per run and keeps
each name's parts once parsed (the README gives measured counts).  The
patterns are sources, compiled as database's docstring says.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache

from .database import _GROUP, group_end

# a name list's depth-zero tokens, for findall: "and" that parts names, as "";
# a word (runs of other characters, groups _GROUP reads and stray }s); a comma;
# or a lone {, where _GROUP reads no group
_TOKEN = r"(?<!\S)and(?!\S)|((?:[^\s,{}]++|" + _GROUP + r"|\})++|[,{])"
# a piece's body: its prefix, its letter, the letter again if full, its suffix
_PIECE = r"(?s)([^a-zA-Z]*)([a-zA-Z]?)(\2?)(.*)"


class NameParseError(ValueError):
    """A name that does not parse; name_parts, which has no text, puts {} for the name's text."""


class TemplateError(ValueError):
    pass


# a name's four parts, each a list of words; collections.namedtuple builds
# the class in half the time typing.NamedTuple takes, at every import
NameParts = namedtuple("NameParts", ("first", "von", "last", "jr"))


_LETTERS = "".join(name[0] for name in NameParts._fields)


def tokenize(name_list: str) -> list[list[list[str]]]:
    """The names of a name list, each as its comma sections of words, in new lists."""
    return _group(_tokens(name_list))


def split_names(author: str) -> list[str]:
    """The text of each name of a list: its whitespace-parted words joined by one space."""
    return [",".join(map("".join, sections)) for sections in _group(_tokens(author, gaps=True))]


def count_names(author: str) -> int:
    """Number of names in a list; the empty list counts zero."""
    return len(tokenize(author))


def parse_name(name: str) -> NameParts:
    """The parts of one name's text, in which "and" is a word like any other."""
    tokens = [token or "and" for token in _tokens(name)]
    try:
        return name_parts(_group(tokens)[0] if tokens else [[]])
    except NameParseError as err:
        raise NameParseError(str(err).format(repr(name))) from None


def name_parts(sections: list[list[str]]) -> NameParts:
    """The parts of one name, from its comma sections of words as tokenize gives them."""
    if len(sections) > 3:
        raise NameParseError("too many commas in name {}")
    if not any(sections):
        raise NameParseError("name {} is empty")

    if len(sections) == 1:
        before, von, last = _von_split(sections[0])
        return NameParts(before, von, last, [])

    pre = sections[0]
    if not pre:
        raise NameParseError("missing last name before the comma in {}")
    before, von, last = _von_split(pre)
    # words ahead of the von span have nowhere else to go in comma forms
    jr = sections[1] if len(sections) == 3 else []
    return NameParts(sections[-1], von, before + last, jr)  # positional: keywords cost more


def format_name(name: str | None, template: str, parts: NameParts | None = None) -> str:
    """name formatted by template; a caller that has its parts gives them, and no name."""
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
    fullmatch_piece = re.compile(_PIECE).fullmatch
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
        prefix, letter, double, suffix = fullmatch_piece(body).groups()
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


def _von_split(words: list[str]) -> tuple[list[str], list[str], list[str]]:
    """Split into (words-before-von, von, last); last holds at least the final word."""
    # a word that opens with a brace is no von word: "{" is not lowercase
    candidates = [i for i, w in enumerate(words[:-1]) if w[0].islower()]
    if not candidates:
        return words[:-1], [], words[-1:]
    v0, v1 = candidates[0], candidates[-1]
    return words[:v0], words[v0 : v1 + 1], words[v1 + 1 :]


def _tokens(text: str, gaps: bool = False) -> list[str]:
    """The depth-zero tokens of a name list: words, commas and, as "", each
    "and" that parts names; with gaps, a " " also between two other tokens
    that whitespace parts."""
    pattern = re.compile(_TOKEN)
    if not gaps:
        tokens = pattern.findall(text)
        if "{" not in tokens:
            return tokens
    # the exact path: each group _GROUP leaves to a lone { is read with group_end
    tokens, end, in_word = [], 0, False
    while m := pattern.search(text, end):
        token, start, before = m[1] or "", m.start(), end
        end = m.end()
        if token == "{":  # nested deeper than _GROUP reads, or never closed
            end = group_end(text, start)
            if end < 0:
                end = len(text)
            token = text[start:end]
        if in_word and start == before and token != ",":
            tokens[-1] += token  # a word goes on after a group _GROUP did not read
        else:
            if gaps and start > before and token and tokens and tokens[-1]:
                tokens.append(" ")
            tokens.append(token)
        in_word = token not in ("", ",")
    return tokens


def _group(tokens: list[str]) -> list[list[list[str]]]:
    """Tokens as names, each a list of its comma sections of words; no tokens, no names."""
    if not tokens:
        return []
    words: list[str] = []
    sections = [words]
    names = [sections]
    for token in tokens:
        if token == ",":
            words = []
            sections.append(words)
        elif token:
            words.append(token)
        else:
            words = []
            sections = [words]
            names.append(sections)
    return names
