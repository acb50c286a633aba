"""Reading and writing the .aux handoff file.

Recognized commands are \\relax, \\citation, \\bibstyle, \\bibdata and
\\bibcite; anything else passes through untouched so the tool coexists
with other packages writing to the same file.
"""

from __future__ import annotations

import re

from .diagnostics import LINE_END, Record


class AuxError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class AuxFile(Record):
    __slots__ = ("citations", "style", "data", "bibcites", "raw_lines")
    def __init__(self, citations=None, style=None, data=None, bibcites=None, raw_lines=None):
        self.citations: list[str] = [] if citations is None else citations
        self.style: str | None = style
        self.data: list[str] = [] if data is None else data
        self.bibcites: dict[str, str] = {} if bibcites is None else bibcites
        self.raw_lines: list[str] = [] if raw_lines is None else raw_lines


# each recognized command and the number of {...} groups it takes; the
# patterns are sources, compiled as database's docstring says
_GROUPS = {"citation": 1, "bibstyle": 1, "bibdata": 1, "bibcite": 2}
_RECOGNIZED = rf"\\({'|'.join(_GROUPS)})(?![a-zA-Z])"
# the whole line each recognized command must match
_COMMANDS = {cmd: rf"\\{cmd}" + r"\{([^{}]*)\}" * groups + "$" for cmd, groups in _GROUPS.items()}
# what no name in those commands can hold: a brace, or a line end's CR or LF
_UNWRITABLE = r"[{}\r\n]"


def parse_aux(text: str) -> AuxFile:
    """Parse .aux text; malformed recognized commands raise AuxError."""
    aux = AuxFile()
    match_recognized = re.compile(_RECOGNIZED).match
    match_command = {cmd: re.compile(source).match for cmd, source in _COMMANDS.items()}
    lines = re.compile(LINE_END).split(text)
    if not lines[-1]:
        lines.pop()  # the piece after a final line end, or of an empty text, is not a line
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line == "\\relax":
            continue
        head = match_recognized(line)
        if head is None:
            aux.raw_lines.append(raw)
            continue
        cmd = head.group(1)
        m = match_command[cmd](line)
        if m is None:
            raise AuxError(f"malformed \\{cmd} command", lineno)
        if cmd == "citation":
            for key in m.group(1).split(","):
                key = key.strip()
                if not key:
                    raise AuxError("empty citation key", lineno)
                aux.citations.append(key)
        elif cmd == "bibstyle":
            aux.style = m.group(1).strip()
        elif cmd == "bibdata":
            aux.data.extend(d.strip() for d in m.group(1).split(","))
        else:
            key, label = m.group(1).strip(), m.group(2)
            if not label:
                raise AuxError("empty label in \\bibcite", lineno)
            aux.bibcites[key] = label
    return aux


def unique_citation_order(aux: AuxFile) -> list[str]:
    """Citation keys in first-occurrence order, duplicates removed."""
    return list(dict.fromkeys(aux.citations))


def unwritable(aux: AuxFile) -> str | None:
    """Why parse_aux could not read write_aux(aux) back as aux, or None: an
    empty citation key, or a name holding a brace or a line break (CR or LF)."""
    if "" in aux.citations:
        return "empty citation key"
    style = [] if aux.style is None else [aux.style]
    search_unwritable = re.compile(_UNWRITABLE).search
    for cmd, names in (("citation", aux.citations), ("bibstyle", style),
                       ("bibdata", aux.data), ("bibcite", aux.bibcites)):
        for name in names:
            if search_unwritable(name):
                return f"\\{cmd} name {name!r} holds a brace or a line break"
    return None


def write_aux(aux: AuxFile) -> str:
    """Serialize: \\relax, citations in order, style/data, bibcites, then pass-through lines."""
    lines = ["\\relax"]
    lines.extend(f"\\citation{{{key}}}" for key in aux.citations)
    if aux.style is not None:
        lines.append(f"\\bibstyle{{{aux.style}}}")
    if aux.data:
        lines.append(f"\\bibdata{{{','.join(aux.data)}}}")
    lines.extend(f"\\bibcite{{{key}}}{{{label}}}" for key, label in aux.bibcites.items())
    lines.extend(aux.raw_lines)
    return "\n".join(lines) + "\n"
