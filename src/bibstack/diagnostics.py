"""Record, the base of the package's records; Diagnostic, the record of the .bib and .bst
parsers and of lint (the VM logs through emitter.BlgLog, sharing only the severity names);
and the one line-end rule of the .bib, .bst, .tex and .aux readers: a line ends at CR, CRLF
or LF, and nowhere else.  LINE_END states it as a pattern, line_counter as a line count."""

WARNING = "warning"
ERROR = "error"


class Record:
    """Fields are the __slots__ not starting with `_', in order.  A record
    equals one of its own class with equal fields, is unhashable, and shows
    as Name(field=value, ...); a `_' slot is private and neither compares
    nor shows."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self.__slots__ if name[0] != "_")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__ if name[0] != "_")
        return f"{type(self).__name__}({fields})"


class Diagnostic(Record):
    __slots__ = ("severity", "message", "line", "source", "fatal")
    def __init__(self, severity: str, message: str, line: int = 0, source: str = "",
                 fatal: bool = False):
        self.severity, self.message, self.line, self.source = severity, message, line, source
        # the input is too damaged to trust the parse result (e.g. an unclosed brace at end of file)
        self.fatal = fatal

    def format(self) -> str:
        if self.source and self.line:
            return f"{self.source}, line {self.line}: {self.message}"
        return self.message


# the one line-end rule, as pattern source that other patterns can embed
LINE_END = r"\r\n?|\n"


def line_counter(text: str):
    """A function from offsets into text, asked in nondecreasing order, to
    1-based lines: 1 plus the line ends that start before the offset."""
    has_cr = "\r" in text
    counted, line = 0, 1

    def line_at(pos: int) -> int:
        nonlocal counted, line
        line += text.count("\n", counted, pos)
        if has_cr:
            # every CR ends a line, so an LF right after one (CRLF) ends none;
            # that CR may sit just before counted
            line += (text.count("\r", counted, pos)
                     - text.count("\r\n", max(counted - 1, 0), pos))
        counted = pos
        return line

    return line_at
