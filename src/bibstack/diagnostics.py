"""Record, the base of the package's records, and Diagnostic, the record of the .bib and .bst
parsers and of lint (the VM logs through emitter.BlgLog, sharing only the severity names)."""

WARNING = "warning"
ERROR = "error"


class Record:
    """Fields are the __slots__, in order.  A record equals one of its own
    class with equal fields, is unhashable, and shows as Name(field=value, ...)."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
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
