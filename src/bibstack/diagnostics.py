"""Diagnostic record of the .bib and .bst parsers and of lint (the VM
logs through emitter.BlgLog, which shares only the severity names)."""

from dataclasses import dataclass

WARNING = "warning"
ERROR = "error"


@dataclass
class Diagnostic:
    severity: str
    message: str
    line: int = 0
    source: str = ""
    # True when the input was damaged badly enough that the parse result
    # cannot be trusted (e.g. an unclosed brace at end of file).
    fatal: bool = False

    def format(self) -> str:
        if self.source and self.line:
            return f"{self.source}, line {self.line}: {self.message}"
        return self.message
