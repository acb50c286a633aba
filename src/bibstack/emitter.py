"""Output buffers for the generated bibliography and its run log."""

from __future__ import annotations

from .diagnostics import ERROR, WARNING, Record


class BblDocument:
    def __init__(self):
        self.lines: list[str] = []
        # the unfinished line in parts, joined once: += on a str copies it
        self._parts: list[str] = []

    @property
    def pending(self) -> str:
        return "".join(self._parts)

    def append(self, text: str) -> None:
        self._parts.append(text)

    def flush_line(self) -> None:
        self.lines.append(self.pending)
        self._parts = []

    def finalize(self) -> str:
        """Flush any residue and join with LF; non-empty documents end with LF."""
        if self.pending:
            self.flush_line()
        if not self.lines:
            return ""
        return "\n".join(self.lines) + "\n"


class BlgLog(Record):
    __slots__ = ("records",)
    def __init__(self, records=None):
        self.records: list[tuple[str, str]] = [] if records is None else records

    def warning(self, message: str) -> None:
        self.records.append((WARNING, message))

    def error(self, message: str) -> None:
        self.records.append((ERROR, message))

    def warnings(self) -> list[str]:
        return [m for sev, m in self.records if sev == WARNING]

    def errors(self) -> list[str]:
        return [m for sev, m in self.records if sev == ERROR]

    def render(self) -> str:
        """One record per line: warnings carry a Warning-- prefix, errors are bare."""
        if not self.records:
            return ""
        out = []
        for sev, message in self.records:
            out.append(f"Warning--{message}" if sev == WARNING else message)
        return "\n".join(out) + "\n"
