"""Simulation of the citation side of a LaTeX run.

scan_tex picks \\cite, \\bibitem, \\bibliographystyle and \\bibliography
out of a source file, jumping from one match of a single pattern to the
next: a `%' comment, or a backslash and the ASCII letters after it.
Comments, unknown words and words that go on with other letters
(str.isalpha) are opaque text, and so is an escape such as \\%.
Each recognized command reads its {...} group in one place, _read_group,
after one optional [...] for \\bibitem and \\cite; the {width} after
\\begin{thebibliography} is text, as in LaTeX.  A line ends at CR, CRLF
or LF (diagnostics.LINE_END); line_counter gives each command's line.
bibitem_keys reads a .bbl the same way, recognizing \\bibitem alone.

run_pass renders each cite as "[label]" using the labels of the previous
.aux (or "[?]" plus a warning), regenerates the .aux (keeping the lines
it does not own, AuxFile.raw_lines), and reports whether labels changed,
which is the rerun signal.  There is no typesetting: the rendered text
is the source with cites replaced.
"""

from __future__ import annotations

import re

from .auxfile import AuxFile
from .database import group_end
from .diagnostics import LINE_END, Record, line_counter


# the patterns are sources, compiled as database's docstring says:
# a comment (to the end of its line), or a backslash and the ASCII letters after it
_CONTROL = rf"%[^\r\n]*(?:{LINE_END})?|\\([a-zA-Z]*)"
# begin reads only its group, so that a \begin without one is still an error
_COMMANDS = frozenset(("cite", "bibitem", "bibliographystyle", "bibliography", "begin"))
_OPTIONAL_ARG = r"\s*\[[^\]]*\]"
_OPEN = r"\s*\{"


class TexScanError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class CiteSpan(Record):
    __slots__ = ("start", "end", "keys", "line")
    def __init__(self, start: int, end: int, keys: list[str], line: int):
        self.start, self.end, self.keys, self.line = start, end, keys, line


class TexScan(Record):
    __slots__ = ("cites", "style", "data", "inline_bib", "text", "cite_spans")
    def __init__(self, cites=None, style=None, data=None, inline_bib=None, text="", cite_spans=None):
        self.cites: list[str] = [] if cites is None else cites
        self.style: str | None = style
        self.data: list[str] = [] if data is None else data
        self.inline_bib: list[str] = [] if inline_bib is None else inline_bib
        self.text: str = text
        self.cite_spans: list[CiteSpan] = [] if cite_spans is None else cite_spans

    @property
    def external(self) -> bool:
        """External mode: a style or data declaration is present, so the
        labels come from a generated bibliography, not from inline \\bibitems."""
        return self.style is not None or bool(self.data)


class PassResult(Record):
    __slots__ = ("rendered", "new_aux", "warnings", "labels_changed", "resolved")
    def __init__(self, rendered: str, new_aux: AuxFile, warnings: list[str],
                 labels_changed: bool, resolved: int):
        self.rendered, self.new_aux, self.warnings = rendered, new_aux, warnings
        self.labels_changed = labels_changed
        self.resolved = resolved  # the cites whose label old_aux gave


def scan_tex(text: str) -> TexScan:
    """Scan .tex source; raises TexScanError when a recognized command lacks its {...} group."""
    return _scan(text, _COMMANDS)


def bibitem_keys(text: str) -> list[str]:
    """The \\bibitem keys of a .bbl, read as scan_tex reads them, and nothing
    else; raises TexScanError when a \\bibitem lacks its {key}."""
    return _scan(text, frozenset({"bibitem"})).inline_bib


def _scan(text: str, commands: frozenset[str]) -> TexScan:
    """scan_tex, recognizing only the given commands."""
    scan = TexScan(text=text)
    # commands arrive in text order, so one forward counter serves them all
    line_at = line_counter(text)
    search_control = re.compile(_CONTROL).search
    match_optional = re.compile(_OPTIONAL_ARG).match
    match_open = re.compile(_OPEN).match
    m = search_control(text)
    while m:
        name, pos = m[1], m.end()
        # a comment or any other control word is skipped whole; a letter
        # after the ASCII ones (\citeé) makes a longer, unknown word
        if name == "":
            pos += 1  # an escaped single character such as \% or \{
        elif name in commands and not text[pos : pos + 1].isalpha():
            start = m.start()
            line = line_at(start)
            # the common case, a `{' next, skips the regex
            if name in ("bibitem", "cite") and text[pos : pos + 1] != "{":
                optional = match_optional(text, pos)
                if optional:
                    pos = optional.end()
            content, pos = _read_group(text, pos, line, name, match_open)
            if name == "cite":
                keys = [k.strip() for k in content.split(",")]
                scan.cite_spans.append(CiteSpan(start, pos, keys, line))
                scan.cites.extend(keys)
            elif name == "bibitem":
                scan.inline_bib.append(content.strip())
            elif name == "bibliographystyle":
                scan.style = content.strip()
            elif name == "bibliography":
                scan.data = [d.strip() for d in content.split(",")]
        m = search_control(text, pos)
    return scan


def run_pass(tex: TexScan, old_aux: AuxFile | None, *, base: str = "texput",
             bbl_items: list[str] | None = None) -> PassResult:
    """One simulated pass: render cite marks from old_aux and rebuild the aux.

    In external mode (TexScan.external) the new label table comes from
    bbl_items, the \\bibitem keys of a generated bibliography; the pass
    never invents numbers itself.  In inline mode the document's own
    \\bibitem keys are numbered from 1.  Raises nothing: problems are
    returned as warnings.
    """
    warnings: list[str] = []
    if old_aux is None:
        warnings.append(f"No file {base}.aux.")
        old_labels: dict[str, str] = {}
    else:
        old_labels = dict(old_aux.bibcites)
    if tex.inline_bib and tex.data:
        warnings.append(
            "document has both an inline bibliography and \\bibliography data; using the external data"
        )

    pieces: list[str] = []
    last = resolved = 0
    for span in tex.cite_spans:
        pieces.append(tex.text[last:span.start])
        marks = []
        for key in span.keys:
            label = old_labels.get(key)
            if label is None:
                marks.append("?")
                warnings.append(f"Citation `{key}' on page 1 undefined on input line {span.line}.")
            else:
                marks.append(label)
                resolved += 1
        pieces.append("[" + ",".join(marks) + "]")
        last = span.end
    pieces.append(tex.text[last:])
    rendered = "".join(pieces)

    items = (bbl_items or []) if tex.external else tex.inline_bib
    new_labels: dict[str, str] = {}
    for key in items:
        if key in new_labels:
            warnings.append(f"Label `{key}' multiply defined.")
            continue
        new_labels[key] = str(len(new_labels) + 1)

    new_aux = AuxFile(
        citations=list(tex.cites),
        style=tex.style,
        data=list(tex.data),
        bibcites=new_labels,
        raw_lines=[] if old_aux is None else list(old_aux.raw_lines),
    )
    labels_changed = new_labels != old_labels
    if labels_changed:
        warnings.append("Label(s) may have changed. Rerun to get cross-references right.")
    return PassResult(rendered, new_aux, warnings, labels_changed, resolved)


def fixpoint(tex: TexScan, initial_aux: AuxFile | None, max_passes: int, *,
             base: str = "texput", bbl_items: list[str] | None = None
             ) -> list[PassResult]:
    """Run passes feeding each new aux forward until labels stop changing.

    Raises ValueError when max_passes is below 1.
    """
    if max_passes < 1:
        raise ValueError("max_passes must be at least 1")
    results: list[PassResult] = []
    aux = initial_aux
    for _ in range(max_passes):
        result = run_pass(tex, aux, base=base, bbl_items=bbl_items)
        results.append(result)
        aux = result.new_aux
        if not result.labels_changed:
            break
    if results[-1].labels_changed:
        results[-1].warnings.append(f"labels still changing after {max_passes} pass(es)")
    return results


def _read_group(text: str, pos: int, line: int, cmd: str, match_open) -> tuple[str, int]:
    """The contents of the {...} group after optional space at pos, and the
    offset past it; match_open is _OPEN's compiled match."""
    m = match_open(text, pos)
    if m is None:
        raise TexScanError(f"expected '{{' after \\{cmd}", line)
    end = group_end(text, m.end() - 1)
    if end < 0:
        raise TexScanError(f"unbalanced braces in \\{cmd}", line)
    return text[m.end() : end - 1], end
