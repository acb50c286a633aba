"""Simulation of the citation side of a LaTeX run.

scan_tex picks \\cite, \\bibitem, \\bibliographystyle, \\bibliography
and \\begin{thebibliography} out of a source file; everything else is
opaque text.  run_pass renders each cite as "[label]" using the labels
of the previous .aux (or "[?]" plus a warning), regenerates the .aux,
and reports whether labels changed, which is the rerun signal.  There
is no typesetting: the rendered text is the source with cites replaced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .auxfile import AuxFile
from .database import group_end


class TexScanError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class CiteSpan:
    start: int
    end: int
    keys: list[str]
    line: int


@dataclass
class TexScan:
    cites: list[str] = field(default_factory=list)
    style: str | None = None
    data: list[str] = field(default_factory=list)
    inline_bib: list[str] = field(default_factory=list)
    text: str = ""
    cite_spans: list[CiteSpan] = field(default_factory=list)


@dataclass
class PassResult:
    rendered: str
    new_aux: AuxFile
    warnings: list[str]
    labels_changed: bool


def scan_tex(text: str) -> TexScan:
    scan = TexScan(text=text)
    i, n = 0, len(text)
    # commands arrive in text order, so the line count only moves forward
    counted, line = 0, 1
    while i < n:
        ch = text[i]
        if ch == "%":
            j = text.find("\n", i)
            i = n if j < 0 else j + 1
        elif ch == "\\":
            j = i + 1
            while j < n and text[j].isalpha():
                j += 1
            name = text[i + 1 : j]
            if not name:
                # escaped single character such as \% or \{
                i = min(j + 1, n)
                continue
            line += text.count("\n", counted, i)
            counted = i
            if name == "cite":
                content, end = _read_group(text, j, line, name)
                keys = [k.strip() for k in content.split(",")]
                scan.cite_spans.append(CiteSpan(i, end, keys, line))
                scan.cites.extend(keys)
                i = end
            elif name == "bibitem":
                j = _skip_optional_arg(text, j)
                content, end = _read_group(text, j, line, name)
                scan.inline_bib.append(content.strip())
                i = end
            elif name == "bibliographystyle":
                content, end = _read_group(text, j, line, name)
                scan.style = content.strip()
                i = end
            elif name == "bibliography":
                content, end = _read_group(text, j, line, name)
                scan.data = [d.strip() for d in content.split(",")]
                i = end
            elif name == "begin":
                content, end = _read_group(text, j, line, name)
                if content.strip() == "thebibliography":
                    end = _skip_width_arg(text, end)
                i = end
            else:
                i = j
        else:
            i += 1
    return scan


def run_pass(tex: TexScan, old_aux: AuxFile | None, *, base: str = "texput",
             bbl_items: list[str] | None = None) -> PassResult:
    """One simulated pass: render cite marks from old_aux and rebuild the aux.

    In external mode (a style or data declaration is present) the new
    label table comes from bbl_items, the \\bibitem keys of a generated
    bibliography; the pass never invents numbers itself.  In inline mode
    the document's own \\bibitem keys are numbered from 1.
    """
    warnings: list[str] = []
    external = tex.style is not None or bool(tex.data)
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
    last = 0
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
        pieces.append("[" + ",".join(marks) + "]")
        last = span.end
    pieces.append(tex.text[last:])
    rendered = "".join(pieces)

    items = (bbl_items or []) if external else tex.inline_bib
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
    )
    labels_changed = new_labels != old_labels
    if labels_changed:
        warnings.append("Label(s) may have changed. Rerun to get cross-references right.")
    return PassResult(rendered, new_aux, warnings, labels_changed)


def fixpoint(tex: TexScan, initial_aux: AuxFile | None, max_passes: int, *,
             base: str = "texput", bbl_items: list[str] | None = None
             ) -> tuple[list[PassResult], int]:
    """Run passes feeding each new aux forward until labels stop changing."""
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
    return results, len(results)


def _read_group(text: str, pos: int, line: int, cmd: str) -> tuple[str, int]:
    pos = _skip_space(text, pos)
    if pos >= len(text) or text[pos] != "{":
        raise TexScanError(f"expected '{{' after \\{cmd}", line)
    end = group_end(text, pos)
    if end < 0:
        raise TexScanError(f"unbalanced braces in \\{cmd}", line)
    return text[pos + 1 : end - 1], end


def _skip_space(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _skip_optional_arg(text: str, pos: int) -> int:
    k = _skip_space(text, pos)
    if k < len(text) and text[k] == "[":
        close = text.find("]", k)
        if close >= 0:
            return close + 1
    return pos


def _skip_width_arg(text: str, pos: int) -> int:
    k = _skip_space(text, pos)
    if k < len(text) and text[k] == "{":
        end = group_end(text, k)
        if end >= 0:
            return end
    return pos
