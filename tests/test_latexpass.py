"""Tests for the .tex scanner and the citation-pass simulation."""

import string
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bibstack.auxfile import AuxError, AuxFile, parse_aux, unwritable, write_aux
from bibstack.latexpass import TexScan, TexScanError, bibitem_keys, fixpoint, run_pass, scan_tex

from fixtures import EXTERNAL_TEX, INLINE_AUX, INLINE_TEX, TEX_TEXT, _LINE_END, _line_at, cite_marks


def _to_lf(text: str) -> str:
    return _LINE_END.sub("\n", text)


class TestScanTex:
    def test_inline_document(self):
        scan = scan_tex(INLINE_TEX)
        assert scan.cites == ["Ulam-1964", "Poincare", "Ulam-1964"]
        assert scan.inline_bib == ["Poincare", "Ulam-1964"]
        assert scan.style is None and scan.data == []

    def test_external_document(self):
        scan = scan_tex(EXTERNAL_TEX)
        assert scan.cites == ["Ulam-1964", "Poincare"]
        assert scan.style == "helloword"
        assert scan.data == ["my"]
        assert scan.inline_bib == []

    def test_plain_text(self):
        scan = scan_tex("no citations here")
        assert scan.cites == [] and scan.inline_bib == []
        assert scan.style is None and scan.data == []

    def test_comments_skipped(self):
        scan = scan_tex("text % \\cite{hidden}\n\\cite{real}\n")
        assert scan.cites == ["real"]

    def test_escaped_percent_is_not_a_comment(self):
        scan = scan_tex("50\\% of \\cite{real}\n")
        assert scan.cites == ["real"]

    def test_multi_key_cite_splits(self):
        scan = scan_tex("\\cite{a,b}")
        assert scan.cites == ["a", "b"]
        assert scan.cite_spans[0].keys == ["a", "b"]

    def test_similar_command_names_ignored(self):
        scan = scan_tex("\\citep{x} \\bibitemsep \\cite{y}")
        assert scan.cites == ["y"]
        assert scan.inline_bib == []

    def test_bibitem_optional_argument(self):
        scan = scan_tex("\\bibitem[Poi92]{Poincare} text")
        assert scan.inline_bib == ["Poincare"]

    def test_cite_optional_note(self):
        # the note is inside the cite's span, so the rendered mark replaces it
        scan = scan_tex("See \\cite[p.~5]{a} and \\cite [ch. 2] {b,c}.\n")
        assert scan.cites == ["a", "b", "c"]
        assert run_pass(scan, AuxFile(bibcites={"a": "1"})).rendered == "See [1] and [?,?].\n"

    def test_cite_lines_on_a_long_document(self):
        # 2000 cites, zero to three line breaks apart, some sharing a line
        gaps = ["", " ", "\n", "\n\n", " text\n", "\n%\\cite{no}\n\n"]
        text = "".join(f"\\cite{{k{i}}}" + gaps[i * 7 % len(gaps)] for i in range(2000))
        scan = scan_tex(text)
        assert len(scan.cite_spans) == 2000
        assert [span.line for span in scan.cite_spans] == [
            text.count("\n", 0, span.start) + 1 for span in scan.cite_spans
        ]
        assert scan.cite_spans[-1].line > 1000

    def test_unbalanced_cite_raises_with_line(self):
        with pytest.raises(TexScanError) as err:
            scan_tex("line one\n\\cite{oops")
        assert err.value.line == 2

    def test_missing_brace_raises(self):
        with pytest.raises(TexScanError):
            scan_tex("\\bibliographystyle plain")

    @pytest.mark.parametrize("eol", ["\r", "\r\n"])
    def test_cr_line_ends_end_comments_and_count_lines(self, eol):
        text = f"% note{eol}\\cite{{a}}{eol}text \\cite{{b}}{eol}"
        scan = scan_tex(text)
        assert scan.cites == ["a", "b"]
        assert [span.line for span in scan.cite_spans] == [2, 3]
        assert scan.text == text

    def test_width_group_is_text_read_as_in_a_bbl(self):
        # LaTeX typesets the {width} argument, so a command inside it runs
        text = "\\begin{thebibliography}{\\bibitem{w} \\cite{c}}\n\\bibitem{a}\n"
        scan = scan_tex(text)
        assert scan.inline_bib == bibitem_keys(text) == ["w", "a"]
        assert scan.cites == ["c"]

    def test_unclosed_width_groups_are_linear(self):
        # a width group is text, so no scan reads it to the end of the text
        start = time.perf_counter()
        scan = scan_tex("\\begin{thebibliography}{" * 8_000)
        assert time.perf_counter() - start < 2.0
        assert scan.cites == [] and scan.inline_bib == []


class TestBibitemKeys:
    def test_reads_only_the_bibitem_keys(self):
        text = ("\\begin{thebibliography}{9}\n\\bibitem{a}\nHow to \\cite a paper\n"
                "\\bibitem[Doe]{b} \\begin x % \\bibitem{hidden}\n\\\\bibitem \\bibitemx\n")
        assert bibitem_keys(text) == ["a", "b"]

    def test_bibitem_without_its_key_raises_with_line(self):
        with pytest.raises(TexScanError) as err:
            bibitem_keys("\\bibitem{a}\r\n\\bibitem b")
        assert str(err.value) == "line 2: expected '{' after \\bibitem"


class TestRunPass:
    def test_first_pass_without_aux(self):
        scan = scan_tex(INLINE_TEX)
        result = run_pass(scan, None, base="test")
        assert cite_marks(result.rendered) == ["[?]", "[?]", "[?]"]
        assert result.warnings[0] == "No file test.aux."
        assert sum("undefined" in w for w in result.warnings) == 3
        assert write_aux(result.new_aux) == INLINE_AUX
        assert result.labels_changed
        assert result.resolved == 0

    def test_second_pass_resolves_marks(self):
        scan = scan_tex(INLINE_TEX)
        result = run_pass(scan, parse_aux(INLINE_AUX), base="test")
        assert cite_marks(result.rendered) == ["[2]", "[1]", "[2]"]
        assert not result.labels_changed
        assert result.resolved == 3
        assert all("undefined" not in w for w in result.warnings)

    def test_tampered_labels_render_then_restore(self):
        scan = scan_tex(INLINE_TEX)
        tampered = parse_aux(INLINE_AUX)
        tampered.bibcites = {"Poincare": "10", "Ulam-1964": "25"}
        result = run_pass(scan, tampered, base="test")
        assert cite_marks(result.rendered) == ["[25]", "[10]", "[25]"]
        assert write_aux(result.new_aux) == INLINE_AUX
        assert result.labels_changed
        assert any("Rerun" in w for w in result.warnings)

    def test_external_mode_uses_generated_items(self):
        scan = scan_tex(EXTERNAL_TEX)
        result = run_pass(scan, None, base="test2", bbl_items=["Ulam-1964", "Poincare"])
        assert result.new_aux.bibcites == {"Ulam-1964": "1", "Poincare": "2"}
        assert result.new_aux.style == "helloword"
        assert result.new_aux.data == ["my"]

    def test_external_mode_without_items_invents_nothing(self):
        scan = scan_tex(EXTERNAL_TEX)
        result = run_pass(scan, None, base="test2")
        assert result.new_aux.bibcites == {}

    def test_multi_key_rendering(self):
        scan = scan_tex("\\cite{a,b}\n\\begin{thebibliography}{9}\n\\bibitem{a} A\n\\end{thebibliography}\n")
        result = run_pass(scan, AuxFile(bibcites={"a": "1"}))
        assert "[1,?]" in result.rendered
        assert result.resolved == 1

    def test_non_cite_text_preserved(self):
        scan = scan_tex(INLINE_TEX)
        result = run_pass(scan, parse_aux(INLINE_AUX))
        stripped = result.rendered
        for mark in ("[2]", "[1]"):
            stripped = stripped.replace(mark, "\\cite{}", 1)
        # same length structure: everything outside the marks is untouched
        assert result.rendered.count("[2]") == 2
        assert INLINE_TEX.split("\\cite{Ulam-1964}")[0] == result.rendered.split("[2]")[0]

    def test_substitutes_each_cite_exactly_once(self):
        scan = scan_tex(INLINE_TEX)
        result = run_pass(scan, parse_aux(INLINE_AUX))
        assert result.rendered.count("\\cite{") == 0
        assert len(cite_marks(result.rendered)) == len(scan.cite_spans)


class TestFixpoint:
    def test_converges_in_two_passes_from_nothing(self):
        scan = scan_tex(INLINE_TEX)
        results = fixpoint(scan, None, 5, base="test")
        assert len(results) == 2
        assert cite_marks(results[-1].rendered) == ["[2]", "[1]", "[2]"]
        assert not results[-1].labels_changed

    def test_already_at_fixpoint(self):
        scan = scan_tex(INLINE_TEX)
        results = fixpoint(scan, parse_aux(INLINE_AUX), 5, base="test")
        assert len(results) == 1

    def test_tampered_aux_recovers_in_two_passes(self):
        scan = scan_tex(INLINE_TEX)
        tampered = parse_aux(INLINE_AUX)
        tampered.bibcites = {"Poincare": "10", "Ulam-1964": "25"}
        results = fixpoint(scan, tampered, 5, base="test")
        assert len(results) == 2
        assert cite_marks(results[0].rendered) == ["[25]", "[10]", "[25]"]
        assert cite_marks(results[1].rendered) == ["[2]", "[1]", "[2]"]

    def test_max_passes_validation(self):
        with pytest.raises(ValueError):
            fixpoint(scan_tex(""), None, 0)

    def test_idempotence_implies_no_change(self):
        scan = scan_tex(INLINE_TEX)
        result = run_pass(scan, None, base="t")
        stable = run_pass(scan, result.new_aux, base="t")
        if stable.new_aux == result.new_aux:
            assert not stable.labels_changed


_keys = st.lists(
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=5),
    min_size=0, max_size=6, unique=True,
)


@given(cites=_keys, items=_keys)
def test_inline_documents_converge_within_two_passes(cites, items):
    body = " ".join(f"\\cite{{{k}}}" for k in cites)
    bibliography = "\n".join(f"\\bibitem{{{k}}} text" for k in items)
    tex = f"{body}\n\\begin{{thebibliography}}{{9}}\n{bibliography}\n\\end{{thebibliography}}\n"
    results = fixpoint(scan_tex(tex), None, 5, base="t")
    assert len(results) <= 2
    assert not results[-1].labels_changed


_item = st.sampled_from(["a", "b", "k", "ab"])


@given(TEX_TEXT, st.dictionaries(_item, st.sampled_from(["1", "2", "3", "x"]), max_size=4),
       st.lists(_item, max_size=6))
def test_external_documents_converge_within_two_passes(text, bibcites, bbl_items):
    # the new labels come from bbl_items alone, whatever the starting .aux held
    try:
        scan = scan_tex(text)
    except TexScanError:
        return
    scan.style = "plain"
    results = fixpoint(scan, AuxFile(bibcites=bibcites), 5, base="t", bbl_items=bbl_items)
    assert len(results) <= 2
    assert not results[-1].labels_changed
    fresh = fixpoint(scan, None, 5, base="t", bbl_items=bbl_items)
    assert results[-1].new_aux.bibcites == fresh[-1].new_aux.bibcites


@given(TEX_TEXT)
def test_any_text_scans_or_raises_tex_scan_error(text):
    try:
        scan = scan_tex(text)
    except TexScanError as err:
        assert 1 <= err.line <= _line_at(text, len(text))
        return
    assert isinstance(scan, TexScan)
    for span in scan.cite_spans:
        assert span.line == _line_at(text, span.start)
        assert text[span.start:span.end].startswith("\\cite")
    assert scan.cites == [key for span in scan.cite_spans for key in span.keys]


@given(TEX_TEXT)
def test_unwritable_says_whether_the_next_run_reads_the_aux(text):
    try:
        scan = scan_tex(text)
    except TexScanError:
        return
    # the document's own \bibitem keys stand in for a .bbl's in external mode
    aux = run_pass(scan, None, bbl_items=scan.inline_bib).new_aux
    fields = (aux.citations, aux.style, aux.data, aux.bibcites)
    try:
        again = parse_aux(write_aux(aux))
        reads_back = (again.citations, again.style, again.data, again.bibcites) == fields
    except AuxError:
        reads_back = False
    assert (unwritable(aux) is None) == reads_back


def _scanned(text: str):
    """What scan_tex finds in text, with its line ends read as LF, or its error."""
    try:
        scan = scan_tex(text)
    except TexScanError as err:
        return str(err)
    return ([(span.line, [_to_lf(k) for k in span.keys]) for span in scan.cite_spans],
            [_to_lf(k) for k in scan.inline_bib], scan.style and _to_lf(scan.style),
            [_to_lf(d) for d in scan.data])


@given(TEX_TEXT)
def test_cr_or_crlf_line_ends_give_the_same_cites_keys_and_lines(text):
    text = _to_lf(text)
    expected = _scanned(text)
    for eol in ("\r", "\r\n"):
        assert _scanned(text.replace("\n", eol)) == expected
