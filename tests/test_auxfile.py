"""Tests for .aux reading, writing, and citation-order dedup."""

import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bibstack.auxfile import (
    AuxError, AuxFile, parse_aux, unique_citation_order, unwritable, write_aux)

from fixtures import BIBTEX_AUX, EXTERNAL_AUX, INLINE_AUX, TEX_TEXT, _line_at


class TestParseAux:
    def test_inline_mode(self):
        aux = parse_aux(INLINE_AUX)
        assert aux.citations == ["Ulam-1964", "Poincare", "Ulam-1964"]
        assert aux.bibcites == {"Poincare": "1", "Ulam-1964": "2"}
        assert aux.style is None
        assert aux.data == []
        assert aux.raw_lines == []

    def test_external_mode(self):
        aux = parse_aux(EXTERNAL_AUX)
        assert aux.citations == ["Ulam-1964", "Poincare", "Ulam-1964"]
        assert aux.style == "plain"
        assert aux.data == ["my"]
        assert aux.bibcites == {}

    def test_relax_only(self):
        aux = parse_aux("\\relax\n")
        assert aux == AuxFile()

    def test_crlf_input(self):
        aux = parse_aux(INLINE_AUX.replace("\n", "\r\n"))
        assert aux.citations == ["Ulam-1964", "Poincare", "Ulam-1964"]

    def test_multiple_bibdata_names(self):
        aux = parse_aux("\\relax\n\\bibdata{my,extra}\n")
        assert aux.data == ["my", "extra"]

    def test_unknown_lines_pass_through(self):
        text = "\\relax\n\\@input{chapter.aux}\n\\citation{k}\n"
        aux = parse_aux(text)
        assert aux.raw_lines == ["\\@input{chapter.aux}"]
        assert aux.citations == ["k"]
        assert "\\@input{chapter.aux}" in write_aux(aux)

    def test_malformed_citation_raises_with_line(self):
        with pytest.raises(AuxError) as err:
            parse_aux("\\relax\n\\citation{oops\n")
        assert err.value.line == 2

    def test_malformed_bibcite_raises(self):
        with pytest.raises(AuxError):
            parse_aux("\\bibcite{k}\n")

    def test_empty_label_rejected(self):
        with pytest.raises(AuxError):
            parse_aux("\\bibcite{k}{}\n")

    def test_labels_are_opaque_strings(self):
        aux = parse_aux("\\bibcite{a}{10}\n\\bibcite{b}{25}\n")
        assert aux.bibcites == {"a": "10", "b": "25"}


class TestUniqueCitationOrder:
    def test_inline_aux(self):
        assert unique_citation_order(parse_aux(INLINE_AUX)) == ["Ulam-1964", "Poincare"]

    def test_empty(self):
        assert unique_citation_order(AuxFile()) == []

    def test_first_occurrence_wins(self):
        aux = AuxFile(citations=["a", "b", "a", "c", "b"])
        assert unique_citation_order(aux) == ["a", "b", "c"]


class TestWriteAux:
    def test_round_trips_inline_bytes(self):
        assert write_aux(parse_aux(INLINE_AUX)) == INLINE_AUX

    def test_round_trips_bibtex_aux_bytes(self):
        assert write_aux(parse_aux(BIBTEX_AUX)) == BIBTEX_AUX

    def test_round_trips_a_pass_through_line_that_splitlines_would_break(self):
        # \x85 and \x0c end a line for str.splitlines, but not in an .aux
        text = "\\relax\n\\newlabel{x}{a\x85b\x0cc}\n"
        assert write_aux(parse_aux(text)) == text

    def test_empty_aux(self):
        assert write_aux(AuxFile()) == "\\relax\n"

    def test_external_plus_bibcites(self):
        aux = parse_aux(EXTERNAL_AUX)
        aux.bibcites = {"Poincare": "1", "Ulam-1964": "2"}
        assert write_aux(aux) == (
            EXTERNAL_AUX + "\\bibcite{Poincare}{1}\n\\bibcite{Ulam-1964}{2}\n"
        )


class TestUnwritable:
    @pytest.mark.parametrize("aux, fault", [
        (AuxFile(citations=["a", ""]), "empty citation key"),
        (AuxFile(citations=["x{y}z"]), "\\citation name 'x{y}z' holds a brace or a line break"),
        (AuxFile(citations=["a\x0c{b"]), "\\citation name 'a\\x0c{b' holds a brace or a line break"),
        (AuxFile(style="a\rb"), "\\bibstyle name 'a\\rb' holds a brace or a line break"),
        (AuxFile(data=["my", "a\nb"]), "\\bibdata name 'a\\nb' holds a brace or a line break"),
        (AuxFile(bibcites={"k}": "1"}), "\\bibcite name 'k}' holds a brace or a line break"),
        (AuxFile(bibcites={"a\x85b}": "1"}), "\\bibcite name 'a\\x85b}' holds a brace or a line break"),
    ])
    def test_names_parse_aux_cannot_read_back(self, aux, fault):
        assert unwritable(aux) == fault
        with pytest.raises(AuxError):
            parse_aux(write_aux(aux))

    def test_empty_names_that_round_trip(self):
        for aux in (AuxFile(citations=["a"], style="", data=["", "b"], bibcites={"": "1"}),
                    # \x0c and \x85 end a line for str.splitlines, but not in an .aux
                    AuxFile(citations=["a\x0cb"]), AuxFile(bibcites={"a\x85b": "1"})):
            assert unwritable(aux) is None
            assert parse_aux(write_aux(aux)) == aux


_keys = st.text(alphabet=string.ascii_letters + string.digits + "-:._", min_size=1, max_size=10)


@given(
    citations=st.lists(_keys, max_size=8),
    style=st.one_of(st.none(), _keys),
    data=st.lists(_keys, max_size=3),
    bibcites=st.dictionaries(_keys, st.text(alphabet=string.digits, min_size=1, max_size=3), max_size=5),
)
def test_parse_write_round_trip(citations, style, data, bibcites):
    aux = AuxFile(citations=citations, style=style, data=data, bibcites=bibcites)
    assert parse_aux(write_aux(aux)) == aux


@given(st.lists(_keys, max_size=10), st.integers(min_value=0, max_value=9))
def test_unique_order_stable_under_appended_duplicates(citations, pick):
    aux = AuxFile(citations=citations)
    base = unique_citation_order(aux)
    assert unique_citation_order(AuxFile(citations=base)) == base  # idempotent
    if citations:
        dup = citations[pick % len(citations)]
        assert unique_citation_order(AuxFile(citations=citations + [dup])) == base


def _parsed_or_error(text: str):
    try:
        return parse_aux(text)
    except AuxError as err:
        return str(err), err.line


@given(TEX_TEXT)
def test_cr_or_crlf_line_ends_give_the_same_aux_or_error(text):
    lf = text.replace("\r", "")
    expected = _parsed_or_error(lf)
    for eol in ("\r", "\r\n"):
        assert _parsed_or_error(lf.replace("\n", eol)) == expected


@given(TEX_TEXT)
def test_any_text_parses_or_raises_aux_error(text):
    try:
        aux = parse_aux(text)
    except AuxError as err:
        assert 1 <= err.line <= _line_at(text, len(text))
        return
    assert isinstance(aux, AuxFile)
