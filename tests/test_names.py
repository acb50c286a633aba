"""Tests for author-list splitting, name decomposition, and templates."""

import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibstack import names
from bibstack.database import group_end
from bibstack.names import (
    NameParseError,
    NameParts,
    TemplateError,
    count_names,
    format_name,
    parse_name,
    parse_template,
    split_names,
    tokenize,
)

from fixtures import NAME_TEXT, TEMPLATE_TEXT


class TestSplitNames:
    def test_two_authors(self):
        assert split_names("Stein P. R. and  Ulam S. M.") == ["Stein P. R.", "Ulam S. M."]

    def test_single_author(self):
        assert split_names(r"H. Poincar\'e") == [r"H. Poincar\'e"]

    def test_braces_protect_and(self):
        assert split_names("{Band and Band} X") == ["{Band and Band} X"]

    def test_empty_input(self):
        assert split_names("") == []
        assert split_names("   ") == []

    def test_case_sensitive_separator(self):
        assert split_names("A AND B") == ["A AND B"]

    def test_whitespace_collapsed(self):
        assert split_names("  A   B  and  C ") == ["A B", "C"]

    @pytest.mark.parametrize("author, expected", [
        ("A} and B", ["A}", "B"]),  # a stray } is text
        ("A {B and C", ["A {B and C"]),  # an unclosed { runs to the end
        ("x and } and y", ["x", "}", "y"]),
    ])
    def test_unbalanced_braces(self, author, expected):
        assert split_names(author) == expected


class TestTokenize:
    @pytest.mark.parametrize("author, expected", [
        ("Doe, J. and Roe", [[["Doe"], ["J."]], [["Roe"]]]),
        ("{{{D}}}oe {E and, F} and G", [[["{{{D}}}oe", "{E and, F}"]], [["G"]]]),  # a group three deep
        ("A {B and C", [[["A", "{B and C"]]]),  # an unclosed { runs to the end
        ("A and, B ,and {x}and C", [[["A", "and"], ["B"], ["and", "{x}and", "C"]]]),  # text beside "and"
        ("a, ,b and", [[["a"], [], ["b"]], [[]]]),
        ("", []),
    ])
    def test_names_as_comma_sections_of_words(self, author, expected):
        assert tokenize(author) == expected


class TestCountNames:
    def test_counts(self):
        assert count_names(r"H. Poincar\'e") == 1
        assert count_names("Stein P. R. and  Ulam S. M.") == 2
        assert count_names("") == 0


class TestParseName:
    def test_first_last(self):
        parts = parse_name(r"H. Poincar\'e")
        assert parts == NameParts(first=["H."], von=[], last=[r"Poincar\'e"], jr=[])

    def test_last_comma_first(self):
        parts = parse_name("Riss, F.")
        assert parts == NameParts(first=["F."], von=[], last=["Riss"], jr=[])

    def test_three_part_form(self):
        parts = parse_name("de la Cruz, Jr., Maria")
        assert parts == NameParts(first=["Maria"], von=["de", "la"], last=["Cruz"], jr=["Jr."])

    def test_von_span_in_first_form(self):
        parts = parse_name("Charles Louis de la Vallee Poussin")
        assert parts.first == ["Charles", "Louis"]
        assert parts.von == ["de", "la"]
        assert parts.last == ["Vallee", "Poussin"]

    def test_interleaved_case_uses_full_span(self):
        parts = parse_name("X de La y Z")
        assert parts.von == ["de", "La", "y"]
        assert parts.last == ["Z"]

    def test_all_lowercase_keeps_last_nonempty(self):
        parts = parse_name("de la cruz")
        assert parts.von == ["de", "la"]
        assert parts.last == ["cruz"]
        assert parts.first == []

    def test_multiword_last_in_comma_form(self):
        parts = parse_name("Vallee Poussin, Charles")
        assert parts.last == ["Vallee", "Poussin"]
        assert parts.first == ["Charles"]

    def test_brace_group_counts_as_uppercase(self):
        parts = parse_name("{de} Cruz, Maria")
        assert parts.von == []
        assert parts.last == ["{de}", "Cruz"]

    @pytest.mark.parametrize("name, last", [
        ("{Doe, Inc.}, John", ["{Doe, Inc.}"]),  # a comma inside braces separates nothing
        ("Smith} Jr, John", ["Smith}", "Jr"]),  # a stray } is text
        ("{von Last", ["{von Last"]),  # an unclosed { runs to the end
    ])
    def test_last_with_braces(self, name, last):
        assert parse_name(name).last == last

    def test_too_many_commas(self):
        with pytest.raises(NameParseError):
            parse_name("a, b, c, d")

    def test_only_commas_or_whitespace(self):
        with pytest.raises(NameParseError):
            parse_name(" , ")
        with pytest.raises(NameParseError):
            parse_name("   ")


class TestFormatName:
    def test_full_last(self):
        assert format_name(r"H. Poincar\'e", "{ll}") == r"Poincar\'e"

    def test_abbreviated_last_with_dot(self):
        assert format_name(r"H. Poincar\'e", "{l.}") == "P."

    def test_empty_part_contributes_nothing(self):
        assert format_name(r"H. Poincar\'e", "{jj}") == ""

    def test_pieces_concatenate_verbatim(self):
        assert format_name(r"H. Poincar\'e", "{ff}{vv}{ll}{jj}") == r"H.Poincar\'e"

    def test_abbreviations_join_with_dot_space(self):
        assert format_name("Jean Paul Sartre", "{f.}") == "J. P."
        assert format_name("Jean Paul Sartre", "{f}") == "J. P"

    def test_hyphenated_token_is_single_token(self):
        assert format_name("Yang Tse-Chung", "{l.}") == "T."

    def test_brace_group_abbreviates_after_brace(self):
        assert format_name("{Band and Band} X", "{f.}") == "B."

    def test_suffix_only_on_nonempty_piece(self):
        assert format_name("Cruz, Maria", "{vv.}{ll}") == "Cruz"

    def test_special_character_abbreviates_to_its_group(self):
        assert format_name("{\\'E}mile Zola", "{f.}") == "{\\'E}."
        assert format_name("{\\v{C}}apek, O.", "{f.~}{l.}") == "O.~{\\v{C}}."

    @pytest.mark.parametrize("name,initials", [
        ("{{Barnes}} X", "B."),
        ("{} X", "."),
        ("{}{Ab} X", "A."),
        ("{{\\'E}}mile X", "{\\'E}."),
        ("\\AA{}sa X", "A."),
        ("1st X", "1."),
    ])
    def test_brace_or_backslash_token_abbreviates_to_its_first_letter(self, name, initials):
        assert format_name(name, "{f.}") == initials

    def test_token_with_no_initial_adds_nothing(self):
        assert format_name("{} John Smith", "{f.}") == "J."
        assert format_name("{1984} {} Ann Bo Smith", "{f.}") == "A. B."
        assert format_name("John {} Smith", "{ff~}{f.~}{l.}") == "John {}~J.~S."

    def test_prefix_only_on_nonempty_piece(self):
        template = "{ff~}{vv~}{ll}{, jj}"
        assert parse_template(template)[-1] == (3, True, ", ", "")
        assert format_name("Doe, Jr., John", template) == "John~Doe, Jr."
        assert format_name("John Doe", template) == "John~Doe"
        assert format_name("Ludwig van Beethoven", "{ff}{ vv}{ l.}") == "Ludwig van B."

    @pytest.mark.parametrize("piece", ["{, x}", "{. }", "{}", "{, F}"])
    def test_piece_needs_a_part_letter(self, piece):
        with pytest.raises(TemplateError) as err:
            parse_template(piece)
        assert str(err.value) == f"piece must start with one of f, v, l, j: {piece}"

    def test_tripled_letter_after_a_prefix(self):
        with pytest.raises(TemplateError, match="tripled piece letter"):
            parse_template("{, jjj}")

    def test_bad_template_letter(self):
        with pytest.raises(TemplateError):
            format_name("A B", "{xx}")

    def test_tripled_letter(self):
        with pytest.raises(TemplateError):
            format_name("A B", "{lll}")

    def test_text_outside_pieces(self):
        with pytest.raises(TemplateError):
            format_name("A B", "{ll}, {ff}")

    def test_unclosed_brace(self):
        with pytest.raises(TemplateError):
            format_name("A B", "{ll")

    def test_nested_braces(self):
        with pytest.raises(TemplateError):
            parse_template("{l{l}}")


_upper = st.text(alphabet="ABCDEFG", min_size=1, max_size=3).map(lambda s: s + "x")
_lower = st.text(alphabet="abcdefg", min_size=2, max_size=4)


@st.composite
def _case_marked_names(draw):
    """Names with distinct case-marked words so von detection is unambiguous."""
    first = draw(st.lists(_upper, min_size=1, max_size=2))
    von = draw(st.lists(_lower, min_size=0, max_size=2))
    last = draw(st.lists(_upper, min_size=1, max_size=2 if von else 1))
    return first, von, last


@given(_case_marked_names())
def test_comma_form_agreement(name):
    first, von, last = name
    plain = " ".join(first + von + last)
    comma = " ".join(von + last) + ", " + " ".join(first)
    a = parse_name(plain)
    b = parse_name(comma)
    assert (a.first, a.von, a.last, a.jr) == (b.first, b.von, b.last, b.jr)
    assert (a.first, a.von, a.last) == (first, von, last)


@given(_case_marked_names())
def test_token_partition(name):
    first, von, last = name
    text = " ".join(first + von + last)
    parts = parse_name(text)
    assert sorted(parts.first + parts.von + parts.last + parts.jr) == sorted(text.split())


@given(_case_marked_names())
def test_full_template_round_trip(name):
    first, von, last = name
    text = " ".join(first + von + last)
    formatted = format_name(text, "{ff}{vv}{ll}{jj}")
    # pieces concatenate with no separators, so compare ignoring whitespace
    assert formatted.replace(" ", "") == text.replace(" ", "")


@given(st.lists(_case_marked_names(), min_size=1, max_size=4))
def test_split_inverts_and_join(names):
    rendered = [" ".join(f + v + l) for f, v, l in names]
    assert split_names(" and ".join(rendered)) == rendered


@given(st.lists(_lower, min_size=1, max_size=3))
def test_split_never_splits_inside_braces(words):
    protected = "{" + " and ".join(words) + "} Tail"
    assert split_names(protected) == [protected]


def _outcome(fn, *args):
    """The result, or the type and message of a documented error."""
    try:
        return fn(*args)
    except (NameParseError, TemplateError) as err:
        return type(err), str(err)


@given(NAME_TEXT, TEMPLATE_TEXT)
def test_any_text_gives_a_result_or_a_documented_error(text, template):
    assert isinstance(split_names(text), list)
    assert count_names(text) == len(split_names(text))
    _outcome(parse_name, text)
    _outcome(parse_template, template)
    _outcome(format_name, text, template)


@given(NAME_TEXT, TEMPLATE_TEXT)
def test_caches_change_no_result(text, template):
    calls = [(split_names, text), (count_names, text), (parse_name, text),
             (parse_template, template), (format_name, text, template)]
    first = [_outcome(fn, *args) for fn, *args in calls]
    assert [_outcome(fn, *args) for fn, *args in calls] == first
    parse_template.cache_clear()
    assert [_outcome(fn, *args) for fn, *args in calls] == first


def _paired_only(text: str) -> str:
    """text without the braces that do not pair up."""
    unmatched, opened = set(), []
    for i, ch in enumerate(text):
        if ch == "{":
            opened.append(i)
        elif ch == "}":
            if opened:
                opened.pop()
            else:
                unmatched.add(i)
    unmatched.update(opened)
    return "".join(ch for i, ch in enumerate(text) if i not in unmatched)


@given(NAME_TEXT.map(_paired_only))
def test_abbreviated_names_keep_braces_balanced(name):
    try:
        formatted = format_name(name, "{f.}{ll}")
    except NameParseError:
        return
    assert _paired_only(formatted) == formatted


def _path(text: str) -> str:
    """The path of the tokenizer that reads text; an exact path is "closed"
    when every { closes (a group nested too deep for the fast one)."""
    if "{" not in text:
        return "no brace"
    if "{" not in re.compile(names._TOKEN).findall(text):
        return "fast"
    closed = all(group_end(text, i) > 0 for i, ch in enumerate(text) if ch == "{")
    return "exact, closed" if closed else "exact"


def test_name_text_reaches_both_paths_of_the_tokenizer():
    paths = Counter()

    @settings(max_examples=2000)
    @given(NAME_TEXT)
    def draw(text):
        paths[_path(text)] += 1

    draw()
    # measured: 251 with no brace, 1,129 on the fast path, and on the exact one
    # 333 with an unclosed { and 287 with every group closed; floors at about half
    assert paths["no brace"] >= 125 and paths["fast"] >= 560
    assert paths["exact"] >= 165 and paths["exact, closed"] >= 140
