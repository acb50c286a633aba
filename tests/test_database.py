"""Tests for .bib parsing, lookup, and field access."""

import re
import string
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibstack import database
from bibstack.auxfile import parse_aux
from bibstack.bstparse import parse_bst
from bibstack.database import (
    Database,
    Entry,
    get_field,
    lookup,
    normalize_value,
    parse_bib,
)

from bibstack.diagnostics import Diagnostic
from bibstack.vm import run

from fixtures import (
    AUTHOR_SORT_FRAGMENT,
    BIB_GOOD_VALUES,
    BIB_TEXT,
    EXTRA_BIB_ENTRY,
    GUARDED_NUMBER_BST,
    LASTNAME_SORT_FRAGMENT,
    SAMPLE_BIB,
    SCANNER_TEXT,
    cited_keys,
    with_sort_fragment,
)


class TestParseBib:
    def test_sample_database(self):
        db, diags = parse_bib(SAMPLE_BIB, "my.bib")
        assert diags == []
        assert [(e.key, e.entry_type) for e in db.entries] == [
            ("Ulam-1964", "article"),
            ("Poincare", "book"),
        ]
        ulam = db.entries[0]
        assert list(ulam.fields) == ["author", "title", "journal", "year", "volume", "pages"]
        assert ulam.fields["author"] == "Stein P. R. and Ulam S. M."
        assert ulam.fields["year"] == "1964"
        poincare = db.entries[1]
        assert list(poincare.fields) == ["author", "title", "year", "publisher", "address"]
        assert poincare.fields["author"] == r"H. Poincar\'e"

    def test_empty_input(self):
        db, diags = parse_bib("")
        assert db.entries == []
        assert diags == []

    def test_concatenated_databases(self):
        db, diags = parse_bib(SAMPLE_BIB + "\n" + EXTRA_BIB_ENTRY)
        assert diags == []
        assert len(db.entries) == 3
        yangyu = db.entries[2]
        assert yangyu.key == "YangYu"
        assert yangyu.fields["number"] == "4"
        assert yangyu.fields["volume"] == "219"

    def test_multiline_value_collapses_to_single_spaces(self):
        db, _ = parse_bib(SAMPLE_BIB)
        title = db.entries[0].fields["title"]
        assert title == "Non-linear transformation studies on electronic computers"
        assert "\n" not in title and "  " not in title

    def test_types_and_field_names_lowercased(self):
        db, diags = parse_bib('@Article{K, AUTHOR = "x"}')
        assert diags == []
        assert db.entries[0].entry_type == "article"
        assert list(db.entries[0].fields) == ["author"]

    def test_braced_values(self):
        db, diags = parse_bib('@misc{k, note = {outer {inner} text}}')
        assert diags == []
        assert db.entries[0].fields["note"] == "outer {inner} text"

    def test_bare_number_value(self):
        db, diags = parse_bib("@misc{k, year = 1984}")
        assert diags == []
        assert db.entries[0].fields["year"] == "1984"

    def test_trailing_comma_tolerated(self):
        db, diags = parse_bib('@misc{k, note = "x",}')
        assert diags == []
        assert db.entries[0].fields["note"] == "x"

    def test_crlf_input(self):
        db, diags = parse_bib('@misc{k,\r\n note = "a\r\nb"}\r\n')
        assert diags == []
        assert db.entries[0].fields["note"] == "a b"

    def test_text_outside_entries_ignored(self):
        db, diags = parse_bib('junk before\n@misc{k, note = "x"}\ntrailing junk')
        assert diags == []
        assert len(db.entries) == 1

    def test_duplicate_key_keeps_first(self):
        db, diags = parse_bib('@misc{k, note = "first"}\n@misc{k, note = "second"}')
        assert len(db.entries) == 1
        assert db.entries[0].fields["note"] == "first"
        assert [d.severity for d in diags] == ["warning"]
        assert "duplicate entry key `k'" in diags[0].message

    def test_unbalanced_value_skips_entry_and_resumes(self):
        text = '@misc{bad, note = "oops}\n@misc{good, note = "x"}'
        db, diags = parse_bib(text)
        assert [e.key for e in db.entries] == ["good"]
        assert any(d.severity == "error" for d in diags)

    def test_string_preamble_comment_rejected(self):
        text = '@string{x = "y"}\n@preamble{"z"}\n@comment{w}\n@misc{k, note = "x"}'
        db, diags = parse_bib(text)
        assert [e.key for e in db.entries] == ["k"]
        assert len([d for d in diags if d.severity == "warning"]) == 3

    def test_concatenation_rejected(self):
        db, diags = parse_bib('@misc{k, note = "a" # "b"}\n@misc{j, note = "x"}')
        assert [e.key for e in db.entries] == ["j"]
        assert any("#" in d.message for d in diags)

    def test_macro_value_rejected(self):
        db, diags = parse_bib("@misc{k, month = jan}")
        assert db.entries == []
        assert any("macro" in d.message for d in diags)

    def test_invalid_key_reported(self):
        db, diags = parse_bib('@misc{, note = "x"}')
        assert db.entries == []
        assert any(d.severity == "error" for d in diags)

    def test_duplicate_field_keeps_first(self):
        db, diags = parse_bib('@misc{k, note = "a", note = "b"}')
        assert db.entries[0].fields["note"] == "a"
        assert any("duplicate field" in d.message for d in diags)

    def test_uncited_entry_keeps_its_first_value_unread_and_unreported(self):
        db, diags = parse_bib('@misc{k,\n  note = {a},\n  year = 1,\n  NOTE = "b"}', cited=set())
        assert diags == []
        entry = db.entries[0]
        assert hasattr(entry, "_source")  # the span is kept, the fields not yet built
        assert entry.fields == {"note": "a", "year": "1"}

    def test_cited_entry_reports_a_repeated_field(self):
        text = '@misc{k, note = {a}, note = {b}}\n@misc{j, note = {c}, note = {d}}'
        db, diags = parse_bib(text, cited={"j"})
        assert [e.fields for e in db.entries] == [{"note": "a"}, {"note": "c"}]
        assert [d.message for d in diags] == ["duplicate field `note' in entry `j'; first value kept"]

    def test_cited_keys_match_verbatim(self):
        _, diags = parse_bib('@misc{Key, note = {a}, note = {b}}', cited={"key"})
        assert diags == []

    def test_field_like_text_in_a_value_is_no_second_field(self):
        db, diags = parse_bib('@misc{k, note = {a, year = b}, year = "x, note = 1"}')
        assert diags == []
        assert db.entries[0].fields == {"note": "a, year = b", "year": "x, note = 1"}

    def test_diagnostic_lines_point_into_file(self):
        text = 'leading\n\n@misc{bad, note = "oops}'
        _, diags = parse_bib(text)
        assert diags and 1 <= diags[0].line <= text.count("\n") + 1


GOLDEN_BIB = (
    "prelude text, not an entry\r\n"
    "@ {nokind, note = \"x\"}\r\n"
    "@string{jan = \"January @misc{hidden, note = {x}}\"}\r\n"
    "@misc(paren, note = \"x\")\n"
    "@misc{bad{key, note = \"x\"}\n"
    "@misc{nofield, = \"x\"}\n"
    "@misc{noeq, note \"x\"}\n"
    "@misc{macro, month = jan}\n"
    "@misc{concat, note = \"a\"\n  # \"b\"}\n"
    "@misc{unbal, note = \"a}b\"}\n"
    "@Misc{dupfield,\r\n  note = \"first {\"quoted\"} part\",\r\n  NOTE = {second}\r\n}\n"
    "@misc{dupfield, note = \"again\"}\n"
    "@misc{good, year = 1984, title = {A {@nested} title}}\n"
    "@misc{eof, note = {never\nclosed\n"
)


class TestGoldenDiagnostics:
    """Exact diagnostics, in order, for one text that triggers each of them."""

    def test_every_diagnostic_with_its_line(self):
        db, diags = parse_bib(GOLDEN_BIB, "g.bib")
        assert [(d.severity, d.message, d.line) for d in diags] == [
            ("error", "expected an entry type after `@'", 2),
            ("warning", "`@string' is not supported; block skipped", 3),
            ("error", "expected `{' after `@misc'", 4),
            ("error", "invalid entry key 'bad{key'", 5),
            ("error", "expected a field name in entry `nofield'", 6),
            ("error", "expected `=' after field `note' in entry `noeq'", 7),
            ("warning", "unquoted value `jan' (macros are not supported); entry `macro' skipped", 8),
            ("warning", "string concatenation with `#' is not supported; entry `concat' skipped", 10),
            ("error", "unbalanced braces in value of `note'; entry `unbal' skipped", 11),
            ("warning", "duplicate field `note' in entry `dupfield'; first value kept", 14),
            ("warning", "duplicate entry key `dupfield'; later entry dropped", 16),
            ("error", "unterminated value of `note'; entry `eof' skipped", 20),
        ]
        assert {d.source for d in diags} == {"g.bib"}
        assert not any(d.fatal for d in diags)
        assert [(e.key, e.entry_type, e.fields) for e in db.entries] == [
            ("dupfield", "misc", {"note": 'first {"quoted"} part'}),
            ("good", "misc", {"year": "1984", "title": "A {@nested} title"}),
        ]

    @pytest.mark.parametrize("text, expected", [
        ("@misc{k, note =", ("error", "missing value for field `note' in entry `k'", 1)),
        ('@misc{k, note = "x",', ("error", "unexpected end of file inside entry `k'", 1)),
        ("@misc{k", ("error", "unexpected end of file inside entry `k'", 1)),
        ("@", ("error", "expected an entry type after `@'", 1)),
        ("@misc", ("error", "expected `{' after `@misc'", 1)),
        ("@string", ("warning", "`@string' is not supported; block skipped", 1)),
        ("@comment{ {x}", ("warning", "`@comment' is not supported; block skipped", 1)),
        ('@misc{k, note = "a {b', ("error", "unterminated value of `note'; entry `k' skipped", 1)),
    ])
    def test_end_of_file_inside_an_entry(self, text, expected):
        db, diags = parse_bib(text)
        assert db.entries == []
        assert [(d.severity, d.message, d.line) for d in diags] == [expected]


class TestLookup:
    def test_hit(self):
        db, _ = parse_bib(SAMPLE_BIB)
        entry = lookup(db, "Ulam-1964")
        assert entry is not None and entry.entry_type == "article"

    def test_case_sensitive_miss(self):
        db, _ = parse_bib(SAMPLE_BIB)
        assert lookup(db, "ulam-1964") is None

    def test_empty_database(self):
        assert lookup(Database(), "x") is None


class TestGetField:
    def test_present(self):
        db, _ = parse_bib(SAMPLE_BIB)
        assert get_field(db.entries[0], "volume") == "39"
        assert get_field(db.entries[1], "publisher") == "Gauthier-Villars"

    def test_missing(self):
        db, _ = parse_bib(SAMPLE_BIB)
        assert get_field(db.entries[0], "number") is None

    def test_name_lowercased(self):
        db, _ = parse_bib(SAMPLE_BIB)
        assert get_field(db.entries[0], "VOLUME") == "39"


def serialize(db: Database) -> str:
    """Independent serializer used only to close the parse round trip."""
    chunks = []
    for entry in db.entries:
        fields = ",\n".join(f"  {n} = {{{v}}}" for n, v in entry.fields.items())
        chunks.append(f"@{entry.entry_type}{{{entry.key},\n{fields}}}\n")
    return "\n".join(chunks)


_key_alphabet = string.ascii_letters + string.digits + "-_:"
_value_text = st.text(alphabet=string.ascii_letters + string.digits + " .-", min_size=1, max_size=30)


@st.composite
def _entries(draw):
    key = draw(st.text(alphabet=_key_alphabet, min_size=1, max_size=12))
    n = draw(st.integers(min_value=0, max_value=4))
    fields = {}
    for i in range(n):
        plain = draw(_value_text)
        braced = draw(st.booleans())
        fields[f"f{i}"] = f"a {{{plain}}} b" if braced else plain
    return key, fields


@given(st.lists(_entries(), min_size=0, max_size=5, unique_by=lambda e: e[0]))
def test_round_trip_stability(entries):
    db = Database()
    for key, fields in entries:
        db.add(Entry(key=key, entry_type="misc", fields={n: normalize_value(v) for n, v in fields.items()}))
    text = serialize(db)
    reparsed, diags = parse_bib(text)
    assert diags == []
    assert [(e.key, e.entry_type, e.fields) for e in reparsed.entries] == [
        (e.key, e.entry_type, e.fields) for e in db.entries
    ]


@given(SCANNER_TEXT)
def test_any_text_parses_with_diagnostics_in_text_order(text):
    db, diags = parse_bib(text)
    assert isinstance(db, Database)
    assert all(isinstance(d, Diagnostic) for d in diags)
    lines = [d.line for d in diags]
    assert lines == sorted(lines)
    assert all(1 <= n <= len(text.splitlines()) + 1 for n in lines)


@given(_value_text)
def test_whitespace_normalization_idempotent(value):
    once = normalize_value(value)
    assert normalize_value(once) == once


def test_missing_iff_not_in_source():
    db, _ = parse_bib(SAMPLE_BIB + EXTRA_BIB_ENTRY)
    declared = ["author", "title", "journal", "year", "volume", "pages", "number",
                "publisher", "address"]
    for entry in db.entries:
        block = _entry_block(SAMPLE_BIB + EXTRA_BIB_ENTRY, entry.key)
        for name in declared:
            appears = re.search(rf"{name}\s*=", block) is not None
            assert (get_field(entry, name) is None) == (not appears)


def _entry_block(text: str, key: str) -> str:
    start = text.index("{" + key + ",")
    end = text.index("@", start) if "@" in text[start:] else len(text)
    return text[start:end]


def test_accepted_values_have_balanced_braces():
    db, _ = parse_bib(SAMPLE_BIB + '@misc{k, note = {a {b {c}} d}}')
    for entry in db.entries:
        for value in entry.fields.values():
            depth = 0
            for ch in value:
                depth += ch == "{"
                depth -= ch == "}"
                assert depth >= 0
            assert depth == 0


# -- two readers: the whole-entry match with lazy fields, the general reader --

_NEVER = re.compile(r"(?!)")


def _parsed(text: str, cited=None):
    db, diags = parse_bib(text, "t.bib", cited)
    return [(e.key, e.entry_type, list(e.fields.items())) for e in db.entries], diags


def _parsed_by_general_reader(text: str, cited=None):
    # an entry pattern that never matches reads every entry field by field
    with mock.patch.object(database, "_ENTRY", _NEVER):
        return _parsed(text, cited)


# the fast path is the default one, with lazy fields
_READERS = {"fast path": _parsed, "general reader": _parsed_by_general_reader}


@pytest.fixture(params=list(_READERS))
def parsed(request):
    return _READERS[request.param]


_MANY_FIELDS = "".join(f", f{i} = {{x}}" for i in range(50000))
_JAN = ("warning", "unquoted value `jan' (macros are not supported); entry `j' skipped", 1)


class TestFieldReaders:
    """Exact results for the edges between the field readers, from each."""

    @pytest.mark.parametrize("text, entries, diags", [
        ("@misc{k, note = {a  b}, year = 1984, title = \"T\"}",
         [("k", "misc", [("note", "a b"), ("year", "1984"), ("title", "T")])], []),
        ("@misc{k, author = {Zo{\\\"e} M{\\\"u}ller and {Corporate and Co}}}",
         [("k", "misc", [("author", "Zo{\\\"e} M{\\\"u}ller and {Corporate and Co}")])], []),
        ("@misc{k, title = {A {B {C}} D}, note = \"a {b} c\"}",
         [("k", "misc", [("title", "A {B {C}} D"), ("note", "a {b} c")])], []),
        ("@misc{k, note = {a} # {b}}\n@misc{j, year = 1}",
         [("j", "misc", [("year", "1")])],
         [("warning", "string concatenation with `#' is not supported; entry `k' skipped", 1)]),
        ("@misc{k, year = 19\n  # 84}",
         [], [("warning", "string concatenation with `#' is not supported; entry `k' skipped", 2)]),
        ("@misc{k,\n  note = {a},\n  NOTE = \"b\"}",
         [("k", "misc", [("note", "a")])],
         [("warning", "duplicate field `note' in entry `k'; first value kept", 3)]),
        ("@misc{k, note = {a}}\n@misc{k, note = {b}}",
         [("k", "misc", [("note", "a")])],
         [("warning", "duplicate entry key `k'; later entry dropped", 2)]),
        ("@misc{k, a#b = {x}}", [("k", "misc", [("a#b", "x")])], []),
        ("@misc{k, year = \u0663, month = 1\u0663 }",
         [("k", "misc", [("year", "\u0663"), ("month", "1\u0663")])], []),
        ("@misc{k, year = 12ab}",
         [("k", "misc", [("year", "12ab")])], []),
        ("@misc{k note = {a} year = 1984 title = \"t\"}",
         [("k", "misc", [("note", "a"), ("year", "1984"), ("title", "t")])], []),
        ("@misc{k, note {a}}", [], [("error", "expected `=' after field `note' in entry `k'", 1)]),
        ("@misc{k,\r\n  note = {a\r\nb},\r\n  note = {c}\r\n}",
         [("k", "misc", [("note", "a b")])],
         [("warning", "duplicate field `note' in entry `k'; first value kept", 4)]),
        ("@string{x = {y}}\n@misc{k, note = {z}}",
         [("k", "misc", [("note", "z")])],
         [("warning", "`@string' is not supported; block skipped", 1)]),
        ("@misc{k, note = {a {b}\n", [],
         [("error", "unterminated value of `note'; entry `k' skipped", 2)]),
        ("@misc{k, note = \"abc\n", [],
         [("error", "unterminated value of `note'; entry `k' skipped", 2)]),
        ("@misc{k, note = \"a, year = 1984}", [],
         [("error", "unbalanced braces in value of `note'; entry `k' skipped", 1)]),
        # a duplicate key is reported at the key, ahead of the entry's own diagnostics
        ("@misc{k, note={a}}\n@misc{k,\n  note={b}\n}\n",
         [("k", "misc", [("note", "a")])],
         [("warning", "duplicate entry key `k'; later entry dropped", 2)]),
        ("@misc{k, note={a}}\n@misc{k,\n  note={b},\n  NOTE={c}\n}\n",
         [("k", "misc", [("note", "a")])],
         [("warning", "duplicate entry key `k'; later entry dropped", 2),
          ("warning", "duplicate field `note' in entry `k'; first value kept", 4)]),
        ("@misc{k, note={a}}\n@misc{k,\n  note={b} # {c}\n}\n",
         [("k", "misc", [("note", "a")])],
         [("warning", "duplicate entry key `k'; later entry dropped", 2),
          ("warning", "string concatenation with `#' is not supported; entry `k' skipped", 3)]),
    ])
    def test_edge(self, parsed, text, entries, diags):
        got_entries, got_diags = parsed(text)
        assert got_entries == entries
        assert [(d.severity, d.message, d.line) for d in got_diags] == diags

    @pytest.mark.parametrize("text, entries, diags", [
        # many groups, then a `{' that never closes
        ("@misc{k, note = {" + "ab {a} " * 30000 + "{", [],
         [("error", "unterminated value of `note'; entry `k' skipped", 1)]),
        ("@misc{k, note = \"" + "ab " * 70000, [],
         [("error", "unterminated value of `note'; entry `k' skipped", 1)]),
        ("@misc{k, note = " + "{" * 100000 + "}" * 100000 + "}",
         [("k", "misc", [("note", "{" * 99999 + "}" * 99999)])], []),
        # the whole entry is read, rejected at its end and read again
        ("@misc{k" + _MANY_FIELDS, [],
         [("error", "unexpected end of file inside entry `k'", 1)]),
        ("@misc{k" + _MANY_FIELDS + ", F0 = {y}}",
         [("k", "misc", [(f"f{i}", "x") for i in range(50000)])],
         [("warning", "duplicate field `f0' in entry `k'; first value kept", 1)]),
        # after an early error, each `@' inside the values starts an entry
        ("@misc{j, x = jan, " + ", ".join(f'v{i} = "@a{{k{i}, f = {{x}}}}"' for i in range(20000)) + "}",
         [(f"k{i}", "a", [("f", "x")]) for i in range(20000)], [_JAN]),
        ("@misc{j, x = jan, note = {" + "@a{k, " * 30000, [],
         [_JAN] + [("error", "expected `=' after field `@a' in entry `k'", 1)] * 15000),
    ], ids=["unclosed-group", "unterminated-quote", "deep-nesting", "unclosed-entry",
            "duplicate-last-field", "entries-in-values", "entry-heads-in-values"])
    def test_long_values_read_in_one_pass(self, parsed, text, entries, diags):
        # a field or entry pattern that backtracks would not finish on these
        got_entries, got_diags = parsed(text)
        assert got_entries == entries
        assert [(d.severity, d.message, d.line) for d in got_diags] == diags


@given(BIB_TEXT)
def test_field_readers_agree(text):
    assert _parsed(text) == _parsed_by_general_reader(text)


def test_repeated_fields_are_looked_for_only_in_cited_entries():
    text = "".join(f"@misc{{k{i}, note = {{a}}, year = {i}}}\n" for i in range(50))
    for cited, calls in (({"k3", "k17", "k49"}, 3), (None, 50)):
        with mock.patch.object(database, "_read_fields", wraps=database._read_fields) as repeats:
            db, diags = parse_bib(text, cited=cited)
        assert (len(db.entries), diags, repeats.call_count) == (50, [], calls)


# -- metamorphic relations ----------------------------------------------------

@settings(max_examples=50)
@given(BIB_TEXT)
def test_crlf_line_ends_change_nothing(text):
    # entries and every diagnostic, its line included, for LF, CR and CRLF
    lf = text.replace("\r", "")
    expected = _parsed(lf)
    for eol in ("\r", "\r\n"):
        assert _parsed(lf.replace("\n", eol)) == expected


_good_field = st.tuples(st.sampled_from(["note", "Title", "year", "a#b"]),
                        st.sampled_from(BIB_GOOD_VALUES)).map(lambda f: f"{f[0]} = {f[1]}")


@st.composite
def _good_entries(draw, exclude=()):
    """Well-formed entry texts with distinct keys not in exclude."""
    keys = draw(st.lists(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=4)
                         .filter(lambda k: k not in exclude), max_size=6, unique=True))
    return [
        "@{}{{{},\n  {}}}\n".format(
            draw(st.sampled_from(["misc", "Article", "book"])), key,
            ",\n  ".join(draw(st.lists(_good_field, max_size=4))))
        for key in keys
    ]


@settings(max_examples=50)
@given(st.data())
def test_entry_order_changes_no_entry(data):
    entries = data.draw(_good_entries())
    shuffled = data.draw(st.permutations(entries))
    (before, before_diags), (after, after_diags) = _parsed("".join(entries)), _parsed("".join(shuffled))
    assert sorted(after) == sorted(before)
    assert sorted((d.severity, d.message) for d in after_diags) == \
        sorted((d.severity, d.message) for d in before_diags)


_DUPLICATE_FIELD = re.compile(r"duplicate field `\S*' in entry `(\S*)'; first value kept")


@given(st.data())
def test_field_readers_agree_under_any_cited(data):
    # well-formed entries, which often repeat a field, among any .bib text
    text = "".join(data.draw(st.permutations([data.draw(BIB_TEXT), *data.draw(_good_entries())])))
    cited = data.draw(cited_keys(text))
    # a cited entry's fields are built at parse time, an uncited one's on first read
    db, _ = parse_bib(text, "t.bib", cited)
    assert not [e.key for e in db.entries if hasattr(e, "_source") and (cited is None or e.key in cited)]
    entries, diags = _parsed(text, cited)
    assert (entries, diags) == _parsed_by_general_reader(text, cited)
    # cited changes no field, and drops exactly the repeated-field warnings of uncited keys
    all_entries, all_diags = _parsed(text)
    assert entries == all_entries
    assert diags == [d for d in all_diags if cited is None
                     or (m := _DUPLICATE_FIELD.fullmatch(d.message)) is None or m[1] in cited]


_CITING_AUX = ("\\citation{YangYu}\n\\citation{Poincare}\n\\citation{absent}\n"
               "\\citation{Ulam-1964}\n\\bibstyle{s}\n\\bibdata{my}\n")
_SORTING_BST = with_sort_fragment(GUARDED_NUMBER_BST, LASTNAME_SORT_FRAGMENT)


@settings(max_examples=25)
@given(st.data())
def test_uncited_entries_change_no_output(data):
    program, _ = parse_bst(_SORTING_BST)
    aux = parse_aux(_CITING_AUX)
    pieces = [SAMPLE_BIB, EXTRA_BIB_ENTRY]
    extra = data.draw(_good_entries(exclude={"absent"}))
    for entry in extra:
        pieces.insert(data.draw(st.integers(0, len(pieces))), entry)
    doc, log = run(program, aux, [parse_bib(SAMPLE_BIB + EXTRA_BIB_ENTRY)[0]])
    grown_doc, grown_log = run(program, aux, [parse_bib("".join(pieces))[0]])
    assert grown_doc.finalize() == doc.finalize()
    assert grown_log.records == log.records


_SPLIT_BST = with_sort_fragment(GUARDED_NUMBER_BST, AUTHOR_SORT_FRAGMENT)
_SAMPLE_KEYS = ["Ulam-1964", "Poincare", "YangYu"]


@settings(max_examples=25)
@given(st.data())
def test_splitting_the_bib_changes_no_output(data):
    """Valid entries with distinct keys give the same .bbl and .blg from one database or two."""
    program, _ = parse_bst(_SPLIT_BST)
    pieces = [SAMPLE_BIB, EXTRA_BIB_ENTRY]
    extra = data.draw(_good_entries(exclude={"absent"}))
    for entry in extra:
        pieces.insert(data.draw(st.integers(0, len(pieces))), entry)
    keys = _SAMPLE_KEYS + ["absent"] + [re.match(r"@\w+\{([^,]*),", e)[1] for e in extra]
    aux = parse_aux("".join(f"\\citation{{{k}}}\n" for k in data.draw(st.permutations(keys))))
    cut = data.draw(st.integers(0, len(pieces)))
    doc, log = run(program, aux, [parse_bib("".join(pieces))[0]])
    split_doc, split_log = run(program, aux, [parse_bib("".join(pieces[:cut]))[0],
                                              parse_bib("".join(pieces[cut:]))[0]])
    assert split_doc.finalize() == doc.finalize()
    assert split_log.records == log.records
