"""The package's records: plain slotted classes with value equality, no
hash, a field-by-field repr and fresh mutable defaults; and guards that
importing the CLI loads no record-building machinery and no argparse, and
compiles no pattern."""

import copy
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bibstack.auxfile import AuxFile
from bibstack.bstparse import BstCommand, BstProgram, Token
from bibstack.database import Database, Entry, parse_bib
from bibstack.diagnostics import ERROR, WARNING, Diagnostic
from bibstack.emitter import BlgLog
from bibstack.latexpass import CiteSpan, PassResult, TexScan
from bibstack.vm import FnRef, MissingField, RuntimeEntry

ROOT = Path(__file__).resolve().parents[1]

# every record with a value for each of its fields, in field order
RECORDS = [
    (Diagnostic, (WARNING, "m", 2, "a.bib", True)),
    (Token, ("id", "f", 3)),
    (BstCommand, ("execute", "f", 4)),
    (BstProgram, ([BstCommand("read")], {"f": [Token("int", 1)]}, "s.bst")),
    (Entry, ("k", "book", {"title": "T"})),
    (Database, ({"k": Entry("k", "book")},)),
    (AuxFile, (["k"], "plain", ["refs"], {"k": "1"}, ["\\relax"])),
    (BlgLog, ([(WARNING, "w")],)),
    (MissingField, ("title", "k")),
    (FnRef, ("f", [Token("id", "g")])),
    (RuntimeEntry, ("k", "book", {"title": "T"}, {"n": 1}, {"s": "x"})),
    (CiteSpan, (0, 8, ["k"], 1)),
    (TexScan, (["k"], "plain", ["refs"], ["j"], "\\cite{k}", [CiteSpan(0, 8, ["k"], 1)])),
    (PassResult, ("[1]", AuxFile(citations=["k"]), ["w"], False, 1)),
]
_IDS = [cls.__name__ for cls, _ in RECORDS]


def _fields(cls) -> list[str]:
    """A record's fields: its slots, less the private `_' ones."""
    return [name for name in cls.__slots__ if not name.startswith("_")]


# each defaulted container field, from a record built with its defaults
DEFAULT_CONTAINERS = [
    (AuxFile, "citations", []), (AuxFile, "data", []), (AuxFile, "bibcites", {}),
    (AuxFile, "raw_lines", []),
    (BstProgram, "commands", []), (BstProgram, "functions", {}),
    (lambda: Entry("k", "book"), "fields", {}),
    (Database, "by_key", {}),
    (BlgLog, "records", []),
    (lambda: RuntimeEntry("k", "book", {}), "ints", {}),
    (lambda: RuntimeEntry("k", "book", {}), "strs", {}),
    (TexScan, "cites", []), (TexScan, "data", []), (TexScan, "inline_bib", []),
    (TexScan, "cite_spans", []),
]


@pytest.mark.parametrize("cls, args", RECORDS, ids=_IDS)
class TestContract:
    def test_fields_are_the_slots_in_order(self, cls, args):
        record = cls(*args)
        assert [getattr(record, name) for name in _fields(cls)] == list(args)
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.unknown = 1

    def test_keywords_build_the_same_record(self, cls, args):
        assert cls(**dict(zip(_fields(cls), args))) == cls(*args)

    def test_equal_by_every_field(self, cls, args):
        assert cls(*args) == cls(*copy.deepcopy(args))
        for index in range(len(args)):
            changed = args[:index] + (object(),) + args[index + 1:]
            assert cls(*args) != cls(*changed), _fields(cls)[index]

    def test_not_equal_to_a_tuple_of_its_fields(self, cls, args):
        assert cls(*args) != args

    def test_unhashable(self, cls, args):
        with pytest.raises(TypeError):
            hash(cls(*args))

    def test_repr_names_the_class_and_each_field(self, cls, args):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(_fields(cls), args))
        assert repr(cls(*args)) == f"{cls.__name__}({fields})"


def test_records_of_two_types_with_equal_fields_differ():
    assert Token("id", "f", 3) != BstCommand("id", "f", 3)
    assert BstCommand("id", "f", 3) != Token("id", "f", 3)


def test_repr_of_nested_records():
    assert repr(Database({"k": Entry("k", "book")})) == (
        "Database(by_key={'k': Entry(key='k', entry_type='book', fields={})})")


@pytest.mark.parametrize("make, name, empty", DEFAULT_CONTAINERS,
                         ids=[f"{type(make()).__name__}.{name}" for make, name, _ in DEFAULT_CONTAINERS])
def test_mutable_defaults_are_fresh_per_record(make, name, empty):
    first, second = getattr(make(), name), getattr(make(), name)
    assert first == second == empty
    assert first is not second


@pytest.mark.parametrize("first", ["fields", "eq", "repr"])
def test_a_parsed_entry_is_the_record_of_its_fields_before_and_after_they_are_read(first):
    expected = Entry("k", "book", {"title": "A {B {C}}", "year": "1984", "note": "x {y}"})
    entry = parse_bib('@Book{k, title = {A  {B {C}}}, year = 1984, note = "x {y}"}', cited=set())[0].by_key["k"]
    assert entry._source, "fields are built at parse time"
    if first == "fields":
        assert entry.fields == expected.fields
    elif first == "repr":
        assert repr(entry) == repr(expected)
    assert entry == expected and expected == entry
    assert repr(entry) == repr(expected)
    assert entry != Entry("k", "book", {"title": "A {B {C}}"})
    assert not hasattr(entry, "_source")


def test_reading_parsed_fields_twice_gives_the_same_dict():
    entry = parse_bib("@misc{k, note = {x}}")[0].by_key["k"]
    assert entry.fields is entry.fields
    with pytest.raises(AttributeError):
        entry.unknown


def test_a_given_container_is_kept_not_copied():
    citations, fields = [], {}
    assert AuxFile(citations=citations).citations is citations
    assert Entry("k", "book", fields).fields is fields


def test_construction_as_the_call_sites_use_it():
    assert BstCommand("sort", line=3) == BstCommand("sort", None, 3)
    assert Token("int", 7) == Token("int", 7, 0)
    assert Entry(key="k", entry_type="book") == Entry("k", "book", {})
    assert FnRef(name="f") == FnRef("f", None)
    assert FnRef(body=[Token("id", "g")]) == FnRef(None, [Token("id", "g")])
    assert Diagnostic(ERROR, "m", line=2, source="a.bst", fatal=True) == Diagnostic(
        ERROR, "m", 2, "a.bst", True)
    assert Diagnostic(WARNING, "m") == Diagnostic(WARNING, "m", 0, "", False)
    assert BstProgram(source="s.bst") == BstProgram([], {}, "s.bst")
    assert TexScan(text="t") == TexScan([], None, [], [], "t", [])
    assert AuxFile(citations=["k"], style="plain", data=["refs"], bibcites={"k": "1"}) == AuxFile(
        ["k"], "plain", ["refs"], {"k": "1"}, [])


def _modules_loaded_by(code: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", f"{code}\nimport sys\nprint(' '.join(sys.modules))"],
                          env=env, capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # measured against a bare interpreter, so that a site hook loading them does not count
    added = _modules_loaded_by("import bibstack.cli") - _modules_loaded_by("pass")
    assert "bibstack.cli" in added
    assert not {"dataclasses", "inspect"} & added


def test_importing_the_cli_loads_no_argparse_and_compiles_no_pattern():
    added = _modules_loaded_by("import bibstack.cli") - _modules_loaded_by("pass")
    assert not {"argparse", "gettext", "locale"} & added
    # a module's patterns are sources, compiled by the functions that use them
    compiled = [f"{name}.{attr}" for name in sorted(added) if name.startswith("bibstack")
                for attr, value in vars(importlib.import_module(name)).items()
                if isinstance(value, re.Pattern)]
    assert compiled == []


def test_the_cli_and_lint_load_no_compiler():
    # the compiled tier is imported by the first body that compiles
    assert "bibstack.vmcompile" not in _modules_loaded_by(
        "import bibstack.cli\nfrom bibstack import bstparse, lint\n"
        "lint.lint_program(bstparse.parse_bst('FUNCTION {f} { #1 #2 + } EXECUTE {f}')[0])")
    assert "bibstack.vmcompile" in _modules_loaded_by(
        "from bibstack import auxfile, bstparse, vm\n"
        "vm.run(bstparse.parse_bst('FUNCTION {f} { skip$ } FUNCTION {g} { "
        + "f " * 100 + "} EXECUTE {g}')[0], auxfile.AuxFile(), [])")
