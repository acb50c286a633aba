"""Smoke test of tools/parentdiff.py on a small budget."""

import dataclasses
import re
import shutil
from pathlib import Path
from unittest import mock

import pytest

import bibstack
from bibstack import bstparse, database
from bibstack.diagnostics import ERROR
from fixtures import STYLE_WHILE_LIMIT, VM_INPUTS

ROOT = Path(__file__).resolve().parents[1]
_ARGS = ["--budget", "8"]
# appended to a copy's names.py: format_name drops the last character of
# every result; the VM calls it through the names module, so it takes effect
_MUTATION = """

_format_name = format_name


def format_name(name, template, parts=None):
    return _format_name(name, template, parts)[:-1]
"""
# appended to a copy's vmcompile.py: the compiled - adds
_COMPILER_MUTATION = """

_OPS[_vm._bi_sub] = _OPS[_vm._bi_add]
"""
# appended to a copy's vmcompile.py: a compiled bound if$ runs the other branch
_BRANCH_MUTATION = """

def _swapped_if(gen, operand):
    then_op, else_op, at = operand
    _Gen.bound_if(gen, (else_op, then_op, at))


_OPS[_vm._if] = _swapped_if
"""

# appended to a copy's vmcompile.py: a loop compiled in place runs its body once more at its end
_LOOP_MUTATION = """

def _one_more_run(gen, operand):
    _Gen.bound_while(gen, operand)
    gen.ref(operand[1])


_OPS[_vm._while] = _one_more_run
"""


@pytest.fixture
def parentdiff(monkeypatch):
    for path in ("tools", "tests", "perfbench"):
        monkeypatch.syspath_prepend(str(ROOT / path))
    import parentdiff

    monkeypatch.setattr(parentdiff, "CORPUS_SCALE", 0.01)
    return parentdiff


def _copy_of_tree(path: Path) -> Path:
    return shutil.copytree(ROOT / "src" / "bibstack", path, ignore=shutil.ignore_patterns("__pycache__"))


def _differences(report: str) -> dict[str, int]:
    return {m[1]: int(m[2]) for m in re.finditer(r"^(\S+) +\d+ inputs +(\d+) differences$", report, re.M)}


def test_finds_no_difference_in_a_copy_and_finds_a_planted_mutation(parentdiff, tmp_path, capsys):
    assert parentdiff.main([str(_copy_of_tree(tmp_path / "copy")), *_ARGS]) == 0
    same = _differences(capsys.readouterr().out)

    names = _copy_of_tree(tmp_path / "mutant") / "names.py"
    names.write_text(names.read_text(encoding="utf-8") + _MUTATION, encoding="utf-8")
    assert parentdiff.main([str(names.parent), *_ARGS]) == 1
    mutant = _differences(capsys.readouterr().out)

    assert {"names.format_name", "parse_bib", "parse_bst", "lint", "parse_aux", "scan_tex", "vm",
            "vm.compiled", "tiers", "cli.sort-names.pipeline", "cli.cite-dense.lint", "parse_bib.big-bib",
            "parse_bib.big-bib.cited"} <= set(same)
    assert set(same.values()) == {0}
    # the sort-names style formats every name
    assert mutant["cli.sort-names.pipeline"] > 0 and mutant["cli.sort-names.bibtex"] > 0
    assert mutant["parse_bib"] == mutant["lint"] == 0
    # the mutation ran and changed only the output: a mutant that crashed would
    # change the exit code and stderr too
    planted = parentdiff.load(str(names.parent), tmp_path / "load")
    tree_run = _pipeline(parentdiff, bibstack, tmp_path / "tree-run")
    mutant_run = _pipeline(parentdiff, planted, tmp_path / "mutant-run")
    assert mutant_run[:2] == tree_run[:2]
    assert mutant_run[2] != tree_run[2]


def _pipeline(parentdiff, pkg, workdir: Path) -> tuple:
    """Exit code, stderr and .bbl of a `pipeline` run of pkg on a small sort-names corpus."""
    import corpus

    workdir.mkdir()
    for name, text in corpus.build("sort-names", 1, 0.01).files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    code, _out, err, files = parentdiff.cli_run(pkg, workdir, ["pipeline", corpus.BASE])
    return code, err, files.get(f"{corpus.BASE}.bbl")


def _small_sort_names() -> tuple:
    """The style, .bib texts and .aux of a small sort-names corpus, as vm_run takes them."""
    import corpus

    built = corpus.build("sort-names", 1, 0.01)
    return built.files[f"{built.style}.bst"], [built.files[f"{corpus.BIB}.bib"]], built.aux


def _assert_the_compiled_mutant_ran(parentdiff, compiler: Path, workdir: Path) -> None:
    """The planted package runs a small sort-names corpus with every body compiled, to
    an outcome that differs from the tree's: a mutant that crashed raises here, since
    an internal error escapes Vm.execute."""
    inputs = _small_sort_names()
    planted = parentdiff.load(str(compiler.parent), workdir)
    mutant, tree = (parentdiff.plain(parentdiff.vm_run_compiled(pkg, *inputs)) for pkg in (planted, bibstack))
    assert mutant != tree


def test_finds_a_planted_mutation_of_the_compiled_tier(parentdiff, tmp_path, capsys):
    compiler = _copy_of_tree(tmp_path / "mutant") / "vmcompile.py"
    compiler.write_text(compiler.read_text(encoding="utf-8") + _COMPILER_MUTATION, encoding="utf-8")
    assert parentdiff.main([str(compiler.parent), *_ARGS]) == 1
    mutant = _differences(capsys.readouterr().out)
    # the mutation runs only in compiled bodies, which vm.compiled compiles at their first entry;
    # the sort-names style counts down with - in its name loops, and a generated style writes
    # what the result of - chooses
    assert mutant["vm.compiled.sort-names"] > 0 and mutant["vm.compiled"] > 0
    assert mutant["vm"] == mutant["parse_bst"] == 0
    _assert_the_compiled_mutant_ran(parentdiff, compiler, tmp_path / "load")


def test_the_tiers_check_finds_a_planted_mutation_of_the_compiled_tier(parentdiff, tmp_path):
    # the tiers check runs one package's tiers against each other, so it needs no parent
    compiler = _copy_of_tree(tmp_path / "mutant") / "vmcompile.py"
    compiler.write_text(compiler.read_text(encoding="utf-8") + _COMPILER_MUTATION, encoding="utf-8")
    inputs = _small_sort_names()
    planted = parentdiff.load(str(compiler.parent), tmp_path / "load")
    mutant = parentdiff.vm_tiers(planted, *inputs)
    assert mutant["compiled"] != mutant["generic"] and mutant["compiled after 2"] != mutant["generic"]
    tree = parentdiff.vm_tiers(bibstack, *inputs)
    assert tree["compiled"] == tree["compiled after 2"] == tree["generic"] == mutant["generic"]


def test_most_generated_vm_inputs_write_what_ops_make_of_entries_and_many_fail(parentdiff):
    runs = []  # (read an entry and wrote a .bbl, ended in an error record), per input

    def run(given):
        with mock.patch.object(bibstack.vm, "WHILE_LIMIT", STYLE_WHILE_LIMIT):
            bbl, records, *_, entries = parentdiff.vm_run(bibstack, *given)
        runs.append((bool(entries) and bbl != "", bool(records) and records[-1][0] == ERROR))

    # the inputs of the vm and vm.compiled checks at --budget 300
    parentdiff.each_input(VM_INPUTS, 300, run)
    assert len(runs) == 300
    assert sum(wrote for wrote, _ in runs) >= 200
    assert sum(failed for _, failed in runs) >= 100


def test_some_generated_vm_inputs_tokenize_a_braced_list_on_the_fast_path(parentdiff, monkeypatch):
    # a list holding a brace takes the fast path when the findall reads each of its groups
    paths = []
    tokenize, token = bibstack.names.tokenize, re.compile(bibstack.names._TOKEN)

    def counted(name_list):
        if "{" in name_list:
            paths.append("exact" if "{" in token.findall(name_list) else "fast")
        return tokenize(name_list)

    monkeypatch.setattr(bibstack.names, "tokenize", counted)

    def run(given):
        with mock.patch.object(bibstack.vm, "WHILE_LIMIT", STYLE_WHILE_LIMIT):
            parentdiff.vm_run(bibstack, *given)

    # the inputs of the vm check at --budget 300; measured: 13 fast, 43 exact
    parentdiff.each_input(VM_INPUTS, 300, run)
    assert paths.count("fast") >= 6 and paths.count("exact") >= 20


def test_finds_a_planted_branch_swap_in_the_compiled_tier(parentdiff, tmp_path, capsys):
    compiler = _copy_of_tree(tmp_path / "mutant") / "vmcompile.py"
    compiler.write_text(compiler.read_text(encoding="utf-8") + _BRANCH_MUTATION, encoding="utf-8")
    assert parentdiff.main([str(compiler.parent), *_ARGS]) == 1
    mutant = _differences(capsys.readouterr().out)
    # generated styles write what a bound if$ chooses
    assert mutant["vm.compiled"] > 0
    assert mutant["vm"] == mutant["parse_bst"] == 0
    _assert_the_compiled_mutant_ran(parentdiff, compiler, tmp_path / "load")


def test_finds_a_planted_mutation_of_a_loop_compiled_in_place(parentdiff, tmp_path, capsys):
    compiler = _copy_of_tree(tmp_path / "mutant") / "vmcompile.py"
    compiler.write_text(compiler.read_text(encoding="utf-8") + _LOOP_MUTATION, encoding="utf-8")
    assert parentdiff.main([str(compiler.parent), *_ARGS]) == 1
    mutant = _differences(capsys.readouterr().out)
    # the sort-names style formats its names in while$ loops, and generated styles
    # write what a loop's body makes
    assert mutant["vm.compiled.sort-names"] > 0 and mutant["vm.compiled"] > 0
    assert mutant["vm"] == mutant["parse_bst"] == 0
    _assert_the_compiled_mutant_ran(parentdiff, compiler, tmp_path / "load")


def test_many_generated_vm_inputs_run_blocks_and_loops_compiled_in_place(parentdiff, monkeypatch):
    # the compiled tier, instrumented: the generated code says "block" as it enters a
    # block compiled in place, "loop" as it starts a loop, "fallback" as a check in
    # a block fails, and "body fallback" as a check at a body's own level fails
    from bibstack import vmcompile

    seen, runs = set(), []
    back, block, loop = vmcompile._Gen.back, vmcompile._Gen.block, vmcompile._OPS[bibstack.vm._while]

    def said_back(gen):
        statement = back(gen)
        return f"seen({'fallback' if gen.blocks else 'body fallback'!r}); {statement}"

    def said(word, compile_op):
        def compile_said(gen, *operands):
            gen.emit(f"seen({word!r})")
            compile_op(gen, *operands)
        return compile_said

    monkeypatch.setattr(vmcompile._Gen, "back", said_back)
    monkeypatch.setattr(vmcompile._Gen, "block", said("block", block))
    monkeypatch.setitem(vmcompile._OPS, bibstack.vm._while, said("loop", loop))
    monkeypatch.setitem(vmcompile._NAMESPACE, "seen", seen.add)

    def run(given):
        seen.clear()
        with mock.patch.object(bibstack.vm, "WHILE_LIMIT", STYLE_WHILE_LIMIT):
            depth = parentdiff.vm_run_compiled(bibstack, *given)[3]
        runs.append((set(seen), depth))

    # the inputs of the vm.compiled check at --budget 300
    parentdiff.each_input(VM_INPUTS, 300, run)
    assert len(runs) == 300
    assert sum("block" in words for words, _ in runs) >= 200
    assert sum("loop" in words for words, _ in runs) >= 120
    assert sum("fallback" in words for words, _ in runs) >= 20
    assert sum("body fallback" in words for words, _ in runs) >= 60
    # every run ends at depth 0, errors in blocks compiled in place among them
    assert {depth for _, depth in runs} == {0}


# database.Entry and bstparse.Token as dataclasses, as an older package has them
@dataclasses.dataclass
class Entry:
    key: str
    entry_type: str
    fields: dict


@dataclasses.dataclass
class Token:
    kind: str
    value: object
    line: int = 0


def test_plain_reads_a_slotted_record_as_a_dataclass_of_the_same_name_and_fields(parentdiff):
    plain = parentdiff.plain
    slotted = database.Entry("k", "book", {"title": "T"})
    assert plain(slotted) == plain(Entry("k", "book", {"title": "T"}))
    assert plain(slotted) == ("Entry", "k", "book", [("title", "T")])
    # a parsed entry, whose fields are built when plain reads them
    assert plain(database.parse_bib("@book{k, title = {T}}")[0].by_key["k"]) == plain(slotted)
    for changed in (Entry("j", "book", {"title": "T"}), Entry("k", "misc", {"title": "T"}),
                    Entry("k", "book", {"title": "U"})):
        assert plain(slotted) != plain(changed)
    # records inside records
    block = bstparse.Token("block", [bstparse.Token("id", "f", 2)], 1)
    assert plain(block) == plain(Token("block", [Token("id", "f", 2)], 1))
    assert plain(block) != plain(Token("block", [Token("id", "g", 2)], 1))

