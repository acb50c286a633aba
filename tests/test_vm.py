"""Tests for the stack-machine interpreter and its builtins."""

import sys
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bibstack.vm as vm_module
from bibstack import names
from bibstack.auxfile import AuxFile, parse_aux
from bibstack.bstparse import BstProgram, Token, format_program, parse_bst
from bibstack.cli import main
from bibstack.database import Database, Entry, parse_bib
from bibstack.diagnostics import ERROR, WARNING
from bibstack.vm import (
    BUILTINS,
    CALL_DEPTH_LIMIT,
    FnRef,
    MissingField,
    RuntimeEntry,
    Vm,
    VmError,
    declare,
    run,
)
from bibstack.vmcompile import INLINE_DEPTH, compile_body

from fixtures import (
    AUTHOR_SORT_FRAGMENT,
    BIBTEX_AUX,
    EXTRA_BIB_ENTRY,
    EXPECTED_BBL,
    GUARDED_NUMBER_BST,
    HELLO_BST,
    NAME_TEXT,
    SAMPLE_BIB,
    STYLE_TEXT,
    STYLE_WHILE_LIMIT,
    TEMPLATE_TEXT,
    VM_INPUTS,
    bibitem_keys,
    with_sort_fragment,
    write_files,
)

MISSING_NUMBER_WARNING = "`number' is a missing field, not a string, for entry Ulam-1964"
NEVER = float("inf")  # a COMPILE_AFTER under which no body compiles


class Tiered:
    """Runs its tests with no body compiled. Each subclass TestX gets a twin,
    TestXCompiled, made here, that runs them again with every body compiled
    at its first entry."""

    compile_after = NEVER

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.compile_after == NEVER:
            name = cls.__name__ + "Compiled"
            globals()[name] = type(name, (cls,), {"compile_after": 0, "__module__": cls.__module__})

    @pytest.fixture(autouse=True)
    def _tier(self, monkeypatch):
        monkeypatch.setattr(vm_module, "COMPILE_AFTER", self.compile_after)


def make_vm(bst: str = "", bibs: tuple = ()) -> Vm:
    program, diags = parse_bst(bst)
    assert not [d for d in diags if d.severity == "error"], diags
    databases = []
    for text in bibs:
        db, bib_diags = parse_bib(text)
        assert bib_diags == []
        databases.append(db)
    return Vm(program, databases)


def run_texts(bst: str, aux_text: str, *bibs: str):
    program, diags = parse_bst(bst)
    assert not [d for d in diags if d.severity == "error"], diags
    databases = [parse_bib(b)[0] for b in bibs]
    return run(program, parse_aux(aux_text), databases)


def run_body(source: str, *below) -> Vm:
    """The Vm after FUNCTION {f} { source } ran on the values below, with the
    entry `k', which has an author and no title, as the current entry."""
    vm = _run_untitled(f"ENTRY {{author title}}{{}}{{}}\nREAD\nFUNCTION {{f}} {{ {source} }}\n")
    vm.current = vm.entries[0]
    vm.stack.extend(below)
    vm.exec_tokens(vm.program.functions["f"])
    return vm


class TestRun(Tiered):
    def test_golden_output(self):
        doc, log = run_texts(HELLO_BST, BIBTEX_AUX, SAMPLE_BIB)
        assert doc.finalize() == EXPECTED_BBL
        assert log.records == []

    def test_sorted_by_raw_author(self):
        style = with_sort_fragment(HELLO_BST, AUTHOR_SORT_FRAGMENT)
        doc, log = run_texts(style, BIBTEX_AUX, SAMPLE_BIB)
        # independent check: compare the two author strings directly
        db, _ = parse_bib(SAMPLE_BIB)
        authors = {e.key: e.fields["author"] for e in db.entries}
        assert authors["Poincare"] < authors["Ulam-1964"]
        assert bibitem_keys(doc.finalize()) == ["Poincare", "Ulam-1964"]
        assert log.errors() == []

    def test_nonempty_stack_is_an_error(self):
        doc, log = run_texts(
            "ENTRY {author}{}{}\nREAD\nFUNCTION {main} { #1 #2 + }\nEXECUTE {main}\n",
            BIBTEX_AUX,
            SAMPLE_BIB,
        )
        assert any("stack not empty at end" in e for e in log.errors())
        assert any("3" in e for e in log.errors())

    def test_unresolved_citation_warns_and_skips(self):
        aux = "\\relax\n\\citation{Ghost}\n\\citation{Ulam-1964}\n\\bibstyle{s}\n\\bibdata{my}\n"
        doc, log = run_texts(HELLO_BST, aux, SAMPLE_BIB)
        assert "no database entry for citation `Ghost'" in log.warnings()
        assert bibitem_keys(doc.finalize()) == ["Ulam-1964"]

    def test_databases_searched_in_order_first_hit_wins(self):
        first = '@article{K, author = "From First"}'
        second = '@article{K, author = "From Second"}'
        aux = "\\relax\n\\citation{K}\n\\bibstyle{s}\n\\bibdata{a,b}\n"
        doc, _ = run_texts(HELLO_BST, aux, first, second)
        assert "From First" in doc.finalize()

    def test_duplicate_citations_emitted_once(self):
        doc, _ = run_texts(HELLO_BST, BIBTEX_AUX, SAMPLE_BIB)
        assert bibitem_keys(doc.finalize()) == ["Ulam-1964", "Poincare"]

    def test_a_second_read_reads_no_entry_again(self):
        program, diags = parse_bst(HELLO_BST.replace("READ\n", "READ\nREAD\n"))
        assert [d.message for d in diags] == ["duplicate READ command"]
        doc, _ = run(program, parse_aux(BIBTEX_AUX), [parse_bib(SAMPLE_BIB)[0]])
        assert doc.finalize() == EXPECTED_BBL  # one item per cited entry

    def test_determinism(self):
        one = run_texts(HELLO_BST, BIBTEX_AUX, SAMPLE_BIB)
        two = run_texts(HELLO_BST, BIBTEX_AUX, SAMPLE_BIB)
        assert one[0].finalize() == two[0].finalize()
        assert one[1].records == two[1].records


class TestExecToken:
    def test_field_pushes_normalized_value(self):
        vm = make_vm("ENTRY {author}{}{}\nREAD\n", bibs=(SAMPLE_BIB,))
        vm.execute(parse_aux(BIBTEX_AUX))
        vm.current = vm.entries[0]
        vm.exec_ident("author", 0)
        assert vm.stack == ["Stein P. R. and Ulam S. M."]

    def test_quoted_identifier_pushes_reference(self):
        vm = make_vm()
        program, _ = parse_bst("FUNCTION {f} { 'sort.key$ }")
        vm.program = program
        vm.exec_tokens(program.functions["f"])
        assert vm.stack == [FnRef(name="sort.key$")]

    def test_int_literal(self):
        program, _ = parse_bst("FUNCTION {f} { #39 }")
        vm = make_vm()
        vm.exec_tokens(program.functions["f"])
        assert vm.stack == [39]

    def test_unknown_identifier(self):
        vm = make_vm()
        with pytest.raises(VmError, match="unknown identifier `nothing'"):
            vm.exec_ident("nothing", 3)

    def test_unsupported_builtin(self):
        vm = make_vm()
        with pytest.raises(VmError, match="unsupported builtin `substring\\$'"):
            vm.exec_ident("substring$", 1)

    def test_field_read_outside_iterate(self):
        vm = make_vm("ENTRY {author}{}{}\n")
        vm.execute(AuxFile())
        with pytest.raises(VmError):
            vm.exec_ident("author", 0)

    def test_reading_absent_field_warns_and_pushes_missing(self):
        vm = make_vm("ENTRY {author number}{}{}\nREAD\n", bibs=(SAMPLE_BIB,))
        vm.execute(parse_aux(BIBTEX_AUX))
        vm.current = vm.entries[0]
        vm.exec_ident("number", 0)
        assert vm.stack == [MissingField("number", "Ulam-1964")]
        assert vm.log.warnings() == [MISSING_NUMBER_WARNING]


class TestWrite:
    def test_string_appended(self):
        vm = make_vm()
        vm.stack.append("\\bibitem{")
        vm.exec_ident("write$", 0)
        assert vm.doc.pending == "\\bibitem{"

    def test_missing_warns_and_appends_nothing(self):
        vm = make_vm()
        vm.stack.append(MissingField("number", "Ulam-1964"))
        vm.exec_ident("write$", 0)
        assert vm.doc.pending == ""
        assert vm.log.warnings() == [MISSING_NUMBER_WARNING]

    def test_integer_is_type_error(self):
        vm = make_vm()
        vm.stack.append(1)
        with pytest.raises(VmError, match="write\\$"):
            vm.exec_ident("write$", 7)


class TestNewline:
    def test_flushes_buffer(self):
        vm = make_vm()
        vm.doc.append("abc")
        vm.exec_ident("newline$", 0)
        assert vm.doc.lines == ["abc"]

    def test_begin_block_emits_header_and_blank_line(self):
        program, _ = parse_bst(HELLO_BST)
        vm = Vm(program, [])
        vm.exec_tokens(program.functions["begin.bib"])
        assert vm.doc.lines == ["\\begin{thebibliography}{10}", ""]

    def test_two_newlines_on_empty_buffer(self):
        vm = make_vm()
        vm.exec_ident("newline$", 0)
        vm.exec_ident("newline$", 0)
        assert vm.doc.lines == ["", ""]


class TestCite:
    def test_pushes_current_key(self):
        vm = make_vm("ENTRY {author}{}{}\nREAD\n", bibs=(SAMPLE_BIB,))
        vm.execute(parse_aux(BIBTEX_AUX))
        vm.current = vm.entries[0]
        vm.exec_ident("cite$", 0)
        assert vm.stack == ["Ulam-1964"]
        vm.current = vm.entries[1]
        vm.exec_ident("cite$", 0)
        assert vm.stack[-1] == "Poincare"

    def test_error_without_current_entry(self):
        vm = make_vm()
        with pytest.raises(VmError, match="cite\\$"):
            vm.exec_ident("cite$", 0)


class TestEmpty(Tiered):
    @pytest.mark.parametrize("value,expected", [
        (MissingField("number", "k"), 1),
        ("39", 0),
        ("   ", 1),
        ("", 1),
    ])
    def test_values(self, value, expected):
        vm = run_body("empty$", value)
        assert vm.stack == [expected]

    def test_integer_is_type_error(self):
        with pytest.raises(VmError, match="empty\\$"):
            run_body("empty$", 3)

    # `title empty$', of a field the entry lacks: TestCompiledTier.test_a_missing_field_read_does_not_fall_back
    @pytest.mark.parametrize("source,expected", [
        ('"  " empty$', [1]),
        ('"x" empty$', [0]),
        ("author empty$", [0]),
    ])
    def test_an_operand_of_the_body(self, source, expected):
        assert run_body(source).stack == expected

    def test_an_integer_of_the_body_is_type_error(self):
        with pytest.raises(VmError, match="empty\\$"):
            run_body("#3 empty$")


class TestSkip(Tiered):
    def test_identity(self):
        vm = make_vm()
        vm.stack.extend([1, "x"])
        vm.exec_ident("skip$", 0)
        assert vm.stack == [1, "x"]

    def test_block_skip_leaves_stack(self):
        program, _ = parse_bst("FUNCTION {f} { #1 {skip$} {skip$} if$ }")
        vm = make_vm()
        vm.exec_tokens(program.functions["f"])
        assert vm.stack == []


class TestIf(Tiered):
    def test_true_runs_then_branch(self):
        program, _ = parse_bst('FUNCTION {f} { #1 {"a"} {"b"} if$ }')
        vm = make_vm()
        vm.exec_tokens(program.functions["f"])
        assert vm.stack == ["a"]

    def test_zero_runs_else_branch(self):
        program, _ = parse_bst('FUNCTION {f} { #0 {"a"} {"b"} if$ }')
        vm = make_vm()
        vm.exec_tokens(program.functions["f"])
        assert vm.stack == ["b"]

    def test_guarded_number_output(self):
        aux = ("\\relax\n\\citation{Ulam-1964}\n\\citation{YangYu}\n"
               "\\bibstyle{s}\n\\bibdata{my}\n")
        doc, log = run_texts(GUARDED_NUMBER_BST, aux, SAMPLE_BIB + EXTRA_BIB_ENTRY)
        text = doc.finalize()
        ulam_line = next(l for l in text.splitlines() if l.startswith("Stein"))
        yang_line = next(l for l in text.splitlines() if l.startswith("Yang"))
        assert "No." not in ulam_line and ", Vol. 39" in ulam_line
        assert ", No. 4, Vol. 219" in yang_line

    @pytest.mark.parametrize("name,message", [
        ("ghost", "unknown identifier `ghost'"),
        ("substring$", "unsupported builtin `substring$'"),
    ])
    def test_quoted_name_that_cannot_run_fails_at_the_if(self, name, message):
        stack, _, records = _run_style(f"FUNCTION {{f}} {{ #1 '{name}\n'skip$\nif$ }}\nEXECUTE {{f}}\n")
        assert stack == []
        assert records == [(ERROR, f"{message} (line 3)")]

    def test_wrong_types_error(self):
        program, _ = parse_bst('FUNCTION {f} { #1 #2 #3 if$ }')
        vm = make_vm()
        with pytest.raises(VmError, match="if\\$"):
            vm.exec_tokens(program.functions["f"])


class TestWhile(Tiered):
    def test_false_predicate_never_runs_body(self):
        program, _ = parse_bst('FUNCTION {f} { {#0} {"never"} while$ }')
        vm = make_vm()
        vm.exec_tokens(program.functions["f"])
        assert vm.stack == []

    def test_countdown_terminates(self):
        source = (
            "INTEGERS { n }\n"
            "FUNCTION {main} { #3 'n := { n #0 > } { n #1 - 'n := } while$ }\n"
            "EXECUTE {main}\n"
        )
        program, diags = parse_bst(source)
        assert diags == []
        vm = Vm(program, [])
        vm.execute(AuxFile())
        assert vm.log.errors() == []
        assert vm.globals_int["n"] == 0

    def test_divergence_hits_iteration_cap(self, monkeypatch):
        monkeypatch.setattr("bibstack.vm.WHILE_LIMIT", 50)
        program, _ = parse_bst("FUNCTION {f} { {#1} {skip$} while$ }")
        vm = make_vm()
        vm.program = program
        with pytest.raises(VmError, match="iteration limit"):
            vm.exec_tokens(program.functions["f"])

    def test_non_integer_predicate_result(self):
        program, _ = parse_bst('FUNCTION {f} { {"x"} {skip$} while$ }')
        vm = make_vm()
        with pytest.raises(VmError, match="while\\$"):
            vm.exec_tokens(program.functions["f"])


class TestConcat(Tiered):
    def test_concatenates_in_order(self):
        vm = run_body("*", r"Poincar\'e", "X")
        assert vm.stack == [r"Poincar\'eX"]

    def test_empty_is_identity(self):
        vm = run_body("*", "", "s")
        assert vm.stack == ["s"]

    def test_missing_coerces_to_empty(self):
        vm = run_body("*", "a", MissingField("f", "k"))
        assert vm.stack == ["a"]

    def test_integer_operand_errors(self):
        with pytest.raises(VmError, match="\\*"):
            run_body("*", "a", 1)

    @pytest.mark.parametrize("source,below,expected", [
        ('author " and" *', [], ["A. B and"]),
        ('title "b" *', [], ["b"]),
        ('"x" *', ["w"], ["wx"]),
        ("author *", [MissingField("f", "k")], ["A. B"]),
    ])
    def test_operands_of_the_body_and_below_it(self, source, below, expected):
        assert run_body(source, *below).stack == expected

    def test_an_integer_of_the_body_errors(self):
        with pytest.raises(VmError, match="\\*"):
            run_body('"a" #1 *')


class TestAssign(Tiered):
    def test_author_into_sort_key(self):
        style = with_sort_fragment(HELLO_BST, AUTHOR_SORT_FRAGMENT)
        program, _ = parse_bst(style)
        vm = Vm(program, [parse_bib(SAMPLE_BIB)[0]])
        vm.execute(parse_aux(BIBTEX_AUX))
        keys = {e.key: e.strs["sort.key$"] for e in vm.entries}
        assert keys["Poincare"] == r"H. Poincar\'e"
        assert keys["Ulam-1964"] == "Stein P. R. and Ulam S. M."

    def test_global_integer(self):
        program, _ = parse_bst("INTEGERS { g }\nFUNCTION {f} { #7 'g := }\nEXECUTE {f}\n")
        vm = Vm(program, [])
        vm.execute(AuxFile())
        assert vm.globals_int["g"] == 7

    def test_type_mismatch(self):
        program, _ = parse_bst("STRINGS { g }\nFUNCTION {f} { #7 'g := }\nEXECUTE {f}\n")
        vm = Vm(program, [])
        vm.execute(AuxFile())
        assert any("string variable" in e for e in vm.log.errors())

    def test_sort_key_outside_iterate(self):
        program, _ = parse_bst('FUNCTION {f} { "k" \'sort.key$ := }\nEXECUTE {f}\n')
        vm = Vm(program, [])
        vm.execute(AuxFile())
        assert any("outside ITERATE" in e for e in vm.log.errors())

    def test_assign_to_field_rejected(self):
        program, _ = parse_bst('ENTRY {author}{}{}\nFUNCTION {f} { "x" \'author := }\nEXECUTE {f}\n')
        vm = Vm(program, [])
        vm.execute(AuxFile())
        assert any("cannot assign to field" in e for e in vm.log.errors())

    def test_a_value_read_before_a_store_is_the_old_value(self):
        stack, _, _ = _run_style(
            "INTEGERS {n}\nSTRINGS {s}\nENTRY {}{i}{t}\nREAD\n"
            "FUNCTION {f} { n s i t #1 'n := \"a\" 's := #2 'i := \"b\" 't := n s i t }\nITERATE {f}\n")
        assert stack == [0, "", 0, "", 1, "a", 2, "b"] + [1, "a", 0, "", 1, "a", 2, "b"]

    def test_undeclared_variable_rejected(self):
        vm = make_vm()
        vm.stack.extend(["x", FnRef(name="ghost")])
        with pytest.raises(VmError, match="not a declared variable"):
            vm.exec_ident(":=", 0)

    def test_string_into_integer_variable(self):
        stack, _, records = _run_style("INTEGERS {n}\nFUNCTION {f} {\n\"x\" 'n := }\nEXECUTE {f}\n")
        assert stack == []
        assert records == [(ERROR, ":=: `n' is an integer variable, got \"x\" (line 3)")]

    def test_block_into_string_variable(self):
        _, _, records = _run_style("STRINGS {s}\nFUNCTION {f} { {x} 's := }\nEXECUTE {f}\n")
        assert records == [(ERROR, ":=: `s' is a string variable, got {...} (line 2)")]

    def test_missing_field_into_integer_variable(self):
        vm = _run_untitled("ENTRY {title}{n}{}\nREAD\nFUNCTION {f} { title 'n := }\nITERATE {f}\n")
        assert vm.log.records == [
            (WARNING, "`title' is a missing field, not a string, for entry k"),
            (ERROR, ":=: `n' is an integer variable, got missing field `title' (line 3)")]
        assert vm.entries[0].ints == {"n": 0}

    def test_missing_field_into_string_variables_stores_empty(self):
        vm = _run_untitled(
            "ENTRY {title}{}{s}\nSTRINGS {g}\nREAD\n"
            "FUNCTION {f} { \"old\" 's := \"old\" 'g := title 's := title 'g := }\nITERATE {f}\n")
        assert vm.log.records == [
            (WARNING, "`title' is a missing field, not a string, for entry k")] * 2
        assert vm.entries[0].strs == {"sort.key$": "", "s": ""}
        assert vm.globals_str == {"g": ""}


class TestNumNames:
    @pytest.mark.parametrize("value,expected", [
        (r"H. Poincar\'e", 1),
        ("Stein P. R. and  Ulam S. M.", 2),
        ("", 0),
    ])
    def test_counts(self, value, expected):
        vm = make_vm()
        vm.stack.append(value)
        vm.exec_ident("num.names$", 0)
        assert vm.stack == [expected]

    def test_integer_errors(self):
        vm = make_vm()
        vm.stack.append(2)
        with pytest.raises(VmError, match="num.names\\$"):
            vm.exec_ident("num.names$", 0)


class TestFormatName:
    def apply(self, name_list, index, template):
        vm = make_vm()
        vm.stack.extend([name_list, index, template])
        vm.exec_ident("format.name$", 0)
        return vm.stack[-1]

    def test_full_last_single_author(self):
        assert self.apply(r"H. Poincar\'e", 1, "{ll}") == r"Poincar\'e"

    def test_all_parts_concatenate(self):
        assert self.apply(r"H. Poincar\'e", 1, "{ff}{vv}{ll}{jj}") == r"H.Poincar\'e"

    def test_second_name_last_word(self):
        assert self.apply("Stein P. R. and  Ulam S. M.", 2, "{ll}") == "M."

    def test_index_out_of_range(self):
        vm = make_vm()
        vm.stack.extend([r"H. Poincar\'e", 2, "{ll}"])
        with pytest.raises(VmError, match="out of range"):
            vm.exec_ident("format.name$", 0)

    @pytest.mark.parametrize("name_list,template,message", [
        ("a, b, c, d", "{ll}", "too many commas in name 'a, b, c, d'"),
        (r"H. Poincar\'e", "{x}", "piece must start with one of f, v, l, j: {x}"),
    ])
    def test_name_or_template_error_gives_the_line(self, name_list, template, message):
        vm = make_vm()
        vm.stack.extend([name_list, 1, template])
        with pytest.raises(VmError) as err:
            vm.exec_ident("format.name$", 5)
        assert str(err.value) == f"format.name$: {message} (line 5)"

    def test_index_zero_rejected(self):
        vm = make_vm()
        vm.stack.extend([r"H. Poincar\'e", 0, "{ll}"])
        with pytest.raises(VmError, match="out of range"):
            vm.exec_ident("format.name$", 0)


class TestIntOps(Tiered):
    def run_ops(self, source):
        program, _ = parse_bst(f"FUNCTION {{f}} {{ {source} }}")
        vm = make_vm()
        vm.exec_tokens(program.functions["f"])
        return vm.stack

    def test_addition(self):
        assert self.run_ops("#1 #2 +") == [3]

    def test_subtraction_order(self):
        assert self.run_ops("#2 #1 -") == [1]

    def test_comparisons(self):
        assert self.run_ops("#1 #2 <") == [1]
        assert self.run_ops("#1 #2 >") == [0]

    def test_string_equality(self):
        assert self.run_ops('"x" "x" =') == [1]
        assert self.run_ops('"x" "y" =') == [0]

    def test_integer_equality(self):
        assert self.run_ops("#2 #2 =") == [1]

    @pytest.mark.parametrize("a,b,expected", [
        (MissingField("title", "k"), "", [1]),
        ("", MissingField("title", "k"), [1]),
        (MissingField("title", "k"), MissingField("year", "k"), [1]),
        (MissingField("title", "k"), "x", [0]),
    ])
    def test_missing_field_compares_as_empty(self, a, b, expected):
        vm = run_body("=", a, b)
        assert vm.stack == expected

    def test_missing_field_against_integer_errors_as_empty(self):
        with pytest.raises(VmError) as err:
            run_body("\n=", MissingField("title", "k"), 3)  # the = on line 4
        assert str(err.value) == '=: operands must share a type, got "" and 3 (line 4)'

    @pytest.mark.parametrize("source,below,expected", [
        ('title "" =', [], [1]),
        ("title title =", [], [1]),
        ("title author =", [], [0]),
        ('"x" =', [MissingField("title", "k")], [0]),
    ])
    def test_a_missing_field_of_the_body_compares_as_empty(self, source, below, expected):
        assert run_body(source, *below).stack == expected

    @pytest.mark.parametrize("source,below", [
        ("title #3 =", []),
        ("#3 =", [MissingField("title", "k")]),
    ])
    def test_a_missing_field_of_the_body_against_an_integer_errors_as_empty(self, source, below):
        with pytest.raises(VmError, match='^=: operands must share a type, got "" and 3 '):
            run_body(source, *below)

    def test_mixed_equality_errors(self):
        with pytest.raises(VmError, match="="):
            self.run_ops('#1 "x" =')

    def test_arith_requires_integers(self):
        with pytest.raises(VmError, match="\\+"):
            self.run_ops('"a" "b" +')

    # each op of a chain takes the one before it as an operand: compiled into one
    # expression, 250 of them would nest past what Python's parser takes
    @pytest.mark.parametrize("source,expected", [
        ('""' + ' "x" *' * 250, ["x" * 250]),
        ("#0" + " #1 +" * 250, [250]),
        ("#0" + " #2 + #1 -" * 125, [125]),
        ("#1" + " #1 =" * 250, [1]),
        ("#1" + " #0 >" * 250, [1]),
    ], ids=["*", "+", "+-", "=", ">"])
    def test_a_long_chain_of_ops_runs(self, source, expected):
        assert self.run_ops(source) == expected


class TestCallType(Tiered):
    def test_dispatch_by_entry_type(self):
        doc, _ = run_texts(HELLO_BST, BIBTEX_AUX, SAMPLE_BIB)
        text = doc.finalize()
        assert "(article)" in text and "(book)" in text

    def test_missing_handler_warns_and_continues(self):
        bib = '@misc{M, author = "Someone"}\n' + SAMPLE_BIB
        aux = "\\relax\n\\citation{M}\n\\citation{Ulam-1964}\n\\bibstyle{s}\n\\bibdata{my}\n"
        doc, log = run_texts(HELLO_BST, aux, bib)
        assert "no handler function for entry type `misc'" in log.warnings()
        assert bibitem_keys(doc.finalize()) == ["Ulam-1964"]

    def test_runs_only_a_name_the_table_gives_the_kind_function(self):
        # FUNCTIONs misc and skip$ exist, but INTEGERS {misc} and the builtin hide them
        bib = '@misc{M, note = "x"}\n@skip${S, note = "x"}\n@book{B, note = "x"}\n'
        aux = "\\relax\n\\citation{M}\n\\citation{S}\n\\citation{B}\n\\bibstyle{s}\n\\bibdata{d}\n"
        doc, log = run_texts(
            "ENTRY {note}{}{}\n"
            'FUNCTION {misc} { "misc" write$ newline$ }\n'
            'FUNCTION {skip$} { "skip" write$ newline$ }\n'
            "FUNCTION {book} { cite$ write$ newline$ }\n"
            "INTEGERS {misc}\n"
            "READ\n"
            "ITERATE {call.type$}\n",
            aux, bib,
        )
        assert doc.finalize() == "B\n"
        assert log.records == [
            (WARNING, "no handler function for entry type `misc'"),
            (WARNING, "no handler function for entry type `skip$'"),
        ]

    def test_missing_handler_runs_default_type(self):
        bib = '@misc{M, author = "Someone"}\n' + SAMPLE_BIB
        aux = "\\relax\n\\citation{M}\n\\citation{Ulam-1964}\n\\bibstyle{s}\n\\bibdata{my}\n"
        style = HELLO_BST.replace(
            "READ", 'FUNCTION {default.type} { output.bibitem "(default)" write$ newline$ }\nREAD')
        doc, log = run_texts(style, aux, bib)
        assert log.records == [(WARNING, "no handler function for entry type `misc'")]
        assert "\\bibitem{M}\n(default)\n" in doc.finalize()
        assert bibitem_keys(doc.finalize()) == ["M", "Ulam-1964"]

    def test_hidden_default_type_is_not_run(self):
        bib = '@misc{M, note = "x"}\n@book{B, note = "x"}\n'
        aux = "\\relax\n\\citation{M}\n\\citation{B}\n\\bibstyle{s}\n\\bibdata{d}\n"
        doc, log = run_texts(
            "ENTRY {note}{}{}\n"
            'FUNCTION {default.type} { "default" write$ newline$ }\n'
            "FUNCTION {book} { cite$ write$ newline$ }\n"
            "STRINGS {default.type}\n"
            "READ\n"
            "ITERATE {call.type$}\n",
            aux, bib,
        )
        assert doc.finalize() == "B\n"
        assert log.records == [(WARNING, "no handler function for entry type `misc'")]

    def test_error_without_current_entry(self):
        vm = make_vm()
        with pytest.raises(VmError, match="call.type\\$"):
            vm.exec_ident("call.type$", 0)


class TestWarningAccounting:
    def test_every_warning_has_a_countable_cause(self):
        # causes: a missing-field read, write$ on a missing value, a type
        # with no handler function, or a citation with no database entry
        unguarded = GUARDED_NUMBER_BST.replace(
            "  number empty$\n  {skip$}\n  {\", No. \" write$ number write$}\n  if$\n",
            '  ", No. " write$ number write$\n',
        )
        assert "empty$" not in unguarded
        bib = SAMPLE_BIB + EXTRA_BIB_ENTRY + '@misc{M, author = "X"}\n'
        aux = ("\\relax\n\\citation{Ulam-1964}\n\\citation{YangYu}\n"
               "\\citation{M}\n\\citation{Ghost}\n\\bibstyle{s}\n\\bibdata{d}\n")
        _, log = run_texts(unguarded, aux, bib)
        # Ulam: number read + number write$ on missing; M: dispatch miss;
        # Ghost: lookup miss
        missing_reads = 1
        missing_writes = 1
        dispatch_misses = 1
        lookup_misses = 1
        assert len(log.warnings()) == (
            missing_reads + missing_writes + dispatch_misses + lookup_misses
        )


class TestEntryVariables(Tiered):
    def test_defaults_per_entry(self):
        source = (
            "ENTRY {author}{count}{note}\nREAD\n"
            "FUNCTION {check} { count note }\n"
        )
        vm = make_vm(source, bibs=(SAMPLE_BIB,))
        vm.execute(parse_aux(BIBTEX_AUX))
        vm.current = vm.entries[0]
        vm.exec_ident("count", 0)
        vm.exec_ident("note", 0)
        assert vm.stack == [0, ""]

    def test_entry_int_assignment(self):
        source = (
            "ENTRY {author}{count}{}\nREAD\n"
            "FUNCTION {bump} { #5 'count := }\nITERATE {bump}\n"
        )
        program, diags = parse_bst(source)
        assert diags == []
        vm = Vm(program, [parse_bib(SAMPLE_BIB)[0]])
        vm.execute(parse_aux(BIBTEX_AUX))
        assert [e.ints["count"] for e in vm.entries] == [5, 5]


# operands for each fixed-arity builtin, bottom of the stack first
_ARITY_OPERANDS = {
    "write$": ["text"],
    "newline$": [],
    "cite$": [],
    "empty$": [""],
    "skip$": [],
    "*": ["a", "b"],
    ":=": [7, FnRef(name="counter")],
    "num.names$": ["Doe, John and Roe, Jane"],
    "format.name$": ["Doe, John", 1, "{ll}"],
    "=": [1, 1],
    "<": [1, 2],
    ">": [1, 2],
    "+": [1, 2],
    "-": [1, 2],
}


class TestBuiltinTable(Tiered):
    @pytest.mark.parametrize("name", sorted(n for n, (_fn, pops, _) in BUILTINS.items()
                                            if pops is not None))
    def test_stack_depth_changes_by_declared_effect(self, name):
        _fn, pops, pushes = BUILTINS[name]
        operands = _ARITY_OPERANDS[name]
        assert len(operands) == pops
        vm = make_vm("INTEGERS { counter }\n")
        vm.execute(AuxFile())
        vm.current = RuntimeEntry(key="k", entry_type="article", fields={})
        vm.stack = ["below"] + operands
        vm.exec_tokens([Token("id", name, 0)])
        assert len(vm.stack) - (1 + len(operands)) == pushes - pops
        assert vm.stack[0] == "below"

    @pytest.mark.parametrize("name", sorted(n for n, (_fn, pops, _) in BUILTINS.items()
                                            if pops or n in ("if$", "while$")))
    def test_underflow_names_the_builtin_and_its_line(self, name):
        vm = make_vm()
        with pytest.raises(VmError) as err:
            vm.exec_tokens([Token("id", name, 7)])
        assert str(err.value) == f"{name}: stack underflow (line 7)"
        assert err.value.line == 7

    def test_only_control_builtins_have_operand_dependent_effects(self):
        # lint special-cases exactly these three
        unknown = {n for n, (_fn, pops, pushes) in BUILTINS.items() if pops is None or pushes is None}
        assert unknown == {"if$", "while$", "call.type$"}

    def test_a_wrapped_builtin_is_called_once_per_use(self, monkeypatch):
        # as a counter that wraps the table's entries before the run sees them
        calls = []
        add, pops, pushes = BUILTINS["+"]

        def counting(vm, at):
            calls.append(at)
            add(vm, at)

        monkeypatch.setitem(BUILTINS, "+", (counting, pops, pushes))
        stack, _, records = _run_style(
            "INTEGERS {n}\nFUNCTION {f} { n #1 + 'n := n #2 + #3 + }\nEXECUTE {f}\nEXECUTE {f}\n")
        assert calls == [("+", 2)] * 6
        assert stack == [6, 7]


def _resolve(source: str, name: str, value) -> tuple:
    """What reading `name' pushes, and what `value 'name :=' stores, after `source' runs.

    Each side is ("pushed", value), ("stored", storage) or ("error", message).
    """
    vm = make_vm(source + "READ\n", bibs=(SAMPLE_BIB,))
    vm.execute(parse_aux(BIBTEX_AUX))
    assert vm.log.records == []
    vm.current = vm.entries[0]
    try:
        vm.exec_ident(name, 0)
        read = ("pushed", vm.stack)
    except VmError as err:
        read = ("error", str(err))
    vm.stack = [value, FnRef(name=name)]
    try:
        vm.exec_ident(":=", 0)
        entry = vm.current
        write = ("stored", {"globals_str": vm.globals_str, "globals_int": vm.globals_int,
                            "strs": entry.strs, "ints": entry.ints})
    except VmError as err:
        write = ("error", str(err))
    return read, write


class TestNameResolution:
    """One name declared in two places: which kind wins for a read and for `:='."""

    def test_field_beats_global_string(self):
        read, write = _resolve("ENTRY {year}{}{}\nSTRINGS {year}\n", "year", "x")
        assert read == ("pushed", ["1964"])
        assert write == ("error", ":=: cannot assign to field `year' (line 0)")

    def test_entry_string_beats_global_integer(self):
        read, write = _resolve("ENTRY {}{}{label}\nINTEGERS {label}\n", "label", "L")
        assert read == ("pushed", [""])
        assert write == ("stored", {"globals_str": {}, "globals_int": {"label": 0},
                                    "strs": {"sort.key$": "", "label": "L"}, "ints": {}})
        _, write = _resolve("ENTRY {}{}{label}\nINTEGERS {label}\n", "label", 3)
        assert write == ("error", ":=: `label' is a string variable, got 3 (line 0)")

    @pytest.mark.parametrize("source", ["STRINGS {x}\nINTEGERS {x}\n",
                                        "INTEGERS {x}\nSTRINGS {x}\n"])
    def test_global_string_beats_global_integer_in_either_order(self, source):
        read, write = _resolve(source, "x", "s")
        assert read == ("pushed", [""])
        assert write == ("stored", {"globals_str": {"x": "s"}, "globals_int": {"x": 0},
                                    "strs": {"sort.key$": ""}, "ints": {}})
        _, write = _resolve(source, "x", 3)
        assert write == ("error", ":=: `x' is a string variable, got 3 (line 0)")

    def test_integer_variable_beats_builtin(self):
        read, write = _resolve("INTEGERS {cite$}\n", "cite$", 4)
        assert read == ("pushed", [0])
        assert write == ("stored", {"globals_str": {}, "globals_int": {"cite$": 4},
                                    "strs": {"sort.key$": ""}, "ints": {}})

    def test_builtin_beats_function(self):
        read, write = _resolve('FUNCTION {cite$} { "function" }\n', "cite$", "x")
        assert read == ("pushed", ["Ulam-1964"])
        assert write == ("error", ":=: `cite$' is not a declared variable (line 0)")

    def test_function_beats_unsupported_builtin(self):
        read, write = _resolve('FUNCTION {purify$} { "function" }\n', "purify$", "x")
        assert read == ("pushed", ["function"])
        assert write == ("error", ":=: `purify$' is not a declared variable (line 0)")


def _run_style(source: str) -> tuple:
    """The stack left at the end, the .bbl text and the .blg records of a run over SAMPLE_BIB."""
    vm = make_vm(source, bibs=(SAMPLE_BIB,))
    vm.execute(parse_aux(BIBTEX_AUX))
    return vm.stack, vm.doc.finalize(), vm.log.records


def _run_untitled(source: str) -> Vm:
    """The Vm after a run over one cited entry `k' that has no title field."""
    vm = make_vm(source, bibs=('@misc{k, author = "A. B"}\n',))
    vm.execute(parse_aux("\\relax\n\\citation{k}\n\\bibstyle{s}\n\\bibdata{d}\n"))
    return vm


class TestRedeclaration(Tiered):
    """A body run both before and after a declaration that changes a name in it."""

    def test_function_later_declared_integer(self):
        stack, bbl, records = _run_style(
            'FUNCTION {g} { "function" }\n'
            "FUNCTION {main} { g }\n"
            "FUNCTION {set} { #7 'g := }\n"
            "EXECUTE {main}\n"
            "INTEGERS {g}\n"
            "EXECUTE {main}\n"
            "EXECUTE {set}\n"
            "EXECUTE {main}\n"
        )
        assert stack == ["function", 0, 7]
        assert bbl == ""
        assert records == [(ERROR, 'stack not empty at end: ["function", 0, 7]')]

    def test_builtin_later_hidden_by_strings(self):
        stack, bbl, records = _run_style(
            "ENTRY {author}{}{}\n"
            "READ\n"
            "FUNCTION {show} { cite$ write$ newline$ }\n"
            "FUNCTION {set} { \"hidden\" 'cite$ := }\n"
            "ITERATE {show}\n"
            "STRINGS {cite$}\n"
            "ITERATE {show}\n"
            "EXECUTE {set}\n"
            "ITERATE {show}\n"
        )
        assert stack == []
        assert bbl == "Ulam-1964\nPoincare\n\n\nhidden\nhidden\n"
        assert records == []

    def test_field_declared_after_first_execute(self):
        stack, bbl, records = _run_style(
            'FUNCTION {year} { "no field yet" }\n'
            "FUNCTION {show} { year write$ newline$ }\n"
            "EXECUTE {show}\n"
            "ENTRY {year}{}{}\n"
            "READ\n"
            "ITERATE {show}\n"
        )
        assert stack == []
        assert bbl == "no field yet\n1964\n1892\n"
        assert records == []

    def test_quoted_name_and_block_run_by_if(self):
        stack, bbl, records = _run_style(
            'FUNCTION {g} { "ran g" write$ newline$ }\n'
            "FUNCTION {by.name} { #1 'g 'skip$ if$ }\n"
            "FUNCTION {by.block} { #0 { skip$ } { g } if$ }\n"
            "EXECUTE {by.name}\n"
            "EXECUTE {by.block}\n"
            "INTEGERS {g}\n"
            "EXECUTE {by.name}\n"
            "EXECUTE {by.block}\n"
        )
        assert stack == [0, 0]
        assert bbl == "ran g\nran g\n"
        assert records == [(ERROR, "stack not empty at end: [0, 0]")]

    def test_quoted_name_and_block_run_by_while(self):
        stack, bbl, records = _run_style(
            "INTEGERS {n}\n"
            'FUNCTION {tick} { "tick" write$ newline$ }\n'
            "FUNCTION {more} { n #0 > }\n"
            "FUNCTION {loop} { #2 'n := 'more { n #1 - 'n := tick } while$ }\n"
            'FUNCTION {set} { "s" \'tick := }\n'
            "EXECUTE {loop}\n"
            "STRINGS {tick}\n"
            "EXECUTE {set}\n"
            "EXECUTE {loop}\n"
            "INTEGERS {more}\n"
            "EXECUTE {loop}\n"
        )
        assert stack == ["s", "s"]
        assert bbl == "tick\ntick\n"
        assert records == [(ERROR, 'stack not empty at end: ["s", "s"]')]


class TestBoundOps(Tiered):
    """`'v :=' on a variable and `{..} {..} if$' run as one op each.  A
    skip$ between the pair (written for <> below) makes the generic :=
    and if$ run instead; both forms give the same errors and lines."""

    @pytest.mark.parametrize("source,bbl,records", [
        ("INTEGERS {x}\nFUNCTION {f} {\n'x<> := }\nEXECUTE {f}\n",
         "", [(ERROR, ":=: stack underflow (line 3)")]),
        ("INTEGERS {n}\nFUNCTION {f} {\n\"x\" 'n<> := }\nEXECUTE {f}\n",
         "", [(ERROR, ":=: `n' is an integer variable, got \"x\" (line 3)")]),
        ("ENTRY {number}{}{s}\nREAD\n"
         "FUNCTION {f} { \"old\" 's := number 's<> := s write$ newline$ }\nITERATE {f}\n",
         "\n\n", [(WARNING, "`number' is a missing field, not a string, for entry Ulam-1964"),
                  (WARNING, "`number' is a missing field, not a string, for entry Poincare")]),
        ("ENTRY {}{}{s}\nFUNCTION {f} { \"x\" 's<> := }\nEXECUTE {f}\n",
         "", [(ERROR, ":=: `s' assigned outside ITERATE (line 2)")]),
        # a field before := binds nothing
        ("ENTRY {title}{}{}\nREAD\nFUNCTION {f} { \"x\" 'title<> := }\nITERATE {f}\n",
         "", [(ERROR, ":=: cannot assign to field `title' (line 3)")]),
        ("FUNCTION {f} {\n\n{ } { }<> if$ }\nEXECUTE {f}\n",
         "", [(ERROR, "if$: stack underflow (line 3)")]),
        ("FUNCTION {f} { \"x\" { } 'skip$<> if$ }\nEXECUTE {f}\n",
         "", [(ERROR, 'if$: expected an integer, got "x" (line 1)')]),
    ])
    def test_outcomes_match_the_generic_builtins(self, source, bbl, records):
        bound = _run_style(source.replace("<>", ""))
        assert bound == ([], bbl, records)
        assert _run_style(source.replace("<>", " skip$")) == bound

    # ops per body: one per token, less one per bound := and two per bound if$
    @pytest.mark.parametrize("body,ops", [
        ("'x := { } 'skip$ if$", 2),
        ("#1 'x := #1 { } { } if$ ", 4),
        ("'title := 'ghost := 'f := 'skip$ := { } if$", 10),
        ("{ } { } { } if$ 'x 'x :=", 4),
        ("'x skip$ := { } skip$ { } if$", 7),
    ])
    def test_which_pairs_bind(self, body, ops):
        vm = make_vm(f"ENTRY {{title}}{{}}{{}}\nINTEGERS {{x}}\nFUNCTION {{f}} {{ {body} }}\n")
        vm.execute(AuxFile())
        assert len(vm._resolve_body(vm.program.functions["f"])) == ops

    def test_a_declaration_that_shadows_assign_and_if_unbinds_them(self):
        _, bbl, records = _run_style(
            "INTEGERS {x}\n"
            "FUNCTION {f} { x #1 + 'x := #1 { \"then\" write$ } { } if$ }\n"
            "EXECUTE {f}\n"
            "INTEGERS { := if$ }\n"
            "EXECUTE {f}\n"
        )
        # the first EXECUTE sets x to 1 and writes; in the second, := and if$ push 0
        assert bbl == "then\n"
        assert records == [(ERROR, "stack not empty at end: [2, 'x, 0, 1, {...}, {...}, 0]")]


_PASSES_STYLE = (
    "ENTRY {author}{}{}\nINTEGERS {i}\n"
    'FUNCTION {presort} { author #1 "{vv~}{ll}" format.name$ \'sort.key$ := }\n'
    "FUNCTION {output} { #0 'i := { i author num.names$ < }\n"
    '  { i #1 + \'i := author i "{f.~}{ll}" format.name$ write$ " " write$ } while$ newline$ }\n'
    "READ\nITERATE {presort}\nSORT\nITERATE {output}\n"
)


class TestNameMemo(Tiered):
    def test_each_name_list_split_once_per_run(self):
        # two author lists, each split by presort's format.name$ and then by
        # output's num.names$ (once per while$ test) and format.name$
        program, _ = parse_bst(_PASSES_STYLE)
        aux, db = parse_aux(BIBTEX_AUX), parse_bib(SAMPLE_BIB)[0]
        with mock.patch.object(names, "tokenize", wraps=names.tokenize) as split:
            run(program, aux, [db])
            assert split.call_count == 2
            run(program, aux, [db])
            assert split.call_count == 4

    def test_each_name_parsed_once_per_run(self):
        # presort formats Stein P. R. and H. Poincar\'e, output those two and Ulam S. M.
        program, _ = parse_bst(_PASSES_STYLE)
        aux, db = parse_aux(BIBTEX_AUX), parse_bib(SAMPLE_BIB)[0]
        with mock.patch.object(names, "name_parts", wraps=names.name_parts) as parse, \
                mock.patch.object(names, "format_name", wraps=names.format_name) as fmt:
            doc, log = run(program, aux, [db])
            assert (parse.call_count, fmt.call_count) == (3, 5)
            again, _ = run(program, aux, [db])
            assert (parse.call_count, fmt.call_count) == (6, 10)
        assert log.records == []
        assert doc.finalize() == again.finalize() == "H.~Poincar\\'e \nS. P.~R. U. S.~M. \n"

    def test_a_name_that_does_not_parse_is_not_kept(self):
        program, _ = parse_bst('FUNCTION {f} { "a, b, c, d" #1 "{ll}" format.name$ }\n'
                               "EXECUTE {f}\nEXECUTE {f}\n")
        with mock.patch.object(names, "name_parts", wraps=names.name_parts) as parse:
            _, log = run(program, AuxFile(), [])
        assert parse.call_count == 1
        assert log.records == [(ERROR, "format.name$: too many commas in name 'a, b, c, d' (line 1)")]


# one line: num.names$ and format.name$ on the entry's author, with its title as the template
_NAME_STYLE = ("ENTRY {{author title}}{{}}{{}} STRINGS {{s}} INTEGERS {{n}} FUNCTION {{f}} "
               "{{ author num.names$ 'n := author #{} title format.name$ 's := }} READ ITERATE {{f}}\n")


class TestNameBuiltinsAgreeWithTheNameEngine(Tiered):
    def test_a_name_from_the_list_tokens_formats_as_one_from_its_text(self):
        # the Vm parses each name from its list's tokens; the public wrappers
        # tokenize the name's text again
        @settings(max_examples=300)
        @given(NAME_TEXT, st.integers(-1, 6), TEMPLATE_TEXT)
        def check(name_list, index, template):
            db = Database()
            db.add(Entry("k", "misc", {"author": name_list, "title": template}))
            vm = Vm(parse_bst(_NAME_STYLE.format(index))[0], [db])
            vm.execute(parse_aux("\\citation{k}\n"))
            count = names.count_names(name_list)
            expected = ("", [(ERROR, f"format.name$: name index {index} out of range for entry k (line 1)")])
            if 1 <= index <= count:
                try:
                    expected = (names.format_name(names.split_names(name_list)[index - 1], template), [])
                except (names.NameParseError, names.TemplateError) as err:
                    expected = ("", [(ERROR, f"format.name$: {err} (line 1)")])
            assert vm.globals_int["n"] == count
            assert (vm.globals_str["s"], vm.log.records) == expected

        check()


def _deep_style(levels: int) -> str:
    """One line of style whose EXECUTE enters `levels' bodies, one inside the other:
    every fourth a FUNCTION call, the others blocks run by if$."""
    body = '"bottom" write$ newline$'
    functions = []
    for i in range(levels - 1):
        if i % 4 == 3:
            functions.append(f"FUNCTION {{f{i}}} {{ {body} }}")
            body = f"f{i}"
        else:
            body = f"#1 {{ {body} }} 'skip$ if$"
    functions.append(f"FUNCTION {{main}} {{ {body} }}")
    return " ".join(functions) + " EXECUTE {main}\n"


def _records_in_three_frames_a_level(style: str) -> list:
    """The .blg records of a run of style on one cited entry, under a recursion
    limit with room for three Python frames a level and the frames below the first."""
    bib = '@misc{k, note = "x"}\n'
    aux = parse_aux("\\citation{k}\n")
    program, _ = parse_bst(style)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    # room for three frames a level and the frames between here and the first level
    sys.setrecursionlimit(depth + 3 * CALL_DEPTH_LIMIT + 20)
    try:
        _, log = run(program, aux, [parse_bib(bib)[0]])
    finally:
        sys.setrecursionlimit(limit)
    return log.records


class TestCallDepth(Tiered):
    def test_limit_deep_runs_within_pythons_recursion_limit(self):
        stack, bbl, records = _run_style(_deep_style(CALL_DEPTH_LIMIT))
        assert (stack, bbl, records) == ([], "bottom\n", [])

    def test_one_level_past_the_limit_is_an_error(self):
        stack, bbl, records = _run_style(_deep_style(CALL_DEPTH_LIMIT + 1))
        assert bbl == ""
        assert records == [
            (ERROR, f"function call depth exceeded (limit {CALL_DEPTH_LIMIT}) (line 1)")]

    def test_chain_of_quoted_if_is_bounded(self):
        # a while$ loop stacks 1000 (#1, 'if$, 'skip$) triples; one if$ then runs
        # each 'if$ from the one above it, with no FUNCTION or block between
        _, bbl, records = _run_style(
            "INTEGERS {n} FUNCTION {main} { #1 { skip$ } 'skip$ #1000 'n := "
            "{ n #0 > } { #1 'if$ 'skip$ n #1 - 'n := } while$ if$ } EXECUTE {main}\n"
        )
        assert bbl == ""
        assert records == [
            (ERROR, f"function call depth exceeded (limit {CALL_DEPTH_LIMIT}) (line 1)")]

    @pytest.mark.parametrize("name,message", [
        ("ghost", "unknown identifier `ghost'"),
        ("substring$", "unsupported builtin `substring$'"),
    ])
    def test_quoted_name_counts_its_level_before_it_runs(self, name, message):
        vm = make_vm()
        vm.depth = CALL_DEPTH_LIMIT - 1
        vm.stack.extend([1, FnRef(name=name), FnRef(name="skip$")])
        with pytest.raises(VmError) as err:
            vm.exec_ident("if$", 7)
        assert str(err.value) == f"{message} (line 7)"
        assert vm.depth == CALL_DEPTH_LIMIT - 1

        vm.depth = CALL_DEPTH_LIMIT
        vm.stack.extend([1, FnRef(name=name), FnRef(name="skip$")])
        with pytest.raises(VmError) as err:
            vm.exec_ident("if$", 7)
        assert str(err.value) == f"function call depth exceeded (limit {CALL_DEPTH_LIMIT}) (line 7)"
        assert vm.depth == CALL_DEPTH_LIMIT

    # styles that recurse without end, each through one way of entering a level
    @pytest.mark.parametrize("style", [
        "FUNCTION {f} { #1 'f 'skip$ if$ } EXECUTE {f}",  # a bound if$ runs a quoted name
        "FUNCTION {f} { #1 { f } 'skip$ if$ } EXECUTE {f}",  # ... a block
        "FUNCTION {f} { #1 'f 'skip$ skip$ if$ } EXECUTE {f}",  # if$ not bound
        "FUNCTION {f} { { #1 } { f } while$ } EXECUTE {f}",
        "FUNCTION {f} { f } EXECUTE {f}",
        "FUNCTION {r} { 'f } FUNCTION {f} { #1 r 'skip$ if$ } EXECUTE {f}",  # a ref from a call
        "ENTRY {}{}{} READ FUNCTION {misc} { call.type$ } ITERATE {call.type$}",
        # a quoted if$ that if$ runs, as in test_chain_of_quoted_if_is_bounded
        "INTEGERS {n} FUNCTION {main} { #1 { skip$ } 'skip$ #1000 'n := "
        "{ n #0 > } { #1 'if$ 'skip$ n #1 - 'n := } while$ if$ } EXECUTE {main}",
    ])
    def test_each_level_costs_at_most_three_python_frames(self, style):
        assert _records_in_three_frames_a_level(style) == [
            (ERROR, f"function call depth exceeded (limit {CALL_DEPTH_LIMIT}) (line 1)")]

    @pytest.mark.parametrize("levels,message", [
        # g at the deepest level takes "x" as an integer: its +, compiled, falls back at
        # the body's own level to the handler, which raises at its check
        (CALL_DEPTH_LIMIT, '+: expected an integer, got "x" (line 2)'),
        (CALL_DEPTH_LIMIT + 1, f"function call depth exceeded (limit {CALL_DEPTH_LIMIT}) (line 4)"),
    ])
    def test_a_fallback_at_the_deepest_level_costs_at_most_three_python_frames(self, levels, message):
        # f at level d runs f at level d + 1 until d reaches levels - 1, then g
        style = ('INTEGERS {d}\nFUNCTION {g} { "x" #1 + }\nFUNCTION {f} {\n'
                 f"d #1 + 'd := d #{levels - 1} < 'f 'g if$ }}\nEXECUTE {{f}}\n")
        assert _records_in_three_frames_a_level(style) == [(ERROR, message)]

    @pytest.mark.parametrize("levels,message", [
        # the deepest level takes "x" as an integer: its +, compiled, falls back to the
        # handler, which raises the error
        (CALL_DEPTH_LIMIT, '+: expected an integer, got "x" (line 3)'),
        (CALL_DEPTH_LIMIT + 1, f"function call depth exceeded (limit {CALL_DEPTH_LIMIT}) (line 3)"),
    ])
    def test_a_chain_through_quoted_names_that_falls_back_at_the_end(self, workdir, capsys,
                                                                    levels, message):
        write_files(workdir, {
            "t.aux": "\\citation{k}\n\\bibstyle{t}\n\\bibdata{t}\n",
            "t.bib": '@misc{k, note = "x"}\n',
            # f at level d runs f at level d + 1 until d reaches levels - 1, then a block
            "t.bst": "INTEGERS {d}\nFUNCTION {f} {\n"
                     f"d #1 + 'd := \"x\" d #{levels - 1} < 'f {{ #1 + }} if$ }}\nEXECUTE {{f}}\n",
        })
        assert main(["bibtex", "t"]) == 2
        assert capsys.readouterr().err.splitlines() == [message]
        assert (workdir / "t.blg").read_text() == message + "\n"


def _raised(source: str, *below, depth: int = 0) -> tuple:
    """The error, stack and call depth that FUNCTION {f} { source } leaves, entered
    at depth with the values below on the stack."""
    vm = make_vm(f"INTEGERS {{n}}\nFUNCTION {{f}} {{ {source} }}\n")
    vm.execute(AuxFile())
    vm.stack.extend(below)
    vm.depth = depth
    with pytest.raises(VmError) as err:
        vm.exec_tokens(vm.program.functions["f"], 9)
    return str(err.value), vm.stack, vm.depth


def _nested(levels: int, wrap: str, bottom: str) -> str:
    """A style whose EXECUTE runs bottom inside `levels' blocks, each put in place
    of {} in wrap, with v standing for an integer of its own."""
    body = bottom
    for level in range(levels):
        body = wrap.replace("v", f"v{level}").replace("{}", body)
    variables = " ".join(f"v{level}" for level in range(levels))
    return f"INTEGERS {{ {variables} }}\nFUNCTION {{main}} {{ {body} }}\nEXECUTE {{main}}\n"


class TestBlocksInPlace(Tiered):
    """Blocks that a bound if$ or while$ runs, which the compiled tier compiles in
    place: each counts one call level, and an error inside one leaves the stack
    and the depth as the generic tier leaves them."""

    # what each op took before it failed is gone from the stack, as its handler leaves it
    @pytest.mark.parametrize("source,below,message,stack", [
        ('#1 { "a" #1 + } \'skip$ if$', ["below"], '+: expected an integer, got "a"', ["below"]),
        ('#0 \'skip$ { #2 #1 { "a" * } { } if$ } if$', [], "*: expected a string, got 2", []),
        ('"b" #1 { #1 { "a" \'n := } \'skip$ if$ } \'skip$ if$', [],
         ":=: `n' is an integer variable, got \"a\"", ["b"]),
        ('#2 \'n := { n } { n #1 - \'n := n { } { "x" #1 < } if$ } while$', ["below"],
         '<: expected an integer, got "x"', ["below"]),
        ('{ "x" } { } while$', [], 'while$: expected an integer, got "x"', []),
        ('{ #1 "y" } { } while$', [], 'while$: expected an integer, got "y"', [1]),
        ("{ #1 } { + } while$", ["a", 1], '+: expected an integer, got "a"', []),
    ])
    def test_an_error_inside_a_block_leaves_the_stack_and_the_depth(self, source, below, message, stack):
        assert _raised(source, *below, depth=3) == (f"{message} (line 2)", stack, 3)

    @pytest.mark.parametrize("style,bbl,records", [
        (_nested(30, "#1 { {} } 'skip$ if$", '"bottom" write$ newline$'), "bottom\n", []),
        (_nested(30, "#0 'skip$ { {} } if$", '"bottom" #1 + '), "",
         [(ERROR, '+: expected an integer, got "bottom" (line 2)')]),
        (_nested(25, "#1 'v := { v } { #0 'v := {} } while$", '"bottom" write$ newline$'), "bottom\n", []),
        (_nested(25, "#1 'v := { v } { #0 'v := {} } while$", "#1 write$"), "",
         [(ERROR, "write$: expected a string, got 1 (line 2)")]),
    ], ids=["if", "if-error", "while", "while-error"])
    def test_blocks_nested_past_the_inline_depth_run(self, style, bbl, records):
        assert _run_style(style) == ([], bbl, records)

    def test_a_loop_stops_at_the_iteration_limit_at_its_line(self, monkeypatch):
        monkeypatch.setattr(vm_module, "WHILE_LIMIT", 5)
        stack, bbl, records = _run_style("INTEGERS {n}\nFUNCTION {f} {\n{ #1 }\n{ n #1 + 'n := }\nwhile$ }\n"
                                         "EXECUTE {f}\n")
        assert (stack, bbl) == ([], "")
        assert records == [(ERROR, "while$: iteration limit of 5 exceeded (line 5)")]

    def test_a_block_counts_its_level_at_the_line_of_its_if(self):
        message = f"function call depth exceeded (limit {CALL_DEPTH_LIMIT}) (line 2)"
        for source in ("#1 { } 'skip$ if$", "#0 { } 'skip$ if$", "{ #0 } { } while$"):
            assert _raised(source, "below", depth=CALL_DEPTH_LIMIT - 1) == (message, ["below"],
                                                                             CALL_DEPTH_LIMIT - 1)


def _block_bodies(vm: Vm) -> list:
    """The _Body of every {...} block of vm's program that Vm._call has entered."""
    blocks, tokens = set(), [tok for body in vm.program.functions.values() for tok in body]
    while tokens:
        tok = tokens.pop()
        if tok.kind == "block":
            blocks.add(id(tok.value))
            tokens += tok.value
    return [body for key, body in vm._resolved.items() if key in blocks]


# a FUNCTION whose loop runs its two blocks more than COMPILE_AFTER times at each entry
_LOOPING = (f"INTEGERS {{n}}\nFUNCTION {{f}} {{ #0 'n := {{ n #{vm_module.COMPILE_AFTER + 5} < }} "
            "{ n #1 + 'n := } while$ }\nEXECUTE {f}\n")


class TestCompiledTier:
    def test_a_block_run_more_than_compile_after_times_does_not_compile(self):
        vm = make_vm(_LOOPING)
        vm.execute(AuxFile())
        blocks = _block_bodies(vm)
        assert len(blocks) == 2 and [body.run for body in blocks] == [None, None]
        assert vm._codes == {}
        assert vm.globals_int["n"] == vm_module.COMPILE_AFTER + 5

    def test_a_function_compiles_with_its_loop_in_place(self):
        vm = make_vm(_LOOPING)
        vm.execute(AuxFile())  # its first entry
        f = vm.program.functions["f"]
        for _ in range(vm_module.COMPILE_AFTER):
            vm.exec_tokens(f)
        assert vm._resolved[id(f)].run is not None
        [source] = vm._codes
        assert "for _ in range(" in source
        assert [body.run for body in _block_bodies(vm)] == [None, None]
        assert vm.globals_int["n"] == vm_module.COMPILE_AFTER + 5

    @pytest.mark.parametrize("style", [
        _nested(INLINE_DEPTH + 2, "#1 { {} } 'skip$ if$", '"bottom" write$ newline$'),
        'FUNCTION {main} { #1 { "then" write$ } { "else" write$ } skip$ if$ newline$ }\nEXECUTE {main}\n',
    ], ids=["nested-past-the-inline-depth", "if-not-bound"])
    def test_a_block_entered_as_a_call_never_compiles(self, monkeypatch, style):
        outcomes = []
        for compile_after in (NEVER, 0):
            monkeypatch.setattr(vm_module, "COMPILE_AFTER", compile_after)
            vm = make_vm(style)
            vm.execute(AuxFile())
            outcomes.append((vm.stack, vm.doc.finalize(), vm.log.records, vm.depth))
        assert outcomes[0] == outcomes[1]
        # main compiled at its first entry, and its blocks entered as calls did not
        assert vm._resolved[id(vm.program.functions["main"])].run is not None
        blocks = _block_bodies(vm)
        assert blocks and {body.run for body in blocks} == {None}

    def test_a_body_compiles_on_the_entry_after_compile_after(self, monkeypatch):
        monkeypatch.setattr(vm_module, "COMPILE_AFTER", 2)
        vm = make_vm("INTEGERS {n}\nFUNCTION {f} { n #1 + 'n := }\n")
        vm.execute(AuxFile())
        body = vm.program.functions["f"]
        compiled = []
        for _ in range(4):
            vm.exec_tokens(body)
            compiled.append(vm._resolved[id(body)].run is not None)
        assert compiled == [False, False, True, True]
        assert vm.globals_int["n"] == 4

    def test_bodies_of_one_shape_share_one_code_object(self):
        vm = make_vm('FUNCTION {a} { "x" write$ #1 }\nFUNCTION {b} { "y" write$ #2 }\n'
                     "FUNCTION {c} { #1 #2 + }\n")
        a, b, c = (compile_body(vm, vm._resolve_body(vm.program.functions[f])) for f in "abc")
        assert a.__code__ is b.__code__ is not c.__code__
        assert len(vm._codes) == 2
        assert (a(vm), b(vm), vm.stack, vm.doc.pending) == (None, None, [1, 2], "xy")

    def test_a_missing_field_read_does_not_fall_back(self):
        vm = _run_untitled("ENTRY {title}{}{s}\nREAD\n"
                           "FUNCTION {f} { title 's := title write$ title empty$ title }\n")
        vm.current = vm.entries[0]
        run_compiled = compile_body(vm, vm._resolve_body(vm.program.functions["f"]))
        assert run_compiled(vm) is None
        assert vm.stack == [1, MissingField("title", "k")]
        assert vm.current.strs["s"] == ""
        assert vm.log.records == [(WARNING, "`title' is a missing field, not a string, for entry k")] * 5

    def test_a_failed_guard_puts_the_slots_back_and_raises_the_handlers_error(self):
        vm = make_vm('INTEGERS {n}\nFUNCTION {f} { #1 "a" n * }\nFUNCTION {g} { #1 + }\n')
        vm.execute(AuxFile())

        def same_as_generic(body, below):
            """The error and the stack that body, compiled, leaves on the values below,
            which the generic tier leaves too."""
            ops = vm._resolve_body(body)
            outcomes = []
            for compiled in (True, False):
                vm.stack = list(below)
                with pytest.raises(VmError) as err:
                    if compiled:
                        compile_body(vm, ops)(vm)
                    else:
                        for handler, operand in ops:
                            handler(vm, operand)
                outcomes.append((str(err.value), vm.stack))
            assert outcomes[0] == outcomes[1]
            return outcomes[0]

        # * takes n, an integer, as a string: its handler pops n and raises
        assert same_as_generic(vm.program.functions["f"], ["below"]) == (
            "*: expected a string, got 0 (line 2)", ["below", 1, "a"])
        # + takes "x" from below the body, which goes back under the body's 1 for the handler
        assert same_as_generic(vm.program.functions["g"], ["below", "x"]) == (
            '+: expected an integer, got "x" (line 3)', ["below"])
        # guards that never hold fail as they run: + takes a { } block, write$ a quoted
        # name, and = takes an integer and a string
        for body, message, stack in [("#1 { } +", "+: expected an integer, got {...}", ["below", 1]),
                                     ("\"a\" 'g write$", "write$: expected a string, got 'g", ["below", "a"]),
                                     ('#1 "x" =', '=: operands must share a type, got 1 and "x"', ["below"])]:
            program, _ = parse_bst(f"FUNCTION {{h}} {{ {body} }}")
            assert same_as_generic(program.functions["h"], ["below"]) == (f"{message} (line 1)", stack)

    def test_a_fallback_in_place_to_a_handler_that_returns_is_an_internal_error(self, monkeypatch):
        import bibstack.vmcompile as vmcompile

        def add_unchecked(vm, at):  # + that takes anything, and so never raises
            del vm.stack[-2:]
            vm.stack.append(0)

        monkeypatch.setitem(BUILTINS, "+", (add_unchecked, 2, 1))
        monkeypatch.setitem(vmcompile._OPS, add_unchecked, vmcompile._OPS[vm_module._bi_add])
        monkeypatch.setattr(vm_module, "COMPILE_AFTER", 0)
        # the + in the block takes "a": its check fails in place, and the handler returns
        with pytest.raises(RuntimeError, match="add_unchecked returned"):
            _run_style("FUNCTION {f} { #1 { \"a\" #1 + } 'skip$ if$ }\nEXECUTE {f}\n")
        # and at the body's own level
        with pytest.raises(RuntimeError, match="add_unchecked returned"):
            _run_style('FUNCTION {f} { "a" #1 + }\nEXECUTE {f}\n')


@mock.patch.object(vm_module, "WHILE_LIMIT", STYLE_WHILE_LIMIT)
@settings(max_examples=300)
@given(VM_INPUTS)
def test_the_compiled_and_the_generic_tier_give_the_same_outcome(inputs):
    style, bibs, aux = inputs
    outcomes = []
    for compile_after in (NEVER, 0):
        with mock.patch.object(vm_module, "COMPILE_AFTER", compile_after):
            vm = Vm(parse_bst(style)[0], [parse_bib(b)[0] for b in bibs])
            vm.execute(parse_aux(aux))
        outcomes.append((vm.doc.finalize(), vm.log.records, vm.stack, vm.globals_int, vm.globals_str,
                         [(e.key, e.ints, e.strs) for e in vm.entries]))
    assert outcomes[0] == outcomes[1]


def test_a_compiled_body_falls_back_in_place_only_at_an_op_whose_handler_raises(monkeypatch):
    # so no op after the fallback runs, and the run ends in the handler's error, at a
    # body's own level and inside a block compiled in place
    import bibstack.vmcompile

    fell, levels = [], set()
    back = bibstack.vmcompile._Gen.back

    def said_back(gen):
        return f"fell({gen.blocks > 0}); {back(gen)}"

    def returned(handler):
        pytest.fail(f"{handler} returned at a failed check of a compiled body")

    monkeypatch.setattr(bibstack.vmcompile._Gen, "back", said_back)
    monkeypatch.setitem(bibstack.vmcompile._NAMESPACE, "fell", fell.append)
    monkeypatch.setitem(bibstack.vmcompile._NAMESPACE, "returned", returned)
    monkeypatch.setattr(vm_module, "COMPILE_AFTER", 0)
    monkeypatch.setattr(vm_module, "WHILE_LIMIT", STYLE_WHILE_LIMIT)
    runs = []

    @settings(max_examples=300)
    @given(VM_INPUTS)
    def run_style(inputs):
        style, bibs, aux = inputs
        fell.clear()
        vm = Vm(parse_bst(style)[0], [parse_bib(b)[0] for b in bibs])
        vm.execute(parse_aux(aux))  # raises any error but a VmError
        if fell:
            runs.append((len(fell), vm.log.records[-1][0]))
            levels.update(fell)

    run_style()
    assert runs
    assert set(runs) == {(1, ERROR)}
    assert levels == {False, True}  # in a block and at a body's own level


# -- metamorphic relations ----------------------------------------------------

_STYLE_AUX = parse_aux("\\citation{Ulam-1964}\n\\citation{absent}\n\\citation{YangYu}\n\\citation{Poincare}\n")
_STYLE_DB = parse_bib(SAMPLE_BIB + EXTRA_BIB_ENTRY)[0]


def _bbl_and_blg(program) -> tuple:
    doc, log = run(program, _STYLE_AUX, [_STYLE_DB])
    return doc.finalize(), log.records


@mock.patch.object(vm_module, "WHILE_LIMIT", STYLE_WHILE_LIMIT)
@settings(max_examples=50)
@given(STYLE_TEXT)
def test_crlf_line_ends_in_the_style_change_no_output(style):
    # the same program (token lines included), diagnostics and output for LF, CR and CRLF
    lf = parse_bst(style)
    for eol in ("\r", "\r\n"):
        other = parse_bst(style.replace("\n", eol))
        assert other == lf
        assert _bbl_and_blg(other[0]) == _bbl_and_blg(lf[0])


@mock.patch.object(vm_module, "WHILE_LIMIT", STYLE_WHILE_LIMIT)
@settings(max_examples=50)
@given(STYLE_TEXT)
def test_formatted_style_writes_the_same_bbl(style):
    # the .blg may differ: format_program puts each command on a line of its own
    program, _ = parse_bst(style)
    again, _ = parse_bst(format_program(program))
    assert _bbl_and_blg(again)[0] == _bbl_and_blg(program)[0]


def _with_skips(tokens: list) -> list:
    """The tokens with a skip$ between every two, inside blocks too."""
    out = []
    for tok in tokens:
        if out:
            out.append(Token("id", "skip$", tok.line))
        out.append(Token("block", _with_skips(tok.value), tok.line) if tok.kind == "block" else tok)
    return out


def _outcome(program) -> tuple:
    vm = Vm(program, [_STYLE_DB])
    vm.execute(_STYLE_AUX)
    # a block left on the stack holds the tokens of its own program
    stack = [("block",) if isinstance(v, FnRef) and v.body is not None else v for v in vm.stack]
    return (vm.doc.finalize(), vm.log.records, stack, vm.globals_int, vm.globals_str,
            [(e.key, e.ints, e.strs) for e in vm.entries])


@mock.patch.object(vm_module, "WHILE_LIMIT", STYLE_WHILE_LIMIT)
@settings(max_examples=300)
@given(STYLE_TEXT)
def test_a_skip_between_every_two_tokens_changes_no_outcome(style):
    # a skip$ between 'v and := or before if$ runs the generic builtin where a bound op ran
    program, _ = parse_bst(style)
    assume(not any("skip$" in declared for cmd in program.commands for _, declared in declare({}, cmd)))
    skipped = BstProgram(program.commands, {name: _with_skips(body) for name, body in program.functions.items()},
                         program.source)
    assert _outcome(skipped) == _outcome(program)
