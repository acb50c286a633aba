"""Tests for the static style checks."""

import re
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bibstack.auxfile import AuxFile
from bibstack.bstparse import parse_bst
from bibstack.lint import lint_program
from bibstack.vm import BUILTINS, RuntimeEntry, Vm, VmError

from fixtures import HELLO_BST


def lint(source):
    program, diags = parse_bst(source)
    return lint_program(program), diags


class TestCleanStyle:
    def test_hello_style_has_no_findings(self):
        findings, diags = lint(HELLO_BST)
        assert diags == []
        assert findings == []


class TestResolution:
    def test_unresolvable_identifier(self):
        findings, _ = lint("FUNCTION {f} { ghost.var }")
        assert any("does not resolve" in f.message for f in findings)

    def test_unsupported_builtin_named(self):
        findings, _ = lint("FUNCTION {f} { \"a\" purify$ }")
        assert any("not a supported builtin" in f.message for f in findings)

    def test_quoted_names_checked(self):
        findings, _ = lint("FUNCTION {f} { 'ghost }")
        assert any("ghost" in f.message for f in findings)

    def test_each_name_reported_once(self):
        findings, _ = lint("FUNCTION {f} { ghost ghost ghost }")
        assert sum("ghost" in f.message for f in findings) == 1


class TestUnreadFields:
    def test_declared_but_never_read(self):
        findings, _ = lint("ENTRY {author title}{}{}\nFUNCTION {article} { author write$ }\n")
        assert any("`title' is declared but never read" in f.message for f in findings)
        assert not any("`author'" in f.message for f in findings)

    def test_unread_fields_reported_in_declaration_order(self):
        findings, _ = lint("ENTRY {zeta alpha mid omega}{}{}\n")
        assert [f.message for f in findings] == [
            f"field `{name}' is declared but never read" for name in ("zeta", "alpha", "mid", "omega")
        ]


class TestStackEffect:
    def test_execute_of_unbalanced_function(self):
        findings, _ = lint("FUNCTION {main} { #1 #2 + }\nEXECUTE {main}\n")
        assert any("net stack effect +1" in f.message for f in findings)

    def test_balanced_function_is_clean(self):
        findings, _ = lint(
            'STRINGS { s }\nFUNCTION {main} { "a" "b" * \'s := }\nEXECUTE {main}\n'
        )
        assert findings == []

    def test_balanced_if_branches(self):
        findings, _ = lint(
            'FUNCTION {main} { #1 #2 = { "x" write$ } { skip$ } if$ }\nEXECUTE {main}\n'
        )
        assert findings == []

    def test_unbalanced_if_branches_skipped(self):
        # branches disagree, so the effect is data-dependent and unreported
        findings, _ = lint(
            'FUNCTION {main} { #1 { "x" } { skip$ } if$ }\nEXECUTE {main}\n'
        )
        assert findings == []

    def test_while_pattern_recognized(self):
        findings, _ = lint(
            "INTEGERS { n }\n"
            "FUNCTION {main} { #3 'n := { n #0 > } { n #1 - 'n := } while$ }\n"
            "EXECUTE {main}\n"
        )
        assert findings == []

    def test_negative_effect_reported(self):
        findings, _ = lint("FUNCTION {main} { write$ }\nEXECUTE {main}\n")
        assert any("net stack effect -1" in f.message for f in findings)

    def test_iterate_targets_checked(self):
        findings, _ = lint(
            "ENTRY {author}{}{}\nREAD\nFUNCTION {each} { author }\nITERATE {each}\n"
        )
        assert any("net stack effect +1" in f.message for f in findings)

    @pytest.mark.parametrize("source", [
        # an if$ operand that is neither a block nor a quoted name
        "ENTRY {title}{}{}\nFUNCTION {f} { #1 title title if$ }\nREAD\nITERATE {f}\n",
        # the call to g makes the walk forget the block pushed before it
        "FUNCTION {g} { skip$ }\nFUNCTION {main} { #1 {skip$} g {skip$} if$ }\nEXECUTE {main}\n",
        # a while$ predicate that does not push exactly one value
        "FUNCTION {main} { {#1 #2} {skip$} while$ }\nEXECUTE {main}\n",
        # a while$ body that changes the stack
        "FUNCTION {main} { {#1} {#1} while$ }\nEXECUTE {main}\n",
    ])
    def test_unknown_effect_is_not_reported(self, source):
        findings, diags = lint(source)
        assert diags == []
        assert findings == []

    def test_unresolved_name_leaves_the_effect_unknown(self):
        findings, _ = lint("FUNCTION {main} { #1 ghost }\nEXECUTE {main}\n")
        assert [(f.message, f.line) for f in findings] == [
            ("`ghost' does not resolve to a field, variable, builtin, or function", 1)
        ]

    def test_nested_function_calls_accumulate(self):
        # push.two nets +2, the + nets -1, so main nets +1; only the
        # EXECUTE target is reported, helpers may legitimately push
        findings, _ = lint(
            "FUNCTION {push.two} { #1 #2 }\n"
            "FUNCTION {main} { push.two + }\n"
            "EXECUTE {main}\n"
        )
        assert [f.message for f in findings] == [
            "`main' has net stack effect +1 when run by EXECUTE"
        ]

    def test_effects_carry_up_a_deep_call_chain(self):
        # each level adds one and runs the level below from an if$ block and
        # a quoted name, deeper than Python's recursion limit
        chain = "".join(
            f"FUNCTION {{f{i}}} {{ #1 {{ f{i - 1} }} 'f{i - 1} if$ #1 }}\n" for i in range(1, 3000))
        findings, _ = lint("FUNCTION {f0} { skip$ }\n" + chain + "EXECUTE {f2999}\n")
        assert [f.message for f in findings] == [
            "`f2999' has net stack effect +2999 when run by EXECUTE"
        ]

    def test_long_body_is_linear(self):
        # 32k calls in one body: a walk that revisits every slot after each call is quadratic
        program, _ = parse_bst("FUNCTION {g} { skip$ }\nFUNCTION {f} { " + "#1 g " * 32_000 + "}\nEXECUTE {f}\n")
        start = time.perf_counter()
        findings = lint_program(program)
        assert time.perf_counter() - start < 2.0
        assert [f.message for f in findings] == ["`f' has net stack effect +32000 when run by EXECUTE"]


# a small pool, so that random declarations often give one name several kinds
_POOL = ["a", "b", "title", "sort.key$", "cite$", "skip$", "purify$", "ghost"]
_NAME_SETS = st.lists(st.sampled_from(_POOL), max_size=3, unique=True)


@given(
    fields=_NAME_SETS, ints=_NAME_SETS, strs=_NAME_SETS,
    globals_=st.lists(st.tuples(st.sampled_from(["STRINGS", "INTEGERS"]), _NAME_SETS), max_size=3),
    functions=_NAME_SETS,
)
def test_lint_and_vm_agree_on_what_resolves(fields, ints, strs, globals_, functions):
    source = "ENTRY {%s}{%s}{%s}\n" % (" ".join(fields), " ".join(ints), " ".join(strs))
    source += "".join("%s {%s}\n" % (kw, " ".join(names)) for kw, names in globals_)
    source += "".join("FUNCTION {%s} { }\n" % name for name in functions)
    source += "FUNCTION {uses.all} { %s }\n" % " ".join("'" + name for name in _POOL)
    findings, diags = lint(source)
    assert diags == []
    lint_unresolved = {name for name in _POOL
                       if f"`{name}' does not resolve to a field, variable, builtin, or function"
                       in [f.message for f in findings]}
    lint_unsupported = {name for name in _POOL
                        if f"`{name}' is not a supported builtin" in [f.message for f in findings]}

    vm = Vm(parse_bst(source)[0], [])
    vm.execute(AuxFile())
    vm.current = RuntimeEntry(key="k", entry_type="misc", fields={})
    vm_unresolved, vm_unsupported = set(), set()
    for name in _POOL:
        vm.stack = []
        try:
            vm.exec_ident(name, 0)
        except VmError as err:
            if str(err).startswith(f"unknown identifier `{name}'"):
                vm_unresolved.add(name)
            elif str(err).startswith(f"unsupported builtin `{name}'"):
                vm_unsupported.add(name)
    assert lint_unresolved == vm_unresolved
    assert lint_unsupported == vm_unsupported


_DECLARATIONS = "ENTRY {title}{n}{s}\nSTRINGS {gs}\nINTEGERS {gi}\n"
_FIXED_ARITY = sorted(name for name, (_fn, pops, _) in BUILTINS.items() if pops is not None)
_BODY_TOKENS = st.sampled_from(
    ['"x"', '"Doe, John and Roe, Jane"', '"{ff}"', "#0", "#1", "#2",
     "title", "n", "s", "gs", "gi", "'n", "'s", "'gs", "'gi"] + _FIXED_ARITY
)
_VALUES = st.sampled_from(["", "y", "Doe, John", "{vv~}{ll}", 0, 1, 3])


@given(body=st.lists(_BODY_TOKENS, max_size=8), below=st.lists(_VALUES, max_size=4))
def test_constant_stack_effect_matches_vm_stack_delta(body, below):
    source = _DECLARATIONS + "FUNCTION {body} { %s }\nITERATE {body}\n" % " ".join(body)
    findings, diags = lint(source)
    assert diags == []
    effects = [re.search(r"net stack effect ([-+]\d+)", f.message) for f in findings]
    effect = sum(int(m.group(1)) for m in effects if m)

    vm = Vm(parse_bst(source)[0], [])
    vm.execute(AuxFile())
    vm.current = RuntimeEntry(key="k", entry_type="misc", fields={"title": "T. Itle"})
    vm.stack = list(below)
    try:
        vm.exec_ident("body", 0)
    except VmError:
        return
    assert len(vm.stack) - len(below) == effect
