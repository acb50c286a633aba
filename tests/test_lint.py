"""Tests for the static style checks."""

from bibstack.bstparse import parse_bst
from bibstack.lint import lint_program

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
