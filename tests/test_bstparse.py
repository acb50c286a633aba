"""Tests for .bst tokenizing and command parsing."""

from hypothesis import given

from bibstack.bstparse import BstProgram, Token, format_program, format_tokens, parse_bst
from bibstack.diagnostics import Diagnostic

from fixtures import AUTHOR_SORT_FRAGMENT, BST_TEXT, HELLO_BST, SCANNER_TEXT, with_sort_fragment


def shape(tokens):
    """Token tree without line numbers, for structural comparison."""
    out = []
    for tok in tokens:
        if tok.kind == "block":
            out.append(("block", shape(tok.value)))
        else:
            out.append((tok.kind, tok.value))
    return out


def flat(tokens):
    """Token tree as a (depth, kind, value) list in source order, without recursion."""
    out = []
    stack = [iter(tokens)]
    while stack:
        for tok in stack[-1]:
            if tok.kind == "block":
                out.append((len(stack), "block", None))
                stack.append(iter(tok.value))
                break
            out.append((len(stack), tok.kind, tok.value))
        else:
            stack.pop()
    return out


class TestHelloStyle:
    def test_command_sequence(self):
        program, diags = parse_bst(HELLO_BST)
        assert diags == []
        assert [c.kind for c in program.commands] == [
            "entry", "function", "function", "function", "read",
            "function", "execute", "iterate", "function", "execute",
        ]

    def test_functions_defined(self):
        program, _ = parse_bst(HELLO_BST)
        assert set(program.functions) == {
            "output.bibitem", "article", "book", "begin.bib", "end.bib",
        }

    def test_entry_payload(self):
        program, _ = parse_bst(HELLO_BST)
        entry = program.commands[0]
        assert entry.operand == (["author"], [], [])

    def test_targets(self):
        program, _ = parse_bst(HELLO_BST)
        assert program.commands[6].operand == "begin.bib"
        assert program.commands[7].operand == "call.type$"
        assert program.commands[9].operand == "end.bib"

    def test_sort_fragment_appended_after_read(self):
        program, diags = parse_bst(with_sort_fragment(HELLO_BST, AUTHOR_SORT_FRAGMENT))
        assert diags == []
        kinds = [c.kind for c in program.commands]
        read_at = kinds.index("read")
        assert kinds[read_at + 1 : read_at + 4] == ["function", "iterate", "sort"]
        assert "bib.sort.order" in program.functions


class TestParsing:
    def test_empty_source(self):
        program, diags = parse_bst("")
        assert program.commands == [] and program.functions == {}
        assert diags == []

    def test_comments_stripped(self):
        program, diags = parse_bst("% a comment\nREAD % trailing\n")
        assert diags == []
        assert [c.kind for c in program.commands] == ["read"]

    def test_keywords_case_insensitive(self):
        program, diags = parse_bst("Read\nSoRt\n")
        assert diags == []
        assert [c.kind for c in program.commands] == ["read", "sort"]

    def test_braced_and_bare_sort(self):
        program, diags = parse_bst("SORT\n{SORT}\n")
        assert diags == []
        assert [c.kind for c in program.commands] == ["sort", "sort"]

    def test_identifiers_lowercased(self):
        program, _ = parse_bst("FUNCTION {Fn} { Cite$ }")
        assert "fn" in program.functions
        assert shape(program.functions["fn"]) == [("id", "cite$")]

    def test_int_literals(self):
        program, _ = parse_bst("FUNCTION {f} { #1 #-5 #+7 }")
        assert shape(program.functions["f"]) == [("int", 1), ("int", -5), ("int", 7)]

    def test_quoted_identifier(self):
        program, _ = parse_bst("FUNCTION {f} { 'sort.key$ }")
        assert shape(program.functions["f"]) == [("quoted", "sort.key$")]

    def test_string_literal(self):
        program, _ = parse_bst('FUNCTION {f} { "\\bibitem{" }')
        assert shape(program.functions["f"]) == [("string", "\\bibitem{")]

    def test_nesting_depth_matches_braces(self):
        program, diags = parse_bst("FUNCTION {f} { { { #1 } } #2 }")
        assert diags == []
        body = program.functions["f"]
        assert body[0].kind == "block"
        assert body[0].value[0].kind == "block"
        assert body[0].value[0].value[0].kind == "int"
        assert body[1].kind == "int"


class TestErrors:
    def test_unbalanced_braces_fatal(self):
        _, diags = parse_bst("FUNCTION {f} { #1 ")
        assert any(d.fatal for d in diags)

    def test_string_spanning_lines(self):
        _, diags = parse_bst('FUNCTION {f} { "ab\ncd" }')
        assert any("string literal" in d.message for d in diags)

    def test_execute_before_definition(self):
        _, diags = parse_bst("EXECUTE {later}\nFUNCTION {later} { skip$ }")
        assert any("should be already described" in d.message for d in diags)

    def test_iterate_unknown_target(self):
        _, diags = parse_bst("ITERATE {nowhere}")
        assert any("should be already described" in d.message for d in diags)

    def test_execute_builtin_target_allowed(self):
        program, diags = parse_bst("ITERATE {call.type$}")
        assert diags == []
        assert program.commands[0].operand == "call.type$"

    def test_redefinition_keeps_first(self):
        program, diags = parse_bst(
            'FUNCTION {f} { "one" }\nFUNCTION {f} { "two" }'
        )
        assert any("redefined" in d.message for d in diags)
        assert shape(program.functions["f"]) == [("string", "one")]

    def test_duplicate_entry_command(self):
        _, diags = parse_bst("ENTRY {a}{}{}\nENTRY {b}{}{}")
        assert any("duplicate ENTRY" in d.message for d in diags)

    def test_duplicate_read_command_is_dropped(self):
        program, diags = parse_bst("ENTRY {a}{}{}\nREAD\nREAD")
        assert [(d.severity, d.message, d.line) for d in diags] == [("error", "duplicate READ command", 3)]
        assert [cmd.kind for cmd in program.commands] == ["entry", "read"]

    def test_macro_and_reverse_unsupported(self):
        _, diags = parse_bst('MACRO {jan} {"January"}\nREVERSE {f}')
        messages = [d.message for d in diags]
        assert any("unsupported command `MACRO'" in m for m in messages)
        assert any("unsupported command `REVERSE'" in m for m in messages)

    def test_unsupported_commands_skip_their_groups(self):
        # MACRO takes up to two groups and REVERSE one; a further group is a stray token
        program, diags = parse_bst('MACRO {jan} {"January"} {x}\nREVERSE {f} {y}\nREAD')
        assert [(d.message, d.line) for d in diags] == [
            ("unsupported command `MACRO'", 1),
            ("expected a command, got a {...} group", 1),
            ("unsupported command `REVERSE'", 2),
            ("expected a command, got a {...} group", 2),
        ]
        assert [c.kind for c in program.commands] == ["read"]

    def test_errors_carry_line_numbers(self):
        _, diags = parse_bst("READ\nEXECUTE {ghost}\n")
        assert diags[0].line == 2

    def test_hash_then_non_decimal_digit_is_a_diagnostic(self):
        # `²' counts for str.isdigit but not for int()
        program, diags = parse_bst("FUNCTION {f} { #\u00b2 }")
        assert [(d.message, d.line) for d in diags] == [
            ("`#' must be followed by an integer literal", 1),
            ("unexpected character '\u00b2'", 1),
        ]
        assert program.functions == {"f": []}

    def test_deep_nesting_needs_no_recursion(self):
        depth = 100_000
        program, diags = parse_bst("FUNCTION {f} " + "{" * depth + "}" * depth)
        assert diags == []
        block, levels = program.functions["f"], 1
        while block:
            block, levels = block[0].value, levels + 1
        assert levels == depth


GOLDEN_BST = (
    "}\n"
    "FUNCTION {f} { ' }\r\n"
    "FUNCTION {g} { # #+ #-3 }\n"
    "FUNCTION {h} { \"open\n }\n"
    "FUNCTION {k} { ! }\n"
    "FUNCTION {m} { {\n  { 'x\n"
    "\"tail"
)


class TestGoldenDiagnostics:
    """Exact tokenizer diagnostics, in order, for one text that triggers each of them."""

    def test_every_tokenizer_error_with_its_line(self):
        program, diags = parse_bst(GOLDEN_BST, "g.bst")
        assert [(d.severity, d.message, d.line, d.fatal) for d in diags] == [
            ("error", "unexpected `}'", 1, False),
            ("error", "`'' must be followed by an identifier", 2, False),
            ("error", "`#' must be followed by an integer literal", 3, False),
            ("error", "`#' must be followed by an integer literal", 3, False),
            ("error", "string literal does not close before end of line", 4, False),
            ("error", "unexpected character '!'", 6, False),
            ("error", "string literal does not close before end of file", 9, False),
            ("error", "unclosed `{' at end of file", 9, True),
            ("error", "unclosed `{' at end of file", 9, True),
            ("error", "unclosed `{' at end of file", 9, True),
        ]
        assert {d.source for d in diags} == {"g.bst"}
        assert [(c.kind, c.operand, c.line) for c in program.commands] == [
            ("function", "f", 2), ("function", "g", 3), ("function", "h", 4),
            ("function", "k", 6), ("function", "m", 7),
        ]
        assert program.functions == {
            "f": [],
            "g": [Token("int", -3, 3)],
            "h": [Token("string", "open", 4)],
            "k": [],
            "m": [Token("block", [
                Token("block", [Token("quoted", "x", 8), Token("string", "tail", 9)], 8),
            ], 7)],
        }


GOLDEN_COMMANDS_BST = (
    "ENTRY {a} {b}\n"
    "FUNCTION {f}\n"
    "FUNCTION {g h} {skip$}\n"
    "FUNCTION {\"s\"} {skip$}\n"
    "FUNCTION {} {skip$}\n"
    "EXECUTE\n"
    "ITERATE {#1}\n"
    "EXECUTE {a b}\n"
    "ITERATE {{f}}\n"
    "ITERATE\n"
    "STRINGS\n"
    "INTEGERS x\n"
    "STRINGS {s #3 \"q\" 'r {t} u}\n"
    "INTEGERS {n #-4}\n"
    "\"lit\" #7 'quo {blk} {SORT}\n"
    "ENTRY {x #1} {} {'y}\n"
)


class TestGoldenCommandDiagnostics:
    """Exact command-parser diagnostics, in order, for one text that triggers each of them."""

    def test_every_command_error_with_its_line(self):
        program, diags = parse_bst(GOLDEN_COMMANDS_BST, "c.bst")
        assert [(d.severity, d.message, d.line) for d in diags] == [
            ("error", "ENTRY expects three {...} groups", 1),
            ("error", "FUNCTION expects {name} {body}", 2),
            ("error", "FUNCTION name group must hold exactly one identifier", 3),
            ("error", "FUNCTION name group must hold exactly one identifier", 4),
            ("error", "FUNCTION name group must hold exactly one identifier", 5),
            ("error", "EXECUTE expects a {name} group", 6),
            ("error", "ITERATE target group must hold exactly one identifier", 7),
            ("error", "EXECUTE target group must hold exactly one identifier", 8),
            ("error", "ITERATE target group must hold exactly one identifier", 9),
            ("error", "ITERATE expects a {name} group", 10),
            ("error", "STRINGS expects a {names} group", 11),
            ("error", "INTEGERS expects a {names} group", 12),
            ("error", "unknown command `x'", 12),
            ("error", "expected identifiers inside the group, got integer #3", 13),
            ("error", 'expected identifiers inside the group, got string "q"', 13),
            ("error", "expected identifiers inside the group, got quoted identifier 'r", 13),
            ("error", "expected identifiers inside the group, got a {...} group", 13),
            ("error", "expected identifiers inside the group, got integer #-4", 14),
            ("error", 'expected a command, got string "lit"', 15),
            ("error", "expected a command, got integer #7", 15),
            ("error", "expected a command, got quoted identifier 'quo", 15),
            ("error", "expected a command, got a {...} group", 15),
            ("error", "expected identifiers inside the group, got integer #1", 16),
            ("error", "expected identifiers inside the group, got quoted identifier 'y", 16),
        ]
        assert {d.source for d in diags} == {"c.bst"}
        assert not any(d.fatal for d in diags)
        assert [(c.kind, c.operand, c.line) for c in program.commands] == [
            ("strings", ["s", "u"], 13), ("integers", ["n"], 14), ("sort", None, 15),
            ("entry", (["x"], [], []), 16),
        ]
        assert program.functions == {}


class TestStringsIntegers:
    def test_declarations(self):
        program, diags = parse_bst("STRINGS { s t }\nINTEGERS { n }")
        assert diags == []
        assert program.commands[0].operand == ["s", "t"]
        assert program.commands[1].operand == ["n"]


class TestRoundTrip:
    def test_hello_style_round_trips(self):
        program, _ = parse_bst(HELLO_BST)
        reparsed, diags = parse_bst(format_program(program))
        assert diags == []
        assert [c.kind for c in reparsed.commands] == [c.kind for c in program.commands]
        for name, body in program.functions.items():
            assert shape(reparsed.functions[name]) == shape(body)

    def test_deep_nesting_round_trips(self):
        depth = 3000
        program, _ = parse_bst("FUNCTION {f} " + "{" * depth + "}" * depth)
        reparsed, diags = parse_bst(format_program(program))
        assert diags == []
        assert [(c.kind, c.operand) for c in reparsed.commands] == [("function", "f")]
        assert flat(reparsed.functions["f"]) == flat(program.functions["f"])
        assert len(flat(program.functions["f"])) == depth - 1  # the outer group is the body

    def test_token_serialization_round_trips(self):
        source = 'FUNCTION {f} { #1 "x y" \'g { skip$ { cite$ } } }'
        program, _ = parse_bst(source)
        text = format_tokens(program.functions["f"])
        reparsed, diags = parse_bst("FUNCTION {f} { %s }" % text)
        assert diags == []
        assert shape(reparsed.functions["f"]) == shape(program.functions["f"])


@given(SCANNER_TEXT)
def test_any_text_parses_with_diagnostics(text):
    program, diags = parse_bst(text)
    assert isinstance(program, BstProgram)
    assert all(isinstance(d, Diagnostic) for d in diags)
    assert all(1 <= d.line <= len(text.splitlines()) + 1 for d in diags)


@given(BST_TEXT)
def test_format_program_round_trips(text):
    program = parse_bst(text)[0]
    reparsed, diags = parse_bst(format_program(program))
    assert diags == []
    assert [(c.kind, c.operand) for c in reparsed.commands] == [
        (c.kind, c.operand) for c in program.commands]
    assert {name: flat(body) for name, body in reparsed.functions.items()} == {
        name: flat(body) for name, body in program.functions.items()}
