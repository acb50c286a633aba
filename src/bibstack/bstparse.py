"""Tokenizer and top-level command parser for .bst style programs.

A program is a sequence of commands (ENTRY, FUNCTION, READ, EXECUTE,
ITERATE, SORT, STRINGS, INTEGERS) whose order is the execution order.
Function bodies are kept as token lists and interpreted by the vm module.
Identifiers are case-insensitive and normalized to lowercase.

The tokenizer is one pass of a single pattern; {...} groups are built on
an explicit stack, so no nesting depth reaches Python's recursion limit.
"""

from __future__ import annotations

import re

from .diagnostics import ERROR, LINE_END, Diagnostic, Record
from .vm import BUILTINS as KNOWN_BUILTINS


class Token(Record):
    # kind: string | int | id | quoted | block; value: str payload, int value, or nested token list
    __slots__ = ("kind", "value", "line")
    def __init__(self, kind: str, value: object, line: int = 0):
        self.kind, self.value, self.line = kind, value, line


class BstCommand(Record):
    __slots__ = ("kind", "operand", "line")
    def __init__(self, kind: str, operand: object = None, line: int = 0):
        self.kind, self.operand, self.line = kind, operand, line


class BstProgram(Record):
    __slots__ = ("commands", "functions", "source")
    def __init__(self, commands=None, functions=None, source: str = "<bst>"):
        self.commands: list[BstCommand] = [] if commands is None else commands
        self.functions: dict[str, list[Token]] = {} if functions is None else functions
        self.source = source


def parse_bst(text: str, source_name: str = "<bst>") -> tuple[BstProgram, list[Diagnostic]]:
    """Parse .bst source text; raises nothing: every problem is a Diagnostic."""
    diags: list[Diagnostic] = []
    tokens = _tokenize(text, source_name, diags)
    program = BstProgram(source=source_name)
    _parse_commands(tokens, program, source_name, diags)
    return program, diags


# ---------------------------------------------------------------------------
# tokenizer

_IDENT = r"[a-zA-Z0-9.$\-_:=<>+*]"
# the one pattern, as a source compiled as database's docstring says
_TOKEN = (
    rf"(?P<newline>{LINE_END})"
    r"|(?P<space>[^\S\r\n]+)"
    r"|(?P<comment>%[^\r\n]*)"
    r'|(?P<string>"[^"\r\n]*"?)'
    r"|(?P<int>#[+-]?\d*)"
    rf"|(?P<quoted>'{_IDENT}*)"
    r"|(?P<open>\{)"
    r"|(?P<close>\})"
    rf"|(?P<id>{_IDENT}+)"
    r"|(?P<other>.)"
)


def _tokenize(text: str, source: str, diags: list[Diagnostic]) -> list[Token]:
    line = 1
    # stack[-1] is the token list of the innermost open {...} group
    stack: list[list[Token]] = [[]]

    def err(message: str, fatal: bool = False) -> None:
        diags.append(Diagnostic(ERROR, message, line, source, fatal=fatal))

    for m in re.compile(_TOKEN).finditer(text):
        kind = m.lastgroup
        tok = m.group()
        if kind == "newline":
            line += 1
        elif kind == "id":
            stack[-1].append(Token("id", tok.lower(), line))
        elif kind == "string":
            if len(tok) > 1 and tok.endswith('"'):
                stack[-1].append(Token("string", tok[1:-1], line))
            else:
                where = "line" if m.end() < len(text) else "file"
                err(f"string literal does not close before end of {where}")
                stack[-1].append(Token("string", tok[1:], line))
        elif kind == "int":
            if tok[1:] in ("", "+", "-"):
                err("`#' must be followed by an integer literal")
            else:
                stack[-1].append(Token("int", int(tok[1:]), line))
        elif kind == "quoted":
            if len(tok) > 1:
                stack[-1].append(Token("quoted", tok[1:].lower(), line))
            else:
                err("`'' must be followed by an identifier")
        elif kind == "open":
            block = Token("block", [], line)
            stack[-1].append(block)
            stack.append(block.value)
        elif kind == "close":
            if len(stack) > 1:
                stack.pop()
            else:
                err("unexpected `}'")
        elif kind == "other":
            err(f"unexpected character {tok!r}")
    for _ in stack[1:]:
        err("unclosed `{' at end of file", fatal=True)
    return stack[0]


# ---------------------------------------------------------------------------
# command parser

# each command keyword: how many {...} groups it takes, and the words its
# "expects" error uses for them; None marks a command that is not supported
_GRAMMAR = {
    "entry": (3, "three {...} groups"),
    "function": (2, "{name} {body}"),
    "execute": (1, "a {name} group"),
    "iterate": (1, "a {name} group"),
    "strings": (1, "a {names} group"),
    "integers": (1, "a {names} group"),
    "read": (0, ""),
    "sort": (0, ""),
    "macro": (2, None),
    "reverse": (1, None),
}


def _parse_commands(tokens: list[Token], program: BstProgram, source: str,
                    diags: list[Diagnostic]) -> None:
    def err(message: str, line: int) -> None:
        diags.append(Diagnostic(ERROR, message, line, source))

    given_once: set[str] = set()  # ENTRY and READ may each be given once
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        i += 1
        if tok.kind == "block" and _single_name(tok) == "sort":
            # `{SORT}` is accepted as a spelling of the bare SORT command
            program.commands.append(BstCommand("sort", line=tok.line))
            continue
        if tok.kind != "id":
            err(f"expected a command, got {_describe(tok)}", tok.line)
            continue
        kw = tok.value
        if kw not in _GRAMMAR:
            err(f"unknown command `{kw}'", tok.line)
            continue
        count, words = _GRAMMAR[kw]
        groups, i = _take_blocks(tokens, i, count)
        if words is None:
            err(f"unsupported command `{kw.upper()}'", tok.line)
            continue
        if len(groups) < count:
            err(f"{kw.upper()} expects {words}", tok.line)
            continue
        operand = None
        if kw in ("function", "execute", "iterate"):
            operand = _single_name(groups[0])
            if operand is None:
                what = "name" if kw == "function" else "target"
                err(f"{kw.upper()} {what} group must hold exactly one identifier", tok.line)
                continue
        if kw in ("entry", "read"):
            if kw in given_once:
                err(f"duplicate {kw.upper()} command", tok.line)
                continue
            given_once.add(kw)
        if kw == "entry":
            operand = tuple(_block_names(g, err) for g in groups)
        elif kw == "function":
            if operand in program.functions:
                err(f"function `{operand}' is redefined; first definition kept", tok.line)
                continue
            program.functions[operand] = groups[1].value
        elif kw in ("execute", "iterate"):
            if operand not in program.functions and operand not in KNOWN_BUILTINS:
                err(f"{kw.upper()} target `{operand}' should be already described", tok.line)
                continue
        elif kw in ("strings", "integers"):
            operand = _block_names(groups[0], err)
        program.commands.append(BstCommand(kw, operand, tok.line))


def _take_blocks(tokens: list[Token], i: int, count: int) -> tuple[list[Token], int]:
    """Up to count {...} groups from tokens[i], and the offset past them."""
    groups = []
    while len(groups) < count and i < len(tokens) and tokens[i].kind == "block":
        groups.append(tokens[i])
        i += 1
    return groups, i


def _block_names(block: Token, err) -> list[str]:
    names = []
    for tok in block.value:
        if tok.kind == "id":
            names.append(tok.value)
        else:
            err(f"expected identifiers inside the group, got {_describe(tok)}", tok.line)
    return names


def _single_name(block: Token) -> str | None:
    body = block.value
    if len(body) == 1 and body[0].kind == "id":
        return body[0].value
    return None


def _describe(tok: Token) -> str:
    """How an error names tok, which is never an identifier."""
    if tok.kind == "block":
        return "a {...} group"
    if tok.kind == "string":
        return f'string "{tok.value}"'
    if tok.kind == "int":
        return f"integer #{tok.value}"
    return f"quoted identifier '{tok.value}"


# ---------------------------------------------------------------------------
# serialization (round-trip support and diagnostics)

def walk_tokens(tokens: list[Token]):
    """Tokens in source order, a block before its contents and None after them."""
    # an explicit stack of open blocks keeps deep nesting off the Python call stack
    stack = [iter(tokens)]
    while stack:
        for tok in stack[-1]:
            yield tok
            if tok.kind == "block":
                stack.append(iter(tok.value))
                break
        else:
            stack.pop()
            if stack:
                yield None


_FORMATS = {"string": '"%s"', "int": "#%s", "quoted": "'%s", "id": "%s"}


def format_tokens(tokens: list[Token]) -> str:
    parts = []
    for tok in walk_tokens(tokens):
        if tok is None:
            parts.append("}")
        elif tok.kind == "block":
            parts.append("{")
        else:
            parts.append(_FORMATS[tok.kind] % tok.value)
    return " ".join(parts)


def format_program(program: BstProgram) -> str:
    lines = []
    for cmd in program.commands:
        operand = cmd.operand
        if cmd.kind == "function":
            groups = [operand, format_tokens(program.functions[operand])]
        elif cmd.kind == "entry":
            groups = [" ".join(names) for names in operand]
        elif cmd.kind in ("strings", "integers"):
            groups = [" ".join(operand)]
        else:  # EXECUTE and ITERATE name their target; READ and SORT take no group
            groups = [] if operand is None else [operand]
        lines.append(" ".join([cmd.kind.upper()] + ["{ %s }" % g for g in groups]))
    return "\n".join(lines) + "\n"
