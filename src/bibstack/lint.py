"""Static checks for style programs.

Reported findings: identifiers that resolve to nothing, declared fields
that no body ever reads, and EXECUTE/ITERATE targets whose net stack
effect is a nonzero constant (a run of such a program cannot end with
an empty stack).  The effect analysis is best-effort: data-dependent
control flow makes a function's effect unknown and it is then skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bstparse import BstProgram, Token
from .vm import BUILTINS, UNSUPPORTED_BUILTINS


@dataclass
class Finding:
    message: str
    line: int = 0


def lint_program(program: BstProgram) -> list[Finding]:
    findings: list[Finding] = []
    space = _Namespace(program)

    reported: set[str] = set()
    read_fields: set[str] = set()
    for name, body in program.functions.items():
        _walk_identifiers(body, space, read_fields, reported, findings)

    for fname in space.fields:
        if fname not in read_fields:
            findings.append(Finding(f"field `{fname}' is declared but never read"))

    analyzer = _EffectAnalyzer(program, space)
    for cmd in program.commands:
        if cmd.kind not in ("execute", "iterate"):
            continue
        effect = analyzer.effect_of_name(cmd.operand)
        if effect is not None and effect != 0:
            sign = f"+{effect}" if effect > 0 else str(effect)
            findings.append(Finding(
                f"`{cmd.operand}' has net stack effect {sign} when run by {cmd.kind.upper()}",
                cmd.line,
            ))
    return findings


class _Namespace:
    def __init__(self, program: BstProgram):
        self.fields: dict[str, None] = {}  # declaration order keeps the findings' order stable
        self.entry_vars: set[str] = {"sort.key$"}
        self.globals: set[str] = set()
        for cmd in program.commands:
            if cmd.kind == "entry":
                fields, ints, strs = cmd.operand
                self.fields.update(dict.fromkeys(fields))
                self.entry_vars.update(ints)
                self.entry_vars.update(strs)
            elif cmd.kind in ("strings", "integers"):
                self.globals.update(cmd.operand)
        self.functions = set(program.functions)

    def kind_of(self, name: str) -> str | None:
        if name in self.fields:
            return "field"
        if name in self.entry_vars or name in self.globals:
            return "var"
        if name in BUILTINS:
            return "builtin"
        if name in self.functions:
            return "function"
        return None


def _walk_identifiers(tokens: list[Token], space: _Namespace, read_fields: set[str],
                      reported: set[str], findings: list[Finding]) -> None:
    # an explicit stack of open blocks keeps deep nesting off the Python call stack
    stack = [iter(tokens)]
    while stack:
        for tok in stack[-1]:
            if tok.kind == "block":
                stack.append(iter(tok.value))
                break
            if tok.kind not in ("id", "quoted"):
                continue
            name = tok.value
            kind = space.kind_of(name)
            if kind == "field" and tok.kind == "id":
                read_fields.add(name)
            if kind is not None or name in reported:
                continue
            reported.add(name)
            if name in UNSUPPORTED_BUILTINS:
                findings.append(Finding(f"`{name}' is not a supported builtin", tok.line))
            else:
                findings.append(Finding(
                    f"`{name}' does not resolve to a field, variable, builtin, or function",
                    tok.line,
                ))
        else:
            stack.pop()


class _EffectAnalyzer:
    """Net stack effect per function where it is a data-independent constant."""

    def __init__(self, program: BstProgram, space: _Namespace):
        self.program = program
        self.space = space
        self.memo: dict[str, int | None] = {}
        self.active: set[str] = set()

    def effect_of_name(self, name: str) -> int | None:
        kind = self.space.kind_of(name)
        if kind in ("field", "var"):
            return 1
        if kind == "builtin":
            _fn, pops, pushes = BUILTINS[name]
            return None if pops is None else pushes - pops
        if kind == "function":
            if name in self.memo:
                return self.memo[name]
            if name in self.active:
                return None  # recursion
            self.active.add(name)
            effect = self.effect_of_tokens(self.program.functions[name])
            self.active.discard(name)
            self.memo[name] = effect
            return effect
        return None

    def effect_of_ref(self, item) -> int | None:
        if item is None:
            return None
        tok = item
        if tok.kind == "block":
            return self.effect_of_tokens(tok.value)
        if tok.kind == "quoted":
            return self.effect_of_name(tok.value)
        return None

    def effect_of_tokens(self, tokens: list[Token]) -> int | None:
        # items mirrors the positive part of the stack; deficit counts pops
        # that reached below the function's own frame
        items: list[Token | None] = []
        deficit = 0

        def push(item: Token | None) -> None:
            items.append(item)

        def pop():
            nonlocal deficit
            if items:
                return items.pop()
            deficit += 1
            return None

        def apply_opaque(net: int) -> None:
            # conservatively forget what we knew about surviving stack slots
            for k in range(len(items)):
                items[k] = None
            if net >= 0:
                for _ in range(net):
                    push(None)
            else:
                for _ in range(-net):
                    pop()

        for tok in tokens:
            if tok.kind in ("string", "int"):
                push(None)
            elif tok.kind in ("quoted", "block"):
                push(tok)
            else:
                name = tok.value
                kind = self.space.kind_of(name)
                if kind in ("field", "var"):
                    push(None)
                elif kind == "builtin":
                    _fn, pops, pushes = BUILTINS[name]
                    if pops is not None:
                        for _ in range(pops):
                            pop()
                        for _ in range(pushes):
                            push(None)
                    elif name == "if$":
                        else_e = self.effect_of_ref(pop())
                        then_e = self.effect_of_ref(pop())
                        pop()  # condition
                        if else_e is None or else_e != then_e:
                            return None
                        apply_opaque(else_e)
                    elif name == "while$":
                        body_e = self.effect_of_ref(pop())
                        pred_e = self.effect_of_ref(pop())
                        if pred_e != 1 or body_e != 0:
                            return None
                        apply_opaque(0)
                    else:
                        return None  # call.type$
                elif kind == "function":
                    effect = self.effect_of_name(name)
                    if effect is None:
                        return None
                    apply_opaque(effect)
                else:
                    return None  # unresolvable; reported separately
        return len(items) - deficit
