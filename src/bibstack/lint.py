"""Static checks for style programs.

Findings are warning Diagnostics: identifiers that resolve to nothing,
declared fields that no body ever reads, and EXECUTE/ITERATE targets
whose net stack effect is a nonzero constant (a run of such a program
cannot end with an empty stack).  The effect analysis is best-effort: data-dependent
control flow makes a function's effect unknown and it is then skipped.
"""

from __future__ import annotations

from .bstparse import BstProgram, Token, walk_tokens
from .diagnostics import WARNING, Diagnostic
from .vm import BUILTIN, BUILTINS, FIELD, FUNCTION, UNSUPPORTED_BUILTINS, declare, name_kinds


def lint_program(program: BstProgram) -> list[Diagnostic]:
    """Warning Diagnostics about a parsed program (line 0 where none applies); raises nothing."""
    findings: list[Diagnostic] = []

    def warn(message: str, line: int = 0) -> None:
        findings.append(Diagnostic(WARNING, message, line, program.source))

    kinds = name_kinds(program)
    fields: dict[str, None] = {}  # declaration order keeps the findings' order stable
    for cmd in program.commands:
        for kind, declared in declare(kinds, cmd):
            if kind == FIELD:
                fields.update(dict.fromkeys(declared))

    reported: set[str] = set()
    read_fields: set[str] = set()
    for tok in (t for body in program.functions.values() for t in walk_tokens(body)):
        if tok is None or tok.kind not in ("id", "quoted"):
            continue
        name = tok.value
        kind = kinds.get(name)
        if kind == FIELD and tok.kind == "id":
            read_fields.add(name)
        if kind is not None or name in reported:
            continue
        reported.add(name)
        if name in UNSUPPORTED_BUILTINS:
            warn(f"`{name}' is not a supported builtin", tok.line)
        else:
            warn(f"`{name}' does not resolve to a field, variable, builtin, or function", tok.line)

    for fname in fields:
        if fname not in read_fields:
            warn(f"field `{fname}' is declared but never read")

    analyzer = _EffectAnalyzer(program, kinds)
    for cmd in program.commands:
        if cmd.kind not in ("execute", "iterate"):
            continue
        effect = analyzer.effect_of_name(cmd.operand)
        if effect is not None and effect != 0:
            sign = f"+{effect}" if effect > 0 else str(effect)
            warn(f"`{cmd.operand}' has net stack effect {sign} when run by {cmd.kind.upper()}",
                 cmd.line)
    return findings


class _EffectAnalyzer:
    """Net stack effect per function where it is a data-independent constant.

    A body is walked by a generator that yields what it needs the effect
    of: a function name, or a body (a block, or a quoted name as a one-token
    body) run by if$ or while$.  effect_of_name keeps the open walks on an
    explicit stack, so a call chain of any depth stays off Python's stack.
    """

    def __init__(self, program: BstProgram, kinds: dict[str, int]):
        self.program = program
        self.kinds = kinds
        self.memo: dict[str, int | None] = {}
        self.active: set[str] = set()

    def effect_of_name(self, name: str) -> int | None:
        # (the function a walk is for, or None for any other body; the walk)
        walks = [(None, self._walk([Token("id", name)]))]
        effect = None  # what the innermost walk is sent next
        while True:
            fname, walk = walks[-1]
            try:
                needed = walk.send(effect)
            except StopIteration as done:
                walks.pop()
                effect = done.value
                if fname is not None:
                    self.active.discard(fname)
                    self.memo[fname] = effect
                if not walks:
                    return effect
                continue
            effect = None
            if not isinstance(needed, str):
                walks.append((None, self._walk(needed)))
            elif needed in self.memo:
                effect = self.memo[needed]
            elif needed not in self.active:  # an active one is recursion: unknown
                self.active.add(needed)
                walks.append((needed, self._walk(self.program.functions[needed])))

    @staticmethod
    def _effect_of_ref(item):
        if item is None:
            return None
        return (yield item.value if item.kind == "block" else [Token("id", item.value)])

    def _walk(self, tokens: list[Token]):
        # items mirrors the positive part of the stack; deficit counts pops
        # that reached below the function's own frame
        items: list[Token | None] = []
        deficit = 0

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
                    items.append(None)
            else:
                for _ in range(-net):
                    pop()

        for tok in tokens:
            if tok.kind in ("string", "int"):
                items.append(None)
            elif tok.kind in ("quoted", "block"):
                items.append(tok)
            else:
                name = tok.value
                kind = self.kinds.get(name)
                if kind is None:
                    return None  # unresolvable; reported separately
                if kind < BUILTIN:  # a field or a variable
                    items.append(None)
                elif kind == BUILTIN:
                    _fn, pops, pushes = BUILTINS[name]
                    if pops is not None:
                        for _ in range(pops):
                            pop()
                        for _ in range(pushes):
                            items.append(None)
                    elif name == "if$":
                        else_e = yield from self._effect_of_ref(pop())
                        then_e = yield from self._effect_of_ref(pop())
                        pop()  # condition
                        if else_e is None or else_e != then_e:
                            return None
                        apply_opaque(else_e)
                    elif name == "while$":
                        body_e = yield from self._effect_of_ref(pop())
                        pred_e = yield from self._effect_of_ref(pop())
                        if pred_e != 1 or body_e != 0:
                            return None
                        apply_opaque(0)
                    else:
                        return None  # call.type$
                else:
                    effect = yield name
                    if effect is None:
                        return None
                    apply_opaque(effect)
        return len(items) - deficit
