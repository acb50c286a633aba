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
        # height counts the values pushed less those popped (negative once the
        # body pops its caller's values); refs maps a slot's height to the block
        # or quoted name this body pushed there, while that is still known
        height = 0
        refs: dict[int, Token] = {}
        for tok in tokens:
            if tok.kind != "id":  # a literal, a quoted name or a block
                if tok.kind in ("quoted", "block"):
                    refs[height] = tok
                height += 1
                continue
            name = tok.value
            kind = self.kinds.get(name)
            if kind is None:
                return None  # unresolvable; reported separately
            if kind < BUILTIN:  # a field or a variable
                height += 1
                continue
            if kind == FUNCTION:
                effect = yield name
            elif (pops := BUILTINS[name][1]) is not None:
                for _ in range(pops):
                    height -= 1
                    refs.pop(height, None)
                height += BUILTINS[name][2]
                continue
            elif name == "if$":
                height -= 3  # else, then, condition
                effect = yield from self._effect_of_ref(refs.pop(height + 2, None))
                if effect != (yield from self._effect_of_ref(refs.pop(height + 1, None))):
                    return None
            elif name == "while$":
                height -= 2  # body, predicate
                body_e = yield from self._effect_of_ref(refs.pop(height + 1, None))
                pred_e = yield from self._effect_of_ref(refs.pop(height, None))
                effect = 0 if pred_e == 1 and body_e == 0 else None
            else:
                return None  # call.type$
            if effect is None:
                return None
            # what the call or the control builtin left in the slots below is unknown
            refs.clear()
            height += effect
        return height
