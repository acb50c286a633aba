"""The compiled tier: a resolved body as one Python function whose stack slots are locals.

compile_body(vm, ops) takes the (handler, operand) ops that Vm._resolve_body
built for a FUNCTION (any body but a {...} block) and returns a function
body(vm) that runs them, as closure generation does (Feeley and Lapalme,
1987) with the stack-slot superoperators of Proebsting (1995).  Each
value an op makes goes into a local variable of its own, which the ops
after it read, so that `nameptr #1 + 'nameptr :=' is three assignments
that touch no stack, and no generated expression nests deeper than one
op.  _OPS is the one table
of the ops that compile inline, and so of the results of a known kind: a
builtin that computes a value from values (+ - < > * empty$ num.names$
format.name$, and = once an operand's kind is known) is a row giving its
result's expression, the type each operand is taken as and its result's
kind, which _Gen.pure compiles; num.names$ and format.name$ call the Vm's
_names_of and _format_name, and as format.name$ can raise, the slots
below its operands are on vm.stack while it runs.  Each slot has a kind, known where the op
that made it fixes its type: integer and string literals, INTEGERS and
STRINGS globals (whose type := enforces), the results of those builtins
and of cite$, and field reads (a string or a MissingField).  A {...}
block or quoted name, and a value taken from vm.stack (from below the
body or left by a call), are of any kind.  A value is checked wherever an
op needs a type that no op of the body gave it, and only there; a check
that can never pass, such as + on a string literal, is made like any
other and fails as it runs.  A builtin's pops and pushes come from
vm.BUILTINS.

Control flow compiles in place.  A bound `{..} {..} if$' is a Python
if/else, and a bound `{..} {..} while$' a Python loop of WHILE_LIMIT
iterations whose `else' raises the iteration-limit error; the top slot
its predicate leaves is the loop's condition.  A ref that is a {...}
block (one in vm._blocks) has its ops compiled there, one indentation
deeper, up to INLINE_DEPTH blocks deep; a 'skip$ is its level's check
alone; any other ref is a call.  That is the one place a block compiles:
a block deeper, or one that an if$ or while$ that is not bound runs,
enters Vm._call and runs through its ops.  A block in place counts one
call level: it raises the too-deep error at the line of its if$ or
while$, as Vm._call does, and a call inside it sets vm.depth to its
level first.  Each block starts with no slot, as every slot goes on
vm.stack before the if$ or while$ runs, and puts the slots it leaves
there at its end.

A guard that fails (an underflow, a wrong type, no current entry) puts
the live slots, and any value the op took from vm.stack, back on
vm.stack and runs the op's handler there, which raises the same error at
the same line as a body that never compiled.  The handler raises at its
check, before it could read vm.depth, and Vm._call puts the depth back
on the way out, so a fallback leaves vm.depth as it is.  Should the
handler return, the function raises an internal error.  Each guard is a
check that the op's handler makes, so the handler raises and no op after
it runs: there is nothing to resume.  An op runs whole in the function or not at all.
Every op _OPS does not compile is a call (a body, an if$ or while$ that
is not bound, call.type$, skip$, := that is not bound, = of two values
of unknown type, a read of an entry variable, an unknown or unsupported
name, whose handler raises its error, and any handler that is not its
builtin's own function, such as a wrapped one): it runs after every slot
is put on vm.stack, exactly as the generic loop runs it, and a value it
leaves there is taken back as unknown.  The function
returns None when it reaches the end of the body.

Operands are not written into the source: each is a name, k0, k1, ...,
in the function's namespace.  Bodies whose source comes out the same
(the same ops and slot kinds, whatever their operands) share one code
object, kept on the Vm.
"""

from __future__ import annotations

from types import CodeType, FunctionType

from . import vm as _vm
from .vm import BUILTINS, MissingField, Vm

# the kinds of a slot: what the value held in it can be
INT, STR, FIELD, ANY = range(4)  # FIELD: a str or a MissingField; ANY: any value

# Blocks compile in place at most this many deep; a block deeper runs as a
# call, through its ops.  Each block in place adds at most one indentation
# level and one loop to the source, so this keeps it well inside Python's
# limits of 100 indentation levels and 20 nested loops.
INLINE_DEPTH = 8


def _returned(handler) -> RuntimeError:
    """The error of a handler that a compiled body fell back to and that
    returned: each guard is a check its handler makes, so it raises."""
    return RuntimeError(f"{handler.__qualname__} returned at a failed check of a compiled body")


# the names the generated code reads besides its operands
_NAMESPACE = {"type": type, "int": int, "str": str, "MissingField": MissingField,
              "missing": _vm._missing, "missing_message": _vm.missing_field_message,
              "too_deep": Vm._too_deep, "loop_limit": _vm._loop_limit, "returned": _returned}
_PROLOGUE = {"cur": "cur = vm.current", "doc": "doc = vm.doc", "log": "log = vm.log", "depth": "depth = vm.depth"}


def compile_body(vm: Vm, ops: list[tuple]):
    """The function that runs ops for vm: it returns None when it has run them all;
    at a failed check it puts the op's state back on vm.stack and runs the op's
    handler, which raises."""
    gen = _Gen(vm)
    for handler, operand in ops:
        gen.op(handler, operand)
    gen.flush()
    lines = ["def body(vm):", "    stack = vm.stack"]
    lines += [f"    {_PROLOGUE[name]}" for name in _PROLOGUE if name in gen.used]
    lines += gen.out
    source = "\n".join(lines) + "\n"
    code = vm._codes.get(source)
    if code is None:
        module = compile(source, "<compiled .bst body>", "exec")
        code = vm._codes[source] = next(c for c in module.co_consts if isinstance(c, CodeType))
    namespace = dict(_NAMESPACE)
    namespace.update((f"k{i}", value) for i, value in enumerate(gen.consts))
    return FunctionType(code, namespace)


class _Gen:
    """The source of one body's function, built op by op."""

    def __init__(self, vm: Vm):
        self.vm = vm
        self.out: list[str] = []  # the function's lines after the prologue
        self.consts: list = []  # k0, k1, ...
        self.used: set[str] = set()  # prologue names the lines read
        self.slots: list[tuple[str, int]] = []  # (expression, kind), bottom first
        self.temps = 0
        self.entry_checked = False  # cur is known not to be None
        self.indent = "    "
        self.blocks = 0  # the blocks compiled in place around the op being compiled
        # the op being compiled: the slots before it, what it took from vm.stack,
        # and the (handler, operand) that a failed check runs in place
        self.before, self.taken, self.failing = [], [], None

    # -- pieces ---------------------------------------------------------------

    def const(self, value) -> str:
        self.consts.append(value)
        return f"k{len(self.consts) - 1}"

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    def emit(self, line: str) -> None:
        self.out.append(self.indent + line)

    def uses(self, name: str) -> str:
        self.used.add(name)
        return name

    @staticmethod
    def push_all(exprs: list[str]) -> str:
        if len(exprs) == 1:
            return f"stack.append({exprs[0]})"
        return f"stack += ({', '.join(exprs)})"

    def flush(self) -> None:
        """Put every slot on vm.stack."""
        if self.slots:
            self.emit(self.push_all([expr for expr, _ in self.slots]))
            self.slots = []

    def back(self) -> str:
        """The statement that falls back at this op: its state back on vm.stack,
        then its handler run there, which raises."""
        restore = self.taken + [expr for expr, _ in self.before]
        push = self.push_all(restore) + "; " if restore else ""
        handler, operand = (self.const(part) for part in self.failing)
        return f"{push}{handler}(vm, {operand}); raise returned({handler})"

    def take(self, n: int) -> list[tuple[str, int]]:
        """The op's n operands, bottom first: the top slots, and below them, if
        there are not enough, values taken from vm.stack, of kind ANY."""
        have = self.slots[len(self.slots) - n:] if n else []
        del self.slots[len(self.slots) - len(have):]
        taken = []
        for _ in range(n - len(have)):
            value = self.temp()
            self.emit(f"if not stack: {self.back()}")
            self.emit(f"{value} = stack.pop()")
            self.taken.insert(0, value)
            taken.insert(0, (value, ANY))
        return taken + have

    def check(self, conditions: list) -> None:
        """Fall back unless every condition holds; a condition None holds already."""
        if conditions := [c for c in conditions if c]:
            self.emit(f"if not ({' and '.join(conditions)}): {self.back()}")

    def entry(self) -> str | None:
        """The condition that there is a current entry, or None if already checked."""
        if self.entry_checked:
            return None
        self.entry_checked = True
        return f"{self.uses('cur')} is not None"

    @staticmethod
    def as_int(slot: tuple[str, int]) -> tuple:
        """(condition, expression) of a slot taken as an integer."""
        expr, kind = slot
        return None if kind == INT else f"type({expr}) is int", expr

    @staticmethod
    def as_str(slot: tuple[str, int]) -> tuple:
        """(condition, expression) of a slot taken as pop_str takes it: a MissingField reads ""."""
        expr, kind = slot
        if kind == STR:
            return None, expr
        text = f"({expr} if type({expr}) is str else '')"
        if kind == FIELD:
            return None, text
        return f"(type({expr}) is str or type({expr}) is MissingField)", text

    def result(self, expr: str, kind: int) -> None:
        """Push the value of expr, computed now into a local of its own."""
        value = self.temp()
        self.emit(f"{value} = {expr}")
        self.slots.append((value, kind))

    # -- ops ------------------------------------------------------------------

    def op(self, handler, operand) -> None:
        self.before, self.taken, self.failing = list(self.slots), [], (handler, operand)
        if (method := _OPS.get(handler)) is not None:
            method(self, operand)
        else:
            self.call(handler, operand)

    def call(self, handler, operand) -> None:
        self.flush()
        call = f"{self.const(handler)}(vm, {self.const(operand)})"
        if self.blocks:  # a body or builtin it runs reads vm.depth, at this block's level
            call = f"vm.depth = {self.uses('depth')} + {self.blocks}; {call}; vm.depth = depth"
        self.emit(call)

    def push(self, value) -> None:
        kind = INT if type(value) is int else STR if type(value) is str else ANY
        self.slots.append((self.const(value), kind))

    def push_item(self, operand: tuple) -> None:
        mapping, name = operand
        kind = INT if mapping is self.vm.globals_int else STR
        self.result(f"{self.const(mapping)}[{self.const(name)}]", kind)

    def push_field(self, operand: tuple) -> None:
        name = self.const(operand[0])
        self.check([self.entry()])
        value = self.temp()
        self.emit(f"{value} = cur.fields.get({name})")
        self.emit(f"if {value} is None: {value} = missing(vm, {name}, cur)")
        self.slots.append((value, FIELD))

    def assign(self, operand: tuple) -> None:
        store, initial, name, _at = operand
        [slot] = self.take(1)
        condition, expr = (self.as_str if type(initial) is str else self.as_int)(slot)
        if type(store) is str:  # a per-entry variable, in that dict of the current entry
            self.check([self.entry(), condition])
            self.emit(f"cur.{store}[{self.const(name)}] = {expr}")
        else:
            self.check([condition])
            self.emit(f"{self.const(store)}[{self.const(name)}] = {expr}")

    def bound_if(self, operand: tuple) -> None:
        then_op, else_op, _at = operand
        [slot] = self.take(1)
        condition, expr = self.as_int(slot)
        self.check([condition])
        self.flush()
        for head, ref_op in ((f"if {expr} > 0:", then_op), ("else:", else_op)):
            self.emit(head)
            self.indent += "    "
            self.ref(ref_op)
            self.indent = self.indent[4:]

    def bound_while(self, operand: tuple) -> None:
        pred_op, body_op, at = operand
        self.flush()
        self.emit(f"for _ in range({_vm.WHILE_LIMIT}):")
        self.indent += "    "
        self.ref(pred_op, keep_top=True)
        # the predicate's result, which the while$ pops at its own level
        self.before, self.taken, self.failing = list(self.slots), [], (Vm.pop_int, at)
        [slot] = self.take(1)
        condition, expr = self.as_int(slot)
        self.check([condition])
        self.emit(f"if {expr} <= 0: break")
        self.ref(body_op)
        self.indent = self.indent[4:]
        self.emit(f"else: raise loop_limit({self.const(at)})")

    def ref(self, op: tuple, keep_top: bool = False) -> None:
        """Run the (handler, operand) op of a bound ref in place: a {...} block's ops
        as one more call level, up to INLINE_DEPTH deep, a 'skip$ as that level's
        check alone; any other op is a call.  With keep_top, a block's top slot
        stays a slot."""
        handler, operand = op
        if handler is Vm._call and id(operand[0]) in self.vm._blocks and self.blocks < INLINE_DEPTH:
            self.block(*operand, keep_top)
        elif handler is _vm._level and operand[0] is _vm._bi_skip:
            self.level_check(operand[2])
        else:
            self.call(handler, operand)

    def level_check(self, line: int) -> None:
        """Raise the too-deep error of entering one level more than the op being compiled."""
        limit = _vm.CALL_DEPTH_LIMIT - self.blocks
        self.emit(f"if {self.uses('depth')} >= {limit}: raise too_deep({self.const(line)})")

    def block(self, tokens: list, line: int, keep_top: bool) -> None:
        """A {...} block's ops, compiled in place as one more call level; every slot
        they leave goes on vm.stack at its end, but the top one with keep_top."""
        self.level_check(line)
        entry_checked = self.entry_checked
        self.blocks += 1
        for handler, operand in self.vm._resolve_body(tokens):
            self.op(handler, operand)
        self.blocks -= 1
        top = self.slots.pop() if keep_top and self.slots else None
        self.flush()
        self.slots = [top] if top else []
        self.entry_checked = entry_checked  # the block's checks run on one path only

    def builtin(self, at: tuple) -> list[tuple[str, int]]:
        """The operands of the builtin whose (name, line) is at, as many as it pops."""
        return self.take(BUILTINS[at[0]][1])

    def write(self, at: tuple) -> None:
        [slot] = self.builtin(at)
        self.check([self.as_str(slot)[0]])
        expr, kind = slot
        append = f"{self.uses('doc')}.append({expr})"
        if kind == STR:
            self.emit(append)
        else:
            self.emit(f"if type({expr}) is str: {append}")
            self.emit(f"else: {self.uses('log')}.warning(missing_message({expr}.field_name, {expr}.entry_key))")

    def newline(self, at: tuple) -> None:
        self.emit(f"{self.uses('doc')}.flush_line()")

    def cite(self, at: tuple) -> None:
        self.check([self.entry()])
        self.result("cur.key", STR)

    def pure(self, at: tuple, template: str, taken_as: str, kind: int) -> None:
        """A builtin that computes a value from values: its operands, each taken by
        the letter of taken_as for it (i: as_int, s: as_str), and the value of
        template, filled with their expressions (and {at} with the builtin's
        (name, line)), in a slot of kind.  A template that names {at} may raise the
        builtin's errors, so the slots below the operands go on vm.stack first, as
        the handler leaves them, and come back off it after."""
        slots = self.builtin(at)
        operands = [_TAKEN_AS[letter](slot) for letter, slot in zip(taken_as, slots)]
        self.check([condition for condition, _ in operands])
        raises = "{at}" in template
        expr = template.format(*(expr for _, expr in operands), at=self.const(at) if raises else None)
        below = self.slots if raises and self.slots else []
        if below:
            self.flush()  # a new list of slots
        self.result(expr, kind)
        if below:
            self.emit(f"del stack[-{len(below)}:]")
            self.slots[:0] = below

    def eq(self, at: tuple) -> None:
        known = {kind for _, kind in self.slots[-2:]} - {ANY}
        if not known:  # the handler decides
            return self.call(_vm._bi_eq, at)
        # STR and FIELD compare as strings; INT beside either fails its guard as it runs
        self.pure(at, "1 if {} == {} else 0", "ii" if known == {INT} else "ss", INT)


_TAKEN_AS = {"i": _Gen.as_int, "s": _Gen.as_str}


def _pure(template: str, taken_as: str, kind: int):
    return lambda gen, at: gen.pure(at, template, taken_as, kind)


# the handlers whose ops compile inline, each with its method; every other op is a call
_OPS = {
    _vm._push: _Gen.push,
    _vm._push_item: _Gen.push_item,
    _vm._push_field: _Gen.push_field,
    _vm._assign: _Gen.assign,
    _vm._if: _Gen.bound_if,
    _vm._while: _Gen.bound_while,
    _vm._bi_write: _Gen.write,
    _vm._bi_newline: _Gen.newline,
    _vm._bi_cite: _Gen.cite,
    _vm._bi_add: _pure("{} + {}", "ii", INT),
    _vm._bi_sub: _pure("{} - {}", "ii", INT),
    _vm._bi_lt: _pure("1 if {} < {} else 0", "ii", INT),
    _vm._bi_gt: _pure("1 if {} > {} else 0", "ii", INT),
    _vm._bi_concat: _pure("{} + {}", "ss", STR),
    _vm._bi_empty: _pure("0 if {}.strip() else 1", "s", INT),
    _vm._bi_num_names: _pure("len(vm._names_of({}))", "s", INT),
    _vm._bi_format_name: _pure("vm._format_name({}, {}, {}, {at})", "sis", STR),
    _vm._bi_eq: _Gen.eq,
}
