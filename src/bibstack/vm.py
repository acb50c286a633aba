"""Stack-machine execution of style programs over citations and databases.

Values on the stack are plain Python ints and strs, plus two tagged
types: MissingField (an absent entry field) and FnRef (a quoted name or
a {...} block).  Execution order is program order: READ resolves the
deduplicated citation list against the databases, EXECUTE runs a
function with no current entry, ITERATE runs it once per entry, and
SORT stably reorders entries by their sort.key$ string.

Each identifier's kind comes from one name table (name_kinds, extended
by declare, the one reader of ENTRY, STRINGS and INTEGERS operands, as
each such command runs).  One resolver, _resolve_name, is the only
dispatcher: it turns a name into the (handler, operand) pair that runs
it, a builtin to call, a body to enter, a field or variable to read, or
the error of an unknown name.  A builtin's operand is its (name, line):
the name is said once, as its BUILTINS key, and its errors read
`NAME: detail'.  Every VmError ends with ` (line L)'.  Where each
variable kind's values live, and its initial value, whose type is the
one type it holds, are said once, in VARIABLES: declarations, reads and
:= all look them up there.
READ gives each entry a copy of the per-entry variables of a blank entry.
Bodies are resolved the first time they run and dropped whenever a
declaration changes the table; quoted names are resolved as they run.
Resolving a body binds operand pairs into one op each, a superoperator
in Proebsting's sense: a quoted variable name and the := after it, an op
that pops only the value, and two literal refs (a {...} block or a quoted
name) and the if$ or while$ after them, an op that pops only the condition
(of if$, or each of while$'s predicate results) and holds the ops that run
the refs.  Each makes the checks, in the same order, and raises the errors
of the builtin it stands for; the while$ builtin resolves its two refs and
runs the same loop as its bound op.  Binding a name's kind into a body is
sound because only a declaration changes a kind, and every declaration
drops the resolved bodies; so while$ resolves its two refs once per loop.
A :=, if$ or while$ that a declaration shadows, or that no such pair
precedes, resolves as any other name.  num.names$ and format.name$
tokenize each distinct name list once per run into its names, and
format.name$ parses each name of it at its first use: the Vm keeps one
dict of lists, so it lives and dies with the Vm and holds the run's input.

The compiled tier: after COMPILE_AFTER runs through its ops, a FUNCTION
(any body but a {...} block) compiles, on its next entry, into one
Python function that keeps the values its ops push in local variables
(vmcompile says how).  The {...} blocks that a bound if$ or while$ runs
compile into that function in place, as a Python if/else and a Python
loop.  A block compiles only there: _ref_op, where a block becomes an
op, records it in _blocks, and a block entered through _call (nested
past the inline depth, or run by an if$ or while$ that is not bound)
runs through its ops.  num.names$ and format.name$ call the Vm with
values (_names_of, _format_name).  Bodies that compile to the same
source share one code object.  The function checks a value wherever an
op needs a type that no op of the body gave it.  Where a check fails
(an underflow, a wrong type, no current entry), it puts the live values
back on the stack and runs the op's handler there, at the level of the
block compiled in place it is in, if any; the handler raises the same
error at the same line as a body that never compiled, so no op after it
runs.  A FUNCTION, call.type$, an if$ or while$ that is not bound and
any other call runs after the function has put every value on the
stack, as the handlers run it.  Either tier gives the same output,
records, stack, variables and call depth.
Every body entered counts one call level, up to CALL_DEPTH_LIMIT, a block
compiled in place among them, and a quoted name that if$ or while$ runs
and that enters no body counts one as _level runs it.  _call restores on
exit the depth it saw on entry, so a block compiled in place that raises
needs no cleanup of its own.  A level costs at most three Python frames on
every path, and a block compiled in place none, so the limit trips long
before Python's recursion limit.

Reading a declared field that an entry does not have pushes a
MissingField and logs the missing-field warning; write$ on such a value
logs the same warning and emits nothing.  The stack must be empty when
the last command finishes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import names
from .auxfile import AuxFile, unique_citation_order
from .database import Database, lookup
from .diagnostics import Record
from .emitter import BblDocument, BlgLog

if TYPE_CHECKING:  # bstparse imports the builtin table from here
    from types import CodeType

    from .bstparse import BstCommand, BstProgram, Token

WHILE_LIMIT = 1_000_000  # iterations of one while$
# Each level costs at most three Python frames on every path, compiled or
# not: the body's _call (or _level, for a quoted name that enters no body),
# its compiled function, and the op that enters the next level (a bound
# if$, or a builtin such as if$, while$ or call.type$).  So the limit trips
# well inside Python's default recursion limit of 1000 frames, leaving
# room for the caller and the builtins.
CALL_DEPTH_LIMIT = 200
# A FUNCTION runs through its ops this many times; on its next entry it
# compiles into one Python function (see vmcompile).  A {...} block never
# does: it compiles only in place, in its FUNCTION.  A compile costs about
# 0.1 to 0.5 ms, and a body entered this often is mostly entered far more
# often.  In process, against 20 in two passes of 30 interleaved rounds of
# vm.run on the seed-1 corpora, 0 ran sort-names and cite-dense 8 to 10%
# and 6 to 9% faster but big-bib 18% slower (74 compiles where 20 makes 33);
# 10 ran sort-names 6 to 7% faster and the others within 3% (42 compiles on
# big-bib); 40 ran all three 1 to 8% slower.  Tests set it to 0, to compile
# each body at its first entry, or to infinity, to compile none.
COMPILE_AFTER = 20


class MissingField(Record):
    __slots__ = ("field_name", "entry_key")
    def __init__(self, field_name: str, entry_key: str):
        self.field_name, self.entry_key = field_name, entry_key


class FnRef(Record):
    __slots__ = ("name", "body")
    def __init__(self, name: str | None = None, body: list[Token] | None = None):
        self.name, self.body = name, body


class RuntimeEntry(Record):
    __slots__ = ("key", "entry_type", "fields", "ints", "strs")
    def __init__(self, key: str, entry_type: str, fields: dict[str, str], ints=None, strs=None):
        self.key, self.entry_type, self.fields = key, entry_type, fields
        self.ints: dict[str, int] = {} if ints is None else ints
        self.strs: dict[str, str] = {} if strs is None else strs


class VmError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


def _error(at: tuple, detail: str) -> VmError:
    """The error `NAME: detail' of the builtin whose (name, line) operand is at."""
    name, line = at
    return VmError(f"{name}: {detail}", line)


def missing_field_message(field_name: str, entry_key: str) -> str:
    return f"`{field_name}' is a missing field, not a string, for entry {entry_key}"


class Vm:
    def __init__(self, program: BstProgram, databases: list[Database]):
        self.program = program
        self.databases = databases
        self.doc = BblDocument()
        self.log = BlgLog()
        self.stack: list = []
        self.blank = RuntimeEntry("", "", {})  # declared per-entry variables; READ copies them
        # the declared names by kind, as the benchmark probe reads them
        self.field_names: list[str] = []
        self.entry_int_names, self.entry_str_names = self.blank.ints, self.blank.strs
        self.globals_int: dict[str, int] = {}
        self.globals_str: dict[str, str] = {}
        self.entries: list[RuntimeEntry] = []
        self.current: RuntimeEntry | None = None
        self.kinds = name_kinds(program)
        # the variables the table starts with (sort.key$) get their storage here
        self._store((kind, [name]) for name, kind in self.kinds.items())
        self.depth = 0
        # id(body) -> the body resolved; holding its tokens keeps their id unique
        self._resolved: dict[int, _Body] = {}
        # the id of every {...} block a ref has run or bound: it compiles only in its FUNCTION
        self._blocks: set[int] = set()
        # generated source -> its code, shared by every body compiled to that source
        self._codes: dict[str, CodeType] = {}
        # name list -> its names, for every list num.names$ or format.name$ has read in this
        # run: a name's comma sections of words until format.name$ first parses it, its parts after
        self._lists: dict[str, list] = {}

    # -- top level ----------------------------------------------------------

    def execute(self, aux: AuxFile) -> None:
        """Run all commands; errors are logged and abort the run."""
        try:
            for cmd in self.program.commands:
                self._exec_command(cmd, aux)
        except VmError as err:
            self.log.error(str(err))
            return
        if self.stack:
            shown = ", ".join(self._show(v) for v in self.stack)
            self.log.error(f"stack not empty at end: [{shown}]")

    def _exec_command(self, cmd, aux: AuxFile) -> None:
        if groups := declare(self.kinds, cmd):
            self._resolved.clear()
            self._store(groups)
        elif cmd.kind == "read":
            self._read(aux)
        elif cmd.kind == "execute":
            self.current = None
            self.exec_ident(cmd.operand, cmd.line)
        elif cmd.kind == "iterate":
            for entry in list(self.entries):
                self.current = entry
                self.exec_ident(cmd.operand, cmd.line)
            self.current = None
        elif cmd.kind == "sort":
            self.entries.sort(key=lambda e: e.strs["sort.key$"])
        # "function" commands have no runtime effect: bodies are bound at parse time

    def _store(self, groups) -> None:
        """Give each name of the (kind, names) groups the storage of its kind."""
        for kind, declared in groups:
            if kind == FIELD:
                self.field_names += declared
            elif kind in VARIABLES:
                per_entry, attr, initial = VARIABLES[kind]
                store = getattr(self.blank if per_entry else self, attr)
                for name in declared:
                    store.setdefault(name, initial)

    def _read(self, aux: AuxFile) -> None:
        for key in unique_citation_order(aux):
            entry = None
            for db in self.databases:
                entry = lookup(db, key)
                if entry is not None:
                    break
            if entry is None:
                self.log.warning(f"no database entry for citation `{key}'")
                continue
            self.entries.append(RuntimeEntry(entry.key, entry.entry_type, entry.fields,
                                             dict(self.blank.ints), dict(self.blank.strs)))

    # -- token execution ----------------------------------------------------

    def exec_tokens(self, tokens: list[Token], line: int = 0) -> None:
        """Run a body (entered from `line') as one more call level."""
        self._call((tokens, line))

    def _call(self, body_line: tuple) -> None:
        """The handler that runs a (body, line) operand as exec_tokens does:
        through its ops, or, once it has compiled, through its function."""
        tokens, line = body_line
        body = self._resolved.get(id(tokens))
        if body is None:
            runs_left = float("inf") if id(tokens) in self._blocks else COMPILE_AFTER
            body = self._resolved[id(tokens)] = _Body(tokens, self._resolve_body(tokens), runs_left)
        depth = self.depth
        if depth >= CALL_DEPTH_LIMIT:
            raise self._too_deep(line)
        self.depth = depth + 1
        try:
            ops, run = body.ops, body.run
            if run is None:
                body.runs_left -= 1
                if body.runs_left < 0:
                    from .vmcompile import compile_body  # loaded by the first compile only
                    run = body.run = compile_body(self, ops)
            if run is not None:
                return run(self)
            for handler, operand in ops:
                handler(self, operand)
        finally:
            # the depth on entry: inside a block compiled in place, the function
            # sets vm.depth to the block's level before a call, and an error in
            # the call leaves it so
            self.depth = depth

    def _resolve_body(self, tokens: list[Token]) -> list[tuple]:
        """The (handler, operand) ops that run a body as self.kinds stands now:
        one per token, except that `'v :=' on a variable, `{..} {..} if$' and
        `{..} {..} while$' each become one op that takes no operand from the
        stack but the value or the condition; the if$ and while$ ops hold the
        ops that run their two refs.  A builtin that the table shadows, or
        whose handler is wrapped, resolves to some other handler and binds
        nothing."""
        ops: list[tuple] = []
        for i, tok in enumerate(tokens):
            op = self._resolve_token(tok)
            if op[0] is _bi_assign and i >= 1 and tokens[i - 1].kind == "quoted":
                name = tokens[i - 1].value
                kind = self.kinds.get(name)
                if kind in VARIABLES:
                    ops[-1] = _assign, self._assignment(name, kind, op[1])
                    continue
            elif op[0] in _REF_PAIRS and i >= 2 and all(t.kind in ("quoted", "block") for t in tokens[i - 2 : i]):
                line = op[1][1]
                ops[-2:] = [(_REF_PAIRS[op[0]],
                             (self._ref_op(ops[-2][1], line), self._ref_op(ops[-1][1], line), op[1]))]
                continue
            ops.append(op)
        return ops

    def _assignment(self, name: str, kind: int, at: tuple) -> tuple:
        """The operand of _assign for variable name of kind, assigned by the := at."""
        per_entry, attr, initial = VARIABLES[kind]
        return attr if per_entry else getattr(self, attr), initial, name, at

    def _resolve_token(self, tok: Token) -> tuple:
        """The (handler, operand) pair that runs tok as self.kinds stands now."""
        if tok.kind in ("string", "int"):
            return _push, tok.value
        if tok.kind == "quoted":
            return _push, FnRef(name=tok.value)
        if tok.kind == "block":
            return _push, FnRef(body=tok.value)
        return self._resolve_name(tok.value, tok.line)

    def _resolve_name(self, name: str, line: int) -> tuple:
        """The (handler, operand) pair that runs name as self.kinds stands now."""
        kind = self.kinds.get(name)
        if kind == FUNCTION:
            return Vm._call, (self.program.functions[name], line)
        if kind == BUILTIN:
            return BUILTINS[name][0], (name, line)
        if kind == FIELD:
            return _push_field, (name, line)
        if kind in VARIABLES:
            per_entry, attr, initial = VARIABLES[kind]
            if per_entry:
                return _push_entry_var, (attr, initial, name, line)
            return _push_item, (getattr(self, attr), name)
        if name in UNSUPPORTED_BUILTINS:
            return _fail, (f"unsupported builtin `{name}'", line)
        return _fail, (f"unknown identifier `{name}'", line)

    def exec_token(self, tok: Token) -> None:
        handler, operand = self._resolve_token(tok)
        handler(self, operand)

    def exec_ident(self, name: str, line: int) -> None:
        handler, operand = self._resolve_name(name, line)
        handler(self, operand)

    def _ref_op(self, ref: FnRef, line: int) -> tuple:
        """The (handler, operand) op that runs a {...} block, or a quoted name
        as it resolves now (as self.kinds stands), as one call level."""
        if ref.body is not None:
            self._blocks.add(id(ref.body))
            return Vm._call, (ref.body, line)
        handler, operand = self._resolve_name(ref.name, line)
        if handler is Vm._call:  # entering the body counts the level
            return handler, operand
        return _level, (handler, operand, line)

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _too_deep(line: int) -> VmError:
        """The error of entering one call level past CALL_DEPTH_LIMIT."""
        return VmError(f"function call depth exceeded (limit {CALL_DEPTH_LIMIT})", line)

    def _names_of(self, name_list: str) -> list:
        """The names of a name list, tokenized once per run (the list is shared: see _lists)."""
        slots = self._lists.get(name_list)
        if slots is None:
            slots = self._lists[name_list] = names.tokenize(name_list)
        return slots

    def _format_name(self, name_list: str, index: int, template: str, at: tuple) -> str:
        """format.name$ of its operands, as values; at is its (name, line)."""
        slots = self._names_of(name_list)
        if index < 1 or index > len(slots):
            where = f"entry {self.current.key}" if self.current is not None else f'"{name_list}"'
            raise _error(at, f"name index {index} out of range for {where}")
        parts = slots[index - 1]
        try:
            if type(parts) is list:  # its comma sections: a name not parsed yet
                parts = slots[index - 1] = names.name_parts(parts)
            return names.format_name(None, template, parts)
        except names.NameParseError as err:
            # the tokens keep no text: the list is split again for the name's
            raise _error(at, str(err).format(repr(names.split_names(name_list)[index - 1]))) from err
        except names.TemplateError as err:
            raise _error(at, str(err)) from err

    def _need_entry(self, name: str, line: int) -> RuntimeEntry:
        if self.current is None:
            raise VmError(f"`{name}' read outside ITERATE, no current entry", line)
        return self.current

    # the pops of a builtin, whose (name, line) operand is at
    def pop(self, at: tuple):
        try:
            return self.stack.pop()
        except IndexError:
            raise _error(at, "stack underflow") from None

    def pop_int(self, at: tuple) -> int:
        value = self.pop(at)
        if not isinstance(value, int):
            raise _error(at, f"expected an integer, got {self._show(value)}")
        return value

    def pop_str(self, at: tuple) -> str:
        value = self.pop(at)
        if isinstance(value, MissingField):
            return ""
        if not isinstance(value, str):
            raise _error(at, f"expected a string, got {self._show(value)}")
        return value

    def pop_ref(self, at: tuple) -> FnRef:
        value = self.pop(at)
        if not isinstance(value, FnRef):
            raise _error(at, f"expected a function, got {self._show(value)}")
        return value

    @staticmethod
    def _show(value) -> str:
        if isinstance(value, int):
            return str(value)
        if isinstance(value, str):
            return f'"{value}"'
        if isinstance(value, MissingField):
            return f"missing field `{value.field_name}'"
        if value.name is not None:
            return f"'{value.name}"
        return "{...}"


class _Body:
    """A body as resolved: its tokens, its ops, the runs through its ops
    left before it compiles (infinitely many for a {...} block, which
    compiles only in place, in its FUNCTION), and the function it compiled
    to, if it has."""

    __slots__ = ("tokens", "ops", "runs_left", "run")

    def __init__(self, tokens: list[Token], ops: list[tuple], runs_left: float):
        self.tokens, self.ops, self.runs_left, self.run = tokens, ops, runs_left, None


# ---------------------------------------------------------------------------
# handlers of resolved bodies

def _push(vm: Vm, value) -> None:
    vm.stack.append(value)


def _push_item(vm: Vm, operand: tuple) -> None:
    mapping, name = operand
    vm.stack.append(mapping[name])


def _push_field(vm: Vm, operand: tuple) -> None:
    name, line = operand
    entry = vm._need_entry(name, line)
    value = entry.fields.get(name)
    vm.stack.append(_missing(vm, name, entry) if value is None else value)


def _missing(vm: Vm, name: str, entry: RuntimeEntry) -> MissingField:
    """The value of field name, which entry does not have, read: logs the warning."""
    vm.log.warning(missing_field_message(name, entry.key))
    return MissingField(name, entry.key)


def _push_entry_var(vm: Vm, operand: tuple) -> None:
    slot, default, name, line = operand
    # .get: an ENTRY command after READ leaves older entries without storage
    vm.stack.append(getattr(vm._need_entry(name, line), slot).get(name, default))


def _fail(vm: Vm, operand: tuple) -> None:
    raise VmError(*operand)


def _assign(vm: Vm, operand: tuple) -> None:
    """`'v :=' bound at resolve time: pop the value and store it in v as := does.

    The values of v live in the dict store, or, for a per-entry variable,
    in the current entry's dict that store names."""
    store, initial, name, at = operand
    value = vm.pop(at)
    if isinstance(store, str):
        if vm.current is None:
            raise _error(at, f"`{name}' assigned outside ITERATE")
        store = getattr(vm.current, store)
    if isinstance(value, MissingField) and isinstance(initial, str):
        value = ""
    if not isinstance(value, type(initial)):
        what = "a string" if isinstance(initial, str) else "an integer"
        raise _error(at, f"`{name}' is {what} variable, got {Vm._show(value)}")
    store[name] = value


def _if(vm: Vm, operand: tuple) -> None:
    """`{..} {..} if$' bound at resolve time: pop the condition and run a branch as if$ does."""
    then_op, else_op, at = operand
    handler, op = then_op if vm.pop_int(at) > 0 else else_op
    handler(vm, op)


def _while(vm: Vm, operand: tuple) -> None:
    """`{..} {..} while$' bound at resolve time: run the (handler, operand) ops
    of its two refs as while$ does, the predicate first, until it gives an
    integer that is not positive."""
    (pred_run, pred_op), (body_run, body_op), at = operand
    for _ in range(WHILE_LIMIT):
        pred_run(vm, pred_op)
        if vm.pop_int(at) <= 0:
            return
        body_run(vm, body_op)
    raise _loop_limit(at)


def _loop_limit(at: tuple) -> VmError:
    """The error of the while$ at that has run WHILE_LIMIT iterations and would run more."""
    return _error(at, f"iteration limit of {WHILE_LIMIT} exceeded")


def _level(vm: Vm, operand: tuple) -> None:
    """Run the (handler, operand) of a quoted name that enters no body, as one call level."""
    handler, op, line = operand
    if vm.depth >= CALL_DEPTH_LIMIT:
        raise vm._too_deep(line)
    vm.depth += 1
    try:
        handler(vm, op)
    finally:
        vm.depth -= 1


# ---------------------------------------------------------------------------
# builtins: each takes the (name, line) operand that _resolve_name gives it

def _bi_write(vm: Vm, at: tuple) -> None:
    value = vm.pop(at)
    if isinstance(value, str):
        vm.doc.append(value)
    elif isinstance(value, MissingField):
        vm.log.warning(missing_field_message(value.field_name, value.entry_key))
    else:
        raise _error(at, f"expected a string, got {vm._show(value)}")


def _bi_newline(vm: Vm, at: tuple) -> None:
    vm.doc.flush_line()


def _bi_cite(vm: Vm, at: tuple) -> None:
    vm.stack.append(vm._need_entry(*at).key)


def _bi_empty(vm: Vm, at: tuple) -> None:
    vm.stack.append(0 if vm.pop_str(at).strip() else 1)


def _bi_skip(vm: Vm, at: tuple) -> None:
    pass


def _bi_if(vm: Vm, at: tuple) -> None:
    else_ref = vm.pop_ref(at)
    then_ref = vm.pop_ref(at)
    cond = vm.pop_int(at)
    handler, operand = vm._ref_op(then_ref if cond > 0 else else_ref, at[1])
    handler(vm, operand)


def _bi_while(vm: Vm, at: tuple) -> None:
    body = vm.pop_ref(at)
    pred = vm.pop_ref(at)
    # no declaration runs inside a body, so each ref resolves once for the loop
    _while(vm, (vm._ref_op(pred, at[1]), vm._ref_op(body, at[1]), at))


def _bi_concat(vm: Vm, at: tuple) -> None:
    b = vm.pop_str(at)
    a = vm.pop_str(at)
    vm.stack.append(a + b)


def _bi_assign(vm: Vm, at: tuple) -> None:
    ref = vm.pop(at)
    if not isinstance(ref, FnRef) or ref.name is None:
        raise _error(at, f"expected a quoted variable name, got {vm._show(ref)}")
    value = vm.pop(at)
    name = ref.name
    kind = vm.kinds.get(name)
    if kind == FIELD:
        raise _error(at, f"cannot assign to field `{name}'")
    if kind not in VARIABLES:
        raise _error(at, f"`{name}' is not a declared variable")
    vm.stack.append(value)  # for _assign to pop again and check
    _assign(vm, vm._assignment(name, kind, at))


def _bi_num_names(vm: Vm, at: tuple) -> None:
    vm.stack.append(len(vm._names_of(vm.pop_str(at))))


def _bi_format_name(vm: Vm, at: tuple) -> None:
    template = vm.pop_str(at)
    index = vm.pop_int(at)
    name_list = vm.pop_str(at)
    vm.stack.append(vm._format_name(name_list, index, template, at))


def _bi_eq(vm: Vm, at: tuple) -> None:
    b = vm.pop(at)
    a = vm.pop(at)
    if isinstance(a, MissingField):
        a = ""
    if isinstance(b, MissingField):
        b = ""
    if isinstance(a, (int, str)) and type(a) is type(b):
        vm.stack.append(1 if a == b else 0)
    else:
        raise _error(at, f"operands must share a type, got {vm._show(a)} and {vm._show(b)}")


def _make_int_op(fn):
    def op(vm: Vm, at: tuple) -> None:
        b = vm.pop_int(at)
        a = vm.pop_int(at)
        vm.stack.append(fn(a, b))
    return op


_bi_lt = _make_int_op(lambda a, b: 1 if a < b else 0)
_bi_gt = _make_int_op(lambda a, b: 1 if a > b else 0)
_bi_add = _make_int_op(lambda a, b: a + b)
_bi_sub = _make_int_op(lambda a, b: a - b)


def _bi_call_type(vm: Vm, at: tuple) -> None:
    entry_type = vm._need_entry(*at).entry_type
    if vm.kinds.get(entry_type) != FUNCTION:  # a function hidden by a declaration is not run
        vm.log.warning(f"no handler function for entry type `{entry_type}'")
        entry_type = "default.type"  # what classic BibTeX runs instead
        if vm.kinds.get(entry_type) != FUNCTION:
            return
    vm._call((vm.program.functions[entry_type], at[1]))


# The one builtin table: name -> (function, pops, pushes).  pops and
# pushes are None where the stack effect depends on the operands.
BUILTINS = {
    "write$": (_bi_write, 1, 0),
    "newline$": (_bi_newline, 0, 0),
    "cite$": (_bi_cite, 0, 1),
    "empty$": (_bi_empty, 1, 1),
    "skip$": (_bi_skip, 0, 0),
    "if$": (_bi_if, None, None),
    "while$": (_bi_while, None, None),
    "*": (_bi_concat, 2, 1),
    ":=": (_bi_assign, 2, 0),
    "num.names$": (_bi_num_names, 1, 1),
    "format.name$": (_bi_format_name, 3, 1),
    "=": (_bi_eq, 2, 1),
    "<": (_bi_lt, 2, 1),
    ">": (_bi_gt, 2, 1),
    "+": (_bi_add, 2, 1),
    "-": (_bi_sub, 2, 1),
    "call.type$": (_bi_call_type, None, None),
}

# the builtins that a body binds with the two literal refs before them, each to its op
_REF_PAIRS = {_bi_if: _if, _bi_while: _while}

# Recognized names from full BibTeX that this interpreter deliberately
# does not provide; naming one is reported as such instead of "unknown".
UNSUPPORTED_BUILTINS = frozenset({
    "substring$", "change.case$", "purify$", "text.length$", "text.prefix$",
    "add.period$", "preamble$", "type$", "duplicate$", "pop$", "swap$",
    "stack$", "top$", "chr.to.int$", "int.to.str$", "width$", "warning$",
    "quote$", "global.max$", "entry.max$", "missing$",
})


# The kinds an identifier can have, in precedence order: a name that
# declarations give several kinds keeps the first of them in this order.
FIELD, ENTRY_STR, ENTRY_INT, GLOBAL_STR, GLOBAL_INT, BUILTIN, FUNCTION = range(7)

# The one description of each variable kind, for declarations, reads and
# `:=': whether its values live on the current entry (declared on the Vm's
# blank entry) or on the Vm, the dict attribute that holds them there, and
# its initial value, whose type is the one type the variable holds.
VARIABLES = {
    ENTRY_STR: (True, "strs", ""),
    ENTRY_INT: (True, "ints", 0),
    GLOBAL_STR: (False, "globals_str", ""),
    GLOBAL_INT: (False, "globals_int", 0),
}


def name_kinds(program: BstProgram) -> dict[str, int]:
    """The one name -> kind table, as it stands before any declaration runs."""
    kinds = dict.fromkeys(program.functions, FUNCTION)
    kinds.update(dict.fromkeys(BUILTINS, BUILTIN))
    kinds["sort.key$"] = ENTRY_STR
    return kinds


def declare(kinds: dict[str, int], cmd: BstCommand) -> list[tuple[int, list[str]]]:
    """Record the names an ENTRY, STRINGS or INTEGERS command declares.

    Returns the (kind, names) groups it recorded, none for any other command.
    """
    if cmd.kind == "entry":
        groups = list(zip((FIELD, ENTRY_INT, ENTRY_STR), cmd.operand))  # fields, ints, strs
    elif cmd.kind == "strings":
        groups = [(GLOBAL_STR, cmd.operand)]
    elif cmd.kind == "integers":
        groups = [(GLOBAL_INT, cmd.operand)]
    else:
        return []
    for kind, declared in groups:
        for name in declared:
            kinds[name] = min(kind, kinds.get(name, kind))
    return groups


def run(program: BstProgram, aux: AuxFile, databases: list[Database]) -> tuple[BblDocument, BlgLog]:
    """Execute a parsed style program and return the document and run log.

    Raises nothing: a VmError ends the run and is logged as its last error.
    """
    vm = Vm(program, databases)
    vm.execute(aux)
    return vm.doc, vm.log
