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
Resolving a body binds two operand pairs into one op each, a superoperator
in Proebsting's sense: a quoted variable name and the := after it, an op
that pops only the value, and two literal refs (a {...} block or a quoted
name) and the if$ after them, an op that pops only the condition.  Each
makes the checks, in the same order, and raises the errors of the builtin
it stands for.  Binding a name's kind into a body is sound because only a
declaration changes a kind, and every declaration drops the resolved
bodies.  A := or if$ that a declaration shadows, or that no such pair
precedes, resolves as any other name.  format.name$ parses each distinct
name once per run: the Vm keeps every parsed name, so the memo lives and
dies with it and holds no more names than the run's input.
Every body entered counts one call level, up to CALL_DEPTH_LIMIT, and
call_ref counts one for a quoted name that if$ or while$ runs and that
enters no body.

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
    from .bstparse import BstCommand, BstProgram, Token

WHILE_LIMIT = 1_000_000  # iterations of one while$
# Each level costs at most three Python frames (a body, if$ or while$,
# call_ref), so the limit trips well inside Python's default
# recursion limit of 1000 frames, leaving room for the caller and the builtins.
CALL_DEPTH_LIMIT = 200


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
        # id(body) -> (body, resolved ops); holding the body keeps its id unique
        self._resolved: dict[int, tuple[list[Token], list[tuple]]] = {}
        # name -> its parts, for every name format.name$ has parsed in this run
        self._names: dict[str, names.NameParts] = {}

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
        """The handler that runs a (body, line) operand as exec_tokens does."""
        tokens, line = body_line
        resolved = self._resolved.get(id(tokens))
        if resolved is None:
            resolved = self._resolved[id(tokens)] = (tokens, self._resolve_body(tokens))
        self._enter(line)
        try:
            for handler, operand in resolved[1]:
                handler(self, operand)
        finally:
            self.depth -= 1

    def _resolve_body(self, tokens: list[Token]) -> list[tuple]:
        """The (handler, operand) ops that run a body as self.kinds stands now:
        one per token, except that `'v :=' on a variable and `{..} {..} if$'
        each become one op that takes no operand from the stack but the value
        or the condition.  A builtin that the table shadows, or whose handler
        is wrapped, resolves to some other handler and binds nothing."""
        ops: list[tuple] = []
        for i, tok in enumerate(tokens):
            op = self._resolve_token(tok)
            if op[0] is _bi_assign and i >= 1 and tokens[i - 1].kind == "quoted":
                name = tokens[i - 1].value
                kind = self.kinds.get(name)
                if kind in VARIABLES:
                    ops[-1] = _assign, self._assignment(name, kind, op[1])
                    continue
            elif op[0] is _bi_if and i >= 2 and all(t.kind in ("quoted", "block") for t in tokens[i - 2 : i]):
                ops[-2:] = [(_if, (ops[-2][1], ops[-1][1], op[1]))]
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

    def call_ref(self, ref: FnRef, line: int) -> None:
        """Run a {...} block, or a quoted name as it resolves now, as one call level."""
        if ref.body is not None:
            handler, operand = Vm._call, (ref.body, line)
        else:
            handler, operand = self._resolve_name(ref.name, line)
        if handler is Vm._call:  # entering the body counts the level
            handler(self, operand)
            return
        self._enter(line)
        try:
            handler(self, operand)
        finally:
            self.depth -= 1

    # -- helpers ------------------------------------------------------------

    def _enter(self, line: int) -> None:
        if self.depth >= CALL_DEPTH_LIMIT:
            raise VmError(f"function call depth exceeded (limit {CALL_DEPTH_LIMIT})", line)
        self.depth += 1

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
    if value is None:
        vm.log.warning(missing_field_message(name, entry.key))
        value = MissingField(name, entry.key)
    vm.stack.append(value)


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
    then_ref, else_ref, at = operand
    vm.call_ref(then_ref if vm.pop_int(at) > 0 else else_ref, at[1])


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
    vm.call_ref(then_ref if cond > 0 else else_ref, at[1])


def _bi_while(vm: Vm, at: tuple) -> None:
    body = vm.pop_ref(at)
    pred = vm.pop_ref(at)
    line = at[1]
    for _ in range(WHILE_LIMIT):
        vm.call_ref(pred, line)
        if vm.pop_int(at) <= 0:
            return
        vm.call_ref(body, line)
    raise _error(at, f"iteration limit of {WHILE_LIMIT} exceeded")


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
    vm.stack.append(names.count_names(vm.pop_str(at)))


def _bi_format_name(vm: Vm, at: tuple) -> None:
    template = vm.pop_str(at)
    index = vm.pop_int(at)
    name_list = vm.pop_str(at)
    parts = names.split_names(name_list)
    if index < 1 or index > len(parts):
        where = f"entry {vm.current.key}" if vm.current is not None else f'"{name_list}"'
        raise _error(at, f"name index {index} out of range for {where}")
    name = parts[index - 1]
    try:
        parsed = vm._names.get(name)
        if parsed is None:
            parsed = vm._names[name] = names.parse_name(name)
        vm.stack.append(names.format_name(name, template, parsed))
    except (names.NameParseError, names.TemplateError) as err:
        raise _error(at, str(err)) from err


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


def _bi_call_type(vm: Vm, at: tuple) -> None:
    entry_type = vm._need_entry(*at).entry_type
    if vm.kinds.get(entry_type) != FUNCTION:  # a function hidden by a declaration is not run
        vm.log.warning(f"no handler function for entry type `{entry_type}'")
        return
    vm.exec_ident(entry_type, at[1])


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
    "<": (_make_int_op(lambda a, b: 1 if a < b else 0), 2, 1),
    ">": (_make_int_op(lambda a, b: 1 if a > b else 0), 2, 1),
    "+": (_make_int_op(lambda a, b: a + b), 2, 1),
    "-": (_make_int_op(lambda a, b: a - b), 2, 1),
    "call.type$": (_bi_call_type, None, None),
}

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
