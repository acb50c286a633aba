"""Child process for the traced benchmark run: bibstack with its layers wrapped.

    python3 probe.py spans  OUT.json '[["pipeline", "paper"]]'
    python3 probe.py counts OUT.json '[["pipeline", "paper"], ["lint", "sortnames"]]'
    python3 probe.py scale4 OUT.json FULL_DIR QUARTER_DIR STYLE

`spans` runs each CLI command through `bibstack.cli.main` with every
layer's public functions replaced, as module attributes, by wrappers that
record a span (name, start, end, parent, run id).  Spans stay in memory
and are written to OUT.json when the process ends.  Nothing under `src/`
is changed: the wrappers are installed on the attributes the callers look
up (`bibstack.cli.parse_bib`, `bibstack.names.split_names`, ...).

`counts` installs count-only hooks instead, down to `Vm.exec_token` and
`Vm.exec_ident`; its timings mean nothing and are not taken.

`scale4` times the layer functions alone on the full and the quarter-size
corpus, for the t(N)/t(N/4) ratios.

bibstack must be importable (the caller sets PYTHONPATH).
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import bibstack.cli
import bibstack.emitter
import bibstack.names
import bibstack.vm
from bibstack.auxfile import parse_aux
from bibstack.bstparse import KNOWN_BUILTINS, parse_bst
from bibstack.database import parse_bib
from bibstack.latexpass import scan_tex
from bibstack.vm import run

# (owner, attribute, span name); the owner is the object the caller looks
# the function up on, so the wrapper sits on the layer boundary
SPAN_POINTS = [
    (bibstack.cli, "main", "cli.main"),
    (bibstack.cli, "parse_aux", "auxfile.parse_aux"),
    (bibstack.cli, "write_aux", "auxfile.write_aux"),
    (bibstack.cli, "parse_bst", "bstparse.parse_bst"),
    (bibstack.cli, "parse_bib", "database.parse_bib"),
    (bibstack.cli, "run", "vm.run"),
    (bibstack.cli, "scan_tex", "latexpass.scan_tex"),
    (bibstack.cli, "run_pass", "latexpass.run_pass"),
    (bibstack.cli, "lint_program", "lint.lint_program"),
    (bibstack.emitter.BblDocument, "finalize", "emitter.finalize"),
    (bibstack.names, "split_names", "names.split_names"),
    (bibstack.names, "count_names", "names.count_names"),
    (bibstack.names, "format_name", "names.format_name"),
]

SCALE4_REPS = 3


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, run id]
        self.stack: list[int] = []
        self.run_id = 0

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
        return traced

    def install(self) -> None:
        for owner, attr, name in SPAN_POINTS:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))


class Counts:
    """Count-only hooks; one Counter per CLI command."""

    def __init__(self) -> None:
        self.runs: list[Counter] = []
        self.seen_names: set[str] = set()

    def start_run(self) -> None:
        self.runs.append(Counter())
        self.seen_names = set()

    @property
    def c(self) -> Counter:
        return self.runs[-1]

    def install(self) -> None:
        cli, vm_cls, names = bibstack.cli, bibstack.vm.Vm, bibstack.names

        def after(owner, attr, on_result):
            fn = getattr(owner, attr)

            def hooked(*args, **kwargs):
                result = fn(*args, **kwargs)
                on_result(result, *args)
                return result
            setattr(owner, attr, hooked)

        def calls(key):
            def on_result(_result, *_args):
                self.c[key] += 1
            return on_result

        def on_bib(result, *_args):
            self.c["database.entries"] += len(result[0].entries)

        def on_bst(result, *_args):
            self.c["bstparse.tokens"] += _program_tokens(result[0])

        def on_write_aux(_result, aux):
            self.c["auxfile.write_aux.calls"] += 1
            self.c["auxfile.citations"] = len(aux.citations)

        def on_scan(result, *_args):
            self.c["latexpass.scan_tex.calls"] += 1
            if self.c["latexpass.scan_tex.calls"] == 1:  # the first scan reads the .tex
                self.c["latexpass.cites"] = len(result.cite_spans)

        def on_run(result, *_args):
            self.c["emitter.blg_records"] += len(result[1].records)

        def on_finalize(result, *_args):
            self.c["emitter.bbl_bytes"] += len(result.encode("utf-8"))
            self.c["emitter.bbl_lines"] += result.count("\n")

        def on_lint(result, *_args):
            self.c["lint.findings"] += len(result)

        def on_execute(_result, vm, *_args):
            self.c["vm.entries"] += len(vm.entries)

        def on_split(_result, author):
            self.c["names.split_names.calls"] += 1
            if author in self.seen_names:
                self.c["names.split_names.repeats"] += 1
            else:
                self.seen_names.add(author)

        after(cli, "parse_bib", on_bib)
        after(cli, "parse_bst", on_bst)
        after(cli, "parse_aux", calls("auxfile.parse_aux.calls"))
        after(cli, "write_aux", on_write_aux)
        after(cli, "scan_tex", on_scan)
        after(cli, "run_pass", calls("latexpass.run_pass.calls"))
        after(cli, "run", on_run)
        after(cli, "lint_program", on_lint)
        after(bibstack.emitter.BblDocument, "finalize", on_finalize)
        after(vm_cls, "execute", on_execute)
        after(names, "split_names", on_split)
        after(names, "count_names", calls("names.count_names.calls"))
        after(names, "format_name", calls("names.format_name.calls"))

        exec_token = vm_cls.exec_token
        exec_ident = vm_cls.exec_ident

        def counted_token(vm, tok):
            self.c["vm.tokens"] += 1
            return exec_token(vm, tok)

        def counted_ident(vm, name, line):
            # the same resolution order as Vm.exec_ident: variables first
            if not (name in vm.field_names or name in vm.entry_str_names
                    or name in vm.entry_int_names or name in vm.globals_str
                    or name in vm.globals_int):
                if name in KNOWN_BUILTINS:
                    self.c["vm.calls." + name] += 1
                elif name in vm.program.functions:
                    self.c["vm.function_calls"] += 1
            return exec_ident(vm, name, line)

        vm_cls.exec_token = counted_token
        vm_cls.exec_ident = counted_ident


def _count_tokens(tokens) -> int:
    n = 0
    for tok in tokens:
        n += 1
        if tok.kind == "block":
            n += _count_tokens(tok.value)
    return n


def _program_tokens(program) -> int:
    """Tokens the tokenizer produced for a parsed program, braces counted as one."""
    n = 0
    for cmd in program.commands:
        n += 1  # the command keyword
        if cmd.kind == "entry":
            n += 3 + sum(len(group) for group in cmd.operand)
        elif cmd.kind == "function":
            n += 3 + _count_tokens(program.functions[cmd.operand])
        elif cmd.kind in ("execute", "iterate"):
            n += 2
        elif cmd.kind in ("strings", "integers"):
            n += 1 + len(cmd.operand)
    return n


def run_commands(commands: list[list[str]], on_start) -> list[int]:
    rcs = []
    for run_id, argv in enumerate(commands):
        on_start(run_id)
        rcs.append(bibstack.cli.main(argv))
    return rcs


def scale4(full: Path, quarter: Path, style: str) -> dict[str, float]:
    """t(N)/t(N/4) of parse_bib, vm.run and scan_tex, each called alone."""

    def load(d: Path):
        bib = (d / "refs.bib").read_text(encoding="utf-8")
        tex = (d / "paper.tex").read_text(encoding="utf-8")
        program, _ = parse_bst((d / f"{style}.bst").read_text(encoding="utf-8"))
        aux = parse_aux((d / "paper.aux").read_text(encoding="utf-8"))
        return bib, tex, program, aux, parse_bib(bib)[0]

    sides = [load(full), load(quarter)]
    calls = {
        "database.parse_bib.scale4": lambda s: parse_bib(s[0]),
        "vm.run.scale4": lambda s: run(s[2], s[3], [s[4]]),
        "latexpass.scan_tex.scale4": lambda s: scan_tex(s[1]),
    }
    out = {}
    for metric, call in calls.items():
        times: list[list[float]] = [[], []]
        for _ in range(SCALE4_REPS):
            for i, side in enumerate(sides):
                t0 = time.perf_counter()
                call(side)
                times[i].append(time.perf_counter() - t0)
        out[metric] = statistics.median(times[0]) / statistics.median(times[1])
    return out


def main(argv: list[str]) -> int:
    mode, out_path = argv[0], Path(argv[1])
    if mode == "spans":
        tracer = Tracer()
        tracer.install()

        def start(run_id):
            tracer.run_id = run_id
        rcs = run_commands(json.loads(argv[2]), start)
        result = {"rcs": rcs, "spans": tracer.spans}
    elif mode == "counts":
        counts = Counts()
        counts.install()
        rcs = run_commands(json.loads(argv[2]), lambda _run_id: counts.start_run())
        result = {"rcs": rcs, "counts": [dict(c) for c in counts.runs]}
    elif mode == "scale4":
        result = {"scale4": scale4(Path(argv[2]), Path(argv[3]), argv[4])}
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    out_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
