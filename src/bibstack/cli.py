"""Command-line front end tying the pipeline together.

Subcommands mirror the classical build protocol: `latexpass` simulates
one citation pass over <base>.tex, `bibtex` turns <base>.aux plus the
named style and databases into <base>.bbl/<base>.blg, `pipeline` scans
<base>.tex once, runs one pass and bibtex, then hands the new .bbl to
latexpass.fixpoint until the labels settle, and `lint` runs the static
checks over <base>.bst.  pipeline's bibtex stage takes the first pass's
aux from memory: the pass has just written it to <base>.aux, and for any
aux that unwritable lets through, parse_aux(write_aux(aux)) == aux.

Each stage writes its stderr lines in one block, with one write, before
its summary line on stdout.  A command runs with the cyclic garbage
collector off, since it makes no garbage cycle; main restores the
collector's state on every way out.

The command line is `bibstack COMMAND BASE [options]`, read by
_parse_args from two tables, _SUBCOMMANDS and _OPTIONS, which also give
the -h text.  Options come before or after BASE, spelled in full, as
--name VALUE or --name=VALUE; `--' ends them.

Exit codes: 0 success, 1 warnings under --strict, 2 errors.  A malformed
command line is an error: the usage line and one `bibstack: error:' line.
Labels that do not settle within --max-passes are an error.  Any
exception that escapes a command is reported as one stderr line, never a
traceback.
"""

from __future__ import annotations

import gc
import os
import sys
from pathlib import Path
from types import SimpleNamespace

from .auxfile import AuxError, AuxFile, parse_aux, unwritable, write_aux
from .bstparse import parse_bst
from .database import parse_bib
from .diagnostics import ERROR
from .emitter import BlgLog
from .latexpass import (
    PassResult, TexScan, TexScanError, bibitem_keys, fixpoint, run_pass, scan_tex,
)
from .lint import lint_program
from .vm import run

_KNOWN_EXTENSIONS = (".tex", ".aux", ".bib", ".bst", ".bbl")


class _Fail(Exception):
    """Ends a command: its message goes to stderr and the exit code is 2."""


class _Usage(Exception):
    """A malformed command line: the usage line and this message go to stderr, exit code 2."""


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand, return its exit code; never raises SystemExit."""
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except _Usage as err:
        _err([_usage(), f"bibstack: error: {err}"])
        return 2
    if args is None:
        print(_help())
        return 0
    if args.max_passes < 1:
        _err(["--max-passes must be at least 1"])
        return 2
    for ext in _KNOWN_EXTENSIONS:
        if args.base.endswith(ext):
            args.base = args.base[: -len(ext)]
            break
    if not args.base:
        _err(["BASE must not be empty"])
        return 2
    # a command makes no garbage cycle, so the collector would only walk live objects
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.handler(args)
    except _Fail as err:
        _err([str(err)])
    except Exception as err:  # a defect or an exhausted Python limit, e.g. RecursionError
        _err([f"bibstack: internal error: {type(err).__name__}: {' '.join(str(err).split())}"])
    finally:
        if collecting:
            gc.enable()
    return 2


# ---------------------------------------------------------------------------
# bibtex

def cmd_bibtex(cfg: SimpleNamespace, aux: AuxFile | None = None) -> int:
    """bibtex on aux, the contents of <base>.aux; None reads that file."""
    aux_path = Path(cfg.base + ".aux")
    if aux is None:
        if not aux_path.exists():
            raise _Fail(f"no aux file {aux_path}")
        aux = _load(aux_path, parse_aux)
    if aux.style is None:
        raise _Fail(f"no style declared in {aux_path}")
    if not aux.data:
        raise _Fail(f"no database declared in {aux_path}")

    program, diagnostics = _load_style(aux.style, cfg)
    databases = []
    # a repeated field is reported only in the entries READ may keep
    cited = set(aux.citations)
    for data_name in aux.data:
        bib_path = _find_file("database", data_name + ".bib", cfg.base, cfg.bib_dir)
        db, bib_diags = _load(bib_path, lambda text: parse_bib(text, bib_path.name, cited))
        diagnostics += bib_diags
        databases.append(db)

    # the parse diagnostics come first in the log, then the VM's records
    log = BlgLog([(d.severity, d.format()) for d in diagnostics])
    fatal = any(d.fatal for d in diagnostics)
    if not fatal:
        doc, vm_log = run(program, aux, databases)
        log.records += vm_log.records
        _atomic_write(Path(cfg.base + ".bbl"), doc.finalize())
    _atomic_write(Path(cfg.base + ".blg"), log.render())

    _err(message if severity == ERROR else f"warning: {message}" for severity, message in log.records)

    n_errors = len(log.errors())
    n_warnings = len(log.warnings())
    if not fatal:
        print(f"{cfg.base}: wrote {cfg.base}.bbl ({n_warnings} warning(s), {n_errors} error(s))")
    if n_errors:
        return 2
    if cfg.strict and n_warnings:
        return 1
    return 0


# ---------------------------------------------------------------------------
# latexpass

def cmd_latexpass(cfg: SimpleNamespace) -> int:
    _first_pass(cfg, _scan_tex_file(cfg))
    return 0


def _scan_tex_file(cfg: SimpleNamespace) -> TexScan:
    tex_path = Path(cfg.base + ".tex")
    if not tex_path.exists():
        raise _Fail(f"no tex file {tex_path}")
    return _load(tex_path, scan_tex)


def _first_pass(cfg: SimpleNamespace, tex: TexScan) -> PassResult:
    """One pass from the .aux and .bbl on disk, written and reported."""
    aux_path = Path(cfg.base + ".aux")
    old_aux = _load(aux_path, parse_aux) if aux_path.exists() else None
    result = run_pass(tex, old_aux, base=cfg.base, bbl_items=_bbl_items(cfg, tex))
    _report_passes(cfg, [result])
    return result


def _bbl_items(cfg: SimpleNamespace, tex: TexScan) -> list[str] | None:
    """The \\bibitem keys of <base>.bbl in external mode, None if there are none to read."""
    bbl_path = Path(cfg.base + ".bbl")
    if not tex.external or not bbl_path.exists():
        return None
    return _load(bbl_path, bibitem_keys)


def _report_passes(cfg: SimpleNamespace, results: list[PassResult]) -> None:
    """Write the last pass's .aux and .rendered.txt, then print each pass's
    warnings and summary line.  An .aux the next run could not read is not
    written: the command ends."""
    aux_path = Path(cfg.base + ".aux")
    fault = unwritable(results[-1].new_aux)
    if fault:
        raise _Fail(f"{aux_path}: not written: {fault}")
    _atomic_write(aux_path, write_aux(results[-1].new_aux))
    _atomic_write(Path(cfg.base + ".rendered.txt"), results[-1].rendered)
    for result in results:
        _err(result.warnings)
        state = "changed" if result.labels_changed else "stable"
        print(f"{cfg.base}: {len(result.new_aux.citations)} citation(s), "
              f"{result.resolved} resolved, labels {state}")


# ---------------------------------------------------------------------------
# pipeline

def cmd_pipeline(cfg: SimpleNamespace) -> int:
    tex = _scan_tex_file(cfg)
    if tex.style is None:
        raise _Fail("no style declared")
    if not tex.data:
        raise _Fail("no database declared")

    first = _first_pass(cfg, tex)
    # _report_passes wrote first.new_aux, which parse_aux reads back as it is
    bibtex_rc = cmd_bibtex(cfg, first.new_aux)
    if bibtex_rc == 2:
        return 2
    # if the labels never settle, fixpoint adds the one message to the last pass's warnings
    results = fixpoint(tex, first.new_aux, cfg.max_passes, base=cfg.base,
                       bbl_items=_bbl_items(cfg, tex))
    _report_passes(cfg, results)
    return 2 if results[-1].labels_changed else bibtex_rc


# ---------------------------------------------------------------------------
# lint

def cmd_lint(cfg: SimpleNamespace) -> int:
    program, findings = _load_style(cfg.base, cfg)
    # a fatal parse is reported like any finding, but lint does not run on it
    fatal = any(d.fatal for d in findings)
    if not fatal:
        findings += lint_program(program)
    for d in findings:
        where = f":{d.line}" if d.line else ""
        print(f"{program.source}{where}: {d.message}")
    if fatal:
        return 2
    print(f"{cfg.base}: {len(findings)} finding(s)")
    return 1 if findings else 0


# ---------------------------------------------------------------------------
# the command line: each subcommand, the function that runs it and its help
# line; each option, the name of its value (None for a flag that takes no
# value), the function that reads the value, its default and its help line

_SUBCOMMANDS = (
    ("bibtex", cmd_bibtex, "generate <base>.bbl and <base>.blg from <base>.aux"),
    ("latexpass", cmd_latexpass, "run one citation pass over <base>.tex"),
    ("pipeline", cmd_pipeline, "latexpass, bibtex, then passes until the labels settle"),
    ("lint", cmd_lint, "static checks over <base>.bst"),
)
_OPTIONS = (
    ("--style-dir", "DIR", Path, None, "extra directory searched for .bst files"),
    ("--bib-dir", "DIR", Path, None, "extra directory searched for .bib files"),
    ("--max-passes", "N", int, 5, "cap on citation passes (default 5)"),
    ("--strict", None, None, False, "treat warnings as failures (exit 1)"),
)
_HELP_FLAGS = ("-h", "--help")


def _parse_args(argv: list[str]) -> SimpleNamespace | None:
    """The settings of COMMAND BASE [options] with the handler of COMMAND,
    or None when argv asks for help; raises _Usage.  An option may come
    anywhere before `--', as --name VALUE or --name=VALUE, and its value is
    the next argument whatever it starts with."""
    options = {flag: row for flag, *row in _OPTIONS}
    args = SimpleNamespace(**{_attribute(flag): default for flag, _, _, default, _ in _OPTIONS})
    words = []  # COMMAND and BASE
    rest = iter(argv)
    for arg in rest:
        if arg == "--":
            words.extend(rest)  # takes every later argument, which ends the loop
        elif arg in _HELP_FLAGS:
            return None
        elif arg.startswith("-") and arg != "-":
            flag, eq, value = arg.partition("=")
            if flag not in options:
                raise _Usage(f"unknown option {flag}")
            metavar, convert, _, _ = options[flag]
            if metavar is None:
                if eq:
                    raise _Usage(f"option {flag} takes no value")
                value = True
            else:
                if not eq and (value := next(rest, None)) is None:
                    raise _Usage(f"option {flag} needs a value {metavar}")
                try:
                    value = convert(value)
                except ValueError:
                    raise _Usage(f"option {flag}: invalid value {value!r}") from None
            setattr(args, _attribute(flag), value)
        else:
            words.append(arg)
    if not words:
        raise _Usage("no command given")
    handlers = {name: handler for name, handler, _ in _SUBCOMMANDS}
    command, *bases = words
    if command not in handlers:
        raise _Usage(f"unknown command {command!r} (choose from {', '.join(handlers)})")
    if not bases:
        raise _Usage(f"{command} needs BASE")
    if len(bases) > 1:
        raise _Usage(f"unexpected argument {bases[1]!r} after BASE")
    args.handler, args.base = handlers[command], bases[0]
    return args


def _attribute(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _spelled(flag: str, metavar: str | None) -> str:
    return flag if metavar is None else f"{flag} {metavar}"


def _usage() -> str:
    return "usage: bibstack COMMAND BASE " + " ".join(
        f"[{_spelled(flag, metavar)}]" for flag, metavar, *_ in _OPTIONS)


def _help() -> str:
    commands = [(name, help_text) for name, _, help_text in _SUBCOMMANDS]
    options = [(_spelled(flag, metavar), help_text) for flag, metavar, _, _, help_text in _OPTIONS]
    options.append((", ".join(_HELP_FLAGS), "print this help and exit"))
    width = max(len(left) for left, _ in commands + options) + 2

    def table(rows):
        return "\n".join(f"  {left:<{width}}{right}" for left, right in rows)

    return (f"{_usage()}\n\nbibliography toolchain; BASE is a file base name without extension\n\n"
            f"commands:\n{table(commands)}\n\noptions:\n{table(options)}")


# ---------------------------------------------------------------------------
# helpers

def _load(path: Path, parse):
    """parse(text of path); an unreadable file, bad UTF-8 or an .aux/.tex
    syntax error ends the command."""
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as err:
        raise _Fail(f"{path}: invalid UTF-8 at byte {err.start}") from None
    except OSError as err:
        raise _Fail(f"{path}: {err.strerror}") from None
    try:
        return parse(text)
    except (AuxError, TexScanError) as err:
        raise _Fail(f"{path}: {err}") from None


def _atomic_write(path: Path, text: str) -> None:
    """Replace path with text; a file that cannot be written ends the command."""
    # a failed run must never truncate a previous output file, nor leave a temp file
    tmp_name = None
    try:
        name = f"{path}.{os.urandom(4).hex()}"
        # O_EXCL never follows a file planted at the name; mode 0o666 lets the umask apply
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp_name = name
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
        tmp_name = None
    except OSError as err:
        raise _Fail(f"{path}: {err.strerror}") from None
    finally:
        if tmp_name is not None:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass


def _load_style(name: str, cfg: SimpleNamespace):
    """The parsed style NAME.bst and its diagnostics."""
    bst_path = _find_file("style", name + ".bst", cfg.base, cfg.style_dir)
    return _load(bst_path, lambda text: parse_bst(text, bst_path.name))


def _find_file(kind: str, name: str, base: str, extra_dir: Path | None) -> Path:
    """The first of ., the directory of base and extra_dir that holds name;
    when none does, the command ends naming the kind of file and those directories."""
    dirs = [Path(".")]
    base_dir = Path(base).parent
    if str(base_dir) not in ("", "."):
        dirs.append(base_dir)
    if extra_dir is not None:
        dirs.append(extra_dir)
    for directory in dirs:
        candidate = directory / name
        if candidate.exists():
            return candidate
    raise _Fail(f"{kind} file {name} not found in {', '.join(str(d) for d in dirs)}")


def _err(lines) -> None:
    """Write lines to stderr, each ended by a newline, in one write."""
    text = "".join(f"{line}\n" for line in lines)
    if text:
        sys.stderr.write(text)
