"""Command-line front end tying the pipeline together.

Subcommands mirror the classical build protocol: `latexpass` simulates
one citation pass over <base>.tex, `bibtex` turns <base>.aux plus the
named style and databases into <base>.bbl/<base>.blg, `pipeline` scans
<base>.tex once, runs one pass and bibtex, then hands the new .bbl to
latexpass.fixpoint until the labels settle, and `lint` runs the static
checks over <base>.bst.

Exit codes: 0 success, 1 warnings under --strict, 2 errors.  Labels that
do not settle within --max-passes are an error.  Any exception that
escapes a command is reported as one stderr line, never a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .auxfile import AuxError, parse_aux, unwritable, write_aux
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


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand, return its exit code; raises only argparse's SystemExit."""
    args = _build_parser().parse_args(argv)
    if args.max_passes < 1:
        _err("--max-passes must be at least 1")
        return 2
    for ext in _KNOWN_EXTENSIONS:
        if args.base.endswith(ext):
            args.base = args.base[: -len(ext)]
            break
    if not args.base:
        _err("BASE must not be empty")
        return 2
    try:
        return args.handler(args)
    except _Fail as err:
        _err(str(err))
    except Exception as err:  # a defect or an exhausted Python limit, e.g. RecursionError
        _err(f"bibstack: internal error: {type(err).__name__}: {' '.join(str(err).split())}")
    return 2


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("base", help="file base name without extension")
    common.add_argument("--style-dir", type=Path, default=None,
                        help="extra directory searched for .bst files")
    common.add_argument("--bib-dir", type=Path, default=None,
                        help="extra directory searched for .bib files")
    common.add_argument("--max-passes", type=int, default=5,
                        help="cap on citation passes (default 5)")
    common.add_argument("--strict", action="store_true",
                        help="treat warnings as failures (exit 1)")
    parser = argparse.ArgumentParser(prog="bibstack",
                                     description="bibliography toolchain")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text in _SUBCOMMANDS:
        sub.add_parser(name, parents=[common], help=help_text).set_defaults(handler=handler)
    return parser


# ---------------------------------------------------------------------------
# bibtex

def cmd_bibtex(cfg: argparse.Namespace) -> int:
    aux_path = Path(cfg.base + ".aux")
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

    for severity, message in log.records:
        _err(message if severity == ERROR else f"warning: {message}")

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

def cmd_latexpass(cfg: argparse.Namespace) -> int:
    _first_pass(cfg, _scan_tex_file(cfg))
    return 0


def _scan_tex_file(cfg: argparse.Namespace) -> TexScan:
    tex_path = Path(cfg.base + ".tex")
    if not tex_path.exists():
        raise _Fail(f"no tex file {tex_path}")
    return _load(tex_path, scan_tex)


def _first_pass(cfg: argparse.Namespace, tex: TexScan) -> PassResult:
    """One pass from the .aux and .bbl on disk, written and reported."""
    aux_path = Path(cfg.base + ".aux")
    old_aux = _load(aux_path, parse_aux) if aux_path.exists() else None
    result = run_pass(tex, old_aux, base=cfg.base, bbl_items=_bbl_items(cfg, tex))
    _report_passes(cfg, [result])
    return result


def _bbl_items(cfg: argparse.Namespace, tex: TexScan) -> list[str] | None:
    """The \\bibitem keys of <base>.bbl in external mode, None if there are none to read."""
    bbl_path = Path(cfg.base + ".bbl")
    if not tex.external or not bbl_path.exists():
        return None
    return _load(bbl_path, bibitem_keys)


def _report_passes(cfg: argparse.Namespace, results: list[PassResult]) -> None:
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
        for warning in result.warnings:
            _err(warning)
        state = "changed" if result.labels_changed else "stable"
        print(f"{cfg.base}: {len(result.new_aux.citations)} citation(s), "
              f"{result.resolved} resolved, labels {state}")


# ---------------------------------------------------------------------------
# pipeline

def cmd_pipeline(cfg: argparse.Namespace) -> int:
    tex = _scan_tex_file(cfg)
    if tex.style is None:
        raise _Fail("no style declared")
    if not tex.data:
        raise _Fail("no database declared")

    first = _first_pass(cfg, tex)
    bibtex_rc = cmd_bibtex(cfg)
    if bibtex_rc == 2:
        return 2
    # if the labels never settle, fixpoint adds the one message to the last pass's warnings
    results = fixpoint(tex, first.new_aux, cfg.max_passes, base=cfg.base,
                       bbl_items=_bbl_items(cfg, tex))
    _report_passes(cfg, results)
    return 2 if results[-1].labels_changed else bibtex_rc


# ---------------------------------------------------------------------------
# lint

def cmd_lint(cfg: argparse.Namespace) -> int:
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
# each subcommand: its name, the function that runs it, and its help line

_SUBCOMMANDS = (
    ("bibtex", cmd_bibtex, "generate <base>.bbl and <base>.blg from <base>.aux"),
    ("latexpass", cmd_latexpass, "run one citation pass over <base>.tex"),
    ("pipeline", cmd_pipeline, "latexpass, bibtex, then passes until the labels settle"),
    ("lint", cmd_lint, "static checks over <base>.bst"),
)


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


def _load_style(name: str, cfg: argparse.Namespace):
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


def _err(message: str) -> None:
    print(message, file=sys.stderr)
