"""Run the working tree's bibstack and another revision's side by side.

    python3 tools/parentdiff.py REV [--budget N]

REV is a git revision, whose src/bibstack is taken with `git archive`
(no network needed), or a directory that holds a bibstack package: a
checkout's root or its src/bibstack.  That package is imported as
`bibstack_parent` beside the tree's `bibstack` (every import inside the
package is relative), and both get the same inputs:

- the names functions: split_names, count_names, parse_name and
  format_name, and which templates parse_template accepts and into how
  many pieces (the piece record itself is internal);
- parse_bib, parse_bst, parse_aux, scan_tex and bibitem_keys (the .bbl
  reader, on the same texts as scan_tex): the result with every
  Diagnostic field and every .bib entry's fields, or the error's type,
  message and line; parse_bib gets cited keys drawn as None or a set of
  the text's keys; lint's findings and format_program on each parsed
  style;
- the VM on generated styles, .bib texts and citations, with a while$
  limit of STYLE_WHILE_LIMIT and no body compiled (the generic tier): the
  .bbl, the .blg records, the final stack, the call depth the run ends at
  (0 unless an error left a level counted), the globals and every entry's
  ints and strs; and the same again (`vm.compiled`) with every body of
  both packages compiled at its first entry, where a package has that
  tier, on those inputs and on each corpus below (with the package's own
  while$ limit); and (`tiers`) the tree's own generic tier, every body
  compiled at its first entry and every body compiled at its third, on
  those inputs, where any two outcomes that differ count a difference;
- the CLI on the seed-1 and seed-2 corpora of every perfbench workload
  (`pipeline` in one directory; `latexpass`, `bibtex` and `lint` in
  turn in another): exit code, stdout, stderr and the bytes of every
  file left behind; and parse_bib on each corpus's .bib, with no cited
  keys and (`parse_bib.WORKLOAD.cited`) with the .aux citations.

The random inputs come from the strategies in tests/fixtures.py, BUDGET
of them per generator; the corpora come from perfbench/corpus.py, built
at CORPUS_SCALE.  Prints the inputs and differences per check, with the first
differing input of each, and exits 1 on any difference, 2 when REV
cannot be loaded, 0 otherwise.  Run as a script, it puts the tree's src,
tests and perfbench directories on sys.path; a module that imports it
puts them there first.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / path) for path in ("src", "tests", "perfbench")]

import hypothesis  # noqa: E402
from hypothesis import HealthCheck, Phase  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import bibstack  # noqa: E402
import bibstack.cli  # noqa: E402
import corpus  # noqa: E402
from fixtures import (  # noqa: E402
    BIB_TEXT, BST_TEXT, NAME_TEXT, SCANNER_TEXT, STYLE_TEXT, STYLE_WHILE_LIMIT, TEMPLATE_TEXT, TEX_TEXT,
    VM_INPUTS, cited_keys,
)

CORPUS_SEEDS = (1, 2)
CORPUS_SCALE = 1.0


def load(rev: str, workdir: Path):
    """Import REV's bibstack package as bibstack_parent, from a copy under workdir."""
    target = workdir / "bibstack_parent"
    source = Path(rev)
    if source.is_dir():
        if not (source / "__init__.py").exists():
            source = source / "src" / "bibstack"
        shutil.copytree(source, target, ignore=shutil.ignore_patterns("__pycache__"))
    else:
        git = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src/bibstack"],
                             capture_output=True)
        if git.returncode:
            raise OSError(git.stderr.decode(errors="replace").strip())
        with tarfile.open(fileobj=io.BytesIO(git.stdout)) as archive:
            # the "data" filter (Python 3.11.4 and later) refuses links and paths out of workdir
            archive.extractall(workdir, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        (workdir / "src" / "bibstack").rename(target)
    for name in [m for m in sys.modules if m.split(".")[0] == "bibstack_parent"]:
        del sys.modules[name]
    sys.path.insert(0, str(workdir))
    try:
        importlib.import_module("bibstack_parent.cli")
        return importlib.import_module("bibstack_parent")
    finally:
        sys.path.remove(str(workdir))


def plain(value):
    """value as lists, tuples and scalars, so that the two packages' records compare:
    a dataclass, NamedTuple or slotted record becomes its class name and
    fields, an error its type, message and line."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__, *(plain(getattr(value, f.name)) for f in dataclasses.fields(value)))
    if hasattr(value, "_fields"):
        return (type(value).__name__, *(plain(v) for v in value))
    if slots := getattr(type(value), "__slots__", ()):
        # a private `_' slot is no field (an Entry's fields are built here on first read)
        return (type(value).__name__,
                *(plain(getattr(value, name)) for name in slots if name[0] != "_"))
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, dict):
        return [(k, plain(v)) for k, v in value.items()]
    if isinstance(value, BaseException):
        return ("raised", type(value).__name__, str(value), getattr(value, "line", None))
    return value


def outcome(fn, *args):
    """plain() of fn's result, or of the exception it raised."""
    try:
        return plain(fn(*args))
    except Exception as err:
        return plain(err)


class Report:
    """Runs each check on both packages and counts the inputs and the differences."""

    def __init__(self, parent, tree):
        self.packages = (parent, tree)
        self.inputs: Counter[str] = Counter()
        self.differences: Counter[str] = Counter()
        self.first: dict[str, tuple] = {}

    def compare(self, check: str, given, run) -> None:
        """Compare run(package)'s outcome between the two packages."""
        parent, tree = self.packages
        self.agree(check, given, {"parent": outcome(run, parent), "tree": outcome(run, tree)})

    def agree(self, check: str, given, outcomes: dict) -> None:
        """Count one input of check, and a difference unless the outcomes, by name, are all the same."""
        first, *others = outcomes.values()
        self.inputs[check] += 1
        if any(other != first for other in others):
            self.differences[check] += 1
            self.first.setdefault(check, (given, outcomes))

    def print(self) -> int:
        for check in self.inputs:
            print(f"{check:34} {self.inputs[check]:7} inputs {self.differences[check]:6} differences")
        for check, (given, outcomes) in self.first.items():
            print(f"\nfirst difference in {check}:\n  input:  {given!r:.400}")
            width = max(map(len, outcomes)) + 2
            for name, value in outcomes.items():
                print(f"  {name + ':':{width}}{value!r:.400}")
        total = sum(self.differences.values())
        print(f"\n{total} differences in {sum(self.inputs.values())} comparisons")
        return total


def each_input(strategy, budget: int, check) -> None:
    """Call check on `budget` inputs drawn from the strategy (fewer if it has fewer),
    the same ones on every run."""
    @hypothesis.settings(max_examples=budget, database=None, derandomize=True, deadline=None,
                         phases=[Phase.generate], suppress_health_check=list(HealthCheck))
    @hypothesis.given(strategy)
    def run(value):
        check(value)

    run()


def compare_names(report: Report, given) -> None:
    text, template = given
    for fn in ("split_names", "count_names", "parse_name"):
        report.compare(f"names.{fn}", text, lambda p: getattr(p.names, fn)(text))
    report.compare("names.parse_template", template, lambda p: len(p.names.parse_template(template)))
    report.compare("names.format_name", given, lambda p: p.names.format_name(text, template))


def compare_bst(report: Report, text: str) -> None:
    report.compare("parse_bst", text, lambda p: p.bstparse.parse_bst(text))
    report.compare("lint", text, lambda p: p.lint.lint_program(p.bstparse.parse_bst(text)[0]))
    report.compare("format_program", text,
                   lambda p: p.bstparse.format_program(p.bstparse.parse_bst(text)[0]))


def compare_tex(report: Report, text: str) -> None:
    report.compare("parse_aux", text, lambda p: p.auxfile.parse_aux(text))
    report.compare("scan_tex", text, lambda p: p.latexpass.scan_tex(text))
    report.compare("bibitem_keys", text, lambda p: p.latexpass.bibitem_keys(text))


def vm_run(pkg, style: str, bibs: list[str], aux: str, compile_after: float = float("inf")):
    """One VM run's outcome, with no body compiled, the generic tier; with
    compile_after 0, every body compiled at its first entry (COMPILE_AFTER is
    the compiled tier's test seam; a package without that tier ignores it)."""
    with mock.patch.object(pkg.vm, "COMPILE_AFTER", compile_after, create=True):
        program, _ = pkg.bstparse.parse_bst(style)
        vm = pkg.vm.Vm(program, [pkg.database.parse_bib(b)[0] for b in bibs])
        vm.execute(pkg.auxfile.parse_aux(aux))
    return (vm.doc.finalize(), vm.log.records, vm.stack, vm.depth, vm.globals_int, vm.globals_str,
            [(e.key, e.ints, e.strs) for e in vm.entries])


def vm_run_compiled(pkg, *inputs):
    """vm_run with every body compiled at its first entry."""
    return vm_run(pkg, *inputs, compile_after=0)


# the COMPILE_AFTER of each tier the tiers check runs: the generic tier; every
# FUNCTION compiled at its first entry; and every FUNCTION compiled at its third, so
# that FUNCTIONs compile mid-run, after their blocks have run through their ops
TIERS = {"generic": float("inf"), "compiled": 0, "compiled after 2": 2}


def vm_tiers(pkg, *inputs) -> dict:
    """plain() of one VM run's outcome in each of pkg's TIERS, by name."""
    return {tier: outcome(vm_run, pkg, *inputs, compile_after) for tier, compile_after in TIERS.items()}


def compare_vm(report: Report, given) -> None:
    """The vm and vm.compiled checks on one generated input, and the tiers check of
    the tree's own TIERS, with the while$ limit at STYLE_WHILE_LIMIT, so that a
    wrong - or > fails fast."""
    def small_loops(run):
        def run_small(pkg):
            with mock.patch.object(pkg.vm, "WHILE_LIMIT", STYLE_WHILE_LIMIT):
                return run(pkg, *given)
        return run_small

    report.compare("vm", given, small_loops(vm_run))
    report.compare("vm.compiled", given, small_loops(vm_run_compiled))
    report.agree("tiers", given, small_loops(vm_tiers)(bibstack))


def cli_run(pkg, workdir: Path, argv: list[str]):
    """Exit code, stdout, stderr and the files left, of one command run in workdir."""
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pkg.cli.main(argv)
    finally:
        os.chdir(cwd)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return code, out.getvalue(), err.getvalue(), files


def compare_corpora(report: Report, workdir: Path) -> None:
    for workload in corpus.WORKLOADS:
        for seed in CORPUS_SEEDS:
            built = corpus.build(workload, seed, CORPUS_SCALE)
            bib = built.files[f"{corpus.BIB}.bib"]
            cited = set(bibstack.auxfile.parse_aux(built.aux).citations)
            report.compare(f"parse_bib.{workload}", seed, lambda p: p.database.parse_bib(bib))
            report.compare(f"parse_bib.{workload}.cited", seed,
                           lambda p: p.database.parse_bib(bib, f"{corpus.BIB}.bib", cited))
            style = built.files[f"{built.style}.bst"]
            report.compare(f"vm.compiled.{workload}", seed,
                           lambda p: vm_run_compiled(p, style, [bib], built.aux))
            runs = [[["pipeline", corpus.BASE]],
                    [["latexpass", corpus.BASE], ["bibtex", corpus.BASE], ["lint", built.style]]]
            for i, steps in enumerate(runs):
                dirs = {}
                for pkg in report.packages:
                    dirs[pkg] = workdir / f"{workload}-{seed}-{i}-{pkg.__name__}"
                    dirs[pkg].mkdir()
                    for name, text in built.files.items():
                        (dirs[pkg] / name).write_text(text, encoding="utf-8")
                for argv in steps:
                    report.compare(f"cli.{workload}.{argv[0]}", (seed, argv),
                                   lambda p: cli_run(p, dirs[p], argv))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="parentdiff", description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision, or a directory holding a bibstack package")
    parser.add_argument("--budget", type=int, default=1000, help="inputs per generator (default 1000)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="parentdiff-") as tmp:
        try:
            parent = load(args.rev, Path(tmp))
        except (OSError, ImportError) as err:
            print(f"parentdiff: cannot load {args.rev}: {err}", file=sys.stderr)
            return 2
        report = Report(parent, bibstack)
        generators = [
            (st.tuples(NAME_TEXT, TEMPLATE_TEXT), lambda g: compare_names(report, g)),
            (st.one_of(BIB_TEXT, SCANNER_TEXT).flatmap(lambda t: st.tuples(st.just(t), cited_keys(t))),
             lambda g: report.compare("parse_bib", g, lambda p: p.database.parse_bib(g[0], cited=g[1]))),
            (st.one_of(BST_TEXT, STYLE_TEXT), lambda t: compare_bst(report, t)),
            (TEX_TEXT, lambda t: compare_tex(report, t)),
            (VM_INPUTS, lambda g: compare_vm(report, g)),
        ]
        for strategy, check in generators:
            each_input(strategy, args.budget, check)
        compare_corpora(report, Path(tmp))
    return 1 if report.print() else 0


if __name__ == "__main__":
    raise SystemExit(main())
