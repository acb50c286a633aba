"""bibstack: a self-contained bibliography toolchain.

Parses .bib databases and .aux citation files, interprets postfix
stack-machine style programs (.bst), emits .bbl bibliographies with a
.blg run log, and simulates the multi-pass citation-number fixpoint of
a LaTeX build.
"""

from .auxfile import AuxError, AuxFile, parse_aux, unique_citation_order, write_aux
from .bstparse import BstCommand, BstProgram, Token, parse_bst
from .database import Database, Entry, get_field, lookup, parse_bib
from .diagnostics import Diagnostic
from .emitter import BblDocument, BlgLog
from .latexpass import PassResult, TexScan, TexScanError, fixpoint, run_pass, scan_tex
from .lint import lint_program
from .names import NameParts, count_names, format_name, parse_name, split_names
from .vm import FnRef, MissingField, Vm, VmError, run

__version__ = "0.1.0"

__all__ = [
    "AuxError", "AuxFile", "parse_aux", "unique_citation_order", "write_aux",
    "BstCommand", "BstProgram", "Token", "parse_bst",
    "Database", "Entry", "get_field", "lookup", "parse_bib",
    "Diagnostic",
    "BblDocument", "BlgLog",
    "PassResult", "TexScan", "TexScanError", "fixpoint", "run_pass", "scan_tex",
    "lint_program",
    "NameParts", "count_names", "format_name", "parse_name", "split_names",
    "FnRef", "MissingField", "Vm", "VmError", "run",
    "__version__",
]
