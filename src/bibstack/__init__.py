"""bibstack: a self-contained bibliography toolchain.

Parses .bib databases and .aux citation files, interprets postfix
stack-machine style programs (.bst), emits .bbl bibliographies with a
.blg run log, and simulates the multi-pass citation-number fixpoint of
a LaTeX build.
"""

__version__ = "0.1.0"
