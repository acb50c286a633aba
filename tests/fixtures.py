"""Shared input texts and small helpers for the test suite."""

import re

from hypothesis import strategies as st

_LINE_END = re.compile(r"\r\n?|\n")


def _line_at(text: str, offset: int) -> int:
    """The line of text that offset is on; a line ends at CR, CRLF or LF."""
    return 1 + len(_LINE_END.findall(text, 0, offset))


# any text, weighted toward the characters that drive .bib and .bst scanning
SCANNER_TEXT = st.text(st.one_of(
    st.sampled_from(list("@{}\"#'%,=\n\r \t")),
    st.sampled_from(list("misc1")),
    st.characters(),
), max_size=200)

# any text, weighted toward the pieces that drive .tex and .aux scanning:
# the recognized command names, longer words that start with them, whole
# groups and commands (some naming what an .aux line cannot carry, some
# inside the width group of \begin{thebibliography}), a comment line,
# the three line ends (LF, CRLF and a lone CR), and letters outside ASCII
# that str.isalpha accepts (é, Ⅻ) or rejects (²)
TEX_TEXT = st.lists(st.one_of(
    st.sampled_from(["\\", "%", "{", "}", "[", "]", ",", "\n", "\r\n", "\r", " ", "é", "²", "Ⅻ"]),
    st.sampled_from(["{k}", "{a, b}", "{thebibliography}", "[o]", "\\cite{k}", "\\cite {a,b}",
                     "\\bibitem[o]{k}", "\\citation{k}", "\\bibcite{k}{1}",
                     "\\cite{k,}", "\\bibliography{x{y}z}", "\\bibitem{a\x85b}", "% \\cite{c}\n",
                     # a comment or a line that a lone CR ends, then a cite on the next line
                     "% c\r\\cite{k}", "x\r\\cite{k}",
                     # commands inside the width group, which is text
                     "\\begin{thebibliography}{\\cite{k}}", "\\begin{thebibliography}{9 \\bibitem{k}}"]),
    st.sampled_from([
        "\\cite", "\\bibitem", "\\bibliographystyle", "\\bibliography", "\\begin",
        "\\citeauthor", "\\bibliographyx", "thebibliography",
        "\\citation", "\\bibstyle", "\\bibdata", "\\bibcite", "\\relax",
    ]),
    st.characters(),
), max_size=60).map("".join)

# .bst text: any text, loose keywords and groups, and whole commands, so
# that commands parse as often as they fail
BST_TEXT = st.lists(st.one_of(
    SCANNER_TEXT,
    st.sampled_from(["ENTRY", "FUNCTION", "EXECUTE", "ITERATE", "STRINGS", "MACRO", "bogus",
                     "{f}", "{f g}", "{}", "{#-2}"]),
    st.sampled_from([
        "ENTRY {a b} {n} {s}", "FUNCTION {f} { #1 'f \"s\" { skip$ } f }",
        "Function {G} { \"x\" write$ newline$ }", "EXECUTE {f}", "ITERATE {call.type$}",
        "STRINGS { s t }", "INTEGERS {n}", "READ", "SORT", "{sort}", "MACRO {m} {\"v\"}",
        "REVERSE {f}",
    ]),
), max_size=12).map(" ".join)

# .bib values that parse: flat, one, two and three levels of inner groups,
# quoted with no group, a group, a group holding a `"' and groups two and
# three levels deep, ASCII and non-ASCII digit runs, and braced and quoted
# text that reads like a second field, or holds an `='
BIB_GOOD_VALUES = ["{x}", "{}", "{a b}", "{Zo{\\\"e} M{\\\"u}ller}", "{Corporate and Co}",
                   "{A {B {C}} D}", "{a {b {c {d}}}}", "{line\nbreak}", '"q"', '""', '"a {b} c"',
                   '"a {b "c} d"', '"a {b {c}} d"', '"{a {b {c}}}"', "1984", "\u0663",
                   "{a, note = b}", '"x, year = 1"', "{=, NOTE=c}", '"y = 2, a#b ="']

# .bib text: entries built from the pieces that steer parse_bib between
# its whole-entry match and its general reader
# (the values above; `#' after a value; `a#b' names; duplicate fields and
# keys; missing commas and separators of whitespace alone; CRLF; @string
# blocks; unterminated values), mixed with loose characters
_BIB_FIELD = st.tuples(
    st.sampled_from(["note", "year", "NOTE", "a#b"]),
    st.sampled_from([" = ", "=", " =\r\n  "]),
    st.one_of(st.sampled_from(BIB_GOOD_VALUES), st.sampled_from(BIB_GOOD_VALUES),
              st.sampled_from(['"x" # "y"', "{x} #", "1 # 2", '"a}b"',
                               "12ab", "1\u0663", "jan", "{open", '"open'])),
).map("".join)
_BIB_ENTRY = st.tuples(
    st.sampled_from(["@misc", "@Article", "@string"]),
    st.sampled_from(["{k", "{j", "{ k"]),
    st.lists(st.tuples(st.sampled_from([",", ", ", ",\r\n  ", ",\n  ", " ", ",,", "\n\t"]), _BIB_FIELD)
             .map("".join), max_size=4).map("".join),
    st.sampled_from(["}", ",}", "\r\n}", "\n}\n", ""]),
).map("".join)
BIB_TEXT = st.lists(st.one_of(
    _BIB_ENTRY,
    st.sampled_from(["\n", "\r\n", " ", "@", "{", "}", "#", ",", "="]),
    st.characters(),
), max_size=6).map("".join)

_KEY_LIKE = re.compile(r"\{\s*([^,}\s]+)")


def cited_keys(text: str):
    """parse_bib's cited keys for text: None, or any set of k, j and the
    words that read like a key after a `{' in text."""
    return st.none() | st.sets(st.sampled_from(sorted(set(_KEY_LIKE.findall(text)) | {"k", "j"})))

# any text, weighted toward the characters the name engine splits on; the
# tokens whose initials are brace groups: a special character, a doubled
# group and an empty one, and whole names in which a token with no initial
# stands beside tokens that have one; and the shapes that reach both paths
# of the tokenizer: a closed group three deep, a stray }, a comma and an
# "and" inside a group, an "and" that touches a comma or a brace, and an
# empty comma section
NAME_TEXT = st.lists(st.one_of(
    st.sampled_from(list("{}, \t\nA")),
    st.sampled_from([" and ", "and", "{\\'e}", "von", "Jr", "{\\'E}mile", "{{X}}", "{}"]),
    st.sampled_from(["{} John Smith", "{1984} X Y", "Smith, {} John"]),
    st.sampled_from(["{{{X}}}", "Doe} J", "{Doe, Inc. and Co}", " and, ", " ,and ", "{x}and ",
                     " and{y}", "a, ,b"]),
    st.characters(),
), max_size=40).map("".join)
# templates that abbreviate a part, and so join its initials, among the rest
TEMPLATE_TEXT = st.one_of(
    st.text(st.sampled_from(list("{}fvlj.~ ,")), max_size=12),
    st.sampled_from(["{f.}", "{ff}{l.}", "{f.~}{ll}"]),
    st.text(max_size=8),
)

# a .bst string of a name list whose groups database._GROUP cannot read:
# one three deep and one never closed
_DEEP_NAMES = '"{{{D}}}oe, J. and {R}oe, {Jane"'


def _in_blocks(levels: int, phrase: str) -> str:
    """phrase inside `levels' blocks, one inside the other, each run by a bound if$."""
    for _ in range(levels):
        phrase = f"#1 {{ {phrase} }} 'skip$ if$"
    return phrase


# styles that parse and run: ENTRY, STRINGS and INTEGERS declarations
# (some giving a name a second kind), six FUNCTIONs (default.type among
# them, which call.type$ runs for a @misc entry) and a seventh, out, that
# writes the results of its phrases; then READ (in five styles of six)
# and SORT, an ITERATE over out, EXECUTE, ITERATE and a second READ with
# more declarations among them, an EXECUTE or ITERATE that runs a
# FUNCTION, and last an ITERATE over out again.  So most runs write what
# ops make of real entries, and most still end in an error.  Bodies hold
# literals, fields, variables, quoted names, blocks, := and builtins,
# with unknown and unsupported names among them; f0, f1 and f2 may call
# each other and so recurse past the call depth limit, while$ loops count
# down from 3 or 2 or build a string, with branches in branches in their
# bodies, and the results of + - < > = choose what write$ writes
_STYLE_WORDS = st.sampled_from([
    '"x"', '""', "#1", "#-2", '"Doe, John and {R}oe, Jane"', _DEEP_NAMES, '"{ff~}{vv~}{ll}{jj}"',
    '"{l.}"',
    "author", "title", "year", "n", "s", "gs", "gi", "sort.key$", "cite$",
    "'n", "'s", "'gs", "'gi", "'sort.key$", "'f0", "'f1", "'skip$", "'write$", "'title",
    "write$", "newline$", "empty$", "skip$", "num.names$", "format.name$", "call.type$",
    "*", "+", "-", "=", "<", ">", ":=", "if$", "purify$", "ghost",
    "f0", "f1", "f2", "{ #1 }", '{ "y" write$ }', "{ skip$ }", "{ f1 }",
])
_STYLE_PHRASES = st.sampled_from([
    'author #1 "{vv~}{ll}{jj,}{f.}" format.name$ write$ newline$',
    "author num.names$ 'n :=",
    "author \"{ll}\" * 'sort.key$ :=",
    "#3 'gi := { gi #0 > } { gi #1 - 'gi := } while$",
    "cite$ write$ newline$",
    'title empty$ { "none" } { title } if$ write$ newline$',
    "n #1 + 'n := s \".\" * 's :=",
    "\"k\" 's := title 's := year 'n :=",
    '#5 #2 - #3 = { "eq" } { "ne" } if$ write$',
    '#1 #2 < #2 #1 > + #2 = { "eq" } { "ne" } if$ write$',
    '#2 #3 + #6 = { "eq" } { "ne" } if$ write$',
    '#2 \'gi := { gi #0 > } { gi #1 - \'gi := gi { "+" write$ } { #1 { "-" write$ } \'skip$ if$ } if$ } while$',
    # a loop and an if$ that no ref pair binds, so that their blocks are entered
    # as calls, and blocks nested past the compiled tier's INLINE_DEPTH (8)
    '#2 \'gi := { gi #0 > } { gi #1 - \'gi := } skip$ while$',
    '#1 { "y" write$ } { "n" write$ } skip$ if$',
    _in_blocks(10, '"deep" write$'),
])
# phrases that each leave one string, the result of their ops (an integer
# result chooses a string through if$), for out to write; title is not
# declared by every ENTRY, so its phrase keeps an error path in out; one
# formats a name of _DEEP_NAMES, so that runs take the tokenizer's exact
# path, and one a name of a braced list its findall reads, the fast path
_STYLE_RESULTS = st.sampled_from([
    "cite$",
    # a loop of three iterations whose body writes what a branch in a branch
    # chooses, or, for an entry of two authors, fails at the + of its first branch
    '"" \'sort.key$ := { sort.key$ "xxx" = #0 = } { sort.key$ "x" * \'sort.key$ := '
    'author num.names$ #2 = { cite$ #1 + } { author num.names$ #0 > { "," write$ } '
    '{ #1 { "." write$ } \'skip$ if$ } if$ } if$ } while$ sort.key$',
    '"[" cite$ * "]" *',
    'author #1 "{vv~}{ll}{jj,}{f.}" format.name$',
    _DEEP_NAMES + ' #1 "{f.~}{ll}" format.name$',
    '"Doe, John and {R}oe, Jane" #2 "{ff~}{ll}" format.name$',
    'author empty$ { "anonymous" } { author } if$',
    'author num.names$ #1 > { "and others" } { "alone" } if$',
    'author num.names$ #2 - #0 < { "short" } { "long" } if$',
    'sort.key$ empty$ { "unsorted" } { sort.key$ } if$',
    'title empty$ { "none" } { title } if$',
    '#5 #2 - #3 = { "eq" } { "ne" } if$',
    '#1 #2 < #2 #1 > + #2 = { "eq" } { "ne" } if$',
    '#2 #3 + #6 = { "eq" } { "ne" } if$',
    # an if$ that no ref pair binds, and blocks nested past the compiled tier's
    # INLINE_DEPTH (8), so that the deepest blocks are entered as calls
    'author empty$ { "anonymous" } { author } skip$ if$',
    _in_blocks(10, "cite$"),
])
# a while$ limit for runs of STYLE_TEXT: the countdown above ends in 4
# iterations, where a wrong - or > would run it to vm.WHILE_LIMIT (1,000,000)
STYLE_WHILE_LIMIT = 50
_STYLE_BODY = st.lists(st.one_of(_STYLE_PHRASES, _STYLE_WORDS, _STYLE_PHRASES),
                       min_size=1, max_size=6).map(" ".join)
# out's phrases, in half the styles run once by a loop: its body sets
# sort.key$ to "x" first, and no phrase leaves it empty
_STYLE_LOOP = '"" \'sort.key$ := {{ sort.key$ empty$ }} {{ "x" \'sort.key$ := {} }} while$'
_STYLE_WRITER = st.tuples(st.booleans(), st.lists(_STYLE_RESULTS.map("{} write$".format), min_size=1,
                                                  max_size=4).map(" ".join)).map(
    lambda drawn: (_STYLE_LOOP.format(drawn[1]) if drawn[0] else drawn[1]) + " newline$")
_STYLE_FUNCTIONS = ["f0", "f1", "f2", "article", "book", "default.type"]
_STYLE_DECLARATIONS = ["STRINGS {gs s}", "INTEGERS {gi}", "INTEGERS {title}", "STRINGS {f1}",
                       "% a comment {"]
STYLE_TEXT = st.tuples(
    st.sampled_from(["ENTRY {author title year}{n}{s}", "ENTRY {author}{}{}"]),
    st.lists(st.sampled_from(_STYLE_DECLARATIONS), max_size=3).map("\n".join),
    st.tuples(*[_STYLE_BODY] * len(_STYLE_FUNCTIONS)).map(lambda bodies: "\n".join(
        f"FUNCTION {{{name}}}\n  {{ {body} }}" for name, body in zip(_STYLE_FUNCTIONS, bodies))),
    _STYLE_WRITER.map("FUNCTION {{out}}\n  {{ {} }}".format),
    st.sampled_from(["READ", "READ\nSORT", "READ", "READ\nSORT", "READ", ""]),
    st.just("ITERATE {out}"),
    st.lists(st.sampled_from(["ITERATE {call.type$}", "ITERATE {f1}", "SORT", "EXECUTE {f2}",
                              "EXECUTE {f0}", "EXECUTE {ghost}", "READ"] + _STYLE_DECLARATIONS),
             min_size=1, max_size=5).map("\n".join),
    st.sampled_from(["EXECUTE {f0}", "EXECUTE {f2}", "ITERATE {call.type$}"]),
    st.just("ITERATE {out}"),
).map("\n".join)

SAMPLE_BIB = r'''@article{Ulam-1964,
    author = "Stein P. R. and  Ulam S. M.",
    title = "Non-linear transformation studies on
electronic computers",
    journal = "Rozprawy Mat.",
    year = "1964",
    volume = "39",
    pages = "1-66"}

@book{Poincare,
    author = "H. Poincar\'e",
    title = "Les m\'ethods nouvelles de la m\'ecanique c\'eleste",
    year = "1892",
    publisher = "Gauthier-Villars",
    address   = "Paris"}
'''

EXTRA_BIB_ENTRY = r'''@article{YangYu,
    author = "Yang Tse-Chung and Yu Chia-Fu",
    title = "Monomial, Gorenstein and Bass orders",
    journal = "J. Pure Appl. Algebra",
    year = "2015",
    volume = "219",
    pages = "767-778",
    number = "4"}
'''

# a VM run's inputs: a style; one .bib text of known keys (SAMPLE_BIB,
# EXTRA_BIB_ENTRY or a @misc entry, whose type STYLE_TEXT leaves to
# default.type), with a second .bib text of any kind before or after it
# half the time; and the .aux text of one to five citations of keys those
# .bib texts define (BIB_TEXT's may define k and j), with one key, absent,
# that no .bib has among them
_KNOWN_BIB = st.sampled_from([(SAMPLE_BIB, ["Ulam-1964", "Poincare"]), (EXTRA_BIB_ENTRY, ["YangYu"]),
                              ('@misc{M, author = "Doe, Jane", title = "T"}\n', ["M"])])
_ANY_BIB = st.one_of(_KNOWN_BIB, BIB_TEXT.map(lambda text: (text, ["k", "j"])))


@st.composite
def _vm_inputs(draw):
    style = draw(STYLE_TEXT)
    bibs = draw(st.lists(_ANY_BIB, max_size=1))
    bibs.insert(draw(st.integers(0, len(bibs))), draw(_KNOWN_BIB))
    defined = [key for _, keys in bibs for key in keys]
    keys = draw(st.lists(st.sampled_from(defined), min_size=1, max_size=5))
    keys.insert(draw(st.integers(0, len(keys))), "absent")
    return style, [text for text, _ in bibs], "".join(f"\\citation{{{key}}}\n" for key in keys)


VM_INPUTS = _vm_inputs()

HELLO_BST = r'''ENTRY
  { author
  }{}{}

FUNCTION {output.bibitem} {
  "\bibitem{" write$
  cite$ write$
  "}" write$ newline$}

FUNCTION {article}{
  output.bibitem
  author write$
  " (article)" write$
  newline$ }

FUNCTION {book}{
  output.bibitem
  author write$
  " (book)" write$
  newline$ }
READ

FUNCTION {begin.bib}{
  "\begin{thebibliography}{10}" write$
  newline$ newline$ }

EXECUTE {begin.bib}
ITERATE {call.type$}
FUNCTION {end.bib}{
  "\end{thebibliography}" write$ }
EXECUTE {end.bib}
'''

AUTHOR_SORT_FRAGMENT = r'''
FUNCTION {bib.sort.order}{
  author 'sort.key$ := }
ITERATE {bib.sort.order}
{SORT}
'''

LASTNAME_SORT_FRAGMENT = r'''
FUNCTION {bib.sort.order}{
  author #1 "{ll}" format.name$
  author num.names$ #1 =
  {skip$}
    { author #2 "{ll}" format.name$ *
    author num.names$ #2 =
    {skip$}
    {author #3 "{ll}" format.name$ *}
    if$}
  if$
  'sort.key$ := }
ITERATE {bib.sort.order}
{SORT}
'''

GUARDED_NUMBER_BST = r'''ENTRY
  { author number volume }{}{}

FUNCTION {output.bibitem} {
  "\bibitem{" write$
  cite$ write$
  "}" write$ newline$}

FUNCTION {article}{
  output.bibitem
  author write$
  number empty$
  {skip$}
  {", No. " write$ number write$}
  if$
  ", Vol. " write$ volume write$
  newline$ }

FUNCTION {book}{
  output.bibitem
  author write$
  " (book)" write$
  newline$ }
READ

FUNCTION {begin.bib}{
  "\begin{thebibliography}{10}" write$
  newline$ newline$ }

EXECUTE {begin.bib}
ITERATE {call.type$}
FUNCTION {end.bib}{
  "\end{thebibliography}" write$ }
EXECUTE {end.bib}
'''

EXPECTED_BBL = (
    "\\begin{thebibliography}{10}\n"
    "\n"
    "\\bibitem{Ulam-1964}\n"
    "Stein P. R. and Ulam S. M. (article)\n"
    "\\bibitem{Poincare}\n"
    "H. Poincar\\'e (book)\n"
    "\\end{thebibliography}\n"
)

# aux driving a bibtex run: cited keys plus the style/data declarations
BIBTEX_AUX = (
    "\\relax\n"
    "\\citation{Ulam-1964}\n"
    "\\citation{Poincare}\n"
    "\\citation{Ulam-1964}\n"
    "\\bibstyle{helloword}\n"
    "\\bibdata{my}\n"
)

# aux as the inline-bibliography document regenerates it
INLINE_AUX = (
    "\\relax\n"
    "\\citation{Ulam-1964}\n"
    "\\citation{Poincare}\n"
    "\\citation{Ulam-1964}\n"
    "\\bibcite{Poincare}{1}\n"
    "\\bibcite{Ulam-1964}{2}\n"
)

# aux written by a first pass over the external-mode document
EXTERNAL_AUX = (
    "\\relax\n"
    "\\citation{Ulam-1964}\n"
    "\\citation{Poincare}\n"
    "\\citation{Ulam-1964}\n"
    "\\bibstyle{plain}\n"
    "\\bibdata{my}\n"
)

INLINE_TEX = r'''\documentclass{article}
\begin{document}
We cite the article~\cite{Ulam-1964} by S. Ulam and the book~\cite{Poincare} by H. Poincar\'e. Then we cite the article~\cite{Ulam-1964} by S. Ulam again.

\begin{thebibliography}{10}

\bibitem{Poincare} H. Poincar\'e, {\it Les m\'ethods nouvelles de la m\'ecanique c\'eleste}, Paris: Gauthier-Villars, 1892.

\bibitem{Ulam-1964} P. Stein and S. Ulam, ``Non-linear transformation studies on electronic computers'', {\it Rozprawy Mat.}, Vol. {\bf 39}, pp.~1-66, 1964.

\end{thebibliography}
\end{document}
'''

EXTERNAL_TEX = r'''\documentclass{article}
\begin{document}
We cite the article \cite{Ulam-1964} and the book \cite{Poincare}.
\bibliographystyle{helloword}
\bibliography{my}
\end{document}
'''


def with_sort_fragment(style: str, fragment: str) -> str:
    """Insert a sort fragment right after the READ command of a style."""
    idx = style.index("READ") + len("READ")
    return style[:idx] + "\n" + fragment + style[idx:]


def write_files(dirpath, files: dict) -> None:
    for name, content in files.items():
        (dirpath / name).write_text(content, encoding="utf-8")


def bibitem_keys(bbl_text: str) -> list[str]:
    import re

    return re.findall(r"\\bibitem\{([^}]*)\}", bbl_text)


def cite_marks(rendered: str) -> list[str]:
    import re

    return re.findall(r"\[[0-9?,]+\]", rendered)
