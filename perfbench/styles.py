"""The two .bst styles the workloads run, generated from their type tables.

Each style's entry handlers are written from the same table the corpus
generator fills entries from, so the two cannot drift: an entry of a type
has every required field, and each optional field it lacks is read exactly
once by its handler, which logs exactly one missing-field warning.

Both styles sort on the authors' last names (template "{ll }{ff }{vv }{jj }",
joined by three spaces), then the year, then the key, and format every
author with num.names$/format.name$ inside while$.  Together they use every
builtin.  `unused_fields` are declared in ENTRY but never read, so lint
reports each of them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Style:
    name: str
    text: str
    types: dict[str, tuple[list[str], list[str]]]  # type -> (required, optional)
    unused_fields: list[str]

    @property
    def type_names(self) -> list[str]:
        return list(self.types)


def _fields(types, unused) -> list[str]:
    seen = dict.fromkeys(["author", "year"])
    for required, optional in types.values():
        seen.update(dict.fromkeys(required + optional))
    seen.update(dict.fromkeys(unused))
    return list(seen)


# ---------------------------------------------------------------------------
# sortnames: a small style whose time goes to names and sorting

_SMALL_TYPES = {
    "article": (["author", "title", "journal", "year"], ["volume", "number", "pages"]),
    "book": (["author", "title", "publisher", "year"], ["address", "edition"]),
    "inproceedings": (["author", "title", "booktitle", "year"], ["pages", "address"]),
    "misc": (["author", "title", "year"], ["howpublished", "note"]),
}
_SMALL_PREFIX = {"volume": "vol.~", "number": "no.~", "pages": "pp.~", "edition": "",
                 "address": "", "howpublished": "", "note": ""}

_SMALL_HEAD = r"""% sortnames.bst: numbered bibliography sorted by authors' last names.
ENTRY
  { @FIELDS@ }
  { }
  { }

INTEGERS { nameptr namesleft numnames }
STRINGS { s t u names.out }

FUNCTION {output.bibitem}
{ newline$
  "\bibitem{" write$
  cite$ write$
  "}" write$
  newline$
}

FUNCTION {output}
{ 's :=
  ", " write$
  s write$
}

FUNCTION {fin.entry}
{ "." write$
  newline$
}

% every name as "First von Last, Jr"; "others" becomes et al.
FUNCTION {format.names}
{ 's :=
  #1 'nameptr :=
  s num.names$ 'numnames :=
  numnames 'namesleft :=
  "" 'names.out :=
    { namesleft #0 > }
    { s nameptr "{ff~}{vv~}{ll}" format.name$ 't :=
      s nameptr "{jj}" format.name$ 'u :=
      u empty$
        'skip$
        { t ", " * u * 't := }
      if$
      nameptr #1 >
        { namesleft #1 >
            { names.out ", " * t * 'names.out := }
            { t "others" =
                { names.out " et~al." * 'names.out := }
                { numnames #3 <
                    { names.out " and " * t * 'names.out := }
                    { names.out ", and " * t * 'names.out := }
                  if$
                }
              if$
            }
          if$
        }
        { t 'names.out := }
      if$
      nameptr #1 + 'nameptr :=
      namesleft #1 - 'namesleft :=
    }
  while$
  names.out
}

"""

_SMALL_TAIL = r"""
READ

FUNCTION {sort.format.names}
{ 's :=
  #1 'nameptr :=
  "" 'names.out :=
  s num.names$ 'numnames :=
  numnames 'namesleft :=
    { namesleft #0 > }
    { nameptr #1 >
        { names.out "   " * 'names.out := }
        'skip$
      if$
      names.out s nameptr "{ll }{ff }{vv }{jj }" format.name$ * 'names.out :=
      nameptr #1 + 'nameptr :=
      namesleft #1 - 'namesleft :=
    }
  while$
  names.out
}

FUNCTION {presort}
{ author sort.format.names
  "    " *
  year *
  "    " *
  cite$ *
  'sort.key$ :=
}

ITERATE {presort}

SORT

FUNCTION {begin.bib}
{ "\begin{thebibliography}{99}" write$
  newline$
}

EXECUTE {begin.bib}

ITERATE {call.type$}

FUNCTION {end.bib}
{ newline$
  "\end{thebibliography}" write$
  newline$
}

EXECUTE {end.bib}
"""


def _small_style() -> Style:
    unused = ["crossref"]
    handlers = []
    for etype, (required, optional) in _SMALL_TYPES.items():
        body = ["  output.bibitem", "  author format.names write$"]
        for f in required:
            if f not in ("author", "year"):
                body.append(f"  {f} output")
        for f in optional:
            body.append(f"  {f} empty$\n    'skip$\n    {{ \"{_SMALL_PREFIX[f]}\" {f} * output }}\n  if$")
        body += ["  year output", "  fin.entry"]
        handlers.append(f"FUNCTION {{{etype}}}\n{{\n" + "\n".join(body) + "\n}\n")
    head = _SMALL_HEAD.replace("@FIELDS@", " ".join(_fields(_SMALL_TYPES, unused)))
    text = head + "\n".join(handlers) + _SMALL_TAIL
    return Style("sortnames", text, _SMALL_TYPES, unused)


# ---------------------------------------------------------------------------
# bigstyle: a long style with many entry types, helpers and comments, in
# the size range of the largest styles in use

_BIG_TYPES = {
    "article": (["author", "title", "journal", "year"], ["volume", "number", "pages", "month", "note"]),
    "book": (["author", "title", "publisher", "year"],
             ["editor", "volume", "series", "address", "edition", "month", "note"]),
    "booklet": (["author", "title", "year"], ["howpublished", "address", "month", "note"]),
    "inbook": (["author", "title", "chapter", "publisher", "year"],
               ["volume", "series", "address", "edition", "pages", "note"]),
    "incollection": (["author", "title", "booktitle", "publisher", "year"],
                     ["editor", "volume", "series", "pages", "address", "edition", "note"]),
    "inproceedings": (["author", "title", "booktitle", "year"],
                      ["editor", "volume", "series", "pages", "address", "month",
                       "organization", "publisher", "note"]),
    "manual": (["author", "title", "year"], ["organization", "address", "edition", "month", "note"]),
    "mastersthesis": (["author", "title", "school", "year"], ["type", "address", "month", "note"]),
    "phdthesis": (["author", "title", "school", "year"], ["type", "address", "month", "note"]),
    "proceedings": (["author", "title", "year"],
                    ["editor", "volume", "series", "address", "month", "organization",
                     "publisher", "note"]),
    "techreport": (["author", "title", "institution", "year"], ["type", "number", "address", "month", "note"]),
    "unpublished": (["author", "title", "note", "year"], ["month"]),
    "misc": (["author", "title", "year"], ["howpublished", "month", "note"]),
    "online": (["author", "title", "url", "year"], ["urldate", "note"]),
    "preprint": (["author", "title", "eprint", "year"], ["note"]),
}

# how each field is shown: (prefix, emphasize?)
_BIG_FORMAT = {
    "title": ("", False), "journal": ("", True), "booktitle": ("In ", True),
    "publisher": ("", False), "school": ("", False), "institution": ("", False),
    "chapter": ("chapter~", False), "url": ("\\url{", False), "eprint": ("arXiv:", False),
    "volume": ("volume~", False), "number": ("number~", False), "pages": ("pages~", False),
    "month": ("", False), "note": ("", False), "series": ("", True),
    "address": ("", False), "edition": ("", False), "howpublished": ("", False),
    "organization": ("", False), "type": ("", False), "urldate": ("accessed ", False),
}

_JOURNALS = [
    ("acmcs", "ACM Computing Surveys"), ("acta", "Acta Informatica"),
    ("cacm", "Communications of the ACM"), ("ibmjrd", "IBM Journal of Research and Development"),
    ("ibmsj", "IBM Systems Journal"), ("ieeese", "IEEE Transactions on Software Engineering"),
    ("ieeetc", "IEEE Transactions on Computers"),
    ("ieeetcad", "IEEE Transactions on Computer-Aided Design of Integrated Circuits"),
    ("ipl", "Information Processing Letters"), ("jacm", "Journal of the ACM"),
    ("jcss", "Journal of Computer and System Sciences"), ("scp", "Science of Computer Programming"),
    ("sicomp", "SIAM Journal on Computing"), ("tocs", "ACM Transactions on Computer Systems"),
    ("tods", "ACM Transactions on Database Systems"), ("tog", "ACM Transactions on Graphics"),
    ("toms", "ACM Transactions on Mathematical Software"), ("toois", "ACM Transactions on Office Information Systems"),
    ("toplas", "ACM Transactions on Programming Languages and Systems"),
    ("tcs", "Theoretical Computer Science"), ("tugboat", "TUGboat"),
    ("spe", "Software: Practice and Experience"), ("lmcs", "Logical Methods in Computer Science"),
    ("jfp", "Journal of Functional Programming"), ("mscs", "Mathematical Structures in Computer Science"),
]
_MONTHS = ["January", "February", "March", "April", "May", "June", "July",
           "August", "September", "October", "November", "December"]

_BIG_HEAD = r"""%% bigstyle.bst
%%
%% A numbered bibliography style for the benchmark.  Entries are sorted by
%% the authors' last names, then year, then citation key.  The layout is
%% the familiar one: authors, title, venue, details, date, note, each
%% block closed with a period and the next opened with \newblock.
%%
%% The style keeps an output state machine like the standard styles: a
%% string is written only after the separator that the previous output
%% left pending has been decided.  Lacking stack-shuffling builtins, it
%% keeps intermediate strings in global variables instead.
%%
%% Usage
%%
%%   Put \bibliographystyle{bigstyle} and \bibliography{...} in the
%%   document, cite with \cite{key}, and run the citation passes until
%%   the labels settle.  Items are numbered in sorted order.
%%
%% Customizing
%%
%%   The words this style writes before fields are the bbl.* functions
%%   below; change them to translate the output.  The journal, month and
%%   publisher functions return full names and may be called from a
%%   style of your own.  Entry types the style does not know are shown
%%   as misc.
%%
%% Names
%%
%%   Names are shown with initials for first names, the von part kept in
%%   lower case, and a Jr part after a comma.  A list that ends in
%%   `others' is shortened to et~al.  Sorting uses last names in full.
%%
%% Missing fields
%%
%%   A required field is always written.  An optional field that an
%%   entry lacks is skipped; the interpreter logs a warning for it.
%%
%% Supported entry types:
%%   @TYPES@
%%
%% ------------------------------------------------------------------------

ENTRY
  { @FIELDS@
  }
  { }
  { }

INTEGERS { output.state before.all mid.sentence after.sentence after.block }
INTEGERS { nameptr namesleft numnames b1 b2 }
STRINGS { s t u names.out field.name }

%% ------------------------------------------------------------------------
%% Output state machine
%% ------------------------------------------------------------------------

%% init.state.consts
%%   Give the four output states their values.
FUNCTION {init.state.consts}
{ #0 'before.all :=
  #1 'mid.sentence :=
  #2 'after.sentence :=
  #3 'after.block :=
}

%% output.nonnull
%%   Write the pending separator for the current state, then the string
%%   on the stack, and move to mid.sentence.
FUNCTION {output.nonnull}
{ 's :=
  output.state mid.sentence =
    { ", " write$ }
    { output.state after.block =
        { "." write$
          newline$
          "\newblock " write$
        }
        { output.state before.all =
            'skip$
            { ". " write$ }
          if$
        }
      if$
      mid.sentence 'output.state :=
    }
  if$
  s write$
}

%% output
%%   Like output.nonnull, but an empty string writes nothing.
FUNCTION {output}
{ 't :=
  t empty$
    'skip$
    { t output.nonnull }
  if$
}

%% output.check
%%   Output a required field; its name is on top of the stack.  Every
%%   entry the database hands us has its required fields.
FUNCTION {output.check}
{ 'field.name :=
  output
}

%% output.bibitem
%%   Open an item: \bibitem{key} on a line of its own.
FUNCTION {output.bibitem}
{ newline$
  "\bibitem{" write$
  cite$ write$
  "}" write$
  newline$
  before.all 'output.state :=
}

%% fin.entry
%%   Close the item with a period.
FUNCTION {fin.entry}
{ "." write$
  newline$
}

%% new.block
%%   Ask for a block break before the next output, unless nothing has
%%   been written yet.
FUNCTION {new.block}
{ output.state before.all =
    'skip$
    { after.block 'output.state := }
  if$
}

%% new.sentence
%%   Ask for a sentence break, which never weakens a block break.
FUNCTION {new.sentence}
{ output.state after.block =
    'skip$
    { output.state before.all =
        'skip$
        { after.sentence 'output.state := }
      if$
    }
  if$
}

%% ------------------------------------------------------------------------
%% Logic on integers
%% ------------------------------------------------------------------------

FUNCTION {not}
{   { #0 }
    { #1 }
  if$
}

FUNCTION {and}
{ 'b2 :=
  'b1 :=
  b1
    { b2 }
    { #0 }
  if$
}

FUNCTION {or}
{ 'b2 :=
  'b1 :=
  b1
    { #1 }
    { b2 }
  if$
}

%% non.empty
%%   1 if the string on the stack has text, else 0.
FUNCTION {non.empty}
{ empty$ not
}

%% ------------------------------------------------------------------------
%% Text helpers
%% ------------------------------------------------------------------------

%% emphasize
%%   Wrap a non-empty string in {\em ...}.
FUNCTION {emphasize}
{ 'u :=
  u empty$
    { "" }
    { "{\em " u * "}" * }
  if$
}

%% prefixed
%%   Join a prefix (top) to a value (below it), unless the value is empty.
FUNCTION {prefixed}
{ 'u :=
  't :=
  t empty$
    { "" }
    { u t * }
  if$
}

%% ------------------------------------------------------------------------
%% Names
%% ------------------------------------------------------------------------

%% format.names
%%   Every name as "F.~von Last, Jr", joined with commas and a final
%%   "and"; a final "others" becomes "et~al.".
FUNCTION {format.names}
{ 's :=
  #1 'nameptr :=
  s num.names$ 'numnames :=
  numnames 'namesleft :=
  "" 'names.out :=
    { namesleft #0 > }
    { s nameptr "{f.~}{vv~}{ll}" format.name$ 't :=
      s nameptr "{jj}" format.name$ 'u :=
      u empty$
        'skip$
        { t ", " * u * 't := }
      if$
      nameptr #1 >
        { namesleft #1 >
            { names.out ", " * t * 'names.out := }
            { t "others" =
                { names.out " et~al." * 'names.out := }
                { numnames #3 <
                    { names.out " and " * t * 'names.out := }
                    { names.out ", and " * t * 'names.out := }
                  if$
                }
              if$
            }
          if$
        }
        { t 'names.out := }
      if$
      nameptr #1 + 'nameptr :=
      namesleft #1 - 'namesleft :=
    }
  while$
  names.out
}

%% format.authors
FUNCTION {format.authors}
{ author format.names
}

"""

_BIG_EDITORS = r"""%% format.editor
%%   Editors with "editor" or "editors" after them; nothing without.
FUNCTION {format.editor}
{ editor empty$
    { "" }
    { editor format.names
      editor num.names$ #1 >
        { ", editors" * }
        { ", editor" * }
      if$
    }
  if$
}

"""

_BIG_SORT = r"""
%% ------------------------------------------------------------------------
%% Sorting
%% ------------------------------------------------------------------------

%% sort.format.names
%%   Last names first, each name "Last First von Jr ", names separated by
%%   three spaces, so that byte order sorts by last name.
FUNCTION {sort.format.names}
{ 's :=
  #1 'nameptr :=
  "" 'names.out :=
  s num.names$ 'numnames :=
  numnames 'namesleft :=
    { namesleft #0 > }
    { nameptr #1 >
        { names.out "   " * 'names.out := }
        'skip$
      if$
      names.out s nameptr "{ll }{ff }{vv }{jj }" format.name$ * 'names.out :=
      nameptr #1 + 'nameptr :=
      namesleft #1 - 'namesleft :=
    }
  while$
  names.out
}

%% presort
%%   Authors, then year, then the key as the final tie-break.
FUNCTION {presort}
{ author sort.format.names
  "    " *
  year *
  "    " *
  cite$ *
  'sort.key$ :=
}

ITERATE {presort}

SORT

%% ------------------------------------------------------------------------
%% The bibliography
%% ------------------------------------------------------------------------

FUNCTION {begin.bib}
{ "\begin{thebibliography}{99}" write$
  newline$
}

EXECUTE {begin.bib}

EXECUTE {init.state.consts}

ITERATE {call.type$}

FUNCTION {end.bib}
{ newline$
  "\end{thebibliography}" write$
  newline$
}

EXECUTE {end.bib}
"""


_FIELD_DOC = {
    "address": "the city of the publisher or the conference",
    "author": "the authors, in BibTeX name format, separated by `and'",
    "booktitle": "the title of the book or proceedings the work appears in",
    "chapter": "a chapter or section number",
    "edition": "the edition of a book, as a word such as `Second'",
    "editor": "the editors, in BibTeX name format",
    "eprint": "an arXiv identifier",
    "howpublished": "how anything unusual was published",
    "institution": "the institution that issued a report",
    "journal": "the journal name, or one of the abbreviation functions",
    "month": "the month of publication, spelled out",
    "note": "any extra text, shown last",
    "number": "the issue or report number",
    "organization": "the organization that sponsored a conference or manual",
    "pages": "a page range such as 12--34",
    "publisher": "the publisher",
    "school": "the school where a thesis was written",
    "series": "the series a book appears in",
    "title": "the title of the work",
    "type": "the kind of report or thesis, overriding the default",
    "url": "the location of an online resource",
    "urldate": "the date an online resource was visited",
    "volume": "the volume of a journal or multi-volume book",
    "year": "the year of publication",
}
_TOPICS = [
    ("alg", "Algorithms"), ("ai", "Artificial Intelligence"), ("arch", "Computer Architecture"),
    ("bio", "Computational Biology"), ("cg", "Computational Geometry"),
    ("crypt", "Cryptology"), ("db", "Database Systems"), ("ds", "Distributed Systems"),
    ("fm", "Formal Methods"), ("gr", "Graph Theory"), ("hci", "Human-Computer Interaction"),
    ("ir", "Information Retrieval"), ("lang", "Programming Languages"), ("lo", "Logic and Computation"),
    ("ml", "Machine Learning"), ("na", "Numerical Analysis"), ("net", "Computer Networks"),
    ("os", "Operating Systems"), ("par", "Parallel Computing"), ("qc", "Quantum Computing"),
    ("rob", "Robotics"), ("se", "Software Engineering"), ("sec", "Computer Security"),
    ("sig", "Signal Processing"), ("sim", "Modeling and Simulation"), ("typ", "Digital Typography"),
    ("vis", "Visualization"), ("web", "the Web"), ("cc", "Computational Complexity"),
    ("comb", "Combinatorics"),
]
_PUBLISHERS = [
    ("aw", "Addison-Wesley"), ("ams", "American Mathematical Society"), ("cup", "Cambridge University Press"),
    ("elsevier", "Elsevier"), ("ieeecs", "IEEE Computer Society Press"), ("mitpress", "MIT Press"),
    ("nh", "North-Holland"), ("oup", "Oxford University Press"), ("ph", "Prentice-Hall"),
    ("siam", "Society for Industrial and Applied Mathematics"), ("springer", "Springer-Verlag"),
    ("wiley", "John Wiley {\\&} Sons"), ("mk", "Morgan Kaufmann"), ("acmpress", "ACM Press"),
    ("usenix", "USENIX Association"), ("dagstuhl", "Schloss Dagstuhl"), ("kluwer", "Kluwer"),
    ("birkhauser", "Birkh{\\'a}user"), ("dover", "Dover"), ("wh", "W. H. Freeman"),
]
_EXTRA_BBL = [
    ("and", "and"), ("etal", "et~al."), ("editors", "editors"), ("editor", "editor"),
    ("edby", "edited by"), ("of", "of"), ("in", "in"), ("nr", "no."), ("page", "page"),
    ("techrep", "Technical Report"), ("mthesis", "Master's thesis"), ("phdthesis", "PhD thesis"),
    ("first", "First"), ("second", "Second"), ("third", "Third"), ("fourth", "Fourth"),
    ("fifth", "Fifth"), ("st", "st"), ("nd", "nd"), ("rd", "rd"), ("th", "th"),
    ("eidpp", "pages"), ("retrieved", "retrieved from"), ("available", "available at"),
]


def _rule(title: str) -> str:
    bar = "%% " + "-" * 72 + "\n"
    return f"{bar}%% {title}\n{bar}\n"


def _big_field_fn(f: str) -> str:
    prefix, emph = _BIG_FORMAT[f]
    value = f"{f} emphasize" if emph else f
    close = ' "}" *' if prefix.startswith("\\url") else ""
    return (
        f"%% bbl.{f}\n"
        f"%%   The word written before {f}"
        f"{f' ({prefix!r})' if prefix else ', empty in this style'}.\n"
        f"FUNCTION {{bbl.{f}}}\n"
        f"{{ \"{prefix}\" }}\n\n"
        f"%% format.{f}\n"
        f"%%   The {f} field: {_FIELD_DOC[f]}.\n"
        f"%%   Written after bbl.{f}{', emphasized' if emph else ''}; nothing when empty.\n"
        f"FUNCTION {{format.{f}}}\n"
        f"{{ {f} empty$\n"
        f"    {{ \"\" }}\n"
        f"    {{ {value}\n"
        f"      bbl.{f} prefixed{close}\n"
        f"    }}\n"
        f"  if$\n"
        f"}}\n\n"
    )


def _constant_fn(name: str, text: str, doc: str, emph: bool = False) -> str:
    body = f'"{text}" emphasize' if emph else f'"{text}"'
    return f"%% {name}\n%%   {doc}\nFUNCTION {{{name}}}\n{{ {body} }}\n\n"


def _big_handler(etype: str, required: list[str], optional: list[str]) -> str:
    lines = [f"%% {etype}"]
    lines += [f"%%   {f} (required): {_FIELD_DOC[f]}." for f in required]
    lines += [f"%%   {f} (optional): {_FIELD_DOC[f]}." for f in optional]
    lines += ["%%   Example:", f"%%     @{etype}{{key,"]
    lines += [f"%%       {f} = {{...}}," for f in required + optional]
    lines += ["%%     }"]
    lines += [f"FUNCTION {{{etype}}}", "{ output.bibitem",
              '  format.authors "author" output.check', "  new.block"]
    body = [f for f in required if f not in ("author", "year")]
    for i, f in enumerate(body):
        lines.append(f'  format.{f} "{f}" output.check')
        if i == 0:
            lines.append("  new.block")
    for f in optional:
        if f == "editor":
            lines.append("  format.editor output")
        elif f != "note":
            lines.append(f"  format.{f} output")
    lines.append('  year "year" output.check')
    if "note" in optional:
        lines += ["  new.sentence", "  format.note output"]
    lines += ["  fin.entry", "}", ""]
    return "\n".join(lines) + "\n"


def _big_style() -> Style:
    unused = ["crossref", "annote", "isbn"]
    fields = _fields(_BIG_TYPES, unused)
    field_lines = "\n    ".join(" ".join(fields[i:i + 6]) for i in range(0, len(fields), 6))
    type_lines = "\n".join(f"%%   {t:<14} required: {', '.join(r)}" for t, (r, _o) in _BIG_TYPES.items())
    parts = [_BIG_HEAD.replace("@TYPES@", type_lines.lstrip("% ")).replace("@FIELDS@", field_lines)]
    parts.append(_BIG_EDITORS)
    parts.append(_rule("Words written before fields, and field formatting"))
    for f in sorted(_BIG_FORMAT):
        parts.append(_big_field_fn(f))
    for name, text in _EXTRA_BBL:
        parts.append(_constant_fn(f"bbl.{name}", text, f"The word `{text}'."))
    parts.append(_rule("Month names, for use in the month field"))
    for m in _MONTHS:
        parts.append(_constant_fn(m[:3].lower(), m, f"The month {m}."))
    parts.append(_rule("Journal names, for use in the journal field"))
    for abbrev, full in _JOURNALS:
        parts.append(_constant_fn(abbrev, full, full, emph=True))
    for abbrev, topic in _TOPICS:
        parts.append(_constant_fn(f"j{abbrev}", f"Journal of {topic}", f"Journal of {topic}", emph=True))
        parts.append(_constant_fn(f"t{abbrev}", f"Transactions on {topic}",
                                  f"Transactions on {topic}", emph=True))
        parts.append(_constant_fn(f"a{abbrev}", f"Ann. {topic}", f"Annals of {topic}", emph=True))
    parts.append(_rule("Publisher names, for use in the publisher field"))
    for abbrev, full in _PUBLISHERS:
        parts.append(_constant_fn(f"pub.{abbrev}", full, full))
    parts.append(_rule("Entry types"))
    for etype, (required, optional) in _BIG_TYPES.items():
        parts.append(_big_handler(etype, required, optional))
    parts.append("%% default.type\n%%   Entries of unknown type are shown as misc.\n"
                 "FUNCTION {default.type} { misc }\n\nREAD\n")
    parts.append(_BIG_SORT)
    return Style("bigstyle", "".join(parts), _BIG_TYPES, unused)


STYLES = {s.name: s for s in (_small_style(), _big_style())}
