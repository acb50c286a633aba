"""Seeded synthetic corpora for the benchmark, with their expected outputs.

`build(workload, seed, scale)` returns the files a user would hand to
bibstack (`paper.tex`, `refs.bib` and the style) and, beside them, what a
correct run must produce.  The expectations come only from what the
generator built: the parts of every name it wrote, the keys it cited and
the fields it left out.  Nothing here imports bibstack.

`scale=0.25` gives the quarter-size variant of the same workload that the
`*.scale4` layer metrics divide by.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import styles

BASE = "paper"
BIB = "refs"

# Sizes at scale 1.  `cited` is the number of distinct keys that exist in
# the .bib and are cited; `cites` the number of \cite commands; `group`
# the keys per \cite; `prose` the bytes of running text per \cite.
WORKLOADS = {
    "sort-names": dict(entries=600, cited=600, cites=60, group=10, prose=200,
                       names=(1, 12), style="sortnames"),
    "big-bib": dict(entries=8000, cited=100, cites=60, group=3, prose=300,
                    names=(1, 4), style="bigstyle"),
    "cite-dense": dict(entries=300, cited=300, cites=1500, group=1, prose=200,
                       names=(1, 4), style="sortnames"),
}

# cited keys that no .bib entry defines, as in a draft with a dangling \cite
MISSING_KEYS = ("ghost:draft1", "ghost:draft2", "ghost:draft3")

FIRST = [
    "Anna", "Bernd", "Chen", "Dmitri", "Elena", r"Fran{\c{c}}ois", r"{\'E}mile",
    r'J{\"o}rg', "Ole-Johan", "Hans", "Yuki", "Li", r"Mar{\'\i}a", "J.", "R.~K.",
    "Jean-Pierre", "Sven", "Ingrid", "Grace", "Alan", "Tse-Chung", "Bjørn",
    "Łukasz", "Søren", r"Zo{\"e}", "Amara", "Kwame", "Priya", "Wei", "Olga",
    "Edsger", "Barbara", "Per", r"\AA{}sa", "Niklaus", "C. A. R.",
]
LAST = [
    "Knuth", "Lamport", "Dijkstra", r'G{\"o}del', r"Erd{\H{o}}s", r"{\O}stergaard",
    r"Poincar{\'e}", r'M{\"u}ller', "Nguyen", "Okonkwo", "Tanaka", "Ivanova",
    "Fontaine", "Berg", "Beethoven", "Wirth", "Hoare", "Milner", "Liskov",
    "Hopper", "Turing", "Church", "Kleene", "Curry", "Howard", "Scott",
    "Strachey", "Landin", "Reynolds", "Plotkin", "Abramsky", "Girard",
    r'Martin-L{\"o}f', r"\v{C}apek", "Øksendal", "Żukowski", "Adebayo",
]
# multi-word last names; each word starts upper-case
MULTI_LAST = [
    ["Da", "Silva"], ["Lloyd", "Webber"], [r"Garc{\'\i}a", r"M{\'a}rquez"],
    ["Van", "Rossum"], ["Ben", "Ari"], ["Le", "Guin"],
]
VON = [["van"], ["von"], ["de"], ["de", "la"], ["van", "der"], ["di"], ["du"],
       ["le"], ["von", "der"], ["da"]]
JR = ["Jr.", "Jr", "III", "Sr.", "IV"]
# corporate authors: one brace group, which may contain the word "and"
CORP = [
    "{Barnes and Noble}", "{Ernst and Young}",
    "{Society for Industrial and Applied Mathematics}",
    "{Research and Development Division}", r"{Johnson {\&} Johnson}",
    "{Procter and Gamble}", "{ACM SIGPLAN}",
]

WORDS = (
    "analysis of the stack machine for bibliography styles with names and "
    "sorting under citation passes in a fixpoint over labels on large "
    "databases using postfix programs to format entries by last name while "
    "scanning prose for references an efficient method towards robust "
    "typesetting via incremental parsing from structured records"
).split()
TITLE_EXTRAS = ["{NP}", "{LaTeX}", r"$O(n \log n)$", r"{\'e}tude", "{B}ib{T}e{X}",
                r'na{\"\i}ve', "{Unicode}"]
JOURNALS = ["J. ACM", "Commun. ACM", "SIAM J. Comput.", "TUGboat",
            "Inform. Process. Lett.", "Acta Inform.", "Theoret. Comput. Sci."]
PUBLISHERS = ["Addison-Wesley", "Springer", "MIT Press", r"Gauthier-Villars",
              "Cambridge University Press", "North-Holland"]
CITIES = ["Reading, MA", "Berlin", "Cambridge, MA", "Paris", "Amsterdam", "Oslo"]
PROSE = (
    "The interpreter keeps every value on one stack, and each builtin pops "
    "its operands before it pushes a result. Earlier work treats the style "
    "language as a curiosity; here it is the object of study. We measure "
    "how the number of names per entry changes the cost of sorting, and we "
    "report where the citation fixpoint settles after the second pass."
).split()


@dataclass
class Name:
    text: str
    first: list[str]
    von: list[str]
    last: list[str]
    jr: list[str]

    def sort_key(self) -> str:
        # what the styles' "{ll }{ff }{vv }{jj }" template renders
        return "".join(" ".join(p) + " " for p in (self.last, self.first, self.von, self.jr) if p)


@dataclass
class Corpus:
    workload: str
    style: str
    files: dict[str, str]
    aux: str                      # the .aux a converged pipeline leaves
    rendered: str                 # the .rendered.txt it leaves
    bbl_keys: list[str]           # \bibitem keys in output order
    blg_records: int              # lines of the .blg
    missing_cites: list[str]
    lint_lines: set[str]          # lines `bibstack lint STYLE` prints
    lint_rc: int
    sizes: dict[str, int] = field(default_factory=dict)


def build(workload: str, seed: int, scale: float = 1.0) -> Corpus:
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    style = styles.STYLES[spec["style"]]
    n_entries = max(1, int(spec["entries"] * scale))
    n_cited = max(1, int(spec["cited"] * scale))
    n_cites = max(1, int(spec["cites"] * scale))

    # list lengths and entry types are spread evenly and shuffled, so that
    # every seed asks for the same amount of work
    lo, hi = spec["names"]
    lengths = _balanced(rng, list(range(lo, hi + 1)), n_entries)
    types = _balanced(rng, style.type_names, n_entries)
    entries = [_entry(rng, i, style, etype, n_names)
               for i, (etype, n_names) in enumerate(zip(types, lengths))]
    bib = "".join(_bib_text(rng, e) for e in entries)

    chosen = rng.sample(entries, n_cited)
    cite_keys = _cite_groups(rng, [e["key"] for e in chosen], n_cites, spec["group"])
    pieces = _tex_pieces(rng, cite_keys, spec["prose"], style.name)
    tex = "".join(p if isinstance(p, str) else "\\cite{" + ",".join(p) + "}" for p in pieces)

    by_key = {e["key"]: e for e in entries}
    order = list(dict.fromkeys(k for group in cite_keys for k in group))
    found = [by_key[k] for k in order if k in by_key]
    missing = [k for k in order if k not in by_key]
    found.sort(key=lambda e: e["sort"])  # stable, like SORT
    bbl_keys = [e["key"] for e in found]
    labels = {k: str(i + 1) for i, k in enumerate(bbl_keys)}
    rendered = "".join(
        p if isinstance(p, str) else "[" + ",".join(labels.get(k, "?") for k in p) + "]"
        for p in pieces)
    aux_lines = ["\\relax"]
    aux_lines += [f"\\citation{{{k}}}" for group in cite_keys for k in group]
    aux_lines += [f"\\bibstyle{{{style.name}}}", f"\\bibdata{{{BIB}}}"]
    aux_lines += [f"\\bibcite{{{k}}}{{{labels[k]}}}" for k in bbl_keys]
    # one warning per cited key the .bib lacks, and one per optional field
    # that a cited entry lacks (its handler reads it once)
    blg = len(missing) + sum(len(e["absent"]) for e in found)
    lint_lines = {f"{style.name}.bst: field `{f}' is declared but never read"
                  for f in style.unused_fields}
    lint_lines.add(f"{style.name}: {len(style.unused_fields)} finding(s)")
    return Corpus(
        workload=workload, style=style.name,
        files={f"{BASE}.tex": tex, f"{BIB}.bib": bib, f"{style.name}.bst": style.text},
        aux="\n".join(aux_lines) + "\n", rendered=rendered, bbl_keys=bbl_keys,
        blg_records=blg, missing_cites=missing, lint_lines=lint_lines,
        lint_rc=1 if style.unused_fields else 0,
        sizes={"entries": n_entries, "cited": len(found), "cite_commands": len(cite_keys),
               "bib_bytes": len(bib.encode("utf-8")), "tex_bytes": len(tex.encode("utf-8"))},
    )


def _name(rng: random.Random) -> Name:
    r = rng.random()
    if r < 0.05:
        corp = rng.choice(CORP)
        return Name(corp, [], [], [corp], [])
    first = [rng.choice(FIRST) for _ in range(rng.choice((1, 1, 1, 2)))]
    von = rng.choice(VON) if rng.random() < 0.3 else []
    if r < 0.50:
        # First von Last: without a von part only the final word is Last
        if von and rng.random() < 0.3:
            last = rng.choice(MULTI_LAST)
        else:
            last = [rng.choice(LAST)]
        return Name(" ".join(first + von + last), first, von, last, [])
    last = rng.choice(MULTI_LAST) if rng.random() < 0.2 else [rng.choice(LAST)]
    head = " ".join(von + last)
    if r < 0.88:
        return Name(f"{head}, {' '.join(first)}", first, von, last, [])
    jr = [rng.choice(JR)]
    return Name(f"{head}, {jr[0]}, {' '.join(first)}", first, von, last, jr)


def _balanced(rng: random.Random, values: list, n: int) -> list:
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def _names(rng: random.Random, count: int) -> list[Name]:
    names = [_name(rng) for _ in range(count)]
    if len(names) > 1 and rng.random() < 0.05:
        names[-1] = Name("others", [], [], ["others"], [])
    return names


def _ascii(text: str) -> str:
    return "".join(c for c in text if c.isascii() and c.isalpha()).lower() or "x"


def _title(rng: random.Random) -> str:
    words = [rng.choice(WORDS) for _ in range(rng.randint(4, 12))]
    if rng.random() < 0.4:
        words.insert(rng.randrange(len(words)), rng.choice(TITLE_EXTRAS))
    words[0] = words[0].capitalize()
    return " ".join(words)


def _entry(rng: random.Random, index: int, style: styles.Style, etype: str, n_names: int) -> dict:
    required, optional = style.types[etype]
    names = _names(rng, n_names)
    year = str(rng.randint(1950, 2024))
    key = f"{_ascii(names[0].last[-1])[:12]}{year}-{index:x}"
    values = {"author": " and ".join(n.text for n in names), "year": year}
    fillers = {
        "title": lambda: _title(rng), "booktitle": lambda: "Proc. " + _title(rng),
        "journal": lambda: rng.choice(JOURNALS), "publisher": lambda: rng.choice(PUBLISHERS),
        "address": lambda: rng.choice(CITIES), "school": lambda: "University of " + rng.choice(CITIES),
        "institution": lambda: rng.choice(PUBLISHERS) + " Labs", "volume": lambda: str(rng.randint(1, 99)),
        "number": lambda: str(rng.randint(1, 12)), "edition": lambda: rng.choice(("Second", "Third")),
        "pages": lambda: f"{(p := rng.randint(1, 900))}--{p + rng.randint(1, 40)}",
        "month": lambda: rng.choice(("January", "March", "June", "October")),
        "editor": lambda: " and ".join(n.text for n in _names(rng, rng.randint(1, 3))),
        "series": lambda: rng.choice(("LNCS", "Monographs in Computer Science")),
        "chapter": lambda: str(rng.randint(1, 20)), "type": lambda: "Research Note",
        "note": lambda: "To appear", "howpublished": lambda: "Preprint",
        "organization": lambda: rng.choice(PUBLISHERS), "url": lambda: f"https://example.org/{index}",
        "urldate": lambda: f"{year}-0{rng.randint(1, 9)}-1{rng.randint(0, 9)}",
        "eprint": lambda: f"{rng.randint(1000, 2400)}.{rng.randint(10000, 99999)}",
    }
    for f in required:
        if f not in values:
            values[f] = fillers[f]()
    absent = []
    for f in optional:
        if rng.random() < 0.7:
            values[f] = fillers[f]()
        else:
            absent.append(f)
    # fields no style declares, as real databases carry them
    if rng.random() < 0.5:
        values["doi"] = f"10.{rng.randint(1000, 9999)}/{key}"
    if rng.random() < 0.3:
        values["keywords"] = ", ".join(rng.sample(WORDS, 3))
    names_key = "   ".join(n.sort_key() for n in names)
    return {"key": key, "type": etype, "values": values, "absent": absent,
            "sort": f"{names_key}    {year}    {key}"}


def _bib_text(rng: random.Random, entry: dict) -> str:
    lines = [f"@{entry['type'] if rng.random() < 0.8 else entry['type'].capitalize()}{{{entry['key']},"]
    for name, value in entry["values"].items():
        if name == "author" and len(value) > 70:
            # long lists break across lines, inside brace groups too; the
            # parser folds the whitespace
            value = value.replace(" and ", " and\n                ")
        if value.isdigit() and rng.random() < 0.5:
            text = value
        elif '"' not in value and rng.random() < 0.2:
            text = f'"{value}"'
        else:
            text = "{" + value + "}"
        lines.append(f"  {name:<9} = {text},")
    lines.append("}\n\n")
    return "\n".join(lines)


def _cite_groups(rng: random.Random, keys: list[str], n_cites: int, group: int) -> list[list[str]]:
    """n_cites \\cite key lists citing every key at least once, plus MISSING_KEYS."""
    keys = list(keys)
    rng.shuffle(keys)
    slots = n_cites * group
    pool = keys + [rng.choice(keys) for _ in range(max(0, slots - len(keys)))]
    groups = [pool[i:i + group] for i in range(0, len(pool), group)]
    for k in MISSING_KEYS:
        groups[rng.randrange(len(groups))].append(k)
    return groups


def _tex_pieces(rng: random.Random, cite_keys: list[list[str]], prose: int,
                style_name: str) -> list:
    """Document text as a list of prose strings and \\cite key lists."""
    pieces: list = ["\\documentclass{article}\n\\begin{document}\n\\section{Introduction}\n"]
    col = 0
    for n, keys in enumerate(cite_keys):
        words, size = [], 0
        while size < prose:
            w = rng.choice(PROSE)
            if rng.random() < 0.02:
                w = f"\\emph{{{w}}}"
            elif rng.random() < 0.01:
                w = "5\\%"
            words.append(w)
            size += len(w) + 1
        text = []
        for w in words:
            col += len(w) + 1
            if col > 72:
                text.append("\n")
                col = 0
            else:
                text.append(" ")
            text.append(w)
        if n % 40 == 39:
            text.append("\n\n% a comment the scanner skips: \\cite{nothing}\n\\section{More}\n")
            col = 0
        pieces.append("".join(text) + "~")
        pieces.append(keys)
    pieces.append(f".\n\n\\bibliographystyle{{{style_name}}}\n\\bibliography{{{BIB}}}\n\\end{{document}}\n")
    return pieces
