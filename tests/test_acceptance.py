"""Acceptance suite: one test per criterion, at the stated tolerance.

The conftest hook prints a PASS/FAIL line per criterion after the run.
"""

import random
import string

from hypothesis import given
from hypothesis import strategies as st

from bibstack.auxfile import AuxFile, parse_aux, write_aux
from bibstack.bstparse import parse_bst
from bibstack.cli import main
from bibstack.database import parse_bib
from bibstack.latexpass import fixpoint, run_pass, scan_tex
from bibstack.names import format_name, parse_name, split_names
from bibstack.vm import Vm, run

from fixtures import (
    AUTHOR_SORT_FRAGMENT,
    BIBTEX_AUX,
    EXPECTED_BBL,
    EXTRA_BIB_ENTRY,
    GUARDED_NUMBER_BST,
    HELLO_BST,
    INLINE_AUX,
    INLINE_TEX,
    LASTNAME_SORT_FRAGMENT,
    SAMPLE_BIB,
    bibitem_keys,
    cite_marks,
    with_sort_fragment,
    write_files,
)


def _run_texts(bst, aux_text, *bibs):
    program, diags = parse_bst(bst)
    assert not [d for d in diags if d.severity == "error"], diags
    return run(program, parse_aux(aux_text), [parse_bib(b)[0] for b in bibs])


# -- criterion 1: golden bibliography bytes ---------------------------------

def test_criterion_1_golden_output(workdir):
    write_files(workdir, {
        "my.bib": SAMPLE_BIB,
        "helloword.bst": HELLO_BST,
        "test3.aux": BIBTEX_AUX,
    })
    assert main(["bibtex", "test3"]) == 0
    produced = (workdir / "test3.bbl").read_bytes()
    assert produced == EXPECTED_BBL.encode("utf-8")  # exact bytes, LF endings


# -- criterion 2: missing-field warning -------------------------------------

def test_criterion_2_missing_field_warning():
    aux = ("\\relax\n\\citation{Ulam-1964}\n\\citation{YangYu}\n"
           "\\bibstyle{guarded}\n\\bibdata{refs}\n")
    doc, log = _run_texts(GUARDED_NUMBER_BST, aux, SAMPLE_BIB + EXTRA_BIB_ENTRY)
    assert log.warnings() == [
        "`number' is a missing field, not a string, for entry Ulam-1964"
    ]
    assert log.errors() == []
    text = doc.finalize()
    ulam_line = next(l for l in text.splitlines() if l.startswith("Stein"))
    yang_line = next(l for l in text.splitlines() if l.startswith("Yang"))
    assert ", No. 4, Vol. 219" in yang_line
    assert ", Vol. 39" in ulam_line and "No." not in ulam_line


# -- criterion 3: sort order vs an independent oracle ------------------------

def _insertion_sort(pairs):
    """Independent stable sort: insert each item after any equal keys."""
    out = []
    for pair in pairs:
        i = len(out)
        while i > 0 and out[i - 1][0] > pair[0]:
            i -= 1
        out.insert(i, pair)
    return out


def test_criterion_3_sort_semantics():
    style = with_sort_fragment(HELLO_BST, AUTHOR_SORT_FRAGMENT)
    doc, log = _run_texts(style, BIBTEX_AUX, SAMPLE_BIB)
    assert log.errors() == []
    db, _ = parse_bib(SAMPLE_BIB)
    oracle = _insertion_sort([(e.fields["author"], e.key) for e in db.entries])
    assert bibitem_keys(doc.finalize()) == [key for _, key in oracle]
    assert bibitem_keys(doc.finalize()) == ["Poincare", "Ulam-1964"]


def test_criterion_3_randomized_property():
    rng = random.Random(20240811)
    words = ["ant", "Bee", "cat", "Dog", "elk", "Fox", "gnu", "Hen"]
    style = with_sort_fragment(HELLO_BST, AUTHOR_SORT_FRAGMENT)
    for _ in range(100):
        n = rng.randint(2, 8)
        keys = [f"k{i}" for i in range(n)]
        authors = [" ".join(rng.choices(words, k=rng.randint(1, 3))) for _ in range(n)]
        bib = "\n".join(
            f'@article{{{k}, author = "{a}"}}' for k, a in zip(keys, authors)
        )
        aux = "\\relax\n" + "".join(f"\\citation{{{k}}}\n" for k in keys)
        doc, log = _run_texts(style, aux, bib)
        assert log.errors() == []
        oracle = _insertion_sort(list(zip(authors, keys)))
        assert bibitem_keys(doc.finalize()) == [key for _, key in oracle]


# -- criterion 4: last-name sort keys ----------------------------------------

def _lastname_key(author: str) -> str:
    """Direct name-engine computation mirroring the sort-key function."""
    names = split_names(author)
    key = format_name(names[0], "{ll}")
    for i in (1, 2):
        if len(names) > i:
            key += format_name(names[i], "{ll}")
    return key


def test_criterion_4_lastname_sort_keys():
    bib = (
        SAMPLE_BIB
        + EXTRA_BIB_ENTRY
        + '@article{Four, author = "Al An and Bo Bix and Cy Cox and Di Dee"}\n'
    )
    aux = ("\\relax\n\\citation{Poincare}\n\\citation{Ulam-1964}\n"
           "\\citation{YangYu}\n\\citation{Four}\n")
    style = "ENTRY\n  { author\n  }{}{}\nREAD\n" + LASTNAME_SORT_FRAGMENT
    program, diags = parse_bst(style)
    assert not [d for d in diags if d.severity == "error"], diags
    vm = Vm(program, [parse_bib(bib)[0]])
    vm.execute(parse_aux(aux))
    assert vm.log.errors() == []
    db, _ = parse_bib(bib)
    for entry in vm.entries:
        author = next(e.fields["author"] for e in db.entries if e.key == entry.key)
        assert entry.strs["sort.key$"] == _lastname_key(author)
    by_key = {e.key: e.strs["sort.key$"] for e in vm.entries}
    assert by_key["Poincare"] == r"Poincar\'e"
    assert by_key["Ulam-1964"] == "R.M."


# -- criterion 5: stack discipline --------------------------------------------

def _style_atoms(rng):
    a, b = rng.randint(1, 9), rng.randint(1, 9)
    return rng.choice([
        f"#{a} #{b} + 'g0 :=",
        f"#{a} #{b} - 'g1 :=",
        f'"w{a}" \'s0 :=',
        "s0 \"x\" * 's1 :=",
        "s1 write$ newline$",
        f'#{a} #{b} > {{ "p" write$ }} {{ skip$ }} if$',
        f"#{a} 'g0 := {{ g0 #0 > }} {{ g0 #1 - 'g0 := }} while$",
        "skip$",
        f'"a" "b" = {{ #{a} \'g0 := }} {{ #{b} \'g0 := }} if$',
    ])


def _generate_style(rng, mutate: bool) -> str:
    atoms = [_style_atoms(rng) for _ in range(rng.randint(3, 10))]
    if mutate:
        atoms.insert(rng.randint(0, len(atoms)), f"#{rng.randint(1, 9)}")
    body = "\n  ".join(atoms)
    return (
        "INTEGERS { g0 g1 }\nSTRINGS { s0 s1 }\n"
        "FUNCTION {main} {\n  " + body + " }\n"
        "EXECUTE {main}\n"
    )


def test_criterion_5_stack_discipline():
    program, diags = parse_bst(
        "ENTRY {author}{}{}\nREAD\nFUNCTION {main} { #1 #2 + }\nEXECUTE {main}\n"
    )
    assert diags == []
    _, log = run(program, parse_aux(BIBTEX_AUX), [parse_bib(SAMPLE_BIB)[0]])
    assert any("stack not empty at end" in e for e in log.errors())

    rng = random.Random(991)
    for _ in range(50):
        program, diags = parse_bst(_generate_style(rng, mutate=False))
        assert diags == []
        vm = Vm(program, [])
        vm.execute(AuxFile())
        assert vm.log.errors() == []
        assert vm.stack == []
    for _ in range(50):
        program, diags = parse_bst(_generate_style(rng, mutate=True))
        assert diags == []
        vm = Vm(program, [])
        vm.execute(AuxFile())
        assert any("stack not empty at end" in e for e in vm.log.errors())


# -- criterion 6: citation-pass fixpoint --------------------------------------

def test_criterion_6_fixpoint_and_tamper():
    scan = scan_tex(INLINE_TEX)

    first = run_pass(scan, None, base="test")
    assert cite_marks(first.rendered) == ["[?]", "[?]", "[?]"]
    assert first.warnings[0] == "No file test.aux."
    assert any("undefined" in w for w in first.warnings)
    assert write_aux(first.new_aux) == INLINE_AUX  # byte-exact
    assert first.labels_changed

    second = run_pass(scan, first.new_aux, base="test")
    assert cite_marks(second.rendered) == ["[2]", "[1]", "[2]"]
    assert not second.labels_changed

    tampered = parse_aux(INLINE_AUX)
    tampered.bibcites = {"Poincare": "10", "Ulam-1964": "25"}
    results = fixpoint(scan, tampered, 5, base="test")
    assert cite_marks(results[0].rendered) == ["[25]", "[10]", "[25]"]
    assert write_aux(results[0].new_aux) == INLINE_AUX
    assert len(results) == 2
    assert cite_marks(results[1].rendered) == ["[2]", "[1]", "[2]"]


# -- criterion 7: duplicate-citation dedup ------------------------------------

def test_criterion_7_fixed_case():
    doc, _ = _run_texts(HELLO_BST, BIBTEX_AUX, SAMPLE_BIB)
    assert len(bibitem_keys(doc.finalize())) == 2


_key_pool = [f"k{i}" for i in range(5)]
_pool_bib = "\n".join(f'@article{{{k}, author = "A {k}"}}' for k in _key_pool)


@given(st.lists(st.sampled_from(_key_pool), min_size=0, max_size=25))
def test_criterion_7_randomized_multisets(citations):
    aux = "\\relax\n" + "".join(f"\\citation{{{k}}}\n" for k in citations)
    doc, log = _run_texts(HELLO_BST, aux, _pool_bib)
    emitted = bibitem_keys(doc.finalize())
    assert emitted == list(dict.fromkeys(citations))
    assert len(emitted) == len(set(citations))


# -- criterion 8: name-engine properties --------------------------------------

def _random_name(rng):
    def upper_word():
        return rng.choice(string.ascii_uppercase) + "".join(
            rng.choices(string.ascii_lowercase, k=rng.randint(1, 4))
        )

    def lower_word():
        return "".join(rng.choices(string.ascii_lowercase, k=rng.randint(2, 4)))

    first = [upper_word() for _ in range(rng.randint(1, 2))]
    von = [lower_word() for _ in range(rng.randint(0, 2))]
    last = [upper_word() for _ in range(rng.randint(1, 2) if von else 1)]
    return first, von, last


def test_criterion_8_name_properties():
    # fixed examples against hand-applied rules
    parts = parse_name(r"H. Poincar\'e")
    assert (parts.first, parts.von, parts.last, parts.jr) == (["H."], [], [r"Poincar\'e"], [])
    parts = parse_name("Riss, F.")
    assert (parts.first, parts.von, parts.last, parts.jr) == (["F."], [], ["Riss"], [])
    parts = parse_name("de la Cruz, Jr., Maria")
    assert (parts.first, parts.von, parts.last, parts.jr) == (
        ["Maria"], ["de", "la"], ["Cruz"], ["Jr."])

    rng = random.Random(77)
    for _ in range(1000):
        first, von, last = _random_name(rng)
        plain = " ".join(first + von + last)
        comma = " ".join(von + last) + ", " + " ".join(first)

        a = parse_name(plain)
        # token partition: nothing lost, nothing invented
        assert sorted(a.first + a.von + a.last + a.jr) == sorted(plain.split())
        # the two comma forms agree on every part
        b = parse_name(comma)
        assert (a.first, a.von, a.last, a.jr) == (b.first, b.von, b.last, b.jr)
        assert (a.first, a.von, a.last) == (first, von, last)
        # full-template round trip, modulo whitespace (pieces join verbatim)
        rendered = format_name(plain, "{ff}{vv}{ll}{jj}")
        assert rendered.replace(" ", "") == plain.replace(" ", "")
