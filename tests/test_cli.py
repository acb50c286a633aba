"""Tests for the command-line front end."""

import contextlib
import io
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibstack.cli import main
from bibstack.vm import CALL_DEPTH_LIMIT

from fixtures import (
    BIBTEX_AUX,
    EXPECTED_BBL,
    EXTERNAL_TEX,
    EXTRA_BIB_ENTRY,
    GUARDED_NUMBER_BST,
    HELLO_BST,
    INLINE_AUX,
    INLINE_TEX,
    SAMPLE_BIB,
    AUTHOR_SORT_FRAGMENT,
    BST_TEXT,
    SCANNER_TEXT,
    TEX_TEXT,
    cite_marks,
    with_sort_fragment,
    write_files,
)


class TestBibtex:
    def test_golden_run(self, workdir, capsys):
        write_files(workdir, {
            "my.bib": SAMPLE_BIB,
            "helloword.bst": HELLO_BST,
            "test3.aux": BIBTEX_AUX,
        })
        assert main(["bibtex", "test3"]) == 0
        assert (workdir / "test3.bbl").read_text() == EXPECTED_BBL
        assert (workdir / "test3.blg").read_text() == ""
        assert "wrote test3.bbl" in capsys.readouterr().out

    def test_entry_type_without_a_function_runs_default_type(self, workdir):
        style = HELLO_BST.replace("READ", 'FUNCTION {default.type} { book }\nREAD')
        write_files(workdir, {
            "my.bib": '@misc{M, author = "Someone"}\n' + SAMPLE_BIB,
            "helloword.bst": style,
            "t.aux": BIBTEX_AUX.replace("\\citation{Poincare}\n", "\\citation{M}\n"),
        })
        assert main(["bibtex", "t"]) == 0
        assert "\\bibitem{M}\nSomeone (book)\n" in (workdir / "t.bbl").read_text()
        assert (workdir / "t.blg").read_text() == "Warning--no handler function for entry type `misc'\n"

    def test_missing_style_file(self, workdir, capsys):
        write_files(workdir, {"my.bib": SAMPLE_BIB, "test3.aux": BIBTEX_AUX})
        assert main(["bibtex", "test3"]) == 2
        assert "helloword.bst" in capsys.readouterr().err

    def test_missing_aux(self, workdir, capsys):
        assert main(["bibtex", "nothing"]) == 2
        assert "no aux file" in capsys.readouterr().err

    def test_missing_bib_file(self, workdir, capsys):
        write_files(workdir, {"helloword.bst": HELLO_BST, "test3.aux": BIBTEX_AUX})
        assert main(["bibtex", "test3"]) == 2
        assert "my.bib" in capsys.readouterr().err

    def test_aux_without_style(self, workdir, capsys):
        write_files(workdir, {"t.aux": "\\relax\n\\bibdata{my}\n"})
        assert main(["bibtex", "t"]) == 2
        assert "no style declared" in capsys.readouterr().err

    def test_warning_under_strict_exits_1(self, workdir):
        aux = BIBTEX_AUX.replace("\\citation{Poincare}\n", "\\citation{Ghost}\n")
        write_files(workdir, {
            "my.bib": SAMPLE_BIB,
            "helloword.bst": HELLO_BST,
            "t.aux": aux,
        })
        assert main(["bibtex", "t", "--strict"]) == 1
        assert main(["bibtex", "t"]) == 0

    def test_guarded_style_with_present_number_is_clean_under_strict(self, workdir):
        aux = "\\relax\n\\citation{YangYu}\n\\bibstyle{guarded}\n\\bibdata{refs}\n"
        write_files(workdir, {
            "refs.bib": SAMPLE_BIB + EXTRA_BIB_ENTRY,
            "guarded.bst": GUARDED_NUMBER_BST,
            "t.aux": aux,
        })
        assert main(["bibtex", "t", "--strict"]) == 0
        assert ", No. 4, Vol. 219" in (workdir / "t.bbl").read_text()

    def test_blg_records_missing_field_warning(self, workdir):
        aux = "\\relax\n\\citation{Ulam-1964}\n\\citation{YangYu}\n\\bibstyle{guarded}\n\\bibdata{refs}\n"
        write_files(workdir, {
            "refs.bib": SAMPLE_BIB + EXTRA_BIB_ENTRY,
            "guarded.bst": GUARDED_NUMBER_BST,
            "t.aux": aux,
        })
        assert main(["bibtex", "t"]) == 0
        blg = (workdir / "t.blg").read_text()
        assert blg == ("Warning--`number' is a missing field, not a string, "
                       "for entry Ulam-1964\n")

    def test_style_dir_flag(self, workdir):
        (workdir / "styles").mkdir()
        write_files(workdir / "styles", {"helloword.bst": HELLO_BST})
        write_files(workdir, {"my.bib": SAMPLE_BIB, "test3.aux": BIBTEX_AUX})
        assert main(["bibtex", "test3", "--style-dir", "styles"]) == 0

    def test_failed_run_does_not_truncate_previous_output(self, workdir):
        write_files(workdir, {
            "my.bib": SAMPLE_BIB,
            "helloword.bst": HELLO_BST,
            "test3.aux": BIBTEX_AUX,
        })
        assert main(["bibtex", "test3"]) == 0
        (workdir / "helloword.bst").unlink()
        assert main(["bibtex", "test3"]) == 2
        assert (workdir / "test3.bbl").read_text() == EXPECTED_BBL

    def test_blg_lists_bib_diagnostics_before_vm_records(self, workdir):
        bib = SAMPLE_BIB.replace('    year = "1964",\n', '    year = "1964",\n    year = "1965",\n')
        write_files(workdir, {
            "refs.bib": bib,
            "guarded.bst": GUARDED_NUMBER_BST,
            "t.aux": "\\relax\n\\citation{Ulam-1964}\n\\bibstyle{guarded}\n\\bibdata{refs}\n",
        })
        assert main(["bibtex", "t"]) == 0
        assert (workdir / "t.blg").read_text() == (
            "Warning--refs.bib, line 7: duplicate field `year' in entry `Ulam-1964'; "
            "first value kept\n"
            "Warning--`number' is a missing field, not a string, for entry Ulam-1964\n"
        )

    @pytest.mark.parametrize("command", ["bibtex", "pipeline"])
    def test_repeated_fields_are_reported_only_in_cited_entries(self, workdir, capsys, command):
        # Poincare is not cited, and its repeated field goes unreported, as in classic BibTeX
        bib = SAMPLE_BIB.replace('    year = "1964",\n', '    year = "1964",\n    year = "1965",\n')
        bib = bib.replace('    year = "1892",\n', '    year = "1892",\n    YEAR = "1893",\n')
        write_files(workdir, {
            "refs.bib": bib,
            "guarded.bst": GUARDED_NUMBER_BST,
            "t.aux": "\\relax\n\\citation{Ulam-1964}\n\\bibstyle{guarded}\n\\bibdata{refs}\n",
            "t.tex": "\\cite{Ulam-1964}\n\\bibliographystyle{guarded}\n\\bibliography{refs}\n",
        })
        assert main([command, "t"]) == 0
        warnings = [
            "refs.bib, line 7: duplicate field `year' in entry `Ulam-1964'; first value kept",
            "`number' is a missing field, not a string, for entry Ulam-1964",
        ]
        assert (workdir / "t.blg").read_text() == "".join(f"Warning--{w}\n" for w in warnings)
        captured = capsys.readouterr()
        assert [line for line in captured.err.splitlines() if line.startswith("warning: ")] == \
            [f"warning: {w}" for w in warnings]
        assert "Poincare" not in captured.err
        assert "t: wrote t.bbl (2 warning(s), 0 error(s))\n" in captured.out


    def test_aux_without_database(self, workdir, capsys):
        write_files(workdir, {"t.aux": "\\relax\n\\bibstyle{helloword}\n"})
        assert main(["bibtex", "t"]) == 2
        assert capsys.readouterr().err == "no database declared in t.aux\n"

    def test_style_found_through_the_base_directory(self, workdir):
        (workdir / "sub").mkdir()
        write_files(workdir / "sub", {"helloword.bst": HELLO_BST, "t.aux": BIBTEX_AUX})
        write_files(workdir, {"my.bib": SAMPLE_BIB})
        assert main(["bibtex", "sub/t"]) == 0
        assert (workdir / "sub" / "t.bbl").read_text() == EXPECTED_BBL

    def test_parse_warnings_on_stderr_carry_the_warning_prefix(self, workdir, capsys):
        write_files(workdir, {
            "dup.bib": SAMPLE_BIB.replace('    year = "1964",\n', '    year = "1964",\n    year = "1965",\n'),
            "guarded.bst": GUARDED_NUMBER_BST,
            "t.aux": "\\relax\n\\citation{Ulam-1964}\n\\bibstyle{guarded}\n\\bibdata{dup}\n",
        })
        assert main(["bibtex", "t"]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "warning: dup.bib, line 7: duplicate field `year' in entry `Ulam-1964'; "
            "first value kept\n"
            "warning: `number' is a missing field, not a string, for entry Ulam-1964\n"
        )
        assert captured.out == "t: wrote t.bbl (2 warning(s), 0 error(s))\n"


class TestLatexpass:
    def test_first_and_second_pass(self, workdir, capsys):
        write_files(workdir, {"test.tex": INLINE_TEX})
        assert main(["latexpass", "test"]) == 0
        captured = capsys.readouterr()
        assert "No file test.aux." in captured.err
        assert "Rerun" in captured.err
        assert (workdir / "test.aux").read_text() == INLINE_AUX
        assert cite_marks((workdir / "test.rendered.txt").read_text()) == ["[?]", "[?]", "[?]"]

        assert main(["latexpass", "test"]) == 0
        captured = capsys.readouterr()
        assert "Rerun" not in captured.err
        assert cite_marks((workdir / "test.rendered.txt").read_text()) == ["[2]", "[1]", "[2]"]

    def test_empty_document(self, workdir):
        write_files(workdir, {"empty.tex": "plain words\n"})
        assert main(["latexpass", "empty"]) == 0
        assert (workdir / "empty.aux").read_text() == "\\relax\n"

    def test_missing_tex(self, workdir, capsys):
        assert main(["latexpass", "ghost"]) == 2
        assert "no tex file" in capsys.readouterr().err

    def test_scan_error_exits_2(self, workdir, capsys):
        write_files(workdir, {"bad.tex": "\\cite{oops"})
        assert main(["latexpass", "bad"]) == 2

    def test_unclosed_bibliography_width_stays_text(self, workdir):
        tex = "see \\cite{a}\n\\begin{thebibliography}{9\nthen \\cite{a}\n"
        write_files(workdir, {"t.tex": tex})
        assert main(["latexpass", "t"]) == 0
        rendered = (workdir / "t.rendered.txt").read_text()
        assert rendered == "see [?]\n\\begin{thebibliography}{9\nthen [?]\n"

    def test_external_mode_consumes_bbl(self, workdir):
        write_files(workdir, {"test2.tex": EXTERNAL_TEX})
        assert main(["latexpass", "test2"]) == 0
        aux1 = (workdir / "test2.aux").read_text()
        assert "\\bibcite" not in aux1
        write_files(workdir, {"my.bib": SAMPLE_BIB, "helloword.bst": HELLO_BST})
        assert main(["bibtex", "test2"]) == 0
        assert main(["latexpass", "test2"]) == 0
        aux2 = (workdir / "test2.aux").read_text()
        assert "\\bibcite{Ulam-1964}{1}" in aux2
        assert "\\bibcite{Poincare}{2}" in aux2
        # labels resolve only on the following pass
        assert cite_marks((workdir / "test2.rendered.txt").read_text()) == ["[?]", "[?]"]
        assert main(["latexpass", "test2"]) == 0
        assert cite_marks((workdir / "test2.rendered.txt").read_text()) == ["[1]", "[2]"]

    def test_aux_the_next_run_cannot_read_is_not_written(self, workdir, capsys):
        write_files(workdir, {"t.tex": "see \\cite{x{y}z}\n"})
        assert main(["latexpass", "t"]) == 2
        assert capsys.readouterr().err == (
            "t.aux: not written: \\citation name 'x{y}z' holds a brace or a line break\n")
        assert not (workdir / "t.aux").exists() and not (workdir / "t.rendered.txt").exists()

    def test_aux_lines_the_pass_does_not_own_are_written_back(self, workdir):
        write_files(workdir, {
            "t.tex": "see \\cite{a}\n",
            "t.aux": "\\relax\n\\newlabel{sec:x}{{1}{1}}\n\\citation{old}\n\\@writefile{toc}{x}\n",
        })
        assert main(["latexpass", "t"]) == 0
        assert (workdir / "t.aux").read_text() == (
            "\\relax\n\\citation{a}\n\\newlabel{sec:x}{{1}{1}}\n\\@writefile{toc}{x}\n")

    def test_inline_bibitem_unused_in_external_mode_is_not_checked(self, workdir):
        write_files(workdir, {"test2.tex": EXTERNAL_TEX + "\\bibitem{x{y}}\n"})
        assert main(["latexpass", "test2"]) == 0


class TestPipeline:
    def files(self):
        return {
            "test2.tex": EXTERNAL_TEX,
            "my.bib": SAMPLE_BIB,
            "helloword.bst": HELLO_BST,
        }

    def test_converges_with_citation_order_labels(self, workdir):
        write_files(workdir, self.files())
        assert main(["pipeline", "test2"]) == 0
        assert cite_marks((workdir / "test2.rendered.txt").read_text()) == ["[1]", "[2]"]
        assert (workdir / "test2.bbl").read_text() == EXPECTED_BBL

    def test_sorted_style_renumbers(self, workdir):
        files = self.files()
        files["helloword.bst"] = with_sort_fragment(HELLO_BST, AUTHOR_SORT_FRAGMENT)
        write_files(workdir, files)
        assert main(["pipeline", "test2"]) == 0
        assert cite_marks((workdir / "test2.rendered.txt").read_text()) == ["[2]", "[1]"]

    def test_readme_run_prints_four_lines(self, workdir, capsys):
        write_files(workdir, self.files())
        assert main(["pipeline", "test2"]) == 0
        assert capsys.readouterr().out == (
            "test2: 2 citation(s), 0 resolved, labels stable\n"
            "test2: wrote test2.bbl (0 warning(s), 0 error(s))\n"
            "test2: 2 citation(s), 0 resolved, labels changed\n"
            "test2: 2 citation(s), 2 resolved, labels stable\n"
        )

    def test_unsettled_labels_exit_2_with_one_message(self, workdir, capsys):
        write_files(workdir, self.files())
        assert main(["pipeline", "test2", "--max-passes", "1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-2] == "Label(s) may have changed. Rerun to get cross-references right."
        # the last line is the one non-convergence message, naming the pass cap
        assert err[-1].startswith("labels ") and err[-1].endswith(" 1 pass(es)")
        assert sum(line.startswith("labels ") for line in err) == 1

    def test_cite_in_bib_field_text_is_not_checked(self, workdir):
        # \cite commands in the .bbl are never written to the .aux
        files = self.files()
        files["my.bib"] = SAMPLE_BIB.replace("Poincar\\'e", "Poincar\\'e \\cite{a,} \\cite{x{y}z}")
        write_files(workdir, files)
        assert main(["pipeline", "test2"]) == 0
        assert "\\cite{x{y}z}" in (workdir / "test2.bbl").read_text()

    def test_tex_commands_in_bib_field_text_leave_the_bbl_readable(self, workdir, capsys):
        # only the .bbl's \bibitem keys are read: a \cite or \begin without its group is text
        write_files(workdir, {
            "s.bst": HELLO_BST,
            "d.bib": "@article{a, author = {Ann How to \\cite a paper}}\n"
                     "@book{b, author={Bob \\begin x}}\n",
            "t.tex": "\\bibliographystyle{s}\\bibliography{d}\\cite{a}\\cite{b}",
        })
        assert main(["pipeline", "t"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "t: 2 citation(s), 2 resolved, labels stable"
        assert cite_marks((workdir / "t.rendered.txt").read_text()) == ["[1]", "[2]"]
        assert main(["latexpass", "t"]) == 0
        assert capsys.readouterr().out == "t: 2 citation(s), 2 resolved, labels stable\n"

    def test_bbl_bibitem_without_its_key_is_an_error(self, workdir, capsys):
        files = self.files()
        files["my.bib"] = SAMPLE_BIB.replace("Poincar\\'e", "Poincar\\'e \\bibitem x")
        write_files(workdir, files)
        assert main(["pipeline", "test2"]) == 2
        assert capsys.readouterr().err.endswith("test2.bbl: line 6: expected '{' after \\bibitem\n")

    def test_bbl_key_the_aux_cannot_carry_is_an_error(self, workdir, capsys):
        files = self.files()
        files["my.bib"] = SAMPLE_BIB.replace("Poincar\\'e", "Poincar\\'e \\bibitem{x{y}}")
        write_files(workdir, files)
        assert main(["pipeline", "test2"]) == 2
        assert capsys.readouterr().err.endswith(
            "test2.aux: not written: \\bibcite name 'x{y}' holds a brace or a line break\n")

    def test_cite_with_a_note(self, workdir):
        files = self.files()
        files["test2.tex"] = EXTERNAL_TEX.replace("\\cite{Poincare}", "\\cite[p.~5]{Poincare}")
        write_files(workdir, files)
        assert main(["pipeline", "test2"]) == 0
        assert (workdir / "test2.rendered.txt").read_text() == (
            EXTERNAL_TEX.replace("\\cite{Ulam-1964}", "[1]").replace("\\cite{Poincare}", "[2]"))

    def test_aux_lines_the_pass_does_not_own_are_written_back(self, workdir):
        files = self.files()
        files["test2.aux"] = "\\newlabel{sec:x}{{1}{1}}\n\\@writefile{toc}{x}\n"
        write_files(workdir, files)
        assert main(["pipeline", "test2"]) == 0
        assert (workdir / "test2.aux").read_text() == (
            "\\relax\n\\citation{Ulam-1964}\n\\citation{Poincare}\n\\bibstyle{helloword}\n\\bibdata{my}\n"
            "\\bibcite{Ulam-1964}{1}\n\\bibcite{Poincare}{2}\n\\newlabel{sec:x}{{1}{1}}\n\\@writefile{toc}{x}\n")

    def test_no_style_declared(self, workdir, capsys):
        write_files(workdir, {"plain.tex": "\\cite{x}\n\\bibliography{my}\n"})
        assert main(["pipeline", "plain"]) == 2
        assert "no style declared" in capsys.readouterr().err

    def test_no_database_declared(self, workdir, capsys):
        write_files(workdir, {"plain.tex": "\\cite{x}\n\\bibliographystyle{helloword}\n"})
        assert main(["pipeline", "plain"]) == 2
        assert capsys.readouterr().err == "no database declared\n"

    def test_matches_manual_subcommand_sequence(self, workdir):
        a = workdir / "a"
        b = workdir / "b"
        a.mkdir()
        b.mkdir()
        write_files(a, self.files())
        write_files(b, self.files())

        import os

        os.chdir(a)
        assert main(["pipeline", "test2"]) == 0
        os.chdir(b)
        assert main(["latexpass", "test2"]) == 0
        assert main(["bibtex", "test2"]) == 0
        while True:
            assert main(["latexpass", "test2"]) == 0
            aux_before = (b / "test2.aux").read_text()
            assert main(["latexpass", "test2"]) == 0
            if (b / "test2.aux").read_text() == aux_before:
                break
        os.chdir(workdir)

        for name in ("test2.aux", "test2.bbl", "test2.blg", "test2.rendered.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestLint:
    def test_clean_style(self, workdir, capsys):
        write_files(workdir, {"helloword.bst": HELLO_BST})
        assert main(["lint", "helloword"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_forward_execute_is_a_finding(self, workdir, capsys):
        write_files(workdir, {
            "bad.bst": "EXECUTE {missing.fn}\nFUNCTION {missing.fn} { skip$ }\n",
        })
        assert main(["lint", "bad"]) == 1
        assert "should be already described" in capsys.readouterr().out

    def test_stack_imbalance_is_a_finding(self, workdir, capsys):
        write_files(workdir, {"push.bst": "FUNCTION {main} { #1 #2 + }\nEXECUTE {main}\n"})
        assert main(["lint", "push"]) == 1
        assert "net stack effect +1" in capsys.readouterr().out

    def test_parse_wreckage_exits_2(self, workdir):
        write_files(workdir, {"broken.bst": "FUNCTION {f} { #1"})
        assert main(["lint", "broken"]) == 2

    def test_fatal_diagnostic_printed_like_a_finding(self, workdir, capsys):
        write_files(workdir, {"broken.bst": "FUNCTION {f} { #1"})
        assert main(["lint", "broken"]) == 2
        assert capsys.readouterr() == ("broken.bst:1: unclosed `{' at end of file\n", "")

    def test_missing_file(self, workdir):
        assert main(["lint", "ghost"]) == 2

    def test_bare_extension_is_an_empty_base(self, workdir, capsys):
        assert main(["lint", ".bst"]) == 2
        assert capsys.readouterr() == ("", "BASE must not be empty\n")


# styles deep enough to exhaust Python's recursion limit in the parser and in lint
DEEP_NESTING = "FUNCTION {f} " + "{" * 3000 + "}" * 3000 + "\n"
DEEP_CALLS = "FUNCTION {f0} { skip$ }\n" + "".join(
    f"FUNCTION {{f{i}}} {{ f{i - 1} }}\n" for i in range(1, 3000)) + "EXECUTE {f2999}\n"


class TestCrash:
    """Styles deep enough to break a recursive walker: a normal run, or the VM's
    call-depth error in the .blg and exit 2; never a traceback."""

    @pytest.mark.parametrize("style", [DEEP_NESTING, DEEP_CALLS], ids=["nesting", "calls"])
    def test_lint_on_deep_style(self, workdir, capsys, style):
        write_files(workdir, {"deep.bst": style})
        code = main(["lint", "deep"])
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        # the tokenizer, the identifier walker and the effect analyzer keep explicit stacks
        assert code == 0
        assert out == "deep: 0 finding(s)\n"

    def test_bibtex_on_deeply_nested_style(self, workdir, capsys):
        write_files(workdir, {
            "my.bib": SAMPLE_BIB,
            "deep.bst": DEEP_NESTING,
            "t.aux": "\\relax\n\\citation{Poincare}\n\\bibstyle{deep}\n\\bibdata{my}\n",
        })
        assert main(["bibtex", "t"]) == 0
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert (workdir / "t.bbl").exists()

    def test_bibtex_on_deep_call_chain(self, workdir, capsys):
        write_files(workdir, {
            "my.bib": SAMPLE_BIB,
            "deep.bst": DEEP_CALLS,
            "t.aux": "\\relax\n\\citation{Poincare}\n\\bibstyle{deep}\n\\bibdata{my}\n",
        })
        assert main(["bibtex", "t"]) == 2
        assert "Traceback" not in capsys.readouterr().err
        # EXECUTE enters f2999 from line 3001; each body calls the next from its own line
        line = 3001 - CALL_DEPTH_LIMIT
        assert (workdir / "t.blg").read_text() == (
            f"function call depth exceeded (limit {CALL_DEPTH_LIMIT}) (line {line})\n")

    def test_internal_error_is_one_line_exit_2(self, workdir, capsys, monkeypatch):
        write_files(workdir, {
            "my.bib": SAMPLE_BIB,
            "helloword.bst": HELLO_BST,
            "test3.aux": BIBTEX_AUX,
        })

        def crash(*args):
            raise RuntimeError("boom\n  twice")

        monkeypatch.setattr("bibstack.cli.run", crash)
        assert main(["bibtex", "test3"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["bibstack: internal error: RuntimeError: boom twice"]
        assert "Traceback" not in err


class TestFileErrors:
    """A path that cannot be read or written is an ordinary error: one stderr line, exit 2."""

    def test_style_that_is_a_directory(self, workdir, capsys):
        write_files(workdir, {"my.bib": SAMPLE_BIB, "test3.aux": BIBTEX_AUX})
        (workdir / "helloword.bst").mkdir()
        assert main(["bibtex", "test3"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["helloword.bst: Is a directory"]
        assert "internal error" not in err and "Traceback" not in err

    def test_bbl_that_is_a_directory(self, workdir, capsys):
        write_files(workdir, {
            "my.bib": SAMPLE_BIB,
            "helloword.bst": HELLO_BST,
            "test3.aux": BIBTEX_AUX,
        })
        (workdir / "test3.bbl").mkdir()
        assert main(["bibtex", "test3"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["test3.bbl: Is a directory"]
        assert "internal error" not in err and "Traceback" not in err
        # the temp file is removed and nothing else is written
        assert sorted(p.name for p in workdir.iterdir()) == [
            "helloword.bst", "my.bib", "test3.aux", "test3.bbl"]


class TestFileModes:
    def test_outputs_follow_the_umask(self, workdir):
        write_files(workdir, TestPipeline().files())
        old = os.umask(0o022)
        try:
            assert main(["pipeline", "test2"]) == 0
        finally:
            os.umask(old)
        for name in ("test2.aux", "test2.bbl", "test2.blg", "test2.rendered.txt"):
            assert (workdir / name).stat().st_mode & 0o777 == 0o644, name


class TestEncoding:
    def test_invalid_utf8_bib_is_an_error(self, workdir, capsys):
        write_files(workdir, {
            "helloword.bst": HELLO_BST,
            "test3.aux": BIBTEX_AUX,
        })
        (workdir / "my.bib").write_bytes(b'@misc{k, note = "\xff\xfe"}')
        assert main(["bibtex", "test3"]) == 2
        assert "invalid UTF-8" in capsys.readouterr().err


class TestArguments:
    def test_extension_stripped_from_base(self, workdir):
        write_files(workdir, {
            "my.bib": SAMPLE_BIB,
            "helloword.bst": HELLO_BST,
            "test3.aux": BIBTEX_AUX,
        })
        assert main(["bibtex", "test3.aux"]) == 0

    def test_max_passes_validated(self, workdir, capsys):
        write_files(workdir, {"t.tex": "x"})
        assert main(["latexpass", "t", "--max-passes", "0"]) == 2


# random inputs for one directory, each a working file, a working file with
# random text after it, random text, or no file; the .tex and .aux name the
# style s and the database d
_FUZZ_HEAD = "\\bibliographystyle{s}\\bibliography{d}\\cite{Ulam-1964}\\cite{Poincare}\n"


def _fuzz_file(good, junk):
    return st.one_of(st.just(good), junk.map(good.__add__), junk, st.none())


_FUZZ_FILES = st.fixed_dictionaries({
    "t.tex": _fuzz_file(_FUZZ_HEAD, TEX_TEXT),
    "t.aux": _fuzz_file(BIBTEX_AUX.replace("helloword", "s").replace("{my}", "{d}"), TEX_TEXT),
    "d.bib": _fuzz_file(SAMPLE_BIB, SCANNER_TEXT),
    "s.bst": _fuzz_file(HELLO_BST, BST_TEXT),
})
_OUTPUTS = {"t.aux", "t.bbl", "t.blg", "t.rendered.txt"}


@settings(max_examples=60)
@given(_FUZZ_FILES, st.sampled_from([[], ["--strict"], ["--max-passes", "1"]]))
def test_any_inputs_give_a_defined_outcome(files, flags):
    """Every subcommand exits 0, 1 or 2 without a traceback and leaves no temp file."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            write_files(Path(tmp), {name: text for name, text in files.items() if text is not None})
            for argv in (["latexpass", "t"], ["bibtex", "t"], ["pipeline", "t"], ["lint", "s"]):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main(argv + flags)
                assert code in (0, 1, 2), argv
                assert "Traceback" not in err.getvalue() and "internal error" not in err.getvalue()
            assert set(os.listdir(tmp)) <= set(files) | _OUTPUTS
        finally:
            os.chdir(cwd)
