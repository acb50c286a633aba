"""Smoke test of tools/parentdiff.py on a small budget."""

import re
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_ARGS = ["--budget", "8"]


@pytest.fixture
def parentdiff(monkeypatch):
    for path in ("tools", "tests", "perfbench"):
        monkeypatch.syspath_prepend(str(ROOT / path))
    import parentdiff

    monkeypatch.setattr(parentdiff, "CORPUS_SCALE", 0.01)
    return parentdiff


def _copy_of_tree(path: Path) -> Path:
    return shutil.copytree(ROOT / "src" / "bibstack", path, ignore=shutil.ignore_patterns("__pycache__"))


def _differences(report: str) -> dict[str, int]:
    return {m[1]: int(m[2]) for m in re.finditer(r"^(\S+) +\d+ inputs +(\d+) differences$", report, re.M)}


def test_finds_no_difference_in_a_copy_and_finds_a_planted_mutation(parentdiff, tmp_path, capsys):
    assert parentdiff.main([str(_copy_of_tree(tmp_path / "copy")), *_ARGS]) == 0
    same = _differences(capsys.readouterr().out)

    names = _copy_of_tree(tmp_path / "mutant") / "names.py"
    source = names.read_text(encoding="utf-8")
    assert source.count("out.append(text + suffix)") == 1, "the mutation site in format_name moved"
    names.write_text(source.replace("out.append(text + suffix)", "out.append(text)"), encoding="utf-8")
    assert parentdiff.main([str(names.parent), *_ARGS]) == 1
    mutant = _differences(capsys.readouterr().out)

    assert {"names.format_name", "parse_bib", "parse_bst", "lint", "parse_aux", "scan_tex", "vm",
            "cli.sort-names.pipeline", "cli.cite-dense.lint"} <= set(same)
    assert set(same.values()) == {0}
    # the sort-names style formats every name with suffixed pieces
    assert mutant["cli.sort-names.pipeline"] > 0 and mutant["cli.sort-names.bibtex"] > 0
    assert mutant["parse_bib"] == mutant["lint"] == 0
