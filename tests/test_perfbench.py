"""Smoke test of the benchmark's traced mode: perfbench/probe.py hooks
bibstack's layers by name, so a renamed or removed hook point shows here."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


@pytest.mark.parametrize("mode", ["counts", "spans"])
def test_probe_runs_pipeline_and_lint(mode, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import corpus

    c = corpus.build("sort-names", 1, scale=0.05)
    for name, text in c.files.items():
        (tmp_path / name).write_text(text, encoding="utf-8", newline="")
    out = tmp_path / "out.json"
    commands = [["pipeline", corpus.BASE], ["lint", c.style]]
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "probe.py"), mode, str(out), json.dumps(commands)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads(out.read_text(encoding="utf-8"))["rcs"] == [0, c.lint_rc]
