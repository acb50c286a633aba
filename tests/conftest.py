import re

import pytest
from hypothesis import settings

# the same examples on every run, and no per-example time limit
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")

_CRITERIA = {
    1: "golden bibliography bytes from the minimal style",
    2: "missing-field warning and guarded output",
    3: "sort order matches an independent stable-sort oracle",
    4: "last-name sort keys match the name engine",
    5: "stack discipline at end of run",
    6: "citation-pass fixpoint and tamper recovery",
    7: "duplicate citations emit one item each",
    8: "name parsing properties",
}

_results: dict[int, str] = {}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    match = re.search(r"test_acceptance\.py::.*test_criterion_(\d+)", report.nodeid)
    if match:
        _results[int(match.group(1))] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_results):
        outcome = _results[number]
        word = {"passed": "PASS", "failed": "FAIL"}.get(outcome, outcome.upper())
        title = _CRITERIA.get(number, "")
        terminalreporter.write_line(f"criterion {number}: {word} - {title}")
