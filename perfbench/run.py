"""The bibstack benchmark: cold-process CLI timings and an outside-in layer trace.

    python3 perfbench/run.py --workload sort-names --seed 1 --seconds 40 --trace 0

Run it from the root of a bibstack checkout; it imports the program from
`src/` and writes only under `.perfbench_work/`.  It generates the
workload's corpus from the seed, then:

--trace 0  drives the real `bibstack` command in a closed loop with one
           client, one fresh child process per operation, one at a time:
           `pipeline`, `bibtex`, `lint`, and a bare `import bibstack.cli`,
           each between two runs of `calibrate.py`, round after round for
           --seconds.  Every output is checked against what the generator
           knows it must be.  Prints the end-to-end metrics.
--trace 1  runs two count-only pipelines, the t(N)/t(N/4) timings, a traced
           lint, and untraced and traced pipelines in turn (see probe.py),
           and prints the per-layer metrics.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402

OP_TIMEOUT_S = 120
# lint and the bare import are short, so a round takes several of each
SHORT_OPS_PER_ROUND = 4
# Times are normalized to the machine's speed around each sample: a sample
# is scaled by REFERENCE_S[kind] / (mean wall time of the `calibrate.py
# kind` runs just before and after it), and a metric is the median of its
# scaled samples.  REFERENCE_S is about each reference's time on the 2-core
# machine the benchmark was written on when it runs fast, so the reported
# seconds read like that machine's.
REFERENCE_S = {"cpu": 0.15, "startup": 0.05}
REFERENCE_OF = {"pipeline_s": "cpu", "bibtex_s": "cpu", "lint_s": "startup", "setup_s": "startup"}
BUILTIN_LABELS = {
    "write$": "write", "newline$": "newline", "cite$": "cite", "empty$": "empty",
    "skip$": "skip", "if$": "if", "while$": "while", "num.names$": "num.names",
    "format.name$": "format.name", "call.type$": "call.type", "*": "concat",
    ":=": "assign", "=": "eq", "<": "lt", ">": "gt", "+": "add", "-": "sub",
}
OUTPUTS = (".aux", ".bbl", ".blg", ".rendered.txt")
BIBITEM = re.compile(r"\\bibitem(?:\[[^\]]*\])?\{([^}]*)\}")


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.work = root / ".perfbench_work"
        self.dir = self.work / workload
        self.logs = self.dir / "logs"
        self.env = dict(os.environ)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPATH"] = str(root / "src")
        # compiled bytecode is kept with the benchmark's files, not in src/
        self.env["PYTHONPYCACHEPREFIX"] = str(self.work / "pycache")
        self.workload, self.seed = workload, seed
        self.attempted = 0
        self.failures: list[str] = []
        self.first_outputs: dict[str, bytes] = {}

    # -- files ----------------------------------------------------------------

    def write_corpus(self, c: corpus.Corpus, d: Path) -> None:
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        for name, text in c.files.items():
            (d / name).write_text(text, encoding="utf-8", newline="")

    def reset(self, c: corpus.Corpus, d: Path) -> None:
        """Leave only the user's inputs: .tex, .bib and .bst."""
        for p in d.iterdir():
            if p.name not in c.files:
                p.unlink()

    # -- child processes -------------------------------------------------------

    def spawn(self, argv: list[str], cwd: Path, tag: str) -> tuple[int, float, float, str, str]:
        """Run one child to completion: exit code, wall s, peak RSS MiB, stdout, stderr."""
        self.logs.mkdir(parents=True, exist_ok=True)
        out_p, err_p = self.logs / f"{tag}.out", self.logs / f"{tag}.err"
        with open(out_p, "wb") as out, open(err_p, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            timer = threading.Timer(OP_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, wall, usage.ru_maxrss / 1024,
                out_p.read_text(encoding="utf-8", errors="replace"),
                err_p.read_text(encoding="utf-8", errors="replace"))

    def cli(self, args: list[str], cwd: Path) -> tuple[int, float, float, str, str]:
        return self.spawn([sys.executable, "-m", "bibstack", *args], cwd, args[0])

    def probe(self, args: list[str], cwd: Path, tag: str) -> tuple[int, float, dict, str]:
        out = self.logs / f"{tag}.json"
        out.unlink(missing_ok=True)
        rc, wall, _rss, _o, err = self.spawn(
            [sys.executable, str(HERE / "probe.py"), args[0], str(out), *args[1:]], cwd, tag)
        data = json.loads(out.read_text(encoding="utf-8")) if rc == 0 and out.exists() else {}
        return rc, wall, data, err

    # -- operations and their checks -------------------------------------------

    def record(self, op: str, problem: str | None) -> bool:
        self.attempted += 1
        if problem:
            self.failures.append(f"{op}: {problem}")
            print(f"FAILED {self.workload} seed {self.seed} {op}: {problem}", file=sys.stderr)
        return problem is None

    def check_outputs(self, c: corpus.Corpus, d: Path, rc: int, err: str,
                      exts: tuple[str, ...] = OUTPUTS) -> str | None:
        """None when the run left exactly the outputs the generator predicts."""
        if rc != 0:
            return f"exit code {rc}: {err.strip()[-300:]}"
        if "Traceback" in err:
            return "traceback on stderr"
        files = {}
        for ext in exts:
            p = d / (corpus.BASE + ext)
            if not p.exists():
                return f"{p.name} not written"
            files[ext] = p.read_bytes()
        try:
            text = {ext: data.decode("utf-8") for ext, data in files.items()}
        except UnicodeDecodeError as err:
            return f"output is not UTF-8: {err}"
        text.setdefault(".aux", c.aux)
        text.setdefault(".rendered.txt", c.rendered)
        keys = BIBITEM.findall(text[".bbl"])
        if keys != c.bbl_keys:
            return f"\\bibitem keys differ: {len(keys)} found, {len(c.bbl_keys)} expected"
        if text[".blg"].count("\n") != c.blg_records:
            return f".blg has {text['.blg'].count(chr(10))} records, {c.blg_records} expected"
        for key in c.missing_cites:
            if f"Warning--no database entry for citation `{key}'\n" not in text[".blg"]:
                return f".blg lacks the warning for missing key {key}"
        if text[".aux"] != c.aux:
            return ".aux differs from the expected one"
        if text[".rendered.txt"] != c.rendered:
            return ".rendered.txt differs: some [n] mark is wrong"
        for ext, data in files.items():
            if self.first_outputs.setdefault(ext, data) != data:
                return f"{ext} differs from the first run's bytes"
        return None

    def check_probe(self, c: corpus.Corpus, d: Path, rc: int, data: dict, err: str,
                    expected_rcs: list[int], exts: tuple[str, ...] = OUTPUTS) -> str | None:
        """Check a probe child: it ran, each CLI command exited as expected, outputs are right."""
        if rc != 0 or "rcs" not in data:
            return f"probe exit code {rc}: {err.strip()[-300:]}"
        if data["rcs"] != expected_rcs:
            return f"exit codes {data['rcs']}, expected {expected_rcs}: {err.strip()[-300:]}"
        return self.check_outputs(c, d, 0, err, exts) if exts else None

    def op_pipeline(self, c: corpus.Corpus, d: Path) -> tuple[float | None, float | None]:
        self.reset(c, d)
        rc, wall, rss, _out, err = self.cli(["pipeline", corpus.BASE], d)
        ok = self.record("pipeline", self.check_outputs(c, d, rc, err))
        return (wall, rss) if ok else (None, None)

    def op_bibtex(self, c: corpus.Corpus, d: Path) -> float | None:
        # the rerun after editing the .bib: the converged .aux is in place
        self.reset(c, d)
        (d / f"{corpus.BASE}.aux").write_text(c.aux, encoding="utf-8", newline="")
        rc, wall, _rss, _out, err = self.cli(["bibtex", corpus.BASE], d)
        ok = self.record("bibtex", self.check_outputs(c, d, rc, err, (".bbl", ".blg")))
        return wall if ok else None

    def op_lint(self, c: corpus.Corpus, d: Path) -> float | None:
        rc, wall, _rss, out, err = self.cli(["lint", c.style], d)
        problem = None
        if rc != c.lint_rc:
            problem = f"exit code {rc}, expected {c.lint_rc}: {err.strip()[-300:]}"
        elif "Traceback" in err:
            problem = "traceback on stderr"
        elif set(out.splitlines()) != c.lint_lines:
            problem = "findings differ from the planted ones"
        return wall if self.record("lint", problem) else None

    def op_setup(self, d: Path) -> float | None:
        rc, wall, _rss, out, err = self.spawn(
            [sys.executable, "-c", "import bibstack.cli"], d, "setup")
        problem = None if rc == 0 and not out and not err else f"exit code {rc}: {err.strip()[-300:]}"
        return wall if self.record("setup", problem) else None

    def calibrate(self, kind: str, d: Path) -> float:
        rc, wall, _rss, _out, err = self.spawn(
            [sys.executable, str(HERE / "calibrate.py"), kind], d, "calibrate")
        if rc != 0:
            raise SystemExit(f"calibrate.py {kind} failed: {err.strip()[-300:]}")
        return wall

    def warm_up(self, d: Path) -> None:
        """Compile bytecode into the cache once; not an operation."""
        rc, _wall, _rss, _out, err = self.spawn(
            [sys.executable, "-c", "import bibstack.cli"], d, "warmup")
        if rc != 0:
            raise SystemExit(f"cannot import bibstack from {self.root / 'src'}: {err.strip()}")

    # -- the two kinds of run ---------------------------------------------------

    def run_untraced(self, seconds: float) -> dict:
        c = corpus.build(self.workload, self.seed)
        d = self.dir / "full"
        t_start = time.perf_counter()
        self.write_corpus(c, d)
        self.warm_up(d)
        # every timed operation sits between two runs of its reference
        timeline: list[tuple[str, float | None]] = []
        rss: list[float] = []
        rounds, round_s = 0, 0.0
        t0 = time.perf_counter()
        # closed loop: start a round only if it should end within the run
        while rounds == 0 or time.perf_counter() - t0 + round_s <= seconds:
            t_round = time.perf_counter()
            timeline.append(("cpu", self.calibrate("cpu", d)))
            wall, peak = self.op_pipeline(c, d)
            timeline.append(("pipeline_s", wall))
            _add(rss, peak)
            timeline.append(("cpu", self.calibrate("cpu", d)))
            timeline.append(("bibtex_s", self.op_bibtex(c, d)))
            timeline.append(("cpu", self.calibrate("cpu", d)))
            for _ in range(SHORT_OPS_PER_ROUND):
                timeline.append(("startup", self.calibrate("startup", d)))
                timeline.append(("lint_s", self.op_lint(c, d)))
                timeline.append(("startup", self.calibrate("startup", d)))
                timeline.append(("setup_s", self.op_setup(d)))
            timeline.append(("startup", self.calibrate("startup", d)))
            rounds += 1
            round_s = time.perf_counter() - t_round
        elapsed = time.perf_counter() - t0
        print(f"# {self.workload} seed {self.seed}: {rounds} rounds in {elapsed:.1f} s "
              f"(set-up {t0 - t_start:.2f} s); closed loop, 1 client, one child process at a time")
        print(f"# corpus: {json.dumps(c.sizes)}")
        for kind, nominal in REFERENCE_S.items():
            walls = [w for k, w in timeline if k == kind]
            print(f"# calibrate.py {kind}: median {statistics.median(walls):.4f} s of {len(walls)}; "
                  f"each sample next to it is scaled by {nominal} / mean of its two neighbours")
        metrics = {}
        for name, kind in REFERENCE_OF.items():
            raw = [w for k, w in timeline if k == name and w is not None]
            values = _normalized(timeline, name, kind)
            if values:
                metrics[name] = {"value": statistics.median(values), "unit": "s"}
                print(f"{name:<14} {statistics.median(values):.4f} s    median of {len(values)} "
                      f"(raw {statistics.median(raw):.4f} s); {_tail(values)}")
        if rss:
            metrics["peak_rss_mib"] = {"value": statistics.median(rss), "unit": "MiB"}
            print(f"{'peak_rss_mib':<14} {statistics.median(rss):.4f} MiB  median of {len(rss)}")
        failed = len(self.failures)
        print(f"{'error_rate':<14} {failed / self.attempted:.4f} ratio  "
              f"{failed} failed of {self.attempted} operations")
        return metrics

    def run_traced(self, seconds: float) -> dict:
        t0 = time.perf_counter()
        c = corpus.build(self.workload, self.seed)
        q = corpus.build(self.workload, self.seed, scale=0.25)
        d, dq = self.dir / "full", self.dir / "quarter"
        self.write_corpus(c, d)
        self.write_corpus(q, dq)
        self.warm_up(d)

        # two count-only runs; their counts must agree exactly
        counts = []
        for i in range(2):
            self.reset(c, d)
            rc, _wall, data, err = self.probe(
                ["counts", json.dumps([["pipeline", corpus.BASE], ["lint", c.style]])], d, f"counts{i}")
            if self.record("counted run", self.check_probe(c, d, rc, data, err, [0, c.lint_rc])):
                counts.append(data["counts"])
        if len(counts) == 2 and counts[0] != counts[1]:
            self.record("counts repeat", "the two count-only runs disagree")

        # scale4 timings on the converged .aux of each size
        for corp, dd in ((c, d), (q, dq)):
            self.reset(corp, dd)
            (dd / f"{corpus.BASE}.aux").write_text(corp.aux, encoding="utf-8", newline="")
        rc, _wall, data, err = self.probe(["scale4", str(d), str(dq), c.style], d, "scale4")
        self.record("scale4", None if rc == 0 else f"exit code {rc}: {err.strip()[-300:]}")
        scale4 = data.get("scale4", {})

        # lint traced once; then untraced and traced pipelines in turn.  Span
        # times are scaled like the end-to-end ones, by the `cpu` reference
        # runs just before and after the traced child.
        self.reset(c, d)
        before = self.calibrate("cpu", d)
        rc, _wall, data, err = self.probe(["spans", json.dumps([["lint", c.style]])], d, "spans-lint")
        k = REFERENCE_S["cpu"] / statistics.mean([before, self.calibrate("cpu", d)])
        ok = self.record("traced lint", self.check_probe(c, d, rc, data, err, [c.lint_rc], ()))
        lint = layer_times(data["spans"], k) if ok else {}
        pipelines: list[dict[str, float]] = []
        overheads: list[float] = []  # traced over untraced wall time, pair by pair
        pair_s = 0.0
        while not pipelines or time.perf_counter() - t0 + pair_s <= seconds:
            t_pair = time.perf_counter()
            plain, _rss = self.op_pipeline(c, d)
            self.reset(c, d)
            before = self.calibrate("cpu", d)
            rc, wall, data, err = self.probe(["spans", json.dumps([["pipeline", corpus.BASE]])],
                                             d, "spans-pipeline")
            k = REFERENCE_S["cpu"] / statistics.mean([before, self.calibrate("cpu", d)])
            if self.record("traced pipeline", self.check_probe(c, d, rc, data, err, [0])):
                pipelines.append(layer_times(data["spans"], k))
                if plain is not None:
                    overheads.append(wall / plain - 1)
            elif not pipelines:
                break
            pair_s = time.perf_counter() - t_pair
        return self.layer_metrics(c, counts[0] if counts else [], scale4, pipelines, lint, overheads)

    def layer_metrics(self, c, run_counts, scale4, pipelines, lint, overheads) -> dict:
        """run_counts holds the count-only run's counters: [pipeline, lint]."""
        pipe_counts = run_counts[0] if run_counts else {}
        lint_counts = run_counts[1] if len(run_counts) > 1 else {}

        def med(name):
            values = [p.get(name, 0.0) for p in pipelines]
            return statistics.median(values) if values else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        m: dict[str, tuple[float, str]] = {}
        for name in ("cli.main.s", "cli.self_s", "database.parse_bib.s", "auxfile.parse_aux.s",
                     "auxfile.write_aux.s", "vm.run.s", "vm.self_s", "names.s",
                     "emitter.finalize.s", "latexpass.scan_tex.s", "latexpass.run_pass.s"):
            m[name] = (med(name), "s")
        m["database.parse_bib.mb_per_s"] = (
            ratio(c.sizes["bib_bytes"] / 1e6, m["database.parse_bib.s"][0]), "MB/s")
        m["database.parse_bib.scale4"] = (scale4.get("database.parse_bib.scale4", 0.0), "ratio")
        m["database.entries"] = (pipe_counts.get("database.entries", 0), "count")
        m["auxfile.parse_aux.calls"] = (pipe_counts.get("auxfile.parse_aux.calls", 0), "count")
        m["auxfile.citations"] = (pipe_counts.get("auxfile.citations", 0), "count")
        m["bstparse.parse_bst.s"] = (lint.get("bstparse.parse_bst.s", 0.0), "s")
        m["bstparse.tokens"] = (lint_counts.get("bstparse.tokens", 0), "count")
        m["bstparse.tokens_per_s"] = (
            ratio(m["bstparse.tokens"][0], m["bstparse.parse_bst.s"][0]), "1/s")
        m["vm.run.scale4"] = (scale4.get("vm.run.scale4", 0.0), "ratio")
        m["vm.tokens"] = (pipe_counts.get("vm.tokens", 0), "count")
        m["vm.tokens_per_s"] = (ratio(m["vm.tokens"][0], m["vm.run.s"][0]), "1/s")
        m["vm.function_calls"] = (pipe_counts.get("vm.function_calls", 0), "count")
        m["vm.entries"] = (pipe_counts.get("vm.entries", 0), "count")
        for builtin, label in BUILTIN_LABELS.items():
            m[f"vm.calls.{label}"] = (pipe_counts.get(f"vm.calls.{builtin}", 0), "count")
        for name in ("names.split_names.calls", "names.format_name.calls",
                     "names.count_names.calls", "emitter.bbl_bytes", "emitter.bbl_lines",
                     "emitter.blg_records", "latexpass.scan_tex.calls",
                     "latexpass.run_pass.calls", "latexpass.cites"):
            m[name] = (pipe_counts.get(name, 0), "bytes" if name.endswith("_bytes") else "count")
        m["names.repeat_share"] = (ratio(pipe_counts.get("names.split_names.repeats", 0),
                                         pipe_counts.get("names.split_names.calls", 0)), "ratio")
        m["latexpass.scan_tex.scale4"] = (scale4.get("latexpass.scan_tex.scale4", 0.0), "ratio")
        m["lint.lint_program.s"] = (lint.get("lint.lint_program.s", 0.0), "s")
        m["lint.findings"] = (lint_counts.get("lint.findings", 0), "count")
        m["trace.overhead"] = (statistics.median(overheads) if overheads else 0.0, "ratio")
        print(f"# {self.workload} seed {self.seed}: {len(pipelines)} traced pipelines, each after "
              f"an untraced one; 2 count-only runs; 1 traced lint; corpus {json.dumps(c.sizes)}")
        for name, (value, unit) in m.items():
            print(f"{name:<30} {value:.6g} {unit}")
        return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def layer_times(spans: list[list], scale: float) -> dict[str, float]:
    """Total seconds per span name, plus the self times of cli.main and vm.run,
    each multiplied by `scale`.

    Self time is a span's duration minus the time its child spans cover;
    one thread runs them, so children never overlap and their durations add.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _run in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    for i, (name, start, end, parent, _run) in enumerate(spans):
        dur = end - start
        totals[name + ".s"] = totals.get(name + ".s", 0.0) + dur
        if name == "cli.main":
            totals["cli.self_s"] = totals.get("cli.self_s", 0.0) + dur - child_time[i]
        elif name == "vm.run":
            totals["vm.self_s"] = totals.get("vm.self_s", 0.0) + dur - child_time[i]
        if name.startswith("names.") and not (parent >= 0 and spans[parent][0].startswith("names.")):
            totals["names.s"] = totals.get("names.s", 0.0) + dur
    return {name: t * scale for name, t in totals.items()}


def _normalized(timeline: list[tuple[str, float | None]], name: str, kind: str) -> list[float]:
    """Each sample of `name` scaled by REFERENCE_S[kind] / the mean of the `kind`
    reference runs right before and after it."""
    out = []
    for i, (k, wall) in enumerate(timeline):
        if k == name and wall is not None:
            around = [timeline[j][1] for j in (i - 1, i + 1)
                      if 0 <= j < len(timeline) and timeline[j][0] == kind]
            out.append(wall * REFERENCE_S[kind] / statistics.mean(around))
    return out


def _add(values: list[float], value: float | None) -> None:
    if value is not None:
        values.append(value)


def _tail(values: list[float]) -> str:
    """The highest listed percentile with at least 10 samples above it."""
    n = len(values)
    ordered = sorted(values)
    for p in (99.9, 99, 95, 90, 75, 50):
        beyond = n - math.ceil(p / 100 * n)
        if beyond >= 10:
            return f"p{p:g} {ordered[n - beyond - 1]:.4f} ({beyond} of {n} samples beyond it)"
    return f"no percentile has 10 samples beyond it with {n} samples"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "bibstack" / "cli.py").is_file():
        print(f"error: {root} is not a bibstack checkout (no src/bibstack/cli.py)", file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed)
    if args.trace:
        metrics = bench.run_traced(args.seconds)
    else:
        metrics = bench.run_untraced(args.seconds)
    failed = len(bench.failures)
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
