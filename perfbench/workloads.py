"""The two benchmark workloads. README.md says why each exists.

A workload sets up its inputs from the seed, runs a main timed section
and a rerun section in fresh child processes (child.py), checks every
output against an independent expectation, and turns what it measured
into end-to-end and per-layer metrics.
"""

from __future__ import annotations

import csv
import functools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing
from checks import Adjacency, Ledger

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170.0
THRESHOLDS = (1, 2, 3, 5)
ORACLE_SAMPLE = 24
# The README's run.conf; the classify-http workload swaps the stub for
# the fake backend.
RUN_CONF = """\
corpus = corpus.jsonl
out_dir = out
min_out_links = 11
min_in_links = 6
thresholds = 1,2,3,5
model_thresholds = 2,3,5
mode = ref_indegree
n_jobs = 1
"""


@dataclass
class Section:
    """One child process: wall time from spawn to exit, its rusage, and
    what it wrote to its result file."""

    wall_s: float
    cpu_s: float
    maxrss_mb: float
    rc: int
    data: dict = field(default_factory=dict)

    @property
    def spans(self) -> list[dict]:
        return self.data.get("spans", [])


def run_child(work: Path, tag: str, section_args: list[str], trace: bool,
              run_id: str, env: dict | None = None, cpu: int | None = None) -> Section:
    result = work / f"{tag}.result.json"
    log = work / f"{tag}.log"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--result", str(result)]
    if cpu is not None:
        cmd += ["--cpu", str(cpu)]
    if trace:
        cmd += ["--trace", "--run-id", run_id, "--watch", str(work)]
    cmd += section_args
    with log.open("wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=work, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=subprocess.STDOUT, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    data = json.loads(result.read_text(encoding="utf-8")) if result.exists() else {}
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        print(f"child {tag} exited with {proc.returncode}:\n{tail}", file=sys.stderr)
    return Section(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                   maxrss_mb=usage.ru_maxrss / 1024.0, rc=proc.returncode, data=data)


def span_layers(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics that come straight from spans."""
    totals = tracing.totals(spans)
    out: dict[str, float] = {}
    for name, (calls, secs) in totals.items():
        out[f"{name}.s"] = secs
        out[f"{name}.calls"] = calls
    for s in spans:
        if s["name"] == "disruption.disruption_batch" and s.get("mode"):
            key = f"disruption.disruption_batch.s.{s['mode']}"
            out[key] = out.get(key, 0.0) + s["end"] - s["start"]
    read = written = 0
    for stage, entry in tracing.stage_summary(spans).items():
        out[f"pipeline.{stage}.s"] = entry["s"]
        out[f"pipeline.{stage}.self_s"] = entry["self_s"]
        out[f"pipeline.{stage}.peak_rss_mb"] = entry["peak_rss_mb"]
        read += entry["bytes_read"]
        written += entry["bytes_written"]
    out["pipeline.bytes_read"] = read
    out["pipeline.bytes_written"] = written
    out["regress.rows"] = sum(s.get("n", 0) for s in spans
                              if s["name"] == "regress.build_observation_rows")
    out["classify.papers"] = sum(s.get("n", 0) for s in spans
                                 if s["name"] == "classify.classify_batch")
    out["trace.spans"] = len(spans)
    return out


def kernel_rate(layers: dict, ops: int) -> float:
    kernel_s = layers.get("disruption.partition_counts.s", 0.0)
    return ops / kernel_s if kernel_s else 0.0


def _read_csv(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _score_rows(rows: list[dict], wanted: set[str]) -> dict[str, list[tuple]]:
    got: dict[str, list[tuple]] = {}
    for r in rows:
        if r["id"] in wanted:
            d = None if r["d"] == "NA" else float(r["d"])
            got.setdefault(r["id"], []).append(
                (int(r["n_f"]), int(r["n_b"]), int(r["n_r"]), d))
    return got


class Workload:
    name = ""
    sizes = {"full": 0, "small": 0}
    # An untraced run repeats the main section at least min_repeats
    # times, and follows each with rerun_repeats reruns.
    min_repeats = 1
    rerun_repeats = 1

    def __init__(self, work: Path, store: Path, seed: int, size: str):
        self.work = work
        self.store = store
        self.seed = seed
        self.size = size
        self.n = self.sizes[size]
        self.rng = random.Random(seed)

    def setup(self) -> float:
        raise NotImplementedError

    def main(self, trace: bool, run_id: str) -> Section:
        raise NotImplementedError

    def rerun(self, trace: bool, run_id: str) -> list[Section]:
        """One rerun: the child processes it takes, in order."""
        raise NotImplementedError

    def papers(self, main: Section) -> int:
        """Focal papers one main section completed."""
        raise NotImplementedError

    def end_to_end(self, mains: list[Section], reruns: list[list[Section]]) -> dict[str, float]:
        """Medians over the main sections and over the reruns."""
        median = statistics.median
        return {"wall_s": median(m.wall_s for m in mains),
                "papers_per_s": median(self.papers(m) / m.wall_s for m in mains),
                "rerun_s": median(sum(s.wall_s for s in u) for u in reruns),
                "peak_rss_mb": median(m.maxrss_mb for m in mains)}

    def check(self, ledger: Ledger, mains: list[Section], reruns: list[list[Section]]) -> None:
        raise NotImplementedError

    def layers(self, main: Section, rerun: list[Section]) -> dict[str, float]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def _cli(self, tag: str, argv: list[str], trace: bool, run_id: str,
             env: dict | None = None, cpu: int | None = None) -> Section:
        return run_child(self.work, tag, ["cli"] + argv, trace, run_id, env, cpu)

    def _record_stage_runs(self, ledger: Ledger, sections: list[Section], stages: int,
                           what: str) -> None:
        for s in sections:
            ledger.record("stages", stages, 0 if s.rc == 0 else stages,
                          f"{what} exited with {s.rc}")


class PipelineWorkload(Workload):
    """synth 50k papers, `disruptkit run` with the stub, then rerun
    `regress` and `report` on the finished artifacts."""

    name = "pipeline-50k"
    sizes = {"full": 50000, "small": 600}
    # A run + rerun cycle takes about 35 s, and the host's speed drifts
    # by a quarter over tens of seconds: two cycles spread both timings
    # over the minute a benchmark run takes.
    min_repeats = 2
    DIGEST_FILES = ("disruption.csv", "classifications.csv", "regression.csv")
    RERUN_FILES = ("regression.csv", "citations_models.txt", "disruption_models.txt",
                   "report.txt", "manifest.json")

    def setup(self) -> float:
        from disruptkit.synth import synth_corpus

        start = time.perf_counter()
        synth_corpus(self.n, seed=self.seed, effect=1.0, path=self.work / "corpus.jsonl")
        (self.work / "run.conf").write_text(RUN_CONF + "stub = true\n", encoding="utf-8")
        return time.perf_counter() - start

    def main(self, trace, run_id):
        shutil.rmtree(self.work / "out", ignore_errors=True)
        section = self._cli("run", ["run", "--config", "run.conf"], trace, run_id)
        if section.rc == 0:
            section.data["digests"] = self.digests()
        return section

    def digests(self) -> dict[str, str]:
        return checks.file_digests([self.work / "out" / f for f in self.DIGEST_FILES])

    def rerun(self, trace, run_id):
        out = self.work / "out"
        self.before_rerun = checks.file_digests([out / f for f in self.RERUN_FILES])
        return [self._cli(stage, [stage, "--config", "run.conf"], trace, run_id)
                for stage in ("regress", "report")]

    def eligible(self) -> list[str]:
        text = (self.work / "out" / "eligible.txt").read_text(encoding="utf-8")
        return text.split()

    @functools.cached_property
    def corpus(self) -> tuple[Adjacency, dict[str, dict]]:
        """The input corpus as an independent adjacency, plus its records."""
        return Adjacency.from_corpus_file(self.work / "corpus.jsonl")

    def papers(self, main):
        return len(self.eligible())

    def check(self, ledger, mains, reruns):
        self._record_stage_runs(ledger, mains, 6, "disruptkit run")
        for rerun in reruns:
            self._record_stage_runs(ledger, rerun, 1, "stage rerun")
        out = self.work / "out"
        eligible = self.eligible()
        adjacency, records = self.corpus

        classified = _read_csv(out / "classifications.csv")
        checks.check_sources(ledger, "stub classify",
                             {r["id"]: r["source"] for r in classified}, "stub")
        checks.check_labels(ledger, "stub labels against gold",
                            {r["id"]: r["label"] for r in classified},
                            {pid: records[pid]["gold_label"] for pid in eligible})

        scores = _read_csv(out / "disruption.csv")
        checks.check_equal(ledger, "disruption.csv ids and thresholds",
                           [(r["id"], int(r["l"])) for r in scores],
                           [(pid, l) for pid in eligible for l in THRESHOLDS])
        checks.check_citer_identity(
            ledger, "ref_indegree",
            [int(r["n_f"]) + int(r["n_b"]) for r in scores],
            [len(adjacency.citers_of[pid]) for pid in eligible for _ in THRESHOLDS])
        sample = set(self.rng.sample(eligible, min(ORACLE_SAMPLE, len(eligible))))
        checks.check_partitions(ledger, adjacency, _score_rows(scores, sample),
                                THRESHOLDS, "ref_indegree")

        after = checks.file_digests([out / f for f in self.RERUN_FILES])
        for name in self.RERUN_FILES:
            checks.check_equal(ledger, f"{name} byte-identical after the rerun",
                               after[name], self.before_rerun[name])
        final = self.digests()
        for i, main in enumerate(m for m in mains if "digests" in m.data):
            for name in self.DIGEST_FILES:
                checks.check_equal(ledger, f"{name} of run {i + 1} byte-identical to the last",
                                   main.data["digests"][name], final[name])
        checks.check_digests(
            ledger, self.store / f"{self.name}-seed{self.seed}-{self.size}.digests.json", final)

    def layers(self, main, rerun):
        out = span_layers(main.spans)
        eligible = self.eligible()
        out["disruption.focals"] = len(eligible)
        out["disruption.kernel.ops"] = self.corpus[0].two_hop_scans(eligible)
        out["disruption.kernel.ops_per_s"] = kernel_rate(out, out["disruption.kernel.ops"])
        out["process.cpu_s"] = main.cpu_s
        return out


class ClassifyHttpWorkload(Workload):
    """The HTTP classify stage against a fake backend process: a cold
    pass from an empty cache, then a warm pass served from it."""

    name = "classify-http-10k"
    sizes = {"full": 10000, "small": 400}
    # A warm pass takes about 2 s, where host noise alone moves single
    # readings by a quarter.
    rerun_repeats = 4
    MODEL = "bench-chat"
    API_KEY_ENV = "DISRUPTKIT_API_KEY"

    def setup(self) -> float:
        from disruptkit.pipeline import load_config, stage_graph, stage_ingest
        from disruptkit.synth import synth_corpus

        start = time.perf_counter()
        synth_corpus(self.n, seed=self.seed, effect=1.0, path=self.work / "corpus.jsonl")
        # The cold pass and the backend pass each request back and forth
        # several times, so both run on one CPU. Spread over two CPUs of
        # a shared host, each hand-off waits whenever the host has the
        # other CPU busy: side by side, unpinned cold passes took 25-45 s
        # and pinned ones 21-37 s. The warm pass talks to no backend and
        # is left to the scheduler.
        self.cpu = max(os.sched_getaffinity(0))
        self.backend = subprocess.Popen(
            [sys.executable, str(HERE / "fakechat.py"), "--cpu", str(self.cpu)], cwd=self.work,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        port = int(self.backend.stdout.readline())
        self.url = f"http://127.0.0.1:{port}"
        (self.work / "run.conf").write_text(
            RUN_CONF + "stub = false\n"
            f"endpoint = {self.url}/v1/chat/completions\n"
            f"model = {self.MODEL}\n"
            "cache = cache.jsonl\n"
            "max_in_flight = 2\n"
            "retries = 3\n"
            "backoff_base = 0.01\n"
            "timeout = 30\n",
            encoding="utf-8")
        config = load_config(self.work / "run.conf", overrides={
            "corpus": self.work / "corpus.jsonl", "out_dir": self.work / "out"})
        stage_ingest(config)
        stage_graph(config)
        return time.perf_counter() - start

    def _backend(self, path: str, method: str = "GET") -> dict:
        req = urllib.request.Request(self.url + path, method=method,
                                     data=b"{}" if method == "POST" else None)
        with urllib.request.urlopen(req, timeout=30) as resp:
            return json.loads(resp.read())

    def _pass(self, tag: str, trace: bool, run_id: str, cpu: int | None = None) -> Section:
        self._backend("/reset", "POST")
        env = dict(os.environ, **{self.API_KEY_ENV: "bench-key"})
        section = self._cli(tag, ["classify", "--config", "run.conf"], trace, run_id, env, cpu)
        section.data["backend"] = self._backend("/stats")
        out = self.work / "out" / "classifications.csv"
        section.data["rows"] = _read_csv(out) if out.exists() else []
        return section

    def main(self, trace, run_id):
        (self.work / "cache.jsonl").write_text("", encoding="utf-8")
        (self.work / "out" / "classifications.csv").unlink(missing_ok=True)
        section = self._pass("cold", trace, run_id, self.cpu)
        self.cache_bytes = (self.work / "cache.jsonl").stat().st_size
        return section

    def rerun(self, trace, run_id):
        return [self._pass("warm", trace, run_id)]

    def papers(self, main):
        return len(main.data["rows"])

    def expected(self) -> tuple[dict[str, str], int]:
        """Stub labels and the number of injected 503s, from the corpus."""
        from disruptkit.classify import parse_response, render_prompt, stub_backend
        from fakechat import fails_first

        eligible = (self.work / "out" / "eligible.txt").read_text(encoding="utf-8").split()
        wanted = set(eligible)
        labels, injected = {}, 0
        with (self.work / "corpus.jsonl").open(encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                if rec["id"] in wanted:
                    prompt = render_prompt(rec["title"], rec["abstract"])
                    labels[rec["id"]] = parse_response(stub_backend(prompt))[0]
                    injected += fails_first(prompt)
        return labels, injected

    def check(self, ledger, mains, reruns):
        labels, injected = self.expected()
        passes = [("cold", m, "backend") for m in mains]
        passes += [("warm", r[0], "cache") for r in reruns]
        for tag, section, source in passes:
            ledger.record("stages", 1, 0 if section.rc == 0 else 1,
                          f"{tag} classify exited with {section.rc}")
            rows = section.data["rows"]
            checks.check_sources(ledger, f"{tag} pass",
                                 {r["id"]: r["source"] for r in rows}, source)
            checks.check_labels(ledger, f"{tag} labels against stub_backend",
                                {r["id"]: r["label"] for r in rows}, labels)
            stats = section.data["backend"]
            checks.check_equal(ledger, f"{tag} pass injected 503s", stats["injected"],
                               injected if tag == "cold" else 0)
            checks.check_equal(ledger, f"{tag} pass requests", stats["requests"],
                               len(labels) + injected if tag == "cold" else 0)
            ledger.check(stats["max_in_flight"] <= 2,
                         f"{tag} pass: {stats['max_in_flight']} requests in flight, limit 2")

    def layers(self, main, rerun):
        out = span_layers(main.spans)
        warm = rerun[0]
        stats = main.data["backend"]
        out["classify.requests"] = stats["requests"]
        out["classify.retries"] = stats["injected"]
        out["classify.requests_per_s"] = (stats["requests"] / stats["window_s"]
                                          if stats["window_s"] else 0.0)
        out["classify.backend_busy_s"] = stats["busy_s"]
        out["classify.max_in_flight_seen"] = stats["max_in_flight"]
        warm_spans = span_layers(warm.spans)
        gets = [s for s in warm.spans if s["name"] == "classify.cache_get"]
        out["classify.cache_load_s"] = warm_spans.get("classify.cache_load.s", 0.0)
        out["classify.cache_get_s"] = warm_spans.get("classify.cache_get.s", 0.0)
        out["classify.cache_put_s"] = out.get("classify.cache_put.s", 0.0)
        out["classify.cache_hit_ratio"] = (sum(s.get("hit", False) for s in gets) / len(gets)
                                           if gets else 0.0)
        out["classify.cache_bytes"] = self.cache_bytes
        out["classify.warm.classify_batch.s"] = warm_spans.get("classify.classify_batch.s", 0.0)
        out["process.cpu_s"] = main.cpu_s
        return out

    def close(self) -> None:
        backend = getattr(self, "backend", None)
        if backend is None:
            return
        backend.stdin.close()
        try:
            backend.wait(timeout=15)
        except subprocess.TimeoutExpired:
            backend.kill()
            backend.wait()
        backend.stdout.close()


WORKLOADS = {w.name: w for w in (PipelineWorkload, ClassifyHttpWorkload)}
