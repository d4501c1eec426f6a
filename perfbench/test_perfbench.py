"""Self-test for the benchmark, at sizes that run in seconds:

    python3 -m pytest perfbench -q

It runs every workload end to end through run.py, untraced and traced,
and shows that each correctness check rejects a deliberately wrong
output.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
from checks import Adjacency, Ledger  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.1", "--trace", str(trace), "--size", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results() -> dict:
    return {w: (last_json(run_bench(w, 0)), last_json(run_bench(w, 1))) for w in WORKLOADS}


def test_spec_names_the_two_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_is_correct_and_reports_every_metric(results, workload):
    untraced, traced = results[workload]
    for result in (untraced, traced):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(untraced["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in untraced["metrics"].values())
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]


def test_layer_counts_repeat(results):
    layers = results["pipeline-50k"][1]["metrics"]
    assert layers["corpus.parse_corpus.calls"]["value"] == 6
    assert layers["graph.build_graph.calls"]["value"] == 4
    http = results["classify-http-10k"][1]["metrics"]
    assert http["classify.cache_hit_ratio"]["value"] == 1.0
    assert http["classify.requests"]["value"] == (http["classify.papers"]["value"]
                                                  + http["classify.retries"]["value"])


def test_every_layer_metric_is_measured_somewhere(results):
    for metric in SPEC["per_layer"]:
        assert any(results[w][1]["metrics"][metric["name"]]["value"] for w in WORKLOADS), metric


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("pipeline-50k", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- each check rejects a wrong output --------------------------------

def small(workload: str, tmp_path: Path):
    wl = WORKLOADS[workload](tmp_path / "work", tmp_path / "store", 4, "small")
    wl.work.mkdir(parents=True)
    wl.setup()
    return wl


def failures(wl, mains, reruns) -> list[str]:
    ledger = Ledger()
    wl.check(ledger, mains, reruns)
    return ledger.notes


def rewrite_csv(path: Path, edit) -> None:
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with path.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_pipeline_checks_reject_wrong_outputs(tmp_path):
    wl = small("pipeline-50k", tmp_path)
    main, rerun = wl.main(False, ""), wl.rerun(False, "")
    assert failures(wl, [main], [rerun]) == []
    out = wl.work / "out"

    def bump_n_b(rows):
        for row in rows[1:]:
            row[3] = str(int(row[3]) + 1)

    rewrite_csv(out / "disruption.csv", bump_n_b)
    notes = failures(wl, [main], [rerun])
    assert any("oracle" in n for n in notes)
    assert any("n_f + n_b differs" in n for n in notes)
    assert any("disruption.csv of run 1 byte-identical" in n for n in notes)
    assert any("disruption.csv digest" in n for n in notes)

    def flip_label(rows):
        rows[1][1] = "Empirical" if rows[1][1] == "Conceptual" else "Conceptual"

    rewrite_csv(out / "classifications.csv", flip_label)
    assert any("labels against gold" in n for n in failures(wl, [main], [rerun]))

    (out / "report.txt").write_text("changed\n", encoding="utf-8")
    assert any("report.txt byte-identical" in n for n in failures(wl, [main], [rerun]))


def test_classify_checks_reject_wrong_labels_and_counts(tmp_path):
    wl = small("classify-http-10k", tmp_path)
    try:
        main, rerun = wl.main(False, ""), wl.rerun(False, "")
        assert failures(wl, [main], [rerun]) == []
        row = main.data["rows"][0]
        row["label"] = "Other"
        rerun[0].data["backend"]["requests"] += 1
        rerun[0].data["rows"][0]["source"] = "error"
        notes = failures(wl, [main], [rerun])
    finally:
        wl.close()
    assert any("cold labels against stub_backend" in n for n in notes)
    assert any("warm pass requests" in n for n in notes)
    assert any("papers with source error" in n for n in notes)


def test_partition_check_rejects_a_perturbed_count():
    adjacency = Adjacency({"F": ["R"]}, {"F": ["A", "B"], "R": ["F", "B", "C"]})
    # A cites F only; B cites F and R; C cites R only.
    right = {"F": [(1, 1, 1, 0.0)]}
    ledger = Ledger()
    checks.check_partitions(ledger, adjacency, right, [1], "ref_indegree")
    assert ledger.total_failed == 0
    checks.check_partitions(ledger, adjacency, {"F": [(1, 2, 1, 0.0)]}, [1], "ref_indegree")
    checks.check_partitions(ledger, adjacency, {"F": [(1, 1, 1, 0.5)]}, [1], "ref_indegree")
    assert ledger.total_failed == 2


def test_digest_check_compares_runs_of_one_seed(tmp_path):
    store = tmp_path / "d.json"
    ledger = Ledger()
    assert not checks.check_digests(ledger, store, {"a.csv": "1"})
    assert checks.check_digests(ledger, store, {"a.csv": "1"})
    assert ledger.total_failed == 0
    checks.check_digests(ledger, store, {"a.csv": "2"})
    assert ledger.total_failed == 1
