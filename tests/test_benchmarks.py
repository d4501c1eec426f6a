"""Smoke tests that keep the benchmark scripts runnable."""

import importlib.util
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_disruption_runs(capsys):
    load_script("bench_disruption").main(["--n-nodes", "2000", "--repeat", "1"])
    out = capsys.readouterr().out
    assert "graph: 2000 nodes" in out
    assert "sparse" in out
