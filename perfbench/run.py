"""The disruptkit benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload pipeline-50k --seed 7 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the program from
``src/`` and keeps its scratch files under ``.bench_work/``. The set-up
builds the workload's inputs from ``--seed``. The main timed section
then repeats until it has measured ``--seconds`` seconds, at least as
often as the workload asks, and every output is checked. The last line
of standard output is one JSON object: with ``--trace 0`` it holds the
end-to-end metrics named in BENCHMARK.json (medians over the repeats),
with ``--trace 1`` the per-layer metrics from a traced run. The lines
before it repeat every metric with its unit, the host facts, the wall
time of each repeat, and each failed check.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import sys
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"


def host_facts() -> dict:
    import numpy
    import scipy

    from disruptkit import _kernels, disruption

    kernel = disruption.partition_counts
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numba_enabled": bool(getattr(_kernels, "NUMBA_ENABLED", False)),
        "partition_counts": f"{getattr(kernel, '__module__', '?')}."
                            f"{getattr(kernel, '__name__', repr(kernel))}",
    }


def measure(wl, ledger, seconds: float) -> dict[str, float]:
    """Untraced: repeat the main section, each time followed by its
    reruns, until `seconds` of wall_s are measured and at least as often
    as the workload asks. End-to-end metrics are medians over the
    repeats."""
    mains, reruns = [], []
    while len(mains) < wl.min_repeats or sum(m.wall_s for m in mains) < seconds:
        main = wl.main(False, "")
        mains.append(main)
        if main.rc != 0:
            break
        units = [wl.rerun(False, "") for _ in range(wl.rerun_repeats)]
        reruns.extend(units)
        if any(s.rc != 0 for u in units for s in u):
            break
    wl.check(ledger, mains, reruns)
    done = [m for m in mains if m.rc == 0]
    if not done or not reruns or any(s.rc != 0 for u in reruns for s in u):
        raise RuntimeError("a timed section failed; no metric could be measured")
    metrics = wl.end_to_end(done, reruns)
    metrics["wall_s_samples"] = [m.wall_s for m in done]
    metrics["rerun_s_samples"] = [sum(s.wall_s for s in u) for u in reruns]
    return metrics


def traced(wl, ledger, run_id: str) -> dict[str, float]:
    """One untraced main section, the overhead baseline, then one traced
    main + rerun."""
    baseline = wl.main(False, run_id)
    main = wl.main(True, run_id)
    rerun = wl.rerun(True, run_id)
    wl.check(ledger, [baseline, main], [rerun])
    with (wl.work / "trace.jsonl").open("w", encoding="utf-8") as fh:
        for section in [main] + rerun:
            for span in section.spans:
                fh.write(json.dumps(span) + "\n")
    layers = wl.layers(main, rerun)
    layers["trace.wall_s"] = main.wall_s
    layers["trace.overhead_s"] = layers["trace.wall_s"] - baseline.wall_s
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small runs each workload in seconds, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "disruptkit" / "__init__.py").is_file():
        print(f"error: no disruptkit sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    from checks import Ledger
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    work = WORK / args.workload
    store = WORK / "store"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    store.mkdir(parents=True, exist_ok=True)

    wl = WORKLOADS[args.workload](work, store, args.seed, args.size)
    ledger = Ledger()
    try:
        setup_s = wl.setup()
        if args.trace:
            values = traced(wl, ledger, uuid.uuid4().hex)
            wanted = spec["per_layer"]
        else:
            values = measure(wl, ledger, args.seconds)
            wanted = spec["end_to_end"]
        values["setup_s"] = setup_s
    finally:
        wl.close()

    # A layer that a workload never calls has no spans and reads 0.
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    host = host_facts()
    shares = ledger.shares()
    samples = values.get("wall_s_samples", [values.get("trace.wall_s")])
    rerun_samples = values.get("rerun_s_samples", [])
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} size {args.size}"
          f" repeats {len(samples)}")
    print("host " + json.dumps(host, sort_keys=True))
    print("wall_s of each repeat " + " ".join(f"{w:.3f}" for w in samples))
    if rerun_samples:
        print("rerun_s of each rerun " + " ".join(f"{w:.3f}" for w in rerun_samples))
    if "setup_s" not in metrics:
        print(f"setup_s {values['setup_s']} s")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(f"failed_share {shares['all']:.6f} ({ledger.total_failed} of {ledger.total_attempted}; "
          + ", ".join(f"{c} {ledger.failed[c]}/{ledger.attempted[c]}" for c in ledger.attempted)
          + ")")
    for note in ledger.notes:
        print(f"FAILED {note}")
    result = {"correct": ledger.total_failed == 0, "attempted": ledger.total_attempted,
              "failed": ledger.total_failed, "metrics": metrics}
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "host": host, "failed_share": shares, "wall_s_samples": samples,
                    "rerun_s_samples": rerun_samples, "notes": ledger.notes},
                   indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
