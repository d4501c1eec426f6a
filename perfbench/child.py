"""Runs one timed section of a benchmark workload in a fresh process.

    python3 perfbench/child.py --result R.json [--cpu N] [--trace ...] cli <disruptkit args>

``cli`` runs ``disruptkit.cli.main`` on the given arguments, exactly as
the ``disruptkit`` command would. ``--cpu`` pins the process to one CPU
before anything else runs. With ``--trace`` the layer wrappers from
tracing.py are installed first. The result file holds the exit code,
CPU time, peak RSS and, when traced, spans.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--cpu", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--run-id", default="")
    parser.add_argument("--watch", type=Path, default=Path.cwd())
    parser.add_argument("section", choices=("cli",))
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer(args.run_id, args.watch)
        tracer.install()
    result: dict = {}
    try:
        from disruptkit.cli import main as cli_main
        result["rc"] = cli_main(args.rest)
    finally:
        if tracer is not None:
            tracer.uninstall()
            result["spans"] = tracer.spans
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result["cpu_s"] = usage.ru_utime + usage.ru_stime
        result["maxrss_mb"] = usage.ru_maxrss / 1024.0
        args.result.write_text(json.dumps(result), encoding="utf-8")
    return result.get("rc", 1)


if __name__ == "__main__":
    sys.exit(main())
