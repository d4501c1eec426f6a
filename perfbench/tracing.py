"""Span recording for the traced benchmark runs.

A traced child process wraps the names that ``disruptkit.pipeline`` and
``disruptkit.disruption`` bind, the stage table, and the response-cache
methods, so every call into a layer's public functions leaves a span:
name, start, end, parent span and run id. Nothing under ``src/`` is
edited; the wrappers replace module attributes in the child only.
Spans stay in memory and are written out once, when the child ends.
"""

from __future__ import annotations

import builtins
import functools
import inspect
import io
import itertools
import os
import resource
import threading
import time
from pathlib import Path

# Names bound in disruptkit.pipeline -> span name (layer.function).
PIPELINE_NAMES = {
    "parse_corpus": "corpus.parse_corpus",
    "write_corpus": "corpus.write_corpus",
    "eligible_ids": "corpus.eligible_ids",
    "build_graph": "graph.build_graph",
    "write_edges": "graph.write_edges",
    "classify_batch": "classify.classify_batch",
    "disruption_batch": "disruption.disruption_batch",
    "write_scores": "disruption.write_scores",
    "read_scores": "disruption.read_scores",
    "read_classifications": "pipeline.read_classifications",
    "_write_classifications": "pipeline.write_classifications",
    "build_observation_rows": "regress.build_observation_rows",
    "fit_model": "regress.fit_model",
    "emit_table": "regress.emit_table",
    "write_results_csv": "regress.write_results_csv",
}

# Names bound in disruptkit.disruption -> span name. partition_counts is
# the kernel binding chosen at import time (numba or numpy).
DISRUPTION_NAMES = {
    "partition_counts": "disruption.partition_counts",
    "disruption_batch": "disruption.disruption_batch",
}

# ResponseCache methods -> span name; __init__ is where the file loads.
CACHE_METHODS = {
    "__init__": "classify.cache_load",
    "get": "classify.cache_get",
    "put": "classify.cache_put",
}

STAGES = ("ingest", "graph", "classify", "disrupt", "regress", "report")


def _sized(value) -> int | None:
    try:
        return len(value)
    except TypeError:
        return None


class Tracer:
    """In-memory span store for one traced process.

    ``watch_dir`` bounds which files count toward a stage's bytes read:
    only files under it (the workload's inputs and artifacts) are sized.
    """

    def __init__(self, run_id: str, watch_dir: Path):
        self.run_id = run_id
        self.watch_dir = os.path.realpath(watch_dir)
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._stage: dict | None = None
        self._originals: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # A worker thread's first span hangs under whatever the main
        # thread is inside, e.g. cache puts under classify_batch.
        try:
            return self._main_stack[-1]
        except IndexError:
            return None

    def call(self, name: str, fn, args, kwargs, attrs_fn=None):
        stack = self._stack()
        span_id = next(self._ids)
        span = {"id": span_id, "parent": self._parent(stack), "name": name,
                "run": self.run_id}
        stack.append(span_id)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if attrs_fn is not None:
            span.update(attrs_fn(args, kwargs, result))
        return result

    def wrap(self, name: str, fn, attrs_fn=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs_fn)
        return traced

    # -- installation ------------------------------------------------

    def _replace(self, owner, attr: str, value) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import disruptkit.disruption as disruption
        import disruptkit.pipeline as pipeline
        from disruptkit.classify import ResponseCache

        for module, names in ((pipeline, PIPELINE_NAMES),
                              (disruption, DISRUPTION_NAMES)):
            for attr, name in names.items():
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                attrs_fn = _batch_attrs(fn) if attr == "disruption_batch" else _size_attrs
                self._replace(module, attr, self.wrap(name, fn, attrs_fn))
        for attr, name in CACHE_METHODS.items():
            attrs_fn = _hit_attrs if attr == "get" else None
            self._replace(ResponseCache, attr,
                          self.wrap(name, getattr(ResponseCache, attr), attrs_fn))
        table = getattr(pipeline, "STAGE_FUNCTIONS", {})
        for stage in STAGES:
            if stage in table:
                self._originals.append((table, stage, table[stage]))
                table[stage] = self._stage_wrapper(stage, table[stage])
        opener = self._open_wrapper(builtins.open)
        self._replace(builtins, "open", opener)
        self._replace(io, "open", opener)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._originals):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._originals.clear()

    def _stage_wrapper(self, stage: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(config, *args, **kwargs):
            attrs = {"stage": stage, "bytes_read": 0}
            tracer._stage = attrs
            try:
                return tracer.call(f"pipeline.{stage}", fn, (config,) + args,
                                   kwargs, lambda a, k, r: {**attrs, **_stage_attrs(config, r)})
            finally:
                tracer._stage = None

        return traced

    def _open_wrapper(self, real_open):
        tracer = self

        @functools.wraps(real_open)
        def traced_open(file, mode="r", *args, **kwargs):
            stage = tracer._stage
            if (stage is not None and isinstance(file, (str, os.PathLike))
                    and not any(c in mode for c in "wax+")):
                path = os.path.realpath(file)
                if path.startswith(tracer.watch_dir + os.sep):
                    stage["bytes_read"] += _file_size(path)
            return real_open(file, mode, *args, **kwargs)

        return traced_open


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _size_attrs(args, kwargs, result) -> dict:
    n = _sized(result)
    return {} if n is None else {"n": n}


def _hit_attrs(args, kwargs, result) -> dict:
    return {"hit": result is not None}


def _batch_attrs(fn):
    signature = inspect.signature(fn)

    def attrs(args, kwargs, result) -> dict:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"mode": bound.arguments.get("mode"), "n": _sized(result)}

    return attrs


def _stage_attrs(config, artifacts) -> dict:
    written = sum(_file_size(p) for p in artifacts or ())
    written += _file_size(Path(config.out_dir) / "manifest.json")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"bytes_written": written, "peak_rss_mb": peak_kb / 1024.0}


# -- aggregation ------------------------------------------------------

def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def totals(spans: list[dict]) -> dict[str, tuple[int, float]]:
    """Span name -> (calls, summed seconds)."""
    out: dict[str, tuple[int, float]] = {}
    for s in spans:
        calls, secs = out.get(s["name"], (0, 0.0))
        out[s["name"]] = (calls + 1, secs + s["end"] - s["start"])
    return out


def stage_summary(spans: list[dict]) -> dict[str, dict]:
    """Per stage: wall seconds, self seconds (span minus the union of
    its direct children), peak RSS at stage end, bytes read/written."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out: dict[str, dict] = {}
    for s in spans:
        stage = s.get("stage")
        if stage is None:
            continue
        wall = s["end"] - s["start"]
        entry = out.setdefault(stage, {"s": 0.0, "self_s": 0.0, "peak_rss_mb": 0.0,
                                       "bytes_read": 0, "bytes_written": 0})
        entry["s"] += wall
        entry["self_s"] += wall - _covered(children.get(s["id"], []))
        entry["peak_rss_mb"] = max(entry["peak_rss_mb"], s.get("peak_rss_mb", 0.0))
        entry["bytes_read"] += s.get("bytes_read", 0)
        entry["bytes_written"] += s.get("bytes_written", 0)
    return out
