"""Stage-based orchestration over plain-file artifacts.

Each stage reads the previous stage's files from the output directory
and writes its own, so any stage can be rerun in isolation and the
full pipeline is nothing more than the six stages in order:

    ingest   corpus.jsonl          parse, journal-filter, normalize
    graph    graph_*.npy           citation network and per-node fields
             eligible.txt          ids meeting the eligibility criteria
    classify classifications.csv   article types for eligible papers
    disrupt  disruption.csv        scores at each threshold
    regress  regression.csv citations_models.txt disruption_models.txt
    report   report.txt            combined human-readable summary

Only ingest, graph and classify (which needs titles and abstracts)
read corpus records; disrupt, regress and report load the graph arrays
(see graph.GRAPH_FILES) instead. Run alone, graph and classify parse
corpus.jsonl; under ``run`` only ingest parses the corpus, and it hands
the filtered records to graph and classify in memory.

A manifest.json accumulates input hashes, the config, library
versions, and artifact hashes; it carries no clock data, so a rerun
with identical inputs and the offline classifier stub is byte-
identical. A failing stage leaves partial outputs in place plus a
FAILED marker naming the stage and cause.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import platform
import types
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, get_args, get_type_hints

import numpy as np
import scipy

from . import __version__
from .classify import (LABELS, SOURCES, BackendConfig, LabelTable, ResponseCache,
                       agreement_report, check_choice, classify_batch, stub_backend)
from .corpus import (Corpus, EligibilityCriteria, YearGroup, atomic_write, eligible_ids,
                     filter_journals, parse_corpus, read_allowlist, write_corpus)
from .disruption import (ScoreTable, _validate_mode_and_thresholds, disruption_batch,
                         read_scores, write_scores)
from .graph import (GRAPH_FILES, CitationGraph, build_graph, degree_stats, load_graph,
                    save_graph)
from .regress import (Observations, emit_table, fit_model, layout_for,
                      standard_model_specs, write_results_csv)

STAGES = ("ingest", "graph", "classify", "disrupt", "regress", "report")

# The stages that read corpus records and take run_pipeline's hand-off.
CORPUS_STAGES = ("ingest", "graph", "classify")

# Which stage produces each artifact; used to name the needed stage
# when a prerequisite file is missing.
ARTIFACT_STAGE = {
    "corpus.jsonl": "ingest",
    **{name: "graph" for name in GRAPH_FILES},
    "eligible.txt": "graph",
    "classifications.csv": "classify",
    "disruption.csv": "disrupt",
    "regression.csv": "regress",
    "citations_models.txt": "regress",
    "disruption_models.txt": "regress",
    "report.txt": "report",
}

FAILED_MARKER = "FAILED"


class StageError(RuntimeError):
    """A pipeline stage failed or cannot start."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage '{stage}': {message}")
        self.stage = stage
        self.message = message


_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


@dataclass
class PipelineConfig:
    """Everything a run needs, loadable from a key = value file."""

    corpus: Path = Path("corpus.jsonl")
    allowlist: Path | None = None
    cache: Path | None = None
    out_dir: Path = Path("out")
    # eligibility thresholds (minimum counts, inclusive)
    min_out_links: int = 11
    min_in_links: int = 11
    year_min: int = 1991
    year_max: int = 2020
    min_abstract_chars: int = 501
    # disruption scoring
    thresholds: tuple[int, ...] = (1, 2, 3, 5)
    mode: str = "ref_indegree"
    n_jobs: int = 1
    # classifier backend; stub skips the network entirely
    stub: bool = False
    endpoint: str = ""
    model: str = ""
    api_key_env: str = "DISRUPTKIT_API_KEY"
    max_in_flight: int = 4
    retries: int = 3
    backoff_base: float = 1.0
    timeout: float = 30.0
    # which D^l models to fit alongside the three citation models
    model_thresholds: tuple[int, ...] = (2, 3, 5)

    def __post_init__(self):
        self.corpus = Path(self.corpus)
        self.out_dir = Path(self.out_dir)
        if self.allowlist is not None:
            self.allowlist = Path(self.allowlist)
        if self.cache is not None:
            self.cache = Path(self.cache)
        if not self.thresholds:
            raise ValueError("thresholds must be non-empty")
        # What disrupt, graph and regress would reject, rejected before any
        # stage runs (classify may make billable requests).
        _validate_mode_and_thresholds(self.thresholds, self.mode)
        self.criteria()
        # regress puts every eligible paper in a year group
        first, last = min(YearGroup).start, max(YearGroup).end
        for name in ("year_min", "year_max"):
            year = getattr(self, name)
            if not first <= year <= last:
                raise ValueError(f"{name} {year} outside the year groups [{first}, {last}]")
        if not self.model_thresholds:
            raise ValueError("model_thresholds must be non-empty")
        missing = [l for l in self.model_thresholds if l not in self.thresholds]
        if missing:
            raise ValueError(
                f"model_thresholds {missing} not among scored thresholds {self.thresholds}"
            )

    def criteria(self) -> EligibilityCriteria:
        return EligibilityCriteria(
            min_out_links=self.min_out_links,
            min_in_links=self.min_in_links,
            year_min=self.year_min,
            year_max=self.year_max,
            min_abstract_chars=self.min_abstract_chars,
        )

    def backend_config(self) -> BackendConfig:
        if not self.endpoint or not self.model:
            raise ValueError(
                "backend endpoint and model must be configured (or set stub = true)"
            )
        return BackendConfig(
            endpoint=self.endpoint,
            model=self.model,
            max_in_flight=self.max_in_flight,
            retries=self.retries,
            backoff_base=self.backoff_base,
            timeout=self.timeout,
            api_key_env=self.api_key_env,
        )

    def as_dict(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Path):
                value = str(value)
            elif isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out


def _coerce(name: str, text: str, target_type) -> object:
    text = text.strip()
    if target_type is Path:
        return Path(text)
    if target_type is bool:
        lowered = text.lower()
        if lowered in _BOOL_TRUE:
            return True
        if lowered in _BOOL_FALSE:
            return False
        raise ValueError(f"config key {name!r}: expected a boolean, got {text!r}")
    if target_type is int:
        return int(text)
    if target_type is float:
        return float(text)
    if target_type is str:
        return text
    # remaining fields are integer tuples given as comma-separated lists
    return tuple(int(part) for part in text.split(",") if part.strip())


def load_config(path: str | Path, overrides: dict | None = None) -> PipelineConfig:
    """Parse a `key = value` file (# comments, blank lines allowed) into
    a PipelineConfig; unknown keys are errors. ``overrides`` wins over
    file values."""
    path = Path(path)
    # A field annotated X | None is read as an X.
    type_map = {name: get_args(hint)[0] if isinstance(hint, types.UnionType) else hint
                for name, hint in get_type_hints(PipelineConfig).items()}
    values: dict = {}
    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in type_map:
                raise ValueError(f"{path}: line {lineno}: unknown config key {key!r}")
            values[key] = _coerce(key, value, type_map[key])
    if overrides:
        values.update(overrides)
    return PipelineConfig(**values)


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _versions() -> dict:
    return {
        "disruptkit": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _update_manifest(config: PipelineConfig, inputs: dict[str, Path],
                     artifacts: list[Path]) -> None:
    path = config.out_dir / "manifest.json"
    if path.exists():
        data = json.loads(path.read_text(encoding="utf-8"))
    else:
        data = {"inputs": {}, "artifacts": {}}
    data["config"] = config.as_dict()
    data["versions"] = _versions()
    for name, p in inputs.items():
        data["inputs"][name] = _sha256_file(p)
    for p in artifacts:
        data["artifacts"][p.name] = _sha256_file(p)
    with atomic_write(path) as fh:
        fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _require(config: PipelineConfig, stage: str, filename: str) -> Path:
    path = config.out_dir / filename
    if not path.exists():
        producer = ARTIFACT_STAGE[filename]
        raise StageError(
            stage,
            f"missing artifact {filename!r}; run stage '{producer}' first",
        )
    return path


def _run_stage(name: str, config: PipelineConfig,
               body: Callable[[], list[Path]]) -> list[Path]:
    config.out_dir.mkdir(parents=True, exist_ok=True)
    marker = config.out_dir / FAILED_MARKER
    try:
        artifacts = body()
    except StageError as exc:
        marker.write_text(f"{exc.stage}: {exc.message}\n", encoding="utf-8")
        raise
    except Exception as exc:
        marker.write_text(f"{name}: {exc}\n", encoding="utf-8")
        raise StageError(name, str(exc)) from exc
    if marker.exists():
        marker.unlink()
    return artifacts


def _load_filtered_corpus(config: PipelineConfig, stage: str,
                          handoff: dict[str, Corpus] | None) -> Corpus:
    if handoff is not None and "corpus" in handoff:
        return handoff["corpus"]
    return parse_corpus(_require(config, stage, "corpus.jsonl"))


def _load_graph(config: PipelineConfig, stage: str) -> CitationGraph:
    for name in GRAPH_FILES:
        _require(config, stage, name)
    return load_graph(config.out_dir)


def _load_eligible(config: PipelineConfig, stage: str) -> list[str]:
    path = _require(config, stage, "eligible.txt")
    with path.open("r", encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]


def stage_ingest(config: PipelineConfig,
                 handoff: dict[str, Corpus] | None = None) -> list[Path]:
    """Parse the raw corpus, apply the journal allowlist, and write the
    normalized corpus sorted by id. Given a ``handoff`` dict, also leave
    the written records in it under "corpus" for graph and classify."""

    def body() -> list[Path]:
        if not config.corpus.exists():
            raise FileNotFoundError(f"corpus file not found: {config.corpus}")
        corpus = parse_corpus(config.corpus)
        inputs = {"corpus": config.corpus}
        if config.allowlist is not None:
            if not config.allowlist.exists():
                raise FileNotFoundError(f"allowlist file not found: {config.allowlist}")
            corpus = filter_journals(corpus, read_allowlist(config.allowlist))
            inputs["allowlist"] = config.allowlist
        out_path = config.out_dir / "corpus.jsonl"
        write_corpus(corpus, out_path)
        _update_manifest(config, inputs, [out_path])
        if handoff is not None:
            handoff["corpus"] = corpus
        return [out_path]

    return _run_stage("ingest", config, body)


def stage_graph(config: PipelineConfig,
                handoff: dict[str, Corpus] | None = None) -> list[Path]:
    """Build the citation network, save it with the per-node fields later
    stages need, and compute the eligible focal set. The records come
    from ``handoff["corpus"]`` when ingest left them there, else from
    corpus.jsonl."""

    def body() -> list[Path]:
        corpus = _load_filtered_corpus(config, "graph", handoff)
        graph = build_graph(corpus)
        paths = save_graph(graph, config.out_dir)
        eligible = eligible_ids(corpus, graph, config.criteria())
        eligible_path = config.out_dir / "eligible.txt"
        with atomic_write(eligible_path) as fh:
            fh.write("".join(f"{pid}\n" for pid in eligible))
        paths.append(eligible_path)
        _update_manifest(config, {}, paths)
        return paths

    return _run_stage("graph", config, body)


def stage_classify(config: PipelineConfig,
                   handoff: dict[str, Corpus] | None = None) -> list[Path]:
    """Classify each eligible paper as Conceptual/Empirical/Other. The
    records come from ``handoff["corpus"]`` when ingest left them there,
    else from corpus.jsonl."""

    def body() -> list[Path]:
        corpus = _load_filtered_corpus(config, "classify", handoff)
        eligible = _load_eligible(config, "classify")
        papers = corpus.take(corpus.positions(eligible))
        if config.stub:
            labels = classify_batch(papers, backend=stub_backend)
        elif config.cache is None:
            labels = classify_batch(papers, config=config.backend_config())
        else:
            with ResponseCache(config.cache) as cache:
                labels = classify_batch(papers, config=config.backend_config(), cache=cache)
        out_path = config.out_dir / "classifications.csv"
        _write_classifications(labels, out_path)
        _update_manifest(config, {}, [out_path])
        return [out_path]

    return _run_stage("classify", config, body)


def stage_disrupt(config: PipelineConfig) -> list[Path]:
    """Score every eligible paper at every configured threshold."""

    def body() -> list[Path]:
        eligible = _load_eligible(config, "disrupt")
        graph = _load_graph(config, "disrupt")
        scores = disruption_batch(graph, eligible, ls=config.thresholds,
                                  mode=config.mode, n_jobs=config.n_jobs)
        out_path = config.out_dir / "disruption.csv"
        write_scores(scores, out_path)
        _update_manifest(config, {}, [out_path])
        return [out_path]

    return _run_stage("disrupt", config, body)


CLASSIFICATION_COLUMNS = ("id", "label", "source", "rationale")


def _write_classifications(table: LabelTable, path: Path) -> None:
    with atomic_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        # The writer quotes a field holding "\n" but not one holding a bare
        # "\r", where the reader would end the row: such rows are quoted whole.
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(CLASSIFICATION_COLUMNS)
        for row in zip(table.ids, table.labels, table.sources, table.rationales):
            (quoted if "\r" in "".join(row) else writer).writerow(row)


def read_classifications(path: str | Path) -> LabelTable:
    """Parse a table written by _write_classifications. A wrong header,
    a row of the wrong width, or a label or source outside LABELS or
    SOURCES raises ValueError naming it; of several bad rows, the first
    is named."""
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(CLASSIFICATION_COLUMNS):
            raise ValueError(f"{path}: unexpected header {header}")
        rows = [row for row in reader if row]
    width = len(CLASSIFICATION_COLUMNS)
    valid = (all(len(row) == width for row in rows)
             and {row[1] for row in rows} <= set(LABELS)
             and {row[2] for row in rows} <= set(SOURCES))
    if not valid:
        # A whole-column test failed: name the first bad row.
        for row in rows:
            if len(row) != width:
                raise ValueError(f"{path}: malformed row {row}")
            check_choice(f"{path}: label", row[1], LABELS)
            check_choice(f"{path}: source", row[2], SOURCES)
    ids, labels, sources, rationales = (tuple(row[j] for row in rows) for j in range(width))
    return LabelTable(ids=ids, labels=labels, sources=sources, rationales=rationales)


def _score_matrix(eligible: list[str], thresholds: np.ndarray,
                  scores: ScoreTable) -> np.ndarray:
    """d as an (eligible paper, threshold) matrix. The score rows must be
    exactly eligible × thresholds, each once; anything else means
    disruption.csv predates the current eligible set or thresholds."""
    n_l = len(thresholds)
    position = {pid: k for k, pid in enumerate(eligible)}
    row = np.fromiter((position.get(pid, -1) for pid in scores.ids),
                      dtype=np.int64, count=len(scores))
    col = np.minimum(np.searchsorted(thresholds, scores.l), n_l - 1)
    known = (row >= 0) & (thresholds[col] == scores.l)
    hits = np.bincount(row[known] * n_l + col[known], minlength=len(eligible) * n_l)
    problem = None
    if not known.all():
        k = int(np.argmin(known))
        problem = (f"it scores ({scores.ids[k]!r}, l={scores.l[k]}), which is not "
                   "an eligible paper at a configured threshold")
    elif (hits != 1).any():
        cell = int(np.argmax(hits != 1))
        key = f"({eligible[cell // n_l]!r}, l={thresholds[cell % n_l]})"
        problem = (f"it scores {key} {hits[cell]} times" if hits[cell]
                   else f"it has no score for {key}")
    if problem is not None:
        raise ValueError(f"disruption.csv does not match eligible.txt and the "
                         f"thresholds: {problem}; run stage 'disrupt' again")
    d = np.empty((len(eligible), n_l), dtype=np.float64)
    d[row, col] = scores.d
    return d


def _check_labels(eligible: list[str], labelled: tuple[str, ...]) -> None:
    """The labels must cover exactly the eligible papers, each once;
    anything else means classifications.csv predates eligible.txt."""

    def stale(problem: str) -> ValueError:
        return ValueError(f"classifications.csv does not match eligible.txt: "
                          f"{problem}; run stage 'classify' again")

    wanted = set(eligible)
    seen: set[str] = set()
    for pid in labelled:
        if pid not in wanted:
            raise stale(f"it labels {pid!r}, which is not an eligible paper")
        if pid in seen:
            raise stale(f"it labels {pid!r} more than once")
        seen.add(pid)
    for pid in eligible:
        if pid not in seen:
            raise stale(f"it has no label for {pid!r}")


def build_observation_rows(graph: CitationGraph, eligible: list[str],
                           labels: Mapping[str, str],
                           thresholds: tuple[int, ...],
                           scores: ScoreTable) -> Observations:
    """Join the per-paper artifacts into model-ready columns, one entry
    per eligible paper in eligible order; ``labels`` maps paper id to
    label. Papers whose label is neither Conceptual nor Empirical are
    dropped here, before any model sees them. The scores must cover
    exactly eligible × thresholds."""
    ls = np.unique(np.asarray(thresholds, dtype=np.int64))
    d = _score_matrix(eligible, ls, scores)
    indicator = {"Conceptual": 1.0, "Empirical": 0.0}
    conceptual = np.array([indicator.get(labels.get(pid), np.nan) for pid in eligible])
    keep = np.flatnonzero(~np.isnan(conceptual))
    idx = np.fromiter((graph.index[eligible[k]] for k in keep),
                      dtype=np.int64, count=len(keep))
    return Observations(
        ids=tuple(eligible[k] for k in keep),
        y_citations=graph.in_deg[idx],
        y_d={int(l): d[keep, j] for j, l in enumerate(ls)},
        year=graph.year[idx],
        n_authors=graph.n_authors[idx],
        conceptual=conceptual[keep],
    )


def stage_regress(config: PipelineConfig) -> list[Path]:
    """Fit the citation and disruption models on the eligible papers."""

    def body() -> list[Path]:
        eligible = _load_eligible(config, "regress")
        labels = read_classifications(_require(config, "regress", "classifications.csv"))
        scores = read_scores(_require(config, "regress", "disruption.csv"))
        graph = _load_graph(config, "regress")
        obs = build_observation_rows(graph, eligible, labels.by_id(),
                                     config.thresholds, scores)
        # after the join, whose score check names a stale disruption.csv first
        _check_labels(eligible, labels.ids)
        specs = standard_model_specs(config.model_thresholds)
        results = [fit_model(obs, spec) for spec in specs]
        citation_results = [r for r in results if r.model.startswith("citations")]
        d_results = [r for r in results if r.model.startswith("disruption")]

        csv_path = config.out_dir / "regression.csv"
        write_results_csv(results, csv_path)
        cit_path = config.out_dir / "citations_models.txt"
        with atomic_write(cit_path) as fh:
            fh.write(emit_table(
                citation_results,
                layout_for(citation_results,
                           "OLS models of in-corpus citation counts", decimals=3),
            ))
        d_path = config.out_dir / "disruption_models.txt"
        with atomic_write(d_path) as fh:
            fh.write(emit_table(
                d_results,
                layout_for(d_results,
                           "OLS models of disruption scores", decimals=4),
            ))
        _update_manifest(config, {}, [csv_path, cit_path, d_path])
        return [csv_path, cit_path, d_path]

    return _run_stage("regress", config, body)


def stage_report(config: PipelineConfig) -> list[Path]:
    """Combine degree statistics, label counts, agreement against any
    gold labels, and both model tables into one text report."""

    def body() -> list[Path]:
        eligible = _load_eligible(config, "report")
        labels = read_classifications(_require(config, "report", "classifications.csv"))
        cit_table = _require(config, "report", "citations_models.txt").read_text(
            encoding="utf-8")
        d_table = _require(config, "report", "disruption_models.txt").read_text(
            encoding="utf-8")
        _check_labels(eligible, labels.ids)
        graph = _load_graph(config, "report")
        stats = degree_stats(graph)

        lines: list[str] = []
        lines.append("Corpus")
        lines.append(f"  papers: {graph.n_nodes}")
        counts = Counter(graph.journal)
        lines.append(f"  journals with papers: {len(counts)}")
        if config.allowlist is not None and config.allowlist.exists():
            allow = read_allowlist(config.allowlist)
            empty = sorted(allow - set(counts))
            lines.append(f"  journals allowed: {len(allow)}"
                         f" (no papers from {len(empty)})")
        for journal in sorted(counts):
            lines.append(f"    {journal}: {counts[journal]}")
        lines.append("")
        lines.append("Citation network")
        lines.append(f"  nodes: {stats['n_nodes']}")
        lines.append(f"  edges: {stats['n_edges']}")
        lines.append(f"  mean in-degree: {stats['mean_in_deg']:.3f}")
        lines.append(f"  mean out-degree: {stats['mean_out_deg']:.3f}")
        lines.append(f"  max in-degree: {stats['max_in_deg']}")
        lines.append(f"  max out-degree: {stats['max_out_deg']}")
        lines.append("")
        lines.append(f"Eligible papers: {len(eligible)}")
        label_counts = Counter(labels.labels)
        source_counts = Counter(labels.sources)
        lines.append("Labels")
        for label in sorted(label_counts):
            lines.append(f"  {label}: {label_counts[label]}")
        lines.append("Label sources")
        for source in sorted(source_counts):
            lines.append(f"  {source}: {source_counts[source]}")
        gold_labels = {pid: gold for pid in eligible
                       if (gold := graph.gold_label[graph.index[pid]]) is not None}
        if gold_labels:
            report = agreement_report(labels.by_id(), gold_labels)
            lines.append("Agreement with gold labels")
            for label in sorted(report.gold_counts):
                lines.append(
                    f"  {label}: {report.correct_counts[label]}/"
                    f"{report.gold_counts[label]} ({report.percent(label)})"
                )
            lines.append(f"  overall: {report.overall_percent()}")
        lines.append("")
        lines.append(cit_table)
        lines.append(d_table)
        out_path = config.out_dir / "report.txt"
        with atomic_write(out_path) as fh:
            fh.write("\n".join(lines))
        _update_manifest(config, {}, [out_path])
        return [out_path]

    return _run_stage("report", config, body)


STAGE_FUNCTIONS: dict[str, Callable[..., list[Path]]] = {
    "ingest": stage_ingest,
    "graph": stage_graph,
    "classify": stage_classify,
    "disrupt": stage_disrupt,
    "regress": stage_regress,
    "report": stage_report,
}


def run_pipeline(config: PipelineConfig) -> list[Path]:
    """All six stages in order. Input paths are checked up front;
    artifacts land in config.out_dir; the manifest is refreshed by each
    stage as it completes."""
    if not config.corpus.exists():
        raise StageError("ingest", f"corpus file not found: {config.corpus}")
    if config.allowlist is not None and not config.allowlist.exists():
        raise StageError("ingest", f"allowlist file not found: {config.allowlist}")
    artifacts: list[Path] = []
    # ingest leaves its records here so that graph and classify need not
    # parse corpus.jsonl again; they are dropped before disrupt starts.
    handoff: dict[str, Corpus] = {}
    for stage in STAGES:
        if stage in CORPUS_STAGES:
            artifacts.extend(STAGE_FUNCTIONS[stage](config, handoff=handoff))
        else:
            handoff.clear()
            artifacts.extend(STAGE_FUNCTIONS[stage](config))
    return artifacts
