"""Stage-based orchestration over plain-file artifacts.

Each stage reads the previous stage's files from the output directory
and writes its own, so any stage can be rerun in isolation and the
full pipeline is nothing more than the six stages in order:

    ingest   corpus_*.npy          parse, journal-filter, normalize
    graph    graph_*.npy           citation network (CSR arrays)
             eligible.txt          ids meeting the eligibility criteria
    classify classifications.csv   article types for eligible papers
    disrupt  disruption.csv        scores at each threshold
    regress  regression.csv citations_models.txt disruption_models.txt
    report   report.txt            combined human-readable summary

STAGE_TABLE states what each stage reads and writes and which config
keys change its output. ingest parses the raw corpus once and writes its
columns as arrays (see corpus.CORPUS_FILES), and every later stage loads
from out_dir only the columns it uses, under ``run`` as when run alone,
so no stage after ingest parses JSON and a record field is stored once.
Of the record text, graph decodes only the ids and the reference
strings, and counts each abstract's characters from its bytes;
classify decodes the ids, and the titles and abstracts of the eligible
rows only. disrupt, regress and report load the graph
(graph.LOAD_GRAPH_FILES), which decodes the ids, and report decodes the
journal and gold label of every row.

manifest.json holds, per finished stage, the sha256 of its inputs, its
config values and the sha256 of what it wrote. Before its body runs, a
stage hashes every file it reads, in out_dir and outside it, and refuses
inputs whose lineage no longer matches the files upstream or the config,
or whose bytes are not those their producer recorded writing, naming
the most upstream stage to run again. A source that a stage upstream
read too (report's allowlist, which ingest applied) must be the file
that stage read. It records the hashes it took as its inputs.
A manifest that is not valid asks for ingest again, which then starts a
new one; an entry that lists other files than its stage now writes asks
for that stage again. It carries no clock data, so a rerun with
identical inputs and the offline classifier stub is byte-identical. A
failing stage leaves partial outputs in place, unrecorded, plus a FAILED
marker naming the stage and cause.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import io
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
from .corpus import (CORPUS_FILES, EligibilityCriteria, YearGroup, atomic_write, corpus_files,
                     eligible_ids, filter_journals, load_char_counts, load_columns,
                     parse_corpus, read_allowlist, save_corpus, utf8_fault)
from .disruption import (DEFAULT_THRESHOLDS, ScoreTable, _validate_scoring, disruption_batch,
                         read_scores, write_scores)
from .graph import (GRAPH_FILES, LOAD_GRAPH_FILES, CitationGraph, build_graph, degree_stats,
                    load_graph, save_graph)
from .regress import (Observations, emit_table, fit_model, standard_model_specs,
                      write_results_csv)


@dataclass(frozen=True)
class StageSpec:
    """Artifacts read and written in out_dir, the config keys that change
    the output, and the path keys of files read from outside out_dir."""

    reads: tuple[str, ...]
    writes: tuple[str, ...]
    keys: tuple[str, ...] = ()
    sources: tuple[str, ...] = ()


# The corpus columns the stages after ingest load. graph also counts the
# characters of each abstract from its bytes, classify maps the eligible
# ids to rows and decodes only those rows of its columns, and report
# decodes the gold labels of the eligible rows only.
GRAPH_COLUMNS = ("ids", "year", "ref_offsets", "ref_codes", "ref_strings")
CLASSIFY_COLUMNS = ("title", "abstract")
REGRESS_COLUMNS = ("year", "n_authors")
REPORT_COLUMNS = ("journal", "gold_label")

# Paths, endpoint, n_jobs and the HTTP client's limits change no output.
STAGE_TABLE = {
    "ingest": StageSpec((), CORPUS_FILES, sources=("corpus", "allowlist")),
    "graph": StageSpec(corpus_files((*GRAPH_COLUMNS, "abstract")),
                       (*GRAPH_FILES, "eligible.txt"),
                       keys=("min_out_links", "min_in_links", "year_min", "year_max",
                             "min_abstract_chars")),
    "classify": StageSpec((*corpus_files(("ids", *CLASSIFY_COLUMNS)), "eligible.txt"),
                          ("classifications.csv",),
                          keys=("stub", "model")),
    "disrupt": StageSpec(("eligible.txt", *LOAD_GRAPH_FILES), ("disruption.csv",),
                         keys=("mode", "thresholds")),
    "regress": StageSpec(("eligible.txt", "classifications.csv", "disruption.csv",
                          *LOAD_GRAPH_FILES, *corpus_files(REGRESS_COLUMNS)),
                         ("regression.csv", "citations_models.txt", "disruption_models.txt"),
                         keys=("model_thresholds",)),
    "report": StageSpec(("eligible.txt", "classifications.csv", "citations_models.txt",
                         "disruption_models.txt", *LOAD_GRAPH_FILES,
                         *corpus_files(REPORT_COLUMNS)), ("report.txt",),
                        sources=("allowlist",)),
}

STAGES = tuple(STAGE_TABLE)

_PRODUCER = {name: stage for stage, spec in STAGE_TABLE.items() for name in spec.writes}

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
    min_out_links: int = EligibilityCriteria.min_out_links
    min_in_links: int = EligibilityCriteria.min_in_links
    year_min: int = EligibilityCriteria.year_min
    year_max: int = EligibilityCriteria.year_max
    min_abstract_chars: int = EligibilityCriteria.min_abstract_chars
    # disruption scoring
    thresholds: tuple[int, ...] = DEFAULT_THRESHOLDS
    mode: str = "ref_indegree"
    n_jobs: int = 1
    # classifier backend; stub skips the network entirely
    stub: bool = False
    endpoint: str = ""
    model: str = ""
    api_key_env: str = BackendConfig.api_key_env
    max_in_flight: int = BackendConfig.max_in_flight
    retries: int = BackendConfig.retries
    backoff_base: float = BackendConfig.backoff_base
    timeout: float = BackendConfig.timeout
    # which D^l models to fit alongside the three citation models
    model_thresholds: tuple[int, ...] = (2, 3, 5)

    def __post_init__(self):
        self.corpus = Path(self.corpus)
        self.out_dir = Path(self.out_dir)
        if self.allowlist is not None:
            self.allowlist = Path(self.allowlist)
        if self.cache is not None:
            self.cache = Path(self.cache)
        # What disrupt, graph and regress would reject, rejected before any
        # stage runs (classify may make billable requests).
        _validate_scoring(self.thresholds, self.mode, self.n_jobs)
        self.criteria()
        # regress puts every eligible paper in a year group
        first, last = min(YearGroup).start, max(YearGroup).end
        for name in ("year_min", "year_max"):
            year = getattr(self, name)
            if not first <= year <= last:
                raise ValueError(f"{name} {year} outside the year groups [{first}, {last}]")
        # and fits a dummy for each, which a group outside the window leaves all zeros
        for group in YearGroup:
            if group.end < self.year_min or group.start > self.year_max:
                name = "year_min" if group.end < self.year_min else "year_max"
                raise ValueError(f"{name} {getattr(self, name)} leaves year group "
                                 f"{group.label} empty; regress needs papers in every group")
        if not self.model_thresholds:
            raise ValueError("model_thresholds must be non-empty")
        repeated = [str(l) for l, n in Counter(self.model_thresholds).items() if n > 1]
        if repeated:
            raise ValueError(f"model_thresholds lists {', '.join(repeated)} more than once")
        missing = [l for l in self.model_thresholds if l not in self.thresholds]
        if missing:
            raise ValueError(
                f"model_thresholds {missing} not among scored thresholds {self.thresholds}"
            )
        if not self.stub:
            # what classify's backend would refuse, each named by its key
            self.backend_config()
            if self.cache is None:
                raise ValueError("cache must be set when stub is false: it keeps every "
                                 "answer the backend is paid for")

    def criteria(self) -> EligibilityCriteria:
        return EligibilityCriteria(
            min_out_links=self.min_out_links,
            min_in_links=self.min_in_links,
            year_min=self.year_min,
            year_max=self.year_max,
            min_abstract_chars=self.min_abstract_chars,
        )

    def backend_config(self) -> BackendConfig:
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


_EXPECTED = {bool: "a boolean", int: "an integer", float: "a number"}


def _coerce(name: str, text: str, target_type) -> object:
    text = text.strip()
    if target_type is Path:
        return Path(text)
    if target_type is str:
        return text
    try:
        if target_type is bool:
            lowered = text.lower()
            if lowered in _BOOL_TRUE:
                return True
            if lowered in _BOOL_FALSE:
                return False
            raise ValueError
        if target_type in (int, float):
            return target_type(text)
        # remaining fields are integer tuples given as comma-separated lists
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        expected = _EXPECTED.get(target_type, "comma-separated integers")
        raise ValueError(f"config key {name!r}: expected {expected}, got {text!r}") from None


def load_config(path: str | Path, overrides: dict | None = None) -> PipelineConfig:
    """Parse a `key = value` file (# comments, blank lines allowed) into
    a PipelineConfig; unknown or repeated keys are errors, and a leading
    byte-order mark is dropped. ``overrides`` wins over file values."""
    path = Path(path)
    # A field annotated X | None is read as an X.
    type_map = {name: get_args(hint)[0] if isinstance(hint, types.UnionType) else hint
                for name, hint in get_type_hints(PipelineConfig).items()}
    values: dict = {}
    seen: dict[str, int] = {}
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError:
        raise ValueError(utf8_fault(path, data)[1]) from None
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in type_map:
            raise ValueError(f"{path}: line {lineno}: unknown config key {key!r}")
        if (first := seen.setdefault(key, lineno)) != lineno:
            raise ValueError(f"{path}: line {lineno}: config key {key!r} repeats line {first}")
        try:
            values[key] = _coerce(key, value, type_map[key])
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    if overrides:
        values.update(overrides)
    return PipelineConfig(**values)


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _source_sha256(config: PipelineConfig, key: str) -> str | None:
    """The sha256 of the file outside out_dir that config key ``key``
    names, or None if it names none."""
    path = getattr(config, key)
    if path is None:
        return None
    if not path.exists():
        raise FileNotFoundError(f"{key} file not found: {path}")
    return _sha256_file(path)


def _versions() -> dict:
    return {
        "disruptkit": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _write_manifest(config: PipelineConfig, stages: dict) -> None:
    with atomic_write(config.out_dir / "manifest.json") as fh:
        fh.write(json.dumps({"stages": stages, "versions": _versions()},
                            indent=2, sort_keys=True) + "\n")


def _read_manifest(name: str, path: Path) -> dict:
    """The finished stages that manifest.json records, none if there is no
    such file. One that _write_manifest did not write fails every stage
    but ingest, which starts a new manifest."""
    if not path.exists():
        return {}
    try:
        # a manifest of an older format, with no stages, records none
        stages = json.loads(path.read_text(encoding="utf-8")).get("stages", {})
    except ValueError as exc:  # not UTF-8, or not JSON
        problem = f"is not valid JSON ({exc})"
    except AttributeError:
        problem = "is not a JSON object"
    else:
        if isinstance(stages, dict) and all(
                isinstance(entry, dict)
                and all(isinstance(entry.get(k), dict) for k in ("config", "inputs", "outputs"))
                for entry in stages.values()):
            return stages
        problem = "holds no object of stage entries under 'stages'"
    if name == "ingest":
        return {}
    raise StageError(name, f"manifest.json {problem}; run stage 'ingest' again")


def _upstream(stage: str) -> set[str]:
    """Every stage whose output feeds ``stage``, directly or not."""
    direct = {_PRODUCER[name] for name in STAGE_TABLE[stage].reads}
    return direct.union(*map(_upstream, direct))


def _check_inputs(name: str, config: PipelineConfig, current: dict, stages: dict) -> dict:
    """The manifest entry a run of ``name`` now records, less its outputs:
    its config values and the sha256 of each file it reads, in out_dir by
    artifact name and outside it (a source) by config key.

    Raise StageError naming the stage to run when an input is missing or,
    most upstream first, a stage upstream has no record in the manifest,
    read other files than its producers last wrote, used other config
    values, or wrote other bytes than ``name`` would read; or when a
    source is not the one a stage upstream read under that key."""
    spec = STAGE_TABLE[name]
    read = {}
    for artifact in spec.reads:
        try:
            read[artifact] = _sha256_file(config.out_dir / artifact)
        except FileNotFoundError:
            raise StageError(name, f"missing artifact {artifact!r}; "
                                   f"run stage '{_PRODUCER[artifact]}' first") from None
    read.update((key, _source_sha256(config, key)) for key in spec.sources)
    upstream = _upstream(name)
    for stage in (s for s in STAGES if s in upstream):
        entry, writer = stages.get(stage), STAGE_TABLE[stage]
        if entry is None:
            problem = f"manifest.json records no finished run of stage '{stage}'"
        elif entry["outputs"].keys() != set(writer.writes):
            problem = f"manifest.json records other files than stage '{stage}' now writes"
        else:
            keys = [k for k in writer.keys if entry["config"].get(k) != current[k]]
            inputs = [a for a in writer.reads
                      if entry["inputs"].get(a) != stages[_PRODUCER[a]]["outputs"][a]]
            edited = [a for a in spec.reads
                      if _PRODUCER[a] == stage and read[a] != entry["outputs"][a]]
            sources = [k for k in spec.sources
                       if k in writer.sources and entry["inputs"].get(k) != read[k]]
            if keys:
                problem = (f"stage '{stage}' ran with {keys[0]} = {entry['config'].get(keys[0])!r},"
                           f" the config has {current[keys[0]]!r}")
            elif inputs:
                problem = f"{inputs[0]!r} has changed since stage '{stage}' read it"
            elif edited:
                problem = f"{edited[0]!r} is not the file stage '{stage}' wrote"
            elif sources:
                key, path = sources[0], getattr(config, sources[0])
                if path is None:
                    problem = f"stage '{stage}' ran with {key} set, the config sets none"
                elif key in entry["inputs"]:
                    problem = f"{key} {path} has changed since stage '{stage}' read it"
                else:
                    problem = f"stage '{stage}' ran with no {key}, the config names {path}"
            else:
                continue
        raise StageError(name, f"{problem}; run stage '{stage}' again")
    return {"config": {key: current[key] for key in spec.keys},
            "inputs": {key: digest for key, digest in read.items() if digest is not None}}


def _mark_failed(marker: Path, stage: str, message: str) -> None:
    try:
        marker.write_text(f"{stage}: {message}\n", encoding="utf-8")
    except OSError:
        pass  # the stage's own error is the one to report, marker or not


def _run_stage(name: str, config: PipelineConfig,
               body: Callable[[PipelineConfig], None]) -> list[Path]:
    """Check the inputs' lineage and bytes, drop the stage's manifest
    entry, run ``body``, then record the entry."""
    try:
        config.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise StageError(name, f"cannot create output directory {config.out_dir}: "
                               f"{exc.strerror or exc}") from exc
    marker, manifest = config.out_dir / FAILED_MARKER, config.out_dir / "manifest.json"
    current = config.as_dict()
    try:
        stages = _read_manifest(name, manifest)
        entry = _check_inputs(name, config, current, stages)
        # outputs stay unrecorded until the body has finished
        if stages.pop(name, None) is not None:
            _write_manifest(config, stages)
        body(config)
        outputs = [config.out_dir / artifact for artifact in STAGE_TABLE[name].writes]
        stages[name] = {**entry, "outputs": {p.name: _sha256_file(p) for p in outputs}}
        _write_manifest(config, stages)
    except StageError as exc:
        _mark_failed(marker, exc.stage, exc.message)
        raise
    except KeyboardInterrupt as exc:
        _mark_failed(marker, name, "interrupted")
        raise KeyboardInterrupt(f"stage '{name}': interrupted") from exc
    except Exception as exc:
        _mark_failed(marker, name, str(exc))
        raise StageError(name, str(exc)) from exc
    marker.unlink(missing_ok=True)
    return outputs


STAGE_FUNCTIONS: dict[str, Callable[[PipelineConfig], list[Path]]] = {}


def _stage(body: Callable[[PipelineConfig], None]):
    """Make ``body`` stage_<name>: run by _run_stage, listed in STAGE_FUNCTIONS."""
    name = body.__name__.removeprefix("stage_")

    @functools.wraps(body, assigned=("__module__", "__name__", "__qualname__", "__doc__"))
    def stage(config: PipelineConfig) -> list[Path]:
        return _run_stage(name, config, body)

    STAGE_FUNCTIONS[name] = stage
    return stage


def _read_eligible(config: PipelineConfig) -> list[str]:
    with (config.out_dir / "eligible.txt").open("r", encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]


@_stage
def stage_ingest(config: PipelineConfig) -> None:
    """Parse the raw corpus, apply the journal allowlist, and write the
    normalized corpus, sorted by id, as column arrays."""
    corpus = parse_corpus(config.corpus)
    if config.allowlist is not None:
        corpus = filter_journals(corpus, read_allowlist(config.allowlist))
    save_corpus(corpus, config.out_dir)


@_stage
def stage_graph(config: PipelineConfig) -> None:
    """Build and save the citation network, and compute the eligible
    focal set. A set on which regress could fit no model is refused."""
    abstract_chars = load_char_counts(config.out_dir, "abstract")
    nodes = load_columns(config.out_dir, GRAPH_COLUMNS)
    graph = build_graph(nodes["ids"], nodes["ref_offsets"], nodes["ref_codes"],
                        nodes["ref_strings"])
    eligible = eligible_ids(graph, nodes["year"], abstract_chars, config.criteria())
    # Labels and Undefined scores only take papers away, so this is the
    # first stage that can tell, and classify, which may bill, comes next.
    widest = max(standard_model_specs(config.model_thresholds),
                 key=lambda spec: len(spec.column_names()))
    width = len(widest.column_names())
    relax = "relax " + ", ".join(STAGE_TABLE["graph"].keys) + " or the allowlist"
    if len(eligible) <= width:
        raise ValueError(f"{len(eligible)} papers are eligible, and model {widest.name!r} "
                         f"needs more than its {width} columns; {relax}")
    # an empty year group makes every model's year columns linearly dependent
    years = nodes["year"][[graph.index[pid] for pid in eligible]]
    for group in YearGroup:
        if not ((years >= group.start) & (years <= group.end)).any():
            raise ValueError(f"no eligible paper is from year group {group.label}, "
                             f"which every model needs; {relax}")
    save_graph(graph, config.out_dir)
    with atomic_write(config.out_dir / "eligible.txt") as fh:
        fh.write("".join(f"{pid}\n" for pid in eligible))


@_stage
def stage_classify(config: PipelineConfig) -> None:
    """Classify each eligible paper as Conceptual/Empirical/Other."""
    eligible = _read_eligible(config)
    row = {pid: k for k, pid in enumerate(load_columns(config.out_dir, ("ids",))["ids"])}
    texts = load_columns(config.out_dir, CLASSIFY_COLUMNS, rows=[row[pid] for pid in eligible])
    papers = (eligible, texts["title"], texts["abstract"])
    if config.stub:
        labels = classify_batch(*papers, backend=stub_backend)
    else:
        with ResponseCache(config.cache) as cache:
            labels = classify_batch(*papers, config=config.backend_config(), cache=cache)
    _write_classifications(labels, config.out_dir / "classifications.csv")


@_stage
def stage_disrupt(config: PipelineConfig) -> None:
    """Score every eligible paper at every configured threshold."""
    eligible = _read_eligible(config)
    scores = disruption_batch(load_graph(config.out_dir), eligible, ls=config.thresholds,
                              mode=config.mode, n_jobs=config.n_jobs)
    write_scores(scores, config.out_dir / "disruption.csv")


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
    eligible × ascending thresholds, in that order, as disruption_batch
    gives them; anything else means disruption.csv predates the current
    eligible set or thresholds."""
    ids, n_l = tuple(eligible), len(thresholds)
    if not (len(scores) == len(ids) * n_l
            and np.array_equal(scores.l, np.tile(thresholds, len(ids)))
            and all(scores.ids[j::n_l] == ids for j in range(n_l))):
        raise ValueError("disruption.csv does not score each eligible paper at each "
                         "threshold, in order; run stage 'disrupt' again")
    return scores.d.reshape(len(eligible), n_l)


def build_observation_rows(graph: CitationGraph, year: np.ndarray, n_authors: np.ndarray,
                           eligible: list[str], labels: Mapping[str, str],
                           thresholds: tuple[int, ...],
                           scores: ScoreTable) -> Observations:
    """Join the per-paper artifacts into model-ready columns, one entry
    per eligible paper in eligible order; ``year`` and ``n_authors`` are
    the corpus columns, in node order, and ``labels`` maps paper id to
    label. Papers whose label is neither Conceptual nor Empirical are
    dropped here, before any model sees them. The score rows must be
    eligible × ascending thresholds, in that order."""
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
        year=year[idx],
        n_authors=n_authors[idx],
        conceptual=conceptual[keep],
    )


@_stage
def stage_regress(config: PipelineConfig) -> None:
    """Fit the citation and disruption models on the eligible papers."""
    eligible = _read_eligible(config)
    labels = read_classifications(config.out_dir / "classifications.csv")
    scores = read_scores(config.out_dir / "disruption.csv")
    graph, nodes = load_graph(config.out_dir), load_columns(config.out_dir, REGRESS_COLUMNS)
    obs = build_observation_rows(graph, nodes["year"], nodes["n_authors"], eligible,
                                 labels.by_id(), config.thresholds, scores)
    if not len(obs):
        counts = Counter(labels.labels)
        raise ValueError(
            f"no eligible paper is labelled Conceptual or Empirical, so no model can be "
            f"fitted ({len(eligible)} eligible: "
            + ", ".join(f"{counts[label]} {label}" for label in LABELS) + ")")
    specs = standard_model_specs(config.model_thresholds)
    results = [fit_model(obs, spec) for spec in specs]
    citation_results = [r for r in results if r.model.startswith("citations")]
    d_results = [r for r in results if r.model.startswith("disruption")]
    write_results_csv(results, config.out_dir / "regression.csv")
    with atomic_write(config.out_dir / "citations_models.txt") as fh:
        fh.write(emit_table(citation_results,
                            "OLS models of in-corpus citation counts", decimals=3))
    with atomic_write(config.out_dir / "disruption_models.txt") as fh:
        fh.write(emit_table(d_results, "OLS models of disruption scores", decimals=4))


@_stage
def stage_report(config: PipelineConfig) -> None:
    """Combine degree statistics, label counts, agreement against any
    gold labels, and both model tables into one text report."""
    eligible = _read_eligible(config)
    labels = read_classifications(config.out_dir / "classifications.csv")
    cit_table = (config.out_dir / "citations_models.txt").read_text(encoding="utf-8")
    d_table = (config.out_dir / "disruption_models.txt").read_text(encoding="utf-8")
    graph = load_graph(config.out_dir)
    stats = degree_stats(graph)
    counts = Counter(load_columns(config.out_dir, ("journal",))["journal"])
    lines = ["Corpus", f"  papers: {graph.n_nodes}", f"  journals with papers: {len(counts)}"]
    if config.allowlist is not None:
        allow = read_allowlist(config.allowlist)
        lines.append(f"  journals allowed: {len(allow)}"
                     f" (no papers from {len(allow - set(counts))})")
    lines += [f"    {journal}: {counts[journal]}" for journal in sorted(counts)]
    lines += ["", "Citation network", f"  nodes: {stats['n_nodes']}",
              f"  edges: {stats['n_edges']}", f"  mean in-degree: {stats['mean_in_deg']:.3f}",
              f"  mean out-degree: {stats['mean_out_deg']:.3f}",
              f"  max in-degree: {stats['max_in_deg']}",
              f"  max out-degree: {stats['max_out_deg']}", "",
              f"Eligible papers: {len(eligible)}", "Labels"]
    label_counts, source_counts = Counter(labels.labels), Counter(labels.sources)
    lines += [f"  {label}: {label_counts[label]}" for label in sorted(label_counts)]
    lines.append("Label sources")
    lines += [f"  {source}: {source_counts[source]}" for source in sorted(source_counts)]
    gold = load_columns(config.out_dir, ("gold_label",),
                        rows=[graph.index[pid] for pid in eligible])["gold_label"]
    gold_labels = {pid: g for pid, g in zip(eligible, gold) if g is not None}
    if gold_labels:
        report = agreement_report(labels.by_id(), gold_labels)
        lines.append("Agreement with gold labels")
        lines += [f"  {label}: {report.correct_counts[label]}/{report.gold_counts[label]} "
                  f"({report.percent(label)})" for label in sorted(report.gold_counts)]
        lines.append(f"  overall: {report.overall_percent()}")
    lines += ["", cit_table, d_table]
    with atomic_write(config.out_dir / "report.txt") as fh:
        fh.write("\n".join(lines))


def run_pipeline(config: PipelineConfig) -> list[Path]:
    """All six stages in order. Artifacts land in config.out_dir, and each
    stage records itself in the manifest as it completes."""
    artifacts: list[Path] = []
    for stage in STAGES:
        artifacts.extend(STAGE_FUNCTIONS[stage](config))
    return artifacts
