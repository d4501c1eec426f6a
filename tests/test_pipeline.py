import csv
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from disruptkit.classify import LABELS, SOURCES, LabelTable
from disruptkit.corpus import EligibilityCriteria, parse_corpus
from disruptkit import pipeline
from disruptkit.disruption import MODES, ScoreTable, disruption_batch
from disruptkit.graph import build_graph
from disruptkit.pipeline import (
    ARTIFACT_STAGE,
    STAGE_FUNCTIONS,
    STAGES,
    PipelineConfig,
    StageError,
    build_observation_rows,
    load_config,
    read_classifications,
    run_pipeline,
    stage_graph,
    stage_ingest,
)
from disruptkit import cli

from httpstub import RecordingServer, completion

FIXTURES = Path(__file__).parent / "fixtures"

ARTIFACT_NAMES = list(ARTIFACT_STAGE)


def fixture_config(tmp_path, **overrides):
    values = {
        "corpus": FIXTURES / "corpus.jsonl",
        "allowlist": FIXTURES / "journals.txt",
        "out_dir": tmp_path / "out",
    }
    values.update(overrides)
    return load_config(FIXTURES / "pipeline.conf", overrides=values)


def read_artifacts(out_dir):
    return {name: (out_dir / name).read_bytes() for name in ARTIFACT_NAMES}


class TornFile:
    """A file whose first write stores half of what it is given and then
    fails, as on a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError("No space left on device")

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def tear_writes(monkeypatch, name):
    """Make every file opened for writing whose name contains ``name``
    (the artifact itself or a temporary file beside it) a TornFile."""
    real_open = Path.open

    def torn_open(self, mode="r", *args, **kwargs):
        fh = real_open(self, mode, *args, **kwargs)
        return TornFile(fh) if "w" in mode and name in self.name else fh

    monkeypatch.setattr(Path, "open", torn_open)


class TestConfig:
    def test_fixture_file_parses(self, tmp_path):
        config = fixture_config(tmp_path)
        assert config.min_out_links == 5
        assert config.min_in_links == 1
        assert config.thresholds == (1, 2, 3, 5)
        assert config.model_thresholds == (2, 3, 5)
        assert config.mode == "ref_indegree"
        assert config.stub is True
        assert config.criteria() == EligibilityCriteria(
            min_out_links=5, min_in_links=1, year_min=1991, year_max=2020,
            min_abstract_chars=501,
        )

    def test_overrides_win(self, tmp_path):
        config = fixture_config(tmp_path, min_in_links=3)
        assert config.min_in_links == 3

    def test_unknown_key_names_line(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("corpus = c.jsonl\nmystery = 1\n")
        with pytest.raises(ValueError, match="line 2: unknown config key 'mystery'"):
            load_config(path)

    def test_missing_equals_sign(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("just a line\n")
        with pytest.raises(ValueError, match="expected key = value"):
            load_config(path)

    def test_bad_boolean(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("stub = maybe\n")
        with pytest.raises(ValueError, match="expected a boolean"):
            load_config(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "ok.conf"
        path.write_text("# a comment\n\nmin_in_links = 2\n")
        assert load_config(path).min_in_links == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="mode"):
            PipelineConfig(mode="fancy")
        with pytest.raises(ValueError, match="non-empty"):
            PipelineConfig(thresholds=())
        with pytest.raises(ValueError, match="model_thresholds"):
            PipelineConfig(thresholds=(1, 2), model_thresholds=(5,))

    def test_backend_config_requires_endpoint(self):
        with pytest.raises(ValueError, match="endpoint and model"):
            PipelineConfig().backend_config()

    @pytest.mark.parametrize("line, message", [
        ("thresholds = 0,1,2,3,5", "thresholds must be >= 1, got 0"),
        ("min_out_links = -1", "min_out_links must be >= 0"),
        ("min_abstract_chars = -5", "min_abstract_chars must be >= 0"),
        ("year_min = 2021", "year_min must be <= year_max"),
        ("year_min = 1985", "year_min 1985 outside the year groups [1991, 2020]"),
        ("year_max = 2025", "year_max 2025 outside the year groups [1991, 2020]"),
        ("model_thresholds =", "model_thresholds must be non-empty"),
        ("n_jobs = 0", "n_jobs must be >= 1, got 0"),
        ("n_jobs = -2", "n_jobs must be >= 1, got -2"),
        ("stub = false\nmax_in_flight = 0", "max_in_flight must be >= 1"),
        ("stub = false\nretries = -1", "retries must be >= 0"),
        ("stub = false\nbackoff_base = -1", "backoff_base must be >= 0"),
        ("stub = false\ntimeout = -1", "timeout must be > 0"),
        ("stub = false\ntimeout = 0", "timeout must be > 0"),
        ("stub = false\ntimeout = nan", "timeout must be > 0"),
        # values that do not parse name the file and the line
        ("n_jobs = x", "{path}: line {line}: config key 'n_jobs': expected an integer, got 'x'"),
        ("thresholds = 1,a",
         "{path}: line {line}: config key 'thresholds': expected comma-separated integers, "
         "got '1,a'"),
        ("backoff_base = fast",
         "{path}: line {line}: config key 'backoff_base': expected a number, got 'fast'"),
        ("stub = maybe", "{path}: line {line}: config key 'stub': expected a boolean, got 'maybe'"),
    ])
    def test_values_a_stage_would_reject_fail_at_load(self, tmp_path, capsys, line, message):
        path = tmp_path / "bad.conf"
        text = (FIXTURES / "pipeline.conf").read_text() + line + "\n"
        path.write_text(text)
        message = message.format(path=path, line=len(text.splitlines()))
        with pytest.raises(ValueError) as excinfo:
            load_config(path)
        assert str(excinfo.value) == message
        out_dir = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out-dir", str(out_dir)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out_dir.exists()


# No whitespace: the file format strips it from both ends of a value.
_WORD = st.text("abcXYZ019:/._-=#", min_size=1, max_size=12)
_SPELLINGS = {True: ["1", "true", "yes", "on"], False: ["0", "false", "no", "off"]}


@st.composite
def configs(draw):
    thresholds = draw(st.lists(st.integers(1, 60), min_size=1, max_size=5, unique=True))
    year_min = draw(st.integers(1991, 2020))
    optional_path = st.none() | _WORD.map(Path)
    return PipelineConfig(
        corpus=Path(draw(_WORD)), allowlist=draw(optional_path), cache=draw(optional_path),
        out_dir=Path(draw(_WORD)),
        min_out_links=draw(st.integers(0, 10**6)), min_in_links=draw(st.integers(0, 10**6)),
        year_min=year_min, year_max=draw(st.integers(year_min, 2020)),
        min_abstract_chars=draw(st.integers(0, 10**6)),
        thresholds=tuple(thresholds), mode=draw(st.sampled_from(MODES)),
        n_jobs=draw(st.integers(1, 8)), stub=draw(st.booleans()),
        endpoint=draw(st.just("") | _WORD), model=draw(st.just("") | _WORD),
        api_key_env=draw(_WORD), max_in_flight=draw(st.integers(1, 16)),
        retries=draw(st.integers(0, 10)),
        backoff_base=draw(st.floats(0, 100, allow_nan=False)),
        timeout=draw(st.floats(0.001, 1e4, allow_nan=False)),
        model_thresholds=tuple(draw(st.lists(st.sampled_from(thresholds), min_size=1,
                                             unique=True))),
    )


class TestConfigFiles:
    @settings(max_examples=100, deadline=None)
    @given(configs(), st.data())
    def test_as_dict_written_as_a_file_loads_back(self, config, data):
        lines = []
        for key, value in config.as_dict().items():
            if value is None:
                continue
            if isinstance(value, bool):
                spelled = data.draw(st.sampled_from(_SPELLINGS[value]))
                text = data.draw(st.sampled_from([spelled, spelled.upper(), spelled.title()]))
            elif isinstance(value, list):
                text = ",".join(map(str, value))
            else:
                text = repr(value) if isinstance(value, float) else str(value)
            lines.append(f"{key} = {text}")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.conf"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            assert load_config(path) == config

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from(["", "# comment", "  ", "min_in_links = 3"]), max_size=6),
           st.text("abcdefghij_", min_size=1, max_size=10).filter(
               lambda k: k not in {f.name for f in dataclasses.fields(PipelineConfig)}))
    def test_unknown_key_named_with_its_line(self, before, key):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.conf"
            path.write_text("\n".join(before + [f"{key} = 1", "mode = nonsense"]) + "\n")
            with pytest.raises(ValueError) as excinfo:
                load_config(path)
            assert str(excinfo.value) == (
                f"{path}: line {len(before) + 1}: unknown config key {key!r}")

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(sorted(_SPELLINGS[True] + _SPELLINGS[False])), st.data())
    def test_boolean_spellings(self, word, data):
        spelled = "".join(data.draw(st.sampled_from([c, c.upper()])) for c in word)
        padding = st.text(" \t", max_size=2)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.conf"
            path.write_text(f"stub ={data.draw(padding)}{spelled}{data.draw(padding)}\n")
            assert load_config(path).stub is (word in _SPELLINGS[True])
            path.write_text(f"stub = {spelled}x\n")
            with pytest.raises(ValueError, match="expected a boolean"):
                load_config(path)


class TestFullRun:
    def test_produces_all_artifacts(self, tmp_path):
        config = fixture_config(tmp_path)
        artifacts = run_pipeline(config)
        assert sorted(p.name for p in artifacts) == sorted(ARTIFACT_NAMES)
        for name in ARTIFACT_NAMES:
            assert (config.out_dir / name).exists(), name
        assert (config.out_dir / "manifest.json").exists()
        assert not (config.out_dir / "FAILED").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        config = fixture_config(tmp_path)
        run_pipeline(config)
        first = read_artifacts(config.out_dir)
        first_manifest = (config.out_dir / "manifest.json").read_bytes()
        run_pipeline(config)
        assert read_artifacts(config.out_dir) == first
        assert (config.out_dir / "manifest.json").read_bytes() == first_manifest

    def test_stagewise_equals_full_run(self, tmp_path):
        full = fixture_config(tmp_path, out_dir=tmp_path / "full")
        run_pipeline(full)
        staged = fixture_config(tmp_path, out_dir=tmp_path / "staged")
        for stage in STAGES:
            STAGE_FUNCTIONS[stage](staged)
        assert read_artifacts(staged.out_dir) == read_artifacts(full.out_dir)
        # manifests agree on everything but the output location
        m_full = json.loads((full.out_dir / "manifest.json").read_text())
        m_staged = json.loads((staged.out_dir / "manifest.json").read_text())
        m_full["config"].pop("out_dir")
        m_staged["config"].pop("out_dir")
        assert m_full == m_staged

    def test_stagewise_and_full_run_write_identical_files(self, tmp_path):
        config = fixture_config(tmp_path)
        assert config.allowlist is not None
        run_pipeline(config)
        full = {p.name: p.read_bytes() for p in config.out_dir.iterdir()}
        for p in config.out_dir.iterdir():
            p.unlink()
        for stage in STAGES:
            STAGE_FUNCTIONS[stage](config)
        staged = {p.name: p.read_bytes() for p in config.out_dir.iterdir()}
        assert sorted(staged) == sorted(full)
        assert "manifest.json" in staged
        for name in full:
            assert staged[name] == full[name], name

    def test_journal_filter_applied(self, tmp_path):
        config = fixture_config(tmp_path)
        run_pipeline(config)
        corpus = parse_corpus(config.out_dir / "corpus.jsonl")
        assert "Synthetic Journal 07" not in corpus.journal
        assert len(corpus) < 200

    def test_report_counts_allowlisted_journals_without_papers(self, tmp_path):
        config = fixture_config(tmp_path)
        run_pipeline(config)
        report = (config.out_dir / "report.txt").read_text()
        # 9 allowed journals, two of which contribute nothing
        assert "journals allowed: 9 (no papers from 2)" in report
        assert "Agreement with gold labels" in report
        assert "OLS models of in-corpus citation counts" in report
        assert "OLS models of disruption scores" in report

    def test_report_fails_when_the_allowlist_is_gone(self, tmp_path):
        allowlist = tmp_path / "journals.txt"
        allowlist.write_bytes((FIXTURES / "journals.txt").read_bytes())
        config = fixture_config(tmp_path, allowlist=allowlist)
        run_pipeline(config)
        allowlist.unlink()
        with pytest.raises(StageError) as excinfo:
            STAGE_FUNCTIONS["report"](config)
        assert excinfo.value.stage == "report"
        assert excinfo.value.message == f"allowlist file not found: {allowlist}"
        assert (config.out_dir / "FAILED").read_text().startswith("report: allowlist")

    def test_missing_corpus_fails_before_any_stage(self, tmp_path):
        # run fails in ingest exactly as the stage run alone does
        config = fixture_config(tmp_path, corpus=tmp_path / "nope.jsonl")
        outcomes = []
        for run in (run_pipeline, stage_ingest):
            with pytest.raises(StageError) as excinfo:
                run(config)
            outcomes.append((str(excinfo.value), (config.out_dir / "FAILED").read_text()))
        assert outcomes[0] == outcomes[1] == (
            f"stage 'ingest': corpus file not found: {config.corpus}",
            f"ingest: corpus file not found: {config.corpus}\n")
        assert not (config.out_dir / "corpus.jsonl").exists()

    def test_missing_allowlist_fails_in_ingest(self, tmp_path):
        config = fixture_config(tmp_path, allowlist=tmp_path / "nope.txt")
        with pytest.raises(StageError) as excinfo:
            run_pipeline(config)
        message = f"allowlist file not found: {config.allowlist}"
        assert str(excinfo.value) == f"stage 'ingest': {message}"
        assert (config.out_dir / "FAILED").read_text() == f"ingest: {message}\n"


class TestManifest:
    def test_contents(self, tmp_path):
        config = fixture_config(tmp_path)
        run_pipeline(config)
        manifest = json.loads((config.out_dir / "manifest.json").read_text())
        assert set(manifest) == {"artifacts", "config", "inputs", "versions"}
        assert set(manifest["artifacts"]) == set(ARTIFACT_NAMES)
        # hashes are real content hashes
        ids = (config.out_dir / "graph_ids.npy").read_bytes()
        assert manifest["artifacts"]["graph_ids.npy"] == hashlib.sha256(ids).hexdigest()
        corpus_bytes = (FIXTURES / "corpus.jsonl").read_bytes()
        assert manifest["inputs"]["corpus"] == hashlib.sha256(corpus_bytes).hexdigest()
        assert "allowlist" in manifest["inputs"]
        assert set(manifest["versions"]) == {"disruptkit", "python", "numpy", "scipy"}
        # nothing clock-derived anywhere (determinism itself is covered by
        # the byte-identical rerun test)
        assert "timestamp" not in json.dumps(manifest).lower()

    def test_failed_write_keeps_old_manifest(self, tmp_path, monkeypatch):
        config = fixture_config(tmp_path)
        run_pipeline(config)
        path = config.out_dir / "manifest.json"
        before = path.read_bytes()
        listing = sorted(p.name for p in config.out_dir.iterdir())
        tear_writes(monkeypatch, "manifest")
        with pytest.raises(StageError, match="No space left"):
            stage_ingest(config)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in config.out_dir.iterdir()) == sorted(listing + ["FAILED"])

    @pytest.mark.parametrize("name, stage", sorted(ARTIFACT_STAGE.items()))
    def test_failed_write_keeps_old_artifact(self, tmp_path, monkeypatch, name, stage):
        config = fixture_config(tmp_path)
        run_pipeline(config)
        path = config.out_dir / name
        before = path.read_bytes()
        listing = sorted(p.name for p in config.out_dir.iterdir())
        tear_writes(monkeypatch, name)
        with pytest.raises(StageError, match="No space left"):
            STAGE_FUNCTIONS[stage](config)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert not [p.name for p in config.out_dir.iterdir() if p.name.endswith(".tmp")]
        assert sorted(p.name for p in config.out_dir.iterdir()) == sorted(listing + ["FAILED"])

    def test_unencodable_record_keeps_old_corpus(self, tmp_path):
        config = fixture_config(tmp_path)
        stage_ingest(config)
        path = config.out_dir / "corpus.jsonl"
        before = path.read_bytes()
        listing = sorted(p.name for p in config.out_dir.iterdir())
        # an escaped lone surrogate parses, but has no UTF-8 encoding
        lines = (FIXTURES / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        assert record["journal"] in (FIXTURES / "journals.txt").read_text().splitlines()
        lines[0] = json.dumps({**record, "title": "t\ud800"})
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(StageError) as excinfo:
            stage_ingest(fixture_config(tmp_path, corpus=bad))
        assert excinfo.value.stage == "ingest"
        assert f"record {record['id']!r}: not encodable as UTF-8" in excinfo.value.message
        assert path.read_bytes() == before
        assert sorted(p.name for p in config.out_dir.iterdir()) == sorted(listing + ["FAILED"])


class TestStageSequencing:
    def test_missing_prerequisite_names_producer(self, tmp_path):
        config = fixture_config(tmp_path)
        with pytest.raises(StageError) as excinfo:
            stage_graph(config)
        assert excinfo.value.stage == "graph"
        assert "run stage 'ingest' first" in excinfo.value.message
        assert str(excinfo.value) == f"stage 'graph': {excinfo.value.message}"

    def test_failure_leaves_marker_and_success_clears_it(self, tmp_path):
        config = fixture_config(tmp_path)
        with pytest.raises(StageError):
            stage_graph(config)
        marker = config.out_dir / "FAILED"
        assert marker.exists()
        assert marker.read_text().startswith("graph:")
        stage_ingest(config)
        stage_graph(config)
        assert not marker.exists()

    def test_marker_that_cannot_be_written_keeps_the_stage_error(self, tmp_path):
        config = fixture_config(tmp_path)
        (config.out_dir / "FAILED").mkdir(parents=True)
        with pytest.raises(StageError, match="run stage 'ingest' first"):
            stage_graph(config)

    def test_each_later_stage_requires_its_inputs(self, tmp_path):
        config = fixture_config(tmp_path)
        stage_ingest(config)
        for stage in ("classify", "disrupt"):
            with pytest.raises(StageError, match="run stage 'graph' first"):
                STAGE_FUNCTIONS[stage](config)

    @pytest.mark.parametrize("stage", ["disrupt", "regress", "report"])
    def test_missing_graph_array_names_graph_stage(self, tmp_path, stage):
        config = fixture_config(tmp_path)
        run_pipeline(config)
        (config.out_dir / "graph_fwd_indices.npy").unlink()
        with pytest.raises(StageError) as excinfo:
            STAGE_FUNCTIONS[stage](config)
        assert excinfo.value.stage == stage
        assert ("missing artifact 'graph_fwd_indices.npy'; run stage 'graph' first"
                in str(excinfo.value))
        marker = (config.out_dir / "FAILED").read_text()
        assert marker.startswith(f"{stage}:") and "run stage 'graph' first" in marker

    def test_only_ingest_graph_and_classify_parse_the_corpus(self, tmp_path, monkeypatch):
        calls = {"parse_corpus": 0, "build_graph": 0}

        def counting(name):
            real = getattr(pipeline, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(pipeline, name, counting(name))
        config = fixture_config(tmp_path)
        run_pipeline(config)
        # ingest hands its records to graph and classify
        assert calls == {"parse_corpus": 1, "build_graph": 1}
        # run alone, each of them parses corpus.jsonl
        for stage in ("graph", "classify"):
            calls["parse_corpus"] = 0
            STAGE_FUNCTIONS[stage](config)
            assert calls["parse_corpus"] == 1, stage

    def test_eligible_list_of_an_older_corpus_names_the_graph_stage(self, tmp_path, capsys):
        config = fixture_config(tmp_path)
        run_pipeline(config)
        # a narrower allowlist drops papers that eligible.txt still names
        allowlist = tmp_path / "three.txt"
        journals = (FIXTURES / "journals.txt").read_text().splitlines(keepends=True)
        allowlist.write_text("".join(journals[:3]))
        conf = tmp_path / "three.conf"
        conf.write_text((FIXTURES / "pipeline.conf").read_text()
                        + f"corpus = {FIXTURES / 'corpus.jsonl'}\n"
                        + f"allowlist = {allowlist}\nout_dir = {config.out_dir}\n")
        assert cli.main(["ingest", "--config", str(conf)]) == 0
        assert cli.main(["classify", "--config", str(conf)]) == 1
        marker = (config.out_dir / "FAILED").read_text()
        message = marker.removeprefix("classify: ").rstrip("\n")
        assert re.fullmatch(r"eligible\.txt names 'P\d{6}', which is not in corpus\.jsonl; "
                            r"run stage 'graph' again", message), marker
        assert f"error: stage 'classify': {message}" in capsys.readouterr().err

    def test_unexpected_exception_is_wrapped(self, tmp_path):
        bad_corpus = tmp_path / "broken.jsonl"
        bad_corpus.write_text("{not json\n")
        config = fixture_config(tmp_path, corpus=bad_corpus)
        with pytest.raises(StageError) as excinfo:
            stage_ingest(config)
        assert excinfo.value.stage == "ingest"
        assert "invalid JSON" in excinfo.value.message
        assert (config.out_dir / "FAILED").exists()

    def test_id_that_eligible_txt_would_change_fails_at_ingest(self, tmp_path):
        # eligible.txt strips its lines, so "a " would come back as "a"
        corpus = tmp_path / "corpus.jsonl"
        refs = {"a ": [], "b": ["a "], "c": ["a ", "b"], "d": ["b", "c"]}
        corpus.write_text("".join(
            json.dumps({"id": pid, "title": "t", "abstract": "x", "journal": "J",
                        "year": 2000, "n_authors": 1, "references": cited}) + "\n"
            for pid, cited in refs.items()))
        config = fixture_config(tmp_path, corpus=corpus, allowlist=None, min_out_links=0,
                                min_in_links=0, min_abstract_chars=0)
        with pytest.raises(StageError) as excinfo:
            run_pipeline(config)
        assert str(excinfo.value) == (
            f"stage 'ingest': {corpus}: line 1: record 'a ': id must have no "
            "surrounding whitespace or line break")


@st.composite
def label_tables(draw):
    n = draw(st.integers(0, 6))

    def column(values):
        return tuple(draw(st.lists(values, min_size=n, max_size=n)))

    return LabelTable(ids=column(st.text()), labels=column(st.sampled_from(LABELS)),
                      sources=column(st.sampled_from(SOURCES)), rationales=column(st.text()))


class TestClassifyStage:
    @settings(max_examples=150, deadline=None)
    @given(label_tables())
    @example(LabelTable(ids=("p1",), labels=("Other",), sources=("error",),
                        rationales=("a\rb",)))
    def test_label_table_round_trip(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "classifications.csv"
            pipeline._write_classifications(table, path)
            assert read_classifications(path) == table
            if not any("\r" in field for field in table.ids + table.rationales):
                # as one csv.writer writes it
                plain = io.StringIO(newline="")
                csv.writer(plain, lineterminator="\n").writerows(
                    [("id", "label", "source", "rationale"),
                     *zip(table.ids, table.labels, table.sources, table.rationales)])
                assert path.read_bytes() == plain.getvalue().encode("utf-8")

    def test_stub_sources_and_no_network(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("network call attempted")

        monkeypatch.setattr("urllib.request.urlopen", boom)
        config = fixture_config(tmp_path)
        run_pipeline(config)
        results = read_classifications(config.out_dir / "classifications.csv")
        assert results.ids
        assert set(results.sources) == {"stub"}

    def test_classifications_header_is_validated(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("id,label\n")
        with pytest.raises(ValueError, match="unexpected header"):
            read_classifications(path)

    @pytest.mark.parametrize("row, problem", [
        ("p2,Mixed,stub,r", "label must be one of .* got 'Mixed'"),
        ("p2,Other,oracle,r", "source must be one of .* got 'oracle'"),
        ("p2,Other,stub", r"malformed row \['p2', 'Other', 'stub'\]"),
    ], ids=["label", "source", "short"])
    def test_classification_rows_are_validated(self, tmp_path, row, problem):
        path = tmp_path / "c.csv"
        path.write_text(f"id,label,source,rationale\np1,Empirical,cache,\"a, b\"\n{row}\n")
        with pytest.raises(ValueError, match=problem):
            read_classifications(path)

    @pytest.mark.parametrize("rows, problem", [
        (["p2,Other,oracle,r", "p3,Mixed,stub"], "got 'oracle'"),
        (["p2,Mixed,stub", "p3,Other,oracle,r"], r"malformed row \['p2', 'Mixed', 'stub'\]"),
        (["p2,Other,oracle,r", "p3,Mixed,stub,r"], "got 'oracle'"),
    ], ids=["source-then-short", "short-then-source", "source-then-label"])
    def test_first_bad_classification_row_is_named(self, tmp_path, rows, problem):
        path = tmp_path / "c.csv"
        path.write_text("id,label,source,rationale\np1,Empirical,cache,r\n"
                        + "".join(f"{row}\n" for row in rows))
        with pytest.raises(ValueError, match=problem):
            read_classifications(path)

    def test_classifications_read_as_columns(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text('id,label,source,rationale\np1,Empirical,cache,"a, b"\n'
                        "\np2,Conceptual,error,\n")
        table = read_classifications(path)
        assert (table.ids, table.labels, table.sources) == (
            ("p1", "p2"), ("Empirical", "Conceptual"), ("cache", "error"))
        assert table.by_id() == {"p1": "Empirical", "p2": "Conceptual"}

    def test_http_backend_with_cache_rerun_makes_no_calls(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.setenv("DISRUPTKIT_API_KEY", "sk-test")
        server = RecordingServer()
        try:
            config = fixture_config(
                tmp_path,
                stub=False,
                endpoint=server.endpoint,
                model="test-model",
                cache=tmp_path / "cache.jsonl",
                max_in_flight=8,
            )
            stage_ingest(config)
            stage_graph(config)
            STAGE_FUNCTIONS["classify"](config)
            results = read_classifications(config.out_dir / "classifications.csv")
            assert set(results.sources) == {"backend"}
            n_first = len(server.calls)
            assert n_first == len(results.ids)

            STAGE_FUNCTIONS["classify"](config)
            rerun = read_classifications(config.out_dir / "classifications.csv")
            assert set(rerun.sources) == {"cache"}
            assert rerun.labels == results.labels
            assert len(server.calls) == n_first
        finally:
            server.close()

    @pytest.mark.parametrize("cached", [False, True])
    def test_reply_with_no_utf8_form_is_an_error_row(self, tmp_path, monkeypatch, cached):
        monkeypatch.setenv("DISRUPTKIT_API_KEY", "sk-test")
        out_dir, cache = tmp_path / "out", tmp_path / "cache.jsonl"
        path = tmp_path / "http.conf"
        server = RecordingServer()
        path.write_text(
            (FIXTURES / "pipeline.conf").read_text()
            + f"corpus = {FIXTURES / 'corpus.jsonl'}\nallowlist = {FIXTURES / 'journals.txt'}\n"
            + f"stub = false\nendpoint = {server.endpoint}\nmodel = test-model\n"
            + "max_in_flight = 1\nbackoff_base = 0\n" + (f"cache = {cache}\n" if cached else ""))
        first_prompt = []

        def behavior(n, body):
            # The first paper asked about gets a lone surrogate, every time.
            prompt = body["messages"][0]["content"]
            if not first_prompt:
                first_prompt.append(prompt)
            text = ("\ud800" if prompt == first_prompt[0]
                    else "This article is in the empirical category because data.")
            return 200, completion(text)

        server.server.behavior = behavior
        base = ["--config", str(path), "--out-dir", str(out_dir)]
        try:
            assert cli.main(["ingest"] + base) == 0
            assert cli.main(["graph"] + base) == 0
            for run in range(1 + cached):
                cached_before = cache.read_bytes() if cache.exists() else b""
                n_calls = len(server.calls)
                assert cli.main(["classify"] + base) == 0
                table = read_classifications(out_dir / "classifications.csv")
                assert table.sources.count("error") == 1
                assert "malformed backend response" in table.rationales[
                    table.sources.index("error")]
                if run:
                    assert set(table.sources) == {"cache", "error"}
                    assert len(server.calls) == n_calls + 1  # not retried
                    assert cache.read_bytes() == cached_before
            assert cache.exists() == cached
        finally:
            server.close()

    def test_cache_file_is_closed_after_the_stage(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DISRUPTKIT_API_KEY", "sk-test")
        handles = []

        class RecordingCache(pipeline.ResponseCache):
            def put(self, *args):
                super().put(*args)
                handles.append(self._fh)

        monkeypatch.setattr(pipeline, "ResponseCache", RecordingCache)
        server = RecordingServer()
        try:
            config = fixture_config(tmp_path, stub=False, endpoint=server.endpoint,
                                    model="test-model", cache=tmp_path / "cache.jsonl")
            stage_ingest(config)
            stage_graph(config)
            STAGE_FUNCTIONS["classify"](config)
        finally:
            server.close()
        assert handles and all(fh.closed for fh in handles)
        assert len(set(map(id, handles))) == 1  # one handle for the whole batch


class TestObservationRows:
    def make_inputs(self):
        corpus = parse_corpus(FIXTURES / "corpus.jsonl")
        graph = build_graph(corpus)
        eligible = ["P000050", "P000060", "P000070"]
        scores = disruption_batch(graph, eligible, ls=(1, 2))
        return corpus, graph, eligible, scores

    def test_joins_and_drops_other(self):
        corpus, graph, eligible, scores = self.make_inputs()
        labels = {"P000050": "Conceptual", "P000060": "Other", "P000070": "Empirical"}
        obs = build_observation_rows(graph, eligible, labels, (1, 2), scores)
        assert obs.ids == ("P000050", "P000070")
        assert obs.conceptual[0] == 1 and obs.conceptual[1] == 0
        for k, pid in enumerate(obs.ids):
            idx = graph.index[pid]
            assert obs.y_citations[k] == int(graph.in_deg[idx])
            assert set(obs.y_d) == {1, 2}
            assert obs.year[k] == corpus.year[idx]
            assert obs.n_authors[k] == corpus.n_authors[idx]

    def test_unclassified_papers_are_skipped(self):
        corpus, graph, eligible, scores = self.make_inputs()
        obs = build_observation_rows(graph, eligible, {"P000050": "Empirical"}, (1, 2),
                                     scores)
        assert obs.ids == ("P000050",)


def take_rows(scores, rows):
    """The table's rows at the given positions, in that order."""
    return ScoreTable(ids=tuple(scores.ids[k] for k in rows), l=scores.l[rows],
                      n_f=scores.n_f[rows], n_b=scores.n_b[rows],
                      n_r=scores.n_r[rows], d=scores.d[rows])


class TestStaleScores:
    def join(self, scores, thresholds=(1, 2)):
        _, graph, eligible, _ = TestObservationRows().make_inputs()
        labels = dict.fromkeys(eligible, "Empirical")
        return build_observation_rows(graph, eligible, labels, thresholds, scores)

    def test_exact_rows_in_any_order_join(self):
        _, _, _, scores = TestObservationRows().make_inputs()
        forward = self.join(scores)
        backward = self.join(take_rows(scores, list(range(len(scores)))[::-1]))
        assert forward.ids == backward.ids
        for l in (1, 2):
            np.testing.assert_array_equal(forward.y_d[l], backward.y_d[l])

    @pytest.mark.parametrize("rows, thresholds, problem", [
        ([0, 1, 2, 3, 4], (1, 2), r"no score for \('P000070', l=2\)"),
        ([0, 1, 2, 3, 4, 5, 5], (1, 2), r"scores \('P000070', l=2\) 2 times"),
        ([0, 1, 2, 3, 4, 4], (1, 2), r"scores \('P000070', l=1\) 2 times"),
        ([0, 1, 2, 3, 4, 5], (1,), r"scores \('P000050', l=2\), which is not"),
        ([0, 1, 2, 3, 4, 5], (1, 2, 3), r"no score for \('P000050', l=3\)"),
    ])
    def test_rows_other_than_eligible_times_thresholds_fail(self, rows, thresholds, problem):
        _, _, _, scores = TestObservationRows().make_inputs()
        with pytest.raises(ValueError, match=problem + ".*run stage 'disrupt' again"):
            self.join(take_rows(scores, rows), thresholds)

    def test_score_for_a_paper_no_longer_eligible_fails(self):
        _, _, _, scores = TestObservationRows().make_inputs()
        extra = ScoreTable(ids=scores.ids + ("P000080",), l=np.append(scores.l, 1),
                           n_f=np.append(scores.n_f, 0), n_b=np.append(scores.n_b, 0),
                           n_r=np.append(scores.n_r, 0), d=np.append(scores.d, np.nan))
        with pytest.raises(ValueError, match=r"scores \('P000080', l=1\), which is not"):
            self.join(extra)

    def test_graph_rerun_with_other_eligibility_needs_disrupt(self, tmp_path):
        run_pipeline(fixture_config(tmp_path))
        config = fixture_config(tmp_path, min_out_links=8)
        stage_graph(config)
        with pytest.raises(StageError) as excinfo:
            STAGE_FUNCTIONS["regress"](config)
        assert excinfo.value.stage == "regress"
        assert "run stage 'disrupt' again" in excinfo.value.message
        marker = (config.out_dir / "FAILED").read_text()
        assert marker.startswith("regress:") and "run stage 'disrupt' again" in marker
        STAGE_FUNCTIONS["disrupt"](config)
        # the labels still cover the papers eligible before
        with pytest.raises(StageError) as excinfo:
            STAGE_FUNCTIONS["regress"](config)
        assert "run stage 'classify' again" in excinfo.value.message
        assert "which is not an eligible paper" in excinfo.value.message
        marker = (config.out_dir / "FAILED").read_text()
        assert marker.startswith("regress:") and "run stage 'classify' again" in marker
        STAGE_FUNCTIONS["classify"](config)
        STAGE_FUNCTIONS["regress"](config)
        assert not (config.out_dir / "FAILED").exists()


class TestStaleLabels:
    @pytest.fixture
    def finished_run(self, tmp_path):
        config = fixture_config(tmp_path)
        run_pipeline(config)
        path = config.out_dir / "classifications.csv"
        header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
        return config, path, header, rows

    @pytest.mark.parametrize("edit, problem", [
        (lambda rows: rows[1:], "it has no label for 'P000"),
        (lambda rows: rows + rows[-1:], "it labels 'P000.*' more than once"),
        (lambda rows: rows + ["P999999,Empirical,stub,\n"],
         "it labels 'P999999', which is not an eligible paper"),
    ], ids=["missing", "duplicate", "extra"])
    def test_labels_other_than_eligible_fail(self, finished_run, edit, problem):
        config, path, header, rows = finished_run
        path.write_text(header + "".join(edit(rows)), encoding="utf-8")
        with pytest.raises(StageError, match=problem + ".*run stage 'classify' again"):
            STAGE_FUNCTIONS["regress"](config)
        assert (config.out_dir / "FAILED").read_text().startswith("regress:")

    def test_report_refuses_labels_of_an_older_eligible_set(self, finished_run):
        config = finished_run[0]
        STAGE_FUNCTIONS["graph"](dataclasses.replace(config, min_out_links=8))
        with pytest.raises(StageError) as excinfo:
            STAGE_FUNCTIONS["report"](config)
        assert excinfo.value.stage == "report"
        assert "classifications.csv does not match eligible.txt" in excinfo.value.message
        assert excinfo.value.message.endswith("run stage 'classify' again")
        assert (config.out_dir / "FAILED").read_text().startswith("report:")

    @pytest.mark.parametrize("edit, problem", [
        (lambda rows: rows[1:], "it has no label for 'P000"),
        (lambda rows: rows + rows[-1:], "it labels 'P000.*' more than once"),
        (lambda rows: rows + ["P999999,Empirical,stub,\n"],
         "it labels 'P999999', which is not an eligible paper"),
    ], ids=["missing", "duplicate", "extra"])
    def test_report_refuses_labels_other_than_eligible(self, finished_run, edit, problem):
        config, path, header, rows = finished_run
        path.write_text(header + "".join(edit(rows)), encoding="utf-8")
        with pytest.raises(StageError, match=problem + ".*run stage 'classify' again"):
            STAGE_FUNCTIONS["report"](config)
        assert (config.out_dir / "FAILED").read_text().startswith("report:")

    def test_labels_in_any_order_pass(self, finished_run):
        config, path, header, rows = finished_run
        before = (config.out_dir / "regression.csv").read_bytes()
        path.write_text(header + "".join(reversed(rows)), encoding="utf-8")
        STAGE_FUNCTIONS["regress"](config)
        assert (config.out_dir / "regression.csv").read_bytes() == before


class TestCli:
    def test_report_process_leaves_heavy_modules_unloaded(self, tmp_path):
        config = fixture_config(tmp_path)
        run_pipeline(config)
        heavy = ("scipy.sparse", "scipy.linalg", "requests", "urllib.request", "http.client")
        src = str(Path(pipeline.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys; from disruptkit.cli import main; "
             "code = main(sys.argv[1:]); "
             f"print([m for m in {heavy!r} if m in sys.modules]); sys.exit(code)",
             "report", "--config", str(FIXTURES / "pipeline.conf"),
             "--out-dir", str(config.out_dir)],
            capture_output=True, text=True, check=True, cwd=FIXTURES,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert out.stdout.splitlines()[-1] == "[]"

    def test_synth_command(self, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        code = cli.main(["synth", "--out", str(out), "--n-papers", "50",
                         "--seed", "3"])
        assert code == 0
        assert out.exists()
        assert "wrote 50 papers" in capsys.readouterr().out

    def test_synth_into_a_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.jsonl"
        code = cli.main(["synth", "--out", str(out), "--n-papers", "50", "--seed", "3"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert ".tmp" not in err

    def test_out_dir_that_is_a_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(FIXTURES)
        out_file = tmp_path / "outfile"
        out_file.write_text("")
        code = cli.main(["run", "--config", str(FIXTURES / "pipeline.conf"),
                         "--out-dir", str(out_file)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: stage 'ingest': cannot create output directory {out_file}: "
            "File exists\n")

    def test_synth_rejects_bad_parameters(self, tmp_path, capsys):
        code = cli.main(["synth", "--out", str(tmp_path / "c.jsonl"),
                         "--n-papers", "3", "--seed", "1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_run_command(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = cli.main([
            "run", "--config", str(FIXTURES / "pipeline.conf"),
            "--out-dir", str(out_dir),
        ])
        # relative corpus/allowlist paths in the fixture config resolve
        # against the working directory, so point them explicitly
        assert code == 1  # corpus.jsonl is not in the cwd

    def test_run_command_with_absolute_paths(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(FIXTURES)
        out_dir = tmp_path / "out"
        code = cli.main([
            "run", "--config", str(FIXTURES / "pipeline.conf"),
            "--out-dir", str(out_dir),
        ])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert str(out_dir / "report.txt") in printed
        assert (out_dir / "report.txt").exists()

    def test_stage_commands_in_sequence(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(FIXTURES)
        out_dir = tmp_path / "out"
        base = ["--config", str(FIXTURES / "pipeline.conf"),
                "--out-dir", str(out_dir)]
        assert cli.main(["ingest"] + base) == 0
        assert cli.main(["graph"] + base) == 0
        capsys.readouterr()
        # skipping ahead fails with the producing stage named
        code = cli.main(["regress"] + base)
        assert code == 1
        assert "run stage 'classify' first" in capsys.readouterr().err

    def test_bad_usage_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["run"])  # --config is required
        assert excinfo.value.code == 2
