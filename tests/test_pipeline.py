import csv
import dataclasses
import fnmatch
import hashlib
import io
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from disruptkit.classify import LABELS, SOURCES, LabelTable
from disruptkit.corpus import (CORPUS_FILES, EligibilityCriteria, corpus_files, load_corpus,
                               parse_corpus, write_corpus)
from disruptkit import corpus as corpus_module, pipeline
from disruptkit.disruption import MODES, disruption_batch, read_scores, write_scores
from disruptkit.pipeline import (
    STAGE_FUNCTIONS,
    STAGE_TABLE,
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

from corpus_columns import graph_of
from httpstub import RecordingServer, completion

FIXTURES = Path(__file__).parent / "fixtures"

WRITTEN_BY = sorted((name, stage) for stage, spec in STAGE_TABLE.items() for name in spec.writes)
ARTIFACT_NAMES = [name for name, _ in WRITTEN_BY]


def fixture_config(tmp_path, **overrides):
    values = {
        "corpus": FIXTURES / "corpus.jsonl",
        "allowlist": FIXTURES / "journals.txt",
        "out_dir": tmp_path / "out",
    }
    values.update(overrides)
    return load_config(FIXTURES / "pipeline.conf", overrides=values)


def fixture_conf_text(**values):
    """The fixture config's text with a `key = value` line for each of
    ``values`` in place of the fixture's line for that key, since a key
    given twice is an error. A value of None only drops the key."""
    fixture = (FIXTURES / "pipeline.conf").read_text().splitlines(keepends=True)
    return ("".join(line for line in fixture if line.partition("=")[0].strip() not in values)
            + "".join(f"{key} = {value}\n" for key, value in values.items()
                      if value is not None))


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

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # as a spreadsheet's "CSV UTF-8" starts a file
        path = tmp_path / "bom.conf"
        path.write_bytes(b"\xef\xbb\xbfmin_in_links = 2\nstub = true\n")
        assert load_config(path).min_in_links == 2

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "ok.conf"
        path.write_text("# a comment\n\nmin_in_links = 2\nstub = true\n")
        assert load_config(path).min_in_links == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="mode"):
            PipelineConfig(mode="fancy")
        with pytest.raises(ValueError, match="non-empty"):
            PipelineConfig(thresholds=())
        with pytest.raises(ValueError, match="model_thresholds"):
            PipelineConfig(thresholds=(1, 2), model_thresholds=(5,))

    def test_backend_config_requires_endpoint(self):
        with pytest.raises(ValueError, match="^endpoint must be an http or https URL, got ''$"):
            PipelineConfig()
        with pytest.raises(ValueError, match="^model must be non-empty$"):
            PipelineConfig(endpoint="http://backend.example/v1")
        assert PipelineConfig(stub=True).endpoint == ""

    @pytest.mark.parametrize("line, message", [
        ("thresholds = 0,1,2,3,5", "thresholds must be >= 1, got 0"),
        ("min_out_links = -1", "min_out_links must be >= 0"),
        ("min_abstract_chars = -5", "min_abstract_chars must be >= 0"),
        ("year_min = 2021", "year_min must be <= year_max"),
        ("year_min = 1985", "year_min 1985 outside the year groups [1991, 2020]"),
        ("year_max = 2025", "year_max 2025 outside the year groups [1991, 2020]"),
        ("year_min = 1996",
         "year_min 1996 leaves year group 1991-1995 empty; regress needs papers in every group"),
        ("year_max = 2015",
         "year_max 2015 leaves year group 2016-2020 empty; regress needs papers in every group"),
        ("model_thresholds =", "model_thresholds must be non-empty"),
        ("model_thresholds = 2,3,2", "model_thresholds lists 2 more than once"),
        ("n_jobs = 0", "n_jobs must be >= 1, got 0"),
        ("n_jobs = -2", "n_jobs must be >= 1, got -2"),
        ("stub = false\nmax_in_flight = 0", "max_in_flight must be >= 1"),
        ("stub = false\nretries = -1", "retries must be >= 0"),
        ("stub = false\nbackoff_base = -1", "backoff_base must be >= 0"),
        ("stub = false\ntimeout = -1", "timeout must be > 0"),
        ("stub = false\ntimeout = 0", "timeout must be > 0"),
        ("stub = false\ntimeout = nan", "timeout must be > 0"),
        ("stub = false\ntimeout = inf", "timeout must be finite"),
        ("stub = false\nretries = 1\nbackoff_base = inf", "backoff_base must be finite"),
        # classify's endpoint and model, before ingest writes anything
        ("stub = false", "endpoint must be an http or https URL, got ''"),
        ("stub = false\nendpoint = http:///v1/chat\nmodel = m",
         "endpoint 'http:///v1/chat': no host given"),
        ("stub = false\nendpoint = http://127.0.0.1:99999/v1\nmodel = m",
         "endpoint 'http://127.0.0.1:99999/v1': Port out of range 0-65535"),
        ("stub = false\nendpoint = ftp://backend.example/v1\nmodel = m",
         "endpoint must be an http or https URL, got 'ftp://backend.example/v1'"),
        ("stub = false\nendpoint = http://backend.example/v1", "model must be non-empty"),
        ("stub = false\nendpoint = http://backend.example/v1\nmodel = m",
         "cache must be set when stub is false: it keeps every answer the backend is paid for"),
        # values that do not parse name the file and the line
        ("n_jobs = x", "{path}: line {line}: config key 'n_jobs': expected an integer, got 'x'"),
        ("thresholds = 1,a",
         "{path}: line {line}: config key 'thresholds': expected comma-separated integers, "
         "got '1,a'"),
        ("backoff_base = fast",
         "{path}: line {line}: config key 'backoff_base': expected a number, got 'fast'"),
        ("stub = maybe", "{path}: line {line}: config key 'stub': expected a boolean, got 'maybe'"),
        # an empty path would name the working directory
        *((f"{key} =", f"{{path}}: line {{line}}: config key '{key}': expected a path, got ''")
          for key in ("corpus", "allowlist", "cache", "out_dir")),
    ])
    def test_values_a_stage_would_reject_fail_at_load(self, tmp_path, capsys, line, message):
        path = tmp_path / "bad.conf"
        text = fixture_conf_text(**{key.strip(): value.strip() for key, _, value in
                                    (entry.partition("=") for entry in line.splitlines())})
        path.write_text(text)
        message = message.format(path=path, line=len(text.splitlines()))
        with pytest.raises(ValueError) as excinfo:
            load_config(path)
        assert str(excinfo.value) == message
        out_dir = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out-dir", str(out_dir)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_an_empty_out_dir_writes_nothing(self, tmp_path, monkeypatch, capsys):
        work = tmp_path / "work"
        work.mkdir()
        path = tmp_path / "run.conf"
        text = fixture_conf_text(corpus=FIXTURES / "corpus.jsonl",
                                 allowlist=FIXTURES / "journals.txt", out_dir="")
        path.write_text(text)
        monkeypatch.chdir(work)
        assert cli.main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (f"error: {path}: line {len(text.splitlines())}: "
                                           f"config key 'out_dir': expected a path, got ''\n")
        assert not list(work.iterdir())

    def test_missing_config_file_is_named(self, tmp_path, capsys):
        path = tmp_path / "nonexist.conf"
        assert cli.main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot read config file {path}: No such file or directory\n")

    @pytest.mark.parametrize("data, line", [
        (b"\xff", 1),
        (b"# a comment\nstub = true\nmodel = caf\xff\n", 3),
        (b"# one\r# two\r\nmodel = \xff\n", 3),
    ], ids=["first", "lf", "cr"])
    def test_undecodable_config_names_file_and_line(self, tmp_path, capsys, data, line):
        path = tmp_path / "bad.conf"
        path.write_bytes(data)
        assert cli.main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: line {line}: not UTF-8 (byte 0xff)\n"
        assert not (tmp_path / "out").exists()


# No whitespace: the file format strips it from both ends of a value.
_WORD = st.text("abcXYZ019:/._-=#", min_size=1, max_size=12)
_SPELLINGS = {True: ["1", "true", "yes", "on"], False: ["0", "false", "no", "off"]}
# What BackendConfig accepts as an endpoint.
_URL = st.builds("{}://{}{}/{}".format, st.sampled_from(["http", "https"]),
                 st.sampled_from(["localhost", "127.0.0.1", "backend.example", "[::1]"]),
                 st.just("") | st.integers(1, 65535).map(":{}".format),
                 st.text("abcXYZ019/._-", max_size=12))


@st.composite
def configs(draw):
    thresholds = draw(st.lists(st.integers(1, 60), min_size=1, max_size=5, unique=True))
    optional_path = st.none() | _WORD.map(Path)
    # a config for the HTTP backend names a URL, a model and a cache; a stub one need not
    stub = draw(st.booleans())
    return PipelineConfig(
        corpus=Path(draw(_WORD)), allowlist=draw(optional_path),
        cache=draw(optional_path if stub else _WORD.map(Path)),
        out_dir=Path(draw(_WORD)),
        min_out_links=draw(st.integers(0, 10**6)), min_in_links=draw(st.integers(0, 10**6)),
        # a window that reaches into every year group
        year_min=draw(st.integers(1991, 1995)), year_max=draw(st.integers(2016, 2020)),
        min_abstract_chars=draw(st.integers(0, 10**6)),
        thresholds=tuple(thresholds), mode=draw(st.sampled_from(MODES)),
        n_jobs=draw(st.integers(1, 8)), stub=stub,
        endpoint=draw(st.just("") | _WORD | _URL if stub else _URL),
        model=draw(st.just("") | _WORD if stub else _WORD),
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
    @given(st.lists(st.sampled_from(["", "# comment", "  ", "min_in_links = 3"]), max_size=6)
           .filter(lambda before: before.count("min_in_links = 3") <= 1),
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
    @given(st.lists(st.sampled_from(["", "# comment", "min_in_links = 3"]), max_size=4)
           .filter(lambda between: "min_in_links = 3" not in between),
           st.sampled_from([("mode = overlap", "mode = ref_indegree"),
                            ("stub = true", "stub = false"),
                            ("n_jobs = 2", "n_jobs = 2"),
                            ("thresholds = 1,2", " thresholds=1,2,3")]))
    def test_a_key_given_twice_names_both_lines(self, between, pair):
        first, second = pair
        key = first.partition("=")[0].strip()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.conf"
            path.write_text("\n".join(["# run", first, *between, second]) + "\n")
            with pytest.raises(ValueError) as excinfo:
                load_config(path)
            assert str(excinfo.value) == (
                f"{path}: line {len(between) + 3}: config key {key!r} repeats line 2")

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(sorted(_SPELLINGS[True] + _SPELLINGS[False])), st.data())
    def test_boolean_spellings(self, word, data):
        spelled = "".join(data.draw(st.sampled_from([c, c.upper()])) for c in word)
        padding = st.text(" \t", max_size=2)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.conf"
            path.write_text(f"stub ={data.draw(padding)}{spelled}{data.draw(padding)}\n"
                            "endpoint = http://backend.example/v1\nmodel = m\n"
                            "cache = cache.jsonl\n")
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
        # no path is recorded, so the manifests agree byte for byte
        assert ((staged.out_dir / "manifest.json").read_bytes()
                == (full.out_dir / "manifest.json").read_bytes())

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
        corpus = load_corpus(config.out_dir)
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
        assert not list(config.out_dir.glob("corpus_*"))

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
        assert set(manifest) == {"stages", "versions"}
        stages = manifest["stages"]
        assert set(stages) == set(STAGES)
        current = config.as_dict()

        def sha256(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        # one entry per stage: its inputs as their producers recorded them,
        # the values of its config keys, and real content hashes of its outputs
        for stage, spec in STAGE_TABLE.items():
            entry = stages[stage]
            assert set(entry) == {"config", "inputs", "outputs"}
            assert entry["config"] == {key: current[key] for key in spec.keys}
            assert set(entry["inputs"]) == set(spec.reads) | set(spec.sources)
            for name in spec.reads:
                producer = dict(WRITTEN_BY)[name]
                assert entry["inputs"][name] == stages[producer]["outputs"][name]
            assert entry["outputs"] == {name: sha256(config.out_dir / name)
                                        for name in spec.writes}
        assert stages["ingest"]["inputs"] == {"corpus": sha256(FIXTURES / "corpus.jsonl"),
                                              "allowlist": sha256(FIXTURES / "journals.txt")}
        assert stages["report"]["inputs"]["allowlist"] == sha256(FIXTURES / "journals.txt")
        assert set(manifest["versions"]) == {"disruptkit", "python", "numpy", "scipy"}
        # nothing clock-derived anywhere (determinism itself is covered by
        # the byte-identical rerun test)
        assert "timestamp" not in json.dumps(manifest).lower()

    def test_each_stage_writes_what_the_table_declares(self, tmp_path):
        config = fixture_config(tmp_path)
        listing = set()
        for stage in STAGES:
            paths = STAGE_FUNCTIONS[stage](config)
            assert [p.name for p in paths] == list(STAGE_TABLE[stage].writes), stage
            assert all(p.parent == config.out_dir for p in paths)
            now = {p.name for p in config.out_dir.iterdir()}
            assert now - listing - {"manifest.json"} == set(STAGE_TABLE[stage].writes), stage
            listing = now

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

    @pytest.mark.parametrize("name, stage", WRITTEN_BY)
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
        before = {name: (config.out_dir / name).read_bytes() for name in CORPUS_FILES}
        listing = sorted(p.name for p in config.out_dir.iterdir())
        # an escaped lone surrogate decodes, but has no UTF-8 form, whether
        # the allowlist keeps the record or drops it
        lines = (FIXTURES / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
        journals = (FIXTURES / "journals.txt").read_text().splitlines()
        for allowed in (True, False):
            k = next(k for k, line in enumerate(lines)
                     if (json.loads(line)["journal"] in journals) == allowed)
            record = json.loads(lines[k])
            bad = tmp_path / "bad.jsonl"
            bad.write_text("\n".join([*lines[:k], json.dumps({**record, "title": "t\ud800"}),
                                      *lines[k + 1:]]) + "\n", encoding="utf-8")
            with pytest.raises(StageError) as excinfo:
                stage_ingest(fixture_config(tmp_path, corpus=bad))
            assert excinfo.value.stage == "ingest"
            assert excinfo.value.message == (f"{bad}: line {k + 1}: record {record['id']!r}: "
                                             "not encodable as UTF-8 (surrogates not allowed)")
            assert {name: (config.out_dir / name).read_bytes() for name in CORPUS_FILES} == before
            assert not [p.name for p in config.out_dir.iterdir() if p.name.endswith(".tmp")]
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
        # the rows of each string column decoded, by stage
        decoded = {stage: Counter() for stage in STAGES}
        running = []
        real_load_strings = corpus_module.load_strings

        def recording(out_dir, name, rows=None):
            strings = real_load_strings(out_dir, name, rows)
            decoded[running[-1]][name.removeprefix("corpus_")] += len(strings)
            return strings

        def staged(stage, run):
            def wrapper(config):
                running.append(stage)
                try:
                    return run(config)
                finally:
                    running.pop()
            return wrapper

        monkeypatch.setattr(corpus_module, "load_strings", recording)
        for stage in STAGES:
            monkeypatch.setitem(STAGE_FUNCTIONS, stage, staged(stage, STAGE_FUNCTIONS[stage]))
        config = fixture_config(tmp_path)
        run_pipeline(config)
        monkeypatch.undo()
        # ingest parses once, and graph and classify load its columns from out_dir
        assert calls == {"parse_corpus": 1, "build_graph": 1}
        corpus = load_corpus(config.out_dir)
        n, refs = len(corpus), len(corpus.ref_strings)
        eligible = len((config.out_dir / "eligible.txt").read_text().split())
        assert 0 < eligible < n
        # graph counts the abstracts' characters from their bytes, classify
        # decodes the titles and abstracts of eligible rows only, and report
        # their gold labels only
        assert decoded == {
            "ingest": {}, "graph": {"ids": n, "ref_strings": refs},
            "classify": {"ids": n, "title": eligible, "abstract": eligible},
            "disrupt": {"ids": n}, "regress": {"ids": n},
            "report": {"ids": n, "journal": n, "gold_label": eligible}}

    def test_graph_and_classify_run_alone_parse_no_json(self, tmp_path, monkeypatch):
        config = fixture_config(tmp_path, out_dir=tmp_path / "full")
        run_pipeline(config)
        staged = fixture_config(tmp_path)
        stage_ingest(staged)

        def refuse(*args, **kwargs):
            raise AssertionError("parse_corpus called")

        monkeypatch.setattr(pipeline, "parse_corpus", refuse)
        for stage in ("graph", "classify"):
            STAGE_FUNCTIONS[stage](staged)
        for name in ("eligible.txt", "classifications.csv", *CORPUS_FILES):
            assert ((staged.out_dir / name).read_bytes()
                    == (config.out_dir / name).read_bytes()), name

    def test_eligible_list_of_an_older_corpus_names_the_graph_stage(self, tmp_path, capsys):
        config = fixture_config(tmp_path)
        run_pipeline(config)
        # a narrower allowlist drops papers that eligible.txt still names
        allowlist = tmp_path / "three.txt"
        journals = (FIXTURES / "journals.txt").read_text().splitlines(keepends=True)
        allowlist.write_text("".join(journals[:3]))
        conf = tmp_path / "three.conf"
        conf.write_text(fixture_conf_text(corpus=FIXTURES / "corpus.jsonl", allowlist=allowlist,
                                          out_dir=config.out_dir))
        assert cli.main(["ingest", "--config", str(conf)]) == 0
        assert cli.main(["classify", "--config", str(conf)]) == 1
        message = ("'corpus_ids.npy' has changed since stage 'graph' read it; "
                   "run stage 'graph' again")
        assert (config.out_dir / "FAILED").read_text() == f"classify: {message}\n"
        assert f"error: stage 'classify': {message}" in capsys.readouterr().err

    def test_eligible_list_naming_a_paper_not_in_the_corpus_names_the_graph_stage(
            self, tmp_path, capsys, monkeypatch):
        # a hand edit leaves the manifest as it was, and the file's hash no longer matches it
        monkeypatch.chdir(FIXTURES)
        base = ["--config", str(FIXTURES / "pipeline.conf"), "--out-dir", str(tmp_path / "out")]
        assert cli.main(["run"] + base) == 0
        with (tmp_path / "out" / "eligible.txt").open("a", encoding="utf-8") as fh:
            fh.write("P999999\n")
        capsys.readouterr()
        assert cli.main(["classify"] + base) == 1
        message = "'eligible.txt' is not the file stage 'graph' wrote; run stage 'graph' again"
        assert (tmp_path / "out" / "FAILED").read_text() == f"classify: {message}\n"
        assert capsys.readouterr().err == f"error: stage 'classify': {message}\n"

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
        def boom(sock, *args, **kwargs):
            sock.close()
            raise AssertionError("network call attempted")

        monkeypatch.setattr(socket.socket, "connect", boom)
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

    def test_reply_with_no_utf8_form_is_an_error_row(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DISRUPTKIT_API_KEY", "sk-test")
        out_dir, cache = tmp_path / "out", tmp_path / "cache.jsonl"
        path = tmp_path / "http.conf"
        server = RecordingServer()
        path.write_text(fixture_conf_text(
            corpus=FIXTURES / "corpus.jsonl", allowlist=FIXTURES / "journals.txt",
            stub="false", endpoint=server.endpoint, model="test-model",
            max_in_flight=1, backoff_base=0, cache=cache))
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
            for run in range(2):
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
        finally:
            server.close()

    @pytest.mark.parametrize("stub", [True, False])
    def test_empty_title_of_an_eligible_paper_is_named(self, tmp_path, capsys, monkeypatch,
                                                       stub):
        # eligibility does not look at titles, so classify is the first to see one
        monkeypatch.setenv("DISRUPTKIT_API_KEY", "sk-test")
        corpus, path = tmp_path / "corpus.jsonl", tmp_path / "run.conf"
        server = RecordingServer()
        path.write_text(fixture_conf_text(
            corpus=corpus, allowlist=FIXTURES / "journals.txt", stub=str(stub).lower(),
            endpoint=server.endpoint, model="test-model", cache=tmp_path / "cache.jsonl"))
        base = ["--config", str(path), "--out-dir", str(tmp_path / "out")]
        lines = (FIXTURES / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            assert cli.main(["ingest"] + base) == 0
            assert cli.main(["graph"] + base) == 0
            paper_id = (tmp_path / "out" / "eligible.txt").read_text().split()[-1]
            records = [json.loads(line) for line in lines]
            corpus.write_text("".join(json.dumps({**r, "title": ""} if r["id"] == paper_id
                                                 else r) + "\n" for r in records))
            assert cli.main(["ingest"] + base) == 0
            assert cli.main(["graph"] + base) == 0
            capsys.readouterr()
            assert cli.main(["classify"] + base) == 1
            assert capsys.readouterr().err == (
                f"error: stage 'classify': record {paper_id!r}: title must be non-empty\n")
            assert server.calls == []
        finally:
            server.close()

    def test_cache_that_cannot_be_appended_to_fails_before_any_request(self, tmp_path,
                                                                      capsys, monkeypatch):
        monkeypatch.setenv("DISRUPTKIT_API_KEY", "sk-test")
        cache = tmp_path / "missing" / "cache.jsonl"
        server = RecordingServer()
        try:
            conf = TestLineage.conf(tmp_path, "http.conf", stub="false", cache=cache,
                                    endpoint=server.endpoint, model="test-model",
                                    max_in_flight=4)
            for stage in ("ingest", "graph"):
                assert cli.main([stage] + conf) == 0
            assert cli.main(["classify"] + conf) == 1
            TestLineage.refused(tmp_path, capsys, "classify", f"cannot append to cache file "
                                                              f"{cache}: No such file or directory")
            assert not (tmp_path / "out" / "classifications.csv").exists()
            assert server.calls == []
        finally:
            server.close()

    @pytest.mark.parametrize("endpoint, problem", [
        ("http:///v1/chat", "no host given"),
        ("http://127.0.0.1:99999/v1", "Port out of range 0-65535"),
        ("http://[::1/v1", "Invalid IPv6 URL"),
    ], ids=["no-host", "bad-port", "bad-ipv6"])
    def test_endpoint_without_a_host_or_with_a_bad_port_fails_before_any_request(
            self, tmp_path, capsys, monkeypatch, endpoint, problem):
        monkeypatch.setenv("DISRUPTKIT_API_KEY", "sk-test")
        connections = []
        monkeypatch.setattr(socket, "create_connection",
                            lambda *args, **kwargs: connections.append(args))
        conf = TestLineage.conf(tmp_path, "http.conf", stub="false", endpoint=endpoint,
                                model="test-model", backoff_base=0)
        # refused when the config is loaded, before ingest writes anything
        assert cli.main(["run"] + conf) == 1
        assert capsys.readouterr().err == f"error: endpoint {endpoint!r}: {problem}\n"
        assert not (tmp_path / "out").exists()
        assert connections == []

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

    def test_cache_is_required_only_by_the_http_backend(self, tmp_path, capsys):
        conf = TestLineage.conf(tmp_path, "http.conf", stub="false",
                                endpoint="http://127.0.0.1:9/v1", model="test-model")
        assert cli.main(["run"] + conf) == 1
        assert capsys.readouterr().err == ("error: cache must be set when stub is false: it "
                                           "keeps every answer the backend is paid for\n")
        assert not (tmp_path / "out").exists()
        assert cli.main(["run", "--stub"] + conf) == 0

    @staticmethod
    def http_stages(tmp_path, server, **values):
        """Options of a config for the HTTP backend at ``server``, with a
        cache, once ingest and graph have run on it."""
        conf = TestLineage.conf(tmp_path, "http.conf", stub="false", endpoint=server.endpoint,
                                model="test-model", cache=tmp_path / "cache.jsonl",
                                backoff_base=0, **values)
        for stage in ("ingest", "graph"):
            assert cli.main([stage] + conf) == 0
        return conf

    @pytest.mark.parametrize("status", [401, 404])
    def test_a_backend_that_refuses_the_client_fails_the_stage(self, tmp_path, capsys,
                                                               monkeypatch, status):
        monkeypatch.setenv("DISRUPTKIT_API_KEY", "sk-test")
        body = '{"error": {"message": "Incorrect API key provided"}}'
        server = RecordingServer()
        server.server.delay = 0.02
        calls_at_refusal = []

        def behavior(n, _):
            with server.server.lock:
                if not calls_at_refusal:
                    calls_at_refusal.append(len(server.calls))
            return status, body

        server.server.behavior = behavior
        try:
            conf = self.http_stages(tmp_path, server, max_in_flight=4)
            capsys.readouterr()
            assert cli.main(["classify"] + conf) == 1
            TestLineage.refused(tmp_path, capsys, "classify",
                                f"backend refused the client with HTTP {status}: {body}")
            assert len(server.calls) - calls_at_refusal[0] <= 4
            assert not (tmp_path / "out" / "classifications.csv").exists()
        finally:
            server.close()

    def test_a_refusal_of_one_paper_is_its_error_row(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DISRUPTKIT_API_KEY", "sk-test")
        server = RecordingServer()
        refused = []

        def behavior(n, body):
            prompt = body["messages"][0]["content"]
            with server.server.lock:
                refused[:] = refused or [prompt]
            if prompt == refused[0]:
                return 400, '{"error": "bad request"}'
            return 200, completion("This article is in the empirical category because data.")

        server.server.behavior = behavior
        try:
            conf = self.http_stages(tmp_path, server)
            assert cli.main(["classify"] + conf) == 0
        finally:
            server.close()
        table = read_classifications(tmp_path / "out" / "classifications.csv")
        assert table.sources.count("error") == 1
        assert table.sources.count("backend") == len(table) - 1
        assert table.rationales[table.sources.index("error")] == 'HTTP 400: {"error": "bad request"}'
        assert len(server.calls) == len(table)  # not retried

    def test_a_second_ctrl_c_ends_the_wait_for_answers_in_flight(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DISRUPTKIT_API_KEY", "sk-test")
        server = RecordingServer()
        release = threading.Event()

        def behavior(n, _):
            if n >= 6:
                release.wait(5)  # both workers' seventh and eighth requests are held
            return 200, completion("This article is in the empirical category because data.")

        server.server.behavior = behavior
        cache = tmp_path / "cache.jsonl"
        src = str(Path(pipeline.__file__).resolve().parents[1])
        try:
            conf = self.http_stages(tmp_path, server, max_in_flight=2)
            # A shell may start the tests with SIGINT ignored, which a child inherits.
            proc = subprocess.Popen(
                [sys.executable, "-c",
                 "import signal, sys; signal.signal(signal.SIGINT, signal.default_int_handler); "
                 "from disruptkit.cli import main; sys.exit(main(sys.argv[1:]))",
                 "classify"] + conf,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONPATH=src))
            deadline = time.monotonic() + 10
            while len(server.calls) < 8 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(server.calls) == 8
            proc.send_signal(signal.SIGINT)
            time.sleep(0.3)
            assert proc.poll() is None  # waiting for the two held answers
            proc.send_signal(signal.SIGINT)
            second = time.monotonic()
            _, err = proc.communicate(timeout=10)
            assert time.monotonic() - second < 1.0
        finally:
            release.set()
            server.close()
        assert proc.returncode == 130
        assert err.endswith("error: stage 'classify': interrupted\n")
        assert (tmp_path / "out" / "FAILED").read_text() == "classify: interrupted\n"
        # every answer given before the held ones is a line of the cache
        # (after at most a torn last line, which the next open cuts)
        answered = [call["body"]["messages"][0]["content"] for call in server.calls[:6]]
        reloaded = pipeline.ResponseCache(cache)
        assert all(reloaded.get("test-model", prompt) for prompt in answered)
        reloaded.open()
        reloaded.close()
        assert cache.read_bytes().count(b"\n") == len(reloaded) == 6
        assert cache.read_bytes().endswith(b"\n")


class TestObservationRows:
    def make_inputs(self):
        corpus = parse_corpus(FIXTURES / "corpus.jsonl")
        graph = graph_of(corpus)
        eligible = ["P000050", "P000060", "P000070"]
        scores = disruption_batch(graph, eligible, ls=(1, 2))
        return corpus, graph, eligible, scores

    def test_joins_and_drops_other(self):
        corpus, graph, eligible, scores = self.make_inputs()
        labels = {"P000050": "Conceptual", "P000060": "Other", "P000070": "Empirical"}
        obs = build_observation_rows(graph, corpus.year, corpus.n_authors, eligible, labels,
                                     (1, 2), scores)
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
        obs = build_observation_rows(graph, corpus.year, corpus.n_authors, eligible,
                                     {"P000050": "Empirical"}, (1, 2), scores)
        assert obs.ids == ("P000050",)


def scores_file(path, rows):
    """Write to ``path`` the fixture's disruption.csv rows at the given
    positions, in that order: rows 0 to 5 as write_scores orders them,
    (P000050, 1), (P000050, 2), ..., (P000070, 2), and row 6 P000080,
    which is not eligible, at l = 1."""
    _, _, _, scores = TestObservationRows().make_inputs()
    write_scores(scores, path)
    header, *body = path.read_text(encoding="utf-8").splitlines(keepends=True)
    body.append("P000080,1,0,0,0,NA\n")
    path.write_text(header + "".join(body[k] for k in rows), encoding="utf-8")
    return path


class TestStaleScores:
    def join(self, scores, thresholds=(1, 2)):
        corpus, graph, eligible, _ = TestObservationRows().make_inputs()
        labels = dict.fromkeys(eligible, "Empirical")
        return build_observation_rows(graph, corpus.year, corpus.n_authors, eligible, labels,
                                      thresholds, scores)

    STALE = ("disruption.csv does not score each eligible paper at each threshold, in "
             "order; run stage 'disrupt' again")

    # A body that is not a grid is refused as it is read, and a grid of
    # other papers or thresholds when it is joined.
    @pytest.mark.parametrize("rows, thresholds, refused_by", [
        ([0, 1, 2, 3, 4], (1, 2), "read"),  # a score missing
        ([0, 1, 2, 3, 4, 5, 5], (1, 2), "read"),  # a score twice
        ([0, 1, 2, 3, 4, 4], (1, 2), "read"),  # one in place of another
        ([0, 1, 2, 3, 4, 5], (1,), "join"),  # a threshold not configured
        ([0, 1, 2, 3, 4, 5], (1, 2, 3), "join"),  # a threshold not scored
        ([5, 4, 3, 2, 1, 0], (1, 2), "read"),  # every score, in another order
        ([2, 3, 0, 1, 4, 5], (1, 2), "join"),  # the papers in another order
    ])
    def test_rows_other_than_eligible_times_thresholds_fail(self, tmp_path, rows, thresholds,
                                                            refused_by):
        path = scores_file(tmp_path / "disruption.csv", rows)
        if refused_by == "read":
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: the row of .* "
                                                 f"is out of place"):
                read_scores(path)
            return
        with pytest.raises(ValueError) as excinfo:
            self.join(read_scores(path), thresholds)
        assert str(excinfo.value) == self.STALE

    def test_score_for_a_paper_no_longer_eligible_fails(self, tmp_path):
        path = scores_file(tmp_path / "disruption.csv", range(7))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: the row of 'P000080' at l = 1 is out of place")):
            read_scores(path)
        # the same paper scored at each threshold reads, and is refused in the join
        path.write_text(path.read_text(encoding="utf-8") + "P000080,2,0,0,0,NA\n",
                        encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            self.join(read_scores(path))
        assert str(excinfo.value) == self.STALE

    def test_graph_rerun_with_other_eligibility_needs_disrupt(self, tmp_path):
        run_pipeline(fixture_config(tmp_path))
        config = fixture_config(tmp_path, min_out_links=8)
        stage_graph(config)
        # both read eligible.txt; the manifest names the earlier stage first
        for stale in ("classify", "disrupt"):
            with pytest.raises(StageError) as excinfo:
                STAGE_FUNCTIONS["regress"](config)
            assert excinfo.value.stage == "regress"
            assert excinfo.value.message == (
                f"'eligible.txt' has changed since stage '{stale}' read it; "
                f"run stage '{stale}' again")
            marker = (config.out_dir / "FAILED").read_text()
            assert marker == f"regress: {excinfo.value.message}\n"
            STAGE_FUNCTIONS[stale](config)
        STAGE_FUNCTIONS["regress"](config)
        assert not (config.out_dir / "FAILED").exists()

    def test_hand_edited_scores_need_disrupt(self, tmp_path):
        # an edit outside the pipeline leaves the manifest as it was, and
        # the file's hash no longer matches it
        config = fixture_config(tmp_path)
        run_pipeline(config)
        path = config.out_dir / "disruption.csv"
        header, first, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text(header + "".join(rows), encoding="utf-8")
        with pytest.raises(StageError) as excinfo:
            STAGE_FUNCTIONS["regress"](config)
        assert excinfo.value.stage == "regress"
        assert excinfo.value.message == ("'disruption.csv' is not the file stage 'disrupt' "
                                         "wrote; run stage 'disrupt' again")
        assert (config.out_dir / "FAILED").read_text() == f"regress: {excinfo.value.message}\n"


class TestStaleLabels:
    EDITS = [lambda rows: rows[1:], lambda rows: rows + rows[-1:],
             lambda rows: rows + ["P999999,Empirical,stub,\n"]]
    EDIT_IDS = ["missing", "duplicate", "extra"]
    STALE = ("'classifications.csv' is not the file stage 'classify' wrote; "
             "run stage 'classify' again")

    @pytest.fixture
    def finished_run(self, tmp_path):
        config = fixture_config(tmp_path)
        run_pipeline(config)
        path = config.out_dir / "classifications.csv"
        header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
        return config, path, header, rows

    @pytest.mark.parametrize("edit", EDITS, ids=EDIT_IDS)
    def test_labels_other_than_eligible_fail(self, finished_run, edit):
        config, path, header, rows = finished_run
        path.write_text(header + "".join(edit(rows)), encoding="utf-8")
        with pytest.raises(StageError) as excinfo:
            STAGE_FUNCTIONS["regress"](config)
        assert excinfo.value.message == self.STALE
        assert (config.out_dir / "FAILED").read_text() == f"regress: {self.STALE}\n"

    def test_report_refuses_labels_of_an_older_eligible_set(self, finished_run):
        config = dataclasses.replace(finished_run[0], min_out_links=8)
        STAGE_FUNCTIONS["graph"](config)
        with pytest.raises(StageError) as excinfo:
            STAGE_FUNCTIONS["report"](config)
        assert excinfo.value.stage == "report"
        assert excinfo.value.message == ("'eligible.txt' has changed since stage 'classify' "
                                         "read it; run stage 'classify' again")
        assert (config.out_dir / "FAILED").read_text() == f"report: {excinfo.value.message}\n"
        # under the config the other stages ran with, graph is the stale one
        with pytest.raises(StageError) as excinfo:
            STAGE_FUNCTIONS["report"](finished_run[0])
        assert excinfo.value.message == ("stage 'graph' ran with min_out_links = 8, the config "
                                         "has 5; run stage 'graph' again")

    @pytest.mark.parametrize("edit", EDITS, ids=EDIT_IDS)
    def test_report_refuses_labels_other_than_eligible(self, finished_run, edit):
        config, path, header, rows = finished_run
        path.write_text(header + "".join(edit(rows)), encoding="utf-8")
        with pytest.raises(StageError) as excinfo:
            STAGE_FUNCTIONS["report"](config)
        assert excinfo.value.message == self.STALE
        assert (config.out_dir / "FAILED").read_text() == f"report: {self.STALE}\n"


class TestLineage:
    """A stage refuses inputs whose lineage in manifest.json no longer
    matches the files upstream or the current config."""

    @staticmethod
    def conf(tmp_path, name, allowlist=FIXTURES / "journals.txt", **values):
        path = tmp_path / name
        path.write_text(fixture_conf_text(**{"corpus": FIXTURES / "corpus.jsonl",
                                             "allowlist": allowlist,
                                             "out_dir": tmp_path / "out", **values}))
        return ["--config", str(path)]

    @staticmethod
    def refused(tmp_path, capsys, stage, message):
        assert capsys.readouterr().err == f"error: stage '{stage}': {message}\n"
        assert (tmp_path / "out" / "FAILED").read_text() == f"{stage}: {message}\n"

    def test_report_after_graph_and_classify_reruns_needs_disrupt(self, tmp_path, capsys):
        base, eight = self.conf(tmp_path, "base.conf"), self.conf(tmp_path, "eight.conf",
                                                                  min_out_links=8)
        assert cli.main(["run"] + base) == 0
        assert cli.main(["graph"] + eight) == 0
        assert cli.main(["classify"] + eight) == 0
        capsys.readouterr()
        assert cli.main(["report"] + eight) == 1
        self.refused(tmp_path, capsys, "report", "'eligible.txt' has changed since stage "
                                                 "'disrupt' read it; run stage 'disrupt' again")
        for stage in ("disrupt", "regress", "report"):
            assert cli.main([stage] + eight) == 0
        staged = read_artifacts(tmp_path / "out")
        (tmp_path / "out").rename(tmp_path / "staged")
        assert cli.main(["run"] + eight) == 0
        assert read_artifacts(tmp_path / "out") == staged

    # report counts the allowed journals, so its allowlist must be the one
    # ingest filtered the corpus with
    @pytest.mark.parametrize("before, after, problem", [
        (False, "kept", "stage 'ingest' ran with no allowlist, the config names {path}"),
        (True, "removed", "stage 'ingest' ran with allowlist set, the config sets none"),
        (True, "edited", "allowlist {path} has changed since stage 'ingest' read it"),
    ], ids=["added", "removed", "edited"])
    def test_report_refuses_an_allowlist_ingest_did_not_apply(self, tmp_path, capsys,
                                                              before, after, problem):
        path = tmp_path / "journals.txt"
        path.write_bytes((FIXTURES / "journals.txt").read_bytes())
        assert cli.main(["run"] + self.conf(tmp_path, "run.conf",
                                            allowlist=path if before else None)) == 0
        if after == "edited":
            with path.open("a", encoding="utf-8") as fh:
                fh.write("Synthetic Journal 07\n")
        later = self.conf(tmp_path, "later.conf", allowlist=None if after == "removed" else path)
        assert cli.main(["regress"] + later) == 0
        capsys.readouterr()
        assert cli.main(["report"] + later) == 1
        self.refused(tmp_path, capsys, "report",
                     problem.format(path=path) + "; run stage 'ingest' again")
        assert cli.main(["run"] + later) == 0

    def test_regress_after_a_mode_change_needs_disrupt(self, tmp_path, capsys):
        base, overlap = self.conf(tmp_path, "base.conf"), self.conf(tmp_path, "overlap.conf",
                                                                    mode="overlap")
        assert cli.main(["run"] + base) == 0
        before = (tmp_path / "out" / "regression.csv").read_bytes()
        capsys.readouterr()
        assert cli.main(["regress"] + overlap) == 1
        self.refused(tmp_path, capsys, "regress",
                     "stage 'disrupt' ran with mode = 'ref_indegree', the config has "
                     "'overlap'; run stage 'disrupt' again")
        assert (tmp_path / "out" / "regression.csv").read_bytes() == before
        for stage in ("disrupt", "regress", "report"):
            assert cli.main([stage] + overlap) == 0
        assert (tmp_path / "out" / "regression.csv").read_bytes() != before
        assert json.loads((tmp_path / "out" / "manifest.json").read_text())[
            "stages"]["disrupt"]["config"]["mode"] == "overlap"

    def test_scores_of_a_lost_manifest_update_are_refused(self, tmp_path, capsys):
        base, overlap = self.conf(tmp_path, "base.conf"), self.conf(tmp_path, "overlap.conf",
                                                                    mode="overlap")
        assert cli.main(["run"] + base) == 0
        out = tmp_path / "out"
        manifest = (out / "manifest.json").read_bytes()
        fitted = {name: (out / name).read_bytes() for name in STAGE_TABLE["regress"].writes}
        assert cli.main(["disrupt"] + overlap) == 0
        # a stage that read the manifest before disrupt ran writes its copy back
        (out / "manifest.json").write_bytes(manifest)
        capsys.readouterr()
        assert cli.main(["regress"] + base) == 1
        self.refused(tmp_path, capsys, "regress", "'disruption.csv' is not the file stage "
                                                  "'disrupt' wrote; run stage 'disrupt' again")
        assert {name: (out / name).read_bytes() for name in fitted} == fitted

    def test_stage_whose_record_was_not_written_is_refused(self, tmp_path, capsys, monkeypatch):
        base = self.conf(tmp_path, "base.conf")
        assert cli.main(["run"] + base) == 0
        eligible = (tmp_path / "out" / "eligible.txt").read_bytes()
        # graph drops its entry, renames its files into place, then fails
        # to write the manifest that records them
        manifest_writes = []
        real_open = Path.open

        def open_(self, mode="r", *args, **kwargs):
            fh = real_open(self, mode, *args, **kwargs)
            if "w" in mode and self.name == ".manifest.json.tmp":
                manifest_writes.append(self)
                return TornFile(fh) if len(manifest_writes) == 2 else fh
            return fh

        monkeypatch.setattr(Path, "open", open_)
        assert cli.main(["graph"] + base) == 1
        monkeypatch.undo()
        assert len(manifest_writes) == 2
        assert (tmp_path / "out" / "eligible.txt").read_bytes() == eligible
        assert (tmp_path / "out" / "FAILED").read_text() == "graph: No space left on device\n"
        capsys.readouterr()
        assert cli.main(["disrupt"] + base) == 1
        self.refused(tmp_path, capsys, "disrupt", "manifest.json records no finished run of "
                                                  "stage 'graph'; run stage 'graph' again")
        assert cli.main(["graph"] + base) == 0
        assert cli.main(["disrupt"] + base) == 0

    def test_ctrl_c_in_a_stage_leaves_it_unrecorded(self, tmp_path, capsys, monkeypatch):
        base = self.conf(tmp_path, "base.conf")
        assert cli.main(["run"] + base) == 0
        capsys.readouterr()

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(pipeline, "disruption_batch", interrupt)
        assert cli.main(["disrupt"] + base) == 130
        self.refused(tmp_path, capsys, "disrupt", "interrupted")
        monkeypatch.undo()
        assert cli.main(["regress"] + base) == 1
        self.refused(tmp_path, capsys, "regress", "manifest.json records no finished run of "
                                                  "stage 'disrupt'; run stage 'disrupt' again")

    def test_manifest_of_an_older_format_asks_for_ingest(self, tmp_path):
        config = fixture_config(tmp_path)
        run_pipeline(config)
        (config.out_dir / "manifest.json").write_text(json.dumps(
            {"artifacts": {}, "config": config.as_dict(), "inputs": {}, "versions": {}}))
        for stage in STAGES[1:]:
            with pytest.raises(StageError) as excinfo:
                STAGE_FUNCTIONS[stage](config)
            assert excinfo.value.message == ("manifest.json records no finished run of stage "
                                             "'ingest'; run stage 'ingest' again")
        run_pipeline(config)

    @pytest.mark.parametrize("data, problem", [
        (b'{"stages": ', "is not valid JSON (Expecting value: line 1 column 12 (char 11))"),
        (b"\xff", "is not valid JSON ('utf-8' codec can't decode byte 0xff in position 0: "
                  "invalid start byte)"),
        (b"[]", "is not a JSON object"),
        (b'{"stages": []}', "holds no object of stage entries under 'stages'"),
        (b'{"stages": {"ingest": {"config": {}, "inputs": {}, "outputs": []}}}',
         "holds no object of stage entries under 'stages'"),
    ], ids=["torn", "not-utf8", "list", "stages-list", "entry"])
    def test_invalid_manifest_asks_for_ingest(self, tmp_path, capsys, data, problem):
        base = self.conf(tmp_path, "base.conf")
        assert cli.main(["run"] + base) == 0
        manifest = tmp_path / "out" / "manifest.json"
        manifest.write_bytes(data)
        capsys.readouterr()
        for stage in STAGES[1:]:
            assert cli.main([stage] + base) == 1
            self.refused(tmp_path, capsys, stage,
                         f"manifest.json {problem}; run stage 'ingest' again")
            assert manifest.read_bytes() == data
        # ingest starts a new manifest, and the stages after it can run again
        assert cli.main(["ingest"] + base) == 0
        assert set(json.loads(manifest.read_text())["stages"]) == {"ingest"}
        for stage in STAGES[1:]:
            assert cli.main([stage] + base) == 0
        assert not (tmp_path / "out" / "FAILED").exists()

    def test_out_dir_of_the_json_lines_format_asks_for_ingest(self, tmp_path, capsys):
        base = self.conf(tmp_path, "base.conf")
        assert cli.main(["run"] + base) == 0
        # what ingest used to write: corpus.jsonl, listed in its manifest entry
        out = tmp_path / "out"
        write_corpus(load_corpus(out), out / "corpus.jsonl")
        for name in CORPUS_FILES:
            (out / name).unlink()
        manifest = json.loads((out / "manifest.json").read_text())
        digest = hashlib.sha256((out / "corpus.jsonl").read_bytes()).hexdigest()
        manifest["stages"]["ingest"]["outputs"] = {"corpus.jsonl": digest}
        for stage in ("graph", "classify"):
            inputs = manifest["stages"][stage]["inputs"]
            inputs = {k: v for k, v in inputs.items() if k not in CORPUS_FILES}
            manifest["stages"][stage]["inputs"] = {**inputs, "corpus.jsonl": digest}
        (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        # every later stage reads corpus_ids.npy
        for stage in STAGES[1:]:
            assert cli.main([stage] + base) == 1
            self.refused(tmp_path, capsys, stage,
                         "missing artifact 'corpus_ids.npy'; run stage 'ingest' first")
        for stage in STAGES:
            assert cli.main([stage] + base) == 0

    def test_out_dir_of_the_twelve_graph_files_asks_for_graph(self, tmp_path, capsys):
        base = self.conf(tmp_path, "base.conf")
        assert cli.main(["run"] + base) == 0
        # what graph used to write besides the CSR arrays: copies of eight
        # corpus files, which disrupt, regress and report read instead
        out = tmp_path / "out"
        copies = {name.replace("corpus_", "graph_"): name for name in
                  corpus_files(("ids", "year", "n_authors", "journal", "gold_label"))}
        for copy, name in copies.items():
            shutil.copyfile(out / name, out / copy)
        digests = {copy: hashlib.sha256((out / copy).read_bytes()).hexdigest()
                   for copy in copies}
        manifest = json.loads((out / "manifest.json").read_text())
        stages = manifest["stages"]
        stages["graph"]["outputs"].update(digests)
        for stage in ("disrupt", "regress", "report"):
            inputs = {k: v for k, v in stages[stage]["inputs"].items()
                      if k not in CORPUS_FILES}
            stages[stage]["inputs"] = {**inputs, **digests}
        (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        for stage in ("disrupt", "regress", "report"):
            assert cli.main([stage] + base) == 1
            self.refused(tmp_path, capsys, stage, "manifest.json records other files than "
                                                  "stage 'graph' now writes; run stage "
                                                  "'graph' again")
        for stage in STAGES[1:]:
            assert cli.main([stage] + base) == 0

    @pytest.mark.parametrize("key, value, stage", [
        ("min_out_links", 6, "graph"), ("min_in_links", 2, "graph"),
        ("year_min", 1992, "graph"), ("year_max", 2019, "graph"),
        ("min_abstract_chars", 500, "graph"),
        ("stub", False, "classify"), ("model", "other-model", "classify"),
        ("mode", "overlap", "disrupt"), ("thresholds", (1, 2, 3, 5, 8), "disrupt"),
        ("model_thresholds", (2, 3), "regress"),
    ])
    def test_each_counted_key_names_its_stage(self, tmp_path, key, value, stage):
        assert key in STAGE_TABLE[stage].keys
        config = fixture_config(tmp_path)
        run_pipeline(config)
        old = config.as_dict()[key]
        # the HTTP backend needs an endpoint, a model and a cache, which change no output
        backend = {"endpoint": "http://127.0.0.1:9", "model": "test-model",
                   "cache": tmp_path / "cache.jsonl"}
        changed = dataclasses.replace(config, **{key: value}, **backend if key == "stub" else {})
        with pytest.raises(StageError) as excinfo:
            STAGE_FUNCTIONS["report"](changed)
        assert excinfo.value.message == (
            f"stage '{stage}' ran with {key} = {old!r}, the config has "
            f"{changed.as_dict()[key]!r}; run stage '{stage}' again")

    def test_paths_and_client_settings_are_not_lineage(self, tmp_path):
        config = fixture_config(tmp_path)
        run_pipeline(config)
        before = {p.name: p.read_bytes() for p in config.out_dir.iterdir()}
        copies = {}
        for name in ("corpus.jsonl", "journals.txt"):
            copies[name] = tmp_path / name
            copies[name].write_bytes((FIXTURES / name).read_bytes())
        ignored = dict(corpus=copies["corpus.jsonl"], allowlist=copies["journals.txt"],
                       cache=tmp_path / "cache.jsonl", n_jobs=2, endpoint="http://127.0.0.1:9",
                       api_key_env="OTHER_KEY", max_in_flight=2, retries=1, backoff_base=0.5,
                       timeout=5.0)
        counted = {key for spec in STAGE_TABLE.values() for key in spec.keys}
        fields = {f.name for f in dataclasses.fields(PipelineConfig)}
        assert counted | set(ignored) == fields - {"out_dir"}
        other = dataclasses.replace(config, **ignored)
        for stage in STAGES:
            STAGE_FUNCTIONS[stage](other)
        assert {p.name: p.read_bytes() for p in config.out_dir.iterdir()} == before


@pytest.fixture(scope="class")
def full_run(tmp_path_factory):
    config = fixture_config(tmp_path_factory.mktemp("full"))
    run_pipeline(config)
    return config


class TestDeclaredReads:
    """A stage needs no file in out_dir but those its STAGE_TABLE entry
    declares, and the manifest."""

    @pytest.mark.parametrize("stage", STAGES)
    def test_stage_runs_on_its_declared_reads_alone(self, full_run, tmp_path, stage):
        alone = dataclasses.replace(full_run, out_dir=tmp_path / "alone")
        alone.out_dir.mkdir()
        for name in (*STAGE_TABLE[stage].reads, "manifest.json"):
            shutil.copyfile(full_run.out_dir / name, alone.out_dir / name)
        STAGE_FUNCTIONS[stage](alone)
        for name in (*STAGE_TABLE[stage].writes, "manifest.json"):
            assert ((alone.out_dir / name).read_bytes()
                    == (full_run.out_dir / name).read_bytes()), name


def producer_reads():
    """(stage, producer, file): the last file each stage reads from each
    of its producers."""
    cases = {}
    for stage, spec in STAGE_TABLE.items():
        for name in spec.reads:
            cases[stage, dict(WRITTEN_BY)[name]] = name
    return [(stage, producer, name) for (stage, producer), name in cases.items()]


class TestHandEdits:
    """A stage reads only the bytes that manifest.json says their
    producer wrote."""

    @pytest.mark.parametrize("stage, producer, name", producer_reads())
    def test_edited_input_names_its_producer(self, full_run, tmp_path, capsys, stage,
                                            producer, name):
        out = tmp_path / "out"
        shutil.copytree(full_run.out_dir, out)
        data = bytearray((out / name).read_bytes())
        data[len(data) // 2] ^= 1
        (out / name).write_bytes(data)
        kept = {p: os.stat(out / p) for p in (*STAGE_TABLE[stage].writes, "manifest.json")}
        assert cli.main([stage] + TestLineage.conf(tmp_path, "base.conf")) == 1
        TestLineage.refused(tmp_path, capsys, stage, f"{name!r} is not the file stage "
                                                     f"'{producer}' wrote; run stage "
                                                     f"'{producer}' again")
        for p, before in kept.items():
            after = os.stat(out / p)
            assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns), p


class Crash(BaseException):
    """Ends a run as a kill would: no handler in the pipeline catches it."""


def dir_files(out_dir):
    return {p.name: p.read_bytes() for p in out_dir.iterdir()}


@pytest.fixture(scope="class")
def clean_files(tmp_path_factory):
    config = fixture_config(tmp_path_factory.mktemp("clean"))
    run_pipeline(config)
    return dir_files(config.out_dir)


class TestCrashPoints:
    """A run killed at any artifact or manifest write (each ends in
    atomic_write's os.replace) leaves an out_dir on which each later
    stage alone refuses, naming a stage to run, or writes the bytes of a
    finished run: the clean run's or, where the kill left the start
    intact, the start's. A new run then writes the clean files."""

    @pytest.mark.parametrize("start", ["empty", "other-corpus"])
    def test_run_killed_at_each_write(self, clean_files, tmp_path, start):
        start_dir = tmp_path / "start"
        start_dir.mkdir()
        if start == "other-corpus":
            lines = (FIXTURES / "corpus.jsonl").read_bytes().splitlines(keepends=True)
            other = tmp_path / "other.jsonl"
            other.write_bytes(b"".join(line for k, line in enumerate(lines) if k % 7))
            run_pipeline(fixture_config(tmp_path, corpus=other, out_dir=start_dir))
        start_files = dir_files(start_dir)
        # The stage that makes each os.replace call of a run over start.
        probe = fixture_config(tmp_path, out_dir=tmp_path / "probe")
        shutil.copytree(start_dir, probe.out_dir)
        made: list[str] = []
        with mock.patch.object(os, "replace", side_effect=os.replace) as replace:
            for stage in STAGES:
                STAGE_FUNCTIONS[stage](probe)
                made += [stage] * (replace.call_count - len(made))
        assert dir_files(probe.out_dir) == clean_files

        real_replace = os.replace
        for crash_at, crashed in enumerate(made):
            config = fixture_config(tmp_path, out_dir=tmp_path / f"out{crash_at}")
            shutil.copytree(start_dir, config.out_dir)
            calls = iter(range(len(made)))

            def replace(src, dst):
                if next(calls) == crash_at:
                    raise Crash
                real_replace(src, dst)

            with mock.patch.object(os, "replace", replace), pytest.raises(Crash):
                run_pipeline(config)
            for stage in STAGES[STAGES.index(crashed) + 1:]:
                where = f"killed at write {crash_at} ({crashed}), then {stage}"
                try:
                    STAGE_FUNCTIONS[stage](config)
                except StageError as exc:
                    named = re.search(r"; run stage '(\w+)' (?:again|first)$", exc.message)
                    assert named and named[1] in STAGES, f"{where}: {exc.message}"
                else:
                    wrote = {name: (config.out_dir / name).read_bytes()
                             for name in STAGE_TABLE[stage].writes}
                    assert wrote in ({name: clean_files[name] for name in wrote},
                                     {name: start_files.get(name) for name in wrote}), where
            run_pipeline(config)
            assert dir_files(config.out_dir) == clean_files, f"killed at write {crash_at}"


class TestRegressErrors:
    GRAPH_KEYS = "min_out_links, min_in_links, year_min, year_max, min_abstract_chars"

    def test_no_labelled_paper_is_named_with_the_counts(self, tmp_path, monkeypatch):
        # a backend that names neither category labels every paper Other
        monkeypatch.setattr(pipeline, "stub_backend", lambda prompt: "No category fits.")
        config = fixture_config(tmp_path)
        with pytest.raises(StageError) as excinfo:
            run_pipeline(config)
        assert excinfo.value.stage == "regress"
        n = len(read_classifications(config.out_dir / "classifications.csv"))
        assert excinfo.value.message == (
            "no eligible paper is labelled Conceptual or Empirical, so no model can be fitted "
            f"({n} eligible: 0 Conceptual, 0 Empirical, {n} Other)")

    def graph_refused(self, tmp_path, capsys, n_eligible):
        message = (f"{n_eligible} papers are eligible, and model 'citations-3' needs more "
                   f"than its 8 columns; relax {self.GRAPH_KEYS} or the allowlist")
        TestLineage.refused(tmp_path, capsys, "graph", message)
        assert not (tmp_path / "out" / "eligible.txt").exists()
        assert not (tmp_path / "out" / "classifications.csv").exists()

    def test_too_few_papers_names_the_model(self, tmp_path, capsys):
        assert cli.main(["run"] + TestLineage.conf(tmp_path, "in40.conf",
                                                   min_in_links=40)) == 1
        self.graph_refused(tmp_path, capsys, 1)

    def test_an_allowlist_that_keeps_no_paper_is_refused_in_graph(self, tmp_path, capsys):
        allowlist = tmp_path / "none.txt"
        allowlist.write_text("No Such Journal\n")
        assert cli.main(["run"] + TestLineage.conf(tmp_path, "none.conf",
                                                   allowlist=allowlist)) == 1
        self.graph_refused(tmp_path, capsys, 0)

    def test_an_empty_year_group_is_refused_in_graph(self, tmp_path, capsys, monkeypatch):
        # no eligible paper from 1996-2000 would make every model rank-deficient,
        # after classify had sent its requests
        monkeypatch.setenv("DISRUPTKIT_API_KEY", "sk-test")
        lines = (FIXTURES / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps({**r, "year": 2001} if 1996 <= r["year"] <= 2000
                                             else r) + "\n" for r in records))
        server = RecordingServer()
        try:
            # this corpus replaces the fixture's
            conf = TestLineage.conf(tmp_path, "http.conf", corpus=corpus, stub="false",
                                    endpoint=server.endpoint, model="test-model",
                                    cache=tmp_path / "cache.jsonl")
            assert cli.main(["run"] + conf) == 1
            TestLineage.refused(tmp_path, capsys, "graph", (
                "no eligible paper is from year group 1996-2000, which every model needs; "
                f"relax {self.GRAPH_KEYS} or the allowlist"))
            assert not (tmp_path / "out" / "classifications.csv").exists()
            assert server.calls == []
        finally:
            server.close()


class TestCli:
    @staticmethod
    def loaded_by_stage(tmp_path, stage, modules):
        """Which of ``modules`` a `disruptkit <stage>` process has loaded
        when its stage ends, after a run of the fixture config."""
        config = fixture_config(tmp_path)
        run_pipeline(config)
        src = str(Path(pipeline.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys; from disruptkit.cli import main; "
             "code = main(sys.argv[1:]); "
             f"print([m for m in {modules!r} if m in sys.modules]); sys.exit(code)",
             stage, "--config", str(FIXTURES / "pipeline.conf"),
             "--out-dir", str(config.out_dir)],
            capture_output=True, text=True, check=True, cwd=FIXTURES,
            env=dict(os.environ, PYTHONPATH=src),
        )
        return out.stdout.splitlines()[-1]

    def test_report_process_leaves_heavy_modules_unloaded(self, tmp_path):
        heavy = ("scipy.sparse", "scipy.linalg", "requests", "urllib.request", "http.client")
        assert self.loaded_by_stage(tmp_path, "report", heavy) == "[]"

    def test_stub_classify_process_leaves_heavy_modules_unloaded(self, tmp_path):
        heavy = ("scipy.sparse", "scipy.special", "scipy.linalg", "http.client",
                 "urllib.request")
        assert self.loaded_by_stage(tmp_path, "classify", heavy) == "[]"

    def test_regress_process_loads_scipy_special_only(self, tmp_path):
        # the fits need numpy alone; p values need scipy.special
        scipy_modules = ("scipy.special", "scipy.linalg", "scipy.sparse")
        assert self.loaded_by_stage(tmp_path, "regress", scipy_modules) == "['scipy.special']"

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

    @pytest.mark.parametrize("effect", ["nan", "inf", "-1"])
    def test_synth_rejects_an_effect_that_is_not_finite_and_nonnegative(self, tmp_path,
                                                                          capsys, effect):
        out = tmp_path / "c.jsonl"
        code = cli.main(["synth", "--out", str(out), "--n-papers", "20", "--seed", "1",
                         "--effect", effect])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: effect must be a finite number >= 0, got {float(effect)}\n")
        assert not out.exists()

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

    @pytest.mark.parametrize("name, edit, message", [
        ("corpus.jsonl", lambda lines: {3: lines[3].replace(b"Paper", b"Pap\xffer", 1)},
         "corpus.jsonl: line 4: not UTF-8 (byte 0xff)"),
        # the decoder fails on a chunk of lines; the lowest bad line wins
        ("corpus.jsonl", lambda lines: {147: lines[146], 149: lines[149] + b"\xff"},
         "corpus.jsonl: line 148: duplicate id 'P000146'"),
        ("journals.txt", lambda lines: {2: b"Synthetic Jour\xffnal 02"},
         "journals.txt: line 3: not UTF-8 (byte 0xff)"),
    ], ids=["corpus", "corpus-earlier-fault", "allowlist"])
    @pytest.mark.parametrize("newline, bom", [(b"\n", b""), (b"\r", b"\xef\xbb\xbf")],
                             ids=["lf", "cr-bom"])
    def test_bytes_that_are_not_utf8_name_the_file_and_line(self, tmp_path, capsys, monkeypatch,
                                                            name, edit, message, newline, bom):
        monkeypatch.chdir(tmp_path)
        for fixture in ("corpus.jsonl", "journals.txt"):
            lines = (FIXTURES / fixture).read_bytes().split(b"\n")
            if fixture == name:
                for k, line in edit(lines).items():
                    lines[k] = line
            (tmp_path / fixture).write_bytes(bom + newline.join(lines))
        code = cli.main(["ingest", "--config", str(FIXTURES / "pipeline.conf")])
        assert code == 1
        assert capsys.readouterr().err == f"error: stage 'ingest': {message}\n"
        assert (tmp_path / "out" / "FAILED").read_text() == f"ingest: {message}\n"

    def test_bad_usage_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["run"])  # --config is required
        assert excinfo.value.code == 2


class TestReadme:
    def test_artifact_table_lists_each_written_file_once(self):
        text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = text.split("| artifact | stage | contents |\n| --- | --- | --- |\n")[1]
        rows = []
        for line in table.split("\n\n")[0].splitlines():
            names, stage, _ = line.strip("|").split("|")
            rows.append((re.findall(r"`([^`]+)`", names), stage.strip()))
        for name, stage in WRITTEN_BY:
            matches = [row for row in rows if any(fnmatch.fnmatchcase(name, pattern)
                                                  for pattern in row[0])]
            assert [row_stage for _, row_stage in matches] == [stage], name
        for patterns, _ in rows:
            for pattern in patterns:
                assert fnmatch.filter(ARTIFACT_NAMES, pattern), pattern
