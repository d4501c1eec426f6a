import hashlib
import json
import os
import re
import socket
import sys
import tempfile
import threading
import urllib.request
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from disruptkit import classify
from disruptkit.classify import (
    _CONCEPTUAL_CUES,
    _EMPIRICAL_CUES,
    PROMPT_TEMPLATE,
    AgreementReport,
    BackendConfig,
    LabelTable,
    ResponseCache,
    agreement_report,
    cache_key,
    classify_batch,
    format_percent,
    parse_response,
    render_prompt,
    stub_backend,
    _cue_scores,
)
from disruptkit.corpus import parse_corpus
from disruptkit.synth import synth_corpus

from httpstub import RecordingServer, completion

KEY_ENV = "DISRUPTKIT_API_KEY"


def mk(paper_id, title="A title", abstract="An abstract"):
    return {"id": paper_id, "title": title, "abstract": abstract, "journal": "j",
            "year": 2000, "n_authors": 1, "references": []}


def papers(*records):
    """A Corpus of the given records, in id order."""
    return parse_corpus(json.dumps(r) + "\n" for r in records)


class TestPrompt:
    def test_contains_both_definitions(self):
        prompt = render_prompt("T", "A")
        assert "There are two types of articles published in the Journal of Marketing" in prompt
        assert ("1. Conceptual articles: These types of articles make their "
                "contributions through theoretical arguments") in prompt
        assert ("2. Empirical articles: Empirical articles use organized "
                "observations") in prompt
        assert 'classify an academic article with title "T" and abstract "A"' in prompt
        assert ('Your response will be in a format "This article is in the '
                '[Category] because [Reasons]"') in prompt

    def test_template_has_exactly_two_slots(self):
        assert PROMPT_TEMPLATE.count("%s") == 2

    def test_percent_signs_pass_through(self):
        # substitution must not be printf-style
        prompt = render_prompt("Sales grew 100%", "We saw %s and %d patterns")
        assert "Sales grew 100%" in prompt
        assert "We saw %s and %d patterns" in prompt

    def test_rejects_empty_inputs(self):
        with pytest.raises(ValueError, match="title"):
            render_prompt("", "A")
        with pytest.raises(ValueError, match="abstract"):
            render_prompt("T", "")


class TestParseResponse:
    def test_template_form(self):
        label, rationale = parse_response(
            "This article is in the conceptual category because it builds a new theory."
        )
        assert label == "Conceptual"
        assert rationale == "it builds a new theory."

    def test_template_form_with_brackets_and_case(self):
        label, _ = parse_response(
            "THIS ARTICLE IS IN THE [Empirical] category BECAUSE of the data."
        )
        assert label == "Empirical"

    def test_template_form_spans_lines(self):
        label, rationale = parse_response(
            "This article is in the\nempirical category\nbecause the panel\nshows it."
        )
        assert label == "Empirical"
        assert "panel" in rationale

    def test_free_text_with_single_token(self):
        label, rationale = parse_response("Clearly an empirical piece of work.")
        assert label == "Empirical"
        assert rationale == "Clearly an empirical piece of work."

    def test_both_tokens_is_other(self):
        label, _ = parse_response(
            "It is both conceptual and empirical in equal measure."
        )
        assert label == "Other"

    def test_neither_token_is_other(self):
        label, rationale = parse_response("I cannot tell.")
        assert label == "Other"
        assert rationale == "I cannot tell."

    def test_ambiguous_category_chunk_falls_back_to_full_scan(self):
        # the chunk before 'because' names both categories; the full text
        # scan then also sees both, so the response lands in Other
        label, _ = parse_response(
            "This article is in the conceptual or empirical category because unsure."
        )
        assert label == "Other"


class TestBackendConfig:
    def test_bounds(self):
        with pytest.raises(ValueError, match="max_in_flight"):
            BackendConfig(endpoint="http://x", model="m", max_in_flight=0)
        with pytest.raises(ValueError, match="retries"):
            BackendConfig(endpoint="http://x", model="m", retries=-1)
        with pytest.raises(ValueError, match="backoff_base"):
            BackendConfig(endpoint="http://x", model="m", backoff_base=-0.1)

    @pytest.mark.parametrize("endpoint", [
        "file:///etc/passwd", "ftp://example.org/v1", "localhost:8080/v1", "/v1/chat", "",
    ])
    def test_endpoint_must_be_http(self, endpoint):
        with pytest.raises(ValueError, match=f"http or https URL, got {re.escape(repr(endpoint))}"):
            BackendConfig(endpoint=endpoint, model="m")

    @pytest.mark.parametrize("endpoint", ["http://x/v1", "https://x/v1", "HTTPS://x"])
    def test_http_endpoints_pass(self, endpoint):
        assert BackendConfig(endpoint=endpoint, model="m").endpoint == endpoint


class TestCache:
    def test_key_separates_model_from_prompt(self):
        assert cache_key("ab", "c") != cache_key("a", "bc")
        assert cache_key("m", "p") == cache_key("m", "p")

    def test_put_get_roundtrip(self, tmp_path):
        with ResponseCache(tmp_path / "cache.jsonl") as cache:
            assert cache.get("m", "p") is None
            cache.put("m", "p", "Conceptual", "why")
            assert cache.get("m", "p") == ("Conceptual", "why")
            assert len(cache) == 1

    def test_reload_from_disk_and_later_wins(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with ResponseCache(path) as first:
            first.put("m", "p", "Conceptual", "old")
            first.put("m", "p", "Empirical", "new")
        reloaded = ResponseCache(path)
        assert reloaded.get("m", "p") == ("Empirical", "new")
        assert len(path.read_text().splitlines()) == 2  # append-only

    def test_line_fields(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with ResponseCache(path) as cache:
            cache.put("m", "p", "Other", "r")
        record = json.loads(path.read_text().splitlines()[0])
        assert set(record) == {"key_hash", "model", "label", "rationale", "timestamp"}
        assert record["key_hash"] == cache_key("m", "p")

    def test_corrupt_line_names_lineno(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text('{"key_hash": "k", "label": "Other", "rationale": ""}\n{broken\n')
        with pytest.raises(ValueError, match="line 2"):
            ResponseCache(path)

    def test_line_missing_a_field_names_lineno(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text('{"key_hash": "k", "label": "Other", "rationale": ""}\n'
                        '{"key_hash": "k2", "rationale": ""}\n')
        with pytest.raises(ValueError, match="line 2: missing field.*label"):
            ResponseCache(path)

    def test_unknown_label_names_file_and_lineno(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text('{"key_hash": "k", "label": "Other", "rationale": ""}\n'
                        '{"key_hash": "k2", "label": "Mixed", "rationale": ""}\n')
        with pytest.raises(ValueError) as excinfo:
            ResponseCache(path)
        assert str(excinfo.value) == (
            f"{path}: line 2: label must be one of "
            "('Conceptual', 'Empirical', 'Other'), got 'Mixed'")

    def test_rationale_that_is_not_a_string_names_file_and_lineno(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text('{"key_hash": "k", "label": "Other", "rationale": null}\n')
        with pytest.raises(ValueError) as excinfo:
            ResponseCache(path)
        assert str(excinfo.value) == f"{path}: line 1: rationale must be a string"

    def test_torn_final_line_is_dropped_then_overwritten(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with ResponseCache(path) as first:
            first.put("m", "p", "Conceptual", "kept")
            first.put("m", "q", "Empirical", "torn")
        intact = path.read_bytes()
        # a crash mid-append leaves part of the second line, no newline
        path.write_bytes(intact[:-25])

        with ResponseCache(path) as loaded:
            assert len(loaded) == 1
            assert loaded.get("m", "p") == ("Conceptual", "kept")
            assert loaded.get("m", "q") is None
            loaded.put("m", "r", "Other", "after")

        lines = path.read_text().splitlines()
        assert len(lines) == 2 and path.read_text().endswith("\n")
        reloaded = ResponseCache(path)
        assert len(reloaded) == 2
        assert reloaded.get("m", "r") == ("Other", "after")

    def test_torn_line_cut_inside_a_multibyte_character(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with ResponseCache(path) as cache:
            cache.put("m", "p", "Other", "r")
        path.write_bytes(path.read_bytes() + '{"rationale": "\u00e9'.encode()[:-1])
        assert len(ResponseCache(path)) == 1

    @pytest.mark.parametrize("key_hash", ["[1]", "7"], ids=["list", "int"])
    def test_key_hash_that_is_not_a_string_names_file_and_lineno(self, tmp_path,
                                                                 key_hash):
        path = tmp_path / "cache.jsonl"
        path.write_text('{"key_hash": "k", "label": "Other", "rationale": ""}\n'
                        f'{{"key_hash": {key_hash}, "label": "Other", "rationale": ""}}\n')
        with pytest.raises(ValueError) as excinfo:
            ResponseCache(path)
        assert str(excinfo.value) == f"{path}: line 2: key_hash must be a string"

    def test_torn_tail_then_two_puts_leaves_an_intact_file(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with ResponseCache(path) as first:
            first.put("m", "p", "Conceptual", "kept")
        intact = path.read_bytes()
        path.write_bytes(intact + b'{"key_hash": "torn", "lab')

        cache = ResponseCache(path)
        cache.put("m", "q", "Empirical", "one")
        # a reopened handle must not cut the file a second time
        cache.close()
        cache.put("m", "r", "Other", "two")
        cache.close()

        data = path.read_bytes()
        assert data.startswith(intact) and data.endswith(b"\n")
        assert [json.loads(line)["rationale"] for line in data.splitlines()] == [
            "kept", "one", "two"]
        assert len(ResponseCache(path)) == 3

    def test_each_put_is_on_disk_before_close(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with ResponseCache(path) as cache:
            cache.put("m", "p", "Conceptual", "why")
            assert ResponseCache(path).get("m", "p") == ("Conceptual", "why")
        assert cache._fh is None

    def test_concurrent_puts_leave_only_whole_lines(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResponseCache(path)
        # each line is longer than the file object's write buffer
        rationale = "r" * 20000
        n_threads, n_puts = 6, 30

        def writer(t):
            for i in range(n_puts):
                cache.put("m", f"{t}-{i}", "Other", f"{t}-{i} {rationale}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(t,)) for t in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        cache.close()

        lines = path.read_bytes().split(b"\n")
        assert lines.pop() == b""
        records = [json.loads(line) for line in lines]
        assert len(records) == n_threads * n_puts
        reloaded = ResponseCache(path)
        for t in range(n_threads):
            for i in range(n_puts):
                assert reloaded.get("m", f"{t}-{i}") == ("Other", f"{t}-{i} {rationale}")


class TestStubBackend:
    def test_deterministic(self):
        prompt = render_prompt("Some title", "Some abstract text")
        assert stub_backend(prompt) == stub_backend(prompt)

    def test_cue_dominance(self):
        conceptual = stub_backend(render_prompt(
            "Toward a theory of exchange",
            "We develop a conceptual framework with testable propositions.",
        ))
        empirical = stub_backend(render_prompt(
            "Pricing in retail chains",
            "Using panel data from 300 stores we run a regression on a large sample.",
        ))
        assert parse_response(conceptual)[0] == "Conceptual"
        assert parse_response(empirical)[0] == "Empirical"

    def test_template_words_do_not_leak_into_scores(self):
        # the surrounding prompt names both categories repeatedly; a lone
        # cue in the abstract must still decide the label
        response = stub_backend(render_prompt(
            "A study of shelf placement",
            "We analyze scanner data collected from four supermarkets.",
        ))
        assert parse_response(response)[0] == "Empirical"

    def test_tie_breaks_on_content_hash_parity(self):
        prompt = render_prompt("Neutral title", "Nothing decisive is said here.")
        expected = "conceptual" if hashlib.sha256(
            prompt.encode("utf-8")).digest()[-1] % 2 == 0 else "empirical"
        label, rationale = parse_response(stub_backend(prompt))
        assert label.lower() == expected
        assert "tie" in rationale

    def test_response_follows_requested_template(self):
        response = stub_backend(render_prompt("T", "A"))
        assert response.startswith("This article is in the ")
        assert " because " in response

    def test_recovers_generated_labels(self):
        corpus = synth_corpus(n_papers=60, seed=3)
        results = classify_batch(corpus, backend=stub_backend)
        report = agreement_report(results.by_id(),
                                  dict(zip(corpus.ids, corpus.gold_label)))
        assert report.correct_counts == report.gold_counts


def two_pass_cue_score(text, cues):
    """The stub's scorer before it read both cue lists in one scan: kept
    as the reference the one-pass scorer must match."""
    words = re.findall(r"[a-z]+", text.lower())
    cue_set = set(cues)
    return sum(1 for w in words if w in cue_set)


_CUES = _CONCEPTUAL_CUES + _EMPIRICAL_CUES
_NEAR_MISSES = ("theorys", "datasets", "frameworks", "atheory", "sampled",
                "empiricals", "paneling", "surveyed", "constructive", "dat")
# Separators, including none at all (glued words) and characters whose
# lowercase form holds a-z letters (U+0130, the Kelvin sign U+212A).
_GLUE = ("", " ", "-", ".", ",", "\n", "'", "_", "7", "\u00e9", "\u0130",
         "\u212a", "\u00df", "\u03a3", "\u65e5\u672c")
_pieces = st.one_of(
    st.sampled_from(_CUES + _NEAR_MISSES),
    st.sampled_from(_CUES).map(str.upper),
    st.sampled_from(_CUES).map(str.title),
    st.sampled_from(_GLUE),
    st.text(max_size=6),
)


class TestOnePassCueScores:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(_pieces, max_size=40).map("".join))
    @example("theory-driven data")
    @example("theorys datasets")
    @example("THEORY\u0130 \u212aonceptual datasurvey")
    def test_matches_two_pass_scorer(self, text):
        assert _cue_scores(text) == (two_pass_cue_score(text, _CONCEPTUAL_CUES),
                                     two_pass_cue_score(text, _EMPIRICAL_CUES))

    def test_cues_glued_to_punctuation_count_and_near_misses_do_not(self):
        assert _cue_scores("theory-driven, (data); propositions.") == (2, 1)
        assert _cue_scores("theorys datasets atheory") == (0, 0)


class Draws:
    """Stands in for the backoff jitter's random.Random, returning the
    given draws in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


@pytest.fixture
def backend_server():
    server = RecordingServer()
    yield server
    server.close()


@pytest.fixture(scope="module")
def shared_server():
    """One server for every example of a Hypothesis test, which cannot
    take a fresh function-scoped fixture per example."""
    server = RecordingServer()
    yield server
    server.close()


def http_config(server, **kwargs):
    defaults = dict(endpoint=server.endpoint, model="test-model",
                    retries=1, backoff_base=0.0, timeout=5.0)
    defaults.update(kwargs)
    return BackendConfig(**defaults)


class TestHttpBackend:
    def test_request_shape_and_result(self, backend_server, monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        corpus = papers(mk("p1", title="T1", abstract="A1"))
        result = classify_batch(corpus, config=http_config(backend_server))
        assert result.ids == ("p1",)
        assert result.labels == ("Empirical",)
        assert result.sources == ("backend",)
        [call] = backend_server.calls
        assert call["authorization"] == "Bearer sk-test"
        assert call["body"]["model"] == "test-model"
        assert call["body"]["temperature"] == 0.0
        [message] = call["body"]["messages"]
        assert message["role"] == "user"
        assert message["content"] == render_prompt("T1", "A1")

    def test_responses_populate_cache_and_rerun_is_local(self, backend_server,
                                                         tmp_path, monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        corpus = papers(mk("p1", title="T1"), mk("p2", title="T2"))
        config = http_config(backend_server)
        with ResponseCache(tmp_path / "cache.jsonl") as cache:
            first = classify_batch(corpus, config=config, cache=cache)
        assert first.sources == ("backend", "backend")
        assert len(backend_server.calls) == 2

        warm = ResponseCache(tmp_path / "cache.jsonl")
        second = classify_batch(corpus, config=config, cache=warm)
        assert second.sources == ("cache", "cache")
        assert second.labels == first.labels and second.rationales == first.rationales
        assert len(backend_server.calls) == 2  # no new requests

    def test_warm_cache_needs_no_api_key(self, backend_server, tmp_path, monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        corpus = papers(mk("p1", title="T1"), mk("p2", title="T2"))
        config = http_config(backend_server)
        with ResponseCache(tmp_path / "cache.jsonl") as cache:
            first = classify_batch(corpus, config=config, cache=cache)

        def no_pool(*args, **kwargs):
            raise AssertionError("worker pool started for a fully cached batch")

        monkeypatch.delenv(KEY_ENV)
        monkeypatch.setattr(classify, "ThreadPoolExecutor", no_pool)
        warm = classify_batch(corpus, config=config, cache=cache)
        assert warm == LabelTable(ids=("p1", "p2"), labels=first.labels,
                                  sources=("cache", "cache"), rationales=first.rationales)
        assert len(backend_server.calls) == 2

    def test_missing_api_key_fails_before_any_request(self, backend_server,
                                                      monkeypatch):
        monkeypatch.delenv(KEY_ENV, raising=False)
        with pytest.raises(RuntimeError, match=KEY_ENV):
            classify_batch(papers(mk("p1")), config=http_config(backend_server))
        assert backend_server.calls == []

    def test_empty_corpus_gives_an_empty_table(self, backend_server, monkeypatch):
        monkeypatch.delenv(KEY_ENV, raising=False)
        result = classify_batch(papers(), config=http_config(backend_server))
        assert len(result) == 0 and result.rationales == ()
        assert backend_server.calls == []

    def test_transient_errors_are_retried(self, backend_server, monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        ok = completion("This article is in the conceptual category because theory.")
        backend_server.server.behavior = lambda n, body: (
            (500, "{}") if n == 0 else (429, "{}") if n == 1 else (200, ok)
        )
        config = http_config(backend_server, retries=3)
        result = classify_batch(papers(mk("p1")), config=config)
        assert result.labels == ("Conceptual",)
        assert result.sources == ("backend",)
        assert len(backend_server.calls) == 3

    def test_permanent_failure_yields_error_entry(self, backend_server, monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        ok = completion("This article is in the conceptual category because theory.")
        # first record always fails, second succeeds; distinct titles give
        # distinct prompts, and responses are matched by position
        failures = {"T-fail"}

        def behavior(n, body):
            if any(t in body["messages"][0]["content"] for t in failures):
                return 500, "{}"
            return 200, ok

        backend_server.server.behavior = behavior
        corpus = papers(mk("bad", title="T-fail"), mk("good", title="T-ok"))
        config = http_config(backend_server, retries=1, max_in_flight=1)
        results = classify_batch(corpus, config=config)
        assert results.ids == ("bad", "good")
        assert results.sources == ("error", "backend")
        assert results.labels[0] == "Other"
        assert "HTTP 500" in results.rationales[0]
        # the failing record consumed exactly 1 + retries attempts
        n_fail_calls = sum(1 for c in backend_server.calls
                           if "T-fail" in c["body"]["messages"][0]["content"])
        assert n_fail_calls == 2

    def test_client_errors_are_not_retried(self, backend_server, monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        backend_server.server.behavior = lambda n, body: (400, '{"error": "bad"}')
        config = http_config(backend_server, retries=3)
        result = classify_batch(papers(mk("p1")), config=config)
        assert result.sources == ("error",)
        assert len(backend_server.calls) == 1

    def test_malformed_success_body_is_an_error_without_retry(self, backend_server,
                                                              monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        backend_server.server.behavior = lambda n, body: (200, '{"unexpected": true}')
        config = http_config(backend_server, retries=3)
        result = classify_batch(papers(mk("p1")), config=config)
        assert result.sources == ("error",)
        assert "malformed" in result.rationales[0]
        assert len(backend_server.calls) == 1

    def test_content_that_is_not_text_is_malformed(self, backend_server, monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        backend_server.server.behavior = lambda n, body: (200, completion(None))
        result = classify_batch(papers(mk("p1")), config=http_config(backend_server, retries=3))
        assert result.sources == ("error",)
        assert "malformed" in result.rationales[0]
        assert len(backend_server.calls) == 1

    def test_client_error_body_is_in_the_rationale(self, backend_server, monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        body = '{"error": "model not found: test-model"}' + " " * 300
        backend_server.server.behavior = lambda n, _: (404, body)
        result = classify_batch(papers(mk("p1")), config=http_config(backend_server, retries=3))
        assert result.sources == ("error",)
        assert result.rationales[0] == "HTTP 404: " + body[:200]
        assert len(backend_server.calls) == 1

    @pytest.mark.parametrize("status", [201, 204])
    def test_other_success_codes_are_errors_without_retry(self, backend_server,
                                                         monkeypatch, status):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        ok = completion("This article is in the conceptual category because theory.")
        backend_server.server.behavior = lambda n, _: (status, ok if status != 204 else "")
        result = classify_batch(papers(mk("p1")), config=http_config(backend_server, retries=3))
        assert result.sources == ("error",)
        assert result.rationales[0].startswith(f"HTTP {status}")
        assert len(backend_server.calls) == 1

    def test_refused_connection_is_retried_then_an_error(self, monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        with socket.socket() as sock:  # a port that was just free and is now closed
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        attempts = []
        urlopen = urllib.request.urlopen

        def counting(*args, **kwargs):
            attempts.append(1)
            return urlopen(*args, **kwargs)

        monkeypatch.setattr("urllib.request.urlopen", counting)
        config = BackendConfig(endpoint=f"http://127.0.0.1:{port}/v1", model="m",
                               retries=2, backoff_base=0.0, timeout=5.0)
        result = classify_batch(papers(mk("p1")), config=config)
        assert result.sources == ("error",)
        assert "after 2 retries" in result.rationales[0]
        assert "refused" in result.rationales[0].lower()
        assert len(attempts) == 3

    def test_read_timeout_is_retried_then_an_error(self, backend_server, monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        backend_server.server.delay = 1.0
        config = http_config(backend_server, retries=2, timeout=0.2)
        result = classify_batch(papers(mk("p1")), config=config)
        assert result.sources == ("error",)
        assert "after 2 retries" in result.rationales[0]
        assert "timed out" in result.rationales[0]
        assert len(backend_server.calls) == 3

    # The jitter is pinned at its low end, a factor of 0.5, so each
    # backoff is half of backoff_base * 2**(attempt - 1).
    @pytest.mark.parametrize("status, retry_after, backoff_base, waits", [
        (429, "7", 0.5, [7.0, 0.5]),
        (503, "2", 5.0, [2.5, 5.0]),
        (503, " 3600 ", 0.5, [60.0, 0.5]),
        # ignored: the HTTP-date form, fractions, and statuses other than 429 and 503
        (503, "Wed, 21 Oct 2015 07:28:00 GMT", 0.5, [0.25, 0.5]),
        (429, "1.5", 0.5, [0.25, 0.5]),
        (500, "7", 0.5, [0.25, 0.5]),
    ], ids=["429", "backoff-longer", "capped", "http-date", "fraction", "500"])
    def test_retry_after(self, backend_server, monkeypatch, status, retry_after,
                         backoff_base, waits):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        ok = completion("This article is in the conceptual category because theory.")
        # the first failure names a wait, the second names none
        backend_server.server.behavior = lambda n, _: (
            (status, "{}", {"Retry-After": retry_after}) if n == 0
            else (500, "{}") if n == 1 else (200, ok)
        )
        sleeps = []
        monkeypatch.setattr(classify.time, "sleep", sleeps.append)
        monkeypatch.setattr(classify, "_JITTER", Draws([0.0, 0.0]))
        config = http_config(backend_server, retries=2, backoff_base=backoff_base)
        result = classify_batch(papers(mk("p1")), config=config)
        assert result.sources == ("backend",)
        assert sleeps == waits

    def test_backoff_is_jittered_per_attempt(self, backend_server, monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        ok = completion("This article is in the conceptual category because theory.")
        backend_server.server.behavior = lambda n, _: (
            (503, "{}", {"Retry-After": "3"}) if n == 0
            else (500, "{}") if n < 3 else (200, ok)
        )
        sleeps = []
        monkeypatch.setattr(classify.time, "sleep", sleeps.append)
        monkeypatch.setattr(classify, "_JITTER", Draws([0.5, 0.5, 0.75]))
        config = http_config(backend_server, retries=3, backoff_base=2.0)
        result = classify_batch(papers(mk("p1")), config=config)
        assert result.sources == ("backend",)
        # factors 0.75, 0.75 and 0.875 on backoffs of 2, 4 and 8 s; the
        # first wait is held up to the 3 s that Retry-After asked for
        assert sleeps == [3.0, 3.0, 7.0]

    def test_jitter_factor_stays_in_its_range(self, backend_server, monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        backend_server.server.behavior = lambda n, _: (500, "{}")
        sleeps = []
        monkeypatch.setattr(classify.time, "sleep", sleeps.append)
        config = http_config(backend_server, retries=6, backoff_base=1.0)
        assert classify_batch(papers(mk("p1")), config=config).sources == ("error",)
        assert len(sleeps) == 6
        for attempt, wait in enumerate(sleeps, start=1):
            assert 0.5 <= wait / 2 ** (attempt - 1) < 1.0

    def test_in_flight_bound_is_respected(self, backend_server, monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        backend_server.server.delay = 0.1
        corpus = papers(*(mk(f"p{i}", title=f"T{i}") for i in range(6)))
        config = http_config(backend_server, max_in_flight=2)
        results = classify_batch(corpus, config=config)
        assert len(results) == 6
        assert len(backend_server.calls) == 6
        assert backend_server.server.max_active <= 2

    @settings(max_examples=40, deadline=None)
    @given(kinds=st.lists(st.sampled_from(["hit", "miss", "fail"]), max_size=10),
           max_in_flight=st.integers(1, 4))
    @example(kinds=["hit"] * 3, max_in_flight=2)
    @example(kinds=["hit", "miss", "hit", "fail", "miss", "miss"], max_in_flight=2)
    def test_cached_rows_and_requested_misses_keep_corpus_order(self, shared_server,
                                                               kinds, max_in_flight):
        server = shared_server.server
        server.calls, server.max_active, server.delay = [], 0, 0.005
        title_re = re.compile(r'with title "([^"]*)"')

        def behavior(n, body):
            title = title_re.search(body["messages"][0]["content"]).group(1)
            if title.startswith("fail"):
                return 500, "{}"
            return 200, completion(
                f"This article is in the conceptual category because of {title}.")

        server.behavior = behavior
        titles = [f"{kind}{i}" for i, kind in enumerate(kinds)]
        corpus = papers(*(mk(f"p{i:02d}", title=t) for i, t in enumerate(titles)))
        prompts = [render_prompt(t, "An abstract") for t in titles]
        config = http_config(shared_server, model="m", retries=0,
                             max_in_flight=max_in_flight)
        n_misses = sum(kind != "hit" for kind in kinds)
        pools = []

        class RecordingPool(classify.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.dict(os.environ, {KEY_ENV: "sk-test"}), \
                mock.patch.object(classify, "ThreadPoolExecutor", RecordingPool):
            with ResponseCache(Path(tmp) / "cache.jsonl") as cache:
                for kind, title, prompt in zip(kinds, titles, prompts):
                    if kind == "hit":
                        cache.put("m", prompt, "Empirical", f"cached {title}")
                result = classify_batch(corpus, config=config, cache=cache)

            expected = {
                "hit": lambda t: ("Empirical", "cache", f"cached {t}"),
                "miss": lambda t: ("Conceptual", "backend", f"of {t}."),
                "fail": lambda t: ("Other", "error",
                                   "backend unreachable after 0 retries: HTTP 500"),
            }
            rows = [expected[kind](t) for kind, t in zip(kinds, titles)]
            assert result.ids == corpus.ids
            assert list(zip(result.labels, result.sources, result.rationales)) == rows
            requested = [call["body"]["messages"][0]["content"] for call in server.calls]
            assert sorted(requested) == sorted(
                p for kind, p in zip(kinds, prompts) if kind != "hit")
            assert pools == ([min(max_in_flight, n_misses)] if n_misses else [])
            assert server.max_active <= min(max_in_flight, n_misses)
            reloaded = ResponseCache(Path(tmp) / "cache.jsonl")
            for kind, title, prompt in zip(kinds, titles, prompts):
                if kind == "miss":
                    assert reloaded.get("m", prompt) == ("Conceptual", f"of {title}.")
                elif kind == "fail":
                    assert reloaded.get("m", prompt) is None

    def test_stub_path_never_touches_the_network(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("network call attempted")

        monkeypatch.setattr("urllib.request.urlopen", boom)
        results = classify_batch(papers(mk("p1")), backend=stub_backend)
        assert results.sources == ("stub",)

    def test_stub_path_ignores_cache(self, tmp_path, monkeypatch):
        cache = ResponseCache(tmp_path / "cache.jsonl")
        classify_batch(papers(mk("p1")), cache=cache, backend=stub_backend)
        assert len(cache) == 0
        assert not (tmp_path / "cache.jsonl").exists()

    def test_requires_config_or_backend(self):
        with pytest.raises(ValueError, match="backend callable or a BackendConfig"):
            classify_batch(papers(mk("p1")))


class TestAgreement:
    def test_format_percent_half_up(self):
        assert format_percent(26, 28) == "92.9%"
        assert format_percent(194, 214) == "90.7%"
        assert format_percent(111, 115) == "96.5%"
        assert format_percent(22, 23) == "95.7%"
        assert format_percent(1, 8) == "12.5%"
        assert format_percent(1, 16) == "6.3%"  # 6.25 rounds up
        assert format_percent(0, 0) == "NA"

    def test_report_percentages(self):
        report = AgreementReport(
            gold_counts={"conceptual": 28, "empirical": 214},
            correct_counts={"conceptual": 26, "empirical": 194},
        )
        assert report.percent("conceptual") == "92.9%"
        assert report.percent("empirical") == "90.7%"
        assert report.overall_percent() == "90.9%"

    def test_agreement_matching_is_case_insensitive(self):
        gold = {"a": "conceptual", "b": "empirical"}
        predictions = {"a": "Conceptual", "b": "Other"}
        report = agreement_report(predictions, gold)
        assert report.gold_counts == {"conceptual": 1, "empirical": 1}
        assert report.correct_counts == {"conceptual": 1, "empirical": 0}

    def test_records_without_gold_are_skipped(self):
        gold = {"a": "conceptual", "b": None}
        predictions = {"a": "Conceptual"}
        report = agreement_report(predictions, gold)
        assert report.gold_counts == {"conceptual": 1}

    def test_missing_prediction_names_record(self):
        with pytest.raises(ValueError, match="'a'"):
            agreement_report({}, {"a": "conceptual"})
