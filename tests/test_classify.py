import base64
import contextlib
import hashlib
import http.client
import json
import os
import re
import signal
import socket
import ssl
import sys
import tempfile
import threading
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import disruptkit
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
    """The ids, titles and abstracts of the given records, in id order."""
    corpus = parse_corpus(json.dumps(r) + "\n" for r in records)
    return corpus.ids, corpus.title, corpus.abstract


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

    @pytest.mark.parametrize("endpoint", ["http://x/v1", "https://x/v1", "HTTPS://x",
                                          "http://[::1]:8080/v1", "http://x:65535/v1"])
    def test_http_endpoints_pass(self, endpoint):
        assert BackendConfig(endpoint=endpoint, model="m").endpoint == endpoint

    @pytest.mark.parametrize("endpoint, problem", [
        ("http:///v1/chat", "no host given"),
        ("https://user@:443/v1", "no host given"),
        ("http://127.0.0.1:99999/v1", "Port out of range 0-65535"),
        ("http://127.0.0.1:0/v1", "Port out of range 1-65535"),
        ("http://127.0.0.1:80a/v1", "Port could not be cast to integer value as '80a'"),
        ("http://[::1/v1", "Invalid IPv6 URL"),
    ])
    def test_endpoint_without_a_host_or_with_a_bad_port_is_refused(self, endpoint, problem):
        with pytest.raises(ValueError) as excinfo:
            BackendConfig(endpoint=endpoint, model="m")
        assert str(excinfo.value) == f"endpoint {endpoint!r}: {problem}"


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

    def test_a_tied_prompt_with_a_lone_surrogate_breaks_on_its_surrogatepass_bytes(self):
        for prompt in ("\ud800", render_prompt("Neutral \udfff title", "Nothing \ud800 here.")):
            expected = "conceptual" if hashlib.sha256(
                prompt.encode("utf-8", "surrogatepass")).digest()[-1] % 2 == 0 else "empirical"
            label, rationale = parse_response(stub_backend(prompt))
            assert label.lower() == expected
            assert "tie at 0 each" in rationale

    def test_a_lone_surrogate_separates_cues_and_never_glues_them(self):
        # "the\ud800ory" is no cue; dropping the surrogate would make it one
        response = stub_backend(render_prompt(
            "the\ud800ory and the\ud800ory", "Survey\udfff data from a panel\ud800."))
        assert parse_response(response) == (
            "Empirical", "the title and abstract report organized observations "
                         "(3 cue terms against 0).")

    def test_response_follows_requested_template(self):
        response = stub_backend(render_prompt("T", "A"))
        assert response.startswith("This article is in the ")
        assert " because " in response

    def test_recovers_generated_labels(self):
        corpus = synth_corpus(n_papers=60, seed=3)
        results = classify_batch(corpus.ids, corpus.title, corpus.abstract, backend=stub_backend)
        report = agreement_report(results.by_id(),
                                  dict(zip(corpus.ids, corpus.gold_label)))
        assert report.correct_counts == report.gold_counts


def two_pass_cue_score(text, cues):
    """The stub's scorer before it read both cue lists in one scan: kept
    as a reference the set-lookup scorer must match."""
    words = re.findall(r"[a-z]+", text.lower())
    cue_set = set(cues)
    return sum(1 for w in words if w in cue_set)


_ONE_PASS_CUE_PATTERN = re.compile(
    r"(?<![a-z])(?:({})|({}))(?![a-z])".format(
        "|".join(_CONCEPTUAL_CUES), "|".join(_EMPIRICAL_CUES))
)


def one_pass_cue_scores(text):
    """The stub's scorer before it counted cues by set lookup: one regex
    scan for both lists, kept as a second reference."""
    conceptual = empirical = 0
    for is_conceptual, _ in _ONE_PASS_CUE_PATTERN.findall(text.lower()):
        if is_conceptual:
            conceptual += 1
        else:
            empirical += 1
    return conceptual, empirical


_CUES = _CONCEPTUAL_CUES + _EMPIRICAL_CUES
_NEAR_MISSES = ("theorys", "datasets", "frameworks", "atheory", "sampled",
                "empiricals", "paneling", "surveyed", "constructive", "dat")
# Characters with no a-z byte in their UTF-8 form that a byte-level
# scorer could mishandle: lone surrogates (encodable only with
# surrogatepass), NUL, and U+00FF and U+0100, whose UTF-8 bytes fall in
# 0x80-0xBF.
_ODD_CHARS = ("\ud800", "\udbff", "\udc00", "\udfff", "\x00", "\u00ff", "\u0100")
# Separators, including none at all (glued words) and characters whose
# lowercase form holds a-z letters (U+0130, the Kelvin sign U+212A).
_GLUE = ("", " ", "-", ".", ",", "\n", "'", "_", "7", "\u00e9", "\u0130",
         "\u212a", "\u00df", "\u03a3", "\u65e5\u672c") + _ODD_CHARS
_glued_cues = st.tuples(st.sampled_from(_CUES), st.sampled_from(_ODD_CHARS),
                        st.sampled_from(_CUES)).map("".join)
_pieces = st.one_of(
    st.sampled_from(_CUES + _NEAR_MISSES),
    st.sampled_from(_CUES).map(str.upper),
    st.sampled_from(_CUES).map(str.title),
    st.sampled_from(_GLUE),
    _glued_cues,
    st.text(max_size=6),
)


class TestSetLookupCueScores:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(_pieces, max_size=40).map("".join))
    @example("theory-driven data")
    @example("theorys datasets")
    @example("THEORY\u0130 \u212aonceptual datasurvey")
    @example("the\ud800ory data\x00set theory\u00ffdata\u0100panel\udfffsurvey")
    def test_matches_both_reference_scorers(self, text):
        two_pass = (two_pass_cue_score(text, _CONCEPTUAL_CUES),
                    two_pass_cue_score(text, _EMPIRICAL_CUES))
        assert _cue_scores(text) == two_pass == one_pass_cue_scores(text)

    def test_cues_glued_to_punctuation_count_and_near_misses_do_not(self):
        assert _cue_scores("theory-driven, (data); propositions.") == (2, 1)
        assert _cue_scores("theorys datasets atheory") == (0, 0)


class TestGoldenReplies:
    """The stub's replies, pinned by digest: any changed label, cue count
    or tie-break shows here."""

    @staticmethod
    def replies_digest(titles, abstracts):
        replies = (stub_backend(render_prompt(t, a)) for t, a in zip(titles, abstracts))
        return hashlib.sha256("\n".join(replies).encode("utf-8")).hexdigest()

    def test_synthetic_corpus(self):
        corpus = synth_corpus(2000, seed=5, effect=1.0)
        assert self.replies_digest(corpus.title, corpus.abstract) == (
            "1c910d4ec2d7e596bef8b81a3935d9f3871c6c0e38d4cd68f49454d598425720")

    def test_fixture_corpus(self):
        with open(Path(__file__).parent / "fixtures" / "corpus.jsonl", encoding="utf-8") as f:
            corpus = parse_corpus(f)
        assert self.replies_digest(corpus.title, corpus.abstract) == (
            "2ec808efeb96bd8ccc4d2c34387990faed50ab6b395db8beefb8b8680da9d153")

    def test_tied_prompts(self):
        # neither corpus above has a tie; these 16 prompts each hold one
        # cue of each side, and their hashes break 11 ties one way, 5 the other
        titles = [f"Title {k}" for k in range(16)]
        assert self.replies_digest(titles, ["An abstract with theory and data."] * 16) == (
            "c065897f60d9e94b232066ce0311084df3f79771c04f6f948833c071326d8493")


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


@pytest.fixture
def cache(tmp_path):
    """A fresh response cache, which every HTTP batch needs."""
    with ResponseCache(tmp_path / "cache.jsonl") as fresh:
        yield fresh


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


@contextlib.contextmanager
def recorded_workers():
    """The classify worker threads started inside the block, in order.
    Other threads (the stub server's) start as usual and are not listed."""
    started = []

    class RecordingThread(threading.Thread):
        def start(self):
            if self.name.startswith("classify-worker"):
                started.append(self)
            super().start()

    with mock.patch.object(threading, "Thread", RecordingThread):
        yield started


def recorded_waits(monkeypatch):
    """The waits before each retry, in order; each passes at once. Waits
    with no timeout (a thread's start, say) are not listed."""
    waits = []

    class RecordingEvent(threading.Event):
        def wait(self, timeout=None):
            if timeout is None:
                return super().wait()
            waits.append(timeout)
            return self.is_set()

    monkeypatch.setattr(threading, "Event", RecordingEvent)
    return waits


def set_proxies(monkeypatch, **values):
    """Clear every proxy variable, then set ``values`` (name -> value)."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    for name, value in values.items():
        monkeypatch.setenv(name, value)


def closed_port():
    """A port on 127.0.0.1 that was just free and is now closed."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestHttpBackend:
    def test_request_shape_and_result(self, cache, backend_server, monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        corpus = papers(mk("p1", title="T1", abstract="A1"))
        result = classify_batch(*corpus, config=http_config(backend_server), cache=cache)
        assert result.ids == ("p1",)
        assert result.labels == ("Empirical",)
        assert result.sources == ("backend",)
        [call] = backend_server.calls
        assert call["path"] == "/v1/chat/completions"
        assert call["authorization"] == "Bearer sk-test"
        assert call["headers"]["User-Agent"] == f"disruptkit/{disruptkit.__version__}"
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
            first = classify_batch(*corpus, config=config, cache=cache)
        assert first.sources == ("backend", "backend")
        assert len(backend_server.calls) == 2

        warm = ResponseCache(tmp_path / "cache.jsonl")
        second = classify_batch(*corpus, config=config, cache=warm)
        assert second.sources == ("cache", "cache")
        assert second.labels == first.labels and second.rationales == first.rationales
        assert len(backend_server.calls) == 2  # no new requests

    def test_warm_cache_needs_no_api_key(self, backend_server, tmp_path, monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        corpus = papers(mk("p1", title="T1"), mk("p2", title="T2"))
        config = http_config(backend_server)
        with ResponseCache(tmp_path / "cache.jsonl") as cache, recorded_workers() as cold:
            first = classify_batch(*corpus, config=config, cache=cache)
        assert len(cold) == 2

        monkeypatch.delenv(KEY_ENV)
        with recorded_workers() as workers:
            warm = classify_batch(*corpus, config=config, cache=cache)
        assert workers == []
        assert warm == LabelTable(ids=("p1", "p2"), labels=first.labels,
                                  sources=("cache", "cache"), rationales=first.rationales)
        assert len(backend_server.calls) == 2
        assert cache._fh is None  # nothing to append, so the file was not opened

    def test_missing_api_key_fails_before_any_request(self, cache, backend_server,
                                                      monkeypatch):
        monkeypatch.delenv(KEY_ENV, raising=False)
        with pytest.raises(RuntimeError, match=KEY_ENV):
            classify_batch(*papers(mk("p1")), config=http_config(backend_server), cache=cache)
        assert backend_server.calls == []

    def test_cache_that_cannot_be_appended_to_fails_before_any_request(
            self, backend_server, tmp_path, monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        path = tmp_path / "missing" / "cache.jsonl"
        corpus = papers(*(mk(f"p{k}", title=f"T{k}") for k in range(20)))
        config = http_config(backend_server, max_in_flight=4)
        with ResponseCache(path) as cache, pytest.raises(OSError) as excinfo:
            classify_batch(*corpus, config=config, cache=cache)
        assert str(excinfo.value) == (f"cannot append to cache file {path}: "
                                      "No such file or directory")
        assert backend_server.calls == []

    @pytest.mark.parametrize("field", ["title", "abstract"])
    def test_empty_text_names_the_record_before_any_request(self, cache, backend_server,
                                                            monkeypatch, field):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        corpus = papers(mk("p1"), mk("p2", **{field: ""}), mk("p3"))
        for kwargs in (dict(backend=stub_backend), dict(config=http_config(backend_server),
                                                        cache=cache)):
            with pytest.raises(ValueError) as excinfo:
                classify_batch(*corpus, **kwargs)
            assert str(excinfo.value) == f"record 'p2': {field} must be non-empty"
        assert backend_server.calls == []

    def test_empty_corpus_gives_an_empty_table(self, cache, backend_server, monkeypatch):
        monkeypatch.delenv(KEY_ENV, raising=False)
        result = classify_batch(*papers(), config=http_config(backend_server), cache=cache)
        assert len(result) == 0 and result.rationales == ()
        assert backend_server.calls == []

    def test_transient_errors_are_retried(self, cache, backend_server, monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        ok = completion("This article is in the conceptual category because theory.")
        backend_server.server.behavior = lambda n, body: (
            (500, "{}") if n == 0 else (429, "{}") if n == 1 else (200, ok)
        )
        config = http_config(backend_server, retries=3)
        result = classify_batch(*papers(mk("p1")), config=config, cache=cache)
        assert result.labels == ("Conceptual",)
        assert result.sources == ("backend",)
        assert len(backend_server.calls) == 3

    def test_permanent_failure_yields_error_entry(self, cache, backend_server, monkeypatch):
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
        results = classify_batch(*corpus, config=config, cache=cache)
        assert results.ids == ("bad", "good")
        assert results.sources == ("error", "backend")
        assert results.labels[0] == "Other"
        assert "HTTP 500" in results.rationales[0]
        # the failing record consumed exactly 1 + retries attempts
        n_fail_calls = sum(1 for c in backend_server.calls
                           if "T-fail" in c["body"]["messages"][0]["content"])
        assert n_fail_calls == 2

    def test_client_errors_are_not_retried(self, cache, backend_server, monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        backend_server.server.behavior = lambda n, body: (400, '{"error": "bad"}')
        config = http_config(backend_server, retries=3)
        result = classify_batch(*papers(mk("p1")), config=config, cache=cache)
        assert result.sources == ("error",)
        assert len(backend_server.calls) == 1

    def test_malformed_success_body_is_an_error_without_retry(self, cache, backend_server,
                                                              monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        backend_server.server.behavior = lambda n, body: (200, '{"unexpected": true}')
        config = http_config(backend_server, retries=3)
        result = classify_batch(*papers(mk("p1")), config=config, cache=cache)
        assert result.sources == ("error",)
        assert "malformed" in result.rationales[0]
        assert len(backend_server.calls) == 1

    def test_content_that_is_not_text_is_malformed(self, cache, backend_server, monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        backend_server.server.behavior = lambda n, body: (200, completion(None))
        result = classify_batch(*papers(mk("p1")), config=http_config(backend_server, retries=3),
                                cache=cache)
        assert result.sources == ("error",)
        assert "malformed" in result.rationales[0]
        assert len(backend_server.calls) == 1

    def test_client_error_body_is_in_the_rationale(self, cache, backend_server, monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        body = '{"error": "prompt exceeds the context window"}' + " " * 300
        backend_server.server.behavior = lambda n, _: (422, body)
        result = classify_batch(*papers(mk("p1")), config=http_config(backend_server, retries=3),
                                cache=cache)
        assert result.sources == ("error",)
        assert result.rationales[0] == "HTTP 422: " + body[:200]
        assert len(backend_server.calls) == 1

    @pytest.mark.parametrize("status", [201, 204])
    def test_other_success_codes_are_errors_without_retry(self, cache, backend_server,
                                                         monkeypatch, status):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        ok = completion("This article is in the conceptual category because theory.")
        backend_server.server.behavior = lambda n, _: (status, ok if status != 204 else "")
        result = classify_batch(*papers(mk("p1")), config=http_config(backend_server, retries=3),
                                cache=cache)
        assert result.sources == ("error",)
        assert result.rationales[0].startswith(f"HTTP {status}")
        assert len(backend_server.calls) == 1

    @pytest.mark.parametrize("status", [301, 302, 303, 307])
    def test_redirects_are_not_followed(self, cache, backend_server, monkeypatch, status):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        backend_server.server.behavior = lambda n, _: (
            status, '{"moved": true}', {"Location": backend_server.endpoint + "/elsewhere"})
        result = classify_batch(*papers(mk("p1")), config=http_config(backend_server, retries=3),
                                cache=cache)
        assert result.sources == ("error",)
        assert result.rationales[0] == f'HTTP {status}: {{"moved": true}}'
        assert len(backend_server.calls) == 1

    def test_refused_connection_is_retried_then_an_error(self, cache, monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        port = closed_port()
        attempts = []
        create_connection = socket.create_connection

        def counting(address, *args, **kwargs):
            attempts.append(address)
            return create_connection(address, *args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", counting)
        config = BackendConfig(endpoint=f"http://127.0.0.1:{port}/v1", model="m",
                               retries=2, backoff_base=0.0, timeout=5.0)
        result = classify_batch(*papers(mk("p1")), config=config, cache=cache)
        assert result.sources == ("error",)
        assert re.fullmatch(r"backend unreachable after 2 retries: \[Errno \d+\] "
                            r"Connection refused", result.rationales[0])
        assert attempts == [("127.0.0.1", port)] * 3

    def test_read_timeout_is_retried_then_an_error(self, cache, backend_server, monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        backend_server.server.delay = 1.0
        config = http_config(backend_server, retries=2, timeout=0.2)
        result = classify_batch(*papers(mk("p1")), config=config, cache=cache)
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
    def test_retry_after(self, cache, backend_server, monkeypatch, status, retry_after,
                         backoff_base, waits):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        ok = completion("This article is in the conceptual category because theory.")
        # the first failure names a wait, the second names none
        backend_server.server.behavior = lambda n, _: (
            (status, "{}", {"Retry-After": retry_after}) if n == 0
            else (500, "{}") if n == 1 else (200, ok)
        )
        sleeps = recorded_waits(monkeypatch)
        monkeypatch.setattr(classify, "_JITTER", Draws([0.0, 0.0]))
        config = http_config(backend_server, retries=2, backoff_base=backoff_base)
        result = classify_batch(*papers(mk("p1")), config=config, cache=cache)
        assert result.sources == ("backend",)
        assert sleeps == waits

    def test_backoff_is_jittered_per_attempt(self, cache, backend_server, monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        ok = completion("This article is in the conceptual category because theory.")
        backend_server.server.behavior = lambda n, _: (
            (503, "{}", {"Retry-After": "3"}) if n == 0
            else (500, "{}") if n < 3 else (200, ok)
        )
        sleeps = recorded_waits(monkeypatch)
        monkeypatch.setattr(classify, "_JITTER", Draws([0.5, 0.5, 0.75]))
        config = http_config(backend_server, retries=3, backoff_base=2.0)
        result = classify_batch(*papers(mk("p1")), config=config, cache=cache)
        assert result.sources == ("backend",)
        # factors 0.75, 0.75 and 0.875 on backoffs of 2, 4 and 8 s; the
        # first wait is held up to the 3 s that Retry-After asked for
        assert sleeps == [3.0, 3.0, 7.0]

    def test_jitter_factor_stays_in_its_range(self, cache, backend_server, monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        backend_server.server.behavior = lambda n, _: (500, "{}")
        sleeps = recorded_waits(monkeypatch)
        config = http_config(backend_server, retries=6, backoff_base=1.0)
        assert classify_batch(*papers(mk("p1")), config=config, cache=cache).sources == ("error",)
        assert len(sleeps) == 6
        for attempt, wait in enumerate(sleeps, start=1):
            assert 0.5 <= wait / 2 ** (attempt - 1) < 1.0

    def test_in_flight_bound_is_respected(self, cache, backend_server, monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        backend_server.server.delay = 0.1
        corpus = papers(*(mk(f"p{i}", title=f"T{i}") for i in range(6)))
        config = http_config(backend_server, max_in_flight=2)
        results = classify_batch(*corpus, config=config, cache=cache)
        assert len(results) == 6
        assert len(backend_server.calls) == 6
        assert backend_server.server.max_active <= 2

    def test_each_miss_is_requested_once_by_contending_workers(self, cache, backend_server,
                                                               monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        corpus = papers(*(mk(f"p{k:03d}", title=f"T{k}") for k in range(120)))
        config = http_config(backend_server, max_in_flight=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with recorded_workers() as workers:
                result = classify_batch(*corpus, config=config, cache=cache)
        finally:
            sys.setswitchinterval(interval)
        assert result.sources == ("backend",) * 120
        requested = sorted(c["body"]["messages"][0]["content"] for c in backend_server.calls)
        assert requested == sorted(render_prompt(f"T{k}", "An abstract") for k in range(120))
        assert len(workers) == 8
        assert not any(worker.is_alive() for worker in workers)

    def test_failure_outside_the_backend_stops_every_worker(self, backend_server,
                                                            tmp_path, monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        backend_server.server.delay = 0.01

        class FailingCache(ResponseCache):
            puts = 0

            def put(self, *args):
                self.puts += 1
                if self.puts == 3:
                    raise OSError("disk full")
                super().put(*args)

        corpus = papers(*(mk(f"p{k:02d}", title=f"T{k}") for k in range(20)))
        config = http_config(backend_server, max_in_flight=2)
        with FailingCache(tmp_path / "cache.jsonl") as cache, recorded_workers() as workers, \
                pytest.raises(OSError, match="disk full"):
            classify_batch(*corpus, config=config, cache=cache)
        # the failing put's request, and at most one more per worker
        assert 3 <= len(backend_server.calls) <= 3 + 2
        assert len(workers) == 2
        assert not any(worker.is_alive() for worker in workers)

    @pytest.mark.parametrize("status, kind", [
        *((s, "retry") for s in (429, 500, 502, 503, 504)),
        *((s, "paper") for s in (201, 204, 301, 302, 400, 402, 408, 409, 413, 422)),
        *((s, "client") for s in (401, 403, 404, 405, 407)),
    ])
    def test_each_status_is_sorted_into_one_kind(self, status, kind):
        body = b'{"error": "no"}'
        if kind == "retry":
            assert classify._completion(status, body) is None
            return
        error = classify.BackendRefused if kind == "client" else classify.BackendError
        with pytest.raises(error) as excinfo:
            classify._completion(status, body)
        prefix = "backend refused the client with " if kind == "client" else ""
        assert str(excinfo.value) == f'{prefix}HTTP {status}: {{"error": "no"}}'

    def test_a_refusal_stops_the_batch_once_the_answer_in_flight_is_cached(
            self, cache, backend_server, monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        body = '{"error": {"message": "Incorrect API key provided"}}'
        in_flight = threading.Barrier(2, timeout=5)

        def behavior(n, _):
            if n < 2:
                in_flight.wait()
            if n == 0:
                return 401, body
            time.sleep(0.2)  # answered after the refusal
            return 200, completion("This article is in the empirical category because data.")

        backend_server.server.behavior = behavior
        corpus = papers(*(mk(f"p{k}", title=f"T{k}") for k in range(10)))
        config = http_config(backend_server, max_in_flight=2, retries=3)
        with recorded_workers() as workers, pytest.raises(classify.BackendRefused) as excinfo:
            classify_batch(*corpus, config=config, cache=cache)
        assert str(excinfo.value) == f"backend refused the client with HTTP 401: {body}"
        # no other paper is started once the refusal is in
        assert len(backend_server.calls) == 2
        answered = backend_server.calls[1]["body"]["messages"][0]["content"]
        reloaded = ResponseCache(cache.path)
        assert len(reloaded) == 1
        assert reloaded.get("test-model", answered) == ("Empirical", "data.")
        assert not any(worker.is_alive() for worker in workers)

    def test_a_refusal_stops_the_retries_of_another_paper(self, cache, backend_server,
                                                          monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")

        def behavior(n, body):
            if "T-busy" in body["messages"][0]["content"]:
                return 503, "{}"
            time.sleep(0.1)
            return 401, "{}"

        backend_server.server.behavior = behavior
        corpus = papers(mk("p1", title="T-busy"), mk("p2", title="T-refused"))
        config = http_config(backend_server, max_in_flight=2, retries=5, backoff_base=0.05)
        with pytest.raises(classify.BackendRefused):
            classify_batch(*corpus, config=config, cache=cache)
        busy = [c for c in backend_server.calls
                if "T-busy" in c["body"]["messages"][0]["content"]]
        # waits of 0.025-0.05, 0.05-0.1 and 0.1-0.2 s before its second,
        # third and fourth attempt; the refusal comes after 0.1 s
        assert 1 <= len(busy) <= 4

    def test_a_refusal_ends_another_papers_wait_to_retry(self, cache, backend_server,
                                                         monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")

        def behavior(n, body):
            if "T-busy" in body["messages"][0]["content"]:
                return 503, "{}", {"Retry-After": "30"}
            time.sleep(0.1)
            return 401, "{}"

        backend_server.server.behavior = behavior
        corpus = papers(mk("p1", title="T-busy"), mk("p2", title="T-refused"))
        config = http_config(backend_server, max_in_flight=2, retries=5)
        start = time.monotonic()
        with pytest.raises(classify.BackendRefused):
            classify_batch(*corpus, config=config, cache=cache)
        # the busy paper's 30 s wait to retry ends with the refusal
        assert time.monotonic() - start < 5
        assert len(backend_server.calls) == 2

    def test_an_interrupt_leaves_once_the_answer_in_flight_is_cached(
            self, cache, backend_server, monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        arrived, release = threading.Event(), threading.Event()

        def behavior(n, _):
            arrived.set()
            release.wait(5)
            return 200, completion("This article is in the conceptual category because theory.")

        def interrupt():
            arrived.wait(5)
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            # the answer is held until well after Ctrl-C
            time.sleep(0.3)
            release.set()

        backend_server.server.behavior = behavior
        corpus = papers(mk("p1", title="T1"), mk("p2", title="T2"))
        config = http_config(backend_server, max_in_flight=1)
        interrupter = threading.Thread(target=interrupt)
        interrupter.start()
        try:
            with pytest.raises(KeyboardInterrupt):
                classify_batch(*corpus, config=config, cache=cache)
            assert not [thread for thread in threading.enumerate()
                        if thread.name.startswith("classify-worker")]
            assert release.is_set()
        finally:
            release.set()
            interrupter.join(5)
        # the answer in flight is a line of the cache; p2 was never requested
        assert ResponseCache(cache.path).get("test-model", render_prompt("T1", "An abstract")) \
            == ("Conceptual", "theory.")
        assert len(backend_server.calls) == 1

    def test_http_proxy_is_asked_for_the_absolute_url(self, cache, backend_server, monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        host, port = backend_server.server.server_address
        set_proxies(monkeypatch, http_proxy=f"http://user:p%40ss@{host}:{port}")
        endpoint = "http://backend.invalid:8080/v1/chat?x=1"
        config = BackendConfig(endpoint=endpoint, model="m", retries=0, timeout=5.0)
        result = classify_batch(*papers(mk("p1")), config=config, cache=cache)
        assert result.sources == ("backend",)
        [call] = backend_server.calls
        assert call["path"] == endpoint
        assert call["headers"]["Host"] == "backend.invalid:8080"
        assert call["authorization"] == "Bearer sk-test"
        assert call["headers"]["Proxy-Authorization"] == (
            "Basic " + base64.b64encode(b"user:p@ss").decode("ascii"))

    def test_no_proxy_host_is_requested_direct(self, cache, backend_server, monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        # a proxy that would refuse the connection
        set_proxies(monkeypatch, http_proxy=f"http://127.0.0.1:{closed_port()}",
                    no_proxy="example.org,127.0.0.1")
        result = classify_batch(*papers(mk("p1")), config=http_config(backend_server), cache=cache)
        assert result.sources == ("backend",)
        [call] = backend_server.calls
        assert call["path"] == "/v1/chat/completions"
        assert "Proxy-Authorization" not in call["headers"]

    @pytest.mark.parametrize("proxy, problem", [
        ("http://proxy.example:80a", "Port could not be cast to integer value as '80a'"),
        ("http://u:pw@:3128", "no host given"),
        ("[::1:3128", "Invalid IPv6 URL"),
    ])
    def test_proxy_without_a_host_or_with_a_bad_port_fails_before_any_request(
            self, cache, monkeypatch, proxy, problem):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        set_proxies(monkeypatch, http_proxy=proxy)
        connections = []
        monkeypatch.setattr(socket, "create_connection",
                            lambda *args, **kwargs: connections.append(args))
        config = BackendConfig(endpoint="http://backend.example/v1", model="m")
        with pytest.raises(ValueError) as excinfo:
            classify_batch(*papers(mk("p1")), config=config, cache=cache)
        assert str(excinfo.value) == f"http_proxy {proxy!r}: {problem}"
        assert connections == []

    def test_https_is_tunnelled_through_the_proxy(self, cache, monkeypatch):
        monkeypatch.setenv(KEY_ENV, "sk-test")
        set_proxies(monkeypatch, https_proxy="http://u:pw@127.0.0.1:3128")
        tunnels, addresses, contexts = [], [], []

        def set_tunnel(conn, host, port=None, headers=None):
            tunnels.append((host, port, headers))

        def refuse(address, *args, **kwargs):
            addresses.append(address)
            raise ConnectionRefusedError("refused by the test")

        create_default_context = ssl.create_default_context

        def counting_context(*args, **kwargs):
            contexts.append(1)
            return create_default_context(*args, **kwargs)

        monkeypatch.setattr(http.client.HTTPSConnection, "set_tunnel", set_tunnel)
        monkeypatch.setattr(socket, "create_connection", refuse)
        monkeypatch.setattr(ssl, "create_default_context", counting_context)
        config = BackendConfig(endpoint="https://backend.example:8443/v1", model="m",
                               retries=1, backoff_base=0.0, timeout=5.0)
        result = classify_batch(*papers(mk("p1"), mk("p2", title="T2")), config=config,
                                cache=cache)
        assert result.sources == ("error", "error")
        auth = {"Proxy-Authorization": "Basic " + base64.b64encode(b"u:pw").decode("ascii")}
        assert tunnels == [("backend.example", 8443, auth)] * 4
        assert addresses == [("127.0.0.1", 3128)] * 4
        assert len(contexts) == 1  # one TLS context for the batch

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

        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.dict(os.environ, {KEY_ENV: "sk-test"}), \
                recorded_workers() as workers:
            with ResponseCache(Path(tmp) / "cache.jsonl") as cache:
                for kind, title, prompt in zip(kinds, titles, prompts):
                    if kind == "hit":
                        cache.put("m", prompt, "Empirical", f"cached {title}")
                result = classify_batch(*corpus, config=config, cache=cache)

            expected = {
                "hit": lambda t: ("Empirical", "cache", f"cached {t}"),
                "miss": lambda t: ("Conceptual", "backend", f"of {t}."),
                "fail": lambda t: ("Other", "error",
                                   "backend unreachable after 0 retries: HTTP 500"),
            }
            rows = [expected[kind](t) for kind, t in zip(kinds, titles)]
            assert result.ids == corpus[0]
            assert list(zip(result.labels, result.sources, result.rationales)) == rows
            requested = [call["body"]["messages"][0]["content"] for call in server.calls]
            assert sorted(requested) == sorted(
                p for kind, p in zip(kinds, prompts) if kind != "hit")
            assert len(workers) == min(max_in_flight, n_misses)
            assert not any(worker.is_alive() for worker in workers)
            assert server.max_active <= min(max_in_flight, n_misses)
            reloaded = ResponseCache(Path(tmp) / "cache.jsonl")
            for kind, title, prompt in zip(kinds, titles, prompts):
                if kind == "miss":
                    assert reloaded.get("m", prompt) == ("Conceptual", f"of {title}.")
                elif kind == "fail":
                    assert reloaded.get("m", prompt) is None

    def test_stub_path_never_touches_the_network(self, cache, monkeypatch):
        def boom(sock, *args, **kwargs):
            sock.close()
            raise AssertionError("network call attempted")

        monkeypatch.setattr(socket.socket, "connect", boom)
        results = classify_batch(*papers(mk("p1")), backend=stub_backend)
        assert results.sources == ("stub",)
        # the guard is one the HTTP path goes through
        monkeypatch.setenv(KEY_ENV, "sk-test")
        config = BackendConfig(endpoint=f"http://127.0.0.1:{closed_port()}/v1", model="m")
        with pytest.raises(AssertionError, match="network call attempted"):
            classify_batch(*papers(mk("p1")), config=config, cache=cache)

    def test_stub_path_ignores_cache(self, tmp_path, monkeypatch):
        cache = ResponseCache(tmp_path / "cache.jsonl")
        classify_batch(*papers(mk("p1")), cache=cache, backend=stub_backend)
        assert len(cache) == 0
        assert not (tmp_path / "cache.jsonl").exists()

    def test_requires_config_or_backend(self, tmp_path):
        with pytest.raises(ValueError, match="backend callable or a BackendConfig"):
            classify_batch(*papers(mk("p1")))
        # the HTTP path keeps every answer it pays for, so it needs a cache
        config = BackendConfig(endpoint="http://127.0.0.1:9/v1", model="m")
        with pytest.raises(ValueError, match="a BackendConfig and a ResponseCache"):
            classify_batch(*papers(mk("p1")), config=config)


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
