"""Article-type classification through a chat-completion backend.

The prompt embeds two category definitions and asks for a constrained
response format; parsing tolerates drift from that format by falling
back to token scanning, with both-or-neither responses mapped to Other.
Responses from a real backend are cached in an append-only JSONL file
keyed by a content hash of (model, prompt). A deterministic offline
stub stands in for the backend in tests and pipelines with no network.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Mapping, Sequence
from urllib.parse import unquote, urlsplit


LABELS = ("Conceptual", "Empirical", "Other")

SOURCES = ("backend", "cache", "stub", "error")

PROMPT_TEMPLATE = (
    "There are two types of articles published in the Journal of Marketing as below.\n"
    "\n"
    "1. Conceptual articles: These types of articles make their contributions "
    "through theoretical arguments that introduce new topics, new constructs, "
    "new relationships, new theories, and even new paradigms for the field.\n"
    "\n"
    "2. Empirical articles: Empirical articles use organized observations about "
    "marketing-relevant data of any type to offer important insights to the "
    "marketing discipline.\n"
    "\n"
    'Based on the definitions above, classify an academic article with title '
    '"%s" and abstract "%s" into either the conceptual category or the '
    "empirical category.\n"
    "\n"
    'Your response will be in a format "This article is in the [Category] '
    'because [Reasons]".'
)

_TEMPLATE_PARTS = PROMPT_TEMPLATE.split("%s")

_RESPONSE_RE = re.compile(
    r"this article is in the\s+(?P<category>.+?)\s+because\s+(?P<reasons>.+)",
    re.IGNORECASE | re.DOTALL,
)


class BackendError(RuntimeError):
    """A backend request failed permanently (after retries)."""


def render_prompt(title: str, abstract: str) -> str:
    """Fill the two text slots of the classification prompt.

    Substitution is positional, not printf-style, so percent signs in
    the title or abstract pass through untouched.
    """
    if not title:
        raise ValueError("title must be non-empty")
    if not abstract:
        raise ValueError("abstract must be non-empty")
    head, mid, tail = _TEMPLATE_PARTS
    return head + title + mid + abstract + tail


def _prompts(ids: Sequence[str], titles: Sequence[str],
             abstracts: Sequence[str]) -> Iterator[str]:
    """Each row's prompt, in row order. An empty title or abstract raises
    ValueError naming the row's id."""
    for paper_id, title, abstract in zip(ids, titles, abstracts):
        try:
            yield render_prompt(title, abstract)
        except ValueError as exc:
            raise ValueError(f"record {paper_id!r}: {exc}") from None


def _token_label(text: str) -> str | None:
    lowered = text.lower()
    has_conceptual = "conceptual" in lowered
    has_empirical = "empirical" in lowered
    if has_conceptual and not has_empirical:
        return "Conceptual"
    if has_empirical and not has_conceptual:
        return "Empirical"
    return None


def parse_response(text: str) -> tuple[str, str]:
    """Map a backend response to (label, rationale).

    The template form is tried first; its category chunk decides the
    label and the because-clause becomes the rationale. Otherwise the
    whole text is scanned for the two category tokens; naming exactly
    one yields that label, naming both or neither yields Other. The
    full text serves as rationale outside the template form.
    """
    match = _RESPONSE_RE.search(text)
    if match:
        label = _token_label(match.group("category"))
        if label is not None:
            return label, match.group("reasons").strip()
    label = _token_label(text)
    if label is not None:
        return label, text.strip()
    return "Other", text.strip()


def check_choice(name: str, value: str, allowed: tuple[str, ...]) -> None:
    """Raise ValueError naming ``value`` unless it is one of ``allowed``."""
    if value not in allowed:
        raise ValueError(f"{name} must be one of {allowed}, got {value!r}")


@dataclass(frozen=True)
class LabelTable:
    """Classification results as columns, one entry per paper: paper id,
    label (one of LABELS), label source (one of SOURCES) and rationale."""

    ids: tuple[str, ...]
    labels: tuple[str, ...]
    sources: tuple[str, ...]
    rationales: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.ids)

    def by_id(self) -> dict[str, str]:
        """Paper id -> label."""
        return dict(zip(self.ids, self.labels))


@dataclass(frozen=True)
class BackendConfig:
    """Connection settings for a chat-completion-style HTTP endpoint.

    The endpoint takes (model, temperature, one user message) and
    returns a completion; every request sends temperature 0.0 so repeated
    runs are as deterministic as the backend allows.
    """

    endpoint: str
    model: str
    max_in_flight: int = 4
    retries: int = 3
    backoff_base: float = 1.0
    timeout: float = 30.0
    api_key_env: str = "DISRUPTKIT_API_KEY"

    def __post_init__(self):
        check_backend_limits(self.max_in_flight, self.retries, self.backoff_base, self.timeout)
        try:
            parts = urlsplit(self.endpoint)
            port = parts.port
        except ValueError as exc:  # a bad port or an unclosed IPv6 bracket
            raise ValueError(f"endpoint {self.endpoint!r}: {exc}") from None
        if parts.scheme not in ("http", "https"):
            raise ValueError(f"endpoint must be an http or https URL, got {self.endpoint!r}")
        if not parts.hostname:
            raise ValueError(f"endpoint {self.endpoint!r}: no host given")
        if port == 0:
            raise ValueError(f"endpoint {self.endpoint!r}: Port out of range 1-65535")
        if not self.model:
            raise ValueError("model must be non-empty")


def check_backend_limits(max_in_flight: int, retries: int, backoff_base: float,
                         timeout: float) -> None:
    """Raise ValueError naming the first of these BackendConfig settings
    that is out of range (NaN and infinity included: a socket timeout or
    a sleep of inf overflows)."""
    if max_in_flight < 1:
        raise ValueError("max_in_flight must be >= 1")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if not backoff_base >= 0:
        raise ValueError("backoff_base must be >= 0")
    if backoff_base == math.inf:
        raise ValueError("backoff_base must be finite")
    if not timeout > 0:
        raise ValueError("timeout must be > 0")
    if timeout == math.inf:
        raise ValueError("timeout must be finite")


def cache_key(model: str, prompt: str) -> str:
    digest = hashlib.sha256()
    digest.update(model.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(prompt.encode("utf-8"))
    return digest.hexdigest()


class ResponseCache:
    """Append-only JSONL store of backend responses.

    Each line holds {key_hash, model, label, rationale, timestamp}.
    Later lines win on duplicate keys. The file is opened for appending
    by ``open``, or else by the first ``put``, and stays open until
    ``close`` (or the end of a ``with`` block). Each put writes its whole
    line and flushes it while holding a lock, so concurrent workers never
    interleave partial lines and a crash leaves at most a torn last line.

    A final line with no newline is what a crash in the middle of an
    append leaves behind: it is ignored on load and cut from the file
    when it is opened for the next append. Any other unreadable line, or
    one whose key_hash or rationale is not a string or whose label is
    not in LABELS, is an error.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._entries: dict[str, tuple[str, str]] = {}
        self._lock = threading.Lock()
        # Byte length of the file without its torn final line, if it has one.
        self._intact_size: int | None = None
        self._fh: BinaryIO | None = None
        if self.path.exists():
            with self.path.open("rb") as fh:
                for lineno, line in enumerate(fh, start=1):
                    if not line.endswith(b"\n"):
                        self._intact_size = fh.tell() - len(line)
                        break
                    self._load_line(lineno, line)

    def _load_line(self, lineno: int, line: bytes) -> None:
        if not line.strip():
            return
        try:
            obj = json.loads(line.decode("utf-8"))
        except ValueError as exc:
            raise ValueError(f"{self.path}: line {lineno}: invalid JSON ({exc})") from exc
        missing = [k for k in ("key_hash", "label", "rationale")
                   if not isinstance(obj, dict) or k not in obj]
        if missing:
            raise ValueError(
                f"{self.path}: line {lineno}: missing field(s) {', '.join(missing)}")
        if not isinstance(obj["key_hash"], str):
            raise ValueError(f"{self.path}: line {lineno}: key_hash must be a string")
        check_choice(f"{self.path}: line {lineno}: label", obj["label"], LABELS)
        if not isinstance(obj["rationale"], str):
            raise ValueError(f"{self.path}: line {lineno}: rationale must be a string")
        self._entries[obj["key_hash"]] = (obj["label"], obj["rationale"])

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, model: str, prompt: str) -> tuple[str, str] | None:
        return self._entries.get(cache_key(model, prompt))

    def put(self, model: str, prompt: str, label: str, rationale: str) -> None:
        key = cache_key(model, prompt)
        record = {
            "key_hash": key,
            "model": model,
            "label": label,
            "rationale": rationale,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }
        line = (json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8")
        self.open()
        with self._lock:
            self._fh.write(line)
            self._fh.flush()
            self._entries[key] = (label, rationale)

    def open(self) -> None:
        """Open the append handle, if it is not open, and cut a torn final
        line. An OSError names the cache file."""
        with self._lock:
            if self._fh is not None:
                return
            try:
                fh = self.path.open("ab")
            except OSError as exc:
                raise OSError(f"cannot append to cache file {self.path}: "
                              f"{exc.strerror or exc}") from exc
            if self._intact_size is not None:
                fh.truncate(self._intact_size)
                self._intact_size = None
            self._fh = fh

    def close(self) -> None:
        """Close the append handle, if it is open; a later put opens it
        again."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> ResponseCache:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# A 429 or 503 may name a wait in whole seconds; longer waits are cut to this.
RETRY_AFTER_CAP = 60.0

# Scales each backoff by a factor in [0.5, 1.0), so workers that failed
# together do not retry together. Tests pin it by replacing it.
_JITTER = random.Random()


def _retry_after(status: int, headers: Mapping[str, str]) -> float:
    """Seconds a 429 or 503 response asks the client to wait, capped at
    RETRY_AFTER_CAP; 0 for other responses and for the HTTP-date form."""
    value = (headers.get("Retry-After") or "").strip() if status in (429, 503) else ""
    if value.isascii() and value.isdigit():
        return min(float(value), RETRY_AFTER_CAP)
    return 0.0


def _sender(config: BackendConfig, api_key: str) -> Callable[[str], str]:
    """A function that sends one prompt to the backend, with retries, and
    returns the completion text or raises BackendError.

    What every request needs is derived here, once per batch: the address
    and request target, the proxy, the headers, and for https one TLS
    context. Each attempt opens its own connection and closes it.
    """
    # Only the HTTP path needs the client; stub runs skip these imports.
    import base64
    import http.client
    import ssl
    import urllib.request

    from . import __version__

    parts = urlsplit(config.endpoint)
    https = parts.scheme == "https"
    host, port = parts.hostname, parts.port  # no port: the scheme's default
    hostport = parts.netloc.rpartition("@")[2]
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    headers = {"Authorization": f"Bearer {api_key}", "Content-Type": "application/json",
               "User-Agent": f"disruptkit/{__version__}"}
    # Each connection goes to the endpoint, or to the proxy for its scheme.
    address = (host, port)
    tunnel = None
    proxy = urllib.request.getproxies().get(parts.scheme)
    if proxy and not urllib.request.proxy_bypass(hostport):
        try:
            # A proxy given without a scheme is a bare host[:port].
            proxy_parts = urlsplit(proxy if "://" in proxy else "//" + proxy)
            address = (proxy_parts.hostname, proxy_parts.port)
        except ValueError as exc:  # a bad port or an unclosed IPv6 bracket
            raise ValueError(f"{parts.scheme}_proxy {proxy!r}: {exc}") from None
        if not address[0]:
            raise ValueError(f"{parts.scheme}_proxy {proxy!r}: no host given")
        proxy_headers = {}
        if proxy_parts.username and proxy_parts.password:
            credentials = f"{unquote(proxy_parts.username)}:{unquote(proxy_parts.password)}"
            proxy_headers["Proxy-Authorization"] = (
                "Basic " + base64.b64encode(credentials.encode()).decode("ascii"))
        if https:
            tunnel = proxy_headers
        else:
            # The proxy is asked for the endpoint's absolute URL.
            target = f"{parts.scheme}://{hostport}{target}"
            headers.update(proxy_headers)
    context = ssl.create_default_context() if https else None

    def connect() -> http.client.HTTPConnection:
        if not https:
            return http.client.HTTPConnection(*address, timeout=config.timeout)
        conn = http.client.HTTPSConnection(*address, timeout=config.timeout, context=context)
        if tunnel is not None:
            conn.set_tunnel(host, port, headers=tunnel)
        return conn

    def send(prompt: str) -> str:
        payload = {
            "model": config.model,
            "temperature": 0.0,
            "messages": [{"role": "user", "content": prompt}],
        }
        data = json.dumps(payload).encode("utf-8")
        last_error: Exception | None = None
        wait = 0.0
        for attempt in range(config.retries + 1):
            if attempt:
                backoff = config.backoff_base * (2 ** (attempt - 1))
                time.sleep(max(backoff * (0.5 + 0.5 * _JITTER.random()), wait))
            conn = connect()
            # The body is read inside the try, so a timeout while reading
            # it is retried like one while connecting.
            try:
                conn.request("POST", target, body=data, headers=headers)
                reply = conn.getresponse()
                body = reply.read()
            except (OSError, http.client.HTTPException) as exc:
                last_error, wait = exc, 0.0
                continue
            finally:
                conn.close()
            status = reply.status
            if status == 429 or status >= 500:
                last_error = BackendError(f"HTTP {status}")
                wait = _retry_after(status, reply.headers)
                continue
            if status != 200:
                text = body.decode("utf-8", errors="replace")
                raise BackendError(f"HTTP {status}: {text[:200]}")
            try:
                content = json.loads(body)["choices"][0]["message"]["content"]
                # Content that is not text, or that holds a lone surrogate,
                # has no UTF-8 form to cache or write out.
                content.encode("utf-8")
            except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
                raise BackendError(f"malformed backend response: {exc}") from exc
            return content
        raise BackendError(f"backend unreachable after {config.retries} retries: {last_error}")

    return send


def classify_batch(
    ids: Sequence[str],
    titles: Sequence[str],
    abstracts: Sequence[str],
    config: BackendConfig | None = None,
    cache: ResponseCache | None = None,
    backend: Callable[[str], str] | None = None,
) -> LabelTable:
    """Classify each paper from its title and abstract, given as three
    columns with one row per paper; the table's rows are those, in order.

    With ``backend`` set (any prompt -> response callable, normally
    ``stub_backend``) everything runs locally and the cache is not
    consulted or written: local responses are free to recompute and
    keeping them out of the cache preserves its meaning as a record of
    real backend output. Otherwise ``config`` drives HTTP requests.
    Every prompt is first looked up in the cache in the calling thread,
    and cached prompts are served from it with no request and no worker.
    Only the papers left over are requested, which needs the API key, by
    ``min(max_in_flight, misses)`` worker threads that each take the next
    paper until none is left (no thread starts when every prompt is
    cached). The cache file is opened for appending before the first
    request, and fresh responses are appended to it. A paper whose
    request fails permanently yields an error-source row instead of
    aborting the batch. Any other exception in a worker stops every
    worker from taking another paper and is raised here once all have
    ended. A row with an empty title or abstract raises ValueError naming
    its id, and then no HTTP request is sent.
    """
    if backend is not None:
        return _label_table(ids, [(*parse_response(backend(prompt)), "stub")
                                  for prompt in _prompts(ids, titles, abstracts)])

    if config is None:
        raise ValueError("either a backend callable or a BackendConfig is required")

    prompts = list(_prompts(ids, titles, abstracts))
    rows: list[tuple[str, str, str] | None] = []
    misses: list[int] = []
    for pos, prompt in enumerate(prompts):
        hit = cache.get(config.model, prompt) if cache is not None else None
        if hit is None:
            misses.append(pos)
            rows.append(None)
        else:
            rows.append((*hit, "cache"))
    if not misses:
        return _label_table(ids, rows)

    api_key = os.environ.get(config.api_key_env, "")
    if not api_key:
        raise RuntimeError(
            f"backend required but environment variable {config.api_key_env} is not set"
        )
    if cache is not None:
        # before any request, so no paid answer is lost to a cache it cannot keep
        cache.open()

    send = _sender(config, api_key)

    def request_row(prompt: str) -> tuple[str, str, str]:
        try:
            response = send(prompt)
        except BackendError as exc:
            return "Other", str(exc), "error"
        label, rationale = parse_response(response)
        if cache is not None:
            cache.put(config.model, prompt, label, rationale)
        return label, rationale, "backend"

    todo = iter(misses)
    lock = threading.Lock()
    failures: list[BaseException] = []

    def work() -> None:
        while True:
            with lock:
                pos = None if failures else next(todo, None)
            if pos is None:
                return
            try:
                rows[pos] = request_row(prompts[pos])
            except BaseException as exc:
                failures.append(exc)

    workers = [threading.Thread(target=work, name=f"classify-worker-{k}")
               for k in range(min(config.max_in_flight, len(misses)))]
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    except BaseException as exc:
        # Interrupted while waiting: no worker takes another paper.
        failures.append(exc)
        raise
    if failures:
        raise failures[0]
    return _label_table(ids, rows)


def _label_table(ids: Sequence[str], rows: list[tuple[str, str, str]]) -> LabelTable:
    """The table of these ids and their (label, rationale, source) rows."""
    labels, rationales, sources = zip(*rows) if rows else ((), (), ())
    return LabelTable(ids=tuple(ids), labels=labels, sources=sources, rationales=rationales)


_CONCEPTUAL_CUES = (
    "theory", "theoretical", "theories", "framework", "conceptual",
    "proposition", "propositions", "paradigm", "construct", "constructs",
    "perspective", "typology",
)

_EMPIRICAL_CUES = (
    "data", "dataset", "experiment", "experiments", "survey", "surveys",
    "empirical", "regression", "panel", "sample", "respondents",
    "measurement", "evidence", "estimation",
)

_TITLE_ANCHOR = 'classify an academic article with title "'
_ABSTRACT_ANCHOR = '" and abstract "'
_TAIL_ANCHOR = '" into either the conceptual category'


def _extract_texts(prompt: str) -> str:
    """Pull the substituted title and abstract back out of a rendered
    prompt so cue scoring never sees the surrounding template (which
    itself names both categories)."""
    start = prompt.find(_TITLE_ANCHOR)
    split = prompt.rfind(_ABSTRACT_ANCHOR)
    end = prompt.rfind(_TAIL_ANCHOR)
    if start == -1 or split == -1 or end == -1 or not (start < split < end):
        return prompt
    title = prompt[start + len(_TITLE_ANCHOR):split]
    abstract = prompt[split + len(_ABSTRACT_ANCHOR):end]
    return title + "\n" + abstract


# A cue counts where it is a whole run of a-z letters in the lowercased
# text, so "theory-driven" holds one cue and "theorys" none. Both lists
# are alternatives of one pattern, read in a single scan.
_CUE_PATTERN = re.compile(
    r"(?<![a-z])(?:({})|({}))(?![a-z])".format(
        "|".join(_CONCEPTUAL_CUES), "|".join(_EMPIRICAL_CUES))
)


def _cue_scores(text: str) -> tuple[int, int]:
    """(conceptual, empirical) cue-word counts of one text."""
    conceptual = empirical = 0
    for is_conceptual, _ in _CUE_PATTERN.findall(text.lower()):
        if is_conceptual:
            conceptual += 1
        else:
            empirical += 1
    return conceptual, empirical


def stub_backend(prompt: str) -> str:
    """Offline stand-in for the chat backend.

    A pure function of the prompt: the substituted title and abstract
    are scored against two cue-word lists, the stronger side picks the
    category, and an exact tie falls back to the parity of the prompt's
    SHA-256 digest. The response always follows the requested template.
    """
    text = _extract_texts(prompt)
    conceptual, empirical = _cue_scores(text)
    if conceptual > empirical:
        label = "conceptual"
        reason = ("the title and abstract emphasize theoretical development "
                  f"({conceptual} cue terms against {empirical})")
    elif empirical > conceptual:
        label = "empirical"
        reason = ("the title and abstract report organized observations "
                  f"({empirical} cue terms against {conceptual})")
    else:
        digest = hashlib.sha256(prompt.encode("utf-8")).digest()
        label = "conceptual" if digest[-1] % 2 == 0 else "empirical"
        reason = (f"cue terms tie at {conceptual} each and the content hash "
                  f"breaks the tie toward the {label} side")
    return f"This article is in the {label} category because {reason}."


def format_percent(numerator: int, denominator: int) -> str:
    """Percentage with one decimal, halves rounded away from zero."""
    if denominator == 0:
        return "NA"
    ratio = Decimal(numerator) * 100 / Decimal(denominator)
    return f"{ratio.quantize(Decimal('0.1'), rounding=ROUND_HALF_UP)}%"


@dataclass(frozen=True)
class AgreementReport:
    gold_counts: dict[str, int] = field(default_factory=dict)
    correct_counts: dict[str, int] = field(default_factory=dict)

    def percent(self, label: str) -> str:
        return format_percent(self.correct_counts.get(label, 0),
                              self.gold_counts.get(label, 0))

    def overall_percent(self) -> str:
        return format_percent(sum(self.correct_counts.values()),
                              sum(self.gold_counts.values()))


def agreement_report(
    predictions: Mapping[str, str],
    gold_labels: Mapping[str, str | None],
) -> AgreementReport:
    """Score predicted labels (paper id -> label) against gold labels
    (paper id -> gold label), per label and overall. Papers whose gold
    label is None are skipped."""
    gold_counts: dict[str, int] = {}
    correct_counts: dict[str, int] = {}
    for paper_id, gold in gold_labels.items():
        if gold is None:
            continue
        pred = predictions.get(paper_id)
        if pred is None:
            raise ValueError(f"no classification for gold-labeled record {paper_id!r}")
        gold_counts[gold] = gold_counts.get(gold, 0) + 1
        correct_counts.setdefault(gold, 0)
        if pred.lower() == gold:
            correct_counts[gold] += 1
    return AgreementReport(gold_counts=gold_counts, correct_counts=correct_counts)
