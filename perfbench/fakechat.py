"""Fake chat-completion backend for the classify-http-10k workload.

    python3 perfbench/fakechat.py [--cpu N]

Listens on 127.0.0.1 at a free port, prints the port on one line, and
serves until its standard input closes, so it never outlives the
benchmark that started it. It runs in its own process so that its work
does not share the client's interpreter lock; ``--cpu`` pins it to one
CPU.

``POST /v1/chat/completions`` answers with ``stub_backend(prompt)``.
The first attempt at each prompt selected by ``fails_first`` gets a 503
instead, which exercises the client's retry loop deterministically.
``GET /stats`` returns the counters; ``POST /reset`` zeroes them and
forgets which prompts have failed once.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

# A prompt fails once when the first byte of its SHA-256 is below this:
# 6/256, about 2.3% of prompts.
FAIL_BYTE = 6


def fails_first(prompt: str) -> bool:
    return hashlib.sha256(prompt.encode("utf-8")).digest()[0] < FAIL_BYTE


class Counters:
    """Request accounting shared by the handler threads."""

    def __init__(self):
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.requests = 0
        self.injected = 0
        self.active = 0
        self.max_active = 0
        self.busy_s = 0.0
        self.busy_since = 0.0
        self.first_start = None
        self.last_end = None
        self.failed_once: set[str] = set()

    def begin(self) -> None:
        now = time.perf_counter()
        with self.lock:
            self.requests += 1
            if self.active == 0:
                self.busy_since = now
            self.active += 1
            self.max_active = max(self.max_active, self.active)
            if self.first_start is None:
                self.first_start = now

    def end(self) -> None:
        now = time.perf_counter()
        with self.lock:
            self.active -= 1
            if self.active == 0:
                self.busy_s += now - self.busy_since
            self.last_end = now

    def inject(self, prompt: str) -> bool:
        """True when this attempt is the one to fail."""
        if not fails_first(prompt):
            return False
        key = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        with self.lock:
            if key in self.failed_once:
                return False
            self.failed_once.add(key)
            self.injected += 1
            return True

    def stats(self) -> dict:
        with self.lock:
            window = 0.0
            if self.first_start is not None and self.last_end is not None:
                window = self.last_end - self.first_start
            return {"requests": self.requests, "injected": self.injected,
                    "max_in_flight": self.max_active, "busy_s": self.busy_s,
                    "window_s": window}


class Handler(BaseHTTPRequestHandler):
    counters: Counters
    backend = None

    def _send(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        if self.path == "/stats":
            self._send(200, self.counters.stats())
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = self.rfile.read(length)
        if self.path == "/reset":
            with self.counters.lock:
                self.counters.reset()
            self._send(200, {})
            return
        self.counters.begin()
        try:
            prompt = json.loads(body)["messages"][0]["content"]
            if self.counters.inject(prompt):
                status, payload = 503, {"error": "injected failure"}
            else:
                status, payload = 200, {"choices": [{"message": {"content": self.backend(prompt)}}]}
        finally:
            # Ends before the reply is sent: once the client has the
            # reply it may send its next request, which must not count
            # as overlapping this one.
            self.counters.end()
        self._send(status, payload)

    def log_message(self, *args):
        pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int)
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    from disruptkit.classify import stub_backend

    Handler.counters = Counters()
    Handler.backend = staticmethod(stub_backend)
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(server.server_address[1], flush=True)
    try:
        sys.stdin.read()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    return 0


if __name__ == "__main__":
    sys.exit(main())
