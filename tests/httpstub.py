"""Minimal recording chat-completion server used by the backend tests."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        server = self.server
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length)) if length else {}
        with server.lock:
            server.active += 1
            server.max_active = max(server.max_active, server.active)
            n_seen = len(server.calls)
            server.calls.append({
                "body": body,
                "path": self.path,
                "authorization": self.headers.get("Authorization"),
                "headers": dict(self.headers),
            })
        if server.delay:
            time.sleep(server.delay)
        status, payload, *headers = server.behavior(n_seen, body)
        with server.lock:
            server.active -= 1
        data = payload.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers[0] if headers else {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def completion(text):
    """The success body shape the client expects."""
    return json.dumps({"choices": [{"message": {"content": text}}]})


class RecordingServer:
    """Threaded HTTP server that records every request and answers via a
    pluggable ``behavior(n_seen, body)`` callable, which returns
    ``(status, payload)`` or ``(status, payload, headers)``."""

    def __init__(self):
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self.server.calls = []
        self.server.lock = threading.Lock()
        self.server.active = 0
        self.server.max_active = 0
        self.server.delay = 0.0
        self.server.behavior = lambda n, body: (
            200, completion("This article is in the empirical category because data.")
        )
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    @property
    def endpoint(self):
        host, port = self.server.server_address
        return f"http://{host}:{port}/v1/chat/completions"

    @property
    def calls(self):
        return self.server.calls

    def close(self):
        self.server.shutdown()
        self.server.server_close()
