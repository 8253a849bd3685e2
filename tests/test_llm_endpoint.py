"""HttpLlmEndpoint against an in-process HTTP server on 127.0.0.1.

Every request goes over loopback to a ``ThreadingHTTPServer`` bound to an
ephemeral port; proxy variables are cleared so nothing is routed elsewhere.
"""
import contextlib
import json
import os
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from chainplan.classifier import HttpLlmEndpoint
from chainplan.errors import EndpointError

MESSAGES = [{"role": "system", "content": "classify"},
            {"role": "user", "content": "an exploit"}]


OK_REPLY = json.dumps({"choices": [{"message": {"content": "RCE_TCP_N_L"}}]}).encode()


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self.server.received.append((self.path, self.headers, body))
        self.server.respond(self)

    do_GET = do_HEAD = do_POST

    def log_message(self, *args):
        pass


def reply(status: int, body: bytes):
    def respond(handler):
        handler.send_response(status)
        handler.send_header("Content-Type", "application/json")
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        handler.wfile.write(body)
    return respond


@pytest.fixture(autouse=True)
def no_proxy(monkeypatch):
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)


@contextlib.contextmanager
def serve():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    httpd.received = []
    httpd.respond = reply(200, OK_REPLY)
    httpd.release = threading.Event()
    httpd.url = f"http://127.0.0.1:{httpd.server_address[1]}/v1/chat/completions"
    thread = threading.Thread(target=httpd.serve_forever, args=(0.02,), daemon=True)
    thread.start()
    try:
        yield httpd
    finally:
        httpd.release.set()
        httpd.shutdown()
        httpd.server_close()
        thread.join()


@pytest.fixture
def server():
    with serve() as httpd:
        yield httpd


@pytest.fixture
def elsewhere():
    """A second loopback server, the target of redirects."""
    with serve() as httpd:
        yield httpd


def test_success_posts_payload_and_headers(server):
    client = HttpLlmEndpoint(server.url, "test-model", api_key="sk-test")
    assert client.complete(MESSAGES) == "RCE_TCP_N_L"
    [(path, headers, body)] = server.received
    assert path == "/v1/chat/completions"
    assert headers["Content-Type"] == "application/json"
    assert headers["Authorization"] == "Bearer sk-test"
    assert json.loads(body) == {"model": "test-model", "messages": MESSAGES,
                                "temperature": 0, "max_tokens": 16}


def test_no_key_sends_no_authorization(server):
    HttpLlmEndpoint(server.url, "m").complete(MESSAGES)
    [(_, headers, _)] = server.received
    assert "Authorization" not in headers


@pytest.mark.parametrize("status", [500, 404])
def test_error_status(server, status):
    server.respond = reply(status, b"x" * 300)
    with pytest.raises(EndpointError) as info:
        HttpLlmEndpoint(server.url, "m").complete(MESSAGES)
    assert str(info.value) == f"endpoint returned HTTP {status}: " + "x" * 200


@pytest.mark.parametrize("body", [
    b"<html>not json</html>",
    b'{"id": "no choices"}',
    b'{"choices": []}',
    b'{"choices": [{"message": {}}]}',
    b"[1, 2]",
])
def test_unexpected_shape(server, body):
    server.respond = reply(200, body)
    with pytest.raises(EndpointError, match="^unexpected endpoint response shape: "):
        HttpLlmEndpoint(server.url, "m").complete(MESSAGES)


def test_timeout(server):
    server.respond = lambda handler: server.release.wait(5)
    client = HttpLlmEndpoint(server.url, "m", timeout_s=0.2)
    with pytest.raises(EndpointError, match=f"^request to {server.url} failed: "):
        client.complete(MESSAGES)


def test_connection_dropped_mid_reply(server):
    def respond(handler):
        handler.send_response(200)
        handler.send_header("Content-Length", "100")
        handler.end_headers()
        handler.wfile.write(b'{"choices"')
        handler.close_connection = True
    server.respond = respond
    with pytest.raises(EndpointError, match=f"^request to {server.url} failed: "):
        HttpLlmEndpoint(server.url, "m").complete(MESSAGES)


def test_connection_refused():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    url = f"http://127.0.0.1:{port}/v1"
    with pytest.raises(EndpointError, match=f"^request to {url} failed: "):
        HttpLlmEndpoint(url, "m", timeout_s=1).complete(MESSAGES)


@pytest.mark.parametrize("url", ["notaurl", "file:///nonexistent"])
def test_url_not_http(url):
    with pytest.raises(EndpointError, match=f"^request to {url} failed: "):
        HttpLlmEndpoint(url, "m").complete(MESSAGES)


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_redirect_is_not_followed(server, elsewhere, status):
    def respond(handler):
        handler.send_response(status)
        handler.send_header("Location", elsewhere.url)
        handler.send_header("Content-Length", "5")
        handler.end_headers()
        handler.wfile.write(b"moved")
    server.respond = respond
    with pytest.raises(EndpointError) as info:
        HttpLlmEndpoint(server.url, "m", api_key="sk-test").complete(MESSAGES)
    assert str(info.value) == f"endpoint returned HTTP {status}: moved"
    assert elsewhere.received == []
