"""HTTP surface: dashboard at /, documentation per api base, operations under it.

The handler works on the raw request target, so percent-encoded slashes in
parameter values never gain path meaning. Operation calls and unmatched
paths go through ``ApiManager.call``, which records them in the call
statistics; dashboard and documentation page views do not, so reading the
dashboard never changes what it shows.

``BaseHandler`` is the HTTP side of the gateway and the testkit mock alike:
one request-body framing path (413 above ``MAX_BODY_BYTES``), one socket
timeout (``HANDLER_TIMEOUT_S``), one response writer and one access log.
Its sockets send with Nagle's algorithm off: a response goes out as a header
write and a body write, and with Nagle on the body waited for the client's
delayed ACK, about 40 ms per call on a keep-alive connection.
Subclasses implement only ``_handle``; HEAD is a GET without the body.
``BackgroundServer`` is the one lifecycle: ``with`` closes any server.
"""

from __future__ import annotations

import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .docs import render_dashboard, render_docs
from .manager import ApiManager

log = logging.getLogger(__name__)

HTML_MEDIA_TYPE = "text/html; charset=utf-8"
MAX_BODY_BYTES = 1 << 20  # larger request bodies get 413 and are never read
# A connection idle this long, between requests or inside a body, is closed.
HANDLER_TIMEOUT_S = 30.0


class BaseHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 body framing and response writing; subclasses add ``_handle``."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # TCP_NODELAY: see the module docstring
    # handle_one_request catches the TimeoutError and closes the connection.
    timeout = HANDLER_TIMEOUT_S

    def do_GET(self) -> None:
        self._read_body_then_handle("get")

    do_HEAD = do_GET  # _send leaves the body out

    def do_POST(self) -> None:
        self._read_body_then_handle("post")

    def _read_body_then_handle(self, method: str) -> None:
        # Any body is read off the connection, so the next request on it frames
        # right. A body that cannot be framed, or is too large to read, gets
        # send_error unread, which closes the connection.
        lengths = self.headers.get_all("Content-Length", ["0"])
        if "Transfer-Encoding" in self.headers:
            self.send_error(411, "Transfer-Encoding is not supported")
        elif len(set(lengths)) > 1 or not (lengths[0].isascii() and lengths[0].isdigit()):
            self.send_error(400, "Malformed Content-Length")
        elif int(lengths[0]) > MAX_BODY_BYTES:
            self.send_error(413, "Request body too large")
        else:
            self._handle(method, self.rfile.read(int(lengths[0])))

    def _send(self, status: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(payload)

    def log_message(self, format: str, *args) -> None:
        log.debug("%s - %s", self.address_string(), format % args)


class _Handler(BaseHandler):
    def _handle(self, method: str, body: bytes) -> None:
        # Operations read only the URL; the request body is ignored.
        gateway: GatewayServer = self.server  # type: ignore[assignment]
        manager = gateway.manager
        path, _, _query = self.path.partition("?")

        if path in ("", "/") and method == "get":
            page = render_dashboard(manager.stats, manager.documents, gateway.css)
            self._send(200, page, HTML_MEDIA_TYPE)
            return

        api = manager.find_api(path)
        if api is not None and method == "get" and path.rstrip("/") == api.base:
            page = render_docs(api.document.api, api.document.operations, gateway.css)
            self._send(200, page, HTML_MEDIA_TYPE)
            return

        accept = self.headers.get("Accept")
        outcome, _, _ = manager.call(self.path, method, accept)
        self._send(outcome.status, outcome.body, f"{outcome.content_type}; charset=utf-8")


class BackgroundServer(ThreadingHTTPServer):
    """Threaded HTTP server that can serve from a background thread."""

    daemon_threads = True
    _thread: threading.Thread | None = None

    def start(self):
        """Serve in a background thread (tests and embedding); returns self."""
        # Tight poll so stop() returns promptly.
        self._thread = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        # shutdown() waits for serve_forever, so only a started server may call it.
        if self._thread is not None:
            self.shutdown()
            self._thread.join(timeout=5)
            self._thread = None
        self.server_close()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def url(self) -> str:
        """The origin this server listens on, ``http://host:port``."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class GatewayServer(BackgroundServer):
    """Threaded HTTP server bound to one ApiManager."""

    def __init__(
        self,
        manager: ApiManager,
        host: str = "127.0.0.1",
        port: int = 8080,
        css: str | None = None,
    ):
        super().__init__((host, port), _Handler)
        self.manager = manager
        self.css = css


def serve(
    manager: ApiManager,
    host: str = "127.0.0.1",
    port: int = 8080,
    css: str | None = None,
) -> GatewayServer:
    """Bind and start a gateway server in the background."""
    return GatewayServer(manager, host, port, css).start()
