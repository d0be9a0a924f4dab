"""HTTP surface: dashboard at /, documentation per api base, operations under it.

The handler works on the raw request target, so percent-encoded slashes in
parameter values never gain path meaning; an absolute-form target
(``http://host/path?query``, RFC 9112 §3.2.2) is cut to its path and query,
still encoded. Operation calls and unmatched paths go through
``ApiManager.call``, which records them in the call statistics; dashboard
and documentation page views do not, so reading the dashboard never
changes what it shows.

``BaseHandler`` is the HTTP side of the gateway and the testkit mock alike:
one request-body framing path (413 above ``MAX_BODY_BYTES``), one socket
timeout (``HANDLER_TIMEOUT_S``), one response writer and one access log.
Refusals, ours and those ``http.server`` makes itself (501, 414, 431, ...),
go through the same writer with the uniform JSON error body.
Its sockets send with Nagle's algorithm off: a response goes out as a header
write and a body write, and with Nagle on the body waited for the client's
delayed ACK, about 40 ms per call on a keep-alive connection.
Subclasses implement only ``_handle``; HEAD is a GET without the body.
``BackgroundServer`` is the one lifecycle: ``with`` closes any server, and
stopping it also cuts the keep-alive connections it still serves.
"""

from __future__ import annotations

import logging
import re
import socket
import threading
from contextlib import suppress
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .docs import render_dashboard, render_docs
from .errors import CallError, error_body
from .manager import ApiManager

log = logging.getLogger(__name__)

HTML_MEDIA_TYPE = "text/html; charset=utf-8"
MAX_BODY_BYTES = 1 << 20  # larger request bodies get 413 and are never read
# A connection idle this long, between requests or inside a body, is closed.
HANDLER_TIMEOUT_S = 30.0
_ABSOLUTE_FORM = re.compile(r"https?://[^/?]*", re.IGNORECASE)


class BaseHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 body framing and response writing; subclasses add ``_handle``."""

    protocol_version = "HTTP/1.1"
    # A refused request line is answered at this version; at 0.9 it got no status line.
    default_request_version = "HTTP/1.0"
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
        # right. A body that cannot be framed, or is too large to read, is
        # refused unread, which closes the connection.
        lengths = self.headers.get_all("Content-Length", ["0"])
        if "Transfer-Encoding" in self.headers:
            self.send_error(411, "Transfer-Encoding is not supported")
        elif len(set(lengths)) > 1 or not (lengths[0].isascii() and lengths[0].isdigit()):
            self.send_error(400, "Malformed Content-Length")
        elif int(lengths[0]) > MAX_BODY_BYTES:
            self.send_error(413, "Request body too large")
        else:
            self._handle(method, self.rfile.read(int(lengths[0])))

    def send_error(self, code: int, message: str | None = None, explain=None) -> None:
        # Replaces http.server's HTML error page; explain is not sent.
        refusal = CallError(message or self.responses[code][0])
        refusal.status = code
        self._send(code, error_body(refusal), "application/json; charset=utf-8", close=True)

    def _send(self, status: int, body: str, content_type: str, close: bool = False) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        if close:
            self.send_header("Connection", "close")  # also ends the handler's loop
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(payload)

    def log_message(self, format: str, *args) -> None:
        log.debug("%s - " + format, self.address_string(), *args)


class _Handler(BaseHandler):
    def _handle(self, method: str, body: bytes) -> None:
        # Operations read only the URL; the request body is ignored.
        gateway: GatewayServer = self.server  # type: ignore[assignment]
        manager = gateway.manager
        target = self.path
        if absolute := _ABSOLUTE_FORM.match(target):
            target = "/" + target[absolute.end():].removeprefix("/")
        path, _, _query = target.partition("?")

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
        outcome, _, _ = manager.call(target, method, accept)
        self._send(outcome.status, outcome.body, f"{outcome.content_type}; charset=utf-8")


class BackgroundServer(ThreadingHTTPServer):
    """Threaded HTTP server that can serve from a background thread."""

    daemon_threads = True
    _thread: threading.Thread | None = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._connections: set[socket.socket] = set()  # accepted, not yet closed

    def process_request(self, request, client_address):
        self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        self._connections.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address):
        # Once stop() closed the listening socket, a handler whose connection
        # it cut may fail to read (a reset, say); that is not worth a traceback.
        if self.socket.fileno() != -1:
            super().handle_error(request, client_address)

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
        # A handler thread may still wait on a keep-alive connection; cutting
        # the connection ends that thread, which then closes the socket.
        for connection in self._connections.copy():
            with suppress(OSError):
                connection.shutdown(socket.SHUT_RDWR)

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
