from __future__ import annotations

import http.client
import json
import logging
import re
import socket
import sys
import threading
import time

import pytest

from checks import assert_valid_html, fetch
from sparqlgate.server import MAX_BODY_BYTES, BaseHandler, GatewayServer, serve
from sparqlgate.testkit import MockRule, MockSparqlEndpoint, results_json, start_mock


@pytest.fixture()
def live(gateway):
    server = serve(gateway, port=0)
    yield server, gateway
    server.stop()


# ---------------------------------------------------------------------------
# Page routes
# ---------------------------------------------------------------------------


def test_root_serves_the_dashboard(live):
    server, _ = live
    response = fetch(server.url + "/")
    assert response.status == 200
    assert response.headers["Content-Type"] == "text/html; charset=utf-8"
    assert_valid_html(response.body)
    assert "API dashboard" in response.body


def test_api_base_serves_the_documentation(live):
    server, _ = live
    for path in ("/api/v1", "/api/v1/"):
        response = fetch(server.url + path)
        assert response.status == 200
        assert "text/html" in response.headers["Content-Type"]
        assert "<h1>Citation Gateway</h1>" in response.body
        assert_valid_html(response.body)


def test_page_views_are_not_recorded_as_calls(live):
    server, manager = live
    fetch(server.url + "/")
    fetch(server.url + "/api/v1")
    assert manager.stats.snapshot()["global"]["total"] == 0


# ---------------------------------------------------------------------------
# Operation calls over HTTP
# ---------------------------------------------------------------------------


def test_get_operation_returns_json_body(live):
    server, _ = live
    response = fetch(server.url + "/api/v1/citations/10.1108/jd-12-2013-0166")
    assert response.status == 200
    assert response.headers["Content-Type"] == "application/json; charset=utf-8"
    assert json.loads(response.body)[0]["citing"] == "10.3233/ds-190019"


def test_accept_header_switches_to_csv(live):
    server, _ = live
    response = fetch(
        server.url + "/api/v1/citations/10.1108/jd-12-2013-0166",
        headers={"Accept": "text/csv"},
    )
    assert response.headers["Content-Type"] == "text/csv; charset=utf-8"
    assert response.body.startswith("citing,cited\n")


def test_format_refinement_beats_accept_over_http(live):
    server, _ = live
    response = fetch(
        server.url + "/api/v1/citations/10.1108/jd-12-2013-0166?format=json",
        headers={"Accept": "text/csv"},
    )
    assert response.headers["Content-Type"] == "application/json; charset=utf-8"


def test_post_operation(live):
    server, _ = live
    response = fetch(server.url + "/api/v1/stats/10.3233", "POST")
    assert response.status == 200
    assert json.loads(response.body)[1]["n"] == "10"


def test_encoded_slash_is_equivalent_to_a_literal_one(live):
    server, _ = live
    plain = fetch(server.url + "/api/v1/citations/10.1108/jd-12-2013-0166")
    encoded = fetch(server.url + "/api/v1/citations/10.1108%2Fjd-12-2013-0166")
    assert encoded.status == plain.status == 200
    assert encoded.body == plain.body


def test_absolute_form_targets_are_served_like_origin_form(live):
    # RFC 9112 §3.2.2: a server must accept "GET http://host/path HTTP/1.1".
    server, _ = live
    authority = server.url.removeprefix("http://").encode()

    def reply(target: bytes) -> tuple[bytes, bytes]:
        raw = b"GET " + target + b" HTTP/1.1\r\nHost: elsewhere\r\n\r\n"
        head, _, body = _exchange(server, raw).partition(b"\r\n\r\n")
        return head.split()[1], body

    for path in (b"/api/v1/citations/10.1108%2Fjd-12-2013-0166?format=csv", b"/api/v1"):
        assert reply(b"http://" + authority + path) == reply(path)
        assert reply(path)[0] == b"200"
    for target in (b"http://" + authority, b"HTTP://" + authority + b"?x=1"):
        status, body = reply(target)
        assert status == b"200"
        assert b"API dashboard" in body


def test_error_statuses_and_bodies_over_http(live):
    server, _ = live
    missing = fetch(server.url + "/api/v1/nothing")
    assert missing.status == 404
    assert json.loads(missing.body) == {
        "error": json.loads(missing.body)["error"], "status": 404,
    }
    wrong_verb = fetch(server.url + "/api/v1/citations/10.1108/x", "POST")
    assert wrong_verb.status == 405
    bad_refinement = fetch(server.url + "/api/v1/citations/10.1108/x?format=xml")
    assert bad_refinement.status == 400
    outside = fetch(server.url + "/somewhere/else")
    assert outside.status == 404


# ---------------------------------------------------------------------------
# Statistics wiring
# ---------------------------------------------------------------------------


def test_calls_are_recorded_with_operation_attribution(live):
    server, manager = live
    fetch(server.url + "/api/v1/citations/10.1108/a")
    fetch(server.url + "/api/v1/citations/10.1108/b")
    fetch(server.url + "/api/v1/citations/10.1108/c", "POST")  # 405, still attributed
    fetch(server.url + "/api/v1/who-knows")  # 404, global only

    snap = manager.stats.snapshot()
    assert snap["global"]["total"] == 4
    assert snap["global"]["2xx"] == 2
    assert snap["global"]["4xx"] == 2
    citations = snap["operations"]["/api/v1/citations/{doi}"]
    assert citations["total"] == 3
    assert citations["2xx"] == 2
    assert citations["4xx"] == 1
    assert set(snap["operations"]) == {"/api/v1/citations/{doi}"}


def test_embedded_calls_are_recorded_and_page_views_are_not(live):
    server, manager = live
    manager.call("/api/v1/citations/10.1108/a")
    manager.get_op("/api/v1/citations/10.1108/b").exec()
    manager.call("/elsewhere/x")  # no loaded api serves it: global only
    fetch(server.url + "/")
    fetch(server.url + "/api/v1")

    snap = manager.stats.snapshot()
    assert (snap["global"]["total"], snap["global"]["2xx"], snap["global"]["4xx"]) == (3, 2, 1)
    assert set(snap["operations"]) == {"/api/v1/citations/{doi}"}
    assert snap["operations"]["/api/v1/citations/{doi}"]["total"] == 2


def test_dashboard_shows_recorded_numbers(live):
    server, _ = live
    fetch(server.url + "/api/v1/citations/10.1108/a")
    page = fetch(server.url + "/").body
    all_calls = next(line for line in page.splitlines() if "All calls" in line)
    assert "<td>1</td><td>1</td><td>0</td><td>0</td>" in all_calls


def test_keep_alive_calls_do_not_stall(live):
    # With Nagle on, each response's body waited for the client's delayed
    # ACK, on both hops: about 45 ms a call, 900 ms for these 20.
    server, _ = live
    connection = http.client.HTTPConnection(*server.server_address[:2], timeout=5)
    path = "/api/v1/citations/10.1108/jd-12-2013-0166"
    try:
        connection.request("GET", path)  # connect outside the timed loop
        connection.getresponse().read()
        started = time.monotonic()
        for _ in range(20):
            connection.request("GET", path)
            response = connection.getresponse()
            assert response.status == 200 and response.read()
        assert time.monotonic() - started < 0.4
    finally:
        connection.close()


# ---------------------------------------------------------------------------
# Request framing, on the gateway and on the testkit mock
# ---------------------------------------------------------------------------

# The mock ignores the request path, so the same raw requests serve both.
POST_HEAD = b"POST /api/v1/stats/10.3233 HTTP/1.1\r\nHost: gateway\r\n"
GET_HEAD = b"GET /api/v1/citation-info/10.1108/x HTTP/1.1\r\nHost: gateway\r\n"
NEXT_GET = b"GET /api/v1/citations/10.1108/x HTTP/1.1\r\nHost: gateway\r\n\r\n"

UNSKIPPABLE = [
    (b"Transfer-Encoding: chunked\r\n\r\n3\r\na=1\r\n0\r\n\r\n", 411),
    (b"Content-Length: 7a\r\n\r\na=1&b=2", 400),
    (b"Content-Length: -7\r\n\r\na=1&b=2", 400),
    (b"Content-Length: 3\r\nContent-Length: 7\r\n\r\na=1&b=2", 400),
    (b"Content-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1), 413),
    # More digits than int() converts (4300 by default).
    (b"Content-Length: %s\r\n\r\n" % (b"9" * 5000), 413),
]
UNSKIPPABLE_IDS = [
    "chunked", "not-a-number", "negative", "conflicting", "oversized", "too-many-digits"
]


@pytest.fixture()
def target(request, gateway):
    """A live gateway, or a live mock endpoint that answers every query with 200."""
    if request.param == "gateway":
        server = serve(gateway, port=0)
    else:
        server = start_mock([MockRule(re.compile(""), results_json(("x",), []))])
    yield server
    server.stop()


def on_both_targets(argnames: list[str], cases: list[tuple], ids: list[str]):
    """Parametrize over the gateway and the mock; gateway ids carry no prefix."""
    return pytest.mark.parametrize(
        ["target", *argnames],
        [(target, *case) for target in ("gateway", "mock") for case in cases],
        ids=[prefix + name for prefix in ("", "mock-") for name in ids],
        indirect=["target"],
    )


# A body may come with either method; both servers read it the same way.
HEADS = on_both_targets(["head"], [(POST_HEAD,), (GET_HEAD,)], ["POST", "GET"])


def _exchange(server, raw: bytes) -> bytes:
    """Send raw bytes on one connection; everything received until it closes."""
    with socket.create_connection(server.server_address[:2], timeout=5) as sock:
        sock.sendall(raw)
        sock.shutdown(socket.SHUT_WR)
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    return received


def _statuses(server, raw: bytes) -> list[int]:
    """Send raw bytes on one connection; the status of every response to them."""
    received = _exchange(server, raw)
    statuses = []
    while received:
        head, _, rest = received.partition(b"\r\n\r\n")
        statuses.append(int(head.split()[1]))
        received = rest[int(re.search(rb"Content-Length: (\d+)", head).group(1)) :]
    return statuses


@HEADS
def test_post_body_does_not_poison_the_keep_alive_connection(target, head):
    request = head + b"Content-Length: 7\r\n\r\na=1&b=2"
    assert _statuses(target, request + NEXT_GET) == [200, 200]


@HEADS
def test_truncated_post_body_stops_at_end_of_stream(target, head):
    assert _statuses(target, head + b"Content-Length: 100\r\n\r\na=1") == [200]


@on_both_targets(
    ["head", "framing", "status"],
    [(POST_HEAD, *case) for case in UNSKIPPABLE]
    + [(GET_HEAD, *case) for case in UNSKIPPABLE],
    UNSKIPPABLE_IDS + [f"GET-{name}" for name in UNSKIPPABLE_IDS],
)
def test_unskippable_post_body_is_refused_and_closes(target, head, framing, status):
    # The connection closes after the error, so the pipelined GET goes unanswered.
    assert _statuses(target, head + framing + NEXT_GET) == [status]


@HEADS
def test_a_content_length_of_thousands_of_digits_is_answered(target, head):
    # Leading zeros do not count against the cap: this body is 7 bytes long.
    zeros = head + b"Content-Length: %s7\r\n\r\na=1&b=2" % (b"0" * 5000)
    assert _statuses(target, zeros + NEXT_GET) == [200, 200]
    assert _statuses(target, head + b"Content-Length: %s\r\n\r\n" % (b"1" * 5000)) == [413]
    assert _statuses(target, NEXT_GET) == [200]  # and the server serves on


# A client that goes quiet, before a request line or inside a body, is cut off.
QUIET = on_both_targets(
    ["raw"],
    [(b"",), (POST_HEAD + b"Content-Length: 10\r\n\r\nabc",)],
    ["idle", "short-body"],
)


@QUIET
def test_quiet_connection_is_closed_after_the_handler_timeout(target, raw, monkeypatch):
    assert 0 < BaseHandler.timeout <= 60  # shipped finite; shortened for the test
    monkeypatch.setattr(BaseHandler, "timeout", 0.3)
    with socket.create_connection(target.server_address[:2], timeout=5) as sock:
        sock.sendall(raw)
        started = time.monotonic()
        assert sock.recv(65536) == b""
        assert time.monotonic() - started < 1.0


@on_both_targets([], [()], ["HEAD"])
def test_head_answers_like_get_without_a_body(target):
    # HEAD, then GET of the same target, on one keep-alive connection.
    path = b"/api/v1/citations/10.1108/x"
    raw = b"".join(
        verb + b" " + path + b" HTTP/1.1\r\nHost: gateway\r\n\r\n" for verb in (b"HEAD", b"GET")
    )
    head_response, _, rest = _exchange(target, raw).partition(b"\r\n\r\n")
    assert head_response.split()[1] == b"200"
    get_response, _, body = rest.partition(b"\r\n\r\n")
    assert get_response.split()[1] == b"200"
    length = rb"Content-Length: (\d+)"
    head_length = int(re.search(length, head_response).group(1))
    assert head_length == int(re.search(length, get_response).group(1)) == len(body) > 0


@on_both_targets([], [()], ["refusals"])
def test_refusals_get_the_uniform_json_error_body(target):
    # A refusal http.server makes itself, once an HTML page: 501 for DELETE.
    host, port = target.server_address[:2]
    reply = fetch(f"http://{host}:{port}/api/v1/citations/10.1/x", "DELETE")
    assert reply.status == 501
    assert reply.headers["Content-Type"] == "application/json; charset=utf-8"
    assert reply.headers["Connection"] == "close"
    assert json.loads(reply.body) == {"error": "Unsupported method ('DELETE')", "status": 501}
    # One of ours: the body after the 411 head is the JSON body and nothing more.
    chunked = UNSKIPPABLE[0][0]
    head, _, body = _exchange(target, POST_HEAD + chunked + NEXT_GET).partition(b"\r\n\r\n")
    assert head.split()[1] == b"411"
    assert json.loads(body) == {"error": "Transfer-Encoding is not supported", "status": 411}


@on_both_targets(
    ["line", "status_line"],
    [
        (b"GET / HTTP/2.0", b"HTTP/1.1 505 HTTP Version Not Supported"),
        (b"GET / HTTP/x", b"HTTP/1.1 400 Bad Request"),
        (b"GARBAGE", b"HTTP/1.1 400 Bad Request"),
        (b"GET /", b"HTTP/1.1 200 OK"),
    ],
    ["version-2", "bad-version", "one-word", "two-words"],
)
def test_a_malformed_request_line_is_answered_with_http_1_framing(target, line, status_line):
    # http.server answers an HTTP/0.9-style line with the body alone unless
    # the handler's default request version is 1.x.
    head, _, body = _exchange(target, line + b"\r\n\r\n").partition(b"\r\n\r\n")
    assert head.split(b"\r\n")[0] == status_line
    assert int(re.search(rb"Content-Length: (\d+)", head).group(1)) == len(body) > 0


def test_request_lines_are_formatted_only_when_debug_logging_is_on(caplog):
    formatted = []

    class RequestLine:
        def __str__(self) -> str:
            formatted.append(self)
            return "GET / HTTP/1.1"

    handler = BaseHandler.__new__(BaseHandler)  # log_message reads only the address
    handler.client_address = ("127.0.0.1", 5000)
    with caplog.at_level(logging.INFO, logger="sparqlgate.server"):
        handler.log_message('"%s" %s %s', RequestLine(), "200", "-")
    assert formatted == [] and caplog.records == []
    with caplog.at_level(logging.DEBUG, logger="sparqlgate.server"):
        handler.log_message('"%s" %s %s', RequestLine(), "200", "-")
    assert [r.getMessage() for r in caplog.records] == ['127.0.0.1 - "GET / HTTP/1.1" 200 -']


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------


def test_context_manager_binds_and_stops(gateway):
    with GatewayServer(gateway, port=0).start() as server:
        assert fetch(server.url + "/").status == 200
        url = server.url
    with pytest.raises(OSError):
        fetch(url + "/", timeout=0.5)


def test_stop_cuts_the_keep_alive_connections_it_serves(gateway):
    with serve(gateway, port=0) as server:
        connection = http.client.HTTPConnection(*server.server_address[:2], timeout=5)
        connection.request("GET", "/")
        assert connection.getresponse().read()
    try:
        # A stopped server answers nothing more on a connection it accepted.
        with pytest.raises(OSError):
            connection.request("GET", "/")
            connection.getresponse()
    finally:
        connection.close()


def test_the_server_forgets_every_connection_it_closed(gateway):
    # The serving thread adds, handler threads discard: nothing may be left over.
    statuses = []
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with serve(gateway, port=0) as server:

            def caller():
                for _ in range(25):
                    statuses.append(fetch(server.url + "/api/v1").status)

            workers = [threading.Thread(target=caller) for _ in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
            assert not any(worker.is_alive() for worker in workers)
            deadline = time.monotonic() + 5
            while server._connections and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not server._connections
    finally:
        sys.setswitchinterval(previous)
    assert statuses == [200] * 100


@pytest.mark.parametrize("kind", ["gateway", "mock"])
def test_a_never_started_server_closes_on_leaving_with(kind, gateway):
    servers = []

    def enter_and_leave():
        server = GatewayServer(gateway, port=0) if kind == "gateway" else MockSparqlEndpoint([])
        with server:
            servers.append(server)

    # In a thread, so a stop() that waits for serve_forever fails instead of hanging.
    worker = threading.Thread(target=enter_and_leave, daemon=True)
    worker.start()
    worker.join(timeout=2)
    assert not worker.is_alive()
    assert servers[0].socket.fileno() == -1  # the listening socket is closed


def test_two_servers_may_share_one_manager(gateway):
    with GatewayServer(gateway, port=0).start() as one:
        with GatewayServer(gateway, port=0).start() as two:
            assert one.url != two.url
            fetch(one.url + "/api/v1/citations/10.1108/a")
            fetch(two.url + "/api/v1/citations/10.1108/b")
    assert gateway.stats.snapshot()["global"]["total"] == 2
