from __future__ import annotations

import json
import re
import socket
import threading
import time

import pytest
import requests

from checks import assert_valid_html
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
    response = requests.get(server.url + "/")
    assert response.status_code == 200
    assert response.headers["Content-Type"] == "text/html; charset=utf-8"
    assert_valid_html(response.text)
    assert "API dashboard" in response.text


def test_api_base_serves_the_documentation(live):
    server, _ = live
    for path in ("/api/v1", "/api/v1/"):
        response = requests.get(server.url + path)
        assert response.status_code == 200
        assert "text/html" in response.headers["Content-Type"]
        assert "<h1>Citation Gateway</h1>" in response.text
        assert_valid_html(response.text)


def test_page_views_are_not_recorded_as_calls(live):
    server, manager = live
    requests.get(server.url + "/")
    requests.get(server.url + "/api/v1")
    assert manager.stats.snapshot()["global"]["total"] == 0


# ---------------------------------------------------------------------------
# Operation calls over HTTP
# ---------------------------------------------------------------------------


def test_get_operation_returns_json_body(live):
    server, _ = live
    response = requests.get(server.url + "/api/v1/citations/10.1108/jd-12-2013-0166")
    assert response.status_code == 200
    assert response.headers["Content-Type"] == "application/json; charset=utf-8"
    assert json.loads(response.text)[0]["citing"] == "10.3233/ds-190019"


def test_accept_header_switches_to_csv(live):
    server, _ = live
    response = requests.get(
        server.url + "/api/v1/citations/10.1108/jd-12-2013-0166",
        headers={"Accept": "text/csv"},
    )
    assert response.headers["Content-Type"] == "text/csv; charset=utf-8"
    assert response.text.startswith("citing,cited\n")


def test_format_refinement_beats_accept_over_http(live):
    server, _ = live
    response = requests.get(
        server.url + "/api/v1/citations/10.1108/jd-12-2013-0166?format=json",
        headers={"Accept": "text/csv"},
    )
    assert response.headers["Content-Type"] == "application/json; charset=utf-8"


def test_post_operation(live):
    server, _ = live
    response = requests.post(server.url + "/api/v1/stats/10.3233")
    assert response.status_code == 200
    assert json.loads(response.text)[1]["n"] == "10"


def test_encoded_slash_is_equivalent_to_a_literal_one(live):
    server, _ = live
    plain = requests.get(server.url + "/api/v1/citations/10.1108/jd-12-2013-0166")
    encoded = requests.get(server.url + "/api/v1/citations/10.1108%2Fjd-12-2013-0166")
    assert encoded.status_code == plain.status_code == 200
    assert encoded.text == plain.text


def test_error_statuses_and_bodies_over_http(live):
    server, _ = live
    missing = requests.get(server.url + "/api/v1/nothing")
    assert missing.status_code == 404
    assert json.loads(missing.text) == {
        "error": json.loads(missing.text)["error"], "status": 404,
    }
    wrong_verb = requests.post(server.url + "/api/v1/citations/10.1108/x")
    assert wrong_verb.status_code == 405
    bad_refinement = requests.get(server.url + "/api/v1/citations/10.1108/x?format=xml")
    assert bad_refinement.status_code == 400
    outside = requests.get(server.url + "/somewhere/else")
    assert outside.status_code == 404


# ---------------------------------------------------------------------------
# Statistics wiring
# ---------------------------------------------------------------------------


def test_calls_are_recorded_with_operation_attribution(live):
    server, manager = live
    requests.get(server.url + "/api/v1/citations/10.1108/a")
    requests.get(server.url + "/api/v1/citations/10.1108/b")
    requests.post(server.url + "/api/v1/citations/10.1108/c")  # 405, still attributed
    requests.get(server.url + "/api/v1/who-knows")  # 404, global only

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
    requests.get(server.url + "/")
    requests.get(server.url + "/api/v1")

    snap = manager.stats.snapshot()
    assert (snap["global"]["total"], snap["global"]["2xx"], snap["global"]["4xx"]) == (3, 2, 1)
    assert set(snap["operations"]) == {"/api/v1/citations/{doi}"}
    assert snap["operations"]["/api/v1/citations/{doi}"]["total"] == 2


def test_dashboard_shows_recorded_numbers(live):
    server, _ = live
    requests.get(server.url + "/api/v1/citations/10.1108/a")
    page = requests.get(server.url + "/").text
    all_calls = next(line for line in page.splitlines() if "All calls" in line)
    assert "<td>1</td><td>1</td><td>0</td><td>0</td>" in all_calls


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
]
UNSKIPPABLE_IDS = ["chunked", "not-a-number", "negative", "conflicting", "oversized"]


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


def _statuses(server, raw: bytes) -> list[int]:
    """Send raw bytes on one connection; the status of every response to them."""
    with socket.create_connection(server.server_address[:2], timeout=5) as sock:
        sock.sendall(raw)
        sock.shutdown(socket.SHUT_WR)
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
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
    with socket.create_connection(target.server_address[:2], timeout=5) as sock:
        sock.sendall(raw)
        sock.shutdown(socket.SHUT_WR)
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    head_response, _, rest = received.partition(b"\r\n\r\n")
    assert head_response.split()[1] == b"200"
    get_response, _, body = rest.partition(b"\r\n\r\n")
    assert get_response.split()[1] == b"200"
    length = rb"Content-Length: (\d+)"
    head_length = int(re.search(length, head_response).group(1))
    assert head_length == int(re.search(length, get_response).group(1)) == len(body) > 0


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------


def test_context_manager_binds_and_stops(gateway):
    with GatewayServer(gateway, port=0).start() as server:
        assert requests.get(server.url + "/").status_code == 200
        url = server.url
    with pytest.raises(requests.RequestException):
        requests.get(url + "/", timeout=0.5)


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
            requests.get(one.url + "/api/v1/citations/10.1108/a")
            requests.get(two.url + "/api/v1/citations/10.1108/b")
    assert gateway.stats.snapshot()["global"]["total"] == 2
