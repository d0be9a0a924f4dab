from __future__ import annotations

import http.client
import json
import re
import sys
import threading
import time

import pytest

from sparqlgate import client
from sparqlgate.client import ResultTable, dispatch, parse_results, substitute
from sparqlgate.errors import (
    EndpointStatusError,
    EndpointUnreachableError,
    ResultParseError,
)
from sparqlgate.manager import ApiManager
from sparqlgate.server import BackgroundServer, BaseHandler, serve
from sparqlgate.testkit import (
    CITATION_ROWS,
    MockRule,
    MockSparqlEndpoint,
    _MockHandler,
    fixture_citations,
    fixture_file,
    results_json,
    start_mock,
)

# ---------------------------------------------------------------------------
# Template substitution
# ---------------------------------------------------------------------------


def test_substitution_is_a_verbatim_splice():
    template = "SELECT ?c WHERE { ?c cito:hasCitedEntity <https://doi.org/[[doi]]> }"
    out = substitute(template, {"doi": "10.1108/jd-12-2013-0166"})
    assert "<https://doi.org/10.1108/jd-12-2013-0166>" in out
    assert "[[" not in out


def test_substitution_without_slots_is_identity():
    assert substitute("SELECT * WHERE { ?s ?p ?o }", {}) == "SELECT * WHERE { ?s ?p ?o }"


def test_substituted_text_is_never_rescanned():
    # A value containing slot syntax must not expand a second time.
    out = substitute("x [[a]] y", {"a": "[[b]]", "b": "BOOM"})
    assert out == "x [[b]] y"


def test_one_binding_may_fill_many_slots():
    assert substitute("[[a]]/[[a]]", {"a": "v"}) == "v/v"


# ---------------------------------------------------------------------------
# Results parsing
# ---------------------------------------------------------------------------


def test_parse_results_preserves_header_and_row_order():
    body = results_json(("citing", "cited"), CITATION_ROWS)
    table = parse_results(body, field_types={"creation": "datetime"})
    assert table.header == ("citing", "cited")
    assert [r["citing"] for r in table.rows] == [
        "10.3233/ds-190019",
        "10.3233/sw-160224",
    ]
    assert table.types == {"citing": "str", "cited": "str"}


def test_unbound_variables_become_empty_cells():
    body = results_json(("a", "b"), [{"a": "1", "b": None}, {"a": None, "b": "2"}])
    table = parse_results(body)
    assert table.rows == [{"a": "1", "b": ""}, {"a": "", "b": "2"}]


def test_declared_types_attach_to_present_variables_only():
    body = results_json(("n",), [{"n": "5"}])
    table = parse_results(body, field_types={"n": "int", "ghost": "float"})
    assert table.types == {"n": "int"}
    assert table.type_of("n") == "int"
    assert table.type_of("anything-else") == "str"


def test_zero_solutions_keep_the_header():
    table = parse_results(results_json(("x", "y"), []))
    assert table.header == ("x", "y")
    assert table.rows == []


def test_malformed_results_documents_are_rejected():
    bad = (
        "not json",
        "{}",
        json.dumps({"head": {}, "results": {"bindings": []}}),
        json.dumps({"head": {"vars": ["x"]}, "results": {}}),
        json.dumps({"head": {"vars": "x"}, "results": {"bindings": []}}),
        json.dumps({"head": {"vars": ["x"]}, "results": {"bindings": [["x"]]}}),
        json.dumps({"head": {"vars": ["x"]}, "results": {"bindings": [{"x": {"type": "literal"}}]}}),
        json.dumps(["head", "results"]),
    )
    for body in bad:
        with pytest.raises(ResultParseError):
            parse_results(body)
    # A binding that is not an object with a "value" names its variable.
    for binding in ({"type": "literal"}, ["x"], "text", 7, 2.5, True, False):
        body = json.dumps({"head": {"vars": ["x"]}, "results": {"bindings": [{"x": binding}]}})
        with pytest.raises(ResultParseError) as caught:
            parse_results(body)
        assert str(caught.value) == "malformed SPARQL results document: bad binding for 'x'"


def test_null_binding_reads_as_empty_text():
    body = json.dumps({"head": {"vars": ["x", "y"]},
                       "results": {"bindings": [{"x": None, "y": {"value": 3}}]}})
    assert parse_results(body).rows == [{"x": "", "y": "3"}]


def test_replaced_shares_header_and_types():
    table = ResultTable(("a",), {"a": "int"}, [{"a": "1"}])
    swapped = table.replaced([{"a": "2"}])
    assert swapped.header == table.header
    assert swapped.types == table.types
    assert swapped.rows == [{"a": "2"}]
    assert table.rows == [{"a": "1"}]


# ---------------------------------------------------------------------------
# Protocol dispatch (against the mock endpoint)
# ---------------------------------------------------------------------------


def test_dispatch_get_and_post_carry_the_query_unchanged():
    query = 'SELECT ?s WHERE { ?s ?p "x & y = z?" }'
    rules = [MockRule(query, results_json(("s",), [{"s": "ok"}]))]
    with start_mock(rules) as endpoint:
        for method in ("get", "post"):
            status, media, body = dispatch(endpoint.url, query, method)
            assert status == 200
            assert media.startswith("application/sparql-results+json")
            assert parse_results(body).rows == [{"s": "ok"}]
        assert endpoint.received == [query, query]


def test_dispatch_wraps_connection_failures(monkeypatch):
    monkeypatch.setattr(client, "TIMEOUT", 0.5)
    with pytest.raises(EndpointUnreachableError):
        dispatch("http://127.0.0.1:1/sparql", "SELECT 1")


def test_dispatch_surfaces_upstream_error_statuses():
    rules = [MockRule("boom", '{"error": "no"}', status=503)]
    with start_mock(rules) as endpoint:
        with pytest.raises(EndpointStatusError) as info:
            dispatch(endpoint.url, "boom")
    assert info.value.upstream_status == 503
    assert info.value.status == 500


# Raw UTF-8 on the wire, not \u escapes, so the client must pick the charset.
CAFE = json.dumps(
    {
        "head": {"vars": ["s"]},
        "results": {"bindings": [{"s": {"type": "literal", "value": "Café Zürich"}}]},
    },
    ensure_ascii=False,
)


def _serve_bytes(media: str, payload: bytes) -> BackgroundServer:
    """An endpoint that answers every request with these exact bytes."""

    class Handler(BaseHandler):
        def _handle(self, method: str, body: bytes) -> None:
            self.send_response(200)
            self.send_header("Content-Type", media)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

    return BackgroundServer(("127.0.0.1", 0), Handler).start()


@pytest.mark.parametrize(
    "media",
    [
        "text/plain",
        "application/sparql-results+json",
        "application/sparql-results+json; charset=utf-8",
    ],
    ids=["text-plain", "results-no-charset", "results-utf-8"],
)
def test_dispatch_reads_the_body_as_utf_8_whatever_the_media_type(media):
    with _serve_bytes(media, CAFE.encode("utf-8")) as endpoint:
        _, _, body = dispatch(endpoint.url, "SELECT ?s")
    assert parse_results(body).rows == [{"s": "Café Zürich"}]


def test_dispatch_rejects_a_body_that_is_not_utf_8():
    with _serve_bytes("text/plain", CAFE.encode("latin-1")) as endpoint:
        with pytest.raises(ResultParseError):
            dispatch(endpoint.url, "SELECT ?s")


def test_sequential_dispatches_do_not_stall():
    # With Nagle on in the mock, each response's body waited for the client's
    # delayed ACK: about 40 ms a call, 900 ms for these 20.
    rules = [MockRule("SELECT 1", results_json(("s",), [{"s": "ok"}]))]
    with start_mock(rules) as endpoint:
        dispatch(endpoint.url, "SELECT 1")  # connect outside the timed loop
        started = time.monotonic()
        for _ in range(20):
            dispatch(endpoint.url, "SELECT 1")
        assert time.monotonic() - started < 0.4


# ---------------------------------------------------------------------------
# The upstream connection pool
# ---------------------------------------------------------------------------


@pytest.fixture()
def pool(monkeypatch):
    """An empty connection pool for this test; its connections close after it."""
    idle: dict = {}
    monkeypatch.setattr(client, "_idle", idle)
    yield idle
    for connections in idle.values():
        for connection in connections:
            connection.close()


class CountingMock(MockSparqlEndpoint):
    """The mock endpoint, counting the connections it accepts."""

    def __init__(self, rules, handler=None):
        super().__init__(rules)
        if handler is not None:
            self.RequestHandlerClass = handler
        self.connections = 0

    def process_request(self, request, client_address):
        self.connections += 1  # the serving thread is the only writer
        super().process_request(request, client_address)


OK_RULES = [MockRule(re.compile(""), results_json(("s",), [{"s": "ok"}]))]


def test_threads_share_the_pooled_connections(pool):
    answers = []
    with CountingMock(OK_RULES).start() as endpoint:

        def caller():
            for _ in range(25):
                answers.append(parse_results(dispatch(endpoint.url, "SELECT ?s")[2]).rows)

        threads = [threading.Thread(target=caller) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside pool updates too
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=20)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
    assert answers == [[{"s": "ok"}]] * 100
    assert 1 <= endpoint.connections <= 4
    # Every connection opened went back to the pool: none was lost or shared.
    (idle,) = pool.values()
    assert len(idle) == len(set(map(id, idle))) == endpoint.connections


def test_gateway_threads_reuse_one_upstream_connection(pool, tmp_path):
    # The gateway serves each client connection on a thread of its own, so
    # connections kept per thread would open one upstream connection per client.
    _, rules = fixture_citations()
    with CountingMock(rules).start() as endpoint:
        manager = ApiManager([fixture_file(tmp_path, endpoint.url)])
        with serve(manager, port=0) as gateway:
            for _ in range(5):
                downstream = http.client.HTTPConnection(*gateway.server_address[:2], timeout=5)
                downstream.request("GET", "/api/v1/citations/10.1108/jd-12-2013-0166")
                assert downstream.getresponse().status == 200
                downstream.close()
        assert len(endpoint.received) == 5
        assert endpoint.connections == 1


class _ClosingHandler(_MockHandler):
    """Answers, then closes the connection, saying so or not."""

    announce = True

    def end_headers(self) -> None:
        if self.announce:
            self.send_header("Connection", "close")
        super().end_headers()
        self.close_connection = True


class _DroppingHandler(_ClosingHandler):
    announce = False


@pytest.mark.parametrize(
    "handler", [_ClosingHandler, _DroppingHandler], ids=["connection-close", "silent-drop"]
)
def test_a_closed_connection_is_replaced(pool, handler):
    with CountingMock(OK_RULES, handler).start() as endpoint:
        for _ in range(3):
            _, _, body = dispatch(endpoint.url, "SELECT ?s")
            assert parse_results(body).rows == [{"s": "ok"}]
        assert endpoint.connections == 3
    # Announced closes are never pooled; silent ones are, until their next use.
    assert sum(map(len, pool.values())) == (0 if handler is _ClosingHandler else 1)


def test_an_unreachable_endpoint_stays_unreachable_after_a_stale_connection(
    pool, monkeypatch
):
    monkeypatch.setattr(client, "TIMEOUT", 0.5)
    with CountingMock(OK_RULES, _DroppingHandler).start() as endpoint:
        dispatch(endpoint.url, "SELECT ?s")  # leaves a connection the mock dropped
        url = endpoint.url
    assert sum(map(len, pool.values())) == 1
    with pytest.raises(EndpointUnreachableError):
        dispatch(url, "SELECT ?s")  # stale, then refused on the fresh connection
    with pytest.raises(EndpointUnreachableError):
        dispatch(url, "SELECT ?s")  # refused at once
    assert sum(map(len, pool.values())) == 0


# ---------------------------------------------------------------------------
# Responses the client refuses
# ---------------------------------------------------------------------------


def _serve_raw(response: bytes, hold: threading.Event | None = None) -> BackgroundServer:
    """An endpoint that writes these exact bytes for every request, then
    closes the connection; with ``hold``, only once it is set."""

    class Handler(BaseHandler):
        def _handle(self, method: str, body: bytes) -> None:
            self.wfile.write(response)
            if hold is not None:
                hold.wait(5)
            self.close_connection = True

    return BackgroundServer(("127.0.0.1", 0), Handler).start()


def test_an_oversized_content_length_is_a_500_without_reading_the_body(
    pool, monkeypatch, tmp_path
):
    # Reading the body would wait out the timeout on a connection held open.
    monkeypatch.setattr(client, "TIMEOUT", 3)
    hold = threading.Event()
    head = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n{" % (client.MAX_RESPONSE_BYTES + 1)
    with _serve_raw(head, hold) as endpoint:
        manager = ApiManager([fixture_file(tmp_path, endpoint.url)])
        started = time.monotonic()
        outcome, _, _ = manager.call("/api/v1/citations/10.1108/jd-12-2013-0166")
        assert time.monotonic() - started < 1
        hold.set()
    assert outcome.status == 500
    assert json.loads(outcome.body) == {
        "error": f"SPARQL results body exceeds {client.MAX_RESPONSE_BYTES} bytes",
        "status": 500,
    }
    assert pool == {("http", "127.0.0.1", endpoint.server_address[1]): []}


def test_a_close_delimited_body_is_read_to_the_cap_plus_one_byte(pool, monkeypatch):
    monkeypatch.setattr(client, "TIMEOUT", 3)
    monkeypatch.setattr(client, "MAX_RESPONSE_BYTES", 1000)
    head = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\n"
    hold = threading.Event()
    with _serve_raw(head + b" " * 1001, hold) as endpoint:
        started = time.monotonic()
        with pytest.raises(ResultParseError, match="exceeds 1000 bytes"):
            dispatch(endpoint.url, "SELECT ?s")
        assert time.monotonic() - started < 1
        hold.set()
    document = results_json(("s",), [{"s": "ok"}]).encode()
    with _serve_raw(head + document.ljust(1000)) as endpoint:
        _, media, body = dispatch(endpoint.url, "SELECT ?s")
    assert media == "text/plain"
    assert parse_results(body).rows == [{"s": "ok"}]


def test_a_redirect_is_not_followed():
    with start_mock(OK_RULES) as target:
        location = target.url.encode()
        response = b"HTTP/1.1 302 Found\r\nLocation: %s\r\nContent-Length: 0\r\n\r\n" % location
        with _serve_raw(response) as endpoint:
            with pytest.raises(EndpointStatusError) as info:
                dispatch(endpoint.url, "SELECT ?s")
        assert target.received == []
    assert info.value.upstream_status == 302
    assert info.value.status == 500
    assert str(info.value) == "SPARQL endpoint returned status 302"
