from __future__ import annotations

import json

import pytest

from sparqlgate import client
from sparqlgate.client import ResultTable, dispatch, parse_results, substitute
from sparqlgate.errors import (
    EndpointStatusError,
    EndpointUnreachableError,
    ResultParseError,
)
from sparqlgate.server import BackgroundServer, BaseHandler
from sparqlgate.testkit import (
    CITATION_ROWS,
    MockRule,
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
