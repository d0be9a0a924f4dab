from __future__ import annotations

import json
import re

import pytest

from checks import fetch
from sparqlgate import client
from sparqlgate.client import RESULTS_JSON, dispatch, parse_results
from sparqlgate.config import parse_document
from sparqlgate.testkit import (
    CITATION_ROWS,
    FIXTURE_DOI,
    MockRule,
    MockSparqlEndpoint,
    fixture_citations,
    results_json,
    start_mock,
)


# ---------------------------------------------------------------------------
# Result-document builder
# ---------------------------------------------------------------------------


def test_results_json_shape():
    doc = json.loads(results_json(["a", "b"], [{"a": "1", "b": "2"}]))
    assert doc["head"]["vars"] == ["a", "b"]
    first = doc["results"]["bindings"][0]
    assert first["a"] == {"type": "literal", "value": "1"}
    assert first["b"] == {"type": "literal", "value": "2"}


def test_results_json_omits_unbound_cells():
    doc = json.loads(results_json(["a", "b"], [{"a": "1", "b": None}]))
    assert "b" not in doc["results"]["bindings"][0]
    assert doc["head"]["vars"] == ["a", "b"]


def test_results_json_round_trips_through_the_parser():
    body = results_json(["x"], [{"x": "only"}, {"x": None}])
    table = parse_results(body)
    assert table.header == ("x",)
    assert [row["x"] for row in table.rows] == ["only", ""]


# ---------------------------------------------------------------------------
# Mock endpoint protocol
# ---------------------------------------------------------------------------


@pytest.fixture()
def json_wire(monkeypatch):
    """dispatch asks for results JSON only, so the mock answers with its rule bodies."""
    monkeypatch.setattr(client, "ACCEPT", RESULTS_JSON)


def test_mock_answers_get_and_post_alike(json_wire):
    rule = MockRule(match=re.compile("SELECT"), body=results_json(["v"], [{"v": "1"}]))
    with start_mock([rule]) as mock:
        for method in ("get", "post"):
            status, media, body = dispatch(mock.url, "SELECT 1", method=method)
            assert status == 200
            assert media == "application/sparql-results+json"
            assert json.loads(body)["head"]["vars"] == ["v"]


# Every kind of term, quoting, and an unbound cell, as results JSON and as CSV.
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"
TERMS_JSON = json.dumps({
    "head": {"vars": ["s", "label", "n"]},
    "results": {"bindings": [
        {
            "s": {"type": "uri", "value": "http://example.org/a?b=c"},
            "label": {"type": "literal", "value": 'a "b", c', "xml:lang": "en"},
            "n": {"type": "typed-literal", "value": "7", "datatype": XSD_INTEGER},
        },
        {
            "s": {"type": "bnode", "value": "b0"},
            "label": {"type": "literal", "value": "two\r\nlines"},
        },
    ]},
})
TERMS_CSV = 's,label,n\r\nhttp://example.org/a?b=c,"a ""b"", c",7\r\n_:b0,"two\r\nlines",\r\n'


def _ask(mock, accept: str | None):
    headers = {} if accept is None else {"Accept": accept}
    response = fetch(mock.url + "?query=SELECT", headers=headers, timeout=5)
    return response.status, response.headers["Content-Type"], response.body


def test_mock_answers_csv_only_when_accept_lists_it_before_json():
    with start_mock([MockRule(re.compile("SELECT"), TERMS_JSON)]) as mock:
        for accept in (
            "text/csv",
            "text/csv, application/sparql-results+json;q=0.9",
            "TEXT/CSV;q=0.5, application/json",
            "text/html, text/csv",
        ):
            assert _ask(mock, accept) == (200, "text/csv; charset=utf-8", TERMS_CSV), accept
        for accept in (
            None,
            "*/*",
            "application/sparql-results+json",
            "application/sparql-results+json, text/csv",
            "application/json;q=0.1, text/csv",
        ):
            assert _ask(mock, accept) == (200, RESULTS_JSON, TERMS_JSON), accept


def _document(variables: object, binding: object) -> str:
    return json.dumps({"head": {"vars": variables}, "results": {"bindings": [{"v": binding}]}})


def test_mock_serves_other_bodies_as_written_whatever_the_accept():
    cases = [
        (503, '{"error": "boom"}', "application/json"),
        (503, results_json(["v"], [{"v": "1"}]), "application/json"),
        (200, "not a results document", RESULTS_JSON),
        (200, _document(["v"], {"value": "1"}), RESULTS_JSON),  # no term type
        (200, _document(["v"], {"type": "literal", "value": 1}), RESULTS_JSON),
        (200, _document(["v"], {"type": "triple", "value": "1"}), RESULTS_JSON),
        (200, _document("v", {"type": "literal", "value": "1"}), RESULTS_JSON),
        (200, _document([1], {"type": "literal", "value": "1"}), RESULTS_JSON),
    ]
    for status, body, media in cases:
        with start_mock([MockRule(re.compile("SELECT"), body, status)]) as mock:
            assert _ask(mock, "text/csv") == (status, media, body), body


def test_mock_csv_quotes_an_unbound_or_empty_single_cell():
    # csv.writer quotes a lone empty field; the client reads "" and an empty line alike.
    body = results_json(["x"], [{"x": None}, {"x": ""}, {"x": "a"}])
    with start_mock([MockRule(re.compile("SELECT"), body)]) as mock:
        _, media, csv_body = _ask(mock, "text/csv")
    assert csv_body == 'x\r\n""\r\n""\r\na\r\n'
    assert parse_results(csv_body, media).rows == [{"x": ""}, {"x": ""}, {"x": "a"}]


def test_a_mock_without_csv_answers_json_whatever_the_accept():
    rules = [MockRule(re.compile("SELECT"), TERMS_JSON)]
    with MockSparqlEndpoint(rules, serve_csv=False).start() as mock:
        for accept in (None, "text/csv", "text/csv, application/sparql-results+json;q=0.9"):
            assert _ask(mock, accept) == (200, RESULTS_JSON, TERMS_JSON), accept


def test_a_blank_node_reads_with_its_prefix_only_from_csv():
    with start_mock([MockRule(re.compile("SELECT"), TERMS_JSON)]) as mock:
        _, media, body = dispatch(mock.url, "SELECT")
    assert media == "text/csv; charset=utf-8"
    from_csv, from_json = parse_results(body, media).rows, parse_results(TERMS_JSON).rows
    assert [row["s"] for row in from_csv] == ["http://example.org/a?b=c", "_:b0"]
    assert [row["s"] for row in from_json] == ["http://example.org/a?b=c", "b0"]
    assert [row["label"] for row in from_csv] == [row["label"] for row in from_json]
    assert [row["n"] for row in from_csv] == [row["n"] for row in from_json] == ["7", ""]


def test_mock_records_received_queries_in_order():
    rule = MockRule(match=re.compile("."), body=results_json(["v"], []))
    with start_mock([rule]) as mock:
        dispatch(mock.url, "first query", method="get")
        dispatch(mock.url, "second query", method="post")
        assert mock.received == ["first query", "second query"]


def test_exact_text_rule_requires_the_whole_query(json_wire):
    rules = [
        MockRule(match="SELECT 1", body=results_json(["v"], [{"v": "exact"}])),
        MockRule(match=re.compile("."), body=results_json(["v"], [{"v": "generic"}])),
    ]
    with start_mock(rules) as mock:
        _, _, hit = dispatch(mock.url, "SELECT 1", method="get")
        _, _, miss = dispatch(mock.url, "SELECT 1 EXTENDED", method="get")
    assert json.loads(hit)["results"]["bindings"][0]["v"]["value"] == "exact"
    assert json.loads(miss)["results"]["bindings"][0]["v"]["value"] == "generic"


def test_first_matching_rule_wins(json_wire):
    rules = [
        MockRule(match=re.compile("needle"), body=results_json(["v"], [{"v": "special"}])),
        MockRule(match=re.compile("."), body=results_json(["v"], [{"v": "generic"}])),
    ]
    with start_mock(rules) as mock:
        _, _, hit = dispatch(mock.url, "has a needle inside", method="get")
        _, _, miss = dispatch(mock.url, "nothing to see", method="get")
    assert json.loads(hit)["results"]["bindings"][0]["v"]["value"] == "special"
    assert json.loads(miss)["results"]["bindings"][0]["v"]["value"] == "generic"


def test_rule_status_controls_the_response_code():
    rule = MockRule(match=re.compile("."), body='{"error": "boom"}', status=503)
    with start_mock([rule]) as mock:
        response = fetch(mock.url + "?query=any", timeout=5)
    assert response.status == 503


def test_unmatched_query_gets_a_diagnostic_400():
    rule = MockRule(match=re.compile("zebra"), body=results_json(["v"], []))
    with start_mock([rule]) as mock:
        response = fetch(mock.url + "?query=no+match+here", timeout=5)
    assert response.status == 400
    assert "no match here" in response.body


def test_request_without_query_parameter_is_rejected():
    with start_mock([]) as mock:
        response = fetch(mock.url, timeout=5)
    assert response.status == 400


# ---------------------------------------------------------------------------
# Citation fixture
# ---------------------------------------------------------------------------


def test_fixture_config_parses_into_three_operations():
    config, _ = fixture_citations("http://localhost:1/sparql")
    document = parse_document(config)
    templates = [op.url_template for op in document.operations]
    assert templates == ["/citations/{doi}", "/citation-info/{doi}", "/stats/{prefix}"]
    assert document.api.endpoint == "http://localhost:1/sparql"
    assert document.api.url == "/api/v1"


def test_fixture_rules_reproduce_the_citation_table():
    _, rules = fixture_citations("placeholder")
    with start_mock(rules) as mock:
        document = parse_document(fixture_citations(mock.url)[0])
        operation = document.operations[0]
        query = operation.sparql.replace("[[doi]]", FIXTURE_DOI)
        status, media, body = dispatch(mock.url, query, method="get")
        table = parse_results(body, media, field_types=operation.field_types)
    assert status == 200
    assert table.header == ("citing", "cited")
    assert [(row["citing"], row["cited"]) for row in table.rows] == [
        (row["citing"], row["cited"]) for row in CITATION_ROWS
    ]
    assert table.type_of("citing") == "str"
