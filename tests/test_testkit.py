from __future__ import annotations

import json
import re

from checks import fetch
from sparqlgate.client import dispatch, parse_results
from sparqlgate.config import parse_document
from sparqlgate.testkit import (
    CITATION_ROWS,
    FIXTURE_DOI,
    MockRule,
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


def test_mock_answers_get_and_post_alike():
    rule = MockRule(match=re.compile("SELECT"), body=results_json(["v"], [{"v": "1"}]))
    with start_mock([rule]) as mock:
        for method in ("get", "post"):
            status, media, body = dispatch(mock.url, "SELECT 1", method=method)
            assert status == 200
            assert media == "application/sparql-results+json"
            assert json.loads(body)["head"]["vars"] == ["v"]


def test_mock_records_received_queries_in_order():
    rule = MockRule(match=re.compile("."), body=results_json(["v"], []))
    with start_mock([rule]) as mock:
        dispatch(mock.url, "first query", method="get")
        dispatch(mock.url, "second query", method="post")
        assert mock.received == ["first query", "second query"]


def test_exact_text_rule_requires_the_whole_query():
    rules = [
        MockRule(match="SELECT 1", body=results_json(["v"], [{"v": "exact"}])),
        MockRule(match=re.compile("."), body=results_json(["v"], [{"v": "generic"}])),
    ]
    with start_mock(rules) as mock:
        _, _, hit = dispatch(mock.url, "SELECT 1", method="get")
        _, _, miss = dispatch(mock.url, "SELECT 1 EXTENDED", method="get")
    assert json.loads(hit)["results"]["bindings"][0]["v"]["value"] == "exact"
    assert json.loads(miss)["results"]["bindings"][0]["v"]["value"] == "generic"


def test_first_matching_rule_wins():
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
        status, _, body = dispatch(mock.url, query, method="get")
        table = parse_results(body, field_types=operation.field_types)
    assert status == 200
    assert table.header == ("citing", "cited")
    assert [(row["citing"], row["cited"]) for row in table.rows] == [
        (row["citing"], row["cited"]) for row in CITATION_ROWS
    ]
    assert table.type_of("citing") == "str"
