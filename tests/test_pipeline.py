from __future__ import annotations

import json
import random
import urllib.parse

import pytest

from sparqlgate import client
from sparqlgate.client import ResultTable, dispatch, parse_results, substitute
from sparqlgate.config import ProcessStep, parse_document
from sparqlgate.errors import TransformError, UnknownFunctionError
from sparqlgate.pipeline import (
    LoadedApi,
    ProcessRegistry,
    execute,
    register_builtins,
    run_postprocess,
    run_preprocess,
)
from sparqlgate.refine import serialize_json
from sparqlgate.router import CallRequest, compile_routes
from sparqlgate.testkit import fixture_citations, start_mock


@pytest.fixture(scope="module")
def wired(mock_endpoint):
    """Parsed fixture document wired to the shared mock endpoint."""
    config, _ = fixture_citations(mock_endpoint.url)
    doc = parse_document(config)
    routes = compile_routes(doc.api, doc.operations)
    registry = register_builtins(ProcessRegistry())
    return doc, routes, registry


def _call(wired, path, **kwargs):
    doc, routes, registry = wired
    return execute(LoadedApi(doc, routes, registry, ""), CallRequest(path, **kwargs))[0]


# ---------------------------------------------------------------------------
# Built-in parameter transforms
# ---------------------------------------------------------------------------


def test_builtin_transforms():
    registry = register_builtins(ProcessRegistry())
    assert registry.param_fns["lower"]("A/B") == ("a/b",)
    assert registry.param_fns["upper"]("a", "b") == ("A", "B")
    assert registry.param_fns["encode"]("10.1108/jd") == ("10.1108%2Fjd",)
    assert registry.param_fns["decode"]("10.1108%2Fjd") == ("10.1108/jd",)


def test_encode_decode_are_inverses():
    registry = register_builtins(ProcessRegistry())
    rng = random.Random(3)
    for _ in range(200):
        text = "".join(rng.choice("az09 /%?#&=[]") for _ in range(rng.randrange(0, 20)))
        (encoded,) = registry.param_fns["encode"](text)
        assert registry.param_fns["decode"](encoded) == (text,)
        assert urllib.parse.quote(text, safe="") == encoded


def test_preprocess_chain_rebinds_left_to_right():
    registry = register_builtins(ProcessRegistry())
    chain = (ProcessStep("lower", ("doi",)), ProcessStep("encode", ("doi",)))
    out = run_preprocess(registry, chain, {"doi": "A/B", "other": "kept"})
    assert out == {"doi": "a%2Fb", "other": "kept"}


def test_preprocess_empty_chain_is_identity():
    registry = register_builtins(ProcessRegistry())
    bindings = {"doi": "X"}
    out = run_preprocess(registry, (), bindings)
    assert out == bindings
    assert out is not bindings


def test_preprocess_accepts_bare_string_returns():
    registry = ProcessRegistry()
    registry.register_param("brace", lambda v: f"<{v}>")
    out = run_preprocess(registry, (ProcessStep("brace", ("x",)),), {"x": "v"})
    assert out == {"x": "<v>"}


def test_preprocess_transform_failures_become_transform_errors():
    registry = ProcessRegistry()
    registry.register_param("bad_arity", lambda a, b: (a,))
    registry.register_param("boomer", lambda v: 1 / 0)
    registry.register_param("wrong_type", lambda v: (7,))
    with pytest.raises(TransformError):
        run_preprocess(registry, (ProcessStep("bad_arity", ("a", "b")),), {"a": "1", "b": "2"})
    with pytest.raises(TransformError):
        run_preprocess(registry, (ProcessStep("boomer", ("a",)),), {"a": "1"})
    with pytest.raises(TransformError):
        run_preprocess(registry, (ProcessStep("wrong_type", ("a",)),), {"a": "1"})


# ---------------------------------------------------------------------------
# Table transforms
# ---------------------------------------------------------------------------


def _strip_prefix(table: ResultTable, *variables: str) -> ResultTable:
    rows = [
        {k: (v.split("/", 1)[-1] if k in variables and isinstance(v, str) else v)
         for k, v in row.items()}
        for row in table.rows
    ]
    return table.replaced(rows)


def test_postprocess_applies_registered_table_functions():
    registry = ProcessRegistry()
    registry.register_table("strip_prefix", _strip_prefix)
    table = ResultTable(("citing",), {}, [{"citing": "10.3233/ds-190019"}])
    out = run_postprocess(registry, (ProcessStep("strip_prefix", ("citing",)),), table)
    assert out.rows == [{"citing": "ds-190019"}]


def test_postprocess_wraps_raises_and_bad_returns():
    registry = ProcessRegistry()
    registry.register_table("explode", lambda table: 1 / 0)
    registry.register_table("not_a_table", lambda table: "oops")
    own = TransformError("inner", "gave up")

    def refuse(table):
        raise own

    registry.register_table("refuse", refuse)
    table = ResultTable(("x",), {}, [])
    with pytest.raises(TransformError):
        run_postprocess(registry, (ProcessStep("explode", ()),), table)
    with pytest.raises(TransformError):
        run_postprocess(registry, (ProcessStep("not_a_table", ()),), table)
    # A transform's own TransformError passes through, not wrapped again.
    with pytest.raises(TransformError) as caught:
        run_postprocess(registry, (ProcessStep("refuse", ()),), table)
    assert caught.value is own


def test_unexpected_failure_is_a_500_outcome_with_the_uniform_body(mock_endpoint, caplog):
    # A postprocess step that leaves a set cell passes the chain's own checks
    # and fails only in the JSON writer: the pipeline's catch-all answers.
    config, _ = fixture_citations(mock_endpoint.url)
    config = config.replace(
        "#description All works", "#postprocess setify()\n#description All works", 1
    )
    doc = parse_document(config)
    registry = register_builtins(ProcessRegistry())
    registry.register_table(
        "setify",
        lambda table: table.replaced([{**r, "citing": {r["citing"]}} for r in table.rows]),
    )
    wired = (doc, compile_routes(doc.api, doc.operations), registry)
    with caplog.at_level("ERROR"):
        outcome = _call(wired, "/api/v1/citations/10.1108/jd-12-2013-0166")
    assert (outcome.status, outcome.content_type) == (500, "application/json")
    assert json.loads(outcome.body) == {
        "error": "internal error: Object of type set is not JSON serializable",
        "status": 500,
    }
    assert any("pipeline failure" in r.message for r in caplog.records)


def test_a_transform_that_edits_the_row_view_gets_a_500(mock_endpoint):
    config, _ = fixture_citations(mock_endpoint.url)
    config = config.replace(
        "#description All works", "#postprocess grow()\n#description All works", 1
    )
    doc = parse_document(config)
    registry = register_builtins(ProcessRegistry())
    registry.register_table("grow", lambda table: table.rows.append({}) or table)
    wired = (doc, compile_routes(doc.api, doc.operations), registry)
    outcome = _call(wired, "/api/v1/citations/10.1108/jd-12-2013-0166")
    assert (outcome.status, outcome.content_type) == (500, "application/json")
    assert "grow" in json.loads(outcome.body)["error"]


def test_validate_chains_requires_registered_names():
    registry = register_builtins(ProcessRegistry())
    config, _ = fixture_citations()
    doc = parse_document(config.replace("lower(doi)", "mangle(doi)", 1))
    with pytest.raises(UnknownFunctionError):
        registry.validate_chains(doc.api.url, doc.operations[0])
    doc = parse_document(config.replace("lower(doi)", "lowr(doi)", 1))
    with pytest.raises(UnknownFunctionError) as caught:
        registry.validate_chains(doc.api.url, doc.operations[0])
    assert str(caught.value) == (
        "preprocess function 'lowr' of operation '/api/v1/citations/{doi}' "
        "is not registered (block 2, field #preprocess)"
    )
    doc = parse_document(config.replace("lower(doi)", "lower(doi)\n#postprocess tidy()", 1))
    with pytest.raises(UnknownFunctionError) as caught:
        registry.validate_chains(doc.api.url, doc.operations[0])
    assert str(caught.value) == (
        "postprocess function 'tidy' of operation '/api/v1/citations/{doi}' "
        "is not registered (block 2, field #postprocess)"
    )
    registry.validate_chains(doc.api.url, doc.operations[2])  # no chains, nothing to check


# ---------------------------------------------------------------------------
# Full pipeline against the mock endpoint
# ---------------------------------------------------------------------------


def test_successful_call_returns_the_fixture_table(wired):
    outcome = _call(wired, "/api/v1/citations/10.1108/jd-12-2013-0166")
    assert outcome.status == 200
    assert outcome.content_type == "application/json"
    assert json.loads(outcome.body) == [
        {"citing": "10.3233/ds-190019", "cited": "10.1108/jd-12-2013-0166"},
        {"citing": "10.3233/sw-160224", "cited": "10.1108/jd-12-2013-0166"},
    ]


def test_preprocess_normalizes_the_parameter_before_substitution(wired, mock_endpoint):
    before = len(mock_endpoint.received)
    outcome = _call(wired, "/api/v1/citations/10.1108/JD-12-2013-0166")
    assert outcome.status == 200
    assert "<https://doi.org/10.1108/jd-12-2013-0166>" in mock_endpoint.received[before]


def test_routing_failures_map_to_404_and_405(wired):
    missing = _call(wired, "/api/v1/unknown")
    assert missing.status == 404
    assert json.loads(missing.body)["status"] == 404
    wrong = _call(wired, "/api/v1/citations/10.1108/x", method="post")
    assert wrong.status == 405


def test_bad_refinement_maps_to_400(wired, mock_endpoint):
    before = len(mock_endpoint.received)
    outcome = _call(
        wired,
        "/api/v1/citations/10.1108/x",
        query_params=(("sort", "sideways(citing)"),),
    )
    assert outcome.status == 400
    payload = json.loads(outcome.body)
    assert payload["status"] == 400
    assert "sideways" in payload["error"]
    # Rejected before the endpoint is queried.
    assert len(mock_endpoint.received) == before


def test_bad_refinement_beats_an_unreachable_endpoint(monkeypatch):
    monkeypatch.setattr(client, "TIMEOUT", 0.5)
    config, _ = fixture_citations("http://127.0.0.1:1/sparql")
    doc = parse_document(config)
    routes = compile_routes(doc.api, doc.operations)
    registry = register_builtins(ProcessRegistry())
    request = CallRequest(
        "/api/v1/citations/10.1108/x", query_params=(("sort", "sideways(citing)"),)
    )
    assert execute(LoadedApi(doc, routes, registry, ""), request)[0].status == 400


@pytest.mark.filterwarnings("error")
def test_filter_regex_that_warns_maps_to_400(wired):
    # Under -W error, re.compile raises its FutureWarning "Possible nested set".
    outcome = _call(
        wired, "/api/v1/citations/10.1108/x", query_params=(("filter", "citing:[[a]"),)
    )
    assert outcome.status == 400
    assert json.loads(outcome.body)["error"].startswith(
        "filter regex '[[a]' does not compile: "
    )


def test_json_reshape_under_csv_maps_to_400(wired):
    outcome = _call(
        wired,
        "/api/v1/citations/10.1108/x",
        query_params=(("json", 'array("/", cited)'), ("format", "csv")),
    )
    assert outcome.status == 400


def test_endpoint_failure_maps_to_500(monkeypatch):
    monkeypatch.setattr(client, "TIMEOUT", 0.5)
    config, _ = fixture_citations("http://127.0.0.1:1/sparql")
    doc = parse_document(config)
    routes = compile_routes(doc.api, doc.operations)
    registry = register_builtins(ProcessRegistry())
    outcome = execute(
        LoadedApi(doc, routes, registry, ""),
        CallRequest("/api/v1/citations/10.1108/x"),
    )[0]
    assert outcome.status == 500
    assert json.loads(outcome.body)["status"] == 500


def test_upstream_error_status_maps_to_500(wired):
    # No rule matches this operation's query shape only if the query text
    # misses every rule; force that with a DOI the info rule still matches,
    # so instead register a dedicated mock with zero rules.
    with start_mock([]) as empty:
        config, _ = fixture_citations(empty.url)
        doc = parse_document(config)
        routes = compile_routes(doc.api, doc.operations)
        registry = register_builtins(ProcessRegistry())
        outcome = execute(
            LoadedApi(doc, routes, registry, ""), CallRequest("/api/v1/citations/10.1108/x")
        )[0]
    assert outcome.status == 500
    assert "400" in json.loads(outcome.body)["error"]


def test_error_bodies_are_machine_readable_json(wired):
    for path, method in (
        ("/api/v1/none", "get"),
        ("/api/v1/citations/10.1108/x", "post"),
    ):
        outcome = _call(wired, path, method=method)
        payload = json.loads(outcome.body)
        assert set(payload) == {"error", "status"}
        assert payload["status"] == outcome.status


def test_noop_call_is_exactly_the_serialized_parse(wired, mock_endpoint):
    # The stats operation declares no preprocess/postprocess; with no
    # refinements the body must equal serialize(parse(dispatch(substitute))).
    doc, routes, registry = wired
    operation = doc.operations[2]
    query = substitute(operation.sparql, {"prefix": "10.3233"})
    _, media, upstream = dispatch(mock_endpoint.url, query, "post")
    expected = serialize_json(parse_results(upstream, media, field_types=operation.field_types))

    outcome = _call(wired, "/api/v1/stats/10.3233", method="post")
    assert outcome.status == 200
    assert outcome.body == expected
