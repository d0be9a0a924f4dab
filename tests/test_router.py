from __future__ import annotations

import random
import urllib.parse

import pytest

from sparqlgate.config import ParamShape, parse_document
from sparqlgate.errors import (
    MethodNotAllowedError,
    NotFoundError,
    SpecValidationError,
    TypeMismatchError,
)
from sparqlgate.pipeline import LoadedApi, ProcessRegistry, execute
from sparqlgate.router import (
    CallRequest,
    coerce_binding,
    compile_matcher,
    compile_routes,
    extract_bindings,
    match_path,
    require_method,
)
from sparqlgate.testkit import fixture_citations


def _fixture_routes():
    config, _ = fixture_citations()
    doc = parse_document(config)
    return compile_routes(doc.api, doc.operations)


def _route(routes, path, method="get"):
    """The matched operation and its bindings, composed as pipeline.execute does."""
    found = match_path(routes, path)
    assert found is not None, path
    route, m = found
    require_method(route.operation, method)
    return route.operation, extract_bindings(route.operation, m)


def _execute(path, method="get"):
    """Run the fixture pipeline; routing failures never reach the endpoint."""
    config, _ = fixture_citations()
    doc = parse_document(config)
    routes = compile_routes(doc.api, doc.operations)
    return execute(LoadedApi(doc, routes, ProcessRegistry(), ""), CallRequest(path, method))


# ---------------------------------------------------------------------------
# Matcher compilation
# ---------------------------------------------------------------------------


def test_parameter_values_may_span_slashes():
    routes = _fixture_routes()
    operation, bindings = _route(routes, "/api/v1/citations/10.1108/jd-12-2013-0166")
    assert operation.url_template == "/citations/{doi}"
    assert bindings == {"doi": "10.1108/jd-12-2013-0166"}


def test_literal_text_is_escaped_not_interpreted():
    # The dot in "/api/v1.2" must not match "/api/v1x2".
    matcher = compile_matcher("/api/v1.2", "/items/{id}", (ParamShape("id"),))
    assert matcher.match("/api/v1.2/items/7")
    assert not matcher.match("/api/v1x2/items/7")


def test_zero_parameter_template_matches_exactly():
    matcher = compile_matcher("/api/v1", "/ping", ())
    assert matcher.match("/api/v1/ping")
    assert not matcher.match("/api/v1/ping/extra")
    assert not matcher.match("/api/v1/pin")
    assert not matcher.match("/api/v1/ping\n")


def test_declared_pattern_gates_the_match():
    routes = _fixture_routes()
    # The doi shape is str(10\..+): a non-DOI path does not match at all.
    assert match_path(routes, "/api/v1/citations/99.9999/x") is None
    outcome, operation = _execute("/api/v1/citations/99.9999/x")
    assert (outcome.status, operation) == (NotFoundError.status, None)


def test_repeated_placeholder_is_rejected_at_compile_time():
    with pytest.raises(SpecValidationError):
        compile_matcher("/api", "/x/{a}/{a}", (ParamShape("a"),))


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------


def test_first_matching_route_wins_in_document_order():
    text = """#url /api/v1
#type api
#endpoint http://127.0.0.1:1/sparql

#url /works/special
#type operation
#method get
#sparql SELECT ?s WHERE { ?s a ?s }

#url /works/{name}
#type operation
#method get
#sparql SELECT ?s WHERE { ?s ?p "[[name]]" }
"""
    doc = parse_document(text)
    routes = compile_routes(doc.api, doc.operations)
    assert _route(routes, "/api/v1/works/special")[0].url_template == "/works/special"
    assert _route(routes, "/api/v1/works/other")[0].url_template == "/works/{name}"
    # Reversed declaration order flips the winner for the overlapping path.
    flipped = parse_document(text.replace("/works/special", "/works/{name}", 1).replace(
        "/works/{name}\n#type operation\n#method get\n#sparql SELECT ?s WHERE { ?s ?p \"[[name]]\" }",
        "/works/special\n#type operation\n#method get\n#sparql SELECT ?s WHERE { ?s a ?s }",
    ))
    flipped_routes = compile_routes(flipped.api, flipped.operations)
    assert _route(flipped_routes, "/api/v1/works/special")[0].url_template == "/works/{name}"


def test_unmatched_path_raises_not_found():
    assert match_path(_fixture_routes(), "/api/v1/nothing/here") is None
    outcome, operation = _execute("/api/v1/nothing/here")
    assert (outcome.status, operation) == (NotFoundError.status, None)


def test_wrong_method_raises_method_not_allowed():
    routes = _fixture_routes()
    with pytest.raises(MethodNotAllowedError):
        _route(routes, "/api/v1/citations/10.1/x", method="post")
    with pytest.raises(MethodNotAllowedError):
        _route(routes, "/api/v1/stats/10.3233", method="get")
    # The pipeline still attributes a 405 to the operation the path matched.
    outcome, operation = _execute("/api/v1/stats/10.3233", method="get")
    assert outcome.status == MethodNotAllowedError.status
    assert operation.url_template == "/stats/{prefix}"


def test_matching_runs_on_encoded_path_and_bindings_decode_after():
    routes = _fixture_routes()
    _, bindings = _route(routes, "/api/v1/citations/10.1108%2Fjd-12-2013-0166")
    assert bindings == {"doi": "10.1108/jd-12-2013-0166"}
    # An encoded slash inside the value never ends the path segment.
    _, encoded = _route(routes, "/api/v1/citations/10.1%2F%2F%2Fdeep")
    assert encoded == {"doi": "10.1///deep"}


def test_match_path_reports_none_without_consuming_routes():
    routes = _fixture_routes()
    assert match_path(routes, "/elsewhere") is None
    found = match_path(routes, "/api/v1/stats/10.3233")
    assert found is not None
    assert found[0].operation.url_template == "/stats/{prefix}"


# ---------------------------------------------------------------------------
# Typed coercion
# ---------------------------------------------------------------------------


def test_coerce_binding_keeps_text_but_gates_on_type():
    assert coerce_binding("42", ParamShape("n", "int")) == "42"
    assert coerce_binding("2016-05", ParamShape("d", "datetime")) == "2016-05"
    with pytest.raises(TypeMismatchError):
        coerce_binding("12a", ParamShape("n", "int"))
    with pytest.raises(TypeMismatchError):
        coerce_binding("P1X", ParamShape("t", "duration"))


def test_an_encoded_line_feed_never_passes_a_typed_parameter():
    # The default pattern .+ admits "12%0A"; its type gates the decoded "12\n".
    shape = ParamShape("n", "int")
    matcher = compile_matcher("/api/v1", "/items/{n}", (shape,))
    assert not matcher.match("/api/v1/items/12\n")
    m = matcher.match("/api/v1/items/12%0A")
    with pytest.raises(TypeMismatchError, match=r"value '12\\n' is not a valid int"):
        coerce_binding(urllib.parse.unquote(m.group("n")), shape)


# ---------------------------------------------------------------------------
# Round-trip property: built path -> match -> original values
# ---------------------------------------------------------------------------


def test_resolution_recovers_randomized_parameter_values():
    text = """#url /api/v1
#type api
#endpoint http://127.0.0.1:1/sparql

#url /pair/{a}/sep/{b}
#type operation
#method get
#a str([^/]+)
#sparql SELECT ?s WHERE { ?s ?p "[[a]][[b]]" }
"""
    doc = parse_document(text)
    routes = compile_routes(doc.api, doc.operations)
    rng = random.Random(404)
    alphabet = "abcXYZ019-._~"
    for _ in range(200):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 10)))
        b = "".join(rng.choice(alphabet + "/") for _ in range(rng.randrange(1, 12)))
        if rng.random() < 0.5:
            path = f"/api/v1/pair/{a}/sep/{b}"
        else:
            path = (
                "/api/v1/pair/"
                + urllib.parse.quote(a, safe="")
                + "/sep/"
                + urllib.parse.quote(b, safe="")
            )
        assert _route(routes, path)[1] == {"a": a, "b": b}, path
