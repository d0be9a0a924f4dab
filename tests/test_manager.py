from __future__ import annotations

import json

import pytest

from sparqlgate.errors import (
    ConfigError,
    NotFoundError,
    SpecValidationError,
    UnknownFunctionError,
)
from sparqlgate.manager import ApiManager
from sparqlgate.testkit import fixture_citations, fixture_file

SECOND_API = """#url /alt
#type api
#endpoint __ENDPOINT__

#url /citations/{doi}
#type operation
#doi str(10\\..+)
#method get
#sparql PREFIX cito: <http://purl.org/spar/cito/>
SELECT ?citing ?cited WHERE {
  ?c cito:hasCitingEntity ?citing .
  ?c cito:hasCitedEntity <https://doi.org/[[doi]]> .
}
"""


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def test_loads_fixture_and_exposes_documents(gateway):
    assert [api.base for api in gateway.apis] == ["/api/v1"]
    assert len(gateway.documents[0].operations) == 3


def test_missing_file_fails_fast(tmp_path):
    with pytest.raises(OSError):
        ApiManager([str(tmp_path / "absent.hf")])


def test_duplicate_api_base_is_rejected(mock_endpoint, tmp_path):
    one = fixture_file(tmp_path, mock_endpoint.url, "one.hf")
    two = fixture_file(tmp_path, mock_endpoint.url, "two.hf")
    with pytest.raises(SpecValidationError) as caught:
        ApiManager([one, two])
    assert str(caught.value) == (
        f"api base '/api/v1' is already declared by {one!r} (file {two!r})"
    )


def test_unregistered_chain_function_fails_at_load(mock_endpoint, tmp_path):
    config, _ = fixture_citations(mock_endpoint.url)
    path = tmp_path / "broken.hf"
    unregistered = {
        "preprocess": config.replace("lower(doi)", "mangle(doi)", 1),
        "postprocess": config.replace(
            "#description All works", "#postprocess tidy()\n#description All works", 1
        ),
    }
    for field, text in unregistered.items():
        path.write_text(text, encoding="utf-8")
        with pytest.raises(UnknownFunctionError) as caught:
            ApiManager([str(path)])
        assert caught.value.field == field


def _second_file(tmp_path, endpoint_url: str, edit) -> str:
    path = tmp_path / "b.hf"
    path.write_text(edit(SECOND_API.replace("__ENDPOINT__", endpoint_url)), encoding="utf-8")
    return str(path)


def test_load_errors_name_their_file(conf_path, mock_endpoint, tmp_path):
    # Found while loading the second file: the error says which file.
    chain = _second_file(
        tmp_path, mock_endpoint.url,
        lambda text: text.replace("#method get", "#method get\n#preprocess lowr(doi)"),
    )
    with pytest.raises(UnknownFunctionError) as caught:
        ApiManager([conf_path, chain])
    assert (caught.value.path, caught.value.block_index, str(caught.value)) == (
        chain, 2,
        "preprocess function 'lowr' of operation '/alt/citations/{doi}' "
        f"is not registered (file {chain!r}, block 2, field #preprocess)",
    )

    # A parse error keeps its block, and gains the file.
    shape = _second_file(
        tmp_path, mock_endpoint.url, lambda text: text.replace("str(10", "bool(10")
    )
    with pytest.raises(ConfigError) as caught:
        ApiManager([conf_path, shape])
    assert (caught.value.path, caught.value.block_index, caught.value.field) == (shape, 2, "doi")
    assert str(caught.value).endswith(f"(file {shape!r}, block 2, field #doi)")


def test_route_compile_errors_name_their_file(mock_endpoint, tmp_path):
    # Routes compile after parsing; the operation still knows its block.
    path = _second_file(
        tmp_path, mock_endpoint.url,
        lambda text: text.replace("/citations/{doi}", "/citations/{doi}/{doi}"),
    )
    with pytest.raises(SpecValidationError) as caught:
        ApiManager([path])
    exc = caught.value
    assert (exc.path, exc.block_index, exc.field) == (path, 2, "url")
    assert str(exc).startswith("url template '/citations/{doi}/{doi}' does not compile")
    assert str(exc).endswith(f"(file {path!r}, block 2, field #url)")


# ---------------------------------------------------------------------------
# Addon plugins
# ---------------------------------------------------------------------------

ADDON = '''
def shorten(*values):
    return tuple(v.split("/", 1)[0] for v in values)

def drop_rows(table, *variables):
    rows = [r for r in table.rows if all(r[v] for v in variables)]
    return table.replaced(rows)

def register(registry):
    registry.register_param("shorten", shorten)
    registry.register_table("drop_rows", drop_rows)
'''


def _addon_config(endpoint_url: str) -> str:
    config, _ = fixture_citations(endpoint_url)
    config = config.replace("#endpoint", "#addon extras\n#endpoint", 1)
    # First operation gains a second preprocess step; the second operation
    # (citation-info, whose table has a creation column) gains a postprocess.
    config = config.replace("#preprocess lower(doi)",
                            "#preprocess lower(doi) --> shorten(doi)", 1)
    return config.replace(
        "#description Citing works",
        "#postprocess drop_rows(creation)\n#description Citing works",
        1,
    )


def test_addon_functions_join_the_registry(mock_endpoint, tmp_path):
    (tmp_path / "extras.py").write_text(ADDON, encoding="utf-8")
    path = tmp_path / "with_addon.hf"
    path.write_text(_addon_config(mock_endpoint.url), encoding="utf-8")
    manager = ApiManager([str(path)])

    before = len(mock_endpoint.received)
    outcome, _, _ = manager.call("/api/v1/citations/10.1108/jd-12-2013-0166")
    assert outcome.status == 200
    # shorten() ran after lower(): the substituted DOI lost its suffix.
    assert "<https://doi.org/10.1108>" in mock_endpoint.received[before]

    # drop_rows() ran on the citation-info table: the unbound-creation row is gone.
    outcome, _, _ = manager.call("/api/v1/citation-info/10.1108/jd-12-2013-0166")
    assert outcome.status == 200
    rows = json.loads(outcome.body)
    assert len(rows) == 3
    assert all(r["creation"] for r in rows)


def test_missing_addon_file_is_a_load_error(mock_endpoint, tmp_path):
    path = tmp_path / "orphan.hf"
    path.write_text(_addon_config(mock_endpoint.url), encoding="utf-8")
    with pytest.raises(SpecValidationError):
        ApiManager([str(path)])


def test_addon_without_register_hook_is_a_load_error(mock_endpoint, tmp_path):
    (tmp_path / "extras.py").write_text("register = 7\n", encoding="utf-8")
    path = tmp_path / "bad_addon.hf"
    path.write_text(_addon_config(mock_endpoint.url), encoding="utf-8")
    with pytest.raises(SpecValidationError):
        ApiManager([str(path)])


# ---------------------------------------------------------------------------
# Call URL execution
# ---------------------------------------------------------------------------


def test_call_routes_to_the_longest_matching_base(mock_endpoint, tmp_path):
    nested = """#url /api/v1/extra
#type api
#endpoint __ENDPOINT__

#url /citations/{doi}
#type operation
#doi str(10\\..+)
#method get
#sparql SELECT ?citing ?cited WHERE { ?c <urn:x> <https://doi.org/[[doi]]> . }
"""
    outer = fixture_file(tmp_path, mock_endpoint.url, "outer.hf")
    inner_path = tmp_path / "inner.hf"
    inner_path.write_text(
        nested.replace("__ENDPOINT__", mock_endpoint.url), encoding="utf-8"
    )
    manager = ApiManager([outer, str(inner_path)])
    assert manager.find_api("/api/v1/citations/10.1/x").base == "/api/v1"
    assert manager.find_api("/api/v1/extra/citations/10.1/x").base == "/api/v1/extra"
    assert manager.find_api("/api/v1extra") is None
    assert manager.find_api("/api") is None


COUNTED_API = """#url /count
#type api
#endpoint __ENDPOINT__

#url /works/{n}
#type operation
#n int
#method get
#sparql SELECT ?work WHERE { ?work <urn:count> [[n]] . }
"""


def _counted(tmp_path, endpoint_url: str) -> ApiManager:
    path = tmp_path / "count.hf"
    path.write_text(COUNTED_API.replace("__ENDPOINT__", endpoint_url), encoding="utf-8")
    return ApiManager([str(path)])


def test_an_encoded_line_feed_is_a_400_in_a_typed_parameter_or_a_refinement(
    gateway, mock_endpoint, tmp_path
):
    outcome, _, _ = _counted(tmp_path, mock_endpoint.url).call("/count/works/12%0A")
    assert outcome.status == 400
    assert json.loads(outcome.body)["error"] == (
        "parameter 'n' value '12\\n' is not a valid int"
    )
    info = "/api/v1/citation-info/10.1108/jd-12-2013-0166"
    assert gateway.call(f"{info}?require=creation")[0].status == 200
    for refinement in ("require=creation%0A", "sort=desc(creation)%0A"):
        outcome, _, _ = gateway.call(f"{info}?{refinement}")
        assert outcome.status == 400, refinement


def test_a_non_ascii_digit_is_a_400_in_an_int_parameter(mock_endpoint, tmp_path):
    # "%D9%A1%D9%A2" is Arabic-Indic "12": no SPARQL INTEGER, so no query is sent.
    counted = _counted(tmp_path, mock_endpoint.url)
    before = len(mock_endpoint.received)
    outcome, _, _ = counted.call("/count/works/%D9%A1%D9%A2")
    assert outcome.status == 400
    assert json.loads(outcome.body)["error"] == (
        "parameter 'n' value '\u0661\u0662' is not a valid int"
    )
    assert len(mock_endpoint.received) == before


def test_a_non_ascii_digit_is_a_400_in_a_typed_filter(gateway):
    stats = "/api/v1/stats/10.3233"
    assert gateway.call(f"{stats}?filter=n:%3E1", method="post")[0].status == 200
    outcome, _, _ = gateway.call(f"{stats}?filter=n:%3E%D9%A1", method="post")
    assert outcome.status == 400
    assert json.loads(outcome.body)["error"] == "filter value '\u0661' is not a valid int"


def test_call_outside_every_base_is_a_404_outcome(gateway):
    outcome, api, operation = gateway.call("/elsewhere/x")
    assert (outcome.status, api, operation) == (404, None, None)
    assert json.loads(outcome.body)["status"] == 404


def test_call_reports_api_and_operation_for_stats(gateway):
    outcome, api, operation = gateway.call("/api/v1/citations/10.1108/x")
    assert outcome.status == 200
    assert api.base == "/api/v1"
    assert operation.url_template == "/citations/{doi}"
    outcome, api, operation = gateway.call("/api/v1/citations/10.1108/x", method="post")
    assert outcome.status == 405
    assert operation.url_template == "/citations/{doi}"  # matched, then refused
    outcome, api, operation = gateway.call("/api/v1/none")
    assert outcome.status == 404
    assert api is not None and operation is None


def test_call_accept_header_reaches_serialization(gateway):
    outcome, _, _ = gateway.call(
        "/api/v1/citations/10.1108/jd-12-2013-0166", accept="text/csv"
    )
    assert outcome.content_type == "text/csv"
    assert outcome.body.startswith("citing,cited\n")


@pytest.mark.parametrize("query, accept", [
    ("format=csv&json=array(%22-%22,citing)", None),
    ("json=array(%22-%22,citing)", "text/csv"),
])
def test_json_step_under_csv_output_costs_no_upstream_query(gateway, mock_endpoint, query, accept):
    before = len(mock_endpoint.received)
    outcome, _, _ = gateway.call(
        f"/api/v1/citations/10.1108/jd-12-2013-0166?{query}", accept=accept
    )
    assert (outcome.status, outcome.content_type) == (400, "application/json")
    assert outcome.body == '{"error": "json refinements need the json format", "status": 400}'
    assert len(mock_endpoint.received) == before


def test_refinement_steps_are_bounded_before_dispatch(gateway, mock_endpoint):
    path = "/api/v1/citations/10.1108/jd-12-2013-0166?"
    # format and ignored keys are no steps.
    outcome, _, _ = gateway.call(path + "&".join(["require=citing"] * 16) + "&format=csv&page=1")
    assert outcome.status == 200
    before = len(mock_endpoint.received)
    outcome, _, _ = gateway.call(path + "&".join(["require=citing"] * 17))
    assert (outcome.status, outcome.content_type) == (400, "application/json")
    assert outcome.body == '{"error": "at most 16 refinement steps per call", "status": 400}'
    assert len(mock_endpoint.received) == before


# ---------------------------------------------------------------------------
# Operation handles
# ---------------------------------------------------------------------------


def test_get_op_resolves_bindings_and_plan(gateway, mock_endpoint):
    handle = gateway.get_op(
        "/api/v1/citation-info/10.1108%2FJD-12-2013-0166?format=csv&require=creation"
    )
    assert handle.operation.url_template == "/citation-info/{doi}"
    status, body = handle.exec()
    assert status == 200
    # The decoded (and lower-cased) binding reached the query...
    assert "<https://doi.org/10.1108/jd-12-2013-0166>" in mock_endpoint.received[-1]
    # ...and the plan ran: format=csv beat exec's default JSON, and
    # require=creation dropped the one row whose creation is unbound.
    lines = body.splitlines()
    assert lines[0] == "citing,cited,creation"
    assert len(lines) == 4 and "10.1093/nar/gkw1328" not in body


def test_get_op_unknown_path_raises(gateway):
    with pytest.raises(NotFoundError):
        gateway.get_op("/api/v1/unknown")
    with pytest.raises(NotFoundError):
        gateway.get_op("/elsewhere/x")


@pytest.mark.parametrize("path", ["/elsewhere/x", "/api/v1/unknown"])
def test_get_op_and_call_give_the_same_404(gateway, path):
    with pytest.raises(NotFoundError) as caught:
        gateway.get_op(path)
    outcome, _, _ = gateway.call(path)
    assert outcome.status == 404
    assert json.loads(outcome.body)["error"] == str(caught.value)


def test_get_op_with_bad_refinement_defers_to_exec(gateway):
    handle = gateway.get_op("/api/v1/citations/10.1108/x?sort=nope")
    status, body = handle.exec()
    assert status == 400
    assert json.loads(body)["status"] == 400


def test_handle_exec_matches_direct_call(gateway):
    url = "/api/v1/citations/10.1108/jd-12-2013-0166?sort=desc(citing)"
    handle = gateway.get_op(url)
    status, body = handle.exec()
    outcome, _, _ = gateway.call(url, accept="application/json")
    assert (status, body) == (outcome.status, outcome.body)
    # repeatable
    assert handle.exec() == (status, body)


def test_handle_exec_content_type_plays_the_accept_role(gateway):
    handle = gateway.get_op("/api/v1/citations/10.1108/jd-12-2013-0166")
    _, body = handle.exec(content_type="csv")
    assert body.startswith("citing,cited\n")
    # ...but a format refinement in the URL still wins.
    fixed = gateway.get_op("/api/v1/citations/10.1108/jd-12-2013-0166?format=json")
    _, body = fixed.exec(content_type="csv")
    assert body.startswith("[")


def test_handle_exec_method_mismatch_is_405(gateway):
    handle = gateway.get_op("/api/v1/stats/10.3233")
    status, _ = handle.exec(method="get")
    assert status == 405
    status, body = handle.exec(method="post")
    assert status == 200
    assert json.loads(body)[0]["work"] == "10.3233/ds-190019"
