from __future__ import annotations

import csv
import http.client
import io
import json
import random
import re
import sys
import threading
import time
import tracemalloc

import pytest

from sparqlgate import client
from sparqlgate.client import RESULTS_JSON, ResultTable, dispatch, parse_results, substitute
from sparqlgate.errors import (
    EndpointStatusError,
    EndpointUnreachableError,
    ResultParseError,
)
from sparqlgate.manager import ApiManager
from sparqlgate.refine import serialize_json
from sparqlgate.server import BackgroundServer, BaseHandler, serve
from sparqlgate.testkit import (
    CITATION_ROWS,
    MockRule,
    MockSparqlEndpoint,
    _as_csv,
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


VALID = '{"head": {"vars": ["x"]}, "results": {"bindings": [{"x": {"value": "1"}}]}}'


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
        # What json.loads rejects, at the levels that are read by hand too.
        VALID + " x",
        VALID + "{}",
        VALID.replace('"1"}}]', '"1"}},]'),  # a trailing comma in bindings
        VALID.replace("[{", '[{"x": {"value": "0"}} {'),  # a missing comma
        VALID.replace('}, "results"', '} "results"'),
        VALID.replace("]}}", "}}"),  # an array closed by a brace
        VALID[:-3],  # an array never closed
        "\ufeff" + VALID,  # a leading byte order mark
        VALID.replace('[{"x": {"value": "1"}}]', '{"x": {"value": "1"}}'),
        VALID.replace('[{"x": {"value": "1"}}]', '"x"'),
        VALID.replace('{"head"', '{1: 2, "head"'),
        VALID.replace('"bindings":', '"bindings"'),
        VALID.replace('"1"', "1" + "0" * 5000),  # more digits than int() reads
    )
    for body in bad:
        with pytest.raises(ResultParseError, match="^malformed SPARQL results document: "):
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


def test_deeply_nested_bodies_are_parse_errors(tmp_path, caplog):
    # The decoder gives up on deep nesting with a RecursionError: the body is
    # malformed, which is no internal error and logs no traceback.
    deep = "[" * 100_000 + "]" * 100_000
    body = '{"head": {"vars": ["x"]}, "results": {"bindings": [{"x": {"value": %s}}]}}' % deep
    with pytest.raises(ResultParseError, match="^malformed SPARQL results document: "):
        parse_results(body)
    with start_mock([MockRule(re.compile(""), body)]) as endpoint:
        manager = ApiManager([fixture_file(tmp_path, endpoint.url)])
        with caplog.at_level("ERROR"):
            outcome, _, _ = manager.call("/api/v1/citations/10.1108/jd-12-2013-0166")
    assert outcome.status == 500
    assert json.loads(outcome.body)["error"].startswith("malformed SPARQL results document: ")
    assert caplog.records == []


def _spaced(value: object, rng: random.Random) -> str:
    """value as JSON, with random RFC 8259 whitespace between every two tokens."""

    def space() -> str:
        return "".join(rng.choice(" \t\n\r") for _ in range(rng.randrange(3)))

    if isinstance(value, dict):
        brackets, items = "{}", [
            json.dumps(key) + space() + ":" + space() + _spaced(item, rng)
            for key, item in value.items()
        ]
    elif isinstance(value, list):
        brackets, items = "[]", [_spaced(item, rng) for item in value]
    else:
        return json.dumps(value)
    separator = space() + "," + space()
    return brackets[0] + space() + separator.join(items) + space() + brackets[1]


def _shuffled(members: dict, rng: random.Random) -> dict:
    items = list(members.items())
    rng.shuffle(items)
    return dict(items)


def _random_document(rng: random.Random) -> str:
    variables = rng.sample(["s", "label", "n", "when", "o"], rng.randrange(1, 6))
    solutions = []
    for _ in range(rng.randrange(8)):
        solution = {}
        for variable in variables + ["unselected"]:
            if rng.random() < 0.2:
                continue  # unbound
            binding = {"type": "literal", "value": rng.choice(["x", "", 'a "b", c', "é\u2028"])}
            if rng.random() < 0.3:
                binding["datatype"] = "http://www.w3.org/2001/XMLSchema#integer"
            elif rng.random() < 0.3:
                binding["xml:lang"] = "en"
            solution[variable] = _shuffled(binding, rng)
        solutions.append(solution)
    head = {"vars": variables, "link": ["http://example.org/about"]}
    results = {"bindings": solutions, "distinct": False, "ordered": True}
    document = {"head": _shuffled(head, rng), "results": _shuffled(results, rng)}
    if rng.random() < 0.5:
        document["link"] = []
    return rng.choice(["", " ", "\n"]) + _spaced(_shuffled(document, rng), rng) + "\n"


def _reference_rows(body: str) -> tuple[tuple[str, ...], list[dict[str, str]]]:
    document = json.loads(body)
    header = tuple(document["head"]["vars"])
    solutions = document["results"]["bindings"]
    return header, [{v: s[v]["value"] if v in s else "" for v in header} for s in solutions]


def test_parsing_matches_a_json_loads_reference_in_any_layout():
    rng = random.Random(18)
    orders = set()
    for _ in range(300):
        body = _random_document(rng)
        orders.add(body.index('"head"') < body.index('"results"'))
        table = parse_results(body)
        assert (table.header, table.rows) == _reference_rows(body), body
    assert orders == {True, False}  # results came before head, and after it


def test_a_repeated_member_counts_once_and_the_last_one_wins():
    head_x, head_y = '"head": {"vars": ["x"]}', '"head": {"vars": ["y"]}'
    rows = '"results": {"bindings": [{"x": {"value": "1"}, "y": {"value": "2"}}]}'
    bad = '"results": {"bindings": [{"x": 5}]}'
    cases = {
        f"{{{head_x}, {rows}, {head_y}}}": [{"y": "2"}],
        f"{{{rows}, {head_x}, {head_y}}}": [{"y": "2"}],
        f"{{{head_x}, {bad}, {rows}}}": [{"x": "1"}],
        f"{{{head_x}, {bad}, {head_y}}}": [{"y": ""}],
        '{"head": {"vars": ["x"]}, "results": {"bindings": 3, "bindings": []}}': [],
    }
    for body, expected in cases.items():
        assert parse_results(body).rows == _reference_rows(body)[1] == expected, body


def test_one_call_at_either_cap_peaks_near_100_mb():
    header = ("s", "label", "n", "score", "span", "created", "tags")
    rows = [
        {
            "s": f"https://example.org/work/{i}",
            "label": f"Work number {i}, \"revised\"",
            "n": str(i * 37),
            "score": f"{i / 7:.4f}",
            "span": f"P{i % 30}DT{i % 24}H",
            "created": f"2020-01-{i % 28 + 1:02d}T10:00:00Z",
            "tags": "a;b;c" if i % 3 else None,
        }
        for i in range(1000)
    ]
    body = results_json(header, rows)
    bodies = [
        (RESULTS_JSON, body.encode(), client.MAX_RESPONSE_BYTES),
        ("text/csv", _as_csv(body).encode(), client.MAX_CSV_RESPONSE_BYTES),
    ]
    # The text goes after parsing, as in pipeline.execute. The peak grows with
    # the body, so scaled to the cap it is what a call at the cap needs.
    for media, payload, cap in bodies:
        tracemalloc.start()
        try:
            output = serialize_json(parse_results(payload.decode("utf-8"), media))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert output.count('"s": ') == 1000
        assert peak / len(payload) * cap < 110e6, media


def test_replaced_shares_header_and_types():
    table = ResultTable(("a",), {"a": "int"}, [{"a": "1"}])
    swapped = table.replaced([{"a": "2"}])
    assert swapped.header == table.header
    assert swapped.types == table.types
    assert swapped.rows == [{"a": "2"}]
    assert table.rows == [{"a": "1"}]


class _Unreadable(dict):
    """Columns that fail any read: a row count must come from ``length``."""

    def _refuse(self, *args):
        raise AssertionError("a column was read")

    __getitem__ = __iter__ = __len__ = keys = values = items = get = _refuse


def test_the_row_count_reads_no_column():
    table = ResultTable.from_columns(("a", "b"), {}, _Unreadable(), 5)
    assert len(table.rows) == 5


def test_the_row_view_builds_fresh_dicts_from_the_columns():
    columns = {"a": ["1", "2", "3"], "b": ["x", "y", "z"]}
    table = ResultTable.from_columns(("a", "b", "a"), {}, columns, 3)
    rows = [{"a": "1", "b": "x"}, {"a": "2", "b": "y"}, {"a": "3", "b": "z"}]
    view = table.rows
    assert view == rows and rows == view and view == table.rows
    assert view != rows[:2] and view != tuple(rows)
    assert list(view) == rows and len(view) == 3
    assert (view[0], view[2], view[-1], view[-3]) == (rows[0], rows[2], rows[2], rows[0])
    for index in (3, -4):
        with pytest.raises(IndexError):
            view[index]
    assert (view[1:], view[::-2], view[5:]) == (rows[1:], rows[::-2], [])
    assert rows[1] in view and view.index(rows[2]) == 2
    first = view[0]
    first["a"] = "changed"
    next(iter(view))["b"] = "changed"
    assert view == rows and columns == {"a": ["1", "2", "3"], "b": ["x", "y", "z"]}
    for write in (lambda: view.append({}), lambda: view.sort(), lambda: view.__setitem__(0, {})):
        with pytest.raises((AttributeError, TypeError)):
            write()


def test_a_table_without_columns_keeps_its_row_count():
    table = ResultTable.from_columns((), {}, {}, 3)
    assert len(table.rows) == 3
    assert table.rows == [{}, {}, {}] and table.rows[-1] == {}
    assert table.replaced(table.rows).length == 3
    assert serialize_json(table) == "[\n  {},\n  {},\n  {}\n]"


def test_replaced_round_trips_the_row_view():
    table = parse_results("s,o\r\na,\r\n,b\r\n", "text/csv", {"o": "int"})
    again = table.replaced(table.rows)
    assert (again.header, again.types, again.columns, again.length) == (
        table.header, table.types, table.columns, table.length
    )
    assert again.columns == {"s": ["a", ""], "o": ["", "b"]}
    # Keys outside the header are dropped; a missing header key fails.
    assert table.replaced([{"s": "1", "o": "2", "extra": "3"}]).rows == [{"s": "1", "o": "2"}]
    with pytest.raises(KeyError):
        table.replaced([{"s": "1"}])


# ---------------------------------------------------------------------------
# SPARQL 1.1 results CSV
# ---------------------------------------------------------------------------

# (case, body, header, rows): what csv.reader and the width check make of a body.
CSV_TABLES = [
    ("header only", "x,y\r\n", ("x", "y"), []),
    ("no final line end", "x,y\r\n1,2", ("x", "y"), [{"x": "1", "y": "2"}]),
    (
        "one column with an unbound row",
        "x\r\na\r\n\r\nb\r\n",
        ("x",),
        [{"x": "a"}, {"x": ""}, {"x": "b"}],
    ),
    ("one column, last row unbound", "x\r\n\r\n", ("x",), [{"x": ""}]),
    (
        "quoted CR, LF and CRLF",
        'x,y,z\r\n"a\rb","c\nd","e\r\nf"\r\n',
        ("x", "y", "z"),
        [{"x": "a\rb", "y": "c\nd", "z": "e\r\nf"}],
    ),
    (
        "quoted comma and doubled quote",
        'x,y\r\n"a, b","say ""hi"""\r\n',
        ("x", "y"),
        [{"x": "a, b", "y": 'say "hi"'}],
    ),
    ("empty fields", "x,y,z\r\n,,\r\n", ("x", "y", "z"), [{"x": "", "y": "", "z": ""}]),
    ("spaces are kept", "x,y\r\n a , b\r\n", ("x", "y"), [{"x": " a ", "y": " b"}]),
    ("LF line ends", "x,y\n1,2\n", ("x", "y"), [{"x": "1", "y": "2"}]),
]

# (case, body, message): each is a ResultParseError with this message.
CSV_ERRORS = [
    ("empty body", "", "empty CSV body"),
    ("a short row", "x,y\r\n1,2\r\n3\r\n", "CSV row 2 has 1 fields, the header 2"),
    ("a long row", "x,y\r\n1,2,3\r\n", "CSV row 1 has 3 fields, the header 2"),
    ("a blank line, two variables", "x,y\r\n\r\n1,2\r\n", "CSV row 1 has 0 fields, the header 2"),
    ("an unterminated quote", 'x\r\n"abc\r\n', "CSV line 2: unexpected end of data"),
    ("text after a closing quote", 'x\r\n"a"b\r\n', "CSV line 2: ',' expected after '\"'"),
]


@pytest.mark.parametrize(
    "body, header, rows", [case[1:] for case in CSV_TABLES], ids=[case[0] for case in CSV_TABLES]
)
def test_csv_bodies_parse_into_their_tables(body, header, rows):
    table = parse_results(body, "text/csv", field_types={"x": "int"})
    assert (table.header, table.rows) == (header, rows)
    assert table.types == {variable: "int" if variable == "x" else "str" for variable in header}


@pytest.mark.parametrize(
    "body, message", [case[1:] for case in CSV_ERRORS], ids=[case[0] for case in CSV_ERRORS]
)
def test_malformed_csv_bodies_are_rejected(body, message):
    with pytest.raises(ResultParseError) as caught:
        parse_results(body, "text/csv")
    assert str(caught.value) == f"malformed SPARQL results document: {message}"


def _reference_csv(body: str) -> tuple[tuple[str, ...], list[dict[str, str]]]:
    records = csv.reader(io.StringIO(body, newline=""), strict=True)
    header = tuple(next(records))
    return header, [dict(zip(header, fields or [""])) for fields in records]


def test_csv_bodies_parse_alike_across_chunk_boundaries():
    # Records are transposed 1024 at a time.
    for count in (0, 1, 1023, 1024, 1025, 2049):
        body = "n,s,n\r\n" + "".join(f'{i},"a,{i}",-{i}\r\n' for i in range(count))
        table = parse_results(body, "text/csv")
        assert (table.header, table.rows) == _reference_csv(body), count
        assert table.length == count == len(table.columns["n"])
    lines = [f"{i},{i}\r\n" for i in range(1, 1100)]
    lines[1029] = "short\r\n"
    with pytest.raises(ResultParseError, match="^malformed SPARQL results document: "
                       "CSV row 1030 has 1 fields, the header 2$"):
        parse_results("x,y\r\n" + "".join(lines), "text/csv")
    # An empty line under one variable is an unbound cell, in any chunk.
    cells = [str(i) for i in range(1500)]
    cells[1200] = cells[1499] = ""
    table = parse_results("x\r\n" + "".join(f"{cell}\r\n" for cell in cells), "text/csv")
    assert table.columns == {"x": cells}
    assert table.rows == _reference_csv("x\r\n" + "".join(f"{c}\r\n" for c in cells))[1]


def test_json_bodies_parse_alike_across_chunk_boundaries():
    # Solutions are transposed 1024 at a time, as CSV records are.
    for count in (0, 1, 1023, 1024, 1025, 2049):
        rows = [{"n": str(i), "s": f"a,{i}" if i % 3 else None} for i in range(count)]
        body = results_json(("n", "s", "n"), rows)
        table = parse_results(body)
        assert (table.header, table.rows) == _reference_rows(body), count
        assert table.length == count == len(table.columns["s"])
    solutions = [{"x": {"value": str(i)}} for i in range(1100)]
    solutions[1029] = {"x": {"type": "literal"}}
    body = json.dumps({"head": {"vars": ["x"]}, "results": {"bindings": solutions}})
    with pytest.raises(ResultParseError, match="^malformed SPARQL results document: "
                       "bad binding for 'x'$"):
        parse_results(body)


@pytest.mark.parametrize(
    "media",
    ["text/csv", "text/csv; charset=utf-8", "TEXT/CSV", " Text/Csv ;charset=UTF-8"],
)
def test_the_csv_media_type_ignores_case_and_parameters(media):
    assert parse_results("x\r\n1\r\n", media).rows == [{"x": "1"}]


@pytest.mark.parametrize(
    "media", ["application/sparql-results+json", "text/plain", "text/csv-schema", ""]
)
def test_every_other_media_type_is_read_as_json(media):
    assert parse_results(VALID, media).rows == [{"x": "1"}]
    with pytest.raises(ResultParseError, match="^malformed SPARQL results document: "):
        parse_results("x\r\n1\r\n", media)


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
            assert media == "text/csv; charset=utf-8"
            assert parse_results(body, media).rows == [{"s": "ok"}]
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
# CSV first, JSON as the fallback
# ---------------------------------------------------------------------------


def test_dispatch_asks_for_csv_then_json_and_an_endpoint_may_answer_either(tmp_path):
    accepts = []

    class JsonOnly(BaseHandler):
        """An endpoint that ignores Accept and always answers results JSON."""

        def _handle(self, method: str, body: bytes) -> None:
            accepts.append(self.headers["Accept"])
            payload = results_json(("citing", "cited"), CITATION_ROWS).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/sparql-results+json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

    path = "/api/v1/citations/10.1108/jd-12-2013-0166"
    _, rules = fixture_citations()
    with start_mock(rules) as endpoint:
        from_csv, _, _ = ApiManager([fixture_file(tmp_path, endpoint.url, "csv.hf")]).call(path)
    with BackgroundServer(("127.0.0.1", 0), JsonOnly).start() as endpoint:
        _, media, body = dispatch(endpoint.url, "SELECT ?citing ?cited")
        assert media == "application/sparql-results+json"
        assert parse_results(body, media).rows == list(CITATION_ROWS)
        from_json, _, _ = ApiManager([fixture_file(tmp_path, endpoint.url, "json.hf")]).call(path)
    assert accepts == ["text/csv, application/sparql-results+json;q=0.9"] * 2
    assert from_csv.status == from_json.status == 200
    assert from_csv.body == from_json.body
    assert json.loads(from_csv.body) == list(CITATION_ROWS)


# Cells the CSV writer must quote, or that a line-based reader would split.
AWKWARD_CELLS = (
    "plain", "", None, "a,b", 'say "hi"', '"', ",", "\r", "\n", "\r\n", "x\r\ny\nz\r",
    "para\u2028graph", "Zürich ☃ 日本", " padded ", "_:b0", "http://example.org/a?b=c,d",
)


def _awkward_table(rng: random.Random, case: int) -> tuple[tuple[str, ...], list[dict]]:
    width = 1 if case % 4 == 0 else rng.randrange(2, 5)
    header = tuple(rng.sample(["s", "label", "n", "when", "o"], width))
    height = 0 if case % 5 == 0 else rng.randrange(1, 9)
    rows = [{v: rng.choice(AWKWARD_CELLS) for v in header} for _ in range(height)]
    return header, rows


def test_csv_through_the_mock_gives_the_rows_of_the_json_body():
    rng = random.Random(21)
    bodies = {f"SELECT {case}": results_json(*_awkward_table(rng, case)) for case in range(200)}
    rules = [MockRule(query, body) for query, body in bodies.items()]
    with start_mock(rules) as endpoint:
        for query, body in bodies.items():
            _, media, csv_body = dispatch(endpoint.url, query)
            assert media == "text/csv; charset=utf-8"
            expected = parse_results(body)
            got = parse_results(csv_body, media)
            assert (got.header, got.rows) == (expected.header, expected.rows), body
    # Every awkward cell (None: unbound), one-column and zero-row tables were met.
    documents = [json.loads(body) for body in bodies.values()]
    cells = {
        solution.get(variable, {}).get("value")
        for document in documents
        for solution in document["results"]["bindings"]
        for variable in document["head"]["vars"]
    }
    assert cells == set(AWKWARD_CELLS)
    assert 1 in {len(document["head"]["vars"]) for document in documents}
    assert 0 in {len(document["results"]["bindings"]) for document in documents}


def test_a_nul_in_a_csv_cell_parses_from_python_3_11_on():
    # csv.reader refuses NUL before Python 3.11 ("line contains NUL").
    rows = [{"s": "a\x00b", "o": "c"}]
    if sys.version_info < (3, 11):
        with pytest.raises(ResultParseError, match="line contains NUL"):
            parse_results("s,o\r\na\x00b,c\r\n", "text/csv")
        return
    assert parse_results("s,o\r\na\x00b,c\r\n", "text/csv").rows == rows
    with start_mock([MockRule("SELECT ?s ?o", results_json(("s", "o"), rows))]) as endpoint:
        _, media, body = dispatch(endpoint.url, "SELECT ?s ?o")
    assert media == "text/csv; charset=utf-8"
    assert parse_results(body, media).rows == rows


def test_a_cell_beyond_the_csv_default_field_limit_parses_as_in_json():
    # csv's default limit is 131072 characters a field; the client lifts it.
    assert csv.field_size_limit() >= client.MAX_RESPONSE_BYTES
    rows = [{"s": "x" * 200_000, "o": "short"}, {"s": "y", "o": '"q", ' * 40_000}]
    body = results_json(("s", "o"), rows)
    with start_mock([MockRule("SELECT ?s ?o", body)]) as endpoint:
        _, media, csv_body = dispatch(endpoint.url, "SELECT ?s ?o")
    assert media == "text/csv; charset=utf-8"
    assert parse_results(csv_body, media).rows == parse_results(body).rows == rows


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
                _, media, body = dispatch(endpoint.url, "SELECT ?s")
                answers.append(parse_results(body, media).rows)

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
            _, media, body = dispatch(endpoint.url, "SELECT ?s")
            assert parse_results(body, media).rows == [{"s": "ok"}]
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


def test_a_stopped_endpoint_does_not_answer_its_pooled_connection(pool, monkeypatch):
    # stop() cuts the connection the pool keeps, so the retry finds no server.
    monkeypatch.setattr(client, "TIMEOUT", 0.5)
    with start_mock(OK_RULES) as endpoint:
        dispatch(endpoint.url, "SELECT ?s")
    assert sum(map(len, pool.values())) == 1
    with pytest.raises(EndpointUnreachableError):
        dispatch(endpoint.url, "SELECT ?s")
    assert len(endpoint.received) == 1


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


def test_a_csv_body_is_capped_at_the_memory_of_a_json_body(pool, monkeypatch):
    # One call at either cap stays under 110 MB. Decoding a body, parsing it,
    # dropping the text and writing the call's JSON output peaks in proportion
    # to the body, so the ratio measured here on rows shaped like the
    # benchmark's scales to the cap.
    header = ("name", "n", "score", "span", "created", "tags", "pair")
    rows = [
        {
            "name": f"item-{i:06x}" + (', "ltd"' if i % 10 == 0 else ""),
            "n": str(i * 37 - 90000),
            "score": f"{i / 7:.3f}",
            "span": f"P{i % 99}DT{i % 24}H",
            "created": None if i % 33 == 0 else f"20{i % 30:02d}-{i % 12 + 1:02d}-01T10:00",
            "tags": ";".join(("alpha", "beta", "gamma", "delta")[: i % 4 + 1]),
            "pair": f"k{i % 100}:v{i % 1000}",
        }
        for i in range(4000)
    ]
    body = results_json(header, rows)
    for media, payload, cap in (
        (RESULTS_JSON, body.encode(), client.MAX_RESPONSE_BYTES),
        ("text/csv", _as_csv(body).encode(), client.MAX_CSV_RESPONSE_BYTES),
    ):
        tracemalloc.start()
        try:
            serialize_json(parse_results(payload.decode("utf-8"), media))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(payload) * cap < 110e6, (media, peak / len(payload))
    monkeypatch.setattr(client, "MAX_RESPONSE_BYTES", 1000)
    monkeypatch.setattr(client, "MAX_CSV_RESPONSE_BYTES", 200)
    head = b"HTTP/1.1 200 OK\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n"
    csv_rows = b"s\r\n" + b"ok\r\n" * 49
    json_rows = results_json(("s",), [{"s": "ok"}] * 10).encode()
    assert (len(csv_rows), 200 < len(json_rows) <= 1000) == (199, True)
    cases = [
        (b"text/csv", csv_rows, 49),
        (b"text/csv", csv_rows + b"ok", "exceeds 200 bytes"),
        (b"Text/CSV; charset=utf-8", csv_rows + b"ok", "exceeds 200 bytes"),
        (RESULTS_JSON.encode(), json_rows, 10),
        (RESULTS_JSON.encode(), json_rows.ljust(1001), "exceeds 1000 bytes"),
    ]
    for media, body, expected in cases:
        with _serve_raw(head % (media, len(body)) + body) as endpoint:
            if isinstance(expected, str):
                with pytest.raises(ResultParseError, match=expected):
                    dispatch(endpoint.url, "SELECT ?s")
            else:
                _, got, text = dispatch(endpoint.url, "SELECT ?s")
                assert parse_results(text, got).rows == [{"s": "ok"}] * expected


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
