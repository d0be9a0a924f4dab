"""Seeded fuzzing of every input the gateway takes from outside.

Each surface starts from well-formed inputs and mutates them with a fixed
seed, using the standard library only:

- configuration text through ``ApiManager``: only ``ConfigError`` escapes;
- refinement query strings through ``ApiManager.call``: every answer is
  200, 400, 404 or 405, never an internal error;
- results bodies, CSV and JSON, some longer than one parse chunk, through
  ``parse_results``: only ``ResultParseError`` escapes, and a body that
  parses gives the rows a reference reader gives and writes through both
  writers exactly as the writer oracles do;
- raw requests through a ``GatewayServer`` on loopback, one socket at a
  time: every request with a request line gets a status line, no handler
  fails, and the server serves on.
"""

from __future__ import annotations

import csv
import io
import json
import random
import re
import socket
import sys
import urllib.parse

from checks import fetch
from sparqlgate import client
from sparqlgate.errors import ConfigError, ResultParseError
from sparqlgate.manager import ApiManager
from sparqlgate.refine import serialize_csv, serialize_json
from sparqlgate.server import serve
from sparqlgate.testkit import FIXTURE_DOI, fixture_citations
from test_refine import _csv_oracle, _json_oracle


def _mutated(rng: random.Random, text, pieces, count: int):
    """``text`` (str or bytes) after ``count`` random deletions, insertions of
    ``pieces``, duplications and replacements."""
    for _ in range(count):
        i = rng.randrange(len(text) + 1)
        j = i + rng.randrange(1, 12)
        roll = rng.random()
        if roll < 0.3:
            text = text[:i] + text[j:]
        elif roll < 0.6:
            text = text[:i] + rng.choice(pieces) + text[i:]
        elif roll < 0.8:
            text = text[:j] + text[i:j] + text[j:]
        else:
            text = text[:i] + rng.choice(pieces) + text[i + 1:]
    return text


# ---------------------------------------------------------------------------
# Configuration text
# ---------------------------------------------------------------------------

CONFIG_PIECES = [
    "#", "\n", "\r\n", "\n\n", " ", "(", ")", "[[", "]]", "{", "}", "-->", ",", ".+",
    "\\", "*", "#url /x/{doi}", "#type operation", "#type api", "#method get",
    "#method post", "#doi int", "#doi str([0-9]+)", "#field_type int(n)",
    "#preprocess lower(doi)", "#postprocess x(y)", "#sparql ", "[[doi]]", "{doi}", "é",
]


def test_mutated_config_text_loads_or_raises_config_error(tmp_path):
    rng = random.Random(2601)
    config, _ = fixture_citations()
    path = tmp_path / "fuzz.hf"
    loaded = 0
    for _ in range(1000):
        text = _mutated(rng, config, CONFIG_PIECES, rng.randrange(1, 5))
        path.write_text(text, encoding="utf-8")
        try:
            ApiManager([str(path)])
        except ConfigError:
            continue
        loaded += 1
    assert 0 < loaded < 1000  # both outcomes were reached


# ---------------------------------------------------------------------------
# Refinement query strings
# ---------------------------------------------------------------------------

# Filter regexes get no parentheses, so no quantified group: the cost of a
# backtracking regex is out of scope here.
REFINEMENTS = {
    "require": (["citing", "creation", "work", "ghost"], ["_", "1", " ", "-", "\n", "é"]),
    "filter": (
        ["creation:>2016-05", "n:<10", "score:=3e2", "span:>P1D", "citing:10[.]3233",
         "cited:^10", "work:ds", "ghost:x"],
        [":", "<", ">", "=", "[", "]", ".", "^", "$", "*", "+", "?", "|", "\\", "T", "-", "\n"],
    ),
    "sort": (
        ["asc(citing)", "desc(creation)", "asc(n)", "desc(score)", "asc(span)", "desc(ghost)"],
        ["(", ")", " ", ",", "\n", "asc", "desc"],
    ),
    "json": (
        ['array("/", cited)', 'dict("/", citing, prefix, suffix)', 'array(".", work)',
         'dict("-", span, a, b, c)'],
        ['"', "(", ")", ",", " ", "/", "\n", "array", "dict"],
    ),
    "format": (["csv", "json"], ["c", "x", " ", "\n"]),
    "page": (["2"], ["0", "="]),
}
CALLS = [
    ("get", f"/api/v1/citations/{FIXTURE_DOI}"),
    ("get", f"/api/v1/citation-info/{FIXTURE_DOI}"),
    ("post", "/api/v1/stats/10.3233"),
    ("get", "/api/v1/stats/10.3233"),
    ("get", "/api/v1/nowhere"),
]
RAW_QUERY_PIECES = ["&", "=", "%", "%0A", "%00", "%FF", "%E2%80%A8", "+", "%26", "%3D"]


def _query(rng: random.Random) -> str:
    pairs = []
    for _ in range(rng.randrange(0, 5)):
        key = rng.choice(list(REFINEMENTS))
        bases, pieces = REFINEMENTS[key]
        value = rng.choice(bases)
        if rng.random() < 0.6:
            value = _mutated(rng, value, pieces, rng.randrange(1, 4))
        pairs.append(f"{key}={urllib.parse.quote(value, safe='')}")
    query = "&".join(pairs)
    if rng.random() < 0.2:
        query = _mutated(rng, query, RAW_QUERY_PIECES, rng.randrange(1, 3))
    return query


def test_refinement_query_strings_get_a_client_status(gateway):
    rng = random.Random(2602)
    statuses = set()
    for _ in range(400):
        method, path = rng.choice(CALLS)
        url = f"{path}?{_query(rng)}"
        outcome, _, _ = gateway.call(url, method)
        assert outcome.status in (200, 400, 404, 405), (url, outcome.body)
        assert "internal error" not in outcome.body, url
        statuses.add(outcome.status)
    assert statuses == {200, 400, 404, 405}


# ---------------------------------------------------------------------------
# Results bodies
# ---------------------------------------------------------------------------

CELLS = ["", "x", "10.3233/ds", 'a "b", c', "line\nbreak", "cr\rlf\r\n", "é ", " ", "_:b0"]
VARIABLES = ["s", "o", "n", "é", "a b"]
JSON_PIECES = ["{", "}", "[", "]", '"', ":", ",", " ", "\n", "\\", "null", "true", "1",
               '"value"', '"type"', '{"value": "v"}', '"x"']
CSV_PIECES = [",", '"', "\r\n", "\n", "\r", " ", "x", '""', "\x00", "é"]


def _solutions(rng: random.Random, header: list[str], count: int) -> list[dict]:
    return [
        {v: {"type": "literal", "value": rng.choice(CELLS)} for v in header if rng.random() < 0.8}
        for _ in range(count)
    ]


def _csv_body(header: list[str], solutions: list[dict]) -> str:
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows([s[v]["value"] if v in s else "" for v in header] for s in solutions)
    return text.getvalue()


def _reference_json(body: str) -> tuple[tuple[str, ...], list[dict]]:
    document = json.loads(body)
    header = tuple(str(v) for v in document["head"]["vars"])

    def cell(solution, variable):
        bound = solution.get(variable)
        if bound is None:
            return ""
        return bound["value"] if isinstance(bound["value"], str) else str(bound["value"])

    return header, [{v: cell(s, v) for v in header} for s in document["results"]["bindings"]]


def _reference_csv(body: str) -> tuple[tuple[str, ...], list[dict]]:
    records = list(csv.reader(io.StringIO(body, newline=""), strict=True))
    header = tuple(records[0])
    return header, [dict(zip(header, fields or [""])) for fields in records[1:]]


def _near_a_seam(rng: random.Random, body: str, separator: str) -> int:
    """An offset within a few records of the first or second chunk seam."""
    record = client._CHUNK * rng.choice((1, 2)) + rng.randrange(-2, 3)
    offset = -1
    for _ in range(record):
        offset = body.find(separator, offset + 1)
    return max(offset, 0)


def _bodies(rng: random.Random):
    """(media type, mutated body) pairs; one in 50 is longer than a parse chunk."""
    for number in range(2000):
        header = rng.sample(VARIABLES, rng.randrange(0, 4))
        if rng.random() < 0.1:
            header.append(rng.choice(header or ["s"]))  # a repeated variable
        large = number % 100 < 2
        count = rng.randrange(client._CHUNK, 2 * client._CHUNK + 3) if large else rng.randrange(6)
        solutions = _solutions(rng, header, count)
        if number % 2:
            media, body, separator = "text/csv", _csv_body(header, solutions), "\r\n"
            pieces = CSV_PIECES
        else:
            document = {"head": {"vars": header}, "results": {"bindings": solutions}}
            media, body, separator = client.RESULTS_JSON, json.dumps(document), "}}, {"
            pieces = JSON_PIECES
        if large:
            at = _near_a_seam(rng, body, separator)
            body = body[:at] + _mutated(rng, body[at:at + 40], pieces, rng.randrange(0, 3)) \
                + body[at + 40:]
        else:
            body = _mutated(rng, body, pieces, rng.randrange(0, 4))
        yield media, body


def test_mutated_results_bodies_parse_as_a_reference_reads_them_or_fail_cleanly():
    parsed = refused = 0
    for media, body in _bodies(random.Random(2603)):
        try:
            table = client.parse_results(body, media)
        except ResultParseError:
            refused += 1
            continue
        parsed += 1
        reference = _reference_csv if media == "text/csv" else _reference_json
        assert (table.header, table.rows) == reference(body), (media, body[:200])
        assert serialize_json(table) == _json_oracle(table)
        assert serialize_csv(table) == _csv_oracle(table)
    assert parsed > 400 and refused > 400


# ---------------------------------------------------------------------------
# Raw requests
# ---------------------------------------------------------------------------

REQUESTS = [
    b"GET / HTTP/1.1\r\nHost: g\r\n\r\n",
    b"GET /api/v1 HTTP/1.1\r\nHost: g\r\n\r\n",
    b"HEAD /api/v1/citations/10.1108/x HTTP/1.1\r\nHost: g\r\n\r\n",
    b"GET /api/v1/citation-info/10.1108/x?sort=desc(creation)&format=csv HTTP/1.1\r\n"
    b"Host: g\r\nAccept: text/csv\r\n\r\n",
    b"POST /api/v1/stats/10.3233 HTTP/1.1\r\nHost: g\r\nContent-Length: 7\r\n\r\na=1&b=2",
    b"GET http://g/api/v1/citations/10.1108/x HTTP/1.0\r\n\r\n",
    b"GET /\r\n",
]
REQUEST_PIECES = [
    b" ", b"\r\n", b"\n", b"\r", b":", b"/", b"?", b"%", b"%0A", b"\x00", b"\xff", b"1.1",
    b"HTTP/", b"HTTP/2.0", b"GET", b"POST", b"PUT", b"Content-Length: 3\r\n",
    b"Content-Length: -1\r\n", b"Content-Length: 99999999\r\n",
    b"Transfer-Encoding: chunked\r\n", b"Connection: close\r\n", b"Expect: 100-continue\r\n",
]
_STATUS_LINE = re.compile(rb"HTTP/1\.[01] [1-5][0-9][0-9] ")


def _raw_requests(rng: random.Random):
    for digits in (4299, 4300, 4301, 5000, 20000):
        for run in (b"9" * digits, b"0" * digits + b"7"):
            yield b"POST /api/v1/stats/10.3233 HTTP/1.1\r\nContent-Length: " + run \
                + b"\r\n\r\na=1&b=2"
    for _ in range(290):
        request = rng.choice(REQUESTS)
        yield _mutated(rng, request, REQUEST_PIECES, rng.randrange(0, 4))


def _exchange(address, raw: bytes) -> bytes:
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(raw)
        sock.shutdown(socket.SHUT_WR)
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    return received


def test_raw_requests_get_a_status_line_and_the_server_serves_on(gateway):
    failures = []
    with serve(gateway, port=0) as server:
        server.handle_error = lambda *_: failures.append(sys.exc_info()[1])
        for raw in _raw_requests(random.Random(2604)):
            received = _exchange(server.server_address[:2], raw)
            if raw.split(b"\n", 1)[0].split():  # a request line that is not blank
                assert _STATUS_LINE.match(received), (raw[:200], received[:200])
        assert failures == []
        assert fetch(server.url + "/").status == 200
