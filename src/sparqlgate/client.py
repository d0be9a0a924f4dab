"""SPARQL 1.1 protocol client and results parser.

One canonical wire path: the query travels as the ``query`` parameter (GET)
or form field (POST), and the response body is always read as UTF-8
SPARQL-results JSON, whatever media type or charset the endpoint reports.
The parsed form is a ResultTable — ordered header, per-variable value
types, and ordered rows of cells — which is the single intermediate
representation the rest of the pipeline works on.

This module owns all upstream I/O, on ``http.client`` alone: every call on
every surface goes through its one connection pool and its ``TIMEOUT``, so
no caller passes either. The pool keeps idle keep-alive connections per
origin, shared by all threads: a call takes one, or opens one, and gives it
back only after reading the whole response. Sharing matters because the
HTTP server runs one thread per client connection; connections kept per
thread would be left open when those threads end. A pooled connection that
the endpoint closed while it sat idle fails before any response byte; the
call is then sent once more on a fresh connection. Redirects are not
followed, and bodies larger than ``MAX_RESPONSE_BYTES`` are refused.

Substitution into query templates is a raw text splice over the slots that
``config.SLOT_RE`` finds at load time: the parameter's shape pattern is the
only injection guard, which makes shape patterns a config-author
responsibility worth stating loudly.
"""

from __future__ import annotations

import http.client
import json
import urllib.parse
from dataclasses import dataclass, field
from typing import Mapping

from .config import SLOT_RE
from .errors import EndpointStatusError, EndpointUnreachableError, ResultParseError

RESULTS_JSON = "application/sparql-results+json"
TIMEOUT = 30.0  # seconds per upstream query, to connect and to answer alike
# 4.5 times the largest body the benchmark serves (7.1 MB, a 20k-row table).
# Parsing and writing that table peaked at 52 MB under tracemalloc, about 7
# times the body, so one call at the cap stays near 250 MB.
MAX_RESPONSE_BYTES = 32 << 20

# Idle keep-alive connections per origin (scheme, host, port). dict.setdefault,
# list.pop and list.append are each atomic, so threads share them without a lock.
_idle: dict[tuple[str, str, int | None], list[http.client.HTTPConnection]] = {}
# What a pooled connection that the endpoint has closed fails with.
_STALE = (http.client.RemoteDisconnected, BrokenPipeError, ConnectionResetError)

# A cell is plain text straight off the wire; list and record cells only
# appear later, produced by the json refinement or a table transform.
Cell = str | list | dict


@dataclass
class ResultTable:
    """Ordered tabular view of one SPARQL solution set."""

    header: tuple[str, ...]
    types: dict[str, str] = field(default_factory=dict)
    rows: list[dict[str, Cell]] = field(default_factory=list)

    def type_of(self, variable: str) -> str:
        return self.types.get(variable, "str")

    def replaced(self, rows: list[dict[str, Cell]]) -> "ResultTable":
        """Same header and types, different rows."""
        return ResultTable(self.header, self.types, rows)


def substitute(template: str, bindings: Mapping[str, str]) -> str:
    """Replace every ``[[name]]`` slot with its binding, in a single pass.

    Replacement text is inserted verbatim and never rescanned, so a binding
    containing ``[[`` cannot trigger re-expansion.
    """
    return SLOT_RE.sub(lambda m: bindings[m.group(1)], template)


def dispatch(endpoint: str, query: str, method: str = "get") -> tuple[int, str, str]:
    """Send one query to the endpoint; returns (status, media type, body)."""
    form = urllib.parse.urlencode({"query": query})
    headers = {"Accept": RESULTS_JSON}
    try:
        url = urllib.parse.urlsplit(endpoint)
        if url.scheme not in ("http", "https"):
            raise ValueError(f"unsupported scheme {url.scheme!r}")
        origin = (url.scheme, url.hostname, url.port)  # a None port means the default
        target = url.path or "/"
        if method == "post":
            target += f"?{url.query}" if url.query else ""
            headers["Content-Type"] = "application/x-www-form-urlencoded"
            status, media, payload = _exchange(origin, "POST", target, form.encode(), headers)
        else:
            target += f"?{url.query}&{form}" if url.query else f"?{form}"
            status, media, payload = _exchange(origin, "GET", target, None, headers)
    except (OSError, ValueError, http.client.HTTPException) as exc:
        raise EndpointUnreachableError(f"SPARQL endpoint unreachable: {exc}") from None
    if not 200 <= status < 300:
        raise EndpointStatusError(status, payload[:200].decode("utf-8", "replace"))
    try:
        body = payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ResultParseError(f"SPARQL results body is not UTF-8: {exc}") from None
    return status, media, body


def _exchange(origin, method, target, body, headers) -> tuple[int, str, bytes]:
    """One request and its whole response, on a pooled or a fresh connection."""
    idle = _idle.setdefault(origin, [])
    try:
        connection = idle.pop()
    except IndexError:
        response = None
    else:
        try:
            response = _send(connection, method, target, body, headers)
        except _STALE:
            response = None
    if response is None:
        scheme, host, port = origin
        opener = http.client.HTTPSConnection if scheme == "https" else http.client.HTTPConnection
        connection = opener(host, port, timeout=TIMEOUT)
        response = _send(connection, method, target, body, headers)
    try:
        size = response.length
        if size is None or size <= MAX_RESPONSE_BYTES:
            # Without a Content-Length (chunked or close-delimited), stop one byte past the cap.
            payload = response.read(MAX_RESPONSE_BYTES + 1 if size is None else None)
            size = len(payload)
        if size > MAX_RESPONSE_BYTES:
            raise ResultParseError(f"SPARQL results body exceeds {MAX_RESPONSE_BYTES} bytes")
    except BaseException:
        connection.close()
        raise
    if response.will_close or not response.isclosed():
        connection.close()
    else:
        idle.append(connection)
    return response.status, response.getheader("Content-Type", ""), payload


def _send(connection, method, target, body, headers) -> http.client.HTTPResponse:
    try:
        connection.request(method, target, body, headers)
        return connection.getresponse()
    except BaseException:
        connection.close()
        raise


def parse_results(
    body: str, field_types: Mapping[str, str] | None = None
) -> ResultTable:
    """Parse a SPARQL-results JSON document into a ResultTable.

    Header order is the endpoint-reported variable order; every solution
    becomes one row, with unbound variables as empty-text cells; solution
    order and count are preserved.
    """
    try:
        document = json.loads(body)
        variables = document["head"]["vars"]
        solutions = document["results"]["bindings"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ResultParseError(f"malformed SPARQL results document: {exc}") from None
    if not isinstance(variables, list) or not isinstance(solutions, list):
        raise ResultParseError("malformed SPARQL results document: bad head/results")

    header = tuple(str(v) for v in variables)
    rows: list[dict[str, Cell]] = []
    for solution in solutions:
        if not isinstance(solution, dict):
            raise ResultParseError("malformed SPARQL results document: bad binding")
        row: dict[str, Cell] = {}
        for variable in header:
            bound = solution.get(variable)
            if bound is None:
                row[variable] = ""
                continue
            try:
                value = bound["value"]
            except (KeyError, TypeError):
                raise ResultParseError(
                    f"malformed SPARQL results document: bad binding for {variable!r}"
                ) from None
            row[variable] = value if isinstance(value, str) else str(value)
        rows.append(row)

    declared = field_types or {}
    types = {variable: declared.get(variable, "str") for variable in header}
    return ResultTable(header=header, types=types, rows=rows)
