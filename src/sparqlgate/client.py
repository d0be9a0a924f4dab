"""SPARQL 1.1 protocol client and results parser.

One canonical wire path: the query travels as the ``query`` parameter (GET)
or form field (POST), and the response body is always read as UTF-8
SPARQL-results JSON, whatever media type or charset the endpoint reports.
The parsed form is a ResultTable — ordered header, per-variable value
types, and ordered rows of cells — which is the single intermediate
representation the rest of the pipeline works on.

This module owns all upstream I/O: every call on every surface goes
through its one pooled ``requests`` session and its ``TIMEOUT``, so no
caller passes either.

Substitution into query templates is a raw text splice over the slots that
``config.SLOT_RE`` finds at load time: the parameter's shape pattern is the
only injection guard, which makes shape patterns a config-author
responsibility worth stating loudly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

import requests

from .config import SLOT_RE
from .errors import EndpointStatusError, EndpointUnreachableError, ResultParseError

RESULTS_JSON = "application/sparql-results+json"
TIMEOUT = 30.0  # seconds per upstream query, to connect and to answer alike
_session = requests.Session()

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
    headers = {"Accept": RESULTS_JSON}
    try:
        if method == "post":
            response = _session.post(
                endpoint, data={"query": query}, headers=headers, timeout=TIMEOUT
            )
        else:
            response = _session.get(
                endpoint, params={"query": query}, headers=headers, timeout=TIMEOUT
            )
    except requests.RequestException as exc:
        raise EndpointUnreachableError(f"SPARQL endpoint unreachable: {exc}") from None
    if not 200 <= response.status_code < 300:
        raise EndpointStatusError(
            response.status_code, response.content[:200].decode("utf-8", "replace")
        )
    try:
        body = response.content.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ResultParseError(f"SPARQL results body is not UTF-8: {exc}") from None
    return response.status_code, response.headers.get("Content-Type", ""), body


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
