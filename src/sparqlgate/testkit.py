"""Hermetic test support: a mock SPARQL endpoint and a reference fixture.

The mock endpoint speaks just enough of the SPARQL protocol for the
gateway — query via GET parameter or POSTed form — and answers from an
ordered rule list (first match wins, unmatched queries get a 400
diagnostic). Its handler is a ``server.BaseHandler``, so it frames request
bodies exactly as the gateway does. The fixture builds a three-operation
configuration over a small citation graph whose first operation returns a
fixed 2x2 table, so golden outputs are stable down to the byte.
"""

from __future__ import annotations

import json
import os
import re
import threading
import urllib.parse
from dataclasses import dataclass
from typing import Mapping, Sequence

from .client import RESULTS_JSON as RESULTS_MEDIA_TYPE
from .server import BackgroundServer, BaseHandler


@dataclass(frozen=True)
class MockRule:
    """Canned response for queries matching exact text or a regex."""

    match: str | re.Pattern
    body: str
    status: int = 200


def results_json(
    variables: Sequence[str], rows: Sequence[Mapping[str, str | None]]
) -> str:
    """Build a SPARQL-results JSON document; a None value means unbound."""
    bindings = []
    for row in rows:
        solution = {}
        for variable in variables:
            value = row.get(variable)
            if value is not None:
                solution[variable] = {"type": "literal", "value": value}
        bindings.append(solution)
    return json.dumps(
        {"head": {"vars": list(variables)}, "results": {"bindings": bindings}}
    )


class _MockHandler(BaseHandler):
    def _handle(self, method: str, body: bytes) -> None:
        _, _, url_form = self.path.partition("?")
        form = url_form if method == "get" else body.decode("utf-8", "replace")
        params = dict(urllib.parse.parse_qsl(form, keep_blank_values=True))
        self._respond(params.get("query", ""))

    def _respond(self, query: str) -> None:
        endpoint: MockSparqlEndpoint = self.server  # type: ignore[assignment]
        endpoint.record(query)
        for rule in endpoint.rules:
            if _rule_matches(rule.match, query):
                media = RESULTS_MEDIA_TYPE if rule.status < 300 else "application/json"
                self._send(rule.status, rule.body, media)
                return
        diagnostic = json.dumps({"error": "no rule matches the query", "query": query})
        self._send(400, diagnostic, "application/json")


def _rule_matches(matcher: str | re.Pattern, query: str) -> bool:
    if isinstance(matcher, str):
        return matcher == query
    return matcher.search(query) is not None


class MockSparqlEndpoint(BackgroundServer):
    """Loopback SPARQL endpoint answering from canned rules."""

    def __init__(self, rules: Sequence[MockRule], host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _MockHandler)
        self.rules = list(rules)
        self._received: list[str] = []
        self._lock = threading.Lock()

    @property
    def url(self) -> str:
        return super().url + "/sparql"

    @property
    def received(self) -> list[str]:
        """Queries received so far, in arrival order."""
        with self._lock:
            return list(self._received)

    def record(self, query: str) -> None:
        with self._lock:
            self._received.append(query)


def start_mock(rules: Sequence[MockRule]) -> MockSparqlEndpoint:
    """Bind a mock endpoint on an ephemeral loopback port and start it."""
    return MockSparqlEndpoint(rules).start()


# ---------------------------------------------------------------------------
# Reference fixture: a small citation graph behind three operations
# ---------------------------------------------------------------------------

FIXTURE_DOI = "10.1108/jd-12-2013-0166"

# /citations/{doi}: the fixed 2x2 table used by the golden tests.
CITATION_ROWS = (
    {"citing": "10.3233/ds-190019", "cited": FIXTURE_DOI},
    {"citing": "10.3233/sw-160224", "cited": FIXTURE_DOI},
)

# /citation-info/{doi}: adds a creation date column, one row unbound.
INFO_ROWS = (
    {"citing": "10.3233/ds-190019", "cited": FIXTURE_DOI, "creation": "2016-06-01"},
    {"citing": "10.3233/sw-160224", "cited": FIXTURE_DOI, "creation": "2016-05-01"},
    {"citing": "10.1016/j.websem.2012.08.001", "cited": FIXTURE_DOI, "creation": "2016-04-30"},
    {"citing": "10.1093/nar/gkw1328", "cited": FIXTURE_DOI, "creation": None},
)

# /stats/{prefix}: one column per declared value type.
STATS_ROWS = (
    {"work": "10.3233/ds-190019", "n": "9", "score": "0.5", "span": "P2Y"},
    {"work": "10.3233/sw-160224", "n": "10", "score": "-1.25", "span": "P100D"},
    {"work": "10.3233/ds-190130", "n": "2", "score": "3e2", "span": "PT36H"},
)

_FIXTURE_CONFIG = r"""#url /api/v1
#type api
#title Citation Gateway
#description REST access to a small citation graph. Append `format=csv` to any
call for spreadsheet-friendly output.
#version 1.0.0
#license CC0
#contacts api@example.org
#base https://example.org/gateway
#method get post
#endpoint __ENDPOINT__

#url /citations/{doi}
#type operation
#doi str(10\..+)
#method get
#preprocess lower(doi)
#description All works citing the given DOI.
#call /citations/10.1108/jd-12-2013-0166
#field_type str(citing) str(cited) datetime(creation)
#output_json [{"citing": "10.3233/ds-190019", "cited": "10.1108/jd-12-2013-0166"}, {"citing": "10.3233/sw-160224", "cited": "10.1108/jd-12-2013-0166"}]
#sparql PREFIX cito: <http://purl.org/spar/cito/>
SELECT ?citing ?cited WHERE {
  ?c cito:hasCitingEntity ?citing .
  ?c cito:hasCitedEntity ?cited .
  ?c cito:hasCitedEntity <https://doi.org/[[doi]]> .
}

#url /citation-info/{doi}
#type operation
#doi str(10\..+)
#method get
#preprocess lower(doi)
#description Citing works with the creation date of each citation.
#call /citation-info/10.1108/jd-12-2013-0166
#field_type str(citing) str(cited) datetime(creation)
#sparql PREFIX cito: <http://purl.org/spar/cito/>
SELECT ?citing ?cited ?creation WHERE {
  ?c cito:hasCitingEntity ?citing .
  ?c cito:hasCitedEntity ?cited .
  ?c cito:hasCitedEntity <https://doi.org/[[doi]]> .
  OPTIONAL { ?c cito:hasCitationCreationDate ?creation . }
}

#url /stats/{prefix}
#type operation
#prefix str(10\..+)
#method post
#description Per-work citation statistics for works under a DOI prefix.
#call /stats/10.3233
#field_type str(work) int(n) float(score) duration(span)
#sparql PREFIX cito: <http://purl.org/spar/cito/>
SELECT ?work ?n ?score ?span WHERE {
  ?work cito:inPrefix "[[prefix]]" .
  ?work cito:citationCount ?n .
  ?work cito:citationScore ?score .
  ?work cito:citationSpan ?span .
}
"""


def fixture_citations(
    endpoint_url: str = "http://127.0.0.1:1/sparql",
) -> tuple[str, list[MockRule]]:
    """The reference configuration plus the rules its queries expect.

    Rules are endpoint-independent: build them first, start the mock, then
    call again with the mock's URL to get the final configuration text.
    """
    config = _FIXTURE_CONFIG.replace("__ENDPOINT__", endpoint_url)
    rules = [
        MockRule(
            re.compile(r"SELECT \?citing \?cited \?creation"),
            results_json(("citing", "cited", "creation"), INFO_ROWS),
        ),
        MockRule(
            re.compile(r"SELECT \?work \?n \?score \?span"),
            results_json(("work", "n", "score", "span"), STATS_ROWS),
        ),
        MockRule(
            re.compile(r"SELECT \?citing \?cited WHERE"),
            results_json(("citing", "cited"), CITATION_ROWS),
        ),
    ]
    return config, rules


def fixture_file(directory, endpoint_url: str, filename: str = "citations.hf") -> str:
    """Write the fixture configuration into a directory; returns the path."""
    path = os.path.join(str(directory), filename)
    config, _ = fixture_citations(endpoint_url)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(config)
    return path
