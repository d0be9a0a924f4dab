"""SPARQL 1.1 protocol client and results parser.

One canonical wire path: the query travels as the ``query`` parameter (GET)
or form field (POST), and the response body is always read as UTF-8,
whatever charset the endpoint reports. The client asks for SPARQL 1.1
results CSV (W3C Recommendation "SPARQL 1.1 Query Results CSV and TSV
Formats") first and SPARQL-results JSON second (``ACCEPT``), and the
media type of the answer picks the parser: a ``text/csv`` body is read with
``csv.reader``, and any other body as results JSON, so an endpoint that
ignores ``Accept`` still works. The parsed form is a ResultTable — ordered
header, per-variable value types, and one ordered column of cells per
variable — which is the single intermediate representation the rest of the
pipeline works on. Row dicts are built only when a transform reads
``table.rows``.

Both formats give each binding's lexical value and nothing else. An unbound
variable and an empty literal both read as ``""``. A blank node reads
``_:label`` from CSV, which writes it so, and ``label`` from JSON.

This module owns all upstream I/O, on ``http.client`` alone: every call on
every surface goes through its one connection pool and its ``TIMEOUT``, so
no caller passes either. The pool keeps idle keep-alive connections per
origin, shared by all threads: a call takes one, or opens one, and gives it
back only after reading the whole response. Sharing matters because the
HTTP server runs one thread per client connection; connections kept per
thread would be left open when those threads end. The idle ones are closed
at interpreter exit. A pooled connection that the endpoint closed while it
sat idle fails before any response byte; the call is then sent once more on
a fresh connection. Redirects are not followed, and bodies larger than
``MAX_RESPONSE_BYTES`` are refused, or than ``MAX_CSV_RESPONSE_BYTES`` for a
``text/csv`` body, which holds more rows in a byte.

``csv.field_size_limit`` is process-wide. Importing this module raises it
to at least ``MAX_RESPONSE_BYTES`` and never lowers it, so that any field
of a body the client accepts can be read.

Substitution into query templates is a raw text splice over the slots that
``config.SLOT_RE`` finds at load time: the parameter's shape pattern is the
only injection guard, which makes shape patterns a config-author
responsibility worth stating loudly.
"""

from __future__ import annotations

import atexit
import csv
import http.client
import io
import json
import urllib.parse
from collections.abc import Iterator, Sequence
from itertools import islice, repeat
from operator import itemgetter
from typing import Mapping

from .config import SLOT_RE
from .errors import EndpointStatusError, EndpointUnreachableError, ResultParseError

RESULTS_JSON = "application/sparql-results+json"
RESULTS_CSV = "text/csv"
# What dispatch asks for: CSV, the lighter format to parse, else JSON.
ACCEPT = f"{RESULTS_CSV}, {RESULTS_JSON};q=0.9"
# Seconds for the connect and for each socket read, not for a whole call: an
# endpoint that trickles its answer holds a call longer (ROADMAP.md, item 3).
TIMEOUT = 30.0
# Memory follows rows, not bytes, and each cap keeps one call near or under
# 100 MB. Decoding a body, parsing it, dropping the text and writing the call's
# JSON output peaks under tracemalloc at 7.8 times a JSON body, while parsing
# (json.loads holds the whole document beside the text), and 11.8 times a CSV
# one, which carries about 5 times the rows in a byte; there parsing and writing
# peak alike, writing at the table plus twice its output. Measured on 40k of the
# benchmark's 7-column rows: 110 MB from the 14.1 MB JSON body, 33 MB from the
# 2.8 MB CSV one. At the caps, 35.6k such rows of JSON peak at 98 MB and 96k
# rows of CSV at 79 MB.
MAX_RESPONSE_BYTES = 12 << 20
MAX_CSV_RESPONSE_BYTES = 6_710_886
# A field is never longer than its body: lift csv's default cap of 131072.
csv.field_size_limit(max(csv.field_size_limit(), MAX_RESPONSE_BYTES))
# Records transposed at a time, from either format: all the record lists of a
# large body held at once would make the cyclic GC rescan them.
_CHUNK = 1024

# Idle keep-alive connections per origin (scheme, host, port). dict.setdefault,
# list.pop and list.append are each atomic, so threads share them without a lock.
_idle: dict[tuple[str, str, int | None], list[http.client.HTTPConnection]] = {}


@atexit.register
def _close_idle() -> None:
    """Close every idle pooled connection, so none is left to the collector."""
    for idle in _idle.values():
        while idle:
            idle.pop().close()


# What a pooled connection that the endpoint has closed fails with.
_STALE = (http.client.RemoteDisconnected, BrokenPipeError, ConnectionResetError)

# A cell is plain text straight off the wire; list and record cells only
# appear later, produced by the json refinement or a table transform.
Cell = str | list | dict


class ResultTable:
    """One SPARQL solution set, held a column at a time.

    ``columns`` maps each distinct header name, in header order, to its list
    of cells, and ``length`` is the row count, which a table without columns
    has too. Parsing and refinement build tables with ``from_columns``;
    ``ResultTable(header, types, rows)`` and ``replaced(rows)`` build one from
    row dicts, for transforms and tests, reading each header name of every
    row and nothing else. ``rows`` is a read-only view of the rows.
    """

    __slots__ = ("header", "types", "columns", "length")

    def __init__(self, header: tuple[str, ...], types: dict[str, str] | None = None,
                 rows: Sequence[Mapping[str, Cell]] = ()) -> None:
        rows = list(rows)
        columns = {name: list(map(itemgetter(name), rows)) for name in dict.fromkeys(header)}
        self.header, self.types = header, {} if types is None else types
        self.columns, self.length = columns, len(rows)

    @classmethod
    def from_columns(
        cls, header: tuple[str, ...], types: dict[str, str], columns: dict[str, list], length: int
    ) -> "ResultTable":
        table = cls.__new__(cls)
        table.header, table.types, table.columns, table.length = header, types, columns, length
        return table

    @property
    def rows(self) -> "RowView":
        return RowView(self)

    def type_of(self, variable: str) -> str:
        return self.types.get(variable, "str")

    def replaced(self, rows: Sequence[Mapping[str, Cell]]) -> "ResultTable":
        """Same header and types, different rows."""
        return ResultTable(self.header, self.types, rows)


class RowView(Sequence):
    """The rows of a table, read-only: each row read is a fresh dict, so
    editing one leaves the table as it was, and ``len`` builds none."""

    __slots__ = ("_table",)

    def __init__(self, table: ResultTable) -> None:
        self._table = table

    def __len__(self) -> int:
        return self._table.length

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(self._table.length)[index]]
        index = range(self._table.length)[index]  # a negative index counts from the end
        return {name: column[index] for name, column in self._table.columns.items()}

    def __eq__(self, other: object) -> bool:
        return list(self) == other  # another view answers through its own __eq__

    def __repr__(self) -> str:
        return repr(list(self))


def substitute(template: str, bindings: Mapping[str, str]) -> str:
    """Replace every ``[[name]]`` slot with its binding, in a single pass.

    Replacement text is inserted verbatim and never rescanned, so a binding
    containing ``[[`` cannot trigger re-expansion.
    """
    return SLOT_RE.sub(lambda m: bindings[m.group(1)], template)


def dispatch(endpoint: str, query: str, method: str = "get") -> tuple[int, str, str]:
    """Send one query to the endpoint; returns (status, media type, body)."""
    form = urllib.parse.urlencode({"query": query})
    headers = {"Accept": ACCEPT}
    try:
        url = urllib.parse.urlsplit(endpoint)  # an http(s) URL, checked at load time
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
    media = response.getheader("Content-Type", "")
    cap = MAX_CSV_RESPONSE_BYTES if _is_csv(media) else MAX_RESPONSE_BYTES
    try:
        size = response.length
        if size is None or size <= cap:
            # Without a Content-Length (chunked or close-delimited), stop one byte past the cap.
            payload = response.read(cap + 1 if size is None else None)
            size = len(payload)
        if size > cap:
            raise ResultParseError(f"SPARQL results body exceeds {cap} bytes")
    except BaseException:
        connection.close()
        raise
    if response.will_close or not response.isclosed():
        connection.close()
    else:
        idle.append(connection)
    return response.status, media, payload


def _send(connection, method, target, body, headers) -> http.client.HTTPResponse:
    try:
        connection.request(method, target, body, headers)
        return connection.getresponse()
    except BaseException:
        connection.close()
        raise


def parse_results(
    body: str,
    media_type: str = RESULTS_JSON,
    field_types: Mapping[str, str] | None = None,
) -> ResultTable:
    """Parse a SPARQL results body of the given media type into a ResultTable.

    A ``text/csv`` body (parameters and case ignored) is SPARQL 1.1 results
    CSV; any other is SPARQL-results JSON. Header order is the
    endpoint-reported variable order; every solution becomes one row, with
    unbound variables as empty-text cells; solution order and count are
    preserved. A body the format's reader or the checks here reject is a
    ResultParseError.
    """
    if _is_csv(media_type):
        header, columns, length = _csv_columns(body)
    else:
        header, columns, length = _json_columns(body)
    # dict(zip(header, cells)): a repeated variable keeps its first place and its last column.
    declared = field_types or {}
    types = {variable: declared.get(variable, "str") for variable in header}
    return ResultTable.from_columns(header, types, columns, length)


def _is_csv(media_type: str) -> bool:
    """Whether a media type is ``text/csv``, parameters and case ignored."""
    return media_type.partition(";")[0].strip().lower() == RESULTS_CSV


def _csv_columns(body: str) -> tuple[tuple[str, ...], dict[str, list], int]:
    """The header, columns and row count of a results CSV body, read by ``csv.reader``."""
    if not body:
        raise ResultParseError("malformed SPARQL results document: empty CSV body")
    records = csv.reader(io.StringIO(body, newline=""), strict=True)
    try:
        header = tuple(next(records))  # a body that is not empty has a first line
        return _columns(header, records)
    except csv.Error as exc:
        raise ResultParseError(
            f"malformed SPARQL results document: CSV line {records.line_num}: {exc}"
        ) from None


def _json_columns(body: str) -> tuple[tuple[str, ...], dict[str, list], int]:
    """The header, columns and row count of a results JSON document, read by ``json.loads``."""
    try:
        document = json.loads(body)
        variables = document["head"]["vars"]
        solutions = document["results"]["bindings"]
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise ResultParseError(f"malformed SPARQL results document: {exc}") from None
    if not isinstance(variables, list) or not isinstance(solutions, list):
        raise ResultParseError("malformed SPARQL results document: bad head/results")
    header = tuple(str(v) for v in variables)
    return _columns(header, map(_row, solutions, repeat(header)))


def _columns(
    header: tuple[str, ...], records: Iterator[list[str]]
) -> tuple[tuple[str, ...], dict[str, list], int]:
    """The header, columns and row count of ``records``, ``_CHUNK`` at a time. Every
    record has one field per variable, but an empty CSV line under a one-variable
    header is one unbound (or empty) cell, as the CSV Recommendation writes that row."""
    cells: list[list[str]] = [[] for _ in header]
    length = 0
    while chunk := list(islice(records, _CHUNK)):
        if set(map(len, chunk)) != {len(header)}:
            chunk = _mended(chunk, len(header), length)
        for column, part in zip(cells, zip(*chunk)):
            column.extend(part)
        length += len(chunk)
    return header, dict(zip(header, cells)), length


def _mended(chunk: list[list[str]], width: int, start: int) -> list[list[str]]:
    """A chunk that breaks ``_columns``' width rule, mended, or the error at
    its first bad record, counted from the top of the body."""
    for number, fields in enumerate(chunk, start + 1):
        if len(fields) != width and (fields or width != 1):
            raise ResultParseError(
                f"malformed SPARQL results document: CSV row {number} has "
                f"{len(fields)} fields, the header {width}"
            )
    return [fields or [""] for fields in chunk]  # only a one-variable header gets here


def _row(solution: object, header: tuple[str, ...]) -> list[str]:
    if not isinstance(solution, dict):
        raise ResultParseError("malformed SPARQL results document: bad binding")
    row: list[str] = []
    for variable in header:
        bound = solution.get(variable)
        if bound is None:
            row.append("")
            continue
        try:
            value = bound["value"]
        except (KeyError, TypeError):
            raise ResultParseError(
                f"malformed SPARQL results document: bad binding for {variable!r}"
            ) from None
        row.append(value if isinstance(value, str) else str(value))
    return row
