"""Output oracle: the response each call must get, derived from the generated rows.

The oracle never looks at an earlier answer of the program. It applies the
README semantics of the refinements to the generated table with its own
code: require, then filter, then sort, then json; the typed key puts empty
or unparseable cells first, counts months as 30 days and years as 365 days,
and pads datetime prefixes to their earliest instant. Designed failures are
checked by status and the uniform error body.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
import re

from workloads import API_TITLE, Call, Table

_INT = re.compile(r"[+-]?[0-9]+")
_FLOAT = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_DATETIME = re.compile(
    r"([0-9]{4})(?:-([0-9]{2})(?:-([0-9]{2})(?:T([0-9]{2})(?::([0-9]{2})(?::([0-9]{2}))?)?)?)?)?"
)
_DURATION = re.compile(
    r"(-)?P(?:([0-9]+)Y)?(?:([0-9]+)M)?(?:([0-9]+)W)?(?:([0-9]+)D)?"
    r"(?:T(?:([0-9]+)H)?(?:([0-9]+)M)?(?:([0-9]+)S)?)?"
)
_DURATION_SECONDS = (365 * 86400, 30 * 86400, 7 * 86400, 86400, 3600, 60, 1)
_SORT = re.compile(r"(asc|desc)\((\w+)\)")
_JSON = re.compile(r'(array|dict)\("([^"]*)",(.*)\)')


def _parse(text: str, value_type: str):
    """The comparable value of ``text``; raises ValueError when it does not parse."""
    if value_type == "str":
        return text
    if value_type == "int":
        if not _INT.fullmatch(text):
            raise ValueError(text)
        return int(text)
    if value_type == "float":
        if not _FLOAT.fullmatch(text):
            raise ValueError(text)
        return float(text)
    if value_type == "datetime":
        m = _DATETIME.fullmatch(text)
        if not m:
            raise ValueError(text)
        parts = [int(g) if g else d for g, d in zip(m.groups(), (0, 1, 1, 0, 0, 0))]
        return dt.datetime(*parts)
    if value_type == "duration":
        m = _DURATION.fullmatch(text)
        if not m or not any(m.groups()[1:]):
            raise ValueError(text)
        seconds = sum(int(g) * s for g, s in zip(m.groups()[1:], _DURATION_SECONDS) if g)
        return -seconds if m.group(1) else seconds
    raise ValueError(value_type)


def typed_key(text: str, value_type: str) -> tuple:
    """Sort key: empty or unparseable cells first, then the parsed value."""
    if text == "":
        return (0,)
    try:
        return (1, _parse(text, value_type))
    except ValueError:
        return (0,)


def expected_result(table: Table, query) -> tuple[str, tuple[str, ...], list[dict]]:
    """(format, header, rows) the gateway must return for ``query`` over ``table``."""
    rows = [{v: ("" if r[v] is None else r[v]) for v in table.header} for r in table.rows]
    params = list(query)
    fmt = "json"
    for key, value in params:
        if key == "format":
            fmt = value
    for key, value in params:
        if key == "require" and value in table.header:
            rows = [r for r in rows if r[value] != ""]
    for key, value in params:
        if key == "filter":
            rows = _filter(rows, table, value)
    for key, value in params:
        if key == "sort":
            order, column = _SORT.fullmatch(value).groups()
            value_type = table.types.get(column, "str")
            rows = sorted(
                rows, key=lambda r: typed_key(r[column], value_type), reverse=order == "desc"
            )
    for key, value in params:
        if key == "json":
            op, sep, fields = _JSON.fullmatch(value).groups()
            names = [f.strip() for f in fields.split(",")]
            column = names[0]
            if op == "array":
                rows = [{**r, column: r[column].split(sep)} for r in rows]
            else:
                keys = names[1:]
                rows = [{**r, column: _record(r[column], sep, keys)} for r in rows]
    return fmt, table.header, rows


def _record(text: str, sep: str, keys: list[str]) -> dict:
    pieces = text.split(sep, len(keys) - 1)
    pieces += [""] * (len(keys) - len(pieces))
    return dict(zip(keys, pieces))


def _filter(rows: list[dict], table: Table, expression: str) -> list[dict]:
    column, rest = expression.split(":", 1)
    if rest[:1] in ("=", "<", ">"):
        value_type = table.types.get(column, "str")
        wanted = typed_key(rest[1:], value_type)
        test = {
            "=": lambda k: k == wanted,
            "<": lambda k: k < wanted,
            ">": lambda k: k > wanted,
        }[rest[0]]
        return [r for r in rows if test(typed_key(r[column], value_type))]
    pattern = re.compile(rest)
    return [r for r in rows if pattern.search(r[column])]


def check(call: Call, status: int, content_type: str, body: bytes) -> str | None:
    """None when the response is what ``call`` must get, else the reason it is not."""
    if status != call.status:
        return f"status {status}, expected {call.status}"
    media = content_type.split(";", 1)[0].strip()
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError:
        return "body is not UTF-8"
    if call.status != 200:
        return _check_error(call, media, text)
    if call.page is not None:
        return _check_page(call, media, text)
    fmt, header, rows = expected_result(call.op.table, call.query)
    if fmt == "csv":
        return _check_csv(media, text, header, rows)
    return _check_json(media, text, header, rows)


def _check_error(call: Call, media: str, text: str) -> str | None:
    if media != "application/json":
        return f"error media type {media!r}"
    try:
        payload = json.loads(text)
    except ValueError:
        return "error body is not JSON"
    if not isinstance(payload, dict) or payload.get("status") != call.status or not payload.get("error"):
        return "error body lacks the uniform error fields"
    return None


def _check_page(call: Call, media: str, text: str) -> str | None:
    if media != "text/html":
        return f"page media type {media!r}"
    heading = "<h1>API dashboard</h1>" if call.page == "dashboard" else f"<h1>{API_TITLE}</h1>"
    if heading not in text or not text.rstrip().endswith("</html>"):
        return f"{call.page} page lacks {heading!r} or is cut short"
    return None


def _check_json(media: str, text: str, header, rows: list[dict]) -> str | None:
    if media != "application/json":
        return f"media type {media!r}, expected application/json"
    try:
        got = json.loads(text)
    except ValueError:
        return "body is not JSON"
    if not isinstance(got, list):
        return "body is not a JSON array"
    if len(got) != len(rows):
        return f"{len(got)} rows, expected {len(rows)}"
    for index, (have, want) in enumerate(zip(got, rows)):
        if not isinstance(have, dict) or list(have) != list(header):
            return f"row {index} keys are not the header in order"
        if have != want:
            return f"row {index} differs: {have!r} != {want!r}"
    return None


def _check_csv(media: str, text: str, header, rows: list[dict]) -> str | None:
    if media != "text/csv":
        return f"media type {media!r}, expected text/csv"
    records = list(csv.reader(io.StringIO(text, newline="")))
    if not records or tuple(records[0]) != tuple(header):
        return "csv header differs"
    if len(records) - 1 != len(rows):
        return f"{len(records) - 1} rows, expected {len(rows)}"
    for index, (have, want) in enumerate(zip(records[1:], rows)):
        if have != [want[v] for v in header]:
            return f"csv row {index} differs: {have!r}"
    return None
