"""Shared test oracles, independent of the package under test.

Everything here recomputes expected behavior through a different code
path than the implementation: typed sort keys via string padding and
fromisoformat, durations via a hand-rolled scanner, HTML well-formedness
via html.parser. Acceptance tests report through the ACCEPTANCE registry
so the terminal summary shows one line per criterion. ``fetch`` is the
one HTTP client of the test suites, built on the standard library.
"""

from __future__ import annotations

import contextlib
import datetime
import http.client
import re
from html.parser import HTMLParser
from typing import NamedTuple

# ---------------------------------------------------------------------------
# Acceptance reporting
# ---------------------------------------------------------------------------

ACCEPTANCE: list[str] = []


@contextlib.contextmanager
def criterion(number: int, label: str):
    """Record one PASS/FAIL acceptance line; failures re-raise."""
    try:
        yield
    except BaseException:
        ACCEPTANCE.append(f"criterion {number} ({label}): FAIL")
        raise
    ACCEPTANCE.append(f"criterion {number} ({label}): PASS")


# ---------------------------------------------------------------------------
# HTTP client
# ---------------------------------------------------------------------------


class Reply(NamedTuple):
    status: int
    headers: http.client.HTTPMessage
    body: str


def fetch(
    url: str, method: str = "GET", headers: dict[str, str] | None = None, timeout: float = 10.0
) -> Reply:
    """One request to an ``http://host:port/...`` URL on its own connection.

    The target is sent exactly as written, percent-escapes included. The
    body is decoded as strict UTF-8, so a mis-encoded response fails instead
    of being guessed at. The connection is always closed; one that cannot
    be made, is cut, or stays silent for ``timeout`` seconds raises ``OSError``.
    """
    origin, _, target = url.removeprefix("http://").partition("/")
    connection = http.client.HTTPConnection(origin, timeout=timeout)
    try:
        connection.request(method, "/" + target, headers=headers or {})
        response = connection.getresponse()
        return Reply(response.status, response.headers, response.read().decode("utf-8"))
    finally:
        connection.close()


# ---------------------------------------------------------------------------
# Independent typed-comparison oracle
# ---------------------------------------------------------------------------

_DT_PREFIX = re.compile(
    r"[0-9]{4}(-[0-9]{2}(-[0-9]{2}(T[0-9]{2}(:[0-9]{2}(:[0-9]{2})?)?)?)?)?"
)
_DT_TEMPLATE = "0001-01-01T00:00:00"


def oracle_key(lexical: str, value_type: str):
    """Sort key for one lexical value: (0,) for empty/unparseable, else (1, v).

    Computed independently of the package: datetimes pad against a template
    string and go through fromisoformat; durations go through a character
    scanner. Tuples make empty-sorts-first fall out of tuple ordering.
    """
    if lexical == "":
        return (0,)
    try:
        if value_type == "int":
            if not re.fullmatch(r"[+-]?[0-9]+", lexical):
                raise ValueError(lexical)
            return (1, int(lexical))
        if value_type == "float":
            if "_" in lexical or re.search(r"[^0-9.eE+-]", lexical):
                raise ValueError(lexical)
            return (1, float(lexical))
        if value_type == "datetime":
            if not _DT_PREFIX.fullmatch(lexical):
                raise ValueError(lexical)
            return (1, datetime.datetime.fromisoformat(lexical + _DT_TEMPLATE[len(lexical):]))
        if value_type == "duration":
            return (1, oracle_duration_seconds(lexical))
    except ValueError:
        return (0,)
    return (1, lexical)


def oracle_duration_seconds(text: str) -> float:
    """Scan an ISO-8601 duration into seconds (365-day years, 30-day months)."""
    sign = 1.0
    body = text
    if body.startswith("-"):
        sign, body = -1.0, body[1:]
    if not body.startswith("P"):
        raise ValueError(text)
    date_part, t, time_part = body[1:].partition("T")
    if t and not time_part:
        raise ValueError(text)
    seconds_per = {
        "Y": 365 * 86400.0,
        "M": 30 * 86400.0,
        "W": 7 * 86400.0,
        "D": 86400.0,
        "h": 3600.0,
        "m": 60.0,
        "s": 1.0,
    }
    total = 0.0
    components = 0
    for part, order in ((date_part, "YMWD"), (time_part, "hms")):
        number = ""
        allowed = list(order)
        for ch in part:
            if ch.isdigit() or ch == ".":
                number += ch
                continue
            unit = ch.lower() if order == "hms" else ch
            if unit not in allowed or not number:
                raise ValueError(text)
            while allowed.pop(0) != unit:
                pass
            total += float(number) * seconds_per[unit]
            number = ""
            components += 1
        if number:
            raise ValueError(text)
    if not components:
        raise ValueError(text)
    return sign * total


def oracle_sorted(rows, field, value_type, descending=False):
    """Rows stably sorted by the oracle key on one text field."""
    return sorted(rows, key=lambda r: oracle_key(r[field], value_type), reverse=descending)


# ---------------------------------------------------------------------------
# HTML well-formedness oracle
# ---------------------------------------------------------------------------

_VOID_ELEMENTS = frozenset(
    {
        "area", "base", "br", "col", "embed", "hr", "img", "input",
        "link", "meta", "param", "source", "track", "wbr",
    }
)


class _TagBalanceChecker(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.stack: list[str] = []
        self.errors: list[str] = []
        self.counts = {"html": 0, "head": 0, "body": 0, "title": 0}

    def handle_starttag(self, tag, attrs):
        if tag in _VOID_ELEMENTS:
            return
        self.stack.append(tag)
        if tag in self.counts:
            self.counts[tag] += 1

    def handle_endtag(self, tag):
        if tag in _VOID_ELEMENTS:
            return
        if not self.stack:
            self.errors.append(f"</{tag}> with nothing open")
        elif self.stack[-1] != tag:
            self.errors.append(f"</{tag}> closes <{self.stack[-1]}>")
        else:
            self.stack.pop()


def assert_valid_html(text: str) -> None:
    """Structural HTML5 check: doctype, balanced tags, one html/head/body."""
    assert text.startswith("<!DOCTYPE html>"), "missing HTML5 doctype"
    checker = _TagBalanceChecker()
    checker.feed(text)
    checker.close()
    assert not checker.errors, checker.errors
    assert not checker.stack, f"unclosed tags: {checker.stack}"
    for tag in ("html", "head", "body", "title"):
        assert checker.counts[tag] == 1, f"expected exactly one <{tag}>"
