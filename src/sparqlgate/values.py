"""Typed value semantics for the five declarable field types.

Fields and parameters carry one of five types: str, int, float, duration,
datetime. Values always travel as text; this module defines how that text
parses and compares under each type. Comparison rules:

* int/float parse as decimal numbers;
* datetime accepts a prefix form YYYY[-MM[-DD[THH[:MM[:SS]]]]] padded to
  the earliest instant it could denote (so "2016-05" compares as
  2016-05-01T00:00:00);
* duration is an ISO-8601 duration normalized to seconds, with months
  counted as 30 days and years as 365 days;
* str compares lexicographically;
* the empty text, and text that does not parse under the type, compares
  less than any parsed value, for every type.

``sort_key`` is the one ordering: it maps a value to a tuple key, parsing
the text once, and ``compare`` is the three-way reading of two such keys.
"""

from __future__ import annotations

import datetime as _dt
import re

VALUE_TYPES = ("str", "int", "float", "duration", "datetime")

_INT_RE = re.compile(r"^[+-]?\d+\Z")
_FLOAT_RE = re.compile(r"^[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\Z")
_DATETIME_RE = re.compile(
    r"^(\d{4})(?:-(\d{2})(?:-(\d{2})(?:T(\d{2})(?::(\d{2})(?::(\d{2}))?)?)?)?)?\Z"
)
_DURATION_RE = re.compile(
    r"^(-)?P"
    r"(?:(\d+(?:\.\d+)?)Y)?"
    r"(?:(\d+(?:\.\d+)?)M)?"
    r"(?:(\d+(?:\.\d+)?)W)?"
    r"(?:(\d+(?:\.\d+)?)D)?"
    r"(?:T"
    r"(?:(\d+(?:\.\d+)?)H)?"
    r"(?:(\d+(?:\.\d+)?)M)?"
    r"(?:(\d+(?:\.\d+)?)S)?"
    r")?\Z"
)

_SECONDS = {
    "year": 365 * 86400.0,
    "month": 30 * 86400.0,
    "week": 7 * 86400.0,
    "day": 86400.0,
    "hour": 3600.0,
    "minute": 60.0,
    "second": 1.0,
}


def parse_typed(lexical: str, value_type: str):
    """Parse ``lexical`` under ``value_type`` into a comparable value.

    Raises ValueError when the text does not belong to the type.
    """
    if value_type == "str":
        return lexical
    if value_type == "int":
        if not _INT_RE.match(lexical):
            raise ValueError(f"not an integer: {lexical!r}")
        return int(lexical)
    if value_type == "float":
        if not _FLOAT_RE.match(lexical):
            raise ValueError(f"not a float: {lexical!r}")
        return float(lexical)
    if value_type == "datetime":
        return _parse_datetime(lexical)
    if value_type == "duration":
        return _parse_duration(lexical)
    raise ValueError(f"unknown value type: {value_type!r}")


def _parse_datetime(lexical: str) -> _dt.datetime:
    m = _DATETIME_RE.match(lexical)
    if not m:
        raise ValueError(f"not a datetime prefix: {lexical!r}")
    year, month, day, hour, minute, second = (
        int(g) if g is not None else None for g in m.groups()
    )
    # Missing components pad to the earliest instant of the stated prefix.
    return _dt.datetime(
        year,
        month if month is not None else 1,
        day if day is not None else 1,
        hour if hour is not None else 0,
        minute if minute is not None else 0,
        second if second is not None else 0,
    )


def _parse_duration(lexical: str) -> float:
    m = _DURATION_RE.match(lexical)
    if not m:
        raise ValueError(f"not an ISO-8601 duration: {lexical!r}")
    sign, years, months, weeks, days, hours, minutes, seconds = m.groups()
    parts = (years, months, weeks, days, hours, minutes, seconds)
    if all(p is None for p in parts):
        raise ValueError(f"duration has no components: {lexical!r}")
    names = ("year", "month", "week", "day", "hour", "minute", "second")
    total = sum(float(p) * _SECONDS[n] for p, n in zip(parts, names) if p is not None)
    return -total if sign else total


def is_valid(lexical: str, value_type: str) -> bool:
    """True when ``lexical`` parses under ``value_type``."""
    try:
        parse_typed(lexical, value_type)
    except ValueError:
        return False
    return True


def sort_key(lexical: str, value_type: str) -> tuple:
    """Typed order key: ``(0,)`` for empty or unparseable text, else ``(1, value)``."""
    if lexical == "":
        return (0,)
    try:
        return (1, parse_typed(lexical, value_type))
    except ValueError:
        return (0,)


def compare(a: str, b: str, value_type: str) -> int:
    """Three-way comparison of two lexical values under one type: -1, 0 or 1."""
    ka, kb = sort_key(a, value_type), sort_key(b, value_type)
    return (ka > kb) - (ka < kb)
