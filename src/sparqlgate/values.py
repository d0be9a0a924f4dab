"""Typed value semantics for the five declarable field types.

Fields and parameters carry one of five types: str, int, float, duration,
datetime. Values always travel as text; this module defines how that text
parses and compares under each type; digits are ASCII ``[0-9]`` as in SPARQL,
since the text may reach a query. Comparison rules:

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

_NUMBER = r"([0-9]+(?:\.[0-9]+)?)"
_TWO = r"([0-9]{2})"
# Seconds per duration component, in the grammar's order: Y M W D, then T H M S.
_DURATION_SECONDS = (365 * 86400.0, 30 * 86400.0, 7 * 86400.0, 86400.0, 3600.0, 60.0, 1.0)


def _datetime(year, month, day, hour, minute, sec) -> _dt.datetime:
    # Missing components pad to the earliest instant of the stated prefix.
    return _dt.datetime(
        int(year), int(month or 1), int(day or 1), int(hour or 0), int(minute or 0), int(sec or 0)
    )


def _duration(sign, *parts) -> float:
    total = sum(float(p) * s for p, s in zip(parts, _DURATION_SECONDS) if p is not None)
    return -total if sign else total


# Each typed kind: one full-match grammar, and a conversion that takes its groups.
_GRAMMARS = {
    "int": (re.compile(r"([+-]?[0-9]+)"), int),
    "float": (re.compile(r"([+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"), float),
    # The lookaheads ask for one component at least, and for one after a "T":
    # "P", "PT" and "P1DT" fail.
    "duration": (
        re.compile(
            rf"(-)?P(?=[0-9]|T[0-9])(?:{_NUMBER}Y)?(?:{_NUMBER}M)?(?:{_NUMBER}W)?(?:{_NUMBER}D)?"
            rf"(?:T(?=[0-9])(?:{_NUMBER}H)?(?:{_NUMBER}M)?(?:{_NUMBER}S)?)?"
        ),
        _duration,
    ),
    "datetime": (
        re.compile(rf"([0-9]{{4}})(?:-{_TWO}(?:-{_TWO}(?:T{_TWO}(?::{_TWO}(?::{_TWO})?)?)?)?)?"),
        _datetime,
    ),
}
VALUE_TYPES = ("str", *_GRAMMARS)


def parse_typed(lexical: str, value_type: str):
    """Parse ``lexical`` under ``value_type``; ValueError when it does not belong to the type."""
    if value_type == "str":
        return lexical
    try:
        grammar, convert = _GRAMMARS[value_type]
    except KeyError:
        raise ValueError(f"unknown value type: {value_type!r}") from None
    m = grammar.fullmatch(lexical)
    if m is None:
        raise ValueError(f"not a valid {value_type}: {lexical!r}")
    return convert(*m.groups())


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
