"""Result refinement: the reserved query parameters and serialization.

Five reserved query keys refine the result table after the endpoint
answers: ``require`` drops rows with an empty cell, ``filter`` keeps rows
matching a regex or a typed comparison, ``sort`` orders rows, ``format``
picks csv or json, and ``json`` reshapes cell text into arrays or records.

Execution order across kinds is fixed — require, then filter, then sort,
then format selection, then json — no matter how the parameters were
interleaved in the URL. Within one kind, parameters apply in URL order.
``format`` beats the Accept header; with neither, json is the default.

Typed order follows the field's declared ``#field_type`` through ``values``:
a sort keys each row once with ``sort_key``, a typed filter uses ``compare``.

Both writers are hand-written for speed and pinned byte for byte: JSON to
``json.dumps(..., ensure_ascii=False, indent=2)``, CSV to minimal quoting
(a field is quoted when it holds a comma, a quote, CR or LF).
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass

from .client import Cell, ResultTable
from .config import NAME_RE
from .errors import RefinementError, RefinementSyntaxError
from .values import compare, is_valid, sort_key

log = logging.getLogger(__name__)

CSV_MEDIA_TYPE = "text/csv"
JSON_MEDIA_TYPE = "application/json"

_FILTER_RE = re.compile(r"^([A-Za-z_]\w*):(.*)$", re.DOTALL)
_SORT_RE = re.compile(r"^(asc|desc)\(\s*([A-Za-z_]\w*)\s*\)$")
_JSON_RE = re.compile(r'^(array|dict)\(\s*"([^"]*)"\s*,(.*)\)$', re.DOTALL)
_csv_needs_quotes = re.compile(r'[,"\n\r]').search
# The C string encoder that json.dumps itself uses with ensure_ascii=False.
_encode_text = json.encoder.encode_basestring


# ---------------------------------------------------------------------------
# Plan model and parsing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FilterSpec:
    """``filter=<field>:<op><value>``; no operator means regex match."""

    field: str
    operator: str | None
    value: str


@dataclass(frozen=True)
class SortSpec:
    order: str
    field: str


@dataclass(frozen=True)
class JsonOpSpec:
    op: str
    separator: str
    field: str
    new_fields: tuple[str, ...] = ()


@dataclass(frozen=True)
class RefinementPlan:
    """Parsed refinement parameters, URL order kept within each kind."""

    requires: tuple[str, ...] = ()
    filters: tuple[FilterSpec, ...] = ()
    sorts: tuple[SortSpec, ...] = ()
    format: str | None = None
    json_ops: tuple[JsonOpSpec, ...] = ()


def parse_refinements(query_params: tuple[tuple[str, str], ...]) -> RefinementPlan:
    """Route query parameters into a RefinementPlan.

    Unknown keys are ignored with a warning; the last ``format`` wins;
    malformed values raise RefinementSyntaxError (status 400).
    """
    requires: list[str] = []
    filters: list[FilterSpec] = []
    sorts: list[SortSpec] = []
    json_ops: list[JsonOpSpec] = []
    fmt: str | None = None

    for key, value in query_params:
        if key == "require":
            if not NAME_RE.match(value):
                raise RefinementSyntaxError(f"bad require field name {value!r}")
            requires.append(value)
        elif key == "filter":
            filters.append(_parse_filter(value))
        elif key == "sort":
            m = _SORT_RE.match(value)
            if not m:
                raise RefinementSyntaxError(f"bad sort expression {value!r}")
            sorts.append(SortSpec(order=m.group(1), field=m.group(2)))
        elif key == "format":
            if value not in ("csv", "json"):
                raise RefinementSyntaxError(f"bad format {value!r}")
            fmt = value
        elif key == "json":
            json_ops.append(_parse_json_op(value))
        else:
            log.warning("ignoring unknown query parameter %r", key)

    return RefinementPlan(
        requires=tuple(requires),
        filters=tuple(filters),
        sorts=tuple(sorts),
        format=fmt,
        json_ops=tuple(json_ops),
    )


def _parse_filter(value: str) -> FilterSpec:
    m = _FILTER_RE.match(value)
    if not m:
        raise RefinementSyntaxError(f"bad filter expression {value!r}")
    field, rest = m.group(1), m.group(2)
    if rest[:1] in ("=", "<", ">"):
        return FilterSpec(field=field, operator=rest[0], value=rest[1:])
    try:
        re.compile(rest)
    except re.error as exc:
        raise RefinementSyntaxError(
            f"filter regex {rest!r} does not compile: {exc}"
        ) from None
    return FilterSpec(field=field, operator=None, value=rest)


def _parse_json_op(value: str) -> JsonOpSpec:
    m = _JSON_RE.match(value)
    if not m:
        raise RefinementSyntaxError(f"bad json expression {value!r}")
    op, separator, tail = m.group(1), m.group(2), m.group(3)
    names = [name.strip() for name in tail.split(",")]
    if not all(NAME_RE.match(name) for name in names):
        raise RefinementSyntaxError(f"bad field list in json expression {value!r}")
    if separator == "":
        raise RefinementSyntaxError("json separator must be non-empty")
    if op == "array":
        if len(names) != 1:
            raise RefinementSyntaxError("json array takes exactly one field")
        return JsonOpSpec(op=op, separator=separator, field=names[0])
    if len(names) < 2:
        raise RefinementSyntaxError("json dict needs a field and at least one key")
    return JsonOpSpec(
        op=op, separator=separator, field=names[0], new_fields=tuple(names[1:])
    )


# ---------------------------------------------------------------------------
# Row-level application
# ---------------------------------------------------------------------------

def cell_text(cell: Cell) -> str:
    """Text view of a cell; list/record cells read as their JSON text."""
    if isinstance(cell, str):
        return cell
    return json.dumps(cell, ensure_ascii=False)


def apply_require(table: ResultTable, field: str) -> ResultTable:
    """Drop rows whose cell for ``field`` is empty text, order preserved."""
    if field not in table.header:
        log.warning("require on unknown field %r ignored", field)
        return table
    return table.replaced([r for r in table.rows if cell_text(r[field]) != ""])


def apply_filter(table: ResultTable, spec: FilterSpec) -> ResultTable:
    """Keep rows satisfying the filter, order preserved.

    Without an operator the value is a regex searched in the cell text;
    with one, the cell is compared to the value under the field's declared
    type — strict inequality for < and >, typed equality for =.
    """
    if spec.field not in table.header:
        log.warning("filter on unknown field %r ignored", spec.field)
        return table
    value_type = table.type_of(spec.field)

    if spec.operator is None:
        pattern = re.compile(spec.value)
        keep = lambda cell: pattern.search(cell_text(cell)) is not None
    else:
        if spec.value != "" and not is_valid(spec.value, value_type):
            raise RefinementError(
                f"filter value {spec.value!r} is not a valid {value_type}"
            )
        wanted = {"=": (0,), "<": (-1,), ">": (1,)}[spec.operator]
        keep = lambda cell: (
            compare(cell_text(cell), spec.value, value_type) in wanted
        )

    return table.replaced([r for r in table.rows if keep(r[spec.field])])


def apply_sort(table: ResultTable, spec: SortSpec) -> ResultTable:
    """Stably sort rows on one field by its typed key, each cell parsed once."""
    if spec.field not in table.header:
        log.warning("sort on unknown field %r ignored", spec.field)
        return table
    value_type = table.type_of(spec.field)
    key = lambda row: sort_key(cell_text(row[spec.field]), value_type)
    return table.replaced(sorted(table.rows, key=key, reverse=spec.order == "desc"))


def apply_json_array(table: ResultTable, sep: str, field: str) -> ResultTable:
    """Split each text cell of ``field`` into a list cell, empties kept."""
    if field not in table.header:
        log.warning("json array on unknown field %r ignored", field)
        return table
    rows = []
    for row in table.rows:
        cell = row[field]
        if not isinstance(cell, str):
            raise RefinementError(
                f"json array needs text cells, field {field!r} already reshaped"
            )
        rows.append({**row, field: cell.split(sep)})
    return table.replaced(rows)


def apply_json_dict(
    table: ResultTable, sep: str, field: str, new_fields: tuple[str, ...]
) -> ResultTable:
    """Split each cell of ``field`` into a record with the given keys.

    Splitting is leftmost-first with at most len(new_fields) - 1 cuts; when
    the text yields fewer pieces, the remaining keys get empty text. On a
    list cell (made by a prior array op) the rule applies to every element.
    """
    if field not in table.header:
        log.warning("json dict on unknown field %r ignored", field)
        return table
    rows = []
    for row in table.rows:
        cell = row[field]
        if isinstance(cell, str):
            reshaped: Cell = _split_record(cell, sep, new_fields)
        elif isinstance(cell, list):
            for element in cell:
                if not isinstance(element, str):
                    raise RefinementError(
                        f"json dict needs text elements in field {field!r}"
                    )
            reshaped = [_split_record(element, sep, new_fields) for element in cell]
        else:
            raise RefinementError(
                f"json dict needs text cells, field {field!r} already reshaped"
            )
        rows.append({**row, field: reshaped})
    return table.replaced(rows)


def _split_record(text: str, sep: str, new_fields: tuple[str, ...]) -> dict[str, str]:
    pieces = text.split(sep, len(new_fields) - 1)
    pieces += [""] * (len(new_fields) - len(pieces))
    return dict(zip(new_fields, pieces))


# ---------------------------------------------------------------------------
# Plan execution and serialization
# ---------------------------------------------------------------------------

def format_from_accept(accept_header: str | None) -> str | None:
    """Map an Accept header to csv/json; None when nothing recognized."""
    if not accept_header:
        return None
    for item in accept_header.split(","):
        media_type = item.split(";", 1)[0].strip().lower()
        if media_type == CSV_MEDIA_TYPE:
            return "csv"
        if media_type == JSON_MEDIA_TYPE:
            return "json"
    return None


def apply_plan(
    table: ResultTable, plan: RefinementPlan, accept_header: str | None = None
) -> tuple[str, str]:
    """Run a plan in the fixed kind order; returns (content type, body)."""
    fmt = plan.format or format_from_accept(accept_header) or "json"

    for field in plan.requires:
        table = apply_require(table, field)
    for spec in plan.filters:
        table = apply_filter(table, spec)
    for spec in plan.sorts:
        table = apply_sort(table, spec)

    if plan.json_ops:
        if fmt == "csv":
            raise RefinementError("json refinements need the json format")
        for op in plan.json_ops:
            if op.op == "array":
                table = apply_json_array(table, op.separator, op.field)
            else:
                table = apply_json_dict(table, op.separator, op.field, op.new_fields)

    if fmt == "csv":
        return CSV_MEDIA_TYPE, serialize_csv(table)
    return JSON_MEDIA_TYPE, serialize_json(table)


def serialize_csv(table: ResultTable) -> str:
    """RFC-4180 CSV: header line first, "\\n" terminators, minimal quoting."""
    lines = [_csv_record(table.header)]
    for row in table.rows:
        lines.append(_csv_record(cell_text(row[name]) for name in table.header))
    return "\n".join(lines) + "\n"


def _csv_record(cells) -> str:
    line = ",".join(_csv_field(text) for text in cells)
    # A lone empty field would render as a blank line, which readers drop;
    # quote it so the record survives a round trip.
    return line if line else '""'


def _csv_field(text: str) -> str:
    if _csv_needs_quotes(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def serialize_json(table: ResultTable) -> str:
    """JSON array of row objects, keys in header order.

    Written row by row, and byte-identical to ``json.dumps(objects,
    ensure_ascii=False, indent=2)``, whose ``indent`` forces CPython's
    pure-Python encoder. A repeated header name keeps its first position.
    """
    if not table.rows:
        return "[]"
    names = tuple(dict.fromkeys(table.header))
    if not names:
        return "[\n" + ",\n".join("  {}" for _ in table.rows) + "\n]"
    keys = [(_encode_text(name) + ": ", name) for name in names]
    return "[\n  {\n    " + "\n  },\n  {\n    ".join(
        ",\n    ".join([key + _json_value(row[name], "    ") for key, name in keys])
        for row in table.rows
    ) + "\n  }\n]"


def _json_value(value, indent: str) -> str:
    """One value in the ``indent=2`` layout, on a line indented by ``indent``."""
    if isinstance(value, str):
        return _encode_text(value)
    inner = indent + "  "
    if isinstance(value, list):
        if not value:
            return "[]"
        items = [_json_value(item, inner) for item in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if isinstance(value, dict) and all(isinstance(key, str) for key in value):
        if not value:
            return "{}"
        items = [_encode_text(k) + ": " + _json_value(v, inner) for k, v in value.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    # Numbers, None, tuples and non-str keys only come from plugins; json writes
    # them, and its lines are shifted to this depth.
    return json.dumps(value, ensure_ascii=False, indent=2).replace("\n", "\n" + indent)
