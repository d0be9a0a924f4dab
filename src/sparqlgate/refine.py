"""Result refinement: the reserved query parameters and serialization.

Five reserved query keys refine the result table after the endpoint
answers: ``require`` drops rows with an empty cell, ``filter`` keeps rows
matching a regex or a typed comparison, ``sort`` orders rows, ``format``
picks csv or json, and ``json`` reshapes cell text into arrays or records.

``parse_refinements`` makes the plan: the output format and the steps in
run order, every require, then filter, then sort, then json step, however
the parameters were interleaved in the URL; within one kind, URL order.
``format`` beats the Accept header; with neither, json is the default.
``apply_plan`` runs the steps, and alone skips, with a warning, one on a
field the table lacks; the ``apply_*`` steps are plain row transforms.

Typed order follows the field's declared ``#field_type`` through ``values``:
a sort keys each row once with ``sort_key``, a typed filter uses ``compare``.

Both writers work a column at a time, so a text cell costs no Python call:
C-level ``map`` calls encode or check each column, and a column is written
cell by cell only when it holds a cell that is not text (a list, record or
plugin value), or, for CSV, a field that needs quotes. They are pinned byte
for byte: JSON to ``json.dumps(..., ensure_ascii=False, indent=2)``, CSV to
minimal quoting (a field is quoted when it holds a comma, a quote, CR or LF).
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter

from .client import Cell, ResultTable
from .config import NAME_RE
from .errors import RefinementError, RefinementSyntaxError
from .values import compare, is_valid, sort_key

log = logging.getLogger(__name__)

CSV_MEDIA_TYPE = "text/csv"
JSON_MEDIA_TYPE = "application/json"
_ACCEPT_FORMATS = {CSV_MEDIA_TYPE: "csv", JSON_MEDIA_TYPE: "json"}

_FILTER_RE = re.compile(r"^([A-Za-z_]\w*):(.*)$", re.DOTALL)
_SORT_RE = re.compile(r"^(asc|desc)\(\s*([A-Za-z_]\w*)\s*\)$")
_JSON_RE = re.compile(r'^(array|dict)\(\s*"([^"]*)"\s*,(.*)\)$', re.DOTALL)
_zero_weight = re.compile(r";\s*q=0(\.0{0,3})?\s*(;|$)", re.IGNORECASE).search
_csv_needs_quotes = re.compile(r'[,"\n\r]').search
# The C string encoder that json.dumps itself uses with ensure_ascii=False.
_encode_text = json.encoder.encode_basestring
# Rows per JSON batch: bounds the per-column lists the writer holds at once.
_CHUNK = 1024


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
class RefinementPlan:
    """The output format, and the steps in run order, each a tuple
    ``(kind, field, step function, arguments after the table)``.
    """

    format: str | None = None
    steps: tuple[tuple, ...] = ()


def parse_refinements(query_params: tuple[tuple[str, str], ...]) -> RefinementPlan:
    """Turn query parameters into a RefinementPlan, steps in run order.

    Unknown keys are ignored with a warning; the last ``format`` wins;
    malformed values raise RefinementSyntaxError (status 400).
    """
    # The apply_* functions are looked up per call, so a wrapped one is what runs.
    slots: dict[str, list[tuple]] = {"require": [], "filter": [], "sort": [], "json": []}
    fmt: str | None = None

    for key, value in query_params:
        if key == "require":
            if not NAME_RE.match(value):
                raise RefinementSyntaxError(f"bad require field name {value!r}")
            step = ("require", value, apply_require, (value,))
        elif key == "filter":
            spec = _parse_filter(value)
            step = ("filter", spec.field, apply_filter, (spec,))
        elif key == "sort":
            m = _SORT_RE.match(value)
            if not m:
                raise RefinementSyntaxError(f"bad sort expression {value!r}")
            step = ("sort", m.group(2), apply_sort, (SortSpec(*m.groups()),))
        elif key == "format":
            if value not in ("csv", "json"):
                raise RefinementSyntaxError(f"bad format {value!r}")
            fmt = value
            continue
        elif key == "json":
            step = _parse_json_op(value)
        else:
            log.warning("ignoring unknown query parameter %r", key)
            continue
        slots[key].append(step)

    return RefinementPlan(fmt, tuple(step for steps in slots.values() for step in steps))


def _parse_filter(value: str) -> FilterSpec:
    m = _FILTER_RE.match(value)
    if not m:
        raise RefinementSyntaxError(f"bad filter expression {value!r}")
    field, rest = m.group(1), m.group(2)
    if rest[:1] in ("=", "<", ">"):
        return FilterSpec(field=field, operator=rest[0], value=rest[1:])
    try:
        re.compile(rest)
    except (re.error, Warning) as exc:  # e.g. "Possible nested set" under -W error
        raise RefinementSyntaxError(
            f"filter regex {rest!r} does not compile: {exc}"
        ) from None
    return FilterSpec(field=field, operator=None, value=rest)


def _parse_json_op(value: str) -> tuple:
    m = _JSON_RE.match(value)
    if not m:
        raise RefinementSyntaxError(f"bad json expression {value!r}")
    op, separator, tail = m.group(1), m.group(2), m.group(3)
    field, *keys = [name.strip() for name in tail.split(",")]
    if not all(NAME_RE.match(name) for name in (field, *keys)):
        raise RefinementSyntaxError(f"bad field list in json expression {value!r}")
    if separator == "":
        raise RefinementSyntaxError("json separator must be non-empty")
    if op == "array":
        if keys:
            raise RefinementSyntaxError("json array takes exactly one field")
        return ("json array", field, apply_json_array, (separator, field))
    if not keys:
        raise RefinementSyntaxError("json dict needs a field and at least one key")
    if len(set(keys)) != len(keys):
        raise RefinementSyntaxError(f"json dict keys must be distinct in {value!r}")
    return ("json dict", field, apply_json_dict, (separator, field, tuple(keys)))


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
    return table.replaced([r for r in table.rows if cell_text(r[field]) != ""])


def apply_filter(table: ResultTable, spec: FilterSpec) -> ResultTable:
    """Keep rows satisfying the filter, order preserved.

    Without an operator the value is a regex searched in the cell text;
    with one, the cell is compared to the value under the field's declared
    type — strict inequality for < and >, typed equality for =.
    """
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
    value_type = table.type_of(spec.field)
    key = lambda row: sort_key(cell_text(row[spec.field]), value_type)
    return table.replaced(sorted(table.rows, key=key, reverse=spec.order == "desc"))


def apply_json_array(table: ResultTable, sep: str, field: str) -> ResultTable:
    """Split each text cell of ``field`` into a list cell, empties kept."""
    return _reshape(table, field, "json array", lambda text: text.split(sep))


def apply_json_dict(
    table: ResultTable, sep: str, field: str, new_fields: tuple[str, ...]
) -> ResultTable:
    """Split each cell of ``field`` into a record with the given keys.

    Splitting is leftmost-first with at most len(new_fields) - 1 cuts; when
    the text yields fewer pieces, the remaining keys get empty text. On a
    list cell (made by a prior array op) the rule applies to every element.
    """
    def split(text: str) -> dict[str, str]:
        pieces = text.split(sep, len(new_fields) - 1)
        return dict(zip(new_fields, pieces + [""] * (len(new_fields) - len(pieces))))

    return _reshape(table, field, "json dict", split, each_element=True)


def _reshape(table: ResultTable, field: str, op: str, split, each_element=False) -> ResultTable:
    """The json row loop: each text cell of ``field`` becomes ``split(text)``.

    With ``each_element``, each element of a list cell is split instead, and
    all must be text; any other cell that is not text is refused.
    """
    rows = []
    for row in table.rows:
        cell = row[field]
        if isinstance(cell, str):
            cell = split(cell)
        elif each_element and isinstance(cell, list):
            if not all(isinstance(element, str) for element in cell):
                raise RefinementError(f"{op} needs text elements in field {field!r}")
            cell = [split(element) for element in cell]
        else:
            raise RefinementError(f"{op} needs text cells, field {field!r} already reshaped")
        rows.append({**row, field: cell})
    return table.replaced(rows)


# ---------------------------------------------------------------------------
# Plan execution and serialization
# ---------------------------------------------------------------------------

def format_from_accept(accept_header: str | None) -> str | None:
    """Map an Accept header to csv/json; None when nothing recognized.

    The first recognized range wins; one weighted ``q=0`` is not acceptable.
    """
    for item in (accept_header or "").split(","):
        media_type = item.split(";", 1)[0].strip().lower()
        if media_type in _ACCEPT_FORMATS and not _zero_weight(item):
            return _ACCEPT_FORMATS[media_type]
    return None


def apply_plan(
    table: ResultTable, plan: RefinementPlan, accept_header: str | None = None
) -> tuple[str, str]:
    """Run a plan's steps in order; returns (content type, body).

    A refinement on a field the table lacks is skipped with a warning here,
    so each ``apply_*`` step may take its field as present.
    """
    fmt = plan.format or format_from_accept(accept_header) or "json"
    if fmt == "csv" and any(kind.startswith("json") for kind, *_ in plan.steps):
        raise RefinementError("json refinements need the json format")

    for kind, field, step, args in plan.steps:
        if field in table.header:
            table = step(table, *args)
        else:
            log.warning("%s on unknown field %r ignored", kind, field)

    if fmt == "csv":
        return CSV_MEDIA_TYPE, serialize_csv(table)
    return JSON_MEDIA_TYPE, serialize_json(table)


def serialize_csv(table: ResultTable) -> str:
    """RFC-4180 CSV: header line first, "\\n" terminators, minimal quoting."""
    if not table.header:
        # Every record is a lone empty field, quoted so it is not a blank line.
        return '""\n' * (len(table.rows) + 1)
    columns = [_csv_column(table.rows, name) for name in table.header]
    lines = [",".join(map(_csv_field, table.header)), *map(",".join, zip(*columns))]
    if len(table.header) == 1:
        # A lone empty field would render as a blank line, which readers drop;
        # quote it so the record survives a round trip.
        lines = [line or '""' for line in lines]
    return "\n".join(lines) + "\n"


def _csv_column(rows: list, name: str) -> list[str]:
    """One column's fields; one join both checks that every cell is text and
    gives the text that one search scans for a field needing quotes."""
    cells = list(map(itemgetter(name), rows))
    try:
        joined = "".join(cells)
    except TypeError:
        cells = list(map(cell_text, cells))
        joined = "".join(cells)
    return list(map(_csv_field, cells)) if _csv_needs_quotes(joined) else cells


def _csv_field(text: str) -> str:
    if _csv_needs_quotes(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def serialize_json(table: ResultTable) -> str:
    """JSON array of row objects, keys in header order.

    Byte-identical to ``json.dumps(objects, ensure_ascii=False, indent=2)``,
    whose ``indent`` forces CPython's pure-Python encoder. Rows go in chunks
    of ``_CHUNK``, a column at a time: each column is encoded by one C-level
    ``map``, and only a column holding a cell that is not text (a list,
    record or plugin value) is written cell by cell with ``_json_value``.
    Each record is then joined from the layout pieces, built once from the
    header, and its cells. A repeated header name keeps its first position.
    """
    if not table.rows:
        return "[]"
    names = tuple(dict.fromkeys(table.header))
    if not names:
        return "[\n" + ",\n".join("  {}" for _ in table.rows) + "\n]"
    # An encoded key holds no raw NUL, so NUL marks where each cell goes.
    keys = ",\n    ".join(_encode_text(name) + ": \0" for name in names)
    layout = ("{\n    " + keys + "\n  }").split("\0")
    rows = table.rows
    return "[\n  " + ",\n  ".join(
        _json_chunk(layout, names, rows[start:start + _CHUNK])
        for start in range(0, len(rows), _CHUNK)
    ) + "\n]"


def _json_chunk(layout: list[str], names: tuple[str, ...], part: list) -> str:
    pieces = []
    for text, name in zip(layout, names):
        try:
            column = list(map(_encode_text, map(itemgetter(name), part)))
        except TypeError:
            column = [_json_value(cell, "    ") for cell in map(itemgetter(name), part)]
        pieces += (repeat(text), column)
    pieces.append(repeat(layout[-1]))
    return ",\n  ".join(map("".join, zip(*pieces)))


def _json_value(value, indent: str) -> str:
    """One value in the ``indent=2`` layout, on a line indented by ``indent``."""
    if isinstance(value, str):
        return _encode_text(value)
    inner = indent + "  "
    if isinstance(value, list):
        if not value:
            return "[]"
        try:
            items = list(map(_encode_text, value))
        except TypeError:
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
