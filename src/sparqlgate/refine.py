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
field the table lacks; the ``apply_*`` steps are plain table transforms.

Every step and writer works on the table's columns: ``require`` and
``filter`` build one keep mask over the field's column and compress every
column with it, ``sort`` orders row indexes by the field's keys and
reorders every column, and the ``json`` steps map over the field's column.
Typed order follows the field's declared ``#field_type`` through ``values``:
a sort keys each cell once with ``sort_key``, a typed filter uses ``compare``.

Both writers lay each chunk of rows into one piece list, glue and cells
taking turns, a column at a time by strided slice assignment, and join it
once; neither builds a string per record. A column's text is checked whole:
one join, and one ``bytes.translate`` deletion of the characters that need
escaping or quoting. Text that needs neither, and ``json=array`` lists of
such text, go in as they are, the quotes and brackets riding in the glue;
other text costs one C-level ``map``, and only a column holding a cell that
is not text (a record or plugin value) is written cell by cell. They are
pinned byte for byte: JSON to ``json.dumps(..., ensure_ascii=False,
indent=2)``, CSV to minimal quoting (a field is quoted when it holds a
comma, a quote, CR or LF).
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, repeat
from operator import itemgetter, ne

from .client import Cell, ResultTable
from .config import NAME_RE
from .errors import RefinementError, RefinementSyntaxError
from .values import compare, is_valid, sort_key

log = logging.getLogger(__name__)

CSV_MEDIA_TYPE = "text/csv"
JSON_MEDIA_TYPE = "application/json"
_ACCEPT_FORMATS = {CSV_MEDIA_TYPE: "csv", JSON_MEDIA_TYPE: "json"}

_FILTER_RE = re.compile(r"^([A-Za-z_]\w*):(.*)$", re.DOTALL)
_SORT_RE = re.compile(r"^(asc|desc)\(\s*([A-Za-z_]\w*)\s*\)\Z")
_JSON_RE = re.compile(r'^(array|dict)\(\s*"([^"]*)"\s*,(.*)\)\Z', re.DOTALL)
_zero_weight = re.compile(r";\s*q=0(\.0{0,3})?\s*(;|$)", re.IGNORECASE).search
_csv_needs_quotes = re.compile(r'[,"\n\r]').search
# The C string encoder that json.dumps itself uses with ensure_ascii=False.
_encode_text = json.encoder.encode_basestring
# The characters _encode_text escapes, and those that make a CSV field need
# quotes: all ASCII, so no other character's UTF-8 bytes hold one.
_JSON_ESCAPED = bytes([*range(0x20), ord('"'), ord("\\")])
_CSV_QUOTED = b',"\n\r'
# Rows per writer chunk: bounds the piece lists the writers hold at once.
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
# Column-level application
# ---------------------------------------------------------------------------

def cell_text(cell: Cell) -> str:
    """Text view of a cell; list/record cells read as their JSON text."""
    if isinstance(cell, str):
        return cell
    return json.dumps(cell, ensure_ascii=False)


def _all_text(column: list) -> bool:
    return set(map(type, column)) <= {str}


def _texts(column: list) -> list[str]:
    """A column's cells as text: the column itself when every cell is text."""
    return column if _all_text(column) else list(map(cell_text, column))


def _kept(table: ResultTable, keep: list[bool]) -> ResultTable:
    """The rows whose ``keep`` flag is true, order preserved."""
    length = sum(keep)
    if length == table.length:
        return table
    columns = {name: list(compress(column, keep)) for name, column in table.columns.items()}
    return ResultTable.from_columns(table.header, table.types, columns, length)


def apply_require(table: ResultTable, field: str) -> ResultTable:
    """Drop rows whose cell for ``field`` is empty text, order preserved."""
    # Only a text cell can be "": a list or record cell never reads as empty text.
    return _kept(table, list(map(ne, table.columns[field], repeat(""))))


def apply_filter(table: ResultTable, spec: FilterSpec) -> ResultTable:
    """Keep rows satisfying the filter, order preserved.

    Without an operator the value is a regex searched in the cell text;
    with one, the cell is compared to the value under the field's declared
    type — strict inequality for < and >, typed equality for =.
    """
    value_type = table.type_of(spec.field)
    texts = _texts(table.columns[spec.field])

    if spec.operator is None:
        keep = list(map(bool, map(re.compile(spec.value).search, texts)))
    else:
        if spec.value != "" and not is_valid(spec.value, value_type):
            raise RefinementError(
                f"filter value {spec.value!r} is not a valid {value_type}"
            )
        wanted = {"=": (0,), "<": (-1,), ">": (1,)}[spec.operator]
        keep = [compare(text, spec.value, value_type) in wanted for text in texts]

    return _kept(table, keep)


def apply_sort(table: ResultTable, spec: SortSpec) -> ResultTable:
    """Stably sort rows on one field by its typed key, each cell parsed once."""
    value_type = table.type_of(spec.field)
    keys = [sort_key(text, value_type) for text in _texts(table.columns[spec.field])]
    if table.length < 2:
        return table
    order = sorted(range(table.length), key=keys.__getitem__, reverse=spec.order == "desc")
    reorder = itemgetter(*order)
    columns = {name: list(reorder(column)) for name, column in table.columns.items()}
    return ResultTable.from_columns(table.header, table.types, columns, table.length)


def apply_json_array(table: ResultTable, sep: str, field: str) -> ResultTable:
    """Split each text cell of ``field`` into a list cell, empties kept."""
    return _reshape(table, field, "json array", partial(str.split, sep=sep))


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
    """The json column map: each text cell of ``field`` becomes ``split(text)``.

    With ``each_element``, each element of a list cell is split instead, and
    all must be text; any other cell that is not text is refused.
    """
    column = table.columns[field]
    if _all_text(column):
        cells = list(map(split, column))
    else:
        cells = [_reshaped(cell, field, op, split, each_element) for cell in column]
    columns = {**table.columns, field: cells}
    return ResultTable.from_columns(table.header, table.types, columns, table.length)


def _reshaped(cell: Cell, field: str, op: str, split, each_element: bool) -> Cell:
    if isinstance(cell, str):
        return split(cell)
    if each_element and isinstance(cell, list):
        if not all(isinstance(element, str) for element in cell):
            raise RefinementError(f"{op} needs text elements in field {field!r}")
        return [split(element) for element in cell]
    raise RefinementError(f"{op} needs text cells, field {field!r} already reshaped")


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
    """RFC-4180 CSV: header line first, "\\n" terminators, minimal quoting.

    Each chunk of ``_CHUNK`` rows is one piece list, a "\\n" or "," before
    each field, joined once.
    """
    if not table.header:
        # Every record is a lone empty field, quoted so it is not a blank line.
        return '""\n' * (table.length + 1)
    head = ",".join(map(_csv_field, table.header))
    if len(table.header) == 1 and not head:
        head = '""'
    if not table.length:
        return head + "\n"
    columns = [table.columns[name] for name in table.header]
    return _joined_chunks(partial(_csv_chunk, head), columns, table.length)


def _csv_chunk(head: str, parts: list[list], first: bool, last: bool) -> str:
    # A lone empty field would render as a blank line, which readers drop;
    # quote it so the record survives a round trip.
    fields = [_csv_column(part, len(parts) == 1) for part in parts]
    glue = ["\n", *repeat(",", len(parts) - 1)]
    return _joined(glue, fields, head + "\n" if first else "\n", "\n" if last else "")


def _csv_column(cells: list, lone: bool) -> list[str]:
    """One chunk of a column's fields. One join both checks that every cell
    is text and gives the text one deletion checks for a field needing
    quotes; only a column that fails either is written cell by cell."""
    try:
        joined = "".join(cells)
    except TypeError:
        cells = list(map(cell_text, cells))
        joined = "".join(cells)
    if not _keeps(joined, _CSV_QUOTED):
        cells = list(map(_csv_field, cells))
    if lone and "" in cells:
        cells = [field or '""' for field in cells]
    return cells


def _csv_field(text: str) -> str:
    if _csv_needs_quotes(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _keeps(text: str, deleted: bytes) -> bool:
    """Whether ``text`` holds none of the ASCII characters in ``deleted``:
    its UTF-8 bytes lose nothing under one ``bytes.translate`` deletion."""
    data = text.encode("utf-8", "surrogatepass")
    return len(data.translate(None, deleted)) == len(data)


def _joined_chunks(write, columns: list[list], length: int) -> str:
    """The output: ``write(parts, first, last)`` of each chunk of at most
    ``_CHUNK`` rows of ``columns``, joined once; a lone chunk is not copied."""
    starts = range(0, length, _CHUNK)
    return "".join([
        write([column[start:start + _CHUNK] for column in columns], not start, start == starts[-1])
        for start in starts
    ])


def _joined(glue: list[str], cells: list[list[str]], lead: str, tail: str) -> str:
    """A chunk's records: ``glue[j]`` before each cell from ``cells[j]``, laid
    in one piece list by strided slice assignment and joined once; ``lead``
    replaces the first glue and ``tail`` follows the last cell."""
    rows, width = len(cells[0]), 2 * len(cells)
    end = rows * width
    # The spare last slot keeps the tail, so the list never grows.
    pieces = [tail] * (end + 1)
    for j, (text, column) in enumerate(zip(glue, cells)):
        pieces[2 * j:end:width] = [text] * rows
        pieces[2 * j + 1:end:width] = column
    pieces[0] = lead
    return "".join(pieces)


def serialize_json(table: ResultTable) -> str:
    """JSON array of row objects, keys in header order.

    Byte-identical to ``json.dumps(objects, ensure_ascii=False, indent=2)``,
    whose ``indent`` forces CPython's pure-Python encoder. Each chunk of
    ``_CHUNK`` rows is one piece list, glue and cells taking turns, joined
    once. The glue carries the keys, brackets, braces and separators, and the
    quotes or brackets around a column that goes in as it is. A repeated
    header name keeps its first position.
    """
    if not table.length:
        return "[]"
    columns = table.columns
    if not columns:
        return "[\n" + ",\n".join(repeat("  {}", table.length)) + "\n]"
    keys = [_encode_text(name) + ": " for name in columns]
    return _joined_chunks(partial(_json_chunk, keys), list(columns.values()), table.length)


def _json_chunk(keys: list[str], parts: list[list], first: bool, last: bool) -> str:
    openings, cells, closings = zip(*map(_json_column, parts))
    glue = [
        # Between records, the first cell's glue closes the record before it.
        closings[j - 1] + (",\n    " if j else "\n  },\n  {\n    ") + key + openings[j]
        for j, key in enumerate(keys)
    ]
    lead = ("[" if first else ",") + "\n  {\n    " + keys[0] + openings[0]
    return _joined(glue, cells, lead, closings[-1] + ("\n  }\n]" if last else "\n  }"))


def _json_column(part: list) -> tuple[str, list[str], str]:
    """One chunk of a column: the glue's text before each cell, the cells,
    and the glue's text after each cell.

    Text that ``_encode_text`` would leave as it is goes in as it is, and
    non-empty lists of such text, what ``json=array`` makes, go in as their
    elements joined by the separator between them. Other text costs one
    ``map``; any other column is written cell by cell with ``_json_value``.
    """
    try:
        joined = "".join(part)
    except TypeError:
        pass
    else:
        if _keeps(joined, _JSON_ESCAPED):
            return '"', part, '"'
        return "", list(map(_encode_text, part)), ""
    if set(map(type, part)) == {list} and all(part):
        try:
            clean = _keeps("".join(chain.from_iterable(part)), _JSON_ESCAPED)
        except TypeError:
            clean = False
        if clean:
            return '[\n      "', list(map('",\n      "'.join, part)), '"\n    ]'
    return "", [_json_value(cell, "    ") for cell in part], ""


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
