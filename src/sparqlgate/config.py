"""Parser for hash-format configuration documents.

A configuration document is a sequence of blocks. Every block starts with a
``#url`` line; within a block, each line whose column-0 ``#`` is followed by
a recognized field name starts a new field, and every other line continues
the current field's value (so SPARQL templates — including their own
``# comment`` lines — survive verbatim). Exactly one block must have
``#type api``; every ``#type operation`` block declares one REST operation.
A field that belongs to the other block type is kept with a warning.

Error classes raised here, by failure kind:

* DocumentStructureError — content before the first ``#url``, missing or
  unknown ``#type``, missing api block, more than one api block;
* DuplicateFieldError — a field name repeated within one block;
* ParamShapeError — malformed parameter shape or ``#field_type`` entry;
* ProcessChainError — malformed ``#preprocess`` / ``#postprocess`` text;
* SpecValidationError — structurally sound but semantically invalid specs
  (bad method tokens, a parameter in the api url, an operation url parameter
  named like an operation field, an endpoint that is not an absolute http or
  https URL or has a bad port, undeclared query placeholders, chain arguments
  naming unknown parameters or variables, ...);
* ConfigError itself — a file that is not UTF-8 (``load_document``).
"""

from __future__ import annotations

import logging
import re
import urllib.parse
from dataclasses import dataclass, field

from .errors import (
    ConfigError,
    DocumentStructureError,
    DuplicateFieldError,
    ParamShapeError,
    ProcessChainError,
    SpecValidationError,
)
from .values import VALUE_TYPES

log = logging.getLogger(__name__)

# Field names recognized when splitting a block into fields. Any column-0
# hash line whose token is not in this set (nor a parameter declared by the
# block's own #url template) is treated as field-value content.
API_FIELDS = frozenset(
    {
        "url",
        "type",
        "base",
        "method",
        "title",
        "description",
        "version",
        "license",
        "contacts",
        "endpoint",
        "addon",
    }
)
OPERATION_FIELDS = frozenset(
    {
        "url",
        "type",
        "method",
        "description",
        "preprocess",
        "postprocess",
        "field_type",
        "call",
        "output_json",
        "sparql",
    }
)
KNOWN_FIELDS = API_FIELDS | OPERATION_FIELDS

DEFAULT_PATTERN = ".+"
HTTP_METHODS = frozenset({"get", "post"})

_FIELD_LINE_RE = re.compile(r"^#([A-Za-z_]\w*)(?:[ \t]+(.*))?$")
PLACEHOLDER_RE = re.compile(r"\{([A-Za-z_]\w*)\}")
SLOT_RE = re.compile(r"\[\[([A-Za-z_]\w*)\]\]")
_ALT_SLOT_RE = re.compile(r"\[\{([A-Za-z_]\w*)\}\]")
_SHAPE_RE = re.compile(r"^([A-Za-z_]\w*)(?:\((.*)\))?$", re.DOTALL)
NAME_RE = re.compile(r"^[A-Za-z_]\w*\Z")
# CR and LF only: str.splitlines also breaks at U+2028, form feed and others.
_LINE_BREAK_RE = re.compile(r"\r\n|\r|\n")


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldEntry:
    """One ``#name value`` field, value joined across continuation lines."""

    name: str
    value: str


@dataclass(frozen=True)
class ParamShape:
    """Declared type and textual form of one path parameter."""

    param_name: str
    value_type: str = "str"
    pattern: str = DEFAULT_PATTERN


@dataclass(frozen=True)
class ProcessStep:
    """One ``name(arg, ...)`` term of a transform chain."""

    function: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class ApiSpec:
    """Parsed api block: mount point, endpoint, and page metadata."""

    url: str
    endpoint: str
    methods: tuple[str, ...]
    base: str = ""
    title: str = ""
    description: str = ""
    version: str = ""
    license: str = ""
    contacts: str = ""
    addon: str = ""
    fields: tuple[FieldEntry, ...] = ()


@dataclass(frozen=True)
class OperationSpec:
    """Parsed operation block: URL template bound to a SPARQL template."""

    url_template: str
    method: str
    sparql: str
    params: tuple[ParamShape, ...] = ()
    preprocess: tuple[ProcessStep, ...] = ()
    postprocess: tuple[ProcessStep, ...] = ()
    description: str = ""
    field_types: dict[str, str] = field(default_factory=dict)
    call_example: str = ""
    output_json_example: str = ""
    fields: tuple[FieldEntry, ...] = ()
    # Where the block sits in its document (the first block is 1), for load
    # errors found after parsing; not part of the spec's value.
    block: int | None = field(default=None, compare=False)


@dataclass(frozen=True)
class ConfigDocument:
    """One parsed configuration document: the api block plus its operations."""

    api: ApiSpec
    operations: tuple[OperationSpec, ...]


# ---------------------------------------------------------------------------
# Block splitting
# ---------------------------------------------------------------------------

def split_blocks(text: str) -> list[list[FieldEntry]]:
    """Split document text into blocks of fields.

    A block begins at each column-0 ``#url`` line. Inside a block a line
    starts a new field only when its ``#`` token is a recognized field name
    or a parameter declared in the block's own URL template; anything else
    (blank lines, SPARQL comments, unknown hash tokens) continues the
    current field's value. Before the first block only blank lines and
    comment lines (``#`` followed by whitespace or nothing) are allowed.
    """
    blocks: list[list[tuple[str, list[str]]]] = []
    current: list[tuple[str, list[str]]] | None = None
    recognized: frozenset[str] = KNOWN_FIELDS

    for line in _LINE_BREAK_RE.split(text):
        m = _FIELD_LINE_RE.match(line)
        token = m.group(1) if m else None
        if token == "url":
            url_value = m.group(2) or ""
            current = [("url", [url_value])]
            blocks.append(current)
            declared = PLACEHOLDER_RE.findall(url_value)
            recognized = KNOWN_FIELDS | frozenset(declared)
            continue
        if current is None:
            if not line.strip() or _is_comment_line(line):
                continue
            raise DocumentStructureError(
                f"content before the first '#url' line: {line!r}"
            )
        if token is not None and token in recognized:
            current.append((token, [m.group(2) or ""]))
        else:
            current[-1][1].append(line)

    if not blocks:
        raise DocumentStructureError("document declares no '#url' block")
    return [
        [FieldEntry(name, "\n".join(lines).strip()) for name, lines in block]
        for block in blocks
    ]


def _is_comment_line(line: str) -> bool:
    return line.startswith("#") and (len(line) == 1 or line[1] in " \t")


# ---------------------------------------------------------------------------
# Field-level parsers
# ---------------------------------------------------------------------------

def _typed_term(text: str, what: str, field: str, optional: bool) -> tuple[str, str | None]:
    """Split ``type(inner)``, where ``(inner)`` may be left out only if optional."""
    m = _SHAPE_RE.match(text)
    if not m or (m.group(2) is None and not optional):
        raise ParamShapeError(f"malformed {what} {text!r}", field=field)
    value_type = m.group(1)
    if value_type not in VALUE_TYPES:
        raise ParamShapeError(f"unknown type {value_type!r} in {what} {text!r}", field=field)
    return value_type, m.group(2)


def parse_param_shape(param_name: str, text: str) -> ParamShape:
    """Parse a shape declaration: ``<type>`` or ``<type>(<regex>)``."""
    value_type, pattern = _typed_term(text.strip(), "shape", param_name, optional=True)
    if pattern is None:
        pattern = DEFAULT_PATTERN
    try:
        re.compile(pattern)
    except (re.error, Warning) as exc:  # e.g. "Possible nested set" under -W error
        raise ParamShapeError(
            f"shape pattern {pattern!r} does not compile: {exc}", field=param_name
        ) from None
    return ParamShape(param_name, value_type, pattern)


def parse_process_chain(text: str, field: str | None = None) -> tuple[ProcessStep, ...]:
    """Parse a ``-->``-separated chain of ``name(arg1, arg2, ...)`` terms."""
    steps = []
    for term in text.split("-->"):
        term = term.strip()
        m = _SHAPE_RE.match(term)
        if not m or m.group(2) is None:
            raise ProcessChainError(f"malformed chain term {term!r}", field=field)
        name, body = m.group(1), m.group(2).strip()
        args = []
        if body:
            for arg in body.split(","):
                arg = arg.strip()
                if not NAME_RE.match(arg):
                    raise ProcessChainError(
                        f"bad argument {arg!r} in chain term {term!r}", field=field
                    )
                args.append(arg)
        steps.append(ProcessStep(name, tuple(args)))
    return tuple(steps)


def parse_field_types(text: str) -> dict[str, str]:
    """Parse ``#field_type`` text: whitespace-separated ``type(var)`` items."""
    field_types: dict[str, str] = {}
    for item in text.split():
        value_type, var = _typed_term(item, "field type", "field_type", optional=False)
        if not NAME_RE.match(var):
            raise ParamShapeError(
                f"bad variable name {var!r} in field type {item!r}",
                field="field_type",
            )
        field_types[var] = value_type
    return field_types


def placeholder_names(template: str) -> list[str]:
    """``{name}`` placeholders of a URL template, in first-appearance order."""
    seen: list[str] = []
    for name in PLACEHOLDER_RE.findall(template):
        if name not in seen:
            seen.append(name)
    return seen


def normalize_slots(sparql: str) -> str:
    """Rewrite the ``[{name}]`` slot spelling to the canonical ``[[name]]``."""
    return _ALT_SLOT_RE.sub(r"[[\1]]", sparql)


# ---------------------------------------------------------------------------
# Document assembly
# ---------------------------------------------------------------------------

def parse_document(text: str) -> ConfigDocument:
    """Parse one configuration document into its api and operation specs."""
    api: ApiSpec | None = None
    operations: list[OperationSpec] = []

    for index, entries in enumerate(split_blocks(text), start=1):
        # Every error raised while building a block is pinned to it here.
        try:
            values: dict[str, str] = {}
            for entry in entries:
                if entry.name in values:
                    raise DuplicateFieldError("field declared twice", field=entry.name)
                values[entry.name] = entry.value
            block_type = values.get("type")
            if block_type is None:
                raise DocumentStructureError("block has no '#type' field")
            if block_type == "api":
                if api is not None:
                    raise DocumentStructureError("more than one '#type api' block")
                api = _build_api(entries, values)
                known = API_FIELDS
            elif block_type == "operation":
                declared = placeholder_names(values["url"])
                operations.append(_build_operation(entries, values, declared, index))
                known = OPERATION_FIELDS | set(declared)
            else:
                raise DocumentStructureError(f"unknown '#type' value {block_type!r}")
        except ConfigError as exc:
            raise exc.pinned(block_index=index) from None
        for entry in entries:
            if entry.name not in known:
                log.warning(
                    "block %d: field '#%s' is not an %s field", index, entry.name, block_type
                )

    if api is None:
        raise DocumentStructureError("document has no '#type api' block")
    # The api block may come after its operations, so methods are checked last.
    for op in operations:
        if op.method not in api.methods:
            raise SpecValidationError(
                f"operation {op.url_template!r} uses method {op.method!r}, "
                f"not among the api methods {'/'.join(api.methods)}",
                block_index=op.block,
                field="method",
            )
    return ConfigDocument(api=api, operations=tuple(operations))


def load_document(path: str) -> ConfigDocument:
    """Read a configuration file (UTF-8) and parse it."""
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"document is not UTF-8: {exc}") from None
    return parse_document(text)


def serialize_document(doc: ConfigDocument) -> str:
    """Re-emit a parsed document, fields in original order, values verbatim."""
    blocks = [doc.api.fields] + [op.fields for op in doc.operations]
    rendered = []
    for entries in blocks:
        lines = []
        for entry in entries:
            lines.append(f"#{entry.name} {entry.value}" if entry.value else f"#{entry.name}")
        rendered.append("\n".join(lines))
    return "\n\n".join(rendered) + "\n"


def _build_api(entries: list[FieldEntry], values: dict[str, str]) -> ApiSpec:
    url = values["url"]
    if not url.startswith("/") or url.endswith("/"):
        raise SpecValidationError(
            f"api url {url!r} must start with '/' and not end with '/'", field="url"
        )
    # Routes match the api url literally; only operation urls take parameters.
    placeholder = PLACEHOLDER_RE.search(url)
    if placeholder:
        raise SpecValidationError(
            f"api url {url!r} holds the parameter {placeholder.group()!r}", field="url"
        )
    endpoint = values.get("endpoint", "")
    if not endpoint:
        raise SpecValidationError("api block declares no '#endpoint'", field="endpoint")
    try:
        parts = urllib.parse.urlparse(endpoint)  # raises on a malformed IPv6 host
        parts.port  # raises on a port that is not a number in 0-65535
    except ValueError:
        raise SpecValidationError(
            f"endpoint {endpoint!r} has a malformed host or port", field="endpoint"
        ) from None
    if not parts.scheme or not parts.hostname:
        raise SpecValidationError(
            f"endpoint {endpoint!r} is not an absolute URL", field="endpoint"
        )
    if parts.scheme not in ("http", "https"):
        raise SpecValidationError(
            f"endpoint {endpoint!r} is not an http or https URL", field="endpoint"
        )
    methods = _parse_methods(values.get("method"))
    return ApiSpec(
        url=url,
        endpoint=endpoint,
        methods=methods,
        base=values.get("base", ""),
        title=values.get("title", ""),
        description=values.get("description", ""),
        version=values.get("version", ""),
        license=values.get("license", ""),
        contacts=values.get("contacts", ""),
        addon=values.get("addon", ""),
        fields=tuple(entries),
    )


def _parse_methods(value: str | None) -> tuple[str, ...]:
    # '#method' omitted in the api block allows both verbs.
    if value is None:
        return ("get", "post")
    methods = tuple(token.lower() for token in value.split())
    if not methods:
        raise SpecValidationError("'#method' declares no methods", field="method")
    for token in methods:
        if token not in HTTP_METHODS:
            raise SpecValidationError(f"unknown method {token!r}", field="method")
    return methods


def _build_operation(
    entries: list[FieldEntry], values: dict[str, str], declared: list[str], block: int
) -> OperationSpec:
    template = values["url"]
    if not template.startswith("/"):
        raise SpecValidationError(
            f"operation url {template!r} must start with '/'", field="url"
        )
    # A '#name' line would be read as that field, never as the parameter's shape.
    for name in declared:
        if name in OPERATION_FIELDS:
            raise SpecValidationError(
                f"url parameter {name!r} is taken by the field '#{name}'", field="url"
            )

    method_value = values.get("method", "")
    methods = method_value.split()
    if len(methods) != 1 or methods[0].lower() not in HTTP_METHODS:
        raise SpecValidationError(
            f"operation needs exactly one method, got {method_value!r}",
            field="method",
        )

    sparql_raw = values.get("sparql", "")
    if not sparql_raw:
        raise SpecValidationError("operation block declares no '#sparql'", field="sparql")
    sparql = normalize_slots(sparql_raw)
    undeclared = set(SLOT_RE.findall(sparql)) - set(declared)
    if undeclared:
        raise SpecValidationError(
            f"sparql template references undeclared parameters: "
            f"{', '.join(sorted(undeclared))}",
            field="sparql",
        )

    shapes = [
        parse_param_shape(name, values[name]) if name in values else ParamShape(name)
        for name in declared
    ]
    field_types = parse_field_types(values.get("field_type", ""))

    preprocess = _chain(values, "preprocess", declared, "a declared parameter")
    postprocess = _chain(values, "postprocess", field_types, "listed in '#field_type'")

    return OperationSpec(
        url_template=template,
        method=methods[0].lower(),
        sparql=sparql,
        params=tuple(shapes),
        preprocess=preprocess,
        postprocess=postprocess,
        description=values.get("description", ""),
        field_types=field_types,
        call_example=values.get("call", ""),
        output_json_example=values.get("output_json", ""),
        fields=tuple(entries),
        block=block,
    )


def _chain(values: dict[str, str], name: str, allowed, where: str) -> tuple[ProcessStep, ...]:
    """Parse the ``#<name>`` chain, whose every argument must be in ``allowed``."""
    steps = parse_process_chain(values[name], name) if values.get(name) else ()
    for step in steps:
        for arg in step.args:
            if arg not in allowed:
                raise SpecValidationError(
                    f"{name} argument {arg!r} is not {where}", field=name
                )
    return steps
