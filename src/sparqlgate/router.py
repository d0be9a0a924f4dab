"""URL routing: match call paths against operation templates.

Each operation's URL template compiles to one anchored regular expression:
literal text is escaped and every ``{name}`` placeholder becomes a named
group holding that parameter's declared pattern. Matching runs against the
percent-encoded path, so an encoded slash never creates path structure;
captured values are percent-decoded afterwards. Parameter values may span
``/`` whenever their pattern allows it — identifiers like DOIs depend on
this.

The steps stay separate (match, method check, binding extraction, typed
coercion); ``pipeline.resolve`` is the one place that turns a failed match
into a 404, and ``pipeline.execute`` the one place that composes them.
"""

from __future__ import annotations

import re
import urllib.parse
from dataclasses import dataclass

from .config import ApiSpec, OperationSpec, ParamShape, PLACEHOLDER_RE
from .errors import MethodNotAllowedError, SpecValidationError, TypeMismatchError
from .values import is_valid


@dataclass(frozen=True)
class CompiledRoute:
    operation: OperationSpec
    matcher: re.Pattern[str]


def compile_matcher(
    api_base: str, url_template: str, params: tuple[ParamShape, ...]
) -> re.Pattern[str]:
    """Compile api base + template into one anchored path regex."""
    shapes = {shape.param_name: shape for shape in params}
    source = api_base + url_template
    pieces = ["^"]
    cursor = 0
    for m in PLACEHOLDER_RE.finditer(source):
        pieces.append(re.escape(source[cursor : m.start()]))
        name = m.group(1)
        pieces.append(f"(?P<{name}>{shapes[name].pattern})")
        cursor = m.end()
    pieces.append(re.escape(source[cursor:]))
    pieces.append(r"\Z")
    try:
        return re.compile("".join(pieces))
    except re.error as exc:
        raise SpecValidationError(
            f"url template {url_template!r} does not compile: {exc}", field="url"
        ) from None


def compile_routes(
    api: ApiSpec, operations: tuple[OperationSpec, ...]
) -> tuple[CompiledRoute, ...]:
    """Compile every operation of one document, preserving document order."""
    routes = []
    for op in operations:
        try:
            routes.append(CompiledRoute(op, compile_matcher(api.url, op.url_template, op.params)))
        except SpecValidationError as exc:
            raise exc.pinned(block_index=op.block) from None
    return tuple(routes)


def match_path(
    routes: tuple[CompiledRoute, ...], full_path: str
) -> tuple[CompiledRoute, re.Match[str]] | None:
    """First route (document order) whose matcher fully matches the path."""
    for route in routes:
        m = route.matcher.match(full_path)
        if m is not None:
            return route, m
    return None


def extract_bindings(operation: OperationSpec, m: re.Match[str]) -> dict[str, str]:
    """Percent-decode the captured parameter values of a successful match."""
    return {
        shape.param_name: urllib.parse.unquote(m.group(shape.param_name))
        for shape in operation.params
    }


def require_method(operation: OperationSpec, method: str) -> None:
    """Reject a call whose method differs from the matched operation's."""
    if method != operation.method:
        raise MethodNotAllowedError(
            f"operation {operation.url_template!r} accepts "
            f"{operation.method}, not {method}"
        )


def coerce_binding(raw: str, shape: ParamShape) -> str:
    """Check a decoded binding against its declared value type.

    The value stays text — typing only gates admission (an ``int`` shape
    rejects "12a" even when the pattern allows it).
    """
    if not is_valid(raw, shape.value_type):
        raise TypeMismatchError(
            f"parameter '{shape.param_name}' value {raw!r} is not a valid "
            f"{shape.value_type}"
        )
    return raw
