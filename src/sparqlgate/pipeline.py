"""End-to-end execution of one call.

The stages run in a fixed order: route resolution, typed coercion of the
path parameters, the preprocess chain, refinement parsing, template
substitution, endpoint dispatch, results parsing, the postprocess chain, and
finally refinement application with serialization. Refinements are parsed
before the endpoint is asked, so a malformed one costs no upstream query.
Preprocess, postprocess and refinements are true no-ops when absent: without
them the body is exactly the serialized parse of the endpoint response.

Every failure surfaces as a CallOutcome whose status mirrors the error
(404/405 routing, 400 bad parameter or refinement, 500 endpoint or
transform trouble) and whose body is the uniform JSON error payload.
``resolve`` is the one place where a path that no api or no operation
serves becomes a 404, for ``execute`` and ``ApiManager.get_op`` alike.
"""

from __future__ import annotations

import logging
import re
import urllib.parse
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .client import ResultTable, dispatch, parse_results, substitute
from .config import ConfigDocument, OperationSpec, ProcessStep
from .errors import (
    CallError,
    NotFoundError,
    TransformError,
    UnknownFunctionError,
    error_body,
)
from .refine import JSON_MEDIA_TYPE, apply_plan, parse_refinements
from .router import (
    CallRequest,
    CompiledRoute,
    coerce_binding,
    extract_bindings,
    match_path,
    require_method,
)

log = logging.getLogger(__name__)

ParamTransform = Callable[..., object]
TableTransform = Callable[..., ResultTable]


@dataclass(frozen=True)
class CallOutcome:
    """What one call produced: status code, body text, media type."""

    status: int
    body: str
    content_type: str


@dataclass
class ProcessRegistry:
    """Named transforms available to preprocess/postprocess chains.

    Populated once at startup (built-ins plus one optional plugin) and
    treated as immutable afterwards; transforms must be pure or internally
    synchronized, since calls run concurrently.
    """

    param_fns: dict[str, ParamTransform] = field(default_factory=dict)
    table_fns: dict[str, TableTransform] = field(default_factory=dict)

    def register_param(self, name: str, fn: ParamTransform) -> None:
        self.param_fns[name] = fn

    def register_table(self, name: str, fn: TableTransform) -> None:
        self.table_fns[name] = fn

    def validate_chains(self, base: str, operation: OperationSpec) -> None:
        """Check every chained function exists; raised at spec-load time.

        ``base`` is the api's mount point; with the URL template it names
        the operation in the error.
        """
        where = f"operation {base + operation.url_template!r}"
        for name, chain, registered in (
            ("preprocess", operation.preprocess, self.param_fns),
            ("postprocess", operation.postprocess, self.table_fns),
        ):
            for step in chain:
                if step.function not in registered:
                    raise UnknownFunctionError(
                        f"{name} function {step.function!r} of {where} is not registered",
                        block_index=operation.block,
                        field=name,
                    )


@dataclass(frozen=True)
class LoadedApi:
    """One configuration document, ready to serve calls."""

    document: ConfigDocument
    routes: tuple[CompiledRoute, ...]
    registry: ProcessRegistry
    source_path: str

    @property
    def base(self) -> str:
        return self.document.api.url


def register_builtins(registry: ProcessRegistry) -> ProcessRegistry:
    """Ship the stock parameter transforms; table transforms are all plugin-provided."""
    registry.register_param("lower", _variadic(str.lower))
    registry.register_param("upper", _variadic(str.upper))
    registry.register_param("encode", _variadic(lambda v: urllib.parse.quote(v, safe="")))
    registry.register_param("decode", _variadic(urllib.parse.unquote))
    return registry


def _variadic(fn: Callable[[str], str]) -> ParamTransform:
    def transform(*values: str) -> tuple[str, ...]:
        return tuple(fn(v) for v in values)

    return transform


# ---------------------------------------------------------------------------
# Chain execution
# ---------------------------------------------------------------------------

def run_preprocess(
    registry: ProcessRegistry,
    chain: tuple[ProcessStep, ...],
    bindings: Mapping[str, str],
) -> dict[str, str]:
    """Apply a parameter chain left to right, rebinding transformed values.

    Each step reads its named parameters' current values and writes back
    exactly as many values (arity preserved). A transform returning a bare
    string counts as one value.
    """
    out = dict(bindings)
    for step in chain:
        fn = registry.param_fns[step.function]
        inputs = tuple(out[name] for name in step.args)
        try:
            result = fn(*inputs)
        except Exception as exc:
            raise TransformError(step.function, str(exc)) from None
        values = (result,) if isinstance(result, str) else tuple(result or ())
        if len(values) != len(inputs):
            raise TransformError(
                step.function,
                f"arity changed: {len(inputs)} in, {len(values)} out",
            )
        for name, value in zip(step.args, values):
            if not isinstance(value, str):
                raise TransformError(step.function, "produced a non-text value")
            out[name] = value
    return out


def run_postprocess(
    registry: ProcessRegistry,
    chain: tuple[ProcessStep, ...],
    table: ResultTable,
) -> ResultTable:
    """Apply a table chain left to right on the evolving table."""
    for step in chain:
        fn = registry.table_fns[step.function]
        try:
            table = fn(table, *step.args)
        except TransformError:
            raise
        except Exception as exc:
            raise TransformError(step.function, str(exc)) from None
        if not isinstance(table, ResultTable):
            raise TransformError(step.function, "did not return a result table")
    return table


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------

def resolve(api: LoadedApi | None, path: str) -> tuple[CompiledRoute, re.Match[str]]:
    """The route that serves path, and its match; NotFoundError when none does."""
    if api is None:
        raise NotFoundError(f"no loaded api serves {path!r}")
    found = match_path(api.routes, path)
    if found is None:
        raise NotFoundError(f"no operation matches {path!r}")
    return found


def execute(
    api: LoadedApi | None, request: CallRequest
) -> tuple[CallOutcome, OperationSpec | None]:
    """Run the whole pipeline; returns the outcome plus the matched operation.

    Never raises: call-time errors become outcomes with the error's status
    and the uniform JSON error body (content type application/json). The
    matched operation — None when routing failed — feeds call statistics.
    """
    operation: OperationSpec | None = None
    try:
        route, m = resolve(api, request.full_path)
        # The operation is pinned before the method check so a 405 is still
        # attributed to it in the call statistics.
        operation = route.operation
        require_method(operation, request.method)

        raw = extract_bindings(operation, m)
        bindings = {
            shape.param_name: coerce_binding(raw[shape.param_name], shape)
            for shape in operation.params
        }
        bindings = run_preprocess(api.registry, operation.preprocess, bindings)
        plan = parse_refinements(request.query_params)
        query = substitute(operation.sparql, bindings)
        # The upstream text lives only while it is parsed; the rows hold the rest.
        table = parse_results(
            dispatch(api.document.api.endpoint, query, operation.method)[2],
            field_types=operation.field_types,
        )
        table = run_postprocess(api.registry, operation.postprocess, table)
        content_type, text = apply_plan(table, plan, request.accept_header)
        return CallOutcome(200, text, content_type), operation
    except CallError as exc:
        return CallOutcome(exc.status, error_body(exc), JSON_MEDIA_TYPE), operation
    except Exception as exc:  # never leak a traceback to the caller
        log.exception("pipeline failure for %s", request.full_path)
        wrapped = CallError(f"internal error: {exc}")
        return CallOutcome(500, error_body(wrapped), JSON_MEDIA_TYPE), operation

