"""Embeddable facade: load configuration files, resolve and execute calls.

An ApiManager owns one or more loaded configuration documents, each with
its compiled routes and its own transform registry (built-ins plus the
document's optional plugin). Construction fails fast on any configuration
problem. A call URL is served by the document whose api base is the
longest prefix of its path.

The same execution path backs every surface — CLI one-shot, HTTP server,
and this facade — which is what makes their bodies byte-identical, and it
is also the one place where each call is recorded in the statistics.
"""

from __future__ import annotations

import importlib.util
import os
import urllib.parse
from dataclasses import dataclass

from .config import ConfigDocument, OperationSpec, load_document
from .docs import CallStats, operation_id
from .errors import ConfigError, NotFoundError, SpecValidationError, error_body
from .pipeline import (
    CallOutcome,
    ProcessRegistry,
    execute,
    register_builtins,
)
from .refine import CSV_MEDIA_TYPE, JSON_MEDIA_TYPE
from .router import CallRequest, CompiledRoute, compile_routes, match_path


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


class ApiManager:
    """Load config files and execute complete call URLs programmatically."""

    def __init__(self, conf_files: list[str] | tuple[str, ...]):
        self.stats = CallStats()
        self.apis: list[LoadedApi] = []
        bases: dict[str, str] = {}
        for path in conf_files:
            # Every load error of this file is pinned to it here.
            try:
                document = load_document(path)
                base = document.api.url
                if base in bases:
                    raise SpecValidationError(
                        f"api base {base!r} is already declared by {bases[base]!r}"
                    )
                bases[base] = path
                registry = register_builtins(ProcessRegistry())
                if document.api.addon:
                    _load_addon(path, document.api.addon, registry)
                for operation in document.operations:
                    registry.validate_chains(base, operation)
                routes = compile_routes(document.api, document.operations)
            except ConfigError as exc:
                raise exc.pinned(path=path) from None
            self.apis.append(LoadedApi(document, routes, registry, path))

    @property
    def documents(self) -> list[ConfigDocument]:
        return [api.document for api in self.apis]

    def find_api(self, path: str) -> LoadedApi | None:
        """The loaded document whose api base is the longest prefix of path."""
        best: LoadedApi | None = None
        for api in self.apis:
            base = api.base
            if path == base or path.startswith(base + "/"):
                if best is None or len(base) > len(best.base):
                    best = api
        return best

    def call(
        self, url: str, method: str = "get", accept: str | None = None
    ) -> tuple[CallOutcome, LoadedApi | None, OperationSpec | None]:
        """Execute one complete call URL and record it in ``stats``; never raises.

        Returns the outcome plus the document and operation that served it
        (None on routing failure). A call that matched no operation counts
        in the global statistics only.
        """
        path, _, query = url.partition("?")
        api = self.find_api(path)
        operation = None
        if api is None:
            exc = NotFoundError(f"no loaded api serves {path!r}")
            outcome = CallOutcome(404, error_body(exc), JSON_MEDIA_TYPE)
        else:
            request = CallRequest(
                full_path=path,
                method=method.lower(),
                query_params=_query_pairs(query),
                accept_header=accept,
            )
            outcome, operation = execute(
                api.document.api, api.routes, api.registry, request
            )
        op_id = operation_id(api.document.api, operation) if operation is not None else None
        self.stats.record_call(op_id, outcome.status)
        return outcome, api, operation

    def get_op(self, op_complete_url: str) -> "OperationHandle":
        """Resolve a complete call URL to a reusable operation handle.

        Raises NotFoundError when no loaded operation matches the path.
        Only the path is checked here; the method, parameter types and
        refinements are checked by every exec.
        """
        path = op_complete_url.partition("?")[0]
        api = self.find_api(path)
        if api is None:
            raise NotFoundError(f"no loaded api serves {path!r}")
        found = match_path(api.routes, path)
        if found is None:
            raise NotFoundError(f"no operation matches {path!r}")
        return OperationHandle(self, op_complete_url, found[0].operation)


@dataclass(frozen=True)
class OperationHandle:
    """One resolved call URL; exec may be invoked repeatedly."""

    manager: ApiManager
    url: str
    operation: OperationSpec

    def exec(
        self, method: str = "get", content_type: str = "json"
    ) -> tuple[int, str]:
        """Run the call; returns (status code, body text).

        content_type plays the Accept-header role, so a ``format``
        refinement in the handle's URL still wins.
        """
        accept = CSV_MEDIA_TYPE if content_type == "csv" else JSON_MEDIA_TYPE
        outcome, _, _ = self.manager.call(self.url, method=method, accept=accept)
        return outcome.status, outcome.body


def _query_pairs(query: str) -> tuple[tuple[str, str], ...]:
    return tuple(urllib.parse.parse_qsl(query, keep_blank_values=True))


def _load_addon(conf_path: str, addon: str, registry: ProcessRegistry) -> None:
    """Load the document's plugin module and let it register transforms.

    The addon value names a Python file, resolved relative to the
    configuration file's directory ('.py' appended when missing); the
    module must expose register(registry).
    """
    filename = addon if addon.endswith(".py") else addon + ".py"
    candidate = os.path.join(os.path.dirname(os.path.abspath(conf_path)), filename)
    if not os.path.isfile(candidate):
        raise SpecValidationError(f"addon file {candidate!r} not found", field="addon")
    spec = importlib.util.spec_from_file_location(
        f"_gateway_addon_{os.path.splitext(filename)[0]}", candidate
    )
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except Exception as exc:
        raise SpecValidationError(
            f"addon {filename!r} does not import: {type(exc).__name__}: {exc}", field="addon"
        ) from None
    register = getattr(module, "register", None)
    if not callable(register):
        raise SpecValidationError(
            f"addon {filename!r} defines no register(registry) function",
            field="addon",
        )
    register(registry)
