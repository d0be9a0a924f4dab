"""Exception hierarchy shared by all gateway modules."""

from __future__ import annotations

import json


# ---------------------------------------------------------------------------
# Configuration-document errors (raised while loading, never during a call)
# ---------------------------------------------------------------------------


class ConfigError(Exception):
    """Base class for configuration-document problems.

    Carries the file, the block index (the first block is 1) and the field
    name that triggered the error, when known, so messages point at the
    offending spot.
    """

    def __init__(self, message: str, *, block_index: int | None = None,
                 field: str | None = None, path: str | None = None):
        self.bare_message = message
        self.block_index = block_index
        self.field = field
        self.path = path
        where = []
        if path is not None:
            where.append(f"file {path!r}")
        if block_index is not None:
            where.append(f"block {block_index}")
        if field is not None:
            where.append(f"field #{field}")
        if where:
            message = f"{message} ({', '.join(where)})"
        super().__init__(message)

    def pinned(self, *, block_index: int | None = None, path: str | None = None) -> "ConfigError":
        """Copy of this error with its block and file filled in where still unknown."""
        return type(self)(self.bare_message, block_index=self.block_index or block_index,
                          field=self.field, path=self.path or path)


class DocumentStructureError(ConfigError):
    """Document-level structure is broken: content before the first #url,
    no api block, or a missing/unknown #type."""


class DuplicateFieldError(ConfigError):
    """The same field name appears twice within one block."""


class ParamShapeError(ConfigError):
    """A parameter shape has an unknown type token or an uncompilable regex."""


class ProcessChainError(ConfigError):
    """A preprocess/postprocess chain does not parse."""


class SpecValidationError(ConfigError):
    """A parsed block violates a cross-field constraint (bad method, bad URL,
    undeclared query placeholder, and similar)."""


class UnknownFunctionError(ConfigError):
    """A process chain names a function absent from the registry."""


# ---------------------------------------------------------------------------
# Call-time errors (each maps to an HTTP-like status code)
# ---------------------------------------------------------------------------


class CallError(Exception):
    """Base class for errors raised while serving one call."""

    status: int = 500


class NotFoundError(CallError):
    status = 404


class MethodNotAllowedError(CallError):
    status = 405


class TypeMismatchError(CallError):
    """Parameter matched its pattern but does not parse under its type."""

    status = 400


class RefinementError(CallError):
    """A refinement cannot be applied (bad value, illegal combination)."""

    status = 400


class RefinementSyntaxError(RefinementError):
    """A require/filter/sort/format/json parameter does not parse."""


class EndpointUnreachableError(CallError):
    """Network failure or timeout while contacting the SPARQL endpoint."""

    status = 500


class EndpointStatusError(CallError):
    """The SPARQL endpoint answered with a non-2xx status."""

    status = 500

    def __init__(self, upstream_status: int, detail: str = ""):
        self.upstream_status = upstream_status
        message = f"SPARQL endpoint returned status {upstream_status}"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


class ResultParseError(CallError):
    """The endpoint response is not a well-formed SPARQL results document."""

    status = 500


class TransformError(CallError):
    """A preprocess/postprocess transform raised or broke its contract."""

    status = 500

    def __init__(self, function_name: str, detail: str):
        self.function_name = function_name
        super().__init__(f"transform '{function_name}' failed: {detail}")


def error_body(exc: CallError) -> str:
    """Machine-readable JSON body used for every non-200 outcome."""
    return json.dumps({"error": str(exc), "status": exc.status})
