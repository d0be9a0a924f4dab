"""Span tracing from outside the program, for the traced benchmark run.

``install()`` replaces the module attributes through which the gateway's
layers call each other (``sparqlgate.pipeline.dispatch``,
``sparqlgate.refine.apply_sort``, ``sparqlgate.values.parse_typed``, ...)
with wrappers that record spans. Nothing under ``src/`` changes: a wrapper
sits at the call site, so the callee's own behaviour is untouched.

A span is ``[call_id, span_id, parent_id, name, start_ns, end_ns, counts]``.
Spans opened on a thread with no open span start a new call id, so the
spans of one request share it. Counters (parses, comparisons, rows, bytes)
are added to the innermost open span. Spans stay in memory and are written
out as JSON when the process exits.

Run as a script, this module is the traced gateway host: it installs the
wrappers and then runs the ``sparqlgate`` command line with the remaining
arguments, exactly as ``python -m sparqlgate`` would::

    python3 perfbench/tracing.py SPANS.json -s conf.hf -w 127.0.0.1:8080
"""

from __future__ import annotations

import atexit
import itertools
import json
import threading
import time

_now = time.monotonic_ns  # CLOCK_MONOTONIC: comparable across processes

_local = threading.local()
_ids = itertools.count(1)
SPANS: list[list] = []


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def add_count(name: str, amount: int = 1) -> None:
    """Add to a counter of the innermost open span on this thread."""
    stack = _stack()
    if stack:
        counts = stack[-1][2]
        counts[name] = counts.get(name, 0) + amount


def span(name: str, fn, after=None):
    """Wrap ``fn`` so each call records a span; ``after(args, result)`` may add counts."""

    def wrapper(*args, **kwargs):
        stack = _stack()
        span_id = next(_ids)
        if stack:
            call_id, parent_id = stack[-1][0], stack[-1][1]
        else:
            call_id, parent_id = span_id, 0
        frame = [call_id, span_id, {}]
        stack.append(frame)
        start = _now()
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        finally:
            end = _now()
            stack.pop()
            SPANS.append([call_id, span_id, parent_id, name, start, end, frame[2] or None])

    return wrapper


def counter(name: str, fn):
    """Wrap ``fn`` so each call only bumps ``name`` on the innermost open span."""

    def wrapper(*args, **kwargs):
        add_count(name)
        return fn(*args, **kwargs)

    return wrapper


def _routes_scanned(args, found) -> None:
    routes = args[0]
    if found is None:
        scanned = len(routes)
    else:
        scanned = next(i for i, route in enumerate(routes, 1) if route is found[0])
    add_count("routes_scanned", scanned)


def _upstream_bytes(args, result) -> None:
    add_count("upstream_bytes", len(result[2].encode("utf-8")))


def _rows_in(args, table) -> None:
    add_count("rows", len(table.rows))


def _rows_out(args, text) -> None:
    add_count("rows_out", len(args[0].rows))


def _filter_rows(args, table) -> None:
    spec = args[1]
    if spec.operator is not None:
        add_count("typed_rows", len(args[0].rows))


def _sort_rows(args, table) -> None:
    add_count("sorted_rows", len(args[0].rows))


def install() -> None:
    """Replace the call-site attributes of every traced layer with wrappers."""
    import sparqlgate.docs as docs
    import sparqlgate.manager as manager
    import sparqlgate.pipeline as pipeline
    import sparqlgate.refine as refine
    import sparqlgate.server as server
    import sparqlgate.values as values

    spans = (
        (manager, "load_document", "config.load", None),
        (manager, "compile_routes", "router.compile", None),
        (manager, "execute", "pipeline.execute", None),
        (manager.ApiManager, "call", "manager.call", None),
        (manager.ApiManager, "find_api", "manager.find_api", None),
        (pipeline, "match_path", "router.match_path", _routes_scanned),
        (pipeline, "extract_bindings", "router.extract_bindings", None),
        (pipeline, "coerce_binding", "router.coerce_binding", None),
        (pipeline, "require_method", "router.require_method", None),
        (pipeline, "run_preprocess", "pipeline.preprocess", None),
        (pipeline, "substitute", "client.substitute", None),
        (pipeline, "dispatch", "client.dispatch", _upstream_bytes),
        (pipeline, "parse_results", "client.parse", _rows_in),
        (pipeline, "run_postprocess", "pipeline.postprocess", None),
        (pipeline, "parse_refinements", "refine.plan", None),
        (pipeline, "apply_plan", "refine.apply_plan", None),
        (refine, "apply_require", "refine.require", None),
        (refine, "apply_filter", "refine.filter", _filter_rows),
        (refine, "apply_sort", "refine.sort", _sort_rows),
        (refine, "apply_json_array", "refine.json", None),
        (refine, "apply_json_dict", "refine.json", None),
        (refine, "serialize_json", "refine.serialize_json", _rows_out),
        (refine, "serialize_csv", "refine.serialize_csv", _rows_out),
        (server, "render_dashboard", "docs.dashboard", None),
        (server, "render_docs", "docs.docs", None),
        (server._Handler, "_handle", "server.handle", None),
        (docs.CallStats, "record_call", "docs.record", None),
    )
    for owner, attribute, name, after in spans:
        setattr(owner, attribute, span(name, getattr(owner, attribute), after))
    refine.compare = counter("compare_calls", refine.compare)
    values.parse_typed = counter("parses", values.parse_typed)


def dump(path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(SPANS, handle)


def main(argv: list[str]) -> None:
    import runpy
    import sys

    spans_path, cli_args = argv[0], argv[1:]
    install()
    atexit.register(dump, spans_path)
    sys.argv = ["sparqlgate", *cli_args]
    runpy.run_module("sparqlgate", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    import sys

    main(sys.argv[1:])
