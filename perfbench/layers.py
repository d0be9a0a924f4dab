"""Per-layer metrics from the spans of a traced run.

Every ``_ms`` metric is a per-call mean: the layer's total span time inside
the measured window divided by the calls made in it. Counts are
per-call means of counters too, except the ``parses_per_*`` ratios, which
divide typed-value parses by the rows they were made for (1.0 is ideal).
"""

from __future__ import annotations

from collections import defaultdict

# name -> span names summed; each is a per-call mean in milliseconds.
_TIMES = {
    "router.match_ms": ("router.match_path", "router.extract_bindings", "router.coerce_binding"),
    "manager.call_ms": ("manager.call",),
    "manager.find_api_ms": ("manager.find_api",),
    "pipeline.preprocess_ms": ("pipeline.preprocess",),
    "pipeline.postprocess_ms": ("pipeline.postprocess",),
    "client.dispatch_ms": ("client.dispatch",),
    "client.substitute_ms": ("client.substitute",),
    "client.parse_ms": ("client.parse",),
    "refine.plan_ms": ("refine.plan",),
    "refine.require_ms": ("refine.require",),
    "refine.filter_ms": ("refine.filter",),
    "refine.sort_ms": ("refine.sort",),
    "refine.json_ms": ("refine.json",),
    "refine.serialize_json_ms": ("refine.serialize_json",),
    "refine.serialize_csv_ms": ("refine.serialize_csv",),
    "docs.dashboard_ms": ("docs.dashboard",),
    "docs.docs_ms": ("docs.docs",),
    "docs.record_ms": ("docs.record",),
}

# name -> (unit, counter, span names whose counter is summed); per-call means.
_COUNTS = {
    "router.routes_scanned_per_call": ("count", "routes_scanned", ("router.match_path",)),
    "client.upstream_bytes": ("B", "upstream_bytes", ("client.dispatch",)),
    "client.rows_in": ("rows", "rows", ("client.parse",)),
    "refine.rows_out": ("rows", "rows_out", ("refine.serialize_json", "refine.serialize_csv")),
    "values.compare_calls": ("count", "compare_calls", ("refine.filter", "refine.sort")),
}

# Setup spans, summed over the whole traced process (they run once).
_SETUP = {"config.load_ms": "config.load", "router.compile_ms": "router.compile"}

UNITS = {
    **{name: "ms" for name in _TIMES},
    **{name: unit for name, (unit, _, _) in _COUNTS.items()},
    **{name: "ms" for name in _SETUP},
    "pipeline.self_ms": "ms",
    "client.connections_per_call": "count",
    "testkit.mock_serve_ms": "ms",
    "values.parses_per_sorted_row": "parses/row",
    "values.parses_per_filtered_row": "parses/row",
    "server.overhead_ms": "ms",
    "server.connections_per_call": "count",
    "cli.import_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}


def layer_metrics(spans, window, calls: int, *, manager_latency_ms: float,
                  mock: dict, client_connections: int, import_ms: float,
                  untraced_latency_ms: float, traced_latency_ms: float) -> dict[str, float]:
    """Every per-layer metric; ``spans`` as written by tracing.dump.

    ``window`` is the measured interval in monotonic nanoseconds;
    a call belongs to it when its root span starts inside it.
    ``manager_latency_ms`` is the caller-side mean latency of the calls that
    reach ApiManager.call, for the surface's own overhead.
    """
    start, end = window
    in_window = {s[0] for s in spans if s[2] == 0 and start <= s[4] <= end}
    time_ns: dict[str, int] = defaultdict(int)
    spans_of: dict[str, int] = defaultdict(int)
    counts: dict[tuple[str, str], int] = defaultdict(int)
    child_ns: dict[int, int] = defaultdict(int)
    setup_ns: dict[str, int] = defaultdict(int)
    for call_id, span_id, parent_id, name, t0, t1, span_counts in spans:
        setup_ns[name] += t1 - t0
        if call_id not in in_window:
            continue
        time_ns[name] += t1 - t0
        spans_of[name] += 1
        child_ns[parent_id] += t1 - t0
        for counter, value in (span_counts or {}).items():
            counts[name, counter] += value
    execute_self = sum(
        (s[5] - s[4]) - child_ns[s[1]]
        for s in spans
        if s[3] == "pipeline.execute" and s[0] in in_window
    )

    per_call = lambda total: total / calls
    ms = lambda ns: ns / 1e6
    out = {name: per_call(ms(sum(time_ns[n] for n in names))) for name, names in _TIMES.items()}
    for name, (_, counter, names) in _COUNTS.items():
        out[name] = per_call(sum(counts[n, counter] for n in names))
    out.update({name: ms(setup_ns[span]) for name, span in _SETUP.items()})
    out["pipeline.self_ms"] = per_call(ms(execute_self))
    out["client.connections_per_call"] = per_call(mock["connections"])
    out["testkit.mock_serve_ms"] = per_call(ms(mock["serve_ns"]))
    out["values.parses_per_sorted_row"] = _ratio(
        counts["refine.sort", "parses"], counts["refine.sort", "sorted_rows"]
    )
    out["values.parses_per_filtered_row"] = _ratio(
        counts["refine.filter", "parses"], counts["refine.filter", "typed_rows"]
    )
    manager_span_ms = _ratio(ms(time_ns["manager.call"]), spans_of["manager.call"])
    out["server.overhead_ms"] = manager_latency_ms - manager_span_ms
    out["server.connections_per_call"] = per_call(client_connections)
    out["cli.import_ms"] = import_ms
    out["trace.overhead_ms"] = traced_latency_ms - untraced_latency_ms
    out["trace.overhead_pct"] = 100.0 * _ratio(out["trace.overhead_ms"], untraced_latency_ms)
    return {name: out[name] for name in sorted(out)}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
