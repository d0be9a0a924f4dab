"""Static HTML documentation and the call-statistics dashboard.

The documentation page is bespoke, human-first HTML rendered straight from
a parsed configuration document: api metadata first, then one section per
operation in document order. Markdown in description fields is rendered by
a deliberately small renderer (headings, bullet lists, paragraphs, bold,
emphasis, links, code spans) so pages never depend on external tooling.
Every table on both pages comes from one writer, ``_table``.

Call statistics live in memory only and reset with the server: per
operation and globally, a total plus per-status-class counters and the
time of the last call.
"""

from __future__ import annotations

import html
import json
import re
import threading
import time
from typing import Iterable, Sequence

from .config import ApiSpec, ConfigDocument, OperationSpec

_BASE_CSS = """
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 60rem;
       padding: 0 1rem; color: #222; }
h1, h2, h3 { line-height: 1.2; }
h2 code { background: #f2f2f2; padding: 0.15rem 0.4rem; border-radius: 4px; }
table { border-collapse: collapse; margin: 0.5rem 0 1rem; }
th, td { border: 1px solid #ccc; padding: 0.3rem 0.7rem; text-align: left; }
th { background: #f7f7f7; }
pre { background: #f7f7f7; padding: 0.8rem; overflow-x: auto; border-radius: 4px; }
section.operation { border-top: 1px solid #ddd; margin-top: 2rem; }
dl.api-meta dt { font-weight: bold; }
dl.api-meta dd { margin: 0 0 0.5rem 0; }
"""


# ---------------------------------------------------------------------------
# Call statistics
# ---------------------------------------------------------------------------

def _new_counter() -> dict:
    return {"total": 0, "2xx": 0, "4xx": 0, "5xx": 0, "last_call": None}


def _bump(counter: dict, status: int) -> None:
    counter["total"] += 1
    key = f"{status // 100}xx"
    counter[key] = counter.get(key, 0) + 1
    counter["last_call"] = time.time()


class CallStats:
    """Thread-safe per-operation and global call counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._global = _new_counter()
        self._per_op: dict[str, dict] = {}

    def record_call(self, operation_id: str | None, status: int) -> None:
        """Count one call; calls without a matched operation count globally only."""
        with self._lock:
            _bump(self._global, status)
            if operation_id is not None:
                counter = self._per_op.setdefault(operation_id, _new_counter())
                _bump(counter, status)

    def snapshot(self) -> dict:
        """Consistent copy of all counters."""
        with self._lock:
            return {
                "global": dict(self._global),
                "operations": {op: dict(c) for op, c in self._per_op.items()},
            }


def operation_id(api: ApiSpec, operation: OperationSpec) -> str:
    """Stable identity of one operation: mount point plus URL template."""
    return api.url + operation.url_template


# ---------------------------------------------------------------------------
# Markdown rendering (descriptions only)
# ---------------------------------------------------------------------------

_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")
_BULLET_RE = re.compile(r"^[-*]\s+(.*)$")
_CODE_RE = re.compile(r"`([^`]+)`")
# Only web, mail and same-site targets link: a javascript: or data: target,
# even behind a control character a browser strips, stays escaped text.
_LINK_RE = re.compile(r"\[([^\]]+)\]\(((?:https?://|mailto:|[/#?])[^)\s]*)\)", re.IGNORECASE)
_BOLD_RE = re.compile(r"\*\*([^*]+)\*\*")
_EM_RE = re.compile(r"\*([^*]+)\*")


def markdown_to_html(text: str) -> str:
    """Render the supported markdown subset; input is untrusted text."""
    parts: list[str] = []
    paragraph: list[str] = []
    bullets: list[str] = []

    def flush_paragraph() -> None:
        if paragraph:
            parts.append(f"<p>{_inline(' '.join(paragraph))}</p>")
            paragraph.clear()

    def flush_bullets() -> None:
        if bullets:
            parts.append("<ul>" + "".join(f"<li>{b}</li>" for b in bullets) + "</ul>")
            bullets.clear()

    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            flush_paragraph()
            flush_bullets()
            continue
        heading = _HEADING_RE.match(stripped)
        if heading:
            flush_paragraph()
            flush_bullets()
            level = len(heading.group(1))
            parts.append(f"<h{level}>{_inline(heading.group(2))}</h{level}>")
            continue
        bullet = _BULLET_RE.match(stripped)
        if bullet:
            flush_paragraph()
            bullets.append(_inline(bullet.group(1)))
            continue
        flush_bullets()
        paragraph.append(stripped)

    flush_paragraph()
    flush_bullets()
    return "\n".join(parts)


def _inline(text: str) -> str:
    escaped = html.escape(text)
    spans: list[str] = []

    def stash(m: re.Match) -> str:
        spans.append(f"<code>{m.group(1)}</code>")
        return f"\x00{len(spans) - 1}\x00"

    # Code spans are literal: protect them before the other inline rules.
    escaped = _CODE_RE.sub(stash, escaped)
    escaped = _LINK_RE.sub(r'<a href="\2">\1</a>', escaped)
    escaped = _BOLD_RE.sub(r"<strong>\1</strong>", escaped)
    escaped = _EM_RE.sub(r"<em>\1</em>", escaped)
    for index, span in enumerate(spans):
        escaped = escaped.replace(f"\x00{index}\x00", span)
    return escaped


# ---------------------------------------------------------------------------
# Page rendering
# ---------------------------------------------------------------------------

def _page(title: str, body: Iterable[str], css: str | None) -> str:
    head = [
        "<!DOCTYPE html>",
        '<html lang="en">',
        "<head>",
        '<meta charset="utf-8">',
        f"<title>{html.escape(title)}</title>",
        f"<style>{_BASE_CSS}{css or ''}</style>",
        "</head>",
        "<body>",
    ]
    return "\n".join([*head, *body, "</body>", "</html>"]) + "\n"


def render_docs(
    api: ApiSpec, operations: Sequence[OperationSpec], css: str | None = None
) -> str:
    """One static documentation page for a loaded configuration document."""
    title = api.title or api.url
    body: list[str] = [f"<h1>{html.escape(title)}</h1>"]
    if api.description:
        body.append(markdown_to_html(api.description))

    meta = [
        ("Version", api.version),
        ("License", api.license),
        ("Contacts", api.contacts),
        ("Endpoint", api.endpoint),
        ("Website", api.base),
    ]
    rows = [
        f"<dt>{html.escape(label)}</dt><dd>{html.escape(value)}</dd>"
        for label, value in meta
        if value
    ]
    if rows:
        body.append('<dl class="api-meta">' + "".join(rows) + "</dl>")

    for operation in operations:
        body.append(_render_operation(api, operation))
    return _page(title, body, css)


def _render_operation(api: ApiSpec, operation: OperationSpec) -> str:
    signature = f"{operation.method.upper()} {api.url}{operation.url_template}"
    parts = ['<section class="operation">', f"<h2>{_code(signature)}</h2>"]
    if operation.description:
        parts.append(markdown_to_html(operation.description))

    if operation.params:
        rows = [(_code(s.param_name), html.escape(s.value_type), _code(s.pattern))
                for s in operation.params]
        parts.append("<h3>Parameters</h3>" + _table(("Name", "Type", "Pattern"), rows))
    if operation.field_types:
        rows = [(_code(name), html.escape(value_type))
                for name, value_type in operation.field_types.items()]
        parts.append("<h3>Result fields</h3>" + _table(("Field", "Type"), rows))

    if operation.call_example:
        href = html.escape(api.url + operation.call_example, quote=True)
        parts.append(
            "<h3>Example call</h3>"
            f'<p><a href="{href}">{_code(operation.call_example)}</a></p>'
        )
    if operation.output_json_example:
        parts.append(f"<h3>Example output</h3><pre>{_pretty_json(operation.output_json_example)}</pre>")
    parts.append("</section>")
    return "\n".join(parts)


def _pretty_json(text: str) -> str:
    try:
        pretty = json.dumps(json.loads(text), ensure_ascii=False, indent=2)
    except (ValueError, RecursionError):  # not JSON, or nested too deep to read or write
        pretty = text
    return html.escape(pretty)


def render_dashboard(
    stats: CallStats, documents: Sequence[ConfigDocument], css: str | None = None
) -> str:
    """The server's root page: per-API links and call counters."""
    snap = stats.snapshot()
    body = [
        "<h1>API dashboard</h1>",
        "<h2>All calls</h2>" + _table(_COUNTER_HEAD, [_counter_cells(snap["global"])]),
    ]

    for document in documents:
        api = document.api
        name = html.escape(api.title or api.url)
        href = html.escape(api.url, quote=True)
        body.append(f'<h2><a href="{href}">{name}</a></h2>')
        rows = []
        for operation in document.operations:
            op_id = operation_id(api, operation)
            counter = snap["operations"].get(op_id, _new_counter())
            rows.append((_code(op_id), html.escape(operation.method), *_counter_cells(counter)))
        body.append(_table(("Operation", "Method", *_COUNTER_HEAD), rows))

    return _page("API dashboard", body, css)


_COUNTER_HEAD = ("Total", "2xx", "4xx", "5xx", "Last call")


def _counter_cells(counter: dict) -> list[str]:
    """One counter's cells, in ``_COUNTER_HEAD`` order."""
    counts = [str(counter[key]) for key in ("total", "2xx", "4xx", "5xx")]
    return counts + [_stamp(counter["last_call"])]


def _code(text: str) -> str:
    return f"<code>{html.escape(text)}</code>"


def _table(head: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """One HTML table: a row of header labels, then rows of ready-made cell HTML."""
    labels = "</th><th>".join(head)
    cells = "".join("<tr><td>" + "</td><td>".join(row) + "</td></tr>" for row in rows)
    return f"<table><tr><th>{labels}</th></tr>{cells}</table>"


def _stamp(epoch: float | None) -> str:
    if epoch is None:
        return "-"
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.localtime(epoch))
