from __future__ import annotations

import dataclasses
import html
import random
import re
import threading

import pytest

from checks import assert_valid_html
from sparqlgate.cli import cli_main
from sparqlgate.config import parse_document
from sparqlgate.docs import (
    CallStats,
    markdown_to_html,
    operation_id,
    render_dashboard,
    render_docs,
)
from sparqlgate.testkit import fixture_citations


def _fixture_doc():
    config, _ = fixture_citations()
    return parse_document(config)


# ---------------------------------------------------------------------------
# Markdown subset
# ---------------------------------------------------------------------------


def test_markdown_paragraphs_join_adjacent_lines():
    assert markdown_to_html("one\ntwo\n\nthree") == "<p>one two</p>\n<p>three</p>"


def test_markdown_headings_and_bullets():
    out = markdown_to_html("# Title\n- first\n* second\ntail")
    assert "<h1>Title</h1>" in out
    assert "<ul><li>first</li><li>second</li></ul>" in out
    assert "<p>tail</p>" in out


def test_markdown_inline_rules():
    out = markdown_to_html("use `format=csv` with **bold** and *em* via [link](http://x/)")
    assert "<code>format=csv</code>" in out
    assert "<strong>bold</strong>" in out
    assert "<em>em</em>" in out
    assert '<a href="http://x/">link</a>' in out


def test_markdown_escapes_untrusted_text():
    out = markdown_to_html("<script>alert(1)</script> & `<code & stuff>`")
    assert "<script>" not in out
    assert "&lt;script&gt;" in out
    assert "&amp;" in out
    assert "<code>&lt;code &amp; stuff&gt;</code>" in out


@pytest.mark.parametrize("target", [
    "javascript:alert(document.cookie)",
    "JavaScript:alert(1)",
    "data:text/html;base64,PHNjcmlwdD4=",
    "vbscript:msgbox(1)",
    "\x01javascript:alert(1)",
])
def test_markdown_unsafe_link_targets_stay_text(target):
    out = markdown_to_html(f"see [docs]({target})")
    assert "<a" not in out
    assert "[docs](" in out


@pytest.mark.parametrize("target", [
    "http://example.org/x",
    "https://example.org/x?a=1",
    "mailto:ops@example.org",
    "/api/v1",
    "#frag",
])
def test_markdown_safe_link_targets_link(target):
    assert f'<a href="{html.escape(target)}">docs</a>' in markdown_to_html(f"see [docs]({target})")


def test_markdown_code_spans_shield_inner_markup():
    out = markdown_to_html("`*not em*` but *yes em*")
    assert "<code>*not em*</code>" in out
    assert "<em>yes em</em>" in out


# ---------------------------------------------------------------------------
# Documentation page
# ---------------------------------------------------------------------------


def test_docs_page_is_valid_html():
    doc = _fixture_doc()
    assert_valid_html(render_docs(doc.api, doc.operations))


def test_docs_page_lists_each_operation_template_once():
    doc = _fixture_doc()
    page = render_docs(doc.api, doc.operations)
    for operation in doc.operations:
        assert page.count(doc.api.url + operation.url_template) == 1
    assert "GET /api/v1/citations/{doi}" in page
    assert "POST /api/v1/stats/{prefix}" in page


def test_docs_page_carries_api_metadata_and_examples():
    doc = _fixture_doc()
    page = render_docs(doc.api, doc.operations)
    assert "<h1>Citation Gateway</h1>" in page
    assert "1.0.0" in page
    assert "CC0" in page
    assert "api@example.org" in page
    assert "<code>format=csv</code>" in page  # description markdown rendered
    assert '<a href="/api/v1/citations/10.1108/jd-12-2013-0166">' in page
    assert "&quot;citing&quot;: &quot;10.3233/ds-190019&quot;" in page  # pretty JSON example
    assert "<td>datetime</td>" in page  # field-type table
    # An example output that is not JSON is shown escaped, as written.
    odd = dataclasses.replace(doc.operations[0], output_json_example='{"a": <b> & c')
    page = render_docs(doc.api, (odd,))
    assert "<pre>{&quot;a&quot;: &lt;b&gt; &amp; c</pre>" in page


def test_an_example_output_nested_too_deep_is_shown_as_written(tmp_path, capsys):
    # json.loads and json.dumps both give up on deep nesting with a RecursionError.
    deep = "[" * 1500 + "]" * 1500
    doc = _fixture_doc()
    odd = dataclasses.replace(doc.operations[0], output_json_example=deep)
    assert f"<pre>{deep}</pre>" in render_docs(doc.api, (odd,))
    config, _ = fixture_citations()
    config = re.sub(r"(?m)^#output_json .*$", f"#output_json {deep}", config)
    path = tmp_path / "deep.hf"
    path.write_text(config, encoding="utf-8")
    assert cli_main(["-s", str(path), "-d"]) == 0
    assert f"<pre>{deep}</pre>" in capsys.readouterr().out


def test_docs_render_is_deterministic():
    doc = _fixture_doc()
    assert render_docs(doc.api, doc.operations) == render_docs(doc.api, doc.operations)


def test_docs_without_operations_or_optional_metadata():
    text = "#url /bare\n#type api\n#endpoint http://127.0.0.1:1/sparql\n"
    doc = parse_document(text)
    page = render_docs(doc.api, doc.operations)
    assert_valid_html(page)
    assert "<h1>/bare</h1>" in page  # falls back to the mount point
    assert "Version" not in page


def test_custom_css_is_embedded():
    doc = _fixture_doc()
    page = render_docs(doc.api, doc.operations, css="body { color: teal; }")
    assert "color: teal" in page


# ---------------------------------------------------------------------------
# Call statistics
# ---------------------------------------------------------------------------


def test_counters_track_status_classes_per_operation_and_globally():
    stats = CallStats()
    stats.record_call("/api/v1/citations/{doi}", 200)
    stats.record_call("/api/v1/citations/{doi}", 404)
    stats.record_call("/api/v1/stats/{prefix}", 500)
    stats.record_call(None, 404)  # unmatched: global only
    snap = stats.snapshot()
    assert snap["global"]["total"] == 4
    assert snap["global"]["2xx"] == 1
    assert snap["global"]["4xx"] == 2
    assert snap["global"]["5xx"] == 1
    assert snap["global"]["last_call"] is not None
    citations = snap["operations"]["/api/v1/citations/{doi}"]
    assert (citations["total"], citations["2xx"], citations["4xx"]) == (2, 1, 1)
    assert len(snap["operations"]) == 2


def test_status_classes_always_sum_to_total():
    stats = CallStats()
    rng = random.Random(8)
    ops = ("/a", "/b", None)
    for _ in range(500):
        stats.record_call(rng.choice(ops), rng.choice((200, 201, 400, 404, 405, 500)))
    snap = stats.snapshot()
    for counter in [snap["global"], *snap["operations"].values()]:
        assert counter["2xx"] + counter["4xx"] + counter["5xx"] == counter["total"]


def test_recording_is_thread_safe():
    stats = CallStats()
    per_thread, threads = 500, 8

    def hammer():
        for _ in range(per_thread):
            stats.record_call("/op", 200)

    workers = [threading.Thread(target=hammer) for _ in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    snap = stats.snapshot()
    assert snap["global"]["total"] == per_thread * threads
    assert snap["operations"]["/op"]["2xx"] == per_thread * threads


def test_snapshot_is_a_copy():
    stats = CallStats()
    stats.record_call("/op", 200)
    snap = stats.snapshot()
    snap["global"]["total"] = 999
    snap["operations"]["/op"]["total"] = 999
    assert stats.snapshot()["global"]["total"] == 1
    assert stats.snapshot()["operations"]["/op"]["total"] == 1


# ---------------------------------------------------------------------------
# Dashboard page
# ---------------------------------------------------------------------------


def test_dashboard_reflects_counters():
    doc = _fixture_doc()
    stats = CallStats()
    page = render_dashboard(stats, [doc])
    assert_valid_html(page)
    assert "<td>0</td>" in page and "<td>-</td>" in page

    op_id = operation_id(doc.api, doc.operations[0])
    stats.record_call(op_id, 200)
    stats.record_call(op_id, 200)
    stats.record_call(None, 404)
    page = render_dashboard(stats, [doc])
    row = next(line for line in page.splitlines() if "All calls" in line)
    assert "<td>3</td><td>2</td>" in row and "<td>1</td><td>0</td>" in row


def test_dashboard_links_every_loaded_api():
    config, _ = fixture_citations()
    first = parse_document(config)
    second = parse_document(
        "#url /other\n#type api\n#title Other\n#endpoint http://127.0.0.1:1/sparql\n"
    )
    page = render_dashboard(CallStats(), [first, second])
    assert '<a href="/api/v1">Citation Gateway</a>' in page
    assert '<a href="/other">Other</a>' in page
    assert_valid_html(page)


def test_operation_identity_is_mount_point_plus_template():
    doc = _fixture_doc()
    assert operation_id(doc.api, doc.operations[0]) == "/api/v1/citations/{doi}"
