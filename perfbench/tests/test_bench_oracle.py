"""The benchmark's oracle: it accepts the gateway's own output and rejects wrong output.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import oracle  # noqa: E402
import workloads  # noqa: E402
from sparqlgate.client import parse_results  # noqa: E402
from sparqlgate.refine import apply_plan, parse_refinements  # noqa: E402
from sparqlgate.testkit import results_json  # noqa: E402

REFINEMENTS = dict(workloads.LARGE_REFINEMENTS + workloads.MIXED_REFINEMENTS)


@pytest.fixture(scope="module")
def operation() -> workloads.Operation:
    table = workloads.make_table(random.Random(7), workloads.WIDE_COLUMNS, 400)
    return workloads.Operation("rows", "/rows/{part}", "get", "str", table=table)


def _gateway_answer(op: workloads.Operation, query) -> tuple[str, bytes]:
    """What the gateway's parse, refine and serialize stages make of op's table."""
    table = parse_results(
        results_json(op.table.header, op.table.rows), field_types=op.table.types
    )
    content_type, text = apply_plan(table, parse_refinements(query))
    return content_type, text.encode("utf-8")


def _call(op, label: str) -> workloads.Call:
    return workloads.Call(label, "get", "/bench/rows/all", 200, op, REFINEMENTS[label])


@pytest.mark.parametrize("label", sorted(REFINEMENTS))
def test_oracle_accepts_gateway_output(operation, label):
    call = _call(operation, label)
    content_type, body = _gateway_answer(operation, call.query)
    assert oracle.check(call, 200, content_type, body) is None


def test_sorted_data_has_ties_and_blanks(operation):
    # The order checks mean something only if blanks, unparseable cells and
    # equal keys occur in the sorted columns.
    spans = [row["span"] for row in operation.table.rows]
    assert None in spans and "n/a" in spans
    keys = [oracle.typed_key(s or "", "duration") for s in spans]
    assert len(set(keys)) < len(keys)


@pytest.mark.parametrize("label", ["sort_int", "sort_duration", "sort_datetime"])
def test_wrong_row_order_fails(operation, label):
    call = _call(operation, label)
    content_type, body = _gateway_answer(operation, call.query)
    rows = json.loads(body)
    column = call.query[0][1].split("(")[1].rstrip(")")
    value_type = operation.table.types[column]
    # Swap the first two rows whose keys differ, so the order is really wrong.
    i = next(
        i for i in range(len(rows) - 1)
        if oracle.typed_key(rows[i][column], value_type)
        != oracle.typed_key(rows[i + 1][column], value_type)
    )
    rows[i], rows[i + 1] = rows[i + 1], rows[i]
    wrong = json.dumps(rows, ensure_ascii=False, indent=2).encode("utf-8")
    assert oracle.check(call, 200, content_type, wrong) is not None


def test_wrong_csv_order_fails(operation):
    call = workloads.Call(
        "csv_sort", "get", "/bench/rows/all", 200, operation,
        (("format", "csv"), ("sort", "asc(n)")),
    )
    content_type, body = _gateway_answer(operation, call.query)
    lines = body.decode("utf-8").splitlines(keepends=True)
    wrong = "".join([lines[0], *reversed(lines[1:])]).encode("utf-8")
    assert oracle.check(call, 200, content_type, body) is None
    assert oracle.check(call, 200, content_type, wrong) is not None


@pytest.mark.parametrize("label", ["plain", "filter_typed", "filter_regex", "require", "csv"])
def test_wrong_row_count_fails(operation, label):
    call = _call(operation, label)
    content_type, body = _gateway_answer(operation, call.query)
    if content_type == "text/csv":
        wrong = body[: body.rstrip(b"\n").rfind(b"\n") + 1]
    else:
        wrong = json.dumps(json.loads(body)[:-1], indent=2).encode("utf-8")
    assert oracle.check(call, 200, content_type, wrong) is not None


def test_unexpected_status_fails(operation):
    call = _call(operation, "plain")
    content_type, body = _gateway_answer(operation, call.query)
    error = json.dumps({"error": "boom", "status": 500}).encode()
    assert oracle.check(call, 500, "application/json", error) is not None

    failure = workloads.Call("404_route", "get", "/bench/nothing/here", 404)
    not_found = json.dumps({"error": "no operation", "status": 404}).encode()
    assert oracle.check(failure, 404, "application/json; charset=utf-8", not_found) is None
    assert oracle.check(failure, 200, content_type, body) is not None
    assert oracle.check(failure, 400, "application/json", not_found) is not None


def test_typed_key_rules():
    assert oracle.typed_key("", "int") < oracle.typed_key("-5", "int")
    assert oracle.typed_key("n/a", "float") == oracle.typed_key("", "float")
    assert oracle.typed_key("P1M", "duration") == oracle.typed_key("P30D", "duration")
    assert oracle.typed_key("P1Y", "duration") == oracle.typed_key("P365D", "duration")
    assert oracle.typed_key("2016-05", "datetime") == oracle.typed_key("2016-05-01T00", "datetime")
    assert oracle.typed_key("2016-04-30", "datetime") < oracle.typed_key("2016-05", "datetime")
