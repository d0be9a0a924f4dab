from __future__ import annotations

import csv
import io
import json
import random
import tracemalloc

import pytest

from checks import oracle_sorted
from sparqlgate import refine
from sparqlgate.client import ResultTable, parse_results
from sparqlgate.errors import RefinementError, RefinementSyntaxError
from sparqlgate.refine import (
    CSV_MEDIA_TYPE,
    JSON_MEDIA_TYPE,
    FilterSpec,
    SortSpec,
    apply_filter,
    apply_json_array,
    apply_json_dict,
    apply_plan,
    apply_require,
    apply_sort,
    cell_text,
    format_from_accept,
    parse_refinements,
    serialize_csv,
    serialize_json,
)


def _table(header, rows, types=None) -> ResultTable:
    return ResultTable(tuple(header), dict(types or {}), [dict(r) for r in rows])


INFO = _table(
    ("citing", "creation"),
    [
        {"citing": "10.3233/ds-190019", "creation": "2016-06-01"},
        {"citing": "10.3233/sw-160224", "creation": "2016-05-01"},
        {"citing": "10.1016/j.websem.2012.08.001", "creation": "2016-04-30"},
        {"citing": "10.1093/nar/gkw1328", "creation": ""},
    ],
    {"citing": "str", "creation": "datetime"},
)


# ---------------------------------------------------------------------------
# Parameter parsing
# ---------------------------------------------------------------------------


def test_parse_collects_each_kind_in_url_order():
    plan = parse_refinements(
        (
            ("json", 'dict("/", citing, prefix, suffix)'),
            ("sort", "asc(citing)"),
            ("filter", "creation:^20.+"),
            ("json", 'array("/", cited)'),
            ("require", "creation"),
            ("sort", "desc(creation)"),
            ("json", 'dict("0", cited, one, two)'),
            ("filter", "creation:>2016-05"),
            ("format", "csv"),
            ("require", "citing"),
            ("json", 'array("|", x)'),
        )
    )
    assert plan.format == "csv"
    assert plan.steps == (
        ("require", "creation", apply_require, ("creation",)),
        ("require", "citing", apply_require, ("citing",)),
        ("filter", "creation", apply_filter, (FilterSpec("creation", None, "^20.+"),)),
        ("filter", "creation", apply_filter, (FilterSpec("creation", ">", "2016-05"),)),
        ("sort", "citing", apply_sort, (SortSpec("asc", "citing"),)),
        ("sort", "creation", apply_sort, (SortSpec("desc", "creation"),)),
        # json array and json dict share one slot, so they keep their URL order.
        ("json dict", "citing", apply_json_dict, ("/", "citing", ("prefix", "suffix"))),
        ("json array", "cited", apply_json_array, ("/", "cited")),
        ("json dict", "cited", apply_json_dict, ("0", "cited", ("one", "two"))),
        ("json array", "x", apply_json_array, ("|", "x")),
    )


def test_parse_json_dict_shapes():
    plan = parse_refinements((("json", 'dict("0", cited , one,two )'),))
    step = ("json dict", "cited", apply_json_dict, ("0", "cited", ("one", "two")))
    assert plan.steps == (step,)


def test_last_format_wins():
    plan = parse_refinements((("format", "csv"), ("format", "json")))
    assert plan.format == "json"


def test_unknown_keys_are_ignored_with_a_warning(caplog):
    with caplog.at_level("WARNING"):
        plan = parse_refinements((("page", "2"), ("require", "citing")))
    assert plan.steps == (("require", "citing", apply_require, ("citing",)),)
    assert any("page" in r.message for r in caplog.records)


def test_malformed_refinements_raise_syntax_errors():
    bad = (
        ("require", "not a name"),
        ("require", "creation\n"),
        ("sort", "desc(creation)\n"),
        ("json", 'array("/", cited)\n'),
        ("json", 'dict("/", citing, a, b)\n'),
        ("filter", "no-colon-here"),
        ("filter", "creation:(unclosed"),
        ("sort", "up(citing)"),
        ("sort", "asc citing"),
        ("format", "xml"),
        ("json", 'explode("/", cited)'),
        ("json", "array(/, cited)"),
        ("json", 'array("", cited)'),
        ("json", 'array("/", a, b)'),
        ("json", 'dict("/", onlyfield)'),
        ("json", 'dict("/", citing, bad name)'),
        ("json", 'dict("/", citing, a, a)'),
        ("json", 'dict("/", citing, a, b, a)'),
    )
    for pair in bad:
        with pytest.raises(RefinementSyntaxError):
            parse_refinements((pair,))


def test_filter_value_may_contain_colons_and_operators():
    plan = parse_refinements((("filter", "when:>2016-05-01T13:00"),))
    assert plan.steps[0][3] == (FilterSpec("when", ">", "2016-05-01T13:00"),)
    regex = parse_refinements((("filter", "citing:10[.]3233"),))
    assert regex.steps[0][3] == (FilterSpec("citing", None, "10[.]3233"),)


# ---------------------------------------------------------------------------
# require / filter / sort
# ---------------------------------------------------------------------------


def test_require_drops_rows_with_empty_cells():
    out = apply_require(INFO, "creation")
    assert len(out.rows) == 3
    assert all(r["creation"] for r in out.rows)
    assert apply_require(out, "creation").rows == out.rows


def _noop_plan(table, caplog, *params):
    """Apply the refinements and check that the table comes out unchanged."""
    with caplog.at_level("WARNING"):
        out = apply_plan(table, parse_refinements(params))
    assert out == (JSON_MEDIA_TYPE, serialize_json(table))
    return [r.getMessage() for r in caplog.records if "ghost" in r.getMessage()]


def test_require_on_unknown_field_is_a_warned_noop(caplog):
    warnings = _noop_plan(INFO, caplog, ("require", "ghost"))
    assert warnings == ["require on unknown field 'ghost' ignored"]


def test_filter_and_sort_on_unknown_fields_are_warned_noops(caplog):
    warnings = _noop_plan(
        INFO, caplog, ("filter", "ghost:x"), ("filter", "ghost:>1"), ("sort", "desc(ghost)")
    )
    assert len(warnings) == 3


def test_regex_filter_searches_anywhere_in_the_cell():
    out = apply_filter(INFO, FilterSpec("creation", None, "^20.+"))
    assert len(out.rows) == 3
    inner = apply_filter(INFO, FilterSpec("citing", None, "websem"))
    assert [r["citing"] for r in inner.rows] == ["10.1016/j.websem.2012.08.001"]


def test_typed_filter_keeps_strictly_greater_dates():
    out = apply_filter(INFO, FilterSpec("creation", ">", "2016-05"))
    assert [r["creation"] for r in out.rows] == ["2016-06-01"]


def test_typed_filter_boundaries_are_strict():
    table = _table(("n",), [{"n": "1"}, {"n": "2"}, {"n": "3"}], {"n": "int"})
    assert [r["n"] for r in apply_filter(table, FilterSpec("n", "<", "2")).rows] == ["1"]
    assert [r["n"] for r in apply_filter(table, FilterSpec("n", ">", "2")).rows] == ["3"]
    assert [r["n"] for r in apply_filter(table, FilterSpec("n", "=", "2")).rows] == ["2"]


def test_typed_equality_compares_values_not_text():
    table = _table(("x",), [{"x": "3e2"}, {"x": "300"}, {"x": "3"}], {"x": "float"})
    out = apply_filter(table, FilterSpec("x", "=", "300"))
    assert [r["x"] for r in out.rows] == ["3e2", "300"]


def test_filter_with_invalid_typed_value_is_a_client_error():
    with pytest.raises(RefinementError):
        apply_filter(INFO, FilterSpec("creation", ">", "yesterday"))


def test_unparseable_cells_fall_below_every_filter_value():
    table = _table(("n",), [{"n": "abc"}, {"n": "5"}], {"n": "int"})
    assert [r["n"] for r in apply_filter(table, FilterSpec("n", "<", "1")).rows] == ["abc"]


def test_sort_orders_rows_by_declared_type():
    table = _table(("n",), [{"n": "9"}, {"n": "10"}, {"n": "2"}], {"n": "int"})
    assert [r["n"] for r in apply_sort(table, SortSpec("asc", "n")).rows] == ["2", "9", "10"]
    assert [r["n"] for r in apply_sort(table, SortSpec("desc", "n")).rows] == ["10", "9", "2"]


def test_sort_is_stable_for_equal_keys():
    table = _table(
        ("k", "tag"),
        [{"k": "1", "tag": "a"}, {"k": "1", "tag": "b"}, {"k": "0", "tag": "c"},
         {"k": "1", "tag": "d"}],
        {"k": "int"},
    )
    out = apply_sort(table, SortSpec("asc", "k"))
    assert [r["tag"] for r in out.rows] == ["c", "a", "b", "d"]
    down = apply_sort(table, SortSpec("desc", "k"))
    assert [r["tag"] for r in down.rows] == ["a", "b", "d", "c"]


def test_empty_cells_sort_first_ascending_last_descending():
    out = apply_sort(INFO, SortSpec("asc", "creation"))
    assert [r["creation"] for r in out.rows] == ["", "2016-04-30", "2016-05-01", "2016-06-01"]
    down = apply_sort(INFO, SortSpec("desc", "creation"))
    assert [r["creation"] for r in down.rows][-1] == ""


def test_sort_agrees_with_the_oracle_on_random_tables():
    rng = random.Random(77)
    for _ in range(200):
        value_type = rng.choice(("int", "float", "str", "datetime", "duration"))
        rows = []
        for _ in range(rng.randrange(0, 30)):
            roll = rng.random()
            if roll < 0.15:
                value = ""
            elif roll < 0.3:
                value = rng.choice(("junk", "n/a", "?"))
            elif value_type == "datetime":
                value = f"{rng.randint(1990, 2030)}-{rng.randint(1, 12):02d}"
            elif value_type == "duration":
                # Equal durations in different spellings keep their row order.
                value = rng.choice(("P3D", "PT72H", "PT36H", "P1DT12H", "-P1D", "P1W"))
            else:
                value = str(rng.randint(-50, 50))
            rows.append({"v": value, "i": str(len(rows))})
        table = _table(("v", "i"), rows, {"v": value_type})
        descending = rng.random() < 0.5
        got = apply_sort(table, SortSpec("desc" if descending else "asc", "v")).rows
        assert got == oracle_sorted(rows, "v", value_type, descending)


# ---------------------------------------------------------------------------
# json reshaping
# ---------------------------------------------------------------------------


def test_array_splits_cells_into_lists():
    table = _table(("cited",), [{"cited": "10.1108/jd-12-2013-0166"}])
    out = apply_json_array(table, "/", "cited")
    assert out.rows == [{"cited": ["10.1108", "jd-12-2013-0166"]}]


def test_array_keeps_empty_pieces_and_whole_cells():
    table = _table(("x",), [{"x": "a//b"}, {"x": "plain"}, {"x": ""}])
    out = apply_json_array(table, "/", "x")
    assert [r["x"] for r in out.rows] == [["a", "", "b"], ["plain"], [""]]


def test_array_refuses_already_reshaped_cells():
    table = _table(("x",), [{"x": ["a", "b"]}])
    with pytest.raises(RefinementError):
        apply_json_array(table, "/", "x")
    # A postprocess plug-in may return a column that mixes text and list cells.
    mixed = _table(("x",), [{"x": "a/b"}, {"x": ["c/d"]}])
    with pytest.raises(RefinementError, match="^json array needs text cells, "
                       "field 'x' already reshaped$"):
        apply_json_array(mixed, "/", "x")


def test_dict_splits_into_records_with_leftmost_cuts():
    table = _table(("citing",), [{"citing": "10.3233/ds-190019"}])
    out = apply_json_dict(table, "/", "citing", ("prefix", "suffix"))
    assert out.rows == [{"citing": {"prefix": "10.3233", "suffix": "ds-190019"}}]


def test_dict_with_k_keys_makes_at_most_k_minus_one_cuts():
    table = _table(("x",), [{"x": "a/b/c/d"}])
    out = apply_json_dict(table, "/", "x", ("one", "two"))
    assert out.rows == [{"x": {"one": "a", "two": "b/c/d"}}]


def test_dict_pads_missing_pieces_with_empty_text():
    table = _table(("x",), [{"x": "solo"}])
    out = apply_json_dict(table, "/", "x", ("one", "two", "three"))
    assert out.rows == [{"x": {"one": "solo", "two": "", "three": ""}}]


def test_dict_maps_over_list_cells_elementwise():
    table = _table(("cited",), [{"cited": ["10.1108", "jd-12-2013-0166"]}])
    out = apply_json_dict(table, "0", "cited", ("one", "two"))
    assert out.rows == [
        {"cited": [{"one": "1", "two": ".1108"}, {"one": "jd-12-2", "two": "13-0166"}]}
    ]
    mixed = _table(("x",), [{"x": "a/b"}, {"x": ["c/d", "e"]}, {"x": ""}])
    out = apply_json_dict(mixed, "/", "x", ("one", "two"))
    assert [r["x"] for r in out.rows] == [
        {"one": "a", "two": "b"},
        [{"one": "c", "two": "d"}, {"one": "e", "two": ""}],
        {"one": "", "two": ""},
    ]


def test_dict_refuses_record_cells():
    table = _table(("x",), [{"x": {"k": "v"}}])
    with pytest.raises(RefinementError):
        apply_json_dict(table, "/", "x", ("a", "b"))
    nested = _table(("x",), [{"x": [{"k": "v"}]}])
    with pytest.raises(RefinementError):
        apply_json_dict(nested, "/", "x", ("a", "b"))


def test_json_ops_on_unknown_fields_are_warned_noops(caplog):
    table = _table(("x",), [{"x": "a/b"}])
    warnings = _noop_plan(
        table, caplog, ("json", 'array("/", ghost)'), ("json", 'dict("/", ghost, a, b)')
    )
    assert warnings == [
        "json array on unknown field 'ghost' ignored",
        "json dict on unknown field 'ghost' ignored",
    ]


def test_dict_split_reassembly_property():
    rng = random.Random(11)
    alphabet = "ab0/|-"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 16)))
        sep = rng.choice(("/", "|", "ab", "0"))
        keys = tuple(f"k{i}" for i in range(rng.randrange(2, 6)))
        out = apply_json_dict(_table(("x",), [{"x": text}]), sep, "x", keys)
        record = out.rows[0]["x"]
        assert list(record) == list(keys)
        pieces = list(record.values())
        if text.count(sep) >= len(keys) - 1:
            assert sep.join(pieces) == text


# ---------------------------------------------------------------------------
# Plan application: order, format, serialization
# ---------------------------------------------------------------------------


def test_kind_order_is_fixed_regardless_of_url_order():
    # sort listed before filter/require must still run after them.
    shuffled = parse_refinements(
        (
            ("sort", "asc(creation)"),
            ("filter", "creation:>2016-04"),
            ("require", "creation"),
        )
    )
    _, body = apply_plan(INFO, shuffled)
    ordered = parse_refinements(
        (
            ("require", "creation"),
            ("filter", "creation:>2016-04"),
            ("sort", "asc(creation)"),
        )
    )
    assert apply_plan(INFO, ordered) == (JSON_MEDIA_TYPE, body)
    assert [r["creation"] for r in json.loads(body)] == [
        "2016-04-30", "2016-05-01", "2016-06-01",
    ]


def test_same_kind_parameters_apply_in_url_order():
    table = _table(
        ("a", "b"),
        [{"a": "1", "b": "2"}, {"a": "1", "b": "1"}, {"a": "2", "b": "1"}],
        {"a": "int", "b": "int"},
    )
    one = apply_plan(table, parse_refinements((("sort", "asc(a)"), ("sort", "asc(b)"))))
    two = apply_plan(table, parse_refinements((("sort", "asc(b)"), ("sort", "asc(a)"))))
    assert one != two  # the later sort dominates under stable sorting
    assert [r["b"] for r in json.loads(one[1])] == ["1", "1", "2"]
    assert [r["a"] for r in json.loads(two[1])] == ["1", "1", "2"]


def test_format_parameter_beats_accept_header_both_ways():
    content_type, _ = apply_plan(
        INFO, parse_refinements((("format", "json"),)), accept_header=CSV_MEDIA_TYPE
    )
    assert content_type == JSON_MEDIA_TYPE
    content_type, _ = apply_plan(
        INFO, parse_refinements((("format", "csv"),)), accept_header=JSON_MEDIA_TYPE
    )
    assert content_type == CSV_MEDIA_TYPE


def test_accept_header_decides_when_no_format_is_given():
    assert apply_plan(INFO, parse_refinements(()), CSV_MEDIA_TYPE)[0] == CSV_MEDIA_TYPE
    assert apply_plan(INFO, parse_refinements(()), "text/csv;q=0.9")[0] == CSV_MEDIA_TYPE
    assert apply_plan(INFO, parse_refinements(()), "text/html, application/json")[0] == JSON_MEDIA_TYPE
    assert apply_plan(INFO, parse_refinements(()), None)[0] == JSON_MEDIA_TYPE
    assert apply_plan(INFO, parse_refinements(()), "text/html")[0] == JSON_MEDIA_TYPE


def test_format_from_accept_parses_lists_and_parameters():
    assert format_from_accept("text/csv") == "csv"
    assert format_from_accept("TEXT/CSV; q=0.2") == "csv"
    assert format_from_accept("application/xml, application/json") == "json"
    assert format_from_accept("*/*") is None
    assert format_from_accept(None) is None
    # q=0 means "not acceptable": the range is skipped, the next one decides.
    assert format_from_accept("text/csv;q=0, application/json") == "json"
    assert format_from_accept("text/csv; Q=0.0, application/json;q=0.5") == "json"
    assert format_from_accept("application/json;q=0.00,text/csv") == "csv"
    assert format_from_accept("text/csv;q=0.000;level=1, text/csv") == "csv"
    assert format_from_accept("text/csv;q=0.001") == "csv"
    assert format_from_accept("text/csv;q=0") is None


def test_json_reshaping_under_csv_format_is_an_error(monkeypatch):
    plan = parse_refinements((("json", 'array("/", citing)'), ("format", "csv")))
    with pytest.raises(RefinementError):
        apply_plan(INFO, plan)
    # The refusal comes before any row step: no sort runs, and an invalid
    # typed filter value is not reached.
    sorted_tables = []
    monkeypatch.setattr(refine, "apply_sort", lambda table, spec: sorted_tables.append(table))
    plan = parse_refinements(
        (
            ("filter", "creation:>yesterday"),
            ("sort", "asc(citing)"),
            ("json", 'array("/", citing)'),
        )
    )
    with pytest.raises(RefinementError) as caught:
        apply_plan(INFO, plan, accept_header=CSV_MEDIA_TYPE)
    assert str(caught.value) == "json refinements need the json format"
    assert sorted_tables == []


def test_json_ops_apply_in_sequence():
    table = _table(("citing", "cited"), [dict(r) for r in (
        {"citing": "10.3233/ds-190019", "cited": "10.1108/jd-12-2013-0166"},
    )])
    plan = parse_refinements(
        (("json", 'array("/", cited)'), ("json", 'dict("0", cited, one, two)'))
    )
    _, body = apply_plan(table, plan)
    assert json.loads(body)[0]["cited"] == [
        {"one": "1", "two": ".1108"},
        {"one": "jd-12-2", "two": "13-0166"},
    ]


# ---------------------------------------------------------------------------
# Serializers
# ---------------------------------------------------------------------------


def test_csv_golden_two_column_table():
    table = _table(
        ("citing", "cited"),
        [
            {"citing": "10.3233/ds-190019", "cited": "10.1108/jd-12-2013-0166"},
            {"citing": "10.3233/sw-160224", "cited": "10.1108/jd-12-2013-0166"},
        ],
    )
    assert serialize_csv(table) == (
        "citing,cited\n"
        "10.3233/ds-190019,10.1108/jd-12-2013-0166\n"
        "10.3233/sw-160224,10.1108/jd-12-2013-0166\n"
    )


def test_csv_quotes_only_when_needed():
    table = _table(
        ("a", "b"),
        [{"a": 'say "hi"', "b": "x,y"}, {"a": "line\nbreak", "b": "plain"}],
    )
    assert serialize_csv(table) == (
        "a,b\n"
        '"say ""hi""","x,y"\n'
        '"line\nbreak",plain\n'
    )


def test_csv_round_trips_through_a_standard_reader():
    rng = random.Random(4180)
    alphabet = 'ab,"\n\r x'
    for _ in range(100):
        header = tuple(f"c{i}" for i in range(rng.randrange(1, 4)))
        rows = [
            {name: "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 8)))
             for name in header}
            for _ in range(rng.randrange(0, 6))
        ]
        text = serialize_csv(_table(header, rows))
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == list(header)
        assert [[row[name] for name in header] for row in rows] == [
            list(r) for r in parsed[1:]
        ]


def test_json_serialization_shape_and_order():
    table = _table(("b", "a"), [{"b": "2", "a": "1"}])
    body = serialize_json(table)
    assert json.loads(body) == [{"b": "2", "a": "1"}]
    assert list(json.loads(body)[0]) == ["b", "a"]  # header order, not insertion luck
    assert serialize_json(_table(("x",), [])) == "[]"


def test_json_and_csv_agree_on_cell_content():
    rng = random.Random(9)
    for _ in range(50):
        header = ("u", "v")
        rows = [
            {"u": str(rng.randrange(100)), "v": rng.choice(("x", "y,z", ""))}
            for _ in range(rng.randrange(0, 5))
        ]
        table = _table(header, rows)
        from_json = [[r[h] for h in header] for r in json.loads(serialize_json(table))]
        from_csv = [r for r in csv.reader(io.StringIO(serialize_csv(table)))][1:]
        assert from_json == [list(r) for r in from_csv]


# Byte-identity of the hand-written writers against test-local oracles.

_TEXT_PIECES = (
    "a", "Zz", "é", "漢字", "😀", '"', "\\", "/", ",", " ", "\n", "\r", "\t",
    "\x00", "\x1f", "\x7f", "\u2028", "\ud800", "\udfff", "\ufeff",
)


def _random_text(rng: random.Random) -> str:
    return "".join(rng.choice(_TEXT_PIECES) for _ in range(rng.randrange(0, 5)))


def _random_json_cell(rng: random.Random, depth: int):
    """Any cell a table can hold, plugin-made ones included; nests up to ``depth``."""
    roll = rng.random() if depth else 0.0
    if roll < 0.45:
        return rng.choice((
            _random_text(rng), _random_text(rng), "", rng.randint(-10**20, 10**20),
            rng.uniform(-1e9, 1e9), float("nan"), float("inf"), -0.0, None, True, False,
        ))
    n = rng.randrange(0, 4)
    if roll < 0.7:
        return [_random_json_cell(rng, depth - 1) for _ in range(n)]
    if roll < 0.9:
        return {_random_text(rng): _random_json_cell(rng, depth - 1) for _ in range(n)}
    if roll < 0.95:
        keys = (rng.randint(-5, 5), None, True, 2.5, _random_text(rng))
        return {rng.choice(keys): _random_json_cell(rng, depth - 1) for _ in range(n)}
    return tuple(_random_json_cell(rng, depth - 1) for _ in range(n))


def _json_oracle(table: ResultTable) -> str:
    objects = [{name: row[name] for name in table.header} for row in table.rows]
    return json.dumps(objects, ensure_ascii=False, indent=2)


def test_json_writer_matches_json_dumps_on_random_tables():
    rng = random.Random(8)
    names = ("a", "b", "c", "é", 'q"t', "")
    for _ in range(2500):
        # Repeated names are allowed; an empty header happens too.
        header = tuple(rng.choice(names) for _ in range(rng.randrange(0, 5)))
        depth = rng.randrange(0, 5)
        rows = [
            {name: _random_json_cell(rng, depth) for name in header}
            for _ in range(rng.randrange(0, 4))
        ]
        table = _table(header, rows)
        assert serialize_json(table) == _json_oracle(table)


def test_json_writer_edge_cases():
    deep = {"k": [[{"x": ["y", [], {}]}], {}]}
    for header, rows in (
        (("x",), []),
        ((), []),
        ((), [{}, {}]),
        (("x", "y", "x"), [{"x": "1", "y": "2"}]),
        (("x",), [{"x": deep}, {"x": [deep, (deep, None)]}]),
        (("x",), [{"x": {1: "one", None: [1.5, float("nan")]}}]),
    ):
        table = _table(header, rows)
        assert serialize_json(table) == _json_oracle(table)


@pytest.mark.parametrize(
    "body, as_json, as_csv",
    [
        ("a,a\r\n1,2\r\n", '[\n  {\n    "a": "2"\n  }\n]', "a,a\n2,2\n"),
        ("\r\n\r\n\r\n", "[\n  {},\n  {}\n]", '""\n""\n""\n'),
    ],
    ids=["a repeated variable", "no variables"],
)
def test_writers_on_edge_csv_answers(body, as_json, as_csv):
    table = parse_results(body, "text/csv")
    assert serialize_json(table) == as_json
    assert serialize_csv(table) == as_csv


def _csv_oracle(table: ResultTable) -> str:
    """The quoting rule before the writer was tuned, kept verbatim."""
    def field(text):
        if any(ch in text for ch in (",", '"', "\n", "\r")):
            return '"' + text.replace('"', '""') + '"'
        return text

    def record(cells):
        line = ",".join(field(text) for text in cells)
        return line if line else '""'

    lines = [record(table.header)]
    for row in table.rows:
        lines.append(record(cell_text(row[name]) for name in table.header))
    return "\n".join(lines) + "\n"


def test_csv_writer_matches_the_quoting_rule_on_random_tables():
    rng = random.Random(4181)
    for _ in range(2000):
        header = tuple(rng.choice(("a", "b,", "", '"c"', "\r")) for _ in range(rng.randrange(0, 4)))
        rows = [
            {name: _random_json_cell(rng, rng.randrange(0, 2)) if rng.random() < 0.1
             else _random_text(rng) for name in header}
            for _ in range(rng.randrange(0, 5))
        ]
        table = _table(header, rows)
        assert serialize_csv(table) == _csv_oracle(table)
    table = _table(("x",), [{"x": "\r"}, {"x": ""}, {"x": "a\rb"}])
    assert serialize_csv(table) == 'x\n"\r"\n""\n"a\rb"\n' == _csv_oracle(table)
    # A record with no fields or one empty field is written as "".
    for table, expected in (
        (_table((), []), '""\n'),
        (_table((), [{}, {}]), '""\n""\n""\n'),
        (_table(("",), [{"": ""}, {"": "a"}, {"": ""}]), '""\n""\na\n""\n'),
    ):
        assert serialize_csv(table) == expected == _csv_oracle(table)


def test_writers_match_the_oracles_across_chunk_boundaries():
    def plugin_cell(i):
        return (None, i, ("t", i))[i % 3]

    for n in (0, 1, refine._CHUNK - 1, refine._CHUNK, refine._CHUNK + 1, 2 * refine._CHUNK + 1):
        rows = [
            # Only the last row's text needs CSV quoting.
            {"text": f"r{i}" if i < n - 1 else 'last, "quoted"', "tags": f"a;{i}",
             "plugin": plugin_cell(i)}
            for i in range(n)
        ]
        table = apply_json_array(_table(("text", "tags", "plugin"), rows), ";", "tags")
        assert serialize_json(table) == _json_oracle(table), n
        assert serialize_csv(table) == _csv_oracle(table), n


def test_json_writer_peaks_near_twice_its_output():
    header = ("s", "label", "n", "score", "span", "created", "tags")
    table = _table(header, [
        {
            "s": f"https://example.org/work/{i}",
            "label": f"Work number {i}, \"revised\"",
            "n": str(i * 37),
            "score": f"{i / 7:.4f}",
            "span": f"P{i % 30}DT{i % 24}H",
            "created": f"2020-01-{i % 28 + 1:02d}T10:00:00Z",
            "tags": "a;b;c" if i % 3 else "",
        }
        for i in range(3500)
    ])
    tracemalloc.start()
    try:
        output = serialize_json(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert output == _json_oracle(table)
    # The output and the chunks it is joined from; a third copy fails this.
    assert peak <= 2.5 * len(output)


def test_the_clean_checks_keep_exactly_what_needs_no_escape_or_quotes():
    # The JSON writer splices a clean column between quotes without encoding
    # it, and the CSV writer writes a clean column without quoting it.
    for code in (*range(0x10000), 0x10000, 0x1F600, 0xE0001, 0x10FFFF):
        ch = chr(code)
        assert refine._keeps(ch, refine._JSON_ESCAPED) == (
            refine._encode_text(ch) == '"' + ch + '"'
        ), hex(code)
        assert refine._keeps(ch, refine._CSV_QUOTED) == (refine._csv_field(ch) == ch), hex(code)


def _count_writer_calls(monkeypatch) -> dict[str, int]:
    calls = dict.fromkeys(("_encode_text", "_json_value", "_csv_field"), 0)
    for name in calls:
        def counted(*args, _name=name, _real=getattr(refine, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(refine, name, counted)
    return calls


_CLEAN_HEADER = ("s", "name", "n", "score", "span", "created", "tags")


def _clean_table(n: int) -> ResultTable:
    """Text no writer needs to escape or quote, 'é' and '/' included."""
    return _table(_CLEAN_HEADER, [
        {"s": f"https://example.org/work/{i}", "name": f"item-{i} café", "n": str(i * 37),
         "score": f"{i / 7:.4f}", "span": f"P{i % 30}DT{i % 24}H",
         "created": f"2020-01-{i % 28 + 1:02d}T10:00:00Z", "tags": "a;b;c" if i % 3 else ""}
        for i in range(n)
    ])


def test_the_writers_make_no_call_per_clean_cell(monkeypatch):
    table = _clean_table(3000)
    expected_json, expected_csv = _json_oracle(table), _csv_oracle(table)
    calls = _count_writer_calls(monkeypatch)
    assert serialize_json(table) == expected_json
    assert serialize_csv(table) == expected_csv
    # Once per key and once per header field, not once per cell.
    assert calls == {"_encode_text": 7, "_json_value": 0, "_csv_field": 7}


def test_only_a_column_needing_escapes_is_encoded_cell_by_cell(monkeypatch):
    table = _clean_table(3000)
    # One cell in 100 of one column, so every chunk holds some.
    table.columns["name"][::100] = ['say "hi"\t'] * 30
    expected = _json_oracle(table)
    calls = _count_writer_calls(monkeypatch)
    assert serialize_json(table) == expected
    assert calls == {"_encode_text": 7 + 3000, "_json_value": 0, "_csv_field": 0}


def test_a_json_array_column_of_clean_text_is_not_written_cell_by_cell(monkeypatch):
    table = apply_json_array(_clean_table(3000), ";", "tags")
    assert table.columns["tags"][:3] == [[""], ["a", "b", "c"], ["a", "b", "c"]]
    expected = _json_oracle(table)
    calls = _count_writer_calls(monkeypatch)
    assert serialize_json(table) == expected
    assert calls == {"_encode_text": 7, "_json_value": 0, "_csv_field": 0}


@pytest.mark.parametrize(
    "field, odd",
    [
        ("tags", []),
        ("tags", ["a", 1]),
        ("tags", ["a", 'b"c']),
        ("tags", {"k": "v"}),
        # Each one's only special character comes last, where a check
        # that stops one character short would miss it.
        ("text", "say hi\t"),
        ("text", "ab,"),
    ],
    ids=["empty list", "non-text element", "element needing escape", "record",
         "text needing escape", "text needing quotes"],
)
def test_one_odd_cell_in_the_last_chunk_keeps_the_writers_exact(field, odd):
    for n in (0, 1, refine._CHUNK - 1, refine._CHUNK, refine._CHUNK + 1, 2 * refine._CHUNK + 1):
        rows = [{"text": f"r{i}", "tags": ["a", f"{i}"]} for i in range(n)]
        if n:
            rows[-1][field] = odd
        table = _table(("text", "tags"), rows)
        assert serialize_json(table) == _json_oracle(table), n
        assert serialize_csv(table) == _csv_oracle(table), n


def test_cell_text_reads_reshaped_cells_as_json():
    assert cell_text("plain") == "plain"
    assert cell_text(["a", "b"]) == '["a", "b"]'
    assert cell_text({"k": "v"}) == '{"k": "v"}'
