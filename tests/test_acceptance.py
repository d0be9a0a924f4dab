"""End-to-end acceptance gate.

Each test guards one release criterion and reports a PASS/FAIL line in
the pytest terminal summary (see checks.criterion): golden outputs for
the citation fixture, the ordering algebra of result refinements,
format priority, typed comparisons against a brute-force oracle, the
record-split law, parity of the three call surfaces, configuration
round-tripping and validation, documentation and dashboard rendering,
and the bare pipeline's faithfulness to the endpoint response.
"""

from __future__ import annotations

import json
import random
import time
import urllib.parse

import pytest

from checks import assert_valid_html, criterion, fetch, oracle_key, oracle_sorted
from sparqlgate.cli import cli_main
from sparqlgate.client import ResultTable, dispatch, parse_results, substitute
from sparqlgate.config import parse_document, serialize_document
from sparqlgate.docs import render_docs
from sparqlgate.errors import (
    CallError,
    DocumentStructureError,
    DuplicateFieldError,
    ParamShapeError,
    SpecValidationError,
)
from sparqlgate.refine import apply_json_dict, apply_plan, parse_refinements, serialize_json
from sparqlgate.server import serve
from sparqlgate.testkit import FIXTURE_DOI, fixture_citations

GOLDEN_CSV = (
    "citing,cited\n"
    "10.3233/ds-190019,10.1108/jd-12-2013-0166\n"
    "10.3233/sw-160224,10.1108/jd-12-2013-0166\n"
)

# Byte-exact JSON bodies: the layout json.dumps(records, indent=2) writes.
GOLDEN_JSON_PLAIN = """[
  {
    "citing": "10.3233/ds-190019",
    "cited": "10.1108/jd-12-2013-0166"
  },
  {
    "citing": "10.3233/sw-160224",
    "cited": "10.1108/jd-12-2013-0166"
  }
]"""

GOLDEN_JSON_NESTED = """[
  {
    "citing": {
      "prefix": "10.3233",
      "suffix": "ds-190019"
    },
    "cited": [
      {
        "one": "1",
        "two": ".1108"
      },
      {
        "one": "jd-12-2",
        "two": "13-0166"
      }
    ]
  },
  {
    "citing": {
      "prefix": "10.3233",
      "suffix": "sw-160224"
    },
    "cited": [
      {
        "one": "1",
        "two": ".1108"
      },
      {
        "one": "jd-12-2",
        "two": "13-0166"
      }
    ]
  }
]"""

RECORDS_PLAIN = [
    {"citing": "10.3233/ds-190019", "cited": "10.1108/jd-12-2013-0166"},
    {"citing": "10.3233/sw-160224", "cited": "10.1108/jd-12-2013-0166"},
]

RECORDS_SPLIT_CITED = [
    {"citing": "10.3233/ds-190019", "cited": ["10.1108", "jd-12-2013-0166"]},
    {"citing": "10.3233/sw-160224", "cited": ["10.1108", "jd-12-2013-0166"]},
]

RECORDS_SPLIT_BOTH = [
    {"citing": {"prefix": "10.3233", "suffix": "ds-190019"},
     "cited": ["10.1108", "jd-12-2013-0166"]},
    {"citing": {"prefix": "10.3233", "suffix": "sw-160224"},
     "cited": ["10.1108", "jd-12-2013-0166"]},
]

RECORDS_NESTED = [
    {"citing": {"prefix": "10.3233", "suffix": "ds-190019"},
     "cited": [{"one": "1", "two": ".1108"}, {"one": "jd-12-2", "two": "13-0166"}]},
    {"citing": {"prefix": "10.3233", "suffix": "sw-160224"},
     "cited": [{"one": "1", "two": ".1108"}, {"one": "jd-12-2", "two": "13-0166"}]},
]


def _encode(pairs) -> str:
    return urllib.parse.urlencode(pairs, quote_via=urllib.parse.quote)


# ---------------------------------------------------------------------------
# 1. Golden outputs for the citation fixture
# ---------------------------------------------------------------------------


def test_golden_fixture_outputs(gateway):
    with criterion(1, "golden fixture outputs"):
        started = time.monotonic()
        base = "/api/v1/citations/" + FIXTURE_DOI

        outcome, _, _ = gateway.call(base + "?format=csv")
        assert (outcome.status, outcome.body) == (200, GOLDEN_CSV)

        outcome, _, _ = gateway.call(base)
        assert outcome.status == 200
        assert json.loads(outcome.body) == RECORDS_PLAIN
        assert outcome.body == GOLDEN_JSON_PLAIN

        steps = [("json", 'array("/", cited)')]
        outcome, _, _ = gateway.call(base + "?" + _encode(steps))
        assert json.loads(outcome.body) == RECORDS_SPLIT_CITED
        assert outcome.body == json.dumps(RECORDS_SPLIT_CITED, indent=2)

        steps.append(("json", 'dict("/", citing, prefix, suffix)'))
        outcome, _, _ = gateway.call(base + "?" + _encode(steps))
        assert json.loads(outcome.body) == RECORDS_SPLIT_BOTH
        assert outcome.body == json.dumps(RECORDS_SPLIT_BOTH, indent=2)

        steps.append(("json", 'dict("0", cited, one, two)'))
        outcome, _, _ = gateway.call(base + "?" + _encode(steps))
        assert json.loads(outcome.body) == RECORDS_NESTED
        assert outcome.body == GOLDEN_JSON_NESTED

        assert time.monotonic() - started < 5.0


# ---------------------------------------------------------------------------
# 2. Refinement ordering algebra
# ---------------------------------------------------------------------------

_TYPES = ("str", "int", "float", "datetime", "duration")


def _random_cell(rng: random.Random, value_type: str) -> str:
    roll = rng.random()
    if roll < 0.10:
        return ""
    if roll < 0.18:
        return rng.choice(("junk", "n a", "x9y"))
    if value_type == "int":
        return str(rng.randint(-999, 999))
    if value_type == "float":
        return rng.choice((f"{rng.uniform(-50, 50):.3f}", f"{rng.randint(1, 9)}e{rng.randint(0, 3)}"))
    if value_type == "datetime":
        stamp = (
            f"{rng.randint(1990, 2030):04d}-{rng.randint(1, 12):02d}"
            f"-{rng.randint(1, 28):02d}T{rng.randint(0, 23):02d}"
            f":{rng.randint(0, 59):02d}:{rng.randint(0, 59):02d}"
        )
        return stamp[: rng.choice((4, 7, 10, 13, 16, 19))]
    if value_type == "duration":
        return rng.choice(
            (f"P{rng.randint(0, 40)}D", f"PT{rng.randint(0, 99)}H",
             f"P{rng.randint(1, 5)}Y", f"-P{rng.randint(1, 9)}W")
        )
    return "".join(rng.choice("abcdxyz/0-") for _ in range(rng.randint(1, 12)))


def _random_refinement_table(rng: random.Random) -> ResultTable:
    names = tuple(f"f{i}" for i in range(rng.randint(2, 4)))
    types = {name: rng.choice(_TYPES) for name in names}
    rows = [
        {name: _random_cell(rng, types[name]) for name in names}
        for _ in range(rng.randint(0, 50))
    ]
    return ResultTable(names, types, rows)


def _random_pairs(rng: random.Random, table: ResultTable) -> list[tuple[str, str]]:
    """A syntactically valid parameter list; apply-time errors are fair game."""
    names = list(table.header)
    pairs: list[tuple[str, str]] = []
    for _ in range(rng.randint(0, 2)):
        pairs.append(("require", rng.choice(names)))
    for _ in range(rng.randint(0, 2)):
        field = rng.choice(names)
        operator = rng.choice(("=", "<", ">", None))
        if operator is None:
            pairs.append(("filter", f"{field}:{rng.choice('a1x')}"))
        else:
            pairs.append(("filter", f"{field}:{operator}{_random_cell(rng, table.types[field])}"))
    for _ in range(rng.randint(0, 2)):
        pairs.append(("sort", f"{rng.choice(('asc', 'desc'))}({rng.choice(names)})"))
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 2)):
            field = rng.choice(names)
            separator = rng.choice("/-0.")
            if rng.random() < 0.5:
                pairs.append(("json", f'array("{separator}", {field})'))
            else:
                pairs.append(("json", f'dict("{separator}", {field}, left, right)'))
    if rng.random() < 0.6:
        pairs.append(("format", rng.choice(("csv", "json"))))
    rng.shuffle(pairs)
    return pairs


def _riffle(rng: random.Random, pairs: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """Random interleaving that keeps each parameter kind's internal order."""
    groups: dict[str, list[tuple[str, str]]] = {}
    for pair in pairs:
        groups.setdefault(pair[0], []).append(pair)
    pools = [group for group in groups.values()]
    out: list[tuple[str, str]] = []
    while pools:
        pool = rng.choice(pools)
        out.append(pool.pop(0))
        if not pool:
            pools.remove(pool)
    return out


def _plan_outcome(table: ResultTable, pairs) -> tuple[str, str, str]:
    try:
        content_type, body = apply_plan(table, parse_refinements(tuple(pairs)))
    except CallError as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("ok", content_type, body)


def test_refinement_order_laws():
    with criterion(2, "refinement ordering"):
        started = time.monotonic()
        rng = random.Random(202)

        for _ in range(200):
            table = _random_refinement_table(rng)
            pairs = _random_pairs(rng, table)
            assert _plan_outcome(table, _riffle(rng, pairs)) == _plan_outcome(table, pairs)

        # Same-kind parameters need not commute: with a stable sort the
        # last sort dominates, so swapping two sorts must be observable
        # somewhere in a random search.
        differing = 0
        for _ in range(80):
            table = _random_refinement_table(rng)
            if len(table.rows) < 2:
                continue
            first, second = rng.sample(list(table.header), 2)
            sorts = [("sort", f"asc({first})"), ("sort", f"asc({second})")]
            if _plan_outcome(table, sorts) != _plan_outcome(table, sorts[::-1]):
                differing += 1
        assert differing >= 1

        assert time.monotonic() - started < 30.0


# ---------------------------------------------------------------------------
# 3. The format refinement outranks the Accept header
# ---------------------------------------------------------------------------


def test_format_refinement_beats_accept_header(gateway):
    with criterion(3, "format beats Accept"):
        with serve(gateway, port=0) as server:
            base = f"{server.url}/api/v1/citations/{FIXTURE_DOI}"

            got = fetch(base + "?format=json", headers={"Accept": "text/csv"}, timeout=10)
            assert got.status == 200
            assert got.headers["Content-Type"].startswith("application/json")
            assert json.loads(got.body) == RECORDS_PLAIN

            got = fetch(base + "?format=csv", headers={"Accept": "application/json"}, timeout=10)
            assert got.status == 200
            assert got.headers["Content-Type"].startswith("text/csv")
            assert got.body == GOLDEN_CSV


# ---------------------------------------------------------------------------
# 4. Typed comparisons, checked against a brute-force oracle
# ---------------------------------------------------------------------------


def test_typed_comparisons_match_brute_force(gateway):
    with criterion(4, "typed comparisons"):
        info = "/api/v1/citation-info/" + FIXTURE_DOI
        outcome, _, _ = gateway.call(info + "?" + _encode([("filter", "creation:>2016-05")]))
        kept = json.loads(outcome.body)
        assert [record["creation"] for record in kept] == ["2016-06-01"]

        everything = json.loads(gateway.call(info)[0].body)
        bound = oracle_key("2016-05", "datetime")
        assert kept == [
            record for record in everything
            if oracle_key(record["creation"], "datetime") > bound
        ]

        stats = "/api/v1/stats/10.3233"
        outcome, _, _ = gateway.call(stats + "?" + _encode([("sort", "desc(n)")]), method="post")
        ordered = json.loads(outcome.body)
        assert [record["n"] for record in ordered] == ["10", "9", "2"]

        plain = json.loads(gateway.call(stats, method="post")[0].body)
        assert ordered == oracle_sorted(plain, "n", "int", descending=True)


# ---------------------------------------------------------------------------
# 5. Record-split law: k keys make at most k-1 cuts
# ---------------------------------------------------------------------------


def test_record_split_count_law():
    with criterion(5, "record split-count law"):
        rng = random.Random(55)
        for _ in range(500):
            separator = rng.choice(("/", "-", "0", ".", "ab", " "))
            text = "".join(rng.choice("ab0/.x- ") for _ in range(rng.randint(0, 30)))
            key_count = rng.randint(2, 5)
            keys = tuple(f"k{i}" for i in range(key_count))

            table = ResultTable(("v",), {}, [{"v": text}])
            produced = apply_json_dict(table, separator, "v", keys).rows[0]["v"]

            pieces = text.split(separator, key_count - 1)
            padded = pieces + [""] * (key_count - len(pieces))
            assert produced == dict(zip(keys, padded))
            if text.count(separator) >= key_count - 1:
                assert separator.join(produced[key] for key in keys) == text


# ---------------------------------------------------------------------------
# 6. The three call surfaces agree
# ---------------------------------------------------------------------------

_FILTER_SAMPLES = {
    "citing": ("10", ">10.3233", "sw"),
    "cited": ("jd", ">10"),
    "creation": (">2016-05", "<2016-06", "2016"),
    "work": ("ds", ">10"),
    "n": (">5", "<10", "9"),
    "score": (">0", "<1"),
    "span": (">P1D", "<P3Y"),
}


def _random_surface_call(rng: random.Random) -> tuple[str, str]:
    kind = rng.randrange(3)
    if kind == 0:
        path = "/api/v1/citations/" + rng.choice(
            (FIXTURE_DOI, f"10.5555/random.{rng.randrange(100)}")
        )
        method, fields = "get", ("citing", "cited")
    elif kind == 1:
        path = "/api/v1/citation-info/" + FIXTURE_DOI
        method, fields = "get", ("citing", "cited", "creation")
    else:
        path = f"/api/v1/stats/10.{rng.randrange(1000, 9999)}"
        method, fields = "post", ("work", "n", "score", "span")

    pairs: list[tuple[str, str]] = []
    if rng.random() < 0.3:
        pairs.append(("require", rng.choice(fields)))
    if rng.random() < 0.3:
        field = rng.choice(fields)
        pairs.append(("filter", f"{field}:{rng.choice(_FILTER_SAMPLES[field])}"))
    if rng.random() < 0.3:
        pairs.append(("sort", f"{rng.choice(('asc', 'desc'))}({rng.choice(fields)})"))
    if rng.random() < 0.25:
        pairs.append(("json", f'array("/", {rng.choice(fields)})'))
    if rng.random() < 0.4:
        pairs.append(("format", rng.choice(("csv", "json"))))
    if rng.random() < 0.1:
        pairs.append(("sort", "sideways(n)"))  # malformed on purpose
    if rng.random() < 0.1:
        method = "post" if method == "get" else "get"  # mismatch on purpose

    url = path if not pairs else path + "?" + _encode(pairs)
    return url, method


def test_three_call_surfaces_agree(conf_path, gateway, capsys):
    with criterion(6, "surface equivalence"):
        rng = random.Random(66)
        with serve(gateway, port=0) as server:
            for _ in range(50):
                url, method = _random_surface_call(rng)

                embedded = gateway.get_op(url).exec(method=method)

                code = cli_main(["-s", conf_path, "-c", url, "-m", method])
                captured = capsys.readouterr()
                if code == 0:
                    cli = (200, captured.out)
                else:
                    assert captured.err.endswith("\n")
                    body = captured.err[:-1]
                    cli = (json.loads(body)["status"], body)

                response = fetch(
                    server.url + url,
                    method.upper(),
                    headers={"Accept": "application/json"},
                    timeout=10,
                )
                http = (response.status, response.body)

                assert embedded == cli == http, url


# ---------------------------------------------------------------------------
# 7. Configuration round trip and validation
# ---------------------------------------------------------------------------

_MINIMAL = """#url /api/v1
#type api
#endpoint http://127.0.0.1:1/sparql

#url /works/{id}
#type operation
#method get
#sparql SELECT ?s WHERE { ?s ?p "[[id]]" }
"""

_INVALID_CONFIGS = [
    (_MINIMAL.partition("\n\n")[2], DocumentStructureError),  # no api block
    ("stray text\n" + _MINIMAL, DocumentStructureError),  # junk before first block
    (_MINIMAL.replace("#type api\n", ""), DocumentStructureError),  # untyped block
    (_MINIMAL.replace("#type operation", "#type endpoint"), DocumentStructureError),
    (_MINIMAL + "\n#url /api/v2\n#type api\n#endpoint http://127.0.0.1:1/s\n",
     DocumentStructureError),  # second api block
    (_MINIMAL.replace("#type api", "#type api\n#title a\n#title b"), DuplicateFieldError),
    (_MINIMAL.replace("#method get", "#method get\n#id str([)"), ParamShapeError),
    (_MINIMAL.replace("[[id]]", "[[oci]]"), SpecValidationError),  # undeclared slot
    (_MINIMAL.replace("#type api", "#type api\n#method get put"), SpecValidationError),
    (_MINIMAL.replace("#endpoint http://127.0.0.1:1/sparql\n", ""), SpecValidationError),
    (_MINIMAL.replace('#sparql SELECT ?s WHERE { ?s ?p "[[id]]" }\n', ""),
     SpecValidationError),  # query-less operation
    (_MINIMAL.replace("#type api", "#type api\n#method post"), SpecValidationError),
]


def test_config_round_trip_and_validation(mock_endpoint):
    with criterion(7, "config round trip and validation"):
        config, _ = fixture_citations(mock_endpoint.url)
        document = parse_document(config)
        assert parse_document(serialize_document(document)) == document

        assert len(_INVALID_CONFIGS) == 12
        for text, error_class in _INVALID_CONFIGS:
            with pytest.raises(error_class):
                parse_document(text)


# ---------------------------------------------------------------------------
# 8. Documentation page and live dashboard
# ---------------------------------------------------------------------------


def test_documentation_and_dashboard(gateway):
    with criterion(8, "documentation and dashboard"):
        loaded = gateway.apis[0]
        page = render_docs(loaded.document.api, loaded.document.operations)
        assert_valid_html(page)
        for operation in loaded.document.operations:
            assert page.count(operation.url_template) == 1

        with serve(gateway, port=0) as server:
            assert fetch(
                f"{server.url}/api/v1/citations/{FIXTURE_DOI}", timeout=10
            ).status == 200
            assert fetch(
                f"{server.url}/api/v1/citation-info/{FIXTURE_DOI}", timeout=10
            ).status == 200
            assert fetch(
                f"{server.url}/api/v1/stats/10.3233", "POST", timeout=10
            ).status == 200
            assert fetch(
                f"{server.url}/api/v1/nowhere", timeout=10
            ).status == 404
            dashboard = fetch(server.url + "/", timeout=10).body

        assert_valid_html(dashboard)
        assert "<td>4</td><td>3</td><td>1</td><td>0</td>" in dashboard
        counters = gateway.stats.snapshot()["global"]
        assert (counters["total"], counters["2xx"], counters["4xx"]) == (4, 3, 1)


# ---------------------------------------------------------------------------
# 9. A bare call adds nothing to the endpoint's answer
# ---------------------------------------------------------------------------


def test_bare_pipeline_matches_direct_composition(gateway, mock_endpoint):
    with criterion(9, "bare pipeline adds nothing"):
        operation = gateway.apis[0].document.operations[2]
        assert operation.preprocess == () and operation.postprocess == ()

        outcome, _, served = gateway.call("/api/v1/stats/10.3233", method="post")
        assert served == operation
        assert outcome.status == 200

        query = substitute(operation.sparql, {"prefix": "10.3233"})
        status, media, body = dispatch(mock_endpoint.url, query, method="post")
        assert status == 200
        expected = serialize_json(
            parse_results(body, media, field_types=operation.field_types)
        )
        assert outcome.body == expected
