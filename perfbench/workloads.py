"""Seeded workload generation: tables, configuration text, mock rules, call plans.

Everything the gateway sees is made here from the workload seed: the
configuration document, the upstream result bodies the mock serves, and the
ordered calls each client thread sends. The same seed gives the same bytes.

Seeds change values, never shape: row counts, column types, value widths and
the mix of calls are fixed per workload, so runs with different seeds do the
same amount of work and their figures can be compared.
"""

from __future__ import annotations

import random
import re
import urllib.parse
from dataclasses import dataclass

API_BASE = "/bench"
API_TITLE = "Benchmark Gateway"
UPSTREAM_ERROR_BODY = '{"error": "upstream failure"}'

# Column name -> declared value type, for the wide tables.
WIDE_COLUMNS = (
    ("name", "str"),
    ("n", "int"),
    ("score", "float"),
    ("span", "duration"),
    ("created", "datetime"),
    ("tags", "str"),
    ("pair", "str"),
)
NARROW_COLUMNS = (("name", "str"), ("n", "int"), ("created", "datetime"))

_TAG_WORDS = ("alpha", "beta", "gamma", "delta", "omega", "sigma")


@dataclass(frozen=True)
class Table:
    """One generated upstream table; a None cell is an unbound variable."""

    header: tuple[str, ...]
    types: dict[str, str]
    rows: list[dict[str, str | None]]


@dataclass(frozen=True)
class Operation:
    """One generated operation and the upstream answer its query gets."""

    key: str
    template: str
    method: str
    shape: str = ""
    preprocess: str = ""
    table: Table | None = None
    upstream_status: int = 200

    @property
    def marker(self) -> str:
        """Text that occurs only in this operation's query; the mock matches on it."""
        return f"<urn:bench:{self.key}>"


@dataclass(frozen=True)
class Call:
    """One call a client sends, with the outcome the oracle expects.

    ``label`` names the kind of call in reports. A 200 call either reads a
    page (``page`` set) or reads ``op``'s table refined by ``query``.
    """

    label: str
    method: str
    url: str
    status: int = 200
    op: Operation | None = None
    query: tuple[tuple[str, str], ...] = ()
    page: str | None = None

    @property
    def reaches_manager(self) -> bool:
        """True for calls the server hands to ApiManager.call (not page reads)."""
        return self.page is None


@dataclass
class Workload:
    name: str
    seed: int
    surface: str  # "http" or "inproc"
    why: str
    operations: list[Operation]
    probe: Call
    warmup: list[list[Call]]
    cycles: list[list[Call]]  # one closed-loop cycle per client thread

    @property
    def threads(self) -> int:
        return len(self.cycles)


# ---------------------------------------------------------------------------
# Cell values
# ---------------------------------------------------------------------------

def _name(rng: random.Random) -> str:
    return f"item-{rng.randrange(16 ** 6):06x}"


def _int(rng: random.Random) -> str:
    return str(rng.randrange(-900000, 900000))


def _float(rng: random.Random) -> str:
    if rng.random() < 0.2:
        return f"{rng.randrange(1, 10)}.{rng.randrange(10)}e{rng.randrange(0, 3)}"
    return f"{rng.uniform(-1000, 1000):.3f}"


def _duration(rng: random.Random) -> str:
    # Whole components only, so every normalization to seconds is exact and
    # ties (P1D against PT24H) compare equal in any summation order.
    form = rng.randrange(6)
    if form == 0:
        return f"P{rng.randrange(1, 9)}Y{rng.randrange(1, 12)}M"
    if form == 1:
        return f"P{rng.randrange(1, 900)}D"
    if form == 2:
        return f"PT{rng.randrange(1, 99)}H{rng.randrange(1, 60)}M"
    if form == 3:
        return f"P{rng.randrange(1, 99)}W"
    if form == 4:
        return f"P{rng.randrange(1, 99)}DT{rng.randrange(1, 24)}H"
    return f"-P{rng.randrange(1, 99)}D"


def _datetime(rng: random.Random) -> str:
    text = f"{rng.randrange(1990, 2030)}-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}"
    text += f"T{rng.randrange(24):02d}:{rng.randrange(60):02d}:{rng.randrange(60):02d}"
    # Prefix forms of the datetime type: YYYY, YYYY-MM, ..., full seconds.
    return text[: rng.choice((4, 7, 10, 13, 16, 19))]


def _tags(rng: random.Random) -> str:
    return ";".join(rng.choice(_TAG_WORDS) for _ in range(rng.randrange(1, 5)))


def _pair(rng: random.Random) -> str:
    form = rng.randrange(4)
    if form == 0:
        return f"k{rng.randrange(100)}"  # no separator: the record pads with ""
    if form == 1:
        return f"k{rng.randrange(100)}:v{rng.randrange(100)}:x"  # one cut only
    return f"k{rng.randrange(100)}:v{rng.randrange(1000)}"


_MAKERS = {
    "name": _name,
    "n": _int,
    "score": _float,
    "span": _duration,
    "created": _datetime,
    "tags": _tags,
    "pair": _pair,
}


def make_table(rng: random.Random, columns, n_rows: int) -> Table:
    """A table whose special cells sit at seeded positions in fixed numbers.

    Per typed column, 3 rows in 100 are unbound and 1 in 100 holds text
    that does not parse under the type; 1 name in 10 carries a comma and a
    quote, so CSV quoting is exercised.
    """
    header = tuple(name for name, _ in columns)
    types = dict(columns)
    rows = [{name: _MAKERS[name](rng) for name in header} for _ in range(n_rows)]
    for name, value_type in columns:
        if value_type == "str":
            continue
        unbound = rng.sample(range(n_rows), n_rows // 25)
        for index in unbound[: n_rows // 100]:
            rows[index][name] = "n/a"
        for index in unbound[n_rows // 100 :]:
            rows[index][name] = None
    for index in rng.sample(range(n_rows), n_rows // 10):
        rows[index]["name"] += ', "ltd"'
    return Table(header, types, rows)


# ---------------------------------------------------------------------------
# Configuration and mock rules
# ---------------------------------------------------------------------------

def config_text(workload: Workload, endpoint_url: str) -> str:
    """The configuration document the gateway loads."""
    blocks = [
        "\n".join(
            (
                f"#url {API_BASE}",
                "#type api",
                f"#title {API_TITLE}",
                "#description Generated operations over seeded tables.",
                "#method get post",
                f"#endpoint {endpoint_url}",
            )
        )
    ]
    for op in workload.operations:
        lines = [f"#url {op.template}", "#type operation"]
        params = re.findall(r"\{(\w+)\}", op.template)
        if params:
            lines.append(f"#{params[0]} {op.shape}")
        lines.append(f"#method {op.method}")
        if op.preprocess:
            lines.append(f"#preprocess {op.preprocess}")
        header = op.table.header if op.table is not None else ("v",)
        if op.table is not None:
            lines.append(
                "#field_type "
                + " ".join(f"{op.table.types[v]}({v})" for v in op.table.header)
            )
        variables = " ".join("?" + v for v in header)
        slot = f' "[[{params[0]}]]"' if params else " ?o"
        lines.append(f"#sparql SELECT {variables} WHERE {{ ?s {op.marker}{slot} . }}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def mock_rules(workload: Workload, results_json) -> list[tuple[str, int, str]]:
    """(regex, status, body) per operation; ``results_json`` builds a body."""
    rules = []
    for op in workload.operations:
        if op.table is None:
            body = UPSTREAM_ERROR_BODY
        else:
            body = results_json(op.table.header, op.table.rows)
        rules.append((re.escape(op.marker), op.upstream_status, body))
    return rules


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _url(path: str, query: tuple[tuple[str, str], ...] = ()) -> str:
    if not query:
        return path
    return path + "?" + urllib.parse.urlencode(query)


def _probe_op() -> Operation:
    table = Table(("ok",), {"ok": "str"}, [{"ok": "yes"}])
    return Operation(key="ping", template="/ping", method="get", table=table)


def _table_call(op: Operation, binding: str, label: str, query=()) -> Call:
    path = API_BASE + op.template.split("{")[0] + urllib.parse.quote(binding, safe="")
    return Call(label, op.method, _url(path, query), 200, op, tuple(query))


def _probe_call(probe: Operation) -> Call:
    return Call("probe", "get", API_BASE + probe.template, 200, probe)


def small_keepalive(seed: int) -> Workload:
    rng = random.Random(f"small_keepalive:{seed}")
    # Row counts are a fixed multiset (1..50) dealt to operations by the seed.
    sizes = [1 + (i * 49) // 47 for i in range(48)]
    rng.shuffle(sizes)
    ops = []
    for i, n_rows in enumerate(sizes):
        typed = i % 3 == 0
        ops.append(
            Operation(
                key=f"op{i:02d}",
                template=f"/op{i:02d}/{{id}}",
                method="post" if i % 2 else "get",
                shape="int([0-9]+)" if typed else "str([A-Za-z0-9-]+)",
                preprocess="" if typed else "lower(id)",
                table=make_table(rng, NARROW_COLUMNS, n_rows),
            )
        )
    probe = _probe_op()
    calls = []
    for op in ops:
        if op.shape.startswith("int"):
            binding = str(rng.randrange(10 ** 5, 10 ** 6))
        else:
            binding = f"Item-{rng.randrange(16 ** 4):04x}"
        calls.append(_table_call(op, binding, "table"))
    rng.shuffle(calls)
    return Workload(
        name="small_keepalive",
        seed=seed,
        surface="http",
        why="per-call fixed costs on one keep-alive connection: 48 routes, small tables",
        operations=ops + [probe],
        probe=_probe_call(probe),
        warmup=[calls[:8]],
        cycles=[calls],
    )


# The refinement list large_tables cycles through, in order. The duration
# sort, the slowest call, comes in both directions: with 2 calls in 11 the
# 90th percentile falls inside that cluster of latencies, not on the edge
# between the two slowest kinds, where it would jump between them.
LARGE_REFINEMENTS = (
    ("plain", ()),
    ("csv", (("format", "csv"),)),
    ("sort_int", (("sort", "desc(n)"),)),
    ("sort_duration", (("sort", "asc(span)"),)),
    ("sort_duration_desc", (("sort", "desc(span)"),)),
    ("sort_datetime", (("sort", "desc(created)"),)),
    ("filter_typed", (("filter", "score:>0"),)),
    ("filter_regex", (("filter", "name:^item-[0-7]"),)),
    ("require", (("require", "n"),)),
    ("json_array", (("json", 'array(";",tags)'),)),
    ("json_dict", (("json", 'dict(":",pair,key,value)'),)),
)

LARGE_ROWS = 20000


def large_tables(seed: int) -> Workload:
    rng = random.Random(f"large_tables:{seed}")
    op = Operation(
        key="rows",
        template="/rows/{part}",
        method="get",
        shape="str([a-z]+)",
        table=make_table(rng, WIDE_COLUMNS, LARGE_ROWS),
    )
    probe = _probe_op()
    cycle = [_table_call(op, "all", label, query) for label, query in LARGE_REFINEMENTS]
    return Workload(
        name="large_tables",
        seed=seed,
        surface="inproc",
        why="parse, refine, values and serialize dominate: 20k-row tables, one caller",
        operations=[op, probe],
        probe=_probe_call(probe),
        warmup=[cycle[:1]],
        cycles=[cycle],
    )


# Refinements dealt four times each over the 28 table calls of a cycle. The
# costliest typed sorts (duration, datetime) are left to large_tables: here
# they would push the gateway towards saturation, where swings in CPU speed
# turn into unsteady tail latency.
MIXED_REFINEMENTS = (
    ("plain", ()),
    ("csv", (("format", "csv"),)),
    ("sort_int", (("sort", "desc(n)"),)),
    ("filter_regex", (("filter", "name:^item-[0-7]"),)),
    ("filter_typed", (("filter", "score:<0"),)),
    ("require_sort", (("require", "n"), ("sort", "desc(score)"))),
    ("json_array", (("json", 'array(";",tags)'),)),
)

MIXED_ROWS = 1000


def concurrent_mixed(seed: int) -> Workload:
    rng = random.Random(f"concurrent_mixed:{seed}")
    table_ops = [
        Operation(
            key=f"t{i}",
            template=f"/t{i}/{{id}}",
            method="post" if i % 2 else "get",
            shape="int([0-9a-z]+)" if i == 0 else "str([A-Za-z0-9-]+)",
            preprocess="" if i == 0 else "lower(id)",
            table=make_table(rng, WIDE_COLUMNS, MIXED_ROWS),
        )
        for i in range(4)
    ]
    broken = Operation(
        key="broken", template="/broken/{id}", method="get", shape="str", upstream_status=500
    )
    probe = _probe_op()
    typed_op = table_ops[0]
    failures = [
        Call("404_route", "get", API_BASE + "/nothing/here", 404),
        Call("404_api", "get", "/elsewhere/x", 404),
        Call("405", "post" if typed_op.method == "get" else "get", API_BASE + "/t0/42", 405),
        Call("400_type", typed_op.method, API_BASE + "/t0/12a", 400),
        Call("400_refine", typed_op.method, API_BASE + "/t0/7?sort=sideways(n)", 400),
        Call("500_upstream", "get", API_BASE + "/broken/x", 500),
    ]
    pages = [Call("dashboard", "get", "/", page="dashboard")] * 3 + [
        Call("docs", "get", API_BASE, page="docs")
    ] * 3
    cycles = []
    for _thread in range(2):
        calls = []
        for i, (label, query) in enumerate(MIXED_REFINEMENTS * 4):
            op = table_ops[i % len(table_ops)]
            if op is typed_op:
                binding = str(rng.randrange(10 ** 5))
            else:
                binding = f"Row-{rng.randrange(16 ** 4):04x}"
            calls.append(_table_call(op, binding, label, query))
        calls += failures + pages
        rng.shuffle(calls)
        cycles.append(calls)
    return Workload(
        name="concurrent_mixed",
        seed=seed,
        surface="http",
        why="two keep-alive clients share server, stats and upstream session; 15% pages, 15% designed failures",
        operations=table_ops + [broken, probe],
        probe=_probe_call(probe),
        warmup=[cycle[:6] for cycle in cycles],
        cycles=cycles,
    )


BY_NAME = {
    "small_keepalive": small_keepalive,
    "large_tables": large_tables,
    "concurrent_mixed": concurrent_mixed,
}


def build(name: str, seed: int) -> Workload:
    return BY_NAME[name](seed)
