from __future__ import annotations

import random
import re

import pytest

from sparqlgate.config import (
    ConfigDocument,
    FieldEntry,
    ParamShape,
    ProcessStep,
    normalize_slots,
    parse_document,
    parse_field_types,
    parse_param_shape,
    parse_process_chain,
    placeholder_names,
    serialize_document,
    split_blocks,
)
from sparqlgate.errors import (
    DocumentStructureError,
    DuplicateFieldError,
    ParamShapeError,
    ProcessChainError,
    SpecValidationError,
)
from sparqlgate.testkit import fixture_citations

MINIMAL = """#url /api/v1
#type api
#endpoint http://127.0.0.1:1/sparql

#url /works/{id}
#type operation
#method get
#sparql SELECT ?s WHERE { ?s ?p "[[id]]" }
"""


def _doc(text: str = MINIMAL) -> ConfigDocument:
    return parse_document(text)


# ---------------------------------------------------------------------------
# Block splitting
# ---------------------------------------------------------------------------


def test_blocks_start_at_url_lines():
    blocks = split_blocks(MINIMAL)
    assert len(blocks) == 2
    assert blocks[0][0] == FieldEntry("url", "/api/v1")
    assert [e.name for e in blocks[1]] == ["url", "type", "method", "sparql"]


def test_multiline_value_keeps_interior_lines_verbatim():
    config, _ = fixture_citations()
    blocks = split_blocks(config)
    sparql = {e.name: e.value for e in blocks[1]}["sparql"]
    assert sparql.splitlines()[0] == "PREFIX cito: <http://purl.org/spar/cito/>"
    assert "  ?c cito:hasCitingEntity ?citing ." in sparql.splitlines()
    assert sparql.endswith("}")


def test_sparql_comment_lines_do_not_split_fields():
    text = MINIMAL.replace(
        'SELECT ?s WHERE { ?s ?p "[[id]]" }',
        'SELECT ?s WHERE {\n# not a field, just a comment\n#also_not_one x\n?s ?p "[[id]]" }',
    )
    op = _doc(text).operations[0]
    assert "# not a field, just a comment" in op.sparql
    assert "#also_not_one x" in op.sparql


def test_parameter_fields_are_recognized_from_the_url_template():
    # "#id" is only a field because the block's template declares {id}.
    text = MINIMAL.replace("#method get", "#id str(\\d+)\n#method get")
    op = _doc(text).operations[0]
    assert op.params == (ParamShape("id", "str", "\\d+"),)


def test_preamble_allows_only_blank_and_comment_lines():
    assert len(split_blocks("\n# a comment\n#\n" + MINIMAL)) == 2
    with pytest.raises(DocumentStructureError):
        split_blocks("stray text\n" + MINIMAL)
    with pytest.raises(DocumentStructureError):
        split_blocks("#type api\n" + MINIMAL)  # recognized field before #url


def test_document_without_blocks_is_an_error():
    with pytest.raises(DocumentStructureError):
        split_blocks("# only a comment\n")


# ---------------------------------------------------------------------------
# Field-level parsers
# ---------------------------------------------------------------------------


def test_param_shape_forms():
    assert parse_param_shape("doi", "str(10\\..+)") == ParamShape("doi", "str", "10\\..+")
    assert parse_param_shape("n", "int") == ParamShape("n", "int", ".+")
    shape = parse_param_shape("day", "datetime(\\d{4}-\\d{2})")
    assert re.fullmatch(shape.pattern, "2016-05")


def test_param_shape_rejections():
    with pytest.raises(ParamShapeError):
        parse_param_shape("x", "bool(.+)")  # unknown type
    with pytest.raises(ParamShapeError):
        parse_param_shape("x", "str((")  # shape does not parse
    with pytest.raises(ParamShapeError):
        parse_param_shape("x", "str([)")  # pattern does not compile


def test_process_chain_forms():
    assert parse_process_chain("lower(doi) --> encode(doi)") == (
        ProcessStep("lower", ("doi",)),
        ProcessStep("encode", ("doi",)),
    )
    assert parse_process_chain("decode_doi(citing, cited)") == (
        ProcessStep("decode_doi", ("citing", "cited")),
    )
    assert parse_process_chain("tick()") == (ProcessStep("tick", ()),)


def test_process_chain_rejections():
    for bad in ("lower", "lower(doi) --> ", "f(1+2)", "f(a b)"):
        with pytest.raises(ProcessChainError):
            parse_process_chain(bad)


def test_field_types_parse_and_reject():
    parsed = parse_field_types("str(oci) datetime(creation) duration(timespan)")
    assert parsed == {"oci": "str", "creation": "datetime", "timespan": "duration"}
    assert parse_field_types("") == {}
    with pytest.raises(ParamShapeError):
        parse_field_types("str")
    with pytest.raises(ParamShapeError):
        parse_field_types("bool(x)")


def test_placeholder_names_ordered_and_deduplicated():
    assert placeholder_names("/x/{a}/{b}/{a}") == ["a", "b"]
    assert placeholder_names("/plain") == []


def test_alternate_slot_spelling_is_normalized():
    assert normalize_slots("VALUES [{doi}] { [[oci]] }") == "VALUES [[doi]] { [[oci]] }"


# ---------------------------------------------------------------------------
# Document assembly
# ---------------------------------------------------------------------------


def test_fixture_document_parses_completely():
    config, _ = fixture_citations()
    doc = parse_document(config)
    api = doc.api
    assert api.url == "/api/v1"
    assert api.title == "Citation Gateway"
    assert api.methods == ("get", "post")
    assert api.version == "1.0.0"
    assert api.license == "CC0"
    assert api.base == "https://example.org/gateway"
    assert "spreadsheet-friendly" in api.description

    ops = doc.operations
    assert [op.url_template for op in ops] == [
        "/citations/{doi}",
        "/citation-info/{doi}",
        "/stats/{prefix}",
    ]
    assert [op.method for op in ops] == ["get", "get", "post"]
    assert ops[0].params == (ParamShape("doi", "str", "10\\..+"),)
    assert ops[0].preprocess == (ProcessStep("lower", ("doi",)),)
    assert ops[0].field_types["creation"] == "datetime"
    assert "[[doi]]" in ops[0].sparql
    assert ops[2].field_types == {
        "work": "str", "n": "int", "score": "float", "span": "duration",
    }


def test_api_method_field_omitted_allows_both_verbs():
    doc = _doc()
    assert doc.api.methods == ("get", "post")


def test_undeclared_parameter_defaults_to_str_catch_all():
    assert _doc().operations[0].params == (ParamShape("id", "str", ".+"),)


def test_api_only_document_is_valid():
    text = "#url /api/v1\n#type api\n#endpoint http://127.0.0.1:1/sparql\n"
    doc = parse_document(text)
    assert doc.operations == ()


# -- rejection matrix -------------------------------------------------------


def test_duplicate_field_in_one_block():
    with pytest.raises(DuplicateFieldError):
        parse_document(MINIMAL.replace("#type api", "#type api\n#title a\n#title b"))


def test_block_without_type_field():
    with pytest.raises(DocumentStructureError):
        parse_document(MINIMAL.replace("#type api\n", ""))


def test_unknown_block_type():
    with pytest.raises(DocumentStructureError):
        parse_document(MINIMAL.replace("#type operation", "#type endpoint"))


def test_missing_api_block():
    head, _, tail = MINIMAL.partition("\n\n")
    with pytest.raises(DocumentStructureError):
        parse_document(tail)


def test_second_api_block():
    extra = "\n#url /api/v2\n#type api\n#endpoint http://127.0.0.1:1/sparql\n"
    with pytest.raises(DocumentStructureError):
        parse_document(MINIMAL + extra)


def test_api_url_must_be_rooted_and_unterminated():
    with pytest.raises(SpecValidationError):
        parse_document(MINIMAL.replace("#url /api/v1", "#url api/v1"))
    with pytest.raises(SpecValidationError):
        parse_document(MINIMAL.replace("#url /api/v1", "#url /api/v1/"))


def test_endpoint_must_be_present_and_absolute():
    with pytest.raises(SpecValidationError):
        parse_document(MINIMAL.replace("#endpoint http://127.0.0.1:1/sparql\n", ""))
    with pytest.raises(SpecValidationError):
        parse_document(MINIMAL.replace("http://127.0.0.1:1/sparql", "sparql"))


def test_api_method_tokens_are_validated():
    with pytest.raises(SpecValidationError):
        parse_document(MINIMAL.replace("#type api", "#type api\n#method get put"))


def test_operation_method_must_be_exactly_one_verb():
    with pytest.raises(SpecValidationError):
        parse_document(MINIMAL.replace("#method get", "#method get post"))
    with pytest.raises(SpecValidationError):
        parse_document(MINIMAL.replace("#method get", "#method fetch"))
    with pytest.raises(SpecValidationError):
        parse_document(MINIMAL.replace("#method get\n", ""))


def test_operation_method_must_comply_with_api_methods():
    text = MINIMAL.replace("#type api", "#type api\n#method post").replace(
        "#method get", "#method get"
    )
    with pytest.raises(SpecValidationError):
        parse_document(text)


def test_operation_requires_sparql():
    with pytest.raises(SpecValidationError):
        parse_document(MINIMAL.replace('#sparql SELECT ?s WHERE { ?s ?p "[[id]]" }\n', ""))


def test_sparql_slots_must_be_declared_in_the_url():
    with pytest.raises(SpecValidationError):
        parse_document(MINIMAL.replace("[[id]]", "[[oci]]"))


def test_chain_arguments_must_reference_known_names():
    with pytest.raises(SpecValidationError):
        parse_document(MINIMAL.replace("#method get", "#method get\n#preprocess lower(doi)"))
    with pytest.raises(SpecValidationError):
        parse_document(
            MINIMAL.replace("#method get", "#method get\n#postprocess clean(score)")
        )


_OP = "#method get"
_API = "#type api"
_SECOND_API = "\n#url /api/v2\n#type api\n#endpoint http://127.0.0.1:1/sparql\n"


def _in_op(text: str) -> str:
    return MINIMAL.replace(_OP, f"{_OP}\n{text}")


# (document, error class, block_index, field, exact message); blocks count from 1.
LOAD_ERRORS = {
    "duplicate-api-field": (
        MINIMAL.replace(_API, _API + "\n#title a\n#title b"),
        DuplicateFieldError, 1, "title",
        "field declared twice (block 1, field #title)",
    ),
    "duplicate-operation-field": (
        _in_op("#sparql again"),
        DuplicateFieldError, 2, "sparql",
        "field declared twice (block 2, field #sparql)",
    ),
    "preamble": (
        "preamble\n" + MINIMAL,
        DocumentStructureError, None, None,
        "content before the first '#url' line: 'preamble'",
    ),
    "missing-type": (
        MINIMAL.replace(_API + "\n", ""),
        DocumentStructureError, 1, None,
        "block has no '#type' field (block 1)",
    ),
    "unknown-type": (
        MINIMAL.replace("#type operation", "#type endpoint"),
        DocumentStructureError, 2, None,
        "unknown '#type' value 'endpoint' (block 2)",
    ),
    "no-api-block": (
        MINIMAL.partition("\n\n")[2],
        DocumentStructureError, None, None,
        "document has no '#type api' block",
    ),
    "second-api-block": (
        MINIMAL + _SECOND_API,
        DocumentStructureError, 3, None,
        "more than one '#type api' block (block 3)",
    ),
    "api-url-unrooted": (
        MINIMAL.replace("#url /api/v1", "#url api/v1"),
        SpecValidationError, 1, "url",
        "api url 'api/v1' must start with '/' and not end with '/' (block 1, field #url)",
    ),
    "api-url-terminated": (
        MINIMAL.replace("#url /api/v1", "#url /api/v1/"),
        SpecValidationError, 1, "url",
        "api url '/api/v1/' must start with '/' and not end with '/' (block 1, field #url)",
    ),
    "endpoint-missing": (
        MINIMAL.replace("#endpoint http://127.0.0.1:1/sparql\n", ""),
        SpecValidationError, 1, "endpoint",
        "api block declares no '#endpoint' (block 1, field #endpoint)",
    ),
    "endpoint-relative": (
        MINIMAL.replace("http://127.0.0.1:1/sparql", "sparql"),
        SpecValidationError, 1, "endpoint",
        "endpoint 'sparql' is not an absolute URL (block 1, field #endpoint)",
    ),
    "api-method-token": (
        MINIMAL.replace(_API, _API + "\n#method get put"),
        SpecValidationError, 1, "method",
        "unknown method 'put' (block 1, field #method)",
    ),
    "api-method-empty": (
        MINIMAL.replace(_API, _API + "\n#method"),
        SpecValidationError, 1, "method",
        "'#method' declares no methods (block 1, field #method)",
    ),
    "operation-url-unrooted": (
        MINIMAL.replace("#url /works/{id}", "#url works/{id}"),
        SpecValidationError, 2, "url",
        "operation url 'works/{id}' must start with '/' (block 2, field #url)",
    ),
    "operation-two-methods": (
        MINIMAL.replace(_OP, "#method get post"),
        SpecValidationError, 2, "method",
        "operation needs exactly one method, got 'get post' (block 2, field #method)",
    ),
    "operation-no-method": (
        MINIMAL.replace(_OP + "\n", ""),
        SpecValidationError, 2, "method",
        "operation needs exactly one method, got '' (block 2, field #method)",
    ),
    "operation-method-outside-api": (
        MINIMAL.replace(_API, _API + "\n#method post"),
        SpecValidationError, 2, "method",
        "operation '/works/{id}' uses method 'get', not among the api methods post "
        "(block 2, field #method)",
    ),
    "sparql-missing": (
        MINIMAL.replace('#sparql SELECT ?s WHERE { ?s ?p "[[id]]" }\n', ""),
        SpecValidationError, 2, "sparql",
        "operation block declares no '#sparql' (block 2, field #sparql)",
    ),
    "undeclared-slot": (
        MINIMAL.replace("[[id]]", "[[oci]]"),
        SpecValidationError, 2, "sparql",
        "sparql template references undeclared parameters: oci (block 2, field #sparql)",
    ),
    "shape-unknown-type": (
        _in_op("#id widget"),
        ParamShapeError, 2, "id",
        "unknown type 'widget' in shape 'widget' (block 2, field #id)",
    ),
    "shape-malformed": (
        _in_op("#id int(("),
        ParamShapeError, 2, "id",
        "malformed shape 'int((' (block 2, field #id)",
    ),
    "shape-pattern": (
        _in_op("#id str([)"),
        ParamShapeError, 2, "id",
        "shape pattern '[' does not compile: unterminated character set at position 0 "
        "(block 2, field #id)",
    ),
    "field-type-malformed": (
        _in_op("#field_type str"),
        ParamShapeError, 2, "field_type",
        "malformed field type 'str' (block 2, field #field_type)",
    ),
    "field-type-unknown-type": (
        _in_op("#field_type widget(s)"),
        ParamShapeError, 2, "field_type",
        "unknown type 'widget' in field type 'widget(s)' (block 2, field #field_type)",
    ),
    "field-type-bad-variable": (
        _in_op("#field_type str(a-b)"),
        ParamShapeError, 2, "field_type",
        "bad variable name 'a-b' in field type 'str(a-b)' (block 2, field #field_type)",
    ),
    "chain-term-without-parentheses": (
        _in_op("#preprocess lower"),
        ProcessChainError, 2, "preprocess",
        "malformed chain term 'lower' (block 2, field #preprocess)",
    ),
    "chain-term-empty": (
        _in_op("#preprocess lower(id) --> "),
        ProcessChainError, 2, "preprocess",
        "malformed chain term '' (block 2, field #preprocess)",
    ),
    "chain-bad-argument": (
        _in_op("#postprocess clean(a-b)"),
        ProcessChainError, 2, "postprocess",
        "bad argument 'a-b' in chain term 'clean(a-b)' (block 2, field #postprocess)",
    ),
    "preprocess-undeclared-argument": (
        _in_op("#preprocess lower(doi)"),
        SpecValidationError, 2, "preprocess",
        "preprocess argument 'doi' is not a declared parameter (block 2, field #preprocess)",
    ),
    "postprocess-unlisted-argument": (
        _in_op("#postprocess clean(score)"),
        SpecValidationError, 2, "postprocess",
        "postprocess argument 'score' is not listed in '#field_type' "
        "(block 2, field #postprocess)",
    ),
    **{
        f"parameter-named-{name}": (
            MINIMAL.replace("/works/{id}", f"/works/{{{name}}}"),
            SpecValidationError, 2, "url",
            f"url parameter {name!r} is taken by the field '#{name}' (block 2, field #url)",
        )
        for name in ("type", "method", "url", "sparql", "call")
    },
    "api-url-parameter": (
        MINIMAL.replace("#url /api/v1", "#url /api/{v}"),
        SpecValidationError, 1, "url",
        "api url '/api/{v}' holds the parameter '{v}' (block 1, field #url)",
    ),
    "endpoint-scheme": (
        MINIMAL.replace("http://127.0.0.1:1/sparql", "ftp://127.0.0.1/sparql"),
        SpecValidationError, 1, "endpoint",
        "endpoint 'ftp://127.0.0.1/sparql' is not an http or https URL "
        "(block 1, field #endpoint)",
    ),
    "endpoint-port-out-of-range": (
        MINIMAL.replace("127.0.0.1:1", "127.0.0.1:99999"),
        SpecValidationError, 1, "endpoint",
        "endpoint 'http://127.0.0.1:99999/sparql' has a malformed host or port "
        "(block 1, field #endpoint)",
    ),
    "endpoint-port-not-a-number": (
        MINIMAL.replace("127.0.0.1:1", "127.0.0.1:abc"),
        SpecValidationError, 1, "endpoint",
        "endpoint 'http://127.0.0.1:abc/sparql' has a malformed host or port "
        "(block 1, field #endpoint)",
    ),
    "endpoint-unclosed-ipv6-host": (
        MINIMAL.replace("127.0.0.1:1", "[::1:1"),
        SpecValidationError, 1, "endpoint",
        "endpoint 'http://[::1:1/sparql' has a malformed host or port "
        "(block 1, field #endpoint)",
    ),
    "endpoint-without-host": (
        MINIMAL.replace("127.0.0.1:1", ":1"),
        SpecValidationError, 1, "endpoint",
        "endpoint 'http://:1/sparql' is not an absolute URL (block 1, field #endpoint)",
    ),
}


@pytest.mark.parametrize(
    "text, error_class, block_index, field_name, message",
    list(LOAD_ERRORS.values()),
    ids=list(LOAD_ERRORS),
)
def test_load_errors_pin_block_and_field(text, error_class, block_index, field_name, message):
    with pytest.raises(error_class) as caught:
        parse_document(text)
    exc = caught.value
    assert (type(exc), exc.block_index, exc.field, str(exc)) == (
        error_class, block_index, field_name, message
    )


def test_unrecognized_hash_tokens_continue_the_previous_value():
    # "#color" is not a field name anywhere, so the line is value content.
    text = MINIMAL.replace("#type api", "#title Demo\n#color blue\n#type api")
    assert parse_document(text).api.title == "Demo\n#color blue"


def test_misplaced_fields_are_kept_as_extras_with_a_warning(caplog):
    # "#call" is an operation field; inside an api block it still splits,
    # and is kept in the block's fields without gaining meaning.
    text = MINIMAL.replace("#type api", "#type api\n#call /example")
    with caplog.at_level("WARNING"):
        doc = parse_document(text)
    assert FieldEntry("call", "/example") in doc.api.fields
    assert any("call" in r.message for r in caplog.records)


def test_error_messages_point_at_block_and_field():
    try:
        parse_document(MINIMAL.replace("#method get", "#method get\n#id bool(x)"))
    except ParamShapeError as exc:
        assert exc.block_index == 2
        assert exc.field == "id"
        assert "block 2" in str(exc)
    else:
        pytest.fail("expected ParamShapeError")


# ---------------------------------------------------------------------------
# Serialization round trip
# ---------------------------------------------------------------------------


def test_fixture_round_trips_through_serialization():
    config, _ = fixture_citations()
    doc = parse_document(config)
    again = parse_document(serialize_document(doc))
    assert again == doc


@pytest.mark.parametrize(
    "separator",
    ["\u2028", "\u2029", "\x0c", "\x0b", "\x85", "\x1c", "\x1d", "\x1e"],
    ids=["LS", "PS", "FF", "VT", "NEL", "FS", "GS", "RS"],
)
def test_only_cr_and_lf_break_lines(separator):
    # str.splitlines breaks at these too; inside a SPARQL literal that
    # would turn them into a line feed.
    sparql = f'SELECT ?s WHERE {{ ?s ?p "a{separator}b[[id]]" }}'
    text = MINIMAL.replace('SELECT ?s WHERE { ?s ?p "[[id]]" }', sparql)
    doc = parse_document(text)
    assert doc.operations[0].sparql == sparql
    assert serialize_document(doc) == text


def test_parsing_is_pure():
    config, _ = fixture_citations()
    assert parse_document(config) == parse_document(config)


def _random_document(rng: random.Random) -> str:
    lines = ["#url /api/v1", "#type api", "#endpoint http://127.0.0.1:1/sparql"]
    if rng.random() < 0.5:
        lines.append(f"#title API {rng.randrange(100)}")
    if rng.random() < 0.5:
        lines.append("#description line one\nline two continues the value")
    blocks = ["\n".join(lines)]
    for index in range(rng.randrange(1, 4)):
        name = f"p{index}"
        body = [
            f"#url /thing{index}/{{{name}}}",
            "#type operation",
            f"#method {rng.choice(('get', 'post'))}",
        ]
        if rng.random() < 0.6:
            body.append(f"#{name} str(\\d+)")
        if rng.random() < 0.4:
            body.append(f"#preprocess lower({name})")
        if rng.random() < 0.4:
            body.append("#field_type str(s) int(k)")
        body.append(f"#sparql SELECT ?s ?k WHERE {{\n  ?s ?p \"[[{name}]]\" .\n}}")
        blocks.append("\n".join(body))
    return "\n\n".join(blocks) + "\n"


def test_random_documents_round_trip():
    rng = random.Random(2020)
    for _ in range(50):
        text = _random_document(rng)
        doc = parse_document(text)
        assert parse_document(serialize_document(doc)) == doc
