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


def test_unrecognized_hash_tokens_continue_the_previous_value():
    # "#color" is not a field name anywhere, so the line is value content.
    text = MINIMAL.replace("#type api", "#title Demo\n#color blue\n#type api")
    assert parse_document(text).api.title == "Demo\n#color blue"


def test_misplaced_fields_are_kept_as_extras_with_a_warning(caplog):
    # "#call" is an operation field; inside an api block it still splits,
    # but lands in extras instead of gaining meaning.
    text = MINIMAL.replace("#type api", "#type api\n#call /example")
    with caplog.at_level("WARNING"):
        doc = parse_document(text)
    assert FieldEntry("call", "/example") in doc.api.extras
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
