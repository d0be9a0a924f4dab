from __future__ import annotations

import random

import pytest

from checks import oracle_duration_seconds, oracle_key
from sparqlgate.values import VALUE_TYPES, compare, is_valid, parse_typed, sort_key

# ---------------------------------------------------------------------------
# Parsing, one type at a time
# ---------------------------------------------------------------------------


def test_int_parsing():
    assert parse_typed("42", "int") == 42
    assert parse_typed("-7", "int") == -7
    assert parse_typed("+5", "int") == 5
    for bad in ("", "12a", "1.0", "1 2", " 3", "1_0", "0x10"):
        with pytest.raises(ValueError):
            parse_typed(bad, "int")


def test_float_parsing():
    assert parse_typed("0.5", "float") == 0.5
    assert parse_typed("-1.25", "float") == -1.25
    assert parse_typed("3e2", "float") == 300.0
    assert parse_typed(".5", "float") == 0.5
    assert parse_typed("1.", "float") == 1.0
    for bad in ("", "nan", "inf", "1e", "one", "1,5", "--2"):
        with pytest.raises(ValueError):
            parse_typed(bad, "float")


def test_datetime_prefixes_pad_to_earliest_instant():
    full = parse_typed("2016-05-01T00:00:00", "datetime")
    assert parse_typed("2016-05", "datetime") == full
    assert parse_typed("2016-05-01", "datetime") == full
    assert parse_typed("2016-05-01T00", "datetime") == full
    assert parse_typed("2016-05-01T00:00", "datetime") == full
    assert parse_typed("2016", "datetime") == parse_typed("2016-01-01", "datetime")


def test_datetime_rejects_malformed_text():
    for bad in ("", "16-05", "2016-5", "2016-13", "2016-02-30", "2016-05-01 13:00",
                "2016-05-01T25", "2016/05/01", "0000"):
        with pytest.raises(ValueError):
            parse_typed(bad, "datetime")


def test_duration_unit_arithmetic():
    assert parse_typed("P1Y", "duration") == 365 * 86400
    assert parse_typed("P1M", "duration") == 30 * 86400
    assert parse_typed("P1W", "duration") == 7 * 86400
    assert parse_typed("P1D", "duration") == 86400
    assert parse_typed("PT1H", "duration") == 3600
    assert parse_typed("PT1M", "duration") == 60
    assert parse_typed("PT1.5S", "duration") == 1.5
    assert parse_typed("P1YT1S", "duration") == 365 * 86400 + 1
    assert parse_typed("-P1D", "duration") == -86400
    assert parse_typed("P100D", "duration") == 100 * 86400
    assert parse_typed("PT36H", "duration") == 36 * 3600


def test_duration_rejects_malformed_text():
    for bad in ("", "P", "PT", "1D", "P1X", "PD", "P1S", "PT1D", "P1D2Y", "p1d"):
        with pytest.raises(ValueError):
            parse_typed(bad, "duration")


@pytest.mark.parametrize("lexical, key", [
    ("P1DT", (0,)),  # XSD: a "T" needs a time component after it
    ("-P1DT", (0,)),
    ("PT1h", (0,)),  # XSD: designators are upper case
    ("P1DT1H", (1, 90000.0)),
    ("PT1H", (1, 3600.0)),
])
def test_duration_validity_and_keys_agree_with_the_oracle(lexical, key):
    assert is_valid(lexical, "duration") == (key != (0,))
    assert sort_key(lexical, "duration") == oracle_key(lexical, "duration") == key


def test_str_is_identity_and_unknown_type_rejected():
    assert parse_typed("anything", "str") == "anything"
    with pytest.raises(ValueError):
        parse_typed("x", "bool")


def test_is_valid_mirrors_parse_typed():
    assert is_valid("42", "int")
    assert not is_valid("42x", "int")
    assert is_valid("", "str")
    assert not is_valid("", "int")


@pytest.mark.parametrize("value_type, lexical", [
    ("int", "12"), ("float", "1.5e3"), ("datetime", "2016-05-01T13"), ("duration", "P1DT2H"),
])
def test_a_trailing_line_feed_is_not_part_of_a_typed_value(value_type, lexical):
    # The text may reach a query, so "12\n" is not an int, though "12" is.
    assert is_valid(lexical, value_type)
    for suffix in ("\n", "\r\n", "\nx"):
        assert not is_valid(lexical + suffix, value_type)
        with pytest.raises(ValueError):
            parse_typed(lexical + suffix, value_type)


# Each text holds Arabic-Indic (U+0660..), fullwidth (U+FF10..) or Devanagari
# (U+0966..) digits, which Python's int() and float() would read.
NON_ASCII_DIGITS = {
    "int": ("\u0661\u0662", "-\u0663", "\uff11\uff12", "\u0967\u0968", "1\u0662"),
    "float": ("\u0661.\u0665", "\uff11.\uff15", "\u0967.\u096b", "1.\u0665", "1e\u0662"),
    "duration": ("P\u0661D", "PT\uff11H", "P\u0967Y", "P1DT\u0662S", "-P\u0663W"),
    "datetime": (
        "\u0662\u0660\u0661\u0666-05", "\uff12\uff10\uff11\uff16", "\u0968\u0966\u0967\u096c",
        "2016-\u0660\u0665", "2016-05-01T\u0661\u0663",
    ),
}


@pytest.mark.parametrize("value_type, lexical", [
    (value_type, lexical) for value_type, texts in NON_ASCII_DIGITS.items() for lexical in texts
])
def test_a_non_ascii_digit_is_not_part_of_a_typed_value(value_type, lexical):
    # SPARQL's INTEGER is [0-9]+, and the text may be spliced into a query.
    assert not is_valid(lexical, value_type)
    assert sort_key(lexical, value_type) == oracle_key(lexical, value_type) == (0,)


# ---------------------------------------------------------------------------
# Comparison semantics
# ---------------------------------------------------------------------------


def test_empty_compares_less_than_any_value_for_every_type():
    samples = {"str": "a", "int": "0", "float": "0.0",
               "duration": "PT0S", "datetime": "2000"}
    for value_type, lexical in samples.items():
        assert compare("", lexical, value_type) == -1
        assert compare(lexical, "", value_type) == 1
        assert compare("", "", value_type) == 0


def test_unparseable_text_compares_like_empty():
    assert compare("not-a-number", "5", "int") == -1
    assert compare("not-a-number", "", "int") == 0
    assert compare("junk", "more-junk", "datetime") == 0


def test_numeric_comparison_is_by_value_not_by_text():
    assert compare("9", "10", "int") == -1  # lexicographic would say 1
    assert compare("3e2", "300", "float") == 0
    assert compare("+5", "5", "int") == 0


def test_datetime_prefix_comparison_examples():
    assert compare("2016-05-01", "2016-05", "datetime") == 0
    assert compare("2016-04-30", "2016-05", "datetime") == -1
    assert compare("2016-06-01", "2016-05", "datetime") == 1


def test_duration_comparison_across_units():
    assert compare("PT36H", "P1D", "duration") == 1
    assert compare("P1W", "P7D", "duration") == 0
    assert compare("-P1D", "PT0S", "duration") == -1


# ---------------------------------------------------------------------------
# Oracle properties (seeded random)
# ---------------------------------------------------------------------------


def _random_lexical(rng: random.Random) -> str:
    kind = rng.randrange(6)
    if kind == 0:
        return str(rng.randint(-(10 ** 6), 10 ** 6))
    if kind == 1:
        return f"{rng.uniform(-1000, 1000):.{rng.randrange(1, 5)}f}"
    if kind == 2:
        text = f"{rng.randint(1000, 2100):04d}-{rng.randint(1, 12):02d}"
        if rng.random() < 0.6:
            text += f"-{rng.randint(1, 28):02d}"
            if rng.random() < 0.5:
                text += f"T{rng.randrange(24):02d}:{rng.randrange(60):02d}"
        return text
    if kind == 3:
        parts = ""
        if rng.random() < 0.7:
            parts += f"{rng.randrange(1, 40)}D"
        time = ""
        if rng.random() < 0.7:
            time += f"{rng.randrange(1, 2000)}S"
        if not parts and not time:
            parts = "1W"
        return ("-" if rng.random() < 0.2 else "") + "P" + parts + ("T" + time if time else "")
    if kind == 4:
        return ""
    return "".join(rng.choice("abz019.-T:") for _ in range(rng.randrange(1, 12)))


def test_compare_agrees_with_independent_oracle():
    rng = random.Random(1811)
    for _ in range(2000):
        value_type = rng.choice(VALUE_TYPES)
        a, b = _random_lexical(rng), _random_lexical(rng)
        ka, kb = oracle_key(a, value_type), oracle_key(b, value_type)
        expected = -1 if ka < kb else (1 if ka > kb else 0)
        assert compare(a, b, value_type) == expected, (value_type, a, b)
        assert sort_key(a, value_type) == ka, (value_type, a)


def test_duration_parser_agrees_with_independent_scanner():
    rng = random.Random(97)
    units = ("Y", "M", "W", "D")
    time_units = ("H", "M", "S")
    for _ in range(500):
        date = "".join(
            f"{rng.randrange(100)}{u}" for u in units if rng.random() < 0.4
        )
        time = "".join(
            f"{rng.randrange(100)}{u}" for u in time_units if rng.random() < 0.4
        )
        text = "P" + date + ("T" + time if time else "")
        if rng.random() < 0.2:
            text = "-" + text
        if date or time:
            assert parse_typed(text, "duration") == oracle_duration_seconds(text)
        else:
            with pytest.raises(ValueError):
                parse_typed(text, "duration")


def test_comparison_is_antisymmetric_and_total():
    rng = random.Random(53)
    for _ in range(500):
        value_type = rng.choice(VALUE_TYPES)
        a, b = _random_lexical(rng), _random_lexical(rng)
        assert compare(a, b, value_type) == -compare(b, a, value_type)
        assert compare(a, a, value_type) == 0
