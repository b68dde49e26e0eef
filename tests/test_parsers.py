"""Every JSON parser rejects bad input with ``ArenaFormatError`` or
``FamilyError`` and nothing else, whatever the document."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nwr import (
    ArenaFormatError,
    FamilyError,
    NwrCertificate,
    NwrRelation,
    parse_arena,
    parse_digraph,
    parse_family,
)
from nwr.arena import parse_rational

VERTICES = ("a", "b", "p", "n0", "t")

# Keys and ids the formats use, so that generated documents get past the
# top-level checks and reach the per-entry ones.
WORDS = st.sampled_from(
    VERTICES + ("vertices", "edges", "id", "owner", "target", "P", "N", "layers", "path", "v", "W")
)
RATIONALS = st.sampled_from(("1/2", "1", "0.25", "-1/3", "1/0", "1e-999999999", "2E3", "abc"))
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(10**6), 10**6)
    | st.floats(allow_nan=False)
    | WORDS
    | RATIONALS
    | st.text(max_size=4)
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(WORDS | st.text(max_size=3), inner, max_size=4),
    max_leaves=20,
)

PARSERS = {
    "arena": parse_arena,
    "family": parse_family,
    "digraph": parse_digraph,
    "certificate": NwrCertificate.from_json,
    "relation": lambda text: NwrRelation.from_json(text, VERTICES),
}

DEEP = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("name", sorted(PARSERS))
@settings(max_examples=100, deadline=None)
@given(text=VALUES.map(json.dumps) | st.text(max_size=12))
@example(text=DEEP)
@example(text='{"n0": {"t": "1e-999999999", "f": "1/2"}}')
@example(text="1" * 5000)
def test_parsers_raise_only_format_errors(name, text):
    try:
        PARSERS[name](text)
    except (ArenaFormatError, FamilyError):
        pass


@pytest.mark.parametrize("name", sorted(PARSERS))
def test_over_deep_json_is_malformed(name):
    with pytest.raises(ArenaFormatError, match="malformed JSON"):
        PARSERS[name](DEEP)


@pytest.mark.parametrize(
    "text, value",
    [("3", 3), ("-2", -2), ("0.25", Fraction(1, 4)), ("3/4", Fraction(3, 4)), (" 1/2 ", Fraction(1, 2))],
)
def test_parse_rational_accepts_integers_decimals_and_quotients(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize(
    "text, message",
    [
        ("1e-999999999", "exponent notation is not accepted in '1e-999999999'"),
        ("2E3", "exponent notation is not accepted in '2E3'"),
        ("1/0", "zero denominator in '1/0'"),
        ("abc", "Invalid literal"),
    ],
)
def test_parse_rational_rejects(text, message):
    with pytest.raises(ValueError, match=message):
        parse_rational(text)


def test_family_json_numbers_are_unaffected():
    assert parse_family('{"n0": {"t": 0.5, "f": 1e-3}}') == {
        "n0": {"t": Fraction(1, 2), "f": Fraction(1e-3)}
    }
    with pytest.raises(ArenaFormatError, match="bad rational '1e-999999999': exponent notation"):
        parse_family('{"n0": {"t": "1e-999999999"}}')
