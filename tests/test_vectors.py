import json
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csw.vectors import (
    SparseVector,
    canonical_json,
    format_rational,
    format_vector,
    pair,
    parse_rational,
    parse_vector,
)

fractions_st = st.fractions(min_value=-50, max_value=50, max_denominator=20)
vectors_st = st.dictionaries(st.integers(min_value=0, max_value=12),
                             fractions_st, max_size=6).map(SparseVector)


def test_zero_entries_dropped():
    v = SparseVector({0: Fraction(1), 1: Fraction(0)})
    assert v.support == (0,)
    assert not (SparseVector.unit(3) - SparseVector.unit(3))


def test_parsed_zero_entries_are_not_stored():
    assert parse_vector("0:0,1:1/2").support == (1,)
    assert format_vector(parse_vector("0:0,1:1/2,2:0/3")) == "1:1/2"


@pytest.mark.parametrize("position", [2.5, True, "3"], ids=["float", "bool", "str"])
def test_positions_must_be_ints(position):
    with pytest.raises(ValueError, match="is not an int"):
        SparseVector({position: 1})


def test_parse_and_format():
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("-3") == Fraction(-3)
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-1, 3)) == "-1/3"
    assert format_rational(3) == "3"
    v = parse_vector("0:1,2:-1/2")
    assert v[0] == 1 and v[2] == Fraction(-1, 2)
    assert format_vector(v) == "0:1,2:-1/2"
    assert parse_vector("") == SparseVector()


def test_restrictions():
    v = parse_vector("0:1,3:2,5:-1")
    assert v.restrict_below(4) == parse_vector("0:1,3:2")
    assert v.restrict_to({5, 0}) == parse_vector("0:1,5:-1")
    assert v.restrict_below(0).is_zero()


def test_transport_requires_injectivity():
    v = parse_vector("0:1,1:1")
    moved = v.map_positions({0: 5, 1: 7})
    assert moved == parse_vector("5:1,7:1")


def test_pair_examples():
    assert pair(SparseVector.unit(0), SparseVector.unit(0)) == 1
    f = parse_vector("0:1/2,2:-1/2")
    x = parse_vector("0:1,2:1")
    assert pair(f, x) == 0
    # alternating functional of the width-6 family against a unit vector
    h0 = parse_vector("0:1,2:1/2,3:-1/2,4:1/2,5:-1/2")
    assert pair(h0, SparseVector.unit(2)) == Fraction(1, 2)


@given(vectors_st, vectors_st, fractions_st)
def test_pairing_is_bilinear(f, x, c):
    assert pair(f, x + x.scale(c)) == pair(f, x) * (1 + c)
    assert pair(f.scale(c), x) == c * pair(f, x)


@given(vectors_st, vectors_st)
def test_pairing_symmetric(f, x):
    assert pair(f, x) == pair(x, f)


@given(vectors_st, vectors_st)
def test_pairing_rationality(f, x):
    denominators = [v.denominator for _, v in f.items()] + \
                   [v.denominator for _, v in x.items()]
    q = lcm(*denominators) if denominators else 1
    value = pair(f, x) * q * q
    assert value.denominator == 1


@given(vectors_st)
def test_json_round_trip(v):
    assert parse_vector(format_vector(v)) == v


HALF = Fraction(1, 2)


@pytest.mark.parametrize("vec", [
    SparseVector(dict.fromkeys(range(12), HALF)),
    SparseVector({0: Fraction(1, 2), 1: Fraction(2, 4), 5: Fraction(1, 2), 11: HALF}),
    SparseVector({p: (HALF, Fraction(-3), HALF, Fraction(7, 3))[p % 4] for p in range(13)}),
    SparseVector(),
], ids=["one_shared_value", "equal_distinct_values", "alternating_values", "zero"])
def test_to_json_formats_every_value(vec):
    assert vec.to_json() == {str(p): format_rational(v) for p, v in vec.items()}


# every code point, surrogates included, with the ones json escapes drawn often
TEXT = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600'),
                         st.characters(exclude_categories=())))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**40, 10**40) | TEXT,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(TEXT, inner)),
    max_leaves=20)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(JSON_VALUES)
def test_canonical_json_is_json_dumps(obj):
    assert canonical_json(obj) == json.dumps(obj, sort_keys=True, indent=2)


def test_sparse_vector_refuses_a_negative_position():
    with pytest.raises(ValueError, match="^negative position -1$"):
        SparseVector({-1: 1})


@pytest.mark.parametrize("value", [0.1, True], ids=["float", "bool"])
def test_scale_and_division_refuse_a_float_or_a_bool(value):
    x = parse_vector("0:1")
    with pytest.raises(ValueError, match=f"^refusing {type(value).__name__} input"):
        x.scale(value)
    with pytest.raises(ValueError, match=f"^refusing {type(value).__name__} input"):
        x / value


def test_map_positions_refuses_a_position_outside_its_domain_and_a_collision():
    x = SparseVector({0: 1, 1: 2})
    with pytest.raises(KeyError, match="position 1 outside transport domain"):
        x.map_positions({0: 5})
    with pytest.raises(ValueError, match="^transport not injective at 5$"):
        x.map_positions({0: 5, 1: 5})
