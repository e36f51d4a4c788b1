"""The typed JSON readers of ratval.schema: the rules and the error texts."""

import sys
from fractions import Fraction

import pytest

from ratval.errors import SchemaError
from ratval.schema import integer, list_of, obj, ratio, rational, string, where


def test_where_joins_keys_with_dots_and_indices_in_brackets():
    assert where(("valuation", "base", "p")) == "valuation.base.p"
    assert where(("e", 2)) == "e[2]"
    assert where(("steps", 0, "alpha")) == "steps[0].alpha"
    assert where(("series", "terms", 1, 0)) == "series.terms[1][0]"
    assert where(()) == ""


@pytest.mark.parametrize("value", [True, False, 2.0, "2", None, [2]])
def test_a_bool_or_anything_but_an_int_is_not_an_integer(value):
    with pytest.raises(SchemaError) as err:
        integer(value, ("p",))
    assert str(err.value).startswith("field 'p' must be a JSON integer, got ")


def test_obj_names_a_stray_key_and_a_missing_one():
    assert obj({"a": 1}, ("x",), keys={"a", "b"}, required=("a",)) == {"a": 1}
    with pytest.raises(SchemaError, match=r"^unknown field x\[2\]\.c$"):
        obj({"a": 1, "c": 2}, ("x", 2), keys={"a", "b"})
    with pytest.raises(SchemaError, match=r"^missing the required field 'x\.b'$"):
        obj({"a": 1}, ("x",), required=("a", "b"))
    with pytest.raises(SchemaError, match=r"^cannot read \[\] as a JSON object$"):
        obj([])


def test_string_choices():
    assert string("vag", ("kind",), ("vag", "pcs")) == "vag"
    with pytest.raises(SchemaError, match=r"^field 'kind' must be one of \"vag\", \"pcs\", got null$"):
        string(None, ("kind",), ("vag", "pcs"))


def test_list_of_reads_each_entry_at_its_own_path():
    assert list_of(integer, [1, 2], ("e",)) == [1, 2]
    assert list_of(rational, ["1/2", 3], ("g",)) == [Fraction(1, 2), Fraction(3)]
    with pytest.raises(SchemaError, match=r"^field 'e\[1\]' must be a JSON integer, got true$"):
        list_of(integer, [1, True], ("e",))
    with pytest.raises(SchemaError, match=r"^field 't' must be a JSON list of 2 entries, got \[1\]$"):
        list_of(None, [1], ("t",), length=2)


NOT_RATIONALS = [True, 1.5, None, [], {}, "x", "1/0", "1//2", " ", "--3",
                 # exponent, decimal, plus-signed, spaced, underscored and
                 # non-ASCII forms ("1e10000000" used to build 10^(10^7))
                 "1e10000000", "2.5", "+3", " 3", "3\n", "3_000", "0x10", "٣",
                 "1/-2", "3/", "/3", "-", "", "1/2/3"]
RATIONALS = [("-3/2", Fraction(-3, 2)), ("007", Fraction(7)), ("-0/5", Fraction(0)),
             ("12/8", Fraction(3, 2)), ("-12", Fraction(-12)), (-12, Fraction(-12))]


@pytest.mark.parametrize("value", NOT_RATIONALS)
def test_what_is_not_a_rational(value):
    with pytest.raises(SchemaError) as err:
        rational(value, ("gamma", 0))
    assert str(err.value).startswith("field 'gamma[0]' must be an exact rational "
                                     '(a JSON int or a "num/den" string), got ')


def test_a_value_too_deep_to_show_is_shown_by_its_type():
    nested = []
    for _ in range(sys.getrecursionlimit()):
        nested = [nested]
    with pytest.raises(SchemaError, match=r"^field 'p' must be a JSON integer, got a list$"):
        integer(nested, ("p",))


def test_an_int_past_the_digit_limit_is_not_a_rational():
    with pytest.raises(SchemaError):
        rational("1" * 5000)
    with pytest.raises(SchemaError):
        rational("1/" + "2" * 5000)


@pytest.mark.parametrize("value, expected", RATIONALS)
def test_what_is_a_rational(value, expected):
    assert rational(value) == expected


@pytest.mark.parametrize("value, expected", RATIONALS + [("0/0012", Fraction(0)), ("-0030/0045", Fraction(-2, 3)),
                                                         (Fraction(-4, 6), Fraction(-2, 3)), ("1/1", Fraction(1))])
def test_ratio_is_the_int_pair_of_the_rational(value, expected):
    """ratio reads the grammar of rational and gives its Fraction's pair:
    in lowest terms, the denominator positive, zero as (0, 1)."""
    assert ratio(value) == (rational(value).numerator, rational(value).denominator)
    assert ratio(value) == (expected.numerator, expected.denominator)
    assert all(type(x) is int for x in ratio(value))


@pytest.mark.parametrize("value", NOT_RATIONALS + ["0/0", "1" * 5000, "1/" + "2" * 5000])
def test_ratio_refuses_what_rational_refuses_with_the_same_text(value):
    with pytest.raises(SchemaError) as want:
        rational(value, ("gamma", 0))
    with pytest.raises(SchemaError) as got:
        ratio(value, ("gamma", 0))
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("field 'gamma[0]' must be an exact rational ")
