"""Typed readers of the outside JSON that ratval reads: jobs and certificates.

A bool is not an int.  A rational is a JSON int or a string -?digits or
-?digits/digits in ASCII digits with a nonzero denominator, such as
"-3/2": no exponent or decimal form, so a short string cannot stand for
a huge int.  One parser, `ratio`, reads it to the int pair (num, den) in
lowest terms, the form of an exponent; `rational` makes a Fraction of
that pair, the form of a field element.  An object read with a key set
is closed ("unknown field levels[3].j"): certificates are read so, jobs
open, their unknown keys ignored.  Each error is a SchemaError naming
the JSON path of the bad value, keys joined by dots and indices in
brackets (`valuation.base.p`, `steps[0].alpha`).  A path is a tuple of
keys and indices, () for the whole document; its text is built only on
an error.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from .errors import SchemaError

_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")  # [0-9]: \d and str.isdigit take other digits


def where(path) -> str:
    """The text of a path: ("steps", 0, "alpha") is steps[0].alpha."""
    return "".join(f"[{k}]" if type(k) is int else f".{k}" if i else k for i, k in enumerate(path))


def fail(value, path, what: str) -> SchemaError:
    """The error for a value at path that is not `what`."""
    try:
        shown = json.dumps(value, default=repr)
    except (RecursionError, ValueError):  # nested too deep, or an int past 4300 digits
        shown = f"a {type(value).__name__}"
    shown = shown if len(shown) <= 80 else shown[:77] + "..."
    return SchemaError(f"field {where(path)!r} must be {what}, got {shown}" if path
                       else f"cannot read {shown} as {what}")


def obj(value, path=(), keys=None, required=()) -> dict:
    """A JSON object holding every key of `required`, closed to the set `keys` if given."""
    if type(value) is not dict:
        raise fail(value, path, "a JSON object")
    if keys is not None and not keys.issuperset(value):
        raise SchemaError(f"unknown field {where((*path, next(k for k in value if k not in keys)))}")
    for key in required:
        if key not in value:
            raise SchemaError(f"missing the required field {where((*path, key))!r}")
    return value


def integer(value, path=()) -> int:
    if type(value) is not int:
        raise fail(value, path, "a JSON integer")
    return value


def rational(value, path=()) -> Fraction:
    """A Fraction as it is, or the Fraction of what `ratio` reads."""
    return value if type(value) is Fraction else Fraction(*ratio(value, path))


def ratio(value, path=()) -> tuple[int, int]:
    """A JSON int, a string -?digits or -?digits/digits, or a Fraction,
    as (num, den) in lowest terms with den > 0.  A string is tested
    first: isinstance(value, Fraction) is an ABC check."""
    try:
        if type(value) is str and (m := _RATIONAL.fullmatch(value)) and (den := int(m[2] or 1)):
            g = math.gcd(num := int(m[1]), den)
            return num // g, den // g
    except ValueError:  # digits past int's limit
        pass
    if type(value) is int:
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise fail(value, path, 'an exact rational (a JSON int or a "num/den" string)')


def string(value, path=(), choices=None) -> str:
    if type(value) is not str or (choices is not None and value not in choices):
        raise fail(value, path, "a JSON string" if choices is None
                   else "one of " + ", ".join(map(json.dumps, choices)))
    return value


def list_of(read, value, path=(), length=None) -> list:
    """A JSON list (of `length` entries if given) with each entry passed
    through read(entry, its path), or kept as it is if read is None."""
    if type(value) is not list or (length is not None and len(value) != length):
        raise fail(value, path, "a JSON list" if length is None else f"a JSON list of {length} entries")
    return value if read is None else [read(v, (*path, i)) for i, v in enumerate(value)]
