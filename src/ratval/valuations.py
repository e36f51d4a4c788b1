"""Valuations on rational function fields K(x).

A base valued field (p-adic rationals, t-adic rational functions, a
trivially valued field, or a truncated series field) is extended to
K(x) by a centered valuation: fixing a center a in K and a value gamma
for x - a in an ordered group extension of the value group, the value of
a polynomial is the minimum of v(c_i) + i*gamma over its Taylor
coefficients at the center, and values of quotients are differences.
The minimum is taken on int keys D (v(c_i) + i*gamma).  Over Q (p-adic)
and k(t) (t-adic) the c_i come from a fraction-free shift over Z or k[t]
with no gcd in the loop, and the v(c_i) are read off it as ints.  Over
F_2(t) every step runs on one int per polynomial in t, from the
reading of the job's coefficients to the shift, whose packed ints keep
a fixed digit width and are masked to the low bit of each digit, and
ord_t h_i is the lowest set digit; over an odd F_p(t) the shift runs
exactly over Z on one packed int per polynomial, and ord_t h_i is the
first digit that p does not divide.  Over a trivially valued base the
least i with c_i != 0 decides for gamma > 0, and the degree for gamma
<= 0.

An independent substitution oracle expands g(a + w) by Horner's rule,
w of value gamma (substitution_value): over a p-adic or t-adic base by
Horner in the completion at a precision that doubles until the minimum
is decided (over F_p(t) on packed ints truncated by a mask, which over
F_2 also keeps each digit's low bit), over a finite trivially valued
base by Horner in Z[X] by Kronecker substitution, reduced once, over
the other bases on the base's own elements.

Rational functions in one variable have one type, fields.FunctionField,
gcd-reduced with a monic denominator: it is both the t-adic base k(t)
(generator t) and the residue field Kv(y) of a residue-transcendental
extension.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import InternalError, PreconditionError
from .fields import (
    Field,
    FieldElement,
    FiniteField,
    FunctionField,
    FunctionFieldElement,
    _pdigits, _ppack, _prem, _pstrip, _shift_passes, _tadic_order,
    is_prime,
)
from .groups import GroupElement, Subgroup, _from_key
from .record import Record
from .schema import fail, integer, list_of, obj, rational, string
from .series import HahnSeries

__all__ = [
    "ValuedField",
    "PAdicRationals",
    "TAdicRationalFunctions",
    "TriviallyValued",
    "SeriesValuedField",
    "RatFunc",
    "RationalFunction",
    "CenteredValuation",
    "taylor_shift",
    "substitution_value",
    "PseudoCauchyValuation",
    "valuation_from_json",
    "classify_summary",
    "VALUE_TRANSCENDENTAL",
    "RESIDUE_TRANSCENDENTAL",
    "VALUATION_ALGEBRAIC",
]

VALUE_TRANSCENDENTAL = "value-transcendental"
RESIDUE_TRANSCENDENTAL = "residue-transcendental"
VALUATION_ALGEBRAIC = "valuation-algebraic"

_START_PRECISION = 8  # the first K of the substitution oracle's Z/p^K and k[t]/t^K


def _is_zero(a) -> bool:
    if isinstance(a, Fraction):
        return a == 0
    if isinstance(a, (FieldElement, HahnSeries, FunctionFieldElement)):
        return a.is_zero()
    raise TypeError(f"unsupported element type {type(a).__name__}")


# ---------------------------------------------------------------------------
# base valued fields

class ValuedField:
    """A field K with an exactly computable rank-1 valuation."""

    residue_field: Field

    def val(self, a) -> Fraction:
        """Value of a nonzero element, as an exact rational."""
        raise NotImplementedError

    def residue(self, a):
        """Residue of an element of value zero."""
        raise NotImplementedError

    def residue_quot(self, a, b):
        """Residue of a/b for elements with val(a) == val(b)."""
        raise NotImplementedError

    def element_of_value(self, v: Fraction):
        """A canonical element with the given value in the value group."""
        raise NotImplementedError

    def taylor_coefficients(self, cs: list, center) -> list:
        """Taylor coefficients at the center of the nonzero polynomial
        with stripped coefficient list cs."""
        return taylor_shift(cs, center, self.zero())

    def taylor_values(self, cs: list, center) -> list:
        """v(c_i) for the c_i of taylor_coefficients, None where c_i = 0."""
        return [None if _is_zero(c) else self.val(c) for c in self.taylor_coefficients(cs, center)]

    def value_generators(self) -> list[int | Fraction]:
        """Generators of the value group vK inside Q, each an int or a Fraction."""
        raise NotImplementedError

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def element(self, data, path=()):
        """Coerce JSON data read at path (or a raw value) to a field element."""
        raise NotImplementedError

    def sample(self, rng):
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_json(data, path=()) -> "ValuedField":
        data = obj(data, path)
        kind, at = data.get("kind"), (*path, "coefficients")
        if kind == "p-adic":
            return PAdicRationals(integer(data.get("p"), (*path, "p")))
        if kind == "t-adic":
            return TAdicRationalFunctions(Field.from_json(data.get("coefficients", {"char": 0}), at))
        if kind == "trivial":
            return TriviallyValued(Field.from_json(data.get("coefficients"), at))
        if kind == "series":
            return SeriesValuedField(Field.from_json(data.get("coefficients"), at),
                                     list_of(rational, data.get("value_group", ["1"]), (*path, "value_group")))
        raise PreconditionError(f"unknown base valued field kind {kind!r}")


class PAdicRationals(ValuedField):
    """Q with the p-adic valuation; elements are exact Fractions."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise PreconditionError(f"{p} is not prime")
        self.p = p
        self.residue_field = FiniteField(p)

    @staticmethod
    def _intval(n: int, p: int) -> int:
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v

    def val(self, a) -> Fraction:
        a = Fraction(a)
        if a == 0:
            raise PreconditionError("the zero element has no value")
        return Fraction(self._intval(a.numerator, self.p) - self._intval(a.denominator, self.p))

    def residue(self, a) -> FieldElement:
        a = Fraction(a)
        if self.val(a) != 0:
            raise PreconditionError("residue is defined for elements of value zero")
        return self.residue_field.element(
            a.numerator * pow(a.denominator, -1, self.p)
        )

    def residue_quot(self, a, b) -> FieldElement:
        return self.residue(Fraction(a) / Fraction(b))

    def element_of_value(self, v: Fraction):
        v = Fraction(v)
        if v.denominator != 1:
            raise PreconditionError(f"{v} is not in the value group Z")
        return Fraction(self.p) ** v.numerator

    def value_generators(self):
        return [1]

    def _fraction_free_shift(self, cs: list, center: Fraction):
        """(h, L, d): with L the lcm of the coefficient denominators, center
        n/d and N the degree, H(y) = L d^N g(y/d) has integer coefficients,
        and h holds its Taylor coefficients h_i at n, by synthetic division
        over Z; c_i = h_i d^i / (L d^N) = h_i / (L d^(N-i))."""
        n, d, top = center.numerator, center.denominator, len(cs) - 1
        lcm = math.lcm(*(c.denominator for c in cs))
        h = [c.numerator * (lcm // c.denominator) * d ** (top - j) for j, c in enumerate(cs)]
        for i in range(top):
            for j in range(top - 1, i - 1, -1):
                h[j] += n * h[j + 1]
        return h, lcm, d

    def taylor_coefficients(self, cs: list, center) -> list:
        """Fraction-free shift over Z: c_i = h_i / (L d^(N-i))."""
        h, lcm, d = self._fraction_free_shift(cs, center)
        return [Fraction(hi, lcm * d ** (len(h) - 1 - i)) for i, hi in enumerate(h)]

    def taylor_values(self, cs: list, center) -> list:
        """v_p(c_i) = v_p(h_i) - v_p(L) - (N - i) v_p(d) as ints, read off
        the fraction-free shift with no Fraction built."""
        h, lcm, d = self._fraction_free_shift(cs, center)
        v_lcm, v_den, top = self._intval(lcm, self.p), self._intval(d, self.p), len(h) - 1
        return [self._intval(hi, self.p) - v_lcm - (top - i) * v_den if hi else None
                for i, hi in enumerate(h)]

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def element(self, data, path=()):
        return rational(data, path)

    def sample(self, rng):
        num = rng.randint(-40, 40)
        den = rng.randint(1, 40)
        return Fraction(num, den)

    def to_json(self):
        return {"kind": "p-adic", "p": self.p}

    def __repr__(self):
        return f"Q ({self.p}-adic)"


def RatFunc(field: Field, num, den=None) -> FunctionFieldElement:
    """The rational function num/den in t over `field`, an element of k(t)."""
    return FunctionField(field, "t").element(num, den)


class TAdicRationalFunctions(ValuedField):
    """k(t) with the t-adic valuation, k an exact coefficient field.

    Elements are the reduced FunctionField(k, "t") elements, so the value
    and the residue are read off the trailing terms of num and den.
    """

    def __init__(self, coefficients: Field):
        self.coefficients = coefficients
        self.residue_field = coefficients
        self.field = FunctionField(coefficients, "t")

    def val(self, a: FunctionFieldElement) -> Fraction:
        if a.is_zero():
            raise PreconditionError("the zero element has no value")
        return Fraction(_tadic_order(a.num) - _tadic_order(a.den))

    def residue(self, a: FunctionFieldElement):
        i, j = _tadic_order(a.num), _tadic_order(a.den)
        if i != j:
            raise PreconditionError("residue is defined for elements of value zero")
        return a.num[i] / a.den[j]

    def residue_quot(self, a: FunctionFieldElement, b: FunctionFieldElement):
        return self.residue(a / b)

    def element_of_value(self, v: Fraction):
        v = Fraction(v)
        if v.denominator != 1:
            raise PreconditionError(f"{v} is not in the value group Z")
        return self.field.gen() ** v.numerator

    def value_generators(self):
        return [1]

    def _fraction_free_shift(self, cs: list, center: FunctionFieldElement):
        """(h, L, d), L and d ring forms of the field: with L the lcm of
        the coefficient denominators, center n/d and N the degree, H(y) =
        L d^N g(y/d) has coefficients H_j = L c_j d^(N-j) in k[t], and h
        holds its Taylor coefficients h_i at n, by synthetic division with
        no gcd in the loop (the ring's shift); c_i = h_i / (L d^(N-i))."""
        f = self.field
        (n, d), (lcm, factors) = f._unwrap(center.num, center.den), f._cleared(cs)
        return f._ring.shift(factors, d, n), lcm, d

    def taylor_coefficients(self, cs: list, center: FunctionFieldElement) -> list:
        """Fraction-free shift over k[t], the analogue of the p-adic one
        over Z: c_i = h_i / (L d^(N-i)), each reduced once by
        FunctionField._make."""
        f = self.field
        h, den, d = self._fraction_free_shift(cs, center)
        out = []
        for hi in reversed(h):
            out.append(f._make(hi, den))
            den = f._ring.mul(den, d)
        return out[::-1]

    def taylor_values(self, cs: list, center: FunctionFieldElement) -> list:
        """v(c_i) = ord_t h_i - ord_t L - (N - i) ord_t d, read off the
        fraction-free shift with no division back."""
        order = self.field._ring.order
        h, lcm, d = self._fraction_free_shift(cs, center)
        v_lcm, v_den, top = order(lcm), order(d), len(h) - 1
        return [None if (v := order(hi)) is None else v - v_lcm - (top - i) * v_den
                for i, hi in enumerate(h)]

    def zero(self):
        return self.field.element([])

    def one(self):
        return self.field.element([self.coefficients.one()])

    def element(self, data, path=()):
        """{"num": [...], "den": [...]} lowest degree first (den [1] if absent) or a constant."""
        if isinstance(data, FunctionFieldElement):
            return data
        if type(data) is not dict:
            return self.field.element([self.coefficients.element(data, path)])
        den = data.get("den")
        return self.field.element(list_of(None, data.get("num", []), (*path, "num")),
                                  None if den is None else list_of(None, den, (*path, "den")), path)

    def sample(self, rng):
        deg_n = rng.randrange(0, 3)
        num = [self.coefficients.sample(rng) for _ in range(deg_n + 1)]
        den = [self.coefficients.sample(rng) for _ in range(rng.randrange(0, 2) + 1)]
        return self.field.element(num, den if any(not c.is_zero() for c in den) else None)

    def to_json(self):
        return {"kind": "t-adic", "coefficients": self.coefficients.to_json()}

    def __repr__(self):
        return f"{self.coefficients!r}(t) (t-adic)"


class TriviallyValued(ValuedField):
    """A field k with the trivial valuation: v = 0 on all nonzero elements."""

    def __init__(self, field: Field):
        self.field = field
        self.residue_field = field

    def val(self, a: FieldElement) -> Fraction:
        if _is_zero(a):
            raise PreconditionError("the zero element has no value")
        return Fraction(0)

    def residue(self, a):
        return a

    def residue_quot(self, a, b):
        return a / b

    def element_of_value(self, v: Fraction):
        if Fraction(v) != 0:
            raise PreconditionError("the trivial value group contains only 0")
        return self.field.one()

    def value_generators(self):
        return []

    def _lazy_shift(self, cs: list, center):
        """The Taylor coefficients c_0, c_1, ... at the center, each yielded
        as the pass of _shift_passes that settles it ends.  Over a
        FiniteField the passes run on the coefficient vectors over F_p,
        h_j <- M h_(j+1) + h_j mod p, M the matrix of multiplication by the
        center, built once a pass runs; otherwise on the field's elements."""
        f = self.field
        if not isinstance(f, FiniteField) or len(cs) < 2:
            return _shift_passes(list(cs), lambda x, y: x * center + y)
        p, rows = f.characteristic, f.mul_matrix(center)
        passes = _shift_passes([c.value for c in cs], lambda x, y: [
            (sum(map(operator.mul, row, x)) + c) % p for row, c in zip(rows, y)])
        return (FieldElement(f, tuple(v)) for v in passes)

    def taylor_coefficients(self, cs: list, center) -> list:
        return list(self._lazy_shift(cs, center))

    def zero(self):
        return self.field.zero()

    def one(self):
        return self.field.one()

    def element(self, data, path=()):
        return self.field.element(data, path)

    def sample(self, rng):
        return self.field.sample(rng)

    def to_json(self):
        return {"kind": "trivial", "coefficients": self.field.to_json()}

    def __repr__(self):
        return f"{self.field!r} (trivial valuation)"


class SeriesValuedField(ValuedField):
    """A truncated power series field k((G)) with the min-support valuation.

    `value_generators` describes the value group of the subfield being
    modelled (e.g. Z inside its p-divisible hull); elements are
    HahnSeries over the coefficient field.
    """

    def __init__(self, coefficients: Field, value_gens=(Fraction(1),)):
        self.coefficients = coefficients
        self.residue_field = coefficients
        self._gens = [rational(g) for g in value_gens]

    def val(self, a: HahnSeries) -> Fraction:
        v = a.value()
        if v is None:
            raise PreconditionError("series with empty support: value lies above the truncation bound")
        return Fraction(v.key[0], v.den)

    def residue(self, a: HahnSeries):
        if self.val(a) != 0:
            raise PreconditionError("residue is defined for elements of value zero")
        return a.coeff_at(GroupElement.zero(a.rank))

    def residue_quot(self, a: HahnSeries, b: HahnSeries):
        va, vb = a.value(), b.value()
        if va is None or vb is None or va != vb:
            raise PreconditionError("residue quotient needs equal finite values")
        return a.leading_coeff() / b.leading_coeff()

    def element_of_value(self, v: Fraction):
        return HahnSeries.monomial(self.coefficients, GroupElement.of(v), self.coefficients.one())

    def value_generators(self):
        return list(self._gens)

    def zero(self):
        return HahnSeries.zero(self.coefficients)

    def one(self):
        return HahnSeries.constant(self.coefficients, self.coefficients.one())

    def element(self, data, path=()):
        if isinstance(data, HahnSeries):
            return data
        if type(data) is dict:
            return HahnSeries.from_json(data, field=self.coefficients, path=path)
        return HahnSeries.constant(self.coefficients, self.coefficients.element(data, path))

    def sample(self, rng):
        n = rng.randrange(0, 4)
        terms = []
        for _ in range(n):
            expo = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 4]))
            terms.append((GroupElement.of(expo), self.coefficients.sample(rng)))
        return HahnSeries.make(self.coefficients, terms)

    def to_json(self):
        return {
            "kind": "series",
            "coefficients": self.coefficients.to_json(),
            "value_group": [str(g) for g in self._gens],
        }

    def __repr__(self):
        return f"{self.coefficients!r}((t^G))"


# ---------------------------------------------------------------------------
# polynomials and rational functions over K

def taylor_shift(coeffs: list, center, zero) -> list:
    """Coefficients c_i with g(x) = sum c_i (x - a)^i, by repeated
    synthetic division of g by (x - a).

    This is the generic shift of ValuedField.taylor_coefficients, which
    CenteredValuation evaluates through; PAdicRationals overrides it with
    a fraction-free shift over Z, TAdicRationalFunctions with the same
    shift over k[t] in the polynomial ring of its FunctionField, and
    TriviallyValued with the lazy passes of _shift_passes (on F_p
    vectors over a finite field), each giving the same coefficients.  So
    it runs only over a series base.
    """
    cs = list(coeffs)
    while cs and _is_zero(cs[-1]):
        cs.pop()
    return list(_shift_passes(cs, lambda x, y: x * center + y)) or [zero]


class _PAdicTruncation:
    """Z/p^K on ints: H(y) = L d^N g(y/d), for L the lcm of the coefficient
    denominators and the center n/d, has int coefficients H_j, and the
    coefficient h_i of w^i in H(n + w) is L d^(N-i) c_i, c_i that of
    g(a + w).  At K >= exact_k, p^K > sum_j |H_j| (1 + |n|)^j >= |h_i|."""

    def __init__(self, base: PAdicRationals, cs: list, center: Fraction):
        self.p, self.n, d = base.p, center.numerator, center.denominator
        self.order = lambda r: PAdicRationals._intval(r, base.p) if r else None
        lcm, self.H, power, bound = math.lcm(*(c.denominator for c in cs)), [], 1, 0
        for c in reversed(cs):
            self.H.insert(0, c.numerator * (lcm // c.denominator) * power)
            power, bound = power * d, bound * (1 + abs(self.n)) + abs(self.H[0])
        self.v_lcm, self.v_den, self.exact_k = self.order(lcm), self.order(d), bound.bit_length()

    def truncated(self, k: int):
        q, n = self.p ** k, self.n
        return [h % q for h in self.H], lambda x, y: (x * n + y) % q


class _TAdicTruncation:
    """k[t]/t^K with L, H and h_i as in _PAdicTruncation over k[t], in the
    ring of the FunctionField (its truncation): over F_2 on ints packed at
    a fixed w-bit width, each multiply-add masked to the low bit of each
    of K digits; over odd p on the b-bit ints of fields._ppack_cleared,
    where truncation is a mask that only drops terms, so no digit passes
    b, and a residue is read mod p; over Q and F_{p^n} on lists.  At K >=
    exact_k = max_j (deg H_j + j deg n) + 1, K exceeds every deg h_i."""

    def __init__(self, base: TAdicRationalFunctions, cs: list, center: FunctionFieldElement):
        f = base.field
        ring = f._ring
        (n, d), pairs = f._unwrap(center.num, center.den), [f._unwrap(c.num, c.den) for c in cs]
        lcm = ring.one
        for _, den in pairs:
            lcm = ring.mul(lcm, ring.quo(den, ring.gcd(lcm, den)))
        factors = [(num, ring.quo(lcm, den)) for num, den in pairs]
        self.H, self.exact_k, self.order, self._truncated = ring.truncation(factors, d, n)
        self.v_lcm, self.v_den = ring.order(lcm), ring.order(d)

    def truncated(self, k: int):
        return self._truncated(k)


def _horner(cs: list, muladd) -> list:
    """The coefficients h_i of g(a + w) by Horner's rule h <- h * (a + w) + c
    from the top coefficient c of g down, muladd(x, y) being x*a + y."""
    h: list = []
    for c in reversed(cs):  # h_i a + h_(i-1) with h_(-1) = c, then the top h_i
        h = [muladd(x, y) for x, y in zip(h, [c] + h)] + (h[-1:] or [c])
    return h


def _kronecker_value(valn: "CenteredValuation", cs: list) -> GroupElement:
    """min_i i*gamma over the h_i != 0, over a trivially valued F_p[X]/(m):
    Horner in Z[X] on ints packed at X = 2^b, then h_i reduced mod p and m.
    Coefficients in [0, p) bound those of h_i by h_i(1), which only grows
    step by step (or is a c_j(1) at center 0): b = 1 + the bit length of
    the largest keeps them apart.  i*gamma is linear in i, so the least
    and the greatest i with h_i != 0 decide."""
    f, a1 = valn.base.field, sum(valn.center.value)
    b = max(_horner([sum(c.value) for c in cs], lambda x, y: x * a1 + y)).bit_length() + 1
    p, (a, *packed) = f.characteristic, [_ppack(c.value, b) for c in [valn.center, *cs]]
    h = _horner(packed, lambda x, y: x * a + y)

    def reduced(x: int) -> tuple:
        digits = list(_pdigits(x, b, p))
        return _prem(digits, f.modulus, p) if f.modulus else _pstrip(digits)

    return min(valn.gamma.scaled(next(i for i in order if reduced(h[i])))
               for order in (range(len(h)), range(len(h) - 1, -1, -1)))


def _value_keys(valn: "CenteredValuation", den: int = 1):
    """(key, value): key(i, v) is D (v e + i*gamma) as an int tuple, e the
    unit vector of the base coordinate and D the lcm of den and gamma's
    denominator, for v an int or a Fraction whose denominator divides
    den.  Such values compare as their keys, and value(key) is the
    GroupElement of the key over D, built with no Fraction."""
    den = math.lcm(den, valn.gamma.den)
    step = valn.gamma._over(den)

    def key(i: int, v) -> tuple:
        k = [i * s for s in step]
        k[valn.base_coord] += v.numerator * (den // v.denominator)
        return tuple(k)

    return key, lambda k: _from_key(k, den)


def _completion_value(valn: "CenteredValuation", ring) -> GroupElement:
    """min_i v(c_i) + i*gamma by Horner's expansion h <- h * (n + w) + H_j
    in the ring at a precision K that doubles until the minimum is decided.
    For s_i = v(L) + (N - i) v(d), a residue h_i != 0 gives v(c_i) = v(h_i)
    - s_i, a residue 0 v(c_i) >= K - s_i, or c_i = 0 once K >= exact_k.
    Terms compare on their int _value_keys, and the least key becomes the
    GroupElement over the keys' denominator: no Fraction is built."""
    key, value = _value_keys(valn)
    top = len(ring.H) - 1

    def shifted_key(i: int, v: int) -> tuple:
        return key(i, v - ring.v_lcm - (top - i) * ring.v_den)

    prec = _START_PRECISION
    while True:
        h = [ring.order(x) for x in _horner(*ring.truncated(prec))]
        exact = min((shifted_key(i, v) for i, v in enumerate(h) if v is not None), default=None)
        bound = min((shifted_key(i, prec) for i, v in enumerate(h) if v is None), default=exact)
        if exact is not None and (exact <= bound or prec >= ring.exact_k):
            return value(exact)
        prec *= 2


def substitution_value(valn: "CenteredValuation", num: list, den: list | None = None) -> GroupElement:
    """Substitution oracle: expand g(a + w) in a symbol w of value gamma
    by Horner's rule, h <- h * (a + w) + c over the coefficients c of g
    from the top: over a p-adic or t-adic base Horner in the completion at
    a precision that doubles until the minimum is decided, on residues in
    Z/p^K or k[t]/t^K; over a finite trivially valued base Horner in Z[X]
    by Kronecker substitution, reduced once mod p and the modulus;
    otherwise on the base's own elements.  The value is
    the minimum of v(h_i) + i*gamma over the coefficients h_i of w^i.
    Values of quotients are differences.

    The h_i are the Taylor coefficients of g at a, so this agrees with
    CenteredValuation.of_poly; its independence from the fast path is
    algorithmic: Horner's expansion of g(a + w) on residues at a
    precision or on packed ints, against the repeated synthetic division
    of taylor_shift and of the taylor_coefficients overrides.
    """
    truncation = {PAdicRationals: _PAdicTruncation,
                  TAdicRationalFunctions: _TAdicTruncation}.get(type(valn.base))

    def poly_value(coeffs: list) -> GroupElement:
        cs = [valn.base.element(c) for c in coeffs]
        while cs and _is_zero(cs[-1]):
            cs.pop()
        if not cs:
            raise PreconditionError("the zero polynomial has no value")
        if truncation is not None:
            return _completion_value(valn, truncation(valn.base, cs, valn.center))
        if isinstance(valn.base, TriviallyValued) and isinstance(valn.base.field, FiniteField):
            return _kronecker_value(valn, cs)
        h = _horner(cs, lambda x, y: x * valn.center + y)
        return min(valn.embed_base_value(valn.base.val(b)) + valn.gamma.scaled(i)
                   for i, b in enumerate(h) if not _is_zero(b))

    v = poly_value(num)
    if den is not None:
        v = v - poly_value(den)
    return v


class RationalFunction(Record):
    """A quotient of polynomials over K, as dense coefficient lists.

    No common-factor reduction is performed: values of quotients are
    representative-independent, so none is required.
    """

    _fields = ("num", "den")

    def __init__(self, num: tuple, den: tuple) -> None:
        self._set(num, den)

    @staticmethod
    def over(base: ValuedField, num, den=None) -> "RationalFunction":
        num = tuple(base.element(c) for c in num)
        den = tuple(base.element(c) for c in den) if den is not None else (base.one(),)
        if all(_is_zero(c) for c in den):
            raise PreconditionError("denominator is the zero polynomial")
        return RationalFunction(num, den)

    def is_zero(self) -> bool:
        return all(_is_zero(c) for c in self.num)


# ---------------------------------------------------------------------------
# centered valuations v on K(x) with v(x - a) = gamma

class CenteredValuation:
    """The extension of the base valuation to K(x) determined by a
    center a in K and a value gamma for x - a.

    gamma lives in Q^r under the lexicographic order; the base value
    group embeds into the coordinate `base_coord` (the first, by
    default).  gamma torsion over vK gives a residue-transcendental
    extension, non-torsion gives a value-transcendental one.
    """

    def __init__(self, base: ValuedField, center, gamma: GroupElement,
                 base_coord: int = 0):
        self.base = base
        self.center = base.element(center)
        self.gamma = gamma if isinstance(gamma, GroupElement) else GroupElement.from_json(gamma)
        if not 0 <= base_coord < self.gamma.rank:
            raise PreconditionError("base_coord must index a coordinate of gamma")
        self.base_coord = base_coord
        gens = [self.embed_base_value(g) for g in base.value_generators()]
        self.base_value_subgroup = Subgroup(self.gamma.rank, tuple(gens))

    @property
    def rank(self) -> int:
        return self.gamma.rank

    def embed_base_value(self, v: Fraction) -> GroupElement:
        key = [0] * self.rank
        key[self.base_coord] = v.numerator
        return _from_key(tuple(key), v.denominator)

    # -- evaluation ---------------------------------------------------------

    def _stripped(self, coeffs) -> list:
        """The coefficients of a nonzero polynomial as base elements, with
        no trailing zero."""
        cs = [self.base.element(c) for c in coeffs]
        while cs and _is_zero(cs[-1]):
            cs.pop()
        if not cs:
            raise PreconditionError("the zero polynomial has no value")
        return cs

    def _shifted(self, coeffs) -> list:
        """Taylor coefficients at the center of a nonzero polynomial."""
        return self.base.taylor_coefficients(self._stripped(coeffs), self.center)

    def _term_values(self, shifted):
        """(i, v(c_i) + i*gamma) for each nonzero Taylor coefficient c_i."""
        for i, c in enumerate(shifted):
            if not _is_zero(c):
                yield i, self.embed_base_value(self.base.val(c)) + self.gamma.scaled(i)

    def of_poly(self, coeffs: list) -> GroupElement:
        """min over i of v(c_i) + i*gamma, c_i the Taylor coefficients of
        the polynomial at the center.  Over a trivially valued base each
        nonzero c_i has value 0, so for gamma <= 0 the leading c_N decides
        and for gamma > 0 the least i with c_i != 0, where the lazy shift
        stops.  Otherwise the minimum is taken on the int _value_keys of
        the v(c_i) that base.taylor_values gives."""
        cs = self._stripped(coeffs)
        if isinstance(self.base, TriviallyValued):
            if self.gamma <= GroupElement.zero(self.rank):
                return self.gamma.scaled(len(cs) - 1)
            shift = self.base._lazy_shift(cs, self.center)
            return self.gamma.scaled(next(i for i, c in enumerate(shift) if c))
        vs = self.base.taylor_values(cs, self.center)
        key, value = _value_keys(self, math.lcm(*(v.denominator for v in vs if v is not None)))
        return value(min(key(i, v) for i, v in enumerate(vs) if v is not None))

    def of_fraction(self, f: RationalFunction) -> GroupElement:
        if f.is_zero():
            raise PreconditionError("the zero rational function has no value")
        return self.of_poly(list(f.num)) - self.of_poly(list(f.den))

    def __call__(self, f) -> GroupElement:
        if isinstance(f, RationalFunction):
            return self.of_fraction(f)
        return self.of_poly(list(f))

    # -- classification -------------------------------------------------------

    def torsion_order(self, bound: int | None = None) -> int | None:
        return self.base_value_subgroup.torsion_order(self.gamma, bound)

    def classify(self, bound: int | None = None) -> str:
        """value-transcendental if gamma is non-torsion over vK,
        residue-transcendental if torsion."""
        e = self.torsion_order(bound)
        return VALUE_TRANSCENDENTAL if e is None else RESIDUE_TRANSCENDENTAL

    def trichotomy_flags(self, bound: int | None = None) -> tuple[bool, bool, bool]:
        """(value-transcendental, residue-transcendental,
        valuation-algebraic) booleans; exactly one holds."""
        e = self.torsion_order(bound)
        return (e is None, e is not None, False)

    # -- residues --------------------------------------------------------------

    def residue_of(self, f: RationalFunction):
        """Residue of a rational function of value zero.

        For gamma of torsion order e over vK and d in K of value
        -e*gamma, the residue lies in the rational function field
        Kv(ybar), ybar the residue of d*(x-a)^e; constants are returned
        as plain residue field elements.
        """
        e = self.torsion_order()
        if e is None:
            raise PreconditionError(
                "gamma is non-torsion over the base value group: residues of "
                "value-zero elements already lie in the base residue field, and "
                "the generator construction does not apply"
            )
        if f.is_zero():
            raise PreconditionError("the zero rational function has no value")
        sh_num, sh_den = self._shifted(f.num), self._shifted(f.den)
        v_num = min(v for _, v in self._term_values(sh_num))
        total = v_num - min(v for _, v in self._term_values(sh_den))
        if not total.is_zero():
            raise PreconditionError(f"residue needs value 0, got {total!r}")
        e_gamma = self.gamma.scaled(e)
        d_elt = self.base.element_of_value(-e_gamma.coords[self.base_coord])
        func_field = FunctionField(self.base.residue_field)

        j0 = next((j for j, v in self._term_values(sh_den) if v == v_num), None)
        if j0 is None:
            raise InternalError("denominator does not attain the minimum")
        b0 = sh_den[j0]

        def laurent_residues(shifted, vmin) -> dict[int, FieldElement]:
            out: dict[int, FieldElement] = {}
            for i, v in self._term_values(shifted):
                if v != vmin:
                    continue
                k = i - j0
                if k % e != 0:
                    raise InternalError("minimal term outside the e-grading")
                m = k // e
                unit_num = shifted[i] * (d_elt ** (-m))
                kappa = self.base.residue_quot(unit_num, b0)
                out[m] = out[m] + kappa if m in out else kappa
            return out

        lau_num = laurent_residues(sh_num, v_num)
        lau_den = laurent_residues(sh_den, v_num)
        res = func_field.from_laurent(lau_num) / func_field.from_laurent(lau_den)
        if res.is_constant():
            return res.constant_value()
        return res


# ---------------------------------------------------------------------------
# pseudo-Cauchy-sequence descriptors

class PseudoCauchyValuation:
    """Descriptor of a valuation given by a pseudo Cauchy sequence.

    The valuation is not evaluated directly: values v(g(a_nu)) are
    computed for all sequence members, and reports state stabilization
    or non-stabilization at the available depth.
    """

    def __init__(self, base: ValuedField, elems: list):
        if len(elems) < 3:
            raise PreconditionError("a pseudo Cauchy descriptor needs at least three elements")
        self.base = base
        self.elems = [base.element(a) for a in elems]
        diffs = []
        for prev, nxt in zip(self.elems, self.elems[1:]):
            d = nxt - prev
            if _is_zero(d):
                raise PreconditionError("consecutive elements must differ")
            diffs.append(base.val(d))
        for d1, d2 in zip(diffs, diffs[1:]):
            if not d2 > d1:
                raise PreconditionError(
                    "not a pseudo Cauchy sequence: consecutive difference values must strictly increase"
                )

    def classify(self) -> str:
        return VALUATION_ALGEBRAIC

    def trichotomy_flags(self) -> tuple[bool, bool, bool]:
        return (False, False, True)

    def torsion_order(self) -> None:
        """No gamma: a classification certificate records null."""
        return None

    def values_along(self, coeffs: list) -> dict:
        """v(g(a_nu)) for every sequence member; reports whether the
        values stabilized within the available depth."""
        values = []
        for a in self.elems:
            acc = None
            for c in reversed([self.base.element(c) for c in coeffs]):
                acc = c if acc is None else c + acc * a
            if acc is None or _is_zero(acc):
                values.append(None)  # zero within knowledge: unbounded value
            else:
                values.append(self.base.val(acc))
        stable_from = None
        for i in range(len(values) - 1):
            tail = values[i:]
            if tail[0] is not None and all(t == tail[0] for t in tail):
                stable_from = i
                break
        return {
            "values": values,
            "depth": len(self.elems),
            "stabilized_at_depth": stable_from is not None,
            "stable_from": stable_from,
        }


def valuation_from_json(data, path=()):
    """The valuation of a job's or a classification certificate's
    descriptor at path: kind "vag" (the default) from "base", "gamma",
    "center" (0) and "base_coord" (0; a JSON int or a string of digits),
    or kind "pcs" from "base" and "elements"."""
    kind = string(obj(data, path).get("kind", "vag"), (*path, "kind"), ("vag", "pcs"))
    obj(data, path, required=("base", "elements" if kind == "pcs" else "gamma"))
    base = ValuedField.from_json(data["base"], (*path, "base"))
    if kind == "pcs":
        return PseudoCauchyValuation(base, list_of(base.element, data["elements"], (*path, "elements")))
    gamma = GroupElement.from_json(data["gamma"], (*path, "gamma"))
    center = base.element(data.get("center", 0), (*path, "center"))
    raw = data.get("base_coord", 0)
    coord = int(raw) if type(raw) is str and raw.isascii() and raw.isdigit() and len(raw) < 10 else raw
    if type(coord) is not int or not 0 <= coord < gamma.rank:
        raise fail(raw, (*path, "base_coord"), f"a coordinate index of gamma, 0 to {gamma.rank - 1}")
    return CenteredValuation(base, center, gamma, base_coord=coord)


def classify_summary(value_group_torsion: bool, residue_algebraic: bool) -> str:
    """Trichotomy from quotient data: exactly one of the three labels.

    (torsion, algebraic) is valuation-algebraic; (non-torsion, algebraic)
    is value-transcendental; (torsion, transcendental) is
    residue-transcendental.  Both-transcendental is impossible for K(x)
    by the rank inequality.
    """
    if value_group_torsion and residue_algebraic:
        return VALUATION_ALGEBRAIC
    if not value_group_torsion and residue_algebraic:
        return VALUE_TRANSCENDENTAL
    if value_group_torsion and not residue_algebraic:
        return RESIDUE_TRANSCENDENTAL
    raise PreconditionError(
        "impossible for K(x): the value group quotient and the residue extension "
        "cannot both be transcendental (rank inequality)"
    )
