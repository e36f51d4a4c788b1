"""Truncated generalized power series with exact exponents.

A series is a finite sorted list of (exponent, coefficient) terms with
exponents in a lexicographically ordered rational vector group and
coefficients in an exact field, together with a truncation bound: the
series is known exactly strictly below the bound and unknown from the
bound on.  trunc=None means the series is exact (no unknown tail).

Binary operations compute the tightest sound bound: min of the bounds
for addition, min over v(s)+trunc(r) and trunc(s)+v(r) for products.

Stored form: a denominator D, the exponents as int key tuples D*e (the
form a `GroupElement` holds, over the element's own denominator), the
bound's key, and the raw coefficient values (`FieldElement.value`).
Merging, sorting and the product's pair loop do no Fraction arithmetic
and build no FieldElement: they call the field's raw_add, raw_mul and
raw_is_zero, and rescale keys only where two operands' D differ.  The
(GroupElement, FieldElement) pairs are built from the keys when
`terms`, `support`, `coeff_at`, `to_json` or `repr` read them; `value`
and `leading_coeff` build the first term only.

Frobenius powers and p-th roots are maps on the keys (keys * q over the
same D, and the same keys over D * p): Frobenius is an order-preserving
bijection on terms, so nothing merges or cancels.  `**` stays
square-and-multiply over the product, so `root ** p` is an independent
check of a root built by p-th roots.  The certificate builders memoise
that check per process on the exact stored operands
(`certificates._power_gap_value`): the same root built again is the
same key, and any other root is checked afresh by the product.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add

from .errors import PreconditionError
from .fields import Field, FieldElement, _power
from .groups import GroupElement, _from_key
from .record import Record, _setattr
from .schema import list_of, obj

__all__ = [
    "HahnSeries",
    "artin_schreier_root",
    "kummer_root",
]

Key = tuple[int, ...]


def _min_trunc(a: GroupElement | None, b: GroupElement | None) -> GroupElement | None:
    if a is None:
        return b
    if b is None:
        return a
    return a if a <= b else b


def _normalise(field: Field, rank: int, den: int, sums: dict, top: Key | None) -> "HahnSeries":
    """The series of the summed {key: raw value} over the denominator
    `den`: the keys sorted once, zero sums dropped and the terms cut at
    the first key on or above the bound's key `top`."""
    is_zero = field.raw_is_zero
    keys, values = [], []
    for k in sorted(sums):
        if top is not None and k >= top:
            break
        v = sums[k]
        if not is_zero(v):
            keys.append(k)
            values.append(v)
    return HahnSeries(field, rank, den, tuple(keys), tuple(values), top)


def _sum(field: Field, rank: int, parts) -> "HahnSeries":
    """The sum of series over one field and rank, normalised once, over
    the lcm of their denominators; the bound is the least of theirs."""
    den = math.lcm(*(s.den for s in parts))
    add_raw = field.raw_add
    sums: dict[Key, object] = {}
    top = None
    for s in parts:
        keys, t = s._over(den)
        for k, v in zip(keys, s.values):
            prev = sums.get(k)
            sums[k] = v if prev is None else add_raw(prev, v)
        if t is not None and (top is None or t < top):
            top = t
    return _normalise(field, rank, den, sums, top)


class HahnSeries(Record):
    """A truncated power series sum of c * t^g over an ordered group.

    Stored as a denominator `den`, the int keys den * g in ascending
    order, the raw values of the c (`FieldElement.value`) and the key
    `top` of the bound (None for an exact series).  The (GroupElement,
    FieldElement) pairs are built from the keys when `terms` is read.
    Frobenius powers and p-th roots map the keys; `**` multiplies.
    Equality and hashing are by value, whatever the denominators."""

    _fields = ("field", "rank", "den", "keys", "values", "top")

    def __init__(self, field: Field, rank: int, den: int, keys: tuple[Key, ...], values: tuple,
                 top: Key | None = None) -> None:
        _setattr(self, "field", field)
        _setattr(self, "rank", rank)
        _setattr(self, "den", den)
        _setattr(self, "keys", keys)
        _setattr(self, "values", values)
        _setattr(self, "top", top)

    @staticmethod
    def make(field: Field, terms, trunc: GroupElement | None = None, rank: int = 1) -> "HahnSeries":
        """Normalize: coerce, merge duplicate exponents, drop zeros and
        terms at or above the truncation bound, sort by exponent."""
        pairs = []
        for expo, coeff in terms:
            if not isinstance(expo, GroupElement):
                expo = GroupElement.of(*expo) if isinstance(expo, (tuple, list)) else GroupElement.of(expo)
            coeff = field.element(coeff) if not isinstance(coeff, FieldElement) else coeff
            if coeff.field != field:
                raise PreconditionError("coefficient field mismatch")
            if expo.rank != rank:
                raise PreconditionError("exponent rank mismatch")
            pairs.append((expo, coeff))
        if trunc is not None and not isinstance(trunc, GroupElement):
            trunc = GroupElement.of(trunc)
        if trunc is not None and trunc.rank != rank:
            raise PreconditionError("truncation bound rank mismatch")
        den = math.lcm(*(e.den for e, _ in pairs), 1 if trunc is None else trunc.den)
        add_raw = field.raw_add
        sums: dict[Key, object] = {}
        for expo, coeff in pairs:
            k = expo._over(den)
            prev = sums.get(k)
            sums[k] = coeff.value if prev is None else add_raw(prev, coeff.value)
        top = None if trunc is None else trunc._over(den)
        return _normalise(field, rank, den, sums, top)

    @staticmethod
    def zero(field: Field, trunc=None, rank: int = 1) -> "HahnSeries":
        return HahnSeries.make(field, [], trunc, rank)

    @staticmethod
    def monomial(field: Field, exponent, coeff, trunc=None, rank: int = 1) -> "HahnSeries":
        return HahnSeries.make(field, [(exponent, coeff)], trunc, rank)

    @staticmethod
    def constant(field: Field, coeff, trunc=None, rank: int = 1) -> "HahnSeries":
        return HahnSeries.make(field, [(GroupElement.zero(rank), coeff)], trunc, rank)

    def _over(self, den: int) -> tuple:
        """(keys, top) over `den`, a multiple of self.den."""
        m = den // self.den
        if m == 1:
            return self.keys, self.top
        top = None if self.top is None else tuple(m * x for x in self.top)
        return tuple(tuple(m * x for x in k) for k in self.keys), top

    # -- reading terms -----------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[GroupElement, FieldElement], ...]:
        field = self.field
        return tuple(zip(self._exponents(), (FieldElement(field, v) for v in self.values)))

    @property
    def trunc(self) -> GroupElement | None:
        return None if self.top is None else _from_key(self.top, self.den)

    def _exponents(self) -> tuple[GroupElement, ...]:
        den = self.den
        return tuple(_from_key(k, den) for k in self.keys)

    def __eq__(self, other):
        if not isinstance(other, HahnSeries):
            return NotImplemented
        if self.field != other.field or self.rank != other.rank or self.values != other.values:
            return False
        den = math.lcm(self.den, other.den)
        return self._over(den) == other._over(den)

    def __hash__(self):
        return hash((self.field, self.rank, self.terms, self.trunc))

    # -- value ------------------------------------------------------------

    def is_zero(self) -> bool:
        """No known terms.  For a truncated series this means zero within
        the known range; for trunc=None it means exactly zero."""
        return not self.keys

    def value(self) -> GroupElement | None:
        """Least exponent, or None for a series with empty support
        (the value is then above the truncation bound)."""
        if not self.keys:
            return None
        return _from_key(self.keys[0], self.den)

    def value_bound(self) -> GroupElement | None:
        """value() for nonzero series, else the truncation bound."""
        return self.value() if self.keys else self.trunc

    def leading_coeff(self) -> FieldElement:
        if not self.keys:
            raise PreconditionError("zero series has no leading coefficient")
        return FieldElement(self.field, self.values[0])

    def coeff_at(self, exponent: GroupElement) -> FieldElement:
        for e, c in self.terms:
            if e == exponent:
                return c
        return self.field.zero()

    def support(self) -> list[GroupElement]:
        return list(self._exponents())

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: "HahnSeries") -> None:
        if not isinstance(other, HahnSeries):
            raise TypeError(f"expected HahnSeries, got {type(other).__name__}")
        if other.field != self.field:
            raise PreconditionError("coefficient field mismatch")
        if other.rank != self.rank:
            raise PreconditionError("exponent rank mismatch")

    def __add__(self, other: "HahnSeries") -> "HahnSeries":
        self._check_compatible(other)
        return _sum(self.field, self.rank, (self, other))

    def __neg__(self) -> "HahnSeries":
        neg = self.field.raw_neg
        return HahnSeries(self.field, self.rank, self.den, self.keys,
                          tuple(neg(v) for v in self.values), self.top)

    def __sub__(self, other: "HahnSeries") -> "HahnSeries":
        return self + (-other)

    def __mul__(self, other: "HahnSeries") -> "HahnSeries":
        self._check_compatible(other)
        field = self.field
        den = math.lcm(self.den, other.den)
        (left, ta), (right, tb) = self._over(den), other._over(den)
        # unknown tail of one factor meets the leading term of the other
        top = None
        if ta is not None and (vb := right[0] if right else tb) is not None:
            top = tuple(map(add, ta, vb))
        if tb is not None and (va := left[0] if left else ta) is not None:
            t2 = tuple(map(add, tb, va))
            if top is None or t2 < top:
                top = t2
        mul_raw, add_raw = field.raw_mul, field.raw_add
        sums: dict[Key, object] = {}
        for ka, ca in zip(left, self.values):
            # both lists ascend and the order is additive, so each row
            # stops at the first sum on or above the truncation key
            for kb, cb in zip(right, other.values):
                k = tuple(map(add, ka, kb))
                if top is not None and k >= top:
                    break
                c = mul_raw(ca, cb)
                prev = sums.get(k)
                sums[k] = c if prev is None else add_raw(prev, c)
        return _normalise(field, self.rank, den, sums, top)

    def __pow__(self, n: int) -> "HahnSeries":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if len(self.keys) != 1:
                raise PreconditionError("negative powers are exact only for monomials")
            inv = HahnSeries.monomial(self.field, -self.value(), self.leading_coeff().inverse(),
                                      rank=self.rank)
            return inv ** (-n)
        return _power(self, n, HahnSeries.constant(self.field, self.field.one(), rank=self.rank))

    # -- field-characteristic operations ------------------------------------

    def invert(self, depth: int) -> "HahnSeries":
        """Multiplicative inverse to `depth` terms of the geometric series.

        For s = c*t^g * (1 + w) with v(w) > 0, returns
        c^-1 t^-g * sum((-w)^k, k < depth); for a monomial the inverse is
        exact.  The product s * result differs from 1 only at value
        depth * v(w) and above.
        """
        if not self.keys:
            raise PreconditionError("cannot invert the zero series")
        if depth < 1:
            raise PreconditionError("depth must be >= 1")
        e0 = self.value()
        lead_inv = HahnSeries.monomial(self.field, -e0, self.leading_coeff().inverse(),
                                       rank=self.rank)
        rest = HahnSeries(self.field, self.rank, self.den, self.keys[1:], self.values[1:], self.top)
        w = rest * lead_inv
        if w.is_zero() and w.trunc is None:
            return lead_inv
        acc = HahnSeries.constant(self.field, self.field.one(), rank=self.rank)
        power = acc
        for _ in range(1, depth):
            power = power * (-w)
            acc = acc + power
        result = lead_inv * acc
        if not w.is_zero():
            cap = (-e0) + w.value().scaled(depth)
            result = HahnSeries.make(self.field, result.terms, _min_trunc(result.trunc, cap), self.rank)
        return result

    def frobenius_power(self, e: int) -> "HahnSeries":
        """The p^e-th power in characteristic p: termwise
        (g, c) -> (p^e * g, c^(p^e)), exact up to p^e * trunc, as the
        keys times p^e over the same denominator."""
        field = self.field
        p = field.characteristic
        if p == 0:
            raise PreconditionError("Frobenius powers need positive characteristic")
        if e < 0:
            raise PreconditionError("Frobenius exponent must be >= 0")
        q = p ** e
        return HahnSeries(field, self.rank, self.den,
                          tuple(tuple(q * x for x in k) for k in self.keys),
                          tuple(field.raw_frobenius(v, e) for v in self.values),
                          None if self.top is None else tuple(q * x for x in self.top))

    def p_th_root(self) -> "HahnSeries":
        """Termwise p-th root (g, c) -> (g/p, c^(1/p)), exact in
        characteristic p since Frobenius is additive: the same keys
        over the denominator times p."""
        field = self.field
        p = field.characteristic
        if p == 0:
            raise PreconditionError("p-th roots need positive characteristic")
        k = field.degree - 1
        return HahnSeries(field, self.rank, self.den * p, self.keys,
                          tuple(field.raw_frobenius(v, k) for v in self.values), self.top)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        def expo_json(g: GroupElement):
            return g.to_json()[0] if self.rank == 1 else g.to_json()

        return {
            "field": self.field.to_json(),
            "trunc": None if self.trunc is None else expo_json(self.trunc),
            "terms": [[expo_json(e), c.to_json()] for e, c in self.terms],
        }

    @staticmethod
    def from_json(data, field: Field | None = None, rank: int = 1, path=()) -> "HahnSeries":
        """{"field": ..., "trunc": exponent or null, "terms": [[exponent,
        coefficient], ...]} at path; a given `field` is used in place of "field"."""
        data = obj(data, path, required=("field",) if field is None else ())
        field = Field.from_json(data["field"], (*path, "field")) if field is None else field
        pairs = list_of(lambda pair, at: list_of(None, pair, at, length=2), data.get("terms", []), (*path, "terms"))
        terms = [(GroupElement.from_json(e, (*path, "terms", i, 0)), field.element(c, (*path, "terms", i, 1)))
                 for i, (e, c) in enumerate(pairs)]
        trunc = data.get("trunc")
        return HahnSeries.make(
            field, terms, None if trunc is None else GroupElement.from_json(trunc, (*path, "trunc")), rank
        )

    def __repr__(self) -> str:
        def mono(e: GroupElement, c: FieldElement) -> str:
            ex = e.to_json()[0] if self.rank == 1 else repr(e)
            if e.is_zero():
                return repr(c)
            head = "" if repr(c) == "1" else f"({c!r})*"
            return f"{head}t^{ex}"

        body = " + ".join(mono(e, c) for e, c in self.terms) if self.terms else "0"
        if self.trunc is not None:
            ex = self.trunc.to_json()[0] if self.rank == 1 else repr(self.trunc)
            return f"{body} + O(t^{ex})"
        return body


def artin_schreier_root(u: HahnSeries, depth: int) -> HahnSeries:
    """Approximate root of X^p - X - u for a series u with v(u) < 0.

    Returns a = sum of the first `depth` iterated termwise p-th roots of
    u, an exact finite sum (truncated only if u itself was).  Since
    Frobenius is additive in characteristic p, the residual is exactly
    a^p - a - u = -(depth-th root term), so
    v(a^p - a - u) = v(u) / p^depth, strictly above the requested bound
    v(u) / p^(depth-1), and v(a) = v(u) / p.
    """
    p = u.field.characteristic
    if p == 0:
        raise PreconditionError("Artin-Schreier roots need positive residue characteristic")
    if depth < 1:
        raise PreconditionError("depth must be >= 1")
    v = u.value()
    if v is None or not v < GroupElement.zero(u.rank):
        raise PreconditionError(
            "Artin-Schreier root construction requires v(u) < 0 "
            "(nonnegative values would need Hensel lifting, which is out of scope)"
        )
    layers = [u.p_th_root()]
    while len(layers) < depth:
        layers.append(layers[-1].p_th_root())
    return _sum(u.field, u.rank, layers)


def _iroot(n: int, e: int) -> int | None:
    """The int r >= 0 with r**e == n for an int n >= 0, or None: Newton's
    method on ints from 2**ceil(bits/e), which is at least the root, down
    to floor(n**(1/e))."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // e)
    while True:
        y = ((e - 1) * x + n // x ** (e - 1)) // e
        if y >= x:
            return x if x ** e == n else None
        x = y


def kummer_root(gamma: GroupElement, coeff: FieldElement, e: int,
                trunc: GroupElement | None = None) -> HahnSeries:
    """The monomial (gamma/e, coeff^(1/e)) whose e-th power is
    coeff * t^gamma.

    The e-th root of the coefficient is found exhaustively over finite
    fields and by exact integer root extraction over Q; missing roots
    are an error.
    """
    if e < 1:
        raise PreconditionError("root index must be >= 1")
    field = coeff.field
    root = None
    if field.characteristic == 0:
        q = coeff.value
        if q == 0:
            raise PreconditionError("cannot take a root of zero")
        sign = 1
        if q < 0:
            if e % 2 == 0:
                raise PreconditionError(f"no rational {e}-th root of {q}")
            sign, q = -1, -q
        rn, rd = _iroot(q.numerator, e), _iroot(q.denominator, e)
        if rn is None or rd is None:
            raise PreconditionError(f"no rational {e}-th root of {coeff.value}")
        root = field.element(Fraction(sign * rn, rd))
    else:
        for cand in field.elements():
            if (cand ** e) == coeff:
                root = cand
                break
        if root is None:
            raise PreconditionError(
                f"no {e}-th root of {coeff!r} in {field!r}"
            )
    return HahnSeries.monomial(field, _from_key(gamma.key, gamma.den * e), root,
                               trunc=trunc, rank=gamma.rank)
