"""Truncated generalized power series with exact exponents.

A series is a finite sorted list of (exponent, coefficient) terms with
exponents in a lexicographically ordered rational vector group and
coefficients in an exact field, together with a truncation bound: the
series is known exactly strictly below the bound and unknown from the
bound on.  trunc=None means the series is exact (no unknown tail).

Binary operations compute the tightest sound bound: min of the bounds
for addition, min over v(s)+trunc(r) and trunc(s)+v(r) for products.

Normalisation and products run on int exponent keys: over the lcm D of
the denominators of the exponents and the bound, an exponent e is the
int tuple D*e (the key of `groups`, which scales value-group
generators the same way), so merging, sorting and the product's pair
loop do no Fraction arithmetic and no hashing of rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .errors import PreconditionError
from .fields import Field, FieldElement, _power
from .groups import GroupElement, _common_den, _key

__all__ = [
    "HahnSeries",
    "artin_schreier_root",
    "kummer_root",
]


def _min_trunc(a: GroupElement | None, b: GroupElement | None) -> GroupElement | None:
    if a is None:
        return b
    if b is None:
        return a
    return a if a <= b else b


def _normalise(field: Field, rank: int, den: int, keyed, trunc: GroupElement | None,
               expos: dict | None = None) -> "HahnSeries":
    """The series of (key, coefficient) pairs over the common denominator
    `den`: coefficients on one key are summed, the keys sorted once, zero
    sums dropped and the terms cut at the first key on or above den *
    trunc.  A surviving key takes its GroupElement from `expos` when
    given, else is divided back by den."""
    sums: dict[tuple[int, ...], FieldElement] = {}
    for k, c in keyed:
        prev = sums.get(k)
        sums[k] = c if prev is None else prev + c
    top = None if trunc is None else _key(trunc, den)
    kept = []
    for k in sorted(sums):
        if top is not None and k >= top:
            break
        c = sums[k]
        if not c.is_zero():
            g = expos[k] if expos is not None else GroupElement(tuple(Fraction(x, den) for x in k))
            kept.append((g, c))
    return HahnSeries(field, rank, tuple(kept), trunc)


@dataclass(frozen=True)
class HahnSeries:
    """A truncated power series sum of c * t^g over an ordered group."""

    field: Field
    rank: int
    terms: tuple[tuple[GroupElement, FieldElement], ...]
    trunc: GroupElement | None = None

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
        den = _common_den([e for e, _ in pairs], trunc)
        expos: dict[tuple[int, ...], GroupElement] = {}
        keyed = []
        for expo, coeff in pairs:
            k = _key(expo, den)
            expos.setdefault(k, expo)
            keyed.append((k, coeff))
        return _normalise(field, rank, den, keyed, trunc, expos)

    @staticmethod
    def zero(field: Field, trunc=None, rank: int = 1) -> "HahnSeries":
        return HahnSeries.make(field, [], trunc, rank)

    @staticmethod
    def monomial(field: Field, exponent, coeff, trunc=None, rank: int = 1) -> "HahnSeries":
        return HahnSeries.make(field, [(exponent, coeff)], trunc, rank)

    @staticmethod
    def constant(field: Field, coeff, trunc=None, rank: int = 1) -> "HahnSeries":
        return HahnSeries.make(field, [(GroupElement.zero(rank), coeff)], trunc, rank)

    # -- value ------------------------------------------------------------

    def is_zero(self) -> bool:
        """No known terms.  For a truncated series this means zero within
        the known range; for trunc=None it means exactly zero."""
        return not self.terms

    def value(self) -> GroupElement | None:
        """Least exponent, or None for a series with empty support
        (the value is then above the truncation bound)."""
        return self.terms[0][0] if self.terms else None

    def value_bound(self) -> GroupElement | None:
        """value() for nonzero series, else the truncation bound."""
        return self.terms[0][0] if self.terms else self.trunc

    def leading_coeff(self) -> FieldElement:
        if not self.terms:
            raise PreconditionError("zero series has no leading coefficient")
        return self.terms[0][1]

    def coeff_at(self, exponent: GroupElement) -> FieldElement:
        for e, c in self.terms:
            if e == exponent:
                return c
        return self.field.zero()

    def support(self) -> list[GroupElement]:
        return [e for e, _ in self.terms]

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
        trunc = _min_trunc(self.trunc, other.trunc)
        return HahnSeries.make(self.field, list(self.terms) + list(other.terms), trunc, self.rank)

    def __neg__(self) -> "HahnSeries":
        return HahnSeries(self.field, self.rank, tuple((e, -c) for e, c in self.terms), self.trunc)

    def __sub__(self, other: "HahnSeries") -> "HahnSeries":
        return self + (-other)

    def __mul__(self, other: "HahnSeries") -> "HahnSeries":
        self._check_compatible(other)
        # unknown tail of one factor meets the leading term of the other
        t1 = None
        if self.trunc is not None and (vb := other.value_bound()) is not None:
            t1 = self.trunc + vb
        t2 = None
        if other.trunc is not None and (va := self.value_bound()) is not None:
            t2 = other.trunc + va
        trunc = _min_trunc(t1, t2)
        den = _common_den([e for e, _ in self.terms + other.terms], trunc)
        left = [(_key(e, den), c) for e, c in self.terms]
        right = [(_key(e, den), c) for e, c in other.terms]
        top = None if trunc is None else _key(trunc, den)

        def pairs():
            # both lists ascend and the order is additive, so each row
            # stops at the first sum on or above the truncation key
            for ka, ca in left:
                for kb, cb in right:
                    k = tuple(map(add, ka, kb))
                    if top is not None and k >= top:
                        break
                    yield k, ca * cb

        return _normalise(self.field, self.rank, den, pairs(), trunc)

    def __pow__(self, n: int) -> "HahnSeries":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if len(self.terms) != 1:
                raise PreconditionError("negative powers are exact only for monomials")
            e, c = self.terms[0]
            inv = HahnSeries.monomial(self.field, -e, c.inverse(), rank=self.rank)
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
        if not self.terms:
            raise PreconditionError("cannot invert the zero series")
        if depth < 1:
            raise PreconditionError("depth must be >= 1")
        e0, c0 = self.terms[0]
        lead_inv = HahnSeries.monomial(self.field, -e0, c0.inverse(), rank=self.rank)
        rest = HahnSeries(self.field, self.rank, self.terms[1:], self.trunc)
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
        (g, c) -> (p^e * g, c^(p^e)), exact up to p^e * trunc."""
        p = self.field.characteristic
        if p == 0:
            raise PreconditionError("Frobenius powers need positive characteristic")
        if e < 0:
            raise PreconditionError("Frobenius exponent must be >= 0")
        q = p ** e
        terms = [(g.scaled(q), c ** q) for g, c in self.terms]
        trunc = self.trunc.scaled(q) if self.trunc is not None else None
        return HahnSeries.make(self.field, terms, trunc, self.rank)

    def p_th_root(self) -> "HahnSeries":
        """Termwise p-th root (g, c) -> (g/p, c^(1/p)); exact in
        characteristic p since Frobenius is additive."""
        p = self.field.characteristic
        if p == 0:
            raise PreconditionError("p-th roots need positive characteristic")
        inv_p = Fraction(1, p)
        terms = [(g.scaled(inv_p), c.frobenius_inverse()) for g, c in self.terms]
        trunc = self.trunc.scaled(inv_p) if self.trunc is not None else None
        return HahnSeries.make(self.field, terms, trunc, self.rank)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        def expo_json(g: GroupElement):
            return str(g.coords[0]) if self.rank == 1 else g.to_json()

        return {
            "field": self.field.to_json(),
            "trunc": None if self.trunc is None else expo_json(self.trunc),
            "terms": [[expo_json(e), c.to_json()] for e, c in self.terms],
        }

    @staticmethod
    def from_json(data: dict, field: Field | None = None, rank: int = 1) -> "HahnSeries":
        field = field if field is not None else Field.from_json(data["field"])
        trunc = data.get("trunc")
        terms = [(GroupElement.from_json(e), field.element(c)) for e, c in data.get("terms", [])]
        return HahnSeries.make(
            field, terms, None if trunc is None else GroupElement.from_json(trunc), rank
        )

    def __repr__(self) -> str:
        def mono(e: GroupElement, c: FieldElement) -> str:
            ex = str(e.coords[0]) if self.rank == 1 else repr(e)
            if e.is_zero():
                return repr(c)
            head = "" if repr(c) == "1" else f"({c!r})*"
            return f"{head}t^{ex}"

        body = " + ".join(mono(e, c) for e, c in self.terms) if self.terms else "0"
        if self.trunc is not None:
            ex = str(self.trunc.coords[0]) if self.rank == 1 else repr(self.trunc)
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
    terms: list = []
    layer = u
    trunc: GroupElement | None = None
    for _ in range(depth):
        layer = layer.p_th_root()
        trunc = _min_trunc(trunc, layer.trunc)
        terms.extend(layer.terms)
    return HahnSeries.make(u.field, terms, trunc, u.rank)


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
    return HahnSeries.monomial(field, gamma.scaled(Fraction(1, e)), root,
                               trunc=trunc, rank=gamma.rank)
