"""Exact arithmetic in lexicographically ordered rational vector groups.

Value groups are modelled as finitely generated subgroups of Q^r under
the lexicographic order.  A group element g is stored as (D, key) in
lowest terms, the int tuple key = D * g over its denominator D (the
exponent form of series keys and eval minima too), so its arithmetic,
order and hashing build no Fraction; `of` and `from_json` read each
rational string straight to an int pair (schema.ratio) and so to
(D, key).  Subgroups are given by finite generator lists.

A subgroup is held as (D, A, Hermite rows): D is the common denominator
of its generators, A the int matrix of their keys D * gen, and the
Hermite rows a Z-basis of the row lattice of A with the transform
writing them in the rows of A (an extended subgroup reduces only its
parent's Hermite rows and its new generators).  One reduction of g
gives its coordinates as ints over one denominator, and membership,
torsion order and subgroup index are read off them: every positive
answer carries an integer witness z, re-checked as z . A == D * g from
(D, A) alone (so checking a recorded witness reduces no lattice), and
every negative one a rank argument over Q.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, total_ordering

from .errors import InternalError, PreconditionError, UndecidedError
from .record import Record, _setattr
from .schema import fail, list_of, ratio

__all__ = [
    "GroupElement",
    "Subgroup",
    "compare",
]


@total_ordering
class GroupElement(Record):
    """A vector g in Q^r, ordered lexicographically: den > 0 and the int
    tuple key = den * g with gcd(den, *key) == 1, so equal elements hold
    equal pairs.  Sums and scalings take one gcd; the order compares the
    keys over a common denominator.  `coords` is the Fraction view."""

    _fields = ("den", "key")

    def __init__(self, coords: tuple) -> None:
        den = math.lcm(*[c.denominator for c in coords])
        _setattr(self, "den", den)
        _setattr(self, "key", tuple([c.numerator * (den // c.denominator) for c in coords]))

    @staticmethod
    def of(*coords) -> "GroupElement":
        """The element of ints, rationals read by schema.ratio, or Fractions."""
        return _from_ratios([(c, 1) if type(c) is int else ratio(c) for c in coords])

    @staticmethod
    def zero(rank: int = 1) -> "GroupElement":
        return _from_key((0,) * rank, 1)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.key)

    @property
    def rank(self) -> int:
        return len(self.key)

    def is_zero(self) -> bool:
        return not any(self.key)

    def _over(self, den: int) -> tuple[int, ...]:
        """The int tuple den * self, for den a multiple of self.den."""
        m = den // self.den
        return self.key if m == 1 else tuple(m * x for x in self.key)

    def _check_rank(self, other: "GroupElement") -> None:
        if not isinstance(other, GroupElement):
            raise TypeError(f"expected GroupElement, got {type(other).__name__}")
        if len(self.key) != len(other.key):
            raise PreconditionError(f"rank mismatch: {self.rank} vs {other.rank}")

    def _keys_with(self, other: "GroupElement") -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The keys of self and other over one denominator, for order."""
        self._check_rank(other)
        if self.den == other.den:
            return self.key, other.key
        return tuple(x * other.den for x in self.key), tuple(x * self.den for x in other.key)

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check_rank(other)
        a, b = self.den, other.den
        return _from_key(tuple(x * b + y * a for x, y in zip(self.key, other.key)), a * b)

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + -other

    def __neg__(self) -> "GroupElement":
        return _from_key(tuple(-x for x in self.key), self.den)

    def scaled(self, q) -> "GroupElement":
        """Scalar multiple by an exact rational (or integer)."""
        n, d = (q, 1) if type(q) is int else ratio(q)
        return _from_key(tuple(n * x for x in self.key), d * self.den)

    def __mul__(self, n: int) -> "GroupElement":
        return self.scaled(n) if type(n) is int else NotImplemented

    __rmul__ = __mul__

    def __lt__(self, other):
        a, b = self._keys_with(other)
        return a < b

    def to_json(self) -> list[str]:
        """Each coordinate as str(Fraction) writes it: "n" or "n/d"."""
        d = self.den
        return [str(x // g) if (g := math.gcd(x, d)) == d else f"{x // g}/{d // g}" for x in self.key]

    @staticmethod
    def from_json(data, path=()) -> "GroupElement":
        """A rational, or a nonempty JSON list of rationals, at path."""
        pairs = list_of(ratio, data, path) if type(data) is list else [ratio(data, path)]
        if not pairs:
            raise fail(data, path, "a rational or a nonempty list of rationals")
        return _from_ratios(pairs)

    def __repr__(self) -> str:
        return "(" + ", ".join(self.to_json()) + ")"


def _from_key(key: tuple[int, ...], den: int) -> GroupElement:
    """The element key / den, for an int tuple key and an int den > 0,
    in lowest terms: the constructor the arithmetic uses."""
    g = math.gcd(den, *key)
    if g != 1:
        key, den = tuple(x // g for x in key), den // g
    elem = object.__new__(GroupElement)
    _setattr(elem, "den", den)
    _setattr(elem, "key", key)
    return elem


def _from_ratios(pairs: list[tuple[int, int]]) -> GroupElement:
    """The element of (num, den) pairs with den > 0, over the lcm of the dens."""
    den = math.lcm(*[d for _, d in pairs])
    return _from_key(tuple([n * (den // d) for n, d in pairs]), den)


def compare(a: GroupElement, b: GroupElement) -> int:
    """Lexicographic comparison: -1 if a < b, 0 if equal, 1 if a > b."""
    ka, kb = a._keys_with(b)
    return (ka > kb) - (ka < kb)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) = x*a + y*b, g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _hermite_rows(mat: list[list[int]]) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """Row Hermite form with transform.

    Returns (rows, exprs, pivots): `rows` are the nonzero rows of the
    Hermite form (pivot columns strictly increasing, pivots positive,
    entries above each pivot reduced into [0, pivot)); exprs[i] gives the
    integer combination of the input rows producing rows[i]; pivots[i] is
    the pivot column of rows[i].  The nonzero rows form a Z-basis of the
    row lattice of `mat`.
    """
    m = len(mat)
    r = len(mat[0]) if m else 0
    rows = [list(row) for row in mat]
    exprs = [[int(i == j) for j in range(m)] for i in range(m)]
    top = 0
    pivots: list[int] = []
    for col in range(r):
        if top == m:
            break
        for i in range(top + 1, m):
            if rows[i][col] == 0:
                continue
            a, b = rows[top][col], rows[i][col]
            if a == 0:
                rows[top], rows[i] = rows[i], rows[top]
                exprs[top], exprs[i] = exprs[i], exprs[top]
                continue
            g, x, y = _xgcd(a, b)
            u, v = -(b // g), a // g
            for vec in (rows, exprs):
                new_top = [x * p + y * q for p, q in zip(vec[top], vec[i])]
                new_i = [u * p + v * q for p, q in zip(vec[top], vec[i])]
                vec[top], vec[i] = new_top, new_i
        if rows[top][col] != 0:
            if rows[top][col] < 0:
                rows[top] = [-v for v in rows[top]]
                exprs[top] = [-v for v in exprs[top]]
            # reduce entries above the pivot for a canonical form
            piv = rows[top][col]
            for i in range(top):
                q = rows[i][col] // piv
                if q:
                    rows[i] = [p - q * s for p, s in zip(rows[i], rows[top])]
                    exprs[i] = [p - q * s for p, s in zip(exprs[i], exprs[top])]
            pivots.append(col)
            top += 1
    return rows[:top], exprs[:top], pivots


class Subgroup(Record):
    """Finitely generated subgroup of Q^r, with decidable membership; the
    parent, whose lattice an extension reuses, is outside == and hash."""

    _fields = ("ambient_rank", "generators")

    def __init__(self, ambient_rank: int, generators: tuple[GroupElement, ...],
                 _parent: Subgroup | None = None) -> None:
        _setattr(self, "ambient_rank", ambient_rank)
        _setattr(self, "generators", generators)
        _setattr(self, "_parent", _parent)

    @staticmethod
    def generated_by(*gens, ambient_rank: int | None = None) -> "Subgroup":
        elems = tuple(
            g if isinstance(g, GroupElement) else GroupElement.of(*g) if isinstance(g, (tuple, list)) else GroupElement.of(g)
            for g in gens
        )
        if ambient_rank is None:
            if not elems:
                raise PreconditionError("ambient_rank required for the trivial subgroup")
            ambient_rank = elems[0].rank
        for g in elems:
            if g.rank != ambient_rank:
                raise PreconditionError(
                    f"rank mismatch: generator {g!r} has rank {g.rank}, ambient is {ambient_rank}"
                )
        return Subgroup(ambient_rank, elems)

    @cached_property
    def _keys(self) -> tuple[int, list]:
        """(D, A) with no reduction: D the lcm of the generators' denominators, A
        their keys over D (the parent's A times D / D_parent, then the new keys)."""
        d0, mat0 = self._parent._keys if self._parent is not None else (1, [])
        new = self.generators[len(mat0):]
        k = (d := math.lcm(d0, *(g.den for g in new))) // d0
        return d, [[k * x for x in row] for row in mat0] + [g._over(d) for g in new]

    @cached_property
    def _lattice(self):
        """(D, A, Hermite rows, exprs, pivot columns).

        (D, A) are _keys, so the subgroup is { (z . A) / D : z in Z^m };
        the Hermite rows are a Z-basis of the row lattice of A, and
        exprs[i] writes rows[i] in the rows of A.
        The parent's Hermite rows (see extended; none without a parent)
        times D / D_parent are reduced with the new keys only, and the
        parent's transform writes them in the rows of A: the rows and
        pivots are canonical, and each witness re-checks the transform.
        """
        d, mat = self._keys
        d0, mat0, rows0, exprs0, _ = self._parent._lattice if self._parent is not None else (1, [], [], [], [])
        m0, k = len(mat0), d // d0
        rows, exprs, pivots = _hermite_rows([[k * x for x in row] for row in rows0] + mat[m0:])
        for i, e in enumerate(exprs):
            head = [0] * m0
            for c, e0 in zip(e, exprs0):
                head = [a + c * b for a, b in zip(head, e0)] if c else head
            exprs[i] = head + e[len(rows0):]
        return d, mat, rows, exprs, pivots

    def _check_ambient(self, g: GroupElement) -> None:
        if g.rank != self.ambient_rank:
            raise PreconditionError(
                f"rank mismatch: element rank {g.rank}, ambient rank {self.ambient_rank}"
            )

    def _coords(self, g: GroupElement) -> tuple[list[int], int] | None:
        """g's coordinates over the Hermite rows as ints (Q, s), the i-th
        being Q[i] / s, or None off the generators' rational span; g is a
        member iff s divides every Q[i].  With P the pivots' product and
        L = lcm(D, den g), s = (L / D) * P: P carries every later pivot."""
        self._check_ambient(g)
        d, _, rows, _, pivots = self._lattice
        lcm = math.lcm(d, g.den)
        prod = math.prod(row[col] for row, col in zip(rows, pivots))
        w = [prod * x for x in g._over(lcm)]
        qs: list[int] = []
        for row, col in zip(rows, pivots):
            q = w[col] // row[col]
            qs.append(q)
            if q:
                w = [a - q * b for a, b in zip(w, row)]
        return None if any(w) else (qs, lcm // d * prod)

    def _witness(self, g: GroupElement, coords: tuple[list[int], int] | None) -> list[int] | None:
        """The integer vector z with z . A == D * g, from g's coordinates,
        or None when g is not a member.  The identity is re-checked in
        integers against A before z is handed out."""
        if coords is None or any(q % coords[1] for q in coords[0]):
            return None
        _, mat, _, exprs, _ = self._lattice
        z = [sum(q // coords[1] * e[j] for q, e in zip(coords[0], exprs)) for j in range(len(mat))]
        if not self.is_witness(z, g):
            raise InternalError("witness failed re-verification")
        return z

    def is_witness(self, z, g: GroupElement) -> bool:
        """Whether z is an integer witness of g: a list of one int per
        generator (a bool does not count) with z . A == D * g.  Reads only
        _keys, so checking a recorded witness reduces no lattice."""
        d, mat = self._keys
        if not isinstance(z, list) or len(z) != len(mat) or any(type(zi) is not int for zi in z):
            return False
        combo = tuple(sum(zi * row[k] for zi, row in zip(z, mat)) for k in range(self.ambient_rank))
        return d % g.den == 0 and combo == g._over(d)

    def witness(self, g: GroupElement) -> list[int] | None:
        """Integer coefficients w with sum(w_i * gen_i) == g, or None.

        Every returned witness is re-verified against the generators
        before it is handed out.
        """
        return self._witness(g, self._coords(g))

    def __contains__(self, g: GroupElement) -> bool:
        return self.witness(g) is not None

    def torsion_order(self, g: GroupElement, bound: int | None = None) -> int | None:
        """Least e >= 1 with e*g in the subgroup, or None if non-torsion.

        None is only returned with a rank proof (g outside the rational
        span of the generators).  If `bound` is given and the exact
        order exceeds it, UndecidedError is raised: that outcome is
        distinct from a proven non-torsion answer.
        """
        coords = self._coords(g)
        if coords is None:
            return None
        e = math.lcm(*(coords[1] // math.gcd(q, coords[1]) for q in coords[0]))
        if bound is not None and e > bound:
            raise UndecidedError(
                f"torsion order {e} exceeds the search bound {bound}"
            )
        return e

    def index_over(self, sub: "Subgroup") -> int | None:
        """Index (self : sub) for sub a subgroup of self.

        Returns None when the rational spans differ in dimension (the
        index is infinite).  Raises PreconditionError if some generator
        of `sub` is not a member of self.
        """
        if sub.ambient_rank != self.ambient_rank:
            raise PreconditionError("rank mismatch between subgroups")
        coord_rows: list[list[int]] = []
        for t in sub.generators:
            coords = self._coords(t)
            if self._witness(t, coords) is None:
                raise PreconditionError(
                    f"not a subgroup: generator {t!r} lies outside the bigger group"
                )
            coord_rows.append([q // coords[1] for q in coords[0]])
        k = len(self._lattice[2])
        sub_rows, _, sub_pivots = _hermite_rows(coord_rows)
        if len(sub_rows) < k:
            return None
        return math.prod(row[col] for row, col in zip(sub_rows, sub_pivots))

    def extended(self, *new_gens: GroupElement) -> "Subgroup":
        """Subgroup generated by this one and new elements; its lattice is
        derived on first use from this one's if reduced, else its _parent's."""
        for g in new_gens:
            self._check_ambient(g)
        parent = self if "_lattice" in self.__dict__ else self._parent
        return Subgroup(self.ambient_rank, self.generators + tuple(new_gens), parent)

    def basis(self) -> list[GroupElement]:
        """Canonical Z-basis (Hermite rows over the common denominator)."""
        d, _, rows, _, _ = self._lattice
        return [_from_key(tuple(row), d) for row in rows]

    def with_fresh_coordinate(self, placement: str = "small") -> tuple["Subgroup", "object"]:
        """Extend the ambient group by one lexicographic coordinate.

        placement="small" appends the new coordinate (the fresh generator
        is infinitesimal against every old positive element);
        placement="large" prepends it (the fresh generator dominates).
        Returns the embedded subgroup and the embedding map for elements.
        """
        if placement not in ("small", "large"):
            raise PreconditionError("placement must be 'small' or 'large'")
        if placement == "small":
            def embed(g: GroupElement) -> GroupElement:
                return _from_key(g.key + (0,), g.den)
        else:
            def embed(g: GroupElement) -> GroupElement:
                return _from_key((0,) + g.key, g.den)
        new = Subgroup(self.ambient_rank + 1, tuple(embed(g) for g in self.generators))
        return new, embed

    def __repr__(self) -> str:
        gens = ", ".join(repr(g) for g in self.generators)
        return f"Subgroup(rank {self.ambient_rank}: <{gens}>)"
