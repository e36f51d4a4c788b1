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
Hermite rows a Z-basis of the row lattice of A, with no transform (an
extended subgroup reduces only its parent's Hermite rows and its new
generators).  One reduction of g gives its coordinates as ints over one
denominator, and membership, torsion order and subgroup index are read
off them.  Every positive membership answer carries an integer witness
z, read off the reduction of [A | I] when asked for and re-checked as
z . A == D * g from (D, A) alone (so checking a recorded witness reduces
no lattice); every negative one a rank argument over Q.
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


def _hermite_rows(mat: list[list[int]], width: int) -> tuple[list[list[int]], list[int]]:
    """Row Hermite form over the first `width` columns, as (rows, pivots).

    `rows` are the Hermite rows with a pivot among those columns (pivot
    columns strictly increasing, pivots positive, entries above each pivot
    reduced into [0, pivot)), whose first `width` entries are a Z-basis of
    the row lattice there; pivots[i] is the pivot column of rows[i].  Later
    columns ride along: reducing [A | I] writes each row in the rows of A.
    """
    m = len(mat)
    rows = [list(row) for row in mat]
    top = 0
    pivots: list[int] = []
    for col in range(width):
        if top == m:
            break
        for i in range(top + 1, m):
            if rows[i][col] == 0:
                continue
            a, b = rows[top][col], rows[i][col]
            g, x, y = _xgcd(a, b)
            u, v = -(b // g), a // g  # unimodular; a signed swap when a == 0
            p, q = rows[top], rows[i]
            rows[top] = [x * s + y * t for s, t in zip(p, q)]
            rows[i] = [u * s + v * t for s, t in zip(p, q)]
        piv = rows[top][col]
        if piv != 0:
            if piv < 0:
                piv, rows[top] = -piv, [-s for s in rows[top]]
            # reduce entries above the pivot for a canonical form
            for i in range(top):
                q = rows[i][col] // piv
                if q:
                    rows[i] = [s - q * t for s, t in zip(rows[i], rows[top])]
            pivots.append(col)
            top += 1
    return rows[:top], pivots


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
        """(D, A, Hermite rows, pivot columns), with no transform.

        (D, A) are _keys, so the subgroup is { (z . A) / D : z in Z^m },
        and the Hermite rows are a Z-basis of the row lattice of A.  The
        parent's Hermite rows (see extended; none without a parent) times
        D / D_parent are reduced with the new keys only: the rows and
        pivots are canonical, those of a reduction from scratch.
        """
        d, mat = self._keys
        d0, mat0, rows0, _ = self._parent._lattice if self._parent is not None else (1, [], [], [])
        rows, pivots = _hermite_rows([[d // d0 * x for x in row] for row in rows0] + mat[len(mat0):],
                                     self.ambient_rank)
        return d, mat, rows, pivots

    @cached_property
    def _transform(self):
        """The Hermite reduction of [A | I] from scratch, I the m x m
        identity, made only when a witness is asked for: each row is a
        Hermite row of _lattice followed by its z with z . A == row."""
        _, mat = self._keys
        return _hermite_rows([[*row, *(int(i == j) for j in range(len(mat)))] for i, row in enumerate(mat)],
                             self.ambient_rank)

    def _check_ambient(self, g: GroupElement) -> None:
        if g.rank != self.ambient_rank:
            raise PreconditionError(
                f"rank mismatch: element rank {g.rank}, ambient rank {self.ambient_rank}"
            )

    def _coords(self, g: GroupElement, rows, pivots) -> tuple[list[int], int] | None:
        """g's coordinates over the Hermite rows (entries past the ambient
        rank unread) as ints (Q, s), the i-th being Q[i] / s, or None off
        the generators' rational span; g is a member iff s divides every
        Q[i].  With P the pivots' product and L = lcm(D, den g),
        s = (L / D) * P: P carries every later pivot."""
        self._check_ambient(g)
        d = self._keys[0]
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

    def _witness(self, g: GroupElement, coords: tuple[list[int], int] | None,
                 z: list[int] | None = None) -> list[int] | None:
        """The integer vector z with z . A == D * g, or None when g's
        coordinates say it is not a member.  Unless given (a generator's
        unit vector), z is read off _transform; either way the identity
        is re-checked in integers against A before z is handed out."""
        if coords is None or any(q % coords[1] for q in coords[0]):
            return None
        if z is None:
            (qs, s), r, (rows, _) = coords, self.ambient_rank, self._transform
            z = [sum(q // s * row[r + j] for q, row in zip(qs, rows)) for j in range(len(self.generators))]
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

        w is read off _transform, so it depends on the generator list
        alone, and is re-verified against the generators before it is
        handed out.
        """
        return self._witness(g, self._coords(g, *self._transform))

    def __contains__(self, g: GroupElement) -> bool:
        return self.witness(g) is not None

    def torsion_order(self, g: GroupElement, bound: int | None = None) -> int | None:
        """Least e >= 1 with e*g in the subgroup, or None if non-torsion.

        None is only returned with a rank proof (g outside the rational
        span of the generators).  If `bound` is given and the exact
        order exceeds it, UndecidedError is raised: that outcome is
        distinct from a proven non-torsion answer.
        """
        coords = self._coords(g, *self._lattice[2:])
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
        of `sub` is not a member of self.  One of self's own generators
        is certified by its unit vector, so it needs no transform.
        """
        if sub.ambient_rank != self.ambient_rank:
            raise PreconditionError("rank mismatch between subgroups")
        _, mat, rows, pivots = self._lattice
        own = {g: i for i, g in enumerate(self.generators)}
        coord_rows: list[list[int]] = []
        for t in sub.generators:
            coords = self._coords(t, rows, pivots)
            unit = None if (i := own.get(t)) is None else [int(i == j) for j in range(len(mat))]
            if self._witness(t, coords, unit) is None:
                raise PreconditionError(f"not a subgroup: generator {t!r} lies outside the bigger group")
            coord_rows.append([q // coords[1] for q in coords[0]])
        sub_rows, sub_pivots = _hermite_rows(coord_rows, len(rows))
        if len(sub_rows) < len(rows):
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
        d, _, rows, _ = self._lattice
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
