"""Exact coefficient and residue field arithmetic.

Two families of fields are supported: the rationals, and finite fields
F_{p^n} represented as F_p[X] modulo a stored irreducible polynomial
(verified irreducible at construction by Rabin's test).  Elements are
canonical: reduced fractions over Q, coefficient tuples of degree
< deg(modulus) over F_{p^n}.

Rational function fields k(y) in one tagged transcendental generator
over such a field are the FunctionField type, kept gcd-reduced with a
monic denominator.  The one type serves both the t-adic base field k(t)
of the valuations module and the residue fields k(y) of
residue-transcendental valuations.

A FunctionField picks its polynomial ring once, from its coefficient
field, and its elements hold num and den in that ring's form, which
sums, products and the reduction take as they are: over F_2 one int per
polynomial, bit i the coefficient of t^i (_F2Polys: a sum is a XOR, and
remainder, exact quotient and gcd are XOR shifts); over an odd F_p int
tuples mod p (_FpPolys), over Q and F_{p^n} FieldElement tuples with the
EXACT modulus, which leaves every value as it is (_ListPolys), both
through one list kernel (_padd, _pmul, _pdivmod, _prem, _pgcd,
_preduce).  FunctionField.coefficients views a form as base elements.
A ring also owns ord_t, the fraction-free Taylor shift and the
substitution oracle's k[t]/t^K (valuations plugs Z at p into the same
protocol).  Over Q and F_{p^n} the shift runs on the lists, otherwise
on one int per polynomial (Kronecker substitution): over F_2 at a fixed
digit width, each step masked back to the low bit of every digit; over
an odd F_p the coefficients lifted to [0, p), packed at a digit width
fixed by an l1 bound, added and multiplied exactly over Z, and read mod
p once.
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction

from .errors import InternalError, PreconditionError
from .record import Record, _setattr
from .schema import fail, integer, list_of, obj, rational

__all__ = [
    "Field",
    "Rationals",
    "RATIONALS",
    "FiniteField",
    "FieldElement",
    "min_poly",
    "build_extension",
    "FunctionField",
    "FunctionFieldElement",
]


# ---------------------------------------------------------------------------
# dense polynomials, coefficient lists low-to-high
#
# One list kernel for every coefficient ring; F_2[t] has its own int form
# below.  Over F_p the coefficients are ints
# and p is the prime: every sum and product is reduced `% p` in the loop.
# Over Q, F_{p^n} or any other exact ring the coefficients are the ring's
# elements, `zero` is the ring's zero and p is EXACT, whose `x % EXACT` is
# x itself; an inverse is then the ring's own `c ** -1`.  A zero coefficient
# is falsy in both forms, so the product and division loops skip it.

class _Exact:
    """The modulus of exact arithmetic: x % EXACT is x for every x whose
    own __mod__ declines it (int, Fraction, FieldElement and
    FunctionFieldElement all do)."""

    def __rmod__(self, x):
        return x

    def __repr__(self):
        return "EXACT"


EXACT = _Exact()


def _power(base, n: int, one):
    """base ** n for an int n >= 0 by square-and-multiply from `one`; the
    square after the top bit of n is skipped."""
    result = one
    while n:
        if n & 1:
            result = result * base
        if n > 1:
            base = base * base
        n >>= 1
    return result


def _pstrip(cs: list, zero=0) -> tuple:
    n = len(cs)
    while n and cs[n - 1] == zero:
        n -= 1
    return tuple(cs[:n])


def _padd(a, b, p, zero=0):
    n = max(len(a), len(b))
    return _pstrip([((a[i] if i < len(a) else zero) + (b[i] if i < len(b) else zero)) % p
                    for i in range(n)], zero)


def _pmul(a, b, p, zero=0):
    if not a or not b:
        return ()
    out = [zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _pstrip(out, zero)


def _prem(a, b, p, zero=0, quotient=None):
    """The remainder of a by b != 0, and its quotient into a given list."""
    a, m = list(a), len(b) - 1
    binv = 1 if b[-1] == 1 else pow(b[-1], -1, p) if type(p) is int else b[-1] ** -1
    for k in range(len(a) - 1, m - 1, -1):
        c = (a[k] * binv) % p
        if c:
            if quotient is not None:
                quotient[k - m] = c
            for j, bj in enumerate(b[:m], k - m):  # a[k] itself is dropped
                a[j] = (a[j] - c * bj) % p
    return _pstrip(a[:m], zero)


def _pdivmod(a, b, p, zero=0):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [zero] * max(0, len(a) - len(b) + 1)
    r = _prem(a, b, p, zero, q)
    return _pstrip(q, zero), r


def _pxgcd(a, b, p):
    """Extended gcd over F_p[X]: returns (g, s, t) with s*a + t*b = g."""
    r0, r1 = _pstrip(list(a)), _pstrip(list(b))
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _padd(s0, _pmul(tuple((-c) % p for c in q), s1, p), p)
        t0, t1 = t1, _padd(t0, _pmul(tuple((-c) % p for c in q), t1, p), p)
    return r0, s0, t0


def _pmonic(a, p):
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], -1, p) if type(p) is int else a[-1] ** -1
    return tuple((c * inv) % p for c in a)


def _pgcd(a, b, p, zero=0):
    """Monic gcd of stripped a and b; () when both are zero."""
    while b:
        a, b = b, _prem(a, b, p, zero)
    return _pmonic(a, p)


def _ppack(a, b: int) -> int:
    """sum_i a_i 2^(b i) for 0 <= a_i < 2^b: a packed at b-bit digits."""
    x = 0
    for c in reversed(a):
        x = x << b | c
    return x


def _ppack_cleared(factors, d, n) -> tuple[int, list[int], int]:
    """(b, H, n) at b-bit digits for lifts to [0, p) of the pairs (num_j,
    cof_j) and of a center n/d: H_j = num_j cof_j d^(N-j) exact over Z.  As
    |x y|_1 = |x|_1 |y|_1 for non-negative x and y, b holds sum_j |H_j|_1
    (|n|_1 + 1)^j, which bounds every digit of every step of the Taylor
    shift of H at n, and packed sums and products stay those over Z[t]."""
    top, sd, sn = len(factors) - 1, sum(d), sum(n) + 1
    b = sum(sum(x) * sum(y) * sd ** (top - j) * sn ** j for j, (x, y) in enumerate(factors)).bit_length()
    H, power, pd = [], 1, _ppack(d, b)
    for x, y in reversed(factors):  # a power past the bound meets only zero num_j
        H.insert(0, _ppack(x, b) * _ppack(y, b) * power)
        power *= pd
    return b, H, _ppack(n, b)


def _pdigits(x: int, b: int, p: int):
    """The b-bit digits of a packed int x >= 0 mod p, low first, read lazily."""
    mask = (1 << b) - 1
    return ((x >> k & mask) % p for k in range(0, x.bit_length(), b))


def _shift_passes(h: list, step):
    """Synthetic division of h, low degree first, by x - a in place, with
    step(x, y) = x*a + y: yields c_0, c_1, ... as the pass that settles
    each ends (c_N leads)."""
    for i in range(len(h) - 1):
        for j in range(len(h) - 2, i - 1, -1):
            h[j] = step(h[j + 1], h[j])
        yield h[i]
    yield from h[-1:]


def _pshift(factors, d, n, p: int) -> list:
    """The Taylor coefficients at n of sum_j num_j cof_j d^(N-j) y^j over
    F_p by synthetic division on _ppack_cleared's ints, each read once by
    _pdigits."""
    b, h, n = _ppack_cleared(factors, d, n)
    return [_pdigits(x, b, p) for x in _shift_passes(h, lambda x, y: x * n + y)]


def _preduce(num, den, p, zero=0, one=1):
    """num/den in lowest terms with a monic denominator; den is nonzero."""
    if not num:
        return (), (one,)
    if len(den) > 1:
        g = _pgcd(num, den, p, zero)
        if len(g) > 1:
            num, den = _pdivmod(num, g, p, zero)[0], _pdivmod(den, g, p, zero)[0]
    if den[-1] != one:
        inv = pow(den[-1], -1, p) if type(p) is int else den[-1] ** -1
        num, den = tuple(c * inv % p for c in num), tuple(c * inv % p for c in den)
    return num, den


# ---------------------------------------------------------------------------
# F_2[t] on one int per polynomial, bit i the coefficient of t^i
#
# A sum is a XOR.  A product XORs the longer operand shifted to each set bit
# of the shorter one; remainder, exact quotient and gcd cancel the leading
# term by a XOR of the divisor shifted under it.  The Taylor shift runs on
# ints packed at w-bit digits (Kronecker substitution), each product over Z
# masked back to the low bit of every digit.

_BITS = bytes.maketrans(b"\0\1", b"01")


def _f2_from_bits(bits) -> int:
    """The int of 0/1 coefficients, low first, in one pass."""
    return int(bytes(bits[::-1]).translate(_BITS) or b"0", 2)


def _f2_mul(a: int, b: int) -> int:
    if a.bit_length() > b.bit_length():
        a, b = b, a
    out = 0
    for i, bit in enumerate(bin(a)[:1:-1]):
        if bit == "1":
            out ^= b << i
    return out


def _f2_rem(a: int, b: int) -> int:
    """a mod b != 0."""
    m = b.bit_length()
    while (k := a.bit_length() - m) >= 0:
        a ^= b << k
    return a


def _f2_quo(a: int, b: int) -> int:
    """The quotient of a by b != 0."""
    q, m = 0, b.bit_length()
    while (k := a.bit_length() - m) >= 0:
        q |= 1 << k
        a ^= b << k
    return q


def _f2_gcd(a: int, b: int) -> int:
    """The gcd of a and b, monic as every nonzero polynomial over F_2; 0
    when both are zero."""
    while b:
        a, b = b, _f2_rem(a, b)
    return a


def _f2_reduce(num: int, den: int) -> tuple[int, int]:
    """_preduce over F_2: num/den in lowest terms, monic as every nonzero
    polynomial over F_2; a zero den raises."""
    if not den:
        raise PreconditionError("zero denominator")
    if not num:
        return 0, 1
    if den > 1 and (g := _f2_gcd(num, den)) > 1:
        num, den = _f2_quo(num, g), _f2_quo(den, g)
    return num, den


def _f2_order(a: int) -> int | None:
    """ord_t a: the index of the lowest set bit, None for 0."""
    return (a & -a).bit_length() - 1 if a else None


def _f2_spread(a: int, w: int) -> int:
    """a packed at w-bit digits: bit i of a moves to bit w i."""
    return int(("0" * (w - 1)).join(bin(a)[2:]), 2)


def _f2_mask(w: int, k: int) -> int:
    """sum_(i < k) 2^(w i): the low bit of each of k w-bit digits."""
    return int(("0" * (w - 1) + "1") * k, 2)


def _f2_pack_cleared(factors, d: int, n: int) -> tuple[int, list[int], int, int]:
    """(w, H, n, K) at w-bit digits for the pairs (num_j, cof_j) and a
    center n/d over F_2: H_j = num_j cof_j d^(N-j), and K digits hold every
    Taylor coefficient of H at n.  Every packed value keeps 0/1 digits, so
    a digit of x n + y is at most L + 1 for L = len n, which w = bitlen(L)
    + 1 holds, and & _f2_mask(w, K) reads it mod 2 and drops no term."""
    H = _cleared(_F2Polys, factors, d)
    w, top = n.bit_length().bit_length() + 1, max(n.bit_length() - 1, 0)
    k = max(h.bit_length() + j * top for j, h in enumerate(H))
    return w, [_f2_spread(h, w) for h in H], _f2_spread(n, w), k


def _f2_shift(factors, d: int, n: int) -> list[int]:
    """_pshift over F_2: synthetic division on _f2_pack_cleared's ints, each
    multiply-add masked to the low digit bits, read back one bit a digit."""
    w, h, n, k = _f2_pack_cleared(factors, d, n)
    mask = _f2_mask(w, k)
    return [int(bin(x)[2::w], 2) for x in _shift_passes(h, lambda x, y: (x * n + y) & mask)]


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3_317_044_064_679_887_385_961_981  # least strong pseudoprime to the bases 2..41


def is_prime(n: int) -> bool:
    """Exact primality: trial division by the primes 2..41, then
    strong-probable-prime rounds to those 13 bases, which decide every n
    below psi_13 = 3,317,044,064,679,887,385,961,981 (Sorenson and
    Webster, Math. Comp. 2017).  A failed round proves n composite at any
    size; an n >= psi_13 that passes every round raises PreconditionError,
    so no answer rests on a probabilistic test."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _PSI_13:
        raise PreconditionError(f"{n} is a strong probable prime to the bases 2..41, "
                                f"which proves primality only below {_PSI_13}")
    return True


def is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Rabin's irreducibility test over F_p, in its deterministic form.

    f of degree n >= 1 is irreducible iff x^(p^n) = x mod f and
    gcd(x^(p^(n/q)) - x, f) = 1 for every prime q dividing n.  Each
    power x^(p^k) mod f, k = 1..n, is computed once from the previous one
    by square-and-multiply.
    """
    f = _pstrip([c % p for c in poly])
    n = len(f) - 1
    if n <= 0:
        return False

    def mulmod(a, b):
        return _prem(_pmul(a, b, p), f, p)

    x = _prem((0, 1), f, p)
    powers = [x]  # powers[k] = x^(p^k) mod f
    for _ in range(n):
        a, result, e = powers[-1], (1,), p
        while e:
            if e & 1:
                result = mulmod(result, a)
            a, e = mulmod(a, a), e >> 1
        powers.append(result)
    if powers[n] != x:
        return False
    minus_x = tuple((-c) % p for c in x)
    return all(len(_pgcd(_padd(powers[n // q], minus_x, p), f, p)) == 1
               for q in range(2, n + 1) if n % q == 0 and is_prime(q))


# (p, modulus) -> FiniteField._fold for the first 1024 pairs proven to give a field
_PROVEN_FOLDS: dict[tuple[int, tuple[int, ...]], tuple] = {}


# ---------------------------------------------------------------------------
# field descriptors

class Field:
    """Common interface of coefficient/residue fields.

    Each field owns the arithmetic on its raw element values (the
    `FieldElement.value` form): raw_add, raw_neg, raw_mul and
    raw_is_zero, and over a finite field raw_frobenius.  FieldElement's
    operators call them, and kernels that hold raw values (the series
    module) call them directly.
    """

    characteristic: int

    def element(self, value, path=()) -> "FieldElement":
        raise NotImplementedError

    def zero(self) -> "FieldElement":
        raise NotImplementedError

    def one(self) -> "FieldElement":
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_json(data, path=()) -> "Field":
        """The field {"char": p, "modulus": [ints]} at path; char 0 is Q."""
        data = obj(data, path)
        if integer(data.get("char", 0), (*path, "char")) == 0:
            return RATIONALS
        modulus = list_of(integer, data.get("modulus", []), (*path, "modulus"))
        return _finite_field(data["char"], tuple(modulus))


@functools.lru_cache(maxsize=1024)
def _finite_field(p: int, modulus: tuple[int, ...]) -> "FiniteField":
    """The FiniteField that Field.from_json reads, one per (p, modulus)."""
    return FiniteField(p, modulus)


class Rationals(Field):
    """The field Q with exact Fraction arithmetic."""

    characteristic = 0

    def element(self, value, path=()) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.field is not self and value.field != self:
                raise PreconditionError("descriptor mismatch: expected a rational")
            return value
        return FieldElement(self, rational(value, path))

    def zero(self) -> "FieldElement":
        return FieldElement(self, Fraction(0))

    def raw_add(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def raw_neg(self, a: Fraction) -> Fraction:
        return -a

    def raw_mul(self, a: Fraction, b: Fraction) -> Fraction:
        return a * b

    def raw_is_zero(self, a: Fraction) -> bool:
        return a == 0

    def one(self) -> "FieldElement":
        return FieldElement(self, Fraction(1))

    def sample(self, rng) -> "FieldElement":
        return FieldElement(self, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))

    def to_json(self) -> dict:
        return {"char": 0, "modulus": []}

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash(("Q",))

    def __repr__(self):
        return "Q"


RATIONALS = Rationals()


class FiniteField(Field):
    """F_{p^n} as F_p[X] mod an irreducible monic modulus.

    The prime field F_p itself has an empty modulus and degree 1; its
    elements are length-1 coefficient tuples.  `_fold` holds X^k mod the
    modulus for n <= k <= 2n - 2, the rows that reduce a product.  Rabin's
    test runs once per process for a (p, modulus) that passes it.
    """

    def __init__(self, p: int, modulus: tuple[int, ...] = ()):
        if not is_prime(p):
            raise PreconditionError(f"characteristic {p} is not prime")
        modulus = _pstrip([c % p for c in modulus])
        self.characteristic = p
        self.modulus = modulus
        fold = _PROVEN_FOLDS.get((p, modulus))
        if fold is None:
            if modulus:
                if modulus[-1] != 1:
                    raise PreconditionError("modulus must be monic")
                if len(modulus) - 1 < 2:
                    raise PreconditionError("modulus must have degree >= 2 (omit it for the prime field)")
                if not is_irreducible(modulus, p):
                    raise PreconditionError(f"modulus {list(modulus)} is reducible over F_{p}")
            n = self.degree
            fold = tuple(_prem((0,) * k + (1,), modulus, p) for k in range(n, 2 * n - 1))
            if len(_PROVEN_FOLDS) < 1024:
                _PROVEN_FOLDS[p, modulus] = fold
        self._fold = fold

    @property
    def degree(self) -> int:
        return len(self.modulus) - 1 if self.modulus else 1

    @property
    def order(self) -> int:
        return self.characteristic ** self.degree

    def element(self, value, path=()) -> "FieldElement":
        """An int, a list of ints (coefficients of 1, X, ...) or a FieldElement of this field."""
        p = self.characteristic
        if isinstance(value, FieldElement):
            if value.field is not self and value.field != self:
                raise PreconditionError("descriptor mismatch between field elements")
            return value
        if type(value) is int:
            coeffs = (value % p,) + (0,) * (self.degree - 1)
            return FieldElement(self, coeffs)
        if type(value) is not list:
            raise fail(value, path, "a JSON integer or a JSON list of integers")
        coeffs = [c % p for c in list_of(integer, value, path)]
        if len(coeffs) > 1 and not self.modulus:
            raise PreconditionError(
                f"an element of the prime field {self!r} has one coefficient, got {len(coeffs)}")
        if len(coeffs) > self.degree:
            coeffs = list(_prem(_pstrip(coeffs), self.modulus, p))
        coeffs += [0] * (self.degree - len(coeffs))
        return FieldElement(self, tuple(coeffs))

    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.degree)

    def raw_add(self, a: tuple, b: tuple) -> tuple:
        p = self.characteristic
        if len(a) == 1:
            return ((a[0] + b[0]) % p,)
        return tuple((x + y) % p for x, y in zip(a, b))

    def raw_neg(self, a: tuple) -> tuple:
        p = self.characteristic
        if len(a) == 1:
            return (-a[0] % p,)
        return tuple(-x % p for x in a)

    def raw_mul(self, a: tuple, b: tuple) -> tuple:
        p, n = self.characteristic, len(a)
        if n == 1:
            return (a[0] * b[0] % p,)
        # schoolbook on the coefficient tuples, the top coefficients folded
        # through X^k mod the modulus, one reduction mod p
        prod = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        for c, row in zip(prod[n:], self._fold):
            if c:
                for j, r in enumerate(row):
                    prod[j] += c * r
        return tuple(c % p for c in prod[:n])

    def raw_is_zero(self, a: tuple) -> bool:
        return not any(a)

    def raw_frobenius(self, a: tuple, k: int) -> tuple:
        """a^(p^k) on a raw value: the identity over the prime field,
        where a^p = a."""
        if not self.modulus:
            return a
        return (FieldElement(self, a) ** self.characteristic ** k).value

    def one(self) -> "FieldElement":
        return self.element(1)

    def gen(self) -> "FieldElement":
        """The residue of X, a generator of the extension over F_p."""
        if not self.modulus:
            raise PreconditionError("the prime field has no extension generator")
        return FieldElement(self, (0, 1) + (0,) * (self.degree - 2))

    def mul_matrix(self, a: "FieldElement") -> tuple[tuple[int, ...], ...]:
        """Rows of the n x n matrix over F_p of multiplication by a, column j a*X^j."""
        return tuple(zip(*((a * self.element([0] * j + [1])).value for j in range(self.degree))))

    def elements(self):
        for tup in itertools.product(range(self.characteristic), repeat=self.degree):
            yield FieldElement(self, tup)

    def sample(self, rng) -> "FieldElement":
        return FieldElement(
            self, tuple(rng.randrange(self.characteristic) for _ in range(self.degree))
        )

    def to_json(self) -> dict:
        return {"char": self.characteristic, "modulus": list(self.modulus)}

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and other.characteristic == self.characteristic
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash((self.characteristic, self.modulus))

    def __repr__(self):
        return f"F_{self.order}"


class FieldElement(Record):
    """An element of a Field, in canonical form."""

    _fields = ("field", "value")

    def __init__(self, field: Field, value: object) -> None:
        _setattr(self, "field", field)
        _setattr(self, "value", value)  # Fraction over Q, coefficient tuple over F_{p^n}

    def is_zero(self) -> bool:
        return self.field.raw_is_zero(self.value)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise PreconditionError("descriptor mismatch between field elements")
            return other
        return self.field.element(other)

    def __add__(self, other):
        other = self._coerce(other)
        return FieldElement(self.field, self.field.raw_add(self.value, other.value))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, self.field.raw_neg(self.value))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        return FieldElement(self.field, self.field.raw_mul(self.value, other.value))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise PreconditionError("division by zero")
        if type(self.value) is Fraction:
            return FieldElement(self.field, 1 / self.value)
        f: FiniteField = self.field
        p = f.characteristic
        if not any(self.value[1:]):  # in the prime field, as every monic leading coefficient
            return FieldElement(f, (pow(self.value[0], -1, p),) + self.value[1:])
        g, s, _ = _pxgcd(_pstrip(list(self.value)), f.modulus, p)
        # g is a nonzero constant since the modulus is irreducible
        ginv = pow(g[0], -1, p)
        return f.element([c * ginv % p for c in s])

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() if n == -1 else self.inverse() ** (-n)
        if self.field.characteristic and not self.is_zero():
            n %= self.field.order - 1  # x^(q-1) = 1 for nonzero x in F_q
        return _power(self, n, self.field.one())

    def frobenius_inverse(self) -> "FieldElement":
        """The unique p-th root: inverse of x -> x^p on F_{p^n}.

        Uses x^(p^(n-1)), a two-sided inverse of Frobenius since
        x^(p^n) = x for every element.
        """
        if self.field.characteristic == 0:
            raise PreconditionError("p-th roots of coefficients need positive characteristic")
        f: FiniteField = self.field
        return FieldElement(f, f.raw_frobenius(self.value, f.degree - 1))

    def to_json(self):
        if type(self.value) is Fraction:
            return str(self.value)
        if self.field.degree == 1:
            return self.value[0]
        return list(self.value)

    def __repr__(self):
        if type(self.value) is Fraction:
            return str(self.value)
        if self.field.degree == 1:
            return str(self.value[0])
        parts = []
        for i, c in enumerate(self.value):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else str(c) + "*"
                parts.append(f"{head}u" + (f"^{i}" if i > 1 else ""))
        return " + ".join(parts) if parts else "0"


def min_poly(a: FieldElement, base: Field | None = None) -> tuple[int, ...]:
    """Monic minimal polynomial of a finite-field element over F_p.

    Computed as the product of (X - c) over the Frobenius orbit of `a`;
    the coefficients are verified to land in the prime field, the result
    to be irreducible, and the degree to divide the ambient degree.
    """
    field = a.field
    if field.characteristic == 0:
        raise PreconditionError("min_poly is defined over finite fields")
    if base is not None and base.characteristic != field.characteristic:
        raise PreconditionError("base field has the wrong characteristic")
    # expand prod (X - c) with coefficients in the ambient field
    zero, one = field.zero(), field.one()
    coeffs = (one,)
    for c in _frobenius_orbit(a):
        coeffs = _pmul(coeffs, (-c, one), EXACT, zero)
    out = []
    for k in coeffs:
        vec = k.value
        if any(vec[1:]):
            raise InternalError("minimal polynomial not over the prime field")
        out.append(vec[0])
    poly = tuple(out)
    if len(poly) - 1 and not is_irreducible(poly, field.characteristic):
        raise InternalError("minimal polynomial reducible")
    if field.degree % (len(poly) - 1) != 0:
        raise InternalError("orbit size does not divide the field degree")
    return poly


def min_poly_degree(a: FieldElement) -> int:
    """Degree of `a` over the prime field (Frobenius orbit size)."""
    return len(_frobenius_orbit(a)) if a.field.characteristic else 1


def _frobenius_orbit(a: FieldElement) -> list[FieldElement]:
    """a, a^p, a^(p^2), ... up to the first return to a: its conjugates over F_p."""
    p, orbit = a.field.characteristic, [a]
    while (nxt := orbit[-1] ** p) != a:
        orbit.append(nxt)
    return orbit


def build_extension(base: Field, poly) -> tuple[FiniteField, "object"]:
    """Extension base[X]/(poly) of a prime field, with the embedding map.

    `poly` is a monic irreducible given by its coefficient list over the
    prime field F_p.  Returns the new field and the map sending base
    elements to their images (constants).
    """
    if not isinstance(base, FiniteField) or base.modulus:
        raise PreconditionError("extensions are built over a prime field F_p")
    p = base.characteristic
    poly = tuple(int(c) % p for c in poly)
    ext = FiniteField(p, poly)  # irreducibility verified by the constructor

    def embed(c: FieldElement) -> FieldElement:
        if c.field != base:
            raise PreconditionError("descriptor mismatch: element not in the base field")
        return ext.element(c.value[0])

    return ext, embed


# ---------------------------------------------------------------------------
# rational functions in one tagged transcendental generator, on a ring
# protocol: one, pack, unpack, reduce, add, neg, mul, quo, gcd, order,
# shift and truncation

def _tadic_order(cs) -> int | None:
    """The index of the first nonzero coefficient, None for the zero polynomial."""
    return next((i for i, c in enumerate(cs) if c), None)


def _cleared(ring, factors, d) -> list:
    """H_j = num_j cof_j d^(N-j) for the pairs (num_j, cof_j) and a center
    n/d, on the ring's one and mul: the one H builder of the Taylor shift
    and the oracle's truncation over k[t] lists, F_2[t] ints and Z at p
    (valuations._PAdicInts).  _ppack_cleared packs before it multiplies."""
    H, power = [], ring.one
    for num, cof in reversed(factors):
        H.insert(0, ring.mul(ring.mul(num, cof), power))
        power = ring.mul(power, d)
    return H


class _ListPolys:
    """k[t] on coefficient tuples, low first, through the dense list
    kernels at the coefficient field's (p, zero, one): over Q and F_{p^n}
    the field's elements with the EXACT modulus, over an odd F_p ints mod
    p (_FpPolys).  The Taylor shift and the oracle's k[t]/t^K run on the
    lists of _cleared's H_j."""

    def __init__(self, p, zero, one):
        self.p, self.zero, self.one = p, zero, (one,)

    pack = unpack = staticmethod(tuple)

    def reduce(self, num, den):
        """num/den in canonical form from coefficient lists (or iterables)."""
        zero = self.zero
        num, den = _pstrip(list(num), zero), _pstrip(list(den), zero)
        if not den:
            raise PreconditionError("zero denominator")
        return _preduce(num, den, self.p, zero, self.one[0])

    def add(self, a, b):
        return _padd(a, b, self.p, self.zero)

    def neg(self, a):
        return tuple([-c % self.p for c in a])

    def mul(self, a, b):
        return _pmul(a, b, self.p, self.zero)

    def quo(self, a, b):
        return _pdivmod(a, b, self.p, self.zero)[0]

    def gcd(self, a, b):
        return _pgcd(a, b, self.p, self.zero)

    order = staticmethod(_tadic_order)

    def shift(self, factors, d, n) -> list:
        """The Taylor coefficients at n of sum_j H_j y^j, by synthetic division."""
        return list(_shift_passes(_cleared(self, factors, d), lambda x, y: self.add(self.mul(n, x), y)))

    def truncation(self, factors, d, n):
        """(H, exact_k, order, truncated) of the oracle's k[t]/t^K for
        the H_j and the center n/d: truncated(k) gives the H_j mod t^k and
        the step x*n + y mod t^k, order(x) is ord_t x, and K >= exact_k =
        max_j (deg H_j + j deg n) + 1 exceeds every deg h_i."""
        H, zero = _cleared(self, factors, d), self.zero

        def truncated(k: int):
            m = n[:k]
            return ([_pstrip(h[:k], zero) for h in H],
                    lambda x, y: _pstrip(self.add(self.mul(x, m), y)[:k], zero))
        return H, max(len(h) + j * max(len(n) - 1, 0) for j, h in enumerate(H)), _tadic_order, truncated


class _FpPolys(_ListPolys):
    """F_p[t], p odd, on int tuples mod p.  The Taylor shift and the
    oracle's k[t]/t^K run on _ppack_cleared's b-bit ints instead of the
    lists: a mask of the low k digits only drops terms, so no digit
    passes b, and residues are read mod p."""

    def shift(self, factors, d, n) -> list:
        return _pshift(factors, d, n, self.p)

    def truncation(self, factors, d, n):
        p, (b, H, m) = self.p, _ppack_cleared(factors, d, n)

        def truncated(k: int):
            mask = (1 << b * k) - 1
            return [h & mask for h in H], lambda x, y, n=m & mask: (x * n + y) & mask
        exact_k = max(-(-h.bit_length() // b) + j * max(len(n) - 1, 0) for j, h in enumerate(H))
        return H, exact_k, lambda x: _tadic_order(_pdigits(x, b, p)), truncated


class _F2Polys:
    """F_2[t] on one int per polynomial (the _f2_* kernels), -a = a.  The
    Taylor shift and the oracle's k[t]/t^K run on _f2_pack_cleared's ints
    at w-bit digits, where one mask both truncates and reads each digit mod 2."""

    p, one = 2, 1
    pack = staticmethod(_f2_from_bits)
    unpack = staticmethod(lambda x: tuple(map(int, bin(x)[:1:-1])) if x else ())
    add = staticmethod(operator.xor)
    neg = staticmethod(operator.pos)
    mul = staticmethod(_f2_mul)
    quo = staticmethod(_f2_quo)
    gcd = staticmethod(_f2_gcd)
    order = staticmethod(_f2_order)
    reduce = staticmethod(_f2_reduce)
    shift = staticmethod(_f2_shift)

    @staticmethod
    def truncation(factors, d: int, n: int):
        """_ListPolys.truncation over F_2: truncated(k) masks to the low
        bits of k digits, and ord_t is the lowest set bit over w."""
        w, H, m, exact_k = _f2_pack_cleared(factors, d, n)

        def truncated(k: int):
            mask = _f2_mask(w, k)
            return [h & mask for h in H], lambda x, y, n=m & mask: (x * n + y) & mask
        return H, exact_k, lambda x: ((x & -x).bit_length() - 1) // w if x else None, truncated


class FunctionField:
    """Rational functions over a coefficient field in one tagged generator.

    This is the one rational function type of the library: the t-adic
    base field k(t) of valuations.TAdicRationalFunctions, and the
    symbolic residue field Kv(y) of residue-transcendental valuations.
    Elements hold num/den in the form of the polynomial ring _ring,
    chosen here once from the coefficient field (_F2Polys over F_2,
    _FpPolys over an odd F_p, _ListPolys over Q and F_{p^n}), in
    canonical form (gcd-reduced, monic denominator), so equal functions
    are equal by value; coefficients() views a form as base elements.
    """

    def __init__(self, base: Field, gen_name: str = "y"):
        self.base = base
        self.gen_name = gen_name
        if isinstance(base, FiniteField) and not base.modulus:
            self._ring = _F2Polys if base.characteristic == 2 else _FpPolys(base.characteristic, 0, 1)
            self._lift, self._embed = (lambda c: c.value[0]), (lambda c: FieldElement(base, (c,)))
        else:
            self._ring = _ListPolys(EXACT, base.zero(), base.one())
            self._lift = self._embed = lambda c: c

    def element(self, num, den=None, path=()) -> "FunctionFieldElement":
        """num/den from coefficient lists of base elements, or of values
        that base.element reads at path.num[i] and path.den[i]; den
        defaults to 1."""
        return self._make(self._read(num, path, "num"),
                          self._ring.one if den is None else self._read(den, path, "den"))

    def _read(self, cs, path, key):
        """The ring form of the coefficient list cs at path.key; over F_p a
        list of ints is read inline, mod p."""
        ring = self._ring
        if type(p := ring.p) is int and len(ints := [c % p for c in cs if type(c) is int]) == len(cs):
            return ring.pack(ints)
        return ring.pack([self._lift(self.base.element(c, (*path, key, i))) for i, c in enumerate(cs)])

    def _make(self, num, den) -> "FunctionFieldElement":
        """num/den from ring forms, reduced to canonical form."""
        return FunctionFieldElement(self, *self._ring.reduce(num, den))

    def coefficients(self, x) -> tuple:
        """The coefficients, low first, of a ring form x (the num or den of
        an element) as base elements."""
        return tuple(map(self._embed, self._ring.unpack(x)))

    def from_laurent(self, coeffs: dict[int, FieldElement]) -> "FunctionFieldElement":
        """Element from a Laurent-monomial dict {power: coefficient}."""
        if not coeffs:
            return self.element([])
        shift = min(0, min(coeffs))
        num = [self.base.zero()] * (max(coeffs) - shift + 1)
        for k, c in coeffs.items():
            num[k - shift] = num[k - shift] + c
        den = [self.base.zero()] * (-shift) + [self.base.one()]
        return self.element(num, den)

    def gen(self) -> "FunctionFieldElement":
        return self.element([self.base.zero(), self.base.one()])

    def __eq__(self, other):
        return (
            isinstance(other, FunctionField)
            and other.base == self.base
            and other.gen_name == self.gen_name
        )

    def __hash__(self):
        return hash((self.base, self.gen_name))

    def __repr__(self):
        return f"{self.base!r}({self.gen_name})"


class FunctionFieldElement(Record):
    """num/den in the canonical ring form of the field (FunctionField)."""

    _fields = ("field", "num", "den")

    def __init__(self, field: FunctionField, num, den) -> None:
        _setattr(self, "field", field)
        _setattr(self, "num", num)
        _setattr(self, "den", den)

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return len(self.field.coefficients(self.num)) <= 1 and self.den == self.field._ring.one

    def constant_value(self) -> FieldElement:
        if not self.is_constant():
            raise PreconditionError("not a constant: residue needs the transcendental generator")
        cs = self.field.coefficients(self.num)
        return cs[0] if cs else self.field.base.zero()  # over the monic den 1

    def _coerce(self, other) -> "FunctionFieldElement":
        if isinstance(other, FunctionFieldElement):
            if other.field != self.field:
                raise PreconditionError("descriptor mismatch between function fields")
            return other
        return self.field.element([other])

    def _combine(self, c, d, add: bool) -> "FunctionFieldElement":
        """self + c/d if `add`, else self * c/d, for ring forms c and d."""
        field, ring, a, b = self.field, self.field._ring, self.num, self.den
        if add:
            return field._make(ring.add(ring.mul(a, d), ring.mul(c, b)), ring.mul(b, d))
        return field._make(ring.mul(a, c), ring.mul(b, d))

    def __add__(self, other):
        other = self._coerce(other)
        return self._combine(other.num, other.den, True)

    __radd__ = __add__

    def __neg__(self):
        return FunctionFieldElement(self.field, self.field._ring.neg(self.num), self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        return self._combine(other.num, other.den, False)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise PreconditionError("division by zero")
        return self._combine(other.den, other.num, False)

    def __pow__(self, n: int):
        one = self.field.element([self.field.base.one()])
        if n < 0:
            return (one / self) ** (-n)
        return _power(self, n, one)

    def __repr__(self):
        def side(x):
            parts = []
            for i, c in enumerate(self.field.coefficients(x)):
                if c.is_zero():
                    continue
                name = self.field.gen_name
                if i == 0:
                    parts.append(repr(c))
                else:
                    head = "" if c == self.field.base.one() else f"({c!r})*"
                    parts.append(f"{head}{name}" + (f"^{i}" if i > 1 else ""))
            return " + ".join(parts) if parts else "0"

        if self.den == self.field._ring.one:
            return side(self.num)
        return f"({side(self.num)}) / ({side(self.den)})"
