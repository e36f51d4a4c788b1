import itertools
import math
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratval import fields
from ratval.errors import PreconditionError
from ratval.fields import (
    RATIONALS,
    FiniteField,
    EXACT,
    FunctionField,
    _F2Polys,
    _f2_from_bits,
    _f2_gcd,
    _f2_mul,
    _f2_pack_cleared,
    _f2_quo,
    _f2_reduce,
    _f2_rem,
    _f2_shift,
    _padd,
    _pdivmod,
    _pdigits,
    _pgcd,
    _pmul,
    _power,
    _ppack,
    _ppack_cleared,
    _preduce,
    _pshift,
    _pstrip,
    _tadic_order,
    build_extension,
    is_irreducible,
    is_prime,
    min_poly,
    min_poly_degree,
)
from ratval.valuations import PAdicRationals, _horner

F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, (1, 1, 1))
F5 = FiniteField(5)
F8 = FiniteField(2, (1, 1, 0, 1))
F9 = FiniteField(3, (1, 0, 1))


class TestArith:
    def test_rational_addition(self):
        assert RATIONALS.element("1/2") + RATIONALS.element("1/3") == RATIONALS.element("5/6")

    def test_f4_defining_relation(self):
        u = F4.gen()
        assert u * u == u + F4.one()

    def test_f5_inverse(self):
        assert F5.element(2).inverse() == F5.element(3)

    def test_division_by_zero(self):
        with pytest.raises(PreconditionError):
            F5.zero().inverse()

    def test_descriptor_mismatch(self):
        with pytest.raises(PreconditionError):
            F4.gen() + F9.gen()

    def test_prime_field_takes_one_coefficient(self):
        with pytest.raises(PreconditionError,
                           match=r"^an element of the prime field F_2 has one coefficient, got 2$"):
            F2.element([1, 1])
        assert F2.element([1]) == F2.one()

    @pytest.mark.parametrize("field", [RATIONALS, F5, F4, F9, F8])
    def test_field_axioms_random_triples(self, field):
        rng = random.Random(2024)
        for _ in range(1000):
            a, b, c = (field.sample(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == field.zero()
            if not a.is_zero():
                assert a * a.inverse() == field.one()


    @pytest.mark.parametrize("field", [F5, F4, F9, F8, FiniteField(13, (1, 0, 0, 1, 1))], ids=repr)
    def test_inverse_of_a_prime_field_constant(self, field):
        # the constants skip the extended gcd: full-length canonical tuples
        p = field.characteristic
        for c in range(1, p):
            assert field.element(c).inverse() == field.element(pow(c, -1, p))


class TestFrobeniusInverse:
    def test_identity_in_f2(self):
        assert F2.one().frobenius_inverse() == F2.one()

    def test_f4_example(self):
        # square all four elements; the unique preimage of u+1 is u
        u = F4.gen()
        preimages = [x for x in F4.elements() if x * x == u + F4.one()]
        assert preimages == [u]
        assert (u + F4.one()).frobenius_inverse() == u

    def test_f9_example(self):
        u = F9.gen()
        two_u = F9.element([0, 2])
        assert two_u ** 3 == u
        assert u.frobenius_inverse() == two_u

    def test_characteristic_zero_rejected(self):
        with pytest.raises(PreconditionError):
            RATIONALS.one().frobenius_inverse()

    @pytest.mark.parametrize("field", [F2, FiniteField(3), F4, F8, F9,
                                       FiniteField(2, (1, 1, 0, 0, 1)),   # F_16
                                       FiniteField(2, (1, 0, 1, 0, 0, 1)),  # F_32
                                       FiniteField(2, (1, 1, 0, 0, 0, 0, 1)),  # F_64
                                       FiniteField(3, (1, 2, 0, 1)),     # F_27
                                       FiniteField(3, (2, 1, 0, 0, 1)),  # F_81
                                       FiniteField(5, (2, 0, 1)),        # F_25
                                       FiniteField(7, (1, 0, 1))])       # F_49
    def test_two_sided_inverse_exhaustively(self, field):
        # every order p^n <= 81
        p = field.characteristic
        for x in field.elements():
            assert x.frobenius_inverse() ** p == x
            assert (x ** p).frobenius_inverse() == x


class TestMinPoly:
    def test_defining_modulus(self):
        assert min_poly(F4.gen()) == (1, 1, 1)

    def test_degree_one_case(self):
        assert min_poly(F4.one()) == (1, 1)  # X + 1 over F_2

    def test_f9_derived_example(self):
        # expand (X - (u+1)) (X - (u+1)^3) over F_9 and reduce: X^2 + X + 2
        a = F9.gen() + F9.one()
        conj = a ** 3
        prod_const = a * conj
        prod_lin = -(a + conj)
        assert min_poly(a) == (prod_const.value[0], prod_lin.value[0], 1) == (2, 1, 1)

    def test_root_and_irreducibility(self):
        rng = random.Random(44)
        for field in (F4, F8, F9, FiniteField(2, (1, 1, 0, 0, 1))):
            for _ in range(20):
                a = field.sample(rng)
                poly = min_poly(a)
                acc = field.zero()
                for c in reversed(poly):
                    acc = acc * a + field.element(int(c))
                assert acc.is_zero()
                assert is_irreducible(poly, field.characteristic)
                assert field.degree % (len(poly) - 1) == 0


class TestBuildExtension:
    def test_f4(self):
        ext, embed = build_extension(F2, (1, 1, 1))
        assert ext.order == 4
        assert embed(F2.one()) == ext.one()

    def test_f9(self):
        ext, _ = build_extension(FiniteField(3), (1, 0, 1))
        assert ext.order == 9

    def test_f8_reduction(self):
        ext, _ = build_extension(F2, (1, 1, 0, 1))
        u = ext.gen()
        assert u ** 3 == u + ext.one()

    def test_reducible_rejected(self):
        with pytest.raises(PreconditionError):
            build_extension(F2, (1, 0, 1))  # X^2 + 1 = (X+1)^2 over F_2

    def test_embedding_is_a_homomorphism(self):
        ext, embed = build_extension(F5, (2, 0, 1))  # X^2 + 2 over F_5
        rng = random.Random(3)
        for _ in range(50):
            a, b = F5.sample(rng), F5.sample(rng)
            assert embed(a * b) == embed(a) * embed(b)
            assert embed(a + b) == embed(a) + embed(b)


class TestIrreducibilityMemo:
    """FiniteField remembers a passed Rabin test per (p, modulus) in the
    process, and only a passed one."""

    @pytest.fixture
    def rabin_calls(self, monkeypatch):
        monkeypatch.setattr(fields, "_PROVEN_FOLDS", {})
        calls = []

        def spy(poly, p, original=fields.is_irreducible):
            calls.append((p, tuple(poly)))
            return original(poly, p)

        monkeypatch.setattr(fields, "is_irreducible", spy)
        return calls

    def test_second_construction_runs_no_rabin_test(self, rabin_calls):
        m = (1, 0, 0, 1, 1)  # X^4 + X^3 + 1 over F_13
        first = FiniteField(13, m)
        assert rabin_calls == [(13, m)]
        second = FiniteField(13, [c + 13 for c in m])  # the same modulus, unreduced
        assert rabin_calls == [(13, m)]
        assert second == first and second._fold == first._fold
        u = second.gen()
        assert u ** 4 == -(u ** 3) - second.one()

    def test_reducible_modulus_raises_every_time(self, rabin_calls):
        for attempt in range(1, 4):
            with pytest.raises(PreconditionError, match="reducible"):
                FiniteField(2, (1, 0, 1))  # (X + 1)^2
            assert len(rabin_calls) == attempt
        assert fields._PROVEN_FOLDS == {}

    def test_other_preconditions_still_checked(self, rabin_calls):
        FiniteField(13, (1, 0, 0, 1, 1))
        with pytest.raises(PreconditionError, match="monic"):
            FiniteField(13, (1, 0, 0, 1, 2))
        with pytest.raises(PreconditionError, match="not prime"):
            FiniteField(15, (1, 0, 0, 1, 1))


class TestMulMatrix:
    @pytest.mark.parametrize("field", [F2, F5, F9, FiniteField(2, (1, 1, 0, 0, 1))],
                             ids=["F2", "F5", "F9", "F16"])
    def test_matrix_times_vector_is_the_product(self, field):
        rng = random.Random(field.order)
        p = field.characteristic
        for _ in range(50):
            a, x = field.sample(rng), field.sample(rng)
            rows = field.mul_matrix(a)
            assert len(rows) == field.degree
            assert tuple(sum(r * c for r, c in zip(row, x.value)) % p for row in rows) == (a * x).value


class TestFunctionField:
    def test_generator_arithmetic(self):
        k = FunctionField(FiniteField(3), "y")
        y = k.gen()
        expr = (y + 1) * (y - 1)
        assert expr == k.element([-1, 0, 1])

    def test_cancellation_to_constant(self):
        k = FunctionField(RATIONALS, "y")
        y = k.gen()
        f = (y * y + y) / y  # = y + 1
        assert f == y + 1
        g = f / (y + 1)
        assert g.is_constant()
        assert g.constant_value() == RATIONALS.one()

    def test_laurent_constructor(self):
        k = FunctionField(RATIONALS, "y")
        f = k.from_laurent({1: RATIONALS.one(), 0: RATIONALS.one()})
        assert f == k.gen() + 1

    def test_nonconstant_refuses_constant_value(self):
        k = FunctionField(RATIONALS, "y")
        with pytest.raises(PreconditionError):
            k.gen().constant_value()


class TestMinPolyDegree:
    def test_degrees_in_f16(self):
        f16 = FiniteField(2, (1, 1, 0, 0, 1))
        degrees = sorted({min_poly_degree(x) for x in f16.elements()})
        assert degrees == [1, 2, 4]


def _strip(cs):
    cs = list(cs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return tuple(cs)


def _schoolbook_mul(a, b, zero):
    out = [zero] * max(0, len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return _strip(out)


def _schoolbook_add(a, b, zero):
    n = max(len(a), len(b))
    return _strip([(a[i] if i < len(a) else zero) + (b[i] if i < len(b) else zero)
                   for i in range(n)])


def _schoolbook_divmod(a, b, zero):
    a, q = list(a), [zero] * max(0, len(a) - len(b) + 1)
    while len(_strip(a)) >= len(b):
        a = list(_strip(a))
        k = len(a) - len(b)
        q[k] = a[-1] / b[-1]
        for j, bj in enumerate(b):
            a[k + j] = a[k + j] - q[k] * bj
    return _strip(q), _strip(a)


def _schoolbook_gcd(a, b, zero):
    while b:
        a, b = b, _schoolbook_divmod(a, b, zero)[1]
    return tuple(c / a[-1] for c in a)


# the fields of the kernel tests, by parameter id, with their rng seeds
_KERNEL_FIELDS = {2: (F2, 2), 3: (F3, 3), 5: (F5, 5), 13: (FiniteField(13), 13),
                  "Q": (RATIONALS, 0), "F4": (F4, 4), "F9": (F9, 9)}


def _kernel_forms(field):
    """(modulus, zero, coefficients) per form the dense kernel takes over
    `field`: FieldElements with the EXACT modulus over every field, and
    over a prime field also ints mod p."""
    forms = [(EXACT, field.zero(), tuple)]
    if isinstance(field, FiniteField) and not field.modulus:
        forms.append((field.characteristic, 0, lambda cs: tuple(c.value[0] for c in cs)))
    return forms


class TestPrimeFieldKernel:
    """The one dense-polynomial kernel (product, sum, divmod and gcd, and
    the reduced FunctionField arithmetic built on it) over prime fields
    on ints and on FieldElements, and over Q, F_4 and F_9 on
    FieldElements, against a FieldElement schoolbook written here."""

    @pytest.mark.parametrize("key", list(_KERNEL_FIELDS))
    def test_random_against_schoolbook(self, key):
        field, seed = _KERNEL_FIELDS[key]
        zero = field.zero()
        rng = random.Random(seed)
        for _ in range(300):
            a, b = ([field.sample(rng) for _ in range(rng.randint(0, 6))] for _ in range(2))
            for p, kzero, coeffs in _kernel_forms(field):
                prod, total = _pmul(coeffs(a), coeffs(b), p, kzero), _padd(coeffs(a), coeffs(b), p, kzero)
                assert prod == coeffs(_schoolbook_mul(a, b, zero))
                assert total == coeffs(_schoolbook_add(a, b, zero))
                if p is EXACT:
                    assert all(c.field == field for c in prod + total)
                else:
                    assert all(0 <= c < p for c in prod + total)

    @pytest.mark.parametrize("key", [2, 5, "Q"])
    def test_empty_and_cancelling_inputs(self, key):
        field, _ = _KERNEL_FIELDS[key]
        a = tuple(field.element(c) for c in (1, 0, 1, 1))
        neg_a = tuple(-c for c in a)
        # the leading terms cancel: (1 + y^2 + y^3) + (1 + y - y^3) = 2 + y + y^2
        b = tuple(field.element(c) for c in (1, 1, 0, -1))
        two = tuple(field.element(c) for c in (2, 1, 1))
        for p, zero, coeffs in _kernel_forms(field):
            assert _pmul((), coeffs(a), p, zero) == _pmul(coeffs(a), (), p, zero) == ()
            assert _padd((), (), p, zero) == ()
            assert _padd(coeffs(a), (), p, zero) == _padd((), coeffs(a), p, zero) == coeffs(a)
            assert _padd(coeffs(a), coeffs(neg_a), p, zero) == ()
            assert _padd(coeffs(a), coeffs(b), p, zero) == coeffs(two)

    @pytest.mark.parametrize("key", list(_KERNEL_FIELDS))
    def test_divmod_and_gcd_against_schoolbook(self, key):
        field, seed = _KERNEL_FIELDS[key]
        zero = field.zero()
        rng = random.Random(100 + seed)
        for _ in range(300):
            a, b = (_strip([field.sample(rng) for _ in range(rng.randint(0, 7))])
                    for _ in range(2))
            for p, kzero, coeffs in _kernel_forms(field):
                if b:
                    q, r = _schoolbook_divmod(a, b, zero)
                    assert _pdivmod(coeffs(a), coeffs(b), p, kzero) == (coeffs(q), coeffs(r))
                if a or b:
                    g = _schoolbook_gcd(a, b, zero)
                    assert _pgcd(coeffs(a), coeffs(b), p, kzero) == coeffs(g)

    @pytest.mark.parametrize("key", list(_KERNEL_FIELDS))
    def test_function_field_canonical_form(self, key):
        field, seed = _KERNEL_FIELDS[key]
        zero, one = field.zero(), field.one()
        k = FunctionField(field, "t")
        rng = random.Random(200 + seed)

        def sample():
            den = _strip([field.sample(rng) for _ in range(rng.randint(1, 4))]) or [one]
            return k.element([field.sample(rng) for _ in range(rng.randint(0, 4))], den)

        for _ in range(200):
            x, y = sample(), sample()
            expected = [(x + y, _schoolbook_add(_schoolbook_mul(x.num, y.den, zero),
                                                _schoolbook_mul(y.num, x.den, zero), zero),
                         _schoolbook_mul(x.den, y.den, zero)),
                        (x * y, _schoolbook_mul(x.num, y.num, zero),
                         _schoolbook_mul(x.den, y.den, zero))]
            if not y.is_zero():
                expected.append((x / y, _schoolbook_mul(x.num, y.den, zero),
                                 _schoolbook_mul(x.den, y.num, zero)))
            for r, num, den in expected:
                assert all(c.field == field for c in r.num + r.den)
                assert r.den[-1] == one
                assert _schoolbook_gcd(r.num, r.den, zero) == (one,)
                assert (_schoolbook_mul(r.num, den, zero)
                        == _schoolbook_mul(num, r.den, zero))

    def test_descriptor_mismatch(self):
        F7 = FiniteField(7)
        with pytest.raises(PreconditionError):
            FunctionField(F5).element([F5.one()], [F7.one()])
        with pytest.raises(PreconditionError):
            FunctionField(F2).element([F4.one()])
        with pytest.raises(PreconditionError):
            FunctionField(F4).element([F4.one(), F2.one()])
        with pytest.raises(PreconditionError):
            FunctionField(RATIONALS).element([F5.one()])
        with pytest.raises(PreconditionError):
            FunctionField(F5).gen() + FunctionField(F7).gen()


@st.composite
def _packed_operands(draw):
    """(p, a, c) over F_p, p in {2, 3, 7, 251}: two stripped coefficient
    lists, some of them monomials with the top coefficient p - 1, whose
    product then has one digit equal to its l1 bound."""
    p = draw(st.sampled_from([2, 3, 7, 251]))
    coeff = st.integers(0, p - 1)

    def poly():
        if draw(st.booleans()):
            return (0,) * draw(st.integers(0, 4)) + (p - 1,)
        return _pstrip(draw(st.lists(coeff, max_size=8)))

    return p, poly(), poly()


def _read(x: int, b: int, p: int) -> tuple:
    return _pstrip(list(_pdigits(x, b, p)))


def _bits(x: int) -> tuple:
    """The coefficient tuple, low first, of an F_2[t] int."""
    return tuple(int(c) for c in bin(x)[:1:-1]) if x else ()


class TestPackedKernel:
    """Kronecker substitution for F_p[t]: one int per polynomial, digits
    read mod p, against _pmul, _padd and _pdivmod, at the width b that
    holds the l1 bound of the result and no wider.  Over F_2 also the int
    kernels (bit i the coefficient of t^i) against the list kernels at
    p = 2: XOR, product, remainder, quotient, gcd and _preduce."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(_packed_operands())
    @example((2, (), ()))
    @example((2, (), (1,)))
    @example((2, (1,), ()))
    @example((2, (1,), (1,)))
    @example((2, (0, 1, 1), (1,)))
    @example((2, (1, 0, 0, 1), (1, 1)))
    def test_against_the_list_kernel(self, case):
        p, a, c = case
        b = (sum(a) * sum(c) + sum(a) + sum(c)).bit_length() or 1
        pa, pc = _ppack(a, b), _ppack(c, b)
        assert _read(pa, b, p) == a
        assert _read(pa * pc, b, p) == _pmul(a, c, p)
        assert _read(pa + pc, b, p) == _padd(a, c, p)
        assert _read(pa * pc + pa + pc, b, p) == _padd(_pmul(a, c, p), _padd(a, c, p), p)
        if c:
            q, r = _pdivmod(a, c, p)
            b = (sum(q) * sum(c) + sum(r)).bit_length() or 1
            assert _read(_ppack(q, b) * _ppack(c, b) + _ppack(r, b), b, p) == a
        if p == 2:
            x, y = _f2_from_bits(a), _f2_from_bits(c)
            assert (_bits(x), _bits(y)) == (a, c)
            assert _bits(x ^ y) == _padd(a, c, p)
            assert _bits(_f2_mul(x, y)) == _pmul(a, c, p)
            assert _bits(_f2_gcd(x, y)) == (_pgcd(a, c, p) if a or c else ())
            if c:
                q, r = _pdivmod(a, c, p)
                assert (_bits(_f2_quo(x, y)), _bits(_f2_rem(x, y))) == (q, r)
                assert _f2_quo(_f2_mul(x, y), y) == x  # an exact division
                assert tuple(map(_bits, _f2_reduce(x, y))) == _preduce(a, c, p)

    @pytest.mark.parametrize("p", [2, 3, 251])
    def test_a_digit_at_the_bound(self, p):
        """(p - 1) t^2 times (p - 1) t^3 has the one digit (p - 1)^2, its
        l1 bound, and the width is the bit length of that bound."""
        a, c = (0, 0, p - 1), (0, 0, 0, p - 1)
        b = ((p - 1) ** 2).bit_length()
        x = _ppack(a, b) * _ppack(c, b)
        assert x == (p - 1) ** 2 << 5 * b
        assert _read(x, b, p) == _pmul(a, c, p)

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(st.data())
    def test_shift_against_the_list_kernel(self, data):
        """The packed Taylor shift at n of sum_j num_j cof_j d^(N-j) y^j
        against synthetic division on _pmul and _padd, with coefficients
        up to p - 1 everywhere, which drives the digits towards the bound;
        over F_2 also the masked shift and the oracle's masked truncation
        at the fixed width, whose digits an all-ones n drives to it."""
        p = data.draw(st.sampled_from([2, 3, 5, 251]))
        poly = st.lists(st.integers(0, p - 1), max_size=4).map(_pstrip)
        top = data.draw(st.lists(st.integers(1, p - 1), min_size=1, max_size=3))
        factors = data.draw(st.lists(st.tuples(poly, poly.filter(bool)), max_size=5))
        factors.append((tuple(top), (1,)))
        d, n = data.draw(poly.filter(bool)), data.draw(poly)
        H, power = [], (1,)
        for num, cof in reversed(factors):
            H.insert(0, _pmul(_pmul(num, cof, p), power, p))
            power = _pmul(power, d, p)
        b, packed, _ = _ppack_cleared(factors, d, n)
        assert [_read(x, b, p) for x in packed] == H
        h = list(H)
        for i in range(len(h) - 1):
            for j in range(len(h) - 2, i - 1, -1):
                h[j] = _padd(_pmul(n, h[j + 1], p), h[j], p)
        assert [_pstrip(list(x)) for x in _pshift(factors, d, n, p)] == h
        if p == 2:
            # the masked F_2 shift, and the oracle's masked k[t]/t^k, whose
            # Horner expansion at every k gives the h_i mod t^k
            pairs = [(_f2_from_bits(num), _f2_from_bits(cof)) for num, cof in factors]
            d, n = _f2_from_bits(d), _f2_from_bits(n)
            assert [_bits(x) for x in _f2_shift(pairs, d, n)] == h
            w = _f2_pack_cleared(pairs, d, n)[0]
            _, exact_k, order, truncated = _F2Polys.truncation(pairs, d, n)
            assert exact_k >= max(map(len, h))
            for k in sorted({1, 2, 3, exact_k // 2 or 1, exact_k}):
                got = _horner(*truncated(k))
                assert [_bits(int(bin(x)[2::w], 2)) for x in got] == [_pstrip(list(x[:k])) for x in h]
                assert [order(x) for x in got] == [_tadic_order(x[:k]) for x in h]


class TestZeroTerms:
    """A zero FieldElement is falsy, so the kernel's `if ai:` and `if c:`
    skip zero terms over Q and F_{p^n} as they do on ints mod p."""

    @pytest.mark.parametrize("key", ["Q", "F9"])
    def test_zero_is_falsy(self, key):
        field, seed = _KERNEL_FIELDS[key]
        assert not field.zero()
        assert field.one() and field.element(-1)
        rng = random.Random(seed)
        for _ in range(50):
            x = field.sample(rng)
            assert bool(x) is not x.is_zero()

    @pytest.mark.parametrize("key", ["Q", "F9"])
    def test_interior_zeros_against_schoolbook(self, key):
        field, seed = _KERNEL_FIELDS[key]
        zero, one = field.zero(), field.one()
        rng = random.Random(300 + seed)

        def sparse(n):
            # a nonzero leading coefficient over mostly zero lower ones
            return tuple(field.sample(rng) if rng.random() < 0.3 else zero for _ in range(n)) + (one,)

        for _ in range(200):
            a, b = sparse(rng.randint(0, 7)), sparse(rng.randint(0, 4))
            assert _pmul(a, b, EXACT, zero) == _schoolbook_mul(a, b, zero)
            assert _pdivmod(a, b, EXACT, zero) == _schoolbook_divmod(a, b, zero)
            # a * (1 + y^2) divided by 1 + y^2 gives a back, zero quotient terms included
            q = _pdivmod(_pmul(a, (one, zero, one), EXACT, zero), (one, zero, one), EXACT, zero)
            assert q == (a, ())

    @pytest.mark.parametrize("key", ["Q", "F9"])
    def test_zero_terms_cost_no_multiply(self, key, monkeypatch):
        field, _ = _KERNEL_FIELDS[key]
        zero, one = field.zero(), field.one()
        calls = []
        original = type(one).__mul__
        monkeypatch.setattr(type(one), "__mul__", lambda a, b: calls.append(1) or original(a, b))
        # (1 + y^4) * (1 + y + y^2): two nonzero terms times three
        assert _pmul((one, zero, zero, zero, one), (one, one, one), EXACT, zero) == (one, one, one, zero, one, one, one)
        assert len(calls) == 6


def _brute_irreducible(poly, p):
    """Trial division by every monic polynomial of degree up to deg/2."""
    deg = len(poly) - 1
    if deg <= 0:
        return False
    return all(_pdivmod(poly, tail + (1,), p)[1]
               for d in range(1, deg // 2 + 1)
               for tail in itertools.product(range(p), repeat=d))


def _irreducible_count(q, n):
    """Gauss's count of monic irreducibles of degree n over F_q."""
    def mobius(m):
        sign, k = 1, 2
        while m > 1:
            if m % k == 0:
                m //= k
                if m % k == 0:
                    return 0
                sign = -sign
            k += 1
        return sign
    return sum(mobius(n // d) * q ** d for d in range(1, n + 1) if n % d == 0) // n


class TestRabin:
    @pytest.mark.parametrize("p,max_deg", [(2, 4), (3, 4), (5, 4), (7, 3)])
    def test_every_monic_against_brute_force(self, p, max_deg):
        for deg in range(max_deg + 1):
            irreducible = 0
            for tail in itertools.product(range(p), repeat=deg):
                poly = tail + (1,)
                assert is_irreducible(poly, p) == _brute_irreducible(poly, p), poly
                irreducible += is_irreducible(poly, p)
            assert irreducible == (_irreducible_count(p, deg) if deg else 0)

    def test_product_of_two_quadratics_rejected(self):
        # (X^2 + 1)(X^2 + X + 3) over F_211 has no root but divides
        # X^(p^4) - X; only the gcd with X^(p^2) - X exposes it
        assert is_irreducible((1, 0, 1), 211) and is_irreducible((3, 1, 1), 211)
        poly = _pmul((1, 0, 1), (3, 1, 1), 211)
        assert not is_irreducible(poly, 211)
        with pytest.raises(PreconditionError):
            FiniteField(211, poly)

    @pytest.mark.parametrize("p,modulus", [(211, (1, 1, 0, 0, 1)), (10007, (1, 1, 0, 1))])
    def test_construction_budget(self, p, modulus):
        start = time.perf_counter()
        field = FiniteField(p, modulus)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.05, f"time budget exceeded: {elapsed * 1000:.1f} ms"
        assert field.order == p ** (len(modulus) - 1)
        if len(modulus) == 4:  # a cubic without a root is irreducible
            assert all(sum(c * pow(x, i, p) for i, c in enumerate(modulus)) % p
                       for x in range(p))
        else:
            assert _brute_irreducible(modulus, p)


F16 = FiniteField(2, (1, 1, 0, 0, 1))
F256 = FiniteField(2, (1, 1, 0, 1, 1, 0, 0, 0, 1))  # X^8 + X^4 + X^3 + X + 1
F13 = FiniteField(13)
F13_4 = FiniteField(13, (1, 0, 0, 1, 1))


class TestOnePassMul:
    @pytest.mark.parametrize("field", [F2, F3, F13, F4, F8, F9, F16, F256, F13_4], ids=repr)
    def test_against_pmul_and_pdivmod(self, field):
        # over a prime field the product is the one-coefficient path and
        # the reference is _pmul mod p alone
        p, n = field.characteristic, field.degree
        rng = random.Random(field.order)
        pairs = [(field.sample(rng), field.sample(rng)) for _ in range(300)]
        special = [field.zero(), field.one(), field.element(-1)]
        if field.modulus:
            special.append(field.gen())
        pairs += [(a, b) for a in special for b in special + [field.sample(rng)]]
        for a, b in pairs:
            rem = _pmul(_pstrip(list(a.value)), _pstrip(list(b.value)), p)
            if field.modulus:
                rem = _pdivmod(rem, field.modulus, p)[1]
            got = a * b
            assert got.field is field
            assert got.value == rem + (0,) * (n - len(rem))

    @pytest.mark.parametrize("field", [F2, F3, F13, F4, F9, F13_4], ids=repr)
    def test_add_and_neg_coefficientwise_mod_p(self, field):
        # over a prime field add and neg are the one-coefficient path
        p = field.characteristic
        rng = random.Random(field.order + 1)
        elems = [field.sample(rng) for _ in range(40)] + [field.zero(), field.one(), field.element(-1)]
        for a in elems:
            neg = -a
            assert neg.field is field
            assert neg.value == tuple(-x % p for x in a.value)
            for b in elems[:10]:
                got = a + b
                assert got.field is field
                assert got.value == tuple((x + y) % p for x, y in zip(a.value, b.value))
                assert (a - b) + b == a


def _unreduced_pow(x, n):
    """x^n by square-and-multiply on the full exponent."""
    if n < 0:
        x, n = x.inverse(), -n
    result = x.field.one()
    while n:
        if n & 1:
            result = result * x
        x, n = x * x, n >> 1
    return result


class TestPowReduction:
    @pytest.mark.parametrize("field", [F2, F3, F4, F9, F13_4], ids=repr)
    def test_against_unreduced_square_and_multiply(self, field):
        p, q = field.characteristic, field.order
        rng = random.Random(q)
        exponents = [0, 1, q - 2, q - 1, q, 2 * (q - 1), 3 * (q - 1) + 1]
        exponents += [p ** e for e in range(1, 12)]
        exponents += [-n for n in exponents if n]
        values = [field.one(), field.element(-1)] + [field.sample(rng) for _ in range(4)]
        for x in values:
            if x.is_zero():
                continue
            for n in exponents:
                assert x ** n == _unreduced_pow(x, n), (x, n)

    @pytest.mark.parametrize("field", [F2, F3, F4, F9, F13_4], ids=repr)
    def test_zero_base(self, field):
        zero = field.zero()
        assert zero ** 0 == field.one()
        for n in (1, field.order - 1, field.order, field.characteristic ** 3):
            assert zero ** n == zero
        with pytest.raises(PreconditionError, match="division by zero"):
            zero ** -1

    def test_power_helper_squares_once_per_bit_below_the_top(self):
        class Counted(int):
            calls = 0

            def __mul__(self, other):
                Counted.calls += 1
                return Counted(int(self) * int(other))

        for n in range(70):
            Counted.calls = 0
            assert _power(Counted(3), n, Counted(1)) == 3 ** n
            assert Counted.calls == bin(n).count("1") + max(n.bit_length() - 1, 0)

    def test_frobenius_exponent_is_cheap(self, monkeypatch):
        # 3^11 reduces mod q - 1 = 2 to 1: two multiplies, not two per bit of 3^11
        x = F3.element(2)
        calls = []
        original = type(x).__mul__
        monkeypatch.setattr(type(x), "__mul__", lambda a, b: calls.append(1) or original(a, b))
        assert x ** (3 ** 11) == x
        assert len(calls) <= 2

    @pytest.mark.parametrize("c", [RATIONALS.element("-3/7"), F9.element(2),
                                   F9.element([1, 2])], ids=["Q", "F_9-constant", "F_9"])
    def test_inverse_power_is_the_inverse(self, c, monkeypatch):
        # c ** -1 neither multiplies nor builds one()
        calls = []
        for cls in (type(RATIONALS), FiniteField):
            for name in ("raw_mul", "one"):
                original = getattr(cls, name)
                monkeypatch.setattr(cls, name, lambda *a, _f=original, _n=name:
                                    calls.append(_n) or _f(*a))
        inv = c ** -1
        assert calls == []
        monkeypatch.undo()
        assert inv == c.inverse() and inv * c == c.field.one()


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class TestIsPrime:
    def test_agrees_with_trial_division_below_1e5(self):
        assert [n for n in range(10 ** 5) if is_prime(n) != _trial_division(n)] == []

    @pytest.mark.parametrize("n", [561, 41041, 3_215_031_751])
    def test_pseudoprimes_rejected(self, n):
        # Carmichael numbers, and a strong pseudoprime to the bases 2, 3, 5 and 7
        assert not _trial_division(n) and not is_prime(n)

    def test_mersenne_61_padic_base_budget(self):
        start = time.perf_counter()
        base = PAdicRationals(2 ** 61 - 1)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.05, f"time budget exceeded: {elapsed * 1000:.1f} ms"
        assert base.p == 2 ** 61 - 1

    def test_probable_prime_above_psi13_is_undecided(self):
        # psi_13 itself is a strong pseudoprime to every base 2..41, and
        # 2^89 - 1 a prime above it: neither gets an answer
        for n in (3_317_044_064_679_887_385_961_981, 2 ** 89 - 1):
            with pytest.raises(PreconditionError, match="only below"):
                is_prime(n)
        assert not is_prime(2 ** 89 + 1)  # divisible by 3
        assert not is_prime(2 ** 101 - 1)  # = 7432339208719 * 341117531003194129
