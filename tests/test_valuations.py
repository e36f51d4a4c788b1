import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratval import valuations
from ratval.errors import PreconditionError, UndecidedError
from ratval.fields import RATIONALS, FieldElement, FiniteField, FunctionFieldElement
from ratval.groups import GroupElement
from ratval.selftest import poly_add, poly_mul, random_poly, suite_oracle, suite_valuation_axioms
from ratval.series import HahnSeries
from ratval.valuations import (
    RESIDUE_TRANSCENDENTAL,
    VALUATION_ALGEBRAIC,
    VALUE_TRANSCENDENTAL,
    CenteredValuation,
    PAdicRationals,
    PseudoCauchyValuation,
    RatFunc,
    RationalFunction,
    SeriesValuedField,
    TAdicRationalFunctions,
    TriviallyValued,
    ValuedField,
    _is_zero,
    classify_summary,
    substitution_value,
    taylor_shift,
)

F2 = FiniteField(2)
F4 = FiniteField(2, (1, 1, 1))
Q3 = PAdicRationals(3)
T2 = TAdicRationalFunctions(F2)
TRIV2 = TriviallyValued(F2)


def expand_about(shifted: list, center, base) -> list:
    """Inverse of taylor_shift: standard coefficients of
    sum c_i (x - a)^i over `base`, by brute-force expansion."""
    result = []
    xa = [-center, base.one()]
    power = [base.one()]
    for c in shifted:
        result = poly_add(result, [c * q for q in power], base)
        power = poly_mul(power, xa, base)
    return result


class TestTaylorShift:
    def test_binomial(self):
        assert taylor_shift([Fraction(0), Fraction(0), Fraction(1)], Fraction(1), Fraction(0)) == [
            Fraction(1), Fraction(2), Fraction(1)
        ]

    def test_identity_shift(self):
        got = taylor_shift([Fraction(9), Fraction(3), Fraction(1)], Fraction(0), Fraction(0))
        assert got == [Fraction(9), Fraction(3), Fraction(1)]

    def test_cube_over_f2(self):
        cs = [F2.zero(), F2.zero(), F2.zero(), F2.one()]
        got = taylor_shift(cs, F2.element(-1), F2.zero())
        assert got == [F2.one()] * 4

    def test_reexpansion_oracle(self):
        rng = random.Random(11)
        for _ in range(100):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 6))]
            a = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            shifted = taylor_shift(coeffs, a, Fraction(0))
            back = expand_about(shifted, a, Q3)
            trimmed = list(coeffs)
            while trimmed and trimmed[-1] == 0:
                trimmed.pop()
            while back and back[-1] == 0:
                back.pop()
            assert back == trimmed


    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_fraction_free_override_matches_generic(self, p):
        base = PAdicRationals(p)
        rng = random.Random(p)
        # the centre 0, integer centres and centres with p | d come first
        centers = [Fraction(0), Fraction(4), Fraction(-7), Fraction(1, p),
                   Fraction(5, 7 * p ** 2), Fraction(-3, 2 * p)]
        for trial in range(300):
            cs = [Fraction(rng.randint(-9, 9), rng.choice([1, 2, p, 4 * p, 9]))
                  if rng.random() < 0.7 else Fraction(0) for _ in range(rng.randint(0, 8))]
            cs.append(Fraction(rng.choice([-5, -1, 1, 3]), rng.randint(1, 12)))
            center = (centers[trial] if trial < len(centers)
                      else Fraction(rng.randint(-30, 30), rng.randint(1, 30)))
            assert base.taylor_coefficients(cs, center) == taylor_shift(cs, center, Fraction(0))
        assert base.taylor_coefficients([Fraction(2, 3)], Fraction(1, p)) == [Fraction(2, 3)]


F13_4 = FiniteField(13, (1, 0, 0, 1, 1))


def fq_product(rng, field, degree, at_center, center=None):
    """(coefficients, center) of prod_j (x - b_j) over `field`, exactly
    `at_center` of the b_j equal to the center, the others drawn distinct
    from it: the center is a root of multiplicity at_center."""
    center = field.sample(rng) if center is None else center
    roots = [center] * at_center
    while len(roots) < degree:
        b = field.sample(rng)
        if b != center:
            roots.append(b)
    rng.shuffle(roots)
    g = [field.one()]
    for b in roots:
        g = poly_mul(g, [-b, field.one()], TriviallyValued(field))
    return g, center


def refuse_fast_path(m):
    """Patch every routine of the fast path to raise, within monkeypatch
    context m: the Taylor shifts, the value paths that of_poly reads
    (taylor_values, over Q and k(t) the fraction-free shift under both,
    and the trivially valued lazy shift), CenteredValuation._shifted and
    _term_values."""

    def refuse(*args, **kwargs):
        raise AssertionError("the fast Taylor shift was called")

    m.setattr(valuations, "taylor_shift", refuse)
    for cls in (ValuedField, PAdicRationals, TAdicRationalFunctions, TriviallyValued):
        m.setattr(cls, "taylor_coefficients", refuse)
    m.setattr(TAdicRationalFunctions, "taylor_values", refuse)
    m.setattr(TAdicRationalFunctions, "_fraction_free_shift", refuse)
    m.setattr(PAdicRationals, "taylor_values", refuse)
    m.setattr(PAdicRationals, "_fraction_free_shift", refuse)
    m.setattr(TriviallyValued, "_lazy_shift", refuse)
    m.setattr(CenteredValuation, "_shifted", refuse)
    m.setattr(CenteredValuation, "_term_values", refuse)


def f2_tadic_product():
    """(valuation, coefficients, value) of the degree-8 product of linears
    over F_2(t) of TestTAdicProductOfLinears, whose value is known by
    construction."""
    center = RatFunc(F2, [1, 1], [1, 0, 1, 1])
    gamma = Fraction(1, 2)
    roots = [center] + [center + RatFunc(F2, [0] * k + [1]) for k in range(7)]
    g = [T2.one()]
    for b in roots:
        g = poly_mul(g, [-b, T2.one()], T2)
    expected = gamma + sum(min(gamma, k) for k in range(7))
    return CenteredValuation(T2, center, GroupElement.of(gamma)), g, GroupElement.of(expected)


def q3_products(count: int):
    """(valuation, coefficients, value) of `count` degree-32 3-adic
    products of linears (x - b_j) with known v_3(a - b_j) = k_j, whose
    value is sum min(gamma, k_j) at gamma 1/2."""
    rng = random.Random(32)
    gamma = Fraction(1, 2)
    units = [Fraction(u, d) for u in (1, -1, 2, -2, 4, 5) for d in (1, 2, 4, 5, 7)]
    for _ in range(count):
        a = Fraction(rng.randint(-40, 40), rng.choice([1, 2, 4, 5, 7]))
        poly, value = [Fraction(1)], Fraction(0)
        for _ in range(32):
            k = rng.randint(-2, 3)
            poly = poly_mul(poly, [-(a + Fraction(3) ** k * rng.choice(units)), Fraction(1)], Q3)
            value += min(gamma, k)
        yield CenteredValuation(Q3, a, GroupElement.of(gamma)), poly, GroupElement.of(value)


class TestOracleIndependence:
    def test_substitution_value_without_the_fast_shift(self, monkeypatch):
        """The 3-adic products of q3_products: with the fast path replaced
        by functions that raise, of_poly fails and the oracle still gives
        their value."""
        for valn, poly, value in q3_products(3):
            assert valn.of_poly(poly) == value
            with monkeypatch.context() as m:
                refuse_fast_path(m)
                with pytest.raises(AssertionError, match="fast Taylor shift"):
                    valn.of_poly(poly)
                assert substitution_value(valn, poly) == value

    def test_padic_fast_path_without_the_oracle(self, monkeypatch):
        """The same 3-adic products through of_poly with taylor_shift and
        every routine of the oracle refused."""

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle was called")

        with monkeypatch.context() as m:
            for name in ("taylor_shift", "substitution_value", "_Truncation",
                         "_completion_value", "_horner"):
                m.setattr(valuations, name, refuse)
            for valn, poly, value in q3_products(3):
                assert valn.of_poly(poly) == value

    def test_t_adic_base_without_the_fast_shift(self, monkeypatch):
        """The degree-8 product of linears over F_2(t): with the fast path
        refused, of_poly fails and the oracle still gives its value."""
        valn, g, expected = f2_tadic_product()
        assert valn.of_poly(g) == expected
        with monkeypatch.context() as m:
            refuse_fast_path(m)
            with pytest.raises(AssertionError, match="fast Taylor shift"):
                valn.of_poly(g)
            assert substitution_value(valn, g) == expected

    def test_t_adic_fast_path_without_the_oracle(self, monkeypatch):
        """The same product through of_poly with taylor_shift and every
        routine of the oracle refused."""
        valn, g, expected = f2_tadic_product()

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle was called")

        with monkeypatch.context() as m:
            for name in ("taylor_shift", "substitution_value", "_Truncation",
                         "_completion_value", "_horner"):
                m.setattr(valuations, name, refuse)
            assert valn.of_poly(g) == expected


    def test_finite_trivial_base_without_field_arithmetic(self, monkeypatch):
        """The F_{13^4} product of 16 linears with 3 roots at the center:
        with the fast path, FieldElement's + and * and the matrix of
        multiplication refused, the oracle still gives 3*gamma."""
        g, center = fq_product(random.Random(13), F13_4, 16, 3)
        valn = CenteredValuation(TriviallyValued(F13_4), center, GroupElement.of("1/2"))
        assert valn.of_poly(g) == GroupElement.of("3/2")

        def refuse(*args, **kwargs):
            raise AssertionError("field arithmetic was called")

        with monkeypatch.context() as m:
            refuse_fast_path(m)
            for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
                m.setattr(FieldElement, name, refuse)
            m.setattr(FiniteField, "mul_matrix", refuse)
            with pytest.raises(AssertionError, match="fast Taylor shift"):
                valn.of_poly(g)
            assert substitution_value(valn, g) == GroupElement.of("3/2")

    def test_finite_trivial_fast_path_without_the_oracle(self, monkeypatch):
        """The same product through of_poly with taylor_shift and every
        routine of the oracle refused."""
        g, center = fq_product(random.Random(13), F13_4, 16, 3)
        valn = CenteredValuation(TriviallyValued(F13_4), center, GroupElement.of("1/2"))

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle was called")

        with monkeypatch.context() as m:
            for name in ("taylor_shift", "substitution_value", "_kronecker_value", "_horner"):
                m.setattr(valuations, name, refuse)
            assert valn.of_poly(g) == GroupElement.of("3/2")


def horner_reference(valn, coeffs: list) -> GroupElement:
    """The substitution oracle's Horner loop on the base's own elements
    (Fractions, FunctionFieldElements), kept verbatim as the reference for
    its expansion in the truncated completion."""
    cs = [valn.base.element(c) for c in coeffs]
    while cs and _is_zero(cs[-1]):
        cs.pop()
    if not cs:
        raise PreconditionError("the zero polynomial has no value")
    h: list = []
    for c in reversed(cs):
        # h * (a + w) + c: h_i a + h_(i-1) with h_(-1) = c, then the
        # new top coefficient h_(len h - 1), or c when h is empty
        h = [x * valn.center + y for x, y in zip(h, [c] + h)] + (h[-1:] or [c])
    return min(valn.embed_base_value(valn.base.val(b)) + valn.gamma.scaled(i)
               for i, b in enumerate(h) if not _is_zero(b))


def _padic_case(p):
    """(base, uniformizer, unit sampler, centers): centers and units with
    p in the denominator, so the coefficient denominators are divisible by p."""
    base = PAdicRationals(p)

    def unit(rng):
        return Fraction(rng.choice([u for u in range(-9, 10) if u % p]),
                        rng.choice([u for u in range(1, 12) if u % p]))

    centers = [Fraction(1, p), Fraction(5, 7 * p ** 2), Fraction(-3, 2 * p), Fraction(4), Fraction(0)]
    return base, Fraction(p), unit, centers


def _tadic_case(coeffs, pool):
    """(base, t, unit sampler, centers) over k(t): the units draw their
    coefficients from `pool`, nonzero elements of k, and the centers have a
    denominator that vanishes at t = 0."""
    base = TAdicRationalFunctions(coeffs)
    zero, one = coeffs.zero(), coeffs.one()

    def unit(rng):
        return RatFunc(coeffs, [rng.choice(pool), rng.choice(pool + [zero])],
                       [one, rng.choice(pool + [zero])])

    centers = [RatFunc(coeffs, [one, one], [zero, one, one]),
               RatFunc(coeffs, [one, zero, one], [zero, zero, one]),
               RatFunc(coeffs, [one], [zero, one])]
    return base, base.field.gen(), unit, centers


F9 = FiniteField(3, (1, 0, 1))

# name: (case, trials, most linear factors); over F_3 and F_7 the lifted
# digits of the packed shift and oracle reach p - 1, so their mod-p read
# matters; k(t) over F_9 and Q is slow in the fast path and the reference,
# so it gets fewer and smaller products
LAZY_CASES = {
    "2-adic": (lambda: _padic_case(2), 120, 6),
    "3-adic": (lambda: _padic_case(3), 120, 6),
    "5-adic": (lambda: _padic_case(5), 120, 6),
    "F2(t)": (lambda: _tadic_case(F2, [F2.one()]), 36, 5),
    "F3(t)": (lambda: _tadic_case(FiniteField(3), [FiniteField(3).element(c) for c in (1, 2)]), 30, 5),
    "F7(t)": (lambda: _tadic_case(FiniteField(7), [FiniteField(7).element(c) for c in (1, 3, 6)]), 30, 5),
    "F9(t)": (lambda: _tadic_case(F9, [F9.one(), F9.gen(), F9.gen() + F9.one()]), 12, 3),
    "Q(t)": (lambda: _tadic_case(RATIONALS, [RATIONALS.element(c) for c in (1, -1, 2, "1/2")]), 12, 3),
}

# (gamma, base_coord): rank 1, and rank 2 with the base values in the
# second coordinate, gamma above, level with and below them in the first
LAZY_GAMMAS = [
    (GroupElement.of("1/2"), 0),
    (GroupElement.of("5/3"), 0),
    (GroupElement.of(12), 0),
    (GroupElement.of("1/2", 3), 1),
    (GroupElement.of(0, "5/2"), 1),
    (GroupElement.of(-1, 1), 1),
]


class TestLazyOracle:
    """The substitution oracle in Z/p^K and k[t]/t^K against the verbatim
    Horner reference, the fast path and the root-distance formula
    v(c * prod (x - b_j)) = v(c) + sum min(gamma, v(a - b_j))."""

    @pytest.fixture
    def precisions(self, monkeypatch):
        """Every precision K at which the oracle expands."""
        seen = []

        def spy(self, k, original=valuations._Truncation.truncated):
            seen.append(k)
            return original(self, k)
        monkeypatch.setattr(valuations._Truncation, "truncated", spy)
        return seen

    @staticmethod
    def product(base, pi, unit, valn, rng, most):
        """(coefficients, value) of c * prod (x - b_j) with b_j = a or
        a + pi^k u_j, k in [-2, 3] or in {9, 10}, and a pair a +- pi^k u."""
        k0 = rng.randint(-2, 2)
        poly, value = [pi ** k0 * unit(rng)], valn.embed_base_value(k0)
        ks = [rng.choice([-2, -1, 0, 1, 2, 3, 9, 10, None]) for _ in range(rng.randint(1, most))]
        offsets = [None if k is None else pi ** k * unit(rng) for k in ks]
        if rng.random() < 0.3:
            ks += [1, 1]
            offsets += [pi * unit(rng)] * 2
            offsets[-1] = -offsets[-1]
        for k, off in zip(ks, offsets):
            b = valn.center if off is None else valn.center + off
            poly = poly_mul(poly, [-b, base.one()], base)
            value = value + (valn.gamma if k is None else min(valn.gamma, valn.embed_base_value(k)))
        return poly, value

    @pytest.mark.parametrize("case", sorted(LAZY_CASES))
    def test_four_way_agreement(self, case, precisions):
        make, trials, most = LAZY_CASES[case]
        base, pi, unit, centers = make()
        rng = random.Random(case)
        events = set()
        for trial in range(trials):
            gamma, base_coord = LAZY_GAMMAS[trial % len(LAZY_GAMMAS)]
            valn = CenteredValuation(base, centers[trial % len(centers)], gamma, base_coord)
            num, v_num = self.product(base, pi, unit, valn, rng, most)
            den, v_den = self.product(base, pi, unit, valn, rng, most)
            del precisions[:]
            got = substitution_value(valn, num, den)
            reference = horner_reference(valn, num) - horner_reference(valn, den)
            fast = valn.of_fraction(RationalFunction.over(base, num, den))
            assert got == reference == fast == v_num - v_den, (trial, num, den)
            assert substitution_value(valn, num) == horner_reference(valn, num) == v_num
            if any(_is_zero(c) for c in valn._shifted(num) + valn._shifted(den)):
                events.add("exact zero")
            if max(precisions) > valuations._START_PRECISION:
                events.add("doubling")
            if gamma.rank == 2:
                events.add("rank 2")
        assert events == {"exact zero", "doubling", "rank 2"}


# F_2, F_5, F_9 = F_3[X]/(X^2 + 1), F_16 = F_2[X]/(X^4 + X + 1) and F_13^4,
# each with a generator: X in an extension, a primitive root in F_p
FINITE_TRIVIAL = {
    "F2": (F2, F2.one()),
    "F5": (FiniteField(5), FiniteField(5).element(2)),
    "F9": (F9, F9.gen()),
    "F16": (FiniteField(2, (1, 1, 0, 0, 1)), FiniteField(2, (1, 1, 0, 0, 1)).gen()),
    "F13^4": (F13_4, F13_4.gen()),
}

# (gamma, base_coord): positive, negative and zero in rank 1, and rank 2
# with the base values in the second coordinate
FINITE_GAMMAS = [
    (GroupElement.of("1/2"), 0),
    (GroupElement.of(-3), 0),
    (GroupElement.of(0), 0),
    (GroupElement.of("1/2", 3), 1),
    (GroupElement.of(0, "5/2"), 1),
    (GroupElement.of(-1, 1), 1),
]


class TestFiniteTrivialBase:
    """Over a trivially valued F_{p^n}: the matrix shift against
    taylor_shift, and the Kronecker oracle against the verbatim Horner
    reference, of_poly and the multiplicity formula, v(g) = m*gamma for
    gamma > 0 and deg(g)*gamma for gamma < 0, m the multiplicity of the
    center as a root of g."""

    @pytest.mark.parametrize("name", sorted(FINITE_TRIVIAL))
    def test_shift_and_oracle_agree(self, name):
        field, gen = FINITE_TRIVIAL[name]
        base, p = TriviallyValued(field), field.characteristic
        rng = random.Random(name)
        top = field.element([p - 1] * field.degree)
        centers = [field.zero(), field.one(), gen, top]
        events = set()
        for trial in range(60):
            gamma, base_coord = FINITE_GAMMAS[trial % len(FINITE_GAMMAS)]
            center = centers[trial] if trial < len(centers) else field.sample(rng)
            degree = rng.randint(1, 16)
            at_center = rng.choice([0, 1, 2, 3, degree]) if trial % 7 else degree
            at_center = min(at_center, degree)
            g, a = fq_product(rng, field, degree, at_center, center)
            unit = field.element(rng.randrange(1, p))
            g = [c * unit for c in g]
            valn = CenteredValuation(base, a, gamma, base_coord)
            shifted = base.taylor_coefficients(g, a)
            assert shifted == taylor_shift(g, a, field.zero()), (trial, g, a)
            expected = gamma.scaled(at_center if gamma > GroupElement.zero(gamma.rank) else degree)
            got = substitution_value(valn, g)
            assert got == horner_reference(valn, g) == valn.of_poly(g) == expected, (trial, g, a)
            if at_center and at_center < degree:
                events.add("exact zero")
            if at_center == degree:
                events.add("full multiplicity")
        assert events == {"exact zero", "full multiplicity"}

    @pytest.mark.parametrize("name", sorted(FINITE_TRIVIAL))
    def test_worst_case_lanes(self, name):
        """Every coefficient and the center p - 1 in every lane, which
        makes each h_i(1) and so the packing width as large as it gets."""
        field, _ = FINITE_TRIVIAL[name]
        base, top = TriviallyValued(field), field.element([field.characteristic - 1] * field.degree)
        for degree in (0, 1, 5, 24):
            g = [top] * (degree + 1)
            assert base.taylor_coefficients(g, top) == taylor_shift(g, top, field.zero())
            for gamma, base_coord in FINITE_GAMMAS:
                valn = CenteredValuation(base, top, gamma, base_coord)
                assert substitution_value(valn, g) == horner_reference(valn, g) == valn.of_poly(g)

    def test_constant_builds_no_multiplication_matrix(self, monkeypatch):
        """A constant, such as an eval job's default den [1], needs no pass
        of the lazy shift, so the matrix of multiplication by the center
        is never built; a linear polynomial builds it."""
        built = []
        monkeypatch.setattr(FiniteField, "mul_matrix", lambda self, a: built.append(a) or ((1,),))
        base = TriviallyValued(FiniteField(5))
        valn = CenteredValuation(base, base.element(2), GroupElement.of("1/2"))
        assert valn.of_poly([base.element(3)]) == GroupElement.of(0)
        assert base.taylor_coefficients([base.element(3)], base.element(2)) == [base.element(3)]
        assert built == []
        base.taylor_coefficients([base.element(3), base.one()], base.element(2))
        assert built == [base.element(2)]

    @pytest.mark.parametrize("name", sorted(FINITE_TRIVIAL))
    def test_suite_oracle_quotients(self, name):
        field, gen = FINITE_TRIVIAL[name]
        base = TriviallyValued(field)
        cases = [(base, None, gamma) for gamma, _ in FINITE_GAMMAS[:3]]
        cases += [(base, gen, GroupElement.of("1/2")), (base, field.zero(), GroupElement.of(-1))]
        passed, detail = suite_oracle(random.Random(f"suite:{name}"), trials=30, max_deg=8,
                                      cases=cases)
        assert passed, detail


class TestEvalCentered:
    def test_3adic_example(self):
        w = CenteredValuation(Q3, 0, GroupElement.of(1))
        assert w.of_poly([9, 3, 1]) == GroupElement.of(2)

    def test_gauss_valuation_constant(self):
        w = CenteredValuation(Q3, 0, GroupElement.of(0))
        assert w.of_poly([Fraction(9)]) == GroupElement.of(2)

    def test_trivial_base_fresh_z(self):
        w = CenteredValuation(TRIV2, 0, GroupElement.of(1))
        assert w.of_poly([0, 1, 1]) == GroupElement.of(1)

    def test_zero_polynomial_rejected(self):
        w = CenteredValuation(Q3, 0, GroupElement.of(1))
        with pytest.raises(PreconditionError):
            w.of_poly([0])

    def test_rational_function_examples(self):
        w = CenteredValuation(Q3, 0, GroupElement.of(1))
        f = RationalFunction.over(Q3, [9, 3, 1], [0, 1])
        assert w.of_fraction(f) == GroupElement.of(1)
        g = RationalFunction.over(Q3, [9, 3, 1], [9, 3, 1])
        assert w.of_fraction(g) == GroupElement.zero(1)
        w2 = CenteredValuation(Q3, 0, GroupElement.of("1/2"))
        h = RationalFunction.over(Q3, [1], [0, 1])
        assert w2.of_fraction(h) == GroupElement.of("-1/2")

    @pytest.mark.parametrize("base,gamma", [
        (Q3, GroupElement.of(1)),
        (T2, GroupElement.of("1/2")),
        (TRIV2, GroupElement.of(1)),
    ])
    def test_valuation_axioms(self, base, gamma):
        passed, detail = suite_valuation_axioms(random.Random(17), trials=300, max_deg=3,
                                                bases=[(base, gamma)])
        assert passed, detail

    def test_representative_independence(self):
        rng = random.Random(23)
        w = CenteredValuation(Q3, Fraction(1), GroupElement.of("1/2"))
        for _ in range(100):
            g = random_poly(Q3, rng, 3)
            g2 = random_poly(Q3, rng, 3)
            h = random_poly(Q3, rng, 2)
            lhs = w.of_fraction(RationalFunction.over(Q3, poly_mul(g, h, Q3), poly_mul(g2, h, Q3)))
            rhs = w.of_fraction(RationalFunction.over(Q3, g, g2))
            assert lhs == rhs


class TestSubstitutionOracle:
    def test_matches_direct_examples(self):
        w = CenteredValuation(Q3, 0, GroupElement.of(1))
        assert substitution_value(w, [9, 3, 1]) == w.of_poly([9, 3, 1])
        assert substitution_value(w, [9, 3, 1], [0, 1]) == GroupElement.of(1)

    def test_x_minus_center(self):
        w = CenteredValuation(Q3, Fraction(7), GroupElement.of("3/2"))
        assert substitution_value(w, [Fraction(-7), Fraction(1)]) == GroupElement.of("3/2")

    @pytest.mark.parametrize("gamma", [
        GroupElement.of(0),
        GroupElement.of(1),
        GroupElement.of("1/2"),
        GroupElement.of(0, 1),
    ])
    def test_random_rational_functions(self, gamma):
        passed, detail = suite_oracle(random.Random(31), trials=200, max_deg=5,
                                      cases=[(Q3, Fraction(2), gamma)])
        assert passed, detail

    def test_t_adic_base(self):
        center = T2.element({"num": [1]})
        passed, detail = suite_oracle(random.Random(37), trials=100, max_deg=3,
                                      cases=[(T2, center, GroupElement.of("1/3"))])
        assert passed, detail


class TestTAdicProductOfLinears:
    """g = prod (x - b_j) over k(t) with b_j = a + u_j t^(k_j), and one
    b_j = a, so v(g) = sum min(gamma, v_t(a - b_j)) by construction.
    Prime fields run the int path of the shared polynomial product,
    F_4 and Q the FieldElement path."""

    @pytest.mark.parametrize("coeffs, units", [
        (FiniteField(2), [1, 1, 1]),
        (FiniteField(3), [1, 2, 2]),
        (FiniteField(5), [3, 1, 4]),
        (F4, [F4.gen(), F4.gen() + F4.one(), F4.one()]),
        (RATIONALS, [Fraction(2), Fraction(-1), Fraction(1, 3)]),
        (RATIONALS, [Fraction(2), RatFunc(RATIONALS, [-1], [1, 1]), Fraction(1, 3)]),
    ], ids=["F2", "F3", "F5", "F4", "Q", "Q-second-denominator"])
    def test_of_poly_oracle_and_construction_agree(self, coeffs, units):
        """A unit u_j may be a t-adic unit of k(t): the k = 1 root a -
        t/(1 + t) of the last case gives the coefficients of g a second
        denominator, so the clearing needs each cofactor."""
        base = TAdicRationalFunctions(coeffs)
        zero, one = coeffs.zero(), coeffs.one()
        center = RatFunc(coeffs, [one, one], [one, zero, one, one])
        gamma = Fraction(3, 2)
        roots, expected = [center], gamma
        for k, u in enumerate(units):
            roots.append(center + RatFunc(coeffs, [zero] * k + [one]) * base.element(u))
            expected += min(gamma, k)
        assert expected == 4
        g = [base.one()]
        for b in roots:
            g = poly_mul(g, [-b, base.one()], base)
        assert len(g) == 5
        w = CenteredValuation(base, center, GroupElement.of(gamma))
        assert w.of_poly(g) == substitution_value(w, g) == GroupElement.of(expected)

    @pytest.mark.parametrize("degree", [8, 12])
    def test_cost_curve_over_f2(self, degree):
        """b_0 = a and b_j = a + t^(j-1) with a = (1+t)/(1+t^2+t^3): the
        coefficients stay gcd-reduced, so of_poly grows polynomially in
        the degree and fits a fixed time budget."""
        center = RatFunc(F2, [1, 1], [1, 0, 1, 1])
        gamma = Fraction(1, 2)
        roots = [center] + [center + RatFunc(F2, [0] * k + [1]) for k in range(degree - 1)]
        expected = gamma + sum(min(gamma, k) for k in range(degree - 1))
        g = [T2.one()]
        for b in roots:
            g = poly_mul(g, [-b, T2.one()], T2)
        w = CenteredValuation(T2, center, GroupElement.of(gamma))
        t0 = time.perf_counter()
        value = w.of_poly(g)
        assert time.perf_counter() - t0 < 0.5
        assert value == substitution_value(w, g) == GroupElement.of(expected)


def _kt_poly(field, most: int):
    """Lists of at most `most` + 1 coefficients over `field`, zeros included."""
    if field is RATIONALS:
        coeff = st.builds(lambda n, d: RATIONALS.element(Fraction(n, d)),
                          st.integers(-3, 3), st.integers(1, 3))
    else:
        coeff = st.builds(field.element, st.lists(st.integers(0, field.characteristic - 1),
                                                  min_size=field.degree, max_size=field.degree))
    return st.lists(coeff, max_size=most + 1)


@st.composite
def _tadic_shift_case(draw, field):
    """(base, coefficients, center) over k(t): a polynomial of degree <= 6
    whose k(t) coefficients have num and den of degree <= 2, some of them
    zero, and a center n/d with n(0) != 0 and d = t^k u, k in {1, 2}, so its
    reduced denominator still vanishes at t = 0."""
    base, zero = TAdicRationalFunctions(field), field.zero()

    def element(num, den):
        return base.field.element(num, den) if any(den) else base.zero()

    pairs = draw(st.lists(st.tuples(_kt_poly(field, 2), _kt_poly(field, 2)), min_size=1, max_size=7))
    cs = [element(num, den) for num, den in pairs]
    while cs and cs[-1].is_zero():
        cs.pop()
    cs = cs or [base.one()]
    n = draw(_kt_poly(field, 2).filter(lambda a: a and a[0]))
    u = draw(_kt_poly(field, 1).filter(any))
    center = base.field.element(n, [zero] * draw(st.integers(1, 2)) + u)
    assert base.field.coefficients(center.den)[0].is_zero()
    return base, cs, center


@pytest.mark.parametrize("field", [F2, F9, RATIONALS], ids=["F2", "F9", "Q"])
class TestTAdicFractionFreeShift:
    """The fraction-free shift over k[t] against the generic taylor_shift
    on FunctionFieldElements, and of_poly's int-key minimum against the
    GroupElement minimum over _term_values."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=25)
    @given(data=st.data())
    def test_matches_the_generic_shift(self, field, data):
        base, cs, center = data.draw(_tadic_shift_case(field))
        generic = taylor_shift(cs, center, base.zero())
        fast = base.taylor_coefficients(cs, center)
        assert fast == generic
        f = base.field
        for c in fast:  # gcd-reduced with a monic denominator
            assert f.coefficients(c.den)[-1] == field.one()
            assert f._make(c.num, c.den) == c
        assert base.taylor_values(cs, center) == [None if c.is_zero() else base.val(c) for c in generic]
        gamma, base_coord = data.draw(st.sampled_from(FINITE_GAMMAS))
        valn = CenteredValuation(base, center, gamma, base_coord)
        assert valn.of_poly(cs) == min(v for _, v in valn._term_values(generic))

    def test_exact_zero_taylor_coefficients(self, field):
        """c = (0, 0, t, 0, 1) at a center with den t (1 + t): the shift
        gives its zeros back exactly, and v = min(1 + 2 gamma, 4 gamma)."""
        base, one = TAdicRationalFunctions(field), field.one()
        t, center = base.field.gen(), base.field.element([one], [field.zero(), one, one])
        shifted = [base.zero(), base.zero(), t, base.zero(), base.one()]
        cs = expand_about(shifted, center, base)
        assert base.taylor_coefficients(cs, center) == shifted
        assert base.taylor_values(cs, center) == [None, None, 1, None, 0]
        for gamma in ("1/2", "-3", "1"):
            valn = CenteredValuation(base, center, GroupElement.of(gamma))
            g = Fraction(gamma)
            assert valn.of_poly(cs) == GroupElement.of(min(1 + 2 * g, 4 * g))


@st.composite
def _padic_shift_case(draw, p):
    """(coefficients, center) over Q: a polynomial of degree <= 7 whose
    coefficients have p in some denominators, read either as g itself or
    as the Taylor coefficients at the center of g, which then has exact
    zero c_i; the center is 0, has p in its denominator, or is drawn."""
    coeff = st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-30, 30),
                                                      st.sampled_from([1, 2, 7, p, 4 * p, p * p])))
    center = draw(st.one_of(
        st.sampled_from([Fraction(0), Fraction(1, p), Fraction(-3, 2 * p), Fraction(5, 7 * p ** 2)]),
        st.builds(Fraction, st.integers(-30, 30), st.integers(1, 30))))
    cs = draw(st.lists(coeff, max_size=7)) + [draw(coeff.filter(bool))]
    if draw(st.booleans()):
        cs = expand_about(cs, center, PAdicRationals(p))
    return cs, center


@pytest.mark.parametrize("p", [2, 3, 5])
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_padic_values_off_the_fraction_free_shift(p, data):
    """taylor_values over Q reads v_p(c_i) off (h, L, d) as ints, None for
    c_i = 0, and agrees with val of the generic shift."""
    base = PAdicRationals(p)
    cs, center = data.draw(_padic_shift_case(p))
    generic = taylor_shift(cs, center, Fraction(0))
    assert base.taylor_values(cs, center) == [None if c == 0 else base.val(c) for c in generic]
    assert base.taylor_coefficients(cs, center) == generic
    gamma, base_coord = data.draw(st.sampled_from(LAZY_GAMMAS))
    valn = CenteredValuation(base, center, gamma, base_coord)
    assert valn.of_poly(cs) == min(v for _, v in valn._term_values(generic))


TRIVIAL_ELEMENTS = {
    "F2": (F2, st.builds(F2.element, st.integers(0, 1))),
    "F13^4": (F13_4, st.builds(F13_4.element, st.lists(st.integers(0, 12), min_size=4, max_size=4))),
    "Q": (RATIONALS, st.builds(lambda n, d: RATIONALS.element(Fraction(n, d)),
                               st.integers(-9, 9), st.integers(1, 9))),
}

# gamma > 0, < 0 and = 0 in rank 1, and (0, +-1) in rank 2 with the base
# values in either coordinate
TRIVIAL_GAMMAS = [
    (GroupElement.of("1/2"), 0),
    (GroupElement.of("-3"), 0),
    (GroupElement.of(0), 0),
    (GroupElement.of(0, 1), 0),
    (GroupElement.of(0, -1), 1),
]


@pytest.mark.parametrize("name", sorted(TRIVIAL_ELEMENTS))
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_trivial_base_order_of_vanishing(name, data):
    """Over a trivially valued base of_poly, which shifts only up to the
    first nonzero c_i, equals the GroupElement minimum over _term_values
    of the whole generic shift, for g = (x - a)^m h with h(a) != 0 and m
    0, 1 or the degree N (g = c (x - a)^N)."""
    field, element = TRIVIAL_ELEMENTS[name]
    base = TriviallyValued(field)
    center = data.draw(element)
    m = data.draw(st.sampled_from([0, 1, "N"]))
    rest = data.draw(st.lists(element, max_size=10))
    nonzero = element.filter(bool)
    shifted = [field.zero()] * len(rest) if m == "N" else [field.zero()] * m + rest
    shifted.append(data.draw(nonzero))
    if m != "N" and len(shifted) > m + 1:
        shifted[m] = data.draw(nonzero)
    g = expand_about(shifted, center, base)
    gamma, base_coord = data.draw(st.sampled_from(TRIVIAL_GAMMAS))
    valn = CenteredValuation(base, center, gamma, base_coord)
    generic = taylor_shift(g, center, field.zero())
    assert generic == shifted
    assert base.taylor_coefficients(g, center) == generic
    assert valn.of_poly(g) == min(v for _, v in valn._term_values(generic))


class TestIntKeyMinimum:
    def test_series_base_values_off_the_denominators_of_gamma(self):
        """Over a series base the v(c_i) lie in (1/3)Z, off gamma's
        denominators, so the keys' D must cover both: x^2 + t^(2/3) x +
        t^(1/3) at 0 has value min(1/3, 2/3 + gamma, 2 gamma)."""
        base = SeriesValuedField(F2, [Fraction(1, 3)])
        cs = [HahnSeries.monomial(F2, Fraction(1, 3), F2.one()),
              HahnSeries.monomial(F2, Fraction(2, 3), F2.one()), base.one()]
        for gamma, expected in (("1/2", "1/3"), ("1/10", "1/5"), ("-1/7", "-2/7")):
            valn = CenteredValuation(base, base.zero(), GroupElement.of(gamma))
            assert valn.of_poly(cs) == GroupElement.of(expected)
        for center in (base.zero(), cs[0]):
            for gamma, base_coord in ((GroupElement.of("1/2", "1/7"), 1), (GroupElement.of(0, "2/5"), 1)):
                valn = CenteredValuation(base, center, gamma, base_coord)
                assert valn.of_poly(cs) == min(v for _, v in valn._term_values(valn._shifted(cs)))


class TestSeriesBaseKnowledge:
    """Over a series base a Taylor coefficient with no known term below
    its finite bound T has a value >= T and no more is known: a value is
    reported only when the known terms decide it, on the fast path and in
    the oracle alike, and otherwise UndecidedError is raised."""

    BASE = SeriesValuedField(F2)
    UNKNOWN = HahnSeries.zero(F2, trunc=1)  # O(t)

    @pytest.mark.parametrize("cs", [[UNKNOWN, 1], [UNKNOWN, UNKNOWN, 1], [UNKNOWN], [UNKNOWN, 0]],
                             ids=["O(t) + x", "O(t) + O(t) x + x^2", "O(t)", "O(t) + 0 x"])
    def test_undecided(self, cs):
        w = CenteredValuation(self.BASE, 0, GroupElement.of(2))
        with pytest.raises(UndecidedError):
            w.of_poly(cs)
        with pytest.raises(UndecidedError):
            substitution_value(w, cs)

    @pytest.mark.parametrize("cs, fast, oracle", [
        ([UNKNOWN], "no Taylor coefficient has a known term", "no coefficient h_i has a known term"),
        ([UNKNOWN, 1], "below every known term", "below the least known term"),
    ], ids=["nothing known", "bound below the known"])
    def test_undecided_says_why(self, cs, fast, oracle):
        w = CenteredValuation(self.BASE, 0, GroupElement.of(2))
        with pytest.raises(UndecidedError, match=fast):
            w.of_poly(cs)
        with pytest.raises(UndecidedError, match=oracle):
            substitution_value(w, cs)

    @pytest.mark.parametrize("cs, gamma, value", [
        ([1, UNKNOWN], "1/3", "0"),
        ([UNKNOWN, 1], "1/3", "1/3"),
        ([HahnSeries.make(F2, [(1, 1)], trunc=Fraction(3, 2)), 1], "2", "1"),
        ([UNKNOWN, 1], "1", "1"),
    ], ids=["1 + O(t) x", "O(t) + x", "t + O(t^(3/2)) + x", "at the bound"])
    def test_decided(self, cs, gamma, value):
        w = CenteredValuation(self.BASE, 0, GroupElement.of(gamma))
        assert w.of_poly(cs) == substitution_value(w, cs) == GroupElement.of(value)

    def test_exact_zero_polynomial(self):
        w = CenteredValuation(self.BASE, 0, GroupElement.of(2))
        with pytest.raises(PreconditionError):
            w.of_poly([0, HahnSeries.zero(F2)])

    def test_residue_of_an_unknown_coefficient_is_undecided(self):
        t = HahnSeries.monomial(F2, 1, 1)
        w = CenteredValuation(self.BASE, 0, GroupElement.of("1/2"))
        with pytest.raises(UndecidedError):
            w.residue_of(RationalFunction.over(self.BASE, [self.UNKNOWN + t, 0, 1], [t]))


class TestValueGroupStructure:
    def test_values_lie_in_vk_plus_z_gamma_nontorsion(self):
        # rank-2 lex, gamma fresh: values decompose over vK + Z*gamma
        rng = random.Random(41)
        gamma = GroupElement.of(0, 1)
        w = CenteredValuation(Q3, 0, gamma)
        sub = w.base_value_subgroup.extended(gamma)
        for _ in range(100):
            f = random_poly(Q3, rng, 5)
            assert sub.witness(w.of_poly(f)) is not None

    def test_torsion_index_divides_e(self):
        rng = random.Random(43)
        gamma = GroupElement.of("1/2")
        w = CenteredValuation(Q3, 0, gamma)
        e = w.torsion_order()
        assert e == 2
        base = w.base_value_subgroup
        values = [w.of_poly(random_poly(Q3, rng, 5)) for _ in range(60)]
        gen = base.extended(*values)
        idx = gen.index_over(base)
        assert idx is not None and e % idx == 0


class TestResidue:
    def test_torsion_residue_lands_in_generator_field(self):
        w = CenteredValuation(Q3, 0, GroupElement.of("1/2"))
        f = RationalFunction.over(Q3, [3, 0, 1], [3])
        res = w.residue_of(f)
        assert isinstance(res, FunctionFieldElement)
        k = res.field
        assert res == k.gen() + 1

    def test_constant_one(self):
        w = CenteredValuation(Q3, 0, GroupElement.of("1/2"))
        f = RationalFunction.over(Q3, [1], [1])
        assert w.residue_of(f) == Q3.residue_field.one()

    def test_nonzero_value_rejected_lex(self):
        w = CenteredValuation(Q3, 0, GroupElement.of(0, 1))
        f = RationalFunction.over(Q3, [3, 0, 1], [3])
        # min(2*gamma - 1, 0): 2*gamma - 1 = (-1, 2) < 0 lexicographically
        assert w.of_fraction(f) == GroupElement.of(-1, 2)
        with pytest.raises(PreconditionError):
            w.residue_of(f)

    def test_residue_is_multiplicative(self):
        rng = random.Random(47)
        w = CenteredValuation(Q3, 0, GroupElement.of("1/2"))
        for _ in range(30):
            f = random_poly(Q3, rng, 4)
            g = random_poly(Q3, rng, 4)
            fg = poly_mul(f, g, Q3)
            assert w.residue_of(RationalFunction(tuple(f), tuple(f))) == Q3.residue_field.one()
            # (f*g)/(g*f) has residue 1 however the minimum spreads over terms
            a = w.residue_of(RationalFunction(tuple(fg), tuple(poly_mul(g, f, Q3))))
            assert a == Q3.residue_field.one()

    def test_gauss_valuation_residue_generator(self):
        # gamma = 0: the residue of x itself is the transcendental generator
        w = CenteredValuation(Q3, 0, GroupElement.of(0))
        f = RationalFunction.over(Q3, [0, 1], [1])
        res = w.residue_of(f)
        assert isinstance(res, FunctionFieldElement)
        assert res == res.field.gen()

    @pytest.mark.parametrize("field", [F2, FiniteField(3), F9, RATIONALS], ids=["F2", "F3", "F9", "Q"])
    def test_t_adic_residues(self, field):
        """Over k(t) at center 0 and gamma 1/2, ybar is the residue of
        x^2 / t: (x^2 + t)/t has residue 1 + y, (x^2 + t + t^2)/(x^2 + t^2)
        (1 + y)/y, and (x^2 + t)/(x^2 + t) the constant 1.  These run
        TAdicRationalFunctions.residue_quot and residue."""
        base = TAdicRationalFunctions(field)
        t, zero, one = base.field.gen(), base.zero(), base.one()
        w = CenteredValuation(base, zero, GroupElement.of("1/2"))
        first = w.residue_of(RationalFunction.over(base, [t, zero, one], [t]))
        second = w.residue_of(RationalFunction.over(base, [t + t * t, zero, one], [t * t, zero, one]))
        y = first.field.gen()
        assert (repr(first), repr(second)) == ("1 + y", "(1 + y) / (y)")
        assert first == y + 1 and second == (y + 1) / y and first.field.base == field
        assert w.residue_of(RationalFunction.over(base, [t, zero, one], [t, zero, one])) == field.one()
        assert base.residue((t + one) / (one - t)) == field.one()
        assert base.residue_quot(t + t * t, t * base.element(-1)) == field.element(-1)

    @pytest.mark.parametrize("field, den", [
        (FiniteField(3), "(y)"), (F9, "(y)"), (RATIONALS, "(3 + y)"),
    ], ids=["F3", "F9", "Q"])
    def test_trivially_valued_residue(self, field, den):
        """Over a trivially valued base at center 1 and gamma 0, ybar is
        the residue of x - 1: (x^2 + 1)/(x + 2) is (ybar^2 + 2 ybar + 2)/(ybar
        + 3).  This runs TriviallyValued.residue and residue_quot."""
        base = TriviallyValued(field)
        w = CenteredValuation(base, 1, GroupElement.of(0))
        res = w.residue_of(RationalFunction.over(base, [1, 0, 1], [2, 1]))
        assert repr(res) == f"(2 + (2)*y + y^2) / {den}"

    def test_series_residues(self):
        """Over F_2((t^G)) at center 0 and gamma 1/2: with 1/2 in G, e = 1
        and ybar is the residue of x / t^(1/2), so (x^2 + t)/t has residue
        1 + y^2 and (x + t^(1/2))/t^(1/2) 1 + y; with G = Z, e = 2 and ybar
        is that of x^2 / t, so (x^2 + t)/t has residue 1 + y.  These run
        SeriesValuedField.residue_quot."""
        t, root = (HahnSeries.monomial(F2, v, 1) for v in (1, Fraction(1, 2)))
        half = SeriesValuedField(F2, ["1/2"])
        w = CenteredValuation(half, 0, GroupElement.of("1/2"))
        assert repr(w.residue_of(RationalFunction.over(half, [t, 0, 1], [t]))) == "1 + y^2"
        assert repr(w.residue_of(RationalFunction.over(half, [root, 1], [root]))) == "1 + y"
        whole = SeriesValuedField(F2)
        w = CenteredValuation(whole, 0, GroupElement.of("1/2"))
        assert repr(w.residue_of(RationalFunction.over(whole, [t, 0, 1], [t]))) == "1 + y"


class TestClassification:
    def test_lex_non_torsion(self):
        w = CenteredValuation(Q3, 0, GroupElement.of(0, 1))
        assert w.classify() == VALUE_TRANSCENDENTAL

    def test_half_over_z(self):
        w = CenteredValuation(Q3, 0, GroupElement.of("1/2"))
        assert w.classify() == RESIDUE_TRANSCENDENTAL

    def test_undecided_at_bound_is_not_a_label(self):
        from ratval.errors import UndecidedError

        w = CenteredValuation(Q3, 0, GroupElement.of("1/7"))
        with pytest.raises(UndecidedError):
            w.classify(bound=3)
        assert w.classify(bound=7) == RESIDUE_TRANSCENDENTAL

    def test_pseudo_cauchy_descriptor(self):
        base = SeriesValuedField(F2)
        elems = [
            HahnSeries.make(F2, [(Fraction(1) - Fraction(1, 3 ** j), 1) for j in range(1, i + 1)],
                            trunc=1)
            for i in range(1, 5)
        ]
        v = PseudoCauchyValuation(base, elems)
        assert v.classify() == VALUATION_ALGEBRAIC

    def test_pcs_rejects_non_pcs(self):
        base = SeriesValuedField(F2)
        a = HahnSeries.monomial(F2, 1, 1)
        with pytest.raises(PreconditionError):
            PseudoCauchyValuation(base, [a, a + HahnSeries.monomial(F2, 2, 1), a])

    def test_values_along_stabilization(self):
        base = SeriesValuedField(F2)
        elems = [
            HahnSeries.make(F2, [(Fraction(1) - Fraction(1, 3 ** j), 1) for j in range(1, i + 1)],
                            trunc=1)
            for i in range(1, 5)
        ]
        v = PseudoCauchyValuation(base, elems)
        # g(x) = x: v(a_nu) = 2/3 for every nu: stabilized from the start
        report = v.values_along([base.zero(), base.one()])
        assert report["stabilized_at_depth"]
        assert report["stable_from"] == 0
        assert report["values"][0] == Fraction(2, 3)

    def test_summary_trichotomy(self):
        assert classify_summary(True, True) == VALUATION_ALGEBRAIC
        assert classify_summary(False, True) == VALUE_TRANSCENDENTAL
        assert classify_summary(True, False) == RESIDUE_TRANSCENDENTAL
        with pytest.raises(PreconditionError):
            classify_summary(False, False)


class TestBases:
    @pytest.mark.parametrize("base", [
        PAdicRationals(3), PAdicRationals(2), T2,
        TAdicRationalFunctions(FiniteField(5)),
        TRIV2, SeriesValuedField(F2),
    ])
    def test_base_valuation_axioms(self, base):
        from ratval.valuations import _is_zero

        rng = random.Random(59)
        for _ in range(200):
            a, b = base.sample(rng), base.sample(rng)
            if _is_zero(a) or _is_zero(b):
                continue
            prod = a * b
            if not _is_zero(prod):
                assert base.val(prod) == base.val(a) + base.val(b)
            s = a + b
            if not _is_zero(s):
                assert base.val(s) >= min(base.val(a), base.val(b))

    def test_padic_val_and_residue(self):
        assert Q3.val(Fraction(9, 2)) == 2
        assert Q3.val(Fraction(2, 27)) == -3
        assert Q3.residue(Fraction(7, 2)).to_json() == 2  # 7 * inv(2) = 7*2 = 14 = 2 mod 3

    def test_tadic(self):
        f = RatFunc(F2, [F2.zero(), F2.one()], [F2.one(), F2.one()])  # t/(1+t)
        assert T2.val(f) == 1
        g = RatFunc(F2, [F2.one(), F2.one()], [F2.one()])
        assert T2.residue(g) == F2.one()

    def test_tadic_canonical_form(self):
        f = RatFunc(F2, [0, 1], [1, 1]) * RatFunc(F2, [1, 1], [0, 1])  # t/(1+t) * (1+t)/t
        assert f.field.coefficients(f.num) == f.field.coefficients(f.den) == (F2.one(),)
        assert f == T2.one()

    def test_series_base(self):
        base = SeriesValuedField(F2)
        s = HahnSeries.make(F2, [(Fraction(-1, 2), 1), (0, 1)])
        assert base.val(s) == Fraction(-1, 2)
        assert base.residue(HahnSeries.make(F2, [(0, 1), (1, 1)])) == F2.one()

    def test_element_of_value(self):
        assert Q3.val(Q3.element_of_value(Fraction(-2))) == -2
        assert T2.val(T2.element_of_value(Fraction(3))) == 3
        base = SeriesValuedField(F2)
        assert base.val(base.element_of_value(Fraction(-5, 2))) == Fraction(-5, 2)

    def test_json_round_trip(self):
        from ratval.valuations import ValuedField

        for base in (Q3, T2, TRIV2, SeriesValuedField(F2)):
            back = ValuedField.from_json(base.to_json())
            assert back.to_json() == base.to_json()
