import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratval.errors import PreconditionError
from ratval.fields import RATIONALS, FiniteField
from ratval.groups import GroupElement
from ratval.series import HahnSeries, artin_schreier_root, kummer_root

F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, (1, 1, 1))
F9 = FiniteField(3, (1, 0, 1))


def S(field, pairs, trunc=None):
    return HahnSeries.make(field, pairs, trunc)


def rand_series(field, rng, allow_zero=True):
    n = rng.randint(0 if allow_zero else 1, 4)
    terms = []
    for _ in range(n):
        expo = Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3, 4]))
        terms.append((expo, field.sample(rng)))
    s = S(field, terms)
    if not allow_zero and s.is_zero():
        return rand_series(field, rng, allow_zero)
    return s


class TestValue:
    def test_least_exponent(self):
        s = S(RATIONALS, [(Fraction(1, 2), 1), (1, 1)])
        assert s.value() == GroupElement.of("1/2")

    def test_zero_series_above_truncation(self):
        s = HahnSeries.zero(RATIONALS, trunc=GroupElement.of(5))
        assert s.value() is None
        assert s.value_bound() == GroupElement.of(5)

    def test_constant_plus_t(self):
        assert S(RATIONALS, [(0, 3), (1, 1)]).value() == GroupElement.zero(1)


class TestRingOps:
    def test_char_2_square(self):
        s = S(F2, [(Fraction(-1, 2), 1), (Fraction(-1, 4), 1)])
        assert (s * s) == S(F2, [(-1, 1), (Fraction(-1, 2), 1)])

    def test_additive_inverse(self):
        rng = random.Random(1)
        for _ in range(50):
            s = rand_series(F9, rng)
            assert (s + (-s)).is_zero()

    def test_product_of_conjugates(self):
        one_plus = S(RATIONALS, [(0, 1), (1, 1)])
        one_minus = S(RATIONALS, [(0, 1), (1, -1)])
        assert one_plus * one_minus == S(RATIONALS, [(0, 1), (2, -1)])

    def test_field_mismatch(self):
        with pytest.raises(PreconditionError):
            S(F2, [(0, 1)]) + S(F3, [(0, 1)])

    def test_ultrametric_random(self):
        rng = random.Random(2)
        for field in (RATIONALS, F4, F9):
            for _ in range(334):
                s, r = rand_series(field, rng), rand_series(field, rng)
                total = s + r
                vs, vr = s.value(), r.value()
                if vs is None or vr is None or total.value() is None:
                    continue
                assert total.value() >= min(vs, vr)
                if vs != vr:
                    assert total.value() == min(vs, vr)

    def test_multiplicativity_random(self):
        rng = random.Random(3)
        for field in (RATIONALS, F4, F9):
            for _ in range(334):
                s = rand_series(field, rng, allow_zero=False)
                r = rand_series(field, rng, allow_zero=False)
                assert (s * r).value() == s.value() + r.value()

    def test_truncation_min_for_addition(self):
        a = S(RATIONALS, [(0, 1)], trunc=3)
        b = S(RATIONALS, [(1, 1)], trunc=2)
        assert (a + b).trunc == GroupElement.of(2)

    def test_truncation_for_products(self):
        # min over v(s) + trunc(r), v(r) + trunc(s)
        s = S(RATIONALS, [(1, 1)], trunc=4)
        r = S(RATIONALS, [(2, 1)], trunc=3)
        assert (s * r).trunc == GroupElement.of(4)  # min(1+3, 2+4)



def _ref_terms(field, terms, trunc):
    """Normal form kept on GroupElement keys and Fraction order: merge on
    equal exponents (first exponent object kept), drop zeros and terms at
    or above trunc, sort."""
    acc = {}
    for e, c in terms:
        acc[e] = acc[e] + c if e in acc else c
    kept = [(e, c) for e, c in acc.items() if not c.is_zero() and (trunc is None or e < trunc)]
    return tuple(sorted(kept, key=lambda t: t[0].coords))


def _ref_product_trunc(s, r):
    bounds = []
    if s.trunc is not None and r.value_bound() is not None:
        bounds.append(s.trunc + r.value_bound())
    if r.trunc is not None and s.value_bound() is not None:
        bounds.append(r.trunc + s.value_bound())
    return min(bounds, default=None)


def _rand_expo(rng, rank):
    # a small lattice of exponents, so that merges, cancellations and
    # products on the truncation bound are common
    return GroupElement.of(*(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6)))
                             for _ in range(rank)))


def _rand_terms(field, rng, rank):
    terms = [(_rand_expo(rng, rank), field.sample(rng)) for _ in range(rng.randint(0, 6))]
    for e, c in list(terms):
        if rng.random() < 0.3:
            terms.append((GroupElement(e.coords), -c))  # an equal exponent, another object
    rng.shuffle(terms)
    return terms


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("field", [F2, F3, F4, RATIONALS], ids=repr)
class TestIntKeyedNormalForm:
    """make and __mul__ against the Fraction-keyed reference."""

    def test_make(self, field, rank):
        rng = random.Random(f"make:{field!r}:{rank}")
        cancelled = cut = 0
        for _ in range(300):
            terms = _rand_terms(field, rng, rank)
            trunc = rng.choice([None, _rand_expo(rng, rank)] + [e for e, _ in terms[:1]])
            s = HahnSeries.make(field, terms, trunc, rank)
            ref = _ref_terms(field, terms, trunc)
            assert s.terms == ref and s.trunc == trunc
            assert s.keys == tuple(r._over(s.den) for r, _ in ref)
            exps = {e for e, _ in terms}
            cancelled += len(exps) > len({e for e, _ in _ref_terms(field, terms, None)})
            cut += trunc is not None and trunc in exps
        assert cancelled and cut

    def test_mul(self, field, rank):
        rng = random.Random(f"mul:{field!r}:{rank}")
        on_bound = 0
        for _ in range(300):
            r = HahnSeries.make(field, _rand_terms(field, rng, rank),
                                rng.choice([None, _rand_expo(rng, rank)]), rank)
            terms = _rand_terms(field, rng, rank)
            trunc = rng.choice([None, _rand_expo(rng, rank)])
            if terms and len(r.terms) > 1 and rng.random() < 0.5:
                # aim s's bound so that a product term lands on s.trunc + v(r)
                trunc = terms[0][0] + r.terms[-1][0] - r.terms[0][0]
            s = HahnSeries.make(field, terms, trunc, rank)
            prod = s * r
            trunc = _ref_product_trunc(s, r)
            pairs = [(e1 + e2, c1 * c2) for e1, c1 in s.terms for e2, c2 in r.terms]
            assert prod.trunc == trunc
            assert prod.terms == _ref_terms(field, pairs, trunc)
            on_bound += trunc is not None and any(e == trunc for e, _ in pairs)
        assert on_bound


# -- the keyed kernel against a reference kept on (GroupElement, FieldElement)
# pairs: a reference series is (terms, trunc) with terms in _ref_terms form

def _ref_sum(parts):
    trunc = min((t for _, t in parts if t is not None), default=None)
    return _ref_terms(None, [tc for terms, _ in parts for tc in terms], trunc), trunc


def _ref_neg(a):
    return tuple((e, -c) for e, c in a[0]), a[1]


def _ref_value_bound(a):
    return a[0][0][0] if a[0] else a[1]


def _ref_mul(a, b):
    bounds = [t + v for t, v in ((a[1], _ref_value_bound(b)), (b[1], _ref_value_bound(a)))
              if t is not None and v is not None]
    trunc = min(bounds, default=None)
    pairs = [(e1 + e2, c1 * c2) for e1, c1 in a[0] for e2, c2 in b[0]]
    return _ref_terms(None, pairs, trunc), trunc


def _ref_one(field, rank):
    return ((GroupElement.zero(rank), field.one()),), None


def _ref_pow(a, n, field, rank):
    # square-and-multiply in the order of fields._power, on reference series
    result = _ref_one(field, rank)
    while n:
        if n & 1:
            result = _ref_mul(result, a)
        if n > 1:
            a = _ref_mul(a, a)
        n >>= 1
    return result


def _ref_frobenius(a, e, p):
    q = p ** e
    trunc = None if a[1] is None else a[1].scaled(q)
    return _ref_terms(None, [(g.scaled(q), c ** q) for g, c in a[0]], trunc), trunc


def _ref_p_th_root(a, field):
    p = field.characteristic
    # the p-th root of a coefficient by search, not through Frobenius
    roots = {x ** p: x for x in field.elements()}
    trunc = None if a[1] is None else a[1].scaled(Fraction(1, p))
    return tuple((g.scaled(Fraction(1, p)), roots[c]) for g, c in a[0]), trunc


def _ref_artin_schreier_root(a, depth, field):
    layers = [_ref_p_th_root(a, field)]
    while len(layers) < depth:
        layers.append(_ref_p_th_root(layers[-1], field))
    return _ref_sum(layers)


def _ref_invert(a, depth, field, rank):
    (e0, c0), rest = a[0][0], (a[0][1:], a[1])
    lead_inv = ((-e0, c0.inverse()),), None
    w = _ref_mul(rest, lead_inv)
    if not w[0] and w[1] is None:
        return lead_inv
    acc = power = _ref_one(field, rank)
    for _ in range(1, depth):
        power = _ref_mul(power, _ref_neg(w))
        acc = _ref_sum([acc, power])
    terms, trunc = _ref_mul(lead_inv, acc)
    if w[0]:
        cap = -e0 + w[0][0][0].scaled(depth)
        trunc = cap if trunc is None else min(trunc, cap)
        terms = _ref_terms(None, terms, trunc)
    return terms, trunc


def _ref_json(field, rank, a):
    def expo(g):
        return str(g.coords[0]) if rank == 1 else g.to_json()
    return {"field": field.to_json(), "trunc": None if a[1] is None else expo(a[1]),
            "terms": [[expo(e), c.to_json()] for e, c in a[0]]}


def _assert_matches(s, ref, field, rank):
    terms, trunc = ref
    assert s.terms == terms and s.trunc == trunc
    assert s.support() == [e for e, _ in terms]
    assert s.value() == (terms[0][0] if terms else None)
    assert s.value_bound() == (terms[0][0] if terms else trunc)
    if terms:
        assert s.leading_coeff() == terms[0][1]
    for e, c in terms:
        assert s.coeff_at(e) == c
    assert s.to_json() == _ref_json(field, rank, ref)
    same = HahnSeries.make(field, terms, trunc, rank)
    assert s == same and same == s and hash(s) == hash(same)
    if terms:
        assert s != HahnSeries.make(field, terms[:-1], trunc, rank)
        assert s != HahnSeries.make(field, terms, terms[-1][0], rank)


def _coeffs(field):
    if field is RATIONALS:
        return st.builds(lambda n, d: RATIONALS.element(Fraction(n, d)),
                         st.integers(-3, 3), st.integers(1, 3))
    return st.builds(field.element, st.lists(st.integers(0, field.characteristic - 1),
                                             min_size=field.degree, max_size=field.degree))


@st.composite
def _operand(draw, field, rank):
    """(terms, trunc) over a denominator of its own, with repeated exponents
    and cancelling coefficients common."""
    den = draw(st.sampled_from((1, 2, 3, 4, 6, 9)))
    expo = st.builds(lambda cs: GroupElement.of(*(Fraction(c, den) for c in cs)),
                     st.lists(st.integers(-6, 6), min_size=rank, max_size=rank))
    terms = draw(st.lists(st.tuples(expo, _coeffs(field)), max_size=5))
    for e, c in list(terms):
        if draw(st.booleans()):
            terms.append((GroupElement(e.coords), -c))
    trunc = draw(st.one_of(st.none(), expo, st.sampled_from([e for e, _ in terms] or [None])))
    return terms, trunc


KERNEL_FIELDS = [F2, F3, F4, F9, RATIONALS]


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
class TestKeyedKernelProperties:
    """Every operation of the keyed kernel against the pair reference, on
    operands over different denominators, exact and truncated, with the
    results fed back in as operands."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(data=st.data())
    def test_operations_match_the_pair_reference(self, field, rank, data):
        p = field.characteristic
        pool = []
        for _ in range(3):
            terms, trunc = data.draw(_operand(field, rank))
            s = HahnSeries.make(field, terms, trunc, rank)
            ref = _ref_terms(field, terms, trunc), trunc
            _assert_matches(s, ref, field, rank)
            pool.append((s, ref))
        ops = ["add", "sub", "mul", "pow", "invert"] + (["frob", "root", "as"] if p else [])
        for _ in range(6):
            op = data.draw(st.sampled_from(ops))
            (a, ra), (b, rb) = (pool[data.draw(st.integers(0, len(pool) - 1))] for _ in range(2))
            if op == "add":
                got, ref = a + b, _ref_sum([ra, rb])
            elif op == "sub":
                got, ref = a - b, _ref_sum([ra, _ref_neg(rb)])
            elif op == "mul":
                got, ref = a * b, _ref_mul(ra, rb)
            elif op == "pow":
                n = data.draw(st.integers(0, 3))
                got, ref = a ** n, _ref_pow(ra, n, field, rank)
            elif op == "invert":
                if a.is_zero():
                    continue
                depth = data.draw(st.integers(1, 3))
                got, ref = a.invert(depth), _ref_invert(ra, depth, field, rank)
            elif op == "frob":
                e = data.draw(st.integers(0, 2))
                got, ref = a.frobenius_power(e), _ref_frobenius(ra, e, p)
            elif op == "root":
                got, ref = a.p_th_root(), _ref_p_th_root(ra, field)
            else:
                if a.is_zero() or not a.value() < GroupElement.zero(rank):
                    continue
                depth = data.draw(st.integers(1, 3))
                got, ref = artin_schreier_root(a, depth), _ref_artin_schreier_root(ra, depth, field)
            _assert_matches(got, ref, field, rank)
            if len(got.terms) <= 12:
                pool.append((got, ref))


class TestPowIsAProduct:
    def test_cube_in_characteristic_3(self, monkeypatch):
        # s ** p is what checks a Frobenius-built root, so it must not
        # route through the termwise maps
        s = S(F3, [(Fraction(-1, 3), 1), (Fraction(-1, 9), 2), (Fraction(1, 2), 1)])
        expected = s.frobenius_power(1)

        def termwise(*args, **kwargs):
            raise AssertionError("HahnSeries.__pow__ used a termwise map")

        monkeypatch.setattr(HahnSeries, "frobenius_power", termwise)
        monkeypatch.setattr(HahnSeries, "p_th_root", termwise)
        assert s ** 3 == expected


class TestInvert:
    def test_monomial_is_exact(self):
        t = S(RATIONALS, [(1, 1)])
        inv = t.invert(1)
        assert inv == S(RATIONALS, [(-1, 1)])
        assert inv.trunc is None

    def test_geometric_series(self):
        s = S(RATIONALS, [(0, 1), (1, -1)])
        inv = s.invert(3)
        assert [(e.coords[0], c.value) for e, c in inv.terms] == [
            (0, Fraction(1)), (1, Fraction(1)), (2, Fraction(1))
        ]

    def test_f3_example(self):
        s = S(F3, [(Fraction(1, 2), 1), (1, 1)])
        inv = s.invert(2)
        assert [(e.coords[0], c.value[0]) for e, c in inv.terms] == [
            (Fraction(-1, 2), 1), (Fraction(0), 2)
        ]
        prod = s * inv
        one = S(F3, [(0, 1)])
        resid = prod - one
        # the residual vanishes below the truncation implied by the depth
        assert resid.value() is None

    def test_inverse_property_random(self):
        rng = random.Random(4)
        for field in (RATIONALS, F4):
            for _ in range(100):
                s = rand_series(field, rng, allow_zero=False)
                depth = rng.randint(1, 4)
                inv = s.invert(depth)
                resid = s * inv - HahnSeries.constant(field, field.one())
                if resid.value() is None:
                    continue  # vanished within knowledge
                assert inv.trunc is not None
                # residual sits at or above trunc(inv) + v(s)
                assert resid.value() >= inv.trunc + s.value()

    def test_zero_rejected(self):
        with pytest.raises(PreconditionError):
            HahnSeries.zero(F2).invert(2)


class TestFrobeniusPower:
    def test_char_2_square_matches_mul(self):
        s = S(F2, [(Fraction(-1, 2), 1), (Fraction(-1, 4), 1)])
        assert s.frobenius_power(1) == s * s

    def test_identity_power(self):
        s = S(F9, [(1, F9.gen()), (2, 1)])
        assert s.frobenius_power(0) == s

    def test_exponent_map_example(self):
        e = [1, 2, 4]
        s = S(F2, [(-Fraction(1, 2 ** ei), 1) for ei in e])
        out = s.frobenius_power(e[1])
        assert [t[0].coords[0] for t in out.terms] == [
            Fraction(-2), Fraction(-1), Fraction(-1, 4)
        ]

    def test_matches_repeated_multiplication(self):
        rng = random.Random(5)
        for field in (F2, F4, F9):
            p = field.characteristic
            for _ in range(30):
                s = rand_series(field, rng)
                e = rng.randint(0, 2)
                brute = HahnSeries.constant(field, field.one())
                for _ in range(p ** e):
                    brute = brute * s
                fast = s.frobenius_power(e)
                assert fast.terms == brute.terms

    def test_char_zero_rejected(self):
        with pytest.raises(PreconditionError):
            S(RATIONALS, [(0, 1)]).frobenius_power(1)


class TestArtinSchreierRoot:
    def test_closed_form_example(self):
        u = HahnSeries.monomial(F2, -1, 1)
        a = artin_schreier_root(u, 4)
        assert [t[0].coords[0] for t in a.terms] == [
            Fraction(-1, 2), Fraction(-1, 4), Fraction(-1, 8), Fraction(-1, 16)
        ]
        resid = a * a - a - u
        assert resid.value() == GroupElement.of("-1/16")
        # strictly above the depth-3 level
        assert resid.value() > GroupElement.of("-1/8")

    def test_value_property_random(self):
        rng = random.Random(6)
        for _ in range(20):
            u = rand_series(F4, rng, allow_zero=False)
            if not u.value() < GroupElement.zero(1):
                continue
            a = artin_schreier_root(u, 3)
            assert a.value() == u.value().scaled(Fraction(1, 2))

    def test_coefficient_frobenius_inverse(self):
        u = HahnSeries.monomial(F4, -1, F4.gen())
        a = artin_schreier_root(u, 1)
        expo, coeff = a.terms[0]
        assert expo == GroupElement.of("-1/2")
        assert coeff == F4.gen().frobenius_inverse()
        assert coeff * coeff == F4.gen()

    def test_nonnegative_value_rejected(self):
        with pytest.raises(PreconditionError):
            artin_schreier_root(HahnSeries.monomial(F2, 1, 1), 2)

    def test_char_zero_rejected(self):
        with pytest.raises(PreconditionError):
            artin_schreier_root(HahnSeries.monomial(RATIONALS, -1, 1), 2)

    @pytest.mark.parametrize("field", [F2, F3, F4, F9], ids=repr)
    def test_matches_layer_by_layer_normalisation(self, field):
        # the root is the sum of the iterated p-th roots, normalised once;
        # the reference normalises the running sum after every layer
        rng = random.Random(field.order)
        checked = 0
        while checked < 12:
            u = rand_series(field, rng, allow_zero=False)
            if rng.random() < 0.5:
                u = HahnSeries.make(field, u.terms, Fraction(rng.randint(0, 8), 3))
            if u.is_zero() or not u.value() < GroupElement.zero(1):
                continue
            depth = rng.randint(1, 4)
            total, layer = HahnSeries.zero(field), u
            trunc = None
            for _ in range(depth):
                layer = layer.p_th_root()
                if layer.trunc is not None and (trunc is None or layer.trunc < trunc):
                    trunc = layer.trunc
                total = HahnSeries.make(field, list(total.terms) + list(layer.terms))
            expected = HahnSeries.make(field, total.terms, trunc)
            got = artin_schreier_root(u, depth)
            assert got == expected
            assert got.to_json() == expected.to_json()
            checked += 1


class TestKummerRoot:
    def test_cube_root_of_t(self):
        r = kummer_root(GroupElement.of(1), RATIONALS.one(), 3)
        assert r == HahnSeries.monomial(RATIONALS, Fraction(1, 3), 1)

    def test_square_root_in_f3(self):
        r = kummer_root(GroupElement.of(-2), F3.one(), 2)
        assert (r * r) == HahnSeries.monomial(F3, -2, 1)

    def test_rational_constant(self):
        r = kummer_root(GroupElement.zero(1), RATIONALS.element(4), 2)
        assert r == HahnSeries.constant(RATIONALS, 2)

    def test_missing_root_rejected(self):
        with pytest.raises(PreconditionError):
            kummer_root(GroupElement.zero(1), RATIONALS.element(2), 2)
        with pytest.raises(PreconditionError):
            kummer_root(GroupElement.zero(1), F3.element(2), 2)  # 2 is not a square mod 3

    def test_cube_root_beyond_float_precision(self):
        n = 10**20 + 1
        r = kummer_root(GroupElement.zero(1), RATIONALS.element(n**3), 3)
        assert r == HahnSeries.constant(RATIONALS, n)

    def test_square_root_beyond_float_range(self):
        r = kummer_root(GroupElement.zero(1), RATIONALS.element(10**400), 2)
        assert r == HahnSeries.constant(RATIONALS, 10**200)

    def test_negative_odd_root(self):
        q = Fraction(-(10**20 + 1) ** 5, 3**10)
        r = kummer_root(GroupElement.of(5), RATIONALS.element(q), 5)
        assert r == HahnSeries.monomial(RATIONALS, 1, Fraction(-(10**20 + 1), 9))
        with pytest.raises(PreconditionError, match="no rational 2-th root of -4"):
            kummer_root(GroupElement.zero(1), RATIONALS.element(-4), 2)

    def test_near_roots_rejected(self):
        for q, e in [((10**20 + 1) ** 3 + 1, 3), (10**400 - 1, 2), (Fraction(4, 10**400 + 1), 2)]:
            with pytest.raises(PreconditionError, match=f"no rational {e}-th root"):
                kummer_root(GroupElement.zero(1), RATIONALS.element(q), e)

    def test_exact_integer_roots(self):
        rng = random.Random(11)
        for _ in range(200):
            e = rng.randint(1, 7)
            r = rng.choice([rng.randint(1, 50), rng.getrandbits(rng.randint(1, 300)) + 1])
            q = Fraction(r**e, (r + 1) ** e)
            got = kummer_root(GroupElement.zero(1), RATIONALS.element(q), e)
            assert got == HahnSeries.constant(RATIONALS, Fraction(r, r + 1))
            if r > 1 and e > 1:
                for off in (-1, 1):
                    with pytest.raises(PreconditionError):
                        kummer_root(GroupElement.zero(1), RATIONALS.element(r**e + off), e)


class TestSerialization:
    def test_round_trip(self):
        s = S(F9, [(Fraction(-1, 2), F9.gen()), (2, 1)], trunc=5)
        back = HahnSeries.from_json(s.to_json())
        assert back == s

    def test_rational_coefficients_round_trip(self):
        s = S(RATIONALS, [(Fraction(1, 3), Fraction(2, 7))])
        assert HahnSeries.from_json(s.to_json()) == s
