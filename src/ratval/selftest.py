"""Seeded property suites for `ratval selftest`, the one copy that the
tier-1 tests also run, with their own seeds and sizes.

Exact valuation axioms, oracle equivalence, field axioms, subgroup
witness arithmetic, Artin-Schreier residuals, and certificate round
trips.  A suite takes a seeded random.Random, and returns (passed, detail).
"""

from __future__ import annotations

import random
from fractions import Fraction

from .certificates import build_defect_tower, build_degree_bound, validate_certificate
from .fields import EXACT, RATIONALS, FiniteField, _padd, _pmul
from .groups import GroupElement, Subgroup
from .series import HahnSeries, artin_schreier_root
from .valuations import (
    CenteredValuation,
    PAdicRationals,
    RationalFunction,
    TAdicRationalFunctions,
    TriviallyValued,
    substitution_value,
)


def random_poly(base, rng, max_deg):
    """A random nonzero polynomial over `base` of degree <= max_deg."""
    while True:
        coeffs = [base.sample(rng) for _ in range(rng.randint(1, max_deg + 1))]
        f = RationalFunction.over(base, coeffs)
        if not f.is_zero():
            return list(f.num)


def poly_mul(f, g, base):
    """Product of coefficient lists over `base`."""
    return list(_pmul(f, g, EXACT, base.zero()))


def poly_add(f, g, base):
    """Sum of coefficient lists over `base`, stripped of zero leading terms."""
    return list(_padd(f, g, EXACT, base.zero()))


def suite_valuation_axioms(rng, *, trials=200, max_deg=4, bases=None) -> tuple[bool, str]:
    """v(fg) = v(f) + v(g) and v(f + g) >= min(v(f), v(g)) for the
    valuation centred at 0 with v(x) = gamma, per (base, gamma)."""
    if bases is None:
        bases = [
            (PAdicRationals(3), GroupElement.of(1)),
            (TAdicRationalFunctions(FiniteField(2)), GroupElement.of("1/2")),
            (TriviallyValued(FiniteField(5)), GroupElement.of(1)),
        ]
    pairs = 0
    for base, gamma in bases:
        valn = CenteredValuation(base, base.element(0), gamma)
        for _ in range(trials):
            f = random_poly(base, rng, max_deg)
            g = random_poly(base, rng, max_deg)
            prod = poly_mul(f, g, base)
            if valn.of_poly(prod) != valn.of_poly(f) + valn.of_poly(g):
                return False, f"multiplicativity failed over {base!r} for f = {f}, g = {g}"
            s = poly_add(f, g, base)
            if not s:
                continue  # f + g == 0
            if not valn.of_poly(s) >= min(valn.of_poly(f), valn.of_poly(g)):
                return False, f"ultrametric inequality failed over {base!r} for f = {f}, g = {g}"
            pairs += 1
    return True, f"{pairs} random pairs, exact"


def suite_oracle(rng, *, trials=50, max_deg=4, cases=None) -> tuple[bool, str]:
    """substitution_value equals of_fraction per (base, center, gamma);
    a center None is an integer in [-3, 3] drawn from rng."""
    if cases is None:
        q3 = PAdicRationals(3)
        cases = [(q3, None, GroupElement.of(g)) for g in (0, 1, "1/2")]
        cases.append((q3, None, GroupElement.of(0, 1)))
    count = 0
    for base, center, gamma in cases:
        if center is None:
            center = base.element(rng.randint(-3, 3))
        valn = CenteredValuation(base, center, gamma)
        for _ in range(trials):
            num = random_poly(base, rng, max_deg)
            den = random_poly(base, rng, max_deg)
            direct = valn.of_fraction(RationalFunction(tuple(num), tuple(den)))
            if substitution_value(valn, num, den) != direct:
                return False, f"oracle disagreement over {base!r} for {num} / {den}"
            count += 1
    return True, f"{count} rational functions, exact"


def suite_fields(rng) -> tuple[bool, str]:
    for field in (RATIONALS, FiniteField(5), FiniteField(2, (1, 1, 1)), FiniteField(3, (1, 0, 1))):
        for _ in range(200):
            a, b, c = (field.sample(rng) for _ in range(3))
            if (a + b) * c != a * c + b * c:
                return False, f"distributivity failed in {field!r}"
            if (a * b) * c != a * (b * c):
                return False, f"associativity failed in {field!r}"
            if not a.is_zero() and (a * a.inverse()) != field.one():
                return False, f"inverses failed in {field!r}"
    return True, "field axioms on 200 random triples per field, exact"


def suite_subgroups(rng) -> tuple[bool, str]:
    for _ in range(100):
        gens = [GroupElement.of(Fraction(rng.randint(-6, 6), rng.randint(1, 6)))
                for _ in range(rng.randint(1, 3))]
        sub = Subgroup.generated_by(*gens)
        combo = GroupElement.zero(1)
        for g in gens:
            combo = combo + g.scaled(rng.randint(-4, 4))
        if sub.witness(combo) is None:
            return False, "member missed an exact combination"
    return True, "100 random membership witnesses re-verified"


def suite_artin_schreier(rng, *, trials=20) -> tuple[bool, str]:
    """For random u of negative value over F_2, F_4, F_9 and depth d <= 5:
    v(a) = v(u)/p for a = artin_schreier_root(u, d), and a^p - a - u has
    value exactly v(u)/p^d, above the requested bound v(u)/p^(d-1)."""
    for field in (FiniteField(2), FiniteField(2, (1, 1, 1)), FiniteField(3, (1, 0, 1))):
        p = field.characteristic
        checked = 0
        while checked < trials:
            terms = []
            for _ in range(rng.randint(1, 3)):
                expo = Fraction(-rng.randint(1, 9), rng.choice([1, 2, 3, 4]))
                terms.append((GroupElement.of(expo), field.sample(rng)))
            u = HahnSeries.make(field, terms)
            if u.is_zero() or not u.value() < GroupElement.zero(1):
                continue
            depth = rng.randint(1, 5)
            a = artin_schreier_root(u, depth)
            resid = (a ** p) - a - u
            if resid.value() != u.value().scaled(Fraction(1, p ** depth)):
                return False, f"residual value mismatch over {field!r} for u = {u!r}, depth {depth}"
            if not resid.value() > u.value().scaled(Fraction(1, p ** (depth - 1))):
                return False, f"residual not above the bound over {field!r} for u = {u!r}"
            if a.value() != u.value().scaled(Fraction(1, p)):
                return False, f"v(a) != v(u)/p over {field!r} for u = {u!r}"
            checked += 1
    return True, "residual value v(u)/p^depth exact on random inputs"


def suite_certificates(rng) -> tuple[bool, str]:
    for p in (2, 3):
        cert = build_defect_tower(p, [1, 2, 4, 7, 11], 4)
        if not validate_certificate(cert).ok:
            return False, f"defect tower p={p} failed recheck"
    cert = build_degree_bound(2, [3, 5, 7, 11])
    if cert.payload["bound"] != 1155 or not validate_certificate(cert).ok:
        return False, "degree bound failed"
    return True, "defect towers and degree bounds round trip"


def run_all(seed: int = 20260810):
    suites = [
        ("valuation axioms", suite_valuation_axioms),
        ("substitution oracle", suite_oracle),
        ("field axioms", suite_fields),
        ("subgroup witnesses", suite_subgroups),
        ("artin-schreier residuals", suite_artin_schreier),
        ("certificate round trips", suite_certificates),
    ]
    results = []
    for name, fn in suites:
        rng = random.Random(seed)
        try:
            passed, detail = fn(rng)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"crashed: {exc!r}"
        results.append((name, passed, detail))
    return results
