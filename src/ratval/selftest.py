"""Seeded property suites for the `ratval selftest` verb.

Compact versions of the invariants the full pytest suite checks: exact
valuation axioms, oracle equivalence, field axioms, subgroup witness
arithmetic, Artin-Schreier residuals, and certificate round trips.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .certificates import build_defect_tower, build_degree_bound, validate_certificate
from .fields import FiniteField, RATIONALS
from .groups import GroupElement, Subgroup
from .series import HahnSeries, artin_schreier_root
from .valuations import (
    CenteredValuation,
    PAdicRationals,
    RationalFunction,
    TAdicRationalFunctions,
    TriviallyValued,
    _is_zero,
    substitution_value,
)


def _random_poly(base, rng, max_deg=4):
    while True:
        coeffs = [base.sample(rng) for _ in range(rng.randint(1, max_deg + 1))]
        f = RationalFunction.over(base, coeffs)
        if not f.is_zero():
            return list(f.num)


def _suite_valuation_axioms(rng) -> tuple[bool, str]:
    bases = [
        (PAdicRationals(3), GroupElement.of(1)),
        (TAdicRationalFunctions(FiniteField(2)), GroupElement.of("1/2")),
        (TriviallyValued(FiniteField(5)), GroupElement.of(1)),
    ]
    trials = 0
    for base, gamma in bases:
        valn = CenteredValuation(base, base.element(0), gamma)
        for _ in range(200):
            f = _random_poly(base, rng)
            g = _random_poly(base, rng)
            prod = _poly_mul(f, g, base)
            if valn.of_poly(prod) != valn.of_poly(f) + valn.of_poly(g):
                return False, "multiplicativity failed"
            s = _poly_add(f, g, base)
            if not s:
                continue  # f + g == 0
            if not valn.of_poly(s) >= min(valn.of_poly(f), valn.of_poly(g)):
                return False, "ultrametric inequality failed"
            trials += 1
    return True, f"{trials} random pairs, exact"


def _poly_mul(f, g, base):
    out = [base.zero()] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return out


def _poly_add(f, g, base):
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else base.zero()
        b = g[i] if i < len(g) else base.zero()
        out.append(a + b)
    while out and _is_zero(out[-1]):
        out.pop()
    return out


def _suite_oracle(rng) -> tuple[bool, str]:
    base = PAdicRationals(3)
    gammas = [GroupElement.of(0), GroupElement.of(1), GroupElement.of("1/2"),
              GroupElement.of(0, 1)]
    count = 0
    for gamma in gammas:
        valn = CenteredValuation(base, Fraction(rng.randint(-3, 3)), gamma)
        for _ in range(50):
            num = _random_poly(base, rng)
            den = _random_poly(base, rng)
            direct = valn.of_fraction(RationalFunction(tuple(num), tuple(den)))
            if substitution_value(valn, num, den) != direct:
                return False, "oracle disagreement"
            count += 1
    return True, f"{count} rational functions, exact"


def _suite_fields(rng) -> tuple[bool, str]:
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


def _suite_subgroups(rng) -> tuple[bool, str]:
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


def _suite_artin_schreier(rng) -> tuple[bool, str]:
    for field in (FiniteField(2), FiniteField(2, (1, 1, 1)), FiniteField(3, (1, 0, 1))):
        p = field.characteristic
        for _ in range(20):
            terms = []
            for _ in range(rng.randint(1, 3)):
                expo = Fraction(-rng.randint(1, 8), rng.choice([1, 2, 4]))
                terms.append((GroupElement.of(expo), field.sample(rng)))
            u = HahnSeries.make(field, terms)
            if u.is_zero() or not u.value() < GroupElement.zero(1):
                continue
            depth = rng.randint(1, 4)
            a = artin_schreier_root(u, depth)
            resid = (a ** p) - a - u
            expected = u.value().scaled(Fraction(1, p ** depth))
            if a.value() != u.value().scaled(Fraction(1, p)):
                return False, "v(a) != v(u)/p"
            if resid.value() != expected:
                return False, "residual value mismatch"
    return True, "residual value v(u)/p^depth exact on random inputs"


def _suite_certificates(rng) -> tuple[bool, str]:
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
        ("valuation axioms", _suite_valuation_axioms),
        ("substitution oracle", _suite_oracle),
        ("field axioms", _suite_fields),
        ("subgroup witnesses", _suite_subgroups),
        ("artin-schreier residuals", _suite_artin_schreier),
        ("certificate round trips", _suite_certificates),
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
