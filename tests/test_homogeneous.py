import math
import random
from fractions import Fraction

import pytest

from ratval import homogeneous
from ratval.errors import PreconditionError
from ratval.fields import FiniteField, min_poly, min_poly_degree
from ratval.groups import GroupElement, Subgroup
from ratval.homogeneous import (
    ApproxStep,
    HomogIncrement,
    HomogeneousSequence,
    TowerState,
    check_pseudo_cauchy,
    extract_homogeneous_sequence,
    homogeneous_approximation,
    implicit_constant_report,
    krasner_artin_schreier,
    krasner_kummer,
    kummer_conjugate_differences,
    strongly_homogeneous_test,
    verify_sequence,
)
from ratval.series import HahnSeries

F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, (1, 1, 1))
Z = Subgroup.generated_by(1)


def state(char=2, degree=1, group=Z):
    return TowerState(group, degree, char)


class TestKrasnerConstants:
    def test_artin_schreier_is_zero(self):
        u = HahnSeries.monomial(F2, -1, 1)
        assert krasner_artin_schreier(u) == GroupElement.zero(1)

    def test_artin_schreier_extended_exponent(self):
        u = HahnSeries.monomial(F2, Fraction(-1, 4), 1)
        assert krasner_artin_schreier(u) == GroupElement.zero(1)

    def test_artin_schreier_needs_negative_value(self):
        with pytest.raises(PreconditionError):
            krasner_artin_schreier(HahnSeries.monomial(F2, 1, 1))

    def test_kummer_value_over_e(self):
        c = HahnSeries.monomial(F4, 1, F4.one())
        assert krasner_kummer(c, 3) == GroupElement.of("1/3")

    def test_kummer_rejects_index_divisible_by_p(self):
        with pytest.raises(PreconditionError):
            krasner_kummer(HahnSeries.monomial(F2, 1, 1), 2)

    # splitting fields with e distinct e-th roots of unity, e <= 6
    @pytest.mark.parametrize("e,splitting", [
        (1, FiniteField(3)),
        (2, FiniteField(3)),
        (3, FiniteField(2, (1, 1, 1))),          # F_4
        (4, FiniteField(3, (1, 0, 1))),          # F_9
        (5, FiniteField(2, (1, 1, 0, 0, 1))),    # F_16
        (6, FiniteField(7)),
    ])
    def test_brute_force_conjugate_oracle(self, e, splitting):
        rng = random.Random(e)
        for _ in range(5):
            gamma = GroupElement.of(Fraction(rng.randint(-6, 6)))
            c = HahnSeries.monomial(splitting, gamma, 1)
            closed_form = krasner_kummer(c, e)
            if e == 1:
                # a single conjugate: no differences to enumerate
                assert kummer_conjugate_differences(c, e, splitting) == []
                continue
            diffs = kummer_conjugate_differences(c, e, splitting)
            assert len(diffs) == e * (e - 1) // 2
            assert max(diffs) == closed_form
            assert all(v == closed_form for v in diffs)

    def test_oracle_needs_roots_of_unity(self):
        c = HahnSeries.monomial(F2, 1, 1)
        with pytest.raises(PreconditionError):
            kummer_conjugate_differences(c, 3, F2)  # F_2 lacks cube roots of unity


class TestStrongHomogeneity:
    def test_cube_root_of_t(self):
        w = strongly_homogeneous_test(HahnSeries.monomial(F2, Fraction(1, 3), 1), state())
        assert w.ok and (w.e, w.f) == (3, 1)

    def test_residue_generator(self):
        w = strongly_homogeneous_test(HahnSeries.monomial(F4, 1, F4.gen()), state())
        assert w.ok and (w.e, w.f) == (1, 2)

    def test_wild_index_fails(self):
        w = strongly_homogeneous_test(HahnSeries.monomial(F2, Fraction(1, 2), 1), state())
        assert not w.ok and w.e == 2

    def test_element_of_the_field_fails(self):
        w = strongly_homogeneous_test(HahnSeries.monomial(F2, 1, 1), state())
        assert not w.ok and (w.e, w.f) == (1, 1)

    def test_mixed_step_uses_power_residue(self):
        # c*t^(1/3) with c of degree 2: f determined by c^3
        f16 = FiniteField(2, (1, 1, 0, 0, 1))
        c = next(x for x in f16.elements() if min_poly_degree(x) == 2)
        w = strongly_homogeneous_test(HahnSeries.monomial(f16, Fraction(1, 3), c), state())
        assert w.ok and w.e == 3
        assert w.f == min_poly_degree(c ** 3)


class TestHomogeneousApproximation:
    def test_novel_exponent(self):
        b = HahnSeries.make(F2, [(Fraction(1, 3), 1), (1, 1)])
        step = homogeneous_approximation(b, state())
        assert step is not None
        assert step.partial_sum == HahnSeries.make(F2, [(Fraction(1, 3), 1)],
                                                   trunc=b.trunc)
        assert (step.witness.e, step.witness.f) == (3, 1)
        assert step.kras == GroupElement.of("1/3")

    def test_everything_captured(self):
        b = HahnSeries.make(F2, [(0, 1), (1, 1)])
        assert homogeneous_approximation(b, state()) is None

    def test_outside_tame_scope(self):
        with pytest.raises(PreconditionError, match="tame"):
            homogeneous_approximation(HahnSeries.monomial(F3, Fraction(1, 3), 1),
                                      state(char=3))


class TestExtraction:
    def test_value_group_example(self):
        # z = sum t^(1 - 3^-i), i <= 4: group Z + sum Z(1 - 3^-i) = (1/81) Z
        terms = [(Fraction(1) - Fraction(1, 3 ** i), 1) for i in range(1, 5)]
        z = HahnSeries.make(F2, terms, trunc=1)
        seq = extract_homogeneous_sequence(z, state())
        assert len(seq.increments) == 4
        # Hermite oracle: the generated group collapses to <1/81>
        expected = Subgroup.generated_by(
            1, *[Fraction(1) - Fraction(1, 3 ** i) for i in range(1, 5)]
        )
        assert [b.coords[0] for b in expected.basis()] == [Fraction(1, 81)]
        assert [b.coords[0] for b in seq.final_state.value_subgroup.basis()] == [Fraction(1, 81)]
        assert seq.degree_lower_bound() == 81
        assert verify_sequence(seq, z) == []

    def test_residue_tower_example(self):
        # coefficients of degrees 2, 4, 8 over F_2 inside F_256
        f256 = FiniteField(2, (1, 0, 1, 1, 1, 0, 0, 0, 1))
        cs = [next(x for x in f256.elements() if min_poly_degree(x) == d) for d in (2, 4, 8)]
        z = HahnSeries.make(f256, [(i, c) for i, c in enumerate(cs, start=1)], trunc=4)
        seq = extract_homogeneous_sequence(z, TowerState(Z, 1, 2))
        assert [inc.f for inc in seq.increments] == [2, 2, 2]
        assert [inc.state_after.residue_degree for inc in seq.increments] == [2, 4, 8]
        # degrees confirmed by minimal polynomials
        assert [len(min_poly(c)) - 1 for c in cs] == [2, 4, 8]
        report = implicit_constant_report(seq, z)
        assert report["residue_field_tower"] == [1, 2, 4, 8]
        assert report["degree_lower_bound"] == 8

    def test_nothing_new(self):
        z = HahnSeries.make(F2, [(1, 1), (2, 1)])
        seq = extract_homogeneous_sequence(z, state())
        assert seq.increments == ()
        assert seq.exhausted
        report = implicit_constant_report(seq, z)
        assert report["degree_lower_bound"] == 1
        assert report["depth"] == 0

    def test_hypothesis_failure_reported_with_index(self):
        z = HahnSeries.make(F2, [(1, 1), (Fraction(1, 2), 1)])
        with pytest.raises(PreconditionError, match="term 0"):
            extract_homogeneous_sequence(z, state())

    def test_pcs_chain_on_extraction(self):
        terms = [(Fraction(1) - Fraction(1, 3 ** i), 1) for i in range(1, 5)]
        z = HahnSeries.make(F2, terms, trunc=1)
        seq = extract_homogeneous_sequence(z, state())
        report = check_pseudo_cauchy(seq.partial_sums(), limit=z)
        assert report.ok, report.findings

    def test_depth_bounded_extraction(self):
        terms = [(Fraction(1) - Fraction(1, 3 ** i), 1) for i in range(1, 5)]
        z = HahnSeries.make(F2, terms, trunc=1)
        seq = extract_homogeneous_sequence(z, state(), max_steps=2)
        assert len(seq.increments) == 2
        assert not seq.exhausted


class TestPseudoCauchyChecks:
    def make_partial_sums(self, n=5):
        terms = [(Fraction(1) - Fraction(1, 3 ** j), 1) for j in range(1, n + 1)]
        return [HahnSeries.make(F2, terms[:i], trunc=1) for i in range(1, n + 1)]

    def test_partial_sums_with_limit(self):
        sums = self.make_partial_sums(5)
        report = check_pseudo_cauchy(sums[:4], limit=sums[4])
        assert report.ok
        assert [v.coords[0] for v in report.difference_values] == [
            Fraction(8, 9), Fraction(26, 27), Fraction(80, 81)
        ]

    def test_constant_sequence_fails(self):
        a = HahnSeries.monomial(F2, 1, 1)
        report = check_pseudo_cauchy([a, a, a])
        assert not report.ok

    def test_wrong_limit_detected(self):
        sums = self.make_partial_sums(4)
        bad_limit = HahnSeries.monomial(F2, 5, 1)
        report = check_pseudo_cauchy(sums[:3], limit=bad_limit)
        assert not report.ok
        assert any("pseudo limit" in f for f in report.findings)


# ---------------------------------------------------------------------------
# the former rescanning extraction, kept as a reference

def _ref_captures(state, gamma, coeff):
    if gamma not in state.value_subgroup:
        return False
    if state.residue_char == 0:
        return True
    return state.residue_degree % min_poly_degree(coeff) == 0


def _ref_extended(state, gamma, coeff_power):
    new_group = state.value_subgroup.extended(gamma)
    if state.residue_char == 0:
        new_deg = 1
    else:
        new_deg = math.lcm(state.residue_degree, min_poly_degree(coeff_power))
    return TowerState(new_group, new_deg, state.residue_char)


def _ref_approximation(b, st):
    if b.is_zero():
        return None
    for idx, (gamma, coeff) in enumerate(b.terms):
        if _ref_captures(st, gamma, coeff):
            continue
        mono = HahnSeries.monomial(b.field, gamma, coeff, rank=b.rank)
        witness = strongly_homogeneous_test(mono, st)
        if not witness.ok:
            raise PreconditionError(f"outside tame scope at term {idx}: {witness.reason}")
        partial = HahnSeries.make(b.field, b.terms[: idx + 1], b.trunc, b.rank)
        return ApproxStep(idx, partial, gamma, coeff, witness)
    return None


def _ref_extract(z, st, max_steps=None):
    base_state = st
    p = st.residue_char
    for idx, (gamma, _coeff) in enumerate(z.terms):
        e0 = base_state.value_subgroup.torsion_order(gamma)
        if e0 is None:
            raise PreconditionError(
                f"hypothesis failure at term {idx}: exponent {gamma!r} outside "
                "the rational span of the base value group"
            )
        if p and e0 % p == 0:
            raise PreconditionError(
                f"hypothesis failure at term {idx}: torsion order {e0} of "
                f"{gamma!r} is divisible by the residue characteristic {p}"
            )
    increments = []
    exhausted = False
    while max_steps is None or len(increments) < max_steps:
        step = _ref_approximation(z, st)
        if step is None:
            exhausted = True
            break
        st = _ref_extended(st, step.exponent, step.coeff ** step.witness.e)
        increments.append(HomogIncrement(
            index=len(increments) + 1, term_index=step.term_index,
            partial_sum=step.partial_sum, exponent=step.exponent, coeff=step.coeff,
            family="kummer-monomial", kras=step.kras, e=step.witness.e,
            f=step.witness.f, state_after=st,
        ))
    return HomogeneousSequence(base_state, tuple(increments), st, exhausted)


F16 = FiniteField(2, (1, 1, 0, 0, 1))


def _random_series(rng, field):
    """A series over the field whose exponents have odd denominators
    (tame over Z in characteristic 2), with coefficients drawn from
    the prime field or the whole field."""
    nonzero = [c for c in field.elements() if not c.is_zero()]
    terms = {}
    for _ in range(rng.randint(1, 7)):
        expo = Fraction(rng.randint(-4, 12), rng.choice((1, 1, 3, 5, 15)))
        coeff = field.one() if rng.random() < 0.3 else rng.choice(nonzero)
        terms[expo] = coeff
    return HahnSeries.make(field, sorted(terms.items()), trunc=5)


class TestOnePassAgainstRescan:
    @pytest.mark.parametrize("field", [F2, F4, F16], ids=["F2", "F4", "F16"])
    def test_agrees_with_the_rescanning_reference(self, field):
        rng = random.Random(20261018 + field.degree)
        seen = set()
        for _ in range(60):
            z = _random_series(rng, field)
            full = extract_homogeneous_sequence(z, state())
            taken = {inc.term_index for inc in full.increments}
            for i, (_, c) in enumerate(z.terms):
                if i not in taken:
                    # a captured coefficient outside F_2 repeats an adjoined residue
                    seen.add("repeated residue" if min_poly_degree(c) > 1 else "captured")
            for inc in full.increments:
                seen.add("novel exponent" if inc.e > 1 else "novel residue")
            n_inc = len(full.increments)
            for max_steps in (None, *range(n_inc + 2)):
                if max_steps is not None:
                    seen.add("max_steps below" if max_steps < n_inc else
                             "max_steps above" if max_steps > n_inc else "max_steps equal")
                ref = _ref_extract(z, state(), max_steps)
                new = extract_homogeneous_sequence(z, state(), max_steps)
                implicit_constant_report(new, z)  # re-verifies; raises on a fault
                terms = [inc.term_index for inc in ref.increments]
                repeat = next((k for k in range(1, len(terms)) if terms[k] == terms[k - 1]), None)
                if repeat is None:
                    assert new == ref
                    continue
                # the reference re-tests an increment's own term when c^e has
                # a smaller residue degree than c, and adjoins the same partial
                # sum twice; its sequence then fails its own re-verification
                seen.add("reference repeats a term")
                assert new.increments[:repeat] == ref.increments[:repeat]
                assert verify_sequence(ref, z)
        expected = {"captured", "novel exponent", "max_steps below", "max_steps equal",
                    "max_steps above"}
        if field is not F2:
            expected |= {"novel residue", "repeated residue", "reference repeats a term"}
        assert expected <= seen

    def test_residue_lost_to_the_power_is_not_adjoined_twice(self):
        # w t^(1/3) over F_4: (w t^(1/3))^3 = t has residue 1, so the step is
        # (e, f) = (3, 1) and the residue w is not in the generated field
        w = F4.gen()
        z = HahnSeries.make(F4, [(Fraction(1, 3), w), (1, 1)], trunc=2)
        seq = extract_homogeneous_sequence(z, state())
        assert [(inc.term_index, inc.e, inc.f) for inc in seq.increments] == [(0, 3, 1)]
        assert seq.exhausted
        assert verify_sequence(seq, z) == []
        assert [(inc.term_index, inc.e, inc.f) for inc in _ref_extract(z, state()).increments] \
            == [(0, 3, 1), (0, 1, 2)]

    @pytest.mark.parametrize("field", [F2, F4, F16], ids=["F2", "F4", "F16"])
    def test_one_homogeneity_test_per_term(self, field, monkeypatch):
        # at most one test per term, and no membership query beyond it
        calls = {"test": 0, "witness": 0}
        test, witness = homogeneous.strongly_homogeneous_test, Subgroup.witness

        def counting_test(*args):
            calls["test"] += 1
            return test(*args)

        def counting_witness(*args):
            calls["witness"] += 1
            return witness(*args)

        monkeypatch.setattr(homogeneous, "strongly_homogeneous_test", counting_test)
        monkeypatch.setattr(Subgroup, "witness", counting_witness)
        rng = random.Random(7 + field.degree)
        for _ in range(40):
            z = _random_series(rng, field)
            calls.update(test=0, witness=0)
            seq = extract_homogeneous_sequence(z, state())
            assert seq.exhausted
            assert calls["test"] == len(z.terms)
            assert calls["witness"] == 0
