import json
import math
import pathlib
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ratval import certificates
from ratval.certificates import (
    Certificate,
    ExtensionStep,
    ExtensionTower,
    build_defect_tower,
    build_degree_bound,
    build_extension_step,
    build_extension_tower,
    build_ic_valuation,
    classification_certificate,
    ValidationResult,
    validate_certificate,
)
from ratval.errors import InternalError, PreconditionError
from ratval.fields import FiniteField
from ratval.groups import GroupElement, Subgroup
from ratval.valuations import (
    RESIDUE_TRANSCENDENTAL,
    VALUE_TRANSCENDENTAL,
    CenteredValuation,
    PAdicRationals,
    PseudoCauchyValuation,
    SeriesValuedField,
)
from ratval.series import HahnSeries


def tamper(cert: Certificate, path: list, value):
    data = json.loads(json.dumps(cert.to_dict()))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


class TestDefectTower:
    @pytest.mark.parametrize("p", [2, 3])
    def test_levels_and_eta(self, p):
        cert = build_defect_tower(p, [1, 2, 4, 7, 11], 4)
        values = [Fraction(l["value"]) for l in cert.payload["levels"]]
        sched = [1, 2, 4, 7, 11]
        assert values == [
            -Fraction(p ** sched[j - 1], p ** sched[j]) for j in range(1, 5)
        ]
        eta = [Fraction(e["value"]) for e in cert.payload["eta_tower"]]
        assert eta == [Fraction(-1, p ** i) for i in range(1, 6)]

    def test_exponent_set_oracle(self):
        # direct exponent arithmetic, no series ops at all
        p, sched = 2, [1, 2, 4, 7, 11]
        cert = build_defect_tower(p, sched, 4)
        trunc = -Fraction(1, p ** (sched[-1] + len(sched)))
        for j, level in enumerate(cert.payload["levels"], start=1):
            e_j = sched[j - 1]
            expected = sorted(
                -Fraction(p ** e_j, p ** sched[i - 1])
                for i in range(j + 1, len(sched) + 1)
                if -Fraction(p ** e_j, p ** sched[i - 1]) < p ** e_j * trunc
            )
            assert [Fraction(v) for v in level["witness_exponents"]] == expected

    def test_grants_denominators(self):
        cert = build_defect_tower(2, [1, 2, 4, 7, 11], 4)
        for j, level in enumerate(cert.payload["levels"], start=1):
            group = Subgroup.generated_by(1, Fraction(level["value"]))
            assert GroupElement.of(Fraction(1, 2 ** j)) in group

    def test_schedule_violation(self):
        with pytest.raises(PreconditionError, match="schedule violation"):
            build_defect_tower(2, [1, 2, 3], 2)

    def test_depth_beyond_witnesses(self):
        with pytest.raises(PreconditionError, match="too shallow"):
            build_defect_tower(2, [1, 2, 4], 3)

    def test_variant_multiplier_schedules(self):
        # exponents n_i * p^(-e_i) strictly increasing, n_i odd
        cert = build_defect_tower(2, [1, 2, 4, 7], 3, multipliers=[1, 3, 13, 115])
        values = [Fraction(l["value"]) for l in cert.payload["levels"]]
        assert values == [Fraction(3, 2), Fraction(13, 4), Fraction(115, 8)]
        assert validate_certificate(cert).ok

    def test_variant_small_odd_multipliers(self):
        # n = (1, 3, 5) over a constant exponent schedule: the shifted
        # identity still pins every level value to n_(j+1) * p^(e_j - e_(j+1))
        cert = build_defect_tower(2, [1, 1, 1], 2, multipliers=[1, 3, 5])
        assert [Fraction(l["value"]) for l in cert.payload["levels"]] == [3, 5]
        assert validate_certificate(cert).ok

    def test_variant_cofinal_support(self):
        # exponents i - p^(-e_i), written as (i * p^e_i - 1) * p^(-e_i)
        p, sched = 2, [1, 2, 4, 7]
        mults = [i * p ** e - 1 for i, e in enumerate(sched, start=1)]
        cert = build_defect_tower(p, sched, 3, multipliers=mults)
        assert validate_certificate(cert).ok

    def test_explicit_default_multipliers(self):
        # n_i = -1 throughout is the default shape, given or not: the growth
        # rule and the truncation apply, as the validator assumes
        sched = [1, 2, 4, 7, 11]
        assert build_defect_tower(2, sched, 4, multipliers=[-1] * 5) == build_defect_tower(2, sched, 4)
        with pytest.raises(PreconditionError, match="schedule violation at position 3"):
            build_defect_tower(2, [1, 2, 3], 2, multipliers=[-1] * 3)

    def test_decreasing_schedule_with_explicit_multipliers(self):
        # 1/9 < 2/3 increase, but e_2 < e_1 would grant the denominator
        # 3^(e_2 - e_1) = 3^-1: a precondition, for the builder and validator
        with pytest.raises(PreconditionError, match=r"position 2: e_2 = 1 < e_1 = 2"):
            build_defect_tower(3, [2, 1], 1, multipliers=[1, 2])

    def test_even_multiplier_rejected(self):
        with pytest.raises(PreconditionError, match="prime to p"):
            build_defect_tower(2, [1, 2, 4], 2, multipliers=[1, 2, 3])

    def test_schedule_past_the_digit_limit_is_refused_quickly(self):
        """p^(e_max + n) past 4300 digits is refused from the sizes alone: a
        recorded e_5 = 10^30 used to build p^(10^30) and not return, and
        the job e = [1, 2, 4, 7, 10000] at p = 3 ended in a ValueError
        where its rationals were written out."""
        cert = build_defect_tower(2, [1, 2, 4, 7, 11], 4)
        start = time.perf_counter()
        res = validate_certificate(tamper(cert, ["schedule", 4], 10 ** 30))
        assert time.perf_counter() - start < 1
        assert res.findings == (f"schedule too large: p^(e_max + n) = 2^{10 ** 30 + 5} may pass the "
                                "4300-digit limit on the decimal ints of a certificate",)
        with pytest.raises(PreconditionError, match=r"^schedule too large: p\^\(e_max \+ n\) = 3\^10005 "):
            build_defect_tower(3, [1, 2, 4, 7, 10000], 4)
        # the largest schedule at p = 2 that the bound admits builds
        build_defect_tower(2, [1, 2, 4, 7, 7137], 1, eta_levels=1)

    def test_negative_schedule_exponent_is_a_named_finding(self):
        cert = build_defect_tower(2, [1, 2, 4, 7, 11], 4)
        res = validate_certificate(tamper(cert, ["schedule", 0], -1))
        assert res.findings == ("schedule exponent e_1 = -1 must be >= 0",)

    @pytest.mark.parametrize("depth", [0, -3, True, False])
    def test_depth_must_be_a_positive_int(self, depth):
        # depth 0 used to give a certificate with no levels, vacuously valid
        with pytest.raises(PreconditionError, match="must be an int >= 1"):
            build_defect_tower(2, [1, 2, 4, 7, 11], depth)

    @pytest.mark.parametrize("levels, finding", [
        ([], "field 'levels' must be a JSON list of at least one level, got []"),
        ({}, "field 'levels' must be a JSON list, got {}"),
        (None, "field 'levels' must be a JSON list, got null"),
    ], ids=["empty", "object", "null"])
    def test_depth_is_the_number_of_levels(self, levels, finding):
        # the depth is len(levels): no level is depth 0, as the builder refuses
        cert = build_defect_tower(2, [1, 2, 4, 7, 11], 4)
        assert validate_certificate(tamper(cert, ["levels"], levels)).findings == (finding,)

    def test_shallower_depth_is_a_weaker_true_claim(self):
        # the first two levels are the depth-2 certificate; dropping the
        # first level instead leaves a wrong level 1
        cert = build_defect_tower(2, [1, 2, 4, 7, 11], 4)
        shallow = tamper(cert, ["levels"], cert.payload["levels"][:2])
        assert validate_certificate(shallow).ok
        assert shallow == build_defect_tower(2, [1, 2, 4, 7, 11], 2).to_dict()
        assert validate_certificate(tamper(cert, ["levels"], cert.payload["levels"][1:])).findings == (
            "level 1: witness exponents disagree with the schedule formula",)

    @pytest.mark.parametrize("levels, finding", [
        ([0, 1, 0, 1], "level 3: witness exponents disagree with the schedule formula"),
        ([0, 1, 2, 2], "level 4: witness exponents disagree with the schedule formula"),
        ([1, 2, 3, 3], "level 1: witness exponents disagree with the schedule formula"),
    ], ids=["repeated", "duplicated", "shifted"])
    def test_levels_count_up_from_one(self, levels, finding):
        # two witnessed levels recorded twice must not stand for depth 4:
        # the k-th recorded level is checked as level k
        cert = build_defect_tower(2, [1, 2, 4, 7, 11], 4)
        bad = tamper(cert, ["levels"], [cert.payload["levels"][k] for k in levels])
        assert validate_certificate(bad).findings == (finding,)

    @pytest.mark.parametrize("path, value, finding", [
        (["value"], "-1/2", "level 4: recorded value is not the least witness exponent"),
        (["witness_exponents", 0], "-1/2", "level 4: witness exponents disagree with the schedule formula"),
        (["membership_witness"], [0], "level 4: membership witness does not verify"),
        (["grants_denominator_exponent"], 5, "level 4: granted denominator exponent mismatch"),
        (["j"], 4, "unknown field levels[3].j"),
    ], ids=["value", "witness-exponent", "membership-witness", "granted-denominator", "j"])
    def test_last_level_is_checked(self, path, value, finding):
        # every recorded level is checked, the last of four too
        cert = build_defect_tower(2, [1, 2, 4, 7, 11], 4)
        bad = tamper(cert, ["levels", 3, *path], value)
        assert validate_certificate(bad).findings == (finding,)

    def test_round_trip_and_tampering(self):
        cert = build_defect_tower(2, [1, 2, 4, 7, 11], 4)
        assert validate_certificate(cert).ok
        bad = tamper(cert, ["levels", 1, "witness_exponents", 0], "-1/2")
        res = validate_certificate(bad)
        assert not res.ok and "level 2" in res.first_failure()
        inflated = tamper(cert, ["levels"], cert.payload["levels"] * 3)
        assert validate_certificate(inflated).findings == (
            "truncation too shallow to witness level 12: the schedule provides witnesses only up to level 4",)
        wrong_value = tamper(cert, ["levels", 0, "value"], "-1/4")
        assert not validate_certificate(wrong_value).ok

    @pytest.mark.parametrize("mutate", [
        lambda z: z + [0],     # an extra entry that zip used to drop
        lambda z: z + [5],
        lambda z: z[:1],       # a missing entry
        lambda z: [str(z[0])] + z[1:],
        lambda z: "0",
        lambda z: [bool(zi) for zi in z],
    ], ids=["extra-zero", "extra-five", "short", "string-entry", "string", "bools"])
    def test_membership_witness_is_one_int_per_generator(self, mutate):
        cert = build_defect_tower(2, [1, 2, 4, 7, 11], 4)
        for j, level in enumerate(cert.payload["levels"]):
            bad = tamper(cert, ["levels", j, "membership_witness"], mutate(level["membership_witness"]))
            res = validate_certificate(bad)
            assert res.findings == (f"level {j + 1}: membership witness does not verify",)


@st.composite
def _defect_towers(draw):
    """(p, schedule, multipliers, depth): p in 2, 3, 5 with 2-6 schedule
    entries; either the default shape (multipliers None) under the growth
    rule e_(i+1) >= e_i + i, or explicit multipliers prime to p over a
    non-decreasing schedule, chosen so that n_i * p^(-e_i) increases."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(2, 6))
    schedule, mults = [draw(st.integers(0, 3))], None
    if draw(st.booleans()):
        for i in range(1, n):
            schedule.append(schedule[-1] + i + draw(st.integers(0, 2)))
    else:
        mults = [draw(st.integers(-9, 9).filter(lambda m: m % p))]
        for _ in range(1, n):
            d = draw(st.integers(0, 3))
            m = mults[-1] * p ** d + draw(st.integers(1, 2 * p))
            while m % p == 0:
                m += 1
            schedule.append(schedule[-1] + d)
            mults.append(m)
        assume(any(m != -1 for m in mults))
    return p, schedule, mults, draw(st.integers(1, n - 1))


def _recorded_rationals(payload):
    """The paths of every rational a defect-tower certificate records."""
    paths = [["series_truncation"]]
    for j, level in enumerate(payload["levels"]):
        paths.append(["levels", j, "value"])
        paths += [["levels", j, "witness_exponents", k] for k in range(len(level["witness_exponents"]))]
    return paths + [["eta_tower", i, "value"] for i in range(len(payload["eta_tower"]))]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(case=_defect_towers(), delta=st.builds(Fraction, st.integers(1, 7).map(lambda a: a * (-1) ** a),
                                              st.integers(1, 9)))
def test_built_defect_towers_validate_and_pin_every_rational(case, delta):
    """Every defect tower the builder makes validates after a JSON round
    trip; in the default shape, moving any recorded rational (a witness
    exponent, a level value, an eta value or the series truncation) by a
    nonzero delta is a finding."""
    p, schedule, mults, depth = case
    cert = build_defect_tower(p, schedule, depth, eta_levels=3, multipliers=mults)
    data = json.loads(json.dumps(cert.to_dict()))
    assert validate_certificate(data).ok
    if mults is not None:
        return
    for path in _recorded_rationals(cert.payload):
        node = data
        for key in path:
            node = node[key]
        bad = tamper(cert, path, str(Fraction(node) + delta))
        assert not validate_certificate(bad).ok, (path, node, delta)


class TestExtensionTowers:
    def test_kummer_step(self):
        tower, cert = build_extension_tower(3, [ExtensionStep("kummer", alpha=Fraction(1, 2))])
        assert cert.payload["totals"] == {"degree": 2, "e": 2, "f": 1, "defect": 1}
        assert [b.coords[0] for b in tower.value_subgroup.basis()] == [Fraction(1, 2)]
        assert validate_certificate(cert).ok

    def test_residue_step(self):
        tower, cert = build_extension_tower(2, [ExtensionStep("residue", modulus=(1, 1, 1))])
        assert cert.payload["totals"] == {"degree": 2, "e": 1, "f": 2, "defect": 1}
        assert tower.residue_degree == 2
        assert validate_certificate(cert).ok

    def test_artin_schreier_step_value_chain(self):
        tower, cert = build_extension_tower(
            2, [ExtensionStep("artin-schreier", c_exponent=Fraction(-2))]
        )
        step = cert.payload["steps"][0]
        # 0 > v(a^p - c) = v(a) > p v(a) = v(c) on the root, which the record does not carry
        a, c = tower.top_witness, HahnSeries.monomial(FiniteField(2), -2, 1)
        assert GroupElement.zero(1) > ((a ** 2) - c).value() == a.value() == GroupElement.of(-1)
        # c_exponent even: v(a) = -1 stays in Z, so the step is immediate with defect p
        assert step == {"kind": "artin-schreier", "c": "-2", "e": 1, "f": 1, "degree": 2,
                        "defect": 2}
        assert validate_certificate(cert).ok

    def test_artin_schreier_ramified(self):
        tower, cert = build_extension_tower(
            2, [ExtensionStep("artin-schreier", c_exponent=Fraction(-1))]
        )
        step = cert.payload["steps"][0]
        assert (step["e"], step["f"], step["defect"]) == (2, 1, 1)
        assert [b.coords[0] for b in tower.value_subgroup.basis()] == [Fraction(1, 2)]

    def test_multiplicativity_along_towers(self):
        tower, cert = build_extension_tower(
            2,
            [
                ExtensionStep("kummer", alpha=Fraction(1, 3)),
                ExtensionStep("residue", modulus=(1, 1, 1)),
                ExtensionStep("artin-schreier", c_exponent=Fraction(-1)),
            ],
        )
        totals = cert.payload["totals"]
        assert totals == {"degree": 12, "e": 6, "f": 2, "defect": 1}
        assert totals["degree"] == totals["e"] * totals["f"]  # defectless: equality
        assert validate_certificate(cert).ok

    def test_fund_ineq_ledger_on_every_tower(self):
        cases = [
            (3, [ExtensionStep("kummer", alpha=Fraction(1, 2))]),
            (2, [ExtensionStep("residue", modulus=(1, 1, 1)),
                 ExtensionStep("kummer", alpha=Fraction(1, 5))]),
            (2, [ExtensionStep("artin-schreier", c_exponent=Fraction(-2)),
                 ExtensionStep("artin-schreier", c_exponent=Fraction(-1))]),
        ]
        for p, steps in cases:
            tower, cert = build_extension_tower(p, steps)
            totals = cert.payload["totals"]
            assert totals["degree"] >= totals["e"] * totals["f"]
            assert validate_certificate(cert.to_dict()).ok

    def test_kummer_hypothesis_violations(self):
        tower, _ = build_extension_tower(2, [])
        with pytest.raises(PreconditionError, match="already lies"):
            build_extension_step(ExtensionStep("kummer", alpha=Fraction(2)), tower)

    def test_residue_reducible_rejected(self):
        tower, _ = build_extension_tower(2, [])
        with pytest.raises(PreconditionError, match="reducible"):
            build_extension_step(ExtensionStep("residue", modulus=(1, 0, 1)), tower)

    def test_artin_schreier_nonnegative_rejected(self):
        tower, _ = build_extension_tower(2, [])
        with pytest.raises(PreconditionError, match="v\\(c\\) < 0"):
            build_extension_step(ExtensionStep("artin-schreier", c_exponent=Fraction(1)), tower)

    def test_tamper_detection(self):
        _, cert = build_extension_tower(
            2, [ExtensionStep("kummer", alpha=Fraction(1, 3)),
                ExtensionStep("residue", modulus=(1, 1, 1))]
        )
        bad = tamper(cert, ["totals", "degree"], 8)
        assert not validate_certificate(bad).ok
        bad2 = tamper(cert, ["steps", 0, "e"], 5)
        assert not validate_certificate(bad2).ok

    @pytest.mark.parametrize("step", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["x", None, []], ids=["string", "null", "list"])
    def test_unknown_step_kind_is_a_finding(self, step, kind):
        """On the README tower a relabelled step is rejected by name, so
        the Artin-Schreier value chain cannot be skipped by renaming it."""
        _, cert = build_extension_tower(
            2, [ExtensionStep("kummer", alpha=Fraction(1, 3)),
                ExtensionStep("residue", modulus=(1, 1, 1)),
                ExtensionStep("artin-schreier", c_exponent=Fraction(-1))]
        )
        res = validate_certificate(tamper(cert, ["steps", step, "kind"], kind))
        assert res.findings == (f"field 'steps[{step}].kind' must be one of \"kummer\", \"residue\", "
                                f"\"artin-schreier\", got {json.dumps(kind)}",)


    @pytest.mark.parametrize("keys", [["steps"], ["totals"], ["base"], ["steps", "totals", "base"]],
                             ids=["steps", "totals", "base", "steps-totals-base"])
    def test_every_part_of_the_payload_is_read(self, keys):
        data = _readme_tower().to_dict()
        for key in keys:
            del data[key]
        first = next(k for k in ("base", "steps", "totals") if k in keys)
        assert validate_certificate(data).findings == (f"malformed certificate: {first!r}",)

    def test_a_bare_fundamental_inequality_is_not_a_certificate(self):
        data = {"kind": "fundamental-inequality", "schema_version": 5,
                "n": 12, "pairs": [[6, 2]], "sum_ef": 12, "ok": True, "slack": 0, "equality": True}
        assert validate_certificate(data).findings == ("unknown field n",)

    @pytest.mark.parametrize("defect", [0, 2, 12, "1"])
    def test_total_defect_is_degree_over_ef(self, defect):
        res = validate_certificate(tamper(_readme_tower(), ["totals", "defect"], defect))
        assert res.findings == (("total defect is not degree / (e * f)",) if type(defect) is int
                                else ('field \'totals.defect\' must be a JSON integer, got "1"',))

    def test_claimed_ramification_is_derived(self):
        """e = 5 for adjoining t^(1/3) over Z, with degree and totals to
        match, is a finding: the validator derives e from alpha."""
        data = _readme_tower().to_dict()
        data["steps"][0].update(e=5, degree=5)
        data["totals"].update(e=10, degree=20)
        assert validate_certificate(data).findings == ("step 1: e is 5, but the step gives 3",)

    @pytest.mark.parametrize("modulus, finding", [
        ([1, 0, 0, 1], "step 2: modulus [1, 0, 0, 1] is reducible over F_2"),
        ([1, 1, 0, 1], "step 2: f is 2, but the step gives 3"),
        ([1, 1], "step 2: modulus must have degree >= 2 (omit it for the prime field)"),
    ], ids=["reducible", "degree-3", "degree-1"])
    def test_modulus_is_checked(self, modulus, finding):
        res = validate_certificate(tamper(_readme_tower(), ["steps", 1, "modulus"], modulus))
        assert res.findings == (finding,)

    @pytest.mark.parametrize("p", [1, 4, 15])
    def test_residue_char_must_be_prime(self, p):
        _, cert = build_extension_tower(
            3, [ExtensionStep("kummer", alpha=Fraction(1, 2)),
                ExtensionStep("kummer", alpha=Fraction(1, 5))])
        res = validate_certificate(tamper(cert, ["base", "residue_char"], p))
        assert res.findings == (f"{p} is not prime",)

    def test_stray_fields_of_a_relabelled_v2_tower(self):
        """The README tower as schema v2 recorded it, relabelled as v5:
        its fund_ineq and its step witnesses are unknown fields."""
        data = {**README_TOWER_V2, "schema_version": 5}
        assert validate_certificate(data).findings == ("unknown field fund_ineq",)
        del data["fund_ineq"]
        assert validate_certificate(data).findings == ("unknown field steps[0].witness",)


# the README extension-step certificate of schema version 2
README_TOWER_V2 = {
    "kind": "fundamental-inequality", "schema_version": 2,
    "base": {"residue_char": 2, "value_group": [["1"]]},
    "steps": [
        {"kind": "kummer", "alpha": "1/3", "e": 3, "f": 1, "degree": 3, "defect": 1,
         "witness": {"group_index": 3, "root_exponent": "1/3"}},
        {"kind": "residue", "modulus": [1, 1, 1], "e": 1, "f": 2, "degree": 2, "defect": 1,
         "witness": {"residue_degree_after": 2, "residue_degree_before": 1,
                     "root_degree_over_prime": 2}},
        {"kind": "artin-schreier", "e": 2, "f": 1, "degree": 2, "defect": 1,
         "witness": {"chain": {"v_a": "-1/2", "v_a_pow_p_minus_c": "-1/2", "v_c": "-1"}}},
    ],
    "totals": {"degree": 12, "e": 6, "f": 2, "defect": 1},
    "fund_ineq": {"n": 12, "pairs": [[6, 2]], "sum_ef": 12, "ok": True, "slack": 0,
                  "equality": True},
}


def _readme_tower():
    """The README's extension-step certificate: kummer 1/3, residue
    X^2 + X + 1 and artin-schreier -1 over p = 2."""
    return build_extension_tower(
        2, [ExtensionStep("kummer", alpha=Fraction(1, 3)),
            ExtensionStep("residue", modulus=(1, 1, 1)),
            ExtensionStep("artin-schreier", c_exponent=Fraction(-1))])[1]


# moduli over F_2 and F_3 once reduced mod p: irreducible, reducible or of degree 1
MODULI = [(1, 1, 1), (1, 1, 0, 1), (1, 0, 0, 1), (1, 1, 0, 0, 1), (1, 0, 1), (2, 2, 1),
          (1, 2, 0, 1), (1, 1)]


@st.composite
def _tower_steps(draw):
    p = draw(st.sampled_from([2, 3]))
    rational = st.builds(Fraction, st.integers(1, 6), st.sampled_from([1, 2, 3, 4, 5, 6, 9]))
    step = st.one_of(
        st.builds(lambda a, sign: ExtensionStep("kummer", alpha=sign * a), rational,
                  st.sampled_from([1, -1])),
        st.builds(lambda m: ExtensionStep("residue", modulus=m), st.sampled_from(MODULI)),
        st.builds(lambda c: ExtensionStep("artin-schreier", c_exponent=-c), rational))
    gens = draw(st.sampled_from([(1,), (Fraction(1, 2),), (2,), (Fraction(2, 3),)]))
    return p, gens, draw(st.lists(step, min_size=2, max_size=4))


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(case=_tower_steps())
def test_random_towers_validate_with_the_index_and_the_lcm(case):
    """The drawn steps that apply, in turn, make a tower that validates;
    totals.e is the index of the group generated by the base, the alphas
    and the v(c)/p over the base, and totals.f the lcm of the modulus
    degrees."""
    p, gens, drawn = case
    tower, steps = ExtensionTower.over(p, gens), []
    for step in drawn:
        try:
            tower = build_extension_step(step, tower)
        except PreconditionError:
            continue
        steps.append(step)
    _, cert = build_extension_tower(p, steps, gens)
    assert validate_certificate(json.loads(json.dumps(cert.to_dict()))).ok
    base = Subgroup.generated_by(*gens)
    top = Subgroup.generated_by(*gens, *(s.alpha for s in steps if s.kind == "kummer"),
                                *(s.c_exponent / p for s in steps if s.kind == "artin-schreier"))
    degrees = [FiniteField(p, s.modulus).degree for s in steps if s.kind == "residue"]
    assert cert.payload["totals"]["e"] == top.index_over(base)
    assert cert.payload["totals"]["f"] == math.lcm(1, *degrees)


class TestIcValuation:
    def test_kummer_fresh_unit(self):
        tower, _ = build_extension_tower(2, [ExtensionStep("kummer", alpha=Fraction(1, 3))])
        valn, info = build_ic_valuation(tower, 1, "v1")
        assert info["kras"] == "1/3"
        assert info["alpha"] == "1"  # least of {0, 1, 2, ...} dominating 1/3
        assert info["gamma"] == ["1", "1"]
        assert info["classification"] == VALUE_TRANSCENDENTAL
        assert valn.classify() == VALUE_TRANSCENDENTAL

    def test_alpha_in_closed_form(self):
        alpha = Fraction(3 * 10 ** 12 + 1, 3)
        tower, _ = build_extension_tower(2, [ExtensionStep("kummer", alpha=alpha)])
        start = time.perf_counter()
        _, info = build_ic_valuation(tower, 1, "v1")
        assert time.perf_counter() - start < 0.5
        assert info["kras"] == str(alpha)
        assert info["alpha"] == str(10 ** 12 + 1)

    def test_alpha_is_zero_below_a_negative_constant(self):
        tower, _ = build_extension_tower(2, [ExtensionStep("kummer", alpha=Fraction(-7, 3))])
        _, info = build_ic_valuation(tower, 1, "v1")
        assert (info["kras"], info["alpha"]) == ("-7/3", "0")

    def test_artin_schreier_alpha_zero(self):
        tower, _ = build_extension_tower(
            2, [ExtensionStep("artin-schreier", c_exponent=Fraction(-1))]
        )
        valn, info = build_ic_valuation(tower, 1, "v1")
        assert info["kras"] == "0"
        assert info["alpha"] == "0"
        assert valn.gamma > valn.embed_base_value(Fraction(0))

    def test_v2_residue_transcendental(self):
        tower, _ = build_extension_tower(
            2, [ExtensionStep("artin-schreier", c_exponent=Fraction(-1))]
        )
        valn, info = build_ic_valuation(tower, 1, "v2")
        assert info["gamma"] == ["1"]
        assert info["classification"] == RESIDUE_TRANSCENDENTAL

    def test_large_placement(self):
        tower, _ = build_extension_tower(2, [ExtensionStep("kummer", alpha=Fraction(1, 3))])
        valn, info = build_ic_valuation(tower, 1, "v1", placement="large")
        assert info["gamma"] == ["1", "1"]
        assert valn.classify() == VALUE_TRANSCENDENTAL

    def test_bad_placement_is_a_precondition_error(self):
        tower, _ = build_extension_tower(2, [ExtensionStep("kummer", alpha=Fraction(1, 3))])
        with pytest.raises(PreconditionError, match="placement must be 'small' or 'large'"):
            build_ic_valuation(tower, 1, "v1", placement="middle")

    def test_residue_top_rejected(self):
        tower, _ = build_extension_tower(2, [ExtensionStep("residue", modulus=(1, 1, 1))])
        with pytest.raises(PreconditionError, match="Krasner"):
            build_ic_valuation(tower, 1, "v1")

    def test_center_distance_equals_gamma(self):
        # v(x - a) = gamma > kras(a, K), evaluated in the series model
        from ratval.valuations import substitution_value

        tower, _ = build_extension_tower(2, [ExtensionStep("kummer", alpha=Fraction(1, 3))])
        valn, info = build_ic_valuation(tower, 1, "v1")
        poly = [valn.center, valn.base.one()]  # x - a (char 2)
        assert valn.of_poly(poly) == valn.gamma
        assert substitution_value(valn, poly) == valn.gamma
        kras_embedded = valn.embed_base_value(Fraction(info["kras"]))
        assert valn.gamma > kras_embedded


class TestDegreeBound:
    def test_lcm_bound(self):
        cert = build_degree_bound(2, [3, 5, 7])
        assert cert.payload["bound"] == 105
        assert validate_certificate(cert).ok

    def test_acceptance_numbers(self):
        cert = build_degree_bound(2, [3, 5, 7, 11])
        assert cert.payload["bound"] == 1155

    def test_monotone_in_depth(self):
        bounds = [
            build_degree_bound(2, [3, 5, 7, 11], depth).payload["bound"]
            for depth in range(1, 5)
        ]
        assert bounds == sorted(bounds) == [3, 15, 105, 1155]

    def test_perturbation_rejected_with_named_precondition(self):
        with pytest.raises(PreconditionError) as err:
            build_degree_bound(2, [3, 4])
        assert "n_2 = 4" in str(err.value)
        assert "coprime" in str(err.value)

    def test_indices_not_pairwise_coprime(self):
        # increment e_i is lcm(n_1..n_i)/lcm(n_1..n_(i-1)): 3, 5, 3
        cert = build_degree_bound(2, [3, 5, 9])
        assert cert.payload["bound"] == 45
        assert validate_certificate(cert).ok

    def test_index_adding_no_ramification_rejected(self):
        with pytest.raises(PreconditionError) as err:
            build_degree_bound(7, [6, 10, 15])
        assert "n_3 = 15" in str(err.value)

    def test_single_kummer_step(self):
        cert = build_degree_bound(3, [2], 1)
        assert cert.payload["bound"] == 2

    def test_pseudo_cauchy_variant(self):
        cert = build_degree_bound(2, [3, 5, 7])
        variant = cert.payload["pseudo_cauchy_variant"]
        assert variant["exponents"] == ["2/3", "4/5", "6/7"]

    def test_tampering(self):
        cert = build_degree_bound(2, [3, 5, 7])
        assert not validate_certificate(tamper(cert, ["bound"], 104)).ok
        assert not validate_certificate(tamper(cert, ["indices", 1], 4)).ok
        assert not validate_certificate(
            tamper(cert, ["group_index_witness", "hermite_basis"], ["1/104"])
        ).ok

    @pytest.mark.parametrize("value", [-1, 0, False, "0", "1/3", "4/5", 2, None],
                             ids=["-1", "int-0", "false", "str-0", "1/3", "4/5", "2", "null"])
    @pytest.mark.parametrize("position", [0, 2])
    def test_pseudo_cauchy_exponents_are_one_minus_one_over_n(self, position, value):
        cert = build_degree_bound(2, [3, 5, 7])
        res = validate_certificate(tamper(cert, ["pseudo_cauchy_variant", "exponents", position], value))
        assert res.findings == ("pseudo-Cauchy variant exponents are not 1 - 1/n_i",)

    def test_pseudo_cauchy_exponents_have_one_entry_per_index(self):
        cert = build_degree_bound(2, [3, 5, 7])
        res = validate_certificate(tamper(cert, ["pseudo_cauchy_variant", "exponents"],
                                          ["2/3", "4/5", "6/7", "8/9"]))
        assert res.findings == ("pseudo-Cauchy variant exponents are not 1 - 1/n_i",)


class TestClassificationCertificate:
    @pytest.mark.parametrize("build, flags, order", [
        (lambda: _vag_classification(), [False, True, False], 2),
        (lambda: _vt_classification(), [True, False, False], None),
        (lambda: _pcs_classification(), [False, False, True], None),
    ], ids=["torsion", "non-torsion", "pcs"])
    def test_round_trip(self, build, flags, order):
        cert = build()
        assert (cert.payload["trichotomy_flags"], cert.payload["torsion_order"]) == (flags, order)
        assert set(cert.payload) == {"descriptor", "trichotomy_flags", "torsion_order"}
        assert validate_certificate(cert).ok

    @pytest.mark.parametrize("build, value, finding", [
        (lambda: _vag_classification(), 3, "torsion_order is 3, but the descriptor gives 2"),
        (lambda: _vag_classification(), 1, "torsion_order is 1, but the descriptor gives 2"),
        (lambda: _vag_classification(), None, "torsion_order is null, but the descriptor gives 2"),
        (lambda: _vt_classification(), 2, "torsion_order is 2, but the descriptor gives null"),
        (lambda: _pcs_classification(), 1, "torsion_order is 1, but the descriptor gives null"),
        (lambda: _vag_classification(), True, "field 'torsion_order' must be a JSON integer, got true"),
        (lambda: _pcs_classification(), False, "field 'torsion_order' must be a JSON integer, got false"),
        (lambda: _vag_classification(), "2", 'field \'torsion_order\' must be a JSON integer, got "2"'),
        (lambda: _vt_classification(), "null", 'field \'torsion_order\' must be a JSON integer, got "null"'),
    ], ids=["wrong-int", "one", "int-to-null", "null-to-int", "pcs-null-to-int", "true", "pcs-false",
            "string", "string-null"])
    def test_tampered_torsion_order(self, build, value, finding):
        res = validate_certificate(tamper(build(), ["torsion_order"], value))
        assert res.findings == (finding,)

    @pytest.mark.parametrize("build, flags", [
        (lambda: _vag_classification(), [True, False, False]),
        (lambda: _vag_classification(), [False, False, True]),
        (lambda: _vt_classification(), [False, True, False]),
        (lambda: _pcs_classification(), [False, True, False]),
        (lambda: _pcs_classification(), [True, False, False]),
    ], ids=["vag-to-vt", "vag-to-va", "vt-to-rt", "pcs-to-rt", "pcs-to-vt"])
    def test_flags_moved_to_another_case(self, build, flags):
        """Moved with the torsion order left as it is: the flags are the
        first field compared, and the finding names them."""
        cert = build()
        derived = json.dumps(cert.payload["trichotomy_flags"])
        res = validate_certificate(tamper(cert, ["trichotomy_flags"], flags))
        assert res.findings == (f"trichotomy_flags is {json.dumps(flags)}, but the descriptor gives {derived}",)

    def test_v4_certificate_is_an_unknown_version(self):
        """The README classification as schema v4 recorded it: one finding,
        the version, and none for its label or witness."""
        v4 = {"kind": "classification", "schema_version": 4,
              "descriptor": {"base": {"kind": "p-adic", "p": 3}, "center": "0", "gamma": ["1/2"],
                             "kind": "vag"},
              "label": "residue-transcendental", "trichotomy_flags": [False, True, False],
              "witness": {"torsion_order": 2}}
        assert validate_certificate(v4).findings == (
            "unknown schema_version 4; this ratval reads version 5",)

    @pytest.mark.parametrize("path, value", [
        (["trichotomy_flags", 0], None),
        (["trichotomy_flags", 0], []),
        (["trichotomy_flags", 2], {}),
        (["trichotomy_flags", 1], 1),
        (["trichotomy_flags"], [False, True]),
        (["trichotomy_flags"], [False, True, False, False]),
        (["trichotomy_flags"], "ftf"),
    ])
    def test_trichotomy_flags_are_three_booleans(self, path, value):
        cert = tamper(_vag_classification(), path, value)
        shown = json.dumps(cert["trichotomy_flags"])
        assert validate_certificate(cert).findings == (
            f"field 'trichotomy_flags' must be a JSON list of three booleans, got {shown}",)

    @pytest.mark.parametrize("kind", ["mystery", ["classification"], {"kind": "classification"}],
                             ids=["mystery", "list", "object"])
    def test_unknown_kind(self, kind):
        res = validate_certificate({"kind": kind})
        assert not res.ok
        assert res.findings == (f"unknown certificate kind {kind!r}",)


def _pcs_classification():
    f2 = FiniteField(2)
    base = SeriesValuedField(f2)
    elems = [HahnSeries.make(f2, [(Fraction(1) - Fraction(1, 3 ** j), 1) for j in range(1, i + 1)],
                             trunc=1)
             for i in range(1, 4)]
    desc = {"kind": "pcs", "base": base.to_json(), "elements": [a.to_json() for a in elems]}
    return classification_certificate(PseudoCauchyValuation(base, elems), desc)


def _vag_classification():
    base = PAdicRationals(3)
    desc = {"kind": "vag", "base": base.to_json(), "center": "0", "gamma": ["1/2"]}
    return classification_certificate(CenteredValuation(base, 0, GroupElement.of("1/2")), desc)


def _vt_classification():
    # gamma = (1/2, 1) over base values in coordinate 0: non-torsion by rank
    base = PAdicRationals(3)
    desc = {"kind": "vag", "base": base.to_json(), "center": "0", "gamma": ["1/2", "1"]}
    return classification_certificate(
        CenteredValuation(base, 0, GroupElement.of(Fraction(1, 2), 1)), desc)


# (golden, path of a nested object, stray key, its value, the finding's path)
NESTED_STRAYS = [
    ("readme-degree-bound", ["group_index_witness"], "index_over_base", 1155,
     "group_index_witness.index_over_base"),
    ("readme-degree-bound", ["pseudo_cauchy_variant"], "note", "bounded exponents",
     "pseudo_cauchy_variant.note"),
    ("readme-degree-bound", ["pseudo_cauchy_variant"], "bounded", True,
     "pseudo_cauchy_variant.bounded"),
    ("readme-piltant", ["eta_tower", 0], "chain_ok", True, "eta_tower[0].chain_ok"),
    ("readme-piltant", ["levels", 1], "membership_target", "1/4", "levels[1].membership_target"),
    ("readme-piltant", ["levels", 0], "j", 1, "levels[0].j"),
    ("readme-extension-step", ["base"], "residue_degree", 1, "base.residue_degree"),
    ("readme-extension-step", ["totals"], "slack", 0, "totals.slack"),
]


class TestNestedFields:
    """Every nested object of a certificate has a closed key set: a key
    that the object does not have is a finding, whatever its value."""

    @pytest.mark.parametrize("name, path, key, value, where", NESTED_STRAYS,
                             ids=[case[-1] for case in NESTED_STRAYS])
    def test_unknown_nested_key_is_a_finding(self, name, path, key, value, where):
        """The README degree-bound golden with the v2 index_over_base and
        the v4 note of its pseudo Cauchy variant added back, the piltant
        golden with the v2 chain_ok and the v3 level number j added back,
        and a stray key in each other closed object."""
        cert = _golden_certificate(name)
        assert validate_certificate(cert).ok
        node = cert
        for k in path:
            node = node[k]
        node[key] = value
        assert validate_certificate(cert).findings == (f"unknown field {where}",)

    def test_descriptor_is_an_open_subject(self):
        cert = _golden_certificate("readme-classify")
        cert["descriptor"]["comment"] = "x"
        assert validate_certificate(cert).ok

    @pytest.mark.parametrize("key, value, finding", [
        ("kind", "x", 'field \'descriptor.kind\' must be one of "vag", "pcs", got "x"'),
        ("kind", None, 'field \'descriptor.kind\' must be one of "vag", "pcs", got null'),
        *[("center", value, "field 'descriptor.center' must be an exact rational "
           f'(a JSON int or a "num/den" string), got {json.dumps(value)}')
          for value in ("1/0", None, {}, True)],
    ], ids=["kind-x", "kind-null", "center-1/0", "center-null", "center-object", "center-true"])
    def test_ill_formed_descriptor_is_a_finding(self, key, value, finding):
        """The descriptor is read as a job's valuation is: a kind that is
        not "vag" or "pcs" and a center that is not a rational used to
        validate ok, since the validator never read them."""
        cert = _golden_certificate("readme-classify")
        cert["descriptor"][key] = value
        assert validate_certificate(cert).findings == (finding,)

    def test_pseudo_cauchy_descriptor_is_built(self):
        """The descriptor of a pseudo Cauchy classification is read and its
        sequence built: too short a sequence, or a torsion order in place
        of null, is a finding."""
        cert = _pcs_classification().to_dict()
        assert validate_certificate(cert).ok
        short = json.loads(json.dumps(cert))
        del short["descriptor"]["elements"][2]
        assert validate_certificate(short).findings == (
            "descriptor does not build: a pseudo Cauchy descriptor needs at least three elements",)
        cert["torsion_order"] = 2
        assert validate_certificate(cert).findings == (
            "torsion_order is 2, but the descriptor gives null",)

    @pytest.mark.parametrize("order", [None, 2])
    def test_valuation_algebraic_flags_on_a_centered_descriptor_is_a_finding(self, order):
        """A pseudo_cauchy witness used to pass any descriptor as
        valuation-algebraic; the flags of a centered one are derived from
        its gamma, so valuation-algebraic flags on it are a finding."""
        cert = _golden_certificate("readme-classify")
        cert["trichotomy_flags"], cert["torsion_order"] = [False, False, True], order
        assert validate_certificate(cert).findings == (
            "trichotomy_flags is [false, false, true], but the descriptor gives [false, true, false]",)

    @pytest.mark.parametrize("value", [True, False, 1.5])
    def test_gamma_must_be_an_exact_rational(self, value):
        """A bool or a float in the descriptor's gamma is a finding, not
        the rational 1 or 0, and not a raised error."""
        cert = _golden_certificate("readme-classify")
        cert["descriptor"]["gamma"] = [value]
        assert validate_certificate(cert).findings == (
            f"field 'descriptor.gamma[0]' must be an exact rational (a JSON int or a \"num/den\" "
            f"string), got {json.dumps(value)}",)


    @pytest.mark.parametrize("value", [-1, 1.0, True])
    def test_base_coord_must_index_gamma(self, value):
        """The README classification over gamma = (0, 1/2), whose base
        values sit in coordinate 1: base_coord 1 or "1" validates, while -1
        (which used to pick the last coordinate), 1.0 and true (which used
        to be read as 1) are findings."""
        cert = _golden_certificate("readme-classify")
        cert["descriptor"]["gamma"] = ["0", "1/2"]
        for good in (1, "1"):
            cert["descriptor"]["base_coord"] = good
            assert validate_certificate(cert).ok
        cert["descriptor"]["base_coord"] = value
        assert validate_certificate(cert).findings == (
            f"field 'descriptor.base_coord' must be a coordinate index of gamma, 0 to 1, "
            f"got {json.dumps(value)}",)


def _golden_certificate(name):
    golden = pathlib.Path(__file__).parent / "golden" / f"{name}.out"
    return json.loads(golden.read_text())["certificate"]


class TestSelfValidation:
    """Builders return their certificates through validate_certificate; a
    finding on their own output raises InternalError carrying it."""

    @pytest.mark.parametrize("build", [
        lambda: build_defect_tower(2, [1, 2, 4], 2),
        lambda: build_degree_bound(2, [3, 5]),
        lambda: build_extension_tower(3, [ExtensionStep("kummer", alpha=Fraction(1, 2))]),
        _vag_classification,
        _pcs_classification,
    ], ids=["defect-tower", "degree-bound", "extension-tower", "classification",
            "classification-pcs"])
    def test_every_builder_returns_through_the_validator(self, monkeypatch, build):
        build()
        monkeypatch.setattr(certificates, "validate_certificate",
                            lambda cert: ValidationResult(False, ("planted finding",)))
        with pytest.raises(InternalError, match="fails its own validation: planted finding$"):
            build()

    def test_wrong_artin_schreier_root_in_defect_tower(self, monkeypatch):
        # c in place of a root of X^p - X - c: value v(c) instead of v(c)/p
        monkeypatch.setattr(certificates, "artin_schreier_root", lambda c, depth: c)
        with pytest.raises(InternalError) as err:
            build_defect_tower(2, [1, 2, 4, 7, 11], 4)
        assert str(err.value) == ("defect-tower certificate fails its own validation: "
                                  "eta tower: v(eta_1) = -1 is not v(eta_0)/p")

    def test_wrong_artin_schreier_root_in_extension_tower(self, monkeypatch):
        monkeypatch.setattr(certificates, "artin_schreier_root", lambda c, depth: c)
        with pytest.raises(InternalError, match="step 1: value chain does not verify$"):
            build_extension_tower(2, [ExtensionStep("artin-schreier", c_exponent=Fraction(-1))])

    def test_wrong_artin_schreier_root_in_a_direct_step(self, monkeypatch):
        # a = c gives the chain v(a) = -1, v(a^p - c) = -2: the step record
        # is checked before build_extension_step returns it
        monkeypatch.setattr(certificates, "artin_schreier_root", lambda c, depth: c)
        with pytest.raises(InternalError) as err:
            build_extension_step(ExtensionStep("artin-schreier", c_exponent=Fraction(-1)),
                                 ExtensionTower.over(2))
        assert str(err.value) == ("extension step fails its own validation: "
                                  "step 1: value chain does not verify")

    def test_wrong_kummer_root_in_a_direct_step(self, monkeypatch):
        # t^(e alpha) in place of its e-th root: value 1 instead of alpha = 1/3
        monkeypatch.setattr(certificates, "kummer_root",
                            lambda gamma, coeff, e: HahnSeries.monomial(coeff.field, gamma, coeff))
        with pytest.raises(InternalError, match="^the kummer root does not have value alpha$"):
            build_extension_step(ExtensionStep("kummer", alpha=Fraction(1, 3)),
                                 ExtensionTower.over(2))


class TestEnvelope:
    """validate_certificate returns a finding, never raises, for any JSON
    value that is not a certificate of this schema version."""

    @pytest.mark.parametrize("data", [None, 3, "defect-tower", [], [{"kind": "defect-tower"}],
                                      {}, {"p": 2, "schema_version": 1}],
                             ids=["null", "number", "string", "empty-list", "list",
                                  "empty-object", "no-kind"])
    def test_not_an_object_with_a_kind(self, data):
        result = validate_certificate(data)
        assert not result.ok
        assert result.findings == ((f"cannot read {json.dumps(data)} as a JSON object",)
                                   if type(data) is not dict else ("missing the required field 'kind'",))

    @pytest.mark.parametrize("version", [99, 0, pytest.param(1, id="int-1"), pytest.param(3, id="int-3"),
                                         pytest.param(4, id="int-4"), "1", True, None, 1.5])
    def test_unknown_schema_version(self, version):
        result = validate_certificate(tamper(build_degree_bound(2, [3, 5]), ["schema_version"],
                                             version))
        assert not result.ok
        assert result.findings == (f"unknown schema_version {version!r}; "
                                   f"this ratval reads version 5",)

    @pytest.mark.parametrize("increments", [False, True], ids=["as-recorded", "v1-increments"])
    def test_missing_schema_version(self, increments):
        """The README degree-bound golden with its schema_version deleted,
        also with a v1 `increments` whose e is 99, is not read as v5."""
        golden = pathlib.Path(__file__).parent / "golden" / "readme-degree-bound.out"
        cert = json.loads(golden.read_text())["certificate"]
        del cert["schema_version"]
        if increments:
            cert["increments"] = [{"e": 99, "f": 1}]
        result = validate_certificate(cert)
        assert not result.ok
        assert result.findings == ("certificate has no schema_version; this ratval reads version 5",)

    def test_stray_field_is_a_finding(self):
        """A degree bound that still carries the v1 `increments` is not
        read as v5."""
        cert = tamper(build_degree_bound(2, [3, 5]), ["increments"], [{"e": 99, "f": 1}])
        assert validate_certificate(cert).findings == ("unknown field increments",)

    @pytest.mark.parametrize("name, key, value", [
        ("readme-classify", "label", "residue-transcendental"),
        ("readme-classify", "witness", {"torsion_order": 2}),
        ("readme-piltant", "depth", 4),
        ("readme-piltant", "assumptions", ["ambient coefficient field algebraically closed"]),
        ("readme-degree-bound", "statement", "any z with v(z - b_depth) > gamma_depth"),
        ("readme-degree-bound", "model_note", "the p-exponent series model"),
        ("readme-degree-bound", "cauchy", {"note": "the partial sums are Cauchy"}),
    ], ids=["label", "witness", "depth", "assumptions", "statement", "model_note", "cauchy"])
    def test_v4_copy_or_prose_field_is_a_finding(self, name, key, value):
        """A v5 golden with a v4 field that copied a claim, a list length
        or a constant, or held prose, added back."""
        cert = _golden_certificate(name)
        cert[key] = value
        assert validate_certificate(cert).findings == (f"unknown field {key}",)

    def test_version_of_a_certificate_object(self):
        cert = build_degree_bound(2, [3, 5])
        assert validate_certificate(cert).ok
        assert validate_certificate(cert.to_dict()).ok
        assert not validate_certificate(Certificate(cert.kind, cert.payload, 99)).ok


MERSENNE_89 = 2 ** 89 - 1  # a prime above psi_13, which is_prime cannot prove


class TestUnprovablePrime:
    """A p that passes every strong-probable-prime round but lies above
    psi_13 is a named finding, not a raised PreconditionError."""

    @pytest.mark.parametrize("build, path, finding", [
        (lambda: build_defect_tower(2, [1, 2, 4, 7], 3), ["p"], "p cannot be proven prime: "),
        (lambda: build_degree_bound(2, [3, 5, 7]), ["p"], "p cannot be proven prime: "),
        (_vag_classification, ["descriptor", "base", "p"], "descriptor does not build: "),
    ], ids=["defect-tower", "degree-bound", "classification"])
    def test_named_finding(self, build, path, finding):
        result = validate_certificate(tamper(build(), path, MERSENNE_89))
        assert not result.ok
        assert result.findings == (f"{finding}{MERSENNE_89} is a strong probable prime to the "
                                   f"bases 2..41, which proves primality only below "
                                   f"3317044064679887385961981",)

    def test_builders_still_refuse(self):
        for build in (lambda: build_defect_tower(MERSENNE_89, [1, 2, 4, 7], 3),
                      lambda: build_degree_bound(MERSENNE_89, [3, 5, 7])):
            with pytest.raises(PreconditionError, match="cannot be proven prime: .*only below"):
                build()


def _counting_products(monkeypatch) -> list:
    """The term pairs of every HahnSeries product made from now on, one
    entry per product (the eta chain's series are exact, so no row of a
    product stops early)."""
    pairs = []
    mul = HahnSeries.__mul__
    monkeypatch.setattr(HahnSeries, "__mul__", lambda a, b: pairs.append(len(a.keys) * len(b.keys)) or mul(a, b))
    return pairs


class TestEtaLevelsCap:
    """eta_levels is capped by the term pairs that the chain checks would
    multiply, counted from p and eta_levels before any series arithmetic."""

    @pytest.mark.parametrize("p, levels", [(2, 9), (3, 6), (5, 4), (7, 3), (11, 2), (13, 1)])
    def test_the_count_is_the_products_of_the_chain_checks(self, monkeypatch, p, levels):
        monkeypatch.setattr(certificates, "_POWER_GAPS", {})
        pairs = _counting_products(monkeypatch)
        build_defect_tower(p, [1, 2], 1, eta_levels=levels)
        assert list(certificates._eta_chain_pairs(p, levels))[-1] == sum(pairs)

    @pytest.mark.parametrize("p, levels, fit", [(3, 76, 75), (11, 4, 3), (2, 10 ** 9, 329),
                                                (1_000_000_007, 5, 0)])
    def test_past_the_cap_is_refused_before_any_series_arithmetic(self, monkeypatch, p, levels, fit):
        def no_series(*args, **kwargs):
            raise AssertionError("a series was built")

        monkeypatch.setattr(HahnSeries, "make", no_series)
        with pytest.raises(PreconditionError) as err:
            build_defect_tower(p, [1, 2], 1, eta_levels=levels)
        assert str(err.value) == (f"eta_levels {levels} is past the cap at p = {p}: its chain checks "
                                  f"would multiply more than 2000000 term pairs ({fit} levels fit)")

    def test_the_last_level_that_fits_builds(self):
        assert len(build_defect_tower(11, [1, 2], 1, eta_levels=3).payload["eta_tower"]) == 3
        assert build_defect_tower(1_000_000_007, [1, 2], 1, eta_levels=0).payload["eta_tower"] == []

    def test_a_precondition_of_the_tower_comes_first(self):
        with pytest.raises(PreconditionError, match="^schedule violation at position 3"):
            build_defect_tower(11, [1, 2, 3], 2, eta_levels=4)


def _perturbed_roots(monkeypatch):
    """artin_schreier_root plus a term between v(a) and v(a)/p: the root
    keeps its value v(c)/p, but a^p - c takes the value of the new term's
    p-th power, below v(a), so only the chain check can catch it."""
    root = certificates.artin_schreier_root

    def perturbed(c, depth):
        a, p = root(c, depth), c.field.characteristic
        va = a.value()
        between = (va + va.scaled(Fraction(1, p))).scaled(Fraction(1, 2))
        return a + HahnSeries.monomial(c.field, between, 1)

    monkeypatch.setattr(certificates, "artin_schreier_root", perturbed)


class TestPowerGapMemo:
    """_power_gap_value keeps v(a ** p - c) per process under the exact
    stored operands, so a warm memo never hides a wrong root."""

    def test_a_warm_memo_still_catches_a_wrong_root_in_the_defect_tower(self, monkeypatch):
        build_defect_tower(2, [1, 2, 4, 7, 11], 4)
        monkeypatch.setattr(certificates, "artin_schreier_root", lambda c, depth: c)
        with pytest.raises(InternalError) as err:
            build_defect_tower(2, [1, 2, 4, 7, 11], 4)
        assert str(err.value) == ("defect-tower certificate fails its own validation: "
                                  "eta tower: v(eta_1) = -1 is not v(eta_0)/p")
        monkeypatch.undo()
        _perturbed_roots(monkeypatch)
        with pytest.raises(InternalError, match="^eta tower: value chain does not verify at level 1$"):
            build_defect_tower(2, [1, 2, 4, 7, 11], 4)

    def test_a_warm_memo_still_catches_a_wrong_root_in_an_extension_step(self, monkeypatch):
        step = ExtensionStep("artin-schreier", c_exponent=Fraction(-1))
        build_extension_step(step, ExtensionTower.over(2))
        for plant in (lambda: monkeypatch.setattr(certificates, "artin_schreier_root", lambda c, depth: c),
                      lambda: _perturbed_roots(monkeypatch)):
            plant()
            with pytest.raises(InternalError) as err:
                build_extension_step(step, ExtensionTower.over(2))
            assert str(err.value) == ("extension step fails its own validation: "
                                      "step 1: value chain does not verify")
            monkeypatch.undo()

    def test_equals_the_power_on_random_operands_cold_and_warm(self, monkeypatch):
        monkeypatch.setattr(certificates, "_POWER_GAPS", {})
        rng = random.Random(25)
        for _ in range(40):
            a, c, p = _random_operands(rng)
            expected = ((a ** p) - c).value()
            assert certificates._power_gap_value(a, c, p) == expected  # cold
            size = len(certificates._POWER_GAPS)
            assert certificates._power_gap_value(a, c, p) == expected  # warm
            assert len(certificates._POWER_GAPS) == size
            # the same series over another denominator is computed again
            wider = HahnSeries(a.field, a.rank, 2 * a.den, tuple(tuple(2 * x for x in k) for k in a.keys),
                               a.values, None if a.top is None else tuple(2 * x for x in a.top))
            assert wider == a
            assert certificates._power_gap_value(wider, c, p) == expected
            assert len(certificates._POWER_GAPS) == size + 1

    def test_past_its_cap_the_memo_keeps_nothing_and_stays_correct(self, monkeypatch):
        full = {("filler", i): None for i in range(1024)}
        monkeypatch.setattr(certificates, "_POWER_GAPS", full)
        rng = random.Random(26)
        for _ in range(20):
            a, c, p = _random_operands(rng)
            assert certificates._power_gap_value(a, c, p) == ((a ** p) - c).value()
        assert len(full) == 1024 and all(key[0] == "filler" for key in full)
        build_defect_tower(3, [1, 2, 4, 7, 11], 4)
        _perturbed_roots(monkeypatch)
        with pytest.raises(InternalError, match="^eta tower: value chain does not verify at level 1$"):
            build_defect_tower(3, [1, 2, 4, 7, 11], 4)


def _random_operands(rng):
    """(a, c, p): two series over F_p or F_4 with up to four terms, some
    truncated, exponents with denominators up to 9."""
    p = rng.choice([2, 3, 5])
    field = FiniteField(2, [1, 1, 1]) if p == 2 and rng.random() < 0.3 else FiniteField(p)

    def series():
        terms = [(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), field.sample(rng))
                 for _ in range(rng.randint(0, 4))]
        trunc = Fraction(rng.randint(5, 20), rng.randint(1, 3)) if rng.random() < 0.3 else None
        return HahnSeries.make(field, terms, trunc)

    return series(), series(), p
