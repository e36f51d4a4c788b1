"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line (visible with `pytest -s`) and
asserts its stated time budget.  Expected values are frozen from
independent oracles computed inline (brute-force enumeration, Hermite
reduction, exponent arithmetic, lcm decompositions).
"""

import json
import random
import time
from fractions import Fraction

import pytest

from ratval.certificates import (
    ExtensionStep,
    build_defect_tower,
    build_degree_bound,
    build_extension_tower,
    validate_certificate,
)
from ratval.cli import main as cli_main
from ratval.errors import PreconditionError
from ratval.fields import FiniteField, min_poly
from ratval.groups import GroupElement, Subgroup
from ratval.homogeneous import (
    TowerState,
    check_pseudo_cauchy,
    extract_homogeneous_sequence,
    krasner_kummer,
    kummer_conjugate_differences,
)
from ratval.selftest import suite_artin_schreier, suite_oracle, suite_valuation_axioms
from ratval.series import HahnSeries
from ratval.valuations import (
    CenteredValuation,
    PAdicRationals,
    PseudoCauchyValuation,
    SeriesValuedField,
    TAdicRationalFunctions,
    TriviallyValued,
)

F2 = FiniteField(2)
F4 = FiniteField(2, (1, 1, 1))
F9 = FiniteField(3, (1, 0, 1))


def report(num, text):
    print(f"PASS  criterion {num}: {text}")
    return True


def test_criterion_1_valuation_axioms():
    start = time.perf_counter()
    # Q 3-adic, F_2(t) t-adic and F_5 trivially valued, 1000 pairs each
    passed, detail = suite_valuation_axioms(random.Random(101), trials=1000, max_deg=3)
    assert passed, detail
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"time budget exceeded: {elapsed:.1f}s"
    report(1, f"v(fg)=vf+vg and v(f+g)>=min over 3 bases: {detail}, {elapsed:.1f}s")


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    base = PAdicRationals(3)
    families = {
        "gamma=0": GroupElement.of(0),
        "gamma=1": GroupElement.of(1),
        "gamma=1/2": GroupElement.of("1/2"),
        "gamma non-torsion lex": GroupElement.of(0, 1),
    }
    cases = [(base, Fraction(1), gamma) for gamma in families.values()]
    passed, detail = suite_oracle(random.Random(202), trials=200, max_deg=5, cases=cases)
    assert passed, detail
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"time budget exceeded: {elapsed:.1f}s"
    report(2, f"substitution oracle equals the direct evaluation across 4 gamma "
              f"families: {detail}, {elapsed:.1f}s")


def test_criterion_3_defect_tower_certificate():
    start = time.perf_counter()
    schedule = [1, 2, 4, 7, 11]
    for p in (2, 3):
        cert = build_defect_tower(p, schedule, 4, eta_levels=5)
        for j in range(1, 5):
            level = cert.payload["levels"][j - 1]
            expected = -Fraction(p ** schedule[j - 1], p ** schedule[j])
            assert Fraction(level["value"]) == expected
            # witnesses (1/p^j) Z inside the generated value group
            assert GroupElement.of(Fraction(1, p ** j)) in Subgroup.generated_by(
                1, Fraction(level["value"])
            )
        for i in range(1, 6):
            assert Fraction(cert.payload["eta_tower"][i - 1]["value"]) == -Fraction(1, p ** i)
    elapsed = time.perf_counter() - start
    assert elapsed < 10, f"time budget exceeded: {elapsed:.1f}s"
    report(3, f"p in {{2,3}}, e=(1,2,4,7,11), depth 4: value(L_j) = -p^(e_j - e_(j+1)) "
              f"and v(eta_i) = -1/p^i for i <= 5, exact, {elapsed:.1f}s")


def test_criterion_4_artin_schreier_residuals():
    start = time.perf_counter()
    passed, detail = suite_artin_schreier(random.Random(404), trials=50)
    assert passed, detail
    elapsed = time.perf_counter() - start
    report(4, f"v(a^p - a - u) = v(u)/p^depth exactly (above the requested bound "
              f"v(u)/p^(depth-1)) for 150 random u over F_2, F_4, F_9, {elapsed:.1f}s")


def test_criterion_5_homogeneous_extraction():
    start = time.perf_counter()
    # value-group variant: z = sum t^(1 - 3^-i), i <= 4 over F_2((t^Z))
    terms = [(Fraction(1) - Fraction(1, 3 ** i), 1) for i in range(1, 5)]
    z = HahnSeries.make(F2, terms, trunc=1)
    seq = extract_homogeneous_sequence(z, TowerState(Subgroup.generated_by(1), 1, 2))
    # Hermite oracle, computed independently of the extraction
    oracle = Subgroup.generated_by(1, *[g for g, _ in terms])
    assert [b.coords[0] for b in oracle.basis()] == [Fraction(1, 81)]
    assert [b.coords[0] for b in seq.final_state.value_subgroup.basis()] == [Fraction(1, 81)]
    pcs = check_pseudo_cauchy(seq.partial_sums(), limit=z)
    assert pcs.ok, pcs.findings
    # residue-tower variant: degrees 2, 4, 8 over F_2 inside F_256
    f256 = FiniteField(2, (1, 0, 1, 1, 1, 0, 0, 0, 1))
    def element_of_degree(d):
        for x in f256.elements():
            if len(min_poly(x)) - 1 == d:
                return x
        raise AssertionError(f"no element of degree {d}")
    cs = [element_of_degree(d) for d in (2, 4, 8)]
    z2 = HahnSeries.make(f256, [(i, c) for i, c in enumerate(cs, start=1)], trunc=4)
    seq2 = extract_homogeneous_sequence(z2, TowerState(Subgroup.generated_by(1), 1, 2))
    assert [inc.state_after.residue_degree for inc in seq2.increments] == [2, 4, 8]
    assert [len(min_poly(c)) - 1 for c in cs] == [2, 4, 8]
    elapsed = time.perf_counter() - start
    assert elapsed < 5, f"time budget exceeded: {elapsed:.1f}s"
    report(5, f"value group (1/81)Z at depth 4 (Hermite oracle) with the pseudo "
              f"Cauchy chain verified; residue tower F_2 in F_4 in F_16 in F_256 "
              f"with min-poly degrees 2,4,8, exact, {elapsed:.1f}s")


def test_criterion_6_degree_lower_bound():
    cert = build_degree_bound(2, [3, 5, 7, 11])
    assert cert.payload["bound"] == 1155
    bounds = [build_degree_bound(2, [3, 5, 7, 11], d).payload["bound"] for d in (1, 2, 3, 4)]
    assert bounds == [3, 15, 105, 1155]
    assert all(a <= b for a, b in zip(bounds, bounds[1:]))
    with pytest.raises(PreconditionError) as err:
        build_degree_bound(2, [3, 4, 5])
    assert "n_2 = 4" in str(err.value) and "coprime" in str(err.value)
    report(6, "p=2, n=(3,5,7,11) gives bound lcm = 1155, monotone in depth "
              "(3, 15, 105, 1155); n=(3,4,...) rejected naming the coprimality "
              "precondition, exact")


def test_criterion_7_krasner_brute_force():
    splittings = {
        2: FiniteField(3),
        3: FiniteField(2, (1, 1, 1)),
        4: FiniteField(3, (1, 0, 1)),
        5: FiniteField(2, (1, 1, 0, 0, 1)),
        6: FiniteField(7),
    }
    total = 0
    for e, field in splittings.items():
        for gamma in (Fraction(-2), Fraction(1), Fraction(3)):
            c = HahnSeries.monomial(field, gamma, 1)
            closed = krasner_kummer(c, e)
            diffs = kummer_conjugate_differences(c, e, field)
            assert len(diffs) == e * (e - 1) // 2  # all pairs, exhaustive
            assert max(diffs) == closed == GroupElement.of(gamma / e)
            total += len(diffs)
    report(7, f"enumerated conjugate-difference maxima equal v(c)/e for Kummer "
              f"e = 2..6 over splitting towers ({total} differences), exhaustive, exact")


def test_criterion_8_trichotomy():
    rng = random.Random(808)
    descriptors = []
    q3 = PAdicRationals(3)
    t2 = TAdicRationalFunctions(F2)
    triv = TriviallyValued(F2)
    gammas_torsion = ["0", "1", "1/2", "1/3", "5/6", "7"]
    for _ in range(40):
        base = rng.choice([q3, t2])
        descriptors.append(
            CenteredValuation(base, base.element(0), GroupElement.of(rng.choice(gammas_torsion)))
        )
    for _ in range(30):
        base = rng.choice([q3, t2, triv])
        coords = (Fraction(rng.randint(0, 3)), Fraction(rng.randint(1, 3)))
        descriptors.append(CenteredValuation(base, base.element(0), GroupElement(coords)))
    series_base = SeriesValuedField(F2)
    for _ in range(30):
        n0 = rng.randint(2, 4)
        elems = [
            HahnSeries.make(
                F2,
                [(Fraction(1) - Fraction(1, n0 ** j), 1) for j in range(1, i + 1)],
                trunc=1,
            )
            for i in range(1, 5)
        ]
        descriptors.append(PseudoCauchyValuation(series_base, elems))
    assert len(descriptors) == 100
    seen = set()
    for d in descriptors:
        flags = d.trichotomy_flags()
        assert sum(flags) == 1  # mutually exclusive and exhaustive
        label = d.classify()
        expected = ["value-transcendental", "residue-transcendental",
                    "valuation-algebraic"][flags.index(True)]
        assert label == expected
        seen.add(label)
    assert seen == {"value-transcendental", "residue-transcendental", "valuation-algebraic"}
    report(8, "classification of 100 generated descriptors is exhaustive and "
              "mutually exclusive across the three cases")


def test_criterion_9_fundamental_inequality_ledger():
    towers = [
        (3, [ExtensionStep("kummer", alpha=Fraction(1, 2))]),
        (2, [ExtensionStep("residue", modulus=(1, 1, 1))]),
        (2, [ExtensionStep("artin-schreier", c_exponent=Fraction(-1))]),
        (2, [ExtensionStep("artin-schreier", c_exponent=Fraction(-2))]),
        (2, [ExtensionStep("kummer", alpha=Fraction(1, 3)),
             ExtensionStep("residue", modulus=(1, 1, 1)),
             ExtensionStep("artin-schreier", c_exponent=Fraction(-1))]),
        (5, [ExtensionStep("kummer", alpha=Fraction(1, 2)),
             ExtensionStep("kummer", alpha=Fraction(1, 6))]),
    ]
    for p, steps in towers:
        tower, cert = build_extension_tower(p, steps)
        totals = cert.payload["totals"]
        n = totals["degree"]
        assert n >= totals["e"] * totals["f"]  # fundamental inequality
        prod_e = prod_f = prod_n = 1
        for s in cert.payload["steps"]:
            prod_e *= s["e"]
            prod_f *= s["f"]
            prod_n *= s["degree"]
        assert (prod_e, prod_f, prod_n) == (totals["e"], totals["f"], n)
        assert validate_certificate(cert).ok
    report(9, f"{len(towers)} towers: sum e_i f_i <= n with multiplicative "
              "(e, f) accounting, exact")


def test_criterion_10_certificate_round_trips(tmp_path):
    jobs = {
        "piltant": {"task": "piltant", "p": 2, "e": [1, 2, 4, 7, 11], "depth": 4},
        "degree-bound": {"task": "degree-bound", "p": 2, "n": [3, 5, 7]},
        "extension-step": {
            "task": "extension-step", "p": 2,
            "steps": [{"kind": "kummer", "alpha": "1/3"},
                      {"kind": "residue", "modulus": [1, 1, 1]}],
        },
        "classify": {
            "task": "classify",
            "valuation": {"kind": "vag", "base": {"kind": "p-adic", "p": 3},
                          "center": "0", "gamma": ["1/2"]},
        },
    }
    for name, job in jobs.items():
        cert_path = tmp_path / f"{name}.json"
        job = dict(job, output=str(cert_path))
        job_path = tmp_path / f"{name}-job.json"
        job_path.write_text(json.dumps(job))
        assert cli_main(["run", str(job_path)]) == 0
        assert cli_main(["recheck", str(cert_path)]) == 0
        # tamper: flip one leaf value deep in the certificate
        data = json.loads(cert_path.read_text())
        cert = data["certificate"]
        if name == "piltant":
            cert["levels"][0]["value"] = "-1/4"
        elif name == "degree-bound":
            cert["bound"] = 106
        elif name == "extension-step":
            cert["totals"]["degree"] = 9
        else:
            cert["trichotomy_flags"] = [True, False, False]
        bad_path = tmp_path / f"{name}-bad.json"
        bad_path.write_text(json.dumps(data))
        assert cli_main(["recheck", str(bad_path)]) == 1
    report(10, "run then recheck passes and tampered certificates fail for all "
               "four certificate-emitting tasks")
