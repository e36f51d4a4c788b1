"""Krasner constants, homogeneous approximations and homogeneous sequences.

A monomial c*t^g over a henselian series field is strongly homogeneous
when its ramification index e (the torsion order of g over the value
group) is prime to the residue characteristic and the residue of the
normalized e-th power generates the same degree as the element itself;
its Krasner constant then equals its value.  Scanning a power series
once, one such test per term, yields a homogeneous sequence: a term
whose (e, f) is (1, 1) is captured, any other is an increment; the
increments are pseudo Cauchy, sit inside the henselization of the field
generated by the series, and determine its implicit constant field.
All conclusions about infinite sequences are depth-stamped.
"""

from __future__ import annotations

import math

from .errors import InternalError, PreconditionError
from .fields import FieldElement, FiniteField, min_poly_degree
from .groups import GroupElement, Subgroup, _from_key
from .record import Record
from .series import HahnSeries, _field_root

__all__ = [
    "TowerState",
    "krasner_artin_schreier",
    "krasner_kummer",
    "kummer_conjugate_differences",
    "HomogeneityWitness",
    "strongly_homogeneous_test",
    "ApproxStep",
    "homogeneous_approximation",
    "HomogIncrement",
    "HomogeneousSequence",
    "extract_homogeneous_sequence",
    "implicit_constant_report",
    "PcsReport",
    "check_pseudo_cauchy",
]


class TowerState(Record):
    """Generated structure of a field in the series model: value group,
    residue degree over the prime field, residue characteristic."""

    _fields = ("value_subgroup", "residue_degree", "residue_char")

    def __init__(self, value_subgroup: Subgroup, residue_degree: int = 1,
                 residue_char: int = 0) -> None:
        self._set(value_subgroup, residue_degree, residue_char)

    def extended(self, gamma: GroupElement, f: int) -> "TowerState":
        """State after adjoining a strongly homogeneous monomial: the
        value group gains gamma, the residue degree gains the factor f
        of its homogeneity witness."""
        return TowerState(self.value_subgroup.extended(gamma), self.residue_degree * f,
                          self.residue_char)


# ---------------------------------------------------------------------------
# Krasner constants for explicit root families

def krasner_artin_schreier(u: HahnSeries, residue_char: int | None = None) -> GroupElement:
    """Krasner constant of a root of X^p - X - u with v(u) < 0.

    The conjugates of a root differ by prime-field elements, which are
    units of value zero, so the constant is 0.
    """
    p = residue_char if residue_char is not None else u.field.characteristic
    if p == 0:
        raise PreconditionError("Artin-Schreier families need positive residue characteristic")
    v = u.value()
    if v is None or not v < GroupElement.zero(u.rank):
        raise PreconditionError("Artin-Schreier family requires v(u) < 0")
    return GroupElement.zero(u.rank)


def krasner_kummer(c: HahnSeries, e: int) -> GroupElement:
    """Krasner constant of a root of X^e - c for e prime to the residue
    characteristic: the conjugates are zeta^i * a with the unit
    differences zeta^i - zeta^j of value 0, so the constant is
    v(a) = v(c)/e."""
    if e < 1:
        raise PreconditionError("root index must be >= 1")
    p = c.field.characteristic
    if p and e % p == 0:
        raise PreconditionError(
            "root index must be prime to the residue characteristic "
            "(otherwise the roots of unity collide in the residue field)"
        )
    v = c.value()
    if v is None:
        raise PreconditionError("the zero series has no Kummer root")
    return _from_key(v.key, v.den * e)


def kummer_conjugate_differences(c: HahnSeries, e: int,
                                 splitting_field: FiniteField) -> list[GroupElement]:
    """Brute-force oracle: values of all differences of distinct
    conjugates of an e-th root of c, enumerated in a splitting field
    containing the e-th roots of unity.

    The conjugates are zeta * a over the e-th roots of unity zeta; each
    difference is built explicitly as a series and its value read off.
    """
    if c.field.characteristic == 0 or splitting_field.characteristic != c.field.characteristic:
        raise PreconditionError("splitting field must share the positive characteristic")
    units = [z for z in splitting_field.elements() if not z.is_zero() and (z ** e) == splitting_field.one()]
    if len(units) != e:
        raise PreconditionError(
            f"{splitting_field!r} does not contain {e} distinct {e}-th roots of unity"
        )
    if len(c.keys) != 1:
        raise PreconditionError("conjugate enumeration expects a monomial")
    gamma, coeff = c.value(), c.leading_coeff()
    # root coefficient in the splitting field (c's coefficient must embed)
    target = splitting_field.element(list(coeff.value)) if coeff.field != splitting_field else coeff
    if (root_coeff := _field_root(target, e)) is None:
        raise PreconditionError("coefficient has no e-th root in the splitting field")
    root_expo = _from_key(gamma.key, gamma.den * e)
    values = []
    for i, zi in enumerate(units):
        for zj in units[i + 1:]:
            diff = HahnSeries.monomial(splitting_field, root_expo, (zi - zj) * root_coeff,
                                       rank=gamma.rank)
            values.append(diff.value())
    return values


# ---------------------------------------------------------------------------
# strong homogeneity

class HomogeneityWitness(Record):
    _fields = ("ok", "e", "f", "reason")

    def __init__(self, ok: bool, e: int | None, f: int | None, reason: str = "") -> None:
        self._set(ok, e, f, reason)

    @property
    def degree(self) -> int:
        if not self.ok:
            raise PreconditionError(f"not strongly homogeneous: {self.reason}")
        return self.e * self.f


def strongly_homogeneous_test(monomial: HahnSeries, state: TowerState) -> HomogeneityWitness:
    """Decide strong homogeneity of a monomial c*t^g over a field with
    the given generated structure.

    Computes e as the torsion order of g over the value group, requires
    gcd(e, residue characteristic) = 1, and takes f as the residue
    degree gained by c^e; the element generates an extension of degree
    e*f whose Krasner constant equals its value.  (e, f) = (1, 1) means
    the monomial adds nothing to the generated structure (it is captured).
    """
    if len(monomial.keys) != 1:
        raise PreconditionError("strong homogeneity test expects a monomial")
    gamma, coeff = monomial.value(), monomial.leading_coeff()
    e = state.value_subgroup.torsion_order(gamma)
    if e is None:
        return HomogeneityWitness(False, None, None,
                                  "exponent lies outside the rational span of the value group")
    p = state.residue_char
    if p and e % p == 0:
        return HomogeneityWitness(
            False, e, None,
            f"ramification index {e} is divisible by the residue characteristic {p}",
        )
    if p == 0:
        f = 1
    else:
        d_new = min_poly_degree(coeff ** e)
        f = math.lcm(state.residue_degree, d_new) // state.residue_degree
    if e == 1 and f == 1:
        return HomogeneityWitness(False, 1, 1, "element already lies in the field")
    return HomogeneityWitness(True, e, f)


# ---------------------------------------------------------------------------
# homogeneous approximation and sequence extraction

class ApproxStep(Record):
    """A homogeneous approximation found inside a series: the partial sum
    through the first term whose data leaves the generated structure."""

    _fields = ("term_index", "partial_sum", "exponent", "coeff", "witness")

    def __init__(self, term_index: int, partial_sum: HahnSeries, exponent: GroupElement,
                 coeff: FieldElement, witness: HomogeneityWitness) -> None:
        self._set(term_index, partial_sum, exponent, coeff, witness)

    @property
    def kras(self) -> GroupElement:
        """Krasner constant of the novel monomial: equals its value."""
        return self.exponent


def homogeneous_approximation(b: HahnSeries, state: TowerState) -> ApproxStep | None:
    """First homogeneous approximation in the series b relative to the
    generated structure, or None when every term within the truncation
    depth is already captured (weakly pure reached).

    Raises PreconditionError when the novel term violates the tameness
    conditions (outside tame scope).
    """
    return _approximation_from(b, state, 0)


def _approximation_from(b: HahnSeries, state: TowerState, start: int) -> ApproxStep | None:
    """homogeneous_approximation over the terms of b from index start on."""
    terms = b.terms
    for idx in range(start, len(terms)):
        gamma, coeff = terms[idx]
        witness = strongly_homogeneous_test(
            HahnSeries.monomial(b.field, gamma, coeff, rank=b.rank), state)
        if (witness.e, witness.f) == (1, 1):
            continue
        if not witness.ok:
            raise PreconditionError(f"outside tame scope at term {idx}: {witness.reason}")
        partial = HahnSeries.make(b.field, terms[: idx + 1], b.trunc, b.rank)
        return ApproxStep(idx, partial, gamma, coeff, witness)
    return None


class HomogIncrement(Record):
    _fields = ("index", "term_index", "partial_sum", "exponent", "coeff", "family", "kras", "e", "f",
               "state_after")

    def __init__(self, index: int, term_index: int, partial_sum: HahnSeries, exponent: GroupElement,
                 coeff: FieldElement, family: str, kras: GroupElement, e: int, f: int,
                 state_after: TowerState) -> None:
        self._set(index, term_index, partial_sum, exponent, coeff, family, kras, e, f, state_after)


class HomogeneousSequence(Record):
    """The increments found in a series; exhausted when all remaining terms are captured."""

    _fields = ("base_state", "increments", "final_state", "exhausted")

    def __init__(self, base_state: TowerState, increments: tuple[HomogIncrement, ...],
                 final_state: TowerState, exhausted: bool) -> None:
        self._set(base_state, increments, final_state, exhausted)

    def partial_sums(self) -> list[HahnSeries]:
        return [inc.partial_sum for inc in self.increments]

    def degree_lower_bound(self) -> int:
        bound = 1
        for inc in self.increments:
            bound *= inc.e * inc.f
        return bound


def extract_homogeneous_sequence(z: HahnSeries, state: TowerState,
                                 max_steps: int | None = None) -> HomogeneousSequence:
    """Homogeneous sequence extracted from a power series.

    Every term of z must satisfy the tameness hypotheses relative to the
    base structure: its exponent has a torsion order over the base value
    group prime to the residue characteristic (hypothesis failures are
    reported with the term index).  The increments are the partial sums
    through each term whose (exponent, residue) data leaves the
    structure generated so far.  The structure only grows, so a term
    captured once stays captured: the series is scanned once, resuming
    after each increment's term, with one homogeneity test per term.
    At most max_steps increments are taken (the job's depth); a negative
    max_steps is refused.
    """
    if max_steps is not None and max_steps < 0:
        raise PreconditionError(f"depth {max_steps} must be an int >= 0")
    base_state = state
    p = state.residue_char
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
    increments: list[HomogIncrement] = []
    exhausted = False
    start = 0
    while max_steps is None or len(increments) < max_steps:
        step = _approximation_from(z, state, start)
        if step is None:
            exhausted = True
            break
        start = step.term_index + 1
        state = state.extended(step.exponent, step.witness.f)
        increments.append(
            HomogIncrement(
                index=len(increments) + 1,
                term_index=step.term_index,
                partial_sum=step.partial_sum,
                exponent=step.exponent,
                coeff=step.coeff,
                family="kummer-monomial",
                kras=step.kras,
                e=step.witness.e,
                f=step.witness.f,
                state_after=state,
            )
        )
    return HomogeneousSequence(base_state, tuple(increments), state, exhausted)


def verify_sequence(seq: HomogeneousSequence, z: HahnSeries) -> list[str]:
    """Re-verify a homogeneous sequence from scratch.

    Checks, per increment: strong homogeneity over the previously
    generated structure, and the pseudo Cauchy chain
    v(z - a_j) > v(z - a_i) = v(a_{i+1} - a_i) for i < j.  Returns the
    list of violations (empty when everything holds).
    """
    findings: list[str] = []
    state = seq.base_state
    prev_partial = HahnSeries.zero(z.field, rank=z.rank)
    prev_gap = z.value_bound()  # v(z - a_(i-1)), with a_0 = 0
    prev_dist: GroupElement | None = None
    for inc in seq.increments:
        mono = HahnSeries.monomial(z.field, inc.exponent, inc.coeff, rank=z.rank)
        witness = strongly_homogeneous_test(mono, state)
        if not witness.ok:
            findings.append(f"increment {inc.index}: not strongly homogeneous ({witness.reason})")
        elif (witness.e, witness.f) != (inc.e, inc.f):
            findings.append(
                f"increment {inc.index}: recorded (e, f) = ({inc.e}, {inc.f}) "
                f"but re-verification gives ({witness.e}, {witness.f})"
            )
        dist = (z - inc.partial_sum).value_bound()
        step_val = (inc.partial_sum - prev_partial).value()
        if step_val is None or prev_gap is None or step_val != prev_gap:
            findings.append(
                f"increment {inc.index}: v(a_i - a_(i-1)) != v(z - a_(i-1))"
            )
        if dist is not None and prev_dist is not None and not dist > prev_dist:
            findings.append(f"increment {inc.index}: v(z - a_i) failed to increase strictly")
        prev_dist = dist if dist is not None else prev_dist
        prev_gap = dist
        prev_partial = inc.partial_sum
        state = inc.state_after
    return findings


def implicit_constant_report(seq: HomogeneousSequence, z: HahnSeries) -> dict:
    """Depth-stamped report of the structure generated by the sequence.

    Lists the value-group generators and the residue-field tower, the
    degree lower bound (product of step degrees, cross-checked against
    the subgroup index and residue degrees), and the statement that the
    henselization of the field generated by the increments is the
    implicit constant field (certified through the stated depth only).
    """
    index = seq.final_state.value_subgroup.index_over(seq.base_state.value_subgroup)
    res_ratio = seq.final_state.residue_degree // seq.base_state.residue_degree
    bound = seq.degree_lower_bound()
    if index is not None and index * res_ratio != bound:
        raise InternalError(
            "step degrees disagree with the generated structure"
        )
    basis = seq.final_state.value_subgroup.basis()
    findings = verify_sequence(seq, z)
    if findings:
        raise InternalError("extracted sequence failed re-verification: "
                            + "; ".join(findings))
    return {
        "sequence": [
            {
                "index": inc.index,
                "novel_exponent": inc.exponent.to_json(),
                "novel_coeff": inc.coeff.to_json(),
                "family": inc.family,
                "kras": inc.kras.to_json(),
                "e": inc.e,
                "f": inc.f,
            }
            for inc in seq.increments
        ],
        "value_group_generators": [g.to_json() for g in basis],
        "residue_field_tower": [seq.base_state.residue_degree]
        + [inc.state_after.residue_degree for inc in seq.increments],
        "depth": len(seq.increments),
        "degree_lower_bound": bound,
        "exhausted_at_depth": seq.exhausted,
        "implicit_constant_field": (
            "henselization of the field generated by the increment partial sums; "
            "verified through the stated depth"
        ),
    }


# ---------------------------------------------------------------------------
# pseudo Cauchy checks

class PcsReport(Record):
    _fields = ("ok", "findings", "difference_values")

    def __init__(self, ok: bool, findings: tuple[str, ...], difference_values: tuple) -> None:
        self._set(ok, findings, difference_values)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "findings": list(self.findings),
            "difference_values": [
                None if v is None else v.to_json() for v in self.difference_values
            ],
        }


def check_pseudo_cauchy(elems: list[HahnSeries], limit: HahnSeries | None = None) -> PcsReport:
    """Verify the pseudo Cauchy property v(a_(i+1) - a_i) strictly
    increasing, and, when a limit x is supplied, the pseudo limit
    property v(x - a_i) = v(a_(i+1) - a_i), within the available depth.

    Violations are findings in the report, not errors.
    """
    findings: list[str] = []
    diffs: list[GroupElement | None] = []
    if len(elems) < 2:
        findings.append("need at least two elements")
    for i, (a, b) in enumerate(zip(elems, elems[1:])):
        d = b - a
        v = d.value()
        if v is None:
            findings.append(f"consecutive elements {i}, {i+1} are equal within truncation")
        diffs.append(v)
    for i, (v1, v2) in enumerate(zip(diffs, diffs[1:])):
        if v1 is None or v2 is None:
            continue
        if not v2 > v1:
            findings.append(
                f"difference values fail to increase strictly at position {i}: "
                f"{v1!r} then {v2!r}"
            )
    if limit is not None:
        for i, a in enumerate(elems[:-1]):
            vx = (limit - a).value()
            if vx is None or diffs[i] is None:
                continue
            if vx != diffs[i]:
                findings.append(
                    f"pseudo limit property fails at index {i}: "
                    f"v(x - a_i) = {vx!r} but v(a_(i+1) - a_i) = {diffs[i]!r}"
                )
    return PcsReport(not findings, tuple(findings), tuple(diffs))
