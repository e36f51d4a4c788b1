"""Builders and re-checkable certificates for the headline constructions.

Every certificate is a plain JSON-serializable structure whose numeric
claims validate_certificate derives again from the recorded subjects and
witnesses, without re-running the original construction (the defect-tower
and degree-bound validators read each recorded rational once and compare
ints).  Certificate kinds: defect-tower, degree-lower-bound,
classification and fundamental-inequality, whose tower steps record only
their kind, subject and (e, f, degree, defect), derived by _step_numbers
both ways.

Every check here has one shape: it reads recorded data and returns the
first violated condition as a string, or None.  The builders raise a
violation, as PreconditionError for their inputs and as InternalError
for their own output; validate_certificate reports it as a finding.
Each builder returns its certificate only after validate_certificate
accepts it, so a fact the payload records is checked once, by the
validator.  The builders keep as InternalError only the self-checks of
facts the payload does not record.

Every payload field has one of two roles.  A claim is re-derived by
the validator from the other fields, so tampering with it is a finding.
A subject names what the certificate is about (a classification's
`descriptor`, a tower's `base.value_group` and its steps' `modulus` and
`c`): every well-formed value states something the validator still
decides.  A field that would only copy the subject, a list position or
a constant is not recorded at all (a defect tower's depth is the number
of its `levels`), and neither is prose: each kind's statement and
assumptions are in the README.  A field that its kind, its step kind or
its nested object (the descriptor apart) does not have is a finding.  The
validators read every field with the schema module's readers (a step
with ExtensionStep.from_json, the descriptor, open like a job's, with
valuations.valuation_from_json): an ill-typed field is a finding that
names its JSON path.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from operator import attrgetter

from .errors import InternalError, PreconditionError, SchemaError
from .fields import Field, FiniteField, is_prime
from .groups import GroupElement, Subgroup, _from_key, _from_ratios
from .homogeneous import (
    TowerState,
    krasner_artin_schreier,
    krasner_kummer,
    strongly_homogeneous_test,
)
from .record import Record
from .series import HahnSeries, artin_schreier_root, kummer_root
from .valuations import (
    RESIDUE_TRANSCENDENTAL,
    VALUE_TRANSCENDENTAL,
    CenteredValuation,
    SeriesValuedField,
    valuation_from_json,
)
from .schema import fail, integer, list_of, obj, ratio, rational, string

__all__ = [
    "Certificate",
    "build_defect_tower",
    "ExtensionStep",
    "ExtensionTower",
    "build_extension_step",
    "build_extension_tower",
    "build_ic_valuation",
    "build_degree_bound",
    "classification_certificate",
    "ValidationResult",
    "validate_certificate",
]

CERTIFICATE_VERSION = 5
_UNVERSIONED = object()  # the version of a certificate that records no schema_version

# series depth of every Artin-Schreier root the builders compute
_AS_DEPTH = 3

_MAX_DIGITS = 4300  # Python's default limit on the decimal digits of an int it writes

# term pairs that the eta tower's chain checks may multiply: the last level
# admitted at p = 2, 3, 5 or 101 builds in 3 to 5 s on a 2-CPU VM
_ETA_PAIR_CAP = 2_000_000

# (p, stored form of a, stored form of c) -> v(a ** p - c), for the first
# 1024 power checks of the process
_POWER_GAPS: dict[tuple, GroupElement | None] = {}
_stored = attrgetter("field", "rank", "den", "keys", "values", "top")
_ONE = GroupElement.of(1)


def _power_gap_value(a: HahnSeries, c: HahnSeries, p: int) -> GroupElement | None:
    """v(a ** p - c), by square-and-multiply and so independent of the
    p-th roots that built a.  Each value is kept for the process under p
    and the exact stored form of both operands: equal keys are equal
    series, so a kept value is never wrong, and a wrong root is a new key
    that is computed and checked.  An equal series stored over another
    denominator is only computed again."""
    key = (p, _stored(a), _stored(c))
    if key in _POWER_GAPS:
        return _POWER_GAPS[key]
    value = ((a ** p) - c).value()
    if len(_POWER_GAPS) < 1024:
        _POWER_GAPS[key] = value
    return value


class Certificate(Record):
    _fields = ("kind", "payload", "version")

    def __init__(self, kind: str, payload: dict, version: int = CERTIFICATE_VERSION) -> None:
        self._set(kind, payload, version)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "schema_version": self.version, **self.payload}

    @staticmethod
    def from_dict(data) -> "Certificate":
        obj(data, required=("kind",))
        payload = {k: v for k, v in data.items() if k not in ("kind", "schema_version")}
        return Certificate(data["kind"], payload, data.get("schema_version", _UNVERSIONED))


# ---------------------------------------------------------------------------
# the characteristic-p defect tower

def build_defect_tower(p: int, schedule: list[int], depth: int,
                       eta_levels: int = 5, multipliers: list[int] | None = None) -> Certificate:
    """Certificate for the defect tower over the x-adic series model in
    characteristic p.

    y is the truncation of sum x^(n_i * p^(-e_i)) over the exponent
    schedule (all multipliers n_i = -1 by default, the shape that the
    growth rule below applies to); for each level j <= depth the residual
    series L_j = y^(p^(e_j)) - sum_(i<=j) x^(n_i * p^(e_j-e_i)) is
    computed by series arithmetic, and the validator checks its recorded
    support and value n_(j+1) * p^(e_j - e_(j+1)), whose coprime
    numerator witnesses 1/p^(e_(j+1)-e_j) inside the value group
    generated with Z (at least 1/p^j under the default growth rule
    e_(i+1) >= e_i + i).  The Artin-Schreier tower eta_i (roots of
    X^p - X - eta_(i-1) above eta_0 = 1/x) is built alongside with
    v(eta_i) = -1/p^i, each root fresh, and its chain v(eta_i^p -
    eta_(i-1)) = v(eta_i) is checked by square-and-multiply, memoised on
    the exact operands (_power_gap_value).  eta_levels past the cap on
    the term pairs of those products (_eta_chain_pairs), or below 0, is
    refused before any series is built.
    """
    if eta_levels < 0:
        raise PreconditionError(f"eta_levels {eta_levels} must be an int >= 0")
    n = len(schedule)
    mults = [-1] * n if multipliers is None else [int(m) for m in multipliers]
    violation = _defect_tower_violation(p, schedule, mults, depth)
    if violation:
        raise PreconditionError(violation)
    for fit, pairs in enumerate(_eta_chain_pairs(p, eta_levels)):
        if pairs > _ETA_PAIR_CAP:
            raise PreconditionError(f"eta_levels {eta_levels} is past the cap at p = {p}: its chain checks "
                                    f"would multiply more than {_ETA_PAIR_CAP} term pairs ({fit} levels fit)")
    default_shape = all(m == -1 for m in mults)
    exponents = [_from_key((mults[i],), p ** schedule[i]) for i in range(n)]
    coeffs = FiniteField(p)
    # with the default growth rule the unknown tail starts no earlier than
    # -p^(-(e_n + n)); explicit multipliers certify the n scheduled terms
    # exactly (later terms of any admissible continuation only add higher
    # exponents and cannot disturb the level values)
    trunc = _from_key((-1,), p ** (schedule[-1] + n)) if default_shape else None
    y = HahnSeries.make(coeffs, [(g, 1) for g in exponents], trunc=trunc)
    levels = []
    for j in range(1, depth + 1):
        e_j = schedule[j - 1]
        lhs = y.frobenius_power(e_j) - HahnSeries.make(
            coeffs, [(g * p ** e_j, 1) for g in exponents[:j]])
        if lhs.is_zero():
            raise InternalError(f"level {j} residual vanishes")
        value = lhs.value()
        denom_power = schedule[j] - e_j
        witness = Subgroup.generated_by(1, value).witness(_from_key((1,), p ** denom_power))
        levels.append(
            {
                "witness_exponents": [e.to_json()[0] for e in lhs.support()],
                "value": value.to_json()[0],
                "grants_denominator_exponent": denom_power,
                "membership_witness": witness,
            }
        )
    eta, broken_chain = [], None
    eta_series = HahnSeries.monomial(coeffs, -1, 1)
    for i in range(1, eta_levels + 1):
        nxt = artin_schreier_root(eta_series, _AS_DEPTH)
        v_nxt = nxt.value()
        # eta_i^p - eta_i = eta_(i-1) up to the truncation, so the chain
        # eta_i^p - eta_(i-1) keeps the value of eta_i
        if broken_chain is None and _power_gap_value(nxt, eta_series, p) != v_nxt:
            broken_chain = i
        eta.append({"value": v_nxt.to_json()[0]})
        eta_series = nxt
    payload = {
        "p": p,
        "schedule": list(schedule),
        "multipliers": mults,
        "series_truncation": None if trunc is None else trunc.to_json()[0],
        "levels": levels,
        "eta_tower": eta,
    }
    cert = _self_checked(Certificate("defect-tower", payload))
    # the chain is not recorded: checked after the recorded eta values
    if broken_chain is not None:
        raise InternalError(f"eta tower: value chain does not verify at level {broken_chain}")
    return cert


def _eta_chain_pairs(p: int, levels: int):
    """Yield, for i = 1 to `levels`, the term pairs that the chain checks
    of eta_1 to eta_i multiply, counted without series arithmetic.

    eta_i has a term x^(-1/p^k) for each i <= k <= 3i whose count of
    compositions of k into i parts 1, 2 and 3 is prime to p
    (artin_schreier_root at depth 3).  If there are t, eta_i^m has
    C(m + t - 1, t - 1) terms for m < p (a sum of fewer than p powers of
    p has one form, and its multinomial is prime to p) and t for m = p.
    The pairs are those of _power's square-and-multiply of eta_i to the p."""
    pairs, counts = 0, [1]
    for _ in range(levels):
        counts = [sum(counts[max(0, k - 3):k]) % p for k in range(len(counts) + 3)]
        t = sum(map(bool, counts))

        def size(m):
            return t if m == p else math.comb(m + t - 1, t - 1)

        n, r, b = p, 0, 1  # result eta_i^r, base eta_i^b
        while n:
            if n & 1:
                pairs += size(r) * size(b)
                r += b
            if n > 1:
                pairs += size(b) ** 2
                b *= 2
            n >>= 1
        yield pairs


def _prime_violation(p: int) -> str | None:
    """None for a proven prime p, else why p is not one: composite, or a
    strong probable prime too large for is_prime to prove."""
    try:
        return None if is_prime(p) else f"{p} is not prime"
    except PreconditionError as exc:
        return f"p cannot be proven prime: {exc}"


def _defect_tower_violation(p: int, schedule: list[int], mults: list[int],
                            depth: int) -> str | None:
    """The first violated precondition of a defect tower, or None; the
    builder raises it and the validator reports it."""
    n = len(schedule)
    if (violation := _prime_violation(p)):
        return violation
    if n < 2:
        return "the exponent schedule needs at least two entries"
    if len(mults) != n:
        return "multipliers must match the schedule length"
    for i, m in enumerate(mults, start=1):
        if math.gcd(abs(m), p) != 1:
            return f"multiplier n_{i} = {m} must be prime to p = {p}"
    for i, e in enumerate(schedule, start=1):
        if e < 0:
            return f"schedule exponent e_{i} = {e} must be >= 0"
    default_shape = all(m == -1 for m in mults)
    for i in range(1, n):
        if default_shape and schedule[i] < schedule[i - 1] + i:
            return (f"schedule violation at position {i + 1}: "
                    f"e_{i + 1} = {schedule[i]} < e_{i} + {i} = {schedule[i - 1] + i}")
        if schedule[i] < schedule[i - 1]:  # in any shape: p^(e_i - e_(i+1)) is no denominator
            return f"schedule violation at position {i + 1}: e_{i + 1} = {schedule[i]} < e_{i} = {schedule[i - 1]}"
        # n_i p^-e_i < n_(i+1) p^-e_(i+1) iff n_i p^d < n_(i+1): n_i's sign once 2^d > |n_(i+1)|
        d = schedule[i] - schedule[i - 1]
        if not (mults[i - 1] < 0 if d >= abs(mults[i]).bit_length() else mults[i - 1] * p ** d < mults[i]):
            return (f"schedule violation at position {i + 1}: the exponents "
                    f"n_i * p^(-e_i) must be strictly increasing")
    if depth > n - 1:
        return (f"truncation too shallow to witness level {depth}: the schedule "
                f"provides witnesses only up to level {n - 1}")
    if type(depth) is not int or depth < 1:
        return f"depth {depth!r} must be an int >= 1"
    # p^k < 2^(k b), b = p.bit_length(), has at most k b log10(2) < k b 0.30103 digits
    k = schedule[-1] + n
    if k * p.bit_length() * 30103 > _MAX_DIGITS * 100000:
        return (f"schedule too large: p^(e_max + n) = {p}^{k} may pass the "
                f"{_MAX_DIGITS}-digit limit on the decimal ints of a certificate")
    return None


# ---------------------------------------------------------------------------
# prescribed extension steps

class ExtensionStep(Record):
    """One prescribed step: kummer (value-group) with alpha, the new
    value; residue (inertia) with modulus, monic irreducible over F_p; or
    artin-schreier with c_exponent, the exponent of c = t^(c_exponent)."""

    _fields = ("kind", "alpha", "modulus", "c_exponent")

    def __init__(self, kind: str, alpha: Fraction | None = None, modulus: tuple[int, ...] = (),
                 c_exponent: Fraction | None = None) -> None:
        self._set(kind, alpha, modulus, c_exponent)

    @staticmethod
    def from_json(data, path=()) -> "ExtensionStep":
        """The kind and subject of the step at path in a job or a certificate record."""
        kind, _, subject = _step_subject(data, path, rational)
        if kind == "residue":
            return ExtensionStep(kind, modulus=subject)
        if kind == "kummer":
            return ExtensionStep(kind, alpha=subject)
        return ExtensionStep(kind, c_exponent=subject)


class ExtensionTower(Record):
    """A tower of prescribed steps over a series-model base field; the
    one mutable record, so it has no hash."""

    _fields = ("residue_char", "coefficient_field", "value_subgroup", "residue_degree", "steps",
               "top_witness", "base_value_subgroup")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, residue_char: int, coefficient_field: Field, value_subgroup: Subgroup,
                 residue_degree: int = 1, steps: tuple[dict, ...] = (),
                 top_witness: HahnSeries | None = None,
                 base_value_subgroup: Subgroup | None = None) -> None:
        self._set(residue_char, coefficient_field, value_subgroup, residue_degree, steps, top_witness,
                  value_subgroup if base_value_subgroup is None else base_value_subgroup)

    @staticmethod
    def over(p: int, value_gens=(1,), residue_degree: int = 1,
             coefficient_field: Field | None = None) -> "ExtensionTower":
        if not is_prime(p):
            raise PreconditionError(f"{p} is not prime")
        field = coefficient_field if coefficient_field is not None else FiniteField(p)
        gens = tuple(GroupElement.of(g) for g in value_gens)
        group = Subgroup(1, gens)
        return ExtensionTower(p, field, group, residue_degree, base_value_subgroup=group)


# the key of each step kind's subject, in a job and in a certificate
# record, and the other fields of a record
_STEP_SUBJECTS = {"kummer": "alpha", "residue": "modulus", "artin-schreier": "c"}
_STEP_FIELDS = ("kind", "e", "f", "degree", "defect")


def _step_subject(data, path, read) -> tuple:
    """(kind, subject key, subject) of the step at path: a residue
    modulus as a tuple of ints, any other subject read by `read`."""
    kind = string(obj(data, path).get("kind"), (*path, "kind"), _STEP_SUBJECTS)
    key = _STEP_SUBJECTS[kind]
    subject, at = obj(data, path, required=(key,))[key], (*path, key)
    return kind, key, tuple(list_of(integer, subject, at)) if kind == "residue" else read(subject, at)


def _step_numbers(kind: str, subject, p: int, group: Subgroup,
                  residue_degree: int) -> tuple[int, int, int, Subgroup, int]:
    """(e, f, defect, next value group, next residue degree) of a step
    over a tower of residue characteristic p, value group `group` and
    residue degree `residue_degree`, from the step's subject (kummer
    alpha and artin-schreier v(c) as elements, a residue modulus as
    ints).  The builder takes a step's numbers from here and the
    validator replays each recorded step through it; a subject that
    makes no step raises PreconditionError."""
    if kind == "kummer":
        e = group.torsion_order(subject)
        if e is None:
            raise PreconditionError(
                f"kummer step: {subject.to_json()[0]} lies outside the rational span of the value group"
            )
        if e == 1:
            raise PreconditionError(f"kummer step: {subject.to_json()[0]} already lies in the value group")
        if not is_prime(e) and math.gcd(e, p) != 1:
            raise PreconditionError(
                f"kummer step: torsion order {e} is neither prime nor coprime "
                f"to the residue characteristic {p}"
            )
        return e, 1, 1, group.extended(subject), residue_degree
    if kind == "residue":
        after = math.lcm(residue_degree, FiniteField(p, subject).degree)
        if after == residue_degree:
            raise PreconditionError(
                "residue step: the reduction has a root in the current residue field, "
                "so it is not a minimal polynomial of a new residue"
            )
        return 1, after // residue_degree, 1, group, after
    if kind == "artin-schreier":
        if not subject < GroupElement.zero(1):
            raise PreconditionError("artin-schreier step requires v(c) < 0")
        if subject not in group:
            raise PreconditionError(
                f"artin-schreier step: exponent {subject.to_json()[0]} is not in the value group"
            )
        va = _from_key(subject.key, subject.den * p)  # the root's value: its torsion order is p or 1
        e = group.torsion_order(va)
        return e, 1, p // e, group if e == 1 else group.extended(va), residue_degree
    raise SchemaError(f"unknown extension step kind {kind!r}")


def build_extension_step(step: ExtensionStep, tower: ExtensionTower) -> ExtensionTower:
    """Apply one prescribed step to the tower: kummer adjoins a root of
    X^e - t^(e alpha), residue a root of a monic irreducible over F_p,
    and artin-schreier a root a of X^p - X - c for v(c) < 0 in the value
    group.  The record holds the kind, the subject and the numbers from
    _step_numbers.  The roots, which it does not carry, are checked here
    as InternalError: the kummer root has value alpha and its e-th power
    lies in the value group, and 0 > v(a^p - c) = v(a) = v(c)/p, with
    a^p by square-and-multiply, memoised on the exact operands
    (_power_gap_value)."""
    p = tower.residue_char
    key = _STEP_SUBJECTS.get(step.kind)
    subject = {"kummer": step.alpha, "residue": step.modulus,
               "artin-schreier": step.c_exponent}.get(step.kind)
    if step.kind in ("kummer", "artin-schreier"):
        subject = GroupElement.of(subject)  # alpha or v(c), for the numbers and the root
    e, f, defect, group, residue_degree = _step_numbers(
        step.kind, subject, p, tower.value_subgroup, tower.residue_degree)
    root = None
    if step.kind == "kummer":
        root = kummer_root(subject.scaled(e), tower.coefficient_field.one(), e)
        if root.value() != subject:
            raise InternalError("the kummer root does not have value alpha")
        if root.value().scaled(e) not in tower.value_subgroup:
            raise InternalError("e-th power of the root left the value group")
    elif step.kind == "artin-schreier":
        c = HahnSeries.monomial(tower.coefficient_field, subject, 1)
        root = artin_schreier_root(c, _AS_DEPTH)
        va, vchain = root.value(), _power_gap_value(root, c, p)
        if vchain is None or not GroupElement.zero(1) > vchain == va == _from_key(subject.key, subject.den * p):
            raise InternalError(f"extension step fails its own validation: "
                                f"step {len(tower.steps) + 1}: value chain does not verify")
    record = {"kind": step.kind,
              key: list(subject) if step.kind == "residue" else subject.to_json()[0],
              "e": e, "f": f, "degree": e * f * defect, "defect": defect}
    return ExtensionTower(p, tower.coefficient_field, group, residue_degree,
                          tower.steps + (record,), root, tower.base_value_subgroup)


def build_extension_tower(p: int, steps: list[ExtensionStep],
                          value_gens=(1,)) -> tuple[ExtensionTower, Certificate]:
    """Apply a list of prescribed steps and emit the tower's
    fundamental-inequality certificate with multiplicative (e, f)
    accounting."""
    tower = ExtensionTower.over(p, value_gens)
    for step in steps:
        tower = build_extension_step(step, tower)
    e = math.prod(s["e"] for s in tower.steps)
    f = math.prod(s["f"] for s in tower.steps)
    n = math.prod(s["degree"] for s in tower.steps)
    payload = {
        "base": {
            "residue_char": p,
            "value_group": [g.to_json() for g in tower.base_value_subgroup.generators],
        },
        "steps": list(tower.steps),
        "totals": {"degree": n, "e": e, "f": f, "defect": n // (e * f)},
    }
    return tower, _self_checked(Certificate("fundamental-inequality", payload))


def build_ic_valuation(tower: ExtensionTower, beta, variant: str = "v1",
                       placement: str = "small") -> tuple[CenteredValuation, dict]:
    """A centered valuation v with center the tower's top root and
    v(x - a) = gamma = alpha + beta above the root's Krasner constant,
    so the root generates part of the implicit constant field.

    variant "v1" places beta as a fresh lexicographic unit (the result
    is value-transcendental); variant "v2" takes beta in the base value
    group (residue-transcendental).  alpha is the least nonnegative
    multiple of the value-group generator dominating the Krasner
    constant.
    """
    if tower.top_witness is None:
        raise PreconditionError(
            "the tower's top step has no root witness (a residue step); "
            "Krasner constants are computed for kummer and artin-schreier families only"
        )
    top = tower.steps[-1]
    if top["kind"] == "artin-schreier":
        c = HahnSeries.monomial(tower.coefficient_field, Fraction(top["c"]), 1)
        kras = krasner_artin_schreier(c, tower.residue_char)
    else:  # kummer: the root of X^e - c for c = t^(e alpha)
        c = HahnSeries.monomial(tower.coefficient_field, Fraction(top["alpha"]) * top["e"], 1)
        kras = krasner_kummer(c, top["e"])
    base_group = tower.base_value_subgroup
    gens = base_group.basis()
    if not gens:
        raise PreconditionError("the base value group is trivial; no alpha dominates the constant")
    gen = gens[0].coords[0]
    kras_q = kras.coords[0]
    alpha = max(0, -(-kras_q // gen)) * gen  # least k >= 0 with k * gen >= kras_q
    base = SeriesValuedField(tower.coefficient_field,
                             [g.coords[0] for g in tower.value_subgroup.generators])
    if variant == "v1":
        beta_q = Fraction(beta) if beta is not None else Fraction(1)
        if beta_q <= 0:
            raise PreconditionError("beta must be positive")
        if placement == "small":
            gamma = GroupElement.of(alpha, beta_q)
            base_coord = 0
        elif placement == "large":
            gamma = GroupElement.of(beta_q, alpha)
            base_coord = 1
        else:
            raise PreconditionError("placement must be 'small' or 'large'")
        valn = CenteredValuation(base, tower.top_witness, gamma, base_coord=base_coord)
        label = VALUE_TRANSCENDENTAL
    elif variant == "v2":
        beta_q = Fraction(beta)
        if beta_q <= 0 or GroupElement.of(beta_q) not in tower.base_value_subgroup:
            raise PreconditionError("beta must be a positive element of the base value group")
        gamma = GroupElement.of(alpha + beta_q)
        valn = CenteredValuation(base, tower.top_witness, gamma)
        label = RESIDUE_TRANSCENDENTAL
    else:
        raise PreconditionError(f"unknown variant {variant!r}")
    got = valn.classify()
    if got != label:
        raise InternalError(f"classified {got}, expected {label}")
    kras_embedded = valn.embed_base_value(kras_q)
    if not valn.gamma > kras_embedded:
        raise InternalError("gamma fails to dominate the Krasner constant")
    info = {
        "kras": str(kras_q),
        "alpha": str(alpha),
        "beta": str(beta_q),
        "gamma": gamma.to_json(),
        "classification": label,
    }
    return valn, info


# ---------------------------------------------------------------------------
# p-adic degree lower bounds

def build_degree_bound(p: int, indices: list[int], depth: int | None = None) -> Certificate:
    """Degree-lower-bound certificate in the p-exponent series model.

    With gamma_i = i + 1/n_i for indices n_i > 1 coprime to p and
    strictly increasing, the partial sums b_i of sum p^(gamma_i) form a
    Cauchy sequence whose increments are strongly homogeneous, the i-th
    with ramification index lcm(n_1..n_i)/lcm(n_1..n_(i-1)) (n_i for
    pairwise coprime indices; an index dividing the lcm of the earlier
    ones adds none and is rejected).  Any z with v(z - b_depth) >
    gamma_depth has degree at least lcm(n_1..n_depth) over the p-adic
    base, by the fundamental inequality applied to the value-group
    index.  The pseudo-Cauchy variant with gamma_i = 1 - 1/n_i (bounded
    above, no limit in a spherically incomplete field) is emitted
    alongside.
    """
    violation = _degree_bound_violation(p, indices)
    if violation:
        raise PreconditionError(violation)
    if depth is None:
        depth = len(indices)
    if not 1 <= depth <= len(indices):
        raise PreconditionError(f"depth must be between 1 and {len(indices)}")
    coeffs = FiniteField(p)
    state = TowerState(Subgroup.generated_by(1), 1, p)
    gammas = [_from_key((i * nv + 1,), nv) for i, nv in enumerate(indices[:depth], start=1)]
    bound = 1  # lcm(n_1..n_i), kept running
    for i, (g, nv) in enumerate(zip(gammas, indices), start=1):
        bound *= (e_i := nv // math.gcd(bound, nv))  # lcm(n_1..n_i) / lcm(n_1..n_(i-1))
        witness = strongly_homogeneous_test(HahnSeries.monomial(coeffs, g, 1), state)
        if not witness.ok or witness.e != e_i:
            raise InternalError(f"increment {i} not strongly homogeneous with e = {e_i}")
        state = state.extended(g, witness.f)
    payload = {
        "p": p,
        "indices": list(indices[:depth]),
        "exponents": [g.to_json()[0] for g in gammas],
        "bound": bound,
        "group_index_witness": {
            "hermite_basis": [b.to_json()[0] for b in state.value_subgroup.basis()],
        },
        "pseudo_cauchy_variant": {"exponents": [f"{nv - 1}/{nv}" for nv in indices[:depth]]},
    }
    return _self_checked(Certificate("degree-lower-bound", payload))


def _degree_bound_violation(p: int, indices: list[int]) -> str | None:
    """The first violated precondition of a degree bound, or None; the
    builder raises it and the validator reports it."""
    if (violation := _prime_violation(p)):
        return violation
    if not indices:
        return "at least one index is required"
    lcm = 1  # lcm(n_1..n_(i-1)), kept running
    for i, nv in enumerate(indices, start=1):
        if nv <= 1:
            return f"index n_{i} = {nv} must exceed 1"
        if math.gcd(nv, p) != 1:
            return (f"index n_{i} = {nv} shares a factor with p = {p}; "
                    f"indices must be coprime to the residue characteristic")
        if i >= 2 and indices[i - 2] >= nv:
            return f"indices must be strictly increasing (position {i})"
        if lcm % nv == 0:
            return (f"index n_{i} = {nv} divides lcm(n_1..n_{i - 1}): "
                    f"its increment adds no ramification")
        lcm = math.lcm(lcm, nv)
    return None


# ---------------------------------------------------------------------------
# classification certificates

def classification_certificate(descriptor, descriptor_json: dict) -> Certificate:
    """Certificate recording a classification: its trichotomy flags and
    the torsion order of gamma over the base value group, null for a
    non-torsion gamma (proven by rank) and for a pseudo Cauchy descriptor."""
    flags, order = descriptor.trichotomy()
    payload = {"descriptor": descriptor_json, "trichotomy_flags": list(flags), "torsion_order": order}
    return _self_checked(Certificate("classification", payload))


# ---------------------------------------------------------------------------
# re-validation

class ValidationResult(Record):
    _fields = ("ok", "findings")

    def __init__(self, ok: bool, findings: tuple[str, ...]) -> None:
        self._set(ok, findings)

    def first_failure(self) -> str | None:
        return self.findings[0] if self.findings else None


def _self_checked(cert: Certificate) -> Certificate:
    """Return a builder's certificate once validate_certificate accepts
    it; a finding is a fault of the builder, raised as InternalError."""
    result = validate_certificate(cert)
    if not result.ok:
        raise InternalError(f"{cert.kind} certificate fails its own validation: "
                            f"{result.first_failure()}")
    return cert


def validate_certificate(data) -> ValidationResult:
    """Re-check a certificate from its own subjects and witnesses.

    The first broken invariant is reported by name; no part of the
    original construction is re-run, only the recorded data is
    re-verified.  Any JSON value is accepted and none raises: one that is
    not an object with a known 'kind', that names no schema_version or one
    other than CERTIFICATE_VERSION, that has a field its kind does not
    have, or whose fields do not have the recorded shape, is a finding:
    a schema reader's error as it is, any other as a malformed certificate.
    """
    try:
        cert = data if isinstance(data, Certificate) else Certificate.from_dict(data)
    except SchemaError as exc:
        return ValidationResult(False, (str(exc),))
    entry = _VALIDATORS.get(cert.kind) if isinstance(cert.kind, str) else None
    if entry is None:
        return ValidationResult(False, (f"unknown certificate kind {cert.kind!r}",))
    validator, fields = entry
    if type(cert.version) is not int or cert.version != CERTIFICATE_VERSION:
        named = ("certificate has no schema_version" if cert.version is _UNVERSIONED
                 else f"unknown schema_version {cert.version!r}")
        return ValidationResult(False, (f"{named}; this ratval reads version {CERTIFICATE_VERSION}",))
    try:
        finding = validator(obj(cert.payload, keys=fields))
    except (SchemaError, KeyError, TypeError, ValueError, ZeroDivisionError, IndexError,
            AttributeError, PreconditionError) as exc:
        finding = str(exc) if isinstance(exc, SchemaError) else f"malformed certificate: {exc}"
    return ValidationResult(finding is None, () if finding is None else (finding,))


def _validate_defect_tower(payload: dict) -> str | None:
    p = integer(payload["p"], ("p",))
    schedule = list_of(integer, payload["schedule"], ("schedule",))
    mults = list_of(integer, payload["multipliers"], ("multipliers",))
    levels = list_of(None, payload["levels"], ("levels",))
    if not levels:  # the depth is len(levels), and the builder refuses depth 0
        raise fail(levels, ("levels",), "a JSON list of at least one level")
    n = len(schedule)
    if (violation := _defect_tower_violation(p, schedule, mults, len(levels))):
        return violation
    default_shape = all(m == -1 for m in mults)
    pows = [p ** e for e in schedule]
    top = max(pows)
    keys = [m * (top // pw) for m, pw in zip(mults, pows)]  # n_i / p^(e_i) over one power of p
    trunc = payload["series_truncation"]
    trunc = None if trunc is None else ratio(trunc, ("series_truncation",))
    if default_shape:
        if trunc != (-1, p ** (schedule[-1] + n)):
            return "series truncation does not match the schedule"
    for j, level in enumerate(levels, start=1):
        at = ("levels", j - 1)
        level = obj(level, at, keys=_LEVEL_FIELDS)
        e_j = schedule[j - 1]
        # n_i * p^(e_j - e_i) as (num, den) in lowest terms, n_i being prime
        # to p; it lies below p^(e_j) * trunc iff n_i / p^(e_i) < trunc
        pe = pows[j - 1]
        scaled = [(m * (pe // pw), 1) if pw <= pe else (m, pw // pe) for m, pw in zip(mults, pows)]
        below = range(j, n) if trunc is None else [
            i for i in range(j, n) if mults[i] * trunc[1] < trunc[0] * pows[i]]
        oracle = [scaled[i] for i in sorted(below, key=keys.__getitem__)]
        witnessed = list_of(ratio, level["witness_exponents"], (*at, "witness_exponents"))
        if witnessed != oracle:
            return f"level {j}: witness exponents disagree with the schedule formula"
        value = ratio(level["value"], (*at, "value"))
        # witnessed is the sorted oracle, so its least exponent is its first
        if not witnessed or witnessed[0] != value:
            return f"level {j}: recorded value is not the least witness exponent"
        if value != scaled[j]:
            return f"level {j}: value differs from n_(j+1) * p^(e_j - e_(j+1))"
        denom_power = integer(level["grants_denominator_exponent"], (*at, "grants_denominator_exponent"))
        if denom_power != schedule[j] - e_j:
            return f"level {j}: granted denominator exponent mismatch"
        if default_shape and denom_power < j:
            return f"level {j}: grant falls short of 1/p^{j}"
        group = Subgroup(1, (_ONE, _from_ratios([value])))
        if not group.is_witness(level["membership_witness"], _from_key((1,), p ** denom_power)):
            return f"level {j}: membership witness does not verify"
    prev = (-1, 1)
    for i, entry in enumerate(list_of(None, payload["eta_tower"], ("eta_tower",)), start=1):
        at = ("eta_tower", i - 1)
        v = ratio(obj(entry, at, keys={"value"})["value"], (*at, "value"))
        if v[0] * prev[1] * p != prev[0] * v[1]:
            return f"eta tower: v(eta_{i}) = {_from_ratios([v]).to_json()[0]} is not v(eta_{i-1})/p"
        prev = v
    return None


def _validate_degree_bound(payload: dict) -> str | None:
    p = integer(payload["p"], ("p",))
    indices = list_of(integer, payload["indices"], ("indices",))
    if (violation := _degree_bound_violation(p, indices)):
        return violation
    gammas = list_of(ratio, payload["exponents"], ("exponents",))
    if len(gammas) != len(indices):
        return "exponents must have one entry per index"
    elems = [_from_ratios([g]) for g in gammas]
    base = Subgroup.generated_by(1)
    for i, (nv, g, elem) in enumerate(zip(indices, gammas, elems), start=1):
        # i + 1/n_i is (i * n_i + 1) / n_i in lowest terms
        if g != (i * nv + 1, nv):
            return f"exponent gamma_{i} does not equal i + 1/n_i"
        if base.torsion_order(elem) != nv:
            return f"torsion order of gamma_{i} over Z is not n_{i}"
    expected = math.lcm(*indices)
    bound = integer(payload["bound"], ("bound",))
    if bound != expected:
        return f"bound {bound} differs from lcm = {expected}"
    big = base.extended(*elems)
    if big.index_over(base) != bound:
        return "subgroup index witness does not verify against the bound"
    basis = [b.to_json()[0] for b in big.basis()]
    if basis != obj(payload["group_index_witness"], ("group_index_witness",),
                    keys={"hermite_basis"})["hermite_basis"]:
        return "recorded Hermite basis does not verify"
    # 1 - 1/n_i is (n_i - 1) / n_i in lowest terms, and n_i > 1
    variant = obj(payload["pseudo_cauchy_variant"], ("pseudo_cauchy_variant",), keys={"exponents"})
    if variant["exponents"] != [f"{nv - 1}/{nv}" for nv in indices]:
        return "pseudo-Cauchy variant exponents are not 1 - 1/n_i"
    return None


def _validate_fund_ineq(payload: dict) -> str | None:
    base = obj(payload["base"], ("base",), keys={"residue_char", "value_group"})
    p = integer(base["residue_char"], ("base", "residue_char"))
    if (violation := _prime_violation(p)):
        return violation
    group = Subgroup.generated_by(*list_of(GroupElement.from_json, base["value_group"],
                                           ("base", "value_group")), ambient_rank=1)
    residue_degree = e = f = n = 1
    for i, s in enumerate(list_of(None, payload["steps"], ("steps",)), start=1):
        at = ("steps", i - 1)
        kind, key, subject = _step_subject(s, at, lambda v, at: _from_ratios([ratio(v, at)]))
        obj(s, at, keys={key, *_STEP_FIELDS})
        try:
            step_e, step_f, defect, group, residue_degree = _step_numbers(
                kind, subject, p, group, residue_degree)
        except PreconditionError as exc:
            return f"step {i}: {exc}"
        derived = {"e": step_e, "f": step_f, "degree": step_e * step_f * defect, "defect": defect}
        if (wrong := next((k for k in derived if integer(s[k], (*at, k)) != derived[k]), None)) is not None:
            return f"step {i}: {wrong} is {s[wrong]}, but the step gives {derived[wrong]}"
        e *= step_e
        f *= step_f
        n *= derived["degree"]
    totals = obj(payload["totals"], ("totals",), keys=set(_TOTALS))
    total_e, total_f, total_degree, total_defect = (integer(totals[k], ("totals", k)) for k in _TOTALS)
    if (total_e, total_f, total_degree) != (e, f, n):
        return "totals are not the products of the step data"
    if total_defect * e * f != n:
        return "total defect is not degree / (e * f)"
    return None


def _validate_classification(payload: dict) -> str | None:
    try:
        valn = valuation_from_json(payload["descriptor"], ("descriptor",))
    except PreconditionError as exc:
        return f"descriptor does not build: {exc}"
    flags, order = payload["trichotomy_flags"], payload["torsion_order"]
    if not (type(flags) is list and len(flags) == 3 and all(type(b) is bool for b in flags)):
        raise fail(flags, ("trichotomy_flags",), "a JSON list of three booleans")
    if order is not None:
        integer(order, ("torsion_order",))
    derived_flags, derived_order = valn.trichotomy()
    for key, recorded, derived in (("trichotomy_flags", flags, list(derived_flags)),
                                   ("torsion_order", order, derived_order)):
        if recorded != derived:
            return f"{key} is {json.dumps(recorded)}, but the descriptor gives {json.dumps(derived)}"
    return None


_LEVEL_FIELDS = {"witness_exponents", "value", "grants_denominator_exponent", "membership_witness"}
_TOTALS = ("e", "f", "degree", "defect")

# each kind's validator and the closed set of its payload's top-level fields
# (a validator reads each nested object but the descriptor with its own)
_VALIDATORS = {
    "defect-tower": (_validate_defect_tower, {"p", "schedule", "multipliers",
                     "series_truncation", "levels", "eta_tower"}),
    "degree-lower-bound": (_validate_degree_bound, {"p", "indices", "exponents", "bound",
                           "group_index_witness", "pseudo_cauchy_variant"}),
    "fundamental-inequality": (_validate_fund_ineq, {"base", "steps", "totals"}),
    "classification": (_validate_classification, {"descriptor", "trichotomy_flags",
                                                  "torsion_order"}),
}
