import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratval import groups
from ratval.certificates import (CERTIFICATE_VERSION, Certificate, ExtensionStep, ExtensionTower,
                                 ValidationResult)
from ratval.errors import InternalError, PreconditionError, SchemaError, UndecidedError
from ratval.fields import RATIONALS, FieldElement, FiniteField, FunctionField, FunctionFieldElement
from ratval.groups import GroupElement, Subgroup, compare
from ratval.homogeneous import (ApproxStep, HomogeneityWitness, HomogeneousSequence, HomogIncrement,
                                PcsReport, TowerState)
from ratval.schema import rational
from ratval.series import HahnSeries
from ratval.valuations import RationalFunction


def G(*coords):
    return GroupElement.of(*coords)


class TestCompare:
    def test_equal(self):
        assert compare(G(0), G(0)) == 0

    def test_rationals(self):
        assert compare(G("1/2"), G("1/3")) == 1

    def test_lexicographic_rank_2(self):
        assert compare(G(1, 0), G(0, 5)) == 1

    def test_rank_mismatch(self):
        with pytest.raises(PreconditionError):
            compare(G(1), G(1, 0))

    def test_total_order_compatible_with_addition(self):
        rng = random.Random(7)
        for _ in range(300):
            rank = rng.choice([1, 2])
            a, b, c = (
                G(*[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rank)])
                for _ in range(3)
            )
            if a < b:
                assert a + c < b + c
            # totality: exactly one of <, ==, > holds
            assert (a < b) + (a == b) + (a > b) == 1


class TestScalars:
    def test_int_multiples(self):
        assert G("1/2", 1) * 3 == 3 * G("1/2", 1) == G("3/2", 3)

    @pytest.mark.parametrize("n", [True, False, 1.5])
    def test_bool_or_float_multiple_is_a_type_error(self, n):
        with pytest.raises(TypeError):
            G(1) * n
        with pytest.raises(TypeError):
            n * G(1)

    @pytest.mark.parametrize("x", [True, 1.5, None])
    def test_parsed_non_rational_is_a_schema_error(self, x):
        with pytest.raises(SchemaError, match="as an exact rational"):
            G(x)


class TestMember:
    def test_generator_itself(self):
        s = Subgroup.generated_by("1/3")
        assert s.witness(G("1/3")) == [1]

    def test_half_not_in_integers(self):
        assert G("1/2") not in Subgroup.generated_by(1)

    def test_five_sixths_brute_force_oracle(self):
        # brute force: 5/6 = a/2 + b/3 over Z with |a|, |b| <= 6
        target = Fraction(5, 6)
        solutions = [
            (a, b)
            for a in range(-6, 7)
            for b in range(-6, 7)
            if Fraction(a, 2) + Fraction(b, 3) == target
        ]
        assert solutions, "oracle found no solution"
        s = Subgroup.generated_by("1/2", "1/3")
        w = s.witness(G("5/6"))
        assert w is not None
        assert Fraction(w[0], 2) + Fraction(w[1], 3) == target

    def test_witness_reverifies_on_random_members(self):
        rng = random.Random(13)
        for _ in range(200):
            gens = [
                G(Fraction(rng.randint(-5, 5), rng.randint(1, 6)))
                for _ in range(rng.randint(1, 3))
            ]
            s = Subgroup.generated_by(*gens)
            combo = GroupElement.zero(1)
            coeffs = [rng.randint(-5, 5) for _ in gens]
            for k, g in zip(coeffs, gens):
                combo = combo + g.scaled(k)
            w = s.witness(combo)
            assert w is not None
            acc = GroupElement.zero(1)
            for k, g in zip(w, gens):
                acc = acc + g.scaled(k)
            assert acc == combo

    def test_rank_mismatch(self):
        with pytest.raises(PreconditionError):
            Subgroup.generated_by(1).witness(G(1, 0))

    def test_is_witness_wants_one_int_per_generator(self):
        s = Subgroup.generated_by("1/2", "1/3")
        assert s.is_witness([1, 1], G("5/6"))
        assert s.is_witness(s.witness(G("5/6")), G("5/6"))
        for z in ([1, 1, 0], [1], [True, True], ["1", 1], [1.0, 1], (1, 1), "11", None):
            assert not s.is_witness(z, G("5/6")), z
        assert not s.is_witness([1, 1], G("5/7"))  # D * g is not an int vector
        assert not s.is_witness([0, 0], G("1/12"))  # denominator beyond D


class TestTorsionOrder:
    def test_quarter_over_integers(self):
        assert Subgroup.generated_by(1).torsion_order(G("1/4")) == 4

    def test_identity_case(self):
        assert Subgroup.generated_by(1).torsion_order(G(1)) == 1

    def test_rank_proof_non_torsion(self):
        assert Subgroup.generated_by((1, 0)).torsion_order(G(0, 1)) is None

    def test_bound_exhaustion_is_distinct_from_non_torsion(self):
        with pytest.raises(UndecidedError):
            Subgroup.generated_by(1).torsion_order(G("1/4"), bound=3)

    def test_torsion_semantics(self):
        rng = random.Random(99)
        for _ in range(100):
            s = Subgroup.generated_by(Fraction(rng.randint(1, 4), rng.randint(1, 4)))
            g = G(Fraction(rng.randint(-8, 8), rng.randint(1, 8)))
            if g.is_zero():
                continue
            e = s.torsion_order(g)
            assert e is not None
            assert g.scaled(e) in s
            for k in range(1, e):
                assert g.scaled(k) not in s


class TestIndex:
    def test_thirds_over_integers(self):
        assert Subgroup.generated_by("1/3").index_over(Subgroup.generated_by(1)) == 3

    def test_identity_case(self):
        s = Subgroup.generated_by(1)
        assert s.index_over(s) == 1

    def test_hermite_reduction_oracle(self):
        # <1/2, 1/3> = <1/6> by Hermite reduction, so the index over Z is 6
        s = Subgroup.generated_by("1/2", "1/3")
        assert [b.coords[0] for b in s.basis()] == [Fraction(1, 6)]
        assert s.index_over(Subgroup.generated_by(1)) == 6

    def test_not_a_subgroup(self):
        with pytest.raises(PreconditionError):
            Subgroup.generated_by(1).index_over(Subgroup.generated_by("1/2"))

    def test_infinite_when_spans_differ(self):
        s = Subgroup.generated_by((1, 0), (0, 1))
        t = Subgroup.generated_by((1, 0))
        assert s.index_over(t) is None

    def test_rank_2_finite_index(self):
        s = Subgroup.generated_by(("1/2", 0), (0, "1/3"))
        t = Subgroup.generated_by((1, 0), (0, 1))
        assert s.index_over(t) == 6
        u = Subgroup.generated_by(("1/2", 0), (0, 1))
        assert s.index_over(u) == 3 and u.index_over(t) == 2

    def test_multiplicative_along_chains(self):
        rng = random.Random(5)
        for _ in range(60):
            d1 = rng.randint(1, 5)
            d2 = rng.randint(1, 5)
            base = Fraction(1, rng.randint(1, 4))
            s = Subgroup.generated_by(base / (d1 * d2))
            u = Subgroup.generated_by(base / d1)
            t = Subgroup.generated_by(base)
            assert s.index_over(t) == s.index_over(u) * u.index_over(t)


class TestPreconditions:
    def test_trivial_subgroup_needs_a_rank(self):
        with pytest.raises(PreconditionError, match="ambient_rank required"):
            Subgroup.generated_by()
        assert Subgroup.generated_by(ambient_rank=2).witness(G(0, 0)) == []

    def test_bad_fresh_coordinate_placement(self):
        with pytest.raises(PreconditionError, match="placement must be 'small' or 'large'"):
            Subgroup.generated_by(1).with_fresh_coordinate("middle")


class TestFreshCoordinate:
    def test_small_placement_is_infinitesimal(self):
        s = Subgroup.generated_by(1)
        bigger, embed = s.with_fresh_coordinate("small")
        fresh = G(0, 1)
        assert fresh > GroupElement.zero(2)
        assert fresh < embed(G(Fraction(1, 1000)))

    def test_large_placement_dominates(self):
        s = Subgroup.generated_by(1)
        bigger, embed = s.with_fresh_coordinate("large")
        fresh = G(1, 0)
        assert fresh > embed(G(1000))


# -- the membership, torsion and index routines as they were before every
# query went through one reduction, kept as the reference the property
# tests compare against.  They take the generator list.

def _ref_lattice(gens):
    """(D, Hermite rows, transform, pivots), the transform read off the
    reduction of [A | I] for A the generators' keys over D."""
    dens = [c.denominator for g in gens for c in g.coords]
    d = math.lcm(*dens) if dens else 1
    width, m = len(gens[0].coords) if gens else 0, len(gens)
    rows, pivots = groups._hermite_rows(
        [[int(c * d) for c in g.coords] + [int(i == j) for j in range(m)] for i, g in enumerate(gens)], width)
    return d, [row[:width] for row in rows], [row[width:] for row in rows], pivots


def _ref_witness(gens, g):
    d, rows, exprs, pivots = _ref_lattice(gens)
    if not rows:
        return [] if g.is_zero() else None
    scaled = [c * d for c in g.coords]
    if any(x.denominator != 1 for x in scaled):
        return None
    w = [int(x) for x in scaled]
    coeffs = [0] * len(rows)
    for i, col in enumerate(pivots):
        piv = rows[i][col]
        if w[col] % piv != 0:
            return None
        q = w[col] // piv
        coeffs[i] = q
        if q:
            w = [a - q * b for a, b in zip(w, rows[i])]
    if any(w):
        return None
    return [sum(coeffs[i] * exprs[i][j] for i in range(len(rows))) for j in range(len(gens))]


def _ref_torsion_order(gens, g, bound=None):
    d, rows, _, pivots = _ref_lattice(gens)
    if not rows:
        coords = [] if g.is_zero() else None
    else:
        w = [c * d for c in g.coords]
        coords = []
        for i, col in enumerate(pivots):
            q = Fraction(w[col], rows[i][col])
            coords.append(q)
            if q:
                w = [a - q * b for a, b in zip(w, rows[i])]
        if any(w):
            coords = None
    if coords is None:
        return None
    e = math.lcm(*(q.denominator for q in coords)) if coords else 1
    if bound is not None and e > bound:
        raise UndecidedError(f"torsion order {e} exceeds the search bound {bound}")
    return e


def _ref_index_over(gens, sub_gens):
    d, rows, _, pivots = _ref_lattice(gens)
    k = len(rows)
    coord_rows = []
    for t in sub_gens:
        if _ref_witness(gens, t) is None:
            raise PreconditionError("not a subgroup")
        w = [int(c * d) for c in t.coords]
        coords = [0] * k
        for i, col in enumerate(pivots):
            q = w[col] // rows[i][col]
            coords[i] = q
            if q:
                w = [a - q * b for a, b in zip(w, rows[i])]
        coord_rows.append(coords)
    if k == 0:
        return 1
    sub_rows, sub_pivots = groups._hermite_rows(coord_rows, k) if coord_rows else ([], [])
    if len(sub_rows) < k:
        return None
    det = 1
    for i, col in enumerate(sub_pivots):
        det *= sub_rows[i][col]
    return abs(det)


def _combo(rng, gens, rank, rational=False):
    """A random combination of `gens`; with `rational`, the first
    coefficient is a fraction."""
    acc = GroupElement.zero(rank)
    for i, g in enumerate(gens):
        k = Fraction(rng.randint(-4, 4), rng.randint(2, 5)) if rational and i == 0 else rng.randint(-4, 4)
        acc = acc + g.scaled(k)
    return acc


def _random_vector(rng, rank):
    return GroupElement(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(rank)))


def _random_generators(rng, rank):
    """Up to four generators: random ones with negative entries, zeros,
    duplicates, dependent combinations and single-coordinate ones (so
    that other coordinates stay outside the span)."""
    gens = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(["random", "random", "zero", "duplicate", "dependent", "axis"])
        if kind == "zero" or (kind in ("duplicate", "dependent") and not gens):
            gens.append(GroupElement.zero(rank))
        elif kind == "duplicate":
            gens.append(rng.choice(gens))
        elif kind == "dependent":
            gens.append(_combo(rng, gens, rank, rational=rng.random() < 0.5))
        elif kind == "axis":
            coords = [Fraction(0)] * rank
            coords[rng.randrange(rank)] = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))
            gens.append(GroupElement(tuple(coords)))
        else:
            gens.append(_random_vector(rng, rank))
    return gens


def _outcome(fn, *args):
    """fn(*args), or the type of the ratval error it raises."""
    try:
        return fn(*args)
    except (PreconditionError, UndecidedError) as exc:
        return type(exc)


class TestAgainstReference:
    """Seeded random generator sets of rank <= 3 against the reference
    routines above."""

    def test_witness_membership_and_torsion(self):
        rng = random.Random(2024)
        seen = set()
        for _ in range(400):
            rank = rng.randint(1, 3)
            gens = _random_generators(rng, rank)
            s = Subgroup.generated_by(*gens, ambient_rank=rank)
            targets = [GroupElement.zero(rank), _random_vector(rng, rank),
                       _combo(rng, gens, rank), _combo(rng, gens, rank, rational=True)]
            for g in targets:
                w = s.witness(g)
                ref = _ref_witness(gens, g)
                if gens and all(x.is_zero() for x in gens) and g.is_zero():
                    # the reference returned [] here; the witness has one entry per generator
                    assert ref == [] and w == [0] * len(gens)
                else:
                    assert w == ref
                assert (g in s) is (w is not None)
                if w is not None:
                    assert len(w) == len(gens)
                    for k in range(rank):
                        assert sum(Fraction(zi) * x.coords[k] for zi, x in zip(w, gens)) == g.coords[k]
                e = s.torsion_order(g)
                assert e == _ref_torsion_order(gens, g)
                bound = rng.randint(1, 6)
                got = _outcome(s.torsion_order, g, bound)
                assert got == _outcome(_ref_torsion_order, gens, g, bound)
                seen.add("member" if w is not None else "non-torsion" if e is None else "torsion")
                seen.add("undecided" if got is UndecidedError else "bounded")
        assert seen == {"member", "non-torsion", "torsion", "undecided", "bounded"}

    def test_index_over(self):
        rng = random.Random(4202)
        seen = set()
        for _ in range(300):
            rank = rng.randint(1, 3)
            gens = _random_generators(rng, rank)
            s = Subgroup.generated_by(*gens, ambient_rank=rank)
            sub_gens = [_combo(rng, gens, rank) for _ in range(rng.randint(0, 4))]
            if rng.random() < 0.2:
                sub_gens.append(_random_vector(rng, rank))
            got = _outcome(s.index_over, Subgroup.generated_by(*sub_gens, ambient_rank=rank))
            assert got == _outcome(_ref_index_over, gens, sub_gens)
            seen.add(got if got in (None, PreconditionError) else int)
        assert seen == {None, PreconditionError, int}

    def test_planted_fault_in_the_transform(self, monkeypatch):
        hermite_rows = groups._hermite_rows

        def corrupted(mat, width):
            rows, pivots = hermite_rows(mat, width)
            return [row[:width] + [x + 1 for x in row[width:]] for row in rows], pivots

        monkeypatch.setattr(groups, "_hermite_rows", corrupted)
        for query in (lambda s: s.witness(G("5/6")),
                      lambda s: G(1) in s,
                      lambda s: s.index_over(Subgroup.generated_by(1))):
            with pytest.raises(InternalError, match="witness failed re-verification"):
                query(Subgroup.generated_by("1/2", "1/3"))


def _chain_link(rng, gens, rank):
    """New generators for one `extended` call: random ones (new
    denominators, zeros, duplicates among themselves), and at times a
    duplicate of an earlier generator or a combination of them."""
    new = _random_generators(rng, rank)
    if gens and rng.random() < 0.4:
        new.append(rng.choice(gens))
    if gens and rng.random() < 0.4:
        new.append(_combo(rng, gens, rank, rational=rng.random() < 0.5))
    return new


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(seed=st.integers(0, 2 ** 32), links=st.integers(1, 4), rank=st.integers(1, 3))
def test_extended_lattice_matches_a_from_scratch_one(seed, links, rank):
    """A chain of `extended` calls, each link's lattice computed before
    the next link is made or not, derives the from-scratch D, rows and
    pivots, which are also the Hermite part of the [A | I] reduction;
    torsion orders, membership, witnesses and indices agree with a
    from-scratch group of the same generators, and every witness
    verifies."""
    rng = random.Random(seed)
    gens = _random_generators(rng, rank)
    chain = [Subgroup.generated_by(*gens, ambient_rank=rank)]
    for _ in range(links):
        if rng.random() < 0.6:
            chain[-1]._lattice
        new = _chain_link(rng, list(chain[-1].generators), rank)
        chain.append(chain[-1].extended(*new))
    for s in chain:
        scratch = Subgroup(rank, s.generators)
        assert s == scratch and hash(s) == hash(scratch)
        d, mat, rows, pivots = s._lattice
        d0, mat0, rows0, pivots0 = scratch._lattice
        assert (d, [list(r) for r in mat], rows, pivots) == (d0, [list(r) for r in mat0], rows0, pivots0)
        rows1, pivots1 = s._transform
        assert ([row[:rank] for row in rows1], pivots1) == (rows, pivots)
        gens = list(s.generators)
        targets = [GroupElement.zero(rank), _random_vector(rng, rank),
                   _combo(rng, gens, rank), _combo(rng, gens, rank, rational=True)]
        for g in targets:
            assert s.torsion_order(g) == scratch.torsion_order(g)
            bound = rng.randint(1, 6)
            assert _outcome(s.torsion_order, g, bound) == _outcome(scratch.torsion_order, g, bound)
            w = s.witness(g)
            assert w == scratch.witness(g)
            assert (w is None) is (g not in s)
            assert w is None or s.is_witness(w, g)
        for sub in [*chain, Subgroup.generated_by(*targets[2:], ambient_rank=rank)]:
            assert _outcome(s.index_over, sub) == _outcome(scratch.index_over, sub)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(seed=st.integers(0, 2 ** 32), rank=st.integers(1, 3))
def test_is_witness_agrees_before_and_after_reduction(seed, rank):
    """is_witness gives one verdict on a fresh group, whose lattice it
    leaves unbuilt, and on the same group once its lattice is reduced:
    true for a witness, and for a perturbed witness or target exactly
    when the combination still equals the target."""
    rng = random.Random(seed)
    gens = _random_generators(rng, rank)
    fresh, reduced = (Subgroup.generated_by(*gens, ambient_rank=rank) for _ in range(2))
    reduced._lattice

    def combination(z):
        acc = GroupElement.zero(rank)
        for k, g in zip(z, gens):
            acc = acc + g * k
        return acc

    z = [rng.randint(-4, 4) for _ in gens]
    g = combination(z)
    cases = [(z, g), (z, g + _random_vector(rng, rank)), (z + [0], g), (z[:-1], g)]
    if gens:
        k = rng.randrange(len(gens))
        cases.append((z[:k] + [z[k] + rng.choice((-1, 1))] + z[k + 1:], g))
    for zz, gg in cases:
        expected = len(zz) == len(gens) and combination(zz) == gg
        assert fresh.is_witness(zz, gg) is reduced.is_witness(zz, gg) is expected, (zz, gg)
    assert "_lattice" not in fresh.__dict__ and "_transform" not in fresh.__dict__


def test_extended_links_only_a_reduced_parent():
    """`extended` links the new group to this group if its lattice is
    reduced, else to this group's own parent; an unreduced chain from a
    group with no parent is reduced from scratch."""
    base = Subgroup.generated_by(1, "1/3")
    assert base.extended(G("1/5"))._parent is None
    assert base.extended(G("1/5")).extended(G("1/7"))._parent is None
    base.torsion_order(G("1/2"))
    assert base.extended(G("1/5"))._parent is base
    assert base.extended(G("1/5")).extended(G("1/7"))._parent is base


def test_planted_fault_in_the_derived_transform(monkeypatch):
    """A wrong transform of an extended group is caught by the witness
    re-check; the parent's transform, made before the fault, is left
    intact."""
    hermite_rows = groups._hermite_rows

    def corrupted(mat, width):
        rows, pivots = hermite_rows(mat, width)
        return [row[:width] + [x + 1 for x in row[width:]] for row in rows], pivots

    base = Subgroup.generated_by("1/2")
    assert base.witness(G(1)) == [2]
    monkeypatch.setattr(groups, "_hermite_rows", corrupted)
    assert base.witness(G(1)) == [2]
    for query in (lambda s: s.witness(G("5/6")),
                  lambda s: G(1) in s,
                  lambda s: s.index_over(Subgroup.generated_by(1))):
        big = base.extended(G("1/3"))
        with pytest.raises(InternalError, match="witness failed re-verification"):
            query(big)


@pytest.mark.parametrize("sub", ["1/2", "1"])
def test_planted_fault_in_is_witness_reaches_index_over(monkeypatch, sub):
    """index_over certifies a generator of the bigger group by its unit
    vector and any other member through _witness: with an is_witness that
    accepts nothing, both raise InternalError."""
    big = Subgroup.generated_by("1/2", "1/3")
    assert big.index_over(Subgroup.generated_by(sub)) == {"1/2": 3, "1": 6}[sub]
    monkeypatch.setattr(Subgroup, "is_witness", lambda self, z, g: False)
    with pytest.raises(InternalError, match="witness failed re-verification"):
        big.index_over(Subgroup.generated_by(sub))


def _vector(rank):
    """(num, den) pairs, not in lowest terms as a rule, for one vector."""
    coord = st.tuples(st.integers(-30, 30), st.integers(1, 12))
    return st.lists(coord, min_size=rank, max_size=rank)


@st.composite
def _two_vectors(draw):
    rank = draw(st.integers(1, 3))
    return draw(_vector(rank)), draw(_vector(rank))


def _from_strings(pairs, k=1):
    """The element of the "num/den" strings of pairs, each times k / k."""
    return G(*(f"{n * k}/{d * k}" for n, d in pairs))


def _in_lowest_terms(g):
    return g.den > 0 and math.gcd(g.den, *g.key) == 1


def _padded(pairs, k, zeros):
    """The "num/den" strings of pairs, each times k / k, with `zeros`
    leading zeros on both parts, a zero signed "-" when zeros is odd."""
    pad = "0" * zeros
    return [f"{'-' if n < 0 or n == 0 and zeros % 2 else ''}{pad}{abs(n) * k}/{pad}{d * k}" for n, d in pairs]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(vectors=_two_vectors(), n=st.integers(-7, 7),
       q=st.tuples(st.integers(-9, 9), st.integers(1, 9)), k=st.integers(2, 5),
       zeros=st.integers(0, 3))
def test_element_agrees_with_a_fraction_tuple_reference(vectors, n, q, k, zeros):
    """Sums, differences, negation, int and rational multiples, the order,
    equality, hashing and the JSON and repr strings of an element agree
    with the same operations on a tuple of Fractions; the stored pair is
    in lowest terms whatever denominators the element was built from.
    `of` and `from_json` read unreduced, zero-padded and "-0" strings to
    the element of the Fractions that schema.rational reads."""
    texts = _padded(vectors[0], k, zeros)
    ref = GroupElement(tuple(rational(t) for t in texts))
    for got in (GroupElement.of(*texts), GroupElement.from_json(texts),
                GroupElement.from_json(texts[0]) if len(texts) == 1 else ref):
        assert got == ref and (got.den, got.key) == (ref.den, ref.key) and _in_lowest_terms(got)
    a, b = (_from_strings(v) for v in vectors)
    ra, rb = (tuple(Fraction(num, den) for num, den in v) for v in vectors)
    q = Fraction(*q)
    results = [
        (a + b, tuple(x + y for x, y in zip(ra, rb))),
        (a - b, tuple(x - y for x, y in zip(ra, rb))),
        (-a, tuple(-x for x in ra)),
        (a.scaled(n), tuple(n * x for x in ra)),
        (a * n, tuple(n * x for x in ra)),
        (n * a, tuple(n * x for x in ra)),
        (a.scaled(q), tuple(q * x for x in ra)),
        (a.scaled(f"{q.numerator * k}/{q.denominator * k}"), tuple(q * x for x in ra)),
    ]
    for got, want in results:
        ref = GroupElement(want)
        assert got.coords == want and got.rank == len(want)
        assert got == ref and hash(got) == hash(ref) and _in_lowest_terms(got)
        assert got.to_json() == [str(x) for x in want]
        assert repr(got) == "(" + ", ".join(str(x) for x in want) + ")"
        assert GroupElement.from_json(got.to_json()) == got
        assert got.is_zero() is all(x == 0 for x in want)
    assert (a < b, a <= b, a > b, a >= b) == (ra < rb, ra <= rb, ra > rb, ra >= rb)
    assert compare(a, b) == (ra > rb) - (ra < rb)
    assert (a == b) is (ra == rb) and (a != b) is (ra != rb)
    same = _from_strings(vectors[0], k)  # the same vector over other denominators
    assert same == a and hash(same) == hash(a) and (same.den, same.key) == (a.den, a.key)
    longer = GroupElement.zero(a.rank + 1)
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x < y, lambda x, y: x <= y,
               lambda x, y: x > y, lambda x, y: x >= y, compare):
        with pytest.raises(PreconditionError, match=f"^rank mismatch: {a.rank} vs {a.rank + 1}$"):
            op(a, longer)
    assert a != longer


def test_equal_elements_from_other_denominators_are_one_element():
    a, b = G("2/4", "0"), G("1/2", "0")
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert (a.den, a.key) == (b.den, b.key) == (2, (1, 0))
    assert a.to_json() == ["1/2", "0"] and repr(a) == "(1/2, 0)"
    assert GroupElement((Fraction(-6, 4), 3)).to_json() == ["-3/2", "3"]


F3, Q = FiniteField(3), RATIONALS
Z, HALF = Subgroup(1, (G(1),)), G("1/2")
SERIES = HahnSeries.make(F3, [("1/2", 1)], "2")
STATE = TowerState(Z, 2, 3)
WITNESS = HomogeneityWitness(True, 2, 1)
INCREMENT = HomogIncrement(1, 0, SERIES, HALF, F3.one(), "kummer", HALF, 2, 1, STATE)
STATE_TEXT = "TowerState(value_subgroup=Subgroup(rank 1: <(1)>), residue_degree=2, residue_char=3)"
INCREMENT_TEXT = ("HomogIncrement(index=1, term_index=0, partial_sum=t^1/2 + O(t^2), exponent=(1/2), "
                  f"coeff=1, family='kummer', kras=(1/2), e=2, f=1, state_after={STATE_TEXT})")

# One instance of each value record of the library: its constructor's
# positional arguments and their parameter names, the defaults of the
# trailing parameters (the value the attribute takes when left out), the
# fields that == and hash compare (None: the class compares by its own
# rule), the arguments of an unequal instance, and the repr.
RECORDS = [
    (FieldElement, (F3, (2,)), ("field", "value"), {}, ("field", "value"), (F3, (1,)), "2"),
    (FunctionFieldElement, (FunctionField(Q, "t"), (Q.one(),), (Q.zero(), Q.one())),
     ("field", "num", "den"), {}, ("field", "num", "den"),
     (FunctionField(Q, "t"), (Q.one(),), (Q.one(),)), "(1) / (t)"),
    (GroupElement, ((Fraction(1, 2),),), ("coords",), {}, ("den", "key"), ((Fraction(1, 3),),),
     "(1/2)"),
    (Subgroup, (1, (G(1), HALF), Z), ("ambient_rank", "generators", "_parent"), {"_parent": None},
     ("ambient_rank", "generators"), (1, (G(1),)), "Subgroup(rank 1: <(1), (1/2)>)"),
    (HahnSeries, (F3, 1, 2, ((1,),), ((1,),), (4,)), ("field", "rank", "den", "keys", "values", "top"),
     {"top": None}, None, (F3, 1, 2, ((1,),), ((2,),), (4,)), "t^1/2 + O(t^2)"),
    (RationalFunction, ((Q.one(), Q.zero()), (Q.one(),)), ("num", "den"), {}, ("num", "den"),
     ((Q.one(),), (Q.one(),)), "RationalFunction(num=(1, 0), den=(1,))"),
    (TowerState, (Z, 2, 3), ("value_subgroup", "residue_degree", "residue_char"),
     {"residue_degree": 1, "residue_char": 0}, ("value_subgroup", "residue_degree", "residue_char"),
     (Z, 2, 5), STATE_TEXT),
    (HomogeneityWitness, (False, 3, None, "why"), ("ok", "e", "f", "reason"), {"reason": ""},
     ("ok", "e", "f", "reason"), (False, 3, None, "why not"),
     "HomogeneityWitness(ok=False, e=3, f=None, reason='why')"),
    (ApproxStep, (0, SERIES, HALF, F3.one(), WITNESS),
     ("term_index", "partial_sum", "exponent", "coeff", "witness"), {},
     ("term_index", "partial_sum", "exponent", "coeff", "witness"),
     (1, SERIES, HALF, F3.one(), WITNESS),
     "ApproxStep(term_index=0, partial_sum=t^1/2 + O(t^2), exponent=(1/2), coeff=1, "
     "witness=HomogeneityWitness(ok=True, e=2, f=1, reason=''))"),
    (HomogIncrement, (1, 0, SERIES, HALF, F3.one(), "kummer", HALF, 2, 1, STATE),
     ("index", "term_index", "partial_sum", "exponent", "coeff", "family", "kras", "e", "f",
      "state_after"), {},
     ("index", "term_index", "partial_sum", "exponent", "coeff", "family", "kras", "e", "f",
      "state_after"), (1, 0, SERIES, HALF, F3.one(), "kummer", HALF, 2, 2, STATE), INCREMENT_TEXT),
    (HomogeneousSequence, (STATE, (INCREMENT,), STATE, True),
     ("base_state", "increments", "final_state", "exhausted"), {},
     ("base_state", "increments", "final_state", "exhausted"), (STATE, (), STATE, True),
     f"HomogeneousSequence(base_state={STATE_TEXT}, increments=({INCREMENT_TEXT},), "
     f"final_state={STATE_TEXT}, exhausted=True)"),
    (PcsReport, (True, ("a finding",), (HALF, None)), ("ok", "findings", "difference_values"), {},
     ("ok", "findings", "difference_values"), (True, (), (HALF, None)),
     "PcsReport(ok=True, findings=('a finding',), difference_values=((1/2), None))"),
    (Certificate, ("classification", {"torsion_order": 2}, 4), ("kind", "payload", "version"),
     {"version": CERTIFICATE_VERSION}, ("kind", "payload", "version"),
     ("classification", {"torsion_order": 3}, 4),
     "Certificate(kind='classification', payload={'torsion_order': 2}, version=4)"),
    (ExtensionStep, ("kummer", Fraction(1, 2), (1, 0, 1), Fraction(-1)),
     ("kind", "alpha", "modulus", "c_exponent"), {"alpha": None, "modulus": (), "c_exponent": None},
     ("kind", "alpha", "modulus", "c_exponent"), ("kummer", Fraction(1, 3), (1, 0, 1), Fraction(-1)),
     "ExtensionStep(kind='kummer', alpha=Fraction(1, 2), modulus=(1, 0, 1), "
     "c_exponent=Fraction(-1, 1))"),
    (ExtensionTower, (3, F3, Z, 2, (), SERIES, Subgroup(1, (HALF,))),
     ("residue_char", "coefficient_field", "value_subgroup", "residue_degree", "steps",
      "top_witness", "base_value_subgroup"),
     {"residue_degree": 1, "steps": (), "top_witness": None, "base_value_subgroup": Z},
     ("residue_char", "coefficient_field", "value_subgroup", "residue_degree", "steps",
      "top_witness", "base_value_subgroup"), (3, F3, Z, 2, (), SERIES, Z),
     "ExtensionTower(residue_char=3, coefficient_field=F_3, value_subgroup=Subgroup(rank 1: <(1)>), "
     "residue_degree=2, steps=(), top_witness=t^1/2 + O(t^2), "
     "base_value_subgroup=Subgroup(rank 1: <(1/2)>))"),
    (ValidationResult, (False, ("a finding",)), ("ok", "findings"), {}, ("ok", "findings"),
     (True, ()), "ValidationResult(ok=False, findings=('a finding',))"),
]


def _hash(x):
    try:
        return hash(x)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("cls, args, names, defaults, compared, unequal, text", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_element_is_immutable(cls, args, names, defaults, compared, unequal, text):
    """Construction, equality, hashing, immutability and repr of each
    value record: == and hash are those of the tuple of the compared
    fields, between instances of one class."""
    x = cls(*args)
    assert x == cls(**dict(zip(names, args))) and not x != cls(*args)
    assert x != cls(*unequal) and not x == cls(*unequal)
    required = cls(**dict(zip(names, args[:len(names) - len(defaults)])))
    assert {name: getattr(required, name) for name in defaults} == defaults
    assert repr(x) == text
    if compared is not None:
        values = tuple(getattr(x, name) for name in compared)
        assert x != SimpleNamespace(**dict(zip(compared, values)))
        twin = type("Twin", (cls,), {})(*args)  # a subclass, so another class, with equal fields
        assert x != twin and not x == twin and not twin == x
        if cls is ExtensionTower:
            with pytest.raises(TypeError):
                hash(x)
        else:
            assert _hash(x) == _hash(values)
    if cls is Subgroup:  # the parent is a cache, outside ==, hash and repr
        assert x == required and hash(x) == hash(required) and repr(x) == repr(required)
    if cls is ExtensionTower:  # the one mutable record
        x.residue_degree = 4
        assert x.residue_degree == 4
        return
    for name in (*names, *(compared or ()), "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == cls(*args)
