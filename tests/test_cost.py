"""Cost contracts: deterministic work counts that may grow with the size
of the input only at a stated rate.  No clock is read."""

import json
import pathlib
from fractions import Fraction

import pytest

from ratval import fields, groups, valuations
from ratval.certificates import build_defect_tower, build_degree_bound, validate_certificate
from ratval.fields import FiniteField
from ratval.groups import GroupElement, Subgroup, compare
from ratval.selftest import poly_mul
from ratval.series import HahnSeries
from ratval.valuations import RatFunc, TAdicRationalFunctions


def _odd_primes(n: int) -> list[int]:
    primes = []
    q = 3
    while len(primes) < n:
        if all(q % d for d in range(3, q, 2)):
            primes.append(q)
        q += 2
    return primes


def _hermite_rows_passed(monkeypatch, build) -> int:
    """The number of rows that `build()` hands to the Hermite reduction."""
    passed = []
    hermite_rows = groups._hermite_rows

    def counting(mat):
        passed.append(len(mat))
        return hermite_rows(mat)

    monkeypatch.setattr(groups, "_hermite_rows", counting)
    build()
    monkeypatch.undo()
    return sum(passed)


def test_degree_bound_hermite_rows_grow_linearly(monkeypatch):
    """build_degree_bound over the first n odd primes walks the chain
    Z, <1, gamma_1>, ..., <1, gamma_1..gamma_n> of rank-1 groups, and its
    validator builds the top of that chain once more from Z.  When each
    link reduces only its parent's one Hermite row and its new key, the
    rows passed grow linearly in n, a ratio of about 2 from n = 12 to
    n = 24 (1.9).  When each link is reduced from scratch they grow like
    n^2 / 2, a ratio of about 4 (3.3 with the linear terms).  The bound
    2.5 lies between the two."""
    small, large = (_hermite_rows_passed(monkeypatch, lambda: build_degree_bound(2, _odd_primes(n)))
                    for n in (12, 24))
    assert large / small <= 2.5, (small, large)


def test_extension_of_a_reduced_group_reduces_the_new_generators_only(monkeypatch):
    """The extension of a reduced group hands the Hermite reduction the
    parent's rows, rescaled, and the new keys: 1 + 2 rows, not all 6
    generators."""
    base = Subgroup.generated_by(1, "1/3", "2/5", "1/7")
    base.torsion_order(GroupElement.of("1/2"))
    big = base.extended(GroupElement.of("1/11"), GroupElement.of("3/11"))
    assert _hermite_rows_passed(monkeypatch, big.basis) == 3
    assert big.basis() == [GroupElement.of("1/1155")]


@pytest.mark.parametrize("name", ["readme-piltant", "piltant-p3"])
def test_defect_tower_recheck_reduces_no_lattice(monkeypatch, name):
    """Validating a defect tower checks each level's membership witness
    in <1, value> as z . A == D * g from the generators' keys: the
    Hermite reduction is handed no rows at all."""
    golden = pathlib.Path(__file__).parent / "golden" / f"{name}.out"
    cert = json.loads(golden.read_text())["certificate"]
    results = []
    assert _hermite_rows_passed(monkeypatch, lambda: results.append(validate_certificate(cert))) == 0
    assert results[0].ok, results[0].findings


def _kernel_calls(monkeypatch, run) -> int:
    """The number of _pmul and _padd calls that `run()` makes, wherever
    the list kernels are looked up."""
    calls = []
    for module in (fields, valuations):
        for name in ("_pmul", "_padd"):
            def counting(*args, kernel=getattr(module, name)):
                calls.append(1)
                return kernel(*args)
            monkeypatch.setattr(module, name, counting)
    run()
    monkeypatch.undo()
    return len(calls)


def test_f2_taylor_values_list_kernel_calls_grow_linearly(monkeypatch):
    """taylor_values over F_2(t) of prod_j (x - b_j), b_0 = a and b_j =
    a + t^(j-1) with a = (1+t)/(1+t^2+t^3), the golden tadic jobs.  The
    Taylor shift and its H_j run on packed ints, so the list kernels see
    only the lcm of the coefficient denominators, one product for each
    distinct one: 7 calls at degree 8 and 16 at degree 16.  A shift on the
    lists makes N(N+1) kernel calls in its loop alone, a ratio of about 3.5
    per doubling (106 and 339 calls).  The bound 2.5 lies between."""
    F2 = FiniteField(2)
    base, center = TAdicRationalFunctions(F2), RatFunc(F2, [1, 1], [1, 0, 1, 1])
    counts = []
    for degree in (8, 16):
        g = [base.one()]
        for b in [center] + [center + RatFunc(F2, [0] * k + [1]) for k in range(degree - 1)]:
            g = poly_mul(g, [-b, base.one()], base)
        counts.append(_kernel_calls(monkeypatch, lambda: base.taylor_values(g, center)))
    assert counts[1] / counts[0] <= 2.5, counts


def test_a_second_defect_tower_multiplies_no_series(monkeypatch):
    """The eta chain checks v(eta_i ** p - eta_(i-1)) by square-and-multiply,
    and each result is kept for the process under p and the exact stored
    operands.  The roots depend only on p and the level, so a second
    tower at p = 3 builds the same roots and makes no series product at
    all; the first makes the chain's products unless an earlier test in
    this process built them."""
    build_defect_tower(3, [1, 2, 4, 7, 11], 4)
    products = []
    mul = HahnSeries.__mul__
    monkeypatch.setattr(HahnSeries, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    build_defect_tower(3, [1, 3, 6, 10, 15], 4)
    assert products == []


def _fractions_made(monkeypatch, run) -> int:
    """The number of Fractions that `run()` constructs."""
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(1)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    run()
    monkeypatch.undo()
    return len(made)


def test_group_series_and_subgroup_arithmetic_build_no_fraction(monkeypatch):
    """A GroupElement is a denominator and an int key, and so are series
    exponents and the subgroup lattice: element arithmetic, order and
    hashing, series products, sums, values and supports, and membership
    witnesses and torsion orders of prepared elements are int work and
    build no Fraction at all.  The count is zero on every Python version,
    whether or not Fraction's own arithmetic goes through its __new__."""
    a, b, c = GroupElement.of("1/6", "-2/3"), GroupElement.of("3/4", 5), GroupElement.of(2, "7/10")
    q = Fraction(-2, 9)
    f3 = FiniteField(3)
    s = HahnSeries.make(f3, [(GroupElement.of("-1/2"), 1), (GroupElement.of("1/3"), 2),
                             (GroupElement.of("5/4"), 1)], trunc=GroupElement.of(3))
    r = HahnSeries.make(f3, [(GroupElement.of("1/4"), 2), (GroupElement.of("2/5"), 1)])
    gens = [GroupElement.of(x) for x in ("1/2", "1/3", "2/5")]
    member, torsion, outside = GroupElement.of("31/30"), GroupElement.of("1/7"), GroupElement.of(0, 1)
    out = {}

    def run():
        for x, y in ((a, b), (b, c), (c, c)):
            out[x, y] = (x + y, x - y, -x, x.scaled(3), x.scaled(q), 2 * x,
                         x < y, x <= y, x > y, x >= y, compare(x, y), x == y, hash(x))
        out["series"] = ((s * r + s).value(), (s * r).support(), (s + r).support(), r.value())
        group = Subgroup.generated_by(*gens)
        z = group.witness(member)
        out["subgroup"] = (z, group.is_witness(z, member), group.torsion_order(torsion),
                           Subgroup.generated_by(GroupElement.of(1, 0)).torsion_order(outside))

    assert _fractions_made(monkeypatch, run) == 0
    assert out[a, b][0] == GroupElement.of("11/12", "13/3") and out[a, b][6] is True
    assert out["series"][0] == GroupElement.of("-1/2") and out["series"][3] == GroupElement.of("1/4")
    assert out["subgroup"][1:] == (True, 7, None)
