"""Cost contracts: deterministic work counts that may grow with the size
of the input only at a stated rate.  No clock is read."""

import json
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from ratval import cli, fields, groups, valuations
from ratval.certificates import build_defect_tower, build_degree_bound, validate_certificate
from ratval.fields import FiniteField
from ratval.groups import GroupElement, Subgroup, compare
from ratval.selftest import poly_mul
from ratval.homogeneous import krasner_kummer
from ratval.series import HahnSeries, kummer_root
from ratval.valuations import (CenteredValuation, RatFunc, TAdicRationalFunctions,
                               substitution_value, valuation_from_json)


def _odd_primes(n: int) -> list[int]:
    primes = []
    q = 3
    while len(primes) < n:
        if all(q % d for d in range(3, q, 2)):
            primes.append(q)
        q += 2
    return primes


def _hermite_calls(monkeypatch, run) -> list[tuple[list, tuple]]:
    """(matrix passed, result returned) for each Hermite reduction that
    `run()` makes."""
    calls = []
    hermite_rows = groups._hermite_rows

    def recording(mat, width):
        out = hermite_rows(mat, width)
        calls.append((mat, out))
        return out

    monkeypatch.setattr(groups, "_hermite_rows", recording)
    run()
    monkeypatch.undo()
    return calls


def _hermite_rows_passed(monkeypatch, build) -> int:
    """The number of rows that `build()` hands to the Hermite reduction."""
    return sum(len(mat) for mat, _ in _hermite_calls(monkeypatch, build))


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


def _bits(obj) -> int:
    """The total bit length of the ints in a nest of lists and tuples."""
    return obj.bit_length() if type(obj) is int else sum(_bits(x) for x in obj)


def test_degree_bound_recheck_hermite_bits_grow_gently(monkeypatch):
    """A degree-bound recheck over the first n odd primes reduces
    <1, gamma_1..gamma_n> over D = lcm(n_i), of about n log n bits.  Its
    lattice keeps no transform, so the reduction returns the few Hermite
    rows and pivots, and the bits returned grow by about 2.4 from n = 24
    to n = 48.  An m x m transform carried along returns m rows of
    D-sized entries, about 9.5 times as many bits at the double.  The
    bound 4 lies between the two."""
    bits = []
    for n in (24, 48):
        cert, results = build_degree_bound(2, _odd_primes(n)), []
        calls = _hermite_calls(monkeypatch, lambda: results.append(validate_certificate(cert)))
        bits.append(sum(_bits(out) for _, out in calls))
        assert results[0].ok, results[0].findings
    assert bits[1] / bits[0] <= 4, bits


def test_extension_of_a_reduced_group_reduces_the_new_generators_only(monkeypatch):
    """The extension of a reduced group hands the Hermite reduction the
    parent's rows, rescaled, and the new keys: 1 + 2 rows, not all 6
    generators."""
    base = Subgroup.generated_by(1, "1/3", "2/5", "1/7")
    base.torsion_order(GroupElement.of("1/2"))
    big = base.extended(GroupElement.of("1/11"), GroupElement.of("3/11"))
    assert _hermite_rows_passed(monkeypatch, big.basis) == 3
    assert big.basis() == [GroupElement.of("1/1155")]


def test_a_witness_on_a_fresh_group_reduces_once(monkeypatch):
    """A fresh group asked only for a witness reduces [A | I] once, its
    2 rows: the coordinates and the witness are read off that one
    reduction, as the defect-tower builder asks at every level."""
    group = Subgroup.generated_by(1, "2/9")
    assert _hermite_rows_passed(monkeypatch, lambda: group.witness(GroupElement.of("1/9"))) == 2
    assert group.witness(GroupElement.of("1/9")) == [1, -4]


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


# the stdlib modules behind @dataclass (its code generation and signature
# reading), and the ratval modules that `import ratval.cli` loads
_DATACLASS_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")
_CLI_MODULES = ("ratval", "ratval.certificates", "ratval.cli", "ratval.errors", "ratval.fields",
                "ratval.groups", "ratval.homogeneous", "ratval.record", "ratval.schema",
                "ratval.series", "ratval.valuations")


def test_cli_import_loads_no_dataclasses():
    """A fresh interpreter (-S, src first on sys.path) that runs `import
    ratval.cli` loads none of dataclasses, inspect, ast, dis and tokenize,
    and exactly the ratval modules above: the value records are plain
    classes on ratval.record, and no ratval import is deferred."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import ratval.cli; "
            "print(json.dumps(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, check=True)
    loaded = json.loads(proc.stdout)
    assert [name for name in _DATACLASS_MODULES if name in loaded] == []
    assert tuple(name for name in loaded if name.partition(".")[0] == "ratval") == _CLI_MODULES


# the dense list kernels of fields, wherever they are looked up
_LIST_KERNELS = ("_padd", "_pmul", "_prem", "_pdivmod", "_pgcd", "_pmonic", "_preduce", "_pstrip",
                 "_ppack", "_ppack_cleared", "_pdigits", "_pshift")


def _list_kernel_calls(monkeypatch, run) -> list[str]:
    """The names of the list kernels that `run()` calls, in call order."""
    called = []
    for module in (fields, valuations):
        for name in _LIST_KERNELS:
            if hasattr(module, name):
                def counting(*args, name=name, kernel=getattr(module, name)):
                    called.append(name)
                    return kernel(*args)
                monkeypatch.setattr(module, name, counting)
    run()
    monkeypatch.undo()
    return called


def test_f2_eval_path_makes_no_list_kernel_call(monkeypatch):
    """Over F_2(t) the job reader (FunctionField._make), the fast path's
    clearing and Taylor shift and the oracle's lcm loop and Horner steps
    all run on one int per polynomial: reading the golden tadic-deg8
    job's coefficients, of_poly and substitution_value call no list
    kernel at all.  Before F_2[t] ran on ints, the reader reduced every
    coefficient by _pgcd and _pdivmod on lists, and the clearing and the
    oracle took their lcm by _pmul, _pgcd and _pdivmod."""
    golden = pathlib.Path(__file__).parent / "golden"
    job = json.loads((golden / "tadic-deg8.json").read_text())
    value = GroupElement.of(json.loads((golden / "tadic-deg8.out").read_text())["value"])
    valn = valuation_from_json(job["valuation"])
    got = []

    def run():
        cs = [valn.base.element(c) for c in job["eval"]["num"]]
        got.append((valn.of_poly(cs), substitution_value(valn, cs)))

    assert _list_kernel_calls(monkeypatch, run) == []
    assert got == [(value, value)]


def _f2_product(degree: int):
    """prod_j (x - b_j) over F_2(t), b_0 = a and b_j = a + t^(j-1) with a =
    (1+t)/(1+t^2+t^3): the golden tadic jobs, at gamma 1/2."""
    F2 = FiniteField(2)
    base, center = TAdicRationalFunctions(F2), RatFunc(F2, [1, 1], [1, 0, 1, 1])
    g = [base.one()]
    for b in [center] + [center + RatFunc(F2, [0] * k + [1]) for k in range(degree - 1)]:
        g = poly_mul(g, [-b, base.one()], base)
    return CenteredValuation(base, center, GroupElement.of("1/2")), g


def _product_work(monkeypatch, run) -> int:
    """The sum, over the products of F_2[t] ints that `run()` makes, of
    the product of the operands' bit lengths: each _f2_mul (the clearing,
    the lcm loops and the H_j), and each x * n of a shift pass or a Horner
    step of the oracle, read through counting wrappers."""
    work = []

    class Counted(int):
        def __mul__(self, other):
            work.append(self.bit_length() * other.bit_length())
            return int(self) * other

    def counted_mul(a, b, mul=fields._f2_mul):
        work.append(a.bit_length() * b.bit_length())
        return mul(a, b)

    def stepping(passes):
        return lambda cs, step: passes(cs, lambda x, y: step(Counted(x), y))

    monkeypatch.setattr(fields, "_f2_mul", counted_mul)
    monkeypatch.setattr(fields._F2Polys, "mul", staticmethod(counted_mul))
    monkeypatch.setattr(fields, "_shift_passes", stepping(fields._shift_passes))
    monkeypatch.setattr(valuations, "_horner", stepping(valuations._horner))
    run()
    monkeypatch.undo()
    return sum(work)


@pytest.mark.parametrize("path", ["fast path", "oracle"])
def test_f2_product_work_grows_as_the_fourth_power(monkeypatch, path):
    """The product work of the F_2(t) fast path (taylor_values) and of
    the oracle (substitution_value) on _f2_product from degree N = 16 to
    32.  Root j has a numerator of degree j + 2, so the coefficients of g
    have O(N^2)-bit numerators.  On ints at the fixed width bitlen(len n)
    + 1 (3 bits here), the N^2 / 2 passes or Horner steps multiply an
    O(N^2)-bit h by the packed center, and the N products of the H_j have
    O(N^2)-bit and O(N)-bit operands: O(N^4), a ratio of at most about 16
    (12.5 for the fast path, 13.3 for the oracle).  At the width b of the
    exact lift over Z, which holds an l1 bound that grows with N (b = 38
    at N = 16, 67 at N = 32), each step's operands are b times as long:
    the steps alone gave ratios of 37 and 39.  The bound 2^4.5 = 22.6
    lies between."""
    work = []
    for degree in (16, 32):
        valn, g = _f2_product(degree)
        run = ((lambda: valn.base.taylor_values(g, valn.center)) if path == "fast path"
               else (lambda: substitution_value(valn, g)))
        work.append(_product_work(monkeypatch, run))
    assert work[1] / work[0] <= 2 ** 4.5, work


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
    hashing, series products, sums, values and supports, Kummer roots and
    their Krasner constants over F_3, and membership witnesses and torsion
    orders of prepared elements are int work and build no Fraction at
    all.  The count is zero on every Python version, whether or not
    Fraction's own arithmetic goes through its __new__."""
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
        out["kummer"] = (kummer_root(GroupElement.of("2/3"), f3.one(), 2).value(), krasner_kummer(r, 2))
        group = Subgroup.generated_by(*gens)
        z = group.witness(member)
        out["subgroup"] = (z, group.is_witness(z, member), group.torsion_order(torsion),
                           Subgroup.generated_by(GroupElement.of(1, 0)).torsion_order(outside))

    assert _fractions_made(monkeypatch, run) == 0
    assert out[a, b][0] == GroupElement.of("11/12", "13/3") and out[a, b][6] is True
    assert out["series"][0] == GroupElement.of("-1/2") and out["series"][3] == GroupElement.of("1/4")
    assert out["subgroup"][1:] == (True, 7, None)
    assert out["kummer"] == (GroupElement.of("1/3"), GroupElement.of("1/8"))


GOLDEN = pathlib.Path(__file__).parent / "golden"
CERTIFIED = ("readme-piltant", "piltant-p3", "piltant-p5", "readme-degree-bound",
             "readme-extension-step", "extension-step-p3", "readme-classify")


@pytest.mark.parametrize("name", CERTIFIED)
def test_a_recheck_builds_no_fraction(monkeypatch, capsys, name):
    """A certificate's exponents are read straight to int pairs and so to
    (D, key): rechecking a golden certificate of each kind builds no
    Fraction.  The one exception is the centre of a p-adic descriptor,
    an element of the base field Q, which is a Fraction."""
    out = GOLDEN / f"{name}.out"
    base = json.loads(out.read_text())["certificate"].get("descriptor", {}).get("base", {})
    codes = []
    made = _fractions_made(monkeypatch, lambda: codes.append(cli.main(["recheck", str(out)])))
    assert codes == [0] and '"ok": true' in capsys.readouterr().out
    assert made == (base.get("kind") == "p-adic")


@pytest.mark.parametrize("name", ["readme-piltant", "readme-degree-bound"])
def test_a_defect_tower_or_degree_bound_run_builds_no_fraction(monkeypatch, capsys, name):
    """The builders write their exponent strings from ints, and their
    self-check is the recheck above: the whole run builds no Fraction."""
    codes = []
    made = _fractions_made(monkeypatch, lambda: codes.append(cli.main(["run", str(GOLDEN / f"{name}.json")])))
    assert codes == [0] and capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()
    assert made == 0
