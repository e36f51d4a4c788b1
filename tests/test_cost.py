"""Cost contracts: deterministic work counts that may grow with the size
of the input only at a stated rate.  No clock is read."""

import json
import pathlib

import pytest

from ratval import groups
from ratval.certificates import build_degree_bound, validate_certificate
from ratval.groups import GroupElement, Subgroup


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
