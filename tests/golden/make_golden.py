"""Write the golden job files and record what `ratval run` prints for them.

The jobs are the six README example jobs, four t-adic eval jobs over
F_2(t) (degrees 4, 8, 32 and 64, center (1+t)/(1+t^2+t^3), gamma 1/2;
the degree-64 one, tadic-deg64, is the scale shape of the F_2(t) path), the
degree-8 one again with its 0/1 coefficient lists read over Q and over
F_9 = F_3[X]/(X^2 + 1) (tadic-q-deg8 and tadic-f9-deg8), the degree-16
one read over F_3 (tadic-f3-deg16), four
eval jobs over the trivially valued F_{13^4} (one degree-16 product
with three of the roots at the center, at gamma 1/2 and again at
gamma -1/2, 0 and (0, 1)), one over the trivially valued Q with a
double root at the center, one 3-adic product of 32 linears (the
eval-dense shape of bench/gen.py), four jobs on p = 3 and p = 5 series
paths: piltant-p3 and piltant-p5 (defect towers over F_3 and F_5),
extension-step-p3 (kummer 1/2, residue X^2 + 1, artin-schreier -1 over
F_3) and extract-q5 (the extract shape of bench/gen.py with terms
(5^k - 1)/5^k, k = 1..5), and seven malformed jobs that the JSON reader
or a cost cap refuses: bad-extension-step-alpha (the README extension
step with alpha 1.5), bad-extract-terms (the README extract job with a
term that is not a pair), bad-recheck-certificate-fd (a recheck whose
certificate path is the int 1), bad-rational-exponent (the README eval
job with gamma "1e10000000", which is no "num/den" string),
bad-output-dir (the README degree-bound job with an output path in a
directory that does not exist), bad-piltant-exponent (a defect tower at
p = 3 whose e_5 = 10000 would pass the 4300-digit limit on the decimal
ints of a certificate) and bad-piltant-eta-levels (piltant-p3 with 80 eta
levels, past the cap on the term pairs of the eta chain checks).  For each
job NAME this writes NAME.json (the job), NAME.out (stdout of
`python -m ratval.cli run NAME.json`) and an entry NAME: exit code in
exit_codes.json.  It also writes selftest-default.out and
selftest-seed7.out, the stdout of `python -m ratval.cli selftest` at the
default seed and with `--seed 7`, and demo-NAME.out, the stdout of each
demos/NAME.py.

certificate-mutations.json tampers with the certificates that the
README's piltant, degree-bound, extension-step and classify jobs make:
each scalar leaf is replaced by each of MUTATION_VALUES, skipping a
value that compares equal to the original (so `true` is not tried where
the leaf is 1).  It holds one line per mutation with the job, the JSON
path, the value and what validate_certificate returns for it: `ok` and
the findings.  Accepted mutations are recorded as accepted, so the file
lists the tamperings the validator does not catch.  The certificates are
of the current CERTIFICATE_VERSION (5), whose payloads hold only claims
and subjects, no prose and no field that only copies the subject, a list
position or a constant: a tower step records its kind, its subject
(alpha, modulus or c) and (e, f, degree, defect), which the validator
derives again from the subject, a defect-tower level is numbered by its
position in `levels` and the tower's depth is their number, a degree
bound's depth is the number of its indices, and a classification records
its trichotomy flags and torsion order beside its descriptor.
tests/test_golden.py requires every accepted mutation to sit on a subject
leaf named there.

tests/test_golden.py compares the current output with these files, so
regenerate them only on purpose:

    PYTHONPATH=src python tests/golden/make_golden.py
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

from ratval.certificates import validate_certificate

HERE = os.path.dirname(os.path.abspath(__file__))

README_JOBS = {
    "readme-eval": {
        "task": "eval",
        "valuation": {"kind": "vag", "base": {"kind": "p-adic", "p": 3},
                      "center": "0", "gamma": ["1"]},
        "eval": {"num": ["9", "3", "1"], "den": ["0", "1"]}},
    "readme-classify": {
        "task": "classify",
        "valuation": {"kind": "vag", "base": {"kind": "p-adic", "p": 3},
                      "center": "0", "gamma": ["1/2"]}},
    "readme-extract": {
        "task": "extract",
        "base": {"kind": "series", "coefficients": {"char": 2, "modulus": []},
                 "value_group": ["1"]},
        "series": {"trunc": "1",
                   "terms": [["2/3", 1], ["8/9", 1], ["26/27", 1], ["80/81", 1]]}},
    "readme-piltant": {"task": "piltant", "p": 2, "e": [1, 2, 4, 7, 11], "depth": 4},
    "readme-degree-bound": {"task": "degree-bound", "p": 2, "n": [3, 5, 7, 11], "depth": 4},
    "readme-extension-step": {
        "task": "extension-step", "p": 2,
        "steps": [{"kind": "kummer", "alpha": "1/3"},
                  {"kind": "residue", "modulus": [1, 1, 1]},
                  {"kind": "artin-schreier", "c": "-1"}]},
}


# F_2[t] as int coefficient lists, lowest degree first

def _add(a, b):
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else 0) ^ (b[i] if i < len(b) else 0) for i in range(n)]
    while out and not out[-1]:
        out.pop()
    return out


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] ^= y
    return out


F2 = {"char": 2, "modulus": []}


def tadic_job(degree: int, coefficients: dict = F2) -> dict:
    """prod_j (x - b_j) over F_2(t) with b_0 = a and b_j = a + t^(j-1):
    the value is gamma + sum_j min(gamma, j - 1).  Other `coefficients`
    read the same 0/1 coefficient lists over that field instead."""
    n, d = [1, 1], [1, 0, 1, 1]
    roots = [n] + [_add(n, [0] * k + d) for k in range(degree - 1)]
    poly = [[1]]  # prod_j (d x - n_j), whose coefficients are over d^degree
    for nj in roots:
        nxt = [[] for _ in range(len(poly) + 1)]
        for i, c in enumerate(poly):
            nxt[i] = _add(nxt[i], _mul(c, nj))
            nxt[i + 1] = _add(nxt[i + 1], _mul(c, d))
        poly = nxt
    common = [1]
    for _ in roots:
        common = _mul(common, d)
    return {
        "task": "eval",
        "valuation": {"kind": "vag",
                      "base": {"kind": "t-adic", "coefficients": coefficients},
                      "center": {"num": n, "den": d}, "gamma": ["1/2"]},
        "eval": {"num": [{"num": c or [0], "den": common} for c in poly]},
    }


# F_{13^4} = F_13[X]/(X^4 + X^3 + 1), elements as 4 int coefficients

FQ_P, FQ_MODULUS = 13, [1, 0, 0, 1, 1]


def _fq_mul(a, b):
    prod = [0] * 7
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(6, 3, -1):  # X^k = -X^(k-1) - X^(k-4)
        c, prod[k] = prod[k], 0
        prod[k - 1] -= c
        prod[k - 4] -= c
    return [c % FQ_P for c in prod[:4]]


def fq_job(degree: int, at_center: int, seed: int, gamma: tuple = ("1/2",)) -> dict:
    """prod_j (x - b_j) over the trivially valued F_{13^4}, exactly
    `at_center` of the b_j equal to the center a: the value is
    at_center * gamma for gamma > 0 and degree * gamma for gamma <= 0."""
    rng = random.Random(seed)

    def draw():
        return [rng.randrange(FQ_P) for _ in range(4)]

    a = draw()
    slots = set(rng.sample(range(degree), at_center))
    poly = [[1, 0, 0, 0]]
    for j in range(degree):
        b = a if j in slots else draw()
        while j not in slots and b == a:
            b = draw()
        nb = [(-c) % FQ_P for c in b]
        poly = [[(x + y) % FQ_P for x, y in zip(poly[i - 1] if i else [0] * 4,
                                               _fq_mul(nb, poly[i]) if i < len(poly) else [0] * 4)]
                for i in range(len(poly) + 1)]
    return {
        "task": "eval",
        "valuation": {"kind": "vag",
                      "base": {"kind": "trivial",
                               "coefficients": {"char": FQ_P, "modulus": FQ_MODULUS}},
                      "center": a, "gamma": list(gamma)},
        "eval": {"num": poly},
    }


def _times_linear(poly: list, b: Fraction) -> list:
    """poly * (x - b) on Fraction coefficient lists, lowest degree first."""
    return [(poly[i - 1] if i else 0) - b * (poly[i] if i < len(poly) else 0)
            for i in range(len(poly) + 1)]


def trivial_q_job() -> dict:
    """(x - a)^2 prod_j (x - b_j) over the trivially valued Q, a = 1/2 a
    double root and the b_j distinct from it: the value is 2 gamma = 2/3."""
    a, poly = Fraction(1, 2), [Fraction(1)]
    for b in (a, a, Fraction(3), Fraction(-2, 5), Fraction(7, 4), Fraction(0)):
        poly = _times_linear(poly, b)
    return {
        "task": "eval",
        "valuation": {"kind": "vag", "base": {"kind": "trivial", "coefficients": {"char": 0}},
                      "center": str(a), "gamma": ["1/3"]},
        "eval": {"num": [str(c) for c in poly]},
    }


def padic_job(degree: int, seed: int) -> dict:
    """prod_j (x - b_j) over Q, 3-adic, with v_3(a - b_j) = k_j in [-2, 3]
    and gamma 1/2 (the eval-dense shape of bench/gen.py): the value is
    sum_j min(gamma, k_j)."""
    rng = random.Random(seed)

    def part():
        return rng.choice([k for k in range(1, 21) if k % 3])

    a = Fraction(rng.randint(-40, 40), rng.choice([k for k in range(1, 31) if k % 3]))
    poly = [Fraction(1)]
    for _ in range(degree):
        unit = Fraction(rng.choice((1, -1)) * part(), part())
        poly = _times_linear(poly, a + Fraction(3) ** rng.randint(-2, 3) * unit)
    return {
        "task": "eval",
        "valuation": {"kind": "vag", "base": {"kind": "p-adic", "p": 3},
                      "center": str(a), "gamma": ["1/2"]},
        "eval": {"num": [str(c) for c in poly]},
    }


# p = 3 and p = 5 series paths: the chain checks of defect towers over F_3
# and F_5, the Artin-Schreier root's cube check of an extension step, and
# the extract shape of bench/gen.py with q = 5
SERIES_JOBS = {
    "piltant-p3": {"task": "piltant", "p": 3, "e": [1, 2, 4, 7, 11], "depth": 4},
    "piltant-p5": {"task": "piltant", "p": 5, "e": [1, 2, 4, 7, 11], "depth": 4},
    "extension-step-p3": {
        "task": "extension-step", "p": 3,
        "steps": [{"kind": "kummer", "alpha": "1/2"},
                  {"kind": "residue", "modulus": [1, 0, 1]},
                  {"kind": "artin-schreier", "c": "-1"}]},
    "extract-q5": {
        "task": "extract",
        "base": {"kind": "series", "coefficients": {"char": 2, "modulus": []},
                 "value_group": ["1"]},
        "series": {"trunc": "1",
                   "terms": [[f"{5 ** k - 1}/{5 ** k}", 1] for k in range(1, 6)]}},
}


def jobs() -> dict:
    return {**README_JOBS, "tadic-deg4": tadic_job(4), "tadic-deg8": tadic_job(8),
            "tadic-deg32": tadic_job(32), "tadic-deg64": tadic_job(64),
            "tadic-f3-deg16": tadic_job(16, {"char": 3, "modulus": []}),
            "tadic-q-deg8": tadic_job(8, {"char": 0}),
            "tadic-f9-deg8": tadic_job(8, {"char": 3, "modulus": [1, 0, 1]}),
            "fq-deg16": fq_job(16, 3, seed=16),
            "fq-deg16-gamma-neg": fq_job(16, 3, seed=16, gamma=("-1/2",)),
            "fq-deg16-gamma0": fq_job(16, 3, seed=16, gamma=("0",)),
            "fq-deg16-rank2": fq_job(16, 3, seed=16, gamma=("0", "1")),
            "trivial-q-double-root": trivial_q_job(), "padic-deg32": padic_job(32, seed=32),
            **SERIES_JOBS,
            # exit 2 (schema errors naming the field) and exit 1 (a refused precondition)
            "bad-extension-step-alpha": _tampered(README_JOBS["readme-extension-step"],
                                                  ("steps", 0, "alpha"), 1.5),
            "bad-extract-terms": _tampered(README_JOBS["readme-extract"], ("series", "terms", 1), ["8/9"]),
            "bad-recheck-certificate-fd": {"task": "recheck", "certificate": 1},
            "bad-piltant-exponent": {"task": "piltant", "p": 3, "e": [1, 2, 4, 7, 10000], "depth": 4},
            "bad-piltant-eta-levels": {**SERIES_JOBS["piltant-p3"], "eta_levels": 80},
            "bad-output-dir": {**README_JOBS["readme-degree-bound"],
                               "output": "no-such-directory/degree-bound.json"},
            "bad-rational-exponent": _tampered(README_JOBS["readme-eval"], ("valuation", "gamma", 0),
                                               "1e10000000")}


CERTIFICATE_JOBS = ("readme-piltant", "readme-degree-bound", "readme-extension-step",
                    "readme-classify")
MUTATION_VALUES = ("x", -1, 0, 2, 10 ** 6, "1/0", None, [], {}, True, False, "0")


def _leaves(node, path=()):
    """(path, value) of every leaf of a JSON value that is not a list or an object."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _leaves(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _leaves(child, path + (i,))
    else:
        yield path, node


def _tampered(cert: dict, path, value) -> dict:
    """A copy of cert (or of a job) with the leaf at path replaced by value."""
    data = json.loads(json.dumps(cert))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


def mutation_lines(job: str, cert: dict) -> list[str]:
    lines = []
    for path, original in _leaves(cert):
        for value in MUTATION_VALUES:
            if value == original:
                continue
            result = validate_certificate(_tampered(cert, path, value))
            lines.append(json.dumps({"job": job, "path": list(path), "value": value,
                                     "ok": result.ok, "findings": list(result.findings)}))
    return lines


def main() -> int:
    codes = {}
    for name, job in jobs().items():
        path = os.path.join(HERE, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(job, fh, sort_keys=True)
            fh.write("\n")
        proc = subprocess.run([sys.executable, "-m", "ratval.cli", "run", path],
                              capture_output=True)
        with open(os.path.join(HERE, f"{name}.out"), "wb") as fh:
            fh.write(proc.stdout)
        codes[name] = proc.returncode
    with open(os.path.join(HERE, "exit_codes.json"), "w") as fh:
        json.dump(codes, fh, indent=2, sort_keys=True)
        fh.write("\n")
    lines = []
    for name in CERTIFICATE_JOBS:
        with open(os.path.join(HERE, f"{name}.out")) as fh:
            lines += mutation_lines(name, json.load(fh)["certificate"])
    with open(os.path.join(HERE, "certificate-mutations.json"), "w") as fh:
        fh.write("[\n" + ",\n".join(lines) + "\n]\n")
    for name, seed in (("selftest-default", []), ("selftest-seed7", ["--seed", "7"])):
        proc = subprocess.run([sys.executable, "-m", "ratval.cli", "selftest", *seed],
                              capture_output=True, check=True)
        with open(os.path.join(HERE, f"{name}.out"), "wb") as fh:
            fh.write(proc.stdout)
    demos = os.path.join(os.path.dirname(os.path.dirname(HERE)), "demos")
    for demo in sorted(os.listdir(demos)):
        name, ext = os.path.splitext(demo)
        if ext == ".py":
            proc = subprocess.run([sys.executable, os.path.join(demos, demo)],
                                  capture_output=True, check=True)
            with open(os.path.join(HERE, f"demo-{name}.out"), "wb") as fh:
                fh.write(proc.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
