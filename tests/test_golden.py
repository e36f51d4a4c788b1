"""Byte-for-byte reports of the golden jobs in tests/golden/: the six
README example jobs, two t-adic eval jobs over F_2(t), the degree-8 one
again over Q(t) and over F_9(t), four eval jobs over the trivially
valued F_{13^4} (one product at gamma 1/2, -1/2, 0 and (0, 1)), one
over the trivially valued Q with a double root at the center, a 3-adic
product of 32 linears, three jobs on p = 3 series paths (a
defect tower over F_3, an extension step whose Artin-Schreier root is
checked by its cube, and an extract job with 5-power denominators), and
the output of `ratval selftest` at
the default seed and at seed 7.  The expected stdout and exit codes were
recorded by tests/golden/make_golden.py.

Each golden job runs twice: through `main()` in this process, where the
argument parser is shared with every other call, and as
`python -m ratval.cli run` in a process of its own, which builds it once.

certificate-mutations.json records what validate_certificate returns for
every one-leaf tampering of the golden certificates, and every tampering
it accepts must sit on a leaf whose role is prose or subject, or on one
of the open leaves of ROADMAP item 5."""

import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from ratval.certificates import validate_certificate
from ratval.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
MUTATIONS = json.loads((GOLDEN / "certificate-mutations.json").read_text())


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_report_is_byte_identical(name, capsys):
    code = main(["run", str(GOLDEN / f"{name}.json")])
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()
    assert code == EXIT_CODES[name]


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_report_is_byte_identical_in_own_process(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ratval.cli", "run", str(GOLDEN / f"{name}.json")],
        capture_output=True, text=True, env=env,
    )
    assert proc.stdout == (GOLDEN / f"{name}.out").read_text()
    assert proc.returncode == EXIT_CODES[name]


@pytest.mark.parametrize("seed", [None, 7], ids=["default", "seed7"])
def test_selftest_output_is_byte_identical(seed, capsys):
    args = ["selftest"] + ([] if seed is None else ["--seed", str(seed)])
    assert main(args) == 0
    name = "selftest-default.out" if seed is None else f"selftest-seed{seed}.out"
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


def _tampered(cert: dict, path: list, value) -> dict:
    data = json.loads(json.dumps(cert))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


@pytest.mark.parametrize("job", sorted({m["job"] for m in MUTATIONS}))
def test_certificate_mutations(job):
    cert = json.loads((GOLDEN / f"{job}.out").read_text())["certificate"]
    recorded = [m for m in MUTATIONS if m["job"] == job]
    got = []
    for m in recorded:
        result = validate_certificate(_tampered(cert, m["path"], m["value"]))
        got.append({**m, "ok": result.ok, "findings": list(result.findings)})
    assert got == recorded


# Leaf roles (see the certificates module docstring): a tampering that the
# validator accepts is allowed only on these paths, "*" matching any list
# index.  Every other leaf is a claim and its tampering must be a finding.
PROSE = [("assumptions",), ("statement",), ("model_note",), ("cauchy", "note"),
         ("pseudo_cauchy_variant", "note")]
SUBJECT = [("descriptor",), ("base", "value_group"), ("depth",)]
# open (ROADMAP item 5): a residue step's modulus is not yet tied to its
# witness, and chain.v_c is read by value, whatever its JSON type
OPEN = [("steps", "*", "modulus")]
V_C = ("steps", "*", "witness", "chain", "v_c")


def _on(path: list, prefix: tuple) -> bool:
    return len(path) >= len(prefix) and all(
        want == "*" and isinstance(key, int) or want == key for key, want in zip(path, prefix))


def _allowlisted(m: dict, cert: dict) -> bool:
    if any(_on(m["path"], prefix) for prefix in PROSE + SUBJECT + OPEN):
        return True
    if _on(m["path"], V_C):
        original = cert
        for key in m["path"]:
            original = original[key]
        # the same value under another JSON type: an int for "-1"
        return type(m["value"]) is int and Fraction(m["value"]) == Fraction(original)
    return False


@pytest.mark.parametrize("job", sorted({m["job"] for m in MUTATIONS}))
def test_accepted_mutations_are_on_allowlisted_leaves(job):
    cert = json.loads((GOLDEN / f"{job}.out").read_text())["certificate"]
    accepted = [m for m in MUTATIONS if m["job"] == job and m["ok"]]
    assert [m for m in accepted if not _allowlisted(m, cert)] == []
