"""Byte-for-byte reports of the golden jobs in tests/golden/: the six
README example jobs, four t-adic eval jobs over F_2(t) (degrees 4, 8,
32 and 64), the degree-8 one again over Q(t) and over F_9(t), the degree-16
one over F_3(t), four eval jobs over the trivially
valued F_{13^4} (one product at gamma 1/2, -1/2, 0 and (0, 1)), one
over the trivially valued Q with a double root at the center, a 3-adic
product of 32 linears, four jobs on p = 3 and p = 5 series paths
(defect towers over F_3 and F_5, an extension step whose Artin-Schreier
root is checked by its cube, and an extract job with 5-power
denominators), a residue extension step above the trivial value group,
an eval over a series base whose value is undecided (exit 1), nine
malformed jobs that the JSON reader, a cost cap or a base check
refuses (exit 2 for an alpha of 1.5, a series term that is not a pair, a
certificate path that is an int, a gamma of "1e10000000" and an output
path in a directory that does not exist, exit 1 for a defect tower past
the 4300-digit limit, one past the cap on its eta levels, and an extract
job over a trivially valued and over a p-adic base), the output of
`ratval selftest` at the default seed and at seed 7, and the output of
each script in demos/.  The expected stdout and exit codes were
recorded by tests/golden/make_golden.py.

Each golden job runs twice: through `main(["run", PATH])` in this
process, which the other tests' calls share, and as
`python -m ratval.cli run PATH` in a process of its own.  Both are the two-word form, which builds no
argument parser.

certificate-mutations.json records what validate_certificate returns for
every one-leaf tampering of the golden certificates, and every tampering
it accepts must sit on a subject leaf."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from ratval.certificates import validate_certificate
from ratval.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
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


@pytest.mark.parametrize("name", sorted(path.stem for path in DEMOS.glob("*.py")))
def test_demo_output_is_byte_identical(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == (GOLDEN / f"demo-{name}.out").read_text()


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
# validator accepts is allowed only on these subject paths, "*" matching any
# list index.  Every other leaf is a claim and its tampering must be a finding.
# A tower step's modulus and c are subjects: the validator derives the
# step's (e, f, defect) from them, so a tampering it accepts there names
# the same step (-1 for a modulus coefficient 1 over F_2, the int -1 for
# the exponent "-1").
SUBJECT = [("descriptor",), ("base", "value_group"), ("steps", "*", "modulus"), ("steps", "*", "c")]


def _on(path: list, prefix: tuple) -> bool:
    return len(path) >= len(prefix) and all(
        want == "*" and isinstance(key, int) or want == key for key, want in zip(path, prefix))


@pytest.mark.parametrize("job", sorted({m["job"] for m in MUTATIONS}))
def test_accepted_mutations_are_on_allowlisted_leaves(job):
    accepted = [m for m in MUTATIONS if m["job"] == job and m["ok"]]
    assert [m for m in accepted
            if not any(_on(m["path"], prefix) for prefix in SUBJECT)] == []
