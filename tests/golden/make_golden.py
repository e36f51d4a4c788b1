"""Write the golden job files and record what `ratval run` prints for them.

The jobs are the six README example jobs and two t-adic eval jobs over
F_2(t) (degrees 4 and 8, center (1+t)/(1+t^2+t^3), gamma 1/2).  For each
job NAME this writes NAME.json (the job), NAME.out (stdout of
`python -m ratval.cli run NAME.json`) and an entry NAME: exit code in
exit_codes.json.  It also writes selftest-default.out and
selftest-seed7.out, the stdout of `python -m ratval.cli selftest` at the
default seed and with `--seed 7`.  tests/test_golden.py compares the
current output with these files byte for byte, so regenerate them only
on purpose:

    PYTHONPATH=src python tests/golden/make_golden.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

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


def tadic_job(degree: int) -> dict:
    """prod_j (x - b_j) over F_2(t) with b_0 = a and b_j = a + t^(j-1):
    the value is gamma + sum_j min(gamma, j - 1)."""
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
                      "base": {"kind": "t-adic", "coefficients": {"char": 2, "modulus": []}},
                      "center": {"num": n, "den": d}, "gamma": ["1/2"]},
        "eval": {"num": [{"num": c or [0], "den": common} for c in poly]},
    }


def jobs() -> dict:
    return {**README_JOBS, "tadic-deg4": tadic_job(4), "tadic-deg8": tadic_job(8)}


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
    for name, seed in (("selftest-default", []), ("selftest-seed7", ["--seed", "7"])):
        proc = subprocess.run([sys.executable, "-m", "ratval.cli", "selftest", *seed],
                              capture_output=True, check=True)
        with open(os.path.join(HERE, f"{name}.out"), "wb") as fh:
            fh.write(proc.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
