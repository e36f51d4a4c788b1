"""The reference kernels: fixed pieces of stdlib-only work that the
benchmark times beside every ratval operation.

`kernel()` multiplies two fixed polynomials with Fraction coefficients
held in dicts, the same kind of interpreter work (small-object
allocation, Fraction and dict operations) that a ratval job does, and
takes about a millisecond.  Dividing a job's time by the kernel's time
around it cancels the slow drift of this machine's speed.

`cli_kernel()` does what the shell of a command-line call does: it
builds an argparse parser with subcommands, parses an argument list,
reads a fixed JSON document (`refdoc.json`) and writes it out again.
A recheck of a certificate is mostly this kind of work, and its speed
moves with the machine differently from arithmetic: measured in
4-second windows on a 2-vCPU virtual machine, a recheck over
`kernel()` moved by 12-20 % between the machine's fast and slow
phases, over `cli_kernel()` by 2-7 %.  So rechecks are timed against
`cli_kernel()`.

Both import nothing from ratval, and must never change: their runs are
the units (ref and cref) of every end-to-end time.
"""

from __future__ import annotations

import argparse
import json
import os
from fractions import Fraction

_TERMS = 12
_LEFT = {i: Fraction(i + 1, 2 * i + 3) for i in range(_TERMS)}
_RIGHT = {i: Fraction(3 * i + 1, i + 5) for i in range(_TERMS)}


def kernel() -> Fraction:
    """One unit of reference work; returns a checksum of the product."""
    prod: dict[int, Fraction] = {}
    for i, a in _LEFT.items():
        for j, b in _RIGHT.items():
            k = i + j
            prod[k] = prod.get(k, 0) + a * b
    return sum(prod.values())


# the kernel's result; a kernel that computes anything else is not the unit
EXPECTED = Fraction(242556820828453, 2533416385500)


_DOC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refdoc.json")


def cli_kernel() -> int:
    """One unit of command-line work; returns the length of its output."""
    parser = argparse.ArgumentParser(prog="ref", description="reference command line")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a job file")
    p_run.add_argument("job")
    p_run.add_argument("--depth", type=int, default=None, help="depth")
    p_run.add_argument("--json", action="store_true", help="print JSON")
    p_run.add_argument("--text", action="store_true", help="print text")
    p_check = sub.add_parser("recheck", help="check a file again")
    p_check.add_argument("certificate")
    p_check.add_argument("--text", action="store_true")
    p_test = sub.add_parser("selftest", help="run self tests")
    p_test.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(["run", _DOC])
    with open(args.job) as fh:
        doc = json.load(fh)
    return len(json.dumps(doc, sort_keys=True, indent=2))


# the length cli_kernel() writes; a run that writes anything else is not the unit
EXPECTED_CLI = 3592
