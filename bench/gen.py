"""Seeded job files for the ratval benchmark, made without ratval.

Every input and every expected answer is computed here with int and
Fraction arithmetic of this file's own, never with ratval's `RatFunc`
or `FieldElement`, so a change to how ratval represents values cannot
change what the benchmark asks or what it accepts.

A workload is a list of rounds; a round holds one job per slot, and
every slot has a fixed size.  The seed draws only coefficients (for
certify: the exponent steps, the primes, the Kummer root and q), so the
size profile of a workload is the same for every seed.

Run as a script it writes the job files and a manifest into a directory:

    python3 bench/gen.py --workload eval-tadic --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
from fractions import Fraction

GAMMA = Fraction(1, 2)

# Rounds generated per run; a run that is fast goes through them again.
ROUNDS = {"eval-tadic": 48, "eval-dense": 120, "certify": 80}


# ---------------------------------------------------------------------------
# F_2[t]: coefficient lists, lowest degree first

def _f2_strip(a):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def _f2_add(a, b):
    n = max(len(a), len(b))
    return _f2_strip([(a[i] if i < len(a) else 0) ^ (b[i] if i < len(b) else 0)
                      for i in range(n)])


def _f2_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] ^= y
    return _f2_strip(out)


def _f2_ord(a):
    """Order of vanishing at t = 0, None for the zero polynomial."""
    return next((i for i, c in enumerate(a) if c), None)


def _tadic_job(rng: random.Random, degree: int):
    """prod_j (x - b_j) over F_2(t), centered at a, gamma = 1/2.

    a and every b_j are n/d with deg n = 1 and deg d = 2, d(0) = 1.  The
    even-indexed roots share a's constant term, so v_t(a - b_j) >= 1.
    """
    n, d = [rng.randrange(2), 1], [1, rng.randrange(2), 1]
    roots = []
    for j in range(degree):
        n0 = n[0] if j % 2 == 0 else rng.randrange(2)
        roots.append(([n0, 1], [1, rng.randrange(2), 1]))
    # prod_j (d_j x - n_j) / prod_j d_j, coefficients in F_2[t]; - = + in F_2
    poly = [[1]]
    for nj, dj in roots:
        nxt = [[] for _ in range(len(poly) + 1)]
        for i, c in enumerate(poly):
            nxt[i] = _f2_add(nxt[i], _f2_mul(c, nj))
            nxt[i + 1] = _f2_add(nxt[i + 1], _f2_mul(c, dj))
        poly = nxt
    common = [1]
    for _, dj in roots:
        common = _f2_mul(common, dj)
    value = Fraction(0)
    for nj, dj in roots:
        o = _f2_ord(_f2_add(_f2_mul(n, dj), _f2_mul(nj, d)))
        value += GAMMA if o is None else min(GAMMA, Fraction(o))
    job = {
        "task": "eval",
        "valuation": {"kind": "vag",
                      "base": {"kind": "t-adic", "coefficients": {"char": 2, "modulus": []}},
                      "center": {"num": n, "den": d},
                      "gamma": [str(GAMMA)]},
        "eval": {"num": [{"num": c or [0], "den": common} for c in poly]},
    }
    return job, {"value": str(value)}


# ---------------------------------------------------------------------------
# Q with the 3-adic valuation

def _v3(q: Fraction) -> int:
    num, den, v = q.numerator, q.denominator, 0
    while num % 3 == 0:
        num //= 3
        v += 1
    while den % 3 == 0:
        den //= 3
        v -= 1
    return v


def _unit3(rng: random.Random) -> Fraction:
    def part():
        return rng.choice([k for k in range(1, 21) if k % 3])
    return Fraction(rng.choice((1, -1)) * part(), part())


def _padic_job(rng: random.Random, degree: int = 32):
    """prod_j (x - b_j) over Q, 3-adic, with v_3(a - b_j) in [-2, 3]."""
    a = Fraction(rng.randint(-40, 40), rng.choice([k for k in range(1, 31) if k % 3]))
    poly = [Fraction(1)]
    value = Fraction(0)
    for _ in range(degree):
        k = rng.randint(-2, 3)
        b = a + Fraction(3) ** k * _unit3(rng)
        assert _v3(a - b) == k
        value += min(GAMMA, Fraction(k))
        # multiply by (x - b)
        poly = [(poly[i - 1] if i else 0) - b * (poly[i] if i < len(poly) else 0)
                for i in range(len(poly) + 1)]
    job = {
        "task": "eval",
        "valuation": {"kind": "vag", "base": {"kind": "p-adic", "p": 3},
                      "center": str(a), "gamma": [str(GAMMA)]},
        "eval": {"num": [str(c) for c in poly]},
    }
    return job, {"value": str(value)}


# ---------------------------------------------------------------------------
# F_{13^4} = F_13[X] / (X^4 + X^3 + 1), trivially valued

FQ_P = 13
FQ_MODULUS = [1, 0, 0, 1, 1]


def _fq_mul(a, b):
    prod = [0] * 7
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(6, 3, -1):  # X^4 = -X^3 - 1
        c = prod[k]
        if c:
            prod[k] = 0
            prod[k - 1] -= c
            prod[k - 4] -= c
    return [c % FQ_P for c in prod[:4]]


def _fq_job(rng: random.Random, degree: int = 16, at_center: int = 3):
    """prod_j (x - b_j) over trivially valued F_{13^4}; exactly
    `at_center` roots equal the center, so the value is at_center*gamma."""
    def draw():
        return [rng.randrange(FQ_P) for _ in range(4)]
    a = draw()
    slots = set(rng.sample(range(degree), at_center))
    roots = []
    for j in range(degree):
        b = a if j in slots else draw()
        while j not in slots and b == a:
            b = draw()
        roots.append(b)
    poly = [[1, 0, 0, 0]]
    for b in roots:
        nb = [(-c) % FQ_P for c in b]
        poly = [[(x + y) % FQ_P for x, y in zip(
                    poly[i - 1] if i else [0] * 4,
                    _fq_mul(nb, poly[i]) if i < len(poly) else [0] * 4)]
                for i in range(len(poly) + 1)]
    job = {
        "task": "eval",
        "valuation": {"kind": "vag",
                      "base": {"kind": "trivial",
                               "coefficients": {"char": FQ_P, "modulus": FQ_MODULUS}},
                      "center": a, "gamma": [str(GAMMA)]},
        "eval": {"num": poly},
    }
    return job, {"value": str(at_center * GAMMA)}


# ---------------------------------------------------------------------------
# certificates

ODD_PRIMES = [q for q in range(3, 54) if all(q % d for d in range(2, q))]


def _schedule(rng: random.Random, length: int):
    """Exponents with e_(i+1) - e_i in {i, i+1}, the tower's growth rule."""
    e = [1]
    for i in range(1, length):
        e.append(e[-1] + i + rng.randrange(2))
    return e


def _certify_round(rng: random.Random):
    e = _schedule(rng, 6)
    yield "piltant-p2", {"task": "piltant", "p": 2, "e": e, "depth": 5}, {"recheck": True}
    yield ("piltant-p3", {"task": "piltant", "p": 3, "e": _schedule(rng, 5), "depth": 4},
           {"recheck": True})
    n = sorted(rng.sample(ODD_PRIMES, 12))
    yield ("degree-bound", {"task": "degree-bound", "p": 2, "n": n},
           {"recheck": True, "bound": math.lcm(*n)})
    steps = [{"kind": "kummer", "alpha": f"1/{rng.choice((3, 5, 7))}"},
             {"kind": "residue", "modulus": [1, 1, 1]},
             {"kind": "artin-schreier", "c": "-1"}]
    yield "extension-step", {"task": "extension-step", "p": 2, "steps": steps}, {"recheck": True}
    q = rng.choice((3, 5))
    terms = [[str(Fraction(q ** k - 1, q ** k)), 1] for k in range(1, 6)]
    job = {"task": "extract",
           "base": {"kind": "series", "coefficients": {"char": 2, "modulus": []},
                    "value_group": ["1"]},
           "series": {"trunc": "1", "terms": terms}}
    yield "extract", job, {"degree_lower_bound": q ** 5}


def _round(workload: str, rng: random.Random):
    if workload == "eval-tadic":
        for degree in (2, 3, 4):
            job, expect = _tadic_job(rng, degree)
            yield f"tadic-deg{degree}", job, expect
    elif workload == "eval-dense":
        job, expect = _padic_job(rng)
        yield "padic-deg32", job, expect
        job, expect = _fq_job(rng)
        yield "f13^4-deg16", job, expect
    elif workload == "certify":
        yield from _certify_round(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def classify_twin(job: dict) -> dict:
    """The classify job for an eval job's valuation: its certificate is
    what an eval workload rechecks."""
    return {"task": "classify", "valuation": job["valuation"]}


def generate(workload: str, seed: int, rounds: int | None = None) -> list[dict]:
    """Entries {name, round, slot, job, expect} in run order."""
    rng = random.Random(f"{workload}:{seed}")
    entries = []
    for r in range(ROUNDS[workload] if rounds is None else rounds):
        for slot, job, expect in _round(workload, rng):
            entries.append({"name": f"r{r:03d}-{slot}", "round": r, "slot": slot,
                            "job": job, "expect": expect})
    return entries


def defect_probe(seed: int) -> dict:
    """A degree-bound job that meets the documented precondition
    (increasing, > 1, prime to p) but whose indices 3 and 9 are not
    pairwise coprime.  ratval 0.1.0 fails on it with an internal
    AssertionError, so it is run and reported beside the workload, never
    inside it: a workload must not contain operations that fail."""
    rng = random.Random(f"probe:{seed}")
    n = sorted(rng.sample(ODD_PRIMES[2:], 10) + [3, 9])
    return {"name": "probe-degree-bound", "slot": "degree-bound-not-coprime",
            "job": {"task": "degree-bound", "p": 2, "n": n},
            "expect": {"recheck": True, "bound": math.lcm(*n)}}


def size_profile(entry: dict) -> tuple:
    """What fixes a job's cost, apart from its coefficients."""
    job = entry["job"]
    task = job["task"]
    if task == "eval":
        center = job["valuation"]["center"]
        coeffs = job["eval"]["num"]
        shape = (len(center["num"]), len(center["den"])) if isinstance(center, dict) else ()
        return (entry["slot"], task, len(coeffs), shape)
    if task == "piltant":
        return (entry["slot"], task, job["p"], len(job["e"]), job["depth"])
    if task == "degree-bound":
        return (entry["slot"], task, job["p"], len(job["n"]))
    if task == "extension-step":
        return (entry["slot"], task, job["p"], tuple(s["kind"] for s in job["steps"]))
    return (entry["slot"], task, len(job["series"]["terms"]))


def dump(job: dict) -> bytes:
    return (json.dumps(job, sort_keys=True) + "\n").encode()


def file_names(entry: dict) -> dict:
    """The job file of an entry and, for an eval job, its classify twin."""
    names = {"job": f"{entry['name']}.json"}
    if entry["job"]["task"] == "eval":
        names["classify"] = f"{entry['name']}.classify.json"
    return names


def files(entries: list[dict]):
    """(file name, bytes) of every job file, in run order."""
    for e in entries:
        for kind, fname in file_names(e).items():
            yield fname, dump(e["job"] if kind == "job" else classify_twin(e["job"]))


def write(entries: list[dict], out: str, probes: list[dict] = ()) -> str:
    """Write the job files and a manifest; return the inputs' digest."""
    os.makedirs(out, exist_ok=True)
    digest = hashlib.sha256()
    for fname, data in files([*entries, *probes]):
        with open(os.path.join(out, fname), "wb") as fh:
            fh.write(data)
        digest.update(fname.encode() + b"\0" + data)
    def listed(es):
        return [{k: v for k, v in e.items() if k != "job"} | file_names(e) for e in es]
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump({"digest": digest.hexdigest(), "entries": listed(entries),
                   "probes": listed(probes)}, fh)
    return digest.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    probes = [defect_probe(args.seed)] if args.workload == "certify" else []
    print(write(generate(args.workload, args.seed), args.out, probes))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
