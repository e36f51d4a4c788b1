#!/usr/bin/env python3
# p-adic degree lower bounds from homogeneous increments.
#
# With gamma_i = i + 1/n_i for n_i coprime to p, the partial sums of
# sum p^(gamma_i) form a Cauchy sequence whose increments each force a
# ramification index n_i.  Anything close enough to the limit generates
# a value group of index lcm(n_1..n_k) over Z, so its degree is at
# least that lcm: arbitrarily large degrees from a convergent sequence,
# which is why the algebraic closure of the p-adics is not complete.

import math
from fractions import Fraction

from ratval import build_degree_bound, validate_certificate
from ratval.errors import PreconditionError

cert = build_degree_bound(p=2, indices=[3, 5, 7, 11])

print("== the certificate ==")
print("exponents gamma_i:", cert.payload["exponents"])
# the i-th increment ramifies by lcm(n_1..n_i) / lcm(n_1..n_(i-1)), inertia 1
indices = cert.payload["indices"]
prefix = [math.lcm(*indices[:k]) for k in range(1, len(indices) + 1)]
print("per-increment (e, f):", [(b // a, 1) for a, b in zip([1] + prefix, prefix)])
print("bound by prefix depth:", prefix)
print("degree lower bound:", cert.payload["bound"])
print("group index witness:", cert.payload["group_index_witness"])
print("re-check:", validate_certificate(cert).ok)

print()
print("== the deliberate perturbation is rejected ==")
try:
    build_degree_bound(2, [3, 4, 5])
except PreconditionError as exc:
    print("  rejected:", exc)

print()
print("== the bounded variant: pseudo Cauchy without a pseudo limit ==")
variant = cert.payload["pseudo_cauchy_variant"]
print("exponents 1 - 1/n_i:", variant["exponents"])
gammas = [Fraction(g) for g in variant["exponents"]]
print("strictly increasing:", all(a < b for a, b in zip(gammas, gammas[1:])),
      " bounded above by 1:", max(gammas) < 1)
print("a pseudo Cauchy sequence whose nest of balls has empty intersection in a "
      "spherically incomplete field")
