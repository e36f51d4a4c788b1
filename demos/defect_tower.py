#!/usr/bin/env python3
# An immediate Galois tower of degree p and defect p, certified.
#
# Over the x-adic series model in characteristic p, the series
# y = sum x^(-p^(-e_i)) has p^(e_j)-th powers that differ from a
# polynomial in x^(-1), y by a residual of value -p^(e_j - e_(j+1)):
# each level j therefore witnesses 1/p^j inside the value group of the
# field generated by x and y.  The value group turns p-divisible while
# the residue field never moves, so the Artin-Schreier tower above
# 1/x is immediate: every level of degree p^i carries defect p^i.

import json

from ratval import build_defect_tower, validate_certificate

p = 2
cert = build_defect_tower(p=p, schedule=[1, 2, 4, 7, 11], depth=4, eta_levels=5)

print("== level witnesses ==")
for j, level in enumerate(cert.payload["levels"], start=1):
    print(f"  level j={j}: residual exponents {level['witness_exponents']}"
          f" -> value {level['value']} grants 1/{p}^{level['grants_denominator_exponent']}")

print()
print("== Artin-Schreier tower values ==")
for i, eta in enumerate(cert.payload["eta_tower"], start=1):
    print(f"  v(eta_{i}) = {eta['value']}")

print()
print("== defect accounting ==")
# immediate: (e, f) = (1, 1) at every level, so the defect is the degree
for i in range(1, len(cert.payload["eta_tower"]) + 1):
    print(f"  degree {p}^{i} = {p ** i}, (e, f) = (1, 1), defect = {p ** i}")

print()
result = validate_certificate(cert)
print("re-check from witnesses alone:", "pass" if result.ok else result.findings)

print()
print("== tampering is caught ==")
data = json.loads(json.dumps(cert.to_dict()))
data["levels"][2]["value"] = "-1/2"
print("after flipping one value:", validate_certificate(data).first_failure())
