"""Counting one-face rooted hypermaps three ways.

The generating polynomial for r darts has the coefficient of m^e*n^v equal
to the number of one-face rooted hypermaps with e edges and v vertices.
Three independent constructions must produce the identical polynomial:
brute-force enumeration over Sym_r, the closed-form sum, and the
three-term recurrence.
"""

from math import factorial

from hypermaps import closed_form, enumeration, recursion

print("the first six generating polynomials (recurrence):")
for r, poly in recursion.stream(6):
    print(f"  r={r}:  {poly}")

print()
print("cross-validation for r = 1..7:")
recurred = dict(recursion.stream(7))
for r in range(1, 8):
    brute = enumeration.one_face_poly(r)
    closed = closed_form.one_face_poly(r)
    recur = recurred[r]
    total = brute.eval_at(1, 1)
    agree = brute == closed == recur
    print(f"  r={r}:  methods agree: {agree},  total maps {total} (= {r}! is {total == factorial(r)})")

print()
print("coefficient table for r = 4 (rows: r, e, v, count):")
for (e, v), count in enumeration.one_face_poly(4).sorted_terms():
    print("  ", (4, e, v, count))
