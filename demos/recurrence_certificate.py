"""Replaying the telescoping certificate behind the three-term recurrence.

The recurrence (r+3) P_{r+2} = (2r+3)(m+n) P_{r+1} + r[(r+1)^2 - (m-n)^2] P_r
is certified by a companion function G: a combination of three consecutive
closed-form summands equals G(r, k+1) - G(r, k), so summing over k
telescopes to zero and leaves exactly the recurrence.  Each instance is an
identity of integer polynomials that can be checked mechanically.
"""

from hypermaps import recursion

print("certificate identity on a small grid (True = exact polynomial equality):")
for r in range(1, 7):
    results = [recursion.verify_certificate(r, k) for k in range(-1, r + 3)]
    print(f"  r={r}:  k = -1..{r + 2}:  {'all hold' if all(results) else results}")

print()
print("telescoping: summed over k, the F-sums equal s! * P_s for s = r, r+1, r+2:")
for r in range(1, 9):
    print(f"  r={r}:  {recursion.telescoping_check(r)}")

print()
print("stepping the recurrence from P_1 alone (the r = 0 step multiplies P_0 by 0):")
for r, poly in recursion.stream(6):
    print(f"  r={r}:  {poly}")
