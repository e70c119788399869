"""Polynomial-time construction of the one-face generating polynomials.

The one-face generating polynomial has a closed form: an alternating,
binomial-weighted sum of r products of two rising factorials, one in m and
one in n, divided by r!.  Expanding each rising factorial as the literal
product (x-k)(x-k+1)...(x-k+r-1) keeps everything polynomial, including at
the small integer arguments where the equivalent ratio of gamma functions
has (removable) poles; the vanishing factors of the product are precisely
what truncates the sum at small arguments.  Only the k=0 product is expanded
factor by factor; each next one takes O(r): an exact division by the top
factor of the one before (a remainder raises NotDivisible) and a new bottom
factor.  The m and n factors are the same row, so the coefficient of m^e n^v
equals that of m^v n^e: only the slots with e <= v are summed, then mirrored.
Every term also has e + v = r + 1 - 2g for its genus g, so only the slots on
that Euler-parity lattice, e + v = r + 1 (mod 2), are summed: off it, the
k and r-1-k summands are equal and opposite, and for odd r the middle one is
its own negative.  One last pass divides each e <= v sum by r! once (a
remainder raises NotDivisible), writes the quotient to both (e, v) and
(v, e), and drops the sums that cancelled to zero.

The same rising factorials give the unsigned Stirling numbers of the first
kind (the k=0 product m(m+1)...(m+r-1) expands to the cycle-count histogram
of Sym_r), and, scaled by a rising product in m*n, the exact mean trace
powers of a random bipartite reduced density operator.
"""

from __future__ import annotations

from math import comb, factorial, prod
from typing import Dict, List, Sequence, Tuple

from .polynomial import BivarPoly, NotDivisible, _wrap


def rising_ratio(k: int, r: int) -> Tuple[int, ...]:
    """The length-r rising product starting at x-k, expanded in powers of x.

    Returns the coefficients of the monic degree-r product
    (x-k)(x-k+1)...(x-k+r-1), lowest power first: entry i is that of x^i.

    This is the polynomial identity behind the quotient gamma(x+r-k)/gamma(x-k):
    valid at every integer substitution, including x <= k where the quotient
    itself is only defined by cancellation.
    """
    if r < 1:
        raise ValueError("length r must be at least 1")
    if k < 0:
        raise ValueError("shift k must be nonnegative")
    coeffs = [1]
    for shift in range(-k, r - k):  # times (x + shift): x * coeffs plus shift * coeffs
        coeffs = [a + shift * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
    return tuple(coeffs)


def _next_row(row: Sequence[int], k: int) -> Tuple[int, ...]:
    """a_k from a_(k-1) = row in O(r): divide out x - (k-r) exactly or raise NotDivisible, times x - k."""
    c = k - len(row) + 1
    q = [row[-1]]
    for a in row[-2:0:-1]:  # synthetic division from the top
        q.append(a + c * q[-1])
    if row[0] + c * q[-1]:
        raise NotDivisible(0, 0, row[0] + c * q[-1], f"x{-c:+d}")  # the remainder, as a constant term
    q.reverse()
    return tuple([a - k * b for a, b in zip([0, *q], [*q, 0])])  # a list: tuple(genexpr) fragments the heap


def one_face_poly(r: int) -> BivarPoly:
    """Generating polynomial for one-face rooted hypermaps with r darts.

    Built in polynomial time from the closed-form sum in integers; each rising
    row after a_0 is stepped from the one before in O(r) (_next_row), and
    every step and the final division by r! is exact or raises NotDivisible.
    Slot (e, v) sums w_k a_k[e] a_k[v]: only e <= v is summed.  The last pass
    divides each of those sums by r! once, writes the quotient to both (e, v)
    and (v, e), and drops the sums that cancelled to zero.

    Only the slots with e + v = r + 1 (mod 2) are summed; the others are zero.
    a_(r-1-k)(x) = (-1)^r a_k(-x) and w_(r-1-k) = (-1)^(r-1) w_k, so the k and
    r-1-k summands of slot (e, v) differ by the factor (-1)^(r-1+e+v): off the
    lattice they cancel in pairs, and for odd r the middle k cancels itself.
    """
    if r < 1:
        raise ValueError("r must be a positive integer")
    acc: Dict[Tuple[int, int], int] = {}
    p = (r + 1) & 1  # v - e has the parity of r + 1 on the lattice
    for k in range(r):
        weight = comb(r - 1, k)
        if k & 1:
            weight = -weight
        row = _next_row(row, k) if k else rising_ratio(0, r)  # the m and n factors share it
        for e, a in enumerate(row):
            wa = weight * a
            for v in range(e + p, r + 1, 2):
                ev = (e, v)
                acc[ev] = acc.get(ev, 0) + wa * row[v]
    d, terms = factorial(r), {}
    for (e, v), c in acc.items():
        if c:  # off the triangle e, v >= 1, e + v <= r + 1 the sums cancel to 0
            q, rem = divmod(c, d)
            if rem:
                raise NotDivisible(e, v, c, d)
            terms[e, v] = terms[v, e] = q  # the (e, v) sum is also (v, e)
    return _wrap(terms)


def stirling_row(r: int) -> List[int]:
    """Unsigned Stirling numbers of the first kind c(r, 1..r).

    c(r, k) counts the permutations of r elements with exactly k cycles; the
    list is read off the expansion of m(m+1)...(m+r-1), whose constant term
    is zero.
    """
    return list(rising_ratio(0, r)[1:])


def avg_trace_power(m: int, n: int, r: int) -> Fraction:
    """Mean of the r-th trace power of a random reduced density operator.

    For a bipartite pure state drawn uniformly from the unit sphere of an
    (m*n)-dimensional space, the average of Tr(rho_A^r) over states equals the
    one-face generating polynomial at (m, n) divided by the rising product
    mn(mn+1)...(mn+r-1).  Exact rational output.
    """
    from fractions import Fraction  # loaded by the first call, so other runs start without it
    _check_mnr(m, n, r)
    return Fraction(one_face_poly(r).eval_at(m, n), prod(range(m * n, m * n + r)))


def avg_trace_power_alt(m: int, n: int, r: int) -> Fraction:
    """Independent route to avg_trace_power via the m-truncated factorial sum.

    Sums at most min(m, n, r) alternating terms of factorial quotients; terms
    where any of the reciprocal gamma factors sits at a nonpositive integer
    vanish, which is what truncates the sum.  Used as a cross-check only:
    agreement with avg_trace_power verifies both transcriptions.
    """
    from fractions import Fraction
    _check_mnr(m, n, r)
    total = Fraction(0)
    for k in range(min(m, n, r)):
        num = factorial(m + r - k - 1) * factorial(n + r - k - 1)
        den = factorial(k) * factorial(r - k - 1) * factorial(m - k - 1) * factorial(n - k - 1)
        term = Fraction(num, den)
        total += -term if k & 1 else term
    return total / r * Fraction(factorial(m * n - 1), factorial(m * n + r - 1))


def _check_mnr(m: int, n: int, r: int):
    if m < 1 or n < 1 or r < 1:
        raise ValueError(f"m, n, r must all be positive, got ({m}, {n}, {r})")
