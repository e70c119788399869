"""Three-term recurrence for the one-face generating polynomials.

Writing P_r for the generating polynomial with r darts, the recurrence is

    (r+3) P_{r+2} = (2r+3)(m+n) P_{r+1} + r[(r+1)^2 - (m-n)^2] P_r,   r >= 0,

with P_1 = mn.  At r = 0 the last term vanishes and the recurrence reads
3 P_2 = 3(m+n) P_1, so the stream starts from P_1 alone and takes
P_2 = m^2*n + m*n^2 from the same step as every later polynomial.  Stepping
the recurrence is the fastest way to produce every polynomial up to some
order.

The step runs on genus rows, not on generic polynomial products.  Every term
m^e*n^v of P_s satisfies e, v >= 1 and e + v = s + 1 - 2g for a genus g >= 0,
so P_s is stored as the list rows, where slot j of genus row g, rows[g][j],
is the coefficient of m^(j+1)*n^(s-2g-j) for j = 0..s-2g-1.  The Euler
parity is built into this layout, so it has no slots that are zero by
construction.  With A and B the rows of P_{r+1} and P_r, slot j of row g of
P_{r+2} collects each term of the recurrence as a shift-and-add on rows:

    (m+n) P_{r+1}       A[g][j-1] + A[g][j]
    (m-n)^2 P_r         B[g][j-2] - 2*B[g][j-1] + B[g][j]
    r(r+1)^2 P_r        B[g-1][j]   (genus row g-1 lands on row g)

with slots outside a row read as zero.  The division by r+3 is checked
coefficient by coefficient and is always exact for true generating
polynomials; a remainder raises NotDivisible with the term's (e, v), the
coefficient and the divisor r+3, because it means the state was corrupted.

Every P_s is symmetric under m<->n (edge-vertex duality), and so are the
factors (m+n) and (m-n)^2 above, so symmetric P_{r+1} and P_r give a
symmetric P_{r+2}.  On rows, the symmetry reads rows[g][j] = rows[g][L-1-j]
with L = s - 2g the row length.  The step therefore computes only the slots
j < ceil(L/2) of each row, each with its exact-or-raise division, and fills
the rest by mirroring.  A mirrored slot is right only if the inputs were
symmetric, so after computing, the step checks that every input row is a
palindrome and raises ValueError naming s and the genus row if one is not;
an asymmetric state thus never passes silently, even when its computed half
happens to divide exactly.

No term dict is built from the rows.  stream yields each P_s as a BivarPoly
whose term store is a read-only view of its rows (_RowView): a lookup of
m^e*n^v is index arithmetic on rows[g][e-1], and iteration reads the rows
column by column, in the order that sorted_terms returns and the CLI
prints, so sorting the terms is one linear pass.  The view stores no keys,
and mirrored slots share their int objects, so P_s costs little beyond its
distinct coefficients.  Generic arithmetic on P_s reads the view and builds
its result as a dict.

The recurrence is certified by a telescoping companion identity: with F(r, k)
the k-th summand of the closed-form sum, there is an explicitly given G(r, k)
such that

    (r+3)F(r+2,k) - (2r+3)(m+n)F(r+1,k) + r[(m-n)^2 - (r+1)^2]F(r,k)
        = G(r,k+1) - G(r,k),

with F zero outside 0 <= k < r and G zero outside 1 <= k <= r+1.  Summing
over k telescopes the right side to zero and turns each F-sum into a P,
which is the recurrence.  verify_certificate checks the identity for one
(r, k) as an exact equality of integer polynomials, after multiplying both
sides by (r+2)! so no rational polynomial type is needed; telescoping_check
checks the second step, that each F-sum is the closed-form P.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping
from itertools import chain, compress, repeat, zip_longest
from math import comb, factorial
from operator import itemgetter
from typing import List

from .polynomial import M, N, BivarPoly, NotDivisible, _wrap
from . import closed_form

_Rows = List[List[int]]


def stream(r_max: int):
    """Yield (r, polynomial) for r = 1..r_max in one recurrence pass; once done, hold nothing.

    Each P_r reads its terms in place from the genus rows the step built
    (a _RowView), so no term dict is copied out of the rows.
    """
    if r_max < 1:
        raise ValueError("r_max must be at least 1")
    prev, curr = [], [[1]]  # no rows for P_0: the r = 0 step multiplies it by 0
    for s in range(1, r_max):
        yield s, _wrap(_RowView(curr, s))
        prev, curr = curr, _advance(s + 1, curr, prev)
    last = [_wrap(_RowView(curr, r_max))]
    del prev, curr  # kept after its last item, the stream holds no rows
    yield r_max, last.pop()  # and, with P_r_max yielded unnamed, no polynomial


class _RowView(Mapping):
    """The terms of P_s read in place from its genus rows, as a BivarPoly term store.

    Slot j of genus row g is the coefficient of m^(j+1)*n^(s-2g-j).  Like a
    term dict, the view holds only nonzero slots: a zero slot is absent from
    iteration, items() and len, and looking it up raises KeyError, as does
    any key off the rows.  The rows are never mutated once wrapped, since
    _advance builds new lists every step.
    """

    __slots__ = ("_rows", "_s")

    def __init__(self, rows: _Rows, s: int):
        self._rows, self._s = rows, s

    def __getitem__(self, key):
        try:
            e, v = key
            g, odd = divmod(self._s + 1 - e - v, 2)
            on_rows = e >= 1 and v >= 1 and not odd and 0 <= g < len(self._rows)
            c = self._rows[g][e - 1] if on_rows else 0
        except (TypeError, ValueError):  # not a pair of ints
            c = 0
        if c:
            return c
        raise KeyError(key)

    def __len__(self) -> int:
        return sum(len(row) - row.count(0) for row in self._rows)

    def __iter__(self):
        return map(itemgetter(0), self._pairs())

    def items(self):
        return _RowItems(self)

    def __eq__(self, other):
        return dict(self._pairs()) == other if isinstance(other, Mapping) else NotImplemented

    def _pairs(self):
        """((e, v), coefficient) of every nonzero slot, e descending and then v descending.

        This is the order of sorted_terms, so sorting them is one linear pass.
        Column e-1 of the rows holds the terms in m^e genus by genus, which
        is v descending; its key range stops at the last row long enough to
        reach it, before the zeros that pad the column.
        """
        s = self._s
        cols = list(zip_longest(*self._rows, fillvalue=0))
        return chain.from_iterable(
            compress(zip(zip(repeat(e), range(s + 1 - e, 0, -2)), col), col)
            for e, col in zip(range(s, 0, -1), reversed(cols))
        )


class _RowItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        return self._mapping._pairs()


def _advance(s: int, a_rows: _Rows, b_rows: _Rows) -> _Rows:
    """Genus rows of P_s from those of P_{s-1} (a_rows) and P_{s-2} (b_rows).

    Raises NotDivisible if a computed slot leaves a remainder and ValueError
    if an input row is not symmetric under m<->n.
    """
    r = s - 2
    c_a, c_b, c_bb, d = 2 * r + 3, r * (r + 1) ** 2, 2 * r, r + 3
    out: _Rows = []
    for g in range((s + 1) // 2):
        length = s - 2 * g
        half = (length + 1) // 2  # slots j < half are computed, the rest mirrored
        # pad the rows so that the zip below reads zeros outside each row;
        # the half-length a1 stops the zip after the computed slots
        a = [0, *a_rows[g], 0] if g < len(a_rows) else [0] * (length + 1)
        b = [0, 0, *b_rows[g], 0, 0] if g < len(b_rows) else [0] * (length + 2)
        h = b_rows[g - 1] if g else [0] * half
        row: List[int] = []
        for a0, a1, h0, b0, b1, b2 in zip(a, a[1 : half + 1], h, b, b[1:], b[2:]):
            t = c_a * (a0 + a1) + c_b * h0 - r * (b0 + b2) + c_bb * b1
            q, rem = divmod(t, d)
            if rem:
                j = len(row)  # slot of m^(j+1)
                raise NotDivisible(j + 1, length - j, t, d)
            row.append(q)
        row.extend(reversed(row[: length // 2]))
        out.append(row)
    # the mirrored halves are right only for symmetric inputs, so check them
    for back, rows in ((1, a_rows), (2, b_rows)):
        for g, row in enumerate(rows):
            if row != row[::-1]:
                raise ValueError(
                    f"genus row {g} of P_{s - back} is not symmetric under m<->n "
                    f"(stepping to s={s})"
                )
    return out


# certificate -------------------------------------------------------------


def certificate_bracket(r: int, k: int) -> BivarPoly:
    """The bracketed cofactor of G(r, k), as a polynomial in m and n.

    This is the one long expression in the certificate, degree three in
    (k, r) and degree one in each of m and n; it is transcribed exactly once
    here and pinned by spot values in the tests, since a silent typo in it
    would invalidate every certificate check.
    """
    const = (
        k * k * r
        - 3 * k * r * r
        + 2 * r ** 3
        + k * k
        - 7 * k * r
        + 7 * r * r
        - 4 * k
        + 8 * r
        + 3
    )
    linear = k - r - 1  # shared coefficient of m and of n
    return BivarPoly(
        {(0, 0): const, (1, 1): -(r + 3), (1, 0): linear, (0, 1): linear}
    )


def _rf_product(k: int, length: int) -> BivarPoly:
    """The rising products of the given length starting at m-k and at n-k, multiplied."""
    coeffs = closed_form.rising_ratio(k, length)
    in_m = BivarPoly({(i, 0): c for i, c in enumerate(coeffs) if c})
    return in_m * in_m.swap_vars()


def _f_cleared(s: int, k: int) -> BivarPoly:
    """s! * F(s, k): the closed-form summand with its denominator cleared."""
    if k < 0 or k >= s:
        return BivarPoly()
    sign = -1 if k & 1 else 1
    return (sign * comb(s - 1, k)) * _rf_product(k, s)


def _g_cleared(r: int, k: int) -> BivarPoly:
    """(r+2)! * G(r, k): the certificate companion with its denominator cleared.

    The factorial quotients in G expand to rising products of r+1 consecutive
    factors, so both sides of the certificate stay pole-free polynomials.
    """
    if k < 1 or k > r + 1:
        return BivarPoly()
    sign = -1 if k & 1 else 1
    return (sign * comb(r, k - 1)) * _rf_product(k, r + 1) * certificate_bracket(r, k)


def verify_certificate(r: int, k: int) -> bool:
    """Check the certificate identity at (r, k) as exact polynomial equality.

    Both sides are multiplied by (r+2)! so the comparison happens over
    integer-coefficient polynomials.  Outside the supports of F and G both
    sides are identically zero and the check is trivially true.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    lhs = (
        (r + 3) * _f_cleared(r + 2, k)
        - ((2 * r + 3) * (r + 2)) * (M + N) * _f_cleared(r + 1, k)
        + (r * (r + 1) * (r + 2)) * ((M - N) ** 2 - BivarPoly({(0, 0): (r + 1) ** 2})) * _f_cleared(r, k)
    )
    rhs = _g_cleared(r, k + 1) - _g_cleared(r, k)
    return lhs == rhs


def telescoping_check(r: int) -> bool:
    """True iff the F-sums at s = r, r+1, r+2 are the closed-form polynomials P_s.

    Summed over k, the certificate telescopes to the recurrence applied to
    these sums, so it proves the recurrence for P only when they match.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    for s in (r, r + 1, r + 2):
        f_sum = sum((_f_cleared(s, k) for k in range(s)), BivarPoly())
        if f_sum != factorial(s) * closed_form.one_face_poly(s):
            return False
    return True
