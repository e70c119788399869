"""Generating functions and totals for two-face rooted hypermaps.

A two-face diagram with r darts splits the face permutation into two loops of
lengths a and b with a + b = r.  The plain permutation sum over Sym_r for
that split (the histogram enumeration.cycle_pair_counts([a, b])) over-counts
in two ways: it includes diagrams where the two loops never get joined
(disconnected, hence not a hypermap), and it counts each connected diagram
b times, once per cyclic shift of the unrooted second loop.  So for each split the disconnected part, which is
exactly the product of the two one-face polynomials, is subtracted, the
difference is divided by b, and the splits b = 1..r-1 are summed.

The face shapes [a, b] and [b, a] are conjugate in Sym_r, and conjugating
sigma by the same permutation keeps cycles(sigma), cycles(xi o sigma) and
transitivity, so both shapes have the same histogram.  Each unordered split
is therefore enumerated once, as [a, b] with a >= b, and its difference D
contributes D/b for [a, b] plus D/a for [b, a] when a != b.  The two
divisions stay separate: each one is asserted exact, not assumed, and
raises NotDivisible if the equivalence classes ever fail to have size b (or
a), which would be a real finding rather than something to hide.  All the
splits of one call are counted in one walk of Sym_r that visits each sigma
once for every split, as r shards run in this process or, given more than
one worker and at least 8! permutations in all (so from r = 8 on), in one
process pool.

connected_two_face_oracle recomputes the same polynomial a second,
structurally different way, by enumerating only the sigma whose joint action
with the two-loop face permutation is transitive.  The subtraction route and
the transitive-filter route must agree coefficient for coefficient.

There is a closed-form total (valid for any r, no enumeration):

    sum over b = 1..r-1 of (r! - b!(r-b)!) / b

but no closed form for the polynomial itself, so the generating function is
only available within the enumeration ceiling.  Both routes check r against
that ceiling before they build the list of splits, so an r far beyond it is
refused at once with LimitExceeded.  two_face_gf returns a TwoFaceResult, a
NamedTuple of (r, gf, total).
"""

from __future__ import annotations

from math import factorial
from typing import List, NamedTuple, Optional, Tuple

from .polynomial import BivarPoly
from .enumeration import DEFAULT_ENUM_CEILING, _shape_counts, check_ceiling
from . import closed_form


class TwoFaceResult(NamedTuple):
    """Generating polynomial and total count for two-face maps with r darts."""

    r: int
    gf: BivarPoly
    total: int


def two_face_gf(
    r: int,
    *,
    ceiling: Optional[int] = DEFAULT_ENUM_CEILING,
    workers: int = 1,
) -> TwoFaceResult:
    """Generating polynomial for two-face rooted hypermaps with r darts.

    Coefficient of m^e*n^v counts maps with e edges and v vertices.  Each
    split's two-loop sum comes from the enumeration oracle; the disconnected
    part it subtracts is the product of one-face polynomials from the
    polynomial-time closed form.
    """
    splits = _unordered_splits(r, ceiling)
    histograms = _shape_counts([[a, b] for a, b in splits], False, workers, ceiling)
    gf = BivarPoly()
    for (a, b), counts in zip(splits, histograms):
        disconnected = closed_form.one_face_poly(a) * closed_form.one_face_poly(b)
        gf = gf + _both_orders(BivarPoly(counts) - disconnected, a, b)
    return TwoFaceResult(r, gf, gf.eval_at(1, 1))


def two_face_total(r: int) -> int:
    """Number of two-face rooted hypermaps with r darts, by the closed formula.

    No enumeration involved, so this is exact for r far beyond the ceiling.
    Both r! and b!(r-b)! are individually divisible by b, so the division is
    exact term by term.
    """
    if r < 2:
        raise ValueError("two-face maps need at least 2 darts")
    r_fact = factorial(r)
    return sum((r_fact - factorial(b) * factorial(r - b)) // b for b in range(1, r))


def connected_two_face_oracle(
    r: int,
    *,
    ceiling: Optional[int] = DEFAULT_ENUM_CEILING,
    workers: int = 1,
) -> BivarPoly:
    """Ground-truth two-face polynomial via transitivity-filtered enumeration.

    For each unordered split [a, b] with a >= b, sums the monomials of
    exactly those sigma that join the two loops into one connected diagram,
    then divides that sum by b, and for the conjugate split [b, a] by a (the
    cyclic degeneracy of the unrooted loop).  Independent of the subtraction
    performed by two_face_gf, which it must match.
    """
    splits = _unordered_splits(r, ceiling)
    histograms = _shape_counts([[a, b] for a, b in splits], True, workers, ceiling)
    gf = BivarPoly()
    for (a, b), counts in zip(splits, histograms):
        gf = gf + _both_orders(BivarPoly(counts), a, b)
    return gf


def _unordered_splits(r: int, ceiling: Optional[int]) -> List[Tuple[int, int]]:
    """The splits (a, b) of r darts into two loops with a >= b >= 1.

    r is checked against the enumeration ceiling before the r // 2 splits are
    built, so an r far past it fails at once instead of exhausting memory.
    """
    if r < 2:
        raise ValueError("two-face maps need at least 2 darts")
    check_ceiling(r, ceiling)
    return [(r - b, b) for b in range(1, r // 2 + 1)]


def _both_orders(per_split: BivarPoly, a: int, b: int) -> BivarPoly:
    """Contribution of the ordered splits [a, b] and [b, a] from their common sum.

    [a, b] is divided by b and [b, a] by a, each division exact-or-raise.
    """
    out = per_split.exact_div(b)
    if a != b:
        out = out + per_split.exact_div(a)
    return out
