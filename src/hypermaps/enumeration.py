"""Brute-force enumeration of rooted hypermaps by permutation sums.

A rooted hypermap with r darts is an ordered triple of permutations
(faces, edges, vertices) on the darts whose product is the identity and whose
joint action is transitive.  Fixing the face permutation xi and letting sigma
range over all of Sym_r, each sigma contributes the monomial

    m^(number of cycles of sigma) * n^(number of cycles of xi o sigma),

and the sum of these r! monomials is the generating polynomial counting the
maps by edges (exponent of m) and vertices (exponent of n).  With xi a single
r-cycle every term is automatically transitive and the sum counts one-face
rooted hypermaps; for a multi-cycle xi the plain sum also includes
disconnected diagrams (the two_face module subtracts those back out).

This is O(r * r!) work, which is exactly why it is trustworthy: each sigma is
visited once by Heap's algorithm and its two cycle counts are recomputed from
scratch, with no incremental cleverness to get wrong.  It is the ground truth
that the polynomial-time closed form and the recurrence are checked against.

Work can be split into r independent shards by the image of dart 0; shards
are merged by coefficient addition, so parallel and serial runs produce
identical polynomials.  The shards of several face shapes of the same size
share one process pool.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .polynomial import BivarPoly
from .permutations import _heap_raw, _orbit_size

#: Largest r enumerated without an explicit override; r=13 is about 6.2e9
#: permutations.  At the measured serial rate of 3.2-3.6 us per permutation
#: (Python 3.11 on a 2-core x86 machine) that is 5.5-6.2 hours of work, and
#: growth beyond that is r-fold.
DEFAULT_ENUM_CEILING = 13

#: Below this size a parallel request falls back to the serial loop; the
#: process pool costs more than the whole enumeration.
_PARALLEL_MIN_R = 6


class LimitExceeded(RuntimeError):
    """An enumeration request was larger than the configured ceiling."""

    def __init__(self, r: int, ceiling: int):
        super().__init__(
            f"enumeration over Sym_{r} exceeds the ceiling of {ceiling} "
            f"(the work factor is r*r!; raise the ceiling explicitly to force)"
        )
        self.r = r
        self.ceiling = ceiling


class EulerViolation(RuntimeError):
    """A hypermap's genus came out negative or non-integral (a bug signal)."""


@dataclass(frozen=True)
class CoeffTable:
    """Rows (r, e, v, count), sorted by (r, e descending, v descending)."""

    rows: Tuple[Tuple[int, int, int, int], ...]

    @classmethod
    def from_polys(cls, polys: Sequence[Tuple[int, BivarPoly]]) -> "CoeffTable":
        rows = []
        for r, poly in sorted(polys, key=lambda p: p[0]):
            for (e, v), c in poly.sorted_terms():
                rows.append((r, e, v, c))
        return cls(tuple(rows))


def _check_ceiling(r: int, ceiling: Optional[int]):
    if r < 1:
        raise ValueError(f"r must be a positive integer, got {r}")
    if ceiling is not None and r > ceiling:
        raise LimitExceeded(r, ceiling)


def _xi_table(lengths: Sequence[int]) -> Tuple[int, ...]:
    """Image table of the canonical face permutation for the given cycle lengths.

    Cycles occupy consecutive blocks: lengths [a, b] give (0..a-1)(a..a+b-1).
    """
    if not lengths:
        raise ValueError("face shape needs at least one cycle")
    xi: List[int] = []
    offset = 0
    for length in lengths:
        if length < 1:
            raise ValueError(f"cycle lengths must be positive, got {length}")
        xi.extend(offset + ((i + 1) % length) for i in range(length))
        offset += length
    return tuple(xi)


def _count_shard(
    xi: Tuple[int, ...],
    first_image: Optional[int],
    connected_only: bool,
) -> Dict[Tuple[int, int], int]:
    """Histogram of (cycles(sigma), cycles(xi o sigma)) over one shard of Sym_r.

    first_image=None walks all of Sym_r; first_image=v walks the (r-1)!
    permutations with sigma(0)=v.  connected_only keeps only sigma whose joint
    action with xi is transitive.
    """
    r = len(xi)
    if first_image is None:
        a = list(range(r))
        start = 0
    else:
        a = [first_image] + [x for x in range(r) if x != first_image]
        start = 1

    counts: Dict[Tuple[int, int], int] = {}
    mark_s = [-1] * r
    mark_x = [-1] * r
    gen = 0
    rng = range(r)
    for perm in _heap_raw(a, start):
        if connected_only and _orbit_size((xi, perm), r) != r:
            continue
        gen += 1
        cs = 0
        for s in rng:
            if mark_s[s] != gen:
                cs += 1
                j = s
                while mark_s[j] != gen:
                    mark_s[j] = gen
                    j = perm[j]
        cx = 0
        for s in rng:
            if mark_x[s] != gen:
                cx += 1
                j = s
                while mark_x[j] != gen:
                    mark_x[j] = gen
                    j = xi[perm[j]]
        key = (cs, cx)
        if key in counts:
            counts[key] += 1
        else:
            counts[key] = 1
    return counts


def _shard_job(args) -> Dict[Tuple[int, int], int]:
    lengths, first_image, connected_only = args
    return _count_shard(_xi_table(lengths), first_image, connected_only)


def cycle_pair_counts(
    lengths: Sequence[int],
    *,
    connected_only: bool = False,
    ceiling: Optional[int] = DEFAULT_ENUM_CEILING,
    workers: int = 1,
) -> Dict[Tuple[int, int], int]:
    """Histogram of (cycles(sigma), cycles(xi o sigma)) over all of Sym_r.

    xi is the canonical permutation with the given cycle lengths; r is their
    sum.  The histogram keys are exactly the (edges, vertices) exponent pairs
    of the generating polynomial and the values are the map counts.
    """
    lengths = list(lengths)
    _check_ceiling(sum(lengths), ceiling)
    return _shape_counts([lengths], connected_only, workers)[0]


def _shape_counts(
    shapes: Sequence[Sequence[int]],
    connected_only: bool,
    workers: int,
) -> List[Dict[Tuple[int, int], int]]:
    """cycle_pair_counts for several face shapes of the same r, one histogram each.

    Pooled, every (shape, sigma(0)) shard goes to one process pool, so a
    call starts one pool however many shapes it is given.  The caller checks
    the ceiling.
    """
    r = sum(shapes[0])
    if workers > 1 and r >= _PARALLEL_MIN_R:
        merged: List[Dict[Tuple[int, int], int]] = [{} for _ in shapes]
        jobs = [(lengths, v, connected_only) for lengths in shapes for v in range(r)]
        with ProcessPoolExecutor(max_workers=min(workers, r)) as pool:
            for i, shard in enumerate(pool.map(_shard_job, jobs)):
                counts = merged[i // r]
                for key, c in shard.items():
                    counts[key] = counts.get(key, 0) + c
        return merged
    return [_count_shard(_xi_table(lengths), None, connected_only) for lengths in shapes]


def one_face_poly(
    r: int,
    *,
    ceiling: Optional[int] = DEFAULT_ENUM_CEILING,
    workers: int = 1,
) -> BivarPoly:
    """Generating polynomial for one-face rooted hypermaps with r darts.

    Computed by direct summation over all r! permutations, with xi the full
    r-cycle.  The coefficient of m^e*n^v is the number of such maps with e
    edges and v vertices; the value at (1, 1) is r!.
    """
    counts = cycle_pair_counts([r], ceiling=ceiling, workers=workers)
    return BivarPoly(counts)


def face_shape_poly(
    lengths: Sequence[int],
    *,
    ceiling: Optional[int] = DEFAULT_ENUM_CEILING,
    workers: int = 1,
) -> BivarPoly:
    """Permutation sum for a face permutation with the given cycle lengths.

    Unlike the one-face case this includes disconnected diagrams: every sigma
    in Sym_r contributes, whether or not its joint action with xi is
    transitive.  For lengths [r] it coincides with one_face_poly(r), and its
    value at (1, 1) is always r!.
    """
    counts = cycle_pair_counts(lengths, ceiling=ceiling, workers=workers)
    return BivarPoly(counts)


def coefficient_table(
    r: int,
    faces: int = 1,
    *,
    ceiling: Optional[int] = DEFAULT_ENUM_CEILING,
    workers: int = 1,
) -> CoeffTable:
    """Counts of rooted hypermaps with r darts grouped by (edges, vertices)."""
    return CoeffTable.from_polys([(r, _poly_for_faces(r, faces, ceiling, workers))])


def genus_table(
    r: int,
    faces: int = 1,
    *,
    ceiling: Optional[int] = DEFAULT_ENUM_CEILING,
    workers: int = 1,
) -> Dict[int, int]:
    """Counts of rooted hypermaps with r darts grouped by genus.

    The genus comes from the Euler relation v + e + f = r + 2 - 2g.  Every
    enumerated map must give a nonnegative integer g; anything else raises
    EulerViolation, since it can only mean the enumeration itself is broken.
    """
    return _genus_from_poly(r, faces, _poly_for_faces(r, faces, ceiling, workers))


def _genus_from_poly(r: int, faces: int, poly: BivarPoly) -> Dict[int, int]:
    out: Dict[int, int] = {}
    for (e, v), c in poly.sorted_terms():
        twice_g = r + 2 - v - e - faces
        if twice_g < 0 or twice_g % 2:
            raise EulerViolation(
                f"r={r} faces={faces}: term m^{e}*n^{v} gives 2g={twice_g}"
            )
        g = twice_g // 2
        out[g] = out.get(g, 0) + c
    return dict(sorted(out.items()))


def _poly_for_faces(r: int, faces: int, ceiling: Optional[int], workers: int) -> BivarPoly:
    if faces == 1:
        return one_face_poly(r, ceiling=ceiling, workers=workers)
    if faces == 2:
        from .two_face import two_face_gf  # deferred: two_face builds on this module

        return two_face_gf(r, ceiling=ceiling, workers=workers).gf
    raise ValueError(f"faces must be 1 or 2, got {faces}")
