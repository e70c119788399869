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
The Heap kernel (_heap_raw) and the transitivity test (_orbit_size) live
here, in the only module that walks permutations.

Every walk is split into r shards by the image of dart 0, serial or not;
shards are merged by coefficient addition, so pooled and serial runs produce
identical polynomials.  A call pools its shards only when it has more than
one worker and at least 8! permutations to walk, and the shards of several
face shapes of the same size then share one process pool.  The pool class is
imported by that branch on the first pooled call, so a serial run, and any
program that merely imports the package, never loads concurrent.futures'
process module or multiprocessing.
"""

from __future__ import annotations

from contextlib import ExitStack
from math import factorial
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .polynomial import BivarPoly

#: Largest r enumerated without an explicit override; r=13 is about 6.2e9
#: permutations.  At the measured serial rate of 3.2-3.6 us per permutation
#: (Python 3.11 on a 2-core x86 machine) that is 5.5-6.2 hours of work, and
#: growth beyond that is r-fold.
DEFAULT_ENUM_CEILING = 13

#: A call with more than one worker pools its shards only when it walks at
#: least this many permutations (number of shapes times r!); below that the
#: pool costs more than it saves.  Medians on a 2-core machine, serial against
#: two workers: one_face_poly(7) 13.6 vs 33.0 ms, one_face_poly(8) 122 vs 92 ms.
_POOL_MIN_PERMS = factorial(8)


class LimitExceeded(RuntimeError):
    """An enumeration request was larger than the configured ceiling."""

    def __init__(self, r: int, ceiling: int):
        super().__init__(
            f"enumeration over Sym_{r} exceeds the ceiling of {ceiling} "
            f"(the work factor is r*r!; raise the ceiling explicitly to force)"
        )
        self.r = r
        self.ceiling = ceiling


def check_ceiling(r: int, ceiling: Optional[int]) -> None:
    """Raise LimitExceeded if enumerating Sym_r would pass the ceiling (None: no ceiling)."""
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


def _heap_raw(a: List[int], start: int = 0) -> Iterator[List[int]]:
    """Heap's algorithm over a[start:], yielding the SAME list after each swap.

    The first yield is the list in its initial order.  Callers must not store
    the yielded object; it is mutated in place.  Iterative form with an
    explicit counter array, so the stream can be consumed lazily.
    """
    yield a
    k = len(a) - start
    c = [0] * k
    i = 1
    while i < k:
        if c[i] < i:
            if i % 2 == 0:
                a[start], a[start + i] = a[start + i], a[start]
            else:
                a[start + c[i]], a[start + i] = a[start + i], a[start + c[i]]
            yield a
            c[i] += 1
            i = 1
        else:
            c[i] = 0
            i += 1


def _orbit_size(image_rows: Sequence[Sequence[int]], r: int) -> int:
    """Size of the orbit of point 0 under the given image tables (BFS)."""
    seen = bytearray(r)
    seen[0] = 1
    stack = [0]
    count = 1
    while stack:
        i = stack.pop()
        for row in image_rows:
            j = row[i]
            if not seen[j]:
                seen[j] = 1
                count += 1
                stack.append(j)
    return count


def _count_shard(
    xi: Tuple[int, ...],
    first_image: int,
    connected_only: bool,
) -> Dict[Tuple[int, int], int]:
    """Histogram of (cycles(sigma), cycles(xi o sigma)) over one shard of Sym_r.

    The shard is the (r-1)! permutations sigma with sigma(0) = first_image.
    connected_only keeps only sigma whose joint action with xi is transitive.
    """
    r = len(xi)
    a = [first_image] + [x for x in range(r) if x != first_image]
    counts: Dict[Tuple[int, int], int] = {}
    mark_s = [-1] * r
    mark_x = [-1] * r
    gen = 0
    rng = range(r)
    for perm in _heap_raw(a, 1):
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
    return _shape_counts([list(lengths)], connected_only, workers, ceiling)[0]


def _shape_counts(
    shapes: Sequence[Sequence[int]],
    connected_only: bool,
    workers: int,
    ceiling: Optional[int],
) -> List[Dict[Tuple[int, int], int]]:
    """cycle_pair_counts for several face shapes of the same r, one histogram each.

    Every shape is walked as r shards, one per sigma(0).  The shards run in
    this process, or in one process pool for all shapes when there is more
    than one worker and at least _POOL_MIN_PERMS permutations to walk.
    """
    r = sum(shapes[0])
    if r < 1:
        raise ValueError(f"r must be a positive integer, got {r}")
    check_ceiling(r, ceiling)
    xis = [xi for xi in map(_xi_table, shapes) for _ in range(r)]
    images = list(range(r)) * len(shapes)
    flags = [connected_only] * len(xis)
    merged: List[Dict[Tuple[int, int], int]] = [{} for _ in shapes]
    with ExitStack() as stack:
        run = map
        if workers > 1 and len(shapes) * factorial(r) >= _POOL_MIN_PERMS:
            from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing; only pooled calls pay it

            run = stack.enter_context(ProcessPoolExecutor(max_workers=min(workers, r))).map
        for i, shard in enumerate(run(_count_shard, xis, images, flags)):
            counts = merged[i // r]
            for key, c in shard.items():
                counts[key] = counts.get(key, 0) + c
    return merged


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

