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
visited once and its cycle counts are recomputed from scratch, with no
incremental cleverness to get wrong.  It is the ground truth that the
polynomial-time closed form and the recurrence are checked against.  This is
the only module that walks permutations, and the standard library's
itertools.permutations generates them; the transitivity test (_joins_blocks)
lives here too.  It tests transitivity on the cycles of xi rather than on
points, growing an orbit of <xi, sigma> cycle by cycle and stopping once it
holds them all; each sigma is still visited once and its cycles recounted.

One call walks Sym_r once, for all of its face shapes (which share r), split
into r shards by the image of dart 0, serial or not.  The shard with
sigma(0) = i puts i in front of each of the (r-1)! orders of the other
images, counts cycles(sigma) once per sigma, and then runs each shape's
filter and cycles(xi o sigma), giving one histogram per shape.  Shards are
merged by coefficient addition, so pooled and serial runs produce identical
polynomials.  A call pools its shards only when it has more than one worker
and at least 8! permutations to count (r! times the number of face shapes).
That branch imports multiprocessing on the first pooled call, so a serial
run, or a program that merely imports the package, never loads it.  Pool
workers ignore Ctrl-C and are terminated when the call leaves its pool
block, however it leaves; a worker that dies mid-walk raises ChildProcessError.
"""

from __future__ import annotations

from functools import partial
from itertools import permutations
from math import factorial
from typing import Dict, List, Optional, Sequence, Tuple

from .polynomial import BivarPoly

#: Largest r enumerated without an explicit override; r=13 is about 6.2e9
#: permutations.  Serial one_face_poly(11) took 98 s, 2.5 us per permutation
#: (2.4-2.5 us in three runs at r=10; Python 3.11.7 on a 2-core x86 machine),
#: so r=13 is about 4.5 hours of work, the cost per permutation growing a
#: little with r, and growth beyond that is r-fold.
DEFAULT_ENUM_CEILING = 13

#: The serial rate quoted above, in nanoseconds per permutation, from which
#: the CLI's --force warning estimates a run's time.
_NS_PER_PERM = 2500

#: Each face shape past the first adds this to _NS_PER_PERM (two_face_gf
#: counts r // 2).  At r = 10, serial medians of three runs (Python 3.11.7,
#: 2-core Intel Xeon) were 1.77 us per permutation for one shape and 5.28 us
#: for two_face_gf's five, so a shape adds 0.88 us, half the one-face rate.
_NS_PER_EXTRA_SHAPE = 1250

#: A call with more than one worker pools its shards only when it counts at
#: least this many permutations (number of shapes times r!); below that the
#: pool costs more than it saves.  Medians of 7 interleaved calls on a 2-core
#: machine, serial against two workers: one_face_poly(7) 9.4 vs 13.9 ms,
#: two_face_gf(7) 13-14 vs 23-24 ms, connected_two_face_oracle(7) 18-23 vs
#: 22-30 ms; one_face_poly(8) 85 vs 58 ms, two_face_gf(8) 151 vs 119 ms.
_POOL_MIN_PERMS = factorial(8)


class LimitExceeded(RuntimeError):
    """An enumeration request was larger than the configured ceiling."""

    def __init__(self, r: int, ceiling: int):
        super().__init__(
            f"enumeration over Sym_{r} exceeds the ceiling of {ceiling} "
            f"(the work factor is r*r!; --force on the command line, or ceiling=None, overrides it)"
        )
        self.r = r
        self.ceiling = ceiling


def check_ceiling(r: int, ceiling: Optional[int]) -> None:
    """Raise LimitExceeded if enumerating Sym_r would pass the ceiling (None: no ceiling)."""
    if ceiling is not None and r > ceiling:
        raise LimitExceeded(r, ceiling)


def _joins_blocks(perm: Sequence[int], blocks: Sequence[Sequence[int]], owner: Sequence[int]) -> bool:
    """Whether sigma = perm and the face permutation act transitively together.

    blocks are the face cycles as lists of points, owner[p] the index of the
    block holding p.  An orbit of <xi, sigma> is a union of blocks, grown block
    by block through sigma from the last block (the shorter loop of two_face's
    splits, walked first with no bookkeeping) and stopped once it holds them all.
    """
    last = len(blocks) - 1
    for p in blocks[last]:
        if owner[perm[p]] != last:
            break
    else:
        return not last  # sigma keeps the last block: only a lone block passes
    if last == 1:
        return True  # two blocks, and a point of the last one left it
    reached = [last]
    for b in reached:  # reached grows while it is read: a breadth-first walk
        reached += {owner[perm[p]] for p in blocks[b]}.difference(reached)
        if len(reached) == len(blocks):
            return True
    return False


def _face(
    shape: Sequence[int], connected_only: bool
) -> Tuple[Tuple[int, ...], bool, List[List[int]], List[int], List[int]]:
    """(xi, filtered, blocks, owner, counts) for one face shape of a shard walk.

    xi is the image table of the canonical face permutation: its cycles are
    the blocks of consecutive points, so lengths [a, b] give
    (0..a-1)(a..a+b-1), and owner[p] is the index of the block holding p.
    counts is a flat histogram: counts[cs * (r + 1) + cx] is the number of
    sigma with cs cycles whose product xi o sigma has cx cycles.
    """
    if not shape:
        raise ValueError("face shape needs at least one cycle")
    xi: List[int] = []
    blocks: List[List[int]] = []
    owner: List[int] = []
    for length in shape:
        if length < 1:
            raise ValueError(f"cycle lengths must be positive, got {length}")
        block = list(range(len(xi), len(xi) + length))
        xi.extend(block[1:] + block[:1])
        blocks.append(block)
        owner.extend([len(blocks) - 1] * length)
    counts = [0] * (len(xi) + 1) ** 2
    return tuple(xi), connected_only and len(blocks) > 1, blocks, owner, counts


def _count_shard(
    shapes: Sequence[Sequence[int]],
    first_image: int,
    connected_only: bool,
) -> List[Dict[Tuple[int, int], int]]:
    """Histograms of (cycles(sigma), cycles(xi o sigma)) over one shard of Sym_r.

    The shard is the (r-1)! permutations sigma with sigma(0) = first_image,
    each visited once for all face shapes: cycles(sigma) is counted once, then
    each shape's filter and cycles(xi o sigma).  connected_only keeps only
    sigma whose joint action with xi is transitive.  One histogram per shape.
    """
    faces = [_face(shape, connected_only) for shape in shapes]
    r = len(faces[0][0])
    stride = r + 1
    points = set(range(r))
    head = (first_image,)
    for rest in permutations([x for x in range(r) if x != first_image]):
        perm = head + rest
        left = points.copy()
        cs = 0
        while left:
            cs += 1
            s = left.pop()
            j = perm[s]
            while j != s:
                left.remove(j)
                j = perm[j]
        row = cs * stride
        for xi, filtered, blocks, owner, counts in faces:
            if filtered and not _joins_blocks(perm, blocks, owner):
                continue
            left = points.copy()
            slot = row  # row + cycles(xi o sigma)
            while left:
                slot += 1
                s = left.pop()
                j = xi[perm[s]]
                while j != s:
                    left.remove(j)
                    j = xi[perm[j]]
            counts[slot] += 1
    return [
        {divmod(slot, stride): c for slot, c in enumerate(face[-1]) if c}
        for face in faces
    ]


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


def _pool_worker() -> None:
    """Pool initializer: leave Ctrl-C to the parent, and let the pool's SIGTERM end the worker."""
    from signal import SIG_DFL, SIG_IGN, SIGINT, SIGTERM, signal
    signal(SIGINT, SIG_IGN)
    signal(SIGTERM, SIG_DFL)  # not the KeyboardInterrupt handler a worker forked under cli.main inherits


def _shape_counts(
    shapes: Sequence[Sequence[int]],
    connected_only: bool,
    workers: int,
    ceiling: Optional[int],
) -> List[Dict[Tuple[int, int], int]]:
    """cycle_pair_counts for several face shapes of the same r, one histogram each.

    Sym_r is walked once, as r shards, one per sigma(0), each shard counting
    every shape.  The shards run in this process, or in one process pool when
    there is more than one worker and at least _POOL_MIN_PERMS permutations
    (number of shapes times r!) to count.
    """
    r = sum(shapes[0])
    if r < 1:
        raise ValueError(f"r must be a positive integer, got {r}")
    check_ceiling(r, ceiling)
    for shape in shapes:
        _face(shape, connected_only)  # a malformed shape raises here, before any pool starts
    count = partial(_count_shard, shapes, connected_only=connected_only)
    if workers > 1 and len(shapes) * factorial(r) >= _POOL_MIN_PERMS:
        from multiprocessing import Pool  # only pooled calls load multiprocessing
        with Pool(min(workers, r), _pool_worker) as pool:  # leaving the block terminates the workers
            pids = [w.pid for w in pool._pool]
            shards = pool.map_async(count, range(r), chunksize=1)
            while not shards.ready():  # Pool replaces a dead worker but never reruns its shard
                shards.wait(0.1)
                if [w.pid for w in pool._pool] != pids:
                    raise ChildProcessError("an enumeration worker died before the walk was done")
            shards = shards.get()
    else:
        shards = map(count, range(r))
    merged: List[Dict[Tuple[int, int], int]] = [{} for _ in shapes]
    for shard in shards:
        for counts, histogram in zip(merged, shard):
            for key, c in histogram.items():
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

