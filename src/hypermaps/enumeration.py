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
filter and cycles(xi o sigma) into a flat table per shape, whose slot
cs * (r + 1) + cx counts the sigma with cs cycles whose product xi o sigma
has cx.  Each shape's face permutation is built once per call and handed to
every shard.  The call sums the shards' tables slot by slot, an
order-independent addition, so pooled and serial runs produce identical
polynomials, and keys the nonzero slots as (cs, cx) once.  A call pools its
shards only when it has more than one worker and at least 8! permutations
to count (r! times the number of face shapes); it forks its workers and
reads each one's tables back over a pipe, so no run loads multiprocessing.
Workers ignore Ctrl-C and stop after their current shard once the caller is
gone, and the call kills and reaps every worker still running however it
ends.  SIGINT and SIGTERM are held back from the first fork until every
worker is recorded, so an interrupt lands only once the call can end them
all.  A worker that dies mid-walk raises ChildProcessError.
"""

from __future__ import annotations

from functools import partial
from itertools import permutations
from math import factorial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .polynomial import BivarPoly

#: Largest r enumerated without an explicit override; r=13 is about 6.2e9
#: permutations.  Serial one_face_poly(11) took 87 s, 2.2 us per permutation
#: (1.8-2.2 us in three runs at r=10; Python 3.11.7 on a 2-core Intel Xeon),
#: so r=13 is about 3.5-4 hours of work, the cost per permutation growing a
#: little with r, and growth beyond that is r-fold.
DEFAULT_ENUM_CEILING = 13

#: The serial rate at r=10 (median of the three runs above, 2.06 us), in ns
#: per permutation, from which the CLI's --force warning estimates a run's time.
_NS_PER_PERM = 2000

#: Each face shape past the first adds this to _NS_PER_PERM (two_face_gf counts
#: r // 2).  In the same three runs two_face_gf(10) took 5.92-6.73 us per
#: permutation (median 5.93) for five shapes, so a shape adds 0.97 us.
_NS_PER_EXTRA_SHAPE = 1000

#: A call with more than one worker forks workers for its shards only when it
#: counts at least this many permutations (number of shapes times r!).  Medians
#: of 7 interleaved calls in four sets on a 2-core machine, serial against two
#: forked workers: one_face_poly(7) 7.4-9.5 vs 8.6-13.4 ms, two_face_gf(7)
#: 13.8-19.8 vs 13.0-22.5 ms, connected_two_face_oracle(7) 14.9-23.7 vs 14.5-29.9
#: ms; one_face_poly(8) 60.8-68.5 vs 42.9-87.3 ms, two_face_gf(8) 156-182 vs 99-109 ms.
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


def _face(shape: Sequence[int]) -> Tuple[Tuple[int, ...], List[List[int]], List[int]]:
    """(xi, blocks, owner) for one face shape: the face permutation's geometry.

    xi is the image table of the canonical face permutation: its cycles are
    the blocks of consecutive points, so lengths [a, b] give
    (0..a-1)(a..a+b-1), and owner[p] is the index of the block holding p.
    A shape with no cycle or a cycle shorter than 1 raises ValueError.
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
    return tuple(xi), blocks, owner


def _count_shard(faces: Sequence[tuple], first_image: int, connected_only: bool) -> List[List[int]]:
    """Flat histograms of (cycles(sigma), cycles(xi o sigma)) over one shard of Sym_r.

    The shard is the (r-1)! permutations sigma with sigma(0) = first_image,
    each visited once for all faces, each the (xi, blocks, owner) of one
    shape from _face: cycles(sigma) is counted once, then each face's filter
    and cycles(xi o sigma).  connected_only keeps only sigma whose joint
    action with xi is transitive.  One flat table per face: slot
    cs * (r + 1) + cx counts the sigma with cs cycles whose product xi o sigma
    has cx cycles.
    """
    r = len(faces[0][0])
    stride = r + 1
    # this shard's faces: each with its filter flag and its own table
    faces = [(xi, connected_only and len(blocks) > 1, blocks, owner, [0] * stride**2)
             for xi, blocks, owner in faces]
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
    return [face[-1] for face in faces]


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


def _fork_shards(count: Callable[[int], list], r: int, workers: int) -> list:
    """The r results count(i), in some order, from min(workers, r) forked workers.

    Worker w of W walks the shards w, w + W, ... and writes their results as
    one marshal dump to its own pipe.  The caller reaps each worker at the end
    of its pipe, so a death shows at once; no worker holds a lock another needs.
    """
    import marshal
    import os
    import select
    from signal import SIG_BLOCK, SIG_DFL, SIG_IGN, SIG_SETMASK, SIG_UNBLOCK, SIGINT, SIGKILL, SIGTERM
    from signal import pthread_sigmask, signal

    width = min(workers, r)
    caller = os.getpid()
    pipes = {}  # the read end of each running worker's pipe -> the worker's pid
    held = pthread_sigmask(SIG_BLOCK, (SIGINT, SIGTERM))  # until every forked pid is recorded
    try:
        for w in range(width):
            rfd, wfd = os.pipe()
            pid = os.fork()
            if not pid:  # the worker
                try:
                    signal(SIGINT, SIG_IGN)
                    signal(SIGTERM, SIG_DFL)  # not the KeyboardInterrupt handler cli.main installs
                    pthread_sigmask(SIG_UNBLOCK, (SIGINT, SIGTERM))
                    os.close(rfd)
                    # once the caller is gone, skip the shards left: no one will read them
                    tables = [count(shard) for shard in range(w, r, width) if os.getppid() == caller]
                    with open(wfd, "wb") as out:
                        marshal.dump(tables, out)
                    os._exit(0)
                finally:  # whatever the worker raised ends it here, never in the caller's code
                    os._exit(1)
            os.close(wfd)
            pipes[open(rfd, "rb", buffering=0)] = pid
        pthread_sigmask(SIG_SETMASK, held)
        shards = []
        while pipes:
            for pipe in select.select(list(pipes), [], [])[0]:
                dump = pipe.readall()  # a worker writes once, at the end of its share, or dies
                pipe.close()
                if os.waitpid(pipes.pop(pipe), 0)[1]:
                    raise ChildProcessError("an enumeration worker died before the walk was done")
                shards += marshal.loads(dump)
        return shards
    finally:  # however the call ends, no worker outlives it
        for pipe, pid in pipes.items():
            pipe.close()
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
        pthread_sigmask(SIG_SETMASK, held)  # when a fork raised


def _shape_counts(
    shapes: Sequence[Sequence[int]],
    connected_only: bool,
    workers: int,
    ceiling: Optional[int],
) -> List[Dict[Tuple[int, int], int]]:
    """cycle_pair_counts for several face shapes of the same r, one histogram each.

    Each shape's face is built once, which also validates it, and Sym_r is
    walked once, as r shards, one per sigma(0), each shard counting every
    face into its own flat tables.  The shards run in this process, or in
    forked workers when there is more than one worker and at least
    _POOL_MIN_PERMS permutations (number of shapes times r!) to count.  The
    shard tables are summed slot by slot and the nonzero slots keyed as
    (cycles(sigma), cycles(xi o sigma)) once.
    """
    r = sum(shapes[0])
    if r < 1:
        raise ValueError(f"r must be a positive integer, got {r}")
    check_ceiling(r, ceiling)
    faces = [_face(shape) for shape in shapes]  # a malformed shape raises here, before any fork
    count = partial(_count_shard, faces, connected_only=connected_only)
    if workers > 1 and len(shapes) * factorial(r) >= _POOL_MIN_PERMS:
        shards = _fork_shards(count, r, workers)
    else:
        shards = map(count, range(r))
    return [  # zip(*shards) groups each face's r shard tables; sum them slot by slot, then key the slots
        {divmod(slot, r + 1): c for slot, c in enumerate(map(sum, zip(*tables))) if c}
        for tables in zip(*shards)
    ]


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

