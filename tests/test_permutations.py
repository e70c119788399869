"""The permutation walk under the enumeration: the shards of Sym_r and the transitivity filter.

Both live in hypermaps.enumeration: _count_shard walks the permutations with
one image of dart 0 once for every face of a call (each built by _face) into
one flat table per face, and _joins_blocks tests transitivity on the cycles of
the face permutation.
"""

import math
from itertools import permutations

from hypermaps import closed_form
from hypermaps.enumeration import _count_shard, _face, _joins_blocks, cycle_pair_counts

SHAPES_6 = [[6], [5, 1], [4, 2], [3, 3], [2, 2, 2], [3, 2, 1], [1] * 6]

# the canonical face permutation of each shape, as its image table
XI_TABLES = {
    (1,): (0,),
    (2,): (1, 0),
    (5,): (1, 2, 3, 4, 0),
    (6,): (1, 2, 3, 4, 5, 0),
    (1, 1): (0, 1),
    (2, 1): (1, 0, 2),
    (3, 3): (1, 2, 0, 4, 5, 3),
    (4, 2): (1, 2, 3, 0, 5, 4),
    (2, 2, 1): (1, 0, 3, 2, 4),
    (3, 2, 1): (1, 2, 0, 4, 3, 5),
    (2, 2, 2): (1, 0, 3, 2, 5, 4),
    (3, 1, 1, 1): (1, 2, 0, 3, 4, 5),
    (2, 1, 1, 1, 1): (1, 0, 2, 3, 4, 5),
    (1,) * 5: (0, 1, 2, 3, 4),
    (1,) * 6: (0, 1, 2, 3, 4, 5),
}


def _merged_shards(shapes, connected_only):
    # the shards' flat tables keyed and merged dict by dict, apart from the call's slot-by-slot sum
    r = sum(shapes[0])
    faces = [_face(shape) for shape in shapes]
    totals = [{} for _ in shapes]
    for i in range(r):
        shard = _count_shard(faces, i, connected_only)
        assert len(shard) == len(shapes)
        for total, table in zip(totals, shard):
            assert len(table) == (r + 1) ** 2
            if not connected_only:
                assert sum(table) == math.factorial(r - 1)
            for slot, c in enumerate(table):
                if c:
                    key = divmod(slot, r + 1)
                    total[key] = total.get(key, 0) + c
    return totals


def _orbit_of_zero(xi, perm):
    """Point-level BFS: the orbit of dart 0 under <xi, perm>."""
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in (xi[i], perm[i]):
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def _cycles(perm):
    left = set(range(len(perm)))
    count = 0
    while left:
        count += 1
        j = left.pop()
        while perm[j] in left:
            j = perm[j]
            left.remove(j)
    return count


def _compositions(r):
    if not r:
        yield []
    for first in range(1, r + 1):
        for rest in _compositions(r - first):
            yield [first, *rest]


def test_connected_filter_matches_point_orbits():
    'the block walk, which stops at the last block, keeps exactly the sigma a point BFS calls transitive'
    shapes = [shape for r in range(2, 7) for shape in _compositions(r) if len(shape) > 1]
    assert len(shapes) == 57 and max(map(len, shapes)) == 6
    shapes += [[7 - b, b] for b in range(1, 7)]
    for shape in shapes:
        r = sum(shape)
        xi = _face(shape)[0]
        expected = {}
        for perm in permutations(range(r)):
            if len(_orbit_of_zero(xi, perm)) == r:
                key = (_cycles(perm), _cycles([xi[p] for p in perm]))
                expected[key] = expected.get(key, 0) + 1
        assert cycle_pair_counts(shape, connected_only=True) == expected, shape


def test_shards_walk_sym_r():
    'the shard of each sigma(0) walks (r-1)! permutations, and the r shards make up Sym_r'
    for r in range(1, 8):
        [total] = _merged_shards([[r]], False)
        assert total == cycle_pair_counts([r])
        # summed over xi o sigma, the histogram counts Sym_r by cycles of sigma
        marginal = {}
        for (cs, _), c in total.items():
            marginal[cs] = marginal.get(cs, 0) + c
        assert marginal == dict(enumerate(closed_form.stirling_row(r), start=1))
    # two loops of 3 and 2 darts: sigma is disconnected exactly when it keeps both blocks
    [connected] = _merged_shards([[3, 2]], True)
    assert connected == cycle_pair_counts([3, 2], connected_only=True)
    assert sum(connected.values()) == math.factorial(5) - math.factorial(3) * math.factorial(2)


def test_is_transitive():
    'the block-level filter agrees with a point-level BFS on every sigma in Sym_r'
    for shape, table in XI_TABLES.items():
        r = sum(shape)
        xi, blocks, owner = _face(shape)
        assert xi == table
        assert sorted(p for block in blocks for p in block) == list(range(r))
        assert all(owner[p] == b for b, block in enumerate(blocks) for p in block)
        joined = 0
        for perm in permutations(range(r)):
            expected = len(_orbit_of_zero(xi, perm)) == r
            assert _joins_blocks(perm, blocks, owner) == expected, (shape, perm)
            joined += expected
        if len(shape) == 1:
            assert joined == math.factorial(r)
    # two fixed points joined only by the transposition
    _, blocks, owner = _face([1, 1])
    assert _joins_blocks((1, 0), blocks, owner)
    assert not _joins_blocks((0, 1), blocks, owner)


def test_multi_shape_shard_matches_single_shape_shards():
    'one walk for several face shapes gives each shape the histogram of its own walk'
    faces = [_face(shape) for shape in SHAPES_6]
    for connected_only in (False, True):
        for first_image in range(6):
            together = _count_shard(faces, first_image, connected_only)
            apart = [_count_shard([face], first_image, connected_only)[0] for face in faces]
            assert together == apart
        totals = _merged_shards(SHAPES_6, connected_only)
        assert totals == [cycle_pair_counts(s, connected_only=connected_only) for s in SHAPES_6]
