"""The permutation walk under the enumeration: Heap's algorithm and the orbit test.

Both live in hypermaps.enumeration as _heap_raw and _orbit_size.  _heap_raw
yields one list, mutated in place, so each order is copied as it is seen.
"""

import math

from hypermaps.enumeration import _heap_raw, _orbit_size


def heap_sequence(a, start=0):
    return [tuple(perm) for perm in _heap_raw(a, start)]


def test_heap_counts_and_uniqueness():
    'the kernel yields exactly r! distinct orders for r <= 8, the first unchanged'
    for r in range(1, 9):
        seq = heap_sequence(list(range(r)))
        assert len(seq) == len(set(seq)) == math.factorial(r)
        assert seq[0] == tuple(range(r))


def test_heap_shard_keeps_first_entry():
    'with start=1 the kernel walks the (r-1)! orders of a[1:] and never moves a[0]'
    for r in range(1, 9):
        first = r - 1
        a = [first] + [x for x in range(r) if x != first]
        seq = heap_sequence(a, start=1)
        assert len(seq) == len(set(seq)) == math.factorial(r - 1)
        assert all(perm[0] == first for perm in seq)


def test_heap_r1_is_identity():
    assert heap_sequence([0]) == [(0,)]


def test_heap_r3_all_distinct():
    # Heap's sequence of single transpositions, pinned for r = 3
    assert heap_sequence([0, 1, 2]) == [
        (0, 1, 2), (1, 0, 2), (2, 0, 1), (0, 2, 1), (1, 2, 0), (2, 1, 0)
    ]


def test_heap_order_is_deterministic():
    assert heap_sequence(list(range(4))) == heap_sequence(list(range(4)))


def test_is_transitive():
    for r in (1, 2, 5, 9):
        full_cycle = [(i + 1) % r for i in range(r)]
        assert _orbit_size([full_cycle], r) == r
    assert _orbit_size([[0, 1]], 2) == 1
    # two fixed-point loops joined by a transposition: connected
    assert _orbit_size([[0, 1], [1, 0]], 2) == 2
    # the face shape [2, 1] alone leaves dart 2 unreached
    assert _orbit_size([[1, 0, 2]], 3) == 2
