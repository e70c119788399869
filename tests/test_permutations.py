"""The permutation walk under the enumeration: the shards of Sym_r and the orbit test.

Both live in hypermaps.enumeration: _count_shard walks the permutations with
one image of dart 0, and _orbit_size tests transitivity.
"""

import math

from hypermaps import closed_form
from hypermaps.enumeration import _count_shard, _orbit_size, _xi_table, cycle_pair_counts


def _merged_shards(shape, connected_only):
    xi = _xi_table(shape)
    total = {}
    for i in range(len(xi)):
        shard = _count_shard(xi, i, connected_only)
        if not connected_only:
            assert sum(shard.values()) == math.factorial(len(xi) - 1)
        for key, c in shard.items():
            total[key] = total.get(key, 0) + c
    return total


def test_shards_walk_sym_r():
    'the shard of each sigma(0) walks (r-1)! permutations, and the r shards make up Sym_r'
    for r in range(1, 8):
        total = _merged_shards([r], False)
        assert total == cycle_pair_counts([r])
        # summed over xi o sigma, the histogram counts Sym_r by cycles of sigma
        marginal = {}
        for (cs, _), c in total.items():
            marginal[cs] = marginal.get(cs, 0) + c
        assert marginal == dict(enumerate(closed_form.stirling_row(r), start=1))
    # two loops of 3 and 2 darts: sigma is disconnected exactly when it keeps both blocks
    connected = _merged_shards([3, 2], True)
    assert connected == cycle_pair_counts([3, 2], connected_only=True)
    assert sum(connected.values()) == math.factorial(5) - math.factorial(3) * math.factorial(2)


def test_is_transitive():
    for r in (1, 2, 5, 9):
        full_cycle = [(i + 1) % r for i in range(r)]
        assert _orbit_size([full_cycle], r) == r
    assert _orbit_size([[0, 1]], 2) == 1
    # two fixed-point loops joined by a transposition: connected
    assert _orbit_size([[0, 1], [1, 0]], 2) == 2
    # the face shape [2, 1] alone leaves dart 2 unreached
    assert _orbit_size([[1, 0, 2]], 3) == 2
