import math
import os
import signal
import subprocess
import sys

import pytest

from hypermaps import enumeration
from hypermaps.polynomial import BivarPoly
from hypermaps.enumeration import (
    LimitExceeded,
    cycle_pair_counts,
    one_face_poly,
)
from hypermaps.two_face import two_face_gf, two_face_total

P1 = BivarPoly({(1, 1): 1})
P2 = BivarPoly({(2, 1): 1, (1, 2): 1})
P3 = BivarPoly({(3, 1): 1, (2, 2): 3, (1, 3): 1, (1, 1): 1})


def test_small_one_face_polys():
    assert one_face_poly(1) == P1
    assert one_face_poly(2) == P2
    assert one_face_poly(3) == P3


def test_totals_are_factorials():
    for r in range(1, 9):
        assert one_face_poly(r).eval_at(1, 1) == math.factorial(r)


def test_edge_vertex_duality():
    for r in range(1, 9):
        p = one_face_poly(r)
        assert p == p.swap_vars()


def test_monomials_satisfy_euler_parity():
    for r in range(1, 9):
        for (e, v), c in one_face_poly(r).sorted_terms():
            assert c > 0
            assert e >= 1 and v >= 1
            assert e + v <= r + 1
            assert (e + v - r - 1) % 2 == 0


def test_parallel_matches_serial():
    # r = 6 and 7 walk their shards serially under the pool rule; r = 8 pools
    for r in (6, 7, 8):
        assert one_face_poly(r, workers=3) == one_face_poly(r)


def test_pooled_small_calls_match_serial(monkeypatch):
    monkeypatch.setattr(enumeration, "_POOL_MIN_PERMS", 0)  # every call with workers > 1 pools
    for r in (1, 2, 6, 7):
        assert one_face_poly(r, workers=3) == one_face_poly(r)
    for connected_only in (False, True):
        assert cycle_pair_counts([4, 3], connected_only=connected_only, workers=2) == (
            cycle_pair_counts([4, 3], connected_only=connected_only)
        )


@pytest.fixture
def pools_built(monkeypatch):
    """Replace the forked workers by an in-process stand-in; list the worker counts asked for."""
    built = []

    def walk_in_process(count, r, workers):
        built.append(workers)
        return [count(shard) for shard in range(r)]

    monkeypatch.setattr(enumeration, "_fork_shards", walk_in_process)
    return built


def test_pool_only_from_8_factorial_permutations(pools_built):
    one_face_poly(7, workers=2)  # 7! permutations
    two_face_gf(7, workers=2)  # 3 shapes of 7! permutations each
    assert pools_built == []
    assert one_face_poly(8, workers=2) == one_face_poly(8)
    assert pools_built == [2]


def test_malformed_shape_fails_before_any_pool(pools_built):
    with pytest.raises(ValueError):
        cycle_pair_counts([9, 0], workers=2)
    assert pools_built == []


def test_each_face_is_built_once_per_call(monkeypatch):
    # the call builds each shape's face once and hands it to all r shards
    built = []
    face = enumeration._face
    monkeypatch.setattr(enumeration, "_face", lambda shape: built.append(list(shape)) or face(shape))
    assert sum(cycle_pair_counts([5, 2]).values()) == math.factorial(7)
    assert built == [[5, 2]]
    built.clear()
    assert two_face_gf(7).total == two_face_total(7)
    assert built == [[6, 1], [5, 2], [4, 3]]


# Sends SIGINT to its own process as soon as the first os.fork returns in the
# caller, before the second worker exists; then prints how many workers were
# forked and how many of those pids still exist, zombies included.
_INTERRUPT_WHILE_FORKING = """
import os, signal
from hypermaps import enumeration

fork = os.fork
forked = []

def fork_then_interrupt():
    pid = fork()
    if pid:
        forked.append(pid)
        if len(forked) == 1:
            os.kill(os.getpid(), signal.SIGINT)
    return pid

os.fork = fork_then_interrupt
try:
    enumeration.one_face_poly(8, workers=2)
except KeyboardInterrupt:
    print("interrupted")

def exists(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True

print(len(forked), sum(map(exists, forked)), flush=True)
"""


@pytest.mark.skipif(not hasattr(signal, "pthread_sigmask"), reason="POSIX signal masks")
def test_an_interrupt_while_the_pool_is_built_leaves_no_worker():
    # the interrupt waits until both pids are recorded, so both workers are forked, killed and reaped
    proc = subprocess.Popen(
        [sys.executable, "-c", _INTERRUPT_WHILE_FORKING],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # any worker left behind
        except ProcessLookupError:
            pass
    assert (proc.returncode, out) == (0, "interrupted\n2 0\n"), err


def test_ceiling_guard():
    with pytest.raises(LimitExceeded):
        one_face_poly(14)
    with pytest.raises(LimitExceeded):
        one_face_poly(9, ceiling=8)
    assert one_face_poly(9, ceiling=9).eval_at(1, 1) == math.factorial(9)
    with pytest.raises(ValueError):
        one_face_poly(0)


def test_face_shape_single_loop_matches_one_face():
    for r in (1, 2, 5, 7):
        assert BivarPoly(cycle_pair_counts([r])) == one_face_poly(r)


def test_face_shape_two_fixed_points():
    assert cycle_pair_counts([1, 1]) == {(2, 2): 1, (1, 1): 1}


def test_face_shape_totals():
    'the unrestricted two-loop sum counts all of Sym_(a+b)'
    for a, b in ((1, 2), (2, 2), (3, 2), (4, 3)):
        assert sum(cycle_pair_counts([a, b]).values()) == math.factorial(a + b)


def test_face_shape_validation():
    with pytest.raises(ValueError):
        cycle_pair_counts([])
    with pytest.raises(ValueError):
        cycle_pair_counts([3, 0])
    with pytest.raises(LimitExceeded):
        cycle_pair_counts([10, 4])


def test_cycle_pair_counts_connected_filter():
    # with two fixed points as faces, only the transposition joins them
    all_counts = cycle_pair_counts([1, 1])
    connected = cycle_pair_counts([1, 1], connected_only=True)
    assert all_counts == {(2, 2): 1, (1, 1): 1}
    assert connected == {(1, 1): 1}


def test_conjugate_face_shapes_have_equal_histograms():
    # [a, b] and [b, a] are conjugate in Sym_r, which the two-face routes rely on
    for r in range(2, 8):
        for b in range(1, r):
            a = r - b
            for connected_only in (False, True):
                assert cycle_pair_counts([a, b], connected_only=connected_only) == (
                    cycle_pair_counts([b, a], connected_only=connected_only)
                )

