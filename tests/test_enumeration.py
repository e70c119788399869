import math

import pytest

from hypermaps.polynomial import BivarPoly
from hypermaps.enumeration import (
    CoeffTable,
    EulerViolation,
    LimitExceeded,
    coefficient_table,
    cycle_pair_counts,
    face_shape_poly,
    genus_table,
    one_face_poly,
)

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
    for r in (6, 7, 8):
        assert one_face_poly(r, workers=3) == one_face_poly(r)


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
        assert face_shape_poly([r]) == one_face_poly(r)


def test_face_shape_two_fixed_points():
    assert face_shape_poly([1, 1]) == BivarPoly({(2, 2): 1, (1, 1): 1})


def test_face_shape_totals():
    'the unrestricted two-loop sum counts all of Sym_(a+b)'
    for a, b in ((1, 2), (2, 2), (3, 2), (4, 3)):
        assert face_shape_poly([a, b]).eval_at(1, 1) == math.factorial(a + b)


def test_face_shape_validation():
    with pytest.raises(ValueError):
        face_shape_poly([])
    with pytest.raises(ValueError):
        face_shape_poly([3, 0])
    with pytest.raises(LimitExceeded):
        face_shape_poly([10, 4])


def test_cycle_pair_counts_connected_filter():
    # with two fixed points as faces, only the transposition joins them
    all_counts = cycle_pair_counts([1, 1])
    connected = cycle_pair_counts([1, 1], connected_only=True)
    assert all_counts == {(2, 2): 1, (1, 1): 1}
    assert connected == {(1, 1): 1}


def test_coefficient_table_one_face():
    assert coefficient_table(2, faces=1) == CoeffTable(((2, 2, 1, 1), (2, 1, 2, 1)))
    assert coefficient_table(1, faces=1) == CoeffTable(((1, 1, 1, 1),))


def test_coefficient_table_two_faces():
    assert coefficient_table(2, faces=2) == CoeffTable(((2, 1, 1, 1),))


def test_coefficient_table_rejects_other_faces():
    with pytest.raises(ValueError):
        coefficient_table(3, faces=3)


def test_genus_table_one_face():
    assert genus_table(1, faces=1) == {0: 1}
    assert genus_table(3, faces=1) == {0: 5, 1: 1}
    # genus counts exhaust Sym_r
    for r in range(1, 8):
        assert sum(genus_table(r, faces=1).values()) == math.factorial(r)


def test_genus_table_two_faces():
    assert genus_table(2, faces=2) == {0: 1}
    assert sum(genus_table(5, faces=2).values()) == 210


def test_euler_violation_is_detected():
    from hypermaps.enumeration import _genus_from_poly

    # negative genus: one dart cannot support two faces at (e, v) = (1, 1)
    with pytest.raises(EulerViolation):
        _genus_from_poly(1, 2, BivarPoly({(1, 1): 1}))
    # non-integral genus: parity off by one
    with pytest.raises(EulerViolation):
        _genus_from_poly(4, 1, BivarPoly({(2, 2): 1}))


def test_conjugate_face_shapes_have_equal_histograms():
    # [a, b] and [b, a] are conjugate in Sym_r, which the two-face routes rely on
    for r in range(2, 8):
        for b in range(1, r):
            a = r - b
            for connected_only in (False, True):
                assert cycle_pair_counts([a, b], connected_only=connected_only) == (
                    cycle_pair_counts([b, a], connected_only=connected_only)
                )
