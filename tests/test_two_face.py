import pytest

from hypermaps import enumeration, two_face
from hypermaps.polynomial import BivarPoly, NotDivisible
from hypermaps.enumeration import LimitExceeded, cycle_pair_counts
from hypermaps.two_face import (
    TwoFaceResult,
    connected_two_face_oracle,
    two_face_gf,
    two_face_total,
)


def test_two_darts():
    result = two_face_gf(2)
    assert result.gf == BivarPoly({(1, 1): 1})
    assert result.total == 1


def test_three_darts_total():
    assert two_face_gf(3).total == 6


def test_four_darts_total():
    assert two_face_gf(4).total == 34


def test_closed_total_formula():
    assert two_face_total(2) == 1
    assert two_face_total(3) == 6
    assert two_face_total(4) == 34
    # sum of (120 - b!(5-b)!)/b = 96 + 54 + 36 + 24
    assert two_face_total(5) == 210


def test_total_formula_far_beyond_the_ceiling():
    # no enumeration involved, so any r is fine; spot-check growth
    assert two_face_total(40) > 0
    assert two_face_total(40) % 1 == 0
    assert two_face_total(41) > 40 * two_face_total(40)


def test_gf_total_matches_formula():
    for r in range(2, 8):
        result = two_face_gf(r)
        assert result.total == two_face_total(r)
        assert result.gf.eval_at(1, 1) == result.total


def test_connected_oracle_two_darts():
    assert connected_two_face_oracle(2) == BivarPoly({(1, 1): 1})


def test_subtraction_route_matches_transitive_oracle():
    for r in range(2, 8):
        assert two_face_gf(r).gf == connected_two_face_oracle(r)


def test_gf_is_symmetric():
    for r in range(2, 8):
        gf = two_face_gf(r).gf
        assert gf == gf.swap_vars()


def test_euler_parity_with_two_faces():
    for r in range(2, 8):
        for (e, v), c in two_face_gf(r).gf.sorted_terms():
            assert c > 0
            assert e >= 1 and v >= 1
            assert e + v <= r
            assert (e + v - r) % 2 == 0


def test_parallel_matches_serial():
    # below 8! permutations per call these walk their shards serially
    assert two_face_gf(6, workers=3).gf == two_face_gf(6).gf
    # the shards of all three splits of r = 7 share one pool
    assert two_face_gf(7, workers=2).gf == two_face_gf(7).gf
    assert connected_two_face_oracle(7, workers=2) == connected_two_face_oracle(7)


def test_pooled_splits_match_serial(monkeypatch):
    monkeypatch.setattr(enumeration, "_POOL_MIN_PERMS", 0)  # every call with workers > 1 pools
    assert two_face_gf(6, workers=3).gf == two_face_gf(6).gf
    assert two_face_gf(7, workers=2).gf == two_face_gf(7).gf
    assert connected_two_face_oracle(7, workers=2) == connected_two_face_oracle(7)


def _ordered_split_reference(r):
    # every ordered split [r - b, b], each enumerated, divided by b
    gf = BivarPoly()
    for b in range(1, r):
        counts = cycle_pair_counts([r - b, b], connected_only=True)
        gf = gf + BivarPoly(counts).exact_div(b)
    return gf


def test_unordered_splits_match_ordered_split_reference():
    for r in range(2, 8):
        reference = _ordered_split_reference(r)
        assert two_face_gf(r).gf == reference
        assert connected_two_face_oracle(r) == reference


@pytest.mark.parametrize("offset, divisor", [(1, 2), (2, 3)])
def test_corrupted_split_is_caught(monkeypatch, offset, divisor):
    # adds offset to one coefficient of the histogram of split [3, 2]: +1 fails
    # the division by b = 2; +2 passes it and fails the one by a = 3
    real = two_face._shape_counts

    def corrupted(shapes, connected_only, workers, ceiling):
        histograms = real(shapes, connected_only, workers, ceiling)
        counts = histograms[shapes.index([3, 2])]
        counts[min(counts)] += offset
        return histograms

    monkeypatch.setattr(two_face, "_shape_counts", corrupted)
    for route in (lambda: two_face_gf(5).gf, lambda: connected_two_face_oracle(5)):
        with pytest.raises(NotDivisible) as info:
            route()
        assert info.value.divisor == divisor


def test_guards():
    with pytest.raises(ValueError):
        two_face_gf(1)
    with pytest.raises(ValueError):
        two_face_total(1)
    with pytest.raises(ValueError):
        connected_two_face_oracle(1)
    with pytest.raises(LimitExceeded):
        two_face_gf(9, ceiling=8)


def test_result_fields():
    result = two_face_gf(3)
    assert isinstance(result, TwoFaceResult)
    assert result.r == 3
    assert result.total == result.gf.eval_at(1, 1)
