import gc
import tracemalloc
from math import comb, factorial, prod

import pytest

from hypermaps import closed_form, enumeration
from hypermaps.polynomial import M, N, BivarPoly, NotDivisible
from hypermaps.recursion import (
    _advance,
    _to_poly,
    certificate_bracket,
    stream,
    telescoping_check,
    verify_certificate,
)

P1 = BivarPoly({(1, 1): 1})
P3 = BivarPoly({(3, 1): 1, (2, 2): 3, (1, 3): 1, (1, 1): 1})


def test_step_produces_three_darts():
    assert dict(stream(3))[3] == P3


def test_two_steps_produce_four_darts():
    assert dict(stream(4))[4].eval_at(1, 1) == 24


def test_recursion_matches_closed_form_to_twenty():
    for r, poly in stream(20):
        assert poly == closed_form.one_face_poly(r)
    # spot checks well past twenty, where coefficients span hundreds of bits, up to
    # r = 88, the largest closed form the benchmark's series workload builds
    streamed = dict(stream(88))
    for r in (41, 64, 80, 88):
        assert streamed[r] == closed_form.one_face_poly(r), r


def test_recursion_matches_enumeration():
    for r, poly in stream(8):
        assert poly == enumeration.one_face_poly(r)


@pytest.fixture(scope="module")
def streamed_200():
    return dict(stream(200))


def test_genus_zero_row_is_narayana(streamed_200):
    'planar maps: the coefficient of m^e*n^(r+1-e) is the Narayana number C(r,e)C(r,e-1)/r'
    for r, poly in streamed_200.items():
        for e in range(1, r + 1):
            assert poly.coefficient(e, r + 1 - e) == comb(r, e) * comb(r, e - 1) // r, (r, e)


def test_one_edge_one_vertex_count(streamed_200):
    'for odd r the coefficient of m*n is 2(r-1)!/(r+1), the one-vertex one-face maps'
    for r, poly in streamed_200.items():
        expected = 2 * factorial(r - 1) // (r + 1) if r % 2 else 0
        assert poly.coefficient(1, 1) == expected, r


@pytest.mark.parametrize("r", [100, 150, 200])
def test_large_r_matches_truncated_sum(streamed_200, r):
    'P_r(m, n) = avg_trace_power_alt(m, n, r) * mn(mn+1)...(mn+r-1), a route with no polynomial'
    for m, n in ((2, 3), (7, 5), (r + 1, r + 2)):
        rising = prod(range(m * n, m * n + r))
        assert streamed_200[r].eval_at(m, n) == closed_form.avg_trace_power_alt(m, n, r) * rising, (m, n)


def test_stream_covers_range():
    pairs = list(stream(6))
    assert [r for r, _ in pairs] == [1, 2, 3, 4, 5, 6]
    assert pairs[0][1] == P1


def test_stream_items_unchanged():
    'the last item of a stream is the same P_r as every other route gives'
    assert list(stream(1)) == [(1, P1)]
    assert list(stream(2)) == [(1, P1), (2, M * M * N + M * N * N)]
    assert list(stream(40)) == [(r, closed_form.one_face_poly(r)) for r in range(1, 41)]


def test_finished_stream_holds_nothing():
    'a stream that has yielded its last item keeps no rows, key cache or polynomial alive'
    gc.collect()
    tracemalloc.start()
    try:
        kept = []
        for _ in range(3):
            gen = stream(100)
            for _ in range(100):
                next(gen)  # the item is dropped; the generator is kept, unexhausted
            kept.append(gen)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 100_000, held  # bytes; with their last rows, cache and P_100 three hold 1.7 MB
    assert all(next(gen, None) is None for gen in kept)


def test_step_division_always_exact():
    # every division by r+3 up to 32 darts is exact, or stream raises NotDivisible
    assert [r for r, _ in stream(32)][-1] == 32


def test_invalid_state_rejected():
    with pytest.raises(ValueError):
        list(stream(0))


def test_corrupted_state_is_caught():
    # rows that no generating polynomials can produce trip the exact-division
    # safety net within a few steps: P_1 = m*n with a corrupted P_2 = m^2*n
    prev, curr = [[1]], [[0, 1]]
    with pytest.raises(NotDivisible) as caught:
        for s in range(3, 8):
            prev, curr = curr, _advance(s, curr, prev)
    # the step to s darts failed, so curr and prev still hold P_{s-1} and
    # P_{s-2}; the error names the divisor r+3 and a term whose undivided
    # coefficient matches the generic products
    err, r = caught.value, s - 2
    assert err.divisor == r + 3
    rhs = (2 * r + 3) * (M + N) * _to_poly(curr, s - 1, {}) + r * (
        BivarPoly({(0, 0): (r + 1) ** 2}) - (M - N) ** 2
    ) * _to_poly(prev, s - 2, {})
    assert rhs.coefficient(err.e, err.v) == err.coeff
    assert err.coeff % err.divisor


def test_asymmetric_state_is_rejected():
    # P_2 corrupted to 5*m^2*n + m*n^2: the computed half of the step to s = 3
    # divides exactly, so only the symmetry check can catch it
    with pytest.raises(ValueError, match=r"genus row 0 of P_2 .* s=3"):
        _advance(3, [[5, 1]], [[1]])


def test_certificate_bracket_spot_values():
    # three hand-expanded sample points pin the one long transcription
    assert certificate_bracket(1, 0).eval_at(1, 1) == 12
    assert certificate_bracket(2, 1).eval_at(3, 4) == -38
    assert certificate_bracket(3, 2).eval_at(2, 5) == -18


def test_certificate_bracket_shape():
    b = certificate_bracket(2, 1)
    assert b.coefficient(1, 1) == -(2 + 3)
    assert b.coefficient(1, 0) == b.coefficient(0, 1) == 1 - 2 - 1


def test_certificate_smallest_case():
    assert verify_certificate(1, 0)


def test_certificate_outside_support_is_trivially_true():
    'beyond k = r+1 both sides of the identity are identically zero'
    from hypermaps.recursion import _f_cleared, _g_cleared

    assert verify_certificate(3, 5)
    assert _f_cleared(5, 5) == BivarPoly()
    assert _f_cleared(3, -1) == BivarPoly()
    assert _g_cleared(3, 6) == BivarPoly()
    assert _g_cleared(3, 0) == BivarPoly()


def test_certificate_exhaustive_small_range():
    for r in range(1, 9):
        for k in range(-1, r + 3):
            assert verify_certificate(r, k), (r, k)


def test_telescoping():
    for r in (1, 2, 6):
        assert telescoping_check(r)


def test_telescoping_fails_against_a_wrong_closed_form(monkeypatch):
    # the summed certificate must meet the closed-form polynomials, so a
    # wrong P_s is caught even though every certificate identity still holds
    real = closed_form.one_face_poly
    monkeypatch.setattr(closed_form, "one_face_poly", lambda s: real(s) + M * N)
    for r in (1, 2, 6):
        assert verify_certificate(r, 1)
        assert not telescoping_check(r)


def test_validation():
    with pytest.raises(ValueError):
        verify_certificate(0, 0)
    with pytest.raises(ValueError):
        telescoping_check(0)
    with pytest.raises(ValueError):
        list(stream(0))
