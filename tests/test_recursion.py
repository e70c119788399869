import pytest

from hypermaps import closed_form, enumeration, recursion
from hypermaps.polynomial import M, N, BivarPoly, NotDivisible
from hypermaps.recursion import (
    RecurrenceState,
    certificate_bracket,
    initial_state,
    step,
    stream,
    telescoping_check,
    verify_certificate,
)

P1 = BivarPoly({(1, 1): 1})
P2 = BivarPoly({(2, 1): 1, (1, 2): 1})
P3 = BivarPoly({(3, 1): 1, (2, 2): 3, (1, 3): 1, (1, 1): 1})


def test_initial_state():
    state = initial_state()
    assert state.p_prev == P1
    assert state.p_curr == P2
    assert state.r_current == 2


def test_step_produces_three_darts():
    assert step(initial_state()).p_curr == P3


def test_two_steps_produce_four_darts():
    state = step(step(initial_state()))
    assert state.r_current == 4
    assert state.p_curr.eval_at(1, 1) == 24


def test_recursion_matches_closed_form_to_twenty():
    for r, poly in stream(20):
        assert poly == closed_form.one_face_poly(r)
    # spot checks well past twenty, where coefficients span hundreds of bits
    streamed = dict(stream(80))
    for r in (41, 64, 80):
        assert streamed[r] == closed_form.one_face_poly(r), r


def test_recursion_matches_enumeration():
    for r, poly in stream(8):
        assert poly == enumeration.one_face_poly(r)


def test_stream_covers_range():
    pairs = list(stream(6))
    assert [r for r, _ in pairs] == [1, 2, 3, 4, 5, 6]
    assert pairs[0][1] == P1


def test_one_face_poly_entry_points():
    assert recursion.one_face_poly(1) == P1
    assert recursion.one_face_poly(2) == P2
    assert recursion.one_face_poly(3) == P3


def test_step_division_always_exact():
    state = initial_state()
    for _ in range(30):
        state = step(state)  # raises NotDivisible if the recurrence breaks
    assert state.r_current == 32


def test_invalid_state_rejected():
    bad = RecurrenceState(1, P1, P1)
    with pytest.raises(ValueError):
        step(bad)
    with pytest.raises(ValueError):
        recursion.one_face_poly(0)


def test_corrupted_state_is_caught():
    # a state pair that no generating polynomials can produce trips the
    # exact-division safety net within a few steps
    bad = RecurrenceState(2, BivarPoly({(1, 1): 1}), BivarPoly({(2, 1): 1}))
    with pytest.raises(NotDivisible) as caught:
        s = bad
        for _ in range(5):
            s = step(s)
    # s is the state whose step failed; the error names the divisor r+3 and
    # a term whose undivided coefficient matches the generic products
    err, r = caught.value, s.r_current - 1
    assert err.divisor == r + 3
    rhs = (2 * r + 3) * (M + N) * s.p_curr + r * (
        BivarPoly.constant((r + 1) ** 2) - (M - N) ** 2
    ) * s.p_prev
    assert rhs.coefficient(err.e, err.v) == err.coeff
    assert err.coeff % err.divisor


def test_step_rejects_term_outside_genus_layout():
    # m^2*n^2 has e + v = 4, which no polynomial in one dart has; the step
    # must refuse it instead of dropping it
    with pytest.raises(ValueError):
        step(RecurrenceState(2, BivarPoly({(2, 2): 1}), P2))
    with pytest.raises(ValueError):
        step(RecurrenceState(2, P1, BivarPoly({(2, 0): 1})))


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
    assert _f_cleared(5, 5) == BivarPoly.zero()
    assert _f_cleared(3, -1) == BivarPoly.zero()
    assert _g_cleared(3, 6) == BivarPoly.zero()
    assert _g_cleared(3, 0) == BivarPoly.zero()


def test_certificate_exhaustive_small_range():
    for r in range(1, 9):
        for k in range(-1, r + 3):
            assert verify_certificate(r, k), (r, k)


def test_telescoping():
    for r in (1, 2, 6):
        assert telescoping_check(r)


def test_state_is_frozen():
    state = initial_state()
    with pytest.raises(AttributeError):
        state.r_current = 5


def test_validation():
    with pytest.raises(ValueError):
        verify_certificate(0, 0)
    with pytest.raises(ValueError):
        telescoping_check(0)
    with pytest.raises(ValueError):
        list(stream(0))
