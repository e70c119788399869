import gc
import tracemalloc
from math import comb, factorial, prod

import pytest

from hypermaps import closed_form, enumeration
from hypermaps.polynomial import M, N, BivarPoly, NotDivisible, _wrap
from hypermaps.recursion import (
    _advance,
    _RowView,
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


def _exact_div(a, b):
    q, rem = divmod(a, b)
    if rem:
        raise NotDivisible(0, 0, a, b)
    return q


def _pointwise_closed_form(r, m, n):
    'P_r(m, n) = sum_k (-1)^k C(r-1, k) a_k(m) a_k(n) / r!, with a_k(x) = (x-k)(x-k+1)...(x-k+r-1)'
    am, an = prod(range(m, m + r)), prod(range(n, n + r))
    total = 0
    for k in range(r):
        if k:
            # a_k(x) = a_{k-1}(x) (x-k) / (x-k+r), and x-k+r >= 2 for x >= 1
            am = _exact_div(am * (m - k), m - k + r)
            an = _exact_div(an * (n - k), n - k + r)
        total += (-1) ** k * comb(r - 1, k) * am * an
    return _exact_div(total, factorial(r))


def test_stream_matches_the_pointwise_closed_form():
    'point values of P_r up to r = 300 against the closed form evaluated at integers, with no polynomial'
    for r, poly in stream(300):
        if r in (250, 299, 300):
            for m, n in ((1, 1), (2, 3), (8, 8), (7, 5), (r + 1, r + 2), (10007, 9973)):
                assert poly.eval_at(m, n) == _pointwise_closed_form(r, m, n), (r, m, n)


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
    'a stream that has yielded its last item keeps no rows or polynomial alive'
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
    assert held < 100_000, held  # bytes; with the rows of P_99 and P_100, which P_100 reads, three hold 0.67 MB
    assert all(next(gen, None) is None for gen in kept)


def test_streamed_polynomials_read_their_rows_in_place():
    'P_1..P_150 read their terms from the step\'s rows, whose mirrored slots share ints; term dicts held 22.8 MB'
    gc.collect()
    tracemalloc.start()
    try:
        held = list(stream(150))
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(held) == 150
    assert size <= 16_000_000, size  # bytes; 13.9 MB as row views


def _slot_dict(rows, s):
    'the term dict of the polynomial held by rows, built slot by slot, in the order sorted_terms gives'
    return dict(sorted(((j + 1, s - 2 * g - j), c) for g, row in enumerate(rows) for j, c in enumerate(row) if c)[::-1])


def _absent_keys(s):
    'a key of each kind a term dict of P_s lacks, apart from zero slots'
    return [
        (0, s + 1), (-1, s + 2), (s + 1, 0), (s + 2, -1), (0, 0),  # e or v < 1
        (2, s), (1, s + 1), (s + 1, 1),  # e + v of the wrong parity
        (s, 3), (1, s + 2), (s + 1, s + 1),  # degree above s + 1: genus below 0
        "mn", None, 7, (1,), (1, s, 0), ("1", s), (1.5, s - 0.5), ([1], s),  # not a pair of ints
    ]


def _assert_mapping_contract(view, ref, s):
    'view holds exactly the items of the term dict ref, with dict lookup semantics'
    assert dict(view.items()) == ref and list(view) == list(ref) and len(view) == len(ref)
    for key, c in ref.items():
        assert view[key] == view.get(key) == c and key in view
    for key in _absent_keys(s):
        assert view.get(key) is None and view.get(key, 0) == 0 and key not in view, key
        with pytest.raises(KeyError):
            view[key]
        if isinstance(key, tuple) and len(key) == 2 and all(isinstance(x, int) for x in key):
            assert key not in ref and _wrap(view).coefficient(*key) == 0, key


@pytest.fixture(scope="module")
def row_views():
    'P_s for s <= 60 and s = 150 as stream yields it, with its term dict built from its rows'
    out = {}
    for s, poly in stream(150):
        if s <= 60 or s == 150:
            assert type(poly._terms) is _RowView
            out[s] = poly, _slot_dict(poly._terms._rows, s)
    return out


def test_row_view_is_the_term_dict(row_views):
    for s, (poly, ref) in row_views.items():
        _assert_mapping_contract(poly._terms, ref, s)
        assert ref == closed_form.one_face_poly(s)._terms, s


def test_row_view_equality(row_views):
    'a view equals a dict or a view exactly when their terms are equal, in both directions'
    again = dict(stream(150))
    for s, (poly, _) in row_views.items():
        closed, other = closed_form.one_face_poly(s), closed_form.one_face_poly(s + 1)
        assert poly == closed and closed == poly and not poly != closed and not closed != poly
        assert poly != other and other != poly and not poly == other and not other == poly
        assert poly._terms == closed._terms and closed._terms == poly._terms
        assert poly == again[s] and again[s] == poly and not poly != again[s]
        if s < 150:
            assert poly != again[s + 1] and again[s + 1] != poly
    # views of different rows are equal when they hold the same terms
    assert _RowView([[0, 0, 0], [1]], 3) == _RowView([[1]], 1) == {(1, 1): 1}
    assert _RowView([[0, 0, 0], [1]], 3) != _RowView([[0, 1, 0], [1]], 3)


def test_row_view_arithmetic_matches_a_dict_copy(row_views):
    prev = None
    for s, (poly, ref) in row_views.items():
        copy = BivarPoly(ref)
        assert type(copy._terms) is dict
        assert poly.sorted_terms() == copy.sorted_terms() and poly.render() == copy.render(), s
        assert repr(poly) == repr(copy)
        for res, want in (
            (poly + poly, copy + copy),
            (poly - copy, BivarPoly()),
            (poly * (M + N), copy * (M + N)),
            ((M - N) ** 2 * poly, (M - N) ** 2 * copy),
            (poly * -3, copy * -3),
            (poly.exact_div(1), copy),
            (poly.swap_vars(), copy.swap_vars()),
            (poly.swap_vars(), copy),
        ):
            assert type(res._terms) is dict and res._terms == want._terms, s
        with pytest.raises(NotDivisible) as got:
            poly.exact_div(2)  # the coefficient of m*n^s is 1
        with pytest.raises(NotDivisible) as want:
            copy.exact_div(2)
        assert (got.value.e, got.value.v, got.value.coeff) == (want.value.e, want.value.v, want.value.coeff)
        for m, n in ((1, 1), (2, 3), (-5, 7), (s, s + 1)):
            assert poly.eval_at(m, n) == copy.eval_at(m, n), (s, m, n)
        for n in (1, -2, 9):
            assert poly.substitute_n(n) == copy.substitute_n(n), (s, n)
        if prev is not None:
            prev_poly, prev_copy = prev
            assert (poly + prev_poly)._terms == (copy + prev_copy)._terms == (prev_poly + poly)._terms
            if s <= 20:
                assert (poly * prev_poly)._terms == (copy * prev_copy)._terms
        prev = poly, copy


def test_row_view_hides_a_zero_slot():
    'a zero planted in a row is absent from items, iteration, len and lookups, as in a term dict'
    poly = dict(stream(7))[7]
    rows = [list(row) for row in poly._terms._rows]
    rows[1][2] = 0  # the slot of m^3*n^3, genus 1
    view, ref = _RowView(rows, 7), _slot_dict(poly._terms._rows, 7)
    del ref[(3, 3)]
    _assert_mapping_contract(view, ref, 7)
    assert (3, 3) not in view and view.get((3, 3)) is None and len(view) == len(poly) - 1
    assert _wrap(view) == BivarPoly(ref) and BivarPoly(ref) == _wrap(view) and _wrap(view) != poly
    assert _wrap(view).coefficient(3, 3) == 0 and (3, 3) not in dict(view.items())
    # rows cut short of their last genus hold no term of it
    short = _RowView(poly._terms._rows[:-1], 7)
    assert (1, 1) not in short and short.get((1, 1)) is None and len(short) == len(poly) - 1


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
    rhs = (2 * r + 3) * (M + N) * _wrap(_RowView(curr, s - 1)) + r * (
        BivarPoly({(0, 0): (r + 1) ** 2}) - (M - N) ** 2
    ) * _wrap(_RowView(prev, s - 2))
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
