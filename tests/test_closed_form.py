import math
from fractions import Fraction

import pytest

from hypermaps import closed_form, enumeration, recursion
from hypermaps.closed_form import (
    _next_row,
    _times_x_plus,
    avg_trace_power,
    avg_trace_power_alt,
    rising_ratio,
    stirling_row,
    stirling_rows,
)
from hypermaps.polynomial import BivarPoly, NotDivisible


def _value(coeffs, x):
    'the expanded polynomial with coefficients coeffs (lowest power first) at x'
    return sum(c * x ** i for i, c in enumerate(coeffs))


def test_rising_ratio_expansions():
    # x(x+1)(x+2) = x^3 + 3x^2 + 2x
    assert rising_ratio(0, 3) == (0, 2, 3, 1)
    # single factor x - 2
    assert rising_ratio(2, 1) == (-2, 1)


def test_rising_ratio_vanishing_factor():
    'the factor (x-1) of the k=1 product kills the value at x=1'
    assert _value(rising_ratio(1, 2), 1) == 0


def test_rising_ratio_is_monic_of_degree_r():
    for k in range(0, 4):
        for r in range(1, 7):
            coeffs = rising_ratio(k, r)
            assert len(coeffs) == r + 1
            assert coeffs[-1] == 1


def test_rising_ratio_matches_factorial_quotient_where_defined():
    # for x > k the product equals (x+r-k-1)! / (x-k-1)!
    for k in range(0, 3):
        for r in range(1, 6):
            for x in range(k + 1, k + 6):
                expected = math.factorial(x + r - k - 1) // math.factorial(x - k - 1)
                assert _value(rising_ratio(k, r), x) == expected


def test_times_x_plus_is_one_linear_factor():
    'the carry pass multiplies by (x + c): same values at every x, degree one higher'
    for coeffs in ([1], [0, 1], [3, -2, 5], [-7, 0, 0, 4, 1]):
        for c in (-3, 0, 2):
            out = _times_x_plus(coeffs, c)
            assert len(out) == len(coeffs) + 1
            assert out == [a + c * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
            for x in range(-4, 5):
                assert _value(out, x) == (x + c) * _value(coeffs, x), (coeffs, c, x)


def test_stepped_rows_equal_expanded_rows():
    'a_k stepped from a_0 by one exact division and one multiplication equals the expansion'
    for r in range(1, 41):
        row = rising_ratio(0, r)
        for k in range(1, r):
            row = _next_row(row, k)
            assert row == rising_ratio(k, r), (r, k)


@pytest.mark.parametrize("r", [88, 150])
def test_rising_ratio_matches_the_product_of_its_factors(r):
    'a degree-r polynomial is fixed by its values at r + 1 points'
    for k in (0, r // 2, r - 1, r + 3):
        coeffs = rising_ratio(k, r)
        assert len(coeffs) == r + 1
        for x in range(-r // 2, r // 2 + 1):
            assert _value(coeffs, x) == math.prod(x - k + j for j in range(r)), (k, x)


def test_corrupted_row_is_caught_by_the_step():
    'a row that is not the rising product leaves a remainder, which is raised, never dropped'
    row = list(rising_ratio(0, 12))
    row[0] += 1
    with pytest.raises(NotDivisible) as caught:
        _next_row(row, 1)
    assert caught.value.coeff == 1  # the row's value at the root x = -11 of its top factor
    assert caught.value.divisor == "x+11"
    assert str(caught.value) == "coefficient 1 of m^0*n^0 is not divisible by x+11"


def test_final_division_is_exact_or_raise_slot_by_slot(monkeypatch):
    'each summed slot is divided by r! once: a remainder raises, and a sum that cancelled is not stored'
    for r in range(1, 31):
        assert all(c for _, c in closed_form.one_face_poly(r).sorted_terms()), r
    monkeypatch.setattr(closed_form, "factorial", lambda r: math.factorial(r) + 1)
    with pytest.raises(NotDivisible) as caught:
        closed_form.one_face_poly(12)
    err = caught.value
    assert err.e <= err.v  # only the summed half is divided; the mirror copies its quotient
    assert err.divisor == math.factorial(12) + 1
    assert err.coeff % err.divisor


def test_base_cases():
    assert closed_form.one_face_poly(1) == BivarPoly({(1, 1): 1})
    assert closed_form.one_face_poly(2) == BivarPoly({(2, 1): 1, (1, 2): 1})


def test_totals():
    assert closed_form.one_face_poly(4).eval_at(1, 1) == 24
    for r in range(1, 14):
        assert closed_form.one_face_poly(r).eval_at(1, 1) == math.factorial(r)


def test_matches_enumeration():
    for r in range(1, 9):
        assert closed_form.one_face_poly(r) == enumeration.one_face_poly(r)


def test_symmetric_in_m_and_n():
    for r in range(1, 15):
        p = closed_form.one_face_poly(r)
        assert p == p.swap_vars()


def test_marginal_at_n_1_is_the_rising_factorial():
    for r in range(1, 10):
        marginal = closed_form.one_face_poly(r).substitute_n(1)
        coeffs = rising_ratio(0, r)
        assert marginal == {e: c for e, c in enumerate(coeffs) if c}


def test_equal_arguments_have_fixed_parity():
    'summed over every slot, the closed form is 0 off the lattice e + v = r + 1 (mod 2) and r! P_r on it'
    # one_face_poly sums only the lattice, so the full sum is rebuilt here from the expanded rows
    for r in [*range(1, 12), 21, 22, 45, 64]:
        poly = closed_form.one_face_poly(r)
        summands = [((-1) ** k * math.comb(r - 1, k), rising_ratio(k, r)) for k in range(r)]
        for e in range(r + 1):
            for v in range(e, r + 1):
                total = sum(w * row[e] * row[v] for w, row in summands)
                if (e + v - r - 1) % 2:
                    assert total == 0, (r, e, v)
                else:
                    assert total == math.factorial(r) * poly.coefficient(e, v), (r, e, v)
    # the reason: a_(r-1-k)(x) = (-1)^r a_k(-x), so the k and r-1-k summands cancel off the lattice
    for r in range(1, 31):
        for k in range(r):
            row, mirror = rising_ratio(k, r), rising_ratio(r - 1 - k, r)
            assert all(mirror[e] == (-1) ** (r + e) * row[e] for e in range(r + 1)), (r, k)


def test_stirling_rows():
    assert stirling_row(1) == [1]
    assert stirling_row(3) == [2, 3, 1]
    assert stirling_row(4) == [6, 11, 6, 1]


def test_stirling_row_structure():
    for r in range(1, 12):
        row = stirling_row(r)
        assert len(row) == r
        assert sum(row) == math.factorial(r)
        assert row[-1] == 1
        if r >= 2:
            assert row[-2] == r * (r - 1) // 2


def test_stepped_stirling_rows_equal_expanded_rows():
    'row r of the stepped range, row r-1 times (x + r - 1), is the row expanded for r alone'
    stepped = list(stirling_rows(150))
    assert [r for r, _ in stepped] == list(range(1, 151))
    for r, row in stepped:
        assert row == stirling_row(r) == list(rising_ratio(0, r)[1:]), r


def test_stirling_rows_match_cycle_histograms():
    'c(r, k) counts the permutations of r elements with k cycles'
    for r in range(1, 8):
        histogram = [0] * r
        for (cs, _), count in enumeration.cycle_pair_counts([r]).items():
            histogram[cs - 1] += count
        assert histogram == stirling_row(r)


def test_avg_trace_power_values():
    assert avg_trace_power(2, 2, 2) == Fraction(4, 5)
    assert avg_trace_power(3, 2, 2) == Fraction(5, 7)
    assert avg_trace_power(1, 1, 7) == 1
    assert avg_trace_power(5, 3, 1) == 1


def test_avg_trace_power_alt_values():
    assert avg_trace_power_alt(1, 1, 5) == 1
    assert avg_trace_power_alt(2, 2, 2) == Fraction(4, 5)
    assert avg_trace_power_alt(3, 2, 2) == Fraction(5, 7)


def test_trace_power_routes_agree():
    for m in range(1, 6):
        for n in range(1, 6):
            for r in range(1, 8):
                assert avg_trace_power(m, n, r) == avg_trace_power_alt(m, n, r)


def test_trace_powers_decrease_toward_purity_limit():
    'higher powers of a mixed state trace to smaller values'
    values = [avg_trace_power(3, 3, r) for r in range(1, 8)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(0 < v <= 1 for v in values)


def test_argument_validation():
    with pytest.raises(ValueError):
        closed_form.one_face_poly(0)
    with pytest.raises(ValueError):
        rising_ratio(-1, 3)
    with pytest.raises(ValueError):
        rising_ratio(0, 0)
    with pytest.raises(ValueError):
        avg_trace_power(0, 1, 1)


def test_matches_recursion_to_twenty():
    # every r to 20, then large r of both parities, where most terms come from the mirror step
    recs = dict(recursion.stream(88))
    for r in [*range(1, 21), 45, 64, 88]:
        assert closed_form.one_face_poly(r) == recs[r]
