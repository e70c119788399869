import pytest

from hypermaps.polynomial import M, N, BivarPoly, NotDivisible

from hypothesis import given, strategies as st


MN = BivarPoly({(1, 1): 1})
ONE = BivarPoly({(0, 0): 1})
ZERO = BivarPoly()


def test_add_additive_inverse_gives_zero():
    assert MN + BivarPoly({(1, 1): -1}) == ZERO
    assert not (MN - MN)


def test_add_disjoint_supports():
    assert MN + BivarPoly({(2, 2): 1}) == BivarPoly({(1, 1): 1, (2, 2): 1})


def test_add_doubling_base_case():
    assert MN + MN == BivarPoly({(1, 1): 2})


def test_mul_expands_two_dart_polynomial():
    # mn * (m + n) is the two-dart generating polynomial
    assert MN * (M + N) == BivarPoly({(2, 1): 1, (1, 2): 1})


def test_mul_identity():
    p = BivarPoly({(3, 1): 4, (0, 2): -7})
    assert p * ONE == p


def test_mul_difference_of_squares():
    assert (M - N) * (M + N) == BivarPoly({(2, 0): 1, (0, 2): -1})


def test_exact_div():
    p = BivarPoly({(2, 2): 4, (1, 1): 2})
    assert p.exact_div(2) == BivarPoly({(2, 2): 2, (1, 1): 1})
    assert BivarPoly({(1, 1): 6}).exact_div(6) == MN


def test_exact_div_three_dart_sum():
    # the unnormalized three-dart closed-form sum, divided by 3!
    unnormalized = BivarPoly({(3, 1): 6, (2, 2): 18, (1, 3): 6, (1, 1): 6})
    p3 = BivarPoly({(3, 1): 1, (2, 2): 3, (1, 3): 1, (1, 1): 1})
    assert unnormalized.exact_div(6) == p3


def test_exact_div_signals_remainder():
    with pytest.raises(NotDivisible) as err:
        BivarPoly({(2, 1): 3}).exact_div(2)
    assert err.value.coeff == 3
    assert err.value.divisor == 2


def test_exact_div_rejects_nonpositive_divisor():
    with pytest.raises(ValueError):
        MN.exact_div(0)


def test_eval():
    assert (MN * (M + N)).eval_at(1, 1) == 2
    p3 = BivarPoly({(3, 1): 1, (2, 2): 3, (1, 3): 1, (1, 1): 1})
    assert p3.eval_at(1, 1) == 6
    assert ZERO.eval_at(5, 7) == 0


def test_substitute_n():
    p3 = BivarPoly({(3, 1): 1, (2, 2): 3, (1, 3): 1, (1, 1): 1})
    assert p3.substitute_n(1) == {3: 1, 2: 3, 1: 2}


def test_swap_vars():
    p = BivarPoly({(3, 1): 2, (1, 1): 5})
    assert p.swap_vars() == BivarPoly({(1, 3): 2, (1, 1): 5})


def test_render_canonical():
    p3 = BivarPoly({(1, 1): 1, (2, 2): 3, (1, 3): 1, (3, 1): 1})
    assert p3.render() == "m^3*n + 3*m^2*n^2 + m*n^3 + m*n"
    assert ZERO.render() == "0"
    assert BivarPoly({(0, 0): -4}).render() == "-4"
    assert (M * M - N * N).render() == "m^2 - n^2"
    assert BivarPoly({(0, 2): -1, (1, 0): 1}).render() == "m - n^2"


def test_constructor_prunes_and_validates():
    assert BivarPoly({(1, 1): 0}) == ZERO
    with pytest.raises(ValueError):
        BivarPoly({(-1, 0): 1})
    with pytest.raises(TypeError):
        BivarPoly({(1, 0): 1.5})
    # only a mapping is accepted, so no exponent pair can occur twice
    assert BivarPoly() == BivarPoly({}) == ZERO
    with pytest.raises(TypeError):
        BivarPoly([((1, 1), 1), ((1, 1), -1)])


def test_immutability():
    p = BivarPoly({(1, 1): 1})
    with pytest.raises(AttributeError):
        p._terms = {}
    assert p == MN


# property tests: the ring axioms hold on sampled polynomials ----------------

polys = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    st.integers(-9, 9),
    max_size=6,
).map(BivarPoly)

points = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@given(polys, polys, polys)
def test_ring_axioms(p, q, s):
    assert p + q == q + p
    assert (p + q) + s == p + (q + s)
    assert p * q == q * p
    assert (p * q) * s == p * (q * s)
    assert p * (q + s) == p * q + p * s


@given(polys, st.integers(1, 40))
def test_scalar_mul_then_exact_div_roundtrips(p, d):
    assert (p * d).exact_div(d) == p


@given(polys, polys, points)
def test_eval_is_ring_homomorphism(p, q, point):
    m0, n0 = point
    assert (p * q).eval_at(m0, n0) == p.eval_at(m0, n0) * q.eval_at(m0, n0)
    assert (p + q).eval_at(m0, n0) == p.eval_at(m0, n0) + q.eval_at(m0, n0)
