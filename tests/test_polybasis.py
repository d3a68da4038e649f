from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hermiteforge import Poly
from hermiteforge.polybasis import antidifference
from reference_kernels import (
    antidifference_reference,
    classical_vector,
    falling_power,
    from_newton_coeffs,
    newton_basis,
    newton_vector,
    padded_rows,
    to_newton_coeffs,
)
from strategies import rationals

rational_values = rationals(-10, 10, 10)
polys = st.lists(rational_values, min_size=0, max_size=7).map(lambda cs: Poly(tuple(cs)))


def test_newton_basis_difference_ladder():
    # forward difference steps the normalized falling factorial down one rung
    for j in range(1, 8):
        assert newton_basis(j).forward_difference() == newton_basis(j - 1)
    assert newton_basis(0) == Poly((F(1),))


def test_falling_power_is_unnormalized():
    for j in range(6):
        fac = 1
        for i in range(1, j + 1):
            fac *= i
        assert falling_power(j) == newton_basis(j) * F(fac)


def test_newton_basis_roots():
    p = newton_basis(4)
    for x in range(4):
        assert p.evaluate(x) == 0
    assert p.evaluate(4) == 1  # binomial(4, 4)


def test_newton_basis_binomial_values():
    # [m]_j = C(m, j) on integers
    from math import comb

    for j in range(6):
        p = newton_basis(j)
        for m in range(10):
            assert p.evaluate(m) == comb(m, j)


@given(polys)
@settings(max_examples=60, deadline=None)
def test_newton_coeff_roundtrip(p):
    assert from_newton_coeffs(to_newton_coeffs(p)) == p


@given(polys, rational_values)
@example(Poly(), F(0))
@example(Poly(), F(-3, 2))
@example(Poly((F(5, 3),)), F(0))
@example(Poly((F(5, 3),)), F(7))
@settings(max_examples=60, deadline=None)
def test_antidifference_inverts_difference(p, c):
    q = antidifference(p, c)
    assert q.forward_difference() == p
    assert q.evaluate(0) == c
    # The top-down solve gives what the lift through the Newton basis gives.
    assert q == antidifference_reference(p, c)


def test_vd_shapes():
    for d in range(5):
        v = newton_vector(d)
        w = classical_vector(d)
        for j in range(d + 1):
            assert v.components[j].degree == j
            assert v.components[j].leading == F(1, _fact(j))
            assert w.components[j].degree == j
        assert v.components[0] == Poly((F(1),))
        assert w.components[0] == Poly((F(1),))


def _fact(j):
    out = 1
    for i in range(1, j + 1):
        out *= i
    return out


def test_classical_vector_is_monomial():
    v = classical_vector(3)
    assert v.components[2] == Poly((F(0), F(0), F(1, 2)))
    assert v.components[3] == Poly((F(0), F(0), F(0), F(1, 6)))


def test_padded_rows_descending():
    rows = padded_rows(newton_vector(1), 3)
    assert len(rows) == 4
    assert rows[0] == Poly((F(0), F(1)))
    assert rows[1] == Poly((F(1),))
    assert rows[2] == Poly()
    assert rows[3] == Poly()
