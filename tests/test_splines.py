"""Cardinal B-spline schemes: masks, eigen-structure, cascade accuracy."""

from fractions import Fraction as F
from math import comb, factorial, inf, nan

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldens import SPLINE_R4_D3_ROW, SPLINE_R4_D3_SCALE
from reference_kernels import (
    bspline_derivative,
    bspline_value,
    bspline_value_reference,
    scaled_bspline_derivative,
    scalar_eigen_check,
    spline_cascade_reference,
)
from strategies import rationals
from hermiteforge import (
    BadOrder,
    LaurentPoly,
    allones_operator,
    cascade,
    check_spline_cascade,
    spline_mask,
    spline_verify,
)
from hermiteforge.splines import (
    ell_polynomial,
    scalar_spline_symbol,
    spline_chain,
    spline_eigenpoly,
)


def sym_coeffs(p):
    return [p.coeff(e) for e in range(p.lo, p.hi + 1)]


def test_scalar_symbol_is_binomial():
    for r in range(1, 7):
        p = scalar_spline_symbol(r)
        assert p.lo == 0 and p.hi == r + 1
        assert sym_coeffs(p) == [F(comb(r + 1, j), 2**r) for j in range(r + 2)]


def test_bspline_partition_of_unity():
    for r in range(1, 6):
        for num in range(0, 8):
            x = F(num, 7)
            total = sum(bspline_value(r, x + k) for k in range(-1, r + 2))
            assert total == 1


def test_bspline_symmetry_and_support():
    for r in range(1, 6):
        assert bspline_value(r, 0) == 0
        assert bspline_value(r, r + 1) == 0
        for num in range(1, 2 * (r + 1)):
            x = F(num, 2)
            assert bspline_value(r, x) == bspline_value(r, r + 1 - x)
            assert bspline_value(r, x) > 0


def test_bspline_derivative_recurrence():
    for r in range(2, 6):
        for num in range(1, 14):
            x = F(num, 3)
            want = bspline_value(r - 1, x) - bspline_value(r - 1, x - 1)
            assert bspline_derivative(r, 1, x) == want


def test_refinement_equation():
    for r in range(1, 5):
        p = scalar_spline_symbol(r)
        for num in range(0, 3 * (r + 2)):
            x = F(num, 3)
            rhs = sum(c * bspline_value(r, 2 * x - e) for e, c in p.items())
            assert bspline_value(r, x) == rhs


def test_eigen_relations_up_to_order():
    for r in range(1, 7):
        p = scalar_spline_symbol(r)
        coeffs = sym_coeffs(p)
        for i in range(r + 1):
            hit = scalar_eigen_check(coeffs, p.lo, spline_eigenpoly(r, i), F(1, 2**i))
            assert hit is None, f"r={r} i={i}: {hit}"


def test_eigen_relation_fails_past_order():
    # degree r+1 is no longer reproduced at eigenvalue 2^-(r+1)
    r = 2
    p = scalar_spline_symbol(r)
    hit = scalar_eigen_check(sym_coeffs(p), p.lo, spline_eigenpoly(r + 1, r + 1), F(1, 2 ** (r + 1)))
    assert hit is not None


def test_ell_polynomial_shifts():
    # (x+1)...(x+r)/r! vanishes at -1..-r and is 1 at 0
    for r in range(1, 6):
        p = ell_polynomial(r)
        assert p.evaluate(0) == 1
        for m in range(1, r + 1):
            assert p.evaluate(-m) == 0
        assert p.degree == r


def test_eigenpoly_heads():
    for r in range(1, 5):
        for i in range(r + 1):
            q = spline_eigenpoly(r, i)
            assert q.degree == i
            assert q.leading == F(1, _fact(i))


def _fact(j):
    out = 1
    for i in range(1, j + 1):
        out *= i
    return out


def test_spline_chain_validates():
    # The Chain constructor refuses a tower that is not compatible.
    for r in range(1, 5):
        for d in range(r + 1):
            assert spline_chain(r, d).operator() == allones_operator(d)


def test_mask_small_case_frozen():
    m = spline_mask(1, 1)
    assert m.support == (0, 3)
    assert dict(m.entry_symbol(0, 0).items()) == {0: F(1, 2), 1: F(1), 2: F(1, 2)}
    assert m.entry_symbol(0, 1).is_zero
    assert dict(m.entry_symbol(1, 0).items()) == {0: F(1, 2), 1: F(1, 2), 2: F(-1, 2), 3: F(-1, 2)}
    assert m.entry_symbol(1, 1).is_zero


def test_order_bounds_enforced():
    with pytest.raises(BadOrder):
        spline_mask(2, 3)
    with pytest.raises(BadOrder):
        spline_mask(0, 0)
    with pytest.raises(BadOrder, match="^eigenpolynomial index .* got 3$"):
        spline_eigenpoly(2, 3)


def test_spline_presets_are_shared_per_order():
    # One mask and one validated chain per (r, d) and process.
    for r, d in ((1, 0), (2, 1), (4, 3)):
        assert spline_mask(r, d) is spline_mask(r, d)
        assert spline_chain(r, d) is spline_chain(r, d)


@pytest.mark.parametrize(
    "make, args",
    [
        (spline_mask, (True, 0)),
        (spline_mask, (1, False)),
        (spline_chain, (True, 0)),
        (spline_mask, (2.0, 1)),
        (spline_chain, (2, 1.0)),
        (check_spline_cascade, (True, 0, 2)),
        (scalar_spline_symbol, (True,)),
        (scalar_spline_symbol, (2.0,)),
        (ell_polynomial, (True,)),
        (spline_eigenpoly, (True, 0)),
        (spline_eigenpoly, (2.0, 1)),
        (spline_eigenpoly, (2, True)),
    ],
    ids=lambda v: getattr(v, "__name__", None) or repr(v),
)
def test_spline_orders_are_ints(make, args):
    # The r = 1 entries are shared before True is tried, which must not
    # find them, and 2.0 is not read as 2.
    spline_mask(1, 0), spline_chain(1, 0)
    with pytest.raises(TypeError, match="^[rdi] must be an int, got "):
        make(*args)


def test_factor_rows_r4_d3_frozen():
    report, fac = spline_verify(4, 3)
    assert report.chain_ok and report.operator_allones
    assert report.spectral_ok and not report.classical_spectral_holds
    assert fac.scale == SPLINE_R4_D3_SCALE
    for i in range(4):
        for k in range(4):
            assert dict(fac.factor.entry_symbol(i, k).items()) == SPLINE_R4_D3_ROW[k]


def test_factor_rows_follow_difference_pattern():
    # entry k of every row is (1-z)^(d-k) (1+z)^(r-k) z^gamma / 2 with
    # r = 4, d = 3, and a monomial shift that differs only for k = 0
    one_minus = LaurentPoly({0: F(1), 1: F(-1)})
    one_plus = LaurentPoly({0: F(1), 1: F(1)})
    _, fac = spline_verify(4, 3)
    for k in range(4):
        gamma = 1 if k == 0 else 3
        want = (
            one_minus ** (3 - k)
            * one_plus ** (4 - k)
            * LaurentPoly({gamma: F(1, 2)})
        )
        assert fac.factor.entry_symbol(0, k) == want


def test_cascade_exact_for_piecewise_linear():
    rep = check_spline_cascade(1, 1, levels=6, tol=1e-12)
    assert rep.ok
    assert rep.errors == (0.0, 0.0)


def test_cascade_refuses_a_tol_that_is_not_a_nonnegative_finite_number():
    for tol in (nan, -1e-6, inf, -inf):
        with pytest.raises(ValueError, match="^tol must be a nonnegative finite number, got "):
            check_spline_cascade(1, 1, levels=2, tol=tol)
    assert check_spline_cascade(1, 1, levels=2, tol=0.0).ok
    with pytest.raises(TypeError, match="^tol must be a number, not a bool, got True$"):
        check_spline_cascade(1, 0, 3, True)


def test_cascade_error_shrinks_with_depth():
    shallow = check_spline_cascade(2, 2, levels=8, tol=1e-6)
    assert not shallow.ok
    assert 1e-6 < shallow.errors[0] < 1e-5
    deep = check_spline_cascade(2, 2, levels=11, tol=1e-6)
    assert deep.ok
    assert max(deep.errors) < 1e-6


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10))
@settings(max_examples=25, deadline=None)
def test_bspline_values_are_cached_consistently(r, num):
    x = F(num, 4)
    direct = bspline_value(r, x)
    assert direct == bspline_value(r, x)
    assert 0 <= direct <= 1


def test_bspline_pieces_match_recursion():
    # The kernel's integers are (r-k)! 8^(r-k) B_r^(k)(n/8), read unreduced.
    for r in range(6):
        for n in range(-8, 8 * (r + 2) + 1):
            x = F(n, 8)
            value = bspline_value_reference(r, x) * factorial(r) * 8**r
            assert scaled_bspline_derivative(r, 0, n, 8) == value
            for k in range(r + 1):
                want = sum(
                    (-1) ** i * comb(k, i) * bspline_value_reference(r - k, x - i)
                    for i in range(k + 1)
                )
                scale = factorial(r - k) * 8 ** (r - k)
                assert scaled_bspline_derivative(r, k, n, 8) == want * scale


@st.composite
def _derivative_samples(draw):
    """(r, k, x): 0 <= k <= r <= 6 and x a rational in [-1, 8], often a knot."""
    r = draw(st.integers(min_value=0, max_value=6))
    k = draw(st.integers(min_value=0, max_value=r))
    knot = st.integers(min_value=-1, max_value=8).map(F)
    return r, k, draw(st.one_of(knot, rationals(-1, 8, 1000)))


@given(_derivative_samples())
@settings(max_examples=200, deadline=None)
def test_bspline_value_matches_recursion_at_rationals(sample):
    # B_r^(k)(x) = sum_i (-1)^i binom(k, i) B_(r-k)(x - i) over the
    # recursion's values, right-continuous at the knots; k = 0 is B_r.
    r, k, x = sample
    want = sum((-1) ** i * comb(k, i) * bspline_value_reference(r - k, x - i) for i in range(k + 1))
    num, den = x.numerator, x.denominator
    assert scaled_bspline_derivative(r, k, num, den) == want * factorial(r - k) * den ** (r - k)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_spline_cascade_matches_fraction_abscissae(r):
    # The final grid reaches past the support [0, r + 1] on both sides, so
    # the compared range starts and ends inside the grid: at num <= 0 and at
    # num >= end the points drop out, and at level 6 (r <= 2) the range's
    # ends sit among many points.
    for d in range(r + 1):
        for levels in (0, 1, 4, 6) if r <= 2 else (0, 1, 4):
            got = check_spline_cascade(r, d, levels=levels, tol=1e-3)
            assert got == spline_cascade_reference(r, d, levels, 1e-3)
            final = cascade(spline_mask(r, d), levels, "delta", (-(r + 2), r + 2))[-1]
            for k in range(d + 1):
                num = [2 * (final.start + idx) + r + 1 - k for idx in (0, final.npoints - 1)]
                assert num[0] <= 0 and num[1] >= (r + 1) * 2 ** (levels + 1)
