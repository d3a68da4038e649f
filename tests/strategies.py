"""Hypothesis strategies shared by the kernel property tests."""

from fractions import Fraction as F
from math import ceil, factorial, floor

from hypothesis import assume
from hypothesis import strategies as st

from hermiteforge import Mask, Poly, PolyVec


@st.composite
def rationals(draw, lo, hi, max_den: int) -> F:
    """p/q in [lo, hi] with 1 <= q <= max_den: a denominator first, then an
    integer numerator. This is the kernels' own form, and much cheaper to
    draw than st.fractions over the same range."""
    q = draw(st.integers(min_value=1, max_value=max_den))
    return F(draw(st.integers(min_value=ceil(lo * q), max_value=floor(hi * q))), q)


@st.composite
def sparse_masks(draw, d=None):
    """Random masks with whole rows zeroed, or one row zeroed in one parity
    class of alpha, so that some stencil rows have no terms; of size d + 1
    when d is given."""
    if d is None:
        d = draw(st.integers(min_value=0, max_value=3))
    length = draw(st.integers(min_value=1, max_value=6))
    s_min = draw(st.integers(min_value=-4, max_value=3))

    def entry() -> F:
        # An explicit zero half the time, else p/q in [-3, 3] with its own
        # denominator q <= 12.
        return F(0) if draw(st.booleans()) else draw(rationals(-3, 3, 12))

    coeffs = [[[entry() for _ in range(d + 1)] for _ in range(d + 1)] for _ in range(length)]
    for i in range(d + 1):
        drop = draw(st.sampled_from([None, "all", 0, 1]))
        for n in range(length):
            if drop == "all" or drop == (s_min + n) % 2:
                coeffs[n][i] = [F(0)] * (d + 1)
    assume(any(v for m in coeffs for row in m for v in row))
    return Mask(s_min, tuple(tuple(tuple(row) for row in m) for m in coeffs))


@st.composite
def poly_vecs(draw, max_d: int, zero_low: bool = False):
    """Random elements of V_d for d <= max_d: the constant 1 on top of
    components of degree j with leading coefficient 1/j! and random lower
    coefficients. With zero_low, component j's coefficients below a drawn
    degree 0..j are 0, so its lowest stored power is often above x^0."""
    d = draw(st.integers(min_value=0, max_value=max_d))
    lower = rationals(-3, 3, 9)
    comps = [Poly.one()]
    for j in range(1, d + 1):
        zeros = draw(st.integers(min_value=0, max_value=j)) if zero_low else 0
        coeffs = [F(0)] * zeros + [draw(lower) for _ in range(zeros, j)]
        comps.append(Poly(coeffs + [F(1, factorial(j))]))
    return PolyVec(tuple(comps))
