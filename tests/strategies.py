"""Hypothesis strategies shared by the kernel property tests."""

from fractions import Fraction as F
from math import ceil, factorial, floor
from typing import NamedTuple

from hypothesis import assume
from hypothesis import strategies as st

from hermiteforge import (
    Chain,
    LaurentPoly,
    Mask,
    Poly,
    PolyVec,
    TaylorOperator,
    chain_for,
    incomplete_from_complete,
    spectral_chain_from_factorization,
    spline_mask,
    synthesize,
    taylor_factorize,
)
from hermiteforge.construct import SynthesisResult
from hermiteforge.splines import spline_chain
from hermiteforge.subdivision import eigen_check


@st.composite
def rationals(draw, lo, hi, max_den: int) -> F:
    """p/q in [lo, hi] with 1 <= q <= max_den: a denominator first, then an
    integer numerator. This is the kernels' own form, and much cheaper to
    draw than st.fractions over the same range."""
    q = draw(st.integers(min_value=1, max_value=max_den))
    return F(draw(st.integers(min_value=ceil(lo * q), max_value=floor(hi * q))), q)


@st.composite
def operators(draw, max_d: int = 6, min_d: int = 1, weights=rationals(-6, 6, 6)) -> TaylorOperator:
    """A new operator instance on every draw: d in min_d..max_d, a unit
    diagonal and strict-upper weights drawn from weights."""
    d = draw(st.integers(min_value=min_d, max_value=max_d))
    w = []
    for j in range(1, d + 1):
        w.append(tuple([draw(weights) for _ in range(j - 1)] + [F(1)]))
    return TaylorOperator(w=tuple(w))


@st.composite
def sparse_masks(draw, d=None):
    """Random masks with whole rows zeroed, or one row zeroed in one parity
    class of alpha, so that some stencil rows have no terms; of size d + 1
    when d is given. Each entry is an explicit zero half the time, else p/q
    in [-3, 3] with its own denominator q <= 12. The zero flags, the
    denominators and the numerators are drawn as one byte string each,
    which costs hypothesis one draw apiece in place of one per entry: a flag
    byte is zero when odd, a denominator byte b gives q = b % 12 + 1, and a
    numerator byte c gives u = c % 73 - 36 and p = u q // 12, which takes
    every integer in [-3q, 3q]."""
    if d is None:
        d = draw(st.integers(min_value=0, max_value=3))
    length = draw(st.integers(min_value=1, max_value=6))
    s_min = draw(st.integers(min_value=-4, max_value=3))
    count = length * (d + 1) ** 2
    zeros, dens, nums = (draw(st.binary(min_size=count, max_size=count)) for _ in range(3))
    entries = iter(
        [
            F(0) if z % 2 else F((u % 73 - 36) * (b % 12 + 1) // 12, b % 12 + 1)
            for z, b, u in zip(zeros, dens, nums)
        ]
    )
    coeffs = [[[next(entries) for _ in range(d + 1)] for _ in range(d + 1)] for _ in range(length)]
    drops = draw(st.lists(st.sampled_from([None, "all", 0, 1]), min_size=d + 1, max_size=d + 1))
    for i, drop in enumerate(drops):
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


class Scheme(NamedTuple):
    """A synthesized scheme and the answers known from its construction:
    the mask factors through op with this factor at scale 2^-d, and the
    operator's own chain is the chain it was built for."""

    result: SynthesisResult
    op: TaylorOperator
    chain: Chain
    factor: Mask
    scale: F


@st.composite
def schemes(draw, max_d: int = 4) -> Scheme:
    """synthesize(op, ((1+z)/2)^n, g) for an operators-style triangle of
    d in 1..max_d (a unit diagonal, strict-upper weights p/q in [-6, 6]
    with q <= 6), n in 1..3, and free parameters g on some of the strict
    lower triangle of the first d rows, each a Laurent polynomial of up to
    three terms from z^-1. Numerators and denominators are drawn as one
    list each, the weights' and each parameter's, to keep the draw cheap."""
    d = draw(st.integers(min_value=1, max_value=max_d))
    count = d * (d - 1) // 2
    dens = draw(st.lists(st.integers(min_value=1, max_value=6), min_size=count, max_size=count))
    nums = draw(
        st.lists(st.integers(min_value=-36, max_value=36), min_size=count, max_size=count)
    )
    # The weight u / 6 rounded down to a multiple of 1 / q: p / q in [-6, 6].
    weights = iter([F(u * q // 6, q) for u, q in zip(nums, dens)])
    w = tuple(tuple([next(weights) for _ in range(j - 1)] + [F(1)]) for j in range(1, d + 1))
    op = TaylorOperator(w=w)
    n = draw(st.integers(min_value=1, max_value=3))
    slots = [(j, k) for j in range(1, d) for k in range(j)]
    g = {}
    for key, used in zip(slots, draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))):
        if used:
            coeffs = draw(st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=3))
            den = draw(st.integers(min_value=1, max_value=4))
            g[key] = LaurentPoly({e - 1: F(c, den) for e, c in enumerate(coeffs)})
    seed = LaurentPoly({0: F(1, 2), 1: F(1, 2)}) ** n
    result = synthesize(op, seed, g)
    return Scheme(result, op, chain_for(op), result.factor, F(1, 2**d))


# Known failures: the d = r spline factors, r = 1..4, are not contractive;
# their joint norms are 2^(r+1) - 1 at every n.
spline_factors = st.integers(min_value=1, max_value=4).map(
    lambda r: (r, taylor_factorize(spline_mask(r, r), spline_chain(r, r)).factor)
)


class PerturbedScheme(NamedTuple):
    """A synthesized mask with one coefficient moved, the spectral chain of
    the mask before the move, and the first level j at which eigen_check
    finds S_A v_j != 2^-j v_j on the moved mask."""

    mask: Mask
    chain: Chain
    level: int


@st.composite
def perturbed_schemes(draw, max_d: int = 3) -> PerturbedScheme:
    """A schemes draw whose mask has one entry A(alpha)[i][k] moved by a
    nonzero p/q in [-2, 2], q <= 8, with the spectral chain recovered from
    its factorization before the move. A moved entry breaks the relation of the
    top level at least, whose every component is a nonzero polynomial."""
    scheme = draw(schemes(max_d))
    mask = scheme.result.mask
    b = incomplete_from_complete(scheme.factor)
    chain = spectral_chain_from_factorization(mask, b, scheme.op)
    coeffs = [[list(row) for row in m] for m in mask.coeffs]
    n = draw(st.integers(min_value=0, max_value=len(coeffs) - 1))
    i, k = (draw(st.integers(min_value=0, max_value=mask.d)) for _ in range(2))
    coeffs[n][i][k] += draw(rationals(-2, 2, 8).filter(bool))
    moved = Mask(mask.support_min, coeffs)
    levels = [j for j, v in enumerate(chain.vecs) if eigen_check(moved, v, F(1, 2**j))]
    return PerturbedScheme(moved, chain, levels[0])
