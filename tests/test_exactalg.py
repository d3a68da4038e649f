"""Ring laws, evaluation and JSON parsing of the Laurent polynomial layer.

The multiplication cross-check against sympy is the only place the test
suite leans on an external CAS; everything downstream trusts this layer.
"""

from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hermiteforge import (
    Chain,
    DyadicGrid,
    LaurentPoly,
    Mask,
    Poly,
    PolyVec,
    TaylorOperator,
)
from hermiteforge.exactalg import rat_from_str
from reference_kernels import coeff, delta_symbol
from strategies import rationals

rational_values = rationals(-20, 20, 12)


@st.composite
def laurent_polys(draw, min_exp=-5, max_exp=5, max_terms=6):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    exps = draw(
        st.lists(
            st.integers(min_value=min_exp, max_value=max_exp),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    coeffs = draw(st.lists(rational_values, min_size=n, max_size=n))
    return LaurentPoly(dict(zip(exps, coeffs)))


def to_sympy(p, z):
    return sum(sympy.Rational(c.numerator, c.denominator) * z**e for e, c in p.items())


@given(laurent_polys(), laurent_polys())
@settings(max_examples=60, deadline=None)
def test_product_matches_sympy(p, q):
    z = sympy.Symbol("z")
    got = to_sympy(p * q, z)
    want = sympy.expand(to_sympy(p, z) * to_sympy(q, z))
    assert sympy.simplify(got - want) == 0


@given(laurent_polys(), laurent_polys(), laurent_polys())
@settings(max_examples=40, deadline=None)
def test_ring_laws(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p + (-p) == LaurentPoly()
    assert p - q == p + (-q)


@given(laurent_polys(), st.integers(min_value=1, max_value=3))
@settings(max_examples=30, deadline=None)
def test_substitute_power(p, m):
    q = p.substitute_power(m)
    for e, c in p.items():
        assert coeff(q, m * e) == c
    assert sum(1 for _, c in q.items() if c) == sum(1 for _, c in p.items() if c)


@given(laurent_polys())
@settings(max_examples=30, deadline=None)
def test_evaluate_consistent_with_items(p):
    x = F(3, 2)
    assert p.evaluate(x) == sum(c * x**e for e, c in p.items())


def test_delta_symbol():
    d = delta_symbol()
    assert dict(d.items()) == {-1: F(1), 0: F(-1)}
    assert d.evaluate(1) == 0


def test_power_and_abs_sum():
    h = LaurentPoly({-1: F(1, 2), 0: F(-1, 2)})
    assert h**2 == h * h
    assert sum(abs(c) for _, c in h.items()) == 1


@pytest.mark.parametrize("n", [True, False, 2.0, F(2)], ids=repr)
def test_power_takes_only_an_int(n):
    # True is not read as 1, nor 2.0 as 2.
    for p in (LaurentPoly({-1: 1, 2: F(1, 3)}), Poly((1, 2))):
        with pytest.raises(TypeError, match="^n must be an int, got "):
            p**n


def test_poly_forward_difference():
    p = Poly((F(0), F(0), F(1)))  # x^2
    dp = p.forward_difference()
    # (x+1)^2 - x^2 = 2x + 1
    assert dp.coeffs == (F(1), F(2))
    assert Poly((F(5),)).forward_difference() == Poly()


@given(st.lists(rational_values, min_size=0, max_size=6))
@settings(max_examples=40, deadline=None)
def test_poly_evaluate_horner(coeffs):
    p = Poly(tuple(coeffs))
    x = F(-7, 3)
    assert p.evaluate(x) == sum(c * x**k for k, c in enumerate(coeffs))


@pytest.mark.parametrize("key", ["1_0", " 2", "2 ", "+3", "04", "-0", "x"])
def test_exponent_keys_are_plain_decimal_integers(key):
    with pytest.raises(ValueError):
        LaurentPoly.from_json({key: "1"})
    assert LaurentPoly.from_json({"-3": "1", "0": "2", "10": "1/2"}) == LaurentPoly(
        {-3: 1, 0: 2, 10: F(1, 2)}
    )


@pytest.mark.parametrize(
    "text, value",
    [("3", F(3)), ("-3", F(-3)), ("0", F(0)), ("6/4", F(3, 2)), ("-1/8", F(-1, 8)),
     ("0.25", F(1, 4)), ("-0.5", F(-1, 2)), ("12.050", F(241, 20))],
)
def test_rationals_are_p_over_q_or_plain_decimals(text, value):
    assert rat_from_str(text) == value


# Fraction() alone reads most of these: "1_0/4" as 5/2, "1e3" as 1000, the
# Arabic-Indic digits as 1/2 and " 1/2" with its space.
@pytest.mark.parametrize(
    "text",
    ["1_0/4", "1/0_4", "\u0661/\u0662", "1e3", "+3", " 1/2", "1/2 ", "04", "-0", "1/0",
     "1/-2", "1/+2", ".5", "1.", "--1.5", "1.5e1", "1.\u0665", "inf", "nan", ""],
)
def test_rationals_refuse_what_fraction_alone_would_read(text):
    with pytest.raises(ValueError):
        rat_from_str(text)


# A reader that iterates whatever it gets takes a string for an array, one
# character per entry ("12" as 1 + 2x), and a tuple is no JSON value.
@pytest.mark.parametrize(
    "cls, doc",
    [
        (Poly, "12"),
        (Poly, ("1", "2")),
        (PolyVec, {"d": 1, "components": ["1", "01"]}),
        (PolyVec, {"d": 0, "components": {"0": ["1"]}}),
        (Chain, {"d": 0, "vecs": "v"}),
        (TaylorOperator, {"d": 2, "w": ["1", "21"]}),
        (TaylorOperator, {"d": 1, "w": "1"}),
        (Mask, {"d": 1, "support_min": 0, "coeffs": [["10", "01"]]}),
        (Mask, {"d": 0, "support_min": 0, "coeffs": ["1"]}),
        (Mask, {"d": 0, "support_min": 0, "coeffs": "1"}),
        (DyadicGrid, {"level": 0, "start": 0, "values": ["10", "00"]}),
        (DyadicGrid, {"level": 0, "start": 0, "values": "1"}),
    ],
)
def test_json_arrays_must_be_arrays(cls, doc):
    with pytest.raises(TypeError, match="must be a JSON array"):
        cls.from_json(doc)
