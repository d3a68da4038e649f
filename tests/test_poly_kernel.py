"""The integer polynomial kernel against the Fraction-per-coefficient
reference classes, on random sparse rationals."""

import operator
from fractions import Fraction as F
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermiteforge import LaurentPoly, Mask, NotDivisible, Poly, PolyVec, polybasis
from hermiteforge.exactalg import _divide_by_delta, _mul_add, rat_to_str
from hermiteforge.polybasis import difference_split_check
from hermiteforge.subdivision import eigen_check
from reference_kernels import (
    FractionLaurentPoly,
    FractionPoly,
    convolution_reference,
    difference_split_reference,
)
from strategies import rationals

entries = st.one_of(
    st.just(F(0)),
    st.integers(min_value=-5, max_value=5).map(F),
    rationals(-20, 20, 24),
)
points = st.one_of(
    st.just(F(0)),
    st.just(F(1)),
    rationals(-5, 5, 7),
)


@st.composite
def laurent_terms(draw, min_exp=-6, max_exp=6, max_terms=6):
    exps = draw(
        st.lists(st.integers(min_value=min_exp, max_value=max_exp), max_size=max_terms, unique=True)
    )
    return {e: draw(entries) for e in exps}


def laurent_pair(terms):
    return LaurentPoly(terms), FractionLaurentPoly(terms)


def poly_pair(coeffs):
    return Poly(coeffs), FractionPoly(coeffs)


poly_coeffs = st.lists(entries, max_size=8)
# The divisors the factorization code uses: z^-1 - 1, z^-2 - 1, z^-1 + 1,
# z - 1 and their powers.
src_divisors = st.sampled_from(
    [{-1: 1, 0: -1}, {-2: 1, 0: -1}, {-1: 1, 0: 1}, {1: 1, 0: -1}]
).flatmap(lambda t: st.integers(min_value=1, max_value=4).map(lambda k: (t, k)))


def assert_canonical_laurent(p):
    lo, nums, den = p._lo, p._num, p._den
    assert type(nums) is tuple and all(type(n) is int for n in nums)
    assert den > 0
    if not nums:
        assert (lo, den) == (0, 1)
        return
    assert nums[0] != 0 and nums[-1] != 0
    assert gcd(den, *nums) == 1


def assert_canonical_poly(p):
    # One canonical form for both classes; a Poly has no negative exponent.
    assert_canonical_laurent(p)
    assert p._lo >= 0


def assert_same_laurent(fast, ref):
    assert isinstance(fast, LaurentPoly)
    assert_canonical_laurent(fast)
    assert fast.to_json() == ref.to_json()
    assert str(fast) == str(ref)
    assert repr(fast) == repr(ref)
    assert hash(fast) == hash(ref)
    assert fast.support == ref.support
    assert list(fast.items()) == list(ref.items())
    assert bool(fast) == bool(ref) and fast.is_zero == ref.is_zero
    if ref.is_zero:
        for bound in ("lo", "hi"):
            with pytest.raises(ValueError):
                getattr(fast, bound)
    else:
        assert (fast.lo, fast.hi) == (ref.lo, ref.hi)
        for e in range(ref.lo - 1, ref.hi + 2):
            assert fast.coeff(e) == ref.coeff(e)
            assert type(fast.coeff(e)) is F


def assert_same_poly(fast, ref):
    assert isinstance(fast, Poly)
    assert_canonical_poly(fast)
    assert fast.coeffs == ref.coeffs
    assert all(type(c) is F for c in fast.coeffs)
    assert fast.to_json() == ref.to_json()
    assert str(fast) == str(ref)
    assert repr(fast) == repr(ref)
    assert hash(fast) == hash(ref)
    assert fast.degree == ref.degree and bool(fast) == bool(ref)
    if ref:
        assert fast.leading == ref.leading
    for k in range(-1, ref.degree + 2):
        assert fast.coeff(k) == ref.coeff(k)


def same_outcome(fast_call, ref_call, compare):
    """Run both calls; they must raise the same exception type or agree."""
    try:
        want = ref_call()
    except (ArithmeticError, ValueError, NotDivisible) as exc:
        with pytest.raises(type(exc)):
            fast_call()
        return
    compare(fast_call(), want)


def equal(got, want):
    assert got == want
    assert type(got) is type(want)


@given(laurent_terms(), laurent_terms(), entries, points, st.integers(min_value=-3, max_value=3))
@settings(max_examples=150, deadline=None)
def test_laurent_kernel_matches_reference(t1, t2, c, x, m):
    p, rp = laurent_pair(t1)
    q, rq = laurent_pair(t2)
    assert_same_laurent(p, rp)
    assert_same_laurent(p + q, rp + rq)
    assert_same_laurent(p - q, rp - rq)
    assert_same_laurent(-p, -rp)
    assert_same_laurent(p * q, rp * rq)
    assert_same_laurent(p * c, rp * c)
    assert_same_laurent(c - p, c - rp)
    assert_same_laurent(p**2, rp**2)
    assert (p == q) == (rp == rq)
    assert (p == c) == (rp == c)
    const, rconst = LaurentPoly.constant(c), FractionLaurentPoly.constant(c)
    assert const == c and hash(const) == hash(c) == hash(rconst)
    if c:
        assert_same_laurent(p / c, rp / c)
    if m:
        assert_same_laurent(p.substitute_power(m), rp.substitute_power(m))
    same_outcome(lambda: p.evaluate(x), lambda: rp.evaluate(x), equal)
    for r in range(4):
        equal(p.derivative_at_one(r), rp.derivative_at_one(r))
    same_outcome(lambda: p.divide_exact(q), lambda: rp.divide_exact(rq), assert_same_laurent)
    same_outcome(
        lambda: (p * q).divide_exact(q), lambda: (rp * rq).divide_exact(rq), assert_same_laurent
    )


@given(laurent_terms(), laurent_terms(), st.integers(min_value=2, max_value=8))
@settings(max_examples=100, deadline=None)
def test_products_with_a_spread_factor_match_reference(t1, t2, m):
    # p(z^m) keeps p's nonzeros over m times its length, so with it on
    # either side the product kernel loops over one factor or the other.
    p, rp = laurent_pair(t1)
    q, rq = laurent_pair(t2)
    spread, rspread = p.substitute_power(m), rp.substitute_power(m)
    assert_same_laurent(spread * q, rspread * rq)
    assert_same_laurent(q * spread, rq * rspread)


small_ints = st.integers(min_value=-4, max_value=4) | st.just(0)


@given(
    st.lists(small_ints, min_size=1, max_size=12),
    st.lists(small_ints, min_size=1, max_size=12),
    st.lists(small_ints, min_size=23, max_size=23),
)
@settings(max_examples=200, deadline=None)
def test_mul_add_adds_the_schoolbook_product(a, b, base):
    # Into an accumulator that already holds values, with either factor the
    # sparser one, zeros anywhere and all-zero factors included.
    acc = base[: len(a) + len(b) - 1]
    want = [x + y for x, y in zip(acc, convolution_reference(a, b))]
    _mul_add(acc, a, b)
    assert acc == want
    again = base[: len(a) + len(b) - 1]
    _mul_add(again, tuple(b), tuple(a))
    assert again == want


def test_constants_hash_as_the_numbers_they_equal():
    cases = [
        (LaurentPoly.constant(3), 3),
        (LaurentPoly.zero(), 0),
        (LaurentPoly.constant(F(-2, 3)), F(-2, 3)),
        (Poly((F(1, 2),)), F(1, 2)),
        (Poly(()), 0),
    ]
    for poly, number in cases:
        assert poly == number and hash(poly) == hash(number)
        assert len({poly, number}) == 1
    # Not constants, so equal to no number.
    for poly in (LaurentPoly.monomial(1, 3), LaurentPoly.monomial(-1), Poly((0, 1))):
        assert poly != poly.coeff(poly.lo)


@given(laurent_terms(min_exp=-3, max_exp=3, max_terms=4), src_divisors, st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_divide_exact_by_the_factorization_divisors(terms, divisor, extra):
    base, k = divisor
    u, ru = laurent_pair(base)
    p, rp = laurent_pair(terms)
    # p * u^extra is divisible by u^k exactly when extra >= k, unless p
    # itself holds the missing factors.
    same_outcome(
        lambda: (p * u**extra).divide_exact(u**k),
        lambda: (rp * ru**extra).divide_exact(ru**k),
        assert_same_laurent,
    )


@st.composite
def delta_numerators(draw, s):
    """Integer lists for division by z^-s - 1: products q (z^-s - 1) read
    from z^0, arbitrary lists, all-zero lists and lists no longer than s.
    Returns (nums, q), q the quotient when nums was built as a product."""
    ints = st.integers(min_value=-5, max_value=5)
    kind = draw(st.sampled_from(["product", "any", "zeros", "short"]))
    if kind == "product":
        q = draw(st.lists(ints, max_size=6))
        nums = q + [0] * s
        for t, c in enumerate(q):
            nums[t + s] -= c
        return nums, q
    if kind == "any":
        return draw(st.lists(ints, max_size=8)), None
    if kind == "zeros":
        return [0] * draw(st.integers(min_value=0, max_value=6)), None
    return draw(st.lists(ints, max_size=s)), None


@given(st.sampled_from([1, 2]).flatmap(lambda s: st.tuples(st.just(s), delta_numerators(s))))
@settings(max_examples=80, deadline=None)
def test_divide_by_delta_matches_divide_exact(case):
    # sum_t nums[t] z^t divided by z^-s - 1: the same outcome as the general
    # Laurent division, with the quotient's len(nums) - s numerators from z^s.
    s, (nums, q) = case
    p = LaurentPoly(dict(enumerate(nums)))
    try:
        want = p.divide_exact(LaurentPoly({-s: 1, 0: -1}))
    except NotDivisible:
        with pytest.raises(NotDivisible, match="^Laurent division leaves a nonzero remainder$"):
            _divide_by_delta(nums, s)
        assert q is None
        return
    got = _divide_by_delta(nums, s)
    assert len(got) == max(len(nums) - s, 0)
    assert LaurentPoly(dict(enumerate(got, start=s))) == want
    if q is not None:
        assert got == q


@pytest.mark.parametrize(
    "num, div",
    [
        ({0: 1, 1: 3}, {0: 1, 1: 2}),  # only the top entry is left over
        ({0: 1, 1: 1}, {0: 2, 1: 2}),  # divisor numerators share a factor
        ({0: 1, 1: 2, 2: 1}, {0: F(2, 3), 1: F(2, 3)}),
        ({0: 1, 3: 1}, {0: 1, 1: 1}),
        ({-2: 1, 0: -1}, {-1: 1, 0: -1}),
        ({0: 3}, {0: 6}),
        ({2: F(1, 2)}, {0: 4, 1: 4}),
    ],
)
def test_divide_exact_edge_cases(num, div):
    p, rp = laurent_pair(num)
    q, rq = laurent_pair(div)
    same_outcome(lambda: p.divide_exact(q), lambda: rp.divide_exact(rq), assert_same_laurent)


@given(poly_coeffs, poly_coeffs, entries, points, st.integers(min_value=0, max_value=4))
@settings(max_examples=150, deadline=None)
def test_poly_kernel_matches_reference(c1, c2, c, x, k):
    p, rp = poly_pair(c1)
    q, rq = poly_pair(c2)
    assert_same_poly(p, rp)
    assert_same_poly(p + q, rp + rq)
    assert_same_poly(p - q, rp - rq)
    assert_same_poly(-p, -rp)
    assert_same_poly(p * q, rp * rq)
    assert_same_poly(p * c, rp * c)
    assert_same_poly(c - p, c - rp)
    assert (p == q) == (rp == rq)
    assert (p == c) == (rp == c)
    const, rconst = Poly.constant(c), FractionPoly.constant(c)
    assert const == c and hash(const) == hash(c) == hash(rconst)
    if c:
        assert_same_poly(p / c, rp / c)
    equal(p.evaluate(x), rp.evaluate(x))
    assert_same_poly(p.shift(x), rp.shift(x))
    assert_same_poly(p.shift(k - 2), rp.shift(k - 2))
    assert_same_poly(p.forward_difference(k), rp.forward_difference(k))
    assert_same_poly(p.derivative(k), rp.derivative(k))


def test_poly_and_laurent_never_mix():
    p, f = Poly((0, 1)), LaurentPoly({1: 1})
    assert issubclass(Poly, LaurentPoly)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(p, f)
        with pytest.raises(TypeError):
            op(f, p)
    assert p != f and f != p
    assert type(p + 1) is Poly and type(1 - f) is LaurentPoly
    assert type(p * F(1, 2)) is Poly and type(f / 2) is LaurentPoly
    assert type(Poly.zero()) is Poly and type(Poly.monomial(2, F(1, 2))) is Poly
    assert type(p**2) is Poly and type(-p) is Poly


def test_poly_methods_return_poly():
    p = Poly((0, 1))
    assert type(p.substitute_power(2)) is Poly and p.substitute_power(2) == Poly((0, 0, 1))
    quotient = Poly((0, 0, 1)).divide_exact(p)
    assert type(quotient) is Poly and quotient == p
    assert type(Poly.zero().divide_exact(p)) is Poly
    with pytest.raises(ValueError):
        p.substitute_power(-1)
    # x / x^2 = x^-1 is a Laurent quotient, not a polynomial one.
    with pytest.raises(NotDivisible):
        p.divide_exact(Poly((0, 0, 1)))
    f = LaurentPoly({1: 1})
    assert f.substitute_power(-1) == LaurentPoly({-1: 1})
    assert f.divide_exact(LaurentPoly({2: 1})) == LaurentPoly({-1: 1})


@pytest.mark.parametrize("cls", [LaurentPoly, Poly])
@pytest.mark.parametrize(
    "op", [operator.add, operator.sub, operator.mul, operator.truediv], ids=lambda op: op.__name__
)
def test_float_operands_are_rejected(cls, op):
    p = LaurentPoly({1: 1}) if cls is LaurentPoly else Poly((0, 1))
    # A bool is no operand either: True is not read as 1, so the constant 1
    # does not equal it.
    for bad in (0.1, True):
        with pytest.raises(TypeError):
            op(p, bad)
        if op is not operator.truediv:
            with pytest.raises(TypeError):
                op(bad, p)
    assert cls.one() != True  # noqa: E712
    # Nor do the constructors and the methods that take a rational, nor the
    # masks, the rational writer and the eigen check, which refuses strings
    # as well.
    m, v = Mask(0, (((1,),),)), PolyVec((Poly.one(),))
    calls = [
        lambda: cls.constant(0.1),
        lambda: cls.monomial(1, 0.1),
        lambda: p.evaluate(0.1),
        lambda: LaurentPoly({0: 0.1}) if cls is LaurentPoly else Poly((0.1,)),
        lambda: Mask(0, (((0.1,),),)),
        lambda: Mask(0, (((1,),),)).scale(0.1),
        lambda: rat_to_str(0.1),
        lambda: eigen_check(m, v, 0.5),
        lambda: eigen_check(m, v, "1/2"),
    ]
    if cls is Poly:
        calls.append(lambda: p.shift(0.1))
    else:
        # An exponent key that only int() would read: 1.5 as 1, "1_0" as 10
        # and True as 1.
        calls += [lambda key=key: LaurentPoly({key: 2}) for key in (1.5, "1_0", True)]
    for call in calls:
        with pytest.raises(TypeError):
            call()


@given(poly_coeffs, st.integers(min_value=1, max_value=10))
@settings(max_examples=80, deadline=None)
def test_difference_split_matches_per_k_reference(coeffs, n):
    p, rp = poly_pair(coeffs)
    if p.degree > n:
        with pytest.raises(ValueError):
            difference_split_check(p, n)
        return
    assert difference_split_check(p, n) == difference_split_reference(rp, n)


def test_difference_split_builds_no_polynomial():
    p = Poly((F(3, 7), F(-1, 2), F(5), F(1, 3)))
    with mock.patch.object(Poly, "_raw", side_effect=AssertionError("a Poly was built")):
        assert difference_split_check(p, 5)


@given(poly_coeffs, st.integers(min_value=1, max_value=10))
@settings(max_examples=80, deadline=None)
def test_difference_split_fails_with_a_wrong_shift(coeffs, n):
    # A negative control: with every integer shift one step off, the
    # ladder steps by 2 and each rung lands one place right of where the
    # identity puts it, so the check must fail. For deg p <= 1 the
    # differences are constants, which no shift moves, and it still holds.
    p = Poly(coeffs)
    n = max(n, p.degree)
    shift = polybasis._taylor_shift
    with mock.patch.object(polybasis, "_taylor_shift", lambda nums, a: shift(nums, a + 1)):
        assert difference_split_check(p, n) is (p.degree <= 1)
