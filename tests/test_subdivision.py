"""Masks, symbols, plain and level-scaled subdivision steps."""

from fractions import Fraction as F
from math import inf, nan

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldens import REF2_MASK, REF2_SPECTRAL_CHAIN, mask_from_entries
from hermiteforge import Chain, DyadicGrid, LaurentPoly, Mask, Poly, PolyVec, TaylorOperator, cascade
from hermiteforge.analysis import is_lower_triangular
from hermiteforge.factor import _last_column_partition_of_unity
from hermiteforge.subdivision import (
    WindowTooSmall,
    _image,
    _output_window,
    _run_plan,
    eigen_check,
    level_step,
)
from reference_kernels import (
    coeff,
    eigen_check_reference,
    entry_symbol,
    float_step_prescaled_reference,
    hermite_step_reference,
    image_reference,
    integer_entries_reference,
    is_lower_triangular_reference,
    iterated_symbol,
    last_column_partition_reference,
    mask_matrix,
    mask_from_symbol_reference,
    mask_json_reference,
    mask_scale_reference,
    mask_symbol_reference,
    stencil_reference,
    stencil_sums_reference,
    subdivide_reference,
)
from strategies import poly_vecs, rationals, sparse_masks


def hat_mask():
    return Mask(0, (((F(1, 2),),), ((F(1),),), ((F(1, 2),),)))


def step(mask, values, start, level):
    """level_step on columns: Fractions out of exact data, floats out of
    float data."""
    out = level_step(mask, DyadicGrid(level, start, values))
    return list(out.values), out.start


def row_grid(level, start, rows, den):
    """The grid of these rows: integers over den, or floats when den is None."""
    if den is not None:
        rows = [[F(n, den) for n in row] for row in rows]
    return DyadicGrid(level, start, tuple(zip(*rows)))


def ref2_mask():
    return mask_from_entries(REF2_MASK, 2)


def test_symbol_roundtrip():
    m = ref2_mask()
    for (i, k, e), c in REF2_MASK.items():
        assert coeff(entry_symbol(m, i, k), e) == c
    # nothing extra
    total = sum(
        1
        for i in range(3)
        for k in range(3)
        for _, c in entry_symbol(m, i, k).items()
        if c
    )
    assert total == len(REF2_MASK)


def test_entry_symbol_matches_matrix_walk():
    # The two Fraction views the oracles read, one past each end included.
    m = ref2_mask()
    lo, hi = m.support
    for i in range(3):
        for k in range(3):
            walk = {alpha: mask_matrix(m, alpha)[i][k] for alpha in range(lo - 1, hi + 2)}
            assert entry_symbol(m, i, k) == LaurentPoly(walk)


def test_subdivide_reproduces_constants():
    # partition of unity: S applied to all-ones data returns all ones (with
    # d = 0, every level's step is the plain step)
    assert level_step(hat_mask(), row_grid(0, -4, [[1] * 9], 1)) == row_grid(1, -7, [[1] * 17], 1)
    assert level_step(hat_mask(), row_grid(3, -4, [[1.0] * 9], None)) == row_grid(
        4, -7, [[1.0] * 17], None
    )


def test_subdivide_window_shrinks_to_determined_outputs():
    # a single data point only determines the output where no missing
    # neighbour could contribute
    assert level_step(hat_mask(), row_grid(2, 0, [[1]], 1)) == row_grid(3, 1, [[1]], 1)
    assert level_step(hat_mask(), row_grid(0, 0, [[1.0]], None)) == row_grid(1, 1, [[1.0]], None)


def test_iterated_symbol_composes_left_to_right():
    m = ref2_mask()
    s = mask_symbol_reference(m)
    two = s * s.substitute_power(2)
    got = iterated_symbol(m, 2)
    for i in range(3):
        for k in range(3):
            assert got.rows[i][k] == two.rows[i][k]
    three = two * s.substitute_power(4)
    got3 = iterated_symbol(m, 3)
    for i in range(3):
        for k in range(3):
            assert got3.rows[i][k] == three.rows[i][k]


rational_rows = st.lists(
    st.tuples(
        rationals(-5, 5, 8),
        rationals(-5, 5, 8),
        rationals(-5, 5, 8),
    ),
    min_size=8,
    max_size=14,
)


@given(rational_rows, st.integers(min_value=0, max_value=3))
@settings(max_examples=25, deadline=None)
def test_level_step_is_rescaled_plain_step(rows, level):
    # level-aware step == pre-scale by 2^-(level*k), plain step, post-scale
    # by 2^((level+1)*k) componentwise
    m = ref2_mask()
    start = -5
    got, gstart = step(m, rows, start, level)
    pre = [
        [c * F(1, 2 ** (level * k)) for k, c in enumerate(row)] for row in rows
    ]
    mid, mstart = subdivide_reference(m, pre, start)
    want = [
        tuple(c * F(2 ** ((level + 1) * k)) for k, c in enumerate(row))
        for row in mid
    ]
    assert gstart == mstart
    assert got == want


def test_spectral_vectors_are_eigenvectors():
    m = ref2_mask()
    vecs = tuple(
        PolyVec(tuple(Poly(cs) for cs in vec)) for vec in REF2_SPECTRAL_CHAIN
    )
    for j, v in enumerate(vecs):
        assert eigen_check(m, v, F(1, 2**j)) is None


def test_eigen_check_reports_failure():
    m = ref2_mask()
    v = PolyVec((Poly((F(1),)), Poly((F(0), F(1)))))  # (1, x): wrong family
    hit = eigen_check(m, v, F(1, 2))
    assert hit is not None


def test_mask_scale():
    m = hat_mask().scale(F(1, 2))
    got = level_step(m, row_grid(0, -4, [[1] * 9], 1))
    assert (got._rows, got._den, got.start) == ([[1] * 17], 2, -7)


@given(sparse_masks(), rationals(-4, 4, 9).filter(bool))
@settings(max_examples=100, deadline=None)
def test_integer_mask_matches_fraction_reference(mask, q):
    sym = mask_symbol_reference(mask)
    assert Mask.from_symbol(sym.rows) == mask_from_symbol_reference(sym) == mask
    scaled = mask.scale(q)
    assert scaled == mask_scale_reference(mask, q)
    assert Mask.from_symbol(mask_symbol_reference(scaled).rows) == scaled
    assert scaled.scale(1 / q) == mask
    assert mask.to_json() == mask_json_reference(mask)
    assert scaled.to_json() == mask_json_reference(scaled)
    _, numerators, den = stencil_reference(scaled)
    assert (scaled._terms, scaled._den) == (numerators, den)
    entries, den = integer_entries_reference(scaled)
    assert (scaled._num, scaled._den) == (tuple(tuple(map(tuple, row)) for row in entries), den)
    # The last columns made to sum to e_d in each parity class the support
    # covers: the partition test then holds exactly when it covers both.
    d = mask.d
    coeffs = [[list(row) for row in m] for m in mask.coeffs]
    for n in range(min(2, len(coeffs))):
        for i in range(d + 1):
            coeffs[n][i][d] += (i == d) - sum(m[i][d] for m in coeffs[n::2])
    unit = Mask(mask.support_min, coeffs)
    assert _last_column_partition_of_unity(unit) == (len(coeffs) > 1)
    # Its lower triangle keeps entry (d, d), so it is never zero.
    lower = Mask(
        mask.support_min,
        [[row[: i + 1] + [0] * (d - i) for i, row in enumerate(m)] for m in coeffs],
    )
    assert is_lower_triangular(lower)
    for m in (mask, unit, lower):
        assert _last_column_partition_of_unity(m) == last_column_partition_reference(m)
        assert is_lower_triangular(m) == is_lower_triangular_reference(m)


# Entry patterns for the product: it multiplies only the pairs (i, l),
# (l, k) whose two entries are nonzero.
SPARSITY = {
    "full": lambda i, k: True,
    "lower": lambda i, k: k <= i,
    "strictly lower": lambda i, k: k < i,
    "upper": lambda i, k: k >= i,
    "diagonal": lambda i, k: k == i,
    "zero column": lambda i, k: k != 0,
}


def restricted(mask, pattern):
    """mask with entry (i, k) zeroed where SPARSITY[pattern] is false, or
    mask itself where that leaves no nonzero entry."""
    keep = SPARSITY[pattern]
    coeffs = [
        [[v if keep(i, k) else 0 for k, v in enumerate(row)] for i, row in enumerate(m)]
        for m in mask.coeffs
    ]
    if not any(v for m in coeffs for row in m for v in row):
        return mask
    return Mask(mask.support_min, coeffs)


@st.composite
def taylor_symbols(draw, d):
    """The symbol of a complete Taylor operator of size d + 1 with random
    weights: upper triangular, with z^-1 - 1 on the diagonal."""
    w = tuple(
        tuple([draw(rationals(-3, 3, 6)) for _ in range(j - 1)] + [F(1)]) for j in range(1, d + 1)
    )
    return TaylorOperator(w).symbol


@given(sparse_masks(), st.data())
@settings(max_examples=50, deadline=None)
def test_mask_product_matches_laurent_matrix_reference(a, data):
    b = data.draw(sparse_masks(d=a.d))
    patterns = st.sampled_from(list(SPARSITY))
    a, b = restricted(a, data.draw(patterns)), restricted(b, data.draw(patterns))
    side = data.draw(st.sampled_from([None, "left", "right"]))
    if side == "left":
        a = data.draw(taylor_symbols(a.d))
    elif side == "right":
        b = data.draw(taylor_symbols(a.d))
    sa, sb = mask_symbol_reference(a), mask_symbol_reference(b)
    product = sa * sb
    # The product helper folds a scale p / q, p of either sign, into the
    # one mask it builds.
    p, q = data.draw(rationals(-3, 3, 8).filter(bool)).as_integer_ratio()
    if product.is_zero():
        # A product of nonzero matrices can vanish, and no mask is zero.
        with pytest.raises(ValueError):
            a * b
        with pytest.raises(ValueError):
            a._product(b, p, q)
    else:
        assert a * b == mask_from_symbol_reference(product)
        scaled = a._product(b, p, q)
        assert scaled == mask_from_symbol_reference(product.scale(F(p, q)))
        assert scaled._den > 0
    assert a.substitute_power(2) == mask_from_symbol_reference(sa.substitute_power(2))


def test_products_of_strictly_lower_masks_vanish_with_an_error():
    # E_10 E_10 = 0: no pair has two nonzero entries, and no mask is zero.
    e10 = Mask(0, (((0, 0), (1, 0)), ((0, 0), (F(1, 2), 0))))
    with pytest.raises(ValueError, match="^mask is identically zero$"):
        e10 * e10
    # A 3x3 strictly lower N with N^2 != 0 has N^3 = 0.
    n = Mask(-1, (((0, 0, 0), (1, 0, 0), (2, -1, 0)), ((0, 0, 0), (0, 0, 0), (F(1, 3), 1, 0))))
    square, sn = n * n, mask_symbol_reference(n)
    assert square == mask_from_symbol_reference(sn * sn)
    assert is_lower_triangular(square)
    with pytest.raises(ValueError, match="^mask is identically zero$"):
        square * n


@given(sparse_masks(), st.integers(min_value=1, max_value=8))
@settings(max_examples=30, deadline=None)
def test_spread_mask_is_canonical_as_built(mask, m):
    spread = mask.substitute_power(m)
    width = (len(mask._num[0][0]) - 1) * m + 1
    entries = [[[0] * width for _ in row] for row in mask._num]
    for out, row in zip(entries, mask._num):
        for e, entry in zip(out, row):
            e[::m] = entry
    want = Mask._raw(mask.support_min * m, entries, mask._den)
    # A mask's == compares its three fields.
    assert spread == want
    assert all(type(e) is tuple for row in spread._num for e in row)


@pytest.mark.parametrize("m", [True, False, 2.0, 1.0, F(2), "2"], ids=repr)
def test_substitute_power_takes_only_an_int(m):
    # True is not read as 1, nor 2.0 as 2.
    for f in (hat_mask(), LaurentPoly({-1: 1, 2: F(1, 3)}), Poly((1, 2))):
        with pytest.raises(TypeError, match="^m must be an int, got "):
            f.substitute_power(m)


@given(sparse_masks(), st.data())
@settings(max_examples=40, deadline=None)
def test_mask_product_with_a_spread_factor_matches_laurent_matrix_reference(a, data):
    # B(z^m) has B's nonzeros over m times its length: with it on either
    # side the product kernel loops over one factor or the other.
    b = data.draw(sparse_masks(d=a.d))
    m = data.draw(st.integers(min_value=2, max_value=8))
    spread = b.substitute_power(m)
    sa, sspread = mask_symbol_reference(a), mask_symbol_reference(b).substitute_power(m)
    assert spread == mask_from_symbol_reference(sspread)
    for x, y, sx, sy in ((a, spread, sa, sspread), (spread, a, sspread, sa)):
        product = sx * sy
        if product.is_zero():
            with pytest.raises(ValueError):
                x * y
        else:
            assert x * y == mask_from_symbol_reference(product)


def test_mask_product_refuses_other_sizes():
    with pytest.raises(ValueError, match="shape mismatch"):
        hat_mask() * ref2_mask()
    with pytest.raises(ValueError):
        hat_mask().substitute_power(0)


def test_from_symbol_checks_shape_and_entries():
    one = LaurentPoly.one()
    with pytest.raises(ValueError, match="square"):
        Mask.from_symbol([[one, one]])
    with pytest.raises(ValueError, match="square"):
        Mask.from_symbol([])
    with pytest.raises(TypeError, match="LaurentPoly"):
        Mask.from_symbol([[one, 1], [one, one]])
    with pytest.raises(TypeError, match="LaurentPoly"):
        Mask.from_symbol([[Poly.one()]])


def test_mask_validates_shape():
    with pytest.raises(Exception):
        Mask(0, (((F(1),), (F(0),)),))  # ragged rows


def test_chain_container():
    vecs = tuple(
        PolyVec(tuple(Poly(cs) for cs in vec)) for vec in REF2_SPECTRAL_CHAIN
    )
    ch = Chain(vecs)
    assert ch.d == 2
    assert ch.last == vecs[-1]


float_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(min_value=-1e-300, max_value=1e-300),
)
exact_values = st.one_of(
    st.integers(min_value=-9, max_value=9),
    rationals(-9, 9, 64),
)


def assert_same_columns(got, want, exact):
    """Exact data must be equal Fractions; floats must be floats whose bits
    equal the reference's."""
    assert len(got) == len(want)
    for got_col, want_col in zip(got, want):
        assert len(got_col) == len(want_col)
        for g, w in zip(got_col, want_col):
            if exact:
                assert type(g) is F and g == w
            else:
                assert type(g) is float and g.hex() == float(w).hex()


@given(
    sparse_masks(),
    st.booleans(),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=-5, max_value=5),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_kernel_matches_fraction_reference(mask, exact, level, start, data):
    size = mask.d + 1
    column = st.lists(
        exact_values if exact else float_values, min_size=size, max_size=size
    ).map(tuple)
    values = data.draw(st.lists(column, min_size=1, max_size=14))
    try:
        want = hermite_step_reference(mask, values, start, level)
    except WindowTooSmall:
        with pytest.raises(WindowTooSmall):
            step(mask, values, start, level)
        return
    got = step(mask, values, start, level)
    assert got[1] == want[1]
    assert_same_columns(got[0], want[0], exact)


# Nonzero magnitudes from 2^-500 to 2^500 only, in either sign.
normal_range_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.builds(
        lambda sign, v: sign * v,
        st.sampled_from([1.0, -1.0]),
        st.floats(min_value=2.0**-500, max_value=2.0**500),
    ),
)


@given(
    sparse_masks(),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=-5, max_value=5),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_level_step_matches_prescaled_order_off_the_subnormal_range(mask, level, start, data):
    # With levels up to 6, d <= 3 and entries from 1/12 to 3 in magnitude,
    # no value times 2^-(level k), no product and no partial sum of either
    # order is subnormal or overflows on these rows. There the level-n
    # mask's float(A_n) * value rounds exactly as the pre-scale, sum,
    # post-scale order does, infinities and NaN included.
    n = data.draw(st.integers(min_value=1, max_value=14))
    rows = [
        data.draw(st.lists(normal_range_floats, min_size=n, max_size=n))
        for _ in range(mask.d + 1)
    ]
    spots = st.tuples(
        st.integers(0, mask.d), st.integers(0, n - 1), st.sampled_from([inf, -inf, nan])
    )
    for k, j, v in data.draw(st.lists(spots, max_size=2)):
        rows[k][j] = v
    grid = row_grid(level, start, rows, None)
    try:
        want, want_lo = float_step_prescaled_reference(mask, rows, start, level)
    except WindowTooSmall:
        with pytest.raises(WindowTooSmall):
            level_step(mask, grid)
        return
    got = level_step(mask, grid)
    assert got._den is None and got.start == want_lo
    assert [[v.hex() for v in row] for row in got._rows] == [
        [v.hex() for v in row] for row in want
    ]


def test_level_step_rounds_subnormal_data_by_the_level_mask():
    # At level 1 the old order multiplied 2^-1023 / 4 by 1/3 and then by 16.
    # Below 2^-1022 a float's precision falls with its size, so that product
    # kept fewer bits than the level-n mask's (4/3) 2^-1023 does.
    m = Mask(0, (((0, 0, 0), (0, 0, 0), (0, 0, F(1, 3))), ((0, 0, 0), (0, 0, 0), (0, 0, 1))))
    values = [(0.0, 0.0, 0.0), (0.0, 0.0, 1.1125369292536007e-308)]
    grid = DyadicGrid(1, 0, values)
    out = level_step(m, grid)
    got = out._rows
    old, old_lo = float_step_prescaled_reference(m, grid._rows, 0, 1)
    want, want_lo = hermite_step_reference(m, values, 0, 1)
    assert out._den is None and out.start == old_lo == want_lo
    assert [v.hex() for v in got[2]] != [v.hex() for v in old[2]]
    assert [[v.hex() for v in row] for row in got] == [
        [v.hex() for v in row] for row in zip(*want)
    ]


# Float classes the sums must carry bit for bit, besides those of
# float_values: subnormals, values that overflow once multiplied,
# infinities and NaN.
special_floats = st.sampled_from(
    [5e-324, -5e-324, 1e-310, 1e308, -1e308, float("inf"), float("-inf"), float("nan")]
)


def stencil_sums_both(mask, rows, a, out_lo, out_hi, exact, level=0):
    """The mask's level plan run by _run_plan, and stencil_sums_reference on
    the level mask's table built from Fractions (stencil_reference), each
    entry written as itself (exact) or as float.hex()."""
    floats, numerators, _ = stencil_reference(mask, level)
    table, zero = (numerators, 0) if exact else (floats, 0.0)
    got = _run_plan(mask._level_plan(level, exact), rows, a, out_lo, out_hi, zero)
    want = stencil_sums_reference(table, rows, a, out_lo, out_hi, zero)
    if exact:
        assert all(type(v) is int for row in got for v in row)
        return got, want
    assert all(type(v) is float for row in got for v in row)
    return [[v.hex() for v in row] for row in got], [[v.hex() for v in row] for row in want]


@given(sparse_masks(), st.booleans(), st.integers(min_value=-4, max_value=4), st.data())
@settings(max_examples=60, deadline=None)
def test_fused_stencil_sums_match_term_loop(mask, exact, a, data):
    s_min, s_max = mask.support
    n = data.draw(st.integers(min_value=s_max - s_min + 1, max_value=12))
    values = st.integers(min_value=-(10**20), max_value=10**20) if exact else float_values
    row = st.lists(values, min_size=n, max_size=n)
    rows = [data.draw(row) for _ in range(mask.d + 1)]
    if not exact:
        # A few special values, so that most sums stay finite and show
        # their rounding.
        spots = st.tuples(st.integers(0, mask.d), st.integers(0, n - 1), special_floats)
        for k, j, v in data.draw(st.lists(spots, max_size=3)):
            rows[k][j] = v
    # Any output range inside the full window, down to one or no output of
    # a parity class.
    full_lo, full_hi = _output_window(mask, a, a + n - 1)
    out_lo = data.draw(st.integers(min_value=full_lo, max_value=full_hi))
    out_hi = data.draw(st.integers(min_value=out_lo, max_value=full_hi))
    # The plan of any level: its coefficients against the level mask's.
    level = data.draw(st.integers(min_value=0, max_value=6))
    got, want = stencil_sums_both(mask, rows, a, out_lo, out_hi, exact, level)
    assert got == want


def test_fused_stencil_sums_one_term_and_empty_rows():
    # Odd alpha of the hat mask has the single term (0, 0): the kernel
    # unpacks one value per zip tuple.
    hat = hat_mask()
    assert [len(terms) for terms_by_row in hat._terms for terms in terms_by_row] == [2, 1]
    rows = [[0.5, -0.0, 1e308, 5e-324, float("nan")]]
    for exact, data in ((False, rows), (True, [[3, -1, 0, 7, 2]])):
        got, want = stencil_sums_both(hat, data, 0, 1, 9, exact)
        assert got == want
    # Row 0 has no term at even alpha: the plan has no entry for it there,
    # and those outputs stay the zero passed in.
    m = Mask(
        -1,
        (
            ((F(1, 2), 0), (F(1, 4), 0)),
            ((0, 0), (0, F(1, 2))),
            ((F(1, 2), 0), (F(-1, 4), 0)),
        ),
    )
    assert [[i for i, _, _ in entries] for entries in m._level_plan(0, False)] == [[1], [0, 1]]
    rows = [[1.5, -2.0, 0.25, 8.0, 3.0], [1.0, 2.0, -0.0, 1e-310, 4.0]]
    out_lo, out_hi = _output_window(m, 0, 4)
    got, want = stencil_sums_both(m, rows, 0, out_lo, out_hi, False)
    assert got == want
    even = got[0][-out_lo % 2 :: 2]
    assert even and even == [(0.0).hex()] * len(even)


def plan_kernels(mask, level, exact):
    return [[kernel for _, kernel, _ in entries] for entries in mask._level_plan(level, exact)]


def test_fused_stencil_kernels_are_shared_by_shape():
    m = ref2_mask()
    scaled = m.scale(3)
    for level, exact in ((0, True), (0, False), (3, True), (2, False)):
        mine, theirs = plan_kernels(m, level, exact), plan_kernels(scaled, level, exact)
        assert all(f is g for fs, gs in zip(mine, theirs) for f, g in zip(fs, gs))
    # Every level and kind of a mask runs the same shapes, and another
    # shape has another kernel.
    assert plan_kernels(m, 0, True) == plan_kernels(m, 5, False)
    others = {f for fs in plan_kernels(m, 0, True) for f in fs}
    assert plan_kernels(hat_mask(), 0, True)[0][0] not in others


def test_level_plans_are_built_once_per_level_and_kind():
    m = ref2_mask()
    assert m._plans == {}
    cascade(m, 4, exact=False)
    floats = dict(m._plans)
    assert sorted(floats) == [(n, False) for n in range(4)]
    cascade(m, 3, exact=True)
    cascade(m, 4, exact=False)
    assert sorted(m._plans) == [(n, exact) for n in range(4) for exact in (False, True)][:-1]
    # The second float cascade ran the plans of the first, and the exact
    # plans are their own: integer numerators, never the floats.
    assert all(m._plans[key] is plan for key, plan in floats.items())
    for (level, exact), plan in m._plans.items():
        kind = int if exact else float
        assert all(type(c) is kind for entries in plan for _, _, cs in entries for c in cs)


def test_an_overflowing_float_level_raises_on_every_try():
    m = ref2_mask()
    rows = [[1.0] * 9 for _ in range(3)]
    for _ in range(2):
        with pytest.raises(ValueError, match="^level 600 is too deep for float rows: "):
            level_step(m, row_grid(600, -4, rows, None))
        assert (600, False) not in m._plans
    # The exact plan of that level exists, and the float levels below run.
    level_step(m, row_grid(600, -4, [[1] * 9 for _ in range(3)], 1))
    assert (600, True) in m._plans
    assert level_step(m, row_grid(5, -4, rows, None))._den is None


def test_level_step_needs_one_row_per_component():
    # Unchecked, the step dropped the second row of the first case without
    # a word. A grid has at least one row, so no step sees none.
    cases = ((hat_mask(), [[1, 0, 0], [0, 1, 0]]), (ref2_mask(), [[1]] * 4))
    for m, rows in cases:
        for den in (1, None):
            data = rows if den else [[float(v) for v in row] for row in rows]
            want = f"^a step of a d = {m.d} mask needs {m.d + 1} rows, got {len(rows)}$"
            with pytest.raises(ValueError, match=want):
                level_step(m, row_grid(2, -1, data, den))
        assert m._plans == {}


def test_float_cascade_holds_only_floats():
    # Row 0 has no entry at even alpha; those outputs were once int 0 and
    # then Fraction(0), which made the grid report itself exact.
    m = Mask(
        -1,
        (
            ((F(1, 2), 0), (F(1, 4), 0)),
            ((0, 0), (0, F(1, 2))),
            ((F(1, 2), 0), (F(-1, 4), 0)),
        ),
    )
    final = cascade(m, 2, exact=False)[-1]
    assert all(type(v) is float for col in final.values for v in col)
    assert final.to_json()["kind"] == "float"


@given(sparse_masks(), st.data())
@settings(max_examples=50, deadline=None)
def test_image_matches_the_term_loop(mask, data):
    # v.d <= mask.d, so the rows of v-hat below v are zero; sparse_masks
    # leaves some output rows with no terms in one parity class or both.
    v = data.draw(poly_vecs(mask.d))
    assert _image(mask, v) == image_reference(mask, v)


@given(poly_vecs(2), st.data())
@settings(max_examples=12, deadline=None)
def test_image_reads_the_vectors_tables_unchanged_by_caching(v, data):
    # The vector keeps its v-hat tables unpadded after the first image and
    # every image pads them to its mask's size; the cache is no field, so
    # ==, hash, repr and to_json are those of a vector that has none.
    masks = [data.draw(sparse_masks(d=v.d + extra)) for extra in (0, 1, 2)]
    fresh = PolyVec(v.components)
    assert "_vhat_tables" not in vars(v)
    first = [_image(mask, v) for mask in masks]
    assert "_vhat_tables" in vars(v)
    assert [_image(mask, v) for mask in masks] == first
    assert first == [image_reference(mask, v) for mask in masks]
    assert v == fresh and hash(v) == hash(fresh)
    assert repr(v) == repr(fresh) and v.to_json() == fresh.to_json()
    assert "_vhat_tables" not in vars(fresh)


def test_image_rows_without_terms_are_zero():
    # Row 0 has no terms at all, row 1 none in the odd class.
    mask = Mask(0, (((0, 0), (1, 2)), ((0, 0), (0, 0)), ((0, 0), (F(1, 3), -1))))
    assert mask._terms[0][0] == mask._terms[1][0] == mask._terms[1][1] == ()
    v = PolyVec((Poly.one(), Poly((F(1, 3), 1))))
    img, vhat, q = _image(mask, v)
    assert (img, vhat, q) == image_reference(mask, v)
    assert img[0][0] == img[1][0] == img[1][1] == [0, 0]
    assert img[0][1] != [0, 0]


eigenvalues = st.sampled_from([F(0), F(1), F(1, 2), F(1, 4), F(-3, 7)])


@given(sparse_masks(), st.data())
@settings(max_examples=80, deadline=None)
def test_eigen_check_matches_fraction_reference(mask, data):
    # v.d may be below mask.d, so the samples are zero-padded at the bottom
    v = data.draw(poly_vecs(mask.d))
    lam = data.draw(eigenvalues)
    assert eigen_check(mask, v, lam) == eigen_check_reference(mask, v, lam)


@given(
    st.sampled_from(sorted(REF2_MASK)),
    rationals(-2, 2, 16).filter(bool),
)
@settings(max_examples=60, deadline=None)
def test_eigen_check_first_failure_on_perturbed_masks(key, delta):
    entries = dict(REF2_MASK)
    entries[key] += delta
    m = mask_from_entries(entries, 2)
    for j, vec in enumerate(REF2_SPECTRAL_CHAIN):
        v = PolyVec(tuple(Poly(cs) for cs in vec))
        got = eigen_check(m, v, F(1, 2**j))
        assert got == eigen_check_reference(m, v, F(1, 2**j))
