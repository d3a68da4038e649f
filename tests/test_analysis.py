"""Norms, contractivity certificates, cascades, convergence verdicts."""

import json
import re
from dataclasses import FrozenInstanceError
from fractions import Fraction as F
from itertools import chain, islice
from math import ceil, floor, inf, lcm, nan

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from goldens import (
    REF2_FACTOR_NORMS,
    REF2_FINAL_RESIDUAL_ROW1,
    REF2_RECONSTRUCT_DEV_LEVEL6,
    TAIL_RATIO_BOUND,
    ZERO_G_FACTOR_NORMS,
)
from hermiteforge import (
    DeltaMissesWindow,
    DyadicGrid,
    LaurentPoly,
    Mask,
    TaylorOperator,
    WindowTooSmall,
    allones_operator,
    analysis,
    cascade,
    check_contractive,
    check_convergence,
    check_spline_cascade,
    classical_operator,
    delta_operator,
    scheme_norm,
    spline_mask,
    spline_verify,
    subdivision,
    synthesize,
)
from hermiteforge.analysis import (
    _convergence_report,
    _iterated_norms,
    delta_grid,
    initial_window,
    taylor_residuals,
)
from hermiteforge.subdivision import _live, level_step
from reference_kernels import (
    cascade_reference,
    coeff,
    convergence_reference,
    entry_symbol,
    grid_csv_reference,
    grid_json_reference,
    is_lower_triangular_reference,
    reconstruct_limits,
    scheme_norm_reference,
    taylor_residuals_reference,
)
from strategies import rationals, sparse_masks, spline_factors


def scalar_mask(p):
    return Mask(p.lo, tuple(((coeff(p, e),),) for e in range(p.lo, p.hi + 1)))


def half_delta():
    return scalar_mask(LaurentPoly({-1: F(1, 2), 0: F(-1, 2)}))


def identity_upsampler(d=1):
    return Mask(
        0, (tuple(tuple(F(1 if i == k else 0) for k in range(d + 1)) for i in range(d + 1)),)
    )


def test_half_delta_norm():
    assert scheme_norm(half_delta()) == F(1, 2)


def test_half_delta_powers_stay_contractive():
    # each residue class of ((z^-1 - 1)/2)^(j+1) sums to 1/2 in absolute
    # value, independently of j
    for j in range(7):
        p = LaurentPoly({-1: F(1, 2), 0: F(-1, 2)}) ** (j + 1)
        assert scheme_norm(scalar_mask(p)) == F(1, 2)


def test_shift_sum_mask_is_not_contractive():
    m = scalar_mask(LaurentPoly({-1: F(1), 0: F(1)}))
    for n in range(1, 5):
        assert scheme_norm(m, n) == 1
    assert not check_contractive(m, n_max=5).contractive


def test_identity_upsampler_norms_stick_at_one():
    m = identity_upsampler()
    for n in range(1, 5):
        assert scheme_norm(m, n) == 1
    assert not check_contractive(m, n_max=5).contractive


def test_nilpotent_mask_has_norm_zero():
    # B*(z) = E_10 squares to zero, so every iterate beyond the first
    # vanishes; the zero iterate once raised "zero symbol has no mask"
    m = Mask(0, (((F(0), F(0)), (F(1), F(0))),))
    assert scheme_norm(m, 1) == 1
    assert scheme_norm(m, 2) == 0
    # Its zero diagonal certifies first, so the joint loop stops at n = 1.
    rep = check_contractive(m, n_max=3)
    assert rep.norms == (F(1),)
    assert rep.certified_by == "diagonal" and rep.diagonal_n_star == 0
    # The transpose E_01 is not lower-triangular: the zero iterate goes
    # through the joint loop.
    rep = check_contractive(Mask(0, (((F(0), F(1)), (F(0), F(0))),)), n_max=3)
    assert not rep.triangular
    assert rep.norms == (F(1), F(0))
    assert rep.certified_by == "joint" and rep.n_star == 2


@st.composite
def small_scalar_masks(draw):
    lo = draw(st.integers(min_value=-3, max_value=0))
    width = draw(st.integers(min_value=1, max_value=4))
    coeffs = [draw(rationals(-3, 3, 6)) for _ in range(width)]
    if not any(coeffs):
        coeffs[0] = F(1)
    return scalar_mask(LaurentPoly({lo + i: c for i, c in enumerate(coeffs)}))


@given(small_scalar_masks(), st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3))
@settings(max_examples=30, deadline=None)
def test_norm_submultiplicative_over_iterates(m, a, b):
    assert scheme_norm(m, a + b) <= scheme_norm(m, a) * scheme_norm(m, b)


def test_reference_factor_norm_sequence(ref2):
    bt = ref2.factorization.factor
    for n, want in enumerate(REF2_FACTOR_NORMS, start=1):
        assert scheme_norm(bt, n) == want


def lower_triangular_part(mask):
    """The mask with every entry above the diagonal zeroed; a draw whose
    part is zero is discarded."""
    d = mask.d
    coeffs = [[row[: i + 1] + (0,) * (d - i) for i, row in enumerate(m)] for m in mask.coeffs]
    assume(any(v for m in coeffs for row in m for v in row))
    return Mask(mask.support_min, coeffs)


def strictly_lower_part(mask):
    """The mask with every entry on and above the diagonal zeroed, which is
    nilpotent: its iterates vanish from n = d + 1 on. A draw whose part is
    zero is discarded."""
    d = mask.d
    coeffs = [[row[:i] + (0,) * (d + 1 - i) for i, row in enumerate(m)] for m in mask.coeffs]
    assume(any(v for m in coeffs for row in m for v in row))
    return Mask(mask.support_min, coeffs)


def first_norms_agree(mask, count):
    """The first count norms of _iterated_norms, which scheme_norm and
    check_contractive read, against their definition."""
    want = [scheme_norm_reference(mask, n) for n in range(1, count + 1)]
    assert list(islice(_iterated_norms(mask), count)) == want
    return want


@given(
    st.one_of(
        sparse_masks(),
        sparse_masks().map(lower_triangular_part),
        sparse_masks().map(strictly_lower_part),
        sparse_masks(d=0),
    ),
    st.sampled_from([F(1), F(1, 4), F(1, 16)]),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=60, deadline=None)
def test_integer_norms_match_fraction_reference(mask, scale, n_max):
    # Full, lower and strictly lower masks, and 1x1 ones, scaled down: the
    # norms against the residue-class sums of the iterated symbol, and the
    # report's joint norms are the first of them, up to the first below 1.
    mask = mask.scale(scale)
    want = first_norms_agree(mask, n_max)
    assert [scheme_norm(mask, n) for n in range(1, n_max + 1)] == want
    if not any(any(e) for i, row in enumerate(mask._num) for e in row[i:]):
        # Strictly lower: the iterate has vanished by n = d + 1.
        assert want[mask.d :] == [0] * (n_max - mask.d)
    rep = check_contractive(mask, n_max=n_max)
    assert list(rep.norms) == want[: len(rep.norms)]
    below = [n for n, v in enumerate(rep.norms, start=1) if v < 1]
    assert rep.n_star == (below[0] if below else None) and below[1:] == []
    assert rep.triangular == is_lower_triangular_reference(mask)


@given(spline_factors)
@settings(max_examples=4, deadline=None)
def test_spline_factor_norms_are_pinned_by_their_definition(case):
    # The known failure: the d = r spline factors are not contractive,
    # with every joint norm 2^(r+1) - 1.
    r, factor = case
    assert first_norms_agree(factor, 3) == [2 ** (r + 1) - 1] * 3


@pytest.mark.parametrize(
    "coeffs",
    [
        (((0, 0), (1, 0)),),  # E_10
        (((0, 1), (0, 0)),),  # E_01
        (((0, 0), (1, 0)), ((0, 0), (F(-1, 2), 0))),  # E_10 (1 - z/2)
        (((0, 0, 0), (1, 0, 0), (0, 1, 0)), ((0, 0, 0), (0, 0, 0), (3, 0, 0))),
    ],
)
def test_nilpotent_norms_drop_to_zero_as_in_the_product_loop(coeffs):
    mask = Mask(-1, coeffs)
    want = first_norms_agree(mask, 6)
    assert want[mask.d :] == [0] * (6 - mask.d)
    assert all(v > 0 for v in want[: mask.d])


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda m: scheme_norm(m, True), "n"),
        (lambda m: scheme_norm(m, 2.0), "n"),
        (lambda m: check_contractive(m, True), "n_max"),
        (lambda m: check_contractive(m, 3.0), "n_max"),
        (lambda m: cascade(m, True), "levels"),
        (lambda m: cascade(m, 2.0, exact=True), "levels"),
        (lambda m: check_convergence(m, True), "levels"),
        (lambda m: check_convergence(m, 4.0), "levels"),
        (lambda m: check_spline_cascade(2, 1, levels=True), "levels"),
        (lambda m: check_spline_cascade(2, 1, levels=9.0), "levels"),
    ],
    ids=[
        "scheme_norm-bool", "scheme_norm-float", "contractive-bool", "contractive-float",
        "cascade-bool", "cascade-float", "convergence-bool", "convergence-float",
        "spline-bool", "spline-float",
    ],
)
def test_iterate_and_level_counts_must_be_ints(call, name):
    # True is not read as 1, nor 2.0 as 2: each is refused by name.
    with pytest.raises(TypeError, match=f"^{name} must be an int, got "):
        call(half_delta())


def test_reference_factor_certificates(ref2):
    bt = ref2.factorization.factor
    for n_max in (4, 6):
        rep = check_contractive(bt, n_max=n_max)
        assert rep.contractive
        assert rep.certified_by == "diagonal"
        assert rep.triangular
        assert rep.diagonal_norms == (F(1, 2), F(1, 2), F(1, 2))
        assert rep.diagonal_n_star == 1
        # The diagonal certified at n = 1, so the joint loop stops there.
        assert rep.norms == (F(9, 2),) and rep.n_star is None
    # The joint certificate exists too, first at n = 6.
    assert all(scheme_norm(bt, n) >= 1 for n in range(1, 6))
    assert scheme_norm(bt, 6) < 1


def _diagonal_certificate(mask, n_max):
    """(norms, n_star) of the diagonal certificate by its definition: each
    nonzero diagonal entry as a 1x1 mask, read off the entry symbols with
    one Fraction each, has its norms taken from n = 1 to the first below 1
    or to n_max, and reports the last; a zero entry reports 0. n_star is
    the largest of those n, or None when an entry has none."""
    norms, n_star = [], 0
    for i in range(mask.d + 1):
        sym = entry_symbol(mask, i, i)
        if sym.is_zero:
            norms.append(F(0))
            continue
        scalar = Mask.from_symbol([[sym]])
        for n in range(1, n_max + 1):
            norms[i:] = [scheme_norm_reference(scalar, n)]
            if norms[i] < 1:
                n_star = n_star if n_star is None else max(n_star, n)
                break
        else:
            n_star = None
    return tuple(norms), n_star


@given(sparse_masks(), st.booleans(), st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_contractive_is_either_certificate(mask, lower, n_max):
    if lower:
        mask = lower_triangular_part(mask)
    rep = check_contractive(mask, n_max=n_max)
    diagonal = (), None
    if rep.triangular:
        diagonal = _diagonal_certificate(mask, n_max)
    assert (rep.diagonal_norms, rep.diagonal_n_star) == diagonal
    joint = any(scheme_norm_reference(mask, n) < 1 for n in range(1, n_max + 1))
    certified = rep.diagonal_n_star is not None
    assert rep.contractive == (certified or joint)
    assert rep.certified_by == ("joint" if rep.n_star else "diagonal" if certified else None)
    if certified:
        limit = max(1, rep.diagonal_n_star)
        assert len(rep.norms) <= limit
        if rep.n_star is None:
            assert len(rep.norms) == limit and rep.certified_by == "diagonal"


def test_synthesized_factor_reports_one_joint_norm():
    seed = LaurentPoly({0: F(1, 2), 1: F(1, 2)}) ** 2
    rep = check_contractive(synthesize(classical_operator(3), seed).factorization.factor, n_max=4)
    assert rep.certified_by == "diagonal" and rep.diagonal_n_star == 1
    assert len(rep.norms) == 1 and rep.norms[0] > 1


# (r, d) -> (certified_by, n_star) at n_max = 4, for the spline factors r <= 4.
SPLINE_FACTOR_CERTIFICATES = {
    (r, d): ("joint", d + 1) if d < r else (None, None) for r in range(1, 5) for d in range(r + 1)
}


@pytest.mark.parametrize("r, d", sorted(SPLINE_FACTOR_CERTIFICATES))
def test_spline_factor_certificates(r, d):
    rep = check_contractive(spline_verify(r, d)[1].factor, n_max=4)
    assert (rep.certified_by, rep.n_star) == SPLINE_FACTOR_CERTIFICATES[r, d]
    assert rep.contractive == (d < r)
    # Only the scalar factor is triangular; its diagonal is itself.
    assert rep.triangular == (d == 0)
    assert rep.diagonal_n_star == (1 if d == 0 else None)
    if d == r:
        assert rep.norms == (F(2 ** (r + 1) - 1),) * 4


def test_zero_g_factor_norms(zero_g):
    for d, wants in ZERO_G_FACTOR_NORMS.items():
        bt = zero_g[d].factorization.factor
        for n, want in enumerate(wants, start=1):
            assert scheme_norm(bt, n) == want


def test_exact_and_float_cascades_agree(ref2):
    exact = cascade(ref2.mask, 6, "delta", (-4, 4), exact=True)[-1]
    approx = cascade(ref2.mask, 6, "delta", (-4, 4), exact=False)[-1]
    assert exact.start == approx.start
    worst = max(
        abs(float(exact.values[i][k]) - approx.values[i][k])
        for i in range(exact.npoints)
        for k in range(3)
    )
    # every value is a dyadic rational, exactly representable in a double
    assert worst == 0.0


# Ints, and Fractions over mixed denominators of either sign.
grid_entries = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.builds(F, st.integers(min_value=-24, max_value=24), st.integers(min_value=1, max_value=12)),
)


@st.composite
def exact_init_grids(draw, d):
    """Explicit exact level-n data; about one column in four is all zero,
    as int 0 or Fraction 0."""
    columns = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            zero = draw(st.sampled_from([0, F(0)]))
            columns.append((zero,) * (d + 1))
        else:
            columns.append(tuple(draw(grid_entries) for _ in range(d + 1)))
    level = draw(st.integers(min_value=0, max_value=3))
    return DyadicGrid(level, draw(st.integers(min_value=-6, max_value=6)), tuple(columns))


@given(sparse_masks(), st.integers(min_value=0, max_value=6), st.data())
@settings(max_examples=50, deadline=None)
def test_exact_cascade_matches_fraction_reference(mask, levels, data):
    init = data.draw(exact_init_grids(mask.d))
    try:
        want = cascade_reference(mask, levels, init)
    except WindowTooSmall:
        with pytest.raises(WindowTooSmall):
            cascade(mask, levels, init, exact=True)
        return
    got = cascade(mask, levels, init, exact=True)
    assert len(got) == levels + 1 and got[0] is init
    for g, w in zip(got[1:], want[1:]):
        assert (g.level, g.start, g.npoints, g.d) == (w.level, w.start, w.npoints, w.d)
        assert g.is_exact
        # The bytes are written from the integers, before values is read.
        assert json.dumps(g.to_json()) == json.dumps(grid_json_reference(w))
        assert g.to_csv() == grid_csv_reference(w)
        # One denominator per level, with the common factor divided out.
        assert g._den == lcm(*(v.denominator for col in w.values for v in col))
        assert all(type(v) is F for col in g.values for v in col)
        assert g.values == w.values and g == w


def test_exact_grid_builds_values_once():
    g = cascade(half_delta(), 3, exact=True)[-1]
    assert g.values is g.values
    assert g == DyadicGrid(g.level, g.start, tuple(tuple(col) for col in g.values))
    assert "__getattr__" not in vars(DyadicGrid)
    with pytest.raises(AttributeError):
        g.level = 0


# Signed zeros, and values near 1e-300 whose products with the level-n
# mask's small coefficients fall into the subnormal range.
finite_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1.0]),
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(min_value=-1e-300, max_value=1e-300),
)


@st.composite
def float_init_grids(draw, d):
    """Explicit float level-n data; in about one grid in two, one entry is a
    NaN or an infinity, often in the first or the last column, where a
    window clipped at the grid's edge starts or ends."""
    columns = [
        [draw(finite_floats) for _ in range(d + 1)]
        for _ in range(draw(st.integers(min_value=1, max_value=16)))
    ]
    if draw(st.booleans()):
        last = len(columns) - 1
        n = draw(st.one_of(st.sampled_from([0, last]), st.integers(min_value=0, max_value=last)))
        columns[n][draw(st.integers(min_value=0, max_value=d))] = draw(
            st.sampled_from([nan, inf, -inf])
        )
    level = draw(st.integers(min_value=0, max_value=3))
    start = draw(st.integers(min_value=-6, max_value=6))
    return DyadicGrid(level, start, tuple(tuple(col) for col in columns))


def float_hex(grid):
    return [v.hex() for col in grid.values for v in col]


@given(st.integers(min_value=0, max_value=3), st.data())
@settings(max_examples=50, deadline=None)
def test_float_grid_json_round_trips(d, data):
    # from_json reads back exactly what to_json writes: signed zeros,
    # subnormals, infinities and NaN included.
    grid = data.draw(float_init_grids(d))
    doc = json.loads(json.dumps(grid.to_json()))
    back = DyadicGrid.from_json(doc)
    assert back.to_json() == doc
    assert (back.level, back.start, float_hex(back)) == (grid.level, grid.start, float_hex(grid))


@pytest.mark.parametrize(
    "text", ["1_0", " 0", "0 ", "+1", "1E3", "1e3", ".5", "1.", "Infinity", "-nan", "NaN", "\u0661", 1.5, True]
)
def test_float_grid_refuses_what_to_json_never_writes(text):
    doc = {"level": 0, "start": 0, "kind": "float", "values": [[text]]}
    with pytest.raises(ValueError, match="a float must be plain decimal digits, inf or nan"):
        DyadicGrid.from_json(doc)


def test_grid_entries_are_not_bools():
    # True is an int to Python, but never the grid value 1.
    for values in (((True, False),), ((F(1), False),), ((1, 0), (True, 2))):
        with pytest.raises(TypeError, match="^grid entries must be all ints and Fractions"):
            DyadicGrid(0, 0, values)


@pytest.mark.parametrize(
    "level, start, message",
    [
        (True, -4, "level must be an int, got True"),
        (1.5, 0, "level must be an int, got 1.5"),
        (0, 1.5, "start must be an int, got 1.5"),
        (0, False, "start must be an int, got False"),
    ],
)
def test_grid_level_and_start_are_ints(level, start, message):
    # Unchecked, a cascade from such a grid failed deep inside a step, and
    # the residuals of a level-0.5 grid came out as numbers.
    for values in (((F(1),),), ((1.0,),)):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            DyadicGrid(level, start, values)


def test_grid_level_must_be_nonnegative():
    for values in (((F(1),),), ((1.0,),)):
        with pytest.raises(ValueError, match="a grid level must be nonnegative, got -2"):
            DyadicGrid(-2, 0, values)


@given(sparse_masks(), st.integers(min_value=0, max_value=6), st.data())
@settings(max_examples=80, deadline=None)
def test_float_cascade_matches_column_reference(mask, levels, data):
    init = data.draw(float_init_grids(mask.d))
    taylor = data.draw(
        st.sampled_from([None, classical_operator(mask.d), allones_operator(mask.d)])
    )
    # Integer x-coordinates around the grid's span [x0, x1], so that the
    # window is often clipped at one edge of the grid or at both.
    x0, x1 = floor(init.x(0)), ceil(init.x(init.npoints - 1))
    lo = data.draw(st.integers(min_value=x0 - 2, max_value=x1))
    window = (lo, data.draw(st.integers(min_value=lo, max_value=x1 + 2)))
    try:
        want = cascade_reference(mask, levels, init)
    except WindowTooSmall:
        with pytest.raises(WindowTooSmall):
            cascade(mask, levels, init)
        return
    got = cascade(mask, levels, init)
    assert len(got) == levels + 1 and got[0] is init
    for g, w in zip(got, want):
        assert (g.level, g.start, g.npoints, g.d) == (w.level, w.start, w.npoints, w.d)
        assert not g.is_exact
        # The bytes are written from the rows, before values is read.
        assert json.dumps(g.to_json()) == json.dumps(grid_json_reference(w))
        assert g.to_csv() == grid_csv_reference(w)
        assert all(type(v) is float for col in g.values for v in col)
        assert float_hex(g) == float_hex(w)
        # repr tells every float apart by its bits, except NaN payloads.
        got_res = taylor_residuals(g, window, taylor)
        assert repr(got_res) == repr(taylor_residuals_reference(w, window, taylor))
    if levels:
        got_rep = _convergence_report(got, window, 0.9, 1e-4, taylor)
        assert repr(got_rep) == repr(convergence_reference(want, window, 0.9, 1e-4, taylor))


@given(sparse_masks(), st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=30, deadline=None)
def test_a_second_cascade_runs_the_kept_plans(mask, levels, data):
    # The second cascade of a mask runs the plans the first one kept, and
    # an equal mask built afresh compiles its own: all three agree, the
    # float grids bit for bit and the exact ones row for row.
    init = data.draw(float_init_grids(mask.d))
    ints = st.lists(st.integers(-(10**6), 10**6), min_size=mask.d + 1, max_size=mask.d + 1)
    exact_init = DyadicGrid(0, init.start, tuple(tuple(data.draw(ints)) for _ in init.values))
    try:
        first = [cascade(mask, levels, g, exact=g.is_exact) for g in (init, exact_init)]
    except WindowTooSmall:
        return
    assert sorted(mask._plans) == sorted(
        [(n, False) for n in range(init.level, init.level + levels)]
        + [(n, True) for n in range(levels)]
    )
    fresh = Mask(mask.support_min, mask.coeffs)
    for other in (mask, fresh):
        floats, exact = [cascade(other, levels, g, exact=g.is_exact) for g in (init, exact_init)]
        assert [float_hex(g) for g in floats] == [float_hex(g) for g in first[0]]
        assert [(g._rows, g._den) for g in exact] == [(g._rows, g._den) for g in first[1]]


@st.composite
def zero_padded_grids(draw, d, exact):
    """Explicit level-n data with runs of all-zero columns at both ends and
    inside: int 0 in exact grids, +0.0 and -0.0 in float grids, where in
    about one grid in two one entry anywhere is a NaN or an infinity."""
    if exact:
        entries, zeros = st.integers(min_value=-6, max_value=6), st.just(0)
    else:
        entries, zeros = finite_floats, st.sampled_from([0.0, -0.0])

    def block(kind, most):
        n = draw(st.integers(min_value=0, max_value=most))
        return [[draw(kind) for _ in range(d + 1)] for _ in range(n)]

    columns = block(zeros, 8) + block(entries, 4)
    columns += block(zeros, 4) + block(entries, 4) + block(zeros, 8)
    if not columns:
        columns = [[draw(zeros) for _ in range(d + 1)]]
    if not exact and draw(st.booleans()):
        n = draw(st.integers(min_value=0, max_value=len(columns) - 1))
        columns[n][draw(st.integers(min_value=0, max_value=d))] = draw(
            st.sampled_from([nan, inf, -inf])
        )
    level = draw(st.integers(min_value=0, max_value=3))
    start = draw(st.integers(min_value=-8, max_value=6))
    return DyadicGrid(level, start, tuple(tuple(col) for col in columns))


@given(sparse_masks(), st.integers(min_value=0, max_value=4), st.booleans(), st.data())
@settings(max_examples=50, deadline=None)
def test_a_cascade_over_zero_runs_matches_the_reference(mask, levels, exact, data):
    # Steps and diagnostics skip the columns that can only hold zeros; the
    # values they write there, and every diagnostic, keep their bits.
    init = data.draw(zero_padded_grids(mask.d, exact))
    try:
        want = cascade_reference(mask, levels, init)
    except WindowTooSmall:
        with pytest.raises(WindowTooSmall):
            cascade(mask, levels, init, exact=exact)
        return
    got = cascade(mask, levels, init, exact=exact)
    for g, w in zip(got, want):
        assert (g.level, g.start, g.npoints) == (w.level, w.start, w.npoints)
        if exact:
            assert (g._rows, g._den) == (w._rows, w._den)
        else:
            assert float_hex(g) == float_hex(w)
    if exact:
        return
    x0, x1 = floor(init.x(0)), ceil(init.x(init.npoints - 1))
    lo = data.draw(st.integers(min_value=x0 - 2, max_value=x1))
    window = (lo, data.draw(st.integers(min_value=lo, max_value=x1 + 2)))
    for g, w in zip(got, want):
        assert repr(taylor_residuals(g, window)) == repr(taylor_residuals_reference(w, window))
    if levels:
        got_rep = _convergence_report(got, window, 0.9, 1e-4, None)
        assert repr(got_rep) == repr(convergence_reference(want, window, 0.9, 1e-4, None))


def fresh_pool_mask():
    """A d = 1 scheme supported on [-4, 0], as the render masks are, built
    afresh so that it holds no plan yet."""
    mask = synthesize(delta_operator(1), LaurentPoly({0: F(1, 2), 1: F(1, 2)})).mask
    return Mask(mask.support_min, mask.coeffs)


def test_all_zero_data_still_compiles_and_checks_every_level(ref2):
    # No column is off zero, so no output is computed: every row comes out
    # 0 (or +0.0 from -0.0 data), and each (level, kind) still has its plan.
    mask = fresh_pool_mask()
    floats = DyadicGrid(1, -8, tuple((-0.0, 0.0) for _ in range(12)))
    ints = DyadicGrid(0, -8, tuple((0, F(0)) for _ in range(12)))
    for grid in (floats, ints):
        for g in cascade(mask, 4, grid, exact=grid.is_exact)[1:]:
            if grid.is_exact:
                assert g._den == 1 and all(v == 0 for row in g._rows for v in row)
            else:
                assert all(v.hex() == "0x0.0p+0" for row in g._rows for v in row)
    assert sorted(mask._plans) == sorted(
        [(n, False) for n in range(1, 5)] + [(n, True) for n in range(4)]
    )
    # A level beyond the float range raises on zeros as on any data.
    zeros = DyadicGrid(600, -8, tuple((0.0, -0.0, 0.0) for _ in range(12)))
    for _ in range(2):
        with pytest.raises(ValueError, match="^level 600 is too deep for float rows: "):
            cascade(ref2.mask, 1, zeros)
        assert (600, False) not in ref2.mask._plans


def test_a_residual_reads_the_point_left_of_the_data():
    # Entry alpha reads the columns alpha and alpha + 1, so the point left
    # of the first nonzero column counts. Here it holds the whole residual,
    # |1 - 0|, while the column itself balances: |0 - 1 - 1 * (-1)| = 0.
    for zero, one in ((0, 1), (0.0, 1.0)):
        cols = [(zero, zero)] * 4 + [(one, -one)] + [(zero, zero)] * 3
        assert taylor_residuals(DyadicGrid(0, -4, tuple(cols)), (-4, 3)) == (1.0,)


@given(sparse_masks(), st.integers(min_value=0, max_value=4), st.booleans(), st.data())
@settings(max_examples=40, deadline=None)
def test_every_grid_records_the_span_of_its_rows(mask, levels, exact, data):
    # The next step and the diagnostics trust the recorded span; one that is
    # off by a column skips live outputs or reads past the data.
    init = data.draw(st.one_of(st.just("delta"), zero_padded_grids(mask.d, exact)))
    try:
        grids = cascade(mask, levels, init, exact=exact)
    except (WindowTooSmall, DeltaMissesWindow):
        return
    for g in grids:
        assert g._span == _live(g._rows)
        assert (g._span is None) == (not any(chain.from_iterable(g._rows)))


def test_no_padded_row_is_scanned_for_its_span(monkeypatch):
    # Each grid records its span where its rows are made, so the only rows
    # _live sees are the sums a step computed, never rows padded out to the
    # window; the delta grid hands over its span too.
    run_plan, live = subdivision._run_plan, subdivision._live
    computed, scanned = [], []

    def plan_spy(*args):
        computed.append(run_plan(*args))
        return computed[-1]

    def live_spy(rows):
        scanned.append(rows)
        return live(rows)

    monkeypatch.setattr(subdivision, "_run_plan", plan_spy)
    monkeypatch.setattr(subdivision, "_live", live_spy)
    # analysis once scanned grids with its own import of _live.
    monkeypatch.setattr(analysis, "_live", live_spy, raising=False)
    check_convergence(fresh_pool_mask(), 8)
    assert len(computed) == 8
    assert len(scanned) == 8 and all(rows is sums for rows, sums in zip(scanned, computed))


def test_a_step_computes_only_the_outputs_its_data_reach(monkeypatch):
    # A delta cascade is nonzero only over the mask's support, while the
    # windows are symmetric about 0. Each step computes the outputs that its
    # nonzero columns p..q reach, 2p + s_min .. 2q + s_max, and no others:
    # well under 60% of the outputs it returns.
    run_plan = subdivision._run_plan
    asked = []

    def spy(plan, rows, a, out_lo, out_hi, zero):
        live = [j for j, col in enumerate(zip(*rows)) if any(col)]
        asked.append((a + live[0], a + live[-1], out_lo, out_hi))
        return run_plan(plan, rows, a, out_lo, out_hi, zero)

    monkeypatch.setattr(subdivision, "_run_plan", spy)
    pool = fresh_pool_mask()
    assert pool.support == (-4, 0) and spline_mask(1, 0).support == (0, 2)
    for mask, window in ((spline_mask(1, 0), (-3, 3)), (pool, (-4, 4))):
        s_min, s_max = mask.support
        for exact in (False, True):
            asked.clear()
            grids = cascade(mask, 6, window=window, exact=exact)
            assert len(asked) == 6
            for p, q, lo, hi in asked:
                assert 2 * p + s_min <= lo <= hi <= 2 * q + s_max
            computed = sum(hi - lo + 1 for _, _, lo, hi in asked)
            assert computed < 0.6 * sum(g.npoints for g in grids[1:])


@given(sparse_masks(), st.integers(min_value=3, max_value=6), st.data())
@settings(max_examples=30, deadline=None)
def test_convergence_matches_column_reference(mask, levels, data):
    window = (data.draw(st.integers(-4, 0)), data.draw(st.integers(0, 4)))
    taylor = data.draw(st.sampled_from([None, classical_operator(mask.d)]))
    a, b = initial_window(mask, window, levels)
    if not a <= 0 <= b:
        # A support far off the origin: the delta never reaches the window.
        with pytest.raises(DeltaMissesWindow):
            check_convergence(mask, levels, window, taylor=taylor)
        return
    delta = tuple(
        tuple(1.0 if (alpha == 0 and k == 0) else 0.0 for k in range(mask.d + 1))
        for alpha in range(a, b + 1)
    )
    grids = cascade_reference(mask, levels, DyadicGrid(0, a, delta))
    want = convergence_reference(grids, window, 0.9, 1e-4, taylor)
    got = check_convergence(mask, levels, window, taylor=taylor)
    assert repr(got) == repr(want)


def test_float_grid_builds_values_once():
    g = cascade(half_delta(), 3)[-1]
    assert g.values is g.values
    assert all(type(v) is float for col in g.values for v in col)
    assert g == DyadicGrid(g.level, g.start, tuple(tuple(col) for col in g.values))
    # Dyadic data: the float and exact cascades hold equal values.
    assert g == cascade(half_delta(), 3, exact=True)[-1]
    assert not g.is_exact
    # Frozen: a field and a new name alike raise FrozenInstanceError.
    for name in ("level", "_rows", "foo"):
        with pytest.raises(FrozenInstanceError):
            setattr(g, name, 0)
    with pytest.raises(FrozenInstanceError):
        del g.level


def test_cascade_rejects_init_of_the_other_kind():
    m = half_delta()
    floats = DyadicGrid(0, -4, tuple((float(i == 4),) for i in range(9)))
    ints = DyadicGrid(0, -4, tuple((int(i == 4),) for i in range(9)))
    for grid, exact in ((floats, True), (ints, False)):
        with pytest.raises(ValueError):
            cascade(m, 2, grid, exact=exact)
    fractions = DyadicGrid(0, -4, tuple((F(int(i == 4)),) for i in range(9)))
    assert cascade(m, 2, ints, exact=True)[-1] == cascade(m, 2, fractions, exact=True)[-1]
    assert not cascade(m, 2, floats)[-1].is_exact
    # Plain ints make an exact grid.
    assert ints.is_exact and ints.to_json()["kind"] == "exact"
    assert all(type(v) is F for col in ints.values for v in col)
    # Mixed columns are refused when a grid is built.
    mixed = tuple((F(1) if i == 4 else 0.0,) for i in range(9))
    with pytest.raises(TypeError):
        DyadicGrid(0, -4, mixed)
    for columns in ((), ((),), ((F(1),), (F(1), F(0)))):
        with pytest.raises(ValueError):
            DyadicGrid(0, -4, columns)


def test_delta_cascade_of_a_mask_off_the_origin():
    # The hat moved from alpha = -1..1 to 5..7: on the default window
    # initial_window leaves out the origin, so the delta would never reach
    # the window and every verdict on it would be empty. Both entry points
    # refuse it, at the parent's cost however far off the support lies.
    hat = scalar_mask(LaurentPoly({-1: F(1, 2), 0: F(1), 1: F(1, 2)}))
    moved = Mask(5, hat.coeffs)
    assert initial_window(moved, (-4, 4), 5) == (-10, -1)
    for m in (moved, Mask(10**6, hat.coeffs), Mask(5, (((F(3),),),))):
        with pytest.raises(DeltaMissesWindow, match="choose a window nearer it"):
            cascade(m, 5)
        with pytest.raises(DeltaMissesWindow):
            check_convergence(m, 5)
    # On a window nearer the support the hat still converges, and a
    # divergent mask moved as far is still caught.
    assert check_convergence(moved, 8, (4, 8)).ok
    assert not check_convergence(Mask(5, (((F(3),),),)), 8, (4, 8)).ok
    # At 3 levels its differences on that window are 0, 0 and 27: growth
    # from nothing is an infinite ratio, not decay.
    short = check_convergence(Mask(5, (((F(3),),),)), 3, (4, 8))
    assert short.sup_differences == (0.0, 0.0, 27.0)
    assert short.ratios == (0.0, inf) and not short.ok
    wide = cascade(hat, 5, window=(-12, 12), exact=True)
    for n, g in enumerate(cascade(moved, 5, window=(2, 10), exact=True)):
        # Each level moves the data by 6 more points than twice the last.
        lo = g.start - 6 * (2**n - 1) - wide[n].start
        assert 0 <= lo and lo + g.npoints <= wide[n].npoints
        assert g.values == wide[n].values[lo : lo + g.npoints]
        assert any(col[0] for col in g.values)


def test_a_reversed_window_is_refused():
    # On (0, -1) the parent compared nothing and called this divergent mask
    # convergent; on (3, 1) it blamed the mask's support.
    mask = synthesize(delta_operator(1), LaurentPoly({0: F(1, 2), 1: F(1, 2)})).mask.scale(3)
    assert not check_convergence(mask, levels=6).ok
    for window in ((0, -1), (3, 1)):
        want = re.escape(f"window {window} is reversed")
        with pytest.raises(ValueError, match=want):
            check_convergence(mask, levels=6, window=window)
        for exact in (False, True):
            with pytest.raises(ValueError, match=want):
                cascade(mask, 2, window=window, exact=exact)
    assert len(cascade(mask, 2, window=(0, 0))) == 3


@pytest.mark.parametrize(
    "window, error, message",
    [
        ((True, 4), TypeError, "a window's ends must be ints, got (True, 4)"),
        ((-4, False), TypeError, "a window's ends must be ints, got (-4, False)"),
        ((-4.5, 4), TypeError, "a window's ends must be ints, got (-4.5, 4)"),
        ((-4, 4.0), TypeError, "a window's ends must be ints, got (-4, 4.0)"),
        ([-4, 4], TypeError, "a window must be a tuple (a, b) of ints, got [-4, 4]"),
        (4, TypeError, "a window must be a tuple (a, b) of ints, got 4"),
        ((-4, 4, 5), ValueError, "a window must be a pair (a, b), got (-4, 4, 5)"),
        ((4,), ValueError, "a window must be a pair (a, b), got (4,)"),
        ((3, 1), ValueError, "window (3, 1) is reversed: its end lies before its start"),
    ],
    ids=[
        "bool-start", "bool-end", "float-start", "float-end", "list", "int", "triple",
        "single", "reversed",
    ],
)
def test_a_window_is_a_pair_of_ints(window, error, message):
    # Unchecked, (True, 4) ran as (1, 4), (-4, 4, 5) as (-4, 4), and
    # taylor_residuals returned a value on (-4.5, 4); delta_grid built a
    # grid starting at False on (False, 4), and initial_window returned
    # (-6.0, 4) on (-4.5, 4) and (3, -4) on (4, -4).
    mask = half_delta()
    grid = cascade(mask, 2)[-1]
    calls = (
        lambda: cascade(mask, 2, window=window),
        lambda: cascade(mask, 2, window=window, exact=True),
        lambda: check_convergence(mask, 3, window=window),
        lambda: taylor_residuals(grid, window),
        lambda: delta_grid(1, window),
        lambda: initial_window(spline_mask(1, 0), window, 3),
    )
    for call in calls:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


def test_cascade_grids_cover_window(ref2):
    grids = cascade(ref2.mask, 4, "delta", (-4, 4))
    for g in grids:
        assert g.x(0) <= -4.0
        assert g.x(g.npoints - 1) >= 4.0
    assert [g.level for g in grids] == [0, 1, 2, 3, 4]


def test_delta_grid_shape():
    # unit impulse in the value component, derivatives start at zero
    for window in ((1, 4), (-4, -1)):
        with pytest.raises(ValueError, match="^the delta window must contain 0$"):
            delta_grid(2, window)
    g = delta_grid(2, (-4, 4))
    assert g.level == 0
    assert g.values[-g.start] == (F(1), F(0), F(0))
    assert all(v == (F(0),) * 3 for i, v in enumerate(g.values) if i != -g.start)


def test_convergence_reference_scheme(ref2):
    rep = check_convergence(ref2.mask)
    assert rep.ok
    assert rep.differences_decay_ok and rep.residual_decay_ok
    assert rep.max_tail_ratio <= TAIL_RATIO_BOUND
    # the top row settles well below tolerance; the derivative row lands a
    # hair above 1e-4 at level 8 and needs one more level
    assert rep.final_residuals[0] <= 1e-7
    assert abs(rep.final_residuals[1] - REF2_FINAL_RESIDUAL_ROW1) < 2e-6
    assert not rep.residuals_below_tol
    deeper = check_convergence(ref2.mask, levels=9)
    assert deeper.ok and deeper.residuals_below_tol


def test_convergence_zero_g(zero_g):
    for d in (1, 2, 3):
        rep = check_convergence(zero_g[d].mask)
        assert rep.ok
        assert rep.residuals_below_tol
        assert rep.max_tail_ratio <= TAIL_RATIO_BOUND


def test_convergence_pairs_residuals_with_the_scheme_operator():
    fam = TaylorOperator(w=((F(1),), (F(1, 2), F(1))))
    seed = LaurentPoly({0: F(1, 2), 1: F(1, 2)})
    res = synthesize(fam, seed)
    paired = check_convergence(res.mask, taylor=fam)
    assert paired.ok and paired.residuals_below_tol
    # reading the same data with plain difference weights inflates the
    # residual by the missing w21 coupling
    plain = check_convergence(res.mask)
    assert plain.ok
    assert not plain.residuals_below_tol


def test_convergence_rejects_identity_upsampler():
    rep = check_convergence(identity_upsampler())
    assert not rep.ok
    assert not rep.differences_decay_ok
    assert rep.max_tail_ratio >= 1.0


def test_convergence_needs_three_levels():
    with pytest.raises(ValueError):
        check_convergence(identity_upsampler(), levels=2)


def test_convergence_bounds_are_numbers_not_bools():
    # True was read as the bound 1.0.
    for name in ("ratio_bound", "residual_tol"):
        for v in (True, False):
            with pytest.raises(TypeError, match=f"^{name} must be a number, not a bool, got {v}$"):
                check_convergence(half_delta(), 4, **{name: v})
        with pytest.raises(ValueError, match=f"^{name} must be a (positive|nonnegative) finite"):
            check_convergence(half_delta(), 4, **{name: nan})


def test_reconstruct_linear_ramp_exactly():
    xs = [F(-8 + i, 4) for i in range(17)]
    g = DyadicGrid(level=2, start=-8, values=tuple((F(0), F(1)) for _ in xs))
    rows, _ = reconstruct_limits(g)
    assert all(rows[i][0] == float(xs[i]) for i in range(17))


def test_reconstruct_quadratic_from_slope_data():
    xs = [F(-8 + i, 4) for i in range(17)]
    g = DyadicGrid(level=2, start=-8, values=tuple((F(0), 2 * x) for x in xs))
    rows, _ = reconstruct_limits(g)
    # trapezoid quadrature is exact on a linear integrand
    assert all(rows[i][0] == float(xs[i]) ** 2 for i in range(17))


def test_reconstruct_deviation_shrinks_with_level(ref2):
    devs = {}
    for level in (6, 7, 8):
        g = cascade(ref2.mask, level, "delta", (-4, 4), exact=False)[-1]
        _, devs[level] = reconstruct_limits(g)
    assert abs(devs[6] - REF2_RECONSTRUCT_DEV_LEVEL6) < 2e-3
    assert 0.4 < devs[7] / devs[6] < 0.6
    assert 0.4 < devs[8] / devs[7] < 0.6


def test_reconstruct_needs_anchor():
    g = DyadicGrid(level=0, start=3, values=((F(0), F(1)),) * 4)
    with pytest.raises(WindowTooSmall):
        reconstruct_limits(g)


def test_subdivide_rejects_empty_output_window():
    wide = Mask(-6, tuple(((F(1),),) for _ in range(7)))
    with pytest.raises(WindowTooSmall):
        level_step(wide, DyadicGrid(0, 0, ((1,),)))
    with pytest.raises(WindowTooSmall):
        level_step(wide, DyadicGrid(0, 0, ((1.0,),)))
