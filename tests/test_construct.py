"""Scheme synthesis: last-row solving, free parameters, strategies."""

import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldens import H_TABLE, REF2_FACTOR, REF2_MASK, REF2_SCALE, h_closed_forms, mask_from_entries
from hermiteforge import (
    BadSeed,
    LaurentPoly,
    NotDivisible,
    Poly,
    TaylorOperator,
    allones_operator,
    classical_operator,
    delta_operator,
    synthesize,
    unfactor,
)
from hermiteforge.construct import (
    _unknown_order,
    assemble_factor,
    build_last_row_system,
    last_row_symbols,
    recurrence_last_row,
)
from hermiteforge.factor import Factorization
from reference_kernels import (
    delta_symbol,
    divide_exact,
    entry_symbol,
    identity_reference,
    mask_symbol_reference,
    solve_square_reference,
    taylor_symbol_reference,
    u_power,
)
from strategies import operators, rationals

rational_values = rationals(-4, 4, 6)


def seed_power(n):
    # ((z+1)/2)^n
    return LaurentPoly({0: F(1, 2), 1: F(1, 2)}) ** n


def family_operator(w21):
    return TaylorOperator(w=((F(1),), (F(w21), F(1))))


def test_reference_scheme_frozen(ref2):
    assert ref2.mask == mask_from_entries(REF2_MASK, 2)
    fac = ref2.factorization
    assert fac.scale == REF2_SCALE
    assert fac.factor == mask_from_entries(REF2_FACTOR, 2)
    assert fac.verify()


def test_last_row_moment_table():
    for (w21, n), (h12, h11, h01) in H_TABLE.items():
        res = synthesize(family_operator(w21), seed_power(n))
        row = res.last_row
        assert row[1].derivative_at_one(2) == h12
        assert row[1].derivative_at_one(1) == h11
        assert row[0].derivative_at_one(1) == h01
        assert abs(res.system.determinant) == 1


@given(rational_values, st.integers(min_value=1, max_value=6))
@settings(max_examples=30, deadline=None)
def test_last_row_moments_closed_form(w21, n):
    # the closed forms describe the square solve; w21 = 0 would otherwise
    # route to the recurrence, which resolves the freedom differently
    res = synthesize(family_operator(w21), seed_power(n), strategy="system")
    h12, h11, h01 = h_closed_forms(w21, n)
    assert res.last_row[1].derivative_at_one(2) == h12
    assert res.last_row[1].derivative_at_one(1) == h11
    assert res.last_row[0].derivative_at_one(1) == h01


@given(operators(max_d=5, weights=rational_values))
@settings(max_examples=40, deadline=None)
def test_last_row_system_is_unimodular(op):
    system = build_last_row_system(op, seed_power(1))
    assert abs(system.determinant) == 1
    assert last_row_symbols(system) == synthesize(op, seed_power(1), strategy="system").last_row


@given(
    operators(max_d=7, min_d=0, weights=rational_values), st.integers(min_value=1, max_value=4)
)
@settings(max_examples=40, deadline=None)
def test_last_row_substitution_matches_gauss_jordan(op, n):
    # The forward substitution against elimination over Fractions on the
    # assembled system, and the solution put back into it.
    system = build_last_row_system(op, seed_power(n))
    sol = [system.solution[mr] for mr in _unknown_order(op.d)]
    assert (sol, system.determinant) == solve_square_reference(system.matrix, system.rhs)
    assert type(system.determinant) is F
    assert [sum(a * x for a, x in zip(row, sol)) for row in system.matrix] == list(system.rhs)


def _unfactor_both_ways(op, factor, scale=None):
    """unfactor's mask, which the identity's definition must accept: T*
    invertible, the identity decides A from B."""
    got = unfactor(op, factor, scale)
    s = F(1, 2**op.d) if scale is None else scale
    assert identity_reference(op, got, factor, s)
    return got


@given(
    operators(max_d=5, weights=rational_values),
    st.integers(min_value=1, max_value=2),
    rational_values,
    st.data(),
)
@settings(max_examples=30, deadline=None)
def test_unfactor_equals_the_entrywise_accumulation(op, n, g10, data):
    # One mask product with the inverse numerators, at the synthesis scale
    # 2^-d and at another nonzero scale, against the identity's definition;
    # no product is checked inside, so each result must verify as a
    # factorization too.
    g = {(1, 0): LaurentPoly({0: g10})} if op.d >= 2 else None
    res = synthesize(op, seed_power(n), g)
    factor = res.factorization.factor
    assert _unfactor_both_ways(op, factor) == res.mask
    assert Factorization(res.mask, op, factor, F(1, 2**op.d)).verify()
    scale = data.draw(rational_values.filter(bool))
    got = _unfactor_both_ways(op, factor, scale)
    assert got == res.mask.scale(scale * 2**op.d)
    assert Factorization(got, op, factor, scale).verify()


@pytest.mark.parametrize("preset", [delta_operator, classical_operator, allones_operator])
def test_preset_unfactor_equals_the_entrywise_accumulation(preset):
    for d in range(9):
        res = synthesize(preset(d), seed_power(1))
        assert _unfactor_both_ways(preset(d), res.factorization.factor) == res.mask


@given(
    operators(max_d=3, weights=rational_values), st.integers(min_value=1, max_value=2), st.data()
)
@settings(max_examples=60, deadline=None)
def test_unfactor_refuses_exactly_the_last_rows_that_fail_divisibility(op, n, data):
    # A synthesized last row passes; one entry moved by a low-degree
    # polynomial, times (z - 1)^k half the time, may or may not. unfactor
    # recovers A exactly when row l of G = B* T-tilde*(z^2) has the factor
    # u^(l+1), u = z^-1 - 1 (the rows above the last have it by
    # construction), and then A satisfies the identity.
    hs = list(synthesize(op, seed_power(n)).last_row)
    m = data.draw(st.integers(min_value=0, max_value=op.d))
    bump = LaurentPoly(
        data.draw(st.dictionaries(st.integers(0, 2), rational_values, min_size=1, max_size=3))
    )
    if data.draw(st.booleans()):
        bump = bump * LaurentPoly({1: 1, 0: -1}) ** data.draw(st.integers(1, op.d + 1))
    hs[m] = hs[m] + bump
    factor = assemble_factor(op, hs)
    g = mask_symbol_reference(factor) * taylor_symbol_reference(op, True).substitute_power(2)
    try:
        for l, row in enumerate(g.rows):
            for f in row:
                divide_exact(f, u_power(l + 1))
    except NotDivisible:
        with pytest.raises(NotDivisible):
            unfactor(op, factor)
    else:
        assert identity_reference(op, unfactor(op, factor), factor, F(1, 2**op.d))


def test_the_d0_last_row_system_is_empty():
    # d = 0 runs the general path: no unknowns, no equations, determinant 1.
    seed = seed_power(1)
    system = build_last_row_system(delta_operator(0), seed)
    assert (system.matrix, system.rhs, system.solution) == ((), (), {})
    assert type(system.determinant) is F and system.determinant == 1
    assert system.to_json() == {
        "d": 0, "unknowns": [], "matrix": [], "rhs": [], "solution": {}, "determinant": "1"
    }
    assert last_row_symbols(system) == (seed,)
    # Both strategies give the scalar scheme with symbol (1 + z^-1)^2 / 2.
    want = LaurentPoly({-2: F(1, 2), -1: F(1), 0: F(1, 2)})
    for strategy in ("auto", "system"):
        res = synthesize(delta_operator(0), seed, strategy=strategy)
        assert entry_symbol(res.factor, 0, 0) == LaurentPoly({-1: F(1, 2), 0: F(1, 2)})
        assert entry_symbol(res.mask, 0, 0) == want
        assert res.factorization.verify()


@pytest.mark.parametrize("strategy", ["recurrence", "system"])
@pytest.mark.parametrize("seed", [1, F(1), {0: 1}], ids=repr)
def test_a_seed_must_be_a_laurent_poly(seed, strategy):
    # Unchecked, each failed on a missing attribute; both last-row builders
    # share the check.
    want = f"the corner seed must be a LaurentPoly, got {type(seed).__name__}"
    with pytest.raises(TypeError, match=f"^{re.escape(want)}$"):
        synthesize(delta_operator(1), seed, strategy=strategy)


def test_auto_strategy_picks_recurrence_for_difference_type(zero_g):
    assert zero_g[2].strategy == "recurrence"
    assert synthesize(classical_operator(2), seed_power(1)).strategy == "system"


def test_both_strategies_satisfy_the_identity():
    seed = seed_power(1)
    rec = synthesize(delta_operator(2), seed, strategy="recurrence")
    sq = synthesize(delta_operator(2), seed, strategy="system")
    assert rec.factorization.verify()
    assert sq.factorization.verify()
    # the recurrence and the square solve are different resolutions of the
    # same underdetermined problem
    assert rec.mask != sq.mask


def test_recurrence_rejects_nonzero_upper_weights():
    with pytest.raises(ValueError):
        synthesize(classical_operator(2), seed_power(1), strategy="recurrence")


def test_bad_seed_rejected():
    with pytest.raises(BadSeed):
        synthesize(delta_operator(2), LaurentPoly({0: F(1), 1: F(1)}))


def test_free_parameter_lands_in_its_entry(ref2, zero_g):
    a, b = ref2.factorization.factor, zero_g[2].factorization.factor
    bump = LaurentPoly({-2: F(1), -1: F(-2), 0: F(1)})  # (z^-1 - 1)^2
    for i in range(3):
        for k in range(3):
            want = bump if (i, k) == (1, 0) else LaurentPoly()
            assert entry_symbol(a, i, k) - entry_symbol(b, i, k) == want


laurent_entries = st.dictionaries(
    st.integers(min_value=-2, max_value=2), rational_values, max_size=3
).map(LaurentPoly)


@given(operators(max_d=4, min_d=0, weights=rational_values), st.data())
@settings(max_examples=30, deadline=None)
def test_assemble_factor_places_each_entry_by_its_formula(op, data):
    # With u = z^-1 - 1: entry (j, k < j) is u^(j+1) g_jk, the diagonal of
    # row j < d is u^(j+1) / 2^(j+1), bottom entry k is u^(d-k) h_k(z^-1),
    # and every other entry is 0. Drawn entries may be zero.
    d = op.d
    g = {
        (j, k): data.draw(laurent_entries)
        for j in range(d)
        for k in range(j)
        if data.draw(st.booleans())
    }
    hs = [data.draw(laurent_entries) for _ in range(d + 1)]
    if d == 0 and not hs[0]:
        with pytest.raises(ValueError, match="zero symbol has no mask"):
            assemble_factor(op, hs, g)
        return
    factor = assemble_factor(op, hs, g)
    u = delta_symbol(1)
    for j in range(d + 1):
        for k in range(d + 1):
            if j == d:
                want = u ** (d - k) * hs[k].substitute_power(-1)
            elif k < j:
                want = u ** (j + 1) * g.get((j, k), LaurentPoly.zero())
            elif k == j:
                want = u ** (j + 1) / 2 ** (j + 1)
            else:
                want = LaurentPoly.zero()
            assert entry_symbol(factor, j, k) == want


def test_assemble_factor_takes_rational_entries_and_refuses_other_types():
    # An int or a Fraction entry is the constant it equals; a Poly, a bool
    # or a float is refused, never read as a Laurent polynomial.
    op = delta_operator(2)
    row = recurrence_last_row(op, seed_power(1))
    want = assemble_factor(op, row, {(1, 0): LaurentPoly({0: F(3, 2)})})
    assert assemble_factor(op, row, {(1, 0): F(3, 2)}) == want
    with_int = list(row)
    with_int[0] = LaurentPoly.constant(2)
    assert assemble_factor(op, [2, *row[1:]]) == assemble_factor(op, with_int)
    for bad in (Poly((F(3, 2),)), True, 1.5):
        with pytest.raises(TypeError, match="a symbol entry must be a LaurentPoly"):
            assemble_factor(op, row, {(1, 0): bad})
        with pytest.raises(TypeError, match="a symbol entry must be a LaurentPoly"):
            assemble_factor(op, [bad, *row[1:]])


def test_free_parameter_outside_lower_triangle_rejected():
    op = delta_operator(2)
    row = recurrence_last_row(op, seed_power(1))
    with pytest.raises(ValueError):
        assemble_factor(op, row, {(0, 1): LaurentPoly({0: F(1)})})


@pytest.mark.parametrize(
    "key", [(True, False), (1.0, 0), (1,), "10", (1, 0, 0)], ids=repr
)
def test_a_free_parameter_key_is_a_pair_of_ints(key):
    # (True, False) and (1.0, 0) were read as (1, 0), (1,) failed to unpack
    # and "10" to compare; each is now refused by name.
    op, seed = classical_operator(2), seed_power(1)
    want = f"a free parameter key must be a pair of ints, got {key!r}"
    with pytest.raises(TypeError, match=f"^{re.escape(want)}$"):
        synthesize(op, seed, {key: 3})
    assert synthesize(op, seed, {(1, 0): 3}).mask != synthesize(op, seed).mask
    with pytest.raises(ValueError, match=r"^free parameter \(0,1\) is outside"):
        synthesize(op, seed, {(0, 1): 3})


def test_masks_have_expected_support(ref2, zero_g):
    assert ref2.mask.support == (-6, 0)
    assert zero_g[1].mask.support == (-4, 0)
    assert zero_g[3].mask.support == (-8, 0)
