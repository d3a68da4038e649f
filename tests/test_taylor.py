"""Generalized Taylor operators: construction, annihilators, chains."""

import re
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings

from hermiteforge import (
    Chain,
    InvalidOperator,
    LaurentPoly,
    NotAChain,
    NotInVd,
    Poly,
    PolyVec,
    TaylorOperator,
    allones_operator,
    annihilator,
    chain_for,
    classical_operator,
    delta_operator,
)
from hermiteforge import taylor
from reference_kernels import (
    LaurentMatrix,
    annihilator_reference,
    apply_operator,
    apply_operator_polys,
    chain_for_reference,
    classical_vector,
    delta_symbol,
    entry_symbol,
    mask_symbol_reference,
    newton_vector,
    padded_rows,
    taylor_symbol_reference,
    triangular_inverse_check,
)
from strategies import operators, poly_vecs


def _fact(j):
    out = 1
    for i in range(1, j + 1):
        out *= i
    return out


def test_classical_weights():
    op = classical_operator(4)
    for k in range(1, 5):
        for m in range(1, k + 1):
            assert op.w[k - 1][m - 1] == F(1, _fact(k - m + 1))


def test_delta_weights():
    op = delta_operator(4)
    for k in range(1, 5):
        assert op.w[k - 1] == tuple([F(0)] * (k - 1) + [F(1)])
    assert op.is_difference_type
    assert not classical_operator(4).is_difference_type


def test_allones_weights():
    op = allones_operator(3)
    assert all(all(x == 1 for x in row) for row in op.w)


def test_constant_entries_mirror_weights():
    op = classical_operator(3)
    for k in range(1, 4):
        for i in range(k):
            assert entry_symbol(op.symbol, i, k) == LaurentPoly.constant(-op.w[k - 1][i])


@pytest.mark.parametrize("make", [delta_operator, classical_operator, allones_operator])
def test_presets_refuse_a_bool_or_non_integer_d(make):
    # True == 1 and 2.0 == 2 hash alike, so either would otherwise reach
    # the shared d = 1 or d = 2 instance.
    for d in (True, False, 2.0, "2", None):
        with pytest.raises(TypeError, match="integer d"):
            make(d)
    with pytest.raises(InvalidOperator, match="d >= 0"):
        make(-1)


def test_rejects_nonunit_diagonal():
    with pytest.raises(InvalidOperator):
        TaylorOperator(w=((F(2),),))


def test_rejects_ragged_rows():
    with pytest.raises(InvalidOperator):
        TaylorOperator(w=((F(1),), (F(1), F(1), F(1))))


def test_symbol_diagonal():
    comp = delta_operator(2).symbol
    delta = {-1: F(1), 0: F(-1)}
    for i in range(3):
        assert dict(entry_symbol(comp, i, i).items()) == delta
    inc = delta_operator(2).incomplete_symbol
    assert dict(entry_symbol(inc, 2, 2).items()) == {0: F(1)}
    assert dict(entry_symbol(inc, 1, 1).items()) == delta


@pytest.mark.parametrize("complete", [True, False])
@pytest.mark.parametrize("d", [0, 1, 3])
def test_symbol_is_the_operator_matrix(d, complete):
    op = classical_operator(d)
    sym = op.symbol if complete else op.incomplete_symbol
    assert sym.d == d
    u = LaurentPoly({-1: F(1), 0: F(-1)})
    for i in range(d + 1):
        for k in range(d + 1):
            if k > i:
                want = LaurentPoly.constant(-op.w[k - 1][i])
            elif k < i:
                want = LaurentPoly.zero()
            else:
                want = LaurentPoly.one() if (i == d and not complete) else u
            assert entry_symbol(sym, i, k) == want


def test_float_weights_are_refused():
    with pytest.raises(TypeError):
        TaylorOperator(((1.0,), (0.1, 1.0)))
    with pytest.raises(TypeError):
        TaylorOperator(((F(1),), (0.5, F(1))))
    w21 = F(1, 10)
    op = TaylorOperator(((1,), (w21, 1)))
    assert op.w == ((F(1),), (F(1, 10), F(1)))
    assert all(type(v) is F for row in op.w for v in row)
    # A Fraction weight is kept as given; only an int is converted.
    assert op.w[1][0] is w21


def test_chain_constants_refuse_floats_and_stray_keys():
    op = delta_operator(2)
    with pytest.raises(TypeError):
        chain_for(op, {(1, 1): 0.1})
    for key in ((3, 1), (1, 2), (2, 0), (0, 0)):
        with pytest.raises(ValueError, match="outside 1 <= k <= j <= 2"):
            chain_for(op, {key: 3})
    assert chain_for(op, {(2, 2): 3}) == chain_for(op, {(2, 2): F(3)})


@pytest.mark.parametrize(
    "key", [(True, True), (1.0, 1), (1,), "10", (1, 1, 0)], ids=repr
)
def test_a_constant_key_is_a_pair_of_ints(key):
    # (True, True) and (1.0, 1) were read as (1, 1), (1,) failed to unpack
    # and "10" to compare; each is now refused by name.
    op = classical_operator(2)
    want = f"a constant key must be a pair of ints, got {key!r}"
    with pytest.raises(TypeError, match=f"^{re.escape(want)}$"):
        chain_for(op, {key: 2})
    assert chain_for(op, {(1, 1): 2}) != chain_for(op)


def test_chain_for_delta_gives_newton_vectors():
    ch = chain_for(delta_operator(3))
    for j, v in enumerate(ch.vecs):
        assert v == newton_vector(j)


def test_chain_for_classical_gives_monomial_vectors():
    ch = chain_for(classical_operator(3))
    for j, v in enumerate(ch.vecs):
        assert v == classical_vector(j)


def test_chain_constants_shift_free_terms():
    op = delta_operator(2)
    plain = chain_for(op)
    bumped = chain_for(op, constants={(2, 1): F(7)})
    assert bumped.operator() == op
    assert bumped.vecs[2] != plain.vecs[2]
    assert bumped.vecs[2].components[1].evaluate(0) == 7
    assert bumped.vecs[1] == plain.vecs[1]


@given(operators())
@settings(max_examples=60, deadline=None)
def test_annihilator_recovers_operator(op):
    ch = chain_for(op)
    assert annihilator(ch.last) == op


@given(poly_vecs(max_d=7, zero_low=True))
@settings(max_examples=80, deadline=None)
def test_annihilator_equals_the_poly_expansion(v):
    # Integer elimination against the Poly loop it replaced, on components
    # whose low coefficients vanish as well as on full ones.
    assert annihilator(v).w == annihilator_reference(v).w


def test_annihilator_reads_components_from_x0():
    # x^j / j! stores its numerators from x^j on; its annihilator is the
    # classical operator.
    v = classical_vector(5)
    assert [p._lo for p in v.components] == [0, 1, 2, 3, 4, 5]
    assert annihilator(v) == annihilator_reference(v) == classical_operator(5)


def test_chain_checks_do_no_poly_arithmetic():
    # The annihilators and the V_d membership checks read integer fields;
    # only the weights are Fractions.
    op = TaylorOperator(((F(1),), (F(-2, 3), F(1)), (F(5, 4), F(1, 6), F(1))))
    comps = [v.components for v in chain_for(op, {(2, 1): F(3, 7), (3, 2): -2}).vecs]
    refuse = mock.Mock(side_effect=AssertionError("Poly arithmetic"))
    names = ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__", "__neg__")
    arithmetic = dict.fromkeys(names, refuse)
    with mock.patch.multiple(LaurentPoly, **arithmetic):
        chain = Chain(tuple(PolyVec(c) for c in comps))
    assert chain.operator() == op
    assert chain.operator() == annihilator_reference(chain.last)


@given(operators(max_d=4))
@settings(max_examples=40, deadline=None)
def test_operator_annihilates_its_chain(op):
    ch = chain_for(op)
    d = op.d
    rows = padded_rows(ch.last, d)
    out = apply_operator_polys(op, rows)
    assert all(p == Poly() for p in out)


def test_vector_membership_enforced_at_construction():
    # degree-1 component with leading coefficient 2 instead of 1
    with pytest.raises(NotInVd):
        PolyVec((Poly((F(1),)), Poly((F(0), F(2)))))
    # constant component must be exactly 1
    with pytest.raises(NotInVd):
        PolyVec((Poly((F(3),)), Poly((F(0), F(1)))))


@pytest.mark.parametrize("component", [LaurentPoly({0: 1}), 1, F(1)], ids=repr)
def test_vector_components_must_be_polys(component):
    # Unchecked, each failed on a missing attribute.
    want = f"component 0 must be a Poly, got {type(component).__name__}"
    with pytest.raises(TypeError, match=f"^{re.escape(want)}$"):
        PolyVec((component,))


def test_chain_validate_detects_mismatch():
    # levels 0..2 carry Newton weights, level 3 carries classical ones;
    # the level-2 annihilator then fails to nest into level 3
    vecs = (newton_vector(0), newton_vector(1), newton_vector(2), classical_vector(3))
    with pytest.raises(NotAChain, match="^annihilator of level 2 does not nest into level 3$"):
        Chain(vecs)
    with pytest.raises(NotAChain, match="^vector 1 lives in V_2, expected V_1$"):
        Chain((newton_vector(0), newton_vector(2)))
    with pytest.raises(NotAChain, match="^a chain holds at least the vector v_0$"):
        Chain(())


def test_chain_validate_checks_ownership():
    ch = chain_for(delta_operator(2))
    assert ch.operator() is delta_operator(2)
    assert ch.operator() != classical_operator(2)
    # A built tower whose annihilator is not the operator's own is refused.
    with mock.patch.object(taylor, "annihilator", lambda v: classical_operator(v.d)):
        with pytest.raises(NotAChain, match="^chain does not belong to the supplied operator$"):
            chain_for(delta_operator(2), {(1, 1): 0})


def test_chain_with_last_builds_valid_chain():
    v = chain_for(classical_operator(3)).last
    # Lower levels from v's own annihilator, then v on top.
    op = annihilator(v)
    ch = Chain(chain_for(op).vecs[: v.d] + (v,))
    assert ch.operator() == op
    assert ch.last == v
    assert ch.d == 3


def test_apply_operator_kills_newton_samples():
    # integer samples of (value, derivative-like) rows for the chain tail
    op = delta_operator(1)
    v = newton_vector(1)
    start = -3
    values = [
        [v.components[1].evaluate(a), v.components[0].evaluate(a)]
        for a in range(start, start + 8)
    ]
    out, _ = apply_operator(op, values, start)
    assert all(all(x == 0 for x in row) for row in out)


@given(operators(max_d=5, min_d=0))
@settings(max_examples=60, deadline=None)
def test_cached_operator_data_equals_fresh_builds(op):
    # First read: the chain is kept only once its constructor has passed it.
    validated = []
    post_init = Chain.__post_init__

    def refuse_first(chain):
        validated.append(chain)
        if len(validated) == 1:
            raise NotAChain("refused once")
        post_init(chain)

    with mock.patch.object(Chain, "__post_init__", refuse_first):
        with pytest.raises(NotAChain, match="refused once"):
            chain_for(op)
        chain = chain_for(op)
        again = chain_for(op)
    assert len(validated) == 2
    assert validated[1] is chain is again
    assert chain == chain_for_reference(op)
    assert chain.operator() == annihilator(chain.last) == op

    sym = taylor_symbol_reference(op, complete=True)
    assert mask_symbol_reference(op.symbol) == sym
    assert mask_symbol_reference(op.symbol_z2) == sym.substitute_power(2)
    assert triangular_inverse_check(sym, op.symbol_inverse)
    assert op.symbol_inverse is op.symbol_inverse
    assert op.symbol is op.symbol
    assert op.symbol_z2 is op.symbol_z2
    assert op.incomplete_symbol is op.incomplete_symbol


def _inverts_the_symbol(op, inv):
    """T-tilde* (T-tilde*)^-1 = I with T-tilde* built from the weights, the
    inverse's entries in their canonical fields (so unfactor reads the
    numerators the definition gives)."""
    assert all(type(p) is LaurentPoly for row in inv for p in row)
    assert all(p == LaurentPoly(dict(p.items())) for row in inv for p in row)
    assert triangular_inverse_check(taylor_symbol_reference(op, complete=True), inv)


@given(operators(max_d=7, min_d=0))
@settings(max_examples=80, deadline=None)
def test_symbol_inverse_equals_the_laurent_back_substitution(op):
    _inverts_the_symbol(op, op.symbol_inverse)


def test_symbol_inverse_does_no_laurent_arithmetic():
    # The back substitution runs on integer lists; only the entries are
    # LaurentPoly values.
    op = TaylorOperator(((F(1),), (F(-2, 3), F(1)), (F(5, 4), F(1, 6), F(1))))
    refuse = mock.Mock(side_effect=AssertionError("LaurentPoly arithmetic"))
    with mock.patch.multiple(LaurentPoly, __add__=refuse, __mul__=refuse, __rmul__=refuse):
        inv = op.symbol_inverse
    _inverts_the_symbol(op, inv)


@pytest.mark.parametrize("preset", [classical_operator, delta_operator, allones_operator])
def test_preset_symbol_inverses_equal_the_laurent_back_substitution(preset):
    for d in range(9):
        _inverts_the_symbol(preset(d), preset(d).symbol_inverse)


def _symbol_times_inverse_numerators_is_diagonal(op):
    # T-tilde*(z) W = diag(u^(l+1)), u = z^-1 - 1, with T-tilde* built from
    # the weights: W is the one mask unfactor multiplies by.
    u = delta_symbol(1)
    size = op.d + 1
    want = [[u ** (l + 1) if j == l else LaurentPoly() for l in range(size)] for j in range(size)]
    t = taylor_symbol_reference(op, complete=True)
    assert t * mask_symbol_reference(op.inverse_numerators) == LaurentMatrix(want)
    assert op.inverse_numerators is op.inverse_numerators


@given(operators(max_d=7, min_d=0))
@settings(max_examples=80, deadline=None)
def test_symbol_times_inverse_numerators_is_diagonal(op):
    _symbol_times_inverse_numerators_is_diagonal(op)


@pytest.mark.parametrize("preset", [classical_operator, delta_operator, allones_operator])
def test_preset_symbol_times_inverse_numerators_is_diagonal(preset):
    for d in range(9):
        _symbol_times_inverse_numerators_is_diagonal(preset(d))


def test_inverse_numerators_do_no_laurent_arithmetic():
    # Built from the integer rows in u with one Taylor shift per entry.
    op = TaylorOperator(((F(1),), (F(-2, 3), F(1)), (F(5, 4), F(1, 6), F(1))))
    refuse = mock.Mock(side_effect=AssertionError("LaurentPoly arithmetic"))
    with mock.patch.multiple(LaurentPoly, __add__=refuse, __mul__=refuse, __rmul__=refuse):
        op.inverse_numerators
    _symbol_times_inverse_numerators_is_diagonal(op)


@given(operators(max_d=5, min_d=0))
@settings(max_examples=60, deadline=None)
def test_incomplete_symbol_matches_the_reference(op):
    # The same weights with 1 in the corner: the incomplete T*(z).
    assert mask_symbol_reference(op.incomplete_symbol) == taylor_symbol_reference(op, complete=False)


def test_chain_for_shares_one_chain_per_operator():
    # Presets, fresh instances, annihilators and loaded operators alike:
    # with no constants every operator returns its own chain, built once.
    w = ((F(1),), (F(-2, 3), F(1)), (F(5), F(0), F(1)))
    ops = [
        delta_operator(2),
        classical_operator(0),
        allones_operator(3),
        TaylorOperator(w),
        annihilator(chain_for(classical_operator(3)).last),
        TaylorOperator.from_json(dict(TaylorOperator(w).to_json(), complete=False)),
    ]
    for op in ops:
        chain = chain_for(op)
        assert chain_for(op) is chain and chain_for(op, {}) is chain
        assert chain.operator() is op


def test_chains_with_constants_are_never_shared():
    op = TaylorOperator(delta_operator(3).w)
    plain = chain_for(op)
    kept = plain.to_json()
    bumped = chain_for(op, {(2, 1): 5})
    assert bumped != plain
    assert bumped is not chain_for(op, {(2, 1): 5})
    assert chain_for(op) is plain and plain.to_json() == kept
    assert chain_for(op, {}) is plain


def test_presets_are_shared_and_equal_operators_are_not():
    assert delta_operator(3) is delta_operator(3)
    assert classical_operator(2) is classical_operator(2)
    assert allones_operator(4) is allones_operator(4)
    op = TaylorOperator(delta_operator(3).w)
    assert op == delta_operator(3)
    assert chain_for(op) == chain_for(delta_operator(3))
    assert chain_for(op) is not chain_for(delta_operator(3))


def test_chain_operator_is_kept_and_is_the_annihilator():
    op = classical_operator(3)
    ch = chain_for(op)
    assert ch.operator() is op
    assert ch.operator() == annihilator(ch.last)
    loaded = Chain.from_json(ch.to_json())
    assert loaded.operator() is loaded.operator()
    assert loaded.operator() == op


def test_a_loaded_chain_builds_each_annihilator_once():
    # The constructor builds one annihilator per level and keeps the top one.
    doc = chain_for(classical_operator(3)).to_json()
    with mock.patch.object(taylor, "annihilator", wraps=taylor.annihilator) as spy:
        loaded = Chain.from_json(doc)
        assert loaded.operator() == classical_operator(3)
    assert spy.call_count == 4


def test_an_empty_tower_is_not_a_chain():
    with pytest.raises(NotAChain):
        Chain(())
    with pytest.raises(NotAChain):
        Chain.from_json({"d": -1, "vecs": []})
