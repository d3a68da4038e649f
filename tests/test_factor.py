"""Factorization through Taylor operators and spectral chains."""

import json
import re
from fractions import Fraction as F
from functools import lru_cache
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldens import (
    REF2_FACTOR,
    REF2_MASK,
    REF2_SCALE,
    REF2_SPECTRAL_CHAIN,
    mask_from_entries,
)
from reference_kernels import (
    complete_from_incomplete,
    divide_exact,
    entry_symbol,
    identity_reference,
    incomplete_from_complete_reference,
    mask_symbol_reference,
    spectral_chain_reference,
    taylor_factorize_reference,
    u_power,
    unfactor_reference,
)
from strategies import operators, rationals, schemes
from hermiteforge import (
    Chain,
    EigenvalueClash,
    LaurentPoly,
    Mask,
    NotAnnihilated,
    NotDivisible,
    SpanHypothesisFailed,
    TaylorOperator,
    allones_operator,
    chain_for,
    classical_operator,
    delta_operator,
    Poly,
    incomplete_from_complete,
    spectral_chain_from_factorization,
    spline_mask,
    spline_verify,
    synthesize,
    taylor_factorize,
    unfactor,
    verify_spectral_chain,
)
from hermiteforge.cli import run
from hermiteforge.construct import assemble_factor
from hermiteforge.factor import Factorization
from hermiteforge.splines import spline_chain
from hermiteforge import taylor
from hermiteforge.subdivision import _image, eigen_check


def ref2_mask():
    return mask_from_entries(REF2_MASK, 2)


def ref2_factor():
    return mask_from_entries(REF2_FACTOR, 2)


def delta_chain():
    return chain_for(delta_operator(2))


def test_factorize_reference_scheme_exactly():
    fac = taylor_factorize(ref2_mask(), delta_chain())
    assert fac.scale == REF2_SCALE
    want = mask_symbol_reference(ref2_factor())
    for i in range(3):
        for k in range(3):
            assert entry_symbol(fac.factor, i, k) == want.rows[i][k]
    assert fac.verify()


def test_unfactor_reference_scheme_exactly():
    mask = unfactor(delta_operator(2), ref2_factor(), REF2_SCALE)
    want = mask_symbol_reference(ref2_mask())
    for i in range(3):
        for k in range(3):
            assert entry_symbol(mask, i, k) == want.rows[i][k]


def test_factor_unfactor_roundtrip_on_splines():
    for r, d in ((1, 1), (2, 1), (2, 2), (3, 2)):
        _, fac = spline_verify(r, d)
        back = unfactor(fac.taylor, fac.factor, fac.scale)
        assert back == fac.mask


# A d = 1 mask that factors through delta:d=1 although unfactor cannot
# recover it: row 0 of T-tilde*(z) A*(z) has no factor u = z^-1 - 1.
UNRECOVERABLE_D1 = {
    "d": 1,
    "support_min": -2,
    "coeffs": [
        [["-1/2", "-1/2"], ["0", "-1/2"]],
        [["-1", "-3/2"], ["0", "-1/2"]],
        [["-1/2", "-1"], ["0", "0"]],
    ],
}


def test_unfactor_recovers_only_masks_that_meet_the_divisibility_condition(tmp_path, capsys):
    mask = Mask.from_json(UNRECOVERABLE_D1)
    op = delta_operator(1)
    fac = taylor_factorize(mask, chain_for(op))
    assert fac.verify() and fac.scale == F(1, 2)
    assert fac.factor.to_json() == {
        "d": 1,
        "support_min": -1,
        "coeffs": [[["-1", "-1"], ["0", "-1"]], [["-1", "-1"], ["0", "0"]]],
    }
    with pytest.raises(NotDivisible, match=re.escape(
        "divisibility condition failed at entry (0,1): row 0 requires a factor (z^-1 - 1)^1"
    )):
        unfactor(op, fac.factor, fac.scale)
    with pytest.raises(NotDivisible):
        divide_exact(entry_symbol(op.symbol * mask, 0, 1), u_power(1))
    path = tmp_path / "mask.json"
    path.write_text(json.dumps(UNRECOVERABLE_D1))
    assert run(["factor", "--mask", str(path), "--chain", "delta:d=1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["checks"] == {"identity": True}
    assert doc["factorization"]["B"] == fac.factor.to_json()
    assert run(["verify-spectral", "--mask", str(path), "--chain", "delta:d=1"]) == 1
    failures = json.loads(capsys.readouterr().out)["spectral"]["failures"]
    assert [f["level"] for f in failures] == [0, 1]


def test_factorize_rejects_perturbed_mask():
    entries = dict(REF2_MASK)
    entries[(0, 0, -4)] = entries[(0, 0, -4)] + 1
    want = "level 0 is not annihilated: row 0 at alpha=-25 gives 1"
    with pytest.raises(NotAnnihilated, match=f"^{re.escape(want)}$"):
        taylor_factorize(mask_from_entries(entries, 2), delta_chain())


def test_every_entry_point_refuses_a_zero_scale():
    fac = taylor_factorize(ref2_mask(), delta_chain())
    b = incomplete_from_complete(fac.factor)
    calls = (
        lambda: taylor_factorize(ref2_mask(), delta_chain(), F(0)),
        lambda: unfactor(delta_operator(2), ref2_factor(), 0),
        lambda: spectral_chain_from_factorization(ref2_mask(), b, fac.taylor, scale=0),
    )
    for call in calls:
        with pytest.raises(ValueError, match="^the factorization scale must be nonzero$"):
            call()


def test_every_entry_point_takes_an_int_scale_and_refuses_a_float():
    # An int scale is the Fraction it equals; a float is never coerced.
    for scale in (1, 2, -3):
        fac = taylor_factorize(ref2_mask(), delta_chain(), scale)
        assert fac == taylor_factorize(ref2_mask(), delta_chain(), F(scale))
        assert type(fac.scale) is F
        assert unfactor(fac.taylor, fac.factor, scale) == ref2_mask()
    fac = taylor_factorize(ref2_mask(), delta_chain())
    b = incomplete_from_complete(fac.factor)
    calls = (
        lambda: taylor_factorize(ref2_mask(), delta_chain(), 0.25),
        lambda: unfactor(delta_operator(2), ref2_factor(), 0.25),
        lambda: spectral_chain_from_factorization(ref2_mask(), b, fac.taylor, scale=0.25),
    )
    for call in calls:
        with pytest.raises(TypeError, match="^expected an int or a Fraction, got float$"):
            call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: Mask(0, [[[True, False], [False, True]]]),
        lambda: eigen_check(ref2_mask(), delta_chain().vecs[0], True),
        lambda: TaylorOperator(((True,),)),
        lambda: ref2_mask().scale(True),
        lambda: chain_for(delta_operator(2), {(1, 1): True}),
        lambda: taylor_factorize(ref2_mask(), delta_chain(), True),
        lambda: unfactor(delta_operator(2), ref2_factor(), True),
        lambda: LaurentPoly({0: True}),
    ],
    ids=["mask", "eigenvalue", "weight", "mask-scale", "constant", "factor-scale",
         "unfactor-scale", "coefficient"],
)
def test_a_bool_is_not_read_as_a_rational(call):
    # True is an int to Python, but never the rational 1 here.
    with pytest.raises(TypeError, match="^expected an int or a Fraction, got bool$"):
        call()


@st.composite
def perturbed_masks(draw):
    """The reference d = 2 mask or a spline mask, with up to two entries moved
    by a small rational (none moved leaves a mask that factors)."""
    base = draw(st.sampled_from(["ref2", (1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]))
    mask = ref2_mask() if base == "ref2" else spline_mask(*base)
    coeffs = [[list(row) for row in m] for m in mask.coeffs]
    shift = rationals(-2, 2, 8).filter(bool)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        n = draw(st.integers(min_value=0, max_value=len(coeffs) - 1))
        i = draw(st.integers(min_value=0, max_value=mask.d))
        k = draw(st.integers(min_value=0, max_value=mask.d))
        coeffs[n][i][k] += draw(shift)
    return Mask(mask.support_min, tuple(tuple(tuple(row) for row in m) for m in coeffs))


def _factorize_outcome(factorize, mask, chain):
    try:
        return ("ok", factorize(mask, chain).to_json())
    except (NotAnnihilated, NotDivisible) as exc:
        return (type(exc).__name__, str(exc))


@settings(max_examples=60, deadline=None)
@given(
    mask=perturbed_masks(),
    make_op=st.sampled_from([delta_operator, classical_operator, allones_operator]),
)
def test_factorize_matches_the_gate_first_reference(mask, make_op):
    # Annihilation is checked only after a failed division; the exception,
    # its message and every successful factorization stay those of the
    # path that checks annihilation first. No product is checked inside, so
    # every success must verify, and unfactor must give the mask back.
    chain = chain_for(make_op(mask.d))
    got = _factorize_outcome(taylor_factorize, mask, chain)
    assert got == _factorize_outcome(taylor_factorize_reference, mask, chain)
    if got[0] == "ok":
        fac = taylor_factorize(mask, chain)
        assert fac.verify()
        assert unfactor(fac.taylor, fac.factor, fac.scale) == mask


def _ref2_seed_and_g():
    return LaurentPoly({0: F(1, 2), 1: F(1, 2)}), {(1, 0): LaurentPoly({0: F(1)})}


def _entry_point_call(name, tmp_path):
    """A no-argument call of one public entry point on the reference scheme,
    with its inputs built beforehand."""
    if name == "taylor_factorize":
        mask, chain = ref2_mask(), delta_chain()
        return lambda: taylor_factorize(mask, chain)
    if name == "synthesize":
        op, (seed, g) = delta_operator(2), _ref2_seed_and_g()
        return lambda: synthesize(op, seed, g)
    if name == "spline_verify":
        return lambda: spline_verify(2, 2)
    if name == "cli factor":
        mask_file = tmp_path / "mask.json"
        mask_file.write_text(json.dumps(ref2_mask().to_json()))
        argv = ["factor", "--mask", str(mask_file), "--chain", "delta:d=2"]
    else:
        argv = ["construct", "--taylor", "delta:d=2", "--hdd", "(z+1)/2", "--g", "1,0:1"]
    argv += ["--out", str(tmp_path / "report.json")]
    return lambda: run(argv)


@pytest.mark.parametrize(
    "name", ["taylor_factorize", "synthesize", "spline_verify", "cli factor", "cli construct"]
)
def test_each_entry_point_proves_the_identity_by_its_divisions(name, tmp_path, monkeypatch):
    # The exact divisions are the proof: no entry point compares a product
    # of symbols afterwards, and the CLI still reports the identity.
    call = _entry_point_call(name, tmp_path)
    calls = []
    mask_eq = Mask.__eq__

    def counting_eq(self, other):
        calls.append(None)
        return mask_eq(self, other)

    # Every identity comparison is one Mask equality.
    monkeypatch.setattr(Mask, "__eq__", counting_eq)
    result = call()
    assert calls == []
    if name.startswith("cli"):
        assert result == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["checks"]["identity"] is True


@lru_cache(maxsize=None)
def _synthesized(name):
    """A synthesized factorization of the reference scheme or of a preset."""
    if name == "ref2":
        return synthesize(delta_operator(2), *_ref2_seed_and_g()).factorization
    make, d = {"classical3": (classical_operator, 3), "allones2": (allones_operator, 2)}[name]
    seed = LaurentPoly({0: F(1, 2), 1: F(1, 2)}) ** (d - 1)
    return synthesize(make(d), seed, strategy="system").factorization


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["ref2", "classical3", "allones2"]),
    moves=st.lists(
        st.tuples(
            st.sampled_from(["mask", "factor", "scale"]),
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
            rationals(-2, 2, 8).filter(bool),
        ),
        max_size=2,
    ),
)
def test_verify_agrees_with_the_laurent_matrix_identity(name, moves):
    # No move leaves a proven factorization; a moved entry or scale
    # almost always breaks it, and both checks must say the same.
    fac = _synthesized(name)
    parts = {"mask": fac.mask, "factor": fac.factor}
    scale = fac.scale
    for part, n, i, k, shift in moves:
        if part == "scale":
            scale += shift
            continue
        m = parts[part]
        coeffs = [[list(row) for row in a] for a in m.coeffs]
        coeffs[n % len(coeffs)][i % (m.d + 1)][k % (m.d + 1)] += shift
        parts[part] = Mask(m.support_min, coeffs)
    moved = Factorization(
        mask=parts["mask"], taylor=fac.taylor, factor=parts["factor"], scale=scale
    )
    assert moved.verify() == identity_reference(moved)
    if not moves:
        assert moved.verify()


def test_incomplete_complete_roundtrip():
    bt = ref2_factor()
    b = incomplete_from_complete(bt)
    assert complete_from_incomplete(b) == bt
    # rows above the last are untouched by the corner transform
    for i in range(2):
        for k in range(3):
            assert entry_symbol(b, i, k) == entry_symbol(bt, i, k)
    # bottom-right corner picks up the (z^-1 + 1) factor
    lift = LaurentPoly({-1: F(1), 0: F(1)})
    assert entry_symbol(b, 2, 2) == entry_symbol(bt, 2, 2) * lift


def _incomplete_or_message(make, btilde):
    try:
        return make(btilde)
    except NotDivisible as exc:
        return str(exc)


@pytest.mark.parametrize("preset", [delta_operator, classical_operator, allones_operator])
def test_incomplete_from_complete_equals_the_entrywise_blocks(preset):
    seed = LaurentPoly({0: F(1, 2), 1: F(1, 2)})
    for d in range(9):
        op = preset(d)
        bt = taylor_factorize(synthesize(op, seed).mask, chain_for(op)).factor
        assert incomplete_from_complete(bt) == incomplete_from_complete_reference(bt)
    # A bottom-row entry of the d = 8 factor that does not vanish at z = 1
    # is refused alike.
    rows = [[entry_symbol(bt, i, k) for k in range(d + 1)] for i in range(d + 1)]
    rows[d][3] = rows[d][3] + LaurentPoly({-1: F(1, 3)})
    bad = Mask.from_symbol(rows)
    want = f"bottom-row entry ({d},3) does not vanish at z = 1"
    for make in (incomplete_from_complete, incomplete_from_complete_reference):
        assert _incomplete_or_message(make, bad) == want


def test_incomplete_from_complete_equals_the_entrywise_blocks_on_splines():
    for r, d in ((1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (4, 3)):
        bt = spline_verify(r, d)[1].factor
        assert incomplete_from_complete(bt) == incomplete_from_complete_reference(bt)


def test_spectral_chain_recovered_from_factorization():
    fac = taylor_factorize(ref2_mask(), delta_chain())
    b = incomplete_from_complete(fac.factor)
    ch = spectral_chain_from_factorization(ref2_mask(), b, fac.taylor, scale=fac.scale)
    got = tuple(tuple(p.coeffs for p in v.components) for v in ch.vecs)
    assert got == REF2_SPECTRAL_CHAIN
    assert verify_spectral_chain(ref2_mask(), ch).ok


def test_spectral_chain_rejects_a_chain_outside_the_span():
    # the classical chain's top vector leaves the span of the chain under S_A
    fac = taylor_factorize(ref2_mask(), delta_chain())
    b = incomplete_from_complete(fac.factor)
    with pytest.raises(SpanHypothesisFailed, match="image of level 2 is not constant on row 1"):
        spectral_chain_from_factorization(
            ref2_mask(), b, fac.taylor, chain=chain_for(classical_operator(2)), scale=fac.scale
        )


def test_spectral_chain_rejects_eigenvalues_that_are_not_powers_of_a_half():
    # Doubling the mask and the scale keeps every other hypothesis; S_A then
    # reproduces level 0 with factor 2.
    fac = taylor_factorize(ref2_mask(), delta_chain())
    b = incomplete_from_complete(fac.factor)
    want = "level 0 reproduces itself with factor 2, expected 1"
    with pytest.raises(EigenvalueClash, match=f"^{want}$"):
        spectral_chain_from_factorization(ref2_mask().scale(2), b, fac.taylor, scale=2 * fac.scale)


def test_classical_chain_is_not_spectral_for_reference_scheme():
    report = verify_spectral_chain(ref2_mask(), chain_for(classical_operator(2)))
    assert not report.ok
    assert report.failures


def test_construction_chain_is_not_spectral_either():
    # the chain the scheme was synthesized from is an annihilation tower,
    # not an eigenvector tower
    report = verify_spectral_chain(ref2_mask(), delta_chain())
    assert not report.ok


def test_spline_spectral_verdicts():
    report, fac = spline_verify(2, 1)
    assert report.spectral_ok
    assert not report.classical_spectral_holds
    assert report.factorization_ok
    assert fac.verify()


def test_verify_spectral_chain_dimension_guard():
    with pytest.raises(ValueError):
        verify_spectral_chain(ref2_mask(), chain_for(delta_operator(3)))


def _delta_factor(d):
    """The complete factor that synthesize builds for the delta operator of
    size d + 1 from the reference seed (1 + z)/2."""
    return synthesize(delta_operator(d), _ref2_seed_and_g()[0]).factorization.factor


def test_spectral_chain_recovery_dimension_guard():
    fac = taylor_factorize(ref2_mask(), delta_chain())
    b = incomplete_from_complete(fac.factor)
    for d in (1, 3):
        with pytest.raises(ValueError, match="^chain and mask dimensions differ$"):
            spectral_chain_from_factorization(
                ref2_mask(), b, fac.taylor, chain=chain_for(delta_operator(d))
            )
        with pytest.raises(ValueError, match="^operator and mask dimensions differ$"):
            spectral_chain_from_factorization(ref2_mask(), b, delta_operator(d))
        other = incomplete_from_complete(_delta_factor(d))
        with pytest.raises(ValueError, match="^factor and mask dimensions differ$"):
            spectral_chain_from_factorization(ref2_mask(), other, fac.taylor)


def test_verify_refuses_a_factor_of_another_size():
    # The sizes are checked before any product, which would fail on the
    # shapes: the operator's first, then the factor's.
    fac = taylor_factorize(ref2_mask(), delta_chain())
    for d in (1, 3):
        with pytest.raises(ValueError, match="^factor and mask dimensions differ$"):
            Factorization(fac.mask, fac.taylor, _delta_factor(d), fac.scale).verify()
        with pytest.raises(ValueError, match="^operator and mask dimensions differ$"):
            Factorization(fac.mask, delta_operator(d), fac.factor, fac.scale).verify()


def test_spectral_chain_recovery_samples_each_level_once(monkeypatch):
    # One exact image per chain level, and no second spectral check after
    # the construction that proves the relation.
    fac = taylor_factorize(ref2_mask(), delta_chain())
    b = incomplete_from_complete(fac.factor)
    calls = []

    def counting(mask, v):
        calls.append(v)
        return _image(mask, v)

    monkeypatch.setattr("hermiteforge.factor._image", counting)
    monkeypatch.setattr("hermiteforge.subdivision._image", counting)
    spectral_chain_from_factorization(ref2_mask(), b, fac.taylor, scale=fac.scale)
    assert len(calls) == 3


@settings(max_examples=10, deadline=None)
@given(
    op=operators(max_d=3, weights=rationals(-5, 5, 5)),
    n=st.integers(min_value=1, max_value=3),
)
def test_recovered_spectral_chain_is_spectral(op, n):
    # The certify path; the recovery proves the relation by construction and
    # returns without re-checking it, so the public check must agree.
    res = synthesize(op, LaurentPoly({0: F(1, 2), 1: F(1, 2)}) ** n)
    fac = taylor_factorize(res.mask, chain_for(op))
    assert fac.verify()
    assert fac.factor == res.factor
    assert unfactor(op, fac.factor) == res.mask
    chain = spectral_chain_from_factorization(res.mask, incomplete_from_complete(fac.factor), op)
    assert verify_spectral_chain(res.mask, chain).ok


@settings(max_examples=12, deadline=None)
@given(
    op=operators(max_d=3, weights=rationals(-5, 5, 5)),
    n=st.integers(min_value=1, max_value=3),
    own=st.booleans(),
    stretch=st.sampled_from((1, 2)),
    data=st.data(),
)
def test_spectral_chain_recovery_matches_the_sampled_reference(op, n, own, stretch, data):
    # The span loop on exact per-parity polynomials against the one on
    # sampled windows that it replaced: the same chain, or the same refusal.
    # A second operator's chain mostly leaves the span of the mask's, and a
    # stretched mask and scale reproduce level 0 with the factor stretch.
    res = synthesize(op, LaurentPoly({0: F(1, 2), 1: F(1, 2)}) ** n)
    fac = taylor_factorize(res.mask, chain_for(op))
    b = incomplete_from_complete(fac.factor)
    other = op if own else data.draw(
        operators(max_d=op.d, min_d=op.d, weights=rationals(-5, 5, 5))
    )
    args = (res.mask.scale(stretch), b, op, chain_for(other), stretch * fac.scale)
    outcomes = []
    for recover in (spectral_chain_from_factorization, spectral_chain_reference):
        try:
            outcomes.append(recover(*args))
        except (SpanHypothesisFailed, EigenvalueClash) as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


@st.composite
def free_constants(draw, d):
    """Free constants for every (j, k), 1 <= k <= j <= d."""
    keys = [(j, k) for j in range(1, d + 1) for k in range(1, j + 1)]
    return {key: draw(rationals(-3, 3, 4)) for key in keys}


@settings(max_examples=15, deadline=None)
@given(
    op=operators(max_d=4, weights=rationals(-5, 5, 5)),
    n=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_recovered_tower_equals_the_poly_assembly(op, n, data):
    # The operator's own chain, whose components above degree 0 vanish at 0
    # (their numerators start above x^0), and a chain with free constants:
    # the integer assembly gives the tower of Poly sums. The recovery
    # returns its input exactly when that is spectral already, as the drawn
    # constants can make it (d = 1 with constant -3/2 for the seed (z+1)/2).
    res = synthesize(op, LaurentPoly({0: F(1, 2), 1: F(1, 2)}) ** n)
    fac = taylor_factorize(res.mask, chain_for(op))
    b = incomplete_from_complete(fac.factor)
    for chain in (chain_for(op), chain_for(op, data.draw(free_constants(op.d)))):
        args = (res.mask, b, op, chain, fac.scale)
        got = spectral_chain_from_factorization(*args)
        assert got == spectral_chain_reference(*args)
        assert (got == chain) is verify_spectral_chain(res.mask, chain).ok


@settings(max_examples=25, deadline=None)
@given(scheme=schemes(), data=st.data())
def test_recovered_tower_is_the_chain_it_would_validate_as(scheme, data):
    # The recovery returns its tower without the Chain constructor's
    # annihilator and nesting checks; the constructor is the oracle: it
    # accepts the tower, gives the same chain and derives the operator of
    # the input chain, for the operator's own chain and one with constants.
    # The tower keeps the input chain's operator object, which a validated
    # copy of the own chain (a new, equal operator) tells apart from op.
    mask, op = scheme.result.mask, scheme.op
    b = incomplete_from_complete(scheme.factor)
    chains = (scheme.chain, chain_for(op, data.draw(free_constants(op.d))), Chain(scheme.chain.vecs))
    for chain in chains:
        args = (mask, b, op, chain, scheme.scale)
        got = spectral_chain_from_factorization(*args)
        assert got == spectral_chain_reference(*args)
        checked = Chain(got.vecs)
        assert checked == got
        assert checked.operator() == chain.operator()
        assert got.operator() is chain.operator()


def _counting(calls, name, f):
    def counted(*args, **kwargs):
        calls.append(name)
        return f(*args, **kwargs)

    return counted


def test_the_proof_path_derives_no_annihilator_and_scales_no_mask(monkeypatch):
    # One certify item on a new operator: the scale is folded into the
    # masks as they are built, so Mask.scale never runs, and the recovered
    # tower is returned as built, so no annihilator is derived and no
    # Chain is validated inside the recovery.
    op = TaylorOperator(((F(1),), (F(-2, 3), F(1)), (F(5, 4), F(1, 6), F(1))))
    seed = LaurentPoly({0: F(1, 2), 1: F(1, 2)}) ** 2
    scaled = []
    monkeypatch.setattr(Mask, "scale", _counting(scaled, "scale", Mask.scale))
    res = synthesize(op, seed, {(2, 0): LaurentPoly({-1: F(1, 3), 1: F(2)})})
    chain = chain_for(op)
    fac = taylor_factorize(res.mask, chain)
    b = incomplete_from_complete(fac.factor)
    derived = []
    monkeypatch.setattr(taylor, "annihilator", _counting(derived, "annihilator", taylor.annihilator))
    monkeypatch.setattr(
        Chain, "__post_init__", _counting(derived, "validate", Chain.__post_init__)
    )
    got = spectral_chain_from_factorization(res.mask, b, op)
    assert derived == []
    assert fac.verify()
    assert verify_spectral_chain(res.mask, got).ok
    assert scaled == []
    # The spies see what they watch: a validated chain derives one
    # annihilator per level, and Mask.scale is counted.
    Chain(got.vecs)
    assert derived == ["validate"] + ["annihilator"] * (got.d + 1)
    res.mask.scale(2)
    assert scaled == ["scale"]


def _assert_canonical_mask(m):
    # The fields of a mask in lowest terms, so that == compares symbols.
    assert m._den > 0
    assert gcd(m._den, *(n for row in m._num for e in row for n in e)) == 1
    assert all(type(e) is tuple and len(e) == len(m._num[0][0]) for row in m._num for e in row)
    assert any(e[0] for row in m._num for e in row)
    assert any(e[-1] for row in m._num for e in row)


@settings(max_examples=30, deadline=None)
@given(scheme=schemes(), scale=rationals(-4, 4, 9).filter(bool))
def test_a_folded_scale_keeps_every_mask_in_lowest_terms(scheme, scale):
    # taylor_factorize and unfactor fold the scale into the one mask they
    # build; a negative scale puts its sign into the numerators and keeps
    # the denominator positive. Mask.scale of the known answers is the
    # oracle: the factor at scale s is the known factor times 2^-d / s.
    mask, op = scheme.result.mask, scheme.op
    _assert_canonical_mask(mask)
    _assert_canonical_mask(scheme.factor)
    fac = taylor_factorize(mask, scheme.chain, scale)
    _assert_canonical_mask(fac.factor)
    assert fac.factor == scheme.factor.scale(scheme.scale / scale)
    assert fac.verify()
    back = unfactor(op, fac.factor, scale)
    _assert_canonical_mask(back)
    assert back == mask
    stretched = unfactor(op, scheme.factor, scale)
    _assert_canonical_mask(stretched)
    assert stretched == mask.scale(scale / scheme.scale)
    assert Factorization(stretched, op, scheme.factor, scale).verify()
    assert not Factorization(mask, op, scheme.factor, -scheme.scale).verify()


@pytest.mark.parametrize("r, d", [(1, 1), (2, 2), (3, 2), (4, 3)])
def test_spline_towers_equal_the_poly_assembly(r, d):
    # A spline chain is spectral already, so the recovery returns it.
    mask, chain = spline_mask(r, d), spline_chain(r, d)
    fac = taylor_factorize(mask, chain)
    args = (mask, incomplete_from_complete(fac.factor), allones_operator(d), chain, fac.scale)
    assert spectral_chain_from_factorization(*args) == spectral_chain_reference(*args) == chain


def test_spectral_chain_recovery_does_no_poly_arithmetic():
    # The span loop, the eigen solve and the tower assembly work on integer
    # numerators and Fraction scalars; no Poly is added or multiplied.
    op = TaylorOperator(((F(1),), (F(-2, 3), F(1)), (F(5, 4), F(1, 6), F(1))))
    res = synthesize(op, LaurentPoly({0: F(1, 2), 1: F(1, 2)}) ** 2)
    fac = taylor_factorize(res.mask, chain_for(op))
    b = incomplete_from_complete(fac.factor)
    args = (res.mask, b, op, chain_for(op, {(3, 1): 2}), fac.scale)
    refuse = mock.Mock(side_effect=AssertionError("Poly arithmetic"))
    names = ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__", "__neg__")
    arithmetic = dict.fromkeys(names, refuse)
    with mock.patch.multiple(LaurentPoly, **arithmetic):
        got = spectral_chain_from_factorization(*args)
    assert got == spectral_chain_reference(*args)


def test_factorization_stages_build_no_laurent_poly():
    # assemble_factor, unfactor, taylor_factorize and incomplete_from_complete
    # read and write integer numerators: with every LaurentPoly and Poly
    # constructor refusing, they give the entrywise references' results.
    op = TaylorOperator(((F(1),), (F(-2, 3), F(1)), (F(5, 4), F(1, 6), F(1))))
    g = {(2, 0): LaurentPoly({-1: F(1, 3), 1: F(2)}), (1, 0): LaurentPoly({0: F(-1, 2)})}
    res = synthesize(op, LaurentPoly({0: F(1, 2), 1: F(1, 2)}) ** 2, g)
    chain = chain_for(op)
    refuse = mock.Mock(side_effect=AssertionError("LaurentPoly built"))
    with (
        mock.patch.object(LaurentPoly, "__init__", refuse),
        mock.patch.object(LaurentPoly, "_raw", refuse),
        mock.patch.object(Poly, "__init__", refuse),
    ):
        factor = assemble_factor(op, res.last_row, g)
        mask = unfactor(op, factor)
        fac = taylor_factorize(mask, chain)
        b = incomplete_from_complete(fac.factor)
    assert factor == res.factor
    assert mask == unfactor_reference(op, factor) == res.mask
    assert fac.factor == taylor_factorize_reference(mask, chain).factor
    assert b == incomplete_from_complete_reference(fac.factor)
