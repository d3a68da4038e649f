"""Factorization through Taylor operators and spectral chains."""

from fractions import Fraction as F

import pytest

from goldens import (
    REF2_FACTOR,
    REF2_MASK,
    REF2_SCALE,
    REF2_SPECTRAL_CHAIN,
    mask_from_entries,
)
from hermiteforge import (
    NotAnnihilated,
    NotDivisible,
    SpanHypothesisFailed,
    chain_for,
    classical_operator,
    complete_from_incomplete,
    delta_operator,
    incomplete_from_complete,
    spectral_chain_from_factorization,
    spline_verify,
    taylor_factorize,
    unfactor,
    verify_spectral_chain,
)


def ref2_mask():
    return mask_from_entries(REF2_MASK, 2)


def ref2_factor():
    return mask_from_entries(REF2_FACTOR, 2)


def delta_chain():
    return chain_for(delta_operator(2))


def test_factorize_reference_scheme_exactly():
    fac = taylor_factorize(ref2_mask(), delta_chain())
    assert fac.scale == REF2_SCALE
    want = ref2_factor().symbol()
    got = fac.factor.symbol()
    for i in range(3):
        for k in range(3):
            assert got.rows[i][k] == want.rows[i][k]
    assert fac.verify()


def test_unfactor_reference_scheme_exactly():
    mask = unfactor(delta_operator(2), ref2_factor(), REF2_SCALE)
    want = ref2_mask().symbol()
    got = mask.symbol()
    for i in range(3):
        for k in range(3):
            assert got.rows[i][k] == want.rows[i][k]


def test_factor_unfactor_roundtrip_on_splines():
    for r, d in ((1, 1), (2, 1), (2, 2), (3, 2)):
        _, fac = spline_verify(r, d)
        back = unfactor(fac.taylor, fac.factor, fac.scale)
        assert back.symbol() == fac.mask.symbol()


def test_factorize_rejects_perturbed_mask():
    entries = dict(REF2_MASK)
    entries[(0, 0, -4)] = entries[(0, 0, -4)] + 1
    with pytest.raises((NotAnnihilated, NotDivisible)):
        taylor_factorize(mask_from_entries(entries, 2), delta_chain())


def test_incomplete_complete_roundtrip():
    bt = ref2_factor()
    b = incomplete_from_complete(bt)
    assert complete_from_incomplete(b).symbol() == bt.symbol()
    # rows above the last are untouched by the corner transform
    bs, bts = b.symbol(), bt.symbol()
    for i in range(2):
        for k in range(3):
            assert bs.rows[i][k] == bts.rows[i][k]
    # bottom-right corner picks up the (z^-1 + 1) factor
    from hermiteforge import LaurentPoly

    lift = LaurentPoly({-1: F(1), 0: F(1)})
    assert bs.rows[2][2] == bts.rows[2][2] * lift


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
