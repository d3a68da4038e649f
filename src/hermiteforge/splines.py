"""Hermite schemes refining cardinal B-spline data, and the exact integer
values of the splines and their derivatives at dyadic points that the
cascade check compares the rendered data with: one cached table per (r, k)
holds the integer pieces of (r-k)! B_r^(k) between consecutive knots, and a
sample is one integer Horner evaluation on its piece.

The degree-r scalar mask is a_r(alpha) = 2^-r binom(r+1, alpha). The Hermite
mask of dimension d+1 (d <= r) puts iterated differences of a_r in its first
column; all other columns vanish. Its eigenpolynomials are derivatives of
ell_r = (x+1)...(x+r)/r!, and the associated chain is annihilated by the
all-ones Taylor operator. spline_mask(r, d) and spline_chain(r, d) return one
shared instance per (r, d), so a scheme's mask tables and its chain's
annihilators are built once per process; r and d must be ints (not bools)
and are checked before the shared instance is looked up.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache, wraps
from itertools import chain
from math import comb, factorial, isfinite, perm
from typing import Callable

from .analysis import cascade
from .exactalg import LaurentPoly, _horner, _int_count, _report_json
from .factor import Factorization, taylor_factorize, verify_spectral_chain
from .polybasis import Poly, PolyVec
from .subdivision import Mask
from .taylor import Chain, allones_operator, chain_for, classical_operator


class BadOrder(ValueError):
    """Raised for spline parameters outside 1 <= r and 0 <= d <= r."""


def _check_rd(r: int, d: int) -> None:
    """r and d must be ints, not bools (TypeError), with 1 <= r and
    0 <= d <= r (BadOrder)."""
    if _int_count(r, "r") < 1:
        raise BadOrder(f"spline degree must be at least 1, got r={r}")
    if not 0 <= _int_count(d, "d") <= r:
        raise BadOrder(f"derivative count must satisfy 0 <= d <= r, got d={d} for r={r}")


def scalar_spline_symbol(r: int) -> LaurentPoly:
    """a_r*(z) = (1+z)^(r+1) / 2^r, for an int r >= 1."""
    if _int_count(r, "r") < 1:
        raise BadOrder(f"spline degree must be at least 1, got r={r}")
    zp1 = LaurentPoly({1: 1, 0: 1})
    return zp1 ** (r + 1) / 2**r


def _preset(make: Callable) -> Callable:
    """Share one object per (r, d), as the operator presets share one per d.
    r and d are checked by _check_rd before the shared instance is looked
    up, so True is never read as the r = 1 entry."""
    shared = cache(make)

    @wraps(make)
    def preset(r: int, d: int):
        _check_rd(r, d)
        return shared(r, d)

    return preset


@_preset
def spline_mask(r: int, d: int) -> Mask:
    """The Hermite mask: column 0 holds a_r and its shifted differences.
    One shared instance per (r, d).

    Row i has symbol (1-z)^i (1+z)^(r+1) / 2^r, which is the symbol of
    (Delta^i a_r)(. - i)."""
    base = scalar_spline_symbol(r)
    onemz = LaurentPoly({0: 1, 1: -1})
    zero = LaurentPoly.zero()
    rows = []
    for i in range(d + 1):
        row = [onemz**i * base] + [zero] * d
        rows.append(row)
    return Mask.from_symbol(rows)


def ell_polynomial(r: int) -> Poly:
    """(x+1)(x+2)...(x+r) / r!, for an int r (not a bool)."""
    p = Poly.one()
    for j in range(1, _int_count(r, "r") + 1):
        p = p * Poly((j, 1))
    return p / factorial(r)


def spline_eigenpoly(r: int, i: int) -> Poly:
    """p_i = the (r-i)-th derivative of ell_r; S_{a_r} p_i = 2^-i p_i. r and
    i must be ints, not bools (TypeError)."""
    _int_count(r, "r")
    if not 0 <= _int_count(i, "i") <= r:
        raise BadOrder(f"eigenpolynomial index must satisfy 0 <= i <= r, got {i}")
    return ell_polynomial(r).derivative(r - i)


@_preset
def spline_chain(r: int, d: int) -> Chain:
    """Chain for the spline Hermite scheme: level j stacks the shifted
    differences Delta^(j-t) p_j(. - (j-t)) by degree t. One shared instance
    per (r, d), validated once."""
    vecs = []
    for j in range(d + 1):
        pj = spline_eigenpoly(r, j)
        comps = []
        for t in range(j + 1):
            k = j - t
            comps.append(pj.forward_difference(k).shift(-k))
        vecs.append(PolyVec(tuple(comps)))
    return Chain(tuple(vecs))


@lru_cache(maxsize=128)
def _derivative_pieces(r: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Integer coefficients, lowest degree first, of (r-k)! B_r^(k) on
    [m, m+1) for m = 0..r: the k-th derivatives of the truncated-power pieces
    r! B_r(x) = sum_{j<=m} (-1)^j binom(r+1, j) (x - j)^r, divided exactly
    by r!/(r-k)! (coefficient t becomes binom(r-k, t-k) times an integer)."""
    pieces = []
    coeffs = [0] * (r + 1)
    scale = perm(r, k)
    for m in range(r + 1):
        w = (-1) ** m * comb(r + 1, m)
        for t in range(r + 1):
            coeffs[t] += w * comb(r, t) * (-m) ** (r - t)
        pieces.append(tuple(perm(t, k) * c // scale for t, c in enumerate(coeffs[k:], start=k)))
    return tuple(pieces)


@dataclass(frozen=True)
class SplineCascadeReport:
    """Componentwise sup errors between rendered Hermite data and the exact
    spline derivatives at the Greville-shifted abscissae."""

    r: int
    d: int
    levels: int
    tol: float
    errors: tuple[float, ...]
    points: tuple[int, ...]
    ok: bool

    def to_json(self) -> dict:
        return _report_json(self)


def check_spline_cascade(
    r: int, d: int, levels: int = 11, tol: float = 1e-6
) -> SplineCascadeReport:
    """Cascade from delta data and compare against the exact spline.

    Component k is compared at x = 2^-n (alpha + (r+1)/2 - k/2): the
    coefficients of a spline scheme track the limit at Greville-shifted
    points, and every difference row shifts the natural abscissa by half a
    step. Component k = r, whose derivative jumps at the knots, needs no
    knot test: its numerator 2 alpha + 1 is odd and the denominator 2^(n+1)
    even, so it is sampled at midpoints, never at a knot. The points
    compared are those with 0 < x < r + 1, an index range worked out from
    the grid's start; each component takes its pieces once and compares
    in one pass, from a running max of 0.0. A bool tol is refused with
    TypeError, and a tol that is not a nonnegative finite number with
    ValueError."""
    _check_rd(r, d)
    if isinstance(tol, bool):
        raise TypeError(f"tol must be a number, not a bool, got {tol!r}")
    if not (isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be a nonnegative finite number, got {tol}")
    mask = spline_mask(r, d)
    window = (-(r + 2), r + 2)
    grids = cascade(mask, levels, "delta", window, exact=False)
    final = grids[-1]
    # Component k sits at x = num / den, num = 2 (start + idx) + r + 1 - k.
    den = 2 ** (final.level + 1)
    end = (r + 1) * den
    errors = []
    points = []
    for k, row in enumerate(final._rows):
        scale = factorial(r - k) * den ** (r - k)
        pieces = _derivative_pieces(r, k)
        # The idx with 0 < num < end: num0 + 2 idx > 0 from lo on, and
        # num0 + 2 idx < end below hi.
        num0 = 2 * final.start + r + 1 - k
        lo = max(0, -num0 // 2 + 1)
        hi = min(final.npoints, (end - num0 + 1) // 2)
        nums = range(num0 + 2 * lo, num0 + 2 * hi, 2)
        # int / int rounds correctly, exactly as float(Fraction) does
        errs = [
            abs(x - _horner(pieces[num // den], num, den) / scale)
            for x, num in zip(row[lo:hi], nums)
        ]
        errors.append(max(chain((0.0,), errs)))
        points.append(len(errs))
    ok = all(e <= tol for e in errors)
    return SplineCascadeReport(
        r=r, d=d, levels=levels, tol=tol, errors=tuple(errors), points=tuple(points), ok=ok
    )


@dataclass(frozen=True)
class SplineVerifyReport:
    r: int
    d: int
    chain_ok: bool
    operator_allones: bool
    spectral_ok: bool
    classical_spectral_holds: bool
    factorization_ok: bool

    @property
    def ok(self) -> bool:
        return self.chain_ok and self.spectral_ok and self.factorization_ok

    def to_json(self) -> dict:
        return _report_json(self, ok=self.ok)


def spline_verify(r: int, d: int) -> tuple[SplineVerifyReport, Factorization]:
    """Verify the spline scheme end to end and return its factorization.

    The classical-condition verdict is informational: for d = 0 the classical
    and spline chains coincide, so it holds there and fails once genuine
    derivative components enter. chain_ok reports the compatibility check
    in the Chain constructor and factorization_ok the identity proved by the
    divisions of taylor_factorize; each raises rather than return an unproven object."""
    mask, chain = spline_mask(r, d), spline_chain(r, d)
    operator_allones = chain.operator().w == allones_operator(d).w
    spectral = verify_spectral_chain(mask, chain)
    classical = verify_spectral_chain(mask, chain_for(classical_operator(d)))
    fac = taylor_factorize(mask, chain)
    return (
        SplineVerifyReport(
            r=r,
            d=d,
            chain_ok=True,
            operator_allones=operator_allones,
            spectral_ok=spectral.ok,
            classical_spectral_holds=classical.ok,
            factorization_ok=True,
        ),
        fac,
    )
