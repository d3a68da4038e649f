"""Factorizing Hermite masks through Taylor operators, and the reverse path
from a factor back to a mask or even to a full spectral chain.

The central identity is T*(z) A*(z) = scale * B*(z) T*(z^2): applying the
difference operator after refining equals refining differenced data with the
factor scheme B. The complete operator pairs with the factor written B-tilde
in displays; the incomplete variant keeps the top-derivative row undivided.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactalg import LaurentPoly, NotDivisible, _report_json, delta_symbol, rat_to_str
from .polybasis import Poly, PolyVec
from .subdivision import Mask, _image, eigen_check
from .taylor import Chain, TaylorOperator, chain_for


class NotAnnihilated(Exception):
    """Raised when data expected to be killed by the difference operator is not."""


class EigenvalueClash(Exception):
    """Raised when the extracted eigenvalues are not the expected distinct
    powers of 1/2."""


class SpanHypothesisFailed(Exception):
    """Raised when S_A does not map the padded chain into its own span."""


@dataclass(frozen=True)
class SpectralFailure:
    level: int
    alpha: int
    row: int
    got: Fraction
    want: Fraction

    def to_json(self) -> dict:
        return _report_json(self)


@dataclass(frozen=True)
class SpectralReport:
    """Outcome of checking S_A v-hat_j = 2^-j v-hat_j across a chain."""

    ok: bool
    d: int
    failures: tuple[SpectralFailure, ...]

    def to_json(self) -> dict:
        eigenvalues = [rat_to_str(Fraction(1, 2**j)) for j in range(self.d + 1)]
        return _report_json(self, eigenvalues=eigenvalues)


def verify_spectral_chain(mask: Mask, chain: Chain) -> SpectralReport:
    """Check the eigenvector property level by level; exact, conclusive."""
    if chain.d != mask.d:
        raise ValueError("chain and mask dimensions differ")
    failures = []
    for j, v in enumerate(chain.vecs):
        hit = eigen_check(mask, v, Fraction(1, 2**j))
        if hit is not None:
            alpha, row, got, want = hit
            failures.append(SpectralFailure(j, alpha, row, got, want))
    return SpectralReport(ok=not failures, d=chain.d, failures=tuple(failures))


def _identity_holds(t: Mask, t_z2: Mask, a: Mask, b: Mask, scale: Fraction) -> bool:
    """t(z) A*(z) == scale * B*(z) t(z^2), t_z2 being t(z^2), decided by one
    mask comparison (no mask is zero, so a zero scale never holds)."""
    return scale != 0 and t * a == (b * t_z2).scale(scale)


def _checked_scale(scale: Fraction | None, d: int) -> Fraction:
    """The scale of the identity: 2^-d when none is given; zero is refused."""
    if scale is None:
        return Fraction(1, 2**d)
    if scale == 0:
        raise ValueError("the factorization scale must be nonzero")
    return scale


@dataclass(frozen=True)
class Factorization:
    """A mask, the Taylor operator it factors through, the factor mask, and
    the scale in T*(z) A*(z) = scale * B*(z) T*(z^2)."""

    mask: Mask
    taylor: TaylorOperator
    factor: Mask
    scale: Fraction

    def verify(self) -> bool:
        op = self.taylor
        return _identity_holds(op.symbol(), op.symbol_z2, self.mask, self.factor, self.scale)

    def to_json(self) -> dict:
        return {
            "A": self.mask.to_json(),
            "taylor": self.taylor.to_json(),
            "B": self.factor.to_json(),
            "scale": rat_to_str(self.scale),
        }


def taylor_factorize(
    mask: Mask, chain: Chain, scale: Fraction | None = None
) -> Factorization:
    """Factor a mask through the complete symbol of a chain's operator.

    C* = T-tilde* A* is solved for B-tilde* column by column, each column by an
    exact division by z^-2 - 1. A mask that factors annihilates the padded
    chain, so the exact annihilation check runs only after a division
    fails, to name the first level left alive (NotAnnihilated); if there is
    none, the NotDivisible stands. The identity is checked exactly once, here,
    and a failure raises: every returned factorization carries a proven one.
    """
    d = mask.d
    if chain.d != d:
        raise ValueError("chain and mask dimensions differ")
    scale = _checked_scale(scale, d)
    op = chain.operator()
    c_mask = op.symbol() * mask
    u2 = delta_symbol(2)
    size = d + 1
    b: list[list[LaurentPoly]] = [[LaurentPoly.zero()] * size for _ in range(size)]
    for k in range(size):
        for i in range(size):
            num = c_mask.entry_symbol(i, k)
            for l in range(k):
                wv = op.w[k - 1][l]
                if wv:
                    num = num + b[i][l] * wv
            try:
                b[i][k] = num.divide_exact(u2)
            except NotDivisible as exc:
                for j, v in enumerate(chain.vecs):
                    hit = eigen_check(c_mask, v, 0)
                    if hit is not None:
                        alpha, row, got, _ = hit
                        raise NotAnnihilated(
                            f"level {j} is not annihilated: row {row} at alpha={alpha} gives {got}"
                        ) from exc
                raise NotDivisible(f"column division failed at entry ({i},{k}): {exc}") from exc
    unscaled = Mask.from_symbol(b)
    if c_mask != unscaled * op.symbol_z2:
        raise AssertionError("factorization identity failed after the column solve")
    return Factorization(mask=mask, taylor=op, factor=unscaled.scale(1 / scale), scale=scale)


def unfactor(
    op: TaylorOperator, factor: Mask, scale: Fraction | None = None
) -> Mask:
    """Recover the mask A from its factor: A* = scale * (T-tilde*)^-1 B* T-tilde*(z^2).

    (T-tilde*)^-1 = W diag(u^-(l+1)) with W = op.inverse_numerators and
    u = z^-1 - 1, so A* = scale * W E, where row l of E is row l of
    G = B* T-tilde*(z^2) divided exactly by u^(l+1). A failed division names
    the first entry whose divisibility condition breaks.
    """
    d = op.d
    if factor.d != d:
        raise ValueError("operator and factor dimensions differ")
    scale = _checked_scale(scale, d)
    upow = op.u_powers
    g = factor * op.symbol_z2
    size = d + 1
    e: list[list[LaurentPoly]] = [[LaurentPoly.zero()] * size for _ in range(size)]
    for l in range(size):
        for k in range(size):
            entry = g.entry_symbol(l, k)
            if entry.is_zero:
                continue
            try:
                e[l][k] = entry.divide_exact(upow[l + 1])
            except NotDivisible as exc:
                raise NotDivisible(
                    f"divisibility condition failed at entry ({l},{k}): "
                    f"row {l} requires a factor (z^-1 - 1)^{l + 1}"
                ) from exc
    mask = (op.inverse_numerators * Mask.from_symbol(e)).scale(scale)
    if op.symbol() * mask != g.scale(scale):
        raise AssertionError("unfactor did not satisfy the factorization identity")
    return mask


def incomplete_from_complete(btilde: Mask) -> Mask:
    """Translate the complete-operator factor B-tilde into the incomplete one:
    multiply the last column by z^-2 - 1, then divide the last row by z^-1 - 1.

    Requires every bottom-row entry left of the corner to vanish at z = 1
    (so the division is exact); the corner always divides."""
    d = btilde.d
    u2 = delta_symbol(2)
    rows = [[btilde.entry_symbol(i, k) for k in range(d + 1)] for i in range(d + 1)]
    for row in rows:
        row[d] = row[d] * u2
    u = delta_symbol(1)
    for k, f in enumerate(rows[d]):
        try:
            rows[d][k] = f.divide_exact(u)
        except NotDivisible as exc:
            raise NotDivisible(f"bottom-row entry ({d},{k}) does not vanish at z = 1") from exc
    return Mask.from_symbol(rows)


def _last_column_partition_of_unity(mask: Mask) -> bool:
    """S_B e_d = e_d: per parity, the last columns must sum to e_d."""
    d, den = mask.d, mask._den
    return all(
        sum(row[d][parity::2]) == (den if i == d else 0)
        for parity in (0, 1)
        for i, row in enumerate(mask._num)
    )


def spectral_chain_from_factorization(
    mask: Mask,
    factor_incomplete: Mask,
    op: TaylorOperator,
    chain: Chain | None = None,
    scale: Fraction | None = None,
) -> Chain:
    """Build a spectral chain for the mask out of an incomplete factorization.

    Hypotheses checked exactly: the incomplete identity
    T*(z) A*(z) = scale * B*(z) T*(z^2), the partition property S_B e_d = e_d,
    and that S_A maps each padded chain vector into the span of the lower
    ones. The span loop proves S_A V = V U, and S solves U S = S Lambda, so
    the returned tower V S satisfies S_A (V S) = (V S) Lambda unchecked.
    """
    d = mask.d
    if op.d != d:
        raise ValueError("operator and mask dimensions differ")
    if chain is None:
        chain = chain_for(op)
    elif chain.d != d:
        raise ValueError("chain and mask dimensions differ")
    scale = _checked_scale(scale, d)
    t = op.incomplete_symbol
    if not _identity_holds(t, t.substitute_power(2), mask, factor_incomplete, scale):
        raise ValueError("incomplete factorization identity does not hold")
    if not _last_column_partition_of_unity(factor_incomplete):
        raise ValueError("factor does not reproduce the constant top-derivative data")

    size = d + 1
    images = [_image(mask, v) for v in chain.vecs]
    umat = [[Fraction(0)] * size for _ in range(size)]
    for j in range(size):
        # The image of level j, per parity, as integer coefficients over den.
        work, _, q = images[j]
        den = mask._den * q
        for k in range(size - 1, -1, -1):
            even, odd = work[0][k], work[1][k]
            if even != odd or any(even[1:]):
                raise SpanHypothesisFailed(
                    f"image of level {j} is not constant on row {k}; "
                    "it leaves the span of the chain"
                )
            c = even[0]
            if c == 0:
                continue
            if k > j:
                raise SpanHypothesisFailed(
                    f"image of level {j} has a component on level {k}"
                )
            umat[k][j] = Fraction(c, den)
            # work / den - (c / den) (vhat / q) = (q work - c vhat) / (den q)
            _, vhat, q = images[k]
            pairs = zip(work, vhat)
            work = [[[q * w - c * x for w, x in zip(*wx)] for wx in zip(*p)] for p in pairs]
            den *= q
    # Unit upper-triangular change of basis diagonalizing U, whose diagonal must be 2^-j.
    smat = [[Fraction(0)] * size for _ in range(size)]
    for j in range(size):
        lam = Fraction(1, 2**j)
        if umat[j][j] != lam:
            raise EigenvalueClash(
                f"level {j} reproduces itself with factor {umat[j][j]}, expected {lam}"
            )
        smat[j][j] = Fraction(1)
        for i in range(j - 1, -1, -1):
            acc = sum(umat[i][m] * smat[m][j] for m in range(i + 1, j + 1))
            smat[i][j] = acc / (lam - umat[i][i])
    vecs = []
    for j in range(size):
        comps = []
        for tdeg in range(j + 1):
            p = Poly.zero()
            for k in range(j - tdeg, j + 1):
                coef = smat[k][j]
                if coef:
                    p = p + chain.vecs[k].components[k - j + tdeg] * coef
            comps.append(p)
        vecs.append(PolyVec(tuple(comps)))
    return Chain(tuple(vecs))
