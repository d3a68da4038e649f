"""Factorizing Hermite masks through Taylor operators, and the reverse path
from a factor back to a mask or even to a full spectral chain.

The central identity is T*(z) A*(z) = scale * B*(z) T*(z^2): applying the
difference operator after refining equals refining differenced data with the
factor scheme B. The complete operator pairs with the factor written B-tilde
in displays; the incomplete variant keeps the top-derivative row undivided.

Every stage here works on the masks' integer numerators and builds one mask:
its divisions are by z^-2 - 1 (the column solve) and by u = z^-1 - 1
(unfactor's rows, the incomplete factor's last row), each a running sum per
residue class (exactalg._divide_by_delta). Exact or NotDivisible, they prove
the identity; Factorization.verify checks a caller's factorization by product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .exactalg import (
    NotDivisible,
    RationalLike,
    _divide_by_delta,
    _rational,
    _report_json,
    rat_to_str,
)
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
    mask comparison (a zero scale never holds); an operator or a factor of
    another size raises."""
    if t.d != a.d:
        raise ValueError("operator and mask dimensions differ")
    if b.d != a.d:
        raise ValueError("factor and mask dimensions differ")
    return scale != 0 and t * a == b._product(t_z2, *_rational(scale).as_integer_ratio())


def _checked_scale(scale: RationalLike | None, d: int) -> Fraction:
    """The scale of the identity as a Fraction: 2^-d when none is given; an
    int is taken, zero is refused with ValueError and a float with TypeError."""
    if scale is None:
        return Fraction(1, 2**d)
    scale = Fraction(_rational(scale))
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
        return _identity_holds(op.symbol, op.symbol_z2, self.mask, self.factor, self.scale)

    def to_json(self) -> dict:
        return {
            "A": self.mask.to_json(),
            "taylor": self.taylor.to_json(),
            "B": self.factor.to_json(),
            "scale": rat_to_str(self.scale),
        }


def taylor_factorize(
    mask: Mask, chain: Chain, scale: RationalLike | None = None
) -> Factorization:
    """Factor a mask through the complete symbol of a chain's operator.

    C* = T-tilde* A* is solved for B-tilde* column by column, each column by an
    exact division by z^-2 - 1. A mask that factors annihilates the padded
    chain, so the exact annihilation check runs only after a division
    fails, to name the first level left alive (NotAnnihilated); if there is
    none, the NotDivisible stands. The exact divisions solve C* = B-tilde*
    T-tilde*(z^2), so every returned factorization holds with no product check.
    """
    d = mask.d
    if chain.d != d:
        raise ValueError("chain and mask dimensions differ")
    scale = _checked_scale(scale, d)
    op = chain.operator()
    c_mask = op.symbol * mask
    den, big = op._int_weights
    size = d + 1
    # Column k of B-tilde* holds numerators over c_mask._den * den^k, starting
    # two powers above C*'s support: with w = W / den, column k of C* times
    # den^k plus W[k-1][l] den^(k-1-l) times column l, divided by z^-2 - 1.
    cols: list[list[list[int]]] = []
    for k in range(size):
        dk = den**k
        terms = [(big[k - 1][l] * den ** (k - 1 - l), cols[l]) for l in range(k) if big[k - 1][l]]
        col = []
        for i in range(size):
            num = [n * dk for n in c_mask._num[i][k]]
            for f, bl in terms:
                num[2:] = [a + f * b for a, b in zip(num[2:], bl[i])]
            try:
                col.append(_divide_by_delta(num, 2))
            except NotDivisible as exc:
                for j, v in enumerate(chain.vecs):
                    hit = eigen_check(c_mask, v, 0)
                    if hit is not None:
                        alpha, row, got, _ = hit
                        raise NotAnnihilated(
                            f"level {j} is not annihilated: row {row} at alpha={alpha} gives {got}"
                        ) from exc
                raise NotDivisible(f"column division failed at entry ({i},{k}): {exc}") from exc
        cols.append(col)
    # Every column over c_mask._den * den^d, divided by scale = p / q: the
    # lift takes q and the sign of p, the one denominator |p|, which keeps
    # it positive.
    p, q = scale.as_integer_ratio()
    lift = [den ** (d - k) * (q if p > 0 else -q) for k in range(size)]
    entries = [[[n * f for n in col[i]] for col, f in zip(cols, lift)] for i in range(size)]
    factor = Mask._raw(c_mask.support_min + 2, entries, c_mask._den * den**d * abs(p))
    return Factorization(mask=mask, taylor=op, factor=factor, scale=scale)


def unfactor(
    op: TaylorOperator, factor: Mask, scale: RationalLike | None = None
) -> Mask:
    """Recover the mask A from its factor: A* = scale * (T-tilde*)^-1 B* T-tilde*(z^2).

    (T-tilde*)^-1 = W diag(u^-(l+1)) with W = op.inverse_numerators and
    u = z^-1 - 1, so A* = scale * W E, where row l of E is row l of
    G = B* T-tilde*(z^2) divided exactly by u^(l+1), as l + 1 running sums
    over its numerators. The quotient starts l + 1 powers above G's support,
    so l leading zeros put every row of E on one support. A failed division names
    the first entry whose divisibility condition breaks: only masks whose row
    l of T-tilde*(z) A*(z) has the factor u^(l+1), as every synthesize output's
    has, are recovered; the exact divisions prove the identity, and no product checks it.
    """
    d = op.d
    if factor.d != d:
        raise ValueError("operator and factor dimensions differ")
    scale = _checked_scale(scale, d)
    g = factor * op.symbol_z2
    width = len(g._num[0][0])
    rows = []
    for l, row in enumerate(g._num):
        out = []
        for k, q in enumerate(row):
            if not any(q):
                out.append([0] * (width - 1))
                continue
            try:
                for _ in range(l + 1):
                    q = _divide_by_delta(q, 1)
            except NotDivisible as exc:
                raise NotDivisible(
                    f"divisibility condition failed at entry ({l},{k}): "
                    f"row {l} requires a factor (z^-1 - 1)^{l + 1}"
                ) from exc
            out.append([0] * l + q)
        rows.append(out)
    e = Mask._raw(g.support_min + 1, rows, g._den)
    return op.inverse_numerators._product(e, *scale.as_integer_ratio())


def incomplete_from_complete(btilde: Mask) -> Mask:
    """Translate the complete-operator factor B-tilde into the incomplete one:
    multiply the last column by z^-2 - 1, then divide the last row by z^-1 - 1.

    Requires every bottom-row entry left of the corner to vanish at z = 1
    (so the division is exact); the corner always divides. Every entry is
    written from z^-2 on btilde's support: the product shifts and subtracts
    the numerators, and the quotient, from z^-1, gets one leading zero."""
    d = btilde.d
    rows = []
    for row in btilde._num:
        out = [[0, 0, *e] for e in row[:d]]
        last = row[d]
        out.append([a - b for a, b in zip([*last, 0, 0], [0, 0, *last])])
        rows.append(out)
    for k, f in enumerate(rows[d]):
        try:
            rows[d][k] = [0, *_divide_by_delta(f, 1)]
        except NotDivisible as exc:
            raise NotDivisible(f"bottom-row entry ({d},{k}) does not vanish at z = 1") from exc
    return Mask._raw(btilde.support_min - 2, rows, btilde._den)


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
    scale: RationalLike | None = None,
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
            # work / den - (c / den) (vhat / q) = (q work - c vhat) / (den q),
            # kept only on the rows below k, the ones read after this.
            _, vhat, q = images[k]
            pairs = zip(work, vhat)
            work = [
                [[q * w - c * x for w, x in zip(*wx)] for wx in zip(p[0][:k], p[1])]
                for p in pairs
            ]
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
    # Component t of level j is sum_k smat[k][j] v_k[k - j + t]: one integer
    # combination of the numerators over the lcm of the denominators. The
    # tower is returned as built: smat is unit upper triangular, so Delta w_j
    # expands in w_0 .. w_(j-1) by the weights that expand Delta v_j in
    # v_0 .. v_(j-1) (those of v_k are the leading ones of v_j's, the input
    # chain being nested), and w_j has the annihilator of v_j.
    vecs = []
    for j in range(size):
        comps = []
        for tdeg in range(j + 1):
            terms = [
                (smat[k][j], chain.vecs[k].components[k - j + tdeg])
                for k in range(j - tdeg, j + 1)
                if smat[k][j]
            ]
            den = lcm(*(c.denominator * p._den for c, p in terms))
            nums = [0] * (tdeg + 1)
            for c, p in terms:
                f, dense = c.numerator * (den // (c.denominator * p._den)), p._dense()
                nums[: len(dense)] = [a + f * n for a, n in zip(nums, dense)]
            comps.append(Poly._make(0, nums, den))
        vecs.append(PolyVec(tuple(comps)))
    return Chain._nested(tuple(vecs), chain.operator())
