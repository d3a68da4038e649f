"""Synthesis of Hermite masks that factor through a prescribed Taylor
operator with contraction built in.

The factor mask is assembled directly: rows below the last are multiples of
(z^-1 - 1)^(j+1) with diagonal (z^-1 - 1)^(j+1) / 2^(j+1); the last row is
(z^-1 - 1)^(d-j) h_j(z^-1) for polynomials h_j pinned either by a square
linear system (general weights) or by the recurrence h_j = (z+1) h_{j+1}
(pure-difference weights). Each entry is its numerator list times the
signed binomial list of a power of u = z^-1 - 1, all over one denominator.
Undoing the factorization yields the mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Mapping, Sequence

from .exactalg import (
    LaurentPoly,
    RationalLike,
    _index_pair,
    _is_rational,
    _mul_add,
    _over_one_denominator,
    _taylor_shift,
    falling_factorial,
    rat_to_str,
)
from .factor import Factorization, unfactor
from .subdivision import Mask
from .taylor import TaylorOperator


class BadSeed(ValueError):
    """Raised when the corner seed polynomial does not take value 1 at z = 1."""


def _check_seed(seed: object) -> None:
    """Refuse a corner seed that is not a LaurentPoly (TypeError, naming the
    type) or does not take the value 1 at z = 1 (BadSeed)."""
    if not isinstance(seed, LaurentPoly):
        raise TypeError(f"the corner seed must be a LaurentPoly, got {type(seed).__name__}")
    if seed.is_zero or seed.evaluate(1) != 1:
        raise BadSeed("the corner seed must take the value 1 at z = 1")


def _unknown_order(d: int) -> list[tuple[int, int]]:
    """Unknown layout: blocks m = d-1 .. 0, within a block r = m+1 .. 1."""
    out = []
    for m in range(d - 1, -1, -1):
        for r in range(m + 1, 0, -1):
            out.append((m, r))
    return out


def _equation_order(d: int) -> list[tuple[int, int]]:
    """Equation layout mirrors the unknowns: j = d .. 1, within r = j .. 1."""
    return [(m + 1, r) for m, r in _unknown_order(d)]


@dataclass(frozen=True)
class LastRowSystem:
    """The square system pinning the derivative data of the last-row symbols.

    Unknowns are h_{m,r} = (d/dz)^r h_m at z = 1 for m < d, r = 1..m+1; the
    matrix and right-hand side are kept for inspection, solution holds the
    solved values keyed by (m, r), and determinant is the product of the
    pivots that the forward substitution divided by (each is -1 or +1).
    """

    d: int
    taylor: TaylorOperator
    seed: LaurentPoly
    matrix: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]
    solution: Mapping[tuple[int, int], Fraction]
    determinant: Fraction

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "unknowns": [f"{m},{r}" for m, r in _unknown_order(self.d)],
            "matrix": [[rat_to_str(v) for v in row] for row in self.matrix],
            "rhs": [rat_to_str(v) for v in self.rhs],
            "solution": {f"{m},{r}": rat_to_str(v) for (m, r), v in sorted(self.solution.items())},
            "determinant": rat_to_str(self.determinant),
        }


def build_last_row_system(op: TaylorOperator, seed: LaurentPoly) -> LastRowSystem:
    """Assemble the derivative-matching system at z = 1 and solve it by
    forward substitution.

    Knowns: h_m(1) = 2^(d-m) for every m, and all derivatives of the seed
    h_d. One equation, at (j, r) = (1, 1) for d >= 2, takes the known
    2^(d-1) with the opposite sign; that block has one more condition than
    the divisibility of the synthesized row needs, and this is the pinning
    that keeps the standard two-point families reproducible.
    """
    d = op.d
    _check_seed(seed)
    unknowns = _unknown_order(d)
    index = {mr: i for i, mr in enumerate(unknowns)}
    nn = len(unknowns)
    seed_deriv = [seed.derivative_at_one(r) for r in range(d + 1)]

    def known(m: int, r: int) -> RationalLike | None:
        if m == d:
            return seed_deriv[r]
        if r == 0:
            return 2 ** (d - m)
        return None

    # Each equation touches O(d) unknowns, so it is kept as {index: coeff}
    # with int or Fraction values, and the dense Fraction matrix is written
    # only for the report.
    eqs: list[dict[int, RationalLike]] = []
    rhs: list[Fraction] = []
    for j, r in _equation_order(d):
        # Equations in the top block are dominated by seed data; flipping
        # them once gives the matrix its unit leading block.
        flip = -1 if j == d else 1
        coeffs: dict[int, RationalLike] = {}
        const: RationalLike = 0

        def add(m: int, s: int, weight: RationalLike) -> None:
            nonlocal const
            kv = known(m, s)
            if kv is None:
                i = index[(m, s)]
                coeffs[i] = coeffs.get(i, 0) + weight
            else:
                const += weight * kv

        add(j, r, 2 * flip)
        if r >= 1:
            sign = -1 if (j, r) == (1, 1) and d >= 2 else 1
            add(j, r - 1, r * sign * flip)
        add(j - 1, r, -flip)
        for k in range(1, min(j - 1, r) + 1):
            wv = op.w[j - 1][j - k - 1]
            if wv:
                add(j - 1 - k, r - k, -flip * falling_factorial(r, k) * wv)
        eqs.append(coeffs)
        rhs.append(Fraction(-const))
    # The system is triangular up to a symmetric permutation: equation i
    # pairs with unknown i, and equation (m+1, r) holds unknown (m, r) with
    # pivot -1 (+1 in the flipped j = d block), unknown (m+1, r) unless m+1
    # is d, and otherwise only unknowns of order below r. So r = 1..d, and
    # within each r m = d-1 down to r-1, solves every unknown from known
    # values, and the determinant is the product of the pivots.
    x: list[Fraction | None] = [None] * nn
    det = Fraction(1)
    for r in range(1, d + 1):
        for m in range(d - 1, r - 2, -1):
            i = index[(m, r)]
            eq = eqs[i]
            pivot = eq[i]
            x[i] = (rhs[i] - sum(v * x[k] for k, v in eq.items() if v and k != i)) / pivot
            det *= pivot
    zero = Fraction(0)
    rows = []
    for eq in eqs:
        row = [zero] * nn
        for k, v in eq.items():
            row[k] = Fraction(v)
        rows.append(tuple(row))
    solution = dict(zip(unknowns, x))
    return LastRowSystem(
        d=d,
        taylor=op,
        seed=seed,
        matrix=tuple(rows),
        rhs=tuple(rhs),
        solution=solution,
        determinant=det,
    )


def last_row_symbols(system: LastRowSystem) -> tuple[LaurentPoly, ...]:
    """The polynomials h_0, ..., h_d built from the solved derivative data.

    The row they make must satisfy the divisibility condition: q_j = (z+1) h_j
    - sum_m w_{j,m+1} (z-1)^(j-1-m) h_m must vanish to order at least j at
    z = 1. That is unfactor's test that row d of B*(z) T*(z^2) is divisible by
    (z^-1 - 1)^(d+1): that exact division in synthesize checks it and proves the identity.
    """
    d = system.d
    hs: list[LaurentPoly] = []
    for m in range(d):
        # h_m = 2^(d-m) + sum_r h_{m,r}/r! (z-1)^r, shifted once to powers of z.
        at_one = [2 ** (d - m)] + [system.solution[(m, r)] / factorial(r) for r in range(1, m + 2)]
        nums, den = _over_one_denominator(at_one)
        hs.append(LaurentPoly._make(0, _taylor_shift(nums, -1), den))
    hs.append(system.seed)
    return tuple(hs)


def recurrence_last_row(op: TaylorOperator, seed: LaurentPoly) -> tuple[LaurentPoly, ...]:
    """Last-row symbols for pure-difference operators: h_j = (z+1) h_{j+1}.

    Unlike the square system, this keeps the full degree of the seed at every
    level, and for seed (z+1)/2 gives (z+1)^(d-j+1) / 2 exactly. Like
    last_row_symbols, it leaves the divisibility condition to unfactor inside
    synthesize.
    """
    if not op.is_difference_type:
        raise ValueError("the multiplicative recurrence needs all strict-upper weights zero")
    _check_seed(seed)
    d = op.d
    zp1 = LaurentPoly({1: 1, 0: 1})
    hs = [LaurentPoly.zero()] * (d + 1)
    hs[d] = seed
    for j in range(d - 1, -1, -1):
        hs[j] = zp1 * hs[j + 1]
    return tuple(hs)


def assemble_factor(
    op: TaylorOperator,
    last_row: Sequence[LaurentPoly],
    g: Mapping[tuple[int, int], LaurentPoly] | None = None,
) -> Mask:
    """Build the factor mask: contractive diagonal rows plus the solved last row.

    g maps (j, k) with k < j < d to a free Laurent parameter placed, times
    (z^-1 - 1)^(j+1), below the diagonal of row j. A key that is not a
    pair of ints raises TypeError, one outside that triangle ValueError.
    """
    d = op.d
    g = dict(g or {})
    for key in g:
        j, k = _index_pair(key, "a free parameter")
        if not 0 <= k < j < d:
            raise ValueError(f"free parameter ({j},{k}) is outside the strict lower triangle")
    rows: list[list[tuple[int, list[int], int] | None]] = []
    for j in range(d):
        row: list[tuple[int, list[int], int] | None] = [None] * (d + 1)
        for k in range(j):
            gv = g.get((j, k))
            if gv:
                gv = _symbol_entry(gv)
                row[k] = _times_u_power(j + 1, gv._lo, gv._num, gv._den)
        row[j] = _times_u_power(j + 1, 0, (1,), 2 ** (j + 1))
        rows.append(row)
    bottom: list[tuple[int, list[int], int] | None] = []
    for k in range(d + 1):
        hk = last_row[k]
        if hk:
            # h_k(z^-1): the numerators reversed, from z^-hi.
            hk = _symbol_entry(hk)
            bottom.append(_times_u_power(d - k, -hk.hi, hk._num[::-1], hk._den))
        else:
            bottom.append(None)
    rows.append(bottom)
    return Mask._from_parts(rows)


def _symbol_entry(v: object) -> LaurentPoly:
    """v as a LaurentPoly: an int or a Fraction is the constant it equals;
    anything else (a Poly or a bool too) raises TypeError."""
    if type(v) is LaurentPoly:
        return v
    if _is_rational(v):
        return LaurentPoly.constant(v)
    raise TypeError(f"a symbol entry must be a LaurentPoly, got {type(v).__name__}")


def _times_u_power(m: int, lo: int, nums: tuple[int, ...], den: int) -> tuple[int, list[int], int]:
    """u^m times sum_t nums[t]/den z^(lo+t), u = z^-1 - 1, as (lo, nums, den):
    u^m has the numerators (-1)^t C(m, t) from z^-m."""
    acc = [0] * (m + len(nums))
    _mul_add(acc, [-comb(m, t) if t & 1 else comb(m, t) for t in range(m + 1)], nums)
    return lo - m, acc, den


@dataclass(frozen=True)
class SynthesisResult:
    """Everything produced on the way from operator and seed to the mask."""

    taylor: TaylorOperator
    seed: LaurentPoly
    strategy: str
    system: LastRowSystem | None
    last_row: tuple[LaurentPoly, ...]
    factor: Mask
    mask: Mask

    @property
    def factorization(self) -> Factorization:
        return Factorization(
            mask=self.mask,
            taylor=self.taylor,
            factor=self.factor,
            scale=Fraction(1, 2**self.taylor.d),
        )

    def to_json(self) -> dict:
        out = {
            "taylor": self.taylor.to_json(),
            "h_dd": self.seed.to_json(),
            "strategy": self.strategy,
            "last_row": [h.to_json() for h in self.last_row],
            "B": self.factor.to_json(),
            "A": self.mask.to_json(),
        }
        if self.system is not None:
            out["system"] = self.system.to_json()
        return out


def synthesize(
    op: TaylorOperator,
    seed: LaurentPoly,
    g: Mapping[tuple[int, int], LaurentPoly] | None = None,
    strategy: str = "auto",
) -> SynthesisResult:
    """Produce a mask guaranteed to factor through op with scale 2^-d.

    strategy: "system" solves the square derivative system, "recurrence"
    multiplies the seed up by (z+1) (pure-difference operators only), "auto"
    picks the recurrence exactly when it applies.

    unfactor's exact divisions prove the factorization identity, and raise
    NotDivisible where it cannot hold: the returned result.factorization holds.
    """
    if strategy not in ("auto", "system", "recurrence"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "auto":
        strategy = "recurrence" if op.is_difference_type else "system"
    system = None
    if strategy == "recurrence":
        last_row = recurrence_last_row(op, seed)
    else:
        system = build_last_row_system(op, seed)
        last_row = last_row_symbols(system)
    factor = assemble_factor(op, last_row, g)
    mask = unfactor(op, factor)
    return SynthesisResult(
        taylor=op,
        seed=seed,
        strategy=strategy,
        system=system,
        last_row=last_row,
        factor=factor,
        mask=mask,
    )
