"""Synthesis of Hermite masks that factor through a prescribed Taylor
operator with contraction built in.

The factor mask is assembled directly: rows below the last are multiples of
(z^-1 - 1)^(j+1) with diagonal (z^-1 - 1)^(j+1) / 2^(j+1); the last row is
(z^-1 - 1)^(d-j) h_j(z^-1) for polynomials h_j pinned either by a square
linear system (general weights) or by the recurrence h_j = (z+1) h_{j+1}
(pure-difference weights). Undoing the factorization yields the mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Mapping, Sequence

from .exactalg import (
    LaurentPoly,
    _over_one_denominator,
    _taylor_shift,
    falling_factorial,
    rat_to_str,
    u_power,
)
from .factor import Factorization, unfactor
from .subdivision import Mask
from .taylor import TaylorOperator


class BadSeed(ValueError):
    """Raised when the corner seed polynomial does not take value 1 at z = 1."""


class SingularSystem(Exception):
    """Raised if the last-row system degenerates; it never should."""


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
    solved values keyed by (m, r), and determinant is tracked exactly.
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


def _solve_square(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[list[Fraction], Fraction]:
    """Exact solution and determinant by fraction-free (Bareiss) elimination.

    Each augmented row is cleared to integers by the lcm of its denominators.
    The pivot is the first nonzero entry at or below the diagonal. Bareiss
    entries are the Gaussian ones times nonzero minors, so the row swaps are
    the same as in rational elimination. The last pivot is the determinant
    of the permuted integer matrix. Back-substitution on the numerators
    y = det * x stays in integers, because y solves the system by Cramer's
    rule.
    """
    n = len(rows)
    a = []
    scale = 1
    for i, r in enumerate(rows):
        nums, den = _over_one_denominator([*r, rhs[i]])
        a.append(nums)
        scale *= den
    sign, prev = 1, 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise SingularSystem("last-row system is singular")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        top = a[col]
        p = top[col]
        for r in range(col + 1, n):
            row = a[r]
            f = row[col]
            a[r] = row[: col + 1] + [
                (v * p - f * w) // prev for v, w in zip(row[col + 1 :], top[col + 1 :])
            ]
        prev = p
    det = prev
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        y[i] = (det * row[n] - sum(row[j] * y[j] for j in range(i + 1, n))) // row[i]
    return [Fraction(v, det) for v in y], Fraction(sign * det, scale)


def build_last_row_system(op: TaylorOperator, seed: LaurentPoly) -> LastRowSystem:
    """Assemble and solve the derivative-matching system at z = 1.

    Knowns: h_m(1) = 2^(d-m) for every m, and all derivatives of the seed
    h_d. One equation, at (j, r) = (1, 1) for d >= 2, takes the known
    2^(d-1) with the opposite sign; that block has one more condition than
    the divisibility of the synthesized row needs, and this is the pinning
    that keeps the standard two-point families reproducible.
    """
    d = op.d
    if seed.is_zero or seed.evaluate(1) != 1:
        raise BadSeed("the corner seed must take the value 1 at z = 1")
    unknowns = _unknown_order(d)
    index = {mr: i for i, mr in enumerate(unknowns)}
    nn = len(unknowns)
    seed_deriv = [seed.derivative_at_one(r) for r in range(d + 1)]

    def known(m: int, r: int) -> Fraction | None:
        if m == d:
            return seed_deriv[r]
        if r == 0:
            return Fraction(2 ** (d - m))
        return None

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for j, r in _equation_order(d):
        coeffs = [Fraction(0)] * nn
        const = Fraction(0)

        def add(m: int, s: int, weight: Fraction) -> None:
            nonlocal const
            kv = known(m, s)
            if kv is None:
                coeffs[index[(m, s)]] += weight
            else:
                const += weight * kv

        add(j, r, Fraction(2))
        if r >= 1:
            sign = Fraction(-1) if (j, r) == (1, 1) and d >= 2 else Fraction(1)
            add(j, r - 1, Fraction(r) * sign)
        add(j - 1, r, Fraction(-1))
        for k in range(1, min(j - 1, r) + 1):
            wv = op.w[j - 1][j - k - 1]
            if wv:
                add(j - 1 - k, r - k, -wv * falling_factorial(r, k))
        # Equations in the top block are dominated by seed data; flipping
        # them once gives the matrix its unit leading block.
        if j == d:
            coeffs = [-v for v in coeffs]
            const = -const
        rows.append(coeffs)
        rhs.append(-const)
    sol, det = _solve_square(rows, rhs)
    solution = {mr: sol[i] for i, mr in enumerate(unknowns)}
    return LastRowSystem(
        d=d,
        taylor=op,
        seed=seed,
        matrix=tuple(tuple(r) for r in rows),
        rhs=tuple(rhs),
        solution=solution,
        determinant=det,
    )


def last_row_symbols(system: LastRowSystem) -> tuple[LaurentPoly, ...]:
    """The polynomials h_0, ..., h_d built from the solved derivative data.

    The row they make must satisfy the divisibility condition: q_j = (z+1) h_j
    - sum_m w_{j,m+1} (z-1)^(j-1-m) h_m must vanish to order at least j at
    z = 1. That is unfactor's test that row d of B*(z) T*(z^2) is divisible by
    (z^-1 - 1)^(d+1), so it is checked once, by unfactor inside synthesize.
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
    if seed.is_zero or seed.evaluate(1) != 1:
        raise BadSeed("the corner seed must take the value 1 at z = 1")
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
    (z^-1 - 1)^(j+1), below the diagonal of row j.
    """
    d = op.d
    g = dict(g or {})
    for (j, k) in g:
        if not 0 <= k < j < d:
            raise ValueError(f"free parameter ({j},{k}) is outside the strict lower triangle")
    zero = LaurentPoly.zero()
    rows = []
    for j in range(d):
        row = []
        for k in range(d + 1):
            if k < j:
                gv = g.get((j, k))
                row.append(u_power(j + 1) * gv if gv else zero)
            elif k == j:
                row.append(u_power(j + 1) / 2 ** (j + 1))
            else:
                row.append(zero)
        rows.append(row)
    bottom = []
    for k in range(d + 1):
        hk = last_row[k]
        bottom.append(u_power(d - k) * hk.substitute_power(-1) if hk else zero)
    rows.append(bottom)
    return Mask.from_symbol(rows)


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

    The factorization identity is checked exactly once, inside unfactor,
    which raises if it fails: the returned result.factorization holds.
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
