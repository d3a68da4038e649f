"""Contractivity and convergence analysis for factor schemes.

The joint n-level norm of a mask B is

    || S_B^[n] || = max_{0 <= eps < 2^n} sum_beta || B^[n](eps + 2^n beta) ||_inf

where B^[n] has symbol B*(z) B*(z^2) ... B*(z^(2^(n-1))). A norm below 1 at
any n certifies contractivity. For lower-triangular factors the diagonal
scalar symbols certify on their own, which is much cheaper; both paths are
exposed and consistent (per-diagonal norms are dominated by the joint norm).

Cascade iterations render Hermite data at finer and finer dyadic levels with
the derivative renormalization f_{n+1} = D^-(n+1) S_A D^n f_n of level_step,
carried as rows of the components from level to level; the convergence
diagnostics read those rows as whole slices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from math import inf, isfinite
from operator import sub
from typing import Iterator, Sequence

from .exactalg import _report_json
from .subdivision import DyadicGrid, Mask, level_step
from .taylor import TaylorOperator, delta_operator


def _iterated_norms(entries: Sequence[Sequence[Sequence[int]]], den: int) -> Iterator[Fraction]:
    """Yield the joint norms ||S_B^[n]|| for n = 1, 2, ... of the mask whose
    entries are given as integer coefficients over den.

    The n-fold mask P_n, as integers over den^n, is extended one factor at a
    time by P_n(g + 2^(n-1) beta) += P_(n-1)(g) B(beta), and only when the
    next norm is asked for. Residue classes are taken relative to the first
    coefficient; that permutes the classes, not their sums.
    """
    size = len(entries)
    width = len(entries[0][0])
    power = den
    current = entries
    modulus = 2
    while True:
        entry_norms = None
        for row in current:
            sums = [sum(map(abs, vals)) for vals in zip(*row)]
            entry_norms = sums if entry_norms is None else list(map(max, entry_norms, sums))
        length = len(entry_norms)
        classes = range(min(modulus, length))
        yield Fraction(max(sum(entry_norms[r::modulus]) for r in classes), power)
        grown_length = length + modulus * (width - 1)
        grown = [[[0] * grown_length for _ in range(size)] for _ in range(size)]
        for i in range(size):
            for l in range(size):
                p = current[i][l]
                if not any(p):
                    continue
                for k in range(size):
                    target = grown[i][k]
                    for beta, c in enumerate(entries[l][k]):
                        if c:
                            lo = beta * modulus
                            target[lo : lo + length] = [
                                t + c * x for t, x in zip(target[lo : lo + length], p)
                            ]
        current = grown
        power *= den
        modulus *= 2


def scheme_norm(mask: Mask, n: int = 1) -> Fraction:
    """Exact joint norm of the n-fold scheme, computed on integer numerators
    over one denominator."""
    if n < 1:
        raise ValueError("need n >= 1")
    return next(islice(_iterated_norms(mask._num, mask._den), n - 1, None))


def is_lower_triangular(mask: Mask) -> bool:
    return not any(any(e) for i, row in enumerate(mask._num) for e in row[i + 1 :])


@dataclass(frozen=True)
class ContractivityReport:
    """Joint norms up to n_max plus, for triangular factors, the diagonal
    certificates. contractive is the overall verdict; certified_by records
    which path established it ("joint", "diagonal", or None)."""

    n_max: int
    norms: tuple[Fraction, ...]
    n_star: int | None
    triangular: bool
    diagonal_norms: tuple[Fraction, ...]
    diagonal_n_star: int | None
    contractive: bool
    certified_by: str | None

    def to_json(self) -> dict:
        return _report_json(self, norms_float=[float(v) for v in self.norms])


def check_contractive(mask: Mask, n_max: int = 8) -> ContractivityReport:
    """Search for a contraction certificate with n up to n_max.

    The joint norms are computed for n = 1, 2, ... until one drops below 1;
    for lower-triangular masks the diagonal scalar norms run alongside as the
    cheap certificate. Each sequence extends its iterated mask one factor at
    a time and stops at the last norm it reports.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    triangular = is_lower_triangular(mask)
    entries, den = mask._num, mask._den

    def first_below_one(of) -> tuple[list[Fraction], int | None]:
        norms = []
        for n, v in zip(range(1, n_max + 1), _iterated_norms(of, den)):
            norms.append(v)
            if v < 1:
                return norms, n
        return norms, None

    norms, n_star = first_below_one(entries)
    diagonal_norms: list[Fraction] = []
    diagonal_n_star: int | None = None
    if triangular:
        worst_n = 0
        certified = True
        for i in range(mask.d + 1):
            if not any(entries[i][i]):
                diagonal_norms.append(Fraction(0))
                continue
            values, found = first_below_one([[entries[i][i]]])
            diagonal_norms.append(values[-1])
            if found is None:
                certified = False
            else:
                worst_n = max(worst_n, found)
        if certified:
            diagonal_n_star = worst_n
    if n_star is not None:
        verdict, by = True, "joint"
    elif diagonal_n_star is not None:
        verdict, by = True, "diagonal"
    else:
        verdict, by = False, None
    return ContractivityReport(
        n_max=n_max,
        norms=tuple(norms),
        n_star=n_star,
        triangular=triangular,
        diagonal_norms=tuple(diagonal_norms),
        diagonal_n_star=diagonal_n_star,
        contractive=verdict,
        certified_by=by,
    )


class DeltaMissesWindow(ValueError):
    """Raised when the delta at the origin does not reach the target window
    at the last level, so every sample there would be 0 and any verdict on
    them empty. The mask's support lies too far off the window."""


def delta_grid(d: int, window: tuple[int, int], exact: bool = True) -> DyadicGrid:
    """Level-0 data: value 1 at the origin, zero derivatives, zero elsewhere."""
    a, b = window
    if not a <= 0 <= b:
        raise ValueError("the delta window must contain 0")
    zero, one, den = (0, 1, 1) if exact else (0.0, 1.0, None)
    rows = [[zero] * (b - a + 1) for _ in range(d + 1)]
    rows[0][-a] = one
    return DyadicGrid._from_rows(0, a, rows, den)


def initial_window(mask: Mask, target: tuple[int, int], levels: int) -> tuple[int, int]:
    """Smallest level-0 index window whose cascade still covers target
    (given in integer x-coordinates) at the final level."""
    s_min, s_max = mask.support
    lo, hi = target[0] * 2**levels, target[1] * 2**levels
    for _ in range(levels):
        # Child window [2a + s_max - 1, 2b + s_min + 1] must contain [lo, hi].
        lo = (lo - s_max + 1) // 2
        hi = -((s_min + 1 - hi) // 2)
    return lo, hi


def cascade(
    mask: Mask,
    levels: int,
    init: DyadicGrid | str = "delta",
    window: tuple[int, int] = (-4, 4),
    exact: bool = False,
) -> list[DyadicGrid]:
    """Run the Hermite refinement for a number of levels.

    init "delta" starts from the canonical delta data on a window wide
    enough to keep the target window conclusive at every level. When that
    window leaves out the origin, the delta never reaches the target window
    (the mask's support lies too far off it) and DeltaMissesWindow is
    raised; a window (a, b) with b < a is refused with ValueError. An
    explicit DyadicGrid is used as given (and must be wide enough itself).
    Its kind must match the mode: exact (built from ints and Fractions) when
    exact is set, float otherwise.

    Both modes carry the grid's rows (row k = component f^(k)) from level
    to level through one row step, level_step: exact mode integer rows over
    one denominator, float mode float rows. No column, and no Fraction, is
    built until a grid's values are read.
    """
    if levels < 0:
        raise ValueError("levels must be nonnegative")
    if window[1] < window[0]:
        raise ValueError(f"window {window} is reversed: its end lies before its start")
    if isinstance(init, str):
        if init != "delta":
            raise ValueError(f"unknown initial data {init!r}")
        a, b = initial_window(mask, window, levels)
        if not a <= 0 <= b:
            s_min, s_max = mask.support
            raise DeltaMissesWindow(
                f"the delta at the origin does not reach the window {window} in "
                f"{levels} levels: the mask's support is {s_min}..{s_max}; "
                "choose a window nearer it"
            )
        grid = delta_grid(mask.d, (a, b), exact=exact)
    else:
        grid = init
        if grid.d != mask.d:
            raise ValueError("initial data dimension does not match the mask")
    rows, den = grid._rows, grid._den
    if exact != (den is not None):
        need = "ints and Fractions" if exact else "floats"
        raise ValueError(f"exact={exact} needs initial data of {need}")
    out = [grid]
    level, start = grid.level, grid.start
    for _ in range(levels):
        rows, den, start = level_step(mask, rows, den, start, level)
        level += 1
        out.append(DyadicGrid._from_rows(level, start, rows, den))
    return out


def _window_slice(grid: DyadicGrid, window: tuple[int, int]) -> range:
    lo = window[0] * 2**grid.level
    hi = window[1] * 2**grid.level
    first = max(lo, grid.start)
    last = min(hi, grid.start + grid.npoints - 1)
    return range(first, last + 1)


@dataclass(frozen=True)
class ConvergenceReport:
    ok: bool
    levels: int
    window: tuple[int, int]
    sup_differences: tuple[float, ...]
    ratios: tuple[float, ...]
    burn_in: int
    max_tail_ratio: float
    ratio_bound: float
    residuals: tuple[tuple[float, ...], ...]
    final_residuals: tuple[float, ...]
    residual_tol: float
    residuals_below_tol: bool
    residual_decay_ok: bool
    differences_decay_ok: bool

    def to_json(self) -> dict:
        return _report_json(self)


def taylor_residuals(
    grid: DyadicGrid,
    window: tuple[int, int],
    taylor: TaylorOperator | None = None,
) -> tuple[float, ...]:
    """Sup of the Taylor-consistency rows of a grid, one value per row k < d:

        | Delta f^(k)(a) - sum_{l>=1} w_{k+l,k+1} 2^(-n l) f^(k+l)(a) |

    With the difference-type pairing (the default) only the l = 1 term
    survives, i.e. Delta f^(k) is compared against 2^-n f^(k+1); a general
    operator contributes its w-weighted higher-order corrections. These are
    the quantities whose decay drives the limit's derivative consistency,
    measured at the data's own scale.
    """
    d = grid.d
    if taylor is None:
        taylor = delta_operator(d)
    if taylor.d != d:
        raise ValueError("pairing operator dimension does not match the grid")
    alphas = _window_slice(grid, window)
    # The window's points and the grid point right of it, if there is one;
    # a point without a right neighbour drops out of the differences.
    lo = alphas.start - grid.start
    rows = grid._rows_as_floats(lo, lo + len(alphas) + 1)
    out = []
    for k in range(d):
        weights = [
            float(taylor.w[k + ell - 1][k]) / 2.0 ** (grid.level * ell)
            for ell in range(1, d - k + 1)
        ]
        f = rows[k]
        v = list(map(sub, f[1:], f))
        for ell, wgt in enumerate(weights, start=1):
            v = [x - wgt * y for x, y in zip(v, rows[k + ell])]
        out.append(max(chain((0.0,), map(abs, v))))
    return tuple(out)


def check_convergence(
    mask: Mask,
    levels: int = 8,
    window: tuple[int, int] = (-4, 4),
    ratio_bound: float = 0.9,
    residual_tol: float = 1e-4,
    taylor: TaylorOperator | None = None,
) -> ConvergenceReport:
    """Empirical convergence diagnostics on the delta cascade.

    Falsification-style verdict with two requirements. (a) Inter-level sup
    differences (each coarse sample against both of its children) must decay
    geometrically; the first two levels are startup transient from the delta
    data and excluded from the ratio check. (b) The Taylor-consistency
    residuals must themselves keep decaying level over level.

    residual_tol does not enter the verdict; the report states whether the
    final-level residuals sit below it (residuals_below_tol), which is the
    quantitative claim callers tend to assert for provably smooth limits.
    The pairing weights default to the difference-type operator; pass the
    scheme's own Taylor operator for generalized pairings. A window that the
    delta never reaches raises DeltaMissesWindow, as in cascade.
    """
    if levels < 3:
        raise ValueError("need at least 3 levels for a meaningful verdict")
    if not (isfinite(ratio_bound) and ratio_bound > 0):
        raise ValueError(f"ratio_bound must be a positive finite number, got {ratio_bound}")
    if not (isfinite(residual_tol) and residual_tol >= 0):
        raise ValueError(f"residual_tol must be a nonnegative finite number, got {residual_tol}")
    grids = cascade(mask, levels, "delta", window, exact=False)
    return _convergence_report(grids, window, ratio_bound, residual_tol, taylor)


def _convergence_report(
    grids: list[DyadicGrid],
    window: tuple[int, int],
    ratio_bound: float,
    residual_tol: float,
    taylor: TaylorOperator | None,
) -> ConvergenceReport:
    """check_convergence's diagnostics and verdict on a float cascade of at
    least two grids."""
    levels = len(grids) - 1
    d = grids[0].d
    rows = [g._rows_as_floats() for g in grids]
    diffs: list[float] = []
    for n in range(levels):
        g0, g1 = grids[n], grids[n + 1]
        start0, start1, end1 = g0.start, g1.start, g1.start + g1.npoints
        alphas = _window_slice(g0, window)
        worst = 0.0
        # Each sample at alpha against its child at 2 alpha + parity, for the
        # alphas whose child lies on the finer grid.
        for parity in (0, 1):
            first = max(alphas.start, -((parity - start1) // 2))
            last = min(alphas.stop - 1, (end1 - 1 - parity) // 2)
            if first > last:
                continue
            lo0, lo1 = first - start0, 2 * first + parity - start1
            count = last - first + 1
            for r0, r1 in zip(rows[n], rows[n + 1]):
                coarse = r0[lo0 : lo0 + count]
                fine = r1[lo1 : lo1 + 2 * count - 1 : 2]
                worst = max(chain((worst,), map(abs, map(sub, coarse, fine))))
        diffs.append(worst)
    # Growth from a zero difference is unbounded growth, not decay.
    ratios = [b / a if a > 0 else 0.0 if b == 0 else inf for a, b in zip(diffs, diffs[1:])]
    burn_in = min(2, max(0, len(ratios) - 1))
    tail = ratios[burn_in:]
    max_tail_ratio = max(tail) if tail else 0.0
    differences_decay_ok = max_tail_ratio <= ratio_bound

    residuals = tuple(taylor_residuals(g, window, taylor) for g in grids)
    final_residuals = residuals[-1]
    residuals_below_tol = all(r <= residual_tol for r in final_residuals)
    residual_decay_ok = True
    for k in range(d):
        prev, last = residuals[-2][k], residuals[-1][k]
        if prev == 0.0:
            if last != 0.0:
                residual_decay_ok = False
        elif last / prev > ratio_bound:
            residual_decay_ok = False

    ok = differences_decay_ok and residual_decay_ok
    return ConvergenceReport(
        ok=ok,
        levels=levels,
        window=window,
        sup_differences=tuple(diffs),
        ratios=tuple(ratios),
        burn_in=burn_in,
        max_tail_ratio=max_tail_ratio,
        ratio_bound=ratio_bound,
        residuals=residuals,
        final_residuals=final_residuals,
        residual_tol=residual_tol,
        residuals_below_tol=residuals_below_tol,
        residual_decay_ok=residual_decay_ok,
        differences_decay_ok=differences_decay_ok,
    )
