"""Contractivity and convergence analysis for factor schemes.

The joint n-level norm of a mask B is

    || S_B^[n] || = max_{0 <= eps < 2^n} sum_beta || B^[n](eps + 2^n beta) ||_inf

where B^[n] has symbol B*(z) B*(z^2) ... B*(z^(2^(n-1))), the mask product
B^[n-1] * B(z^(2^(n-1))). A norm below 1 at any n certifies contractivity.
For lower-triangular factors the diagonal scalar symbols certify on their
own (the joint spectral radius of a block-triangular family is the largest
among its diagonal blocks), which is much cheaper, so that certificate runs
first; the joint norms then run only up to the diagonal's n, or up to n_max
when the diagonal did not certify.

Cascade iterations render Hermite data at finer and finer dyadic levels with
the derivative renormalization f_{n+1} = D^-(n+1) S_A D^n f_n of level_step,
carried as rows of the components from level to level; the steps and the
convergence diagnostics run over the span of columns off zero only, which
each grid records where its rows are made.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, islice, repeat
from math import inf, isfinite
from operator import sub
from typing import Iterator

from .exactalg import _int_count, _report_json
from .subdivision import DyadicGrid, Mask, level_step
from .taylor import TaylorOperator, delta_operator


def _iterated_norms(mask: Mask) -> Iterator[Fraction]:
    """Yield the joint norms ||S_B^[n]|| for n = 1, 2, ... of the mask B,
    extending B^[n] = B^[n-1] * B(z^(2^(n-1))) by one mask product only when
    the next norm is asked for. Residue classes are taken relative to the
    first coefficient; that permutes the classes, not their sums. A mask is
    never zero, so once a product vanishes (ValueError), every norm is 0."""
    current, modulus = mask, 2
    while True:
        row_sums = [[sum(map(abs, vals)) for vals in zip(*row)] for row in current._num]
        entry_norms = list(map(max, *row_sums)) if len(row_sums) > 1 else row_sums[0]
        classes = range(min(modulus, len(entry_norms)))
        yield Fraction(max(sum(entry_norms[r::modulus]) for r in classes), current._den)
        try:
            current = current * mask.substitute_power(modulus)
        except ValueError:
            yield from repeat(Fraction(0))
        modulus *= 2


def scheme_norm(mask: Mask, n: int = 1) -> Fraction:
    """Exact joint norm of the n-fold scheme, read off the mask product
    B(z) B(z^2) ... B(z^(2^(n-1))); n is an int (not a bool), at least 1."""
    if _int_count(n, "n") < 1:
        raise ValueError("need n >= 1")
    return next(islice(_iterated_norms(mask), n - 1, None))


def is_lower_triangular(mask: Mask) -> bool:
    return not any(any(e) for i, row in enumerate(mask._num) for e in row[i + 1 :])


@dataclass(frozen=True)
class ContractivityReport:
    """The certificates that check_contractive ran, in the order it ran them:
    for triangular factors the diagonal norms, then the joint norms up to
    the first one below 1. n_max is the bound asked for. contractive is the
    overall verdict; certified_by records which path established it
    ("joint", "diagonal", or None)."""

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
    """Search for a contraction certificate with n up to n_max, cheapest
    proof first.

    For a lower-triangular mask the diagonal scalar norms run first, each
    until it drops below 1 or reaches n_max. Then the joint norms run for
    n = 1, 2, ... until one drops below 1, up to max(1, diagonal_n_star)
    when the diagonal certified and up to n_max otherwise. certified_by is
    "joint" when the joint loop certified, else "diagonal" when the diagonal
    did. Each sequence extends its iterated mask one factor at a time and
    stops at the last norm it reports.
    """
    if _int_count(n_max, "n_max") < 1:
        raise ValueError("need n_max >= 1")
    triangular = is_lower_triangular(mask)

    def first_below_one(of: Mask, limit: int) -> tuple[list[Fraction], int | None]:
        norms = []
        for n, v in zip(range(1, limit + 1), _iterated_norms(of)):
            norms.append(v)
            if v < 1:
                return norms, n
        return norms, None

    diagonal_norms: list[Fraction] = []
    diagonal_n_star: int | None = None
    if triangular:
        worst_n = 0
        certified = True
        for i in range(mask.d + 1):
            if not any(mask._num[i][i]):
                diagonal_norms.append(Fraction(0))
                continue
            scalar = Mask._raw(mask.support_min, [[mask._num[i][i]]], mask._den)
            values, found = first_below_one(scalar, n_max)
            diagonal_norms.append(values[-1])
            if found is None:
                certified = False
            else:
                worst_n = max(worst_n, found)
        if certified:
            diagonal_n_star = worst_n
    limit = n_max if diagonal_n_star is None else max(1, diagonal_n_star)
    norms, n_star = first_below_one(mask, limit)
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


def _check_window(window: tuple[int, int]) -> None:
    """A window is a pair (a, b) of ints, not bools, with a <= b: any other
    type raises TypeError, and another length or b < a ValueError."""
    if not isinstance(window, tuple):
        raise TypeError(f"a window must be a tuple (a, b) of ints, got {window!r}")
    if len(window) != 2:
        raise ValueError(f"a window must be a pair (a, b), got {window!r}")
    for end in window:
        if isinstance(end, bool) or not isinstance(end, int):
            raise TypeError(f"a window's ends must be ints, got {window!r}")
    if window[1] < window[0]:
        raise ValueError(f"window {window} is reversed: its end lies before its start")


def delta_grid(d: int, window: tuple[int, int], exact: bool = True) -> DyadicGrid:
    """Level-0 data: value 1 at the origin, zero derivatives, zero elsewhere.
    The window is checked as cascade checks it, and must contain 0."""
    _check_window(window)
    a, b = window
    if not a <= 0 <= b:
        raise ValueError("the delta window must contain 0")
    zero, one, den = (0, 1, 1) if exact else (0.0, 1.0, None)
    rows = [[zero] * (b - a + 1) for _ in range(d + 1)]
    rows[0][-a] = one
    return DyadicGrid._from_rows(0, a, rows, den, (-a, -a))


def initial_window(mask: Mask, target: tuple[int, int], levels: int) -> tuple[int, int]:
    """Smallest level-0 index window whose cascade still covers target
    (given in integer x-coordinates) at the final level. The target is
    checked as cascade checks a window."""
    _check_window(target)
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

    Both modes carry the grid from level to level through one step,
    level_step, which takes a grid and returns the next: exact mode integer
    rows over one denominator, float mode float rows. No column, and no
    Fraction, is built until a grid's values are read. Each step computes
    only the outputs that the grid's recorded nonzero span reaches, so the
    delta's cascade costs its support, not its window, and records the
    span of the grid it makes; the values are those of the full step, bit
    for bit (see level_step).
    """
    if _int_count(levels, "levels") < 0:
        raise ValueError("levels must be nonnegative")
    _check_window(window)
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
    if exact != grid.is_exact:
        need = "ints and Fractions" if exact else "floats"
        raise ValueError(f"exact={exact} needs initial data of {need}")
    out = [grid]
    for _ in range(levels):
        grid = level_step(mask, grid)
        out.append(grid)
    return out


def _window_slice(grid: DyadicGrid, window: tuple[int, int]) -> range:
    lo = window[0] * 2**grid.level
    hi = window[1] * 2**grid.level
    first = max(lo, grid.start)
    last = min(hi, grid.start + grid.npoints - 1)
    return range(first, last + 1)


def _nonzero_span(grid: DyadicGrid) -> tuple[int, int] | None:
    """The first and the last index alpha of a column off zero, or None,
    from the span the grid recorded."""
    live = grid._span
    return None if live is None else (grid.start + live[0], grid.start + live[1])


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


@cache
def _residual_kernel(n: int):
    """The generated residual row of n weighted terms, n >= 1:
    kernel(f, w_1, y_1, ..., w_n, y_n) returns

        max(0.0, abs(b - a - w_1 * v_1 - ... - w_n * v_n) for a, b, v_1, ...
            in zip(f, f[1:], y_1, ..., y_n))

    Python subtracts left to right, so each entry is the difference, then
    each weighted term taken off it in turn, and the running max starts from
    0.0, which a NaN never beats. One kernel per n, n <= d."""
    params = "".join(f", w{j}, y{j}" for j in range(1, n + 1))
    values = "".join(f", v{j}" for j in range(1, n + 1))
    terms = "".join(f" - w{j} * v{j}" for j in range(1, n + 1))
    slices = "".join(f", y{j}" for j in range(1, n + 1))
    source = (
        f"def kernel(f{params}):\n"
        f"    row = [abs(b - a{terms}) for a, b{values} in zip(f, f[1:]{slices})]\n"
        f"    return max(chain((0.0,), row))\n"
    )
    namespace: dict = {"chain": chain}
    exec(source, namespace)
    return namespace["kernel"]


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
    measured at the data's own scale. Each row is one pass of the generated
    kernel for its number of terms (_residual_kernel), over the window's
    points from the one left of the nonzero columns to the last of them,
    as the grid recorded them: the other points read only zeros, whose
    residual 0.0 leaves the max as it is. Only those points are converted
    or copied. The window is checked as cascade checks it.
    """
    _check_window(window)
    d = grid.d
    if taylor is None:
        taylor = delta_operator(d)
    if taylor.d != d:
        raise ValueError("pairing operator dimension does not match the grid")
    alphas = _window_slice(grid, window)
    # Entry alpha reads the columns alpha and alpha + 1, so off the span
    # p..q only alpha = p - 1 .. q can be nonzero; the rest are 0.0 and
    # leave the max as it is.
    span = _nonzero_span(grid)
    first = stop = alphas.start
    if span is not None:
        first = max(first, span[0] - 1)
        stop = max(first, min(alphas.stop, span[1] + 1))
    # Those points and the grid point right of them, if there is one; a
    # point without a right neighbour drops out of the differences.
    lo = first - grid.start
    rows = grid._rows_as_floats(lo, lo + stop - first + 1)
    out = []
    for k in range(d):
        args = [rows[k]]
        for ell in range(1, d - k + 1):
            args += (float(taylor.w[k + ell - 1][k]) / 2.0 ** (grid.level * ell), rows[k + ell])
        out.append(_residual_kernel(d - k)(*args))
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

    The cascade and both diagnostics run over the nonzero columns only,
    as each grid recorded them when its rows were made: a level difference
    over the coarse span and the parents of the fine one, read in place as
    slices of the float rows, the residuals as in taylor_residuals. Every
    skipped difference is 0.0 and every maximum starts from 0.0, so the
    report is the same, bit for bit. A bool ratio_bound or residual_tol is
    refused with TypeError.
    """
    if _int_count(levels, "levels") < 3:
        raise ValueError("need at least 3 levels for a meaningful verdict")
    for name, v in (("ratio_bound", ratio_bound), ("residual_tol", residual_tol)):
        if isinstance(v, bool):
            raise TypeError(f"{name} must be a number, not a bool, got {v!r}")
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
    least two grids. The level differences read the float rows in place."""
    levels = len(grids) - 1
    d = grids[0].d
    rows = [g._rows for g in grids]
    spans = [_nonzero_span(g) for g in grids]
    diffs: list[float] = []
    for n in range(levels):
        g0, g1 = grids[n], grids[n + 1]
        start0, start1, end1 = g0.start, g1.start, g1.start + g1.npoints
        alphas = _window_slice(g0, window)
        worst = 0.0
        # A sample and its children differ only where one of them is off
        # zero: alpha in the coarse span, or a parent beta // 2 of the fine
        # span. Every other difference is 0.0 and leaves the max as it is.
        fine = spans[n + 1]
        parents = None if fine is None else (fine[0] // 2, fine[1] // 2)
        ends = [e for e in (spans[n], parents) if e is not None]
        if not ends:
            diffs.append(worst)
            continue
        span_lo = max(alphas.start, min(lo for lo, _ in ends))
        span_hi = min(alphas.stop - 1, max(hi for _, hi in ends))
        # Each sample at alpha against its child at 2 alpha + parity, for the
        # alphas whose child lies on the finer grid.
        for parity in (0, 1):
            first = max(span_lo, -((parity - start1) // 2))
            last = min(span_hi, (end1 - 1 - parity) // 2)
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
