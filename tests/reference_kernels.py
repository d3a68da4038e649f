"""Reference implementations that the fast kernels are tested against.

These are the direct loops: one Fraction product per mask entry in the
subdivision step, Fraction samples of polynomial vectors for the eigen
check, contraction norms read off the Laurent-product iterated symbol,
Fraction abscissae for the spline cascade check, and the Cox-de Boor
recursion for B-spline values. They are slow and obviously
right, which is all they are for.
"""

from fractions import Fraction

from hermiteforge import (
    ContractivityReport,
    LaurentMatrix,
    Mask,
    SplineCascadeReport,
    bspline_derivative,
    cascade,
    iterated_symbol,
    spline_mask,
)
from hermiteforge.analysis import is_lower_triangular
from hermiteforge.taylor import WindowTooSmall


def subdivide_reference(mask: Mask, values, start: int):
    """(S_A c)(alpha) = sum_beta A(alpha - 2 beta) c(beta), summed beta
    ascending, then k ascending, one `s += a * c` at a time."""
    size = mask.d + 1
    for col in values:
        if len(col) != size:
            raise ValueError(f"expected columns of height {size}")
    a = start
    b = start + len(values) - 1
    s_min, s_max = mask.support
    out_lo = 2 * a + s_max - 1
    out_hi = 2 * b + s_min + 1
    if out_hi < out_lo:
        raise WindowTooSmall(f"window [{a},{b}] too small for support [{s_min},{s_max}]")
    out = []
    for alpha in range(out_lo, out_hi + 1):
        beta_lo = -((s_max - alpha) // 2)  # ceil((alpha - s_max) / 2)
        beta_hi = (alpha - s_min) // 2
        acc = [0] * size
        for beta in range(max(beta_lo, a), min(beta_hi, b) + 1):
            m = mask.matrix(alpha - 2 * beta)
            col = values[beta - a]
            for i in range(size):
                mi = m[i]
                s = acc[i]
                for k in range(size):
                    if mi[k]:
                        s += mi[k] * col[k]
                acc[i] = s
        out.append(tuple(acc))
    return out, out_lo


def hermite_step_reference(mask: Mask, values, start: int, level: int):
    """D^-(level+1) S_A D^level with every scaling a Fraction product."""
    size = mask.d + 1
    pre = [
        tuple(col[k] * Fraction(1, 2 ** (level * k)) for k in range(size)) for col in values
    ]
    mid, out_start = subdivide_reference(mask, pre, start)
    post = [
        tuple(col[k] * Fraction(2 ** ((level + 1) * k)) for k in range(size)) for col in mid
    ]
    return post, out_start


def bspline_value_reference(r: int, x) -> Fraction:
    """Cox-de Boor on integer knots; the degree-0 spline is 1 on [0, 1)."""
    x = Fraction(x)
    if r == 0:
        return Fraction(1) if 0 <= x < 1 else Fraction(0)
    if x <= 0 or x >= r + 1:
        return Fraction(0)
    return (
        x * bspline_value_reference(r - 1, x)
        + (r + 1 - x) * bspline_value_reference(r - 1, x - 1)
    ) / r


def column_reference(v, alpha, ambient: int) -> tuple[Fraction, ...]:
    """v sampled at alpha in the degree-descending layout, zero-padded to
    ambient + 1 rows, one Fraction evaluation per component."""
    d = v.d
    col = [v.components[d - i].evaluate(alpha) for i in range(d + 1)]
    return tuple(col + [Fraction(0)] * (ambient - d))


def polyvec_applied_reference(mask: Mask, v, window=None):
    d = mask.d
    if v.d > d:
        raise ValueError("vector does not fit the mask's dimension")
    if window is None:
        s_min, s_max = mask.support
        half = d + 3 + (s_max - s_min)
        window = (-half, half)
    a, b = window
    cols = [column_reference(v, beta, d) for beta in range(a, b + 1)]
    return subdivide_reference(mask, cols, a)


def eigen_check_reference(mask: Mask, v, eigenvalue):
    """First (alpha, row, got, want) with S_A v-hat != lambda v-hat, alpha
    ascending, then row ascending; None if there is none."""
    lam = Fraction(eigenvalue)
    out, out_start = polyvec_applied_reference(mask, v)
    for n, col in enumerate(out):
        alpha = out_start + n
        want = column_reference(v, alpha, mask.d)
        for i in range(mask.d + 1):
            if col[i] != lam * want[i]:
                return (alpha, i, Fraction(col[i]), lam * want[i])
    return None


def scheme_norm_reference(mask: Mask, n: int = 1) -> Fraction:
    """Joint norm of the n-fold scheme read off the iterated symbol, with
    one Fraction per coefficient."""
    sym = iterated_symbol(mask, n)
    if all(f.is_zero for row in sym.rows for f in row):
        return Fraction(0)
    iterated = Mask.from_symbol(sym)
    s_min, s_max = iterated.support
    modulus = 2**n
    best = Fraction(0)
    for eps in range(modulus):
        total = Fraction(0)
        alpha = s_min + ((eps - s_min) % modulus)
        while alpha <= s_max:
            total += max(sum(abs(v) for v in row) for row in iterated.matrix(alpha))
            alpha += modulus
        best = max(best, total)
    return best


def check_contractive_reference(mask: Mask, n_max: int = 8) -> ContractivityReport:
    """Each norm computed from scratch by scheme_norm_reference; the diagonal
    certificates run on 1x1 masks built from the diagonal entry symbols."""
    norms = []
    n_star = None
    for n in range(1, n_max + 1):
        norms.append(scheme_norm_reference(mask, n))
        if norms[-1] < 1:
            n_star = n
            break
    triangular = is_lower_triangular(mask)
    diagonal_norms = []
    diagonal_n_star = None
    if triangular:
        worst_n, certified = 0, True
        for i in range(mask.d + 1):
            sym = mask.entry_symbol(i, i)
            if sym.is_zero:
                diagonal_norms.append(Fraction(0))
                continue
            scalar = Mask.from_symbol(LaurentMatrix([[sym]]))
            found = None
            for n in range(1, n_max + 1):
                value = scheme_norm_reference(scalar, n)
                if value < 1:
                    found = n
                    break
            diagonal_norms.append(value)
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


def spline_cascade_reference(r: int, d: int, levels: int, tol: float) -> SplineCascadeReport:
    """check_spline_cascade with each abscissa a Fraction
    (alpha + (r+1)/2 - k/2) / 2^n and each exact value a Fraction."""
    final = cascade(spline_mask(r, d), levels, "delta", (-(r + 2), r + 2))[-1]
    n = final.level
    errors, points = [], []
    for k in range(d + 1):
        worst, count = 0.0, 0
        for idx in range(final.npoints):
            x = (Fraction(final.start + idx) + Fraction(r + 1, 2) - Fraction(k, 2)) / 2**n
            if x <= 0 or x >= r + 1 or (k == r and x.denominator == 1):
                continue
            exact = bspline_derivative(r, k, x)
            count += 1
            worst = max(worst, abs(float(final.values[idx][k]) - float(exact)))
        errors.append(worst)
        points.append(count)
    return SplineCascadeReport(
        r=r, d=d, levels=levels, tol=tol, errors=tuple(errors), points=tuple(points),
        ok=all(e <= tol for e in errors),
    )
