"""Reference implementations that the fast kernels are tested against.

These are the direct loops: one Fraction product per mask entry in the
subdivision step, and the Cox-de Boor recursion for B-spline values. They
are slow and obviously right, which is all they are for.
"""

from fractions import Fraction

from hermiteforge import Mask
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
