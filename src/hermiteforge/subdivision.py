"""Matrix subdivision masks, their symbols, and exact refinement steps.

A mask A assigns a (d+1)x(d+1) rational matrix to finitely many integers.
The scheme maps a column sequence c to (S_A c)(alpha) = sum_beta
A(alpha - 2 beta) c(beta); its symbol is A*(z) = sum_alpha A(alpha) z^alpha,
and on symbols the rule reads (S_A c)*(z) = A*(z) c*(z^2).

Hermite refinement renormalizes derivative rows between levels:
f_{n+1} = D^{-(n+1)} S_A (D^n f_n) with D = diag(1, 1/2, ..., 2^-d), which
is the plain step of the level-n mask D^{-(n+1)} A D^n (level_step, from
one DyadicGrid to the next).
"""

from __future__ import annotations

import re
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, compress, count
from math import gcd, lcm

from .exactalg import (
    LaurentPoly,
    RationalLike,
    _horner,
    _int_count,
    _is_rational,
    _json_array,
    _json_field,
    _mul_add,
    _over_one_denominator,
    _ratio_str,
    _rational,
    rat_from_str,
)
from .polybasis import PolyVec

Matrix = tuple[tuple[Fraction, ...], ...]
# First and last column index with an entry off zero, or None (_live).
Span = tuple[int, int] | None


class WindowTooSmall(ValueError):
    """Raised when sampled data is too short for a difference stencil."""


@dataclass(frozen=True, init=False)
class Mask:
    """Finitely supported matrix mask, normalized to a tight support window.

    Mask(support_min, coeffs) takes coeffs[n], the matrix at alpha =
    support_min + n, as ints and Fractions and converts it once to the form
    LaurentPoly and DyadicGrid keep: _num[i][k] lists the numerators of entry
    (i, k) at alpha = support_min, support_min + 1, ..., over one positive
    denominator _den. No end matrix is zero and no factor is common to _den
    and all numerators, so equal masks have equal fields. coeffs (built on
    first read and kept) is their Fraction view. Two integer tables are
    also built on first read and kept: _terms, the nonzero entries by
    parity class, and _moments, their moments, through which S_A acts on
    polynomial data (_image). The level steps read _terms through
    plans: one per level n and kind (integer or float rows), compiled from
    _terms on the first step at that level and kind, and kept in _plans.

    A mask is also the one form of a square matrix symbol: * is the symbol
    product, substitute_power(m) gives A*(z^m), and == compares symbols.
    """

    support_min: int
    _num: tuple[tuple[tuple[int, ...], ...], ...]
    _den: int

    def __init__(self, support_min: int, coeffs: Sequence[Sequence[Sequence[RationalLike]]]):
        if not coeffs:
            raise ValueError("empty mask")
        size = len(coeffs[0])
        if any(len(m) != size or any(len(r) != size for r in m) for m in coeffs):
            raise ValueError("mask matrices must be square and equally sized")
        nums, den = _over_one_denominator([v for m in coeffs for row in m for v in row])
        step = size * size
        entries = [[nums[i * size + k :: step] for k in range(size)] for i in range(size)]
        self._fill(support_min, entries, den)

    @classmethod
    def _raw(cls, support_min: int, entries: list, den: int) -> "Mask":
        """A mask from entries[i][k], numerators dense from support_min over den > 0."""
        out = object.__new__(cls)
        out._fill(support_min, entries, den)
        return out

    def _fill(self, support_min: int, entries: list, den: int) -> None:
        """Set the fields in canonical form: strip the all-zero end matrices
        and divide out gcd(den, numerators)."""
        flat = [e for row in entries for e in row]
        live = [any(col) for col in zip(*flat)]
        if True not in live:
            raise ValueError("mask is identically zero")
        lo, hi = live.index(True), len(live) - live[::-1].index(True)
        g = gcd(den, *chain.from_iterable(flat))
        if g != 1:
            entries = [[[n // g for n in e] for e in row] for row in entries]
        num = tuple(tuple(tuple(e)[lo:hi] for e in row) for row in entries)
        put = object.__setattr__
        put(self, "support_min", support_min + lo)
        put(self, "_num", num)
        put(self, "_den", den // g)

    @property
    def d(self) -> int:
        return len(self._num) - 1

    @property
    def support(self) -> tuple[int, int]:
        return (self.support_min, self.support_min + len(self._num[0][0]) - 1)

    @cached_property
    def coeffs(self) -> tuple[Matrix, ...]:
        den = self._den
        mats = zip(*(zip(*row) for row in self._num))
        return tuple(tuple(tuple(Fraction(n, den) for n in row) for row in m) for m in mats)

    @cached_property
    def _terms(self) -> tuple[tuple[tuple[tuple[int, int, int], ...], ...], ...]:
        """The mask compiled for the subdivision loop, split by the parity of
        alpha: [p][i] lists the terms of output row i at alpha = 2m + p as
        (offset, k, c), c the numerator over _den of the entry
        A(alpha - 2 beta)[i][k], which multiplies component k of the column at
        beta = m + offset. Terms run beta ascending, then k ascending, and
        skip zero entries. The (offset, k) pairs of one list are its shape:
        a level plan runs one generated sum per shape, shared by all masks,
        which adds the terms in this same order. _moments is built from
        these lists."""
        s_min, s_max = self.support
        table = []
        for parity in (0, 1):
            rows = []
            for row in self._num:
                terms = []
                # alpha - 2 beta = g, so beta ascending is g descending.
                for g in range(s_max - (s_max - parity) % 2, s_min - 1, -2):
                    offset = (parity - g) // 2
                    for k, entry in enumerate(row):
                        c = entry[g - s_min]
                        if c:
                            terms.append((offset, k, c))
                rows.append(tuple(terms))
            table.append(tuple(rows))
        return tuple(table)

    @cached_property
    def _moments(self) -> tuple[tuple[tuple[tuple[int, ...], ...], ...], ...]:
        """The moments of the term lists, the only way S_A reads polynomial
        data: [p][i][k][e] is the sum of c * offset^e over the terms
        (offset, k, c) of _terms[p][i], for e = 0..d; a component with no
        terms there has all moments 0. Built once, read by every _image."""
        size = self.d + 1
        table = []
        for terms_by_row in self._terms:
            rows = []
            for terms in terms_by_row:
                moments = [[0] * size for _ in range(size)]
                for offset, k, c in terms:
                    row = moments[k]
                    for e in range(size):
                        row[e] += c
                        c *= offset
                rows.append(tuple(map(tuple, moments)))
            table.append(tuple(rows))
        return tuple(table)

    @cached_property
    def _plans(self) -> dict[tuple[int, bool], tuple]:
        """The level plans built so far, keyed (level, exact); see _level_plan."""
        return {}

    def _level_plan(self, level: int, exact: bool) -> tuple:
        """The step of the level-n mask A_n = D^-(n+1) A D^n, n = level,
        compiled once per (level, exact) and kept in _plans: [p] lists
        (i, kernel, coeffs) for every output row i with terms at parity p,
        kernel the shared generated sum of the row's shape (_sum_kernel)
        and coeffs its coefficients in term order. Term (offset, k, c) of
        _terms[p][i] has the coefficient c shifted left by n (d - k) +
        (n + 1) i, over _den 2^(n d): that numerator when exact, else the
        quotient, correctly rounded. A float level whose coefficient passes
        the float range raises ValueError and keeps nothing."""
        plan = self._plans.get((level, exact))
        if plan is not None:
            return plan
        d = self.d
        level_den = self._den << level * d
        plan = []
        for terms_by_row in self._terms:
            entries = []
            for i, terms in enumerate(terms_by_row):
                if not terms:
                    continue
                kernel = _sum_kernel(tuple([(offset, k) for offset, k, _ in terms]))
                coeffs = [c << (level * (d - k) + (level + 1) * i) for _, k, c in terms]
                if not exact:
                    # int / int rounds correctly, exactly as float(Fraction) does
                    try:
                        coeffs = [c / level_den for c in coeffs]
                    except OverflowError as exc:
                        raise ValueError(
                            f"level {level} is too deep for float rows: "
                            "a coefficient of the level mask is beyond the float range"
                        ) from exc
                entries.append((i, kernel, tuple(coeffs)))
            plan.append(tuple(entries))
        plan = self._plans[level, exact] = tuple(plan)
        return plan

    @classmethod
    def from_symbol(cls, rows: Sequence[Sequence[LaurentPoly]]) -> "Mask":
        """The mask whose symbol has these rows of LaurentPoly entries."""
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ValueError("symbol must be square")
        if any(type(f) is not LaurentPoly for row in rows for f in row):
            raise TypeError("matrix entries must be LaurentPoly")
        parts = [[(f._lo, f._num, f._den) if f else None for f in row] for row in rows]
        return cls._from_parts(parts)

    @classmethod
    def _from_parts(cls, rows: Sequence[Sequence[tuple[int, Sequence[int], int] | None]]) -> "Mask":
        """The mask whose symbol has entry (i, k) = sum_t nums[t]/den z^(lo+t)
        for rows[i][k] = (lo, nums, den > 0), or 0 for None."""
        parts = [p for row in rows for p in row if p]
        if not parts:
            raise ValueError("zero symbol has no mask")
        lo = min(p[0] for p in parts)
        hi = max(p[0] + len(p[1]) for p in parts)
        den = lcm(*(p[2] for p in parts))
        entries = [[[0] * (hi - lo) for _ in row] for row in rows]
        for out, row in zip(entries, rows):
            for e, p in zip(out, row):
                if p:
                    # The part's numerators, moved to lo and brought over den.
                    at, nums, f = p[0] - lo, p[1], den // p[2]
                    e[at : at + len(nums)] = nums if f == 1 else [n * f for n in nums]
        return cls._raw(lo, entries, den)

    def __mul__(self, other: "Mask") -> "Mask":
        """The symbol product A*(z) B*(z) (see _product)."""
        if not isinstance(other, Mask):
            return NotImplemented
        return self._product(other, 1, 1)

    def _product(self, other: "Mask", p: int, q: int) -> "Mask":
        """The symbol product p/q A*(z) B*(z), for ints p and q > 0. Every
        entry of a mask spans its whole support, so entry (i, k)
        accumulates, in one list over den_a * den_b * q, the products of the
        pairs (i, l), (l, k) whose two entries are both nonzero, and no
        others, A's entries times p; with no such pair it is the zero list.
        The entries are normalized once, and a product that vanishes raises
        ValueError, as no mask is zero."""
        if other.d != self.d:
            raise ValueError("matrix shape mismatch in product")
        width = len(self._num[0][0]) + len(other._num[0][0]) - 1
        rows = [
            [(l, a if p == 1 else [n * p for n in a]) for l, a in enumerate(row) if any(a)]
            for row in self._num
        ]
        cols = [[b if any(b) else None for b in col] for col in zip(*other._num)]
        entries = []
        for row in rows:
            out = []
            for col in cols:
                acc = [0] * width
                for l, a in row:
                    b = col[l]
                    if b is not None:
                        _mul_add(acc, a, b)
                out.append(acc)
            entries.append(out)
        return self._raw(self.support_min + other.support_min, entries, self._den * other._den * q)

    def substitute_power(self, m: int) -> "Mask":
        """The mask of A*(z^m), for an int m >= 1 (a bool or any other type
        raises TypeError). Spreading keeps the nonzero end matrices and adds
        only zeros, so the spread of a canonical mask is canonical as it is
        built: its fields are written directly, with no pass of _fill."""
        if _int_count(m, "m") < 1:
            raise ValueError("substitute_power needs m >= 1")
        width = (len(self._num[0][0]) - 1) * m + 1
        num = []
        for row in self._num:
            out = []
            for e in row:
                spread = [0] * width
                spread[::m] = e
                out.append(tuple(spread))
            num.append(tuple(out))
        mask = object.__new__(type(self))
        put = object.__setattr__
        put(mask, "support_min", self.support_min * m)
        put(mask, "_num", tuple(num))
        put(mask, "_den", self._den)
        return mask

    def scale(self, v: RationalLike) -> "Mask":
        p, q = _rational(v).as_integer_ratio()
        entries = [[[n * p for n in e] for e in row] for row in self._num]
        return self._raw(self.support_min, entries, self._den * q)

    def to_json(self) -> dict:
        den = self._den
        mats = zip(*(zip(*row) for row in self._num))
        return {
            "d": self.d,
            "support_min": self.support_min,
            "coeffs": [[[_ratio_str(n, den) for n in row] for row in m] for m in mats],
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "Mask":
        mask = cls(
            _json_field(obj, "support_min", int),
            tuple(
                tuple(
                    tuple(rat_from_str(x) for x in _json_array(row, "a mask row"))
                    for row in _json_array(m, "a mask matrix")
                )
                for m in _json_array(obj["coeffs"], "coeffs")
            ),
        )
        if mask.d != _json_field(obj, "d", int):
            raise ValueError("declared d does not match the matrices")
        return mask


def _live(rows: Sequence[Sequence]) -> Span:
    """The first and the last index at which some row holds a nonzero
    entry, or None when every entry is zero. Each row is scanned in from
    both ends, by truth value: ±0 and 0.0 are zero, NaN and ±inf are not."""
    firsts, lasts = [], []
    for row in rows:
        first = next(compress(count(), row), None)
        if first is not None:
            firsts.append(first)
            lasts.append(len(row) - 1 - next(compress(count(), reversed(row))))
    if not firsts:
        return None
    return min(firsts), max(lasts)


def _output_window(mask: Mask, a: int, b: int) -> tuple[int, int]:
    """The outputs of one step on input [a, b] whose full stencil lies inside it."""
    s_min, s_max = mask.support
    out_lo = 2 * a + s_max - 1
    out_hi = 2 * b + s_min + 1
    if out_hi < out_lo:
        raise WindowTooSmall(
            f"window [{a},{b}] too small for support [{s_min},{s_max}]"
        )
    return out_lo, out_hi


# Distinct term shapes whose generated sums are kept at once.
_SUM_KERNELS_MAX = 1024


@lru_cache(maxsize=_SUM_KERNELS_MAX)
def _sum_kernel(shape: tuple[tuple[int, int], ...]):
    """The generated sum of one term shape ((offset_0, k_0), (offset_1, k_1), ...):
    kernel(rows, lo, count, zero, c_0, c_1, ...) returns

        [zero + c_0 * v_0 + c_1 * v_1 + ... for v_0, v_1, ... in
         zip(rows[k_0][lo + offset_0 : lo + offset_0 + count], ...)]

    Python adds left to right, so every output adds its terms in shape order,
    each product onto the running sum, starting from zero. The source holds
    only the shape's integers. Every mask with this shape shares the kernel.
    """
    n = len(shape)
    coeffs = ", ".join(f"c{j}" for j in range(n))
    values = ", ".join(f"v{j}" for j in range(n))
    products = "".join(f" + c{j} * v{j}" for j in range(n))
    slices = ", ".join(f"rows[{k:d}][lo{o:+d} : hi{o:+d}]" for o, k in shape)
    source = (
        f"def kernel(rows, lo, count, zero, {coeffs}):\n"
        f"    hi = lo + count\n"
        f"    return [zero{products} for {values}, in zip({slices})]\n"
    )
    namespace: dict = {}
    exec(source, namespace)
    return namespace["kernel"]


def _run_plan(
    plan: tuple, rows: Sequence[Sequence], a: int, out_lo: int, out_hi: int, zero
) -> list[list]:
    """Raw sums sum_beta A_n(alpha - 2 beta)[i][k] rows[k][beta - a] for alpha
    in [out_lo, out_hi], one list per output row i, by a level plan
    (Mask._level_plan). Each (i, kernel, coeffs) of a parity class runs over
    all its outputs in one comprehension, and every output adds its terms to
    zero one at a time, in the order beta ascending, then k ascending. An
    output row with no term in a parity class keeps zero there.
    """
    out = [[zero] * (out_hi - out_lo + 1) for _ in rows]
    for parity, entries in enumerate(plan):
        first = out_lo + (parity - out_lo) % 2
        count = (out_hi - first) // 2 + 1
        lo = (first - parity) // 2 - a
        for i, kernel, coeffs in entries:
            out[i][first - out_lo :: 2] = kernel(rows, lo, count, zero, *coeffs)
    return out


_FLOAT_TEXT = re.compile(r"-?[0-9]+(?:\.[0-9]+)?(?:e[+-][0-9]+)?|-?inf|nan")


def _float_from_str(s: str) -> float:
    """s as a float by the one rule for floats in text: exactly the forms
    f"{v:.17g}" writes, so "1_0", " 0", "+1", ".5", "1E3", "Infinity", other
    scripts' digits and JSON numbers are refused where float() reads them."""
    if not (isinstance(s, str) and _FLOAT_TEXT.fullmatch(s)):
        raise ValueError(f"a float must be plain decimal digits, inf or nan, got {s!r}")
    return float(s)


def _as_rows(values: Sequence[Sequence]) -> tuple[list[list], int | None]:
    """Columns as rows (row k = component k), in the one form a grid holds.

    All ints and Fractions (not bools) give integer rows over the lcm of their
    denominators, which shares no factor with all of them, and that lcm;
    all floats give float rows and None. Any other entry, or a mix of the
    two kinds, raises TypeError; empty or ragged columns raise ValueError.
    """
    if not values or not values[0] or any(len(col) != len(values[0]) for col in values):
        raise ValueError("grid values must be nonempty columns of one height")
    rows = list(zip(*values))
    entries = list(chain.from_iterable(rows))
    if all(isinstance(v, float) for v in entries):
        return [list(row) for row in rows], None
    if not all(map(_is_rational, entries)):
        raise TypeError("grid entries must be all ints and Fractions, or all floats")
    den = lcm(*{v.denominator for v in entries})
    return [[v.numerator * (den // v.denominator) for v in row] for row in rows], den


def level_step(mask: Mask, grid: "DyadicGrid") -> "DyadicGrid":
    """D^-(n+1) S_A D^n at n = grid.level, D = diag(1, 1/2, ..., 2^-d): the
    plain step of the level-n mask, whose term from component k to row i is
    that of Mask._terms shifted left by n (d - k) + (n + 1) i, over _den
    2^(n d). Returns the level-(n + 1) grid of the same kind, on the outputs
    whose full stencil lies in the grid (_output_window); a grid whose d is
    not mask.d raises ValueError. Exact rows come out over the grid's
    denominator times the level mask's, divided by their gcd. The step runs
    the mask's plan for this level and kind (Mask._level_plan), built on the
    first step there and kept on the mask. A float coefficient is the
    shifted numerator over that denominator, correctly rounded; a level
    whose coefficients pass the float range raises ValueError, on all-zero
    rows too.

    The plan runs only over the outputs that the grid's nonzero columns
    p..q (its recorded span) reach, 2p + s_min .. 2q + s_max in abscissae,
    inside the output window; the others are written as 0 or 0.0. The
    output grid records its own span, found by _live on the computed sums
    before they are padded, so no step and no diagnostic scans a padded
    row. That changes no bit: every computed sum starts from 0 or 0.0, so a
    sum over ±0.0 inputs is +0.0, NaN and ±inf are nonzero and stay in the
    span, and zeros leave the exact gcd as it is.
    """
    rows, den, start, level = grid._rows, grid._den, grid.start, grid.level
    if len(rows) != mask.d + 1:
        raise ValueError(
            f"a step of a d = {mask.d} mask needs {mask.d + 1} rows, got {len(rows)}"
        )
    out_lo, out_hi = _output_window(mask, start, start + grid.npoints - 1)
    exact = den is not None
    # Built before the span is read: all-zero rows compile their level's
    # plan too, and a float level beyond the float range raises on them.
    plan = mask._level_plan(level, exact)
    zero = 0 if exact else 0.0
    live = grid._span
    if live is None:
        lo, hi = out_lo, out_lo - 1
        sums = [[] for _ in rows]
        span = None
    else:
        # Columns p..q reach the outputs 2p + s_min .. 2q + s_max, a range
        # that always meets the output window.
        s_min, s_max = mask.support
        lo = max(out_lo, 2 * (start + live[0]) + s_min)
        hi = min(out_hi, 2 * (start + live[1]) + s_max)
        sums = _run_plan(plan, rows, start, lo, hi, zero)
        span = _live(sums)
        if span is not None:
            span = (span[0] + lo - out_lo, span[1] + lo - out_lo)
    if exact:
        den *= mask._den << level * mask.d
        g = gcd(den, *chain.from_iterable(sums))
        if g != 1:
            sums = [[v // g for v in row] for row in sums]
            den //= g
    if lo != out_lo or hi != out_hi:
        left, right = [zero] * (lo - out_lo), [zero] * (out_hi - hi)
        sums = [left + row + right for row in sums]
    return DyadicGrid._from_rows(level + 1, out_lo, sums, den, span)


def _image(mask: Mask, v: PolyVec) -> tuple[list, list, int]:
    """S_A v-hat and v-hat as exact polynomials, one per parity class.

    v-hat is v in the degree-descending layout (row i is component v.d - i)
    with zero rows below to mask.d + 1 rows. Returns (img, vhat, q):
    img[p][i] lists the integer coefficients, in m, of (S_A v-hat)_i(2m + p)
    over mask._den * q, and vhat[p][i] those of v-hat_i(2m + p) over q, each
    mask.d + 1 long. The terms (offset, k, c) of Mask._terms[p][i] add
    sum c v-hat_k(m + offset), whose coefficient of m^t is
    sum_j C(j, t) v-hat_k[j] M[k][j - t] with M = Mask._moments[p][i]: so
    each v-hat_k is spread into one list per e = j - t, and every image row
    adds those lists times its nonzero moments. The spread lists, vhat and
    q are the vector's own tables (PolyVec._vhat_tables), built once per
    vector; vhat is padded here to the mask's size.
    """
    d = mask.d
    if v.d > d:
        raise ValueError("vector does not fit the mask's dimension")
    q, tables, spread = v._vhat_tables
    zero = [0] * (d + 1)
    below = d - v.d
    vhat = [
        [[*r, *zero[len(r) :]] for r in block] + [zero[:] for _ in range(below)]
        for block in tables
    ]
    img = []
    for moments_by_row in mask._moments:
        img.append([])
        for moments in moments_by_row:
            acc = [0] * (d + 1)
            for moments_k, lists in zip(moments, spread):
                for weight, w in zip(moments_k, lists):
                    if weight:
                        acc[: len(w)] = [a + weight * x for a, x in zip(acc, w)]
            img[-1].append(acc)
    return img, vhat, q


def eigen_check(
    mask: Mask, v: PolyVec, eigenvalue: RationalLike
) -> tuple[int, int, Fraction, Fraction] | None:
    """Test S_A v-hat = lambda v-hat exactly.

    Both sides are polynomials per parity class (see _image); their
    coefficients are compared, img / (D Q) == lambda vhat / Q cross-multiplied.
    Returns None on success, else the first counterexample (alpha, row, got,
    want), read off the same polynomials: alpha ascending from
    s_max - 1 - 2 (d + 3 + s_max - s_min), then row ascending.
    """
    lam = _rational(eigenvalue)
    img, vhat, q = _image(mask, v)
    den = mask._den
    got_scale, want_scale = lam.denominator, lam.numerator * den
    rows = zip(chain(*img), chain(*vhat))
    if all(x * got_scale == want_scale * y for got, want in rows for x, y in zip(got, want)):
        return None
    s_min, s_max = mask.support
    # Polynomials of degree <= d that differ do so at one of any d + 1 points
    # of a parity class, so the search ends.
    for alpha in count(s_max - 1 - 2 * (mask.d + 3 + s_max - s_min)):
        m, parity = divmod(alpha, 2)
        for i, (got, want) in enumerate(zip(img[parity], vhat[parity])):
            x, y = _horner(got, m, 1), _horner(want, m, 1)
            if x * got_scale != want_scale * y:
                return (alpha, i, Fraction(x, den * q), lam * Fraction(y, q))


@dataclass(frozen=True, eq=False, init=False, repr=False)
class DyadicGrid:
    """Hermite data sampled on the dyadic grid 2^-level * (start + n).

    A grid holds rows, row k listing the samples of f^(k): an exact grid
    holds integer rows over one positive denominator that shares no factor
    with all of them, a float grid holds float rows and no denominator.
    DyadicGrid(level, start, values) takes columns, values[n] being the
    column (f, f', ..., f^(d)) at start + n, and turns them into rows once:
    all ints and Fractions make an exact grid, all floats a float grid, and
    anything else raises TypeError. values is built from the rows on first
    read (Fractions in exact mode) and kept; to_json and to_csv read the
    rows. Grids are immutable and equal when level, start and values are.
    level and start are ints, not bools (TypeError), level nonnegative.

    A grid records its nonzero span (_live) where its rows are made: the
    constructor scans them once, and level_step and delta_grid hand over
    the span of the rows they make. The next step and the convergence
    diagnostics read _span and scan no row.
    """

    level: int
    start: int
    npoints: int
    _values: tuple[tuple, ...] | None
    _rows: list[list]
    _den: int | None
    _span: Span

    def __init__(self, level: int, start: int, values: Sequence[Sequence]):
        if _int_count(level, "level") < 0:
            raise ValueError(f"a grid level must be nonnegative, got {level}")
        _int_count(start, "start")
        rows, den = _as_rows(values)
        self._fill(level, start, rows, den, _live(rows))

    @classmethod
    def _from_rows(
        cls, level: int, start: int, rows: list[list], den: int | None, span: Span
    ) -> "DyadicGrid":
        """An exact grid from integer rows over den > 0 without a common
        factor, or a float grid from float rows when den is None; span is
        what _live(rows) returns."""
        out = object.__new__(cls)
        out._fill(level, start, rows, den, span)
        return out

    def _fill(
        self, level: int, start: int, rows: list[list], den: int | None, span: Span
    ) -> None:
        put = object.__setattr__
        put(self, "level", level)
        put(self, "start", start)
        put(self, "npoints", len(rows[0]))
        put(self, "_values", None)
        put(self, "_rows", rows)
        put(self, "_den", den)
        put(self, "_span", span)

    @property
    def values(self) -> tuple[tuple, ...]:
        vals = self._values
        if vals is None:
            den = self._den
            if den is None:
                vals = tuple(zip(*self._rows))
            else:
                vals = tuple(zip(*([Fraction(n, den) for n in row] for row in self._rows)))
            object.__setattr__(self, "_values", vals)
        return vals

    def _rows_as_floats(self, lo: int = 0, hi: int | None = None) -> list[list[float]]:
        """f^(k) at the points lo, ..., hi - 1 as floats, one list per k; the
        default is every point. Exact entries are rounded as float() rounds
        them; one beyond the float range raises ValueError."""
        den = self._den
        if den is None:
            return [row[lo:hi] for row in self._rows]
        # int / int rounds correctly, exactly as float(Fraction) does
        try:
            return [[n / den for n in row[lo:hi]] for row in self._rows]
        except OverflowError as exc:
            raise ValueError(
                f"the level-{self.level} grid has a value beyond the float range"
            ) from exc

    def __eq__(self, other: object) -> bool:
        if type(other) is not DyadicGrid:
            return NotImplemented
        if self.level != other.level or self.start != other.start:
            return False
        if (self._den is None) == (other._den is None):
            return self._den == other._den and self._rows == other._rows
        # An exact and a float grid are equal when their values are.
        return self.values == other.values

    def __hash__(self) -> int:
        return hash((self.level, self.start, self.values))

    def __repr__(self) -> str:
        return f"DyadicGrid(level={self.level!r}, start={self.start!r}, values={self.values!r})"

    @property
    def d(self) -> int:
        return len(self._rows) - 1

    def x(self, n: int) -> float:
        return (self.start + n) / 2**self.level

    @property
    def is_exact(self) -> bool:
        return self._den is not None

    def to_csv(self) -> str:
        header = "x," + ",".join(f"f{k}" for k in range(self.d + 1))
        cols = zip(*([f"{v:.17g}" for v in row] for row in self._rows_as_floats()))
        lines = [header]
        for n, col in enumerate(cols):
            lines.append(f"{self.x(n):.17g}," + ",".join(col))
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        den = self._den
        if den is None:
            strs = ([f"{v:.17g}" for v in row] for row in self._rows)
        else:
            strs = ([_ratio_str(n, den) for n in row] for row in self._rows)
        return {
            "level": self.level,
            "start": self.start,
            "kind": "float" if den is None else "exact",
            "values": [list(col) for col in zip(*strs)],
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "DyadicGrid":
        if not isinstance(obj, Mapping):
            raise TypeError(f"a grid must be a JSON object, got {type(obj).__name__}")
        kind = obj.get("kind", "exact")
        if kind not in ("exact", "float"):
            raise ValueError(f"grid kind must be 'exact' or 'float', got {kind!r}")
        parse = rat_from_str if kind == "exact" else _float_from_str
        values = tuple(
            tuple(parse(v) for v in _json_array(col, "a grid column"))
            for col in _json_array(obj["values"], "values")
        )
        return cls(_json_field(obj, "level", int), _json_field(obj, "start", int), values)
