"""Fraction oracles that the tests check the library against, one line per object:

cascade_reference: the step sum_beta A_n(alpha - 2 beta) c(beta), A_n = D^-(n+1) A D^n, iterated.
eigen_check_reference: S_A on polynomial vectors, stepped samples of v against lambda v.
scheme_norm_reference: largest residue-class sum of row sums of B*(z) ... B*(z^(2^(n-1))).
identity_reference: T*(z) A*(z) = s B*(z) T*(z^2) as LaurentMatrix products.
triangular_inverse_check: T T^-1 = I, the inverse as numerators over powers of u = z^-1 - 1.
taylor_symbol_reference: T*(z) from the weights: u on the diagonal, -w_(k,i+1) above it.
FractionLaurentPoly, FractionPoly, divide_exact: one Fraction per coefficient; long division.
LaurentMatrix, convolution_reference: one LaurentPoly per entry; schoolbook products.
entry_symbol, mask_matrix, mask_symbol_reference, mask_from_symbol_reference: Fraction views.
mask_scale_reference, mask_json_reference, integer_entries_reference: entry by entry.
is_lower_triangular_reference: A(alpha)[i][k] = 0 for k > i.
last_column_partition_reference: the last columns sum to e_d in each parity class.
solve_square_reference: Gauss-Jordan elimination over Fractions, with the determinant.
difference_split_reference: Delta p = sum_k Delta^k p(x - k), each Delta^k from scratch.
grid_json_reference, grid_csv_reference: a grid written one value at a time.
taylor_residuals_reference, convergence_reference: one column, one component at a time.
reconstruct_limits: each component rebuilt by trapezoidal integration of the next one.
bspline_value_reference: Cox-de Boor on integer knots.
scaled_bspline_derivative, bspline_value, bspline_derivative: the library's kernel as Fractions.
spline_cascade_reference: the spline cascade's errors at Fraction abscissae.
annihilator_reference: Delta v_m expanded in v_0 .. v_(m-1) by Poly arithmetic.
chain_for_reference, antidifference_reference: antidifferences through the Newton basis.
newton_vector, classical_vector, padded_rows: x(x-1)...(x-j+1)/j!, x^j/j!, v degree-descending.
apply_operator, apply_operator_polys: the Taylor operator on samples and on polynomials.
falling_power, newton_basis, to_newton_coeffs, from_newton_coeffs: the Newton basis.
delta_symbol, u_power, coeff: z^-s - 1, (z^-1 - 1)^m and one coefficient of a LaurentPoly.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, inf, lcm
from typing import Iterable, Iterator, Mapping, Sequence

from hermiteforge import (
    Chain,
    DyadicGrid,
    LaurentPoly,
    Mask,
    Poly,
    PolyVec,
    TaylorOperator,
    cascade,
    delta_operator,
    spline_mask,
)
from hermiteforge.analysis import ConvergenceReport
from hermiteforge.exactalg import (
    NotDivisible,
    RationalLike,
    _add,
    _horner,
    _rational,
    falling_factorial,
    rat_from_str,
    rat_to_str,
)
from hermiteforge.splines import SplineCascadeReport, _derivative_pieces
from hermiteforge.subdivision import WindowTooSmall


def delta_symbol(step: int = 1) -> LaurentPoly:
    """z^-step - 1."""
    return LaurentPoly({-step: 1, 0: -1})


def u_power(m: int) -> LaurentPoly:
    """(z^-1 - 1)^m, m >= 0: the powers the inverse Taylor symbol is written in."""
    return delta_symbol(1) ** m


def coeff(p: LaurentPoly, e: int) -> Fraction:
    """The coefficient of z^e in p, 0 off its support."""
    return dict(p.items()).get(e, Fraction(0))


def divide_exact(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """p / q in the Laurent ring by the Fraction long division; NotDivisible
    if it leaves a remainder."""
    quot = FractionLaurentPoly(dict(p.items())).divide_exact(FractionLaurentPoly(dict(q.items())))
    return LaurentPoly(dict(quot.items()))


def _canonical_hash(terms: Mapping[int, Fraction]) -> int:
    """The kernel's hash of the polynomial with these nonzero terms: a
    constant hashes as its value, anything else as its lowest exponent, its
    numerators from there over the lcm of the denominators, and that lcm."""
    if not terms or set(terms) == {0}:
        return hash(terms.get(0, Fraction(0)))
    lo, hi = min(terms), max(terms)
    den = lcm(*(v.denominator for v in terms.values()))
    nums = tuple((terms.get(e, Fraction(0)) * den).numerator for e in range(lo, hi + 1))
    return hash((lo, nums, den))


class FractionLaurentPoly:
    """The Fraction-per-coefficient Laurent polynomial: a dict from exponent to
    nonzero Fraction.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, RationalLike] | None = None):
        c: dict[int, Fraction] = {}
        if coeffs:
            for e, v in coeffs.items():
                v = Fraction(v)
                if v != 0:
                    c[int(e)] = v
        self._c = c

    @classmethod
    def zero(cls) -> "FractionLaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "FractionLaurentPoly":
        return cls({0: 1})

    @classmethod
    def constant(cls, v: RationalLike) -> "FractionLaurentPoly":
        return cls({0: v})

    @classmethod
    def monomial(cls, e: int, v: RationalLike = 1) -> "FractionLaurentPoly":
        return cls({e: v})

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._c))

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def lo(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no degree bounds")
        return min(self._c)

    @property
    def hi(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no degree bounds")
        return max(self._c)

    def coeff(self, e: int) -> Fraction:
        return self._c.get(e, Fraction(0))

    def items(self) -> Iterator[tuple[int, Fraction]]:
        return iter(sorted(self._c.items()))

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FractionLaurentPoly):
            return self._c == other._c
        if isinstance(other, (int, Fraction)):
            return self == FractionLaurentPoly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return _canonical_hash(self._c)

    def __neg__(self) -> "FractionLaurentPoly":
        return FractionLaurentPoly({e: -v for e, v in self._c.items()})

    def __add__(self, other: "FractionLaurentPoly | RationalLike") -> "FractionLaurentPoly":
        if isinstance(other, (int, Fraction)):
            other = FractionLaurentPoly.constant(other)
        if not isinstance(other, FractionLaurentPoly):
            return NotImplemented
        c = dict(self._c)
        for e, v in other._c.items():
            c[e] = c.get(e, Fraction(0)) + v
        return FractionLaurentPoly(c)

    __radd__ = __add__

    def __sub__(self, other: "FractionLaurentPoly | RationalLike") -> "FractionLaurentPoly":
        return self + (-other if isinstance(other, FractionLaurentPoly) else FractionLaurentPoly.constant(-Fraction(other)))

    def __rsub__(self, other: RationalLike) -> "FractionLaurentPoly":
        return FractionLaurentPoly.constant(other) - self

    def __mul__(self, other: "FractionLaurentPoly | RationalLike") -> "FractionLaurentPoly":
        if isinstance(other, (int, Fraction)):
            return FractionLaurentPoly({e: v * other for e, v in self._c.items()})
        if not isinstance(other, FractionLaurentPoly):
            return NotImplemented
        c: dict[int, Fraction] = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                c[e] = c.get(e, Fraction(0)) + v1 * v2
        return FractionLaurentPoly(c)

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "FractionLaurentPoly":
        q = Fraction(other)
        if q == 0:
            raise ZeroDivisionError("division of Laurent polynomial by zero")
        return self * (1 / q)

    def __pow__(self, n: int) -> "FractionLaurentPoly":
        if n < 0:
            raise ValueError("negative powers of Laurent polynomials are not defined here")
        out = FractionLaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def substitute_power(self, m: int) -> "FractionLaurentPoly":
        """Return f(z^m). m may be negative, not zero."""
        if m == 0:
            raise ValueError("substitute_power requires a nonzero exponent")
        return FractionLaurentPoly({e * m: v for e, v in self._c.items()})

    def evaluate(self, x: RationalLike) -> Fraction:
        x = Fraction(x)
        if x == 0 and self._c and self.lo < 0:
            raise ZeroDivisionError("pole at 0")
        out = Fraction(0)
        for e, v in self._c.items():
            out += v * x**e
        return out

    def derivative_at_one(self, r: int) -> Fraction:
        """r-th derivative evaluated at z = 1, via falling factorials."""
        out = Fraction(0)
        for e, v in self._c.items():
            out += v * falling_factorial(e, r)
        return out

    def divide_exact(self, divisor: "FractionLaurentPoly") -> "FractionLaurentPoly":
        """Exact division in the Laurent ring; raise NotDivisible otherwise."""
        if divisor.is_zero:
            raise ZeroDivisionError("division of Laurent polynomial by zero")
        if self.is_zero:
            return FractionLaurentPoly.zero()
        # Normalize both to ordinary polynomials by factoring out z^lo.
        num = {e - self.lo: v for e, v in self._c.items()}
        den = {e - divisor.lo: v for e, v in divisor._c.items()}
        dn = max(den)
        lead = den[dn]
        quot: dict[int, Fraction] = {}
        work = dict(num)
        deg = max(work)
        while work and deg >= dn:
            top = work.get(deg)
            if top:
                q = top / lead
                quot[deg - dn] = q
                for e, v in den.items():
                    k = deg - dn + e
                    nv = work.get(k, Fraction(0)) - q * v
                    if nv == 0:
                        work.pop(k, None)
                    else:
                        work[k] = nv
            deg -= 1
        if work:
            raise NotDivisible("Laurent division leaves a nonzero remainder")
        off = self.lo - divisor.lo
        return FractionLaurentPoly({e + off: v for e, v in quot.items()})

    def to_json(self) -> dict[str, str]:
        return {str(e): rat_to_str(v) for e, v in sorted(self._c.items())}

    @classmethod
    def from_json(cls, obj: Mapping[str, str]) -> "FractionLaurentPoly":
        return cls({int(e): rat_from_str(v) for e, v in obj.items()})

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts: list[str] = []
        for e in sorted(self._c, reverse=True):
            v = self._c[e]
            if e == 0:
                body = rat_to_str(abs(v))
            else:
                zp = "z" if e == 1 else f"z^{e}"
                body = zp if abs(v) == 1 else f"{rat_to_str(abs(v))}*{zp}"
            if not parts:
                parts.append(body if v > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if v > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(sorted(self._c.items()))!r})"



class FractionPoly:
    """The Fraction-per-coefficient dense polynomial, ascending order."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Sequence[RationalLike] = ()):
        c = [Fraction(v) for v in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self._c = tuple(c)

    @classmethod
    def zero(cls) -> "FractionPoly":
        return cls()

    @classmethod
    def one(cls) -> "FractionPoly":
        return cls((1,))

    @classmethod
    def constant(cls, v: RationalLike) -> "FractionPoly":
        return cls((v,))

    @classmethod
    def monomial(cls, k: int, v: RationalLike = 1) -> "FractionPoly":
        return cls((0,) * k + (v,))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._c

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self._c) - 1

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self._c):
            return self._c[k]
        return Fraction(0)

    @property
    def leading(self) -> Fraction:
        if not self._c:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._c[-1]

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FractionPoly):
            return self._c == other._c
        if isinstance(other, (int, Fraction)):
            return self == FractionPoly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return _canonical_hash({k: v for k, v in enumerate(self._c) if v})

    def __neg__(self) -> "FractionPoly":
        return FractionPoly(tuple(-v for v in self._c))

    def __add__(self, other: "FractionPoly | RationalLike") -> "FractionPoly":
        if isinstance(other, (int, Fraction)):
            other = FractionPoly.constant(other)
        if not isinstance(other, FractionPoly):
            return NotImplemented
        n = max(len(self._c), len(other._c))
        return FractionPoly(tuple(self.coeff(k) + other.coeff(k) for k in range(n)))

    __radd__ = __add__

    def __sub__(self, other: "FractionPoly | RationalLike") -> "FractionPoly":
        if isinstance(other, (int, Fraction)):
            other = FractionPoly.constant(other)
        if not isinstance(other, FractionPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: RationalLike) -> "FractionPoly":
        return FractionPoly.constant(other) - self

    def __mul__(self, other: "FractionPoly | RationalLike") -> "FractionPoly":
        if isinstance(other, (int, Fraction)):
            return FractionPoly(tuple(v * other for v in self._c))
        if not isinstance(other, FractionPoly):
            return NotImplemented
        if not self._c or not other._c:
            return FractionPoly.zero()
        out = [Fraction(0)] * (len(self._c) + len(other._c) - 1)
        for i, a in enumerate(self._c):
            if a:
                for j, b in enumerate(other._c):
                    out[i + j] += a * b
        return FractionPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "FractionPoly":
        return self * (1 / Fraction(other))

    def evaluate(self, x: RationalLike) -> Fraction:
        x = Fraction(x)
        out = Fraction(0)
        for v in reversed(self._c):
            out = out * x + v
        return out

    def shift(self, a: RationalLike) -> "FractionPoly":
        """Return p(x + a)."""
        a = Fraction(a)
        if a == 0 or not self._c:
            return self
        out = FractionPoly.zero()
        xa = FractionPoly((a, 1))
        for v in reversed(self._c):
            out = out * xa + v
        return out

    def derivative(self, order: int = 1) -> "FractionPoly":
        p = self
        for _ in range(order):
            p = FractionPoly(tuple(k * v for k, v in enumerate(p._c) if k >= 1))
        return p

    def forward_difference(self, order: int = 1) -> "FractionPoly":
        """Delta p = p(x+1) - p(x), iterated."""
        p = self
        for _ in range(order):
            p = p.shift(1) - p
        return p

    def to_json(self) -> list[str]:
        return [rat_to_str(v) for v in self._c]

    @classmethod
    def from_json(cls, obj: Sequence[str]) -> "FractionPoly":
        return cls(tuple(rat_from_str(v) for v in obj))

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for k in range(len(self._c) - 1, -1, -1):
            v = self._c[k]
            if v == 0:
                continue
            if k == 0:
                body = rat_to_str(abs(v))
            else:
                xp = "x" if k == 1 else f"x^{k}"
                body = xp if abs(v) == 1 else f"{rat_to_str(abs(v))}*{xp}"
            if not parts:
                parts.append(body if v > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if v > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({[str(v) for v in self._c]})"


def solve_square_reference(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[list[Fraction], Fraction]:
    """Gauss-Jordan elimination over Fractions with determinant tracking."""
    n = len(rows)
    a = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("last-row system is singular")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)], det


def difference_split_reference(p: FractionPoly, n: int) -> bool:
    """The difference-split identity with each Delta^k p taken from scratch."""
    if n < 1 or p.degree > n:
        raise ValueError("the identity needs 1 <= n and deg p <= n")
    lhs = p.forward_difference()
    rhs = FractionPoly.zero()
    for k in range(1, n):
        rhs = rhs + p.forward_difference(k).shift(-k)
    rhs = rhs + p.forward_difference(n).shift(-(n - 1))
    return lhs == rhs


# ---------------------------------------------------------------------------
# Matrix symbols with one canonical LaurentPoly per entry, each product entry
# normalized on its own, and the Fraction views of a mask.


def convolution_reference(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The schoolbook product of two integer coefficient lists, one term at a
    time."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _dot(pairs: Iterable[tuple[LaurentPoly, LaurentPoly]]) -> LaurentPoly:
    """The sum of the products a * b, normalized once at the end."""
    lo, acc, den = 0, None, 1
    for a, b in pairs:
        if a._num and b._num:
            plo, prod, pden = a._lo + b._lo, convolution_reference(a._num, b._num), a._den * b._den
            if acc is None:
                lo, acc, den = plo, prod, pden
            else:
                lo, acc, den = _add(lo, acc, den, plo, prod, pden)
    if acc is None:
        return LaurentPoly.zero()
    return LaurentPoly._make(lo, acc, den)


class LaurentMatrix:
    """A rectangular matrix of LaurentPoly entries."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Sequence[Sequence[LaurentPoly]]):
        tup = tuple(tuple(r) for r in rows)
        if not tup or not tup[0]:
            raise ValueError("empty matrix")
        width = len(tup[0])
        for r in tup:
            if len(r) != width:
                raise ValueError("ragged matrix rows")
            for x in r:
                if type(x) is not LaurentPoly:
                    raise TypeError("matrix entries must be LaurentPoly")
        self._rows = tup

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return len(self._rows[0])

    @property
    def rows(self) -> tuple[tuple[LaurentPoly, ...], ...]:
        return self._rows

    def __getitem__(self, i: int) -> tuple[LaurentPoly, ...]:
        return self._rows[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __mul__(self, other: "LaurentMatrix | LaurentPoly | RationalLike") -> "LaurentMatrix":
        if isinstance(other, LaurentMatrix):
            if self.ncols != other.nrows:
                raise ValueError("matrix shape mismatch in product")
            cols = list(zip(*other._rows))
            return LaurentMatrix([[_dot(zip(row, col)) for col in cols] for row in self._rows])
        return self.scale(other)

    def scale(self, f: "LaurentPoly | RationalLike") -> "LaurentMatrix":
        return LaurentMatrix([[x * f for x in r] for r in self._rows])

    def substitute_power(self, m: int) -> "LaurentMatrix":
        return LaurentMatrix([[x.substitute_power(m) for x in r] for r in self._rows])

    def is_zero(self) -> bool:
        return all(x.is_zero for r in self._rows for x in r)

    def __repr__(self) -> str:
        return f"LaurentMatrix({self.nrows}x{self.ncols})"


def entry_symbol(mask: Mask, i: int, k: int) -> LaurentPoly:
    """Entry (i, k) of the symbol A*(z), read off the Fraction matrices."""
    return LaurentPoly({mask.support_min + n: m[i][k] for n, m in enumerate(mask.coeffs)})


def mask_matrix(mask: Mask, alpha: int) -> tuple:
    """A(alpha) as Fractions, the zero matrix off the support."""
    n = alpha - mask.support_min
    if 0 <= n < len(mask.coeffs):
        return mask.coeffs[n]
    return ((Fraction(0),) * (mask.d + 1),) * (mask.d + 1)


def mask_symbol_reference(mask: Mask) -> LaurentMatrix:
    """A*(z), each entry symbol built from the Fraction matrices."""
    size = range(mask.d + 1)
    return LaurentMatrix([[entry_symbol(mask, i, k) for k in size] for i in size])


def mask_from_symbol_reference(sym: LaurentMatrix) -> Mask:
    """The mask of a square symbol, one Fraction coefficient at a time."""
    if sym.nrows != sym.ncols:
        raise ValueError("symbol must be square")
    exps: set[int] = set()
    for row in sym.rows:
        for f in row:
            exps.update(f.support)
    if not exps:
        raise ValueError("zero symbol has no mask")
    lo, hi = min(exps), max(exps)
    coeffs = []
    for alpha in range(lo, hi + 1):
        coeffs.append(
            tuple(
                tuple(coeff(sym[i][k], alpha) for k in range(sym.ncols))
                for i in range(sym.nrows)
            )
        )
    return Mask(lo, tuple(coeffs))


def mask_scale_reference(mask: Mask, v: RationalLike) -> Mask:
    """v times every Fraction entry."""
    v = Fraction(v)
    return Mask(
        mask.support_min,
        tuple(tuple(tuple(x * v for x in row) for row in m) for m in mask.coeffs),
    )


def mask_json_reference(mask: Mask) -> dict:
    """Mask.to_json with rat_to_str of each Fraction entry."""
    return {
        "d": mask.d,
        "support_min": mask.support_min,
        "coeffs": [[[rat_to_str(x) for x in row] for row in m] for m in mask.coeffs],
    }


def integer_entries_reference(mask: Mask) -> tuple[list[list[list[int]]], int]:
    """Entry (i, k) as dense integer coefficients at alpha = s_min, s_min + 1,
    ..., all over the lcm D of the Fraction denominators. Returns (entries, D)."""
    den = lcm(*(v.denominator for m in mask.coeffs for row in m for v in row))

    def whole(v: Fraction) -> int:
        return v.numerator * (den // v.denominator)

    size = mask.d + 1
    entries = [[[whole(m[i][k]) for m in mask.coeffs] for k in range(size)] for i in range(size)]
    return entries, den


def is_lower_triangular_reference(mask: Mask) -> bool:
    d = mask.d
    return all(
        m[i][k] == 0 for m in mask.coeffs for i in range(d + 1) for k in range(i + 1, d + 1)
    )


def last_column_partition_reference(mask: Mask) -> bool:
    """S_B e_d = e_d: per parity, the last columns, summed as Fractions,
    must be e_d."""
    d = mask.d
    s_min, s_max = mask.support
    for parity in (0, 1):
        total = [Fraction(0)] * (d + 1)
        for alpha in range(s_min, s_max + 1):
            if (alpha - parity) % 2 == 0:
                m = mask_matrix(mask, alpha)
                for i in range(d + 1):
                    total[i] += m[i][d]
        if any(total[i] != (1 if i == d else 0) for i in range(d + 1)):
            return False
    return True


# ---------------------------------------------------------------------------
# One oracle per object the library computes, each by its defining formula.


def cascade_reference(mask: Mask, levels: int, init: DyadicGrid) -> list[DyadicGrid]:
    """init and the grids of `levels` steps from it. The step from level n is
    (S c)(alpha) = sum_beta A_n(alpha - 2 beta) c(beta), A_n = D^-(n+1) A D^n
    with D = diag(1, 1/2, ..., 2^-d), so entry (i, k) of A_n(g) is
    A(g)[i][k] 2^((n+1) i - n k); it is taken at every alpha whose beta all
    lie in the grid (WindowTooSmall if there is none). Exact data sum as
    Fractions. Float data sum in the one order their bits depend on:
    float(A_n entry) * value added to 0.0 for each nonzero entry, beta
    ascending, then k ascending."""
    s_min, s_max = mask.support
    size = mask.d + 1
    grids = [init]
    for _ in range(levels):
        grid = grids[-1]
        n, a, cols = grid.level, grid.start, grid.values
        b = a + len(cols) - 1
        out_lo, out_hi = 2 * a + s_max - 1, 2 * b + s_min + 1
        if out_hi < out_lo:
            raise WindowTooSmall(f"window [{a},{b}] too small for support [{s_min},{s_max}]")
        scaled = {
            s_min + m: [
                [c * Fraction(2) ** ((n + 1) * i - n * k) for k, c in enumerate(row)]
                for i, row in enumerate(matrix)
            ]
            for m, matrix in enumerate(mask.coeffs)
        }
        zero = 0
        if not grid.is_exact:
            zero = 0.0
            scaled = {g: [[float(c) for c in row] for row in m] for g, m in scaled.items()}
        out = []
        for alpha in range(out_lo, out_hi + 1):
            acc = [zero] * size
            # beta from ceil((alpha - s_max) / 2) to floor((alpha - s_min) / 2)
            for beta in range(-((s_max - alpha) // 2), (alpha - s_min) // 2 + 1):
                m, col = scaled[alpha - 2 * beta], cols[beta - a]
                for i in range(size):
                    for k in range(size):
                        if m[i][k]:
                            acc[i] += m[i][k] * col[k]
            out.append(tuple(acc))
        grids.append(DyadicGrid(n + 1, out_lo, tuple(out)))
    return grids


def eigen_check_reference(mask: Mask, rows: Sequence[Poly], eigenvalue) -> tuple | None:
    """The first (alpha, i, got, want) with (S_A v)(alpha)_i != lambda
    v(alpha)_i, alpha ascending, then i ascending, or None: v is the
    column of polynomials rows (mask.d + 1 of them, as padded_rows gives
    a graded vector), sampled at beta = -h..h and stepped once by
    cascade_reference at level 0, whose A_0 = D^-1 A gives 2^i (S_A v)_i.
    With h = max(d, deg v) + 3 + s_max - s_min, every parity class of the
    outputs holds more points than deg v, so two polynomials that differ
    there differ at one of them."""
    if len(rows) != mask.d + 1:
        raise ValueError(f"expected {mask.d + 1} rows, got {len(rows)}")
    lam = Fraction(eigenvalue)
    s_min, s_max = mask.support
    h = max(mask.d, *(p.degree for p in rows)) + 3 + s_max - s_min
    samples = tuple(tuple(p.evaluate(beta) for p in rows) for beta in range(-h, h + 1))
    image = cascade_reference(mask, 1, DyadicGrid(0, -h, samples))[1]
    for n, col in enumerate(image.values):
        alpha = image.start + n
        for i, (got, p) in enumerate(zip(col, rows)):
            got, want = Fraction(got, 2**i), lam * p.evaluate(alpha)
            if got != want:
                return (alpha, i, got, want)
    return None


def scheme_norm_reference(mask: Mask, n: int = 1) -> Fraction:
    """||S_B^[n]||: the largest, over the residue classes of alpha mod 2^n,
    of the sum of max_i sum_k |B^[n](alpha)[i][k]|, read off the iterated
    symbol B*(z) B*(z^2) ... B*(z^(2^(n-1))), a LaurentMatrix product; 0
    when that product vanishes."""
    sym = mask_symbol_reference(mask)
    iterated = sym
    for k in range(1, n):
        iterated = iterated * sym.substitute_power(2**k)
    entries = [[dict(f.items()) for f in row] for row in iterated.rows]
    sums = {}
    for alpha in {e for row in entries for f in row for e in f}:
        worst = max(sum(abs(f.get(alpha, 0)) for f in row) for row in entries)
        sums[alpha % 2**n] = sums.get(alpha % 2**n, 0) + worst
    return Fraction(max(sums.values(), default=0))


def taylor_symbol_reference(op: TaylorOperator, complete: bool) -> LaurentMatrix:
    """The complete symbol T-tilde*(z), or the incomplete T*(z), entry by
    entry from the weights: u = z^-1 - 1 on the diagonal (1 in the corner of
    the incomplete one), -w_{k,i+1} above it."""
    u = delta_symbol(1)
    size = op.d + 1

    def entry(i: int, k: int) -> LaurentPoly:
        if k > i:
            return LaurentPoly.constant(-op.w[k - 1][i])
        if k < i:
            return LaurentPoly.zero()
        return LaurentPoly.one() if i == op.d and not complete else u

    return LaurentMatrix([[entry(i, k) for k in range(size)] for i in range(size)])


def identity_reference(
    op: TaylorOperator, mask: Mask, factor: Mask, scale: RationalLike, complete: bool = True
) -> bool:
    """T*(z) A*(z) == scale * B*(z) T*(z^2) as LaurentMatrix products, T* the
    complete or the incomplete symbol of op's weights. T*(z^2) is
    invertible over the rational functions, so the identity decides B from
    A, and A from B."""
    t = taylor_symbol_reference(op, complete)
    lhs = t * mask_symbol_reference(mask)
    rhs = mask_symbol_reference(factor) * t.substitute_power(2)
    return lhs == rhs.scale(Fraction(scale))


def triangular_inverse_check(t: LaurentMatrix, p: Sequence[Sequence[LaurentPoly]]) -> bool:
    """T T^-1 = I for the inverse whose entry (l, k) is p[l][k] / u^(k-l+1),
    u = z^-1 - 1, the form TaylorOperator.symbol_inverse returns: with the
    denominators cleared, sum_l t[j][l] p[l][k] u^(l-j) must equal
    delta_jk u^(k-j+1)."""
    n = t.nrows
    u = delta_symbol(1)
    for j in range(n):
        for k in range(n):
            acc = LaurentPoly.zero()
            for l in range(j, min(k, n - 1) + 1):
                a = t[j][l]
                b = p[l][k]
                if a and b:
                    acc = acc + a * b * u ** (l - j)
            want = u ** (k - j + 1) if j == k else LaurentPoly.zero()
            if acc != want:
                return False
    return True


def grid_json_reference(grid: DyadicGrid) -> dict:
    """DyadicGrid.to_json column by column: rat_to_str of each value when
    the first one is a Fraction, else f"{float(v):.17g}"."""
    vals = grid.values
    if isinstance(vals[0][0], Fraction):
        kind, strs = "exact", [[rat_to_str(v) for v in col] for col in vals]
    else:
        kind, strs = "float", [[f"{float(v):.17g}" for v in col] for col in vals]
    return {"level": grid.level, "start": grid.start, "kind": kind, "values": strs}


def grid_csv_reference(grid: DyadicGrid) -> str:
    """DyadicGrid.to_csv column by column, each value through float()."""
    lines = ["x," + ",".join(f"f{k}" for k in range(grid.d + 1))]
    for n, col in enumerate(grid.values):
        x = (grid.start + n) / 2**grid.level
        lines.append(f"{x:.17g}," + ",".join(f"{float(v):.17g}" for v in col))
    return "\n".join(lines) + "\n"


def _window_range(grid: DyadicGrid, window: tuple[int, int]) -> range:
    lo = window[0] * 2**grid.level
    hi = window[1] * 2**grid.level
    return range(max(lo, grid.start), min(hi, grid.start + grid.npoints - 1) + 1)


def taylor_residuals_reference(grid: DyadicGrid, window, taylor=None) -> tuple[float, ...]:
    """taylor_residuals one window point at a time: v = f^(k)(a+1) - f^(k)(a),
    then v -= w_l f^(k+l)(a) for l = 1, 2, ..., and a running max."""
    d = grid.d
    if taylor is None:
        taylor = delta_operator(d)
    values, start, npoints = grid.values, grid.start, grid.npoints
    out = []
    for k in range(d):
        weights = [
            float(taylor.w[k + ell - 1][k]) / 2.0 ** (grid.level * ell)
            for ell in range(1, d - k + 1)
        ]
        worst = 0.0
        for alpha in _window_range(grid, window):
            i0 = alpha - start
            if i0 + 1 >= npoints:
                continue
            col = values[i0]
            v = float(values[i0 + 1][k]) - float(col[k])
            for ell, wgt in enumerate(weights, start=1):
                v -= wgt * float(col[k + ell])
            worst = max(worst, abs(v))
        out.append(worst)
    return tuple(out)


def convergence_reference(
    grids: Sequence[DyadicGrid], window, ratio_bound: float, residual_tol: float, taylor=None
) -> ConvergenceReport:
    """check_convergence's report on a given cascade, one column and one
    component at a time: each coarse sample against both of its children,
    with an `if dv > worst` running max."""
    levels = len(grids) - 1
    d = grids[0].d
    diffs = []
    for n in range(levels):
        g0, g1 = grids[n], grids[n + 1]
        start1, end1 = g1.start, g1.start + g1.npoints
        worst = 0.0
        for alpha in _window_range(g0, window):
            c0 = g0.values[alpha - g0.start]
            for beta in (2 * alpha, 2 * alpha + 1):
                if not (start1 <= beta < end1):
                    continue
                c1 = g1.values[beta - start1]
                for i in range(d + 1):
                    dv = abs(float(c0[i]) - float(c1[i]))
                    if dv > worst:
                        worst = dv
        diffs.append(worst)
    ratios = []
    for n in range(levels - 1):
        if diffs[n] > 0:
            ratios.append(diffs[n + 1] / diffs[n])
        elif diffs[n + 1] == 0:
            ratios.append(0.0)
        else:
            ratios.append(inf)
    burn_in = min(2, max(0, len(ratios) - 1))
    tail = ratios[burn_in:]
    max_tail_ratio = max(tail) if tail else 0.0
    residuals = tuple(taylor_residuals_reference(g, window, taylor) for g in grids)
    residual_decay_ok = True
    for k in range(d):
        prev, last = residuals[-2][k], residuals[-1][k]
        if prev == 0.0:
            if last != 0.0:
                residual_decay_ok = False
        elif last / prev > ratio_bound:
            residual_decay_ok = False
    return ConvergenceReport(
        ok=max_tail_ratio <= ratio_bound and residual_decay_ok,
        levels=levels,
        window=window,
        sup_differences=tuple(diffs),
        ratios=tuple(ratios),
        burn_in=burn_in,
        max_tail_ratio=max_tail_ratio,
        ratio_bound=ratio_bound,
        residuals=residuals,
        final_residuals=residuals[-1],
        residual_tol=residual_tol,
        residuals_below_tol=all(r <= residual_tol for r in residuals[-1]),
        residual_decay_ok=residual_decay_ok,
        differences_decay_ok=max_tail_ratio <= ratio_bound,
    )


def scaled_bspline_derivative(r: int, k: int, num: int, den: int) -> int:
    """(r-k)! den^(r-k) B_r^(k)(num/den) for den > 0 and 0 <= k <= r: integer
    Horner on the cached piece holding num/den, the one on its right at a
    knot, and 0 off the support [0, r + 1)."""
    if num < 0 or num >= (r + 1) * den:
        return 0
    return _horner(_derivative_pieces(r, k)[num // den], num, den)


def bspline_value(r: int, x) -> Fraction:
    """B_r(x) as a Fraction, read off the kernel's r! den^r B_r(num/den)."""
    x = Fraction(x)
    scale = factorial(r) * x.denominator**r
    return Fraction(scaled_bspline_derivative(r, 0, x.numerator, x.denominator), scale)


def bspline_derivative(r: int, k: int, x) -> Fraction:
    """B_r^(k)(x) as a Fraction, read off the kernel's scaled value; k <= r."""
    x = Fraction(x)
    scale = factorial(r - k) * x.denominator ** (r - k)
    return Fraction(scaled_bspline_derivative(r, k, x.numerator, x.denominator), scale)


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


def annihilator_reference(v: PolyVec) -> TaylorOperator:
    """The operator annihilating v by Poly arithmetic: each Delta v_m is
    expanded in v_0, ..., v_{m-1} from the top degree down, one Poly per
    coefficient, product and difference."""
    d = v.d
    w: list[list[Fraction]] = [[Fraction(0)] * j for j in range(1, d + 1)]
    for m in range(1, d + 1):
        q = v.components[m].forward_difference()
        for t in range(m - 1, -1, -1):
            lam = coeff(q, t) * factorial(t)
            if lam:
                q = q - v.components[t] * lam
            # Delta v_m = sum_t lambda_t v_t translates to w_{d-t, d-m+1}.
            w[d - t - 1][d - m] = lam
        assert not q, "difference expansion left a nonzero remainder"
    return TaylorOperator(tuple(tuple(row) for row in w))


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


def chain_for_reference(
    op: TaylorOperator, constants: Mapping[tuple[int, int], RationalLike] | None = None
) -> Chain:
    """The chain of an operator by exact antidifferencing, built and
    validated on every call."""
    consts = {}
    for (j, k), v in (constants or {}).items():
        if not 1 <= k <= j <= op.d:
            raise ValueError(f"constant ({j},{k}) is outside 1 <= k <= j <= {op.d}")
        consts[(j, k)] = _rational(v)
    vecs = []
    for j in range(op.d + 1):
        comps: list[Poly] = [Poly.one()]
        for k in range(1, j + 1):
            rhs = Poly.zero()
            for l in range(k):
                wv = op.w[j - l - 1][j - k]
                if wv:
                    rhs = rhs + comps[l] * wv
            comps.append(antidifference_reference(rhs, consts.get((j, k), 0)))
        vecs.append(PolyVec(tuple(comps)))
    chain = Chain(tuple(vecs))
    assert chain.operator() == op
    return chain


def falling_power(j: int) -> Poly:
    """x (x-1) ... (x-j+1)."""
    p = Poly.one()
    for i in range(j):
        p = p * Poly((-i, 1))
    return p


def newton_basis(j: int) -> Poly:
    """The normalized falling power x(x-1)...(x-j+1) / j!.

    Its forward difference is the previous basis element, which is what makes
    exact antidifferencing a coefficient shift.
    """
    return falling_power(j) / factorial(j)


def to_newton_coeffs(p: Poly) -> tuple[Fraction, ...]:
    """Coefficients lambda_k with p = sum_k lambda_k * newton_basis(k).

    Newton forward-difference formula: lambda_k = (Delta^k p)(0).
    """
    out = []
    q = p
    for _ in range(p.degree + 1):
        out.append(q.evaluate(0))
        q = q.forward_difference()
    return tuple(out)


def antidifference_reference(p: Poly, constant: RationalLike = 0) -> Poly:
    """q with Delta q = p and q(0) = constant, lifted through the Newton
    basis, where Delta acts as a shift of indices."""
    q = Poly.constant(constant)
    for k, v in enumerate(to_newton_coeffs(p)):
        if v:
            q = q + newton_basis(k + 1) * v
    return q


def from_newton_coeffs(coeffs: Sequence[RationalLike]) -> Poly:
    p = Poly.zero()
    for k, v in enumerate(coeffs):
        if v:
            p = p + newton_basis(k) * Fraction(v)
    return p


def newton_vector(d: int) -> PolyVec:
    """The vector whose components are the normalized falling powers."""
    return PolyVec(tuple(newton_basis(j) for j in range(d + 1)))


def classical_vector(d: int) -> PolyVec:
    """The monomial vector with components x^j / j!."""
    return PolyVec(tuple(Poly.monomial(j, Fraction(1, factorial(j))) for j in range(d + 1)))


def padded_rows(v: PolyVec, ambient: int) -> list[Poly]:
    """Degree-descending polynomial rows of v, zero-padded to ambient+1 rows."""
    if ambient < v.d:
        raise ValueError("ambient dimension smaller than the vector's own")
    rows = [v.components[v.d - i] for i in range(v.d + 1)]
    rows.extend(Poly.zero() for _ in range(ambient - v.d))
    return rows


def apply_operator_polys(
    op: TaylorOperator, rows: Sequence[Poly], *, complete: bool = True
) -> list[Poly]:
    """Apply the complete (or incomplete) operator to a column of polynomial
    sequences."""
    d = op.d
    if len(rows) != d + 1:
        raise ValueError(f"expected {d + 1} rows, got {len(rows)}")
    out = []
    for i in range(d + 1):
        if i == d and not complete:
            out.append(rows[d])
            continue
        acc = rows[i].forward_difference()
        for k in range(i + 1, d + 1):
            wv = op.w[k - 1][i]
            if wv:
                acc = acc - rows[k] * wv
        out.append(acc)
    return out


def apply_operator(
    op: TaylorOperator,
    values: Sequence[Sequence[RationalLike]],
    start: int,
    *,
    complete: bool = True,
) -> tuple[list[tuple], int]:
    """Apply the complete (or incomplete) operator to sampled columns on an
    integer window.

    values[n] is the column at alpha = start + n. The output loses the last
    point (the forward difference looks one step ahead).
    """
    d = op.d
    if len(values) < 2:
        raise WindowTooSmall("need at least two samples for a forward difference")
    for col in values:
        if len(col) != d + 1:
            raise ValueError(f"expected columns of height {d + 1}")
    out = []
    for n in range(len(values) - 1):
        here = values[n]
        ahead = values[n + 1]
        col = []
        for i in range(d + 1):
            if i == d and not complete:
                col.append(here[d])
                continue
            acc = ahead[i] - here[i]
            for k in range(i + 1, d + 1):
                wv = op.w[k - 1][i]
                if wv:
                    acc = acc - wv * here[k]
            col.append(acc)
        out.append(tuple(col))
    return out, start


def reconstruct_limits(grid: DyadicGrid) -> tuple[tuple[tuple[float, ...], ...], float]:
    """Rebuild each component by trapezoidal integration of the next one,
    anchored at the abscissa 0 sample; returns the rebuilt columns and the
    largest deviation from the grid's own data.

    A small deviation is evidence that the rendered components really are
    consecutive derivatives of a common limit.
    """
    d = grid.d
    n = grid.npoints
    h = 1.0 / 2**grid.level
    zero_idx = -grid.start
    if not 0 <= zero_idx < n:
        raise WindowTooSmall("grid must contain the abscissa 0 to anchor integration")
    cols = grid._rows_as_floats()
    rebuilt: list[list[float]] = [cols[d]]
    for k in range(d - 1, -1, -1):
        upper = rebuilt[0]
        out = [0.0] * n
        out[zero_idx] = cols[k][zero_idx]
        for i in range(zero_idx + 1, n):
            out[i] = out[i - 1] + 0.5 * h * (upper[i - 1] + upper[i])
        for i in range(zero_idx - 1, -1, -1):
            out[i] = out[i + 1] - 0.5 * h * (upper[i] + upper[i + 1])
        rebuilt.insert(0, out)
    worst = 0.0
    for got, want in zip(rebuilt, cols):
        worst = max(worst, *(abs(a - b) for a, b in zip(got, want)))
    return tuple(zip(*rebuilt)), worst
