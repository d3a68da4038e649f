"""Reference implementations that the fast kernels are tested against.

These are the direct loops: Laurent and dense polynomials that keep one
Fraction per coefficient, Gauss-Jordan elimination over Fractions, the
difference-split identity with each difference taken from scratch, one
Fraction product per mask entry in the subdivision step and in every level
of the exact cascade, masks read and built one Fraction entry at a time
(symbol, from_symbol, scale, JSON, stencil, integer entries, and the
triangle and partition tests), the float cascade and its convergence diagnostics one
column and one component at a time, the grid JSON and CSV writers one value
at a time, the stencil sums of one step accumulated one term at a time
over a parity class, Fraction samples of polynomial vectors for the eigen
check, the exact image of a polynomial vector with one integer Taylor
shift per mask term, the spectral chain recovery on sampled windows of integer
numerators and its tower assembled by Poly products and sums, the
annihilator of a polynomial vector expanded by Poly arithmetic,
contraction norms read off the Laurent-product iterated symbol
and grown by a product loop of their own over a power of one denominator,
Fraction abscissae for the spline cascade check, the Cox-de Boor recursion
for B-spline values, a factorization that gates on annihilation before
dividing and checks its identity twice, unfactor accumulating one
LaurentPoly product per term of the inverse, the incomplete factor built
one entry at a time by its block, the order-of-zero test of a
synthesized last row that unfactor's division by (z^-1 - 1)^(d+1) replaces,
the Laurent matrix that keeps one canonical LaurentPoly per entry,
multiplies them by schoolbook convolution and normalizes each product
entry on its own, the triangular inverse by nilpotent expansion and by
back substitution on LaurentPoly values, its numerators times powers of
u as LaurentPoly products, and a Taylor operator's symbol and canonical
chain built afresh on every call. A polynomial's coefficient, a mask's
matrix and its entry symbols are read off the Fraction views, and an exact
Laurent quotient comes from the Fraction long division.
They are slow and obviously right, which is all they are for.

The oracles at the end state a property by its defining formula: the
iterated symbol as a product of Laurent matrices, the triangular inverse
recombined, the operator applied to sampled or polynomial rows, the Newton
basis with the antidifference lifted through it, the Newton and monomial
vectors, the inverse corner transform of a factor, the scalar eigen
relation checked by subdivision of samples, and each component of a
rendered grid rebuilt by trapezoidal integration of the next one. The
B-spline values and derivatives as Fractions are read off the library's
integer kernel, for the tests that state spline identities in x.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, inf, lcm
from typing import Iterable, Iterator, Mapping, Sequence

from hermiteforge import (
    DyadicGrid,
    EigenvalueClash,
    LaurentPoly,
    Mask,
    NotAnnihilated,
    Poly,
    PolyVec,
    SpanHypothesisFailed,
    TaylorOperator,
    cascade,
    chain_for,
    spline_mask,
)
from hermiteforge.analysis import ContractivityReport, ConvergenceReport
from hermiteforge.exactalg import (
    NotDivisible,
    RationalLike,
    _add,
    _horner,
    _rational,
    _taylor_shift,
    falling_factorial,
    rat_from_str,
    rat_to_str,
)
from hermiteforge.factor import (
    Factorization,
    _checked_scale,
    _identity_holds,
    _last_column_partition_of_unity,
)
from hermiteforge.splines import SplineCascadeReport, _derivative_pieces
from hermiteforge.subdivision import WindowTooSmall, _output_window, eigen_check
from hermiteforge.taylor import Chain, delta_operator


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


class SingularSystem(Exception):
    """Raised by solve_square_reference when no pivot is left in a column."""


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
            raise SingularSystem("last-row system is singular")
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
# The Laurent matrix that Mask replaced as the form of a matrix symbol: one
# canonical LaurentPoly per entry, each product entry normalized on its own.


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

    @classmethod
    def identity(cls, n: int) -> "LaurentMatrix":
        one = LaurentPoly.one()
        zero = LaurentPoly.zero()
        return cls([[one if i == k else zero for k in range(n)] for i in range(n)])

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

    def __hash__(self) -> int:
        return hash(self._rows)

    def __add__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        self._check_shape(other)
        return LaurentMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self._rows, other._rows)]
        )

    def __sub__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        self._check_shape(other)
        return LaurentMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self._rows, other._rows)]
        )

    def _check_shape(self, other: "LaurentMatrix") -> None:
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("matrix shape mismatch")

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

    def to_json(self) -> list[list[dict[str, str]]]:
        return [[x.to_json() for x in r] for r in self._rows]

    @classmethod
    def from_json(cls, obj: Sequence[Sequence[Mapping[str, str]]]) -> "LaurentMatrix":
        return cls([[LaurentPoly.from_json(x) for x in r] for r in obj])

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


def stencil_reference(mask: Mask, level: int | None = None) -> tuple[tuple, tuple, int]:
    """The compiled stencil (floats, numerators, denominator) from the
    Fraction entries: float(c) and c over the lcm of the denominators. With
    a level n it is the stencil of the level-n mask A_n = D^-(n+1) A D^n:
    each entry c of A(alpha)[i][k] becomes c 2^((n+1) i - n k), over the
    lcm times 2^(n d)."""
    shift = 0 if level is None else level * mask.d
    s_min, s_max = mask.support
    den = lcm(*(v.denominator for m in mask.coeffs for row in m for v in row)) << shift
    floats, numerators = [], []
    for parity in (0, 1):
        float_rows, int_rows = [], []
        for i in range(mask.d + 1):
            float_row, int_row = [], []
            # alpha - 2 beta = g, so beta ascending is g descending.
            for g in range(s_max - (s_max - parity) % 2, s_min - 1, -2):
                offset = (parity - g) // 2
                for k, c in enumerate(mask.coeffs[g - s_min][i]):
                    if c:
                        if level is not None:
                            c *= Fraction(2) ** ((level + 1) * i - level * k)
                        float_row.append((offset, k, float(c)))
                        int_row.append((offset, k, c.numerator * (den // c.denominator)))
            float_rows.append(tuple(float_row))
            int_rows.append(tuple(int_row))
        floats.append(tuple(float_rows))
        numerators.append(tuple(int_rows))
    return tuple(floats), tuple(numerators), den


def stencil_sums_reference(
    table: tuple, rows: Sequence[Sequence], a: int, out_lo: int, out_hi: int, zero
) -> list[list]:
    """subdivision._run_plan on a term table, one loop per stencil term:
    each output row of a parity class is accumulated one term at a time
    across all its outputs, starting from zero, in the table's term order."""
    out = [[zero] * (out_hi - out_lo + 1) for _ in table[0]]
    for parity, terms_by_row in enumerate(table):
        first = out_lo + (parity - out_lo) % 2
        count = (out_hi - first) // 2 + 1
        base = (first - parity) // 2 - a
        for i, terms in enumerate(terms_by_row):
            if not terms:
                continue
            (offset, k, c), *rest = terms
            lo = base + offset
            acc = [zero + c * v for v in rows[k][lo : lo + count]]
            for offset, k, c in rest:
                lo = base + offset
                acc = [s + c * v for s, v in zip(acc, rows[k][lo : lo + count])]
            out[i][first - out_lo :: 2] = acc
    return out


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


def _refine_reference(mask: Mask, values, start: int, matrix):
    """(S c)(alpha) = sum_beta M(alpha - 2 beta) c(beta), with M(g) =
    matrix(g) on the mask's support, summed beta ascending, then k
    ascending, one `s += m * c` per nonzero entry: from 0 on exact data,
    and from 0.0 with m = float(entry) on float data."""
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
    mats = {g: matrix(g) for g in range(s_min, s_max + 1)}
    zero = 0
    if any(isinstance(v, float) for col in values for v in col):
        zero = 0.0
        mats = {g: [[float(c) for c in row] for row in m] for g, m in mats.items()}
    out = []
    for alpha in range(out_lo, out_hi + 1):
        beta_lo = -((s_max - alpha) // 2)  # ceil((alpha - s_max) / 2)
        beta_hi = (alpha - s_min) // 2
        acc = [zero] * size
        for beta in range(max(beta_lo, a), min(beta_hi, b) + 1):
            m = mats[alpha - 2 * beta]
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


def subdivide_reference(mask: Mask, values, start: int):
    """The plain step S_A on columns, by _refine_reference."""
    return _refine_reference(mask, values, start, lambda g: mask_matrix(mask, g))


def level_matrix_reference(mask: Mask, alpha: int, level: int) -> tuple:
    """A_n(alpha) = D^-(n+1) A(alpha) D^n at n = level, D = diag(1, 1/2, ...,
    2^-d): entry (i, k) times 2^((n+1) i - n k), as Fractions."""
    return tuple(
        tuple(c * Fraction(2) ** ((level + 1) * i - level * k) for k, c in enumerate(row))
        for i, row in enumerate(mask_matrix(mask, alpha))
    )


def hermite_step_reference(mask: Mask, values, start: int, level: int):
    """D^-(level+1) S_A D^level on columns, as the plain step of the level-n
    mask (level_matrix_reference) by _refine_reference: exact data in
    Fractions, float data as float(coefficient) * value in the same order."""
    return _refine_reference(
        mask, values, start, lambda g: level_matrix_reference(mask, g, level)
    )


def cascade_reference(mask: Mask, levels: int, init: DyadicGrid) -> list[DyadicGrid]:
    """The cascade from an explicit grid, exact or float:
    hermite_step_reference level by level, every grid built from its
    columns."""
    grids = [init]
    for _ in range(levels):
        g = grids[-1]
        values, start = hermite_step_reference(mask, g.values, g.start, g.level)
        grids.append(DyadicGrid(g.level + 1, start, tuple(values)))
    return grids


def float_step_prescaled_reference(mask: Mask, rows, start: int, level: int):
    """The float step in the order it had before the level-n mask: row k
    times 2^-(n k), the stencil of float(A(alpha)[i][k]) summed from 0.0 by
    stencil_sums_reference, then output row i times 2^((n+1) i). Returns the
    output rows and the first output abscissa. It rounds differently from
    the level-n mask only where a pre-scaled value, a product or a partial
    sum is subnormal or overflows."""
    out_lo, out_hi = _output_window(mask, start, start + len(rows[0]) - 1)
    pre = [[v * 2.0 ** -(level * k) for v in row] for k, row in enumerate(rows)]
    sums = stencil_sums_reference(stencil_reference(mask)[0], pre, start, out_lo, out_hi, 0.0)
    post = [[v * 2.0 ** ((level + 1) * i) for v in row] for i, row in enumerate(sums)]
    return post, out_lo


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


def sample_rows_reference(v: PolyVec, lo: int, hi: int, ambient: int) -> tuple[list, int]:
    """Samples of v at the integers lo..hi as integer numerators over one
    denominator Q, as (rows, Q): rows[i][n] is component v.d - i at lo + n,
    padded with zero rows to ambient + 1 rows; each row by integer Horner."""
    d = v.d
    den = lcm(*(p._den for p in v.components))
    xs = range(lo, hi + 1)
    rows = []
    for i in range(d + 1):
        p = v.components[d - i]
        nums = [n * (den // p._den) for n in p._dense()]
        row = [nums[-1]] * len(xs)
        for c in reversed(nums[:-1]):
            row = [r * x + c for r, x in zip(row, xs)]
        rows.append(row)
    rows.extend([0] * len(xs) for _ in range(ambient - d))
    return rows, den


def image_rows_reference(mask: Mask, v: PolyVec) -> tuple[list[list[int]], int, int]:
    """S_A applied to the samples of v on a window wide enough that, per
    parity class, the output determines its polynomial of degree <= d:
    (output rows over one denominator, that denominator, first abscissa)."""
    if v.d > mask.d:
        raise ValueError("vector does not fit the mask's dimension")
    s_min, s_max = mask.support
    half = mask.d + 3 + (s_max - s_min)
    out_lo, out_hi = _output_window(mask, -half, half)
    samples, den_q = sample_rows_reference(v, -half, half, mask.d)
    sums = stencil_sums_reference(mask._terms, samples, -half, out_lo, out_hi, 0)
    return sums, mask._den * den_q, out_lo


def image_reference(mask: Mask, v: PolyVec) -> tuple[list, list, int]:
    """subdivision._image by the term loop: (img, vhat, q) with img[p][i]
    summed one term (offset, k, c) of Mask._terms at a time, each adding c
    times v-hat_k(m + offset), an integer Taylor shift of v-hat_k."""
    d = mask.d
    if v.d > d:
        raise ValueError("vector does not fit the mask's dimension")
    q = lcm(*(p._den for p in v.components))
    rows = [[n * (q // p._den) for n in p._dense()] for p in reversed(v.components)]
    zero = [0] * (d + 1)
    full = [row + zero[len(row) :] for row in rows] + [zero] * (d - v.d)
    vhat = [[[c << j for j, c in enumerate(_taylor_shift(r, p))] for r in full] for p in (0, 1)]
    img = []
    for terms_by_row in mask._terms:
        img.append([])
        for terms in terms_by_row:
            acc = zero
            for offset, k, c in terms:
                if k <= v.d:
                    s = _taylor_shift(rows[k], offset)
                    acc = [a + c * x for a, x in zip(acc, s + zero[len(s) :])]
            img[-1].append(acc)
    return img, vhat, q


def spectral_chain_reference(
    mask: Mask, factor_incomplete: Mask, op: TaylorOperator, chain: Chain | None = None,
    scale: Fraction | None = None,
) -> Chain:
    """spectral_chain_from_factorization with the span loop run on sampled
    windows: a row is constant when all its samples are equal, and a level
    is peeled off by subtracting its samples on the same window."""
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
    images = [image_rows_reference(mask, v) for v in chain.vecs]
    start = images[0][2]
    stop = start + len(images[0][0][0]) - 1
    chain_rows = [sample_rows_reference(v, start, stop, d) for v in chain.vecs]
    umat = [[Fraction(0)] * size for _ in range(size)]
    for j in range(size):
        work, den, _ = images[j]
        for k in range(size - 1, -1, -1):
            vals = set(work[k])
            if len(vals) != 1:
                raise SpanHypothesisFailed(
                    f"image of level {j} is not constant on row {k}; "
                    "it leaves the span of the chain"
                )
            c = vals.pop()
            if c == 0:
                continue
            if k > j:
                raise SpanHypothesisFailed(f"image of level {j} has a component on level {k}")
            umat[k][j] = Fraction(c, den)
            rows, q = chain_rows[k]
            work = [[q * w - c * x for w, x in zip(wi, xi)] for wi, xi in zip(work, rows)]
            den *= q
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
    return assemble_chain_reference(chain, smat)


def assemble_chain_reference(chain: Chain, smat: Sequence[Sequence[Fraction]]) -> Chain:
    """The tower V S, one Poly product and sum per term: component t of
    level j is sum_k smat[k][j] v_k[k - j + t]."""
    vecs = []
    for j in range(chain.d + 1):
        comps = []
        for tdeg in range(j + 1):
            p = Poly.zero()
            for k in range(j - tdeg, j + 1):
                if smat[k][j]:
                    p = p + chain.vecs[k].components[k - j + tdeg] * smat[k][j]
            comps.append(p)
        vecs.append(PolyVec(tuple(comps)))
    return Chain(tuple(vecs))


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


def iterated_norms_reference(
    entries: Sequence[Sequence[Sequence[int]]], den: int
) -> Iterator[Fraction]:
    """The joint norms ||S_B^[n]|| for n = 1, 2, ... of the mask whose entries
    are given as integer coefficients over den, with a product loop of their
    own.

    The n-fold mask P_n, as integers over den^n, is extended one factor at a
    time by P_n(g + 2^(n-1) beta) += P_(n-1)(g) B(beta). Residue classes are
    taken relative to the first coefficient; that permutes the classes, not
    their sums.
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


def scheme_norm_reference(mask: Mask, n: int = 1) -> Fraction:
    """Joint norm of the n-fold scheme read off the iterated symbol, with
    one Fraction per coefficient."""
    sym = iterated_symbol(mask, n)
    if all(f.is_zero for row in sym.rows for f in row):
        return Fraction(0)
    iterated = Mask.from_symbol(sym.rows)
    s_min, s_max = iterated.support
    modulus = 2**n
    best = Fraction(0)
    for eps in range(modulus):
        total = Fraction(0)
        alpha = s_min + ((eps - s_min) % modulus)
        while alpha <= s_max:
            total += max(sum(abs(v) for v in row) for row in mask_matrix(iterated, alpha))
            alpha += modulus
        best = max(best, total)
    return best


def check_contractive_reference(mask: Mask, n_max: int = 8) -> ContractivityReport:
    """Each norm computed from scratch by scheme_norm_reference; the diagonal
    certificates run first, on 1x1 masks built from the diagonal entry
    symbols, and the joint norms after them up to the diagonal's n."""
    triangular = is_lower_triangular_reference(mask)
    diagonal_norms = []
    diagonal_n_star = None
    if triangular:
        worst_n, certified = 0, True
        for i in range(mask.d + 1):
            sym = entry_symbol(mask, i, i)
            if sym.is_zero:
                diagonal_norms.append(Fraction(0))
                continue
            scalar = Mask.from_symbol([[sym]])
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
    limit = n_max if diagonal_n_star is None else max(1, diagonal_n_star)
    norms = []
    n_star = None
    for n in range(1, limit + 1):
        norms.append(scheme_norm_reference(mask, n))
        if norms[-1] < 1:
            n_star = n
            break
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


def factor_through_reference(c_mask: Mask, chain: Chain) -> Mask:
    """Solve C* = B* T-tilde*(z^2) for B column by column, after checking up
    front that S_C annihilates every padded chain vector."""
    op = chain.operator()
    d = c_mask.d
    if op.d != d or chain.d != d:
        raise ValueError("chain and mask dimensions differ")
    for j, v in enumerate(chain.vecs):
        hit = eigen_check(c_mask, v, 0)
        if hit is not None:
            alpha, row, got, _ = hit
            raise NotAnnihilated(
                f"level {j} is not annihilated: row {row} at alpha={alpha} gives {got}"
            )
    u2 = delta_symbol(2)
    csym = mask_symbol_reference(c_mask)
    size = d + 1
    b = [[LaurentPoly.zero()] * size for _ in range(size)]
    for k in range(size):
        for i in range(size):
            num = csym[i][k]
            for l in range(k):
                wv = op.w[k - 1][l]
                if wv:
                    num = num + b[i][l] * wv
            try:
                b[i][k] = divide_exact(num, u2)
            except NotDivisible as exc:
                raise NotDivisible(
                    f"column division failed at entry ({i},{k}): {exc}"
                ) from exc
    bsym = LaurentMatrix(b)
    if csym != bsym * mask_symbol_reference(op.symbol).substitute_power(2):
        raise AssertionError("column solve did not reproduce the target symbol")
    return mask_from_symbol_reference(bsym)


def taylor_factorize_reference(mask: Mask, chain: Chain, scale=None) -> Factorization:
    """The gate-first factorization: annihilation check, column solve, the
    solve's own identity check, then the full identity check."""
    d = mask.d
    if scale is None:
        scale = Fraction(1, 2**d)
    op = chain.operator()
    csym = mask_symbol_reference(op.symbol) * mask_symbol_reference(mask)
    b_raw = factor_through_reference(mask_from_symbol_reference(csym), chain)
    fac = Factorization(mask=mask, taylor=op, factor=b_raw.scale(1 / scale), scale=scale)
    if not fac.verify():
        raise AssertionError("factorization identity failed after the column solve")
    return fac


def unfactor_reference(op: TaylorOperator, factor: Mask, scale=None) -> Mask:
    """A* = scale * (T-tilde*)^-1 B* T-tilde*(z^2) accumulated entry by entry:
    entry (j, k) is scale * u^j * sum_{l>=j} p[j][l] e[l][k], with e[l][k]
    entry (l, k) of B* T-tilde*(z^2) divided by u^(l+1), one LaurentPoly
    product and sum per term."""
    d = op.d
    if factor.d != d:
        raise ValueError("operator and factor dimensions differ")
    scale = _checked_scale(scale, d)
    g = factor * op.symbol_z2
    size = d + 1
    e = [[LaurentPoly.zero()] * size for _ in range(size)]
    for l in range(size):
        for k in range(size):
            entry = entry_symbol(g, l, k)
            if entry.is_zero:
                continue
            try:
                e[l][k] = divide_exact(entry, u_power(l + 1))
            except NotDivisible as exc:
                raise NotDivisible(
                    f"divisibility condition failed at entry ({l},{k}): "
                    f"row {l} requires a factor (z^-1 - 1)^{l + 1}"
                ) from exc
    inv = op.symbol_inverse
    rows = []
    for j in range(size):
        row = []
        for k in range(size):
            acc = LaurentPoly.zero()
            for l in range(j, size):
                p = inv[j][l]
                if p and e[l][k]:
                    acc = acc + p * e[l][k]
            row.append(acc * u_power(j) * scale)
        rows.append(row)
    mask = Mask.from_symbol(rows)
    if op.symbol * mask != g.scale(scale):
        raise AssertionError("unfactor did not satisfy the factorization identity")
    return mask


def incomplete_from_complete_reference(btilde: Mask) -> Mask:
    """The incomplete factor one entry at a time, by the entry's block:
    the top-left block as it is, the last column times z^-2 - 1, the last
    row divided by z^-1 - 1 and the corner times z^-1 + 1."""
    d = btilde.d
    u = delta_symbol(1)
    u2 = delta_symbol(2)
    zp1 = LaurentPoly({-1: 1, 0: 1})
    rows = []
    for i in range(d + 1):
        row = []
        for k in range(d + 1):
            f = entry_symbol(btilde, i, k)
            if i < d and k < d:
                row.append(f)
            elif i < d and k == d:
                row.append(f * u2)
            elif i == d and k < d:
                try:
                    row.append(divide_exact(f, u) if f else f)
                except NotDivisible as exc:
                    raise NotDivisible(
                        f"bottom-row entry ({i},{k}) does not vanish at z = 1"
                    ) from exc
            else:
                row.append(f * zp1)
        rows.append(row)
    return Mask.from_symbol(rows)


# ---------------------------------------------------------------------------
# Oracles that the tests check the library against: each states a property
# directly, by the defining formula, rather than by the fast path.


def identity_reference(fac: Factorization) -> bool:
    """T*(z) A*(z) == scale * B*(z) T*(z^2), with one LaurentPoly per entry
    of every matrix."""
    t = mask_symbol_reference(fac.taylor.symbol)
    lhs = t * mask_symbol_reference(fac.mask)
    rhs = mask_symbol_reference(fac.factor) * t.substitute_power(2)
    return lhs == rhs.scale(LaurentPoly.constant(fac.scale))


def last_row_divisibility_reference(op: TaylorOperator, hs: Sequence[LaurentPoly]) -> None:
    """Raise NotDivisible unless, for j = 1..d, q_j = (z+1) h_j - sum_m
    w_{j,m+1} (z-1)^(j-1-m) h_m vanishes to order at least j at z = 1, with
    every h_m a Fraction polynomial."""
    zm1 = FractionLaurentPoly({1: 1, 0: -1})
    zp1 = FractionLaurentPoly({1: 1, 0: 1})
    hs = [FractionLaurentPoly(dict(h.items())) for h in hs]
    for j in range(1, op.d + 1):
        q = zp1 * hs[j]
        for m in range(j):
            wv = op.w[j - 1][m]
            if wv:
                q = q - zm1 ** (j - 1 - m) * hs[m] * wv
        order = 0
        while not q.is_zero and order < j and q.evaluate(1) == 0:
            q = q.divide_exact(zm1)
            order += 1
        if not q.is_zero and order < j:
            raise NotDivisible(
                f"last-row divisibility failed at level {j}: the combined row "
                f"vanishes to order {order} at z = 1, needs {j}"
            )


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


def symbol_inverse_reference(op: TaylorOperator) -> tuple[tuple[LaurentPoly, ...], ...]:
    """The numerators of the complete symbol's inverse by back substitution
    on LaurentPoly values, one canonical polynomial per product, power of
    u and partial sum: p[l][l] = 1 and
    p[j][l] = sum_{j<m<=l} w_{m,j+1} p[m][l] u^(m-j-1), u = z^-1 - 1."""
    d = op.d
    zero, one = LaurentPoly.zero(), LaurentPoly.one()
    u = delta_symbol(1)
    upow = [one]
    for _ in range(d + 1):
        upow.append(upow[-1] * u)
    p = [[zero] * (d + 1) for _ in range(d + 1)]
    for l in range(d + 1):
        p[l][l] = one
        for j in range(l - 1, -1, -1):
            acc = zero
            for m in range(j + 1, l + 1):
                wv = op.w[m - 1][j]
                if wv and p[m][l]:
                    acc = acc + p[m][l] * upow[m - j - 1] * wv
            p[j][l] = acc
    return tuple(tuple(row) for row in p)


def inverse_numerators_reference(op: TaylorOperator) -> Mask:
    """W, entry (j, l) being u^j p[j][l] for the back substitution's
    numerators p: one LaurentPoly product per entry, read into a mask by
    from_symbol."""
    inv = symbol_inverse_reference(op)
    return Mask.from_symbol([[u_power(j) * p for p in row] for j, row in enumerate(inv)])


def iterated_symbol(mask: Mask, n: int) -> LaurentMatrix:
    """Symbol of the n-fold scheme: B*(z) B*(z^2) ... B*(z^(2^(n-1)))."""
    if n < 1:
        raise ValueError("need n >= 1")
    sym = mask_symbol_reference(mask)
    out = sym
    for k in range(1, n):
        out = out * sym.substitute_power(2**k)
    return out


def triangular_inverse_reference(t: LaurentMatrix) -> LaurentMatrix:
    """The numerators of the inverse of an upper-triangular matrix with
    constant diagonal u = z^-1 - 1: entry (j, l) of the inverse is the
    returned p[j][l] over u^(l-j+1).

    Uses the nilpotent expansion: writing t = u I + C with C strictly upper,
    the inverse is sum_m (-C)^m u^-(m+1), and the (j,l) numerator over the
    common denominator u^(l-j+1) is sum_m ((-C)^m)[j][l] u^(l-j-m). Any
    other shape or diagonal raises ValueError.
    """
    n = t.nrows
    if t.ncols != n:
        raise ValueError("matrix is not square")
    u = delta_symbol(1)
    for i in range(n):
        for k in range(n):
            if k < i and t[i][k]:
                raise ValueError(f"nonzero entry below the diagonal at ({i},{k})")
            if k == i and t[i][k] != u:
                raise ValueError(
                    f"diagonal entry ({i},{i}) is not z^-1 - 1; cannot invert in this form"
                )
    zero = LaurentPoly.zero()
    nmat = LaurentMatrix([[-t[i][k] if k > i else zero for k in range(n)] for i in range(n)])
    powers = [LaurentMatrix.identity(n)]
    upow = [LaurentPoly.one()]
    for _ in range(n - 1):
        powers.append(powers[-1] * nmat)
        upow.append(upow[-1] * u)
    rows = []
    for j in range(n):
        row = []
        for l in range(n):
            if l < j:
                row.append(zero)
                continue
            row.append(_dot((powers[m][j][l], upow[l - j - m]) for m in range(l - j + 1)))
        rows.append(row)
    return LaurentMatrix(rows)


def triangular_inverse_check(t: LaurentMatrix, p: Sequence[Sequence[LaurentPoly]]) -> bool:
    """Exact recombination check of the inverse numerators p, as
    TaylorOperator.symbol_inverse and triangular_inverse_reference return
    them: sum_l t[j][l] p[l][k] u^(l-j) must equal
    delta_jk u^(k-j+1). Clearing the denominators this way avoids rational
    functions entirely."""
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


def scalar_eigen_check(
    coeffs: Sequence[RationalLike], support_min: int, p: Poly, eigenvalue: RationalLike
) -> tuple[int, Fraction, Fraction] | None:
    """Exact check of S_a p = lambda p for a scalar mask; None on success,
    else the first counterexample (alpha, got, want)."""
    lam = Fraction(eigenvalue)
    mask = Mask(support_min, tuple(((v,),) for v in coeffs))
    s_min, s_max = mask.support
    half = max(p.degree, 0) + 3 + (s_max - s_min)
    samples = [(p.evaluate(beta),) for beta in range(-half, half + 1)]
    out, out_lo = subdivide_reference(mask, samples, -half)
    for n, (got,) in enumerate(out):
        want = lam * p.evaluate(out_lo + n)
        if got != want:
            return (out_lo + n, got, want)
    return None


def complete_from_incomplete(b: Mask) -> Mask:
    """Translate the incomplete-operator factor B into the complete one.

    Defining identity: diag(I, z^-1 - 1) B*(z) = B-tilde*(z) diag(I, z^-2 - 1),
    so the last column picks up a 1/(z^-2 - 1) and the last row a (z^-1 - 1),
    which cancel to (z^-1 + 1)^-1 on the corner.
    """
    d = b.d
    u = delta_symbol(1)
    u2 = delta_symbol(2)
    zp1 = LaurentPoly({-1: 1, 0: 1})  # z^-1 + 1
    sym = mask_symbol_reference(b)
    rows = []
    for i in range(d + 1):
        row = []
        for k in range(d + 1):
            f = sym[i][k]
            if i < d and k < d:
                row.append(f)
            elif i < d and k == d:
                row.append(divide_exact(f, u2) if f else f)
            elif i == d and k < d:
                row.append(f * u)
            else:
                row.append(divide_exact(f, zp1) if f else f)
        rows.append(row)
    return mask_from_symbol_reference(LaurentMatrix(rows))


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
