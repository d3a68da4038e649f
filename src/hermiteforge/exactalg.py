"""Exact arithmetic over Q: Laurent polynomials, Laurent matrices, and the
triangular-inverse decomposition used by the factorization routines.

Everything here is exact; floats never enter. Rationals are plain
``fractions.Fraction`` values and serialize as "p/q" strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

Rational = Fraction
RationalLike = Union[Fraction, int]


class ExactAlgError(Exception):
    """Base class for exact-arithmetic failures."""


class NotDivisible(ExactAlgError):
    """Raised when an exact Laurent division leaves a remainder."""


class NotTriangular(ExactAlgError):
    """Raised when a matrix expected to be upper triangular is not."""


class SingularDiagonal(ExactAlgError):
    """Raised when a triangular matrix has a diagonal entry that is not
    invertible in the ring where the inverse is being formed."""


def rat_to_str(q: RationalLike) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def rat_from_str(s: str) -> Fraction:
    """Parse "p/q" or a decimal; ValueError for anything else, "1/0" included."""
    if not isinstance(s, str):
        raise ValueError(f"expected a rational string, got {s!r}")
    try:
        return Fraction(s.strip())
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {s!r}") from exc


def falling_factorial(e: int, r: int) -> int:
    """e * (e-1) * ... * (e-r+1); valid for negative e as well."""
    out = 1
    for i in range(r):
        out *= e - i
    return out


class LaurentPoly:
    """A Laurent polynomial sum c_e z^e with rational coefficients.

    Immutable in practice: all operations return new instances. The internal
    dict maps exponent -> nonzero Fraction.
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
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def constant(cls, v: RationalLike) -> "LaurentPoly":
        return cls({0: v})

    @classmethod
    def monomial(cls, e: int, v: RationalLike = 1) -> "LaurentPoly":
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
        if isinstance(other, LaurentPoly):
            return self._c == other._c
        if isinstance(other, (int, Fraction)):
            return self == LaurentPoly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -v for e, v in self._c.items()})

    def __add__(self, other: "LaurentPoly | RationalLike") -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c = dict(self._c)
        for e, v in other._c.items():
            c[e] = c.get(e, Fraction(0)) + v
        return LaurentPoly(c)

    __radd__ = __add__

    def __sub__(self, other: "LaurentPoly | RationalLike") -> "LaurentPoly":
        return self + (-other if isinstance(other, LaurentPoly) else LaurentPoly.constant(-Fraction(other)))

    def __rsub__(self, other: RationalLike) -> "LaurentPoly":
        return LaurentPoly.constant(other) - self

    def __mul__(self, other: "LaurentPoly | RationalLike") -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            return LaurentPoly({e: v * other for e, v in self._c.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c: dict[int, Fraction] = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                c[e] = c.get(e, Fraction(0)) + v1 * v2
        return LaurentPoly(c)

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "LaurentPoly":
        q = Fraction(other)
        if q == 0:
            raise ZeroDivisionError("division of Laurent polynomial by zero")
        return self * (1 / q)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers of Laurent polynomials are not defined here")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by z^k."""
        return LaurentPoly({e + k: v for e, v in self._c.items()})

    def substitute_power(self, m: int) -> "LaurentPoly":
        """Return f(z^m). m may be negative, not zero."""
        if m == 0:
            raise ValueError("substitute_power requires a nonzero exponent")
        return LaurentPoly({e * m: v for e, v in self._c.items()})

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

    def abs_coeff_sum(self) -> Fraction:
        return sum((abs(v) for v in self._c.values()), Fraction(0))

    def divide_exact(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact division in the Laurent ring; raise NotDivisible otherwise."""
        if divisor.is_zero:
            raise ZeroDivisionError("division of Laurent polynomial by zero")
        if self.is_zero:
            return LaurentPoly.zero()
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
        return LaurentPoly({e + off: v for e, v in quot.items()})

    def zero_order_at_one(self) -> int:
        """Order of the zero at z = 1 (0 if f(1) != 0)."""
        if self.is_zero:
            raise ValueError("zero polynomial vanishes to every order")
        f = self
        order = 0
        zm1 = LaurentPoly({1: 1, 0: -1})
        while f.evaluate(1) == 0:
            f = f.divide_exact(zm1)
            order += 1
        return order

    def to_json(self) -> dict[str, str]:
        return {str(e): rat_to_str(v) for e, v in sorted(self._c.items())}

    @classmethod
    def from_json(cls, obj: Mapping[str, str]) -> "LaurentPoly":
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


# The deltas z^-1 - 1 and z^-2 - 1 come up constantly in the factorization
# identities, so build them once.
def delta_symbol(step: int = 1) -> LaurentPoly:
    """z^-step - 1."""
    return LaurentPoly({-step: 1, 0: -1})


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
                if not isinstance(x, LaurentPoly):
                    raise TypeError("matrix entries must be LaurentPoly")
        self._rows = tup

    @classmethod
    def identity(cls, n: int) -> "LaurentMatrix":
        one = LaurentPoly.one()
        zero = LaurentPoly.zero()
        return cls([[one if i == k else zero for k in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, n: int, m: int | None = None) -> "LaurentMatrix":
        m = n if m is None else m
        zero = LaurentPoly.zero()
        return cls([[zero for _ in range(m)] for _ in range(n)])

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
            out = []
            for i in range(self.nrows):
                row = []
                for k in range(other.ncols):
                    acc = LaurentPoly.zero()
                    for j in range(self.ncols):
                        a = self._rows[i][j]
                        b = other._rows[j][k]
                        if a and b:
                            acc = acc + a * b
                    row.append(acc)
                out.append(row)
            return LaurentMatrix(out)
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

    def pretty(self) -> str:
        cells = [[str(x) for x in r] for r in self._rows]
        widths = [max(len(cells[i][k]) for i in range(self.nrows)) for k in range(self.ncols)]
        lines = []
        for r in cells:
            lines.append("[ " + "   ".join(c.rjust(w) for c, w in zip(r, widths)) + " ]")
        return "\n".join(lines)


@dataclass(frozen=True)
class TriangularInverse:
    """Inverse of an upper-triangular Laurent matrix whose diagonal entries
    all equal u = z^-1 - 1.

    The (j, l) entry of the inverse is p[j][l] / u^(l-j+1); the numerators
    p[j][l] are ordinary Laurent polynomials in u with p[j][j] = 1. Keeping
    numerators and denominator exponents apart lets callers do exact
    divisions instead of working in a fraction field.
    """

    size: int
    p: LaurentMatrix

    def denominator_exponent(self, j: int, l: int) -> int:
        return l - j + 1


def lm_triangular_inverse(t: LaurentMatrix) -> TriangularInverse:
    """Invert an upper-triangular matrix with constant diagonal u = z^-1 - 1.

    Uses the nilpotent expansion: writing t = u I + C with C strictly upper,
    the inverse is sum_m (-C)^m u^-(m+1), and the (j,l) numerator over the
    common denominator u^(l-j+1) is sum_m ((-C)^m)[j][l] u^(l-j-m).
    """
    n = t.nrows
    if t.ncols != n:
        raise NotTriangular("matrix is not square")
    u = delta_symbol(1)
    for i in range(n):
        for k in range(n):
            if k < i and t[i][k]:
                raise NotTriangular(f"nonzero entry below the diagonal at ({i},{k})")
            if k == i and t[i][k] != u:
                raise SingularDiagonal(
                    f"diagonal entry ({i},{i}) is not z^-1 - 1; cannot invert in this form"
                )
    zero = LaurentPoly.zero()
    nmat = LaurentMatrix([[-t[i][k] if k > i else zero for k in range(n)] for i in range(n)])
    powers = [LaurentMatrix.identity(n)]
    for _ in range(n - 1):
        powers.append(powers[-1] * nmat)
    rows = []
    for j in range(n):
        row = []
        for l in range(n):
            if l < j:
                row.append(zero)
                continue
            acc = LaurentPoly.zero()
            for m in range(l - j + 1):
                c = powers[m][j][l]
                if c:
                    acc = acc + c * u ** (l - j - m)
            row.append(acc)
        rows.append(row)
    return TriangularInverse(size=n, p=LaurentMatrix(rows))


def triangular_inverse_check(t: LaurentMatrix, inv: TriangularInverse) -> bool:
    """Exact recombination check: sum_l t[j][l] p[l][k] u^(l-j) must equal
    delta_jk u^(k-j+1). Clearing the denominators this way avoids rational
    functions entirely."""
    n = t.nrows
    u = delta_symbol(1)
    for j in range(n):
        for k in range(n):
            acc = LaurentPoly.zero()
            for l in range(j, min(k, n - 1) + 1):
                a = t[j][l]
                b = inv.p[l][k]
                if a and b:
                    acc = acc + a * b * u ** (l - j)
            want = u ** (k - j + 1) if j == k else LaurentPoly.zero()
            if acc != want:
                return False
    return True
