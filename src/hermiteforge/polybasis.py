"""Ordinary polynomials over Q, the normalized falling-factorial basis, and
the graded vectors of polynomials that Taylor chains are made of.

A vector lives in V_d when it has d+1 polynomial components of degrees
exactly 0..d, the degree-j component has leading coefficient 1/j!, and the
degree-0 component is the constant 1. Components are stored in ascending
degree order; displays and sampled columns use the reversed (degree-
descending) layout that matches how subdivision operators act on Hermite
data, with the function value in the top row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
from typing import Mapping, Sequence

from .exactalg import RationalLike, rat_from_str, rat_to_str


class NotInVd(Exception):
    """Raised when a polynomial vector violates the graded-degree shape."""


class Poly:
    """Dense univariate polynomial with Fraction coefficients, ascending order."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Sequence[RationalLike] = ()):
        c = [Fraction(v) for v in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self._c = tuple(c)

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def constant(cls, v: RationalLike) -> "Poly":
        return cls((v,))

    @classmethod
    def monomial(cls, k: int, v: RationalLike = 1) -> "Poly":
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
        if isinstance(other, Poly):
            return self._c == other._c
        if isinstance(other, (int, Fraction)):
            return self == Poly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._c)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-v for v in self._c))

    def __add__(self, other: "Poly | RationalLike") -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self._c), len(other._c))
        return Poly(tuple(self.coeff(k) + other.coeff(k) for k in range(n)))

    __radd__ = __add__

    def __sub__(self, other: "Poly | RationalLike") -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: RationalLike) -> "Poly":
        return Poly.constant(other) - self

    def __mul__(self, other: "Poly | RationalLike") -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly(tuple(v * other for v in self._c))
        if not isinstance(other, Poly):
            return NotImplemented
        if not self._c or not other._c:
            return Poly.zero()
        out = [Fraction(0)] * (len(self._c) + len(other._c) - 1)
        for i, a in enumerate(self._c):
            if a:
                for j, b in enumerate(other._c):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "Poly":
        return self * (1 / Fraction(other))

    def evaluate(self, x: RationalLike) -> Fraction:
        x = Fraction(x)
        out = Fraction(0)
        for v in reversed(self._c):
            out = out * x + v
        return out

    def shift(self, a: RationalLike) -> "Poly":
        """Return p(x + a)."""
        a = Fraction(a)
        if a == 0 or not self._c:
            return self
        out = Poly.zero()
        xa = Poly((a, 1))
        for v in reversed(self._c):
            out = out * xa + v
        return out

    def derivative(self, order: int = 1) -> "Poly":
        p = self
        for _ in range(order):
            p = Poly(tuple(k * v for k, v in enumerate(p._c) if k >= 1))
        return p

    def forward_difference(self, order: int = 1) -> "Poly":
        """Delta p = p(x+1) - p(x), iterated."""
        p = self
        for _ in range(order):
            p = p.shift(1) - p
        return p

    def to_json(self) -> list[str]:
        return [rat_to_str(v) for v in self._c]

    @classmethod
    def from_json(cls, obj: Sequence[str]) -> "Poly":
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


def from_newton_coeffs(coeffs: Sequence[RationalLike]) -> Poly:
    p = Poly.zero()
    for k, v in enumerate(coeffs):
        if v:
            p = p + newton_basis(k) * Fraction(v)
    return p


def antidifference(p: Poly, constant: RationalLike = 0) -> Poly:
    """Return q with Delta q = p and q(0) = constant.

    Lifts through the Newton basis, where Delta acts as a shift of indices.
    """
    lam = to_newton_coeffs(p)
    q = Poly.constant(constant)
    for k, v in enumerate(lam):
        if v:
            q = q + newton_basis(k + 1) * v
    return q


@dataclass(frozen=True)
class PolyVec:
    """An element of V_d: components of degree exactly 0..d, stored ascending.

    components[j] has degree j, leading coefficient 1/j!, and components[0]
    is the constant 1.
    """

    components: tuple[Poly, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise NotInVd("a graded vector needs at least the constant component")
        for j, p in enumerate(comps):
            if p.degree != j:
                raise NotInVd(f"component {j} has degree {p.degree}, expected exactly {j}")
            if p.leading != Fraction(1, factorial(j)):
                raise NotInVd(
                    f"component {j} has leading coefficient {p.leading}, expected 1/{j}!"
                )
        if comps[0] != Poly.one():
            raise NotInVd("the degree-0 component must be the constant 1")

    @property
    def d(self) -> int:
        return len(self.components) - 1

    def component(self, degree: int) -> Poly:
        return self.components[degree]

    def sample_rows(
        self, lo: int, hi: int, ambient: int | None = None
    ) -> tuple[list[list[int]], int]:
        """Samples at the integers lo..hi as integer numerators over one
        denominator Q, returned as (rows, Q).

        rows[i][n] belongs to abscissa lo + n in the degree-descending layout
        (component d - i), with zero rows padding to ambient + 1 rows when
        requested. Each row is evaluated by integer Horner.
        """
        d = self.d
        amb = d if ambient is None else ambient
        if amb < d:
            raise ValueError("ambient dimension smaller than the vector's own")
        den = lcm(*(c.denominator for p in self.components for c in p.coeffs))
        xs = range(lo, hi + 1)
        rows = []
        for i in range(d + 1):
            nums = [c.numerator * (den // c.denominator) for c in self.components[d - i].coeffs]
            row = [nums[-1]] * len(xs)
            for c in reversed(nums[:-1]):
                row = [r * x + c for r, x in zip(row, xs)]
            rows.append(row)
        rows.extend([0] * len(xs) for _ in range(amb - d))
        return rows, den

    def to_json(self) -> dict:
        return {"d": self.d, "components": [p.to_json() for p in self.components]}

    @classmethod
    def from_json(cls, obj: Mapping) -> "PolyVec":
        comps = tuple(Poly.from_json(c) for c in obj["components"])
        pv = cls(comps)
        if pv.d != int(obj["d"]):
            raise NotInVd("declared d does not match the number of components")
        return pv

    def __str__(self) -> str:
        rows = [str(self.components[self.d - i]) for i in range(self.d + 1)]
        return "[" + "; ".join(rows) + "]"


def classical_vector(d: int) -> PolyVec:
    """The monomial vector with components x^j / j!."""
    return PolyVec(tuple(Poly.monomial(j, Fraction(1, factorial(j))) for j in range(d + 1)))


def newton_vector(d: int) -> PolyVec:
    """The vector whose components are the normalized falling powers."""
    return PolyVec(tuple(newton_basis(j) for j in range(d + 1)))
