"""Ordinary polynomials over Q, the normalized falling-factorial basis, and
the graded vectors of polynomials that Taylor chains are made of.

A polynomial keeps integer numerators over one denominator and runs on the
integer kernel of ``exactalg``; coefficients are read out as Fractions.

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

from .exactalg import (
    RationalLike,
    _add,
    _display,
    _horner,
    _mul,
    _over_one_denominator,
    _ratio_str,
    _reduce,
    _scale,
    _taylor_shift,
    rat_from_str,
)


class NotInVd(Exception):
    """Raised when a polynomial vector violates the graded-degree shape."""


class Poly:
    """Dense univariate polynomial with rational coefficients, ascending order.

    Immutable: the coefficients of 1, x, x^2, ... are integer numerators over
    one positive denominator, in canonical form (no trailing zero numerator,
    no common factor of the denominator and the numerators), the same integer
    kernel as LaurentPoly. The zero polynomial is ((), 1).
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Sequence[RationalLike] = ()):
        nums, den = _over_one_denominator(coeffs)
        while nums and not nums[-1]:
            nums.pop()
        self._num, self._den = tuple(nums), den if nums else 1

    @classmethod
    def _raw(cls, nums: tuple[int, ...], den: int) -> "Poly":
        """An instance from fields already in canonical form."""
        out = object.__new__(cls)
        out._num, out._den = nums, den
        return out

    @classmethod
    def _make(cls, nums: Sequence[int], den: int) -> "Poly":
        """An instance from numerators over den > 0, brought to canonical form."""
        j = len(nums)
        while j and not nums[j - 1]:
            j -= 1
        if not j:
            return cls._raw((), 1)
        return cls._raw(*_reduce(nums[:j], den))

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
        den = self._den
        return tuple(Fraction(n, den) for n in self._num)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self._num) - 1

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self._num):
            return Fraction(self._num[k], self._den)
        return Fraction(0)

    @property
    def leading(self) -> Fraction:
        if not self._num:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._num[-1], self._den)

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self._num == other._num and self._den == other._den
        if isinstance(other, (int, Fraction)):
            return self == Poly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "Poly":
        return Poly._raw(tuple(-n for n in self._num), self._den)

    def __add__(self, other: "Poly | RationalLike") -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        if not other._num:
            return self
        if not self._num:
            return other
        _, nums, den = _add(0, self._num, self._den, 0, other._num, other._den)
        return Poly._make(nums, den)

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
            if not other or not self._num:
                return Poly.zero()
            return Poly._make(*_scale(self._num, self._den, other))
        if not isinstance(other, Poly):
            return NotImplemented
        if not self._num or not other._num:
            return Poly.zero()
        return Poly._raw(*_reduce(_mul(self._num, other._num), self._den * other._den))

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "Poly":
        return self * (1 / Fraction(other))

    def evaluate(self, x: RationalLike) -> Fraction:
        x = Fraction(x)
        if not self._num:
            return Fraction(0)
        q = x.denominator
        return Fraction(_horner(self._num, x.numerator, q), self._den * q ** self.degree)

    def shift(self, a: RationalLike) -> "Poly":
        """Return p(x + a).

        For a = s/q, q^m p(y/q) has integer coefficients, and its integer
        Taylor shift by s, read at y = q x, is q^m p(x + a).
        """
        a = Fraction(a)
        if a == 0 or not self._num:
            return self
        s, q = a.numerator, a.denominator
        if q == 1:
            # An integer shift keeps the leading numerator and the content.
            return Poly._raw(tuple(_taylor_shift(self._num, s)), self._den)
        m = self.degree
        scaled = [n * q ** (m - k) for k, n in enumerate(self._num)]
        shifted = [n * q**k for k, n in enumerate(_taylor_shift(scaled, s))]
        return Poly._make(shifted, self._den * q**m)

    def derivative(self, order: int = 1) -> "Poly":
        nums = self._num
        for _ in range(order):
            nums = [k * n for k, n in enumerate(nums) if k >= 1]
        return Poly._make(nums, self._den)

    def forward_difference(self, order: int = 1) -> "Poly":
        """Delta p = p(x+1) - p(x), iterated."""
        nums = self._num
        for _ in range(order):
            # The leading terms cancel, so each difference drops one degree.
            nums = [a - b for a, b in zip(_taylor_shift(nums, 1), nums[:-1])]
        return Poly._make(nums, self._den)

    def to_json(self) -> list[str]:
        return [_ratio_str(n, self._den) for n in self._num]

    @classmethod
    def from_json(cls, obj: Sequence[str]) -> "Poly":
        return cls(tuple(rat_from_str(v) for v in obj))

    def __str__(self) -> str:
        return _display(0, self._num, self._den, "x")

    def __repr__(self) -> str:
        return f"Poly({[str(v) for v in self.coeffs]})"


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
        den = lcm(*(p._den for p in self.components))
        xs = range(lo, hi + 1)
        rows = []
        for i in range(d + 1):
            p = self.components[d - i]
            nums = [n * (den // p._den) for n in p._num]
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
