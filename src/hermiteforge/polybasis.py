"""Ordinary polynomials over Q, their exact antidifference, and the graded
vectors of polynomials that Taylor chains are made of.

A polynomial is a ``exactalg.LaurentPoly`` with no negative exponent: it
keeps the same canonical integer numerators over one denominator and the
same arithmetic, and adds the views of an ordinary polynomial (dense
coefficients from x^0, degree, p(x + a), derivatives, forward differences).

A vector lives in V_d when it has d+1 polynomial components of degrees
exactly 0..d, the degree-j component has leading coefficient 1/j!, and the
degree-0 component is the constant 1. Components are stored in ascending
degree order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, factorial, lcm
from typing import Mapping, Sequence

from .exactalg import (
    LaurentPoly,
    RationalLike,
    _canonical,
    _display,
    _int_count,
    _json_array,
    _json_field,
    _over_one_denominator,
    _ratio_str,
    _rational,
    _taylor_shift,
    rat_from_str,
)


class NotInVd(ValueError):
    """Raised when a polynomial vector violates the graded-degree shape."""


class Poly(LaurentPoly):
    """Univariate polynomial with rational coefficients, read in x.

    The LaurentPoly with no negative exponent: same canonical fields and
    arithmetic, constructed from and read as the coefficients of 1, x, x^2,
    ... The arithmetic takes an int, a Fraction or another Poly, never a
    LaurentPoly, and a Poly never equals a LaurentPoly.
    """

    __slots__ = ()

    def __init__(self, coeffs: Sequence[RationalLike] = ()):
        self._lo, self._num, self._den = _canonical(0, *_over_one_denominator(coeffs))

    def _dense(self) -> tuple[int, ...]:
        """The numerators of 1, x, ..., x^degree, zeros below _lo included."""
        return (0,) * self._lo + self._num if self._lo else self._num

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(n, den) for n in self._dense())

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return self._lo + len(self._num) - 1

    @property
    def leading(self) -> Fraction:
        if not self._num:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._num[-1], self._den)

    def shift(self, a: RationalLike) -> "Poly":
        """Return p(x + a).

        For a = s/q, q^m p(y/q) has integer coefficients, and its integer
        Taylor shift by s, read at y = q x, is q^m p(x + a).
        """
        a = _rational(a)
        if a == 0 or not self._num:
            return self
        s, q = a.numerator, a.denominator
        nums = self._dense()
        if q == 1:
            return self._make(0, _taylor_shift(nums, s), self._den)
        m = self.degree
        scaled = [n * q ** (m - k) for k, n in enumerate(nums)]
        shifted = [n * q**k for k, n in enumerate(_taylor_shift(scaled, s))]
        return self._make(0, shifted, self._den * q**m)

    def substitute_power(self, m: int) -> "Poly":
        """Return p(x^m) for an int m > 0 (not a bool)."""
        if _int_count(m, "m") < 0:
            raise ValueError("a Poly has no negative powers: substitute_power needs m > 0")
        return super().substitute_power(m)

    def derivative(self, order: int = 1) -> "Poly":
        nums = self._dense()
        for _ in range(order):
            nums = [k * n for k, n in enumerate(nums) if k >= 1]
        return self._make(0, nums, self._den)

    def forward_difference(self, order: int = 1) -> "Poly":
        """Delta p = p(x+1) - p(x), iterated."""
        nums = self._dense()
        for _ in range(order):
            nums = _difference(nums)
        return self._make(0, nums, self._den)

    def to_json(self) -> list[str]:
        den = self._den
        return [_ratio_str(n, den) for n in self._dense()]

    @classmethod
    def from_json(cls, obj: Sequence[str]) -> "Poly":
        return cls(tuple(rat_from_str(v) for v in _json_array(obj, "a polynomial")))

    def __str__(self) -> str:
        return _display(self._lo, self._num, self._den, "x")

    def __repr__(self) -> str:
        return f"Poly({[str(v) for v in self.coeffs]})"


def difference_split_check(p: Poly, n: int) -> bool:
    """Exact identity for deg p <= n:
    Delta p = sum_{k=1}^{n-1} (Delta^k p)(. - k) + (Delta^n p)(. - (n-1)).

    Runs on p's integer numerators over its one denominator, which every
    difference and integer shift keeps. The ladder of differences loses one
    degree per rung, so it ends at zero after deg p rungs and the later
    terms vanish.
    """
    if n < 1 or p.degree > n:
        raise ValueError("the identity needs 1 <= n and deg p <= n")
    lhs = rung = _difference(p._dense())  # rung k is Delta^k p
    rhs = [0] * len(lhs)
    for k in range(1, n + 1):
        if not rung:
            break
        shifted = _taylor_shift(rung, -min(k, n - 1))
        rhs[: len(shifted)] = [a + b for a, b in zip(rhs, shifted)]
        rung = _difference(rung)
    return lhs == rhs


def _difference(nums: Sequence[int]) -> list[int]:
    """The numerators of p(x + 1) - p(x) from those of p. The leading terms
    cancel, so the list is one shorter."""
    return [a - b for a, b in zip(_taylor_shift(nums, 1), nums[:-1])]


def antidifference(p: Poly, constant: RationalLike = 0) -> Poly:
    """Return q with Delta q = p and q(0) = constant.

    Delta x^m = sum_{i<m} C(m, i) x^i is triangular, so for n = deg p the
    coefficients of q follow from p's from the top down:
    (i+1) q_(i+1) = p_i - sum_{m>i+1} C(m, i) q_m. Over (n+1)! times p's
    denominator they are integers, since q - q(0) is a sum of binomial
    polynomials C(x, k+1) with coefficients over p's denominator.
    """
    c = _rational(constant)
    nums = p._dense()
    n = len(nums) - 1
    if n < 0:
        return Poly.constant(c)
    # q[m] is the numerator of the x^m coefficient over den.
    scale = factorial(n + 1)
    den = p._den * scale
    q = [0] * (n + 2)
    for i in range(n, -1, -1):
        rest = sum(comb(m, i) * q[m] for m in range(i + 2, n + 2))
        q[i + 1] = (nums[i] * scale - rest) // (i + 1)
    cden = c.denominator
    return Poly._make(0, [c.numerator * den] + [v * cden for v in q[1:]], den * cden)


@dataclass(frozen=True)
class PolyVec:
    """An element of V_d: components of degree exactly 0..d, stored ascending.

    components[j] has degree j and leading coefficient 1/j!, so components[0]
    is the constant 1. The leading coefficient is checked on the integer
    fields: numerator times j! equals the denominator.
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
            if p._num[-1] * factorial(j) != p._den:
                raise NotInVd(
                    f"component {j} has leading coefficient {p.leading}, expected 1/{j}!"
                )

    @property
    def d(self) -> int:
        return len(self.components) - 1

    @cached_property
    def _vhat_tables(self) -> tuple[int, tuple, tuple]:
        """What subdivision._image reads of the vector, built on first read
        and kept (==, hash, repr and to_json read only the components).
        v-hat is the vector in the degree-descending layout, row i being
        component d - i, as integer numerators over the lcm q of the
        component denominators, dense from x^0. Returns (q, vhat, spread):
        vhat[p][i] lists the coefficients, in m, of v-hat_i(2m + p), and
        spread[i][e][t] = C(t + e, t) v-hat_i[t + e]. Rows are unpadded:
        _image pads them with zeros to the mask's size, which commutes with
        the shift and with the 2^j scaling."""
        q = lcm(*(p._den for p in self.components))
        rows = [[n * (q // p._den) for n in p._dense()] for p in reversed(self.components)]
        # v-hat_i(2m + p): shift by p, then scale the coefficient of m^j by 2^j.
        odd = [_taylor_shift(r, 1) for r in rows]
        vhat = tuple(
            tuple(tuple(c << j for j, c in enumerate(r)) for r in block) for block in (rows, odd)
        )
        spread = tuple(
            tuple(tuple(comb(t + e, t) * x for t, x in enumerate(r[e:])) for e in range(len(r)))
            for r in rows
        )
        return q, vhat, spread

    def to_json(self) -> dict:
        return {"d": self.d, "components": [p.to_json() for p in self.components]}

    @classmethod
    def from_json(cls, obj: Mapping) -> "PolyVec":
        comps = tuple(Poly.from_json(c) for c in _json_array(obj["components"], "components"))
        pv = cls(comps)
        if pv.d != _json_field(obj, "d", int):
            raise NotInVd("declared d does not match the number of components")
        return pv

    def __str__(self) -> str:
        rows = [str(self.components[self.d - i]) for i in range(self.d + 1)]
        return "[" + "; ".join(rows) + "]"
