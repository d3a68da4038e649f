"""Exact arithmetic over Q: Laurent polynomials, the integer kernel they and
``subdivision.Mask`` share, and the JSON helpers of rationals and reports.
It imports nothing from the rest of the package.

Everything here is exact; floats never enter. A Laurent polynomial keeps
its coefficients as integer numerators over one positive denominator, and
the integer kernel below does its arithmetic. ``polybasis.Poly`` is the
LaurentPoly subclass with no negative exponent: it inherits the canonical
form and the arithmetic. Single rationals that enter or leave are
``fractions.Fraction`` values and serialize as "p/q" strings.
"""

from __future__ import annotations

from dataclasses import fields
from fractions import Fraction
from itertools import accumulate, compress
from math import gcd, lcm
from operator import sub
from typing import Iterator, Mapping, Sequence, Union

RationalLike = Union[Fraction, int]


class ExactAlgError(Exception):
    """Base class for exact-arithmetic failures."""


class NotDivisible(ExactAlgError):
    """Raised when an exact Laurent division leaves a remainder."""


def rat_to_str(q: RationalLike) -> str:
    q = _rational(q)
    return _ratio_str(q.numerator, q.denominator)


def rat_from_str(s: str) -> Fraction:
    """Parse "p", "p/q" with q > 0, or a decimal "a.b"; ValueError for
    anything else. p, q and the digits of a follow _decimal_int's rule and b
    is ASCII digits, so "1_0/4", " 1", "+3", "1e3", ".5" and other scripts'
    digits are refused, where Fraction() would read them."""
    if not isinstance(s, str):
        raise ValueError(f"expected a rational string, got {s!r}")
    head, dot, tail = s.partition(".")
    if dot:
        digits = head.removeprefix("-")
        if digits.startswith("-") or not (tail.isascii() and tail.isdigit()):
            raise ValueError(f"a decimal must be 'a.b' in plain digits, got {s!r}")
        value = _decimal_int(digits, f"the integer part of {s!r}") + Fraction(
            int(tail), 10 ** len(tail)
        )
        return value if digits == head else -value
    num, slash, den = s.partition("/")
    p = _decimal_int(num, f"the numerator of {s!r}")
    if not slash:
        return Fraction(p)
    q = _decimal_int(den, f"the denominator of {s!r}")
    if q <= 0:
        raise ValueError(f"the denominator of {s!r} must be positive")
    return Fraction(p, q)


def _decimal_int(s: str, what: str) -> int:
    """s as an integer in plain decimal, the one rule for integers in text:
    ASCII digits after an optional "-", and str(n) == s. int() alone would
    also read "1_0", " 2", "+3", "04", "-0" and other scripts' digits."""
    if not (s.isascii() and s.removeprefix("-").isdigit() and str(int(s)) == s):
        raise ValueError(f"{what} must be an integer in plain decimal, got {s!r}")
    return int(s)


def _int_count(v: object, name: str) -> int:
    """v, an iterate or level count: anything but an int (a bool too) raises TypeError."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError(f"{name} must be an int, got {v!r}")
    return v


def _index_pair(key: object, name: str) -> tuple[int, int]:
    """key, the (row, column) index of a table entry: anything but a tuple
    of two ints (bools too, as in _int_count) raises TypeError naming the
    key, so (1.0, 0) and (True, False) are never read as (1, 0)."""
    if not (
        isinstance(key, tuple)
        and len(key) == 2
        and all(isinstance(v, int) and not isinstance(v, bool) for v in key)
    ):
        raise TypeError(f"{name} key must be a pair of ints, got {key!r}")
    return key


def _json_field(obj: Mapping, key: str, kind: type, default: object = None):
    """obj[key] (obj.get(key, default) when a default is given), which must be
    of exactly this kind, int or bool: anything else raises TypeError rather
    than being coerced, so "1", 1.0 and true are not read as the integer 1."""
    v = obj[key] if default is None else obj.get(key, default)
    if type(v) is not kind:
        name = "an integer" if kind is int else "a boolean"
        raise TypeError(f"{key!r} must be {name}, got {v!r}")
    return v


def _json_array(v: object, what: str) -> list:
    """v, which must be a JSON array: a string, an object or any other value
    raises TypeError rather than being read entry by entry, so "12" is not
    read as the array ["1", "2"]."""
    if type(v) is not list:
        raise TypeError(f"{what} must be a JSON array, got {type(v).__name__}")
    return v


def _report_json(report, **extra) -> dict:
    """A report dataclass as JSON, one key per field, plus the extra keys: a
    Fraction is written by rat_to_str, a tuple as a list and an object with
    to_json as its JSON."""

    def value(v):
        if isinstance(v, Fraction):
            return rat_to_str(v)
        if isinstance(v, tuple):
            return [value(x) for x in v]
        return v.to_json() if hasattr(v, "to_json") else v

    return {f.name: value(getattr(report, f.name)) for f in fields(report)} | extra


def falling_factorial(e: int, r: int) -> int:
    """e * (e-1) * ... * (e-r+1); valid for negative e as well."""
    out = 1
    for i in range(r):
        out *= e - i
    return out


# ---------------------------------------------------------------------------
# The integer kernel of LaurentPoly (and so of its subclass polybasis.Poly)
# and of the symbol product of subdivision.Mask.
#
# A polynomial is a tuple of integer numerators, dense from an offset, over
# one positive denominator. The helpers below work on plain int lists and
# leave stripping and reduction to the classes, which normalize once per
# operation.


def _is_rational(v: object) -> bool:
    """Whether v is an int or a Fraction and not a bool, the one rule for a
    rational argument."""
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


def _rational(v: object) -> RationalLike:
    """v if it is an int or a Fraction; a bool, a float or anything else is
    never coerced and raises TypeError."""
    if _is_rational(v):
        return v
    raise TypeError(f"expected an int or a Fraction, got {type(v).__name__}")


def _over_one_denominator(values: Sequence[RationalLike]) -> tuple[list[int], int]:
    """Numerators of the values (ints and Fractions) over the lcm of their
    denominators."""
    vals = [_rational(v) for v in values]
    den = lcm(*(v.denominator for v in vals))
    return [v.numerator * (den // v.denominator) for v in vals], den


def _reduce(nums: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    """Divide out gcd(den, nums); nums must hold a nonzero entry."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            return tuple(n // g for n in nums), den // g
    return tuple(nums), den


def _canonical(lo: int, nums: Sequence[int], den: int) -> tuple[int, tuple[int, ...], int]:
    """(lo, nums, den > 0) with the zero numerators at both ends stripped and
    the common factor divided out; the zero polynomial is (0, (), 1)."""
    i, j = 0, len(nums)
    while j > i and not nums[j - 1]:
        j -= 1
    while i < j and not nums[i]:
        i += 1
    if i == j:
        return 0, (), 1
    return (lo + i, *_reduce(nums[i:j], den))


def _add(
    alo: int, a: Sequence[int], ad: int, blo: int, b: Sequence[int], bd: int
) -> tuple[int, list[int], int]:
    """a/ad z^alo + b/bd z^blo as (lo, numerators, den), unreduced."""
    den = ad if ad == bd else lcm(ad, bd)
    fa, fb = den // ad, den // bd
    lo = min(alo, blo)
    out = [0] * (max(alo + len(a), blo + len(b)) - lo)
    i = alo - lo
    out[i : i + len(a)] = a if fa == 1 else [n * fa for n in a]
    i = blo - lo
    out[i : i + len(b)] = [o + n * fb for o, n in zip(out[i : i + len(b)], b)]
    return lo, out, den


def _mul_add(acc: list[int], a: Sequence[int], b: Sequence[int]) -> None:
    """Add the product of two integer coefficient lists to acc in place,
    acc[i + j] += a[i] * b[j], with one slice update per nonzero coefficient
    of the factor with fewer nonzeros. acc holds len(a) + len(b) - 1 entries."""
    if len(a) - a.count(0) < len(b) - b.count(0):
        a, b = b, a
    n = len(a)
    for j in compress(range(len(b)), b):
        y = b[j]
        acc[j : j + n] = [o + x * y for o, x in zip(acc[j : j + n], a)]


def _divide_by_delta(nums: Sequence[int], s: int) -> list[int]:
    """The exact quotient of sum_i nums[i] z^i by z^-s - 1 (s >= 1), as the
    len(nums) - s numerators from z^s (none if nums is no longer than s).

    From the top down q[i] = q[i + s] - nums[i], so q[i] is minus the sum of
    nums[i::s], one running sum per residue class mod s. The division is
    exact when q[0..s-1] vanish, that is when every residue class of nums
    sums to 0; otherwise NotDivisible is raised.
    """
    quot = [0] * len(nums)
    for r in range(s):
        sums = list(accumulate(nums[r::s][::-1], sub, initial=0))
        if sums[-1]:
            raise NotDivisible("Laurent division leaves a nonzero remainder")
        quot[r::s] = sums[:0:-1]
    return quot[s:]


def _scale(nums: Sequence[int], den: int, q: RationalLike) -> tuple[list[int], int]:
    """nums/den times a nonzero int or Fraction q, unreduced."""
    return [n * q.numerator for n in nums], den * q.denominator


def _horner(nums: Sequence[int], p: int, q: int) -> int:
    """q^m * sum_i nums[i] (p/q)^i for m = len(nums) - 1."""
    out = nums[-1]
    if q == 1:
        for c in reversed(nums[:-1]):
            out = out * p + c
        return out
    qk = 1
    for c in reversed(nums[:-1]):
        qk *= q
        out = out * p + c * qk
    return out


def _taylor_shift(nums: Sequence[int], a: int) -> list[int]:
    """Ascending coefficients of p(x + a) for integer p and a."""
    c = list(nums)
    m = len(c) - 1
    for i in range(m):
        for j in range(m - 1, i - 1, -1):
            c[j] += a * c[j + 1]
    return c


def _ratio_str(n: int, d: int) -> str:
    """rat_to_str(Fraction(n, d)) for d > 0, without building the Fraction."""
    if d != 1:
        g = gcd(n, d)
        n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def _display(lo: int, nums: Sequence[int], den: int, var: str) -> str:
    """sum_i nums[i]/den var^(lo+i) as text, highest power first."""
    parts: list[str] = []
    for i in range(len(nums) - 1, -1, -1):
        n = nums[i]
        if not n:
            continue
        e = lo + i
        size = _ratio_str(abs(n), den)
        if e == 0:
            body = size
        else:
            power = var if e == 1 else f"{var}^{e}"
            body = power if abs(n) == den else f"{size}*{power}"
        if not parts:
            parts.append(body if n > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if n > 0 else f"- {body}")
    return " ".join(parts) or "0"


class LaurentPoly:
    """A Laurent polynomial sum c_e z^e with rational coefficients.

    Immutable: all operations return new instances. The coefficients of
    z^lo, z^(lo+1), ... are integer numerators over one positive denominator,
    in canonical form: no zero numerator at either end and no common factor
    of the denominator and the numerators, so equal polynomials have equal
    fields. The zero polynomial is (0, (), 1).

    The arithmetic returns the type of its left operand and takes an int, a
    Fraction or an operand of exactly that type, so ``polybasis.Poly`` (the
    subclass with no negative exponent) and LaurentPoly never mix. The
    constructor's exponent keys are ints: any other type, bool included,
    raises TypeError rather than being read as one.
    """

    __slots__ = ("_lo", "_num", "_den")

    def __init__(self, coeffs: Mapping[int, RationalLike] | None = None):
        terms = dict(coeffs) if coeffs else {0: 0}
        for e in terms:
            if type(e) is not int:
                raise TypeError(f"an exponent must be an int, got {e!r}")
        lo = min(terms)
        dense = [0] * (max(terms) - lo + 1)
        for e, v in terms.items():
            dense[e - lo] = v
        self._lo, self._num, self._den = _canonical(lo, *_over_one_denominator(dense))

    @classmethod
    def _raw(cls, lo: int, nums: tuple[int, ...], den: int) -> "LaurentPoly":
        """An instance from fields already in canonical form."""
        out = object.__new__(cls)
        out._lo, out._num, out._den = lo, nums, den
        return out

    @classmethod
    def _make(cls, lo: int, nums: Sequence[int], den: int) -> "LaurentPoly":
        """An instance from numerators over den > 0, brought to canonical form."""
        return cls._raw(*_canonical(lo, nums, den))

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._raw(0, (), 1)

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._raw(0, (1,), 1)

    @classmethod
    def constant(cls, v: RationalLike) -> "LaurentPoly":
        return cls._make(0, *_over_one_denominator((v,)))

    @classmethod
    def monomial(cls, e: int, v: RationalLike = 1) -> "LaurentPoly":
        return cls._make(e, *_over_one_denominator((v,)))

    def _operand(self, other: object) -> "LaurentPoly | None":
        """other as a polynomial of this type, or None if it is not an int, a
        Fraction or a polynomial of exactly this type (a bool is none)."""
        if type(other) is type(self):
            return other
        if _is_rational(other):
            return self.constant(other)
        return None

    @property
    def support(self) -> tuple[int, ...]:
        lo = self._lo
        return tuple(lo + i for i, n in enumerate(self._num) if n)

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def lo(self) -> int:
        if not self._num:
            raise ValueError("zero polynomial has no degree bounds")
        return self._lo

    @property
    def hi(self) -> int:
        if not self._num:
            raise ValueError("zero polynomial has no degree bounds")
        return self._lo + len(self._num) - 1

    def items(self) -> Iterator[tuple[int, Fraction]]:
        lo, den = self._lo, self._den
        return iter([(lo + i, Fraction(n, den)) for i, n in enumerate(self._num) if n])

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other: object) -> bool:
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self._num == other._num and self._lo == other._lo and self._den == other._den

    def __hash__(self) -> int:
        # A constant equals its value, so it hashes as that value does.
        nums, den = self._num, self._den
        if self._lo == 0 and len(nums) <= 1:
            n = nums[0] if nums else 0
            return hash(n) if den == 1 else hash(Fraction(n, den))
        return hash((self._lo, nums, den))

    def __neg__(self) -> "LaurentPoly":
        return self._raw(self._lo, tuple(-n for n in self._num), self._den)

    def __add__(self, other: "LaurentPoly | RationalLike") -> "LaurentPoly":
        other = self._operand(other)
        if other is None:
            return NotImplemented
        if not other._num:
            return self
        if not self._num:
            return other
        return self._make(*_add(self._lo, self._num, self._den, other._lo, other._num, other._den))

    __radd__ = __add__

    def __sub__(self, other: "LaurentPoly | RationalLike") -> "LaurentPoly":
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: RationalLike) -> "LaurentPoly":
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other: "LaurentPoly | RationalLike") -> "LaurentPoly":
        if _is_rational(other):
            if not other or not self._num:
                return self.zero()
            return self._make(self._lo, *_scale(self._num, self._den, other))
        if type(other) is not type(self):
            return NotImplemented
        if not self._num or not other._num:
            return self.zero()
        # A product of canonical polynomials has nonzero ends; only the
        # common factor can need removing.
        acc = [0] * (len(self._num) + len(other._num) - 1)
        _mul_add(acc, self._num, other._num)
        return self._raw(self._lo + other._lo, *_reduce(acc, self._den * other._den))

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "LaurentPoly":
        if not _is_rational(other):
            return NotImplemented
        if other == 0:
            raise ZeroDivisionError("division of Laurent polynomial by zero")
        return self * (1 / Fraction(other))

    def __pow__(self, n: int) -> "LaurentPoly":
        """self^n for an int n >= 0 (not a bool)."""
        if _int_count(n, "n") < 0:
            raise ValueError("negative powers of Laurent polynomials are not defined here")
        out = self.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def substitute_power(self, m: int) -> "LaurentPoly":
        """Return f(z^m). m is an int (not a bool) and may be negative, not zero."""
        if _int_count(m, "m") == 0:
            raise ValueError("substitute_power requires a nonzero exponent")
        if not self._num:
            return self
        step = abs(m)
        out = [0] * ((len(self._num) - 1) * step + 1)
        out[::step] = self._num if m > 0 else self._num[::-1]
        lo = self._lo if m > 0 else self.hi
        return self._raw(lo * m, tuple(out), self._den)

    def evaluate(self, x: RationalLike) -> Fraction:
        x = _rational(x)
        nums, lo = self._num, self._lo
        if not nums:
            return Fraction(0)
        p, q = x.numerator, x.denominator
        if p == 0 and lo < 0:
            raise ZeroDivisionError("pole at 0")
        # sum_i nums[i] x^(lo+i) = x^lo * horner / q^m over den.
        top, bottom = _horner(nums, p, q), self._den * q ** (len(nums) - 1)
        if lo >= 0:
            return Fraction(top * p**lo, bottom * q**lo)
        return Fraction(top * q**-lo, bottom * p**-lo)

    def derivative_at_one(self, r: int) -> Fraction:
        """r-th derivative evaluated at z = 1, via falling factorials."""
        lo = self._lo
        total = sum(n * falling_factorial(lo + i, r) for i, n in enumerate(self._num) if n)
        return Fraction(total, self._den)

    def to_json(self) -> dict[str, str]:
        lo, den = self._lo, self._den
        return {str(lo + i): _ratio_str(n, den) for i, n in enumerate(self._num) if n}

    @classmethod
    def from_json(cls, obj: Mapping[str, str]) -> "LaurentPoly":
        if not isinstance(obj, Mapping):
            raise TypeError(f"a polynomial must be a JSON object, got {type(obj).__name__}")
        return cls({_decimal_int(e, "an exponent key"): rat_from_str(v) for e, v in obj.items()})

    def __str__(self) -> str:
        return _display(self._lo, self._num, self._den, "z")

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self.items())!r})"

