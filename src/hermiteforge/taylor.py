"""Generalized Taylor difference operators and their polynomial chains.

An operator of size d+1 is determined by weight vectors w_1, ..., w_d where
w_j = (w_{j,1}, ..., w_{j,j}) and w_{j,j} = 1. Acting on a column of
sequences (degree-descending Hermite layout, function value on top), row i
of the complete operator is

    (T c)_i = Delta c_i - sum_{k>i} w_{k,i+1} c_k ,

and the incomplete operator replaces the last row by the identity; one
TaylorOperator carries both symbols. The classical choice w_{k,m} =
1/(k-m+1)! recovers the usual Taylor remainder differences; the pure-difference
choice w_j = (0,...,0,1) makes every row an iterated forward difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, wraps
from math import factorial, lcm
from typing import Callable, Mapping

from .exactalg import (
    LaurentPoly,
    RationalLike,
    _json_array,
    _json_field,
    _rational,
    _taylor_shift,
    delta_symbol,
    rat_from_str,
    rat_to_str,
)
from .polybasis import NotInVd, Poly, PolyVec, antidifference
from .subdivision import Mask


class InvalidOperator(ValueError):
    """Raised for weight tables violating the w_{j,j} = 1 shape."""


class NotAChain(ValueError):
    """Raised when a purported chain fails compatibility between levels."""


@dataclass(frozen=True)
class TaylorOperator:
    """The weight table, which is the whole operator.

    w[j-1] holds (w_{j,1}, ..., w_{j,j}); the table for size d+1 has d rows.
    The data derived from the weights (the complete symbol T-tilde*(z) and
    T-tilde*(z^2), the incomplete T*(z), the powers of u = z^-1 - 1, the
    triangular inverse, its numerators as one mask and the canonical chain)
    is built on first read and kept on the instance; fields, ==, hash and
    repr ignore it.
    """

    w: tuple[tuple[Fraction, ...], ...]
    # A constant, not a field: the JSON form writes "complete": true, and the
    # bench keys operators on (w, complete).
    complete = True

    def __post_init__(self):
        # A Fraction weight is kept as given; an int becomes one.
        rows = tuple(
            tuple(v if isinstance(v, Fraction) else Fraction(_rational(v)) for v in row)
            for row in self.w
        )
        object.__setattr__(self, "w", rows)
        for j, row in enumerate(rows, start=1):
            if len(row) != j:
                raise InvalidOperator(f"w_{j} must have length {j}, got {len(row)}")
            if row[-1] != 1:
                raise InvalidOperator(f"w_{j},{j} must equal 1, got {row[-1]}")

    @property
    def d(self) -> int:
        return len(self.w)

    def constant_entry(self, i: int, k: int) -> Fraction:
        """Matrix entry (i, k) above the diagonal: -w_{k,i+1} (0-based)."""
        if not 0 <= i < k <= self.d:
            raise IndexError("constant entries live strictly above the diagonal")
        return -self.w[k - 1][i]

    @property
    def is_difference_type(self) -> bool:
        """True when every strict-upper weight vanishes, so each row is a
        plain iterated forward difference."""
        return all(v == 0 for row in self.w for v in row[:-1])

    def symbol(self) -> Mask:
        """The (d+1)x(d+1) complete symbol as a mask on alpha = -1, 0:
        u = z^-1 - 1 on the diagonal, constants above."""
        return self._symbol

    @cached_property
    def _symbol(self) -> Mask:
        size = self.d + 1
        at_minus_one = [[0] * size for _ in range(size)]
        at_zero = [
            [self.constant_entry(i, k) if k > i else 0 for k in range(size)] for i in range(size)
        ]
        for i in range(size):
            at_minus_one[i][i], at_zero[i][i] = 1, -1
        return Mask(-1, (at_minus_one, at_zero))

    @cached_property
    def incomplete_symbol(self) -> Mask:
        """T*(z), the incomplete symbol: 1 in place of u in the last diagonal
        entry, whose numerators at alpha = -1, 0 become 0 and den."""
        sym = self._symbol
        entries = [list(row) for row in sym._num]
        entries[self.d][self.d] = (0, sym._den)
        return Mask._raw(-1, entries, sym._den)

    @cached_property
    def symbol_z2(self) -> Mask:
        """T*(z^2), the symbol's mask at z^2."""
        return self._symbol.substitute_power(2)

    @cached_property
    def u_powers(self) -> tuple[LaurentPoly, ...]:
        """u^0, ..., u^(d+1) for u = z^-1 - 1: the powers unfactor divides
        by, inverse_numerators multiplies by, and construct's last-row
        system reads."""
        u = delta_symbol(1)
        upow = [LaurentPoly.one()]
        for _ in range(self.d + 1):
            upow.append(upow[-1] * u)
        return tuple(upow)

    @cached_property
    def symbol_inverse(self) -> tuple[tuple[LaurentPoly, ...], ...]:
        """The numerators p of the complete symbol's inverse: entry (j, l) of
        T-tilde*(z)^-1 is p[j][l] / u^(l-j+1), u = z^-1 - 1. They are the
        one inversion of the symbol; inverse_numerators reads them.

        T T^-1 = I gives them by back substitution, one column at a time,
        with the constant t[j][m] = -w_{m,j+1}: p[l][l] = 1 and
        p[j][l] = sum_{j<m<=l} w_{m,j+1} p[m][l] u^(m-j-1).

        The substitution runs on integers in powers of u. With D the lcm of
        the weight denominators and W = D w, q[j][l] = D^(l-j) p[j][l] has
        integer coefficients in u:
        q[j][l] = sum_{j<m<=l} W[m-1][j] D^(m-j-1) q[m][l] u^(m-j-1).
        Each nonzero q[j][l] is expanded once into powers of z^-1 by the
        Taylor shift u = z^-1 - 1 and becomes one LaurentPoly over D^(l-j).
        """
        d = self.d
        den = lcm(*(v.denominator for row in self.w for v in row))
        big = [[v.numerator * (den // v.denominator) for v in row] for row in self.w]
        dpow = [den**e for e in range(d + 1)]
        zero, one = LaurentPoly.zero(), LaurentPoly.one()
        p = [[zero] * (d + 1) for _ in range(d + 1)]
        for l in range(d + 1):
            p[l][l] = one
            # q[m] is q[m][l], ascending in powers of u.
            q: list[list[int]] = [[] for _ in range(l)] + [[1]]
            for j in range(l - 1, -1, -1):
                acc = [0] * (l - j)
                for m in range(j + 1, l + 1):
                    qm, s = q[m], m - j - 1
                    if big[m - 1][j] and qm:
                        c = big[m - 1][j] * dpow[s]
                        acc[s : s + len(qm)] = [a + c * v for a, v in zip(acc[s : s + len(qm)], qm)]
                while acc and not acc[-1]:
                    acc.pop()
                q[j] = acc
                if acc:
                    # nums[s] is the coefficient of z^-s.
                    nums = _taylor_shift(acc, -1)
                    p[j][l] = LaurentPoly._make(1 - len(nums), nums[::-1], dpow[l - j])
        return tuple(tuple(row) for row in p)

    @cached_property
    def inverse_numerators(self) -> Mask:
        """W, entry (j, l) being u^j p[j][l] for p = symbol_inverse, so that
        T-tilde*(z)^-1 = W diag(u^-(l+1)) and symbol() * W = diag(u^(l+1)):
        unfactor applies the inverse as one mask product with W."""
        upow = self.u_powers
        inv = self.symbol_inverse
        return Mask.from_symbol([[upow[j] * p for p in row] for j, row in enumerate(inv)])

    @cached_property
    def _chain(self) -> "Chain":
        """The canonical chain, every free constant 0; see chain_for."""
        return _build_chain(self, {})

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "complete": self.complete,
            "w": [[rat_to_str(v) for v in row] for row in self.w],
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "TaylorOperator":
        w = tuple(
            tuple(rat_from_str(v) for v in _json_array(row, "a row of w"))
            for row in _json_array(obj["w"], "w")
        )
        # "complete" must be a JSON boolean; either value names these weights.
        _json_field(obj, "complete", bool, True)
        op = cls(w)
        if op.d != _json_field(obj, "d", int):
            raise InvalidOperator("declared d does not match the weight table")
        return op


def _preset(make: Callable[[int], TaylorOperator]) -> Callable[[int], TaylorOperator]:
    """Share one operator per d, so its derived data is built once per
    process. d must be an int (not a bool) and at least 0, checked before
    the shared instance is looked up."""
    shared = cache(make)

    @wraps(make)
    def preset(d: int) -> TaylorOperator:
        if isinstance(d, bool) or not isinstance(d, int):
            raise TypeError(f"operator presets need an integer d, got {d!r}")
        if d < 0:
            raise InvalidOperator(f"operator presets need d >= 0, got d={d}")
        return shared(d)

    return preset


@_preset
def delta_operator(d: int) -> TaylorOperator:
    """All strict-upper weights zero: rows are iterated forward differences.
    One shared instance per d."""
    return TaylorOperator(tuple(tuple(Fraction(int(m == j)) for m in range(1, j + 1)) for j in range(1, d + 1)))


@_preset
def classical_operator(d: int) -> TaylorOperator:
    """w_{k,m} = 1/(k-m+1)!, the Taylor-remainder weights. One shared
    instance per d."""
    return TaylorOperator(
        tuple(tuple(Fraction(1, factorial(j - m + 1)) for m in range(1, j + 1)) for j in range(1, d + 1))
    )


@_preset
def allones_operator(d: int) -> TaylorOperator:
    """Every weight 1; annihilates the difference vectors of spline schemes.
    One shared instance per d."""
    return TaylorOperator(tuple(tuple(Fraction(1) for _ in range(j)) for j in range(1, d + 1)))


def annihilator(v: PolyVec) -> TaylorOperator:
    """The unique operator of size d+1 whose complete symbol annihilates v's rows.

    Row i of the result must kill the degree-(d-i) component: expanding each
    forward difference Delta v_m in the basis {v_0, ..., v_{m-1}} yields the
    weights, one column position at a time.
    """
    d = v.d
    w: list[list[Fraction]] = [[Fraction(0)] * j for j in range(1, d + 1)]
    for m in range(1, d + 1):
        q = v.components[m].forward_difference()
        for t in range(m - 1, -1, -1):
            lam = q.coeff(t) * factorial(t)
            if lam:
                q = q - v.components[t] * lam
            # Delta v_m = sum_t lambda_t v_t translates to w_{d-t, d-m+1}.
            w[d - t - 1][d - m] = lam
        if q:
            raise NotInVd("difference expansion left a nonzero remainder")
    return TaylorOperator(tuple(tuple(row) for row in w))


@dataclass(frozen=True)
class Chain:
    """A compatible tower v_0, ..., v_d with v_j in V_j.

    Compatibility means each annihilator nests into the next: the operator
    killing v_{j+1} restricts, on its leading block, to the one killing v_j.
    The constructor checks it, and keeps the top annihilator as operator():
    an empty or incompatible tower raises NotAChain.
    """

    vecs: tuple[PolyVec, ...]

    def __post_init__(self):
        object.__setattr__(self, "vecs", tuple(self.vecs))
        if not self.vecs:
            raise NotAChain("a chain holds at least the vector v_0")
        for j, v in enumerate(self.vecs):
            if v.d != j:
                raise NotAChain(f"vector {j} lives in V_{v.d}, expected V_{j}")
        anns = [annihilator(v) for v in self.vecs]
        for j in range(self.d):
            if anns[j].w != anns[j + 1].w[:j]:
                raise NotAChain(f"annihilator of level {j} does not nest into level {j + 1}")
        # Kept outside the fields, so ==, hash and repr ignore it.
        object.__setattr__(self, "_operator", anns[-1])

    @property
    def d(self) -> int:
        return len(self.vecs) - 1

    @property
    def last(self) -> PolyVec:
        return self.vecs[-1]

    def operator(self) -> TaylorOperator:
        """The operator annihilating the top vector; a chain from
        chain_for returns the operator it was built from."""
        return self._operator

    def to_json(self) -> dict:
        return {"d": self.d, "vecs": [v.to_json() for v in self.vecs]}

    @classmethod
    def from_json(cls, obj: Mapping) -> "Chain":
        """The chain in obj, checked by the constructor after its declared d."""
        vecs = tuple(PolyVec.from_json(v) for v in _json_array(obj["vecs"], "vecs"))
        if vecs and len(vecs) - 1 != _json_field(obj, "d", int):
            raise NotAChain("declared d does not match the number of vectors")
        return cls(vecs)


def chain_for(
    op: TaylorOperator, constants: Mapping[tuple[int, int], RationalLike] | None = None
) -> Chain:
    """Build the canonical chain of an operator by exact antidifferencing.

    Level j is grown one degree at a time: the difference of the degree-k
    component is prescribed by the weights, and its antidifference is fixed
    by the free constant constants[(j, k)] (default 0) as the value at 0.
    A key outside 1 <= k <= j <= d raises ValueError and a value that is
    not an int or a Fraction TypeError.

    With no constants (None or an empty mapping) an operator returns its own
    chain, built and validated on the first call and the same object after
    it. Constants build and validate a new chain on every call.
    """
    if not constants:
        return op._chain
    consts = {}
    for (j, k), v in (constants or {}).items():
        if not 1 <= k <= j <= op.d:
            raise ValueError(f"constant ({j},{k}) is outside 1 <= k <= j <= {op.d}")
        consts[(j, k)] = _rational(v)
    return _build_chain(op, consts)


def _build_chain(op: TaylorOperator, consts: Mapping[tuple[int, int], Fraction]) -> Chain:
    """The chain of op with the given free constants; it must be op's own."""
    vecs = []
    for j in range(op.d + 1):
        comps: list[Poly] = [Poly.one()]
        for k in range(1, j + 1):
            rhs = Poly.zero()
            for l in range(k):
                wv = op.w[j - l - 1][j - k]
                if wv:
                    rhs = rhs + comps[l] * wv
            comps.append(antidifference(rhs, consts.get((j, k), 0)))
        vecs.append(PolyVec(tuple(comps)))
    chain = Chain(tuple(vecs))
    if chain.operator() != op:
        raise NotAChain("chain does not belong to the supplied operator")
    # Share op's own instance, so its derived data is built once.
    object.__setattr__(chain, "_operator", op)
    return chain
