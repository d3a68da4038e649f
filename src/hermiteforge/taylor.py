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
One integer table W = D w, D the lcm of the weight denominators, builds
both the complete symbol and its inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, wraps
from math import factorial, lcm
from typing import Callable, Iterator, Mapping

from .exactalg import (
    LaurentPoly,
    RationalLike,
    _index_pair,
    _json_array,
    _json_field,
    _rational,
    _taylor_shift,
    rat_from_str,
    rat_to_str,
)
from .polybasis import Poly, PolyVec, _difference, antidifference
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
    T-tilde*(z^2), the incomplete T*(z), the integer weight table, the
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

    @property
    def is_difference_type(self) -> bool:
        """True when every strict-upper weight vanishes, so each row is a
        plain iterated forward difference."""
        return all(v == 0 for row in self.w for v in row[:-1])

    @cached_property
    def _int_weights(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(D, W): D the lcm of the weight denominators and W = D w, the one
        integer table the symbol and its inverse are built from."""
        den = lcm(*(v.denominator for row in self.w for v in row))
        return den, tuple(tuple(v.numerator * (den // v.denominator) for v in row) for row in self.w)

    @cached_property
    def symbol(self) -> Mask:
        """T-tilde*(z), the (d+1)x(d+1) complete symbol as a mask on
        alpha = -1, 0 over D: u = z^-1 - 1 ([D, -D]) on the diagonal and
        -w_{k,i+1} ([0, -W[k-1][i]]) at (i, k) above it."""
        den, big = self._int_weights
        size = self.d + 1
        entries = [
            [[den, -den] if k == i else [0, -big[k - 1][i]] if k > i else [0, 0] for k in range(size)]
            for i in range(size)
        ]
        return Mask._raw(-1, entries, den)

    @cached_property
    def incomplete_symbol(self) -> Mask:
        """T*(z), the incomplete symbol: 1 in place of u in the last diagonal
        entry, whose numerators at alpha = -1, 0 become 0 and den."""
        sym = self.symbol
        entries = [list(row) for row in sym._num]
        entries[self.d][self.d] = (0, sym._den)
        return Mask._raw(-1, entries, sym._den)

    @cached_property
    def symbol_z2(self) -> Mask:
        """T*(z^2), the symbol's mask at z^2."""
        return self.symbol.substitute_power(2)

    def _inverse_in_u(self) -> Iterator[tuple[int, int, list[int]]]:
        """Yield (j, l, q[j][l]) for each nonzero q[j][l] = D^(l-j) p[j][l],
        p = symbol_inverse: integer coefficients ascending in powers of
        u = z^-1 - 1.

        T T^-1 = I gives p by back substitution, one column at a time, with
        the constant t[j][m] = -w_{m,j+1}: p[l][l] = 1 and
        p[j][l] = sum_{j<m<=l} w_{m,j+1} p[m][l] u^(m-j-1). With W = D w:
        q[j][l] = sum_{j<m<=l} W[m-1][j] D^(m-j-1) u^(m-j-1) q[m][l].
        """
        d = self.d
        den, big = self._int_weights
        dpow = [den**e for e in range(d + 1)]
        for l in range(d + 1):
            yield l, l, [1]
            # q[m] is q[m][l].
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
                    yield j, l, acc

    @cached_property
    def symbol_inverse(self) -> tuple[tuple[LaurentPoly, ...], ...]:
        """The numerators p of the complete symbol's inverse: entry (j, l) of
        T-tilde*(z)^-1 is p[j][l] / u^(l-j+1), u = z^-1 - 1. Each nonzero
        q[j][l] of _inverse_in_u is expanded once into powers of z^-1 by the
        Taylor shift u = z^-1 - 1 and becomes one LaurentPoly over D^(l-j)."""
        den, size = self._int_weights[0], self.d + 1
        p = [[LaurentPoly.zero()] * size for _ in range(size)]
        for j, l, q in self._inverse_in_u():
            # nums[s] is the coefficient of z^-s.
            nums = _taylor_shift(q, -1)
            p[j][l] = LaurentPoly._make(1 - len(nums), nums[::-1], den ** (l - j))
        return tuple(map(tuple, p))

    @cached_property
    def inverse_numerators(self) -> Mask:
        """W, entry (j, l) being u^j p[j][l] for p = symbol_inverse, so that
        T-tilde*(z)^-1 = W diag(u^-(l+1)) and symbol * W = diag(u^(l+1)):
        unfactor applies the inverse as one mask product with W. Entry (j, l)
        is one Taylor shift of u^j q[j][l], over D^d on alpha = -d, ..., 0."""
        d, den = self.d, self._int_weights[0]
        entries = [[[0] * (d + 1) for _ in range(d + 1)] for _ in range(d + 1)]
        for j, l, q in self._inverse_in_u():
            # nums[s] is the coefficient of z^-s, at alpha = -s.
            nums, f = _taylor_shift([0] * j + q, -1), den ** (d - l + j)
            entries[j][l][d + 1 - len(nums) :] = [f * n for n in reversed(nums)]
        return Mask._raw(-d, entries, den**d)

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
    weights, one column position at a time. It runs on integer numerators:
    over the lcm D of the component denominators v_t has numerators n_t, led
    by n_t[t] = D / t!. What is left of Delta v_m is r / s, s starting at D;
    taking lambda_t v_t off it, lambda_t = t! r[t] / s, leaves
    (n_t[t] r - r[t] n_t) / (s n_t[t]), whose entry t vanishes, so nothing is
    left once t = 0 is taken off. Only the weights are Fractions.
    """
    d = v.d
    comps = v.components
    den = lcm(*(p._den for p in comps))
    nums = [[n * (den // p._den) for n in p._dense()] for p in comps]
    w = [[Fraction(0)] * j for j in range(1, d + 1)]
    for m in range(1, d + 1):
        r, s = _difference(nums[m]), den
        for t in range(m - 1, -1, -1):
            c = r.pop()
            if c:
                nt = nums[t]
                # Delta v_m = sum_t lambda_t v_t translates to w_{d-t, d-m+1}.
                w[d - t - 1][d - m] = Fraction(factorial(t) * c, s)
                r = [nt[t] * a - c * b for a, b in zip(r, nt)]
                s *= nt[t]
    return TaylorOperator(tuple(map(tuple, w)))


@dataclass(frozen=True)
class Chain:
    """A compatible tower v_0, ..., v_d with v_j in V_j.

    Compatibility means each annihilator nests into the next: the operator
    killing v_{j+1} restricts, on its leading block, to the one killing v_j.
    The constructor checks it, and keeps the top annihilator as operator():
    an empty or incompatible tower raises NotAChain. A tower whose nesting
    is proven where it is built (the recovered spectral chain) is made by
    _nested, which checks nothing.
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

    @classmethod
    def _nested(cls, vecs: tuple[PolyVec, ...], op: TaylorOperator) -> "Chain":
        """The chain of vecs, whose annihilators are known to nest with op
        on top: set as given, with no annihilator derived."""
        chain = object.__new__(cls)
        object.__setattr__(chain, "vecs", vecs)
        object.__setattr__(chain, "_operator", op)
        return chain

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
    A key that is not a pair of ints (bools too) raises TypeError, one
    outside 1 <= k <= j <= d ValueError, and a value that is not an int
    or a Fraction TypeError.

    With no constants (None or an empty mapping) an operator returns its own
    chain, built and validated on the first call and the same object after
    it. Constants build and validate a new chain on every call.
    """
    if not constants:
        return op._chain
    consts = {}
    for key, v in constants.items():
        j, k = _index_pair(key, "a constant")
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
