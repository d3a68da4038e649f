"""Sweep the one-parameter operator family and tabulate the results.

For each (w21, n) pair this synthesizes the scheme with seed ((1+z)/2)^n,
reads the three derivative moments of the solved last row at z = 1,
certifies contractivity of the complete factor, and runs the empirical
convergence check.  Output is a fixed-width table, one scheme per line.
"""

import argparse
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hermiteforge import (
    LaurentPoly,
    TaylorOperator,
    check_contractive,
    check_convergence,
    synthesize,
)
from hermiteforge.cli import _int_arg
from hermiteforge.exactalg import rat_from_str


def family_operator(w21):
    return TaylorOperator(w=((Fraction(1),), (w21, Fraction(1))))


def _int_list(text):
    """Comma-separated integers, each read as the CLI reads an integer flag."""
    return [_int_arg(t) for t in text.split(",")]


def _rational(text):
    """One rational, read as the CLI reads a rational."""
    try:
        return rat_from_str(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid rational value: {text!r}") from None


def _rational_list(text):
    return [_rational(t) for t in text.split(",")]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--w21", type=_rational_list, default="0,1/4,1/2,3/4,1",
                    help="comma-separated rational values")
    ap.add_argument("--n", type=_int_list, default="1,2,3,5", help="comma-separated seed powers")
    ap.add_argument("--levels", type=_int_arg, default=8)
    ap.add_argument("--n-max", type=_int_arg, default=4)
    args = ap.parse_args(argv)

    seed_base = LaurentPoly({0: Fraction(1, 2), 1: Fraction(1, 2)})

    header = (f"{'w21':>6} {'n':>3} {'h01':>8} {'h11':>8} {'h12':>8} "
              f"{'strategy':>10} {'certificate':>11} {'tail':>6} {'residual':>10}")
    print(header)
    print("-" * len(header))
    for w21 in args.w21:
        op = family_operator(w21)
        for n in args.n:
            res = synthesize(op, seed_base**n)
            h01 = res.last_row[0].derivative_at_one(1)
            h11 = res.last_row[1].derivative_at_one(1)
            h12 = res.last_row[1].derivative_at_one(2)
            contr = check_contractive(res.factorization.factor, n_max=args.n_max)
            conv = check_convergence(res.mask, levels=args.levels, taylor=op)
            print(f"{str(w21):>6} {n:>3} {str(h01):>8} {str(h11):>8} "
                  f"{str(h12):>8} {res.strategy:>10} "
                  f"{str(contr.certified_by):>11} {conv.max_tail_ratio:>6.3f} "
                  f"{max(conv.final_residuals):>10.2e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
