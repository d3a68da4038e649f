"""Tabulate spline cascade error against refinement level.

For each (r, d) pair the cascade is compared with exact B-spline
derivative samples; the printed error is the worst absolute deviation
per component.  The r = 1 column is exactly zero at every level because
the hat function is piecewise linear on the dyadic grid.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hermiteforge import check_spline_cascade
from hermiteforge.cli import _float_arg, _int_arg


def _int_list(text):
    """Comma-separated integers, each read as the CLI reads an integer flag."""
    return [_int_arg(t) for t in text.split(",")]


def _pairs(text):
    """Space-separated r,d pairs of such integers."""
    pairs = [_int_list(t) for t in text.split()]
    if any(len(p) != 2 for p in pairs):
        raise argparse.ArgumentTypeError(f"pairs must be 'r,d', got {text!r}")
    return pairs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", type=_pairs, default="1,1 2,2 3,3 4,3",
                    help="space-separated r,d pairs")
    ap.add_argument("--levels", type=_int_list, default="6,8,11",
                    help="comma-separated refinement levels")
    ap.add_argument("--tol", type=_float_arg, default=1e-6)
    args = ap.parse_args(argv)

    print(f"{'r':>3} {'d':>3} {'level':>6} {'max error':>12} {'ok':>4} {'secs':>7}")
    for r, d in args.pairs:
        for lv in args.levels:
            t0 = time.perf_counter()
            try:
                rep = check_spline_cascade(r, d, levels=lv, tol=args.tol)
            except ValueError as exc:
                ap.error(str(exc))
            dt = time.perf_counter() - t0
            worst = max(rep.errors)
            print(f"{r:>3} {d:>3} {lv:>6} {worst:>12.3e} "
                  f"{str(rep.ok):>4} {dt:>7.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
