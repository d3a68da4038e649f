"""Run the vector cascade for a scheme and dump the refined data.

Writes one CSV per level (x, f0, ..., fd) and, when matplotlib is
importable, a PNG with one panel per component.  Without matplotlib the
CSVs are still written and a note is printed, so the script stays usable
on machines that only have the exact-arithmetic stack.

Example:

    python3 scripts/render_limits.py --d 2 --g "1,0:1" --levels 6 \
        --window -4 4 --out-dir out/
"""

import argparse
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hermiteforge import cascade, delta_operator, synthesize
from hermiteforge.cli import MalformedInput, _int_arg, _parse_indexed, parse_laurent


def build_scheme(args):
    g = _parse_indexed("--g", args.g, "POLY", parse_laurent)
    seed = parse_laurent(args.seed)
    return synthesize(delta_operator(args.d), seed, g or None)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--d", type=_int_arg, default=2, help="derivative order of the scheme")
    ap.add_argument("--seed", default="(1+z)/2")
    ap.add_argument("--g", action="append", default=[], metavar="J,K:POLY",
                    help="free lower-triangle entry, e.g. '1,0:1'")
    ap.add_argument("--levels", type=_int_arg, default=6)
    ap.add_argument("--window", type=_int_arg, nargs=2, default=(-4, 4))
    ap.add_argument("--out-dir", default="out")
    ap.add_argument("--plot", default=None, metavar="PNG",
                    help="write a per-component plot (needs matplotlib)")
    args = ap.parse_args(argv)

    try:
        res = build_scheme(args)
        grids = cascade(res.mask, args.levels, window=tuple(args.window))
    except (MalformedInput, ValueError) as exc:
        ap.error(str(exc))

    os.makedirs(args.out_dir, exist_ok=True)
    for g in grids:
        path = os.path.join(args.out_dir, f"level{g.level:02d}.csv")
        with open(path, "w") as fh:
            fh.write(g.to_csv())
        print(f"wrote {path} ({g.npoints} points)")

    if args.plot is None:
        return 0
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping the plot "
              "(CSV output above is complete)")
        return 0

    last = grids[-1]
    xs = [last.x(i) for i in range(last.npoints)]
    fig, axes = plt.subplots(args.d + 1, 1, figsize=(7, 2.2 * (args.d + 1)),
                             sharex=True)
    if args.d == 0:
        axes = [axes]
    for k, ax in enumerate(axes):
        ys = [float(Fraction(v[k])) for v in last.values]
        ax.plot(xs, ys, lw=1.0)
        ax.set_ylabel(f"f{k}")
    axes[-1].set_xlabel("x")
    fig.suptitle(f"cascade level {last.level}")
    fig.tight_layout()
    fig.savefig(args.plot, dpi=150)
    print(f"wrote {args.plot}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
