#!/usr/bin/env python3
"""Time the single-operation rows of ROADMAP item 1's baseline table.

    python3 perfbench/roadmap_rows.py

Run from the root of a checkout. Each row is timed twice with the
benchmark's speed scaling (run.SpeedScale) and the faster time is printed,
in seconds at the reference speed, one JSON object a row. BASELINE.md compares these rows with the table in the ROADMAP.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import run


def main() -> int:
    hf = run.load_program()
    scale = run.SpeedScale()
    half = hf.LaurentPoly({0: Fraction(1, 2), 1: Fraction(1, 2)})
    ref = hf.synthesize(hf.delta_operator(2), half, {(1, 0): hf.LaurentPoly({0: Fraction(1)})})
    rows = []

    def row(name, fn, timings=2):
        best = None
        for _ in range(timings):
            with scale.timed() as timing:
                fn()
            seconds = timing.seconds
            best = seconds if best is None else min(best, seconds)
        rows.append({"row": name, "seconds": best})
        print(json.dumps(rows[-1]), flush=True)

    for levels in (8, 10, 12):
        row(f"float cascade, reference d=2 scheme, levels {levels}",
            lambda: hf.cascade(ref.mask, levels))
    for levels in (6, 8):
        row(f"exact cascade, reference d=2 scheme, levels {levels}",
            lambda: hf.cascade(ref.mask, levels, exact=True))
    for r, d in ((1, 1), (2, 2), (3, 3), (4, 3)):
        row(f"check_spline_cascade ({r},{d}), levels 11",
            lambda: hf.check_spline_cascade(r, d, 11), timings=1)
    row("scheme_norm of the reference factor, n = 8", lambda: hf.scheme_norm(ref.factor, 8))
    for d in (6, 8, 10):
        op = hf.classical_operator(d)
        mask = hf.synthesize(op, half).mask
        chain = hf.chain_for(op)
        row(f"taylor_factorize, classical operator, d = {d}",
            lambda: hf.taylor_factorize(mask, chain), timings=1)

    env = dict(os.environ, PYTHONPATH=os.path.join(run.ROOT, "src"))
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        def cli(*argv):
            subprocess.run([sys.executable, "-m", "hermiteforge.cli", *argv],
                           cwd=tmp, env=env, check=False, capture_output=True)

        def split_bundle():
            with open(os.path.join(tmp, "bundle.json"), encoding="utf-8") as fh:
                bundle = json.load(fh)["bundle"]
            for key, name in (("A", "mask.json"), ("B", "factor.json")):
                with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                    json.dump(bundle[key], fh)

        steps = [
            ("construct", "--taylor", "delta:d=2", "--hdd", "(z+1)/2", "--g", "1,0:1",
             "--out", "bundle.json"),
            ("factor", "--mask", "mask.json", "--chain", "delta:d=2"),
            ("contractivity", "--mask", "factor.json", "--n-max", "4"),
            ("check-convergence", "--mask", "mask.json", "--levels", "8", "--taylor", "delta:d=2"),
            ("cascade", "--mask", "mask.json", "--levels", "6", "--format", "csv", "--out", "grid.csv"),
            ("spline", "--r", "4", "--d", "3", "--verify"),
            ("identity-tests",),
        ]

        def pipeline():
            cli(*steps[0])
            split_bundle()
            for argv in steps[1:]:
                cli(*argv)

        row("README CLI pipeline, 7 subprocesses", pipeline, timings=1)
        row("CLI identity-tests, 1 subprocess", lambda: cli("identity-tests"), timings=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
