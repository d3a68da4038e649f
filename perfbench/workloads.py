"""The four seeded workloads: input generators, item runners, output checks.

A workload is a sequence of rounds. Every round has the same composition (a
fixed template of item slots, each with its operator preset and seed power)
and the seed only draws the random weight triangles (and the identity-tests
seeds) and the order. A run always ends on a round boundary, so every run
measures the same mix of cheap and expensive items and the run-to-run spread
comes from the program, not from the draw. Round r is generated from `Random(f"{seed}:{workload}:{r}")` after
rounds 0..r-1, and rounds are cached, so a second pass over the same rounds
(the traced pass) sees identical inputs.

Every item returns a dict of outputs; `check` raises `CheckFailed` when the
outputs are wrong and `canonical` gives the bytes that enter the digest.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction
from math import comb


class CheckFailed(Exception):
    """An item's output did not pass its check."""


PRESETS = ("delta", "classical", "allones")


def _dumps(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _seed_coeffs(n: int) -> list[Fraction]:
    """Coefficients of the corner seed ((1+z)/2)^n."""
    return [Fraction(comb(n, k), 2**n) for k in range(n + 1)]


def _random_weights(rng: random.Random, d: int) -> list[list[Fraction]]:
    return [
        [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(j - 1)] + [Fraction(1)]
        for j in range(1, d + 1)
    ]


class Workload:
    """Base class: round caching and the shared item bookkeeping."""

    name = ""
    why = ""
    # Whether a round's items run in a seeded random order.
    SHUFFLE = True

    def __init__(self, hf, seed: int, workdir: str, small: bool = False):
        self.hf = hf
        self.seed = seed
        self.workdir = workdir
        self.small = small
        self._rounds: list[list[dict]] = []

    def round(self, r: int) -> list[dict]:
        while len(self._rounds) <= r:
            k = len(self._rounds)
            rng = random.Random(f"{self.seed}:{self.name}:{k}")
            items = self.make_round(rng, k)
            if self.SHUFFLE:
                rng.shuffle(items)
            self._rounds.append(items)
        return self._rounds[r]

    def prepare_round(self, r: int) -> None:
        """Per-round input files; outside the timed region."""

    def input_record(self, rounds: int) -> dict:
        """What the report records about the first `rounds` rounds' inputs."""
        return {"items": sum(len(self.round(r)) for r in range(rounds))}

    # Subclasses define make_round, warm_up, run, check and canonical.

    def _operator(self, spec: dict):
        hf = self.hf
        if spec["op"] == "random":
            return hf.TaylorOperator(tuple(tuple(row) for row in spec["w"]))
        return {
            "delta": hf.delta_operator,
            "classical": hf.classical_operator,
            "allones": hf.allones_operator,
        }[spec["op"]](spec["d"])

    def _seed_poly(self, n: int):
        return self.hf.LaurentPoly(dict(enumerate(_seed_coeffs(n))))

    @staticmethod
    def _scheme_spec(rng: random.Random, d: int, op: str, n: int, seen: set) -> dict:
        """An operator (a preset name or "random") and the seed power n.
        Random triangles are drawn until their weights differ from every
        triangle in `seen`."""
        spec = {"op": op, "d": d, "n": n}
        if op == "random":
            for _ in range(1000):
                w = _random_weights(rng, d)
                key = tuple(tuple(row) for row in w)
                if key not in seen or d == 1:
                    break
            seen.add(key)
            spec["w"] = w
        return spec


def _spec_key(spec: dict):
    """Operator identity by value: every d = 1 operator is the same one."""
    d = spec["d"]
    if spec["op"] == "random":
        return tuple(tuple(row) for row in spec["w"])
    return (spec["op"], d) if d > 1 else "d=1"


# ---------------------------------------------------------------------------
# certify


class Certify(Workload):
    name = "certify"
    why = (
        "exact proof path (synthesize, factor, spectral chain, contraction norms), almost "
        "no cascade; preset operators recur, random triangles never do"
    )
    # (d, operator) slots: d from 1 to 5, skewed small; only the random
    # triangles and the order change with the seed. d = 6..8 items take
    # 2-5 s each: one of them would carry a third of a run and its noise.
    SCHEME_SLOTS = (
        [(1, op) for op in ("delta", "classical", "allones", "random")] * 4
        + [(2, op) for op in ("delta", "classical", "allones", "random", "random")] * 2
        + [(3, op) for op in ("delta", "classical", "allones", "random", "random", "random")]
        + [(4, op) for op in ("delta", "classical", "allones", "random")]
        + [(5, "allones"), (5, "random")]
    )
    SPLINE_SLOTS = [(r, d) for r in range(1, 5) for d in range(r + 1)]
    SMALL_SCHEME_SLOTS = [(1, "delta"), (1, "random"), (2, "classical"), (2, "random")]
    SMALL_SPLINE_SLOTS = [(2, 1), (2, 2)]
    N_MAX = 4

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._seen: set = set()

    def make_round(self, rng, r):
        schemes = self.SMALL_SCHEME_SLOTS if self.small else self.SCHEME_SLOTS
        splines = self.SMALL_SPLINE_SLOTS if self.small else self.SPLINE_SLOTS
        items = []
        for i, (d, op) in enumerate(schemes):
            spec = self._scheme_spec(rng, d, op, 1 + i % 3, self._seen)
            items.append(
                {
                    "kind": "scheme",
                    "spec": spec,
                    "op": self._operator(spec),
                    "seed": self._seed_poly(spec["n"]),
                    # Synthesized factors carry a diagonal certificate at n = 1.
                    "expected_exit": 0,
                }
            )
        for r_, d in splines:
            # The spline factor certifies at n = d + 1 <= 4 when d < r and
            # never when d = r.
            items.append({"kind": "spline", "r": r_, "d": d, "expected_exit": 0 if d < r_ else 1})
        return items

    def input_record(self, rounds):
        """Adds the measured share of scheme items whose operator came
        earlier in the run."""
        record = super().input_record(rounds)
        keys = [
            _spec_key(it["spec"]) for r in range(rounds) for it in self.round(r) if it["kind"] == "scheme"
        ]
        seen, repeats = set(), 0
        for k in keys:
            repeats += k in seen
            seen.add(k)
        record["operator_repeat_share"] = repeats / len(keys) if keys else 0.0
        return record

    def warm_up(self):
        self.run({"kind": "scheme", "op": self.hf.delta_operator(1), "seed": self._seed_poly(1)})
        self.run({"kind": "spline", "r": 1, "d": 0})

    def run(self, item):
        hf = self.hf
        if item["kind"] == "spline":
            report, fac = hf.spline_verify(item["r"], item["d"])
            contr = hf.check_contractive(fac.factor, self.N_MAX)
            return {"report": report, "fac": fac, "contr": contr}
        op = item["op"]
        res = hf.synthesize(op, item["seed"])
        fac = hf.taylor_factorize(res.mask, hf.chain_for(op))
        chain = hf.spectral_chain_from_factorization(
            res.mask, hf.incomplete_from_complete(fac.factor), op
        )
        spectral = hf.verify_spectral_chain(res.mask, chain)
        contr = hf.check_contractive(fac.factor, self.N_MAX)
        return {"mask": res.mask, "fac": fac, "chain": chain, "spectral": spectral, "contr": contr}

    def check(self, item, out):
        hf = self.hf
        fac = out["fac"]
        if item["kind"] == "spline":
            mask = hf.spline_mask(item["r"], item["d"])
        else:
            mask = out["mask"]
        _require(fac.verify(), "Factorization.verify() failed")
        back = hf.unfactor(fac.taylor, fac.factor, fac.scale)
        _require(back.to_json() == mask.to_json(), "unfactor does not reproduce the mask")
        if item["kind"] == "spline":
            _require(out["report"].ok, "spline_verify reported a failure")
        else:
            _require(out["spectral"].ok, "recovered chain fails verify_spectral_chain")
        # The exit code `hermite-forge contractivity` derives from this report.
        exit_code = 0 if out["contr"].contractive else 1
        _require(exit_code == item["expected_exit"], f"contractivity exit {exit_code}")

    def canonical(self, item, out):
        body = {
            "B": out["fac"].factor.to_json(),
            "contractivity": out["contr"].to_json(),
        }
        if item["kind"] == "spline":
            body["report"] = out["report"].to_json()
        else:
            body["A"] = out["mask"].to_json()
            body["chain"] = out["chain"].to_json()
        return _dumps(body)


# ---------------------------------------------------------------------------
# render and render_exact share the mask pool built in setup


class _MaskPool(Workload):
    """Masks built in setup: for each d, one per operator below, with seed
    power n = 1, 2, 3. Random triangles at d >= 3 give masks with entries up
    to ~10^3 whose float cascade drifts from the exact one by 1e-7..1e-4
    (relative) within 4-6 levels, so render_exact's comparison cannot hold
    for them; they are left to certify."""

    POOL_OPS = {1: ("random", "classical", "allones"), 2: ("random", "classical", "allones"),
                3: ("delta", "classical", "allones"), 4: ("delta", "classical", "allones")}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        rng = random.Random(f"{self.seed}:{self.name}:pool")
        self.pool: dict[int, list[tuple]] = {}
        for d, ops in self.POOL_OPS.items():
            entries = []
            for k, op_name in enumerate(ops):
                spec = self._scheme_spec(rng, d, op_name, 1 + k, set())
                op = self._operator(spec)
                entries.append((spec, op, self.hf.synthesize(op, self._seed_poly(spec["n"])).mask))
            self.pool[d] = entries
        self.splines = {
            (r, d): self.hf.spline_mask(r, d) for r in range(1, 5) for d in range(r + 1)
        }

    def _slots(self, mask_slots, spline_slots, kind):
        """Items for a round; mask slot i uses pool entry i % 3."""
        items = [
            {"kind": kind, "d": d, "k": i % 3, "levels": levels}
            for i, (d, levels) in enumerate(mask_slots)
        ]
        items += [{"kind": "spline", "r": r, "d": d, "levels": levels} for r, d, levels in spline_slots]
        return items


class Render(_MaskPool):
    name = "render"
    why = (
        "float cascades (check_convergence at 8-11 levels, spline cascades): time in "
        "hermite_step, analysis and bspline_derivative, almost none in exactalg"
    )
    CONV_SLOTS = (
        [(1, 8)] * 28 + [(1, 9)] * 4 + [(1, 10), (1, 11)]
        + [(2, 8)] * 8 + [(2, 9), (3, 8), (4, 8)]
    )
    SPLINE_SLOTS = [(1, 0, 8)] * 2 + [(1, 1, 8)] * 2 + [(2, 1, 8), (2, 2, 8), (4, 3, 8)]
    SMALL_CONV_SLOTS = [(1, 5), (2, 5)]
    SMALL_SPLINE_SLOTS = [(2, 1, 5)]

    @staticmethod
    def spline_tol(levels: int) -> float:
        # The Greville-point error of a degree-r <= 4 spline cascade is
        # second order, below 0.75 * 4^-levels; allow twice that constant.
        return 2.0 * 4.0**-levels

    def make_round(self, rng, r):
        if self.small:
            return self._slots(self.SMALL_CONV_SLOTS, self.SMALL_SPLINE_SLOTS, "convergence")
        return self._slots(self.CONV_SLOTS, self.SPLINE_SLOTS, "convergence")

    def warm_up(self):
        spec, op, mask = self.pool[1][0]
        self.hf.check_convergence(mask, levels=4, taylor=op)
        self.hf.check_spline_cascade(1, 0, 4, self.spline_tol(4))

    def run(self, item):
        hf = self.hf
        if item["kind"] == "spline":
            levels = item["levels"]
            return {"report": hf.check_spline_cascade(item["r"], item["d"], levels, self.spline_tol(levels))}
        spec, op, mask = self.pool[item["d"]][item["k"]]
        return {"report": hf.check_convergence(mask, levels=item["levels"], taylor=op)}

    def check(self, item, out):
        rep = out["report"]
        if item["kind"] == "spline":
            _require(rep.ok and all(e <= rep.tol for e in rep.errors), f"spline errors {rep.errors}")
            _require(all(p > 0 for p in rep.points), "spline check compared no points")
            return
        _require(len(rep.sup_differences) == item["levels"], "wrong number of level differences")
        _require(len(rep.residuals) == item["levels"] + 1, "wrong number of residual rows")
        values = list(rep.sup_differences) + [v for row in rep.residuals for v in row]
        _require(all(math.isfinite(v) for v in values), "non-finite diagnostics")

    def canonical(self, item, out):
        return _dumps(out["report"].to_json())


class RenderExact(_MaskPool):
    name = "render_exact"
    why = (
        "the render masks through the exact cascade: same subdivision layer on Fraction "
        "data, where coefficient bit growth, not operation count, sets the cost"
    )
    EXACT_SLOTS = (
        [(1, 6)] * 6 + [(1, 7)] * 6 + [(1, 8)] * 3
        + [(2, 5)] * 6 + [(2, 6)] * 5 + [(2, 7)] * 2
        + [(3, 5)] * 3 + [(3, 6)] * 3 + [(3, 7)]
        + [(4, 5)] * 2 + [(4, 6)] * 2
    )
    SPLINE_SLOTS = [(r, d, 6) for r in range(1, 5) for d in range(r + 1)] + [(4, 3, 7)]
    SMALL_EXACT_SLOTS = [(1, 3), (2, 3)]
    SMALL_SPLINE_SLOTS = [(2, 1, 3)]
    # Relative to each component's largest magnitude on the grid: the float
    # cascade's rounding error is scaled up with the derivative rescaling.
    TOL = 1e-9

    def make_round(self, rng, r):
        if self.small:
            return self._slots(self.SMALL_EXACT_SLOTS, self.SMALL_SPLINE_SLOTS, "scheme")
        return self._slots(self.EXACT_SLOTS, self.SPLINE_SLOTS, "scheme")

    def _mask(self, item):
        if item["kind"] == "spline":
            return self.splines[(item["r"], item["d"])]
        return self.pool[item["d"]][item["k"]][2]

    def warm_up(self):
        self.hf.cascade(self.pool[1][0][2], 2, exact=True)

    def run(self, item):
        return {"grid": self.hf.cascade(self._mask(item), item["levels"], exact=True)[-1]}

    def check(self, item, out):
        grid = out["grid"]
        ref = self.hf.cascade(self._mask(item), item["levels"], exact=False)[-1]
        _require(grid.is_exact, "exact cascade returned floats")
        _require(
            (grid.level, grid.start, grid.npoints) == (ref.level, ref.start, ref.npoints),
            "exact and float grids differ in shape",
        )
        for k in range(grid.d + 1):
            exact_k = [float(col[k]) for col in grid.values]
            scale = max(1.0, max(abs(v) for v in exact_k))
            worst = max(abs(a - col[k]) for a, col in zip(exact_k, ref.values))
            _require(worst <= self.TOL * scale, f"component {k} differs by {worst:g} (scale {scale:g})")

    def canonical(self, item, out):
        return _dumps(out["grid"].to_json())


# ---------------------------------------------------------------------------
# cli


class Cli(Workload):
    name = "cli"
    why = (
        "README pipeline through hermiteforge.cli.run: parsing, JSON in and out, "
        "repeated identity checks and polybasis-heavy identity-tests"
    )
    STEPS = (
        "construct", "factor", "contractivity", "check-convergence", "cascade", "spline", "identity-tests",
    )
    # One pipeline per entry: (d, operator, check-convergence levels, cascade
    # levels, spline (r, d)). The seed draws the random triangles and the
    # identity-tests seed.
    PIPELINES = [
        (1, "delta", 6, 5, (1, 1)), (2, "random", 7, 6, (2, 1)), (2, "classical", 8, 7, (3, 2)),
        (3, "random", 6, 5, (4, 3)), (3, "allones", 7, 6, (2, 2)), (1, "random", 8, 7, (3, 1)),
        (2, "delta", 6, 5, (4, 2)), (3, "classical", 7, 6, (3, 3)),
    ]
    SMALL_PIPELINES = [(1, "delta", 4, 3, (1, 1))]
    IDENTITY_POLYS = 15
    # The pipeline steps depend on each other: keep them in order.
    SHUFFLE = False

    def make_round(self, rng, r):
        items = []
        pipelines = self.SMALL_PIPELINES if self.small else self.PIPELINES
        for i, (d, op, conv_levels, cascade_levels, spline) in enumerate(pipelines):
            spec = self._scheme_spec(rng, d, op, 1 + i % 3, set())
            plan = {
                "dir": os.path.join(self.workdir, f"round{r}", f"p{i}"),
                "spec": spec,
                "hdd": " + ".join(f"{c}*z^{k}" for k, c in enumerate(_seed_coeffs(spec["n"]))),
                "conv_levels": conv_levels,
                "cascade_levels": cascade_levels,
                "spline": spline,
                "identity_seed": rng.randrange(2**31),
                "identity_polys": 2 if self.small else self.IDENTITY_POLYS,
            }
            items.extend({"kind": step, "plan": plan} for step in self.STEPS)
        return items

    def prepare_round(self, r):
        for item in self.round(r):
            if item["kind"] != "construct":
                continue
            plan = item["plan"]
            os.makedirs(plan["dir"], exist_ok=True)
            spec = plan["spec"]
            if spec["op"] == "random":
                op = self._operator(spec)
                with open(os.path.join(plan["dir"], "op.json"), "w", encoding="utf-8") as fh:
                    json.dump(op.to_json(), fh)
                with open(os.path.join(plan["dir"], "chain.json"), "w", encoding="utf-8") as fh:
                    json.dump(self.hf.chain_for(op).to_json(), fh)

    def _argv(self, item) -> list[str]:
        plan = item["plan"]
        path = plan["dir"]
        spec = plan["spec"]
        if spec["op"] == "random":
            taylor, chain = os.path.join(path, "op.json"), os.path.join(path, "chain.json")
        else:
            taylor = chain = f"{spec['op']}:d={spec['d']}"
        f = lambda name: os.path.join(path, name)  # noqa: E731
        step = item["kind"]
        if step == "construct":
            return ["construct", "--taylor", taylor, "--hdd", plan["hdd"], "--out", f("bundle.json")]
        if step == "factor":
            return ["factor", "--mask", f("mask.json"), "--chain", chain, "--out", f("factor.out.json")]
        if step == "contractivity":
            return [
                "contractivity", "--mask", f("factor.json"), "--n-max", "4", "--out", f("contractivity.json"),
            ]
        if step == "check-convergence":
            return [
                "check-convergence", "--mask", f("mask.json"), "--levels", str(plan["conv_levels"]),
                "--taylor", taylor, "--out", f("convergence.json"),
            ]
        if step == "cascade":
            return [
                "cascade", "--mask", f("mask.json"), "--levels", str(plan["cascade_levels"]),
                "--format", "csv", "--out", f("grid.csv"),
            ]
        if step == "spline":
            r, d = plan["spline"]
            return ["spline", "--r", str(r), "--d", str(d), "--verify", "--out", f("spline.json")]
        return [
            "identity-tests", "--seed", str(plan["identity_seed"]),
            "--polys", str(plan["identity_polys"]), "--out", f("identity.json"),
        ]

    _OUT = {
        "construct": "bundle.json", "factor": "factor.out.json", "contractivity": "contractivity.json",
        "check-convergence": "convergence.json", "cascade": "grid.csv", "spline": "spline.json",
        "identity-tests": "identity.json",
    }

    def warm_up(self):
        os.makedirs(self.workdir, exist_ok=True)
        self.hf.cli.run(["chain", "--taylor", "delta:d=1", "--out", os.path.join(self.workdir, "warm.json")])

    def run(self, item):
        code = self.hf.cli.run(self._argv(item))
        return {"exit": code}

    def _read(self, item) -> bytes:
        path = os.path.join(item["plan"]["dir"], self._OUT[item["kind"]])
        with open(path, "rb") as fh:
            return fh.read()

    def check(self, item, out):
        step = item["kind"]
        code = out["exit"]
        _require(code in (0, 1), f"{step} exited {code}")
        raw = self._read(item)
        if step == "cascade":
            lines = raw.decode("utf-8").splitlines()
            _require(code == 0 and len(lines) > 2, "cascade csv is empty")
            return
        payload = json.loads(raw)
        # 0 means the check passed, 1 that it ran and failed.
        _require(code == (0 if payload["ok"] else 1), f"{step} exit {code} disagrees with ok={payload['ok']}")
        if step == "check-convergence":
            return
        _require(code == 0, f"{step} failed on generated input")
        if step == "construct":
            _require(payload["checks"]["identity"], "construct identity check failed")
            bundle = payload["bundle"]
            path = item["plan"]["dir"]
            # Hand the mask and the factor to the next steps, as the README does.
            for key, name in (("A", "mask.json"), ("B", "factor.json")):
                with open(os.path.join(path, name), "w", encoding="utf-8") as fh:
                    json.dump(bundle[key], fh)
        elif step == "factor":
            _require(payload["checks"]["identity"], "factor identity check failed")

    def canonical(self, item, out):
        return _dumps({"step": item["kind"], "exit": out["exit"]}) + self._read(item)


WORKLOADS = {w.name: w for w in (Certify, Render, RenderExact, Cli)}
