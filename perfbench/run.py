#!/usr/bin/env python3
"""hermiteforge benchmark: one seeded workload, closed loop, one thread.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from `src/` of that
checkout. Items run one after another in whole rounds (see workloads.py)
until the timed phase has taken --seconds of wall time. Every item's output
is checked and hashed into a per-workload digest.

`--trace 0` reports the end-to-end metrics. `--trace 1` runs a fixed number
of rounds twice, untraced and then traced, and reports per-layer metrics from
the traced pass together with the tracing overhead; the spans are written to
perfbench/out/. The last line of standard output is the result object; the
line before it is a report with every metric, the tail percentile and its
sample count, the digest and the generator's record.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from workloads import WORKLOADS, CheckFailed  # noqa: E402

SETUP_REPEATS = 9
# No new item starts after this much wall time, so a run ends well inside
# the 180 s a run may take even if the program gets much slower.
WALL_LIMIT_S = 140.0
# Bounds a run's memory if items start failing instantly.
MAX_ROUNDS = 20
# The traced run fails if the item roots' own time, the part no wrapper
# covers, exceeds this share of the traced total: a layer the tracer misses
# would land there.
UNCOVERED_MAX = 0.02
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# (name, unit, better). error_rate is 0 on a correct program, so it is
# reported (it equals failed / attempted) but is not a bounded metric in
# BENCHMARK.json.
END_TO_END = (
    ("items_per_s", "1/s", "higher"),
    ("item_p50_s", "s", "lower"),
    ("item_tail_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("error_rate", "ratio", "lower"),
    ("setup_s", "s", "lower"),
)
BOUNDED = ("items_per_s", "item_p50_s", "item_tail_s", "peak_rss_mb", "setup_s")

PER_LAYER = (
    ("fractions.new_calls", "count", "lower"),
    ("fractions.self_s", "s", "lower"),
    ("exactalg.self_s", "s", "lower"),
    ("exactalg.laurent_mul.calls", "count", "lower"),
    ("exactalg.laurent_mul.self_s", "s", "lower"),
    ("exactalg.divide_exact.calls", "count", "lower"),
    ("exactalg.divide_exact.self_s", "s", "lower"),
    ("exactalg.max_coeff_bits", "bits", "lower"),
    ("polybasis.calls", "count", "lower"),
    ("polybasis.self_s", "s", "lower"),
    ("taylor.self_s", "s", "lower"),
    ("taylor.chain_for.calls", "count", "lower"),
    ("taylor.repeat_operator_share", "ratio", "higher"),
    ("construct.self_s", "s", "lower"),
    ("construct.synthesize.s", "s", "lower"),
    ("construct.system_share", "ratio", "lower"),
    ("factor.self_s", "s", "lower"),
    ("factor.taylor_factorize.s", "s", "lower"),
    ("factor.unfactor.s", "s", "lower"),
    ("factor.identity_checks_per_item", "count", "lower"),
    ("factor.annihilation_gate_checks", "count", "lower"),
    ("subdivision.self_s", "s", "lower"),
    ("subdivision.hermite_step.calls", "count", "lower"),
    ("subdivision.hermite_step.self_s", "s", "lower"),
    ("subdivision.grid_points", "count", "higher"),
    ("subdivision.points_per_s", "1/s", "higher"),
    ("subdivision.max_value_bits", "bits", "lower"),
    ("subdivision.eigen_check.calls", "count", "lower"),
    ("subdivision.eigen_check.self_s", "s", "lower"),
    ("analysis.self_s", "s", "lower"),
    ("analysis.scheme_norm.calls", "count", "lower"),
    ("analysis.scheme_norm.self_s", "s", "lower"),
    ("analysis.iterated_support_max", "count", "lower"),
    ("analysis.check_convergence.self_s", "s", "lower"),
    ("splines.self_s", "s", "lower"),
    ("splines.bspline_derivative.calls", "count", "lower"),
    ("splines.bspline_derivative.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.run.calls", "count", "lower"),
    ("cli.json_bytes", "bytes", "lower"),
    ("bench.self_s", "s", "lower"),
    ("trace.probe_s", "s", "lower"),
    ("trace.total_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class ProgramMissing(Exception):
    pass


def load_program(fresh: bool = False):
    """Import hermiteforge from src/ of this checkout, and only from there.

    `fresh` drops an earlier import first, so that the import runs again."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hermiteforge", "__init__.py")):
        raise ProgramMissing(f"no hermiteforge package under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    if fresh:
        for mod in [m for m in sys.modules if m == "hermiteforge" or m.startswith("hermiteforge.")]:
            del sys.modules[mod]
    import hermiteforge
    import hermiteforge.cli  # noqa: F401

    if os.path.dirname(os.path.dirname(os.path.abspath(hermiteforge.__file__))) != src:
        raise ProgramMissing(f"hermiteforge was imported from {hermiteforge.__file__}")
    return hermiteforge


class Pass:
    """Latencies (scaled and wall), failures and per-item output hashes of
    one pass."""

    def __init__(self):
        self.latencies: list[float] = []
        self.walls: list[float] = []
        self.errors: list[str | None] = []
        self.hashes: list[bytes] = []
        self.rounds = 0

    @property
    def failed(self) -> int:
        return sum(e is not None for e in self.errors)

    def digest(self, n: int | None = None) -> str:
        h = hashlib.sha256()
        for piece in self.hashes[:n]:
            h.update(piece)
        return h.hexdigest()


class SpeedScale:
    """Times calls and rescales each timing to a fixed reference CPU speed.

    On a shared virtual machine the same code runs up to ~1.9x slower at
    times, switching within a fraction of a second to tens of seconds; the
    process's CPU time slows down with it, so neither CPU time nor a wait
    for a fast state steadies the figures. Instead a probe runs right before
    and right after every timed call, and the call's wall time is multiplied
    by REF_PROBE_S over the mean of the two probes: the result is the time
    the call takes at the speed at which the probe takes REF_PROBE_S (about
    the fastest state of a 2.1 GHz Xeon vCPU).

    The probe is a fixed mix of the kinds of interpreter work the program
    does, built from nothing the program can change: a walk
    `j = table[j] ^ (j & 7)` through a seeded shuffle of 65536 ints (list
    subscripts and small-int operations; it settles into a cycle of 78
    slots, so it measures interpreter speed, not cache misses), products
    and gcds of ~120-bit ints (the big-integer work under `Fraction`), float
    arithmetic over lists (the float cascade) and method calls that create
    small objects and store them in a dict. Against a certify item, an exact
    cascade and a float convergence check, the mix tracked the machine's
    slow and fast states more closely than any part alone or a loop of
    small-integer arithmetic. Each side is the median of three probes, so
    that one preemption does not skew an item. Wall times are kept beside
    the scaled ones. With `scaled=False` nothing is probed and the seconds
    are wall seconds.
    """

    REF_PROBE_S = 0.0008
    SLOTS = 1 << 16

    def __init__(self, scaled: bool = True):
        self.scaled = scaled
        self.factors: list[float] = []
        rng = random.Random(1)
        self._table = list(range(self.SLOTS))
        rng.shuffle(self._table)
        self._ints = [rng.getrandbits(120) | 1 for _ in range(64)]
        self._floats = [rng.random() for _ in range(256)]

    def _once(self) -> float:
        table, ints, floats = self._table, self._ints, self._floats
        t = time.perf_counter()
        j = 0
        for _ in range(3000):
            j = table[j] ^ (j & 7)
        acc = 0
        for i in range(250):
            x, y = ints[i & 63], ints[(i * 7) & 63]
            acc ^= math.gcd(x * y + i, 3 * y + 1)
        peak = 0.0
        for _ in range(6):
            row = [a * 0.75 - b * 0.25 for a, b in zip(floats, floats[1:])]
            peak = max(peak, max(abs(v) for v in row))
        p, q, seen = _Pair(1, 1), _Pair(2, 1), {}
        for i in range(750):
            p = p.add(q)
            seen[i & 31] = p.x
        return time.perf_counter() - t

    def probe(self) -> float:
        """Time of one probe at the current speed."""
        return statistics.median(self._once() for _ in range(3))

    @contextlib.contextmanager
    def timed(self):
        """Time the body: yields a Timing whose `seconds` (scaled) and
        `wall` are set when the body ends, also when it raises."""
        timing = Timing()
        before = self.probe() if self.scaled else None
        t0 = time.perf_counter()
        try:
            yield timing
        finally:
            timing.wall = timing.seconds = time.perf_counter() - t0
            if self.scaled:
                factor = (before + self.probe()) / 2 / self.REF_PROBE_S
                self.factors.append(factor)
                timing.seconds = timing.wall / factor


class _Pair:
    """The small object of SpeedScale's probe."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x, self.y = x, y

    def add(self, other):
        return _Pair(self.x + other.x, self.y * other.y)


class Timing:
    seconds = 0.0
    wall = 0.0


def run_item(wl, item, tracer=None, corrupt=None, scale=None):
    """Run, check and hash one item; return (seconds, wall seconds, error or
    None, output hash).

    The item runs once, so its latency is the program's cost for an input it
    has not seen in this call. With `scale` the seconds are rescaled to the
    reference speed (see SpeedScale); with `tracer` they are the item span's
    duration. Only the program's work is timed; the check and the hash are
    not. `corrupt`, when given, rewrites the outputs before the check (the
    negative control of the tests)."""
    out, error = None, None
    timing = Timing()
    try:
        if tracer is not None:
            with tracer.item() as span:
                out = wl.run(item)
            timing.seconds = timing.wall = span.duration
        else:
            with (scale or SpeedScale(scaled=False)).timed() as timing:
                out = wl.run(item)
    except Exception as exc:  # an item that raises is a failed item
        error = f"raised {type(exc).__name__}: {exc}"
    piece = b"failed"
    if error is None:
        if corrupt is not None:
            out = corrupt(item, out)
        try:
            wl.check(item, out)
            piece = wl.canonical(item, out)
        except CheckFailed as exc:
            error = f"check: {exc}"
        except Exception as exc:  # a check that cannot even run fails the item
            error = f"check raised {type(exc).__name__}: {exc}"
    return timing.seconds, timing.wall, error, hashlib.sha256(piece).digest()


def run_pass(wl, *, budget_s=None, rounds=None, tracer=None, corrupt=None, deadline=None, scale=None):
    """Whole rounds until `rounds` are done or the pass has taken budget_s of
    wall time. The wall time includes the probes and the checks, so a busy
    machine shortens the pass by whole rounds."""
    res = Pass()
    start = time.perf_counter()
    rounds = MAX_ROUNDS if rounds is None else rounds
    while res.rounds < rounds and (budget_s is None or time.perf_counter() - start < budget_s):
        wl.prepare_round(res.rounds)
        for item in wl.round(res.rounds):
            if deadline is not None and time.perf_counter() > deadline:
                return res
            seconds, wall, error, piece = run_item(wl, item, tracer, corrupt, scale)
            res.latencies.append(seconds)
            res.walls.append(wall)
            res.errors.append(error)
            res.hashes.append(piece)
        res.rounds += 1
        if res.failed == len(res.latencies):
            break  # nothing works: timing more rounds of failures proves nothing
    return res


def harrell_davis(ordered: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of sorted values.

    It is a mean of all order statistics, weighted by the Beta((n+1)p,
    (n+1)(1-p)) probability of each rank interval ((i-1)/n, i/n), so a few
    ranks on either side of the quantile share the weight. Item latencies
    fall into clusters (one per kind of item), and a single order statistic
    next to a gap between two clusters jumps between them from run to run;
    this estimate moves smoothly. Ranks with negligible weight are left out,
    so that a failed (infinite) item far from the quantile does not count."""
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    # Simpson's rule on each rank interval.
    steps = 8
    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        xs = [(i * steps + k) * h for k in range(steps + 1)]
        ys = [density(x) for x in xs]
        weights.append(h / 3 * (ys[0] + ys[-1] + 4 * sum(ys[1:-1:2]) + 2 * sum(ys[2:-1:2])))
    total = sum(weights)
    return sum(w * v for w, v in zip(weights, ordered) if w > 1e-9 * total) / sum(
        w for w in weights if w > 1e-9 * total
    )


def tail(round_items: int, n: int) -> tuple[float, int]:
    """The highest ladder percentile that leaves >= 10 of one round's items
    beyond it, and how many of the run's n items lie beyond it.

    Choosing the percentile from the round size, not from the item count,
    keeps it the same whether a run completes one round or several."""
    pct = 50.0
    for p in TAIL_LADDER:
        if round_items - math.ceil(p / 100.0 * round_items) >= 10:
            pct = p
            break
    return pct, n - math.ceil(pct / 100.0 * n)


def end_to_end_metrics(res: Pass, setup_s: float, round_items: int) -> tuple[dict, dict]:
    n = len(res.latencies)
    # A failed item misses every latency limit.
    ordered = sorted(s if e is None else math.inf for s, e in zip(res.latencies, res.errors))
    pct, beyond = tail(round_items, n)
    values = {
        "items_per_s": n / sum(res.latencies),
        "item_p50_s": harrell_davis(ordered, 0.5),
        "item_tail_s": harrell_davis(ordered, pct / 100.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": res.failed / n,
        "setup_s": setup_s,
    }
    return values, {"percentile": pct, "samples_beyond": beyond, "samples": n}


def layer_metrics(tracer, traced: Pass, untraced: Pass) -> dict:
    n = len(traced.latencies)
    layers = tracer.layer_self()

    def calls(name):
        return tracer.stat(name)[0]

    def self_s(name):
        return tracer.stat(name)[1]

    def total_s(name):
        return tracer.stat(name)[2]

    synth = total_s("construct.synthesize")
    system = total_s("construct.build_last_row_system") + total_s("construct.last_row_symbols")
    steps = total_s("subdivision.hermite_step")
    chain_calls = calls("taylor.chain_for")
    traced_total = sum(traced.latencies)
    return {
        "fractions.new_calls": calls("fractions.Fraction.__new__"),
        "fractions.self_s": layers.get("fractions", 0.0),
        "exactalg.self_s": layers.get("exactalg", 0.0),
        "exactalg.laurent_mul.calls": calls("exactalg.LaurentPoly.__mul__"),
        "exactalg.laurent_mul.self_s": self_s("exactalg.LaurentPoly.__mul__"),
        "exactalg.divide_exact.calls": calls("exactalg.LaurentPoly.divide_exact"),
        "exactalg.divide_exact.self_s": self_s("exactalg.LaurentPoly.divide_exact"),
        "exactalg.max_coeff_bits": tracer.max_coeff_bits,
        "polybasis.calls": tracer.layer_calls("polybasis"),
        "polybasis.self_s": layers.get("polybasis", 0.0),
        "taylor.self_s": layers.get("taylor", 0.0),
        "taylor.chain_for.calls": chain_calls,
        "taylor.repeat_operator_share": tracer.chain_for_repeats / chain_calls if chain_calls else 0.0,
        "construct.self_s": layers.get("construct", 0.0),
        "construct.synthesize.s": synth,
        "construct.system_share": system / synth if synth else 0.0,
        "factor.self_s": layers.get("factor", 0.0),
        "factor.taylor_factorize.s": total_s("factor.taylor_factorize"),
        "factor.unfactor.s": total_s("factor.unfactor"),
        # Every factorization identity test is one LaurentMatrix equality.
        "factor.identity_checks_per_item": calls("exactalg.LaurentMatrix.__eq__") / n if n else 0.0,
        "factor.annihilation_gate_checks": tracer.gate_checks,
        "subdivision.self_s": layers.get("subdivision", 0.0),
        "subdivision.hermite_step.calls": calls("subdivision.hermite_step"),
        "subdivision.hermite_step.self_s": self_s("subdivision.hermite_step"),
        "subdivision.grid_points": tracer.grid_points,
        "subdivision.points_per_s": tracer.grid_points / steps if steps else 0.0,
        "subdivision.max_value_bits": tracer.max_value_bits,
        "subdivision.eigen_check.calls": calls("subdivision.eigen_check"),
        "subdivision.eigen_check.self_s": self_s("subdivision.eigen_check"),
        "analysis.self_s": layers.get("analysis", 0.0),
        "analysis.scheme_norm.calls": calls("analysis.scheme_norm"),
        "analysis.scheme_norm.self_s": self_s("analysis.scheme_norm"),
        "analysis.iterated_support_max": tracer.iterated_support_max,
        "analysis.check_convergence.self_s": self_s("analysis.check_convergence"),
        "splines.self_s": layers.get("splines", 0.0),
        "splines.bspline_derivative.calls": calls("splines.bspline_derivative"),
        "splines.bspline_derivative.self_s": self_s("splines.bspline_derivative"),
        "cli.self_s": layers.get("cli", 0.0),
        "cli.run.calls": calls("cli.run"),
        "cli.json_bytes": tracer.json_bytes,
        "bench.self_s": layers.get("bench", 0.0),
        "trace.probe_s": layers.get("trace", 0.0),
        "trace.total_s": traced_total,
        "trace.overhead_ratio": traced_total / sum(untraced.latencies[:n]),
    }


def _with_units(values: dict, table, names=None) -> dict:
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit, _ in table
        if names is None or name in names
    }


def setup(name: str, seed: int, workdir: str, scale: SpeedScale, small: bool = False):
    """Set up SETUP_REPEATS times, each timed with `scale`: a fresh import of
    the package, input generation and warm-up. Return the last workload and
    the median set-up time."""
    samples = []
    for _ in range(SETUP_REPEATS):
        with scale.timed() as timing:
            hf = load_program(fresh=True)
            wl = WORKLOADS[name](hf, seed, workdir, small=small)
            wl.round(0)
            wl.warm_up()
        samples.append(timing.seconds)
    return wl, statistics.median(samples)


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: str, small: bool = False,
            corrupt=None, started: float | None = None) -> tuple[dict, dict]:
    """Run one workload; return (result object, report)."""
    started = time.perf_counter() if started is None else started
    deadline = started + WALL_LIMIT_S
    scale = SpeedScale()
    wl, setup_s = setup(name, seed, workdir, scale, small)
    report = {"workload": name, "seed": seed, "why": wl.why}
    if not trace:
        res = run_pass(wl, budget_s=seconds, corrupt=corrupt, deadline=deadline, scale=scale)
        values, tail_info = end_to_end_metrics(res, setup_s, len(wl.round(0)))
        report.update(
            rounds=res.rounds, item_tail=tail_info, digest=res.digest(),
            inputs=wl.input_record(res.rounds),
            # Unscaled, for comparison: how slow the machine ran (the probe
            # over REF_PROBE_S) and the wall-clock throughput and median.
            speed_factor_p50=statistics.median(scale.factors),
            wall_items_per_s=len(res.walls) / sum(res.walls),
            wall_item_p50_s=statistics.median(res.walls),
            metrics=_with_units(values, END_TO_END),
            errors=[e for e in res.errors if e][:5],
        )
        result = {
            "correct": res.failed == 0,
            "attempted": len(res.latencies),
            "failed": res.failed,
            "metrics": _with_units(values, END_TO_END, BOUNDED),
        }
        return result, report

    from tracer import Tracer

    # One fixed round, so that traced counts repeat exactly for a seed. Both
    # passes are timed unscaled, so that the layer self times, the traced
    # total and the overhead ratio are all in wall seconds.
    rounds = 1
    untraced = run_pass(wl, rounds=rounds, corrupt=corrupt, deadline=deadline)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(wl, rounds=rounds, tracer=tracer, corrupt=corrupt, deadline=deadline)
    finally:
        tracer.uninstall()
    n = len(traced.latencies)
    values = layer_metrics(tracer, traced, untraced)
    # Self times add up to the item roots' time by construction; what can go
    # wrong is a layer the tracer does not wrap, whose time stays with the root.
    uncovered_share = values["bench.self_s"] / values["trace.total_s"]
    covered = uncovered_share <= UNCOVERED_MAX
    digests_match = traced.digest() == untraced.digest(n)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = tracer.write_spans(os.path.join(OUT_DIR, f"spans-{name}-{seed}"))
    report.update(
        rounds=rounds, traced_items=n, untraced_items=len(untraced.latencies),
        digest=traced.digest(), digests_match=digests_match,
        layer_self_s=tracer.layer_self(), uncovered_share=uncovered_share, covered=covered,
        spans=spans["spans"], spans_dropped=spans["spans_dropped"],
        inputs=wl.input_record(rounds),
        metrics=_with_units(values, PER_LAYER),
        errors=[e for e in untraced.errors + traced.errors if e][:5],
    )
    failed = untraced.failed + traced.failed
    result = {
        "correct": failed == 0 and digests_match and covered,
        "attempted": len(untraced.latencies) + n,
        "failed": failed,
        "metrics": _with_units(values, PER_LAYER),
    }
    return result, report


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        result, report = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir, started=started
        )
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
