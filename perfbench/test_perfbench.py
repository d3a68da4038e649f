"""Tests of the benchmark itself (not of hermiteforge).

    python3 -m pytest perfbench -q

Runs use the `small` round templates; the module takes about two minutes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import run
from workloads import WORKLOADS

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


@pytest.fixture
def hf():
    # measure() imports the package afresh; use whichever import is current.
    return run.load_program()


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_small_run_emits_every_metric(name, seed, tmp_path):
    result, report = run.measure(name, seed, 0.01, False, str(tmp_path), small=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.BOUNDED)
    assert set(report["metrics"]) == {m[0] for m in run.END_TO_END}
    assert report["metrics"]["error_rate"] == {"value": 0.0, "unit": "ratio"}
    assert report["item_tail"]["samples"] == result["attempted"]
    assert report["why"]

    result, report = run.measure(name, seed, 0.01, True, str(tmp_path), small=True)
    assert result["correct"], report["errors"]
    assert set(result["metrics"]) == {m[0] for m in run.PER_LAYER}
    # Nearly all of the item roots' time is attributed to layers.
    assert report["covered"]
    assert report["digests_match"]
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_each_item_runs_once(monkeypatch, tmp_path):
    """No timing repeats a call, so a cache across calls cannot hide a miss."""
    cls = WORKLOADS["certify"]
    runs = []
    original = cls.run

    def counting(self, item):
        runs.append(item)
        return original(self, item)

    monkeypatch.setattr(cls, "run", counting)
    result, report = run.measure("certify", 1, 0.01, False, str(tmp_path), small=True)
    # Two warm-up calls per set-up repetition, then one call per item.
    timed = runs[2 * run.SETUP_REPEATS:]
    assert len(timed) == result["attempted"]
    assert len({id(item) for item in timed}) == len(timed)


def test_missed_layer_fails_the_traced_run(monkeypatch, tmp_path):
    """A layer the tracer does not wrap leaves its time uncovered."""
    import tracer

    kept = tuple(layer for layer in tracer.LAYERS if layer not in ("subdivision", "analysis", "splines"))
    monkeypatch.setattr(tracer, "LAYERS", kept)
    result, report = run.measure("render", 1, 0.01, True, str(tmp_path), small=True)
    assert not report["covered"] and report["uncovered_share"] > run.UNCOVERED_MAX
    assert not result["correct"]


def test_corrupted_output_counts_as_error(tmp_path):
    state = {"done": False}

    def corrupt(item, out):
        if item["kind"] == "scheme" and not state["done"]:
            state["done"] = True
            out = dict(out, mask=out["mask"].scale(Fraction(1, 2)))
        return out

    result, report = run.measure("certify", 1, 0.01, False, str(tmp_path), small=True, corrupt=corrupt)
    assert state["done"]
    assert result["failed"] == 1 and not result["correct"]
    rate = report["metrics"]["error_rate"]["value"]
    assert rate == pytest.approx(1 / result["attempted"])
    assert "unfactor" in report["errors"][0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_digests_match(name, hf, tmp_path):
    from tracer import Tracer

    wl = WORKLOADS[name](hf, 3, str(tmp_path), small=True)
    plain = run.run_pass(wl, rounds=1)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.run_pass(wl, rounds=1, tracer=tracer)
    finally:
        tracer.uninstall()
    assert plain.failed == traced.failed == 0
    assert plain.digest() == traced.digest()
    assert tracer.items == len(traced.latencies)


def test_tracer_restores_the_program(hf):
    from tracer import Tracer

    before = (Fraction.__new__, Fraction.__add__, hf.synthesize, hf.factor.eigen_check,
              hf.LaurentPoly.__mul__, hf.cli.json)
    tracer = Tracer()
    tracer.install()
    assert hf.factor.eigen_check is not before[3]
    tracer.uninstall()
    after = (Fraction.__new__, Fraction.__add__, hf.synthesize, hf.factor.eigen_check,
             hf.LaurentPoly.__mul__, hf.cli.json)
    assert after == before
    assert "__float__" not in vars(Fraction)


def test_same_seed_same_inputs(hf, tmp_path):
    a = WORKLOADS["certify"](hf, 7, str(tmp_path))
    b = WORKLOADS["certify"](hf, 7, str(tmp_path))
    c = WORKLOADS["certify"](hf, 8, str(tmp_path))
    specs = lambda wl: [it.get("spec", (it.get("r"), it.get("d"))) for it in wl.round(0)]  # noqa: E731
    assert specs(a) == specs(b) != specs(c)
    record = a.input_record(1)
    assert 0 < record["operator_repeat_share"] < 1


def test_tail_percentile_has_ten_samples_beyond():
    assert run.tail(100, 100) == (90.0, 10)
    assert run.tail(52, 52) == (75.0, 13)
    # A second round of the same size keeps the percentile.
    assert run.tail(52, 104) == (75.0, 26)


def test_speed_scale_rescales_to_the_reference(monkeypatch):
    scale = run.SpeedScale()
    # The machine runs at half and then a quarter of the reference speed.
    probes = iter([2 * scale.REF_PROBE_S, 4 * scale.REF_PROBE_S])
    monkeypatch.setattr(scale, "probe", lambda: next(probes))
    with scale.timed() as timing:
        time.sleep(0.03)
    assert timing.wall >= 0.03
    assert timing.seconds == pytest.approx(timing.wall / 3)
    assert scale.factors == [pytest.approx(3.0)]
    assert 0 < run.SpeedScale().probe() < 1.0


def test_harrell_davis_quantiles():
    values = [float(i) for i in range(1, 102)]
    # Symmetric weights: the median of 1..101 is 51.
    assert run.harrell_davis(values, 0.5) == pytest.approx(51.0, rel=1e-6)
    assert run.harrell_davis(values, 0.9) == pytest.approx(91.0, abs=0.5)
    # A gap between two clusters: the estimate lies between them instead of
    # jumping to either one.
    gappy = [1.0] * 50 + [2.0] * 51
    assert 1.0 < run.harrell_davis(gappy, 0.5) < 2.0
    # A failed item far from the quantile does not make it infinite.
    assert run.harrell_davis(values[:-1] + [math.inf], 0.5) == pytest.approx(51.0, rel=1e-3)


def test_benchmark_json_matches_the_tables():
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    ends = {(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]}
    assert ends == {m for m in run.END_TO_END if m[0] in run.BOUNDED}
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    layers = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert layers == list(run.PER_LAYER)


def test_exits_nonzero_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run fails cleanly."""
    shutil.copy(BENCHMARK, tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
