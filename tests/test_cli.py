"""End-to-end command line coverage: parsing, exit codes, determinism."""

import json
import subprocess
import sys
from fractions import Fraction as F

import pytest

from goldens import REF2_MASK, mask_from_entries
from hermiteforge import (
    LaurentPoly,
    Mask,
    TaylorOperator,
    chain_for,
    classical_operator,
    delta_operator,
    spline_mask,
    synthesize,
)
from hermiteforge import cli
from hermiteforge.cli import MalformedInput, parse_laurent, run
from reference_kernels import newton_vector


def run_ok(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return out


def test_parse_laurent_forms():
    assert parse_laurent("(z+1)/2") == LaurentPoly({0: F(1, 2), 1: F(1, 2)})
    assert parse_laurent("(z+1)^5/2^5") == LaurentPoly({0: F(1, 2), 1: F(1, 2)}) ** 5
    assert parse_laurent("z^-3") == LaurentPoly({-3: F(1)})
    assert parse_laurent("-z+3/4*z^2") == LaurentPoly({1: F(-1), 2: F(3, 4)})
    assert parse_laurent("3*z") == LaurentPoly({1: F(3)})
    assert parse_laurent("(1-z)/2") == LaurentPoly({0: F(1, 2), 1: F(-1, 2)})
    assert parse_laurent("1") == LaurentPoly({0: F(1)})


@pytest.mark.parametrize(
    "bad",
    # int() alone would read each digit run from "04*z" on, and "-0" too.
    ["z^", "(z+1", "1/0", "(z+1)/0", "z+", "2**3", "3z", "", "04*z", "z^-03", "(z+1)/02",
     "z^-0", "z^03", "3/04*z", "(z+1)^02", "(z+1)/2^01"],
)
def test_parse_laurent_rejects(bad):
    with pytest.raises(MalformedInput) as err:
        parse_laurent(bad)
    assert "position" in str(err.value)


def test_construct_reference_scheme(capsys, tmp_path):
    out = run_ok(
        capsys,
        [
            "construct",
            "--taylor",
            "delta:d=2",
            "--hdd",
            "(z+1)/2",
            "--g",
            "1,0:1",
        ],
    )
    doc = json.loads(out)
    assert doc["checks"]["identity"] is True
    assert doc["checks"]["strategy"] == "recurrence"
    from hermiteforge import Mask

    mask = Mask.from_json(doc["bundle"]["A"])
    assert mask == mask_from_entries(REF2_MASK, 2)


def test_construct_writes_file(capsys, tmp_path):
    target = tmp_path / "scheme.json"
    run_ok(
        capsys,
        ["construct", "--taylor", "delta:d=1", "--hdd", "(z+1)/2", "--out", str(target)],
    )
    doc = json.loads(target.read_text())
    assert doc["checks"]["identity"] is True


def test_construct_bad_seed_is_malformed_input(capsys):
    code = run(["construct", "--taylor", "delta:d=1", "--hdd", "z+1"])
    assert code == 2


def test_factor_and_verify_roundtrip(capsys, tmp_path):
    mask_file = tmp_path / "mask.json"
    mask_file.write_text(json.dumps(mask_from_entries(REF2_MASK, 2).to_json()))
    out = run_ok(capsys, ["factor", "--mask", str(mask_file), "--chain", "delta:d=2"])
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["checks"]["identity"] is True
    assert doc["factorization"]["scale"] == "1/4"


def test_factor_failure_exits_one(capsys, tmp_path):
    entries = dict(REF2_MASK)
    entries[(0, 0, -4)] = entries[(0, 0, -4)] + 1
    mask_file = tmp_path / "mask.json"
    mask_file.write_text(json.dumps(mask_from_entries(entries, 2).to_json()))
    code = run(["factor", "--mask", str(mask_file), "--chain", "delta:d=2"])
    out = capsys.readouterr().out
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["error"] == "level 0 is not annihilated: row 0 at alpha=-25 gives 1"


def test_parser_is_shared_without_state_leaking_between_runs(capsys, monkeypatch):
    with_constant = run_ok(capsys, ["chain", "--taylor", "classical:d=2", "--constant", "1,1:2"])
    parser = cli._parser
    shared = run_ok(capsys, ["chain", "--taylor", "classical:d=2"])
    assert cli._parser is parser
    monkeypatch.setattr(cli, "_parser", None)
    fresh = run_ok(capsys, ["chain", "--taylor", "classical:d=2"])
    assert cli._parser is not parser
    assert shared == fresh != with_constant


def test_annihilate_vector(capsys, tmp_path):
    vec_file = tmp_path / "vec.json"
    vec_file.write_text(json.dumps(newton_vector(2).to_json()))
    out = run_ok(capsys, ["annihilate", "--vec", str(vec_file)])
    doc = json.loads(out)
    assert TaylorOperator.from_json(doc["taylor"]) == delta_operator(2)


def test_chain_command_matches_library(capsys):
    out = run_ok(capsys, ["chain", "--taylor", "classical:d=2"])
    doc = json.loads(out)
    from hermiteforge import Chain

    assert Chain.from_json(doc["chain"]) == chain_for(classical_operator(2))


@pytest.mark.parametrize("command", ["chain", "construct", "check-convergence"])
def test_complete_false_gives_the_bytes_of_complete_true(command, capsys, tmp_path):
    # "complete" must be a JSON boolean, and either value names the same
    # weights: one operator.
    fam = TaylorOperator(w=((F(1),), (F(1, 2), F(1))))
    mask_file = tmp_path / "mask.json"
    mask_file.write_text(json.dumps(mask_from_entries(REF2_MASK, 2).to_json()))
    seen = []
    for complete in (True, False):
        op_file = tmp_path / f"op_{complete}.json"
        op_file.write_text(json.dumps(dict(fam.to_json(), complete=complete)))
        argv = {
            "chain": ["chain", "--taylor", str(op_file)],
            "construct": ["construct", "--taylor", str(op_file), "--hdd", "(z+1)/2"],
            "check-convergence": [
                "check-convergence", "--mask", str(mask_file), "--levels", "4", "--taylor", str(op_file)
            ],
        }[command]
        code = run(argv)
        captured = capsys.readouterr()
        seen.append((code, captured.out, captured.err))
    assert seen[0] == seen[1]
    assert seen[0][0] in (0, 1) and seen[0][1] and not seen[0][2]


@pytest.mark.parametrize("exc", [KeyError("boom"), TypeError("boom"), ZeroDivisionError("boom")])
def test_an_internal_error_exits_three(exc, capsys, monkeypatch):
    # Only MalformedInput, ValueError and OSError are malformed input; any
    # other exception is a fault of the program, not a failed check.
    def broken(*args):
        raise exc

    monkeypatch.setattr(cli, "chain_for", broken)
    assert run(["chain", "--taylor", "delta:d=1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: {type(exc).__name__}: {exc}\n"


def test_verify_spectral_pass_and_fail(capsys, tmp_path):
    mask_file = tmp_path / "spline.json"
    mask_file.write_text(json.dumps(spline_mask(2, 1).to_json()))
    assert run(["verify-spectral", "--mask", str(mask_file), "--chain", "spline:r=2,d=1"]) == 0
    capsys.readouterr()
    ref_file = tmp_path / "ref.json"
    ref_file.write_text(json.dumps(mask_from_entries(REF2_MASK, 2).to_json()))
    code = run(["verify-spectral", "--mask", str(ref_file), "--chain", "classical:d=2"])
    out = capsys.readouterr().out
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["spectral"]["failures"]


def test_cascade_csv(capsys, tmp_path):
    mask_file = tmp_path / "hat.json"
    mask_file.write_text(json.dumps(spline_mask(1, 1).to_json()))
    out = run_ok(
        capsys,
        ["cascade", "--mask", str(mask_file), "--levels", "2", "--format", "csv"],
    )
    lines = out.strip().splitlines()
    assert lines[0] == "x,f0,f1"
    assert len(lines) > 8


def test_cascade_json_exact(capsys, tmp_path):
    mask_file = tmp_path / "hat.json"
    mask_file.write_text(json.dumps(spline_mask(1, 1).to_json()))
    out = run_ok(
        capsys,
        ["cascade", "--mask", str(mask_file), "--levels", "1", "--format", "json", "--exact"],
    )
    doc = json.loads(out)
    assert doc["grid"]["level"] == 1


def test_mask_off_the_origin_is_refused_not_passed(capsys, tmp_path):
    # The divergent mask 3 at alpha = 5: the delta at the origin never
    # reaches the default window, so no verdict is given on empty data.
    mask_file = tmp_path / "moved.json"
    mask_file.write_text(json.dumps(Mask(5, (((F(3),),),)).to_json()))
    for cmd in ("check-convergence", "cascade"):
        code = run([cmd, "--mask", str(mask_file), "--levels", "4"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: the delta at the origin does not reach")
        assert "malformed" not in captured.err
    # On a window nearer the support the divergence is reported.
    code = run(["check-convergence", "--mask", str(mask_file), "--window", "4,8"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False
    # The hat (1/2, 1, 1/2) at alpha = 5..7 converges there.
    mask_file.write_text(json.dumps(Mask(5, (((F(1, 2),),), ((F(1),),), ((F(1, 2),),))).to_json()))
    doc = json.loads(
        run_ok(capsys, ["check-convergence", "--mask", str(mask_file), "--window", "4,8"])
    )
    assert doc["ok"] is True


def test_contractivity_and_convergence(capsys, tmp_path):
    res = synthesize(delta_operator(1), LaurentPoly({0: F(1, 2), 1: F(1, 2)}))
    fac_file = tmp_path / "factor.json"
    fac_file.write_text(json.dumps(res.factorization.factor.to_json()))
    out = run_ok(capsys, ["contractivity", "--mask", str(fac_file), "--n-max", "4"])
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["contractivity"]["contractive"] is True
    mask_file = tmp_path / "mask.json"
    mask_file.write_text(json.dumps(res.mask.to_json()))
    out = run_ok(capsys, ["check-convergence", "--mask", str(mask_file)])
    doc = json.loads(out)
    assert doc["ok"] is True


def test_convergence_taylor_pairing(capsys, tmp_path):
    fam = TaylorOperator(w=((F(1),), (F(1, 2), F(1))))
    res = synthesize(fam, LaurentPoly({0: F(1, 2), 1: F(1, 2)}))
    mask_file = tmp_path / "mask.json"
    op_file = tmp_path / "op.json"
    mask_file.write_text(json.dumps(res.mask.to_json()))
    op_file.write_text(json.dumps(fam.to_json()))
    out = run_ok(
        capsys,
        ["check-convergence", "--mask", str(mask_file), "--taylor", str(op_file)],
    )
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["convergence"]["residuals_below_tol"] is True


def test_spline_verify_command(capsys):
    out = run_ok(capsys, ["spline", "--r", "4", "--d", "3", "--verify"])
    doc = json.loads(out)
    assert doc["report"]["spectral_ok"] is True
    assert doc["report"]["classical_spectral_holds"] is False


def test_spline_verify_builds_the_scheme_once(capsys, monkeypatch):
    # The printed and the verified scheme are the one shared preset per
    # (r, d): fresh presets over counting builders see one build each, and
    # none on a second run.
    from hermiteforge import splines

    built = []
    for name in ("spline_mask", "spline_chain"):
        make = getattr(splines, name).__wrapped__

        def counting(r, d, make=make, name=name):
            built.append(name)
            return make(r, d)

        preset = splines._preset(counting)
        monkeypatch.setattr(splines, name, preset)
        monkeypatch.setattr(cli, name, preset)
    run_ok(capsys, ["spline", "--r", "2", "--d", "1", "--verify"])
    run_ok(capsys, ["spline", "--r", "2", "--d", "1", "--verify"])
    assert sorted(built) == ["spline_chain", "spline_mask"]


def test_identity_tests_seeded(capsys):
    out = run_ok(capsys, ["identity-tests", "--seed", "0"])
    doc = json.loads(out)
    assert doc["ok"] is True


@pytest.mark.parametrize("j, l", [(0, 0), (1, 0)])
def test_identity_tests_fail_on_a_wrong_inverse_numerator(j, l, capsys, monkeypatch):
    # Entry (j, l) off by 1/3 at z = 1: on or above the diagonal it should
    # read 1 there, below it 0.
    right = TaylorOperator.symbol_inverse.func

    def wrong(op):
        rows = [list(row) for row in right(op)]
        rows[j][l] = rows[j][l] + LaurentPoly({-1: F(1, 3)})
        return tuple(map(tuple, rows))

    monkeypatch.setattr(TaylorOperator, "symbol_inverse", property(wrong))
    assert run(["identity-tests", "--seed", "3", "--polys", "1"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["checks"]["inverse_numerators_at_one"]["ok"] is False
    assert doc["checks"]["difference_split"]["ok"] is True


def test_a_deep_exact_grid_is_written_as_json(capsys, tmp_path):
    # The grid whose CSV is refused has exact JSON.
    grid = _deep_delta_grid(tmp_path, "exact")
    argv = ["cascade", "--mask", "spline:r=3,d=2", "--init", str(grid), "--levels", "1", "--exact"]
    doc = json.loads(run_ok(capsys, [*argv, "--format", "json"]))
    assert doc["ok"] is True
    assert doc["grid"]["level"] == 601 and doc["grid"]["kind"] == "exact"


def test_unknown_file_is_malformed(capsys, tmp_path):
    assert run(["factor", "--mask", str(tmp_path / "missing.json"), "--chain", "delta:d=2"]) == 2


def test_malformed_json_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["annihilate", "--vec", str(bad)]) == 2


def test_byte_determinism_subprocess(tmp_path):
    argv = [
        sys.executable,
        "-m",
        "hermiteforge.cli",
        "construct",
        "--taylor",
        "delta:d=2",
        "--hdd",
        "(z+1)/2",
        "--g",
        "1,0:1",
    ]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout


def test_n_max_defaults_to_eight_whatever_the_environment(capsys, tmp_path, monkeypatch):
    # --n-max is the only way to set the bound; the environment leaves it
    # at its default, whatever the variable holds.
    res = synthesize(delta_operator(2), LaurentPoly({0: F(1, 2), 1: F(1, 2)}))
    fac_file = tmp_path / "factor.json"
    fac_file.write_text(json.dumps(res.factorization.factor.to_json()))
    argv = ["contractivity", "--mask", str(fac_file)]
    for value in ("6", "zero"):
        monkeypatch.setenv("HERMITE_FORGE_NMAX", value)
        doc = json.loads(run_ok(capsys, argv))
        assert doc["contractivity"]["n_max"] == 8
    doc = json.loads(run_ok(capsys, [*argv, "--n-max", "6"]))
    assert doc["contractivity"]["n_max"] == 6


def _deep_delta_grid(tmp_path, kind):
    """A 9-column delta grid of size 3 at level 600, written as JSON."""
    values = [["1", "0", "0"] if n == 4 else ["0", "0", "0"] for n in range(9)]
    grid = tmp_path / "deep.json"
    grid.write_text(json.dumps({"level": 600, "start": -4, "kind": kind, "values": values}))
    return grid


def _malformed_argv(case, tmp_path):
    hat = tmp_path / "hat.json"
    hat.write_text(json.dumps(spline_mask(1, 1).to_json()))
    if case == "zero-denominator":
        mask = mask_from_entries(REF2_MASK, 2).to_json()
        mask["coeffs"][0][0][0] = "1/0"
        bad = tmp_path / "zero_den.json"
        bad.write_text(json.dumps(mask))
        return ["verify-spectral", "--mask", str(bad), "--chain", "delta:d=2"]
    if case == "zero-scale":
        ref2 = tmp_path / "ref2.json"
        ref2.write_text(json.dumps(mask_from_entries(REF2_MASK, 2).to_json()))
        # The "=" form, which also carries negative scales past argparse.
        return ["factor", "--mask", str(ref2), "--chain", "delta:d=2", "--scale=0"]
    if case == "g-outside-lower-triangle":
        return ["construct", "--taylor", "delta:d=2", "--hdd", "(z+1)/2", "--g", "0,1:1"]
    if case == "recurrence-for-classical":
        # The recurrence needs all strict-upper weights zero.
        return ["construct", "--taylor", "classical:d=2", "--hdd", "(z+1)/2", "--strategy", "recurrence"]
    if case in ("seed-not-an-object", "seed-a-number"):
        bad = tmp_path / "seed.json"
        bad.write_text("[1, 2]" if case == "seed-not-an-object" else "3")
        return ["construct", "--taylor", "delta:d=2", "--hdd-file", str(bad)]
    if case == "grid-not-an-object":
        bad = tmp_path / "grid_list.json"
        bad.write_text("[]")
        return ["cascade", "--mask", str(hat), "--init", str(bad)]
    if case in ("grid-too-small", "grid-without-values"):
        # A grid without "kind" is exact, so it is refined with --exact.
        values = [["1", "0"]] if case == "grid-too-small" else []
        bad = tmp_path / "grid.json"
        bad.write_text(json.dumps({"level": 0, "start": 0, "values": values}))
        return ["cascade", "--mask", str(hat), "--init", str(bad), "--exact"]
    if case in ("float-grid-with-exact", "exact-grid-without-exact"):
        kind = "float" if case == "float-grid-with-exact" else "exact"
        values = [["1", "0"] if n == 4 else ["0", "0"] for n in range(9)]
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"level": 0, "start": -4, "kind": kind, "values": values}))
        flags = ["--exact"] if kind == "float" else []
        return ["cascade", "--mask", str(hat), "--init", str(grid), *flags]
    if case == "misspelt-grid-kind":
        values = [["1", "0"] if n == 4 else ["0", "0"] for n in range(9)]
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"level": 0, "start": -4, "kind": "exakt", "values": values}))
        return ["cascade", "--mask", str(hat), "--init", str(grid)]
    if case in ("constant-outside-operator", "constant-k-above-j"):
        # Free constants exist for 1 <= k <= j <= d only.
        key = "5,1" if case == "constant-outside-operator" else "1,2"
        return ["chain", "--taylor", "delta:d=2", "--constant", f"{key}:3"]
    if case == "deeply-nested-json":
        bad = tmp_path / "nested.json"
        bad.write_text("[" * 100_000 + "]" * 100_000)
        return ["contractivity", "--mask", str(bad)]
    if case == "fractional-d":
        doc = Mask(0, (((F(1, 2),),), ((F(1),),), ((F(1, 2),),))).to_json()
        doc.update(d=0.9, support_min=0.7)
        bad = tmp_path / "fractional.json"
        bad.write_text(json.dumps(doc))
        return ["contractivity", "--mask", str(bad)]
    if case == "complete-as-string":
        bad = tmp_path / "op.json"
        bad.write_text(json.dumps(dict(classical_operator(2).to_json(), complete="false")))
        return ["chain", "--taylor", str(bad)]
    if case == "negative-preset-size":
        return ["chain", "--taylor", "delta:d=-1"]
    if case == "empty-chain":
        bad = tmp_path / "empty_chain.json"
        bad.write_text(json.dumps({"d": -1, "vecs": []}))
        return ["annihilate", "--chain", str(bad)]
    if case.startswith("tower-not-a-chain-"):
        # Vector 1 lives in V_0, so the file is no chain of dimension 2.
        v0 = {"d": 0, "components": [["1"]]}
        bad = tmp_path / "tower.json"
        bad.write_text(json.dumps({"d": 1, "vecs": [v0, v0]}))
        command = case.removeprefix("tower-not-a-chain-")
        if command == "annihilate":
            return ["annihilate", "--chain", str(bad)]
        return [command, "--mask", str(hat), "--chain", str(bad)]
    # A string in place of a JSON array would be read one character per entry.
    if case == "operator-rows-as-strings":
        bad = tmp_path / "op.json"
        bad.write_text(json.dumps({"d": 2, "complete": True, "w": ["1", "21"]}))
        return ["chain", "--taylor", str(bad)]
    if case == "mask-rows-as-strings":
        bad = tmp_path / "mask.json"
        bad.write_text(json.dumps({"d": 1, "support_min": 0, "coeffs": [["10", "01"]]}))
        return ["contractivity", "--mask", str(bad)]
    if case == "components-as-strings":
        bad = tmp_path / "vec.json"
        bad.write_text(json.dumps({"d": 1, "components": ["1", "01"]}))
        return ["annihilate", "--vec", str(bad)]
    if case == "grid-columns-as-strings":
        values = ["10" if n == 4 else "00" for n in range(9)]
        bad = tmp_path / "grid.json"
        bad.write_text(json.dumps({"level": 0, "start": -4, "values": values}))
        return ["cascade", "--mask", str(hat), "--init", str(bad), "--exact"]
    if case.startswith("seed-key-"):
        # int() alone reads each of these keys as 1, giving the seed (z+1)/2.
        key = {"seed-key-padded": "01", "seed-key-signed": "+1", "seed-key-spaced": " 1"}[case]
        bad = tmp_path / "seed.json"
        bad.write_text(json.dumps({"0": "1/2", key: "1/2"}))
        return ["construct", "--taylor", "delta:d=2", "--hdd-file", str(bad)]
    if case == "repeated-operator-key":
        return ["chain", "--taylor", "delta:d=1,d=2"]
    if case == "repeated-spline-key":
        return ["verify-spectral", "--mask", "spline:r=2,d=1,r=3", "--chain", "spline:r=2,d=1"]
    if case == "nan-ratio-bound":
        return ["check-convergence", "--mask", str(hat), "--ratio-bound", "nan"]
    if case == "nan-residual-tol":
        return ["check-convergence", "--mask", str(hat), "--residual-tol", "nan"]
    if case == "spline-order-zero":
        return ["spline", "--r", "0", "--d", "0"]
    if case == "spline-preset-order-zero":
        return ["contractivity", "--mask", "spline:r=0,d=0"]
    if case == "max-degree-above-max-n":
        return ["identity-tests", "--max-degree", "12", "--max-n", "3", "--seed", "1", "--polys", "5"]
    # Fraction() alone would read each of these rationals: the mask entry 1/8
    # in Arabic-Indic digits, the constant as 10/4 and the scale as 1/4.
    if case == "mask-entry-arabic-indic":
        mask = mask_from_entries(REF2_MASK, 2).to_json()
        assert mask["coeffs"][0][2][0] == "1/8"
        mask["coeffs"][0][2][0] = "\u0661/\u0668"
        bad = tmp_path / "arabic_indic.json"
        bad.write_text(json.dumps(mask))
        return ["factor", "--mask", str(bad), "--chain", "delta:d=2"]
    if case == "constant-value-underscored":
        return ["chain", "--taylor", "delta:d=2", "--constant", "1,1:1_0/4"]
    if case == "scale-signed":
        ref2 = tmp_path / "ref2.json"
        ref2.write_text(json.dumps(mask_from_entries(REF2_MASK, 2).to_json()))
        return ["factor", "--mask", str(ref2), "--chain", "delta:d=2", "--scale=+1/4"]
    # int() alone would read each of these integers, and str.isdigit "\u00b2".
    if case.startswith("preset-size-"):
        size = {"preset-size-underscored": "0_2", "preset-size-spaced-sign": " +2"}[case]
        return ["chain", "--taylor", f"delta:d={size}"]
    if case == "window-signed":
        return ["cascade", "--mask", str(hat), "--window=-1,+1"]
    if case == "g-index-underscored":
        return ["construct", "--taylor", "delta:d=2", "--hdd", "(z+1)/2", "--g", "0_1,0:1"]
    if case == "constant-index-underscored":
        return ["chain", "--taylor", "delta:d=2", "--constant", "0_1,1:1"]
    if case == "n-max-arabic-indic":
        return ["contractivity", "--mask", str(hat), "--n-max", "\u0663"]
    if case == "superscript-exponent":
        return ["construct", "--taylor", "delta:d=2", "--hdd", "z^\u00b2"]
    if case == "double-dash-value":
        # argparse (Python 3.11) reads "--window=--" as an empty list.
        return ["cascade", "--mask", str(hat), "--window=--"]
    if case == "hdd-padded-coefficient":
        return ["construct", "--taylor", "delta:d=2", "--hdd", "04*z"]
    # float() alone would read the grid value "1_0" as 10.0 and the JSON
    # number 1.5 as itself, and argparse's float the bound "0_9" as 9.0.
    if case in ("float-grid-value-underscored", "float-grid-value-a-number"):
        one = "1_0" if case == "float-grid-value-underscored" else 1.5
        values = [[one, "0"] if n == 4 else ["0", "0"] for n in range(9)]
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"level": 0, "start": -4, "kind": "float", "values": values}))
        return ["cascade", "--mask", str(hat), "--init", str(grid)]
    if case == "ratio-bound-underscored":
        return ["check-convergence", "--mask", str(hat), "--ratio-bound", "0_9"]
    if case.startswith("grid-too-deep-"):
        # At level 600 the cubic spline scheme's level mask and the exact
        # grid's values pass the float range.
        kind = case.removeprefix("grid-too-deep-")
        grid = _deep_delta_grid(tmp_path, kind)
        flags = ["--exact"] if kind == "exact" else []
        return ["cascade", "--mask", "spline:r=3,d=2", "--init", str(grid), "--levels", "1", *flags]
    if case.startswith("negative-grid-level-"):
        kind = case.removeprefix("negative-grid-level-")
        values = [["1", "0"] if n == 4 else ["0", "0"] for n in range(9)]
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"level": -2, "start": -4, "kind": kind, "values": values}))
        flags = ["--exact"] if kind == "exact" else []
        return ["cascade", "--mask", str(hat), "--init", str(grid), *flags]
    flag, value = {
        "no-polys": ("--polys", "-3"),
        "no-max-n": ("--max-n", "0"),
        "negative-max-degree": ("--max-degree", "-1"),
    }[case]
    return ["identity-tests", flag, value]


_RETIRED_IDENTITY_FLAGS = ("no-max-n", "negative-max-degree", "max-degree-above-max-n")


@pytest.mark.parametrize(
    "case",
    [
        "zero-denominator",
        "zero-scale",
        "g-outside-lower-triangle",
        "recurrence-for-classical",
        "seed-not-an-object",
        "seed-a-number",
        "deeply-nested-json",
        "fractional-d",
        "complete-as-string",
        "grid-not-an-object",
        "grid-too-small",
        "grid-without-values",
        "float-grid-with-exact",
        "exact-grid-without-exact",
        "misspelt-grid-kind",
        "constant-outside-operator",
        "constant-k-above-j",
        "negative-preset-size",
        "empty-chain",
        "operator-rows-as-strings",
        "mask-rows-as-strings",
        "components-as-strings",
        "grid-columns-as-strings",
        "seed-key-padded",
        "seed-key-signed",
        "seed-key-spaced",
        "tower-not-a-chain-factor",
        "tower-not-a-chain-verify-spectral",
        "tower-not-a-chain-annihilate",
        "repeated-operator-key",
        "repeated-spline-key",
        "nan-ratio-bound",
        "nan-residual-tol",
        "spline-order-zero",
        "spline-preset-order-zero",
        "no-polys",
        "no-max-n",
        "negative-max-degree",
        "max-degree-above-max-n",
        "preset-size-underscored",
        "preset-size-spaced-sign",
        "window-signed",
        "g-index-underscored",
        "constant-index-underscored",
        "n-max-arabic-indic",
        "superscript-exponent",
        "double-dash-value",
        "mask-entry-arabic-indic",
        "constant-value-underscored",
        "scale-signed",
        "hdd-padded-coefficient",
        "float-grid-value-underscored",
        "float-grid-value-a-number",
        "ratio-bound-underscored",
        "negative-grid-level-exact",
        "negative-grid-level-float",
        "grid-too-deep-float",
        "grid-too-deep-exact",
    ],
)
def test_malformed_input_exits_two(case, capsys, tmp_path):
    argv = _malformed_argv(case, tmp_path)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if case == "n-max-arabic-indic":
        # argparse's own refusal: its usage, then "<prog>: error: <reason>".
        assert captured.err.startswith("usage:")
        assert captured.err.endswith(": error: argument --n-max: invalid int value: '\u0663'\n")
    elif case == "ratio-bound-underscored":
        assert captured.err.startswith("usage:")
        assert captured.err.endswith(": error: argument --ratio-bound: invalid float value: '0_9'\n")
    elif case in _RETIRED_IDENTITY_FLAGS:
        # identity-tests has no --max-n or --max-degree: argparse refuses them.
        assert captured.err.startswith("usage:")
        assert ": error: unrecognized arguments: " in captured.err
    else:
        assert captured.err.startswith("error:")
    if argv[0] == "identity-tests":
        assert argv[1] in captured.err
    if case == "max-degree-above-max-n":
        assert "--max-n" in captured.err
    if case in ("mask-entry-arabic-indic", "constant-value-underscored", "scale-signed"):
        assert "must be an integer in plain decimal" in captured.err
    if case == "grid-too-small":
        assert "too small" in captured.err
    if case.startswith("seed-"):
        assert captured.err.startswith("error: seed polynomial: ")
    if case in ("float-grid-with-exact", "exact-grid-without-exact"):
        assert "--exact" in captured.err
    if case == "misspelt-grid-kind":
        assert "'exakt'" in captured.err
    if case in ("constant-outside-operator", "constant-k-above-j"):
        assert "outside 1 <= k <= j <= 2" in captured.err
    if case == "empty-chain":
        assert "at least the vector v_0" in captured.err
    if case.endswith("-as-strings"):
        assert "must be a JSON array, got str" in captured.err
    if case.startswith("tower-not-a-chain-"):
        assert captured.err == f"error: {tmp_path / 'tower.json'}: vector 1 lives in V_0, expected V_1\n"
    if case.startswith("repeated-"):
        assert "is given twice" in captured.err
    if case.startswith("preset-size-"):
        assert captured.err == f"error: preset {argv[2]!r}: {argv[2][8:]!r} is not an integer\n"
    if case == "window-signed":
        assert captured.err == "error: window must be 'a,b' with integers, got '-1,+1'\n"
    if case.endswith("-index-underscored"):
        flag = argv[-2]
        assert captured.err == f"error: {flag} expects integer 'j,k', got {argv[-1][:5]!r}\n"
    if case == "superscript-exponent":
        assert captured.err == "error: inline polynomial, position 2: expected a number\n"
    if case == "double-dash-value":
        assert captured.err == "error: an option was given '--' as its value\n"
    if case == "hdd-padded-coefficient":
        assert captured.err == (
            "error: inline polynomial, position 0: "
            "a number must be an integer in plain decimal, got '04'\n"
        )
    if case.startswith("float-grid-value-"):
        assert "a float must be plain decimal digits, inf or nan" in captured.err
    if case.startswith("negative-grid-level-"):
        grid = tmp_path / "grid.json"
        assert captured.err == f"error: {grid}: a grid level must be nonnegative, got -2\n"
    if case == "grid-too-deep-float":
        assert captured.err == (
            "error: level 600 is too deep for float rows: "
            "a coefficient of the level mask is beyond the float range\n"
        )
    if case == "grid-too-deep-exact":
        # The exact cascade runs; its CSV cannot round the values.
        assert captured.err == "error: the level-601 grid has a value beyond the float range\n"
    if case.startswith("spline-"):
        # A library refusal, with no prefix of its own.
        assert captured.err == "error: spline degree must be at least 1, got r=0\n"
