"""The CLI's bytes, pinned: exit code, stdout, stderr and every --out file of a
fixed list of invocations, compared with digests of a reference tree.

A digest is the first 16 hex digits of the sha256 of the bytes. Each run
starts in its own directory, so file names in messages are the same on every
machine. An intended change of output updates the table below and says so.
"""

import hashlib
import json

import pytest

from goldens import REF2_MASK, mask_from_entries
from hermiteforge import Mask
from hermiteforge.cli import run
from reference_kernels import newton_vector

# name -> (argv, --out files). Names in argv that are not flags or presets
# are files in the test's directory, written by _write_inputs.
INVOCATIONS = {
    # The README pipeline.
    "readme-construct": (
        ["construct", "--taylor", "delta:d=2", "--hdd", "(z+1)/2", "--g", "1,0:1", "--out", "bundle.json"],
        ["bundle.json"],
    ),
    "readme-factor": (["factor", "--mask", "mask.json", "--chain", "delta:d=2"], []),
    "readme-contractivity": (["contractivity", "--mask", "factor.json", "--n-max", "4"], []),
    "readme-check-convergence": (
        ["check-convergence", "--mask", "mask.json", "--levels", "8", "--taylor", "delta:d=2"],
        [],
    ),
    "readme-cascade-csv": (
        ["cascade", "--mask", "mask.json", "--levels", "6", "--format", "csv", "--out", "grid.csv"],
        ["grid.csv"],
    ),
    "readme-spline-verify": (["spline", "--r", "4", "--d", "3", "--verify"], []),
    # Checks that fail (exit 1).
    "factor-not-annihilated": (["factor", "--mask", "bent.json", "--chain", "delta:d=2"], []),
    "contractivity-fails": (["contractivity", "--mask", "spline:r=2,d=1", "--n-max", "2"], []),
    "verify-spectral-fails": (["verify-spectral", "--mask", "mask.json", "--chain", "classical:d=2"], []),
    "check-convergence-fails": (["check-convergence", "--mask", "moved.json", "--window", "4,8"], []),
    # Checks that pass, and plain outputs.
    "verify-spectral-passes": (["verify-spectral", "--mask", "spline:r=2,d=1", "--chain", "spline:r=2,d=1"], []),
    "contractivity-default-n-max": (["contractivity", "--mask", "factor.json"], []),
    "factor-other-scale": (["factor", "--mask", "mask.json", "--chain", "delta:d=2", "--scale", "1/2"], []),
    "cascade-json-exact": (
        ["cascade", "--mask", "spline:r=1,d=1", "--levels", "2", "--format", "json", "--exact"],
        [],
    ),
    "cascade-csv-stdout": (["cascade", "--mask", "spline:r=2,d=1", "--levels", "3"], []),
    "spline": (["spline", "--r", "2", "--d", "1"], []),
    "spline-verify": (["spline", "--r", "3", "--d", "2", "--verify", "--out", "spline.json"], ["spline.json"]),
    "identity-tests": (["identity-tests", "--seed", "3", "--polys", "10"], []),
    "chain-constant": (["chain", "--taylor", "classical:d=2", "--constant", "1,1:2", "--constant", "2,1:-1/3"], []),
    "annihilate-chain": (["annihilate", "--chain", "classical:d=3"], []),
    "annihilate-vec": (["annihilate", "--vec", "vec.json"], []),
    "construct-classical": (
        ["construct", "--taylor", "classical:d=3", "--hdd", "(z+1)/2", "--out", "classical.json"],
        ["classical.json"],
    ),
    "construct-system": (["construct", "--taylor", "delta:d=1", "--hdd", "z", "--strategy", "system"], []),
    # Malformed input (exit 2).
    "bad-seed": (["construct", "--taylor", "delta:d=1", "--hdd", "z+1"], []),
    "unparsable-seed": (["construct", "--taylor", "delta:d=1", "--hdd", "3z"], []),
    "dimension-mismatch": (["factor", "--mask", "mask.json", "--chain", "delta:d=1"], []),
    "negative-levels": (["cascade", "--mask", "mask.json", "--levels", "-1"], []),
    "missing-file": (["verify-spectral", "--mask", "absent.json", "--chain", "delta:d=2"], []),
    "out-unwritable": (["chain", "--taylor", "delta:d=1", "--out", "absent/chain.json"], []),
}

# name -> (exit code, stdout, stderr, {--out file: digest}).
EMPTY = "e3b0c44298fc1c14"  # no bytes at all
PINNED = {
    "annihilate-chain": (0, "ce309d5b1fe4ccce", EMPTY, {}),
    "annihilate-vec": (0, "4bea165ac541a442", EMPTY, {}),
    "bad-seed": (2, EMPTY, "02ee003a6b1b9a08", {}),
    "cascade-csv-stdout": (0, "62995e83e83275f4", EMPTY, {}),
    "cascade-json-exact": (0, "38ee7348f4ff6b69", EMPTY, {}),
    "chain-constant": (0, "db2259b5145c285d", EMPTY, {}),
    "check-convergence-fails": (1, "34662735839db2cf", EMPTY, {}),
    "construct-classical": (0, EMPTY, EMPTY, {"classical.json": "7411acd0410318c3"}),
    "construct-system": (0, "e7e207b5a7727efb", EMPTY, {}),
    "contractivity-default-n-max": (0, "8d0be54f60212408", EMPTY, {}),
    "contractivity-fails": (1, "a0ef308469bfe858", EMPTY, {}),
    "dimension-mismatch": (2, EMPTY, "a4051a646b5dcd52", {}),
    "factor-not-annihilated": (1, "1cc651e08141fe41", EMPTY, {}),
    "factor-other-scale": (0, "3ef7d51ff553a67a", EMPTY, {}),
    "identity-tests": (0, "9aeee64f1098ac8d", EMPTY, {}),
    "missing-file": (2, EMPTY, "faf3d0ac3fde6f1f", {}),
    "negative-levels": (2, EMPTY, "df6bd5e98f94c1b7", {}),
    "out-unwritable": (2, EMPTY, "11f19d6f792eb9a3", {}),
    "readme-cascade-csv": (0, EMPTY, EMPTY, {"grid.csv": "a188c82b0776c24b"}),
    "readme-check-convergence": (0, "07d1c71251be1424", EMPTY, {}),
    "readme-construct": (0, EMPTY, EMPTY, {"bundle.json": "9984b39211b9e5fa"}),
    "readme-contractivity": (0, "b83b7b86960227dd", EMPTY, {}),
    "readme-factor": (0, "f70bcbe852410a3d", EMPTY, {}),
    "readme-spline-verify": (0, "a48a92ac7069b412", EMPTY, {}),
    "spline": (0, "885cd727fea2fc9a", EMPTY, {}),
    "spline-verify": (0, EMPTY, EMPTY, {"spline.json": "a4231f1080cce9bd"}),
    "unparsable-seed": (2, EMPTY, "1a5b2771ffce38f2", {}),
    "verify-spectral-fails": (1, "5fa8389e9a51a3e6", EMPTY, {}),
    "verify-spectral-passes": (0, "49b71ab0557170cf", EMPTY, {}),
}


def _write_inputs(ref2, tmp_path):
    def dump(name, obj):
        (tmp_path / name).write_text(json.dumps(obj))

    dump("mask.json", ref2.mask.to_json())
    dump("factor.json", ref2.factorization.factor.to_json())
    bent = dict(REF2_MASK)
    bent[(0, 0, -4)] += 1
    dump("bent.json", mask_from_entries(bent, 2).to_json())
    dump("moved.json", Mask(5, (((3,),),)).to_json())
    dump("vec.json", newton_vector(2).to_json())


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run_pinned(name, ref2, tmp_path, capsys, monkeypatch):
    """(exit code, stdout, stderr, {--out file: digest}) of one invocation."""
    argv, outs = INVOCATIONS[name]
    _write_inputs(ref2, tmp_path)
    monkeypatch.chdir(tmp_path)
    code = run(argv)
    captured = capsys.readouterr()
    files = {f: _digest((tmp_path / f).read_bytes()) for f in outs}
    return code, _digest(captured.out.encode()), _digest(captured.err.encode()), files


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_cli_bytes_match_the_pinned_digests(name, ref2, tmp_path, capsys, monkeypatch):
    assert run_pinned(name, ref2, tmp_path, capsys, monkeypatch) == PINNED[name]
