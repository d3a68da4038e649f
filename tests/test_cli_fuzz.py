"""The CLI contract on random input: run() returns 0, 1 or 2 and never raises
for random small JSON files (valid documents with random parts replaced, or
wholly random) and random inline text from the grammar's alphabet.

Every size stays small: operator presets have d <= 4, --levels and --n-max
are at most 3, and no digit run in generated text is longer than one
digit, so no exponent, window or preset size can grow the cost."""

import copy
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermiteforge import (
    DyadicGrid,
    LaurentPoly,
    chain_for,
    classical_operator,
    delta_operator,
    spline_mask,
)
from hermiteforge.cli import run
from reference_kernels import newton_vector

BASES = {
    "taylor": classical_operator(2).to_json(),
    "chain": chain_for(delta_operator(2)).to_json(),
    "mask": spline_mask(2, 1).to_json(),
    "vec": newton_vector(2).to_json(),
    "grid": DyadicGrid(0, -2, tuple((1, 0) if n == 2 else (0, 0) for n in range(5))).to_json(),
    "seed": LaurentPoly({0: F(1, 2), 1: F(1, 2)}).to_json(),
}


def _short(alphabet: str, max_size: int):
    """Text over the alphabet with every digit run cut to its first digit."""
    return st.text(alphabet=alphabet, max_size=max_size).map(lambda t: re.sub(r"(\d)\d+", r"\1", t))


LEAVES = st.one_of(
    st.sampled_from([None, True, False, -1, 0, 1, 2, 5, 0.5, float("nan"), "exact", "float"]),
    _short("0123456789/-.z+ ", 4),
)
KEYS = st.sampled_from(
    ["d", "w", "complete", "coeffs", "support_min", "vecs", "components", "level", "start",
     "values", "kind", "0", "1", "-1"]
)
JSON_VALUES = st.one_of(
    LEAVES, st.lists(LEAVES, max_size=3), st.dictionaries(KEYS, LEAVES, max_size=3)
)


def _mutate(draw, doc):
    """doc with one part, or the whole of it, replaced by a random value."""
    if isinstance(doc, (list, dict)) and doc and draw(st.booleans()):
        key = draw(st.sampled_from(range(len(doc)) if isinstance(doc, list) else sorted(doc)))
        doc[key] = _mutate(draw, doc[key])
        return doc
    return draw(JSON_VALUES)


def _mostly(valid: list, junk):
    """A valid value two draws in three, else junk."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(valid), junk)


# Preset sizes up to 4, or forms that int() alone would read.
SIZES = _mostly(["0", "1", "2", "3", "4"], st.sampled_from(["-1", "+2", "02", "0_2", " 2", "x", ""]))
POLY_TEXT = _mostly(
    ["(z+1)/2", "(1+z)^3/8", "z", "1", "(z+1)^2/4", "1/2+1/2*z^2"],
    _short("z0123456789+-*/^() ", 8),
)
SPLINE = _mostly(
    ["r=1,d=0", "r=1,d=1", "r=2,d=1", "r=3,d=2", "r=4,d=3", "r=2,d=2"],
    st.builds("r={},d={}".format, SIZES, SIZES),
)
INDEX = _mostly(["1,0", "2,0", "2,1", "1,1", "2,2"], _short("0123456789,- ", 4))
WINDOW = _mostly(["-4,4", "-2,3", "0,2", "4,8"], _short("0123456789,-+ _", 5))


@st.composite
def command_lines(draw, path):
    """(argv, the JSON document at path): every file argument reads path,
    which holds a valid document of the first kind asked for, with up to two
    parts replaced by random values."""
    kinds = []

    def file(kind):
        kinds.append(kind)
        return path

    def spec(kind, names):
        name = draw(st.sampled_from(names))
        if name == "spline":
            preset = f"spline:{draw(SPLINE)}"
        else:
            preset = f"{name}:d={draw(SIZES)}"
        form = draw(st.sampled_from(["file", "preset", "preset", "preset", "bare", "repeated"]))
        if form == "file":
            return file(kind)
        return {"preset": preset, "bare": name, "repeated": f"{preset},d=1"}[form]

    operator = lambda: spec("taylor", ["delta", "classical", "allones", "bogus"])
    mask = lambda: spec("mask", ["spline"])
    chain = lambda: spec("chain", ["delta", "classical", "allones", "spline"])
    small = lambda: str(draw(st.integers(min_value=-1, max_value=3)))
    levels = lambda: draw(_mostly(["3"], st.sampled_from(["-1", "0", "1", "2"])))
    pairs = lambda: f"{draw(INDEX)}:{draw(POLY_TEXT)}"

    cmd = draw(
        st.sampled_from(
            ["annihilate", "chain", "verify-spectral", "factor", "construct", "contractivity",
             "cascade", "check-convergence", "spline", "identity-tests"]
        )
    )
    argv = [cmd]
    if cmd == "annihilate":
        argv += ["--vec", file("vec")] if draw(st.booleans()) else ["--chain", chain()]
    elif cmd == "chain":
        argv += ["--taylor", operator()]
        if draw(st.booleans()):
            argv += ["--constant", pairs()]
    elif cmd in ("verify-spectral", "factor"):
        argv += ["--mask", mask(), "--chain", chain()]
        if cmd == "factor" and draw(st.booleans()):
            argv += [f"--scale={draw(_short('0123456789/-', 4))}"]
    elif cmd == "construct":
        argv += ["--taylor", operator()]
        argv += ["--hdd", draw(POLY_TEXT)] if draw(st.booleans()) else ["--hdd-file", file("seed")]
        if draw(st.booleans()):
            argv += ["--g", pairs()]
        argv += ["--strategy", draw(st.sampled_from(["auto", "system", "recurrence"]))]
    elif cmd == "contractivity":
        argv += ["--mask", mask(), "--n-max", small()]
    elif cmd in ("cascade", "check-convergence"):
        argv += ["--mask", mask(), "--levels", levels()]
        argv += [f"--window={draw(WINDOW)}"]
        if cmd == "cascade":
            if draw(st.booleans()):
                argv += ["--init", file("grid")]
            argv += draw(st.sampled_from([[], ["--exact"], ["--format", "json"]]))
        elif draw(st.booleans()):
            argv += ["--taylor", operator()]
    elif cmd == "spline":
        r, d = (part.partition("=")[2] for part in draw(SPLINE).split(",", 1))
        argv += ["--r", r, "--d", d]
        if draw(st.booleans()):
            argv += ["--verify"]
    else:
        argv += ["--polys", small()]
    doc = copy.deepcopy(BASES[kinds[0] if kinds else "seed"])
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        doc = _mutate(draw, doc)
    return argv, doc


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "in.json")


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_run_returns_a_documented_code_and_never_raises(doc_path, data):
    argv, doc = data.draw(command_lines(doc_path), label="argv, file")
    with open(doc_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), err.getvalue()
    if code == 2:
        assert "error:" in err.getvalue()
