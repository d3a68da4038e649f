"""Smoke tests: each script under scripts/ runs with small arguments and
prints (or writes) output of the documented shape."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def table_rows(out):
    return [line.split() for line in out.splitlines() if line and not line.startswith("-")]


def test_synthesize_family(capsys):
    assert load("synthesize_family").main(["--w21", "1/2", "--n", "1", "--levels", "4"]) == 0
    header, *rows = table_rows(capsys.readouterr().out)
    assert header == [
        "w21", "n", "h01", "h11", "h12", "strategy", "certificate", "tail", "residual"
    ]
    assert len(rows) == 1
    w21, n, *_, certificate, tail, residual = rows[0]
    assert (w21, n) == ("1/2", "1")
    assert certificate == "diagonal"
    assert 0 <= float(tail) and 0 <= float(residual)


def test_spline_error_table(capsys):
    assert load("spline_error_table").main(["--pairs", "1,1 2,1", "--levels", "4"]) == 0
    header, *rows = table_rows(capsys.readouterr().out)
    assert header == ["r", "d", "level", "max", "error", "ok", "secs"]
    assert [row[:3] for row in rows] == [["1", "1", "4"], ["2", "1", "4"]]
    assert float(rows[0][3]) == 0.0  # the hat function is exact on the grid
    assert all(row[4] in ("True", "False") for row in rows)


def test_render_limits(capsys, tmp_path):
    main = load("render_limits").main
    assert main(["--d", "1", "--levels", "3", "--out-dir", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [f"level{n:02d}.csv" for n in range(4)]
    assert len(lines) == 4
    for name, line in zip(names, lines):
        csv = (tmp_path / name).read_text().splitlines()
        assert csv[0] == "x,f0,f1"
        assert line.endswith(f"({len(csv) - 1} points)")
        assert all(len(row.split(",")) == 3 for row in csv[1:])


@pytest.mark.parametrize(
    "tol, message",
    [
        ("1_0", "argument --tol: invalid float value: '1_0'"),
        (" 1e-6 ", "argument --tol: invalid float value: ' 1e-6 '"),
        ("nan", "tol must be a nonnegative finite number, got nan"),
        ("-1e-6", "tol must be a nonnegative finite number, got -1e-06"),
    ],
)
def test_spline_error_table_refuses_a_bad_tol(tol, message, capsys):
    with pytest.raises(SystemExit) as exc:
        load("spline_error_table").main(["--pairs", "1,1", "--levels", "2", f"--tol={tol}"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("item", ["1:z", "1,0", "a,0:1"])
def test_render_limits_refuses_a_malformed_g(item, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        load("render_limits").main(["--d", "1", "--g", item, "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "j,k" in capsys.readouterr().err
    assert not tmp_path.joinpath("level00.csv").exists()


def test_render_limits_refuses_a_reversed_window(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        load("render_limits").main(["--d", "1", "--window", "4", "-4", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "window (4, -4) is reversed" in capsys.readouterr().err
    assert not tmp_path.joinpath("level00.csv").exists()


@pytest.mark.parametrize(
    "name, argv",
    [
        ("synthesize_family", ["--n", "0_1", "--levels", "4"]),
        ("spline_error_table", ["--pairs", "1,1", "--levels", " 4"]),
        ("render_limits", ["--d", "1", "--levels", "+3"]),
        # The integer parts of a rational too: Fraction() alone reads "1_0" as 10.
        ("synthesize_family", ["--w21", "1/2,1_0", "--n", "1", "--levels", "4"]),
    ],
)
def test_scripts_read_integers_like_the_cli(name, argv, capsys):
    # argparse refuses before anything runs or is written.
    with pytest.raises(SystemExit) as exc:
        load(name).main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    if argv[0] == "--w21":
        assert "argument --w21: invalid rational value: '1_0'" in err
    else:
        assert "invalid int value" in err
