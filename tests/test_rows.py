"""The pointwise row template and the helper processes that format large tables."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from caputodr import _rows, report
from caputodr.cli import main

EDGE = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5, np.nan, np.inf, -np.inf, 1e-15, -3e-15, 1.0 / 3.0]


def in_process(tmp_path, monkeypatch, *cols):
    monkeypatch.setattr(report, "PARALLEL_ROWS", 10**12)
    path = tmp_path / "serial.csv"
    assert report.write_pointwise_csv(path, *cols) == 0
    return path.read_bytes()


def with_helpers(tmp_path, monkeypatch, slices, *cols):
    monkeypatch.setattr(report, "PARALLEL_ROWS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(slices)))
    path = tmp_path / f"parallel{slices}.csv"
    assert report.write_pointwise_csv(path, *cols) == slices - 1
    return path.read_bytes()


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("slices", [1, 2, 3])
@pytest.mark.parametrize("rows", [7, 10, 11])
def test_helpers_write_the_in_process_bytes(tmp_path, monkeypatch, slices, rows):
    rng = np.random.default_rng(rows)
    t = np.linspace(0.0, 2.0, rows)
    approx = rng.standard_normal(rows)
    exact = approx + 1e-9 * rng.standard_normal(rows)
    for cols in ((t, approx, exact), (t, approx)):
        want = in_process(tmp_path, monkeypatch, *cols)
        assert with_helpers(tmp_path, monkeypatch, slices, *cols) == want
        assert want.count(b"\n") == rows + 1
    no_child_left()


@pytest.mark.parametrize("slices", [2, 3])
def test_edge_values(tmp_path, monkeypatch, slices):
    values = np.array(EDGE)
    t = np.arange(len(values)) * 0.125
    exact = values[::-1].copy()
    for cols in ((t, values, exact), (values, exact, values), (t, values)):
        want = in_process(tmp_path, monkeypatch, *cols)
        assert with_helpers(tmp_path, monkeypatch, slices, *cols) == want
    assert want.decode().splitlines()[1:4] == ["0.0,-0.0,,,", "0.125,0.0,,,", "0.25,5e-324,,,"]
    rows = with_helpers(tmp_path, monkeypatch, slices, t, values, exact).decode().splitlines()[1:]
    assert rows[0] == "0.0,-0.0,0.3333333333333333,0.3333333333333333,1.0"
    # |exact| below the floor leaves rel_err blank; nan and inf go through repr
    assert rows[1] == "0.125,0.0,-3e-15,3e-15,"
    assert rows[3] == "0.375,-5e-324,-inf,inf,nan"
    assert rows[5] == "0.625,1e-05,nan,nan,nan"
    assert rows[7] == "0.875,inf,1e+16,inf,inf"
    assert rows[11] == "1.375,0.3333333333333333,-0.0,0.3333333333333333,"
    no_child_left()


def deriv(tmp_path, name):
    argv = ["deriv", "--case", "cubic", "--N", "4", "--n", "201", "--out", str(tmp_path / name)]
    return main(argv)


def test_cli_records_helpers(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(report, "PARALLEL_ROWS", 201)
    assert deriv(tmp_path, "par") == 0
    monkeypatch.setattr(report, "PARALLEL_ROWS", 202)
    assert deriv(tmp_path, "ser") == 0
    assert (tmp_path / "par_pointwise.csv").read_bytes() == (tmp_path / "ser_pointwise.csv").read_bytes()
    par = json.loads((tmp_path / "par.meta.json").read_text())
    ser = json.loads((tmp_path / "ser.meta.json").read_text())
    assert (par["csv_helpers"], ser["csv_helpers"]) == (1, 0)
    assert par["csv_write_s"] > 0.0 and ser["csv_write_s"] > 0.0
    assert "csv" not in (tmp_path / "par_pointwise.csv").read_text().splitlines()[0]
    no_child_left()


@pytest.mark.parametrize("how", ["no executable", "not a file"])
def test_formats_in_process_when_no_helper_can_start(tmp_path, monkeypatch, how):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(report, "PARALLEL_ROWS", 1)
    if how == "no executable":
        monkeypatch.setattr(sys, "executable", "")
    else:
        monkeypatch.setattr(_rows, "__file__", str(tmp_path))
    assert deriv(tmp_path, "x") == 0
    assert json.loads((tmp_path / "x.meta.json").read_text())["csv_helpers"] == 0
    monkeypatch.undo()
    monkeypatch.setattr(report, "PARALLEL_ROWS", 10**12)
    assert deriv(tmp_path, "ref") == 0
    assert (tmp_path / "x_pointwise.csv").read_bytes() == (tmp_path / "ref_pointwise.csv").read_bytes()


@pytest.mark.parametrize(
    "script,message",
    [
        ("import sys\nsys.stdin.buffer.read()\nsys.exit('helper broke')\n", "exited 1 with 0 bytes for 101 rows: 'helper broke'"),
        ("import sys\nsys.exit('died before reading')\n", "exited 1 with 0 bytes for 101 rows: 'died before reading'"),
        ("import sys\nsys.stdin.buffer.read()\nprint('1,2,,,')\n", "exited 0 with 7 bytes for 101 rows: ''"),
    ],
)
def test_failing_helper_is_an_error(tmp_path, monkeypatch, capsys, script, message):
    helper = tmp_path / "helper.py"
    helper.write_text(script)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(report, "PARALLEL_ROWS", 1)
    monkeypatch.setattr(_rows, "__file__", str(helper))
    assert deriv(tmp_path, "bad") == 1
    assert capsys.readouterr().err == f"error: pointwise row helper {message}\n"
    no_child_left()


def test_helper_script_needs_no_numpy():
    # the helper is started with -I -S and must not import numpy or caputodr
    script = (
        "import runpy, sys\n"
        "sys.modules['numpy'] = sys.modules['caputodr'] = None\n"
        f"sys.argv = [{_rows.__file__!r}, '3']\n"
        f"runpy.run_path({_rows.__file__!r}, run_name='__main__')\n"
    )
    cols = np.array([[0.0, 0.5], [-0.0, 5e-324], [1e-15, 2.0]])
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", script], input=cols.tobytes(), capture_output=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.decode() == "".join(_rows.rows(*cols.tolist()))
    assert done.stdout.decode().splitlines() == ["0.0,-0.0,1e-15,1e-15,", "0.5,5e-324,2.0,2.0,1.0"]


def test_cli_import_leaves_subprocess_unloaded():
    # subprocess is imported only when a table is large enough for helpers
    src = os.path.dirname(os.path.dirname(os.path.abspath(report.__file__)))
    script = "import sys, caputodr.cli\nprint('subprocess' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_helper_dying_before_a_large_input_is_an_error(tmp_path, monkeypatch):
    # 3 x 10,000 doubles overfill the pipe, so feeding the dead helper breaks it
    helper = tmp_path / "helper.py"
    helper.write_text("import sys\nsys.exit('died before reading')\n")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(report, "PARALLEL_ROWS", 1)
    monkeypatch.setattr(_rows, "__file__", str(helper))
    t = np.linspace(0.0, 1.0, 20_000)
    with pytest.raises(RuntimeError, match="exited 1 with 0 bytes for 10000 rows: 'died before reading'"):
        report.write_pointwise_csv(tmp_path / "p.csv", t, t, t)
    no_child_left()


def test_helpers_capped_by_table_size(tmp_path, monkeypatch):
    # each slice keeps at least PARALLEL_ROWS // 2 rows: 64 CPUs start one helper for 20,000 rows
    t = np.linspace(0.0, 1.0, report.PARALLEL_ROWS)
    want = in_process(tmp_path, monkeypatch, t, t * t, t)
    monkeypatch.undo()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    path = tmp_path / "p.csv"
    assert report.write_pointwise_csv(path, t, t * t, t) == 1
    assert path.read_bytes() == want
    no_child_left()


def test_table_fields_are_reprs(tmp_path):
    path = tmp_path / "t.csv"
    _rows.write_table(path, {"N": [1, 20], "a": [-0.0, 5e-324], "b": [float("nan"), float("-inf")]})
    assert path.read_text() == "N,a,b\n1,-0.0,nan\n20,5e-324,-inf\n"
    with pytest.raises(ValueError):
        _rows.write_table(path, {"N": [1, 2], "a": [0.5]})


def test_sweep_table_takes_numpy_values(tmp_path):
    # numpy scalars are written as the Python numbers they hold
    report.write_sweep_csv(tmp_path / "np.csv", np.array([10, 20]), {"E_x": np.array([0.1, 1e-300])})
    report.write_sweep_csv(tmp_path / "py.csv", [10, 20], {"E_x": [0.1, 1e-300]})
    assert (tmp_path / "np.csv").read_text() == (tmp_path / "py.csv").read_text() == "N,E_x\n10,0.1\n20,1e-300\n"
