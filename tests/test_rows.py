"""The CSV row format: ``report._write_table`` for small tables, and the numpy pointwise writer against ``repr``."""

import json
import os
import sys
import tempfile

import numpy as np
import pytest

from caputodr import report
from caputodr.cli import main

EDGE = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5, np.nan, np.inf, -np.inf, 1e-15, -3e-15, 1.0 / 3.0]
B = report.BLOCK_ROWS


def rows(t, approx, exact=None):
    """The slow reference: yield the pointwise rows of lists of floats, one ``repr`` per field."""
    if exact is None:
        for ti, ai in zip(t, approx):
            yield f"{ti!r},{ai!r},,,\n"
        return
    for ti, ai, ei in zip(t, approx, exact):
        ae = abs(ai - ei)
        rel = "" if abs(ei) < 1e-14 else repr(ae / abs(ei))
        yield f"{ti!r},{ai!r},{ei!r},{ae!r},{rel}\n"


def reference(*cols):
    return ("t,approx,exact,abs_err,rel_err\n" + "".join(rows(*(np.asarray(c).tolist() for c in cols)))).encode()


def written(*cols):
    """(bytes, values given to repr) of the pointwise writer."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.csv")
        slow = report.write_pointwise_csv(path, *cols)
        with open(path, "rb") as fh:
            return fh.read(), slow


def first_mismatch(got, want):
    return next(((g, w) for g, w in zip(got.splitlines(), want.splitlines()) if g != w), None)


def corpus(name, size, rng):
    if name == "uniform":
        return rng.random(size)
    if name == "grid":
        return np.arange(size) / (size - 1)
    if name == "normal":
        return rng.standard_normal(size) * 10.0 ** rng.integers(-20, 20, size)
    if name == "bits":  # every class of double: subnormals, nan, inf and both signs
        return rng.integers(-(2**63), 2**63, size, dtype=np.int64).view(np.float64)
    if name == "short":
        return rng.integers(-(10**6), 10**6, size) / 10.0 ** rng.integers(0, 9, size)
    if name == "integers":
        return np.concatenate([rng.integers(-(10**6), 10**6, size // 2), rng.integers(2**53, 2**62, size - size // 2)]).astype(float)
    # around powers of ten: each correctly rounded 10^k, and up to 40 ulps either side
    tens = np.array([float(f"1e{k}") for k in range(-320, 309)])
    base = tens[rng.integers(0, len(tens), size)]
    with np.errstate(over="ignore"):
        return base + rng.integers(-40, 41, size) * np.spacing(base)


CORPORA = ["uniform", "grid", "normal", "bits", "short", "integers", "powers_of_ten"]


@pytest.mark.parametrize("name", CORPORA)
def test_random_corpus_matches_repr(name):
    # 7 x 50,000 values and their two nextafter neighbours, 1.05 million values, and 700,000 errors
    # (the neighbours below in reverse order, so that abs_err and rel_err are not powers of two)
    rng = np.random.default_rng(CORPORA.index(name) + 101)
    values = corpus(name, 50_000, rng)
    with np.errstate(invalid="ignore"):  # nextafter of nan
        up, down = np.nextafter(values, np.inf), np.nextafter(values, -np.inf)[::-1]
    got, _ = written(values, up, down)
    want = reference(values, up, down)
    assert first_mismatch(got, want) is None
    assert got == want


def test_edge_list_matches_repr():
    tie = 1055742800000000.25  # exactly between two 17-digit decimals, as are the next three;
    # for the third of them a 16-digit decimal reads back too
    edge = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 1e16, 9999999999999998.0,
            1e-4, 1e-5, 0.1, 0.30000000000000004, np.nan, np.inf, -np.inf, 1e308, 1.7976931348623157e308,
            tie, 1055742800000000.75, 1125899906842624.25, 562949953421312.125, 1e15, 1e17, 0.0001, 9.999999999999999e-5,
            123456789012345678.0, 1e100, 1e-100, 9.999999999999999e99, 1e-101, 1e22, 1e23, 5e-5, 12345.678]
    edge += [2.0**k for k in range(-1074, 1024, 7)]
    values = np.array(edge + [-v for v in edge])
    with np.errstate(invalid="ignore", over="ignore"):
        up = np.nextafter(values, np.inf)
    got, slow = written(values, up, values[::-1].copy())
    assert got == reference(values, up, values[::-1])
    assert slow > 0
    # exact ties go to repr: the fast path knows v to ~1e-14 only, so it cannot tell a tie from a near one
    ties = np.array(edge[17:20])
    assert written(ties, ties)[1] == 2 * len(ties)


def test_powers_of_two_go_to_repr():
    # below a power of two the decimals that read back lie within h/2, a bound the fast path does not test
    v = np.ldexp(1.0, np.arange(-333, 333))
    v = v[(v >= 1e-100) & (v < 1e100)]
    v = np.concatenate([v, -v])
    got, slow = written(v, v[::-1].copy())
    assert got == reference(v, v[::-1])
    assert slow == 2 * len(v) == 2660


def test_sixteen_digit_ties_go_to_repr():
    # each is an odd multiple of 5 in its 17th digit, with both 16-digit neighbours within h (6.25 and 5.96)
    ties = np.array([562949953421312.25, 536870912.00390625])
    got, slow = written(ties, -ties)
    assert got == reference(ties, -ties)
    assert slow == 4


@pytest.mark.parametrize("n", [1, 2, B - 1, B, B + 1, 3 * B + 7])
def test_block_boundaries(n):
    rng = np.random.default_rng(n)
    t = np.linspace(0.0, 20.0, n)
    approx = rng.standard_normal(n)
    exact = approx + 1e-9 * rng.standard_normal(n)
    exact[::97] = 0.0  # a blank rel_err now and then
    for cols in ((t, approx, exact), (t, approx)):
        got, _ = written(*cols)
        assert got == reference(*cols)
        assert got.count(b"\n") == n + 1


@pytest.mark.parametrize("slices", [1, 2, 3])
@pytest.mark.parametrize("rows_", [7, 10, 11], ids=["7", "10", "11"])
def test_helpers_write_the_in_process_bytes(monkeypatch, slices, rows_):
    # the block formatting helpers write the bytes of the one-repr-per-field reference, however many
    # blocks (``slices``) the table is cut into
    monkeypatch.setattr(report, "BLOCK_ROWS", -(-rows_ // slices))
    rng = np.random.default_rng(rows_)
    t = np.linspace(0.0, 2.0, rows_)
    approx = rng.standard_normal(rows_)
    exact = approx + 1e-9 * rng.standard_normal(rows_)
    for cols in ((t, approx, exact), (t, approx)):
        got, _ = written(*cols)
        assert got == reference(*cols)
        assert got.count(b"\n") == rows_ + 1


@pytest.mark.parametrize("block", [2, 3])
def test_edge_values(tmp_path, monkeypatch, block):
    monkeypatch.setattr(report, "BLOCK_ROWS", block)
    values = np.array(EDGE)
    t = np.arange(len(values)) * 0.125
    exact = values[::-1].copy()
    for cols in ((t, values, exact), (values, exact, values), (t, values)):
        want = reference(*cols)
        assert written(*cols)[0] == want
    assert want.decode().splitlines()[1:4] == ["0.0,-0.0,,,", "0.125,0.0,,,", "0.25,5e-324,,,"]
    path = tmp_path / "p.csv"
    assert report.write_pointwise_csv(path, t, values, exact) > 0
    rows_ = path.read_text().splitlines()[1:]
    assert rows_[0] == "0.0,-0.0,0.3333333333333333,0.3333333333333333,1.0"
    # |exact| below the floor leaves rel_err blank; nan and inf go through repr
    assert rows_[1] == "0.125,0.0,-3e-15,3e-15,"
    assert rows_[3] == "0.375,-5e-324,-inf,inf,nan"
    assert rows_[5] == "0.625,1e-05,nan,nan,nan"
    assert rows_[7] == "0.875,inf,1e+16,inf,inf"
    assert rows_[11] == "1.375,0.3333333333333333,-0.0,0.3333333333333333,"


def test_unequal_columns_are_refused():
    with pytest.raises(ValueError, match="equal length"):
        written(np.zeros(3), np.zeros(2))


def deriv(tmp_path, name, *flags):
    argv = ["deriv", "--case", "cubic", "--N", "4", "--n", "201", "--out", str(tmp_path / name), *flags]
    return main(argv)


def pointwise_columns(path):
    """t, approx and exact of a written table; its fields parse back to the same doubles."""
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1, 2), unpack=True)


def test_cli_records_repr_fallbacks(tmp_path):
    assert deriv(tmp_path, "x", "--T", "1e-99") == 0
    meta = json.loads((tmp_path / "x.meta.json").read_text())
    assert "csv_helpers" not in meta and meta["csv_write_s"] > 0.0
    # the times and values below 1e-100 lie outside the fast range and go to repr
    assert meta["csv_repr_fallbacks"] == written(*pointwise_columns(tmp_path / "x_pointwise.csv"))[1] > 0


@pytest.mark.parametrize("how", ["no executable", "not a file"])
def test_formats_in_process_when_no_helper_can_start(tmp_path, monkeypatch, how):
    # the writer starts no process: it needs neither an interpreter path nor its own source file
    if how == "no executable":
        monkeypatch.setattr(sys, "executable", "")
    else:
        monkeypatch.setattr(report, "__file__", str(tmp_path))
    assert deriv(tmp_path, "x") == 0
    path = tmp_path / "x_pointwise.csv"
    assert path.read_bytes() == reference(*pointwise_columns(path))


def test_table_fields_are_reprs(tmp_path):
    path = tmp_path / "t.csv"
    report._write_table(path, {"N": [1, 20], "a": [-0.0, 5e-324], "b": [float("nan"), float("-inf")]})
    assert path.read_text() == "N,a,b\n1,-0.0,nan\n20,5e-324,-inf\n"
    with pytest.raises(ValueError):
        report._write_table(path, {"N": [1, 2], "a": [0.5]})


def test_sweep_table_takes_numpy_values(tmp_path):
    # numpy scalars are written as the Python numbers they hold
    report.write_sweep_csv(tmp_path / "np.csv", np.array([10, 20]), {"E_x": np.array([0.1, 1e-300])})
    report.write_sweep_csv(tmp_path / "py.csv", [10, 20], {"E_x": [0.1, 1e-300]})
    assert (tmp_path / "np.csv").read_text() == (tmp_path / "py.csv").read_text() == "N,E_x\n10,0.1\n20,1e-300\n"
