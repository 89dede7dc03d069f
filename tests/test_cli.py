import json
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import caputodr
from caputodr import Method, Signal, TimeGrid, caputo_derivative, cli, diffusive, report
from caputodr.cli import load_samples, main, theoretical_exponent
from caputodr.oracle import builtin_cases


def run_cli(args):
    code = main(args)
    assert code == 0, f"CLI failed: {args}"


def write_ramp(path):
    # y = t on 11 samples of [0, 1]
    path.write_text("t,y\n" + "".join(f"{i / 10!r},{i / 10!r}\n" for i in range(11)))


class TestSlopeFit:
    def test_recovers_power_law(self):
        N = np.array([10, 20, 40, 80, 160])
        E = 3.0 * N**-1.4
        fit = report.fit_loglog(N, E)
        assert fit.slope == pytest.approx(-1.4, abs=1e-12)
        assert not fit.excluded_smallest

    def test_excludes_transient_point(self):
        # A displaced endpoint cannot exceed twice the residual standard
        # error on short sweeps (its leverage soaks it up), so exercise the
        # exclusion branch with a longer one.
        N = (10 * 2 ** np.arange(12)).astype(float)
        E = 3.0 * N**-1.4
        E[0] *= 50.0  # pre-asymptotic bump
        fit = report.fit_loglog(N, E)
        assert fit.excluded_smallest
        assert fit.slope == pytest.approx(-1.4, abs=1e-12)

    def test_keeps_small_transient(self):
        N = np.array([10, 20, 40, 80, 160])
        E = 3.0 * N**-1.4
        E[0] *= 1.05
        fit = report.fit_loglog(N, E)
        assert not fit.excluded_smallest

    def test_stderr_is_the_slopes(self):
        # textbook OLS: se(slope) = s / sqrt(Sxx), s^2 = RSS / (n - 2); not s itself
        N = np.array([10, 20, 40, 80, 160])
        E = 3.0 * N**-1.4 * np.exp([0.03, -0.02, 0.04, -0.05, 0.01])
        fit = report.fit_loglog(N, E)
        x, y = np.log(N), np.log(E)
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (intercept + slope * x)
        s = math.sqrt(resid @ resid / (len(x) - 2))
        assert not fit.excluded_smallest
        assert fit.slope == pytest.approx(slope, rel=1e-12)
        assert fit.stderr == pytest.approx(s / math.sqrt(np.sum((x - x.mean()) ** 2)), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            report.fit_loglog([10, 20], [1.0, 0.5])
        with pytest.raises(ValueError):
            report.fit_loglog([10, 20, 40], [1.0, -0.5, 0.2])

    @pytest.mark.parametrize(
        "orders,errors",
        [
            ([10, 20, 40], [1.0, math.nan, 0.2]),
            ([10, 20, 40], [1.0, math.inf, 0.2]),
            ([10, math.nan, 40], [1.0, 0.5, 0.2]),
            ([10, 20, math.inf], [1.0, 0.5, 0.2]),
        ],
        ids=["nan-error", "inf-error", "nan-order", "inf-order"],
    )
    def test_refuses_non_finite(self, orders, errors):
        # a nan error gave slope=nan, and an inf one a RuntimeWarning
        with pytest.raises(ValueError, match="^orders and errors must be positive and finite for a log-log fit$"):
            report.fit_loglog(orders, errors)


    @pytest.mark.parametrize(
        "orders,errors",
        [([10, 10, 10], [0.1, 0.02, 0.003]), ([160, 80, 40, 20, 10], [1e-5, 3e-5, 1e-4, 3e-4, 1e-3])],
        ids=["repeated", "descending"],
    )
    def test_refuses_orders_not_increasing(self, orders, errors):
        # repeated orders gave slope=nan; descending ones were fitted, and the exclusion could drop the largest N
        with pytest.raises(ValueError, match="^orders must be strictly increasing$"):
            report.fit_loglog(orders, errors)


class TestTheoreticalExponent:
    def test_values(self):
        a = 0.6
        assert theoretical_exponent(Method.CDR, a) == pytest.approx(a - 2)
        assert theoretical_exponent(Method.SDR, a) == pytest.approx(a - 1)
        assert theoretical_exponent(Method.YA, a) == pytest.approx(2 * a - 2)
        assert theoretical_exponent(Method.ISDR, a) == pytest.approx(2 * a - 2)


class TestNodesCommand:
    def test_single_point_rule(self, tmp_path):
        out = tmp_path / "r"
        run_cli(["nodes", "--N", "1", "--gamma", "0.0", "--out", str(out)])
        lines = (tmp_path / "r_nodes.csv").read_text().splitlines()
        assert lines[0] == "index,node,weight,scaled_weight"
        assert lines[1] == f"0,1.0,1.0,{math.e!r}"

    def test_weight_sum(self, tmp_path):
        out = tmp_path / "r"
        run_cli(["nodes", "--N", "5", "--gamma", "-0.5", "--out", str(out)])
        rows = [l.split(",") for l in (tmp_path / "r_nodes.csv").read_text().splitlines()[1:]]
        total = sum(float(r[2]) for r in rows)
        assert total == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_monotone_nodes(self, tmp_path):
        out = tmp_path / "r"
        run_cli(["nodes", "--N", "20", "--gamma", "0.2", "--out", str(out)])
        nodes = [float(l.split(",")[1]) for l in (tmp_path / "r_nodes.csv").read_text().splitlines()[1:]]
        assert all(b > a for a, b in zip(nodes, nodes[1:]))

    def test_bad_gamma_exits_nonzero(self, tmp_path, capsys):
        code = main(["nodes", "--N", "5", "--gamma", "-1.5", "--out", str(tmp_path / "r")])
        assert code == 1
        assert "gamma" in capsys.readouterr().err

    @pytest.mark.parametrize("gamma", ["nan", "inf", "-inf"])
    def test_non_finite_gamma_exits_nonzero(self, tmp_path, capsys, gamma):
        # eigvalsh used to fail on it with a misleading "Eigenvalues did not converge"
        assert main(["nodes", "--N", "3", "--gamma", gamma, "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err == f"error: gamma must exceed -1 and be finite, got {gamma}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("order,gamma", [("5", "200"), ("10", "1e300"), ("10", "1e308")])
    def test_overflowing_rule_exits_nonzero(self, tmp_path, capsys, order, gamma):
        # the first wrote inf in every weight cell and exited 0; the others printed numpy warnings first
        assert main(["nodes", "--N", order, "--gamma", gamma, "--out", str(tmp_path / "r")]) == 1
        message = f"error: the order-{order} rule for gamma={float(gamma):g} overflows double precision\n"
        assert capsys.readouterr() == ("", message)
        assert list(tmp_path.iterdir()) == []

    def test_negative_value_in_exponent_form(self, tmp_path):
        # argparse would read -5e-1 as an option and exit 2 with "expected one argument"
        for gamma in ("-5e-1", "-0.5"):
            assert main(["nodes", "--N", "3", "--gamma", gamma, "--out", str(tmp_path / gamma)]) == 0
        assert (tmp_path / "-5e-1_nodes.csv").read_bytes() == (tmp_path / "-0.5_nodes.csv").read_bytes()

    def test_meta_records_versions(self, tmp_path):
        run_cli(["nodes", "--N", "3", "--gamma", "0.2", "--out", str(tmp_path / "r")])
        meta = json.loads((tmp_path / "r.meta.json").read_text())
        versions = {"python": platform.python_version(), "numpy": np.__version__, "caputodr": caputodr.__version__}
        assert meta["versions"] == versions

    def test_order_too_large_exits_before_allocating(self, tmp_path, capsys):
        # a dense build at this order would need 80 GB
        tracemalloc.start()
        try:
            code = main(["nodes", "--N", "100000", "--gamma", "0.2", "--out", str(tmp_path / "r")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert "error: order 100000 exceeds 1000" in capsys.readouterr().err
        assert peak < 1_000_000

    @pytest.mark.parametrize("mode", ["ab", "wb"])
    def test_stdout_keeps_earlier_output(self, tmp_path, mode):
        # `caputodr nodes >> log` and `(echo header; caputodr nodes) > out`: the table follows
        # what the file already holds instead of truncating it
        run_cli(["nodes", "--N", "3", "--gamma", "0.2", "--out", str(tmp_path / "ref")])
        src = os.path.dirname(os.path.dirname(os.path.abspath(caputodr.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        log = tmp_path / "log"
        with open(log, mode) as fh:
            fh.write(b"earlier\n")
            fh.flush()
            done = subprocess.run(
                [sys.executable, "-m", "caputodr.cli", "nodes", "--N", "3", "--gamma", "0.2"],
                stdout=fh, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        assert done.returncode == 0, done.stderr
        assert log.read_bytes() == b"earlier\n" + (tmp_path / "ref_nodes.csv").read_bytes()


class TestDerivCommand:
    def test_pointwise_csv_layout(self, tmp_path):
        out = tmp_path / "run"
        run_cli(["deriv", "--case", "cubic", "--method", "CDR", "--N", "20", "--n", "201", "--out", str(out)])
        lines = (tmp_path / "run_pointwise.csv").read_text().splitlines()
        assert lines[0] == "t,approx,exact,abs_err,rel_err"
        assert len(lines) == 202
        # exact vanishes at t=0, so rel_err is blank there
        assert lines[1].endswith(",")
        assert (tmp_path / "run_pointwise.gp").exists()
        meta = json.loads((tmp_path / "run.meta.json").read_text())
        assert meta["command"] == "deriv"
        assert meta["e_inf"] > 0.0
        assert "timestamp" in meta and "versions" in meta

    def test_constant_input_yields_zero(self, tmp_path):
        sample = tmp_path / "const.csv"
        t = np.linspace(0.0, 1.0, 101)
        sample.write_text("t,y\n" + "\n".join(f"{float(ti)!r},{2.5!r}" for ti in t) + "\n")
        out = tmp_path / "flat"
        run_cli(["deriv", "--input", str(sample), "--alpha", "0.5", "--method", "SDR", "--N", "15", "--out", str(out)])
        rows = (tmp_path / "flat_pointwise.csv").read_text().splitlines()[1:]
        approx = np.array([float(r.split(",")[1]) for r in rows])
        assert np.max(np.abs(approx)) <= 1e-13
        # no reference available: exactness columns stay blank
        assert rows[0].split(",")[2] == ""

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["deriv", "--case", "sine", "--method", "YA", "--N", "15", "--n", "101"]
        run_cli(args + ["--out", str(a)])
        run_cli(args + ["--out", str(b)])
        assert (tmp_path / "a_pointwise.csv").read_bytes() == (tmp_path / "b_pointwise.csv").read_bytes()
        assert (tmp_path / "a_pointwise.gp").read_text().replace("a_", "b_") == (
            tmp_path / "b_pointwise.gp"
        ).read_text()

    def test_roundtrip_reproduces_e_inf(self, tmp_path):
        out = tmp_path / "rt"
        run_cli(["deriv", "--case", "cubic", "--method", "CDR", "--N", "20", "--n", "301", "--out", str(out)])
        cols = np.genfromtxt(tmp_path / "rt_pointwise.csv", delimiter=",", names=True)
        meta = json.loads((tmp_path / "rt.meta.json").read_text())
        assert float(np.max(cols["abs_err"])) == meta["e_inf"]

    def test_unknown_case(self, tmp_path, capsys):
        assert main(["deriv", "--case", "quartic", "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err.startswith("error: unknown case 'quartic'")

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--alpha", "1.5"], "alpha must lie strictly in (0, 1), got 1.5"),
            (["--n", "1"], "count must be at least 2, got 1"),
            (["--alpha", "-1e-3"], "alpha must lie strictly in (0, 1), got -0.001"),
        ],
    )
    def test_bad_alpha_or_n_exits_nonzero(self, tmp_path, capsys, flags, message):
        code = main(["deriv", "--case", "cubic", *flags, "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("horizon", ["nan", "inf", "-inf"])
    def test_non_finite_horizon_exits_nonzero(self, tmp_path, capsys, horizon):
        # it used to write a table of nan
        assert main(["deriv", "--n", "100", "--T", horizon, "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == f"error: horizon must be positive and finite, got {horizon}\n"
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_exact_reference_exits_nonzero(self, tmp_path, capsys):
        # it warned of overflow in the reference and in the step, then failed in np.stack
        code = main(["deriv", "--case", "cubic", "--T", "1e160", "--n", "11", "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err == "error: exact_power(3, 0.6) overflows at t=1e+159\n"
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_step_exits_nonzero(self, tmp_path, capsys):
        f = tmp_path / "big.csv"
        f.write_text("t,y\n0,0\n1e160,1\n2e160,2\n")
        code = main(["deriv", "--input", str(f), "--alpha", "0.5", "--out", str(tmp_path / "x")])
        assert code == 1
        # the resolution check runs after the stepping, so no warning precedes the error
        err = capsys.readouterr().err
        assert err == "error: CDR euler step coefficients overflow at N=50, h=1e+160; shorten the step\n"
        assert list(tmp_path.iterdir()) == [f]

    @pytest.mark.parametrize(
        "rows,methods,where",
        [
            ("0,0\n1e-320,1\n2e-320,2\n", ["YA", "CDR"], "1e-320"),
            ("0,0\n0.5,1e308\n1,-1e308\n", ["YA", "CDR", "SDR", "ISDR"], "0.5"),
        ],
        ids=["slope", "difference"],
    )
    def test_overflowing_samples_exit_nonzero(self, tmp_path, capsys, rows, methods, where):
        # they wrote nan rows and exited 0; the second one also warned of the unresolved top nodes first
        f = tmp_path / "s.csv"
        f.write_text("t,y\n" + rows)
        for method in methods:
            argv = ["deriv", "--input", str(f), "--alpha", "0.5", "--method", method, "--out", str(tmp_path / "x")]
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error: {method} euler derivative overflows to nan at t={where}\n"
        assert list(tmp_path.iterdir()) == [f]

    def test_exact_reference_past_series_limit_exits_nonzero(self, tmp_path, capsys):
        code = main(["deriv", "--case", "sine", "--T", "60", "--n", "101", "--out", str(tmp_path / "s")])
        assert code == 1
        assert "at most 15" in capsys.readouterr().err

    def test_exact_reference_fails_before_stepping(self, tmp_path, capsys, monkeypatch):
        def stepped(*args, **kwargs):
            raise AssertionError("caputo_derivative ran before the exact reference was checked")

        monkeypatch.setattr(cli, "caputo_derivative", stepped)
        code = main(["deriv", "--case", "bessel", "--T", "400", "--n", "100000", "--out", str(tmp_path / "b")])
        assert code == 1
        err = capsys.readouterr().err
        assert "at most 15" in err
        assert "h*z_max^2" not in err

    def test_case_and_input_conflict(self, tmp_path, capsys):
        sample = tmp_path / "s.csv"
        sample.write_text("t,y\n0.0,0.0\n1.0,1.0\n")
        code = main(["deriv", "--case", "cubic", "--input", str(sample), "--alpha", "0.5", "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err == "error: --case and --input are mutually exclusive\n"

    def test_input_requires_alpha(self, tmp_path, capsys):
        write_ramp(tmp_path / "s.csv")
        assert main(["deriv", "--input", str(tmp_path / "s.csv"), "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == "error: --input mode requires --alpha\n"

    @pytest.mark.parametrize("flags", [["--n", "7"], ["--T", "9"]])
    def test_input_rejects_grid_flags(self, tmp_path, capsys, flags):
        # the file sets the grid; --n or --T would be silently ignored
        sample = tmp_path / "s.csv"
        sample.write_text("t,y\n0.0,0.0\n1.0,1.0\n2.0,4.0\n")
        code = main(["deriv", "--input", str(sample), "--alpha", "0.5", *flags, "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --n and --T do not apply to --input")
        assert not (tmp_path / "x_pointwise.csv").exists()

    def test_case_mode_records_default_n(self, tmp_path):
        run_cli(["deriv", "--case", "cubic", "--N", "10", "--out", str(tmp_path / "r")])
        meta = json.loads((tmp_path / "r.meta.json").read_text())
        assert meta["n"] == 10_000

    def test_stability_warning(self, tmp_path, capsys):
        out = tmp_path / "warn"
        run_cli(["deriv", "--case", "cubic", "--method", "CDR", "--N", "160", "--n", "101", "--out", str(out)])
        assert "h*z_max =" in capsys.readouterr().err

    def test_no_warning_when_top_node_is_resolved(self, tmp_path, capsys):
        # the top node of this rule is 29.2, so h*z_max^2 = 0.85; the old
        # 4N + 2*gamma + 6 bound put it at 2.04 and warned
        diffusive._cached_rule.cache_clear()
        run_cli(["deriv", "--case", "cubic", "--method", "CDR", "--N", "10", "--n", "1001", "--out", str(tmp_path / "q")])
        assert "h*z_max^2" not in capsys.readouterr().err
        # the check reads the rule the derivative is built from: one build
        info = diffusive._cached_rule.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_compare_warns_once(self, tmp_path, capsys):
        run_cli(["compare", "--case", "cubic", "--out", str(tmp_path / "cmp")])
        err = capsys.readouterr().err
        assert err.count("h*z_max^2") == 1
        assert "phase" in err and "stability" not in err

    @pytest.mark.parametrize("method, token", [("CDR", None), ("SDR", None), ("YA", "h*z_max^2"), ("ISDR", "h*z_max^2")])
    def test_default_run_warns_by_rate(self, tmp_path, capsys, method, token):
        # n = 1e4, N = 50: the top node turns 0.018 rad per step for CDR and SDR (z*h), 3.28 for ISDR (z^2*h)
        run_cli(["deriv", "--case", "cubic", "--method", method, "--out", str(tmp_path / "d")])
        err = capsys.readouterr().err
        if token is None:
            assert err == ""
        else:
            assert err.count("warning") == 1 and err.startswith(f"warning: {token} = ") and f"({method}, N=50)" in err

    def test_compare_warns_once_from_the_rules_it_builds(self, tmp_path, capsys):
        # 3 weight exponents x 5 orders; the check at N = 160 builds no rule of its own.  ISDR shares YA's
        # exponent (5 hits), and the check reads the 4 methods' N = 160 rules (4 hits)
        diffusive._cached_rule.cache_clear()
        diffusive._cached_plan.cache_clear()
        run_cli(["compare", "--case", "cubic", "--out", str(tmp_path / "cmp")])
        assert capsys.readouterr().err.count("warning") == 1
        info = diffusive._cached_rule.cache_info()
        assert (info.misses, info.hits) == (15, 9)

    def test_power16_figure_config(self, tmp_path):
        # t^1.6 setup: N=50, n=1e4 pointwise table; relative error shrinks
        # away from the origin
        out = tmp_path / "fig"
        run_cli([
            "deriv", "--case", "power16", "--method", "CDR",
            "--N", "50", "--n", "10000", "--out", str(out),
        ])
        lines = (tmp_path / "fig_pointwise.csv").read_text().splitlines()
        assert len(lines) == 10_001  # header + one row per grid point
        rel = np.array([float(r.split(",")[4]) if r.split(",")[4] else np.nan for r in lines[1:]])
        early = np.nanmean(rel[100:1000])
        late = np.nanmean(rel[-1000:])
        assert late < early

    def test_external_input_matches_library_fd_mode(self, tmp_path):
        case = builtin_cases()["cubic"]
        n = 201
        grid = TimeGrid(horizon=case.horizon, count=n)
        t = grid.times()
        yv = np.asarray([case.signal.y(ti) for ti in t])
        sample = tmp_path / "cubic.csv"
        sample.write_text(
            "t,y\n" + "\n".join(f"{float(ti)!r},{float(vi)!r}" for ti, vi in zip(t, yv)) + "\n"
        )
        out = tmp_path / "ext"
        run_cli(["deriv", "--input", str(sample), "--alpha", "0.6", "--method", "CDR", "--N", "25", "--out", str(out)])
        rows = (tmp_path / "ext_pointwise.csv").read_text().splitlines()[1:]
        approx_file = np.array([float(r.split(",")[1]) for r in rows])
        fd_signal = Signal(y=case.signal.y)
        approx_lib = caputo_derivative(Method.CDR, "euler", 0.6, 25, grid, fd_signal)
        assert np.max(np.abs(approx_file - approx_lib)) <= 1e-12

    def test_input_writes_the_file_times(self, tmp_path):
        # not the uniform grid rebuilt from t_last and the row count: 0.09999999999999999, 0.19999999999999998
        times, values = [0.0, 0.1, 0.2, 0.3], [0.0, 0.5, 0.7, 0.8]
        sample = tmp_path / "s.csv"
        sample.write_text("t,y\n" + "".join(f"{t!r},{y!r}\n" for t, y in zip(times, values)))
        run_cli(["deriv", "--input", str(sample), "--alpha", "0.5", "--out", str(tmp_path / "o")])
        rows = [r.split(",") for r in (tmp_path / "o_pointwise.csv").read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == ["0.0", "0.1", "0.2", "0.3"]
        # the stepping still runs on that grid
        grid = TimeGrid(horizon=0.3, count=4)
        assert not np.array_equal(grid.times(), times)
        approx = caputo_derivative(Method.CDR, "euler", 0.5, 50, grid, Signal.from_samples(times, values))
        assert [r[1] for r in rows] == [repr(a) for a in approx.tolist()]


class TestGnuplotScripts:
    def test_deriv_with_exact_reference(self, tmp_path):
        run_cli(["deriv", "--case", "cubic", "--N", "5", "--n", "11", "--out", str(tmp_path / "d")])
        assert (tmp_path / "d_pointwise.gp").read_text() == (
            "set datafile separator ','\n"
            "set title 'cubic CDR euler N=5'\n"
            "set key outside\n"
            "plot 'd_pointwise.csv' using 1:4 with linespoints title 'abs_err', "
            "'d_pointwise.csv' using 1:5 with linespoints title 'rel_err'\n"
        )

    def test_deriv_without_exact_reference(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_ramp(tmp_path / "s.csv")
        run_cli(["deriv", "--input", "s.csv", "--alpha", "0.5", "--N", "5", "--out", "i"])
        assert (tmp_path / "i_pointwise.gp").read_text() == (
            "set datafile separator ','\n"
            "set title 's.csv CDR euler N=5'\n"
            "set key outside\n"
            "plot 'i_pointwise.csv' using 1:2 with linespoints title 'approx'\n"
        )

    def test_convergence(self, tmp_path):
        run_cli([
            "convergence", "--case", "cubic", "--sweep", "5,10,20,40", "--n", "101",
            "--out", str(tmp_path / "c"),
        ])
        assert (tmp_path / "c_sweep.gp").read_text() == (
            "set datafile separator ','\n"
            "set title 'cubic CDR euler E_inf(N)'\n"
            "set key outside\n"
            "set logscale xy\n"
            "set format y '%.1e'\n"
            "plot 'c_sweep.csv' using 1:2 with linespoints title 'E_inf'\n"
        )

    def test_compare(self, tmp_path):
        run_cli([
            "compare", "--case", "cubic", "--sweep", "5,10,20,40", "--n", "101",
            "--out", str(tmp_path / "m"),
        ])
        plots = ", ".join(
            f"'m_compare.csv' using 1:{i + 2} with linespoints title '{tag}'"
            for i, tag in enumerate(["YA", "CDR", "SDR", "ISDR"])
        )
        assert (tmp_path / "m_compare.gp").read_text() == (
            "set datafile separator ','\n"
            "set title 'cubic four-method E_inf(N), euler'\n"
            "set key outside\n"
            "set logscale xy\n"
            "set format y '%.1e'\n"
            f"plot {plots}\n"
        )

    def test_quotes_are_doubled(self, tmp_path, monkeypatch):
        # inside a gnuplot single-quoted string '' stands for one '
        monkeypatch.chdir(tmp_path)
        write_ramp(tmp_path / "it's.csv")
        run_cli(["deriv", "--input", "it's.csv", "--alpha", "0.5", "--method", "SDR", "--out", "q'run"])
        assert (tmp_path / "q'run_pointwise.gp").read_text() == (
            "set datafile separator ','\n"
            "set title 'it''s.csv SDR euler N=50'\n"
            "set key outside\n"
            "plot 'q''run_pointwise.csv' using 1:2 with linespoints title 'approx'\n"
        )


class TestSampleLoading:
    def test_bad_header(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("time,value\n0.0,1.0\n")
        with pytest.raises(ValueError, match="header"):
            load_samples(f)

    def test_nonuniform_grid(self, tmp_path, capsys):
        f = tmp_path / "bad.csv"
        f.write_text("t,y\n0.0,0.0\n0.1,1.0\n0.3,2.0\n")
        with pytest.raises(ValueError, match="uniform"):
            Signal.from_samples(*load_samples(f))
        code = main(["deriv", "--input", str(f), "--alpha", "0.5", "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == "error: sample grid spacing is not uniform to 1e-12 relative\n"

    def test_must_start_at_zero(self, tmp_path, capsys):
        f = tmp_path / "bad.csv"
        f.write_text("t,y\n0.5,0.0\n1.0,1.0\n")
        code = main(["deriv", "--input", str(f), "--alpha", "0.5", "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == "error: sample grid must start at t=0\n"

    @pytest.mark.parametrize(
        "row,reason",
        [("0.5,1.0,2", "too many values to unpack"), ("0.5,one", "could not convert string to float")],
    )
    def test_malformed_row_is_named(self, tmp_path, capsys, row, reason):
        f = tmp_path / "bad.csv"
        f.write_text(f"t,y\n0.0,0.0\n\n{row}\n1.0,1.0\n")
        with pytest.raises(ValueError, match=f"sample row 2: {reason}"):
            load_samples(f)
        code = main(["deriv", "--input", str(f), "--alpha", "0.5", "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: sample row 2: {reason}")

    def test_non_finite_row(self, tmp_path, capsys):
        f = tmp_path / "bad.csv"
        f.write_text("t,y\n0.0,0.0\n0.5,nan\n1.0,1.0\n")
        with pytest.raises(ValueError, match=r"^sample row 2 is not finite: t=0\.5, y=nan$"):
            Signal.from_samples(*load_samples(f))
        code = main(["deriv", "--input", str(f), "--alpha", "0.5", "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == "error: sample row 2 is not finite: t=0.5, y=nan\n"


class TestSampleParsing:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        t, y = np.linspace(0.0, 1.0, 1001), rng.standard_normal(1001) * 10.0 ** rng.integers(-300, 300, 1001)
        f = tmp_path / "s.csv"
        f.write_text("t,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), y.tolist())))
        times, values = load_samples(f)
        assert np.array_equal(times, t) and np.array_equal(values, y)
        assert times.flags.c_contiguous and values.flags.c_contiguous

    @pytest.mark.parametrize("body,want", [("", ([], []))])  # the fast parse warns on an empty table
    def test_row_scan_reads_what_the_fast_parse_refuses(self, tmp_path, body, want):
        f = tmp_path / "s.csv"
        f.write_text("t,y\n" + body)
        assert [a.tolist() for a in load_samples(f)] == list(map(list, want))

    @pytest.mark.parametrize(
        "row,reason",
        [
            ("0.5,1_0", "could not convert string to float: '1_0\\n'"),  # float() reads digit separators
            ("0.5,\u0661", "could not convert string to float: '\u0661\\n'"),  # and non-ASCII digits
            ("  ", "not enough values to unpack (expected 2, got 1)"),  # a whitespace-only line
        ],
        ids=["separator", "arabic-indic", "blank"],
    )
    def test_row_scan_refuses_what_the_fast_parse_refuses(self, tmp_path, capsys, row, reason):
        # each file was read (the first as y = 10, the second as y = 1) and the run exited 0
        f = tmp_path / "s.csv"
        f.write_text(f"t,y\n0,0\n{row}\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^sample row 2: {re.escape(reason)}$"):
            load_samples(f)
        assert main(["deriv", "--input", str(f), "--alpha", "0.5", "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr() == ("", f"error: sample row 2: {reason}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv"]

    def test_row_scan_never_accepts_a_refused_file(self, tmp_path, monkeypatch):
        # should the field read grow as lenient as float(), the file is still refused
        monkeypatch.setattr(cli, "_number", float)
        f = tmp_path / "s.csv"
        f.write_text("t,y\n0,0\n0.5,1_0\n1,2\n")
        with pytest.raises(ValueError, match="^np.loadtxt refuses the sample file, though each row reads as two numbers$"):
            load_samples(f)


class TestConvergenceCommand:
    def test_sweep_outputs(self, tmp_path):
        out = tmp_path / "sw"
        run_cli([
            "convergence", "--case", "cubic", "--method", "CDR",
            "--sweep", "5,10,20,40", "--n", "501", "--out", str(out),
        ])
        orders, errors = np.loadtxt(tmp_path / "sw_sweep.csv", delimiter=",", skiprows=1, unpack=True)
        assert orders.tolist() == [5, 10, 20, 40]
        assert np.all(errors > 0.0)
        meta = json.loads((tmp_path / "sw.meta.json").read_text())
        assert meta["slope"] < 0.0
        assert meta["theoretical_exponent"] == pytest.approx(0.6 - 2.0)
        # slope in the sidecar reproduces bit-identically from the CSV
        refit = report.fit_loglog(orders, errors)
        assert refit.slope == meta["slope"]

    def test_requires_enough_orders(self, tmp_path, capsys):
        code = main([
            "convergence", "--case", "cubic", "--sweep", "5,10,20",
            "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: convergence needs a sweep of at least 4 orders\n"

    def test_rejects_unsorted_sweep(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "convergence", "--case", "cubic", "--sweep", "10,5,20,40",
                "--out", str(tmp_path / "x"),
            ])

    def test_bad_sweep_list_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["convergence", "--case", "cubic", "--sweep", "5,x", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "bad sweep list '5,x'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["convergence", "compare"])
@pytest.mark.parametrize(
    "flags,message",
    [
        (["--case", "cubic", "--sweep", "10,20,30"], "needs a sweep of at least 4 orders"),
        # a sweep needs the exact reference only a built-in case has, so --input is deriv's alone
        (["--input", "s.csv", "--alpha", "0.5"], "unrecognized arguments: --input s.csv"),
        (["--case", "cubic", "--sweep", "5"], "needs a sweep of at least 4 orders"),
    ],
)
def test_sweep_refusals(tmp_path, capsys, monkeypatch, command, flags, message):
    monkeypatch.chdir(tmp_path)
    write_ramp(tmp_path / "s.csv")
    if "--input" in flags:  # argparse's usage error
        with pytest.raises(SystemExit) as exc:
            main([command, *flags, "--out", "x"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"caputodr: error: {message}\n")
    else:
        assert main([command, *flags, "--out", "x"]) == 1
        assert capsys.readouterr().err == f"error: {command} {message}\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "s.csv"]


@pytest.mark.parametrize("command", ["convergence", "compare"])
def test_sweep_help_omits_input(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert "--input" not in capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(["deriv", "--help"])
    assert "--input INPUT" in capsys.readouterr().out


class TestCompareCommand:
    def test_merged_csv(self, tmp_path):
        out = tmp_path / "cmp"
        run_cli([
            "compare", "--case", "cubic", "--sweep", "5,10,20,40",
            "--n", "401", "--out", str(out),
        ])
        lines = (tmp_path / "cmp_compare.csv").read_text().splitlines()
        assert lines[0] == "N,E_YA,E_CDR,E_SDR,E_ISDR"
        assert len(lines) == 5
        meta = json.loads((tmp_path / "cmp.meta.json").read_text())
        assert set(meta["slopes"]) == {"YA", "CDR", "SDR", "ISDR"}


class TestPointwiseCsv:
    def test_fields_are_float_reprs(self, tmp_path):
        t = np.array([0.0, 0.5, 1.0, 1.5])
        approx = np.array([-0.0, 5e-324, 1.0 / 3.0, 2.0])
        exact = np.array([0.0, 1e-15, 0.3, -7.25])
        path = tmp_path / "p.csv"
        report.write_pointwise_csv(path, t, approx, exact)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,approx,exact,abs_err,rel_err"
        want = []
        for i in range(len(t)):
            ae = abs(approx[i] - exact[i])
            rel = "" if abs(exact[i]) < 1e-14 else repr(float(ae / abs(exact[i])))
            want.append(",".join([repr(float(t[i])), repr(float(approx[i])), repr(float(exact[i])), repr(float(ae)), rel]))
        assert lines[1:] == want
        assert lines[1] == "0.0,-0.0,0.0,0.0,"
        assert lines[2].startswith("0.5,5e-324,1e-15,") and lines[2].endswith(",")

    def test_blank_exactness_columns(self, tmp_path):
        path = tmp_path / "p.csv"
        report.write_pointwise_csv(path, np.array([0.0, 0.25]), np.array([-0.0, 5e-324]))
        assert path.read_text().splitlines()[1:] == ["0.0,-0.0,,,", "0.25,5e-324,,,"]


def test_runtime_imports_only_numpy():
    # scipy and mpmath serve the tests only; the library must build rules
    # and load its CLI with both unimportable
    script = (
        "import sys\n"
        "sys.modules['scipy'] = sys.modules['mpmath'] = None\n"
        "import caputodr.cli\n"
        "from caputodr.quadrature import gauss_laguerre\n"
        "print(gauss_laguerre(160, 0.2).order)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(caputodr.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "160"


def test_import_makes_no_lapack_call():
    # kernel_reference builds its Gauss-Legendre rule on first use, so
    # importing the modules leaves numpy.polynomial (and LAPACK) untouched
    script = "import sys, caputodr.cli\nprint('numpy.polynomial' in sys.modules)\n"
    src = os.path.dirname(os.path.dirname(os.path.abspath(caputodr.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def fresh_env(**overrides):
    """This checkout's package on the path, no BLAS settings but ``overrides``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(caputodr.__file__)))
    env = {k: v for k, v in os.environ.items() if k not in report.BLAS_VARS}
    env.update(PYTHONPATH=src, **overrides)
    return env


@pytest.mark.parametrize(
    "preset,want",
    [
        ({}, {"OPENBLAS_THREAD_TIMEOUT": "4", "OPENBLAS_NUM_THREADS": None}),
        ({"OPENBLAS_THREAD_TIMEOUT": "20", "OPENBLAS_NUM_THREADS": "2"},
         {"OPENBLAS_THREAD_TIMEOUT": "20", "OPENBLAS_NUM_THREADS": "2"}),
    ],
)
def test_cli_lets_idle_blas_threads_sleep(tmp_path, preset, want):
    # `python -m caputodr.cli` sets the OpenBLAS idle timeout before numpy loads; an explicit one wins
    prefix = str(tmp_path / "P")
    done = subprocess.run(
        [sys.executable, "-m", "caputodr.cli", "nodes", "--N", "3", "--gamma", "0.2", "--out", prefix],
        env=fresh_env(**preset), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    blas_env = json.loads((tmp_path / "P.meta.json").read_text())["blas_env"]
    assert blas_env == dict({"OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None}, **want)


def test_cli_import_after_numpy_sets_nothing():
    # a host that loaded numpy already keeps its BLAS as it was started
    script = "import os, numpy, caputodr.cli\nprint(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
    done = subprocess.run([sys.executable, "-c", script], env=fresh_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "None"


NODES = '["nodes", "--N", "3", "--gamma", "0.2", "--out", PREFIX]'


@pytest.mark.parametrize(
    "script,enabled,frozen",
    [
        # a fresh process: the import-time heap is frozen and the collector back on
        ("import caputodr.cli", True, True),
        # a host that loaded numpy keeps its collector as it was, and nothing is frozen
        ("import numpy, caputodr.cli", True, False),
        # a collector the host switched off stays off
        ("gc.disable(); import caputodr.cli", False, True),
        ("gc.disable(); import numpy, caputodr.cli", False, False),
        # main() in-process leaves the host's collector as it found it
        (f"import caputodr.cli; gc.disable(); assert caputodr.cli.main({NODES}) == 0", False, True),
        (f"import caputodr.cli; assert caputodr.cli.main({NODES}) == 0", True, True),
        (f"import numpy, caputodr.cli; gc.disable(); assert caputodr.cli.main({NODES}) == 0", False, False),
        (f"import numpy, caputodr.cli; assert caputodr.cli.main({NODES}) == 0", True, False),
    ],
    ids=["fresh", "after-numpy", "off-fresh", "off-after-numpy",
         "main-off-fresh", "main-fresh", "main-off-after-numpy", "main-after-numpy"],
)
def test_cli_collector_guard(tmp_path, script, enabled, frozen):
    # the collector is paused over the imports of a fresh process only; what they leave is frozen
    code = f"import gc\nPREFIX = {str(tmp_path / 'P')!r}\n{script}\nprint(gc.isenabled(), gc.get_freeze_count() > 0)\n"
    done = subprocess.run([sys.executable, "-c", code], env=fresh_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(enabled), str(frozen)]
