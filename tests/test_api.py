import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys

import pytest

import caputodr

MODULES = ["caputodr"] + [f"caputodr.{name}" for name in ("diffusive", "oracle", "quadrature", "report", "specfun")]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    # a name left in __all__ after its definition is deleted breaks `from ... import *`
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def run_fresh(script):
    """stdout of ``script`` run by a fresh interpreter with this checkout's package on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(caputodr.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_package_import_leaves_numpy_unloaded():
    # the CLI module sets BLAS defaults before numpy loads, so the package itself must not load it
    assert run_fresh("import sys, caputodr\nprint('numpy' in sys.modules)\n").strip() == "False"


def test_lazy_names():
    script = (
        "import caputodr\n"
        "names = [n for n in caputodr.__all__ if n != '__version__']\n"
        "print(sorted(set(names) - set(dir(caputodr))))\n"
        "print(all(getattr(caputodr, n).__name__ == n for n in names))\n"
        "from caputodr.diffusive import Method\n"
        "print(caputodr.Method is Method, caputodr.__version__)\n"
        "try:\n"
        "    caputodr.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert run_fresh(script).splitlines() == [
        "[]",
        "True",
        "True 0.1.0",
        "module 'caputodr' has no attribute 'no_such_name'",
    ]


def test_benchmark_hooks_resolve():
    # perfbench's traced mode wraps these names from outside; a moved name silently empties a per-layer
    # metric.  write_compare_csv no longer exists (compare writes through the hooked write_sweep_csv).
    traced = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "traced_cli.py")
    script = (
        "import importlib.util\n"
        f"spec = importlib.util.spec_from_file_location('traced_cli', {traced!r})\n"
        "traced = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(traced)\n"
        "from caputodr import cli, diffusive, oracle, report, specfun\n"
        "tracer = traced.Tracer()\n"
        "traced.install(tracer, cli, diffusive, oracle, report, specfun)\n"
        "print(tracer.missing)\n"
    )
    assert run_fresh(script).strip() == "['caputodr.report.write_compare_csv']"


@pytest.mark.parametrize("workload", ["sweep", "pointwise", "rules"])
def test_benchmark_operations_pass_their_checks(workload, tmp_path):
    # perfbench builds its references through the library (TimeGrid, Signal.from_samples, caputo_l1,
    # caputo_derivative) and checks every CLI output against them: a name or behaviour it relies on that
    # breaks fails here, not only in the benchmark run
    from caputodr import cli

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location("workloads", os.path.join(root, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for op in workloads.build(workload, 1, os.path.join(root, "src"), str(tmp_path)):
        prefix = str(tmp_path / op.name)
        assert cli.main(op.argv + ["--out", prefix]) == 0, op.name
        with open(prefix + op.csv) as fh:
            op.check(fh.read())


@pytest.mark.parametrize("folder", ["src", "tests"])
def test_sources_parse_as_python_3_10(folder):
    # pyproject's requires-python floor; this checks syntax only, not what the 3.10 library or numpy provide
    root = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), folder)
    paths = [os.path.join(d, f) for d, _, files in os.walk(root) for f in files if f.endswith(".py")]
    assert paths
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            ast.parse(fh.read(), filename=path, feature_version=(3, 10))


def test_readme_quick_start_prints_its_claim(capsys):
    # the README's only runnable library example; its comment claims the error it prints
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = re.search(r"## Library quick start\n+```python\n(.*?)```", readme, re.S).group(1)
    claim = float(re.search(r"# ~(\S+) at N=50$", block, re.M).group(1))
    exec(compile(block, "README.md", "exec"), {})
    printed = float(capsys.readouterr().out)
    assert f"{printed:.1e}" == f"{claim:.1e}" == "1.7e-03"
