"""Benchmark the caputodr CLI on seeded workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Every operation runs ``python -m caputodr.cli ...`` with ``src`` on
PYTHONPATH as a fresh child process, so it pays the interpreter start, the
import and the rule construction a user pays.  The harness is a closed loop
with one client: operations run one at a time, and the workload's list is
repeated until ``--seconds`` have passed.  BLAS/OpenMP threads are capped at
the number of CPUs this process may use.

``--trace 0`` reports the end-to-end metrics (medians over the repetitions):
``wall_s`` and ``cpu_s`` of the operation list (sum of per-operation
medians), ``peak_rss_mb`` (largest per-child peak RSS, from ``os.wait4``),
``setup_s`` (a fresh ``import caputodr.cli``) and ``e_inf_max`` (largest
E_inf against the closed form).  ``--trace 1`` alternates plain lists with
lists run through ``traced_cli.py`` and reports per-layer metrics.

Every output CSV is checked (exit status, header, row count, accuracy, and
byte identity across repetitions); each miss counts as a failed operation.
The last line of standard output is the JSON result; the line before it is
the run record (host, versions, thread settings, per-operation medians).
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

import workloads

WORK_DIR = ".bench_work"
CHILD_TIMEOUT_S = 60.0
MIN_REPS = 3
MIN_TRACED_REPS = 2
SETUP_PER_REP = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
EMPTY_TRACE = {"self_s": {}, "counts": {}, "rule_cache": {"hits": 0, "misses": 0}, "missing_hooks": []}
TRACED_CLI = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traced_cli.py")

# Layers timed by traced_cli.py, with the metric each one's self time feeds.
LAYER_METRICS = {
    "quadrature": "quadrature.busy_s",
    "diffusive": "diffusive.busy_s",
    "signal": "signal.busy_s",
    "oracle": "oracle.exact_busy_s",
    "report": "report.busy_s",
    "cli.load": "cli.load_busy_s",
}
COUNT_METRICS = (
    "diffusive.calls",
    "diffusive.node_steps",
    "signal.callable_calls",
    "signal.points",
    "specfun.bessel_j.calls",
    "specfun.caputo_sin_series.calls",
    "specfun.gamma.calls",
    "oracle.exact_points",
    "report.rows",
)


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    status: int


@dataclass
class OpState:
    """Everything seen of one operation over the run."""

    op: workloads.Op
    prefix: str
    traces: List[dict] = field(default_factory=list)
    verdict: Optional[tuple] = None
    first_hash: Optional[str] = None
    first_counts: Optional[dict] = None
    e_inf: Optional[float] = None
    attempted: int = 0
    errors: List[str] = field(default_factory=list)


def run_child(argv, env, cwd, log_path) -> Sample:
    """Run one child to completion; wall time, CPU and peak RSS of that child alone."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def _tail(path: str, lines: int = 3) -> str:
    with open(path, errors="replace") as fh:
        return " | ".join(fh.read().strip().splitlines()[-lines:])


class Harness:
    def __init__(self, root: str, workload: str, seed: int):
        self.src = os.path.join(root, "src")
        self.work = os.path.join(root, WORK_DIR, f"{workload}-{seed}-{os.getpid()}")
        self.python = sys.executable
        self.env = dict(os.environ, PYTHONPATH=self.src)
        threads = str(len(os.sched_getaffinity(0)))
        for var in THREAD_VARS:
            self.env[var] = threads

    def child(self, argv, log_name) -> Sample:
        return run_child([self.python] + argv, self.env, self.work, os.path.join(self.work, log_name))

    def setup_sample(self) -> float:
        sample = self.child(["-c", "import caputodr.cli"], "setup.log")
        if sample.status != 0:
            raise RuntimeError(f"import caputodr.cli failed: {_tail(os.path.join(self.work, 'setup.log'))}")
        return sample.wall_s

    def execute(self, state: OpState, traced: bool) -> Sample:
        op = state.op
        csv_path = state.prefix + op.csv
        trace_path = state.prefix + ".trace.json"
        for path in (csv_path, trace_path):
            if os.path.exists(path):
                os.remove(path)
        cli_args = op.argv + ["--out", state.prefix]
        if traced:
            argv = [TRACED_CLI, trace_path] + cli_args
        else:
            argv = ["-m", "caputodr.cli"] + cli_args
        log_name = f"{op.name}.log"
        sample = self.child(argv, log_name)
        state.attempted += 1
        error = self._check(state, sample, csv_path, log_name)
        if traced:
            trace_error = self._check_trace(state, trace_path)
            error = error or trace_error
        if error is not None:
            state.errors.append(error)
        return sample

    def _check(self, state: OpState, sample: Sample, csv_path: str, log_name: str) -> Optional[str]:
        if sample.status != 0:
            return f"exit status {sample.status}: {_tail(os.path.join(self.work, log_name))}"
        if not os.path.exists(csv_path):
            return f"no output {os.path.basename(csv_path)}"
        with open(csv_path, "rb") as fh:
            data = fh.read()
        digest = hashlib.sha256(data).hexdigest()
        if state.first_hash is None:
            state.first_hash = digest
        elif digest != state.first_hash:
            return "output CSV differs from the first repetition with the same seed"
        if state.verdict is None:
            try:
                state.verdict = (None, state.op.check(data.decode()))
            except workloads.CheckFailed as exc:
                state.verdict = (str(exc), None)
        error, state.e_inf = state.verdict
        return error

    def _check_trace(self, state: OpState, trace_path: str) -> Optional[str]:
        if not os.path.exists(trace_path):
            state.traces.append(EMPTY_TRACE)
            return "no trace written"
        with open(trace_path) as fh:
            trace = json.load(fh)
        state.traces.append(trace)
        counts = {"counts": trace["counts"], "rule_cache": trace["rule_cache"]}
        if state.first_counts is None:
            state.first_counts = counts
        elif counts != state.first_counts:
            return "traced counts differ between repetitions"
        return None


def measure(harness: Harness, states: List[OpState], seconds: float, trace: bool):
    """Repeat the operation list until ``seconds`` pass; returns (plain, traced, setup) samples."""
    plain, traced, setup = [], [], []
    harness.setup_sample()  # compiles bytecode and warms the file cache; not recorded
    start = time.perf_counter()
    while True:
        if not trace:
            setup.extend(harness.setup_sample() for _ in range(SETUP_PER_REP))
        plain.append([harness.execute(s, traced=False) for s in states])
        if trace:
            traced.append([harness.execute(s, traced=True) for s in states])
        elapsed = time.perf_counter() - start
        enough = len(traced) >= MIN_TRACED_REPS if trace else len(plain) >= MIN_REPS
        if enough and elapsed * (len(plain) + 1) / len(plain) > seconds:
            return plain, traced, setup


def _per_op_median_sum(reps, attr) -> float:
    columns = zip(*reps)
    return float(sum(statistics.median(getattr(s, attr) for s in col) for col in columns))


def end_to_end_metrics(states, plain, setup) -> dict:
    peak_rss = max(statistics.median(s.rss_mb for s in col) for col in zip(*plain))
    e_inf = [s.e_inf for s in states if s.e_inf is not None]
    return {
        "wall_s": (_per_op_median_sum(plain, "wall_s"), "s"),
        "cpu_s": (_per_op_median_sum(plain, "cpu_s"), "s"),
        "peak_rss_mb": (float(peak_rss), "MB"),
        "setup_s": (float(statistics.median(setup)), "s"),
        "e_inf_max": (max(e_inf) if e_inf else 0.0, "abs"),
    }


def per_layer_metrics(states, plain, traced):
    """Per-layer metrics from the traced repetitions, and each layer's share of their wall."""
    reps = []
    for rep_index, samples in enumerate(traced):
        busy = dict.fromkeys(LAYER_METRICS, 0.0)
        counts = {}
        hits = misses = 0
        for state in states:
            trace = state.traces[rep_index]
            for layer, value in trace["self_s"].items():
                busy[layer] = busy.get(layer, 0.0) + value
            for name, value in trace["counts"].items():
                counts[name] = counts.get(name, 0) + value
            hits += trace["rule_cache"]["hits"]
            misses += trace["rule_cache"]["misses"]
        wall = sum(s.wall_s for s in samples)
        reps.append({"busy": busy, "counts": counts, "hits": hits, "misses": misses, "wall": wall})

    def median_of(fn):
        return float(statistics.median(fn(r) for r in reps))

    first = reps[0]
    metrics = {}
    for layer, name in LAYER_METRICS.items():
        metrics[name] = (median_of(lambda r: r["busy"][layer]), "s")
    built = first["misses"] + first["counts"].get("quadrature.direct_builds", 0)
    lookups = first["hits"] + first["misses"]
    metrics["quadrature.rules_built"] = (built, "count")
    metrics["quadrature.cache_hit_ratio"] = (first["hits"] / lookups if lookups else 0.0, "frac")
    for name in COUNT_METRICS:
        metrics[name] = (first["counts"].get(name, 0), "count")
    metrics["report.bytes_written"] = (first["counts"].get("report.bytes_written", 0), "bytes")
    busy = metrics["diffusive.busy_s"][0]
    steps = metrics["diffusive.node_steps"][0]
    metrics["diffusive.node_steps_per_s"] = (steps / busy if busy > 0 else 0.0, "1/s")
    metrics["cli.other_s"] = (median_of(lambda r: r["wall"] - sum(r["busy"].values())), "s")
    plain_wall = statistics.median(sum(s.wall_s for s in samples) for samples in plain)
    metrics["trace.overhead_frac"] = (median_of(lambda r: r["wall"]) / plain_wall - 1.0, "frac")

    traced_wall = median_of(lambda r: r["wall"])
    groups = {
        "diffusive": ["diffusive"],
        "quadrature": ["quadrature"],
        "signal+specfun+oracle+report": ["signal", "oracle", "report"],
        "cli.load": ["cli.load"],
    }
    shares = {g: median_of(lambda r: sum(r["busy"][k] for k in keys)) / traced_wall for g, keys in groups.items()}
    shares["other (import, argument parsing)"] = metrics["cli.other_s"][0] / traced_wall
    missing = sorted({m for s in states for t in s.traces for m in t["missing_hooks"]})
    return metrics, shares, missing


def _src_lines(src: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), errors="replace") as fh:
                    total += sum(1 for _ in fh)
    return total


def _git_sha(root: str) -> Optional[str]:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "caputodr", "cli.py")):
        print("perfbench: src/caputodr/cli.py not found; run from the repository root", file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    harness = Harness(root, args.workload, args.seed)
    os.makedirs(harness.work)
    try:
        ops = workloads.build(args.workload, args.seed, harness.src, harness.work)
        states = [OpState(op, os.path.join(harness.work, op.name)) for op in ops]
        plain, traced, setup = measure(harness, states, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(harness.work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass

    attempted = sum(s.attempted for s in states)
    failed = sum(len(s.errors) for s in states)
    for state in states:
        for message in sorted(set(state.errors)):
            print(f"perfbench: {state.op.name} failed: {message}", file=sys.stderr)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {var: harness.env[var] for var in THREAD_VARS},
        "src_lines": _src_lines(harness.src),
        "repetitions": {"plain": len(plain), "traced": len(traced), "setup": len(setup)},
        "failed_frac": failed / attempted,
        "ops": {
            s.op.name: {
                "argv": s.op.argv,
                "wall_s": [round(rep[i].wall_s, 4) for rep in plain],
                "wall_s_median": statistics.median(rep[i].wall_s for rep in plain),
                "cpu_s_median": statistics.median(rep[i].cpu_s for rep in plain),
                "e_inf": s.e_inf,
            }
            for i, s in enumerate(states)
        },
    }
    if args.trace:
        metrics, shares, missing = per_layer_metrics(states, plain, traced)
        record["layer_share_of_traced_wall"] = shares
        record["missing_hooks"] = missing
    else:
        metrics = end_to_end_metrics(states, plain, setup)

    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>14.6g} {unit}", file=sys.stderr)
    print(json.dumps({"run_record": record}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
