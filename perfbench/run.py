"""Benchmark of the ncmotives command line, end to end and per module.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 52 --trace 0

Load model: one closed-loop client runs one operation at a time, and each
step of an operation is a fresh interpreter started through the console
entry point (`ncmotives.cli.main`).  Operations are cold on purpose: the
package caches results on `Algebra` instances and on module-level
singletons, so every command-line user pays the cold cost, and an
in-process repeat would only time warm caches.

`--trace 0` times operations untraced and prints the end-to-end metrics.
`--trace 1` first runs one operation under `perfbench/tracer.py`, which
wraps the public functions of every package module from outside, then times
untraced operations for the rest of the run; it prints the per-module
metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The lines before it are a
human-readable summary and the machine record.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
TRACER = BENCH_DIR / "tracer.py"
WORK_DIR_NAME = ".bench_work"

# What the `ncmotives` console script runs.
ENTRY = "import sys; from ncmotives.cli import main; sys.exit(main())"
IMPORT_ONLY = "import ncmotives.cli"

# Set-up is timed this many times before the first operation and again after
# each operation, so its median samples the host's speed over the whole run.
SETUP_REPEATS = 3
# A run never lets a child outlive this many seconds after the run started,
# so the benchmark exits well within its 180 s limit even if steps hang.
HARD_DEADLINE_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "op_wall_s": "s",
    "op_cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_ops_ratio": "ratio",
}

# Per-module metrics of the traced run: (function key, stats).  A function
# key is `<module>.<qualname>` inside `ncmotives`.
TRACED_FUNCTIONS = [
    ("algebra.tensor", ("calls", "self_s", "hit_ratio", "built_dim_max")),
    ("modules.dual_bimodule", ("calls", "self_s")),
    ("modules.direct_sum_modules", ("self_s",)),
    ("modules.cover_data", ("self_s",)),
    ("resolutions.projective_resolution", ("calls", "self_s", "length_max")),
    ("resolutions.resolve_complex", ("calls", "self_s", "out_dim_max")),
    ("homalg.tensor_over", ("calls", "self_s")),
    ("homalg.hom_complex", ("calls", "self_s")),
    ("homalg.dual_perfect", ("calls",)),
    ("derived.serre", ("calls", "total_s")),
    ("derived.simple_resolutions", ("hit_ratio",)),
    ("derived.diagonal_resolution", ("hit_ratio",)),
    ("derived.euler_matrix", ("hit_ratio",)),
    ("hochschild.bar_oracle", ("calls", "self_s")),
    ("hochschild.hochschild", ("total_s",)),
    ("hochschild.intersection_number", ("calls",)),
    ("motives.compose", ("total_s",)),
    ("motives.trace", ("total_s",)),
    ("motives.build_hom_model", ("total_s",)),
    ("motives.verify_equivalence", ("total_s",)),
    ("motives.numerical_kernel", ("total_s",)),
    ("motives.composition_table", ("hit_ratio",)),
    ("complexes.Complex.homology", ("calls", "self_s")),
    ("linalg.Matrix.rref", ("calls", "self_s")),
    ("linalg.Matrix.__mul__", ("calls", "self_s")),
    ("linalg.Matrix.kernel_basis", ("calls", "self_s")),
    ("linalg.Matrix.left_kernel_basis", ("calls", "self_s")),
    ("corpus.random_perfect_complex", ("self_s",)),
    ("cli.main", ("total_s",)),
]
MODULES = (
    "linalg", "algebra", "modules", "complexes", "resolutions", "homalg",
    "derived", "hochschild", "motives", "corpus", "cli",
)
STAT_UNITS = {
    "calls": "count",
    "self_s": "s",
    "total_s": "s",
    "hit_ratio": "ratio",
    "built_dim_max": "count",
    "length_max": "count",
    "out_dim_max": "count",
}
MAX_STATS = ("built_dim_max", "length_max", "out_dim_max")


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in print order."""
    units = {}
    for func, stats in TRACED_FUNCTIONS:
        for stat in stats:
            units[f"{func}.{stat}"] = STAT_UNITS[stat]
    units["linalg.Matrix.cells"] = "count"
    for mod in MODULES:
        units[f"{mod}.self_s"] = "s"
    units["trace_overhead_ratio"] = "ratio"
    return units


# -- workloads -------------------------------------------------------------------


@dataclass
class Step:
    """One child process: CLI arguments (without --out), output check, budget."""

    label: str
    argv: list
    check: Callable[[dict], str | None]
    budget_s: float


@dataclass
class Workload:
    name: str
    # prepare(inputs_dir, rng) writes the input files and returns the
    # operations the run cycles through; each operation is a list of steps.
    prepare: Callable[[Path, random.Random], list]


def line_quiver(n: int) -> dict:
    """Algebra spec of the path algebra of the line quiver A_n."""
    arrows = [{"from": i, "to": i + 1, "label": f"a{i}"} for i in range(n - 1)]
    return {"format": 1, "kind": "quiver", "vertices": n, "arrows": arrows}


def all_checks_pass(report: dict, command: str) -> str | None:
    if report.get("command") != command:
        return f"report command is {report.get('command')!r}, not {command!r}"
    if report.get("verdict") is not True:
        return "verdict is not true"
    failing = [c.get("name") for c in report.get("checks", []) if c.get("pass") is not True]
    if failing:
        return f"failing checks {failing[:5]}"
    return None


CORPUS_SECTIONS = {"euler", "euler-oracle", "smooth", "hochschild-vs-bar", "serre-duality", "verify"}


def check_corpus(report: dict) -> str | None:
    err = all_checks_pass(report, "corpus")
    if err:
        return err
    table = report.get("table") or []
    failing = [f"{r.get('section')}:{r.get('name')}" for r in table if r.get("pass") is not True]
    if failing:
        return f"failing corpus rows {failing[:5]}"
    missing = CORPUS_SECTIONS - {r.get("section") for r in table}
    if missing:
        return f"corpus table lacks sections {sorted(missing)}"
    return None


def verify_check(n_src: int, n_dst: int):
    """Identity motives of line quivers: the Hom model has one class per
    pair of vertices and a unimodular Euler form, so both kernels are 0."""

    def check(report: dict) -> str | None:
        err = all_checks_pass(report, "verify")
        if err:
            return err
        if not report.get("checks"):
            return "verify report has no checks"
        if report.get("dim") != n_src * n_dst:
            return f"Hom model dim {report.get('dim')}, expected {n_src * n_dst}"
        if report.get("kernel_dim") != 0 or report.get("numerical_kernel_dim") != 0:
            return "nonzero kernel on a unimodular Hom model"
        return None

    return check


def hochschild_check(n: int, top: int, bar: int):
    """A hereditary path algebra of a tree quiver with n vertices has
    HH_0 = n and HH_i = 0 for i > 0; the bar complex must agree."""

    def check(report: dict) -> str | None:
        err = all_checks_pass(report, "hochschild")
        if err:
            return err
        expected = [n] + [0] * top
        if report.get("dims") != expected:
            return f"dims {report.get('dims')}, expected {expected}"
        if report.get("bar_dims") != expected[: bar + 1]:
            return f"bar_dims {report.get('bar_dims')}, expected {expected[: bar + 1]}"
        return None

    return check


def corpus_workload(name: str, samples: int, bar_depth: int, budget_s: float) -> Workload:
    def prepare(inputs: Path, rng: random.Random) -> list:
        seeds = [rng.randrange(1_000_000) for _ in range(32)]
        argv = ["corpus", "--samples", str(samples), "--bar-depth", str(bar_depth)]
        return [[Step(f"corpus seed {s}", ["--seed", str(s), *argv], check_corpus, budget_s)] for s in seeds]

    return Workload(name, prepare)


def verify_workload(name: str, pairs, budget_s: float) -> Workload:
    """One operation verifies identity motives A_m -> A_n for each (m, n)."""

    def prepare(inputs: Path, rng: random.Random) -> list:
        seed = str(rng.randrange(1_000_000))
        steps = []
        for m, n in pairs:
            path = inputs / f"verify_A{m}_A{n}.json"
            scenario = {
                "format": 1,
                "source": {"algebra": line_quiver(m)},
                "target": {"algebra": line_quiver(n)},
            }
            path.write_text(json.dumps(scenario))
            steps.append(Step(f"verify A{m}->A{n}", ["--seed", seed, "verify", str(path)], verify_check(m, n), budget_s))
        return [steps]

    return Workload(name, prepare)


def hochschild_workload(name: str, n: int, top: int, bar: int, budget_s: float) -> Workload:
    def prepare(inputs: Path, rng: random.Random) -> list:
        path = inputs / f"A{n}.json"
        path.write_text(json.dumps(line_quiver(n)))
        argv = ["hochschild", str(path), "--top", str(top), "--bar-check", str(bar)]
        return [[Step(f"hochschild A{n}", argv, hochschild_check(n, top, bar), budget_s)]]

    return Workload(name, prepare)


# The workloads of BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        corpus_workload("corpus", samples=2, bar_depth=3, budget_s=60),
        verify_workload("hom-verify", pairs=[(3, 3), (4, 2)], budget_s=60),
    )
}
# Runnable by name for a per-module split, but not part of BENCHMARK.json:
# its operations repeat no better than corpus, and a third workload would
# shorten every run below a steady length (see perfbench/rationale.json).
EXTRA_WORKLOADS = {
    w.name: w
    for w in (hochschild_workload("hochschild-bar", n=5, top=3, bar=3, budget_s=60),)
}


# -- child processes ---------------------------------------------------------------


@dataclass
class StepResult:
    wall_s: float
    cpu_s: float
    rss_mb: float
    error: str | None


def run_child(cmd, env, budget_s: float, stderr_path: Path):
    """Run one child; return (wall s, rusage, exit code or None on timeout).

    CPU and peak RSS come from os.wait4 on this child's pid, so they belong
    to this child alone (RUSAGE_CHILDREN would give the maximum RSS over all
    children so far)."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], max(budget_s, 0.0))
        if not ready:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    finally:
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, (proc.returncode if ready else None)


def stderr_tail(path: Path) -> str:
    lines = path.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


class Runner:
    """Runs the steps of one benchmark run inside a private work directory."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        # Fixed hash seed: set iteration order, and so the work done, is the
        # same on every run.
        self.env["PYTHONHASHSEED"] = "0"

    def child(self, args, budget_s: float):
        err = self.work / "child.err"
        budget_s = min(budget_s, self.deadline - time.perf_counter())
        wall, usage, code = run_child([sys.executable, *args], self.env, budget_s, err)
        return wall, usage, code, err

    def step(self, step: Step, stats_path: Path | None = None) -> StepResult:
        out = self.work / "report.json"
        if stats_path is None:
            args = ["-c", ENTRY, *step.argv, "--out", str(out)]
        else:
            args = [str(TRACER), str(stats_path), *step.argv, "--out", str(out)]
        wall, usage, code, err = self.child(args, step.budget_s)
        cpu = usage.ru_utime + usage.ru_stime
        rss = usage.ru_maxrss / 1024
        if code is None:
            error = f"timeout after {wall:.1f} s"
        elif code != 0:
            error = f"exit code {code}: {stderr_tail(err)}"
        else:
            try:
                report = json.loads(out.read_text())
            except (OSError, ValueError) as exc:
                report, error = None, f"missing or unparsable report: {exc}"
            if report is not None:
                error = step.check(report) if isinstance(report, dict) else "report is not an object"
        out.unlink(missing_ok=True)
        if error:
            error = f"{step.label}: {error}"
        return StepResult(wall, cpu, rss, error)

    def operation(self, op, stats_dir: Path | None = None) -> StepResult:
        """Run the steps of one operation in order; stop at the first failure."""
        wall = cpu = rss = 0.0
        error = None
        for i, step in enumerate(op):
            stats = None if stats_dir is None else stats_dir / f"stats{i}.json"
            r = self.step(step, stats)
            wall, cpu, rss = wall + r.wall_s, cpu + r.cpu_s, max(rss, r.rss_mb)
            if r.error:
                error = r.error
                break
        return StepResult(wall, cpu, rss, error)


# -- machine record -----------------------------------------------------------------


def read_proc(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def load_1min() -> float | None:
    fields = read_proc("/proc/loadavg").split()
    return float(fields[0]) if fields else None


def cpus_allowed() -> int | None:
    for line in read_proc("/proc/self/status").splitlines():
        if line.startswith("Cpus_allowed_list:"):
            count = 0
            for part in line.split(":", 1)[1].strip().split(","):
                lo, _, hi = part.partition("-")
                count += int(hi or lo) - int(lo) + 1
            return count
    return None


def cpu_model() -> str | None:
    for line in read_proc("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


# -- one run ------------------------------------------------------------------------


def measure_setup(runner: Runner, workload: Workload, rng_seed: int, times: list):
    """Time SETUP_REPEATS set-ups, appending each to `times`: write the
    workload's inputs, then start a fresh interpreter that imports the CLI.
    Returns the operations."""
    inputs = runner.work / "inputs"
    inputs.mkdir(exist_ok=True)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = workload.prepare(inputs, random.Random(rng_seed))
        _, _, code, err = runner.child(["-c", IMPORT_ONLY], 60)
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"importing ncmotives.cli failed: {stderr_tail(err)}")
    return ops


def timed_loop(runner: Runner, ops, seconds: float, t_start: float, between: Callable[[], object]) -> list:
    """Closed loop: start the next operation while it is expected to end
    nearer to `seconds` after `t_start` than stopping now would, that is
    while elapsed time plus half the median operation is under `seconds`.
    A run so measures about `seconds` whatever the length of an operation;
    at least one operation runs.  `between` runs after each operation."""
    results = []
    i = 0
    while True:
        r = runner.operation(ops[i % len(ops)])
        between()
        results.append(r)
        status = "ok" if r.error is None else f"FAILED ({r.error})"
        print(f"op {i + 1}: wall {r.wall_s:.3f} s  cpu {r.cpu_s:.3f} s  rss {r.rss_mb:.1f} MB  {status}")
        i += 1
        half_op = statistics.median(x.wall_s for x in results) / 2
        if time.perf_counter() - t_start + half_op >= seconds:
            return results


def pooled_stats(paths) -> tuple[dict, int]:
    """Sum the tracer's per-function counters over the steps of an operation."""
    funcs: dict = {}
    cells = 0
    for path in paths:
        data = json.loads(path.read_text())
        cells += data["cells"]
        for key, st in data["functions"].items():
            acc = funcs.setdefault(key, {})
            for stat, value in st.items():
                if stat in MAX_STATS:
                    acc[stat] = max(acc.get(stat, 0), value)
                else:
                    acc[stat] = acc.get(stat, 0) + value
    return funcs, cells


def per_layer_metrics(funcs: dict, cells: int, overhead: float) -> tuple[dict, list]:
    values = {}
    absent = []
    for func, stats in TRACED_FUNCTIONS:
        st = funcs.get(func)
        if st is None:
            absent.append(func)
            st = {}
        for stat in stats:
            if stat == "hit_ratio":
                value = st.get("hits", 0) / st["calls"] if st.get("calls") else 0.0
            else:
                value = st.get(stat, 0)
            values[f"{func}.{stat}"] = value
    values["linalg.Matrix.cells"] = cells
    for mod in MODULES:
        values[f"{mod}.self_s"] = sum(
            st.get("self_s", 0.0) for key, st in funcs.items() if key.split(".", 1)[0] == mod
        )
    values["trace_overhead_ratio"] = overhead
    units = per_layer_units()
    return {name: {"value": values[name], "unit": units[name]} for name in units}, absent


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    t_start = time.perf_counter()
    work = root / WORK_DIR_NAME / f"run{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    machine = {
        "python": sys.version.split()[0],
        "nproc": cpus_allowed(),
        "cpu_model": cpu_model(),
        "load_1min_start": load_1min(),
    }
    try:
        runner = Runner(root, work, t_start + HARD_DEADLINE_S)
        # Untimed first import, so compiled bytecode exists as in an installed copy.
        runner.child(["-c", IMPORT_ONLY], 60)
        setup_times = []
        ops = measure_setup(runner, workload, seed, setup_times)
        t_loop = time.perf_counter()
        traced = None
        if trace:
            stats_dir = work / "stats"
            stats_dir.mkdir()
            traced = runner.operation(ops[0], stats_dir)
            status = "ok" if traced.error is None else f"FAILED ({traced.error})"
            print(f"traced op: wall {traced.wall_s:.3f} s  {status}")
        results = timed_loop(runner, ops, seconds, t_loop, lambda: measure_setup(runner, workload, seed, setup_times))
        everything = results + ([traced] if traced is not None else [])
        failed = sum(1 for r in everything if r.error)
        attempted = len(everything)
        print(f"failed_ops_ratio {failed / attempted} ({failed} of {attempted} operations)")
        if trace:
            overhead = traced.wall_s / statistics.median(r.wall_s for r in results)
            if traced.error is None:
                funcs, cells = pooled_stats(sorted(stats_dir.glob("stats*.json")))
            else:
                funcs, cells = {}, 0
            metrics, absent = per_layer_metrics(funcs, cells, overhead)
            if absent:
                print(f"absent functions: {', '.join(absent)}")
            print_layer_split(funcs)
        else:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "op_wall_s": statistics.median(r.wall_s for r in results),
                "op_cpu_s": statistics.median(r.cpu_s for r in results),
                "peak_rss_mb": max(r.rss_mb for r in results),
                "ok_ops_ratio": (attempted - failed) / attempted,
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    machine["load_1min_end"] = load_1min()
    print(json.dumps({"machine": machine, "workload": workload.name, "seed": seed, "seconds": seconds}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def print_layer_split(funcs: dict) -> None:
    """Self time per module and the functions that spend most of it."""
    by_module = {}
    for key, st in funcs.items():
        mod = key.split(".", 1)[0]
        by_module[mod] = by_module.get(mod, 0.0) + st.get("self_s", 0.0)
    split = "  ".join(f"{m} {s:.3f}" for m, s in sorted(by_module.items(), key=lambda kv: -kv[1]))
    print(f"self_s by module: {split}")
    top = sorted(funcs.items(), key=lambda kv: -kv[1].get("self_s", 0.0))[:8]
    print("top self_s: " + "  ".join(f"{k} {st['self_s']:.3f}" for k, st in top))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted({**WORKLOADS, **EXTRA_WORKLOADS}))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "ncmotives" / "cli.py").is_file():
        sys.stderr.write(f"no ncmotives sources under {root / 'src'}; run from the root of a checkout\n")
        return 2
    workload = {**WORKLOADS, **EXTRA_WORKLOADS}[args.workload]
    result = run_workload(workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
