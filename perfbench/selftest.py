"""Self-test of the benchmark runner on tiny inputs (about half a minute).

    python3 perfbench/selftest.py

Run from the root of a checkout.  Tiny workloads go through the same
code path as the real ones: A2->A2 verify, A3 hochschild with a depth-2 bar
check, and a small corpus, untraced and traced.  An input the CLI documents
as malformed (an unknown algebra kind, exit code 2) and a step that exceeds
its budget must each count as a failed operation.  The metric and workload
names printed must match BENCHMARK.json and perfbench/rationale.json, and
the benchmark must refuse to run in a directory without the sources.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import run

BENCH_DIR = Path(__file__).resolve().parent

failures = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def metric_units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def check_names(bench: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(e2e == run.END_TO_END, "end-to-end metrics of BENCHMARK.json match run.py")
    expect(layer == run.per_layer_units(), "per-layer metrics of BENCHMARK.json match run.py")
    names = [w["name"] for w in bench["workloads"]]
    expect(names == list(run.WORKLOADS), "workloads of BENCHMARK.json match run.py")
    rationale = json.loads((BENCH_DIR / "rationale.json").read_text())
    expect([w["name"] for w in rationale["workloads"]] == names, "workloads of rationale.json match")
    extra = [w["name"] for w in rationale["extra_workloads"]]
    expect(extra == list(run.EXTRA_WORKLOADS), "extra workloads of rationale.json match run.py")
    predicted = {m for row in rationale["per_layer"]["predicted"] for m in row["metrics"]}
    expect(predicted == set(layer), "rationale.json predicts every per-layer metric, and only those")
    moved = {m for row in rationale["per_layer"]["predicted"] for m in row["should_move"]}
    expect(moved <= set(e2e), "rationale.json names only end-to-end metrics as should_move")
    expect(set(rationale["end_to_end"]) == set(e2e), "rationale.json defines every end-to-end metric")


def malformed_workload() -> run.Workload:
    def prepare(inputs: Path, rng: random.Random) -> list:
        path = inputs / "unknown_kind.json"
        path.write_text(json.dumps({"format": 1, "source": {"algebra": {"kind": "no-such-kind"}}}))
        return [[run.Step("verify unknown kind", ["verify", str(path)], run.verify_check(1, 1), 60)]]

    return run.Workload("malformed", prepare)


def bench(workload: run.Workload, trace: bool, root: Path) -> dict:
    print(f"-- {workload.name} (trace {int(trace)})")
    return run.run_workload(workload, seed=1, seconds=0, trace=trace, root=root)


def main() -> int:
    root = Path.cwd()
    bench_json = json.loads((root / "BENCHMARK.json").read_text())
    check_names(bench_json)

    tiny_verify = run.verify_workload("tiny-verify", pairs=[(2, 2)], budget_s=60)
    tiny_hochschild = run.hochschild_workload("tiny-hochschild", n=3, top=2, bar=2, budget_s=60)
    tiny_corpus = run.corpus_workload("tiny-corpus", samples=1, bar_depth=1, budget_s=120)
    for w in (tiny_verify, tiny_hochschild, tiny_corpus):
        r = bench(w, False, root)
        expect(r["correct"] and r["attempted"] == 1 and r["failed"] == 0, f"{w.name}: one correct operation")
        expect(metric_units(r) == run.END_TO_END, f"{w.name}: prints every end-to-end metric with its unit")
        expect(all(m["value"] > 0 for m in r["metrics"].values()), f"{w.name}: no end-to-end metric is 0")

    r = bench(tiny_verify, True, root)
    m = {k: v["value"] for k, v in r["metrics"].items()}
    expect(r["correct"] and r["attempted"] == 2, f"traced {tiny_verify.name}: traced and untraced operations pass")
    expect(metric_units(r) == run.per_layer_units(), "traced run prints every per-layer metric with its unit")
    expect(m["derived.serre.calls"] > 0 and m["resolutions.resolve_complex.calls"] > 0, "verify calls serre and resolve_complex")
    expect(m["cli.main.total_s"] > 0 and m["linalg.Matrix.cells"] > 0, "cli.main is traced and matrix cells are counted")
    r = bench(tiny_hochschild, True, root)
    m = {k: v["value"] for k, v in r["metrics"].items()}
    expect(r["correct"], f"traced {tiny_hochschild.name}: operations pass")
    expect(m["resolutions.resolve_complex.calls"] == 0 and m["hochschild.bar_oracle.calls"] == 1,
           "hochschild calls bar_oracle once and resolve_complex never")

    r = bench(malformed_workload(), False, root)
    expect(not r["correct"] and r["attempted"] == 1 and r["failed"] == 1, "an unknown algebra kind counts as a failed operation")
    expect(r["metrics"]["ok_ops_ratio"]["value"] == 0, "the failed operation shows in ok_ops_ratio")
    r = bench(run.verify_workload("tiny-timeout", pairs=[(2, 2)], budget_s=0.01), False, root)
    expect(not r["correct"] and r["failed"] == 1, "a step over its budget counts as a failed operation")

    bare = root / run.WORK_DIR_NAME / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [sys.executable, "perfbench/run.py", "--workload", "hom-verify", "--seed", "1", "--seconds", "1", "--trace", "0"]
        p = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
        expect(p.returncode != 0 and '"correct"' not in p.stdout, "without the sources the benchmark exits nonzero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failed checks" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
