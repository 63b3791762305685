"""The functions of the package that no probed command enters are exactly
the allowlist below, each kept for the reason given (tests/reach_probe.py);
an entry the probe does enter fails the test too, so none goes stale."""

import os
import subprocess
import sys
from pathlib import Path

import ncmotives

PROBE = Path(__file__).resolve().with_name("reach_probe.py")

ALLOWED = {
    "algebra.Algebra.__repr__": "a repr, read in error messages and when debugging",
    "algebra.Quiver.__repr__": "a repr",
    "complexes.Complex.__repr__": "a repr",
    "complexes.PerfectComplex.__repr__": "a repr",
    "linalg.Matrix.__repr__": "a repr",
    "modules.Module.__repr__": "a repr",
    "motives.Correspondence.__repr__": "a repr",
    "motives.NCMotive.__repr__": "a repr",
    "complexes.LazyDifferentials.__len__": "part of the Mapping protocol LazyDifferentials implements",
    "linalg.Matrix.__hash__": "Matrix defines __eq__, so it needs __hash__ to stay hashable",
    "linalg.RowBasis.__len__": "container protocol, the dimension of the span",
}


def test_reach_probe_enters_all_but_the_allowlist():
    src = Path(ncmotives.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, str(PROBE)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    ).stdout
    runs, missed = out.split("never entered (function, lines):\n")
    assert [line.split()[:2] for line in runs.splitlines()] == [["exit", "0"]] * 17
    never = {line.split()[0] for line in missed.splitlines()[:-1]}
    assert never == ALLOWED.keys(), (sorted(never - ALLOWED.keys()), sorted(ALLOWED.keys() - never))
