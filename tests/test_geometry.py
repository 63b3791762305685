"""The Beilinson algebras of P^1 and P^2 (tests/geometry_reference.py) run
through the command line as `table` inputs: their Euler form is the inverse
of the binomial Cartan matrix, and the verify reports are pinned."""

import hashlib
import json

import pytest

from geometry_reference import beilinson_cartan, beilinson_spec
from ncmotives.cli import main


def _report(tmp_path, argv, spec):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "report.json"
    assert main(argv + [str(path), "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("n", [1, 2])
def test_euler_matrix_of_the_beilinson_algebra_inverts_its_cartan_matrix(tmp_path, n):
    """chi(e_i B, S_j) = delta_ij and [e_i B] = sum_k C_ik [S_k], so the
    Euler matrix on the simple basis is C^-1 with C_ij = binom(n + j - i, n)."""
    report = json.loads(_report(tmp_path, ["euler-matrix"], beilinson_spec(n)))
    chi = report["matrix"]
    cartan = beilinson_cartan(n)
    product = [[sum(x * y for x, y in zip(row, col)) for col in zip(*cartan)] for row in chi]
    assert product == [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
    assert report["determinant"] == 1


# SHA-256 of the `--seed 1 verify` reports on the identity motives of the
# Beilinson algebras; like the pinned benchmark reports, they depend only on
# the mathematics.
PINNED_BEILINSON_VERIFY = {
    (1, 2): "ae5c3db805f6ffdc52d68cacc892b4eca28f7bd5a90e4c90177c2bf39ade6158",
    (2, 2): "6849cb4033eedd7690db36ea80452fac402825e3faaa276def6a2a3fbc22c92c",
}


@pytest.mark.parametrize("pair", PINNED_BEILINSON_VERIFY, ids=lambda p: f"P{p[0]}-to-P{p[1]}")
def test_verify_reports_on_beilinson_algebras_are_pinned(tmp_path, pair):
    m, n = pair
    scenario = {
        "format": 1,
        "source": {"algebra": beilinson_spec(m)},
        "target": {"algebra": beilinson_spec(n)},
    }
    report = _report(tmp_path, ["--seed", "1", "verify"], scenario)
    assert hashlib.sha256(report).hexdigest() == PINNED_BEILINSON_VERIFY[pair]
