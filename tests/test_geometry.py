"""The Beilinson algebras of P^1 and P^2 (tests/geometry_reference.py), and
P^1 x P^1 as their `tensor` spec, run through the command line as `table`
inputs: their Euler form is the inverse of the binomial Cartan matrix, the
diagonal resolution has length n and the Koszul copy counts, the trace of
the diagonal is n + 1 (the Euler characteristic of P^n, 4 for P^1 x P^1),
Serre duality holds, and the verify reports are pinned.  Ringel's canonical
algebra C(2,2,2), whose relation a3 b3 = a1 b1 - a2 b2 is a product with two
terms and a negative coefficient, has its command-line results pinned too."""

import hashlib
import json
from collections import Counter
from math import comb

import pytest

from geometry_reference import beilinson_cartan, beilinson_spec, canonical_spec
from ncmotives.cli import algebra_from_spec, main
from ncmotives.derived import diagonal_resolution

# P^1, P^2 and P^1 x P^1 as specs, with the length of their diagonal
# resolutions (the dimension) and the trace of the diagonal (the Euler
# characteristic of the variety)
GEOMETRY = {
    "P1": (beilinson_spec(1), 1, 2),
    "P2": (beilinson_spec(2), 2, 3),
    "P1xP1": ({"format": 1, "kind": "tensor", "factors": [beilinson_spec(1)] * 2}, 2, 4),
}


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
    (1, 2): "551be28c0fde06dc00a33153a43a268db12059237e3568f49ec8ea82a396b889",
    (2, 2): "ffafbbba217815b0a8e8c5645f6d3e2caa3053e8e685018392e1437e68d85403",
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


@pytest.mark.parametrize("name", GEOMETRY)
def test_smooth_check_gives_the_dimension(tmp_path, name):
    spec, dim, _ = GEOMETRY[name]
    report = json.loads(_report(tmp_path, ["smooth-check"], spec))
    assert report["smooth"] is True
    assert report["diagonal_resolution_length"] == dim


@pytest.mark.parametrize("name", GEOMETRY)
def test_trace_of_the_diagonal_is_the_euler_characteristic(tmp_path, name):
    spec, _, euler = GEOMETRY[name]
    scenario = {"format": 1, "source": {"algebra": spec}, "z": {"terms": [{"bimodule": {"kind": "diagonal"}}]}}
    assert json.loads(_report(tmp_path, ["trace"], scenario))["trace"] == euler


@pytest.mark.parametrize("name", GEOMETRY)
def test_serre_check_holds(tmp_path, name):
    report = json.loads(_report(tmp_path, ["--seed", "1", "serre-check", "--samples", "3"], GEOMETRY[name][0]))
    assert report["verdict"] is True
    assert len(report["checks"]) == 6


@pytest.mark.parametrize("n", [1, 2])
def test_diagonal_resolution_has_the_koszul_copy_counts(n):
    """B_n is Koszul: in degree -k the diagonal resolution has copy (i, i+k),
    index i (n + 1) + i + k, exactly binom(n + 1, k) times (the k-th
    exterior power of the n + 1 variables), for k = 0 ... n, and no other
    copy."""
    res = diagonal_resolution(algebra_from_spec(beilinson_spec(n)))
    expected = {
        -k: {i * (n + 1) + i + k: comb(n + 1, k) for i in range(n + 1 - k)} for k in range(n + 1)
    }
    assert {d: dict(Counter(res.copies_at(d))) for d in res.copies} == expected


CANONICAL = canonical_spec()
# command, its options, its input, and what its report must hold on C(2,2,2)
CANONICAL_RESULTS = {
    "euler-matrix": (
        [],
        CANONICAL,
        {
            "determinant": 1,
            "matrix": [
                [1, -1, -1, -1, 1],
                [0, 1, 0, 0, -1],
                [0, 0, 1, 0, -1],
                [0, 0, 0, 1, -1],
                [0, 0, 0, 0, 1],
            ],
        },
    ),
    "smooth-check": ([], CANONICAL, {"smooth": True, "diagonal_resolution_length": 2}),
    "hochschild": (
        ["--top", "3", "--bar-check", "2"],
        CANONICAL,
        {"dims": [5, 0, 0, 0], "bar_dims": [5, 0, 0], "verdict": True},
    ),
    "verify": (
        [],
        {"format": 1, "source": {"algebra": CANONICAL}, "target": {"algebra": CANONICAL}},
        {"dim": 25, "det_gram_chi": "1", "kernel_dim": 0, "verdict": True},
    ),
}


@pytest.mark.parametrize("command", CANONICAL_RESULTS)
def test_canonical_algebra_results_are_pinned(tmp_path, command):
    """C(2,2,2) has dimension 13, an Euler matrix of determinant 1, a
    diagonal resolution of length 2, HH = [5, 0, 0, 0] as the bar complex
    agrees, and a unimodular 25-dimensional Hom model of its identity
    motive.  A projective module that drops the second term of a product,
    or its sign, makes its perfect complexes fail d^2 = 0."""
    options, spec, expected = CANONICAL_RESULTS[command]
    assert CANONICAL["dim"] == 13
    report = json.loads(_report(tmp_path, [command, *options], spec))
    assert {key: report[key] for key in expected} == expected
