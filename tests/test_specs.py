"""The spec reader: one algebra per spelling, read without the command line."""

import pytest

from geometry_reference import kronecker_spec, line_spec
from ncmotives.corpus import CORPUS_NAMES, corpus_algebra
from ncmotives.derived import euler_matrix
from ncmotives.specs import NAMED_SPECS, InputError, algebra_from_spec
from test_cli import _run_fresh, run_to_report, write

# D4 with its three arrows into one vertex
D4_SPEC = {
    "format": 1,
    "kind": "quiver",
    "vertices": 4,
    "arrows": [{"from": i, "to": 3, "label": f"d{i}"} for i in range(3)],
}


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_a_named_algebra_is_its_spec(name):
    named = algebra_from_spec({"kind": "named", "name": name})
    assert named is algebra_from_spec(NAMED_SPECS[name]) is corpus_algebra(name)


@pytest.mark.parametrize("name", ["A5", "", ["A2"], {"A2": 1}, 2, None])
def test_an_unknown_name_is_malformed(name):
    with pytest.raises(InputError, match="unknown named algebra"):
        algebra_from_spec({"kind": "named", "name": name})


def test_intersect_diagonal_terms_across_a_named_algebra_and_its_spec(tmp_path):
    """A named algebra and its spelled-out quiver spec are one algebra, so
    diagonal terms between them are accepted, and the report is that of
    the quiver spec on both sides."""
    diagonal = {"terms": [{"bimodule": {"kind": "diagonal"}}]}
    reports = []
    for source in ({"kind": "named", "name": "A2"}, NAMED_SPECS["A2"]):
        scenario = {
            "format": 1,
            "source": {"algebra": source},
            "target": {"algebra": NAMED_SPECS["A2"]},
            "x": diagonal,
            "y": diagonal,
        }
        code, report = run_to_report(tmp_path, ["intersect", write(tmp_path, "scenario.json", scenario)])
        assert code == 0
        del report["inputs_digest"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["verdict"] is True


def test_reading_specs_loads_no_argument_parser():
    script = (
        "import sys\n"
        "import ncmotives.specs\n"
        "print(sorted(m for m in ('argparse', 'ncmotives.cli') if m in sys.modules))\n"
    )
    assert _run_fresh(script, timeout=60) == "[]"


LADDER_SPECS = {
    "A3": line_spec(3),
    "A4": line_spec(4),
    "D4": D4_SPEC,
    "K3": kronecker_spec(3),
    **NAMED_SPECS,
}


@pytest.mark.parametrize("spec", LADDER_SPECS.values(), ids=LADDER_SPECS)
def test_euler_determinant_of_a_spec_is_one(spec):
    assert euler_matrix(algebra_from_spec(spec)).det() == 1
