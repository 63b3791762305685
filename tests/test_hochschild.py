import pytest

from bar_reference import absolute_bar_dims
from dense_reference import hh_euler, regular_module
from geometry_reference import line_spec
from ncmotives.algebra import Algebra, hom_algebra, opposite, table_algebra, tensor
from correspondence_reference import random_correspondence
from ncmotives.derived import diagonal_resolution
from ncmotives.hochschild import (
    bar_oracle,
    hochschild,
    hochschild_euler,
    intersection_number,
)
from ncmotives.modules import (
    diagonal_bimodule,
    dual_bimodule,
    simple_modules,
)
from ncmotives.motives import Correspondence, NCMotive, identity_correspondence
from ncmotives.resolutions import resolution_length


def test_hochschild_of_scalars(q):
    assert hochschild(q, diagonal_bimodule(q), top=3) == [1, 0, 0, 0]


def test_hochschild_a2_diagonal(a2):
    # HH_0 = A / [A, A] is two-dimensional (the arrow is a commutator),
    # higher groups vanish for a tree quiver
    assert hochschild(a2, diagonal_bimodule(a2), top=4) == [2, 0, 0, 0, 0]


def test_hochschild_with_free_coefficients(a2, kronecker):
    # coefficients in the enveloping algebra itself: HH_0 = A, higher vanish
    for alg in (a2, kronecker):
        env = hom_algebra(alg, alg)
        free = regular_module(env)
        dims = hochschild(alg, free, top=3)
        assert dims == [alg.dim, 0, 0, 0]


def test_bar_oracle_scalars(q):
    assert bar_oracle(q, diagonal_bimodule(q), top=3) == [1, 0, 0, 0]


def test_bar_oracle_semisimple(qxq):
    # separable algebra: only HH_0 survives, of dimension 2
    assert bar_oracle(qxq, diagonal_bimodule(qxq), top=3) == [2, 0, 0, 0]


@pytest.mark.parametrize("name", ["Q", "QxQ", "A2", "Kronecker", "A3"])
def test_bar_agrees_with_resolution(name, request):
    alg = request.getfixturevalue(
        {"Q": "q", "QxQ": "qxq", "A2": "a2", "A3": "a3", "Kronecker": "kronecker"}[name]
    )
    top = 3
    for w in (diagonal_bimodule(alg), dual_bimodule(alg)):
        assert hochschild(alg, w, top=top) == bar_oracle(alg, w, top=top)


def test_bar_agrees_on_simple_bimodules(a2):
    env = hom_algebra(a2, a2)
    for s in simple_modules(env):
        assert hochschild(a2, s, top=3) == bar_oracle(a2, s, top=3)


def test_hochschild_euler_matches_profile(a2, a3, kronecker):
    for alg in (a2, a3, kronecker):
        for w in (diagonal_bimodule(alg), dual_bimodule(alg)):
            prof = hochschild(alg, w, top=4)
            assert hochschild_euler(alg, w) == hh_euler(prof)


def test_hochschild_vanishes_beyond_resolution_range(a2, kronecker):
    # the tensor complex is bounded by the diagonal resolution length plus
    # the coefficient width, so higher groups are forced to vanish
    for alg in (a2, kronecker):
        length = diagonal_resolution(alg).hi - diagonal_resolution(alg).lo
        dims = hochschild(alg, diagonal_bimodule(alg), top=length + 3)
        assert all(d == 0 for d in dims[length + 1 :])


def test_hochschild_of_complex_coefficients(a2):
    """A two-term coefficient complex with zero differential: the profile is
    the degree-shifted sum of the module profiles, and the trace-only Euler
    fast path agrees."""
    from ncmotives.complexes import Complex

    w = diagonal_bimodule(a2)
    two = Complex(w.algebra, {-2: w, 0: w}, {})
    prof = hochschild(a2, two, top=4)
    base = hochschild(a2, w, top=4)
    expected = [base[n] + (base[n - 2] if n >= 2 else 0) for n in range(5)]
    assert prof == expected
    assert hochschild_euler(a2, two) == hh_euler(prof)


def test_hochschild_computes_only_the_degrees_asked_for(q):
    """top has no default: coefficients in degrees 0 and -10^6 give top + 1
    dims, not one per degree of the gap."""
    from ncmotives.complexes import Complex

    w = diagonal_bimodule(q)
    gap = Complex(w.algebra, {0: w, -(10**6): w}, {})
    assert hochschild(q, gap, top=2) == [1, 0, 0]
    with pytest.raises(TypeError):
        hochschild(q, gap)


def test_intersection_number_over_scalars(q):
    m = NCMotive(q)
    x = identity_correspondence(m)
    assert intersection_number(x, x) == 1


def test_intersection_number_scaling(a2, kronecker, rng):
    from fractions import Fraction

    ma, mb = NCMotive(a2), NCMotive(kronecker)
    x = random_correspondence(ma, mb, rng)
    y = random_correspondence(mb, ma, rng)
    base = intersection_number(x, y)
    c = Fraction(3, 2)

    def scaled(z):
        return Correspondence(z.source, z.target, [(c * k, t) for k, t in z.terms])

    assert intersection_number(scaled(x), y) == c * base
    assert intersection_number(x, scaled(y)) == c * base


def test_intersection_identity_equals_hochschild_euler(a2):
    m = NCMotive(a2)
    x = identity_correspondence(m)
    # <[A] . [A]> = alternating sum of HH dims of A with coefficients in
    # A (x)_A A = A, which the Hochschild oracle evaluates to 2
    assert intersection_number(x, x) == 2
    assert hh_euler(hochschild(a2, diagonal_bimodule(a2), top=4)) == 2


def test_intersection_symmetry_samples(a2, qxq, rng):
    ma, mb = NCMotive(a2), NCMotive(qxq)
    for _ in range(4):
        x = random_correspondence(ma, mb, rng)
        y = random_correspondence(mb, ma, rng)
        assert intersection_number(x, y) == intersection_number(y, x)


def test_intersection_bilinearity_in_terms(a2, rng):
    ma = NCMotive(a2)
    x1 = random_correspondence(ma, ma, rng)
    x2 = random_correspondence(ma, ma, rng)
    y = random_correspondence(ma, ma, rng)
    lhs = intersection_number(Correspondence(ma, ma, x1.terms + x2.terms), y)
    assert lhs == intersection_number(x1, y) + intersection_number(x2, y)


def test_endpoint_mismatch_rejected(a2, qxq):
    ma, mb = NCMotive(a2), NCMotive(qxq)
    x = identity_correspondence(ma)
    with pytest.raises(ValueError):
        intersection_number(x, identity_correspondence(mb))


def test_coefficients_in_a_positive_degree_are_rejected(a2):
    """HH_n is read in degree -n, so a component in a positive degree would
    be dropped without a word; hochschild refuses it instead."""
    from ncmotives.complexes import Complex

    w = diagonal_bimodule(a2)
    with pytest.raises(ValueError, match="positive degree"):
        hochschild(a2, Complex(w.algebra, {1: w}, {}), top=4)
    with pytest.raises(ValueError, match="positive degree"):
        hochschild(a2, Complex(w.algebra, {0: w, 1: w}, {}), top=4)


def test_profile_euler_matches_class_pairing_on_random_complexes(a2, a3, kronecker, rng):
    """The alternating sum of the homology dimensions in every degree of the
    tensor complex (down to the diagonal resolution's length below the
    lowest coefficient degree) equals hochschild_euler (the class of the
    coefficients paired with the diagonal resolution) on seeded bounded
    complexes of bimodules in degrees <= 0: random perfect complexes moved
    down to end in degree 0 or below, and sums of the diagonal and dual
    bimodules in random degrees."""
    from ncmotives.complexes import Complex
    from ncmotives.corpus import random_perfect_complex

    checked = 0
    for alg in (a2, a3, kronecker):
        env = hom_algebra(alg, alg)
        for _ in range(4):
            x = random_perfect_complex(env, rng, max_shift=2)
            w = x.shift(-x.hi - rng.randint(0, 1)) if x.hi >= 0 else x
            assert w.hi <= 0
            top = resolution_length(diagonal_resolution(alg)) - w.lo
            assert hh_euler(hochschild(alg, w, top)) == hochschild_euler(alg, w)
            checked += not w.is_zero()
        for _ in range(2):
            degs = (-rng.randint(0, 1), -rng.randint(2, 3))
            w = Complex(env, dict(zip(degs, (diagonal_bimodule(alg), dual_bimodule(alg)))), {})
            top = resolution_length(diagonal_resolution(alg)) - w.lo
            assert hh_euler(hochschild(alg, w, top)) == hochschild_euler(alg, w)
    assert checked >= 8


def _truncated_polynomials(m):
    """Q[x]/x^m on the basis 1, x, .., x^(m-1), with the unit as its one
    idempotent: not hereditary, and HH_n is nonzero in every degree."""
    mul = [[[1 if k == i + j else 0 for k in range(m)] for j in range(m)] for i in range(m)]
    unit = [1] + [0] * (m - 1)
    return table_algebra(m, [f"x^{i}" for i in range(m)], mul, unit, [unit])


def _split_pair():
    """Q[x]/(x^2 - 1) = Q x Q on the basis 1, x, with the unit as its one
    idempotent: x x = 1, so the relative bar complex drops an idempotent
    component of a product.  The unit is not primitive, so table_algebra
    would refuse it."""
    mul = [[((0, 1),), ((1, 1),)], [((1, 1),), ((0, 1),)]]
    return Algebra(2, ["1", "x"], mul, [0], meta={"name": "Q[x]/(x^2-1)"})


def _bar_reference_cases():
    from ncmotives.corpus import CORPUS_NAMES, corpus_algebra

    algs = {name: corpus_algebra(name) for name in CORPUS_NAMES}
    algs["op(A3)"] = opposite(algs["A3"])
    algs["QxQ (x) A2"] = tensor(algs["QxQ"], algs["A2"])
    for name, a in algs.items():
        coeffs = [("diagonal", diagonal_bimodule(a)), ("dual", dual_bimodule(a))]
        coeffs += [(f"simple {i}", s) for i, s in enumerate(simple_modules(hom_algebra(a, a)))]
        for cname, w in coeffs:
            yield name, cname, a, w
    for name, a in (("Q[x]/x^2", _truncated_polynomials(2)), ("Q[x]/x^3", _truncated_polynomials(3)), ("Q[x]/(x^2-1)", _split_pair())):
        yield name, "diagonal", a, diagonal_bimodule(a)
        yield name, "dual", a, dual_bimodule(a)


def test_relative_bar_complex_matches_the_absolute_one():
    """bar_oracle (relative to the vertex idempotents) against the absolute
    bar complex W (x) A^{(x) n} of tests/bar_reference.py, up to degree 3:
    the corpus algebras, op(A3) and QxQ (x) A2 with diagonal, dual and
    every simple bimodule as coefficients, and three algebras given by
    structure constants, two of them with HH nonzero in every degree."""
    cases = 0
    for name, cname, a, w in _bar_reference_cases():
        assert bar_oracle(a, w, top=3) == absolute_bar_dims(a, w, 3), (name, cname)
        cases += 1
    assert cases > 60


@pytest.mark.parametrize("m", [2, 3])
def test_bar_oracle_on_truncated_polynomials(m):
    """HH_0(Q[x]/x^m) = m and HH_n = m - 1 for n >= 1 (characteristic 0),
    with diagonal coefficients; with the dual bimodule, which is isomorphic
    to the diagonal for this Frobenius algebra, the same."""
    a = _truncated_polynomials(m)
    expected = [m] + [m - 1] * 4
    assert bar_oracle(a, diagonal_bimodule(a), top=4) == expected
    assert bar_oracle(a, dual_bimodule(a), top=4) == expected


def test_bar_oracle_on_a_split_algebra_with_one_idempotent():
    """Q[x]/(x^2 - 1) is Q x Q, separable: only HH_0 = 2 survives."""
    a = _split_pair()
    assert bar_oracle(a, diagonal_bimodule(a), top=3) == [2, 0, 0, 0]


def _reference_route_algebras():
    """The corpus algebras, A2 as a `table` spec, and the Beilinson algebras
    of P^1 and P^1 x P^1, whose diagonal resolutions are computed rather than
    written in closed form."""
    from geometry_reference import beilinson_spec
    from ncmotives.specs import algebra_from_spec
    from ncmotives.corpus import CORPUS_NAMES, corpus_algebra

    algs = {name: corpus_algebra(name) for name in CORPUS_NAMES}
    a2_mul = [
        [[1, 0, 0], [0, 0, 0], [0, 0, 1]],
        [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
    ]
    algs["table A2"] = table_algebra(3, ["e0", "e1", "a"], a2_mul, [1, 1, 0], [[1, 0, 0], [0, 1, 0]])
    algs["P1"] = algebra_from_spec(beilinson_spec(1))
    algs["P1xP1"] = tensor(algs["P1"], algs["P1"])
    return algs


@pytest.mark.parametrize("name", list(_reference_route_algebras()))
def test_hom_route_matches_the_tensor_route(name, rng):
    """hochschild reads HH_n as H^{-n} Hom_{A^e}(A^!, W); the reference route
    reads it as H^{-n}(P (x)_{A^e} W^left) with the same diagonal resolution
    P (tests/hochschild_reference.py).  They agree in every degree the
    tensor complex reaches, and its Euler characteristic is both
    hochschild_euler and the pairing of the class of W that
    intersection_number reads, on the diagonal and dual bimodules and on
    seeded random perfect complexes of bimodules moved into degrees <= 0."""
    from hochschild_reference import tensor_route_complex
    from ncmotives.corpus import random_perfect_complex
    from ncmotives.derived import k0_class
    from ncmotives.hochschild import pair_with_diagonal

    a = _reference_route_algebras()[name]
    p = diagonal_resolution(a)
    coeffs = [diagonal_bimodule(a), dual_bimodule(a)]
    for _ in range(2):
        x = random_perfect_complex(hom_algebra(a, a), rng)
        coeffs.append(x.shift(-x.hi - rng.randint(0, 1)) if x.hi >= 0 else x)
    for w in coeffs:
        reference = tensor_route_complex(p, w, a)
        top = max(0, -reference.lo)
        dims = [reference.homology(-n) for n in range(top + 1)]
        assert hochschild(a, w, top) == dims
        assert hochschild_euler(a, w) == hh_euler(dims)
        assert pair_with_diagonal(a, k0_class(w)) == hh_euler(dims)


# SHA-256 of `hochschild` reports; like the pinned benchmark reports, they
# depend only on the mathematics, so the route HH takes must leave them
# byte-identical.  P^n has HH = [n + 1, 0, 0, 0] (HKR), P^1 x P^1 has
# [4, 0, 0, 0], and the two-term QxQ complex in degrees 0 and -2 has
# [2, 0, 2, 0].
PINNED_HOCHSCHILD = {
    "P1": "8fcd37952980571fc9d444cca0ca8dff26258d1ba6d2d35a1ed2a905eddf892f",
    "P2": "4da84a046dcd8f00c0ac3a4ef71a7d5bfaa32278e828e891927f83fbf692758a",
    "P1xP1": "e5878827267de6dc4ab9ba94ecadff1b61fd09dee2caf287fd5d56a4ae4133c8",
    "A3 diagonal": "2b7f5a10d06803f5856f091bd8faedb37a2649b72e7e20f7e3f5b1fea78ef450",
    "A3 dual": "0088dec9572a49fab4660f914c1cdea88d8364e656a6c65ba5bdfb9ea8aca3b9",
    "QxQ module": "763cebee13d24cecca59a8367fbfc444a2b75bccfb84ac4d158996f955f94db0",
    "QxQ complex": "a90de3a021264a9308bd55369ff0e7362169b2ec781575a317f13b01c02f1dfc",
}


def _pinned_hochschild_argv(name, write):
    from geometry_reference import beilinson_spec

    qxq = {"format": 1, "kind": "quiver", "vertices": 2, "arrows": []}
    action = {
        "e0|e0": [[1, 0], [0, 0]],
        "e0|e1": [[0, 0], [0, 0]],
        "e1|e0": [[0, 0], [0, 0]],
        "e1|e1": [[0, 0], [0, 1]],
    }
    a3 = line_spec(3)
    p1 = beilinson_spec(1)
    bar = ["--top", "3", "--bar-check", "3"]
    return {
        "P1": [write(p1)] + bar,
        "P2": [write(beilinson_spec(2))] + bar,
        "P1xP1": [write({"format": 1, "kind": "tensor", "factors": [p1, p1]})] + bar,
        "A3 diagonal": [write(a3)] + bar,
        "A3 dual": [write(a3), "--coefficients", write({"named": "dual"})] + bar,
        "QxQ module": [
            write(qxq), "--coefficients", write({"format": 1, "dim": 2, "action": action}),
            "--bar-check", "2",
        ],
        "QxQ complex": [
            write(qxq),
            "--coefficients",
            write({
                "format": 1,
                "components": {"0": {"dim": 2, "action": action}, "-2": {"dim": 2, "action": action}},
                "differentials": {},
            }),
            "--top", "3",
        ],
    }[name]


@pytest.mark.parametrize("name", PINNED_HOCHSCHILD)
def test_hochschild_reports_are_pinned(tmp_path, name):
    import hashlib
    import json

    from ncmotives.cli import main

    files = []

    def write(obj):
        files.append(tmp_path / f"input{len(files)}.json")
        files[-1].write_text(json.dumps(obj))
        return str(files[-1])

    out = tmp_path / "report.json"
    assert main(["hochschild", *_pinned_hochschild_argv(name, write), "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == PINNED_HOCHSCHILD[name], digest


def _trace_formula_bases():
    """The realized bases of the Hom models of the corpus scenarios and of
    A4 -> A2: the trace-formula check of verify reads (D(x), y) over every
    pair x, y of one basis."""
    from ncmotives.corpus import corpus_motive_scenarios
    from ncmotives.motives import build_hom_model
    from ncmotives.specs import algebra_from_spec

    scenarios = [(src, dst) for _, src, dst in corpus_motive_scenarios()]
    a4, a2 = (algebra_from_spec(line_spec(n)) for n in (4, 2))
    scenarios.append((NCMotive(a4), NCMotive(a2)))
    return [build_hom_model(src, dst).realized for src, dst in scenarios]


def test_composite_trace_equals_the_trace_of_the_built_composite():
    """composite_trace(D(x), y) reads trace(y o D(x)) from the copies of
    D(x) and the class of y; the oracle builds y o D(x) as tensor complexes
    (correspondence_reference.compose) and takes the Hochschild Euler
    characteristic of their classes.  Every basis pair of the 15 corpus
    scenarios (99 pairs) and of A4 -> A2 (64)."""
    from correspondence_reference import compose
    from ncmotives.hochschild import composite_trace
    from ncmotives.motives import dualize, trace

    pairs = 0
    for basis in _trace_formula_bases():
        for x in basis:
            dx = dualize(x)
            for y in basis:
                assert composite_trace(dx, y) == trace(compose(y, dx))
                pairs += 1
    assert pairs == 99 + 64


def test_composite_trace_reads_no_euler_matrix(monkeypatch):
    """The trace-formula check is independent of the commutative square,
    which composes classes through Euler matrices: with euler_matrix and
    compose_classes made to raise, composite_trace still gives chi(x, y) on
    every basis pair of the models above."""
    from ncmotives import derived, motives
    from ncmotives import hochschild as hh
    from ncmotives.motives import chi_hom, dualize

    bases = _trace_formula_bases()
    expected = [[[chi_hom(x, y) for y in basis] for x in basis] for basis in bases]
    duals = [[dualize(x) for x in basis] for basis in bases]

    def refused(*args):
        raise AssertionError("the trace formula read an Euler matrix")

    for module in (derived, hh, motives):
        for name in ("euler_matrix", "compose_classes"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)
    got = [[[hh.composite_trace(d, y) for y in basis] for d in ds] for ds, basis in zip(duals, bases)]
    assert got == expected


def test_composite_trace_refuses_what_does_not_compose(a2, kronecker, rng):
    """x and y must chain to an endo-composite, and the terms of x must be
    perfect."""
    from ncmotives.derived import serre
    from ncmotives.hochschild import composite_trace

    ma, mb = NCMotive(a2), NCMotive(kronecker)
    x = random_correspondence(mb, ma, rng)
    with pytest.raises(ValueError, match="do not chain"):
        composite_trace(x, random_correspondence(mb, ma, rng))
    unresolved = Correspondence(mb, ma, [(c, serre(t)) for c, t in x.terms])
    with pytest.raises(ValueError, match="not perfect"):
        composite_trace(unresolved, random_correspondence(ma, mb, rng))
