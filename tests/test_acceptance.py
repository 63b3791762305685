"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance
(exact equality throughout) and prints a single pass/fail line.  Shared
pools of randomized objects are built once per session with a fixed seed.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import random
import time

import pytest

from ncmotives.corpus import (
    CORPUS_NAMES,
    corpus_algebra,
    corpus_motive_scenarios,
    quiver_euler_oracle,
    random_perfect_complex,
)
from ncmotives.derived import (
    euler_matrix,
    euler_pairing,
    serre,
)
from ncmotives.hochschild import bar_oracle, composite_trace, hochschild, intersection_number
from ncmotives.homalg import hom_complex
from ncmotives.linalg import RowBasis, gram, span_equal
from correspondence_reference import compose, random_correspondence
from dense_reference import regular_module
from ncmotives.modules import diagonal_bimodule, dual_bimodule, simple_modules
from ncmotives.motives import (
    NCMotive,
    build_hom_model,
    chi_hom,
    complement_idempotent,
    dualize,
    numerical_kernel,
    trace,
    verify_equivalence,
    vertex_cut_idempotent,
)
from ncmotives.algebra import hom_algebra

SEED = 940721


def report(criterion, passed, detail, elapsed=None):
    status = "PASS" if passed else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"[criterion {criterion}] {status}{timing}: {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def perfect_pairs():
    """>= 50 randomized perfect-complex pairs spread over the corpus."""
    rng = random.Random(SEED)
    pairs = []
    for name in CORPUS_NAMES:
        a = corpus_algebra(name)
        for _ in range(10):
            pairs.append((a, random_perfect_complex(a, rng), random_perfect_complex(a, rng)))
    return pairs


@pytest.fixture(scope="module")
def serre_cache(perfect_pairs):
    cache = {}
    for _, m, _ in perfect_pairs:
        if id(m) not in cache:
            cache[id(m)] = serre(m)
    return cache


@pytest.fixture(scope="module")
def composable_pairs():
    """>= 50 composable correspondence pairs x: A -> B, y: B -> A."""
    rng = random.Random(SEED + 1)
    shapes = [("A2", "QxQ"), ("A2", "Kronecker"), ("QxQ", "Kronecker"), ("A2", "A3"), ("Q", "A2")]
    pairs = []
    for na, nb in shapes:
        ma, mb = NCMotive(corpus_algebra(na)), NCMotive(corpus_algebra(nb))
        for _ in range(10):
            pairs.append(
                (random_correspondence(ma, mb, rng), random_correspondence(mb, ma, rng))
            )
    return pairs


@pytest.fixture(scope="module")
def parallel_pairs():
    """>= 50 parallel correspondence pairs x, y: A -> B."""
    rng = random.Random(SEED + 2)
    shapes = [("A2", "QxQ"), ("A2", "Kronecker"), ("QxQ", "Kronecker"), ("A2", "A3"), ("Q", "A2")]
    pairs = []
    for na, nb in shapes:
        ma, mb = NCMotive(corpus_algebra(na)), NCMotive(corpus_algebra(nb))
        for _ in range(10):
            pairs.append(
                (random_correspondence(ma, mb, rng), random_correspondence(ma, mb, rng))
            )
    return pairs


@pytest.fixture(scope="module")
def corpus_reports():
    """verify_equivalence on every corpus Hom-space model (criterion 9)."""
    out = []
    for name, src, dst in corpus_motive_scenarios():
        model = build_hom_model(src, dst)
        rep = verify_equivalence(model)
        out.append((name, model, rep))
    return out


def test_c01_euler_form_oracle():
    t0 = time.monotonic()
    ok = True
    details = []
    for name in ("A2", "A3", "Kronecker"):
        a = corpus_algebra(name)
        g = euler_matrix(a)
        match = g.data == quiver_euler_oracle(name)
        det = g.det()
        ok = ok and match and det in (1, -1)
        details.append(f"{name}: det={det}{'' if match else ' MISMATCH'}")
    elapsed = time.monotonic() - t0
    report(1, ok and elapsed < 5.0, "euler matrices match the arrow-count form, " + ", ".join(details), elapsed)


def test_c02_degreewise_serre_duality(perfect_pairs, serre_cache):
    t0 = time.monotonic()
    checked = 0
    ok = True
    for a, m, n in perfect_pairs:
        sm = serre_cache[id(m)]
        h1 = hom_complex(m, n).homology_dims()
        h2 = hom_complex(n, sm).homology_dims()
        degs = set(h1) | {-d for d in h2}
        ok = ok and all(h1.get(i, 0) == h2.get(-i, 0) for i in degs)
        checked += 1
    elapsed = time.monotonic() - t0
    report(
        2,
        ok and checked >= 50 and elapsed < 60.0,
        f"dim H^i Hom(M,N) = dim H^-i Hom(N,S(M)) on {checked} randomized pairs",
        elapsed,
    )


def test_c03_serre_symmetry_of_chi(perfect_pairs, serre_cache):
    t0 = time.monotonic()
    checked = 0
    ok = True
    for a, m, n in perfect_pairs:
        sm = serre_cache[id(m)]
        sn = serre_cache.setdefault(id(n), serre(n))
        lhs = euler_pairing(m, n)
        ok = ok and lhs == euler_pairing(n, sm)
        # substituted third form: chi(M, S(N0)) = chi(N0, M)
        ok = ok and euler_pairing(m, sn) == euler_pairing(n, m)
        checked += 1
    elapsed = time.monotonic() - t0
    report(
        3,
        ok and checked >= 50,
        f"chi(M,N) = chi(N,S(M)) and chi(M,S(N0)) = chi(N0,M) on {checked} pairs",
        elapsed,
    )


def restricted_gram_scenarios(rng, count=20):
    """`count` idempotent-restricted Hom-space scenarios for kernel equality
    sweeps, drawn deterministically from the corpus combinations."""
    algs = [corpus_algebra(n) for n in ("QxQ", "A2", "A3", "Kronecker")]
    out = []
    while len(out) < count:
        a = rng.choice(algs)
        b = rng.choice(algs)

        def pick_idem(alg):
            mode = rng.random()
            if mode < 0.4:
                return NCMotive(alg)
            e = vertex_cut_idempotent(alg, [rng.randrange(len(alg.idempotents))])
            if mode < 0.8:
                return NCMotive(alg, e)
            return NCMotive(alg, complement_idempotent(e))

        src = pick_idem(a)
        dst = pick_idem(b)
        if src.is_identity() and dst.is_identity() and a.dim * b.dim > 12:
            continue  # keep the big unrestricted pairs out of the sweep
        out.append((f"sweep-{len(out)}", src, dst))
    return out


def test_c04_kernel_left_equals_kernel_right():
    t0 = time.monotonic()
    ok = True
    count_models = 0
    for name in CORPUS_NAMES:
        g = euler_matrix(corpus_algebra(name))
        left = RowBasis(g.rows).extend(g.left_kernel_basis())
        right = RowBasis(g.rows).extend(g.kernel_basis())
        ok = ok and span_equal(left, right)
    rng = random.Random(SEED + 3)
    for name, src, dst in restricted_gram_scenarios(rng, 20):
        model = build_hom_model(src, dst)
        g = gram(chi_hom, model.realized, model.realized)
        left = RowBasis(model.dim).extend(g.left_kernel_basis())
        right = RowBasis(model.dim).extend(g.kernel_basis())
        ok = ok and span_equal(left, right)
        count_models += 1
    elapsed = time.monotonic() - t0
    report(
        4,
        ok and count_models >= 20,
        f"Ker_L = Ker_R on 5 corpus euler matrices and {count_models} restricted gram matrices",
        elapsed,
    )


def test_c05_hochschild_bar_oracle():
    t0 = time.monotonic()
    ok = True
    details = []
    pairs = []
    for name in CORPUS_NAMES:
        a = corpus_algebra(name)
        pairs.append((name + "/diagonal", a, diagonal_bimodule(a)))
        pairs.append((name + "/dual", a, dual_bimodule(a)))
    a2 = corpus_algebra("A2")
    pairs.append(("A2/enveloping-free", a2, regular_module(hom_algebra(a2, a2))))
    for i, s in enumerate(simple_modules(hom_algebra(a2, a2))):
        pairs.append((f"A2/simple-{i}", a2, s))
    for label, a, w in pairs:
        hh = hochschild(a, w, top=4)
        bar = bar_oracle(a, w, top=4)
        agree = hh == bar
        ok = ok and agree
        if not agree:
            details.append(f"{label}: {hh} vs {bar}")
    a2_check = hochschild(a2, diagonal_bimodule(a2), top=4) == [2, 0, 0, 0, 0]
    ok = ok and a2_check
    elapsed = time.monotonic() - t0
    report(
        5,
        ok and elapsed < 120.0,
        f"resolution HH = bar HH for n <= 4 on {len(pairs)} corpus pairs incl. HH(A2,A2) = (2,0,0,0,0)"
        + ("; " + "; ".join(details) if details else ""),
        elapsed,
    )


def test_c06_intersection_symmetry(composable_pairs):
    t0 = time.monotonic()
    ok = True
    for x, y in composable_pairs:
        ok = ok and intersection_number(x, y) == intersection_number(y, x)
    elapsed = time.monotonic() - t0
    report(
        6,
        ok and len(composable_pairs) >= 50,
        f"<x.y> = <y.x> on {len(composable_pairs)} randomized composable pairs",
        elapsed,
    )


def test_c07_trace_formula(parallel_pairs):
    t0 = time.monotonic()
    ok = True
    for x, y in parallel_pairs:
        lhs = chi_hom(x, y)
        rhs = composite_trace(dualize(x), y)
        ok = ok and lhs == rhs
    elapsed = time.monotonic() - t0
    report(
        7,
        ok and len(parallel_pairs) >= 50,
        f"chi(x,y) = trace(y o D(x)) through independent pipelines on {len(parallel_pairs)} pairs",
        elapsed,
    )


def test_trace_of_unresolved_composite_matches_perfect_replacement(composable_pairs):
    """compose returns its tensor complexes unresolved; the trace must not
    see the difference from a termwise perfect replacement."""
    from resolve_reference import resolve_terms

    for x, y in composable_pairs:
        z = compose(y, x)
        assert trace(z) == trace(resolve_terms(z))



def test_composite_actions_built_on_first_read_are_module_actions(composable_pairs):
    """The built composite of the test oracle reads each component action of
    its tensor complexes a row at a time, on first read.  Read through the
    class (idempotent traces only) each term's class equals
    hochschild.tensor_class of its factors, which builds no composite; read
    in full, every component satisfies the module axioms."""
    from ncmotives.derived import k0_class
    from ncmotives.hochschild import tensor_class

    for x, y in composable_pairs:
        a, b, c = x.source.algebra, x.target.algebra, y.target.algebra
        z = compose(y, x)
        factors = [(xt, yt) for _, xt in x.terms for _, yt in y.terms]
        assert len(factors) == len(z.terms)
        for (xt, yt), (_, t) in zip(factors, z.terms):
            assert list(k0_class(t)) == tensor_class(xt.euler_copy_weights(), k0_class(yt), a, b, c)
            for comp in t.components.values():
                comp.check()


def test_c08_commutative_square(parallel_pairs):
    t0 = time.monotonic()
    ok = True
    for x, y in parallel_pairs:
        ok = ok and chi_hom(x, y) == intersection_number(dualize(x), y)
    elapsed = time.monotonic() - t0
    report(
        8,
        ok and len(parallel_pairs) >= 50,
        f"chi(x,y) = <D(x).y> on {len(parallel_pairs)} pairs",
        elapsed,
    )


def test_c09_kernel_equivalence_verdict(corpus_reports):
    t0 = time.monotonic()
    ok = True
    unimodular_stated = 0
    for name, model, rep in corpus_reports:
        ok = ok and rep["verdict"]
        if rep["unimodular"]:
            # the report must state the kernels are zero explicitly
            stated = "both kernels are zero" in rep["kernel_statement"]
            ok = ok and stated and rep["kernel_dim"] == 0 and rep["numerical_kernel_dim"] == 0
            unimodular_stated += 1
    # end-to-end corpus run through the CLI inside the same budget
    from ncmotives.cli import main

    import tempfile, os

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "corpus.json")
        code = main(["--seed", "1", "corpus", "--samples", "2", "--bar-depth", "3", "--out", out])
        with open(out) as fh:
            corpus_report = json.load(fh)
    ok = ok and code == 0 and corpus_report["verdict"]
    elapsed = time.monotonic() - t0
    report(
        9,
        ok and elapsed < 120.0,
        f"Ker(chi) = numerical kernel on {len(corpus_reports)} corpus Hom-space models "
        f"({unimodular_stated} unimodular, stated explicitly); corpus command end-to-end",
        elapsed,
    )
