import pytest

from fractions import Fraction

from dense_reference import as_pairs, basis_vector, matrix_trace, multiply
from ncmotives.algebra import (
    Algebra,
    AlgebraStructureError,
    CyclicQuiverError,
    hom_algebra,
    opposite,
    path_algebra,
    scalar_algebra,
    swap_permutation,
    table_algebra,
    tensor,
)
from ncmotives.corpus import CORPUS_NAMES, corpus_algebra
from ncmotives.linalg import Matrix, RowBasis, span_equal
from ncmotives.specs import NAMED_SPECS


def quiver_of(spec):
    """The (vertex count, arrow triples) of a quiver spec, for a path algebra
    built apart from the one the spec reader interns."""
    return spec["vertices"], [(x["from"], x["to"], x["label"]) for x in spec["arrows"]]


# -- dense oracles: every product through dense_reference.multiply on coordinate vectors


def left_matrix(a, i) -> Matrix:
    """L_i with row convention: row(b_i * x) = row(x) * L_i; row s holds the
    coordinates of b_i * b_s."""
    b = basis_vector(a, i)
    return Matrix(a.dim, a.dim, [multiply(a, b, basis_vector(a, s)) for s in range(a.dim)])


def dense_peirce(a):
    """(left, right) idempotent index per basis element, by dense products
    e * b_t and b_t * e for every idempotent e."""
    left = [None] * a.dim
    right = [None] * a.dim
    for r, g in enumerate(a.idempotents):
        e = basis_vector(a, g)
        for t in range(a.dim):
            b = basis_vector(a, t)
            for side, prod in ((left, multiply(a, e, b)), (right, multiply(a, b, e))):
                if prod == b:
                    if side[t] is not None:
                        raise AlgebraStructureError(f"basis element {t} has two idempotents")
                    side[t] = r
    if None in left or None in right:
        raise AlgebraStructureError("basis is not adapted to the idempotents")
    return left, right


def dense_radical(a) -> RowBasis:
    """Kernel of the regular trace form (x, y) -> tr(L_{xy}), with the traces
    of the dense left multiplication matrices."""
    tl = [matrix_trace(left_matrix(a, k)) for k in range(a.dim)]
    gram = [
        [
            sum(c * t for c, t in zip(multiply(a, basis_vector(a, i), basis_vector(a, j)), tl))
            for j in range(a.dim)
        ]
        for i in range(a.dim)
    ]
    return RowBasis(a.dim).extend(Matrix(a.dim, a.dim, gram).kernel_basis())


def dual_numbers():
    """Q[x]/(x^2) as a table algebra with basis {1, x}."""
    return table_algebra(2, ["1", "x"], [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0], [[1, 0]])


# QxQ presented with basis {1, u}, u^2 = 1: the idempotents (1 +- u)/2 are
# not basis elements
SPLIT_QXQ = (
    2,
    ["1", "u"],
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
    [1, 0],
    [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(-1, 2)]],
)

# M_2(Q) on the basis e11, e22, s = e12 + e21, d = e12 - e21: the
# idempotents e11 and e22 are basis elements, but e11 s = (s + d) / 2, so
# the basis is not adapted to them
_H = Fraction(1, 2)
M2_NON_ADAPTED = (
    4,
    ["e11", "e22", "s", "d"],
    [
        [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, _H, _H], [0, 0, _H, _H]],
        [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, _H, -_H], [0, 0, -_H, _H]],
        [[0, 0, _H, -_H], [0, 0, _H, _H], [1, 1, 0, 0], [-1, 1, 0, 0]],
        [[0, 0, -_H, _H], [0, 0, _H, _H], [1, -1, 0, 0], [-1, -1, 0, 0]],
    ],
    [1, 1, 0, 0],
    [[1, 0, 0, 0], [0, 1, 0, 0]],
)


def m2_non_adapted():
    """M2_NON_ADAPTED built past table_algebra, which refuses it."""
    dim, labels, mul, _, _ = M2_NON_ADAPTED
    return Algebra(dim, labels, [[as_pairs(v) for v in row] for row in mul], [0, 1])


def _oracle_algebras():
    named = {name: corpus_algebra(name) for name in CORPUS_NAMES}
    named.update({f"env({name})": hom_algebra(a, a) for name, a in list(named.items())})
    named["op(A3)xA3"] = tensor(opposite(corpus_algebra("A3")), corpus_algebra("A3"))
    named["op(Kronecker)"] = opposite(corpus_algebra("Kronecker"))
    named["op(Kronecker)xA2"] = tensor(
        opposite(corpus_algebra("Kronecker")), corpus_algebra("A2")
    )
    named["dual-numbers"] = dual_numbers()
    return named


ORACLE_ALGEBRAS = _oracle_algebras()


def count_paths_dfs(quiver):
    """Independent path counter: depth-first enumeration from every vertex."""
    vertex_count, arrows = quiver
    out = [[] for _ in range(vertex_count)]
    for source, target, _ in arrows:
        out[source].append(target)
    total = 0

    def walk(v):
        nonlocal total
        total += 1
        for w in out[v]:
            walk(w)

    for v in range(vertex_count):
        walk(v)
    return total


def test_single_vertex_is_scalars():
    a = path_algebra(1, [])
    assert a.dim == 1
    assert multiply(a, [1], [1]) == [1]


def test_a2_basis():
    a = corpus_algebra("A2")
    assert a.dim == 3
    assert set(a.labels) == {"e0", "e1", "a"}


def test_kronecker_dimension():
    assert corpus_algebra("Kronecker").dim == 4


@pytest.mark.parametrize("name", ["QxQ", "A2", "A3", "Kronecker"])
def test_path_count_matches_dfs(name):
    q = quiver_of(NAMED_SPECS[name])
    assert path_algebra(*q).dim == count_paths_dfs(q)


def test_cyclic_quiver_rejected():
    with pytest.raises(CyclicQuiverError):
        path_algebra(2, [(0, 1, "a"), (1, 0, "b")])


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        path_algebra(2, [(0, 1, "a"), (0, 1, "a")])


@pytest.mark.parametrize("name", ["Q", "QxQ", "A2", "A3", "Kronecker"])
def test_associativity_all_triples(name):
    a = corpus_algebra(name)
    basis = [basis_vector(a, i) for i in range(a.dim)]
    for x in basis:
        for y in basis:
            xy = multiply(a, x, y)
            for z in basis:
                assert multiply(a, xy, z) == multiply(a, x, multiply(a, y, z))


def test_associativity_tensor_algebra():
    a = corpus_algebra("A2")
    e = tensor(opposite(a), a)
    basis = [basis_vector(e, i) for i in range(e.dim)]
    for x in basis[:4]:
        for y in basis:
            xy = multiply(e, x, y)
            for z in basis:
                assert multiply(e, xy, z) == multiply(e, x, multiply(e, y, z))


def test_opposite_of_scalars_is_scalars():
    q = scalar_algebra()
    assert opposite(q) is q


def test_opposite_is_involution():
    for name in ("A2", "Kronecker", "A3"):
        a = corpus_algebra(name)
        assert opposite(opposite(a)) is a
        op = opposite(a)
        for i in range(a.dim):
            for j in range(a.dim):
                assert op.mul[i][j] == a.mul[j][i]


def test_opposite_reverses_path_composition():
    a = corpus_algebra("A2")
    op = opposite(a)
    e0 = basis_vector(a, a.labels.index("e0"))
    arrow = basis_vector(a, a.labels.index("a"))
    # in A2 the arrow starts at vertex 0: e0 * a = a; in the opposite algebra
    # the same product reads a * e0 = a
    assert multiply(a, e0, arrow) == arrow
    assert multiply(op, arrow, e0) == arrow
    assert multiply(op, e0, arrow) == [0, 0, 0]


def test_tensor_unit_collapse():
    a = corpus_algebra("A2")
    q = scalar_algebra()
    assert tensor(q, a) is a
    assert tensor(a, q) is a


def test_tensor_dimensions_and_idempotents():
    a = corpus_algebra("A2")
    t = tensor(a, opposite(a))
    assert t.dim == 9
    assert len(t.idempotents) == 4
    b = corpus_algebra("Kronecker")
    tb = tensor(a, b)
    assert tb.dim == a.dim * b.dim
    assert len(tb.idempotents) == len(a.idempotents) * len(b.idempotents)


def test_tensor_memoized():
    a = corpus_algebra("A2")
    b = corpus_algebra("Kronecker")
    assert tensor(a, b) is tensor(a, b)


def test_tensor_associative_on_dims():
    a = corpus_algebra("A2")
    b = corpus_algebra("QxQ")
    c = corpus_algebra("Kronecker")
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    assert left.dim == right.dim
    assert len(left.idempotents) == len(right.idempotents)
    # structure constants agree under the canonical reindexing
    # (i,j,k) -> (i*dim_b + j)*dim_c + k in both parenthesizations
    for i in range(left.dim):
        for j in range(left.dim):
            assert left.mul[i][j] == right.mul[i][j]


@pytest.mark.parametrize(
    "left, right, op_left", [("A3", "A3", True), ("Kronecker", "A2", False)]
)
def test_tensor_structure_constants_match_dense_oracle(left, right, op_left):
    """tensor builds only the nonzero products; compare every product with
    the Kronecker product of the factor products computed by multiply."""
    a, b = corpus_algebra(left), corpus_algebra(right)
    if op_left:
        a = opposite(a)
    t = tensor(a, b)
    for i in range(t.dim):
        i1, j1 = divmod(i, b.dim)
        for j in range(t.dim):
            i2, j2 = divmod(j, b.dim)
            pa = multiply(a, basis_vector(a, i1), basis_vector(a, i2))
            pb = multiply(b, basis_vector(b, j1), basis_vector(b, j2))
            assert t.mul[i][j] == as_pairs([x * y for x in pa for y in pb])


def test_radical_is_arrow_span():
    for name in ("A2", "A3", "Kronecker"):
        a = corpus_algebra(name)
        rad = a.radical()
        trivial = len(a.idempotents)
        expected = a.dim - trivial
        assert rad.dim == expected
        # the radical is exactly the span of positive-length paths
        for t in range(trivial, a.dim):
            assert rad.contains(basis_vector(a, t))


def test_semisimple_detection():
    assert corpus_algebra("QxQ").radical().dim == 0
    assert corpus_algebra("A2").radical().dim != 0


def test_peirce_requires_monomial_idempotents():
    """The projective machinery needs each idempotent to be a basis element;
    table_algebra refuses split QxQ, whose idempotents are not."""
    with pytest.raises(AlgebraStructureError, match="idempotent 0 is not a basis monomial"):
        table_algebra(*SPLIT_QXQ)


def test_unit_axiom_enforced():
    with pytest.raises(ValueError, match="unit axiom fails"):
        Algebra(1, ["x"], [[()]], [0])
    with pytest.raises(ValueError, match="unit axiom fails"):
        table_algebra(1, ["x"], [[[0]]], [1], [[1]])


def test_idempotent_index_out_of_range_is_refused():
    with pytest.raises(ValueError, match="idempotent index out of range"):
        Algebra(1, ["x"], [[((0, 1),)]], [1])


@pytest.mark.parametrize("a", ORACLE_ALGEBRAS.values(), ids=ORACLE_ALGEBRAS.keys())
def test_sparse_peirce_and_radical_match_dense_oracles(a):
    """peirce, the Peirce-dimension table and the radical are read from the
    sparse structure constants; dense products are the oracle."""
    assert all(type(g) is int and a.mul[g][g] == ((g, 1),) for g in a.idempotents)
    assert a.unit == as_pairs([sum(g == k for g in a.idempotents) for k in range(a.dim)])
    left, right = dense_peirce(a)
    assert a.peirce() == (left, right)
    n = len(a.idempotents)
    for i in range(n):
        for j in range(n):
            expected = sum(1 for l, r in zip(left, right) if (l, r) == (i, j))
            assert a.peirce_dims()[i][j] == expected
    assert span_equal(a.radical(), dense_radical(a))


def test_non_adapted_basis_is_rejected_by_sparse_peirce():
    with pytest.raises(AlgebraStructureError, match="basis is not adapted"):
        table_algebra(*M2_NON_ADAPTED)
    a = m2_non_adapted()
    with pytest.raises(AlgebraStructureError):
        dense_peirce(a)
    with pytest.raises(AlgebraStructureError):
        a.peirce()
    with pytest.raises(AlgebraStructureError):
        a.peirce_dims()
    assert span_equal(a.radical(), dense_radical(a))
    assert a.radical().dim == 0


@pytest.mark.parametrize("left, right", [("op(A3)", "A3"), ("Kronecker", "A2")])
def test_coprojective_traces_of_a_tensor_algebra_match_a_table_scan(left, right):
    """On tensor(L, R) the dimension vector of D(A e_(i,k)), the traces of
    the idempotents on it, is the outer product of L's for L e_i and R's
    for R e_k (Kuenneth); the traces of left multiplication by the idempotents on A e_(i,k), scanned from the
    table rows, are the oracle.  Kronecker (x) A2 has factors of different
    dimensions, so taking them in the wrong order breaks the match.  The
    product's own Peirce table is not read (a fresh copy of the algebra
    keeps no peirce_dims memo), so the vectors stay independent of the
    table the Serre checks compare them with."""
    factors = [
        opposite(corpus_algebra(name[3:-1])) if name.startswith("op(") else corpus_algebra(name)
        for name in (left, right)
    ]
    a = tensor(*factors)
    assert a.meta["factors"] == tuple(factors)
    fresh = Algebra(a.dim, a.labels, a.mul, a.idempotents, meta=a.meta, check=False)
    for j in range(len(a.idempotents)):
        scan = [0] * a.dim
        for u in a.coprojective_basis(j):
            for b, row in enumerate(a.mul):
                scan[b] += sum(c for u2, c in row[u] if u2 == u)
        assert fresh.coprojective_dims(j) == tuple(scan[g] for g in a.idempotents)
    assert ("Algebra.peirce_dims",) not in fresh._cache


def test_swap_permutation_is_memoized_and_inverted_by_the_reverse_swap(a2, kronecker):
    p = swap_permutation(a2, kronecker)
    assert p is swap_permutation(a2, kronecker)
    back = swap_permutation(kronecker, a2)
    assert sorted(p) == list(range(len(p)))
    assert [back[t] for t in p] == list(range(len(p)))


# -- the memo helper ----------------------------------------------------------


def test_cached_keys_by_name_and_positional_arguments():
    """f(x, 1) is kept under (qualified name, 1), and f(x, 2) apart from
    it; a call that raises stores nothing, and a keyword call is refused."""
    from ncmotives.algebra import cached

    class Box:
        def __init__(self):
            self._cache = {}

    calls = []

    @cached
    def f(obj, x):
        calls.append(x)
        if x < 0:
            raise ValueError(x)
        return [x]

    box = Box()
    first = f(box, 1)
    assert f(box, 1) is first and f(box, 2) is not first
    assert calls == [1, 2]
    assert sorted(box._cache) == [(f.__qualname__, 1), (f.__qualname__, 2)]
    with pytest.raises(ValueError):
        f(box, -1)
    assert len(box._cache) == 2
    with pytest.raises(TypeError):
        f(box, x=1)


@pytest.mark.parametrize(
    "source",
    ["def f(obj, x, size=16): pass", "def f(obj, x, *, size): pass", "def f(obj, *, size=16): pass"],
    ids=["default", "keyword-only", "keyword-only-default"],
)
def test_cached_refuses_default_and_keyword_only_arguments(source):
    """The memo keys the arguments as passed, so f(a) and f(a, 16) would be
    two entries for one value: a default or keyword-only argument is a
    TypeError when the function is decorated."""
    from ncmotives.algebra import cached

    scope = {}
    exec(source, scope)
    with pytest.raises(TypeError, match="default or keyword-only"):
        cached(scope["f"])


def test_no_cache_access_outside_the_memo_helper():
    """Every memo of the package goes through algebra.cached.  Outside it,
    `_cache` is only created empty (`self._cache = {}` in an __init__) and
    named in __slots__: no read, write, `in` or setdefault."""
    import ast
    from pathlib import Path

    import ncmotives

    found = []
    for path in sorted(Path(ncmotives.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "cached" and path.name == "algebra.py":
                allowed.update(id(n) for n in ast.walk(node))
            elif isinstance(node, ast.FunctionDef) and node.name == "__init__":
                for stmt in ast.walk(node):
                    if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
                        if isinstance(stmt.value, ast.Dict) and not stmt.value.keys:
                            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                            allowed.update(id(t) for t in targets)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
            ):
                allowed.update(id(n) for n in ast.walk(node.value))
        for node in ast.walk(tree):
            named = (isinstance(node, ast.Attribute) and node.attr == "_cache") or (
                isinstance(node, ast.Constant) and node.value == "_cache"
            )
            if named and id(node) not in allowed:
                found.append(f"{path.name}:{node.lineno}")
    assert not found


def test_no_function_level_relative_import():
    """Every module of the package imports its sibling modules once, at
    module level; no import cycle needs a deferred one."""
    import ast
    from pathlib import Path

    import ncmotives

    found = []
    for path in sorted(Path(ncmotives.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{inner.lineno}"
                    for inner in ast.walk(node)
                    if isinstance(inner, ast.ImportFrom) and inner.level
                ]
    assert found == []


def test_no_function_takes_a_resolution_bound():
    """The resolution bound is the constant MAX_RESOLUTION_LENGTH: no
    function, method or lambda of the package has a parameter named cap."""
    import ast
    from pathlib import Path

    import ncmotives

    found = []
    for path in sorted(Path(ncmotives.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
                if any(p is not None and p.arg == "cap" for p in params):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
