import pytest

from fractions import Fraction

from dense_reference import basis_vector
from ncmotives.algebra import (
    Algebra,
    AlgebraStructureError,
    CyclicQuiverError,
    Quiver,
    hom_algebra,
    opposite,
    path_algebra,
    scalar_algebra,
    sparse_table,
    swap_permutation,
    tensor,
)
from ncmotives.corpus import CORPUS_NAMES, corpus_algebra, corpus_quiver
from ncmotives.linalg import Matrix, RowBasis, span_equal


# -- dense oracles: every product through Algebra.multiply on coordinate vectors


def left_matrix(a, i) -> Matrix:
    """L_i with row convention: row(b_i * x) = row(x) * L_i; row s holds the
    coordinates of b_i * b_s."""
    b = basis_vector(a, i)
    return Matrix(a.dim, a.dim, [a.multiply(b, basis_vector(a, s)) for s in range(a.dim)])


def dense_peirce(a):
    """(left, right) idempotent index per basis element, by dense products
    e * b_t and b_t * e for every idempotent e."""
    left = [None] * a.dim
    right = [None] * a.dim
    for r, e in enumerate(a.idempotents):
        for t in range(a.dim):
            b = basis_vector(a, t)
            for side, prod in ((left, a.multiply(e, b)), (right, a.multiply(b, e))):
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
    tl = [left_matrix(a, k).trace() for k in range(a.dim)]
    gram = [
        [
            sum(c * t for c, t in zip(a.multiply(basis_vector(a, i), basis_vector(a, j)), tl))
            for j in range(a.dim)
        ]
        for i in range(a.dim)
    ]
    return RowBasis(a.dim).extend(Matrix(a.dim, a.dim, gram).kernel_basis())


def dual_numbers():
    """Q[x]/(x^2) as a table algebra with basis {1, x}."""
    return Algebra(
        2, ["1", "x"], sparse_table([[[1, 0], [0, 1]], [[0, 1], [0, 0]]]), [1, 0], [[1, 0]]
    )


def split_qxq():
    """QxQ presented with basis {1, u}, u^2 = 1: the idempotents (1 +- u)/2
    are not basis monomials, so the basis is not adapted to them."""
    return Algebra(
        2,
        ["1", "u"],
        sparse_table([[[1, 0], [0, 1]], [[0, 1], [1, 0]]]),
        [1, 0],
        [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(-1, 2)]],
    )


def _oracle_algebras():
    named = {name: corpus_algebra(name) for name in CORPUS_NAMES}
    named.update({f"env({name})": hom_algebra(a, a) for name, a in list(named.items())})
    named["op(A3)xA3"] = tensor(opposite(corpus_algebra("A3")), corpus_algebra("A3"))
    named["op(Kronecker)xA2"] = tensor(
        opposite(corpus_algebra("Kronecker")), corpus_algebra("A2")
    )
    named["dual-numbers"] = dual_numbers()
    return named


ORACLE_ALGEBRAS = _oracle_algebras()


def count_paths_dfs(quiver):
    """Independent path counter: depth-first enumeration from every vertex."""
    out = [[] for _ in range(quiver.vertex_count)]
    for a in quiver.arrows:
        out[a.source].append(a.target)
    total = 0

    def walk(v):
        nonlocal total
        total += 1
        for w in out[v]:
            walk(w)

    for v in range(quiver.vertex_count):
        walk(v)
    return total


def test_single_vertex_is_scalars():
    a = path_algebra(Quiver(1, []))
    assert a.dim == 1
    assert a.multiply([1], [1]) == [1]


def test_a2_basis():
    a = corpus_algebra("A2")
    assert a.dim == 3
    assert set(a.labels) == {"e0", "e1", "a"}


def test_kronecker_dimension():
    assert corpus_algebra("Kronecker").dim == 4


@pytest.mark.parametrize("name", ["QxQ", "A2", "A3", "Kronecker"])
def test_path_count_matches_dfs(name):
    q = corpus_quiver(name)
    assert path_algebra(q).dim == count_paths_dfs(q)


def test_cyclic_quiver_rejected():
    with pytest.raises(CyclicQuiverError):
        Quiver(2, [(0, 1, "a"), (1, 0, "b")])


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        Quiver(2, [(0, 1, "a"), (0, 1, "a")])


@pytest.mark.parametrize("name", ["Q", "QxQ", "A2", "A3", "Kronecker"])
def test_associativity_all_triples(name):
    a = corpus_algebra(name)
    basis = [basis_vector(a, i) for i in range(a.dim)]
    for x in basis:
        for y in basis:
            xy = a.multiply(x, y)
            for z in basis:
                assert a.multiply(xy, z) == a.multiply(x, a.multiply(y, z))


def test_associativity_tensor_algebra():
    a = corpus_algebra("A2")
    e = tensor(opposite(a), a)
    basis = [basis_vector(e, i) for i in range(e.dim)]
    for x in basis[:4]:
        for y in basis:
            xy = e.multiply(x, y)
            for z in basis:
                assert e.multiply(xy, z) == e.multiply(x, e.multiply(y, z))


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
    assert a.multiply(e0, arrow) == arrow
    assert op.multiply(arrow, e0) == arrow
    assert op.multiply(e0, arrow) == [0, 0, 0]


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
    from ncmotives.algebra import sparse_table

    a, b = corpus_algebra(left), corpus_algebra(right)
    if op_left:
        a = opposite(a)
    t = tensor(a, b)
    for i in range(t.dim):
        i1, j1 = divmod(i, b.dim)
        for j in range(t.dim):
            i2, j2 = divmod(j, b.dim)
            pa = a.multiply(basis_vector(a, i1), basis_vector(a, i2))
            pb = b.multiply(basis_vector(b, j1), basis_vector(b, j2))
            dense = [x * y for x in pa for y in pb]
            assert t.mul[i][j] == sparse_table([[dense]])[0][0]


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
    from ncmotives.algebra import Algebra, sparse_table

    # QxQ presented with basis {1, u}, u^2 = 1: idempotents (1 +- u)/2 are
    # not basis monomials, so the projective machinery must refuse
    from fractions import Fraction

    a = Algebra(
        2,
        ["1", "u"],
        sparse_table([[[1, 0], [0, 1]], [[0, 1], [1, 0]]]),
        [1, 0],
        [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(-1, 2)]],
    )
    with pytest.raises(AlgebraStructureError):
        a.idempotent_basis_indices()


def test_unit_axiom_enforced():
    from ncmotives.algebra import Algebra, sparse_table

    with pytest.raises(ValueError):
        Algebra(1, ["x"], sparse_table([[[0]]]), [1], [[1]])


@pytest.mark.parametrize("a", ORACLE_ALGEBRAS.values(), ids=ORACLE_ALGEBRAS.keys())
def test_sparse_peirce_and_radical_match_dense_oracles(a):
    """peirce, the Peirce-dimension table and the radical are read from the
    sparse structure constants; dense products are the oracle."""
    left, right = dense_peirce(a)
    assert a.peirce() == (left, right)
    n = len(a.idempotents)
    for i in range(n):
        for j in range(n):
            expected = sum(1 for l, r in zip(left, right) if (l, r) == (i, j))
            assert a.peirce_dim(i, j) == a.peirce_dims()[i][j] == expected
    assert span_equal(a.radical(), dense_radical(a))


def test_non_adapted_basis_is_rejected_by_sparse_peirce():
    a = split_qxq()
    with pytest.raises(AlgebraStructureError):
        dense_peirce(a)
    with pytest.raises(AlgebraStructureError):
        a.peirce()
    with pytest.raises(AlgebraStructureError):
        a.peirce_dims()
    assert span_equal(a.radical(), dense_radical(a))
    assert a.radical().dim == 0


def test_swap_permutation_is_memoized_and_inverted_by_the_reverse_swap(a2, kronecker):
    p = swap_permutation(a2, kronecker)
    assert p is swap_permutation(a2, kronecker)
    back = swap_permutation(kronecker, a2)
    assert sorted(p) == list(range(len(p)))
    assert [back[t] for t in p] == list(range(len(p)))


# -- the memo helper ----------------------------------------------------------


def test_cached_fills_keyword_and_default_arguments_by_position():
    """f(x, 1), f(x, 1, 16), f(x, 1, cap=16) and f(x, x=1) share one entry,
    keyed by the qualified name and the positional arguments; a call that
    raises stores nothing."""
    from ncmotives.algebra import cached

    class Box:
        def __init__(self):
            self._cache = {}

    calls = []

    @cached
    def f(obj, x, cap=16):
        calls.append((x, cap))
        if x < 0:
            raise ValueError(x)
        return [x, cap]

    box = Box()
    first = f(box, 1)
    assert f(box, 1, 16) is first and f(box, 1, cap=16) is first and f(box, x=1) is first
    assert f(box, 1, 5) is not first
    assert calls == [(1, 16), (1, 5)]
    assert sorted(box._cache) == [(f.__qualname__, 1, 5), (f.__qualname__, 1, 16)]
    with pytest.raises(ValueError):
        f(box, -1)
    assert len(box._cache) == 2
    with pytest.raises(TypeError):
        f(box)
    with pytest.raises(TypeError):
        f(box, 1, size=2)


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
