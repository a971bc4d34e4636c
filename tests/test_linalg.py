import random

import pytest
from hypothesis import given, settings, strategies as st

from forge.exact import OMEGA, ONE, ZERO, Polynomial, Scalar, sc
from forge.linalg import (DependentVectors, Matrix, SpanCoords, SparseEchelon,
                          _krylov_annihilator, column_apply, minimal_polynomial_op,
                          rank_mod_p, rref, smith_normal_form, solve,
                          sparse_kernel, vec_add_scaled)
from oracles import (IntMatrix, NotSquare, dense_smith_invariants, hermite_basis,
                     int_det, inverse, mat_vec, minimal_polynomial, nullspace,
                     rank)

X = Polynomial.x
C = Polynomial.constant


def _dense_rref(m: Matrix):
    """Oracle: textbook Gauss-Jordan on dense rows, (R, rank, pivot columns).

    Pivoting is deterministic: the first row with a nonzero entry in column
    order.  The library reads its rref off a SparseEchelon instead.
    """
    a = [row[:] for row in m.data]
    rows, cols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if not a[i][c].is_zero():
                pr = i
                break
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = a[r][c].inv()
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and not a[i][c].is_zero():
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return Matrix(a), r, pivots


def _dense_nullspace(m: Matrix):
    red, r, pivots = _dense_rref(m)
    basis = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [ZERO] * m.cols
        v[f] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = -red.data[i][f]
        basis.append(v)
    return basis


def _dense_solve(m: Matrix, rhs):
    red, r, pivots = _dense_rref(Matrix([row + [sc(b)] for row, b in zip(m.data, rhs)]))
    if m.cols in pivots:
        return None
    x = [ZERO] * m.cols
    for i, pc in enumerate(pivots):
        x[pc] = red.data[i][m.cols]
    return x


def _dense_inverse(m: Matrix) -> Matrix:
    n = m.rows
    red, r, pivots = _dense_rref(Matrix([row + idr for row, idr in
                                         zip(m.data, Matrix.identity(n).data)]))
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return Matrix([row[n:] for row in red.data])


def test_rref_examples():
    ident = Matrix.identity(3)
    red, rk, piv = rref(ident)
    assert red == ident and rk == 3 and piv == [0, 1, 2]
    z = Matrix.zero(2, 2)
    assert rref(z)[0] == z and rref(z)[1] == 0
    m = Matrix([[ONE, OMEGA], [OMEGA, Scalar(-1, -1)]])
    assert rref(m)[1] == 1  # second row is w times the first


def test_nullspace_examples():
    assert nullspace(Matrix.identity(4)) == []
    assert len(nullspace(Matrix.zero(2, 3))) == 3


def test_rank_nullity_random():
    rng = random.Random(17)
    for _ in range(15):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = Matrix([[sc(rng.randint(-3, 3)) for _ in range(cols)]
                    for _ in range(rows)])
        assert rank(m) + len(nullspace(m)) == cols


def test_solve_and_inverse():
    m = Matrix([[1, 2], [3, 5]])
    x = solve(m, [sc(1), sc(2)])
    assert mat_vec(m, x) == [ONE, sc(2)]
    assert m * inverse(m) == Matrix.identity(2)
    assert solve(Matrix([[1, 1], [1, 1]]), [sc(0), sc(1)]) is None


def _triple_loop_product(a, b):
    """Oracle: the textbook sum over k of a[i, k] * b[k, j]."""
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = ZERO
            for k in range(a.cols):
                acc = acc + a.data[i][k] * b.data[k][j]
            row.append(acc)
        out.append(row)
    return Matrix(out)


_ENTRIES = (ZERO, ZERO, ZERO, ONE, -ONE, OMEGA, -OMEGA, Scalar(-1, -1),
            Scalar(1, 0, 3), Scalar(-2, 0, 5), Scalar(1, 1, 2), Scalar(3, -2, 7))


def _random_matrix(rng, rows, cols):
    m = Matrix([[rng.choice(_ENTRIES) for _ in range(cols)] for _ in range(rows)])
    if rows and cols:  # a zero row and a zero column
        m.data[rng.randrange(rows)] = [ZERO] * cols
        c = rng.randrange(cols)
        for row in m.data:
            row[c] = ZERO
    return m


def test_matrix_product_matches_triple_loop():
    rng = random.Random(23)
    for rows, inner, cols in ((1, 1, 1), (3, 3, 3), (2, 5, 3), (5, 2, 4),
                              (4, 6, 1), (1, 6, 5), (7, 7, 7)):
        for _ in range(4):
            a = _random_matrix(rng, rows, inner)
            b = _random_matrix(rng, inner, cols)
            assert a * b == _triple_loop_product(a, b)
    z = Matrix.zero(3, 2)
    assert z * _random_matrix(rng, 2, 4) == Matrix.zero(3, 4)
    with pytest.raises(ValueError):
        Matrix.zero(2, 3) * Matrix.zero(2, 3)


def test_span_coords_match_a_dense_solve():
    rng = random.Random(29)
    ncols = 9
    vectors = [{0: ONE, 3: OMEGA, 7: Scalar(1, 0, 2)},
               {1: Scalar(-2, 0, 3), 3: ONE},
               {2: Scalar(1, 1, 2), 5: -ONE, 8: OMEGA},
               {0: ONE, 1: ONE, 2: ONE, 6: Scalar(3, -2, 7)}]
    span = SpanCoords(vectors, ncols)
    columns = Matrix([[v.get(r, ZERO) for v in vectors] for r in range(ncols)])
    for _ in range(12):
        coeffs = [rng.choice(_ENTRIES) for _ in vectors]
        f: dict = {}
        for c, v in zip(coeffs, vectors):
            if not c.is_zero():
                vec_add_scaled(f, c, v)
        coords = span.coords(f)
        assert coords == {i: c for i, c in enumerate(coeffs) if not c.is_zero()}
        assert [coords.get(i, ZERO) for i in range(4)] == \
            _dense_solve(columns, [f.get(r, ZERO) for r in range(ncols)])
    assert span.coords({}) == {}
    outside = {4: ONE}
    assert _dense_solve(columns, [outside.get(r, ZERO) for r in range(ncols)]) is None
    assert span.coords(outside) is None
    assert span.coords({0: ONE, 4: ONE}) is None
    with pytest.raises(DependentVectors):
        SpanCoords(vectors + [{0: ONE, 1: Scalar(-2, 0, 3), 3: ONE + OMEGA,
                               7: Scalar(1, 0, 2)}], ncols)


def _dense_minimal_polynomial(m):
    # least k with M^k in the span of I, M, ..., M^(k-1), by one exact solve
    n = m.rows
    powers = [Matrix.identity(n)]
    while True:
        nxt = powers[-1] * m
        flat = Matrix([[p.data[i][j] for p in powers]
                       for i in range(n) for j in range(n)])
        x = _dense_solve(flat, [nxt.data[i][j] for i in range(n) for j in range(n)])
        if x is not None:
            return Polynomial([-c for c in x] + [ONE])
        powers.append(nxt)


def _op(m):
    cols = [{i: m.data[i][j] for i in range(m.rows) if not m.data[i][j].is_zero()}
            for j in range(m.cols)]
    return column_apply(cols)


def _annihilates(p, m):
    acc, power = Matrix.zero(m.rows, m.rows), Matrix.identity(m.rows)
    for c in p.coeffs:
        acc = acc + power.scale(c)
        power = power * m
    return acc.is_zero()


def test_minimal_polynomial_examples():
    assert minimal_polynomial(Matrix.identity(5)) == X() - C(1)
    assert minimal_polynomial(Matrix([[0, 1], [0, 0]])) == X(2)
    d = Matrix([[1, 0, 0], [0, 2, 0], [0, 0, 2]])
    assert minimal_polynomial(d) == (X() - C(1)) * (X() - C(2))
    # e_1 is killed by the reversed polynomial 1 - 2X of the first chain's X - 2
    d = Matrix([[2, 0], [0, Scalar(1, 0, 2)]])
    assert minimal_polynomial(d) == (X() - C(2)) * (X() - C(Scalar(1, 0, 2)))
    with pytest.raises(NotSquare):
        minimal_polynomial(Matrix.zero(2, 3))


def test_minimal_polynomial_annihilates():
    rng = random.Random(23)
    for _ in range(8):
        n = rng.randint(1, 5)
        m = Matrix([[sc(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
        p = minimal_polynomial(m)
        assert _annihilates(p, m)
        assert p == _dense_minimal_polynomial(m)


def test_minimal_polynomial_op_later_column_seeds_nilpotent_block():
    # diag(2) + J_2(0) + J_3(1): the chain from e_0 only sees X - 2, and the
    # nilpotent block needs the seed e_2
    m = Matrix([[2, 0, 0, 0, 0, 0],
                [0, 0, 1, 0, 0, 0],
                [0, 0, 0, 0, 0, 0],
                [0, 0, 0, 1, 1, 0],
                [0, 0, 0, 0, 1, 1],
                [0, 0, 0, 0, 0, 1]])
    apply_fn = _op(m)
    assert _krylov_annihilator(apply_fn, {0: ONE}, 6) == X() - C(2)
    got = minimal_polynomial_op(apply_fn, 6)
    assert got == (X() - C(2)) * X(2) * (X() - C(1)) * (X() - C(1)) * (X() - C(1))
    assert got == _dense_minimal_polynomial(m)
    assert _annihilates(got, m)


def test_minimal_polynomial_op_zero_and_one_by_one():
    assert minimal_polynomial_op(lambda v: {}, 4) == X()
    assert minimal_polynomial_op(_op(Matrix([[5]])), 1) == X() - C(5)
    assert minimal_polynomial_op(_op(Matrix([[OMEGA]])), 1) == X() - Polynomial([OMEGA])


def test_minimal_polynomial_op_covers_only_one_entry_orbit_vectors():
    # the swap e0 <-> e1 sets f = X^2 - 1, which kills e2 and its orbit
    # vector M e2 = e3 + e4; but M e3 = 2 e3, so covering the support of
    # e3 + e4 would stop at X^2 - 1
    cols = [{1: ONE}, {0: ONE}, {3: ONE, 4: ONE}, {3: sc(2)}, {2: ONE, 3: sc(-2)}]
    m = Matrix([[c.get(i, ZERO) for c in cols] for i in range(5)])
    got = minimal_polynomial_op(column_apply(cols), 5)
    assert got == X(3) - C(2) * X(2) - X() + C(2)
    assert got == _dense_minimal_polynomial(m)


_SPARSE = (ZERO,) * 9 + _ENTRIES
_NONZERO = [c for c in _ENTRIES if not c.is_zero()]


@st.composite
def _operators(draw):
    """Block-diagonal sum of sparse random and scaled permutation blocks."""
    blocks = []
    for n in draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)):
        if draw(st.booleans()):
            block = [[draw(st.sampled_from(_SPARSE)) for _ in range(n)]
                     for _ in range(n)]
        else:
            block = [[ZERO] * n for _ in range(n)]
            for j, i in enumerate(draw(st.permutations(range(n)))):
                block[i][j] = draw(st.sampled_from(_NONZERO))
        blocks.append(block)
    dim = sum(len(b) for b in blocks)
    m = Matrix.zero(dim, dim)
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            m.data[at + i][at:at + len(b)] = row
        at += len(b)
    return m


@settings(max_examples=150, deadline=None)
@given(_operators())
def test_minimal_polynomial_op_matches_the_dense_oracle(m):
    assert minimal_polynomial_op(_op(m), m.rows) == _dense_minimal_polynomial(m)


@st.composite
def _matrices(draw):
    """Up to 6 x 7 over Q(w); some rows are zero or combinations of others."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    data = []
    for _ in range(rows):
        kind = draw(st.sampled_from(("random", "random", "zero", "combination")))
        if kind == "zero" or (kind == "combination" and not data):
            data.append([ZERO] * cols)
        elif kind == "combination":
            a, b = draw(st.sampled_from(data)), draw(st.sampled_from(data))
            ca, cb = draw(st.sampled_from(_NONZERO)), draw(st.sampled_from(_ENTRIES))
            data.append([ca * x + cb * y for x, y in zip(a, b)])
        else:
            data.append([draw(st.sampled_from(_SPARSE)) for _ in range(cols)])
    return Matrix(data)


@settings(max_examples=200, deadline=None)
@given(_matrices(), st.data())
def test_dense_views_match_the_gauss_jordan_oracle(m, data):
    red, rk, pivots = _dense_rref(m)
    assert rref(m) == (red, rk, pivots)
    assert rank(m) == rk
    assert nullspace(m) == _dense_nullspace(m)
    x = [data.draw(st.sampled_from(_ENTRIES)) for _ in range(m.cols)]
    anywhere = [data.draw(st.sampled_from(_ENTRIES)) for _ in range(m.rows)]
    for rhs in (mat_vec(m, x), anywhere):
        assert solve(m, rhs) == _dense_solve(m, rhs)
    n = min(m.rows, m.cols)
    square = Matrix([row[:n] for row in m.data[:n]])
    if _dense_rref(square)[1] == n:
        assert inverse(square) == _dense_inverse(square)
    else:
        with pytest.raises(ValueError):
            inverse(square)
        with pytest.raises(ValueError):
            _dense_inverse(square)


def _assert_smith_transform(m, ncols, inv, R):
    """R is unimodular and the rows of m R span the lattice of diag(inv)."""
    assert int_det(R) in (1, -1)
    diag = [[inv[i] if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    assert (hermite_basis((IntMatrix(m) * IntMatrix(R)).data, ncols)
            == hermite_basis(diag, ncols))


def test_smith_normal_form_examples():
    inv, R = smith_normal_form([[1, 0], [0, 1]], 2)
    assert inv == [1, 1]
    inv, R = smith_normal_form([[3, 0], [0, 3]], 2)
    assert inv == [3, 3]
    m = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    inv, R = smith_normal_form(m, 3)
    assert inv == [2, 6, 12]
    _assert_smith_transform(m, 3, inv, R)


def test_smith_divisibility_random():
    rng = random.Random(31)
    for _ in range(12):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        inv, R = smith_normal_form(m, cols)
        nz = [d for d in inv if d != 0]
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0
        _assert_smith_transform(m, cols, inv, R)


@st.composite
def _integer_matrices(draw):
    """(rows, ncols): more rows than columns, among them zero rows and
    duplicates, and often a common factor, so that no entry is a unit."""
    ncols = draw(st.integers(0, 5))
    row = st.lists(st.integers(-6, 6), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=ncols + 1, max_size=ncols + 6))
    rows += [[0] * ncols] * draw(st.integers(0, 2))
    rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    factor = draw(st.sampled_from((1, 2, 3, 6)))
    return [[factor * x for x in r] for r in rows], ncols


@settings(max_examples=200, deadline=None)
@given(_integer_matrices(), st.booleans())
def test_smith_normal_form_matches_the_dense_oracle(case, sparse):
    m, ncols = case
    rows = [{j: x for j, x in enumerate(r) if x} for r in m] if sparse else m
    inv, R = smith_normal_form(rows, ncols)
    assert inv == dense_smith_invariants(IntMatrix(m))
    _assert_smith_transform(m, ncols, inv, R)


def test_okubo_relation_lattice_cokernel():
    # brute-force oracle: relations a + b - c over the eight nonzero degree
    # labels of the isotropic Okubo basis force Z3 x Z3
    from forge.compose import OKUBO_DEGREES, okubo
    O = okubo(1, 1)
    labels = list(OKUBO_DEGREES)
    index = {l: i for i, l in enumerate(labels)}
    rows = []
    for (i, j), vec in O.products.items():
        (k,) = vec.keys()
        row = [0] * 8
        row[index[labels[i]]] += 1
        row[index[labels[j]]] += 1
        row[index[labels[k]]] -= 1
        rows.append(row)
    inv, _ = smith_normal_form(rows, 8)
    assert [d for d in inv if d not in (0, 1)] == [3, 3]
    assert sum(1 for d in inv if d == 0) + (8 - len(inv)) == 0


def test_sparse_echelon_and_kernel():
    rows = [{0: ONE, 1: ONE}, {1: ONE, 2: ONE}, {0: ONE, 2: -ONE}]
    kern = sparse_kernel(rows, 3)
    assert len(kern) == 1
    ech = SparseEchelon(3)
    for r in rows:
        ech.insert(dict(r))
    assert ech.rank == 2
    for v in kern:
        for r in rows:
            acc = ZERO
            for k, c in r.items():
                acc = acc + c * v.get(k, ZERO)
            assert acc.is_zero()


def test_rank_mod_p_bounds():
    rows = [{0: ONE, 1: OMEGA}, {0: OMEGA, 1: Scalar(-1, -1)}]
    assert rank_mod_p(rows, 2) == 1
    rows = [{i: ONE} for i in range(5)]
    assert rank_mod_p(rows, 5) == 5
    assert rank_mod_p(rows, 5, limit=3) == 3


def _kernel_inputs():
    """(dense rows, column count): random sparse matrices, an independent
    row placed after more than 4 * ncols dependent ones, and full rank
    reached before the last row."""
    rng = random.Random(61)
    for trial in range(20):
        rows_n = rng.randint(1, 12)
        cols_n = rng.randint(1, 10)
        yield [[sc(rng.randint(-2, 2)) if rng.random() < 0.4 else ZERO
                for _ in range(cols_n)] for _ in range(rows_n)], cols_n
    base = [sc(1), sc(2), ZERO, sc(-1)]
    late = [ZERO, ZERO, sc(3), OMEGA]
    yield [[sc(k % 3 + 1) * x for x in base] for k in range(17)] + [late], 4
    full = [[sc(1) if j == i else ZERO for j in range(3)] for i in range(3)]
    yield full + [[sc(1), sc(1), sc(1)]], 3


def _stream(rows, ncols):
    """The sparse rows, raising if read past the row that brings the rank
    to ncols: nothing after it can change the (zero) kernel."""
    ech = SparseEchelon(ncols)
    for row in rows:
        if ech.rank == ncols:
            raise AssertionError("row read after the rank reached ncols")
        ech.insert(row)
        yield row


def test_sparse_kernel_matches_dense_nullspace():
    for dense, cols_n in _kernel_inputs():
        m = Matrix(dense)
        sparse_rows = [{j: v for j, v in enumerate(row) if not v.is_zero()}
                       for row in dense]
        kern = sparse_kernel(_stream(sparse_rows, cols_n), cols_n)
        assert [[v.get(j, ZERO) for j in range(cols_n)] for v in kern] == \
            _dense_nullspace(m)
        for v in kern:
            out = mat_vec(m, [v.get(j, ZERO) for j in range(cols_n)])
            assert all(x.is_zero() for x in out)


def test_rank_mod_p_agrees_with_exact_rank():
    rng = random.Random(67)
    for trial in range(15):
        rows_n = rng.randint(1, 8)
        cols_n = rng.randint(1, 8)
        dense = [[Scalar(rng.randint(-4, 4), rng.randint(-2, 2),
                         rng.randint(1, 5)) for _ in range(cols_n)]
                 for _ in range(rows_n)]
        m = Matrix(dense)
        sparse_rows = [{j: v for j, v in enumerate(row) if not v.is_zero()}
                       for row in dense]
        got = rank_mod_p([r for r in sparse_rows if r], cols_n)
        assert got <= rank(m)
        assert got == rank(m)      # generic instances; prime is fixed


def test_rank_mod_p_agrees_with_exact_rank_across_blocks():
    # 300 rows in the span of 30 sparse vectors: more than one 256-row block,
    # so the pivots of a later block meet those of an earlier one
    rng = random.Random(71)
    base = [{j: sc(rng.randint(-3, 3)) for j in rng.sample(range(40), 4)}
            for _ in range(30)]
    rows = []
    for _ in range(300):
        row: dict = {}
        for v in rng.sample(base, 2):
            vec_add_scaled(row, sc(rng.randint(1, 3)), v)
        rows.append(row)
    ech = SparseEchelon(40)
    for row in rows:
        ech.insert(row)
    assert ech.rank == 30
    assert rank_mod_p(rows, 40) == 30
    assert rank_mod_p(rows, 40, limit=30) == 30


def test_rank_mod_p_retries_on_bad_prime():
    from forge.linalg import rank_moduli
    p0 = rank_moduli(1)[0][0]
    rows = [{0: Scalar(1, 0, p0)}, {1: ONE}]
    assert rank_mod_p(rows, 2) == 2
    # the retry must see the rows a generator handed to the failed attempt
    rows = [{i: ONE} for i in range(5)]
    rows[2] = {2: Scalar(1, 0, p0)}
    assert rank_mod_p(rows, 5) == 5
    assert rank_mod_p((r for r in rows), 5) == 5
