"""Reference computations that only the tests call.

No scenario, CLI command or checker in forge reaches these, so they live
here rather than in the package.
"""

from itertools import product
from math import gcd

from forge import magic
from forge.algebra import Algebra, Element
from forge.exact import ONE, ZERO, Polynomial, Scalar, poly_gcd
from forge.linalg import (Matrix, SparseEchelon, column_apply,
                          minimal_polynomial_op, rref, sparse_kernel)


class NotSquare(ValueError):
    pass


# =========================================================================
# dense Matrix references: the package keeps linear maps as sparse columns
# and bilinear forms as {(i, j): value}
# =========================================================================

def commutator(a: Matrix, b: Matrix) -> Matrix:
    return a * b - b * a


def rank(m: Matrix) -> int:
    return rref(m)[1]


def nullspace(m: Matrix):
    """Basis of the right kernel, as dense vectors, one per free column, read
    off the reduced row echelon form."""
    red, _, pivots = rref(m)
    basis = []
    for f in range(m.cols):
        if f in pivots:
            continue
        v = [ZERO] * m.cols
        v[f] = ONE
        for i, p in enumerate(pivots):
            v[p] = -red.data[i][f]
        basis.append(v)
    return basis


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise NotSquare("inverse of non-square matrix")
    aug = Matrix([row + list(idr) for row, idr in
                  zip(m.data, Matrix.identity(m.rows).data)])
    red, r, pivots = rref(aug)
    if r < m.rows or pivots[:m.rows] != list(range(m.rows)):
        raise ValueError("singular matrix")
    return Matrix([row[m.rows:] for row in red.data])


def minimal_polynomial(m: Matrix) -> Polynomial:
    if m.rows != m.cols:
        raise NotSquare("minimal polynomial needs a square matrix")
    return minimal_polynomial_op(column_apply(m.sparse_cols()), m.rows)


def polar_matrix(A: Algebra) -> Matrix:
    """The dense Gram matrix of A's polar form."""
    return Matrix([[A.polar.get((i, j), ZERO) for j in range(A.dim)]
                   for i in range(A.dim)])


class IntMatrix:
    """Arbitrary-precision integer matrix."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        self.data = [[int(x) for x in row] for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0

    def __mul__(self, other):
        out = [[sum(self.data[i][k] * other.data[k][j] for k in range(self.cols))
                for j in range(other.cols)] for i in range(self.rows)]
        return IntMatrix(out)


def dense_smith_invariants(m: IntMatrix):
    """Invariant factors of m by dense elimination with a pivot of least
    absolute value, each dividing the next; min(rows, cols) of them, zeros
    included."""
    a = [row[:] for row in m.data]
    rows, cols = m.rows, m.cols

    def row_op(i, j, c):  # row_i += c * row_j
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]

    def col_op(i, j, c):  # col_i += c * col_j
        for r in a:
            r[i] += c * r[j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]

    t = 0
    n = min(rows, cols)
    while t < n:
        # find a pivot of least absolute value in the trailing block
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = a[i][j]
                if v != 0 and (best is None or abs(v) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        row_swap(t, best[0])
        col_swap(t, best[1])
        # reduce column t and row t by the pivot; a remainder is a smaller
        # entry of the trailing block, so it is the next round's pivot
        p = a[t][t]
        for i in range(t + 1, rows):
            if a[i][t] != 0:
                row_op(i, t, -(a[i][t] // p))
        for j in range(t + 1, cols):
            if a[t][j] != 0:
                col_op(j, t, -(a[t][j] // p))
        if (any(a[i][t] for i in range(t + 1, rows))
                or any(a[t][j] for j in range(t + 1, cols))):
            continue
        # divisibility: the pivot must divide every remaining entry; else
        # row i added to row t gives row t an entry with a smaller remainder
        bad = next((i for i in range(t + 1, rows)
                    if any(a[i][j] % p for j in range(t + 1, cols))), None)
        if bad is not None:
            row_op(t, bad, 1)
            continue
        if p < 0:
            a[t] = [-x for x in a[t]]
        t += 1
    return [a[i][i] if i < cols else 0 for i in range(n)]


def lattice_row_reduce(rows, ncols: int):
    """Hermite-style basis of the lattice spanned by integer rows: one row
    per lead column, entries above a lead not reduced."""
    basis = {}  # leading col -> row
    queue = [list(r) for r in rows]
    while queue:
        row = queue.pop()
        while True:
            lead = next((i for i, x in enumerate(row) if x != 0), None)
            if lead is None:
                break
            cur = basis.get(lead)
            if cur is None:
                if row[lead] < 0:
                    row = [-x for x in row]
                basis[lead] = row
                break
            if row[lead] % cur[lead] == 0:
                q = row[lead] // cur[lead]
                row = [x - q * y for x, y in zip(row, cur)]
            else:
                g, u, v = _xgcd(cur[lead], row[lead])
                comb = [u * x + v * y for x, y in zip(cur, row)]
                new_cur = [x - (cur[lead] // g) * y for x, y in zip(cur, comb)]
                row = [x - (row[lead] // g) * y for x, y in zip(row, comb)]
                basis[lead] = comb
                if any(new_cur):
                    queue.append(new_cur)
    return [basis[k] for k in sorted(basis)]


def _xgcd(aa: int, bb: int):
    x0, x1, y0, y1 = 1, 0, 0, 1
    a, b = aa, bb
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def hermite_basis(rows, ncols: int):
    """The Hermite normal form of the lattice the rows span: lattice_row_reduce,
    then each lead made positive and each entry above a lead reduced into
    [0, lead), so that two row sets span the same lattice iff their bases are
    equal."""
    basis = lattice_row_reduce(rows, ncols)
    leads = [next(j for j, x in enumerate(row) if x) for row in basis]
    basis = [row if row[j] > 0 else [-x for x in row]
             for row, j in zip(basis, leads)]
    for k in range(len(basis) - 1, -1, -1):
        for i in range(k):
            q = basis[i][leads[k]] // basis[k][leads[k]]
            if q:
                basis[i] = [x - q * y for x, y in zip(basis[i], basis[k])]
    return basis


def int_det(rows) -> int:
    """Determinant of a square matrix, given by its rows, by fraction-free
    (Bareiss) elimination."""
    a = [list(row) for row in rows]
    n = len(a)
    if any(len(row) != n for row in a):
        raise NotSquare("determinant of non-square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _flat(cols, dim: int) -> dict:
    return {r * dim + c: v for c, col in enumerate(cols) for r, v in col.items()
            if v.p or v.q}


def matrix_in_span(cols, basis, dim: int) -> bool:
    """Is the dim x dim map with sparse columns cols in the span of basis,
    a list of such maps?"""
    ech = SparseEchelon(dim * dim)
    for b in basis:
        ech.insert(_flat(b, dim))
    return ech.contains(_flat(cols, dim))


def dense(cols) -> Matrix:
    """The dense square Matrix of a map given by its sparse columns."""
    return Matrix([[col.get(r, ZERO) for col in cols] for r in range(len(cols))])


def left_matrix(A: Algebra, x: Element) -> Matrix:
    """Dense matrix of left multiplication by x: column j is x e_j."""
    cols = [(x * e).coords for e in A.basis()]
    return Matrix([[col[r] for col in cols] for r in range(A.dim)])


def d_i_derivation(A, i: int, a: Element) -> Matrix:
    """D_i(a) = 2 [L_x, L_e] in dense Matrix arithmetic, x = iota_i(a) and
    e = E_{i+1} in the Albert algebra A."""
    J = A.jordan
    coords = [ZERO] * J.dim
    for k, c in enumerate(a.coords):
        coords[A.iota_index(i, k)] = c
    lx = left_matrix(J, J.element(coords))
    le = left_matrix(J, J.basis_element((i + 1) % 3))
    return commutator(lx, le).scale(2)


def commutative_center(A: Algebra):
    """Basis of {x : xy = yx for all y}."""
    d = A.dim
    P = [[A.product(i, j) for j in range(d)] for i in range(d)]

    def rows():
        for j in range(d):
            for m in range(d):
                row: dict = {}
                for i in range(d):
                    c = P[i][j].get(m, ZERO) - P[j][i].get(m, ZERO)
                    if c.p or c.q:
                        row[i] = c
                if row:
                    yield row

    kern = sparse_kernel(rows(), d)
    out = []
    for v in kern:
        coords = [ZERO] * d
        for k, c in v.items():
            coords[k] = c
        out.append(Element(A, coords))
    return out


def mat_vec(m: Matrix, vec):
    """m times the dense vector vec, through the sparse column apply."""
    out = column_apply(m.sparse_cols())({j: c for j, c in enumerate(vec)
                                         if c.p or c.q})
    return [out.get(i, ZERO) for i in range(m.rows)]


def compose_linear(p: Polynomial, a: Scalar) -> Polynomial:
    """p(a*X) for a scalar a."""
    out, pw = [], ONE
    for c in p.coeffs:
        out.append(c * pw)
        pw = pw * a
    return Polynomial(out)


def clear_denominators(table):
    """Scale a sparse Scalar table to integer pairs (p, q).

    `table` is a dict key -> dict key2 -> Scalar.  Returns (D, newtable)
    with newtable values integer pairs for D * scalar.
    """
    D = 1
    for sub in table.values():
        for v in sub.values():
            D = D // gcd(D, v.d) * v.d
    out = {}
    for k, sub in table.items():
        out[k] = {k2: (v.p * (D // v.d), v.q * (D // v.d)) for k2, v in sub.items()}
    return D, out


def elements_generate(G, elems) -> bool:
    """Do elems generate the group G?  Hermite reduction of elems and the
    torsion relations, then Smith invariants all +-1."""
    n = G.ncoords
    if n == 0:
        return True
    rows = [list(e) for e in elems]
    for i, m in enumerate(G.torsion):
        row = [0] * n
        row[G.free_rank + i] = m
        rows.append(row)
    reduced = lattice_row_reduce(rows, n)
    if len(reduced) < n:
        return False
    inv = dense_smith_invariants(IntMatrix(reduced))
    return all(abs(d) == 1 for d in inv)


def sign_failure(A: Algebra, sign: int):
    """First pair (i, j), i <= j, with e_j e_i != sign * e_i e_j, or None,
    by comparing key sets and Scalars."""
    for i in range(A.dim):
        for j in range(i, A.dim):
            a, b = A.product(i, j), A.product(j, i)
            if set(a) != set(b) or any(b[m] != (a[m] if sign == 1 else -a[m])
                                       for m in a):
                return i, j
    return None


def jacobi_triple_ok(T, rational, i, j, k) -> bool:
    """Is [e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]] zero?  T is an
    integer-pair table of algebra.integer_table, rational when every q is 0."""
    if rational:
        acc: dict = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            tb = T.get(b)
            if not tb:
                continue
            lst = tb.get(c)
            if not lst:
                continue
            ta = T.get(a)
            if not ta:
                continue
            for m, p1, _ in lst:
                col = ta.get(m)
                if col:
                    for r, p2, _ in col:
                        acc[r] = acc.get(r, 0) + p1 * p2
        return not any(acc.values())
    accp: dict = {}
    accq: dict = {}
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        tb = T.get(b)
        if not tb:
            continue
        lst = tb.get(c)
        if not lst:
            continue
        ta = T.get(a)
        if not ta:
            continue
        for m, p1, q1 in lst:
            col = ta.get(m)
            if col:
                for r, p2, q2 in col:
                    t = q1 * q2
                    accp[r] = accp.get(r, 0) + p1 * p2 - t
                    accq[r] = accq.get(r, 0) + p1 * q2 + q1 * p2 - t
    return not any(accp.values()) and not any(accq.values())


def first_jacobi_failure(L: Algebra):
    """First triple i < j < k, in lexicographic order, on which the Jacobi
    identity fails, or None."""
    _, T, rational = L.int_table()
    d = L.dim
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                if not jacobi_triple_ok(T, rational, i, j, k):
                    return i, j, k
    return None


def squarefree_euclid(p: Polynomial) -> bool:
    """gcd(p, p') a nonzero constant, by the exact Euclidean gcd over Q(w)."""
    return p.degree() == 0 or poly_gcd(p, p.derivative()).degree() == 0


def triality_bracket_failures(S: Algebra):
    """All 4096 basis quadruples (a, b, x, y), in order, with
    [t_{a,b}, t_{x,y}] != n(a,x)t_{b,y} - n(b,x)t_{a,y} + n(a,y)t_{x,b}
    - n(b,y)t_{x,a}, in Scalar arithmetic from magic.t_xy and S.polar."""
    d, n = S.dim, polar_matrix(S).data
    basis = S.basis()
    t = {(a, b): magic.t_xy(S, basis[a], basis[b])
         for a in range(d) for b in range(d)}
    bad = []
    for a, b, x, y in product(range(d), repeat=4):
        diff = dict(t[(a, b)].commutator(t[(x, y)]).entries)
        for c, gh in ((n[a][x], (b, y)), (-n[b][x], (a, y)),
                      (n[a][y], (x, b)), (-n[b][y], (x, a))):
            for k, v in t[gh].entries.items():
                diff[k] = diff.get(k, ZERO) - c * v
        if any(v.p or v.q for v in diff.values()):
            bad.append((a, b, x, y))
    return bad
