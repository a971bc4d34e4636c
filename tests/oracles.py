"""Reference computations that only the tests call.

No scenario, CLI command or checker in forge reaches these, so they live
here rather than in the package.
"""

from math import gcd

from forge.algebra import Algebra, Element
from forge.exact import ONE, ZERO, Polynomial, Scalar
from forge.linalg import (IntMatrix, Matrix, NotSquare, SparseEchelon,
                          column_apply, lattice_row_reduce, smith_normal_form,
                          sparse_kernel)


def int_det(m: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    n = m.rows
    if n != m.cols:
        raise NotSquare("determinant of non-square matrix")
    if n == 0:
        return 1
    a = [row[:] for row in m.data]
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


def matrix_in_span(m: Matrix, basis, dim: int) -> bool:
    ech = SparseEchelon(dim * dim)
    for b in basis:
        ech.insert(b.flat())
    return ech.contains(m.flat())


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
    inv = smith_normal_form(IntMatrix(reduced))[0]
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
