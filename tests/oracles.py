"""Reference computations that only the tests call.

No scenario, CLI command or checker in forge reaches these, so they live
here rather than in the package.
"""

from forge.algebra import Algebra, Element
from forge.exact import ZERO
from forge.linalg import IntMatrix, Matrix, NotSquare, SparseEchelon, sparse_kernel


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
