"""Exact linear algebra over Q(w), plus one Smith normal form over Z.

A linear map is a list of sparse columns, cols[j] = {r: entry}: column_apply
makes the sparse apply that minimal_polynomial_op takes, and eigenspace reads
ker(M - ev I) off the rows.  A bilinear form is a dict {(i, j): entry}, as
Algebra.polar holds it.  No module above this one uses a dense form: dense
Matrix (lists of Scalar rows), rref and solve have no caller in the package
and stay only because the benchmark's layer spans name Matrix.__mul__, rref
and solve; the tests build their dense references on Matrix.  All
elimination over Q(w) goes through SparseEchelon (dict-of-column sparse
rows): rref and solve read one off a matrix's rows, and SpanCoords and the
Krylov annihilator carry tag columns through one.
sparse_kernel feeds a row stream into one and reads the kernel off its
back-substituted rows; it stops reading early only once the rank is the
column count.  An echelon's rank, read until a target is met, certifies "the
kernel is no bigger than the part we exhibit".  No checker calls rank_mod_p,
a numpy modular rank bound (rank mod p <= rank over Q).  Integer-pair tables
(denominators cleared) have one builder, algebra.integer_table.  Over Z the
one eliminator is smith_normal_form, a sparse elimination that pivots on
units first.
"""

from __future__ import annotations

from .exact import ONE, ZERO, Polynomial, Scalar, poly_lcm, sc


class DependentVectors(ValueError):
    pass


# =========================================================================
# dense matrices
# =========================================================================

class Matrix:
    """Dense matrix of Scalars."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        self.data = [[sc(x) for x in row] for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix([[ZERO] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "Matrix":
        m = Matrix.zero(n, n)
        for i in range(n):
            m.data[i][i] = ONE
        return m

    def copy(self) -> "Matrix":
        return Matrix([row[:] for row in self.data])

    def __getitem__(self, ij):
        return self.data[ij[0]][ij[1]]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.data == other.data

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.data))

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix([[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix([[a - b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.data, other.data)])

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in r] for r in self.data])

    def scale(self, c) -> "Matrix":
        c = sc(c)
        return Matrix([[c * a for a in r] for r in self.data])

    def __mul__(self, other: "Matrix") -> "Matrix":
        """Row i of the product is the sum of a * (row k of other) over the
        nonzero entries a = self[i, k]; zero entries cost nothing."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        orows = [{c: b for c, b in enumerate(row) if b.p or b.q}
                 for row in other.data]
        cols = range(other.cols)
        out = []
        for row in self.data:
            acc: dict = {}
            for a, orow in zip(row, orows):
                if a.p or a.q:
                    vec_add_scaled(acc, a, orow)
            out.append([acc.get(c, ZERO) for c in cols])
        return Matrix(out)

    def sparse_cols(self):
        """The columns as sparse dicts {row: entry}."""
        return [{r: row[j] for r, row in enumerate(self.data) if not row[j].is_zero()}
                for j in range(self.cols)]

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.data for x in row)

    def __repr__(self):
        return "Matrix(%d x %d)" % (self.rows, self.cols)


# =========================================================================
# sparse rows: dict col -> Scalar
# =========================================================================

def vec_add_scaled(dst: dict, c: Scalar, src: dict):
    """dst += c * src, dropping zeros; mutates dst."""
    for k, v in src.items():
        w = dst.get(k)
        nv = c * v if w is None else w + c * v
        if nv.p or nv.q:
            dst[k] = nv
        elif w is not None:
            del dst[k]


class SparseEchelon:
    """Incremental row echelon over Q(w) with sparse dict rows."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_rows = {}  # pivot col -> normalized row (dict)

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, row: dict) -> dict:
        """Forward-reduce a row against current pivots (copy, not inserted)."""
        row = dict(row)
        prows = self.pivot_rows
        while row:
            lead = min(row)
            pr = prows.get(lead)
            if pr is None:
                return row
            c = -row[lead]
            del row[lead]
            for k, v in pr.items():
                if k == lead:
                    continue
                w = row.get(k)
                nv = c * v if w is None else w + c * v
                if nv.p or nv.q:
                    row[k] = nv
                elif w is not None:
                    del row[k]
        return row

    def insert(self, row: dict) -> bool:
        """Reduce and insert; True if the rank grew."""
        row = self.reduce(row)
        if not row:
            return False
        self.add_reduced(row, min(row))
        return True

    def add_reduced(self, row: dict, lead: int):
        """Insert a nonzero row returned by reduce(), lead = min(row)."""
        inv = row[lead].inv()
        self.pivot_rows[lead] = {k: inv * v for k, v in row.items()}

    def back_substitute(self):
        """Make the echelon fully reduced (each pivot column cleared)."""
        for lead in sorted(self.pivot_rows, reverse=True):
            prow = self.pivot_rows[lead]
            for lead2, row2 in self.pivot_rows.items():
                if lead2 == lead:
                    continue
                c = row2.get(lead)
                if c is not None:
                    del row2[lead]
                    for k, v in prow.items():
                        if k == lead:
                            continue
                        w = row2.get(k)
                        nv = (-c) * v if w is None else w - c * v
                        if nv.p or nv.q:
                            row2[k] = nv
                        elif w is not None:
                            del row2[k]

    def kernel(self):
        """Sparse basis of the kernel (list of dicts), one per free column."""
        self.back_substitute()
        basis = []
        for f in range(self.ncols):
            if f in self.pivot_rows:
                continue
            v = {f: ONE}
            for lead, row in self.pivot_rows.items():
                c = row.get(f)
                if c is not None:
                    v[lead] = -c
            basis.append(v)
        return basis

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)


def _echelon(m: Matrix) -> SparseEchelon:
    ech = SparseEchelon(m.cols)
    for row in m.data:
        ech.insert({c: v for c, v in enumerate(row) if v.p or v.q})
    return ech


def rref(m: Matrix):
    """Reduced row echelon form, read off one SparseEchelon of the rows.

    Returns (R, rank, pivot_columns): the back-substituted pivot rows in
    pivot order, padded with zero rows.  The reduced row echelon form of a
    matrix is unique, so R does not depend on the order of elimination.
    """
    ech = _echelon(m)
    ech.back_substitute()
    pivots = sorted(ech.pivot_rows)
    cols = range(m.cols)
    data = [[ech.pivot_rows[p].get(c, ZERO) for c in cols] for p in pivots]
    data += [[ZERO] * m.cols for _ in range(m.rows - len(pivots))]
    return Matrix(data), len(pivots), pivots


def solve(m: Matrix, rhs):
    """One exact solution of m x = rhs, or None if inconsistent."""
    aug = Matrix([row + [b] for row, b in zip(m.data, [sc(x) for x in rhs])])
    red, r, pivots = rref(aug)
    if m.cols in pivots:
        return None
    x = [ZERO] * m.cols
    for i, pc in enumerate(pivots):
        x[pc] = red.data[i][m.cols]
    return x


def sparse_kernel(rows, ncols: int):
    """Exact kernel of a stream of sparse rows, one basis vector per free
    column.  The rows feed one SparseEchelon; reading stops at the row that
    brings the rank to ncols, as the kernel is then zero."""
    ech = SparseEchelon(ncols)
    for row in rows:
        if ech.insert(row) and ech.rank == ncols:
            break
    return ech.kernel()


class SpanCoords:
    """Exact coordinates in the span of independent sparse vectors.

    Vector i enters one SparseEchelon as a row with the tag column ncols + i
    set to 1, so every echelon row holds its vector part next to the
    combination of the inputs that made it.  A lead on a tag column means a
    combination of the vectors cancelled: they are dependent.  Otherwise the
    leads are pivot positions r at which the vectors' block B is invertible,
    and after back-substitution the vector part is the identity on them, so
    the tags of the row led by r are column r of B^-1.  The coordinates of a
    vector are the sum of its nonzero pivot entries times those columns, and
    an exact recombination check confirms that the vector lies in the span.
    """

    def __init__(self, vectors, ncols: int):
        self.vectors = list(vectors)
        ech = SparseEchelon(ncols + len(self.vectors))
        for i, v in enumerate(self.vectors):
            row = ech.reduce({**v, ncols + i: ONE})
            lead = min(row)
            if lead >= ncols:
                raise DependentVectors("vectors are dependent")
            ech.add_reduced(row, lead)
        ech.back_substitute()
        self.pivots = sorted(ech.pivot_rows)
        self.columns = [{k - ncols: v for k, v in ech.pivot_rows[r].items()
                         if k >= ncols} for r in self.pivots]

    def coords(self, f: dict):
        """Dense coordinates of the sparse vector f, or None outside the span."""
        sparse: dict = {}
        for r, col in zip(self.pivots, self.columns):
            c = f.get(r)
            if c is not None and (c.p or c.q):
                vec_add_scaled(sparse, c, col)
        check: dict = {}
        for i, c in sparse.items():
            vec_add_scaled(check, c, self.vectors[i])
        if check != f:
            return None
        return [sparse.get(i, ZERO) for i in range(len(self.vectors))]


# =========================================================================
# minimal polynomial
# =========================================================================

def _krylov_annihilator(apply_fn, seed: dict, dim: int) -> Polynomial:
    """Monic annihilator of least degree of seed = v under M.

    M^k v enters one SparseEchelon with the tag column dim + k set to 1, so
    every echelon row holds a vector sum_j t_j M^j v next to its tags t_j.
    The first M^k v whose vector part reduces to zero is dependent on the
    earlier, independent ones; its reduced row is then all tags, with
    t_k = 1, and sum_j t_j X^j is the relation.
    """
    ech = SparseEchelon(2 * dim + 1)
    v = seed
    for k in range(dim + 1):
        row = ech.reduce({**v, dim + k: ONE})
        lead = min(row)
        if lead >= dim:
            return Polynomial([row.get(dim + j, ZERO) for j in range(k + 1)])
        ech.add_reduced(row, lead)
        v = apply_fn(v)
    raise RuntimeError("Krylov chain longer than the dimension")


def column_apply(cols):
    """Sparse apply of the operator whose j-th column is the sparse dict cols[j]."""
    def apply_fn(v):
        out: dict = {}
        for j, c in v.items():
            vec_add_scaled(out, c, cols[j])
        return out
    return apply_fn


def eigenspace(cols, ev):
    """Sparse basis of ker(M - ev I), M the square map with the sparse
    columns cols: the reduced-echelon kernel of the rows of M - ev I, one
    vector per free column."""
    rows = [{} for _ in cols]
    for j, col in enumerate(cols):
        for r, v in col.items():
            rows[r][j] = v
    for r, row in enumerate(rows):
        vec_add_scaled(row, -ev, {r: ONE})
    return sparse_kernel(rows, len(cols))


def minimal_polynomial_op(apply_fn, dim: int) -> Polynomial:
    """Minimal polynomial m of a linear operator M given as a sparse apply.

    apply_fn maps a sparse dict vector to a sparse dict vector.  Walks the
    basis with f = 1.  For each e_j not yet covered it forms the orbit
    v_k = M^k e_j, k <= deg f, and f(M) e_j = sum f_k v_k exactly over Q(w);
    where that is nonzero, f becomes the lcm of f and the annihilator of the
    Krylov chain from e_j.  Each chain annihilator divides m, so f | m.
    Now f(M) e_j = 0, so an orbit vector v_k = c e_l with one entry has
    f(M) e_l = c^-1 M^k f(M) e_j = 0, and so has every later f, a multiple
    of this one: e_l is covered and skipped.  (A wider v_k proves nothing
    about the basis vectors of its support.)  So f(M) e_j = 0 holds for
    every basis vector at the end, and m | f.
    """
    f = Polynomial([ONE])
    covered = set()
    for j in range(dim):
        if j in covered:
            continue
        orbit = [{j: ONE}]
        while len(orbit) < len(f.coeffs) and orbit[-1]:
            orbit.append(apply_fn(orbit[-1]))
        out: dict = {}
        for c, v in zip(f.coeffs, orbit):
            if c.p or c.q:
                vec_add_scaled(out, c, v)
        if out:
            f = poly_lcm(f, _krylov_annihilator(apply_fn, orbit[0], dim))
        covered.update(next(iter(v)) for v in orbit if len(v) == 1)
    return f


# =========================================================================
# Smith normal form over Z
# =========================================================================

def smith_normal_form(rows, ncols: int):
    """Smith normal form over Z of the matrix M with the given integer rows
    (sparse dicts or lists) and ncols columns, by one sparse elimination.

    Returns (invariants, R).  The ncols invariants are first the 1s, then
    d1 | d2 | ... > 1, then a 0 for each free coordinate; R is unimodular, a
    list of rows, and the rows of M R span the same lattice as
    diag(invariants).

    The rows are deduplicated and sorted, and each pivot is an entry of least
    absolute value.  Units go first, shortest row first and, within the row,
    in the column that the fewest rows use; this keeps the fill-in small.  On
    relation lattices a + b - c almost every pivot is a unit, and each such
    pivot removes one generator (a Tietze move).  A pivot is cleared from its
    column by row operations and from its row by column operations, which R
    records.  A pivot that does not divide every remaining entry first adds
    in a row with an entry it does not divide, so the invariants come out in
    order.
    """
    keys = set()
    for row in rows:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        key = tuple(sorted((j, x) for j, x in items if x))
        if key:
            keys.add(key)
    mat = {i: dict(key) for i, key in
           enumerate(sorted(keys, key=lambda k: (len(k), k)))}
    cols = [set() for _ in range(ncols)]
    for i, row in mat.items():
        for j in row:
            cols[j].add(i)
    R = [{j: 1} for j in range(ncols)]  # column j of R as {row: entry}
    units: dict = {}  # length -> rows that had a unit entry at that length

    def note(i):
        row = mat[i]
        if any(x in (1, -1) for x in row.values()):
            units.setdefault(len(row), []).append(i)

    for i in reversed(mat):
        note(i)

    def add_row(i, k, q):  # row_i += q * row_k
        row = mat[i]
        for j, x in mat[k].items():
            y = row.get(j, 0) + q * x
            if y:
                row[j] = y
                cols[j].add(i)
            else:
                row.pop(j, None)
                cols[j].discard(i)
        if row:
            note(i)
        else:
            del mat[i]

    def pick():  # the last noted of the shortest rows with a unit entry
        for n in sorted(units):
            rows_n = units[n]
            while rows_n:
                row = mat.get(rows_n[-1])
                if row is not None and len(row) == n:
                    at = [j for j, x in row.items() if x in (1, -1)]
                    if at:
                        return rows_n[-1], min(at, key=lambda j: (len(cols[j]), j))
                rows_n.pop()
            del units[n]
        return min((abs(x), len(row), i, j)
                   for i, row in mat.items() for j, x in row.items())[2:]

    pivots, invariants = [], []
    while mat:
        r, c = pick()
        while True:
            v = mat[r][c]
            for i in [i for i in cols[c] if i != r]:
                q = mat[i][c] // v
                if q:
                    add_row(i, r, -q)
            rest = [i for i in cols[c] if i != r]
            if rest:  # remainders below |v|: pivot on the least
                r = min(rest, key=lambda i: (abs(mat[i][c]), i))
                continue
            row = mat[r]
            for j in [j for j in row if j != c]:
                q = row[j] // v
                if not q:
                    continue
                if row[j] == q * v:
                    del row[j]
                    cols[j].discard(r)
                else:
                    row[j] -= q * v
                for k, x in R[c].items():
                    y = R[j].get(k, 0) - q * x
                    if y:
                        R[j][k] = y
                    else:
                        del R[j][k]
            rest = [j for j in row if j != c]
            if rest:
                c = min(rest, key=lambda j: (abs(row[j]), j))
                continue
            bad = None if v in (1, -1) else next(
                (i for i, other in mat.items()
                 if i != r and any(x % v for x in other.values())), None)
            if bad is None:
                break
            add_row(r, bad, 1)
        del mat[r]
        cols[c].discard(r)
        pivots.append(c)
        invariants.append(abs(v))
    free = sorted(set(range(ncols)) - set(pivots))
    order = pivots + free
    return (invariants + [0] * len(free),
            [[R[j].get(i, 0) for j in order] for i in range(ncols)])


# =========================================================================
# modular rank bound (numpy, exact certification)
# =========================================================================

def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _find_modulus(start: int = 999_983):
    """A prime p = 1 mod 3 near 2**20 together with a cube root of 1.

    Primes stay below 2**21 so that mod-p row operations in float64
    (products below 2**42, row sums below 2**53) are exact.
    """
    p = start
    while True:
        if p % 3 == 1 and _is_probable_prime(p):
            for g in range(2, 100):
                w = pow(g, (p - 1) // 3, p)
                if w != 1 and (w * w + w + 1) % p == 0:
                    return p, w
        p += 2


_MODULI_CACHE = []


def rank_moduli(count: int = 3):
    global _MODULI_CACHE
    while len(_MODULI_CACHE) < count:
        start = (_MODULI_CACHE[-1][0] + 2) if _MODULI_CACHE else 999_983
        _MODULI_CACHE.append(_find_modulus(start))
    return _MODULI_CACHE[:count]


class BadPrime(ArithmeticError):
    pass


def _row_mod(row: dict, ncols: int, p: int, w: int, inv_cache: dict):
    import numpy as np
    out = np.zeros(ncols, dtype=np.float64)
    for k, v in row.items():
        dinv = inv_cache.get(v.d)
        if dinv is None:
            if v.d % p == 0:
                raise BadPrime
            dinv = pow(v.d, -1, p)
            inv_cache[v.d] = dinv
        out[k] = (v.p + v.q * w) * dinv % p
    return out


def rank_mod_p(rows, ncols: int, limit: int | None = None) -> int:
    """Lower bound for the exact rank of sparse Scalar rows.

    Performs blocked Gauss elimination modulo a prime in exact float64
    integer arithmetic; the returned value never exceeds the true rank, so
    it certifies rank lower bounds exactly.  Stops early once `limit` is
    reached, if given.  `rows` may be a generator; it is read lazily and the
    rows read so far are kept, so a retry after a prime that divides a
    denominator replays them and then goes on reading the same generator.
    """
    seen: list = []
    rest = iter(rows)

    def replay():
        yield from seen
        for row in rest:
            seen.append(row)
            yield row

    for p, w in rank_moduli():
        try:
            return _rank_mod_single(replay(), ncols, p, w, limit)
        except BadPrime:
            continue
    raise RuntimeError("no suitable prime found")


def _rank_mod_single(rows, ncols, p, w, limit):
    import numpy as np
    cap = ncols if limit is None else min(limit, ncols)
    # a block row minus coeffs @ pivots sums at most cap products below
    # (p-1)**2; float64 holds every integer below 2**53 exactly
    if cap * (p - 1) ** 2 >= 2 ** 53:
        raise OverflowError("%d pivots mod %d overflow exact float64" % (cap, p))
    pivots = np.zeros((cap, ncols), dtype=np.float64)  # rref rows, unit pivot
    pivot_cols: list[int] = []
    inv_cache: dict = {}
    rows_iter = iter(rows)
    done = False
    while not done:
        block = []
        for row in rows_iter:
            block.append(_row_mod(row, ncols, p, w, inv_cache))
            if len(block) >= 256:
                break
        else:
            done = True
        if not block:
            break
        b = np.array(block, dtype=np.float64)
        k_old = len(pivot_cols)
        if k_old:
            coeffs = b[:, pivot_cols]
            if coeffs.any():
                b = (b - coeffs @ pivots[:k_old]) % p
        new_rows: list[int] = []
        block_rows: list[int] = []
        for r in range(b.shape[0]):
            nz = np.nonzero(b[r])[0]
            if nz.size == 0:
                continue
            c = int(nz[0])
            inv = pow(int(b[r, c]), -1, p)
            row = b[r] * inv % p
            b[r] = row
            col = b[:, c].copy()
            col[r] = 0
            touched = np.nonzero(col)[0]
            if touched.size:
                b[touched] = (b[touched] - np.outer(col[touched], row)) % p
            k = len(pivot_cols)
            pivot_cols.append(c)
            new_rows.append(k)
            block_rows.append(r)
            if limit is not None and len(pivot_cols) >= limit:
                return len(pivot_cols)
        # store the block's pivots only now: later pivots of the block
        # cleared their columns from the earlier ones in b
        pivots[new_rows] = b[block_rows]
        # re-reduce the old pivot rows against the block's pivots in one go
        if new_rows and k_old:
            newcols = [pivot_cols[i] for i in new_rows]
            coeffs = pivots[:k_old][:, newcols]
            if coeffs.any():
                pivots[:k_old] = (pivots[:k_old]
                                  - coeffs @ pivots[new_rows]) % p
    return len(pivot_cols)
