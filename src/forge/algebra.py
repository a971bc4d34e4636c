"""Structure-constant algebras over Q(w) and their identity checkers.

An algebra is a sparse tensor (i, j) -> sum_k c_k e_k together with an
optional polar form of a norm, a dict {(i, j): n(e_i, e_j)} keyed like the
products: zeros are dropped and both (i, j) and (j, i) are stored.  A vector
is a dict {k: nonzero Scalar} with zeros dropped: e_i is {i: ONE}, 0 is {}
and x*y is multiply_sparse(x, y).  All identity checks work by full
multilinearization on basis tuples, which is equivalent to the quadratic or
cubic identities in characteristic zero.
The heavy scans (Jacobi, Jordan) run over denominator-cleared integer tables,
p + q*w held as one int (see integer_table), instead of Scalar objects, as
does rebase_blockwise, the change to the eigenbasis of an order-3 monomial
automorphism.  Each table is held once: an Algebra keeps one of the
caller's product dicts per distinct row, shared by every product equal to
it, and an integer table shares one tuple per distinct entry and row.  Rows
are read-only, and the passes over a whole table (integer tables, text, the
sign check) do their per-row work once per distinct row.
"""

from __future__ import annotations

from math import comb, lcm

from .exact import (OMEGA, OMEGA2, ONE, ZERO, Scalar, format_scalar, parse_int,
                    parse_scalar, sc)
from .linalg import SparseEchelon, column_apply, sparse_kernel, vec_add_scaled
from .report import Report


class MissingForm(ValueError):
    pass


class IncompatibleInputs(ValueError):
    pass


def integer_table(products: dict):
    """(D, table, B) with table[i][j] = ((m, n), ...) for D * c, where
    products[(i, j)][m] = c and D is the lcm of the denominators.

    D * c = p + q*w is held as the one int n = p + q*B, B = 2^k: the ring
    map Z[w] -> Z/P, w -> B, P = B^2 + B + 1, whose kernel is the ideal
    (B - w).  Its nonzero elements have norm at least N(B - w) = P, and a
    nonzero p + q*w with |p|, |q| < B/2 has norm p^2 - pq + q^2 < P.  So
    below that bound a sum of products of codes is 0 mod P exactly when it
    stands for 0, and decode(n, B) gives back (p, q); over Q, n = p.  With
    N distinct indices m and M = max(3, largest |p| or |q|), a product of
    two entries has |p|, |q| <= 3M^2, one of three <= 9M^3, and B >
    2 * 6N^2 * 9M^3 covers the largest sums a kernel forms (each kernel
    states its own): 6N^2 products of three entries.  One tuple per
    distinct entry (m, n) and one per row object: the 248-dimensional table
    has 44,064 products but 1,088 rows, and 49,440 entries but 976 entry
    objects."""
    vecs = {id(vec): vec for vec in products.values()}
    values = {id(c): c for vec in vecs.values() for c in vec.values()}
    D = lcm(*{c.d for c in values.values()})
    M = max([3, *(abs(x) * (D // c.d) for c in values.values() for x in (c.p, c.q))])
    N = len({m for vec in vecs.values() for m in vec})
    B = 1 << (108 * N * N * M ** 3).bit_length()
    codes = {key: (c.p + c.q * B) * (D // c.d) for key, c in values.items()}
    entries: dict = {}
    rows: dict = {}  # id(vec) -> its tuple
    for key, vec in vecs.items():
        row = []
        for m, c in vec.items():
            e = (m, codes[id(c)])
            row.append(entries.setdefault(e, e))
        rows[key] = tuple(row)
    table: dict = {}
    for (i, j), vec in products.items():
        ti = table.get(i)
        if ti is None:
            ti = table[i] = {}
        ti[j] = rows[id(vec)]
    return D, table, B


def decode(n: int, B: int):
    """(p, q) with p + q*B = n mod B^2 + B + 1 and |p|, |q| < B/2: the number
    p + q*w that the code n of integer_table stands for."""
    P = B * B + B + 1
    r = n % P
    if r > P // 2:
        r -= P
    q, p = divmod(r + B // 2, B)
    return p - B // 2, q


class Algebra:
    """Finite-dimensional algebra given by sparse structure constants.

    products[(i, j)] = {k: c} with every c a nonzero Scalar.  The table holds
    one Scalar object per distinct value (a 248-dimensional table has about
    50,000 constants but only a handful of values), which Scalars, being
    immutable values, allow, and one dict object per distinct row: equal
    products, with the same keys in the same order, share the first dict
    given (44,064 products, 1,088 rows).  Rows are read-only.  The
    constructor takes ownership of `products` and its inner dicts and keeps
    the outer dict: it puts the shared Scalar of each value in place,
    coercing ints, deletes zero entries and emptied products, so their
    values stay equal, and then puts the first equal row in place of each
    product; they belong to no other Algebra, and no caller mutates them
    afterwards.  polar, if given, is a dict {(i, j): n(e_i, e_j)}; the
    Algebra keeps a copy without its zeros.
    """

    def __init__(self, dim: int, name: str, products: dict, polar=None, labels=None):
        self.dim = dim
        self.name = name
        shared: dict = {}  # (p, q, d) -> the one Scalar of that value
        rows: dict = {}  # (*keys, *ids of their Scalars) -> the first such row
        done = set()  # ids of those rows: a row given again needs no pass
        zeros = []
        for ij, vec in products.items():
            if id(vec) in done:
                continue
            for k, c in vec.items():
                c = sc(c)
                if c.p or c.q:
                    vec[k] = shared.setdefault((c.p, c.q, c.d), c)
                else:
                    zeros.append(k)
            for k in zeros:
                del vec[k]
            zeros.clear()
            row = products[ij] = rows.setdefault((*vec, *map(id, vec.values())), vec)
            if row is vec:
                done.add(id(vec))
        for ij in [ij for ij, vec in products.items() if not vec]:
            del products[ij]
        self.products = products
        if polar is not None:
            polar = {ij: sc(v) for ij, v in polar.items()}
            polar = {ij: v for ij, v in polar.items() if v.p or v.q}
        self.polar = polar
        self.labels = list(labels) if labels else None
        self._cache: dict = {}

    # ---- basics ---------------------------------------------------------

    def product(self, i: int, j: int) -> dict:
        return self.products.get((i, j), {})

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else "e%d" % i

    def multiply_sparse(self, a: dict, b: dict) -> dict:
        out: dict = {}
        prod = self.products
        for i, ca in a.items():
            for j, cb in b.items():
                vec = prod.get((i, j))
                if vec:
                    vec_add_scaled(out, ca * cb, vec)
        return out

    def polar_pair_sparse(self, a: dict, b: dict) -> Scalar:
        if self.polar is None:
            raise MissingForm("algebra %s has no polar form" % self.name)
        pm = self.polar
        acc = ZERO
        for i, ca in a.items():
            for j, cb in b.items():
                v = pm.get((i, j))
                if v is not None:
                    acc = acc + ca * cb * v
        return acc

    def norm_sparse(self, a: dict) -> Scalar:
        return self.polar_pair_sparse(a, a) * Scalar(1, 0, 2)

    def polar_nondegenerate(self) -> bool:
        if self.polar is None:
            raise MissingForm("algebra %s has no polar form" % self.name)
        key = "polar_nondeg"
        if key not in self._cache:
            rows = [{} for _ in range(self.dim)]
            for (i, j), v in self.polar.items():
                rows[i][j] = v
            ech = SparseEchelon(self.dim)
            for row in rows:
                ech.insert(row)
            self._cache[key] = ech.rank == self.dim
        return self._cache[key]

    def __repr__(self):
        return "Algebra(%s, dim=%d)" % (self.name, self.dim)

    # ---- integer tables for hot scans ------------------------------------

    def int_table(self):
        """integer_table(self.products), built once per algebra."""
        key = "int_table"
        if key not in self._cache:
            self._cache[key] = integer_table(self.products)
        return self._cache[key]

    # ---- interchange format ----------------------------------------------

    def to_text(self) -> str:
        text: dict = {}  # (p, q, d) -> formatted value, each formatted once

        def fmt(v):
            key = (v.p, v.q, v.d)
            s = text.get(key)
            if s is None:
                s = text[key] = format_scalar(v)
            return s

        rows: dict = {}  # id(row) -> its terms, each row formatted once
        lines = ["dim %d over Q(w)" % self.dim]
        for (i, j) in sorted(self.products):
            vec = self.products[(i, j)]
            terms = rows.get(id(vec))
            if terms is None:
                terms = rows[id(vec)] = ",".join(
                    "%d:%s" % (k, fmt(vec[k])) for k in sorted(vec))
            lines.append("%d %d -> %s" % (i, j, terms))
        if self.polar is not None:
            for i, j in sorted(self.polar):
                if i <= j:
                    lines.append("polar %d %d %s" % (i, j, fmt(self.polar[(i, j)])))
        return "\n".join(lines) + "\n"


def algebra_from_text(text: str, name: str = "ingested") -> Algebra:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("dim "):
        raise ValueError("missing header line")
    head = lines[0].split()
    if len(head) < 4 or head[2] != "over" or head[3] != "Q(w)":
        raise ValueError("malformed header %r" % lines[0])
    dim = parse_int(head[1], lines[0], "header")
    if dim < 0:
        raise ValueError("negative dimension %d" % dim)

    def index(token, ln):
        k = parse_int(token, ln)
        if not 0 <= k < dim:
            raise ValueError("index %d outside 0..%d" % (k, dim - 1))
        return k

    values: dict = {}  # coefficient text -> Scalar, each text parsed once

    def scalar(token, ln):
        v = values.get(token)
        if v is None:
            try:
                v = values[token] = parse_scalar(token)
            except ValueError:
                raise ValueError("malformed line %r" % ln) from None
        return v

    rows: dict = {}  # right-hand side text -> its row, each text parsed once
    products: dict = {}
    polar: dict = {}
    for ln in lines[1:]:
        if ln.startswith("polar "):
            fields = ln.split(None, 3)
            if len(fields) != 4:
                raise ValueError("malformed line %r" % ln)
            _, i, j, val = fields
            i, j = sorted((index(i, ln), index(j, ln)))
            if (i, j) in polar:
                raise ValueError("second polar line for %d %d" % (i, j))
            polar[(i, j)] = polar[(j, i)] = scalar(val, ln)
        else:
            left, arrow, right = ln.partition("->")
            pair = left.split()
            vec = rows.get(right)
            if vec is None:
                terms = [t.split(":", 1) for t in right.split(",")]
                if min(map(len, terms)) != 2:
                    raise ValueError("malformed line %r" % ln)
            if not arrow or len(pair) != 2:
                raise ValueError("malformed line %r" % ln)
            i, j = index(pair[0], ln), index(pair[1], ln)
            if (i, j) in products:
                raise ValueError("second line for the product %d %d" % (i, j))
            if vec is None:
                vec = {}
                for k, val in terms:
                    k = index(k, ln)
                    if k in vec:
                        raise ValueError("second term %d in the product %d %d"
                                         % (k, i, j))
                    vec[k] = scalar(val, ln)
                rows[right] = vec
            products[(i, j)] = vec
    return Algebra(dim, name, products, polar=polar or None)


# =========================================================================
# identity checkers
# =========================================================================

def verify_composition(A: Algebra) -> Report:
    """Multiplicativity of the norm, fully linearized on basis 4-tuples."""
    if A.polar is None:
        raise MissingForm("composition check needs a polar form")
    name = "composition(%s)" % A.name
    if not A.polar_nondegenerate():
        return Report(name, False, {"reason": "degenerate polar form"},
                      witness="polar")
    d = A.dim
    P = [[A.product(i, j) for j in range(d)] for i in range(d)]
    N = A.polar
    for i in range(d):
        for j in range(d):
            pij = P[i][j]
            for k in range(d):
                nik = N.get((i, k), ZERO)
                for l in range(d):
                    lhs = A.polar_pair_sparse(pij, P[k][l]) \
                        + A.polar_pair_sparse(P[k][j], P[i][l])
                    if lhs != nik * N.get((j, l), ZERO):
                        return Report(name, False, witness=(i, j, k, l))
    return Report(name, True, {"dim": d})


def verify_symmetric(A: Algebra) -> Report:
    """Associativity of the polar form plus the linearized (x*y)*x = n(x)y."""
    if A.polar is None:
        raise MissingForm("symmetric-composition check needs a polar form")
    name = "symmetric(%s)" % A.name
    if not A.polar_nondegenerate():
        return Report(name, False, {"reason": "degenerate polar form"},
                      witness="polar")
    d = A.dim
    P = [[A.product(i, j) for j in range(d)] for i in range(d)]
    N = A.polar
    for i in range(d):
        for j in range(d):
            for k in range(d):
                if A.polar_pair_sparse(P[i][j], {k: ONE}) != \
                        A.polar_pair_sparse({i: ONE}, P[j][k]):
                    return Report(name, False,
                                  {"identity": "n(x*y,z)=n(x,y*z)"},
                                  witness=(i, j, k))
    for i in range(d):
        for j in range(d):
            for k in range(d):
                acc: dict = {}
                vec_add_scaled(acc, ONE, A.multiply_sparse(P[i][j], {k: ONE}))
                vec_add_scaled(acc, ONE, A.multiply_sparse(P[k][j], {i: ONE}))
                target = N.get((i, k), ZERO)
                ok = True
                for m, v in acc.items():
                    want = target if m == j else ZERO
                    if v != want:
                        ok = False
                        break
                if ok and j not in acc and not target.is_zero():
                    ok = False
                if not ok:
                    return Report(name, False,
                                  {"identity": "(x*y)*x=n(x)y linearized"},
                                  witness=(i, j, k))
    return Report(name, True, {"dim": d})


def sign_failure(A: Algebra, sign: int):
    """First pair (i, j), i <= j, with e_j e_i != sign * e_i e_j, or None.
    A pair of table rows is compared once, however many pairs share it."""
    P = A.products
    passed = set()  # (id(e_i e_j), id(e_j e_i)) of the row pairs that hold
    for i in range(A.dim):
        for j in range(i, A.dim):
            a, b = P.get((i, j)), P.get((j, i))
            if not a or not b:
                if a or b:
                    return i, j
                continue
            key = (id(a), id(b))
            if key in passed:
                continue
            if a.keys() != b.keys():
                return i, j
            for m, c in a.items():
                if (e := b[m]).p != sign * c.p or e.q != sign * c.q or e.d != c.d:
                    return i, j
            passed.add(key)
    return None


def _jacobi_first_failure(T, P, g, a, bs):
    """First b in bs with [g,[a,b]] + [a,[b,g]] + [b,[g,a]] != 0, or None.
    T is an integer table and P = B^2 + B + 1 for its B: each coordinate is
    a sum of at most 3N products of two entries, zero exactly when 0 mod P."""
    empty: dict = {}
    tg, ta = T.get(g, empty), T.get(a, empty)
    ga = tg.get(a, ())
    for b in bs:
        tb = T.get(b, empty)
        acc: dict = {}
        for m, n1 in ta.get(b, ()):
            for r, n2 in tg.get(m, ()):
                acc[r] = acc.get(r, 0) + n1 * n2
        for m, n1 in tb.get(g, ()):
            for r, n2 in ta.get(m, ()):
                acc[r] = acc.get(r, 0) + n1 * n2
        for m, n1 in ga:
            for r, n2 in tb.get(m, ()):
                acc[r] = acc.get(r, 0) + n1 * n2
        if any(acc.values()) and any(v % P for v in acc.values()):
            return b
    return None


def _jacobi_with_ok(T, P, g, rest) -> bool:
    """Jacobi on the triples (g, a, b) with a before b in rest."""
    return all(_jacobi_first_failure(T, P, g, a, rest[n + 1:]) is None
               for n, a in enumerate(rest))


class _AdClosure:
    """The smallest subspace V containing the generators e_g and closed under
    every ad_{e_g}, grown exactly over Q(w) as generators are added."""

    def __init__(self, L: Algebra):
        self.L = L
        self.ech = SparseEchelon(L.dim)
        self.gens: list = []
        self.vecs: list = []   # independent vectors spanning V
        self.done: list = []   # done[t]: vecs already hit by ad of gens[t]

    def add(self, g: int):
        self.gens.append(g)
        self.done.append(0)
        self._insert({g: ONE})
        self._extend()

    def _insert(self, vec: dict):
        if vec and self.ech.insert(vec):
            self.vecs.append(vec)

    def _extend(self):
        """Apply each ad_{e_g} to every vector it has not hit yet, until no
        such vector is left or V = L."""
        L, vecs, ech = self.L, self.vecs, self.ech
        grew = True
        while grew and ech.rank < L.dim:
            grew = False
            for t, g in enumerate(self.gens):
                while self.done[t] < len(vecs) and ech.rank < L.dim:
                    v = vecs[self.done[t]]
                    self.done[t] += 1
                    self._insert(L.multiply_sparse({g: ONE}, v))
                    grew = True


def ad_closure_rank(L: Algebra, gens) -> int:
    """Dimension of the smallest subspace that contains e_g for g in gens and
    is closed under ad_{e_g} for each of them (exact)."""
    closure = _AdClosure(L)
    for g in gens:
        closure.add(g)
    return closure.ech.rank


def generating_set(L: Algebra) -> tuple:
    """Sorted basis indices G whose ad-closure (see ad_closure_rank) is L.

    A greedy pass over the basis in reversed order adds each e_i not yet in
    the closure; a prune pass then drops each generator whose removal leaves
    the closure equal to L.  Both passes compute the closure exactly, so the
    result always generates L.  Cached on L.
    """
    key = "generating_set"
    if key not in L._cache:
        closure = _AdClosure(L)
        for i in reversed(range(L.dim)):
            if not closure.ech.contains({i: ONE}):
                closure.add(i)
        gens = closure.gens
        for g in list(gens):
            rest = [h for h in gens if h != g]
            if ad_closure_rank(L, rest) == L.dim:
                gens = rest
        L._cache[key] = tuple(sorted(gens))
    return L._cache[key]


def verify_lie(L: Algebra) -> Report:
    """Anticommutativity on all pairs; Jacobi from a generating set.

    Given anticommutativity, the Jacobi identity on the triples that contain
    e_g says exactly that ad_{e_g} is a derivation.  The x whose ad_x is a
    derivation form a subspace D closed under the bracket, because
    ad_{[x,y]} = [ad_x, ad_y] for x in D.  So if D contains each generator
    of G = generating_set(L), it contains their ad-closure, and an exact
    certificate that this closure is L proves Jacobi everywhere.  The scan
    covers the triples i < j < k that contain a generator, each once.  If
    the closure falls short or a triple fails, every triple is scanned, in
    order, and the first failing one is the witness.  Both scans go one row
    (g, a) at a time, looking up e_g, e_a and [e_g, e_a] once per row; the
    triples and their order are those of a triple-by-triple scan.
    """
    name = "lie(%s)" % L.name
    d = L.dim
    for i in range(d):
        if L.product(i, i):
            return Report(name, False, {"identity": "[x,x]=0"}, witness=(i, i))
    bad = sign_failure(L, -1)
    if bad is not None:
        return Report(name, False, {"identity": "[x,y]=-[y,x]"}, witness=bad)
    _, T, B = L.int_table()
    P = B * B + B + 1
    gens = generating_set(L)
    if ad_closure_rank(L, gens) == d:
        seen = set()
        for g in gens:
            seen.add(g)
            if not _jacobi_with_ok(T, P, g,
                                   [x for x in range(d) if x not in seen]):
                break
        else:
            return Report(name, True, {"dim": d, "generators": len(gens),
                                       "triples": comb(d, 3) - comb(d - len(gens), 3)})
    for i in range(d):
        for j in range(i + 1, d):
            k = _jacobi_first_failure(T, P, i, j, range(j + 1, d))
            if k is not None:
                return Report(name, False, {"identity": "jacobi"},
                              witness=(i, j, k))
    return Report(name, True, {"dim": d, "triples": comb(d, 3)})


def verify_jordan(J: Algebra) -> Report:
    """Commutativity on pairs; full linearization of the Jordan identity.

    Polarizing (x^2 o y) o x = x^2 o (y o x) gives, for every multiset
    {i, j, k} of x-slots and every y-slot l, a sum over the three cyclic
    substitutions; with commutativity it is column l of
    D_ijk = sum over (a, b, c) of [L_c, L_{e_a e_b}], L_x the left
    multiplication by x.  Each [L_c, L_m] is built once, on the integer
    table, and the first nonzero column names the witness (i, j, k, l).  A
    coordinate of [L_c, L_m] is a sum of 2N products of two entries, and
    one of D_ijk a sum of 6N^2 products of three.
    """
    name = "jordan(%s)" % J.name
    d = J.dim
    bad = sign_failure(J, 1)
    if bad is not None:
        return Report(name, False, {"identity": "commutativity"}, witness=bad)
    _, T, B = J.int_table()
    P = B * B + B + 1
    empty: dict = {}
    comms: dict = {}

    def comm(c, m):
        # [L_c, L_m] as (l*d + r, n): entry r of e_c(e_m e_l) - e_m(e_c e_l)
        op = comms.get((c, m))
        if op is None:
            acc: dict = {}
            for outer, inner, sign in ((c, m, 1), (m, c, -1)):
                to = T.get(outer, empty)
                for l, lst in T.get(inner, empty).items():
                    for w, n1 in lst:
                        n1 *= sign
                        for r, n2 in to.get(w, ()):
                            key = l * d + r
                            acc[key] = acc.get(key, 0) + n1 * n2
            op = comms[(c, m)] = tuple((key, n) for key, n in acc.items() if n)
        return op

    for i in range(d):
        for j in range(i, d):
            for k in range(j, d):
                acc: dict = {}
                for a, b, c in ((i, j, k), (j, k, i), (i, k, j)):
                    for m, n1 in T.get(a, empty).get(b, ()):
                        for key, n2 in comm(c, m):
                            acc[key] = acc.get(key, 0) + n1 * n2
                bad = [key for key, n in acc.items() if n % P]
                if bad:
                    return Report(name, False, {"identity": "jordan linearized"},
                                  witness=(i, j, k, min(bad) // d))
    return Report(name, True, {"dim": d})


# =========================================================================
# derived subspaces
# =========================================================================

def position_index(d: int, positions=None, offset: int = 0) -> dict:
    """Unknowns offset, offset + 1, ... for the matrix positions (r, c) given,
    by default all d*d of them in row-major order."""
    if positions is None:
        positions = [(r, c) for r in range(d) for c in range(d)]
    return {p: offset + k for k, p in enumerate(positions)}


def kernel_columns(vec: dict, index: dict, d: int):
    """The sparse columns of the d x d map holding vec[index[(r, c)]] at each
    indexed position: cols[c] = {r: entry (r, c)}."""
    cols = [{} for _ in range(d)]
    for (r, c), k in index.items():
        v = vec.get(k)
        if v is not None:
            cols[c][r] = v
    return cols


def _unknowns_by_column(index: dict, d: int):
    cols = [[] for _ in range(d)]
    for (r, c), k in index.items():
        cols[c].append((r, k))
    return cols


def leibniz_rows(A: Algebra, index0: dict, index1: dict = None, index2: dict = None):
    """Rows of the linear system d0(e_a e_b) = d1(e_a) e_b + e_a d2(e_b).

    Each index maps a matrix position (r, c) to an unknown; a position missing
    from an index is held at zero.  Without index1 and index2 all three maps
    share index0, and the kernel is Der(A).  Rows come lazily in (a, b, m)
    order, m the output coordinate.
    """
    d = A.dim
    P = [[A.product(i, j) for j in range(d)] for i in range(d)]
    out0 = [{} for _ in range(d)]
    for (r, c), k in index0.items():
        out0[r][c] = k
    in1 = _unknowns_by_column(index0 if index1 is None else index1, d)
    in2 = _unknowns_by_column(index0 if index2 is None else index2, d)
    for a in range(d):
        for b in range(d):
            pab = P[a][b]
            for m in range(d):
                row: dict = {}
                for l, c in pab.items():
                    k = out0[m].get(l)
                    if k is not None:
                        row[k] = row.get(k, ZERO) + c
                for r, k in in1[a]:
                    c = P[r][b].get(m)
                    if c is not None:
                        row[k] = row.get(k, ZERO) - c
                for r, k in in2[b]:
                    c = P[a][r].get(m)
                    if c is not None:
                        row[k] = row.get(k, ZERO) - c
                row = {k: v for k, v in row.items() if v.p or v.q}
                if row:
                    yield row


def skew_rows(A: Algebra, index: dict):
    """Rows of n(d(e_a), e_b) + n(e_a, d(e_b)) = 0 for a <= b, d over index."""
    d = A.dim
    N = A.polar
    cols = _unknowns_by_column(index, d)
    for a in range(d):
        for b in range(a, d):
            row: dict = {}
            for r, k in cols[a]:
                v = N.get((r, b))
                if v is not None:
                    row[k] = row.get(k, ZERO) + v
            for r, k in cols[b]:
                v = N.get((a, r))
                if v is not None:
                    row[k] = row.get(k, ZERO) + v
            row = {k: v for k, v in row.items() if v.p or v.q}
            if row:
                yield row


def derivation_algebra(A: Algebra):
    """Exact basis of {d : d(xy) = d(x)y + x d(y)}, each as sparse columns."""
    index = position_index(A.dim)
    kern = sparse_kernel(leibniz_rows(A, index), A.dim ** 2)
    return [kernel_columns(v, index, A.dim) for v in kern]


def orthogonal_algebra(A: Algebra):
    """Exact basis of the norm-skew maps o(A, n), each as sparse columns."""
    if A.polar is None:
        raise MissingForm("orthogonal algebra needs a polar form")
    index = position_index(A.dim)
    kern = sparse_kernel(skew_rows(A, index), A.dim ** 2)
    return [kernel_columns(v, index, A.dim) for v in kern]


def multiplicative_failure(A: Algebra, B: Algebra, cols, anticommutative=False):
    """First basis pair (i, j) with f(e_i e_j) != f(e_i) f(e_j), or None.

    f: A -> B is the linear map whose j-th column is the sparse dict cols[j].
    With anticommutative, only the pairs i < j are checked.
    """
    f = column_apply(cols)
    for i in range(A.dim):
        for j in range(i + 1 if anticommutative else 0, A.dim):
            if f(A.product(i, j)) != B.multiply_sparse(cols[i], cols[j]):
                return i, j
    return None


def rebase_blockwise(L: Algebra, cycles, exponents) -> Algebra:
    """L, under its own name, on the theta-eigenbasis of the index triples
    that theta cycles.

    theta e_{c_r} = e_{c_{r+1}} on each cycle (c0, c1, c2), and theta e_k =
    w^exponents[k] e_k off the cycles.  The new vector at c_j is
    u_j = sum_r w^{-rj} e_{c_r}, of exponent j; the others stay.
    Precondition, checked exactly: L is antisymmetric or symmetric and theta
    is an automorphism of L; else IncompatibleInputs names the failing pair.
    Then for theta v = lambda v,
        [u_j, v] = sum_r (w^j lambda)^{-r} theta^r [e_{c0}, v]
                 = 3 pi_{w^j lambda}([e_{c0}, v]),
    pi_mu the projection onto the mu-eigenspace: it keeps the coordinates of
    exponent mu off the cycles and, on each cycle, the u_m coordinate
    sum_r w^{rm} z_{c_r} / 3 of z with w^m = mu.  So one old product
    z = [e_{c0}, v] gives the three rows of a cycle.  Only the pairs whose
    row group (a cycle or one index) does not come after the column group
    are computed; the sign fills in the rest.  On integer_table's codes,
    each new numerator over 3 D is at most 3 times a sum of 9 products of
    an entry and a power of w: its p and q are at most 54 M, inside the
    table's bound.  The results share one Scalar per numerator.
    """
    d = L.dim
    if len(exponents) != d or any(e not in (0, 1, 2) for e in exponents):
        raise IncompatibleInputs("need a theta exponent 0, 1 or 2 per basis vector")
    cycles = [tuple(c) for c in cycles]
    place = {}  # index on a cycle -> (cycle, r)
    for c in cycles:
        for r, k in enumerate(c):
            if len(c) != 3 or k in place or not 0 <= k < d or exponents[k] != r:
                raise IncompatibleInputs("bad theta cycle %r" % (c,))
            place[k] = (c, r)
    anti = sign_failure(L, -1)
    sym = anti and sign_failure(L, 1)
    if sym:
        raise IncompatibleInputs("%s is neither antisymmetric, see %r, nor "
                                 "symmetric, see %r" % (L.name, anti, sym))
    sign = 1 if anti else -1
    theta = [{k: (ONE, OMEGA, OMEGA2)[e]} for k, e in enumerate(exponents)]
    for c in cycles:
        for r in range(3):
            theta[c[r]] = {c[(r + 1) % 3]: ONE}
    bad = multiplicative_failure(L, L, theta, anticommutative=sign == -1)
    if bad is not None:
        raise IncompatibleInputs("theta is not an automorphism of %s at "
                                 "(i, j) = %r" % (L.name, bad))

    D, T, B = integer_table(L.products)
    P = B * B + B + 1
    W = (1, B, -1 - B)  # the codes of w^0, w^1, w^2
    shared: dict = {}  # numerator code mod P -> its one Scalar over 3 D

    def scalar(n):
        key = n % P
        c = shared.get(key)
        if c is None:
            p, q = decode(n, B)
            c = shared[key] = Scalar(p, q, 3 * D)
        return c

    cols = [((k, 1),) for k in range(d)]  # new vectors in old coordinates
    for c in cycles:
        for m in range(3):
            cols[c[m]] = tuple((c[r], W[-r * m % 3]) for r in range(3))
    groups = sorted([(k,) for k in range(d) if k not in place] + cycles, key=min)
    products = {}
    for g, R in enumerate(groups):
        TR = T.get(R[0], {})
        for C in groups[g:]:
            for v in C:
                z: dict = {}
                for b, wn in cols[v]:
                    for k, n in TR.get(b, ()):
                        z[k] = z.get(k, 0) + n * wn
                ev = exponents[v]
                if len(R) == 1:
                    rows = [(R[0], (exponents[R[0]] + ev) % 3, 1)]
                else:
                    rows = [(R[j], (j + ev) % 3, 3) for j in range(3)]
                # pi_mu(z) as numerators over 3 D; off the cycles, z is zero
                # at exponents not wanted, as theta is an automorphism
                split = {mu: {} for _, mu, _ in rows}
                for k, n in z.items():
                    at = place.get(k)
                    if at is None:
                        vec = split.get(exponents[k])
                        if vec is not None:
                            vec[k] = 3 * n
                        continue
                    c, r = at
                    for mu, vec in split.items():
                        vec[c[mu]] = vec.get(c[mu], 0) + n * W[r * mu % 3]
                for i, mu, f in rows:
                    terms = [(k, n) for k, n in split[mu].items() if n % P]
                    if not terms:
                        continue
                    cells = ((i, v, f),) if C is R else ((i, v, f), (v, i, sign * f))
                    for row, col, s in cells:
                        products[(row, col)] = {k: scalar(s * n) for k, n in terms}
    return Algebra(d, L.name, products, labels=None)


def subalgebra_generated(A: Algebra, gens):
    """Closure of the span of the vectors gens under multiplication: the
    echelon's pivot rows, in leading-coordinate order."""
    ech = SparseEchelon(A.dim)
    for g in gens:
        ech.insert(g)
    while True:
        current = [dict(r) for r in ech.pivot_rows.values()]
        grew = False
        for u in current:
            for v in current:
                prod = A.multiply_sparse(u, v)
                if prod and ech.insert(prod):
                    grew = True
        if not grew:
            break
    return [ech.pivot_rows[lead] for lead in sorted(ech.pivot_rows)]


def find_unity(A: Algebra):
    """The two-sided unity as a vector, or None.

    The unknown e = sum_j x_j e_j solves e e_i = e_i = e_i e, one equation
    per coordinate m of either side; column d of the one echelon holds the
    right-hand side, so a pivot there means no solution.  The reduced
    echelon gives the solution with every free unknown 0.
    """
    d = A.dim
    rows = {(side, i, i): {d: ONE} for side in (0, 1) for i in range(d)}
    for (a, b), vec in A.products.items():
        for m, c in vec.items():
            rows.setdefault((0, b, m), {})[a] = c   # (e e_b)_m
            rows.setdefault((1, a, m), {})[b] = c   # (e_a e)_m
    ech = SparseEchelon(d + 1)
    for row in rows.values():
        ech.insert(row)
    if d in ech.pivot_rows:
        return None
    ech.back_substitute()
    rows = ech.pivot_rows
    e = {lead: rows[lead][d] for lead in sorted(rows) if d in rows[lead]}
    for i in range(d):
        b = {i: ONE}
        if A.multiply_sparse(e, b) != b or A.multiply_sparse(b, e) != b:
            return None
    return e


def left_columns(A: Algebra, x: dict):
    """The columns x e_j of left multiplication by the vector x, one sparse
    dict per basis vector e_j; for x = e_i, the table's own rows, which
    callers only read.  On a Lie algebra these are the columns [x, e_j] of
    ad_x."""
    if list(x.values()) == [ONE]:
        (i,) = x
        return [A.product(i, j) for j in range(A.dim)]
    return [A.multiply_sparse(x, {j: ONE}) for j in range(A.dim)]
