"""Structure-constant algebras over Q(w) and their identity checkers.

An algebra is a sparse tensor (i, j) -> sum_k c_k e_k together with an
optional polar form of a norm, a dict {(i, j): n(e_i, e_j)} keyed like the
products: zeros are dropped and both (i, j) and (j, i) are stored.  All
identity checks work by full multilinearization on basis tuples, which is
equivalent to the quadratic or cubic identities in characteristic zero.
The heavy scans (Jacobi, Jordan) run over denominator-cleared integer tables
instead of Scalar objects, as does rebase_blockwise, the change to the
eigenbasis of an order-3 monomial automorphism.  Each table is held once: an
Algebra keeps one of the caller's product dicts per distinct row, shared by
every product equal to it, and an integer table shares one tuple per
distinct entry and row.  Rows are read-only, and the passes over a whole
table (integer tables, text, the sign check) do their per-row work once per
distinct row.
"""

from __future__ import annotations

from math import comb, lcm

from .exact import (OMEGA, OMEGA2, ONE, ZERO, Scalar, format_scalar, parse_int,
                    parse_scalar, sc)
from .linalg import SparseEchelon, column_apply, sparse_kernel, vec_add_scaled
from .report import Report


class MixedAlgebras(ValueError):
    pass


class MissingForm(ValueError):
    pass


class IncompatibleInputs(ValueError):
    pass


def integer_table(products: dict):
    """(D, table, rational) with table[i][j] = ((m, p, q), ...) for D * c,
    where products[(i, j)][m] = c, D the lcm of the denominators; rational
    when every q is 0.  Built in one pass over the distinct row objects, with
    one tuple per distinct entry (m, p, q) and one per row object: the
    248-dimensional table has 44,064 products but 1,088 rows, and 49,440
    entries but 976 entry objects."""
    vecs = {id(vec): vec for vec in products.values()}
    D = lcm(*{c.d for vec in vecs.values() for c in vec.values()})
    entries: dict = {}
    rows: dict = {}  # id(vec) -> its tuple
    for key, vec in vecs.items():
        row = []
        for m, c in vec.items():
            f = D // c.d
            e = (m, c.p * f, c.q * f)
            row.append(entries.setdefault(e, e))
        rows[key] = tuple(row)
    table: dict = {}
    for (i, j), vec in products.items():
        ti = table.get(i)
        if ti is None:
            ti = table[i] = {}
        ti[j] = rows[id(vec)]
    return D, table, not any(q for _, _, q in entries)


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

    def element(self, coords) -> "Element":
        return Element(self, coords)

    def basis_element(self, i: int) -> "Element":
        coords = [ZERO] * self.dim
        coords[i] = ONE
        return Element(self, coords)

    def basis(self):
        return [self.basis_element(i) for i in range(self.dim)]

    def zero(self) -> "Element":
        return Element(self, [ZERO] * self.dim)

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


class Element:
    """Vector of exact coordinates in a fixed algebra."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: Algebra, coords):
        coords = tuple(sc(c) for c in coords)
        if len(coords) != algebra.dim:
            raise ValueError("coordinate length %d != dim %d"
                             % (len(coords), algebra.dim))
        self.algebra = algebra
        self.coords = coords

    def sparse(self) -> dict:
        return {i: c for i, c in enumerate(self.coords) if c.p or c.q}

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "Element":
        return Element(self.algebra, [-a for a in self.coords])

    def scale(self, c) -> "Element":
        c = sc(c)
        return Element(self.algebra, [c * a for a in self.coords])

    def __mul__(self, other: "Element") -> "Element":
        self._check(other)
        out = self.algebra.multiply_sparse(self.sparse(), other.sparse())
        coords = [ZERO] * self.algebra.dim
        for k, v in out.items():
            coords[k] = v
        return Element(self.algebra, coords)

    def _check(self, other: "Element"):
        if other.algebra is not self.algebra:
            raise MixedAlgebras("elements of different algebras")

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra is other.algebra and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coords):
            if c.is_zero():
                continue
            cs = format_scalar(c)
            terms.append("%s*%s" % (cs, self.algebra.label(i)))
        return " + ".join(terms) if terms else "0"


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


def _pair_mul(p1, q1, p2, q2):
    t = q1 * q2
    return p1 * p2 - t, p1 * q2 + q1 * p2 - t


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


def _jacobi_first_failure(T, rational, g, a, bs):
    """First b in bs with [g,[a,b]] + [a,[b,g]] + [b,[g,a]] != 0, or None."""
    empty: dict = {}
    tg, ta = T.get(g, empty), T.get(a, empty)
    ga = tg.get(a, ())
    for b in bs:
        tb = T.get(b, empty)
        if rational:
            acc: dict = {}
            for m, p1, _ in ta.get(b, ()):
                for r, p2, _ in tg.get(m, ()):
                    acc[r] = acc.get(r, 0) + p1 * p2
            for m, p1, _ in tb.get(g, ()):
                for r, p2, _ in ta.get(m, ()):
                    acc[r] = acc.get(r, 0) + p1 * p2
            for m, p1, _ in ga:
                for r, p2, _ in tb.get(m, ()):
                    acc[r] = acc.get(r, 0) + p1 * p2
            if any(acc.values()):
                return b
            continue
        accp, accq = {}, {}
        for m, p1, q1 in ta.get(b, ()):
            for r, p2, q2 in tg.get(m, ()):
                t = q1 * q2
                accp[r] = accp.get(r, 0) + p1 * p2 - t
                accq[r] = accq.get(r, 0) + p1 * q2 + q1 * p2 - t
        for m, p1, q1 in tb.get(g, ()):
            for r, p2, q2 in ta.get(m, ()):
                t = q1 * q2
                accp[r] = accp.get(r, 0) + p1 * p2 - t
                accq[r] = accq.get(r, 0) + p1 * q2 + q1 * p2 - t
        for m, p1, q1 in ga:
            for r, p2, q2 in tb.get(m, ()):
                t = q1 * q2
                accp[r] = accp.get(r, 0) + p1 * p2 - t
                accq[r] = accq.get(r, 0) + p1 * q2 + q1 * p2 - t
        if any(accp.values()) or any(accq.values()):
            return b
    return None


def _jacobi_with_ok(T, rational, g, rest) -> bool:
    """Jacobi on the triples (g, a, b) with a before b in rest."""
    return all(_jacobi_first_failure(T, rational, g, a, rest[n + 1:]) is None
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
    _, T, rational = L.int_table()
    gens = generating_set(L)
    if ad_closure_rank(L, gens) == d:
        seen = set()
        for g in gens:
            seen.add(g)
            if not _jacobi_with_ok(T, rational, g,
                                   [x for x in range(d) if x not in seen]):
                break
        else:
            return Report(name, True, {"dim": d, "generators": len(gens),
                                       "triples": comb(d, 3) - comb(d - len(gens), 3)})
    for i in range(d):
        for j in range(i + 1, d):
            k = _jacobi_first_failure(T, rational, i, j, range(j + 1, d))
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
    table, and the first nonzero column names the witness (i, j, k, l).
    """
    name = "jordan(%s)" % J.name
    d = J.dim
    bad = sign_failure(J, 1)
    if bad is not None:
        return Report(name, False, {"identity": "commutativity"}, witness=bad)
    _, T, _ = J.int_table()
    empty: dict = {}
    comms: dict = {}

    def comm(c, m):
        # [L_c, L_m] as (l*d + r, p, q): entry r of e_c(e_m e_l) - e_m(e_c e_l)
        op = comms.get((c, m))
        if op is None:
            acc: dict = {}
            for outer, inner, sign in ((c, m, 1), (m, c, -1)):
                to = T.get(outer, empty)
                for l, lst in T.get(inner, empty).items():
                    for w, p1, q1 in lst:
                        for r, p2, q2 in to.get(w, ()):
                            pp, qq = _pair_mul(sign * p1, sign * q1, p2, q2)
                            key = l * d + r
                            cur = acc.get(key)
                            acc[key] = (pp, qq) if cur is None else (cur[0] + pp, cur[1] + qq)
            op = tuple((key, p, q) for key, (p, q) in acc.items() if p or q)
            comms[(c, m)] = op
        return op

    for i in range(d):
        for j in range(i, d):
            for k in range(j, d):
                acc: dict = {}
                for a, b, c in ((i, j, k), (j, k, i), (i, k, j)):
                    for m, p1, q1 in T.get(a, empty).get(b, ()):
                        for key, p2, q2 in comm(c, m):
                            pp, qq = _pair_mul(p1, q1, p2, q2)
                            cur = acc.get(key)
                            acc[key] = (pp, qq) if cur is None else (cur[0] + pp, cur[1] + qq)
                bad = [key for key, (p, q) in acc.items() if p or q]
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


_W = ((1, 0), (0, 1), (-1, -1))  # w^0, w^1, w^2 as integer pairs


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
    are computed; the sign fills in the rest.  The results share one Scalar
    per numerator over 3 D, D the denominator of L's table.
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

    D, T, _ = integer_table(L.products)
    shared: dict = {}  # numerator pair -> its one Scalar over 3 D

    def scalar(p, q):
        c = shared.get((p, q))
        if c is None:
            c = shared[(p, q)] = Scalar(p, q, 3 * D)
        return c

    cols = [((k, 1, 0),) for k in range(d)]  # new vectors in old coordinates
    for c in cycles:
        for m in range(3):
            cols[c[m]] = tuple((c[r],) + _W[-r * m % 3] for r in range(3))
    groups = sorted([(k,) for k in range(d) if k not in place] + cycles, key=min)
    products = {}
    for g, B in enumerate(groups):
        TB = T.get(B[0], {})
        for C in groups[g:]:
            for v in C:
                z: dict = {}
                for b, wp, wq in cols[v]:
                    for k, p, q in TB.get(b, ()):
                        x, y = _pair_mul(p, q, wp, wq)
                        cur = z.get(k, (0, 0))
                        z[k] = (cur[0] + x, cur[1] + y)
                ev = exponents[v]
                if len(B) == 1:
                    rows = [(B[0], (exponents[B[0]] + ev) % 3, 1)]
                else:
                    rows = [(B[j], (j + ev) % 3, 3) for j in range(3)]
                # pi_mu(z) as numerators over 3 D; off the cycles, z is zero
                # at exponents not wanted, as theta is an automorphism
                split = {mu: {} for _, mu, _ in rows}
                for k, (p, q) in z.items():
                    at = place.get(k)
                    if at is None:
                        vec = split.get(exponents[k])
                        if vec is not None:
                            vec[k] = (3 * p, 3 * q)
                        continue
                    c, r = at
                    for mu, vec in split.items():
                        wp, wq = _W[r * mu % 3]
                        x, y = _pair_mul(p, q, wp, wq)
                        cur = vec.get(c[mu], (0, 0))
                        vec[c[mu]] = (cur[0] + x, cur[1] + y)
                for i, mu, f in rows:
                    cells = ((i, v, f),) if C is B else ((i, v, f), (v, i, sign * f))
                    for row, col, s in cells:
                        out = {k: scalar(s * p, s * q)
                               for k, (p, q) in split[mu].items() if p or q}
                        if out:
                            products[(row, col)] = out
    return Algebra(d, L.name, products, labels=None)


def subalgebra_generated(A: Algebra, gens):
    """Closure of the span of gens under multiplication; echelonized basis."""
    d = A.dim
    ech = SparseEchelon(d)
    for g in gens:
        v = g.sparse() if isinstance(g, Element) else dict(g)
        ech.insert(v)
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
    basis = []
    for lead in sorted(ech.pivot_rows):
        row = ech.pivot_rows[lead]
        coords = [ZERO] * d
        for k, c in row.items():
            coords[k] = c
        basis.append(Element(A, coords))
    return basis


def find_unity(A: Algebra):
    """The two-sided unity as an Element, or None.

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
    x = [ZERO] * d
    for lead, row in ech.pivot_rows.items():
        x[lead] = row.get(d, ZERO)
    e = Element(A, x)
    for i in range(d):
        b = A.basis_element(i)
        if e * b != b or b * e != b:
            return None
    return e


def left_columns(A: Algebra, x: Element):
    """The columns x e_j of left multiplication by x, one sparse dict per
    basis vector e_j; for x = e_i, the table's own rows, which callers only
    read.  On a Lie algebra these are the columns [x, e_j] of ad_x."""
    xs = x.sparse()
    if list(xs.values()) == [ONE]:
        (i,) = xs
        return [A.product(i, j) for j in range(A.dim)]
    return [A.multiply_sparse(xs, {j: ONE}) for j in range(A.dim)]
