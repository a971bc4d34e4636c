"""Triality, the two-composition-algebra magic square, and Albert algebras.

Builds tri(S) for a symmetric composition algebra S, the Lie algebra
g(S, S') = (tri S + tri S') + iota_0(S x S') + iota_1 + iota_2 with its
bracket rules, the 27-dimensional Jordan algebra attached to S, and the
induced gradings on D4, F4, E6, E8 and the Albert algebra, together with
toral/Cartan and Jordan-grading certificates.

A triality triple (d0, d1, d2) of d x d maps is one sparse dict: entry
(r, c) of d_i sits at key i*d*d + r*d + c, and theta (d0, d1, d2) ->
(d2, d0, d1) is the key rotation k -> k + d*d mod 3*d*d.  Triples are
built, bracketed and solved for in that form.  Every other linear map here
(columns(i) of a triple, theta, D_i(a), the images of phi, ad_x) is a list
of sparse columns, cols[j] = {r: entry}, as linalg.column_apply takes it.
A vector (x, y, a, the elements of h) is a dict {k: nonzero Scalar}.

tri(S), Der(S) and o(S, n) are exact kernels of the rows that
algebra.leibniz_rows and algebra.skew_rows build.  Adjoint minimal
polynomials are exact: linalg.minimal_polynomial_op proves f(ad_x) e_j = 0
for each basis vector, checked or covered by a one-entry orbit vector of a
checked one.  A toral h is self-normalizing when the exact rank of
x -> ([h_1, x], ..., [h_k, x]) is dim L - dim h; its columns are the ad
columns the minimal polynomials use.  The
"no bigger than exhibited" half of the derivation-dimension equality is an
exact rank over Q(w) of the Leibniz rows, read only until it is reached.

Induced gradings follow one rule.  Gradings by G on S and G' on S' grade
g(S, S') by G x G' x Z2^2: tri(S) in degree (mu, 0, 0), tri(S') in
(0, mu', 0) and iota_i(a x b) in (deg a, deg b, PAIR_DEGREE[i]).  Through
theta they grade it by G x G' x Z3 on the theta-eigenbasis, the last
coordinate being the theta exponent.  graded_side gives each side as (grading,
tri degrees, TriContext), on the flat (degrees, basis) of graded_tri_basis;
graded_magic and graded_albert apply the rule to g(S, S') and to k^3 + iota_i(S),
and both return (construction, grading).  INDUCED names every induced grading
by its two sides, and induced(name) builds one; a new induced grading is one
row of that table.

The Z3-graded algebras (Albert, f4, e6, e8 from Okubo algebras) are built on
the iota basis and moved to the theta-eigenbasis by algebra.rebase_blockwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import compose
from .algebra import (Algebra, IncompatibleInputs, generating_set,
                      integer_table, kernel_columns, leibniz_rows,
                      left_columns, multiplicative_failure, position_index,
                      rebase_blockwise, skew_rows, verify_lie, verify_symmetric)
from .exact import MINUS_ONE, ONE, OMEGA, OMEGA2, ZERO, HALF, Polynomial, sc
from .grading import (AbelianGroup, Grading, GroupHom, cayley_grading, coarsen,
                      okubo_grading, verify_grading)
from .linalg import (DependentVectors, SpanCoords, SparseEchelon, column_apply,
                     eigenspace, minimal_polynomial_op, sparse_kernel,
                     vec_add_scaled)
# not called here; perfbench's tests patch the name magic.rank_mod_p
from .linalg import rank_mod_p  # noqa: F401
from .report import Report


class NotSymmetricComposition(ValueError):
    pass


class BadDimensions(ValueError):
    pass


# =========================================================================
# triality algebra
# =========================================================================

@dataclass(frozen=True)
class TriElement:
    """Triple (d0, d1, d2) of d x d maps with d0(x*y) = d1(x)*y + x*d2(y).

    `entries` holds the nonzero entries only: entry (r, c) of d_i sits at key
    i*d*d + r*d + c.  theta (d0, d1, d2) -> (d2, d0, d1) is the key rotation
    k -> k + d*d mod 3*d*d.
    """

    d: int
    entries: dict

    def columns(self, i: int):
        """d_i as sparse columns: cols[c] = {r: entry (r, c)}."""
        d = self.d
        cols = [{} for _ in range(d)]
        for k, v in self.entries.items():
            if k // (d * d) == i:
                cols[k % d][k // d % d] = v
        return cols

    def theta(self, power: int = 1) -> "TriElement":
        dd = self.d * self.d
        shift = power % 3 * dd
        return TriElement(self.d, {(k + shift) % (3 * dd): v
                                   for k, v in self.entries.items()})

    def commutator(self, other: "TriElement") -> "TriElement":
        """Componentwise [d_i, d'_i], multiplying nonzero entries only."""
        d = self.d
        out: dict = {}
        for left, right, sign in ((self, other, ONE), (other, self, MINUS_ONE)):
            rows: dict = {}  # (i*d + r) -> [(c, entry (r, c) of right d_i)]
            for k, v in right.entries.items():
                rows.setdefault(k // d, []).append((k % d, v))
            for k, v in left.entries.items():
                r, m = divmod(k, d)
                v = sign * v
                for c, w in rows.get(r - r % d + m, ()):
                    key = r * d + c
                    out[key] = out.get(key, ZERO) + v * w
        return TriElement(d, {k: v for k, v in out.items() if v.p or v.q})


def _triality_kernel(S: Algebra, positions):
    """Kernel of the skewness and triality constraints, with all three
    components supported on the same matrix positions."""
    d = S.dim
    n = len(positions)
    index = [position_index(d, positions, i * n) for i in range(3)]
    rows = [row for ix in index for row in skew_rows(S, ix)]
    rows.extend(leibniz_rows(S, *index))
    return [TriElement(d, {i * d * d + r * d + c: v[k]
                           for i, ix in enumerate(index)
                           for (r, c), k in ix.items() if k in v})
            for v in sparse_kernel(rows, 3 * n)]


def tri(S: Algebra):
    """Basis of the triality Lie algebra of a symmetric composition algebra."""
    if S.polar is None or not verify_symmetric(S).passed:
        raise NotSymmetricComposition("tri needs a symmetric composition algebra")
    d = S.dim
    return _triality_kernel(S, [(r, c) for r in range(d) for c in range(d)])


def t_xy(S: Algebra, x: dict, y: dict) -> TriElement:
    """The local-triality triple attached to a pair of vectors:
    (sigma_{x,y}, n(x,y)/2 - r_x l_y, n(x,y)/2 - l_x r_y)."""
    d = S.dim
    half_n = S.polar_pair_sparse(x, y) * HALF
    entries = {}
    for j in range(d):
        ej = {j: ONE}
        yx = S.multiply_sparse(S.multiply_sparse(y, ej), x)   # (y e_j) x
        xy = S.multiply_sparse(x, S.multiply_sparse(ej, y))   # x (e_j y)
        cols = ({}, {j: half_n}, {j: half_n})
        # sigma_{x,y}(e_j) = n(x, e_j) y - n(y, e_j) x
        vec_add_scaled(cols[0], S.polar_pair_sparse(x, ej), y)
        vec_add_scaled(cols[0], -S.polar_pair_sparse(y, ej), x)
        vec_add_scaled(cols[1], MINUS_ONE, yx)
        vec_add_scaled(cols[2], MINUS_ONE, xy)
        for i, col in enumerate(cols):
            for r, v in col.items():
                if v.p or v.q:
                    entries[i * d * d + r * d + j] = v
    return TriElement(d, entries)


class TriContext:
    """A triality algebra with a fixed (possibly graded) basis and a solver
    expressing arbitrary triples in that basis."""

    def __init__(self, S: Algebra, basis=None):
        self.S = S
        self.basis = basis if basis is not None else tri(S)
        self.n = len(self.basis)
        self.flat_dim = 3 * S.dim * S.dim
        try:
            self.span = SpanCoords([t.entries for t in self.basis], self.flat_dim)
        except DependentVectors:
            raise IncompatibleInputs("supplied tri basis is dependent")

    def coords(self, t: TriElement) -> dict:
        """Exact coordinates {i: nonzero c} of a triple in the basis;
        verifies membership."""
        coords = self.span.coords(t.entries)
        if coords is None:
            raise IncompatibleInputs("triple outside the triality algebra")
        return coords

    def theta_columns(self):
        """theta on the basis: column j holds the coordinates of theta(t_j)."""
        return [self.coords(t.theta()) for t in self.basis]


def tri_spans_by_pairs(ctx: TriContext) -> bool:
    """Does { t_{x,y} : x, y basis } span tri(S)?"""
    ech = SparseEchelon(ctx.flat_dim)
    d = ctx.S.dim
    for a in range(d):
        for b in range(a + 1, d):
            t = t_xy(ctx.S, {a: ONE}, {b: ONE})
            ech.insert(t.entries)
    return ech.rank == ctx.n


def _bracket_breaks(d, rows, scaled, polar, P, a, b, x, y):
    """Does the quadruple (a, b, x, y) break the local triality relation?
    The tables are those of triality_bracket_failures; each coordinate is a
    sum of at most 2N + 4 products of two entries, zero exactly when 0 mod P."""
    acc: dict = {}
    for ta, tb, sign in ((rows[(a, b)], rows[(x, y)], 1),
                         (rows[(x, y)], rows[(a, b)], -1)):
        for r, row in ta.items():
            for k, n1 in row:
                n1 *= sign
                for c, n2 in tb.get(r - r % d + k, ()):
                    m = r * d + c
                    acc[m] = acc.get(m, 0) + n1 * n2
    for (u, v), (g, h), sign in (((a, x), (b, y), 1), ((b, x), (a, y), -1),
                                 ((a, y), (x, b), 1), ((b, y), (x, a), -1)):
        n1 = polar.get((u, v))
        if n1 is None:
            continue
        n1 *= sign
        for m, n2 in scaled[g][h]:
            acc[m] = acc.get(m, 0) - n1 * n2
    return any(n % P for n in acc.values())


def triality_bracket_failures(S: Algebra):
    """Basis quadruples (a, b, x, y) breaking the local triality relation
    [t_{a,b}, t_{x,y}] = t_{sigma(x),y} + t_{x,sigma(y)}, sigma = sigma_{a,b}.

    Both sides are linear in each of a, b, x and y, so an empty result proves
    the relation for all elements.  As sigma_{a,b}(z) = n(a,z)b - n(b,z)a and
    t is bilinear, the right side is n(a,x)t_{b,y} - n(b,x)t_{a,y}
    + n(a,y)t_{x,b} - n(b,y)t_{x,a}.  One integer_table of the 64 triples
    (keys (a, b)) and polar rows (keys ("polar", i)) clears one denominator,
    scaling both sides by its square: all sums are on the table's int codes.

    If the scaled table has t_{b,a} = -t_{a,b} on all 64 pairs and the
    scaled polar form is symmetric, then F = left side - right side has
    F(b,a,x,y) = F(a,b,y,x) = F(x,y,a,b) = -F(a,b,x,y): each swap negates
    the bracket, and the two symmetries turn the four polar terms into the
    negated four.  Both checks compare codes, which is exact, as distinct
    entries have distinct codes.  So F vanishes where a = b, x = y or
    (a,b) = (x,y), and everywhere once it vanishes on the 378 quadruples
    with a < b, x < y and (a,b) < (x,y).  If a check or one of them fails,
    all 4096 are scanned in order.
    """
    d = S.dim
    table = {(a, b): t_xy(S, {a: ONE}, {b: ONE}).entries
             for a in range(d) for b in range(d)}
    for (i, j), v in S.polar.items():
        table.setdefault(("polar", i), {})[j] = v
    _, scaled, B = integer_table(table)
    P = B * B + B + 1
    polar = {(i, j): n for i, row in scaled.pop("polar", {}).items()
             for j, n in row}
    # per triple, entry (r, c) of d_i as (c, n) in row i*d + r
    rows = {}
    for a, sub in scaled.items():
        for b, entries in sub.items():
            rows[(a, b)] = by_row = {}
            for k, n in entries:
                by_row.setdefault(k // d, []).append((k % d, n))

    def failures(quads):
        return [q for q in quads if _bracket_breaks(d, rows, scaled, polar, P, *q)]

    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    if (all({k: -n for k, n in scaled[a][b]} == dict(scaled[b][a])
            for a in range(d) for b in range(d))
            and all(polar.get((j, i)) == n for (i, j), n in polar.items())
            and not failures(pairs[i] + xy for i in range(len(pairs))
                             for xy in pairs[i + 1:])):
        return []
    r = range(d)
    return failures((a, b, x, y) for a in r for b in r for x in r for y in r)


# =========================================================================
# the magic square Lie algebra
# =========================================================================

PAIR_DEGREE = ((1, 0), (0, 1), (1, 1))  # Z2 x Z2 degree of iota_i


@dataclass
class MagicAlgebra:
    """g(S, S') on the basis tri(S) + tri(S') + iota_i(basis x basis)."""

    lie: Algebra
    S: Algebra
    Sp: Algebra
    tri_s: TriContext
    tri_sp: TriContext
    z22: Grading = field(default=None)

    @property
    def nt(self):
        return self.tri_s.n

    @property
    def ntp(self):
        return self.tri_sp.n

    def iota_index(self, i: int, a: int, b: int) -> int:
        return self.nt + self.ntp + i * self.S.dim * self.Sp.dim \
            + a * self.Sp.dim + b


def magic_g(S: Algebra, Sp: Algebra, tri_s: TriContext = None,
            tri_sp: TriContext = None, name: str = None) -> MagicAlgebra:
    """Construct g(S, S') from two symmetric composition algebras."""
    for A in (S, Sp):
        if A.dim not in (1, 2, 4, 8):
            raise BadDimensions("composition algebras have dimension 1, 2, 4, 8")
        if not verify_symmetric(A).passed:
            raise NotSymmetricComposition(
                "%s is not a symmetric composition algebra" % A.name)
    ctx = tri_s or TriContext(S)
    ctxp = tri_sp or TriContext(Sp)
    d, dp = S.dim, Sp.dim
    nt, ntp = ctx.n, ctxp.n
    total = nt + ntp + 3 * d * dp
    if name is None:
        name = "g(%s,%s)" % (S.name, Sp.name)

    def iota(i, a, b):
        return nt + ntp + i * d * dp + a * dp + b

    products: dict = {}

    def put(i, j, vec):
        if vec:
            products[(i, j)] = dict(vec)
            products[(j, i)] = {k: -v for k, v in vec.items()}

    # When both sides are one algebra with one TriContext, the tri(S) work
    # below (internal brackets, t_xy coordinate tables) is done once.
    same = ctxp is ctx and Sp is S

    def brackets(c):
        basis = c.basis
        return [(r, s, c.coords(basis[r].commutator(basis[s])))
                for r in range(len(basis)) for s in range(r + 1, len(basis))]

    # tri(S) and tri(S') internal brackets (componentwise commutators)
    tbrackets = brackets(ctx)
    tpbrackets = tbrackets if same else brackets(ctxp)
    for off, brs in ((0, tbrackets), (nt, tpbrackets)):
        for r, s, coords in brs:
            put(off + r, off + s, {off + k: v for k, v in coords.items()})

    # tri(S) acts on the S factor of each iota copy, tri(S') on the S' factor.
    # In iota(i, a, b) = iota(i, 0, 0) + a*dp + b the S index steps by dp and
    # the S' index by 1.  The sides go by position here: nt == 0 when S = k.
    for off, c, step, n_other, step_other in ((0, ctx, dp, dp, 1),
                                              (nt, ctxp, 1, d, dp)):
        n = c.S.dim
        for r, t in enumerate(c.basis):
            for key, v in t.entries.items():
                i, rc = divmod(key, n * n)
                row, col = divmod(rc, n)   # d_i(e_col) has e_row coefficient v
                for b in range(n_other):
                    base = iota(i, 0, 0) + b * step_other
                    src, dst = base + col * step, base + row * step
                    products.setdefault((off + r, src), {})[dst] = v
                    products.setdefault((src, off + r), {})[dst] = -v

    # iota_i x iota_{i+1} -> iota_{i+2}
    for i in range(3):
        j = (i + 1) % 3
        k = (i + 2) % 3
        for a in range(d):
            for cdx in range(d):
                pac = S.product(a, cdx)
                if not pac:
                    continue
                for b in range(dp):
                    for e in range(dp):
                        pbe = Sp.product(b, e)
                        if not pbe:
                            continue
                        vec = {}
                        for m1, c1 in pac.items():
                            for m2, c2 in pbe.items():
                                key = iota(k, m1, m2)
                                vec[key] = vec.get(key, ZERO) + c1 * c2
                        vec = {kk: v for kk, v in vec.items() if v.p or v.q}
                        put(iota(i, a, b), iota(j, cdx, e), vec)

    # iota_i x iota_i -> tri(S) + tri(S'): coordinates of theta^i t_{x,y}
    def coord_table(A, c):
        n = A.dim
        tab = [[[None] * n for _ in range(n)] for _ in range(3)]
        for a in range(n):
            for b in range(n):
                t = t_xy(A, {a: ONE}, {b: ONE})
                for i in range(3):
                    tab[i][a][b] = c.coords(t.theta(i))
        return tab

    tcoords = coord_table(S, ctx)
    tpcoords = tcoords if same else coord_table(Sp, ctxp)
    pm, pmp = S.polar, Sp.polar
    for i in range(3):
        for a in range(d):
            for b in range(dp):
                ia = iota(i, a, b)
                for c in range(d):
                    for e in range(dp):
                        ic = iota(i, c, e)
                        if ic <= ia:
                            continue
                        vec = {}
                        nbe = pmp.get((b, e))
                        if nbe is not None:
                            for kk, v in tcoords[i][a][c].items():
                                vec[kk] = vec.get(kk, ZERO) + nbe * v
                        nac = pm.get((a, c))
                        if nac is not None:
                            for kk, v in tpcoords[i][b][e].items():
                                key = nt + kk
                                vec[key] = vec.get(key, ZERO) + nac * v
                        vec = {kk: v for kk, v in vec.items() if v.p or v.q}
                        put(ia, ic, vec)

    lie = Algebra(total, name, products)
    labels = []
    for r in range(nt):
        labels.append("tS%d" % r)
    for r in range(ntp):
        labels.append("tS'%d" % r)
    for i in range(3):
        for a in range(d):
            for b in range(dp):
                labels.append("i%d(%s,%s)" % (i, S.label(a), Sp.label(b)))
    lie.labels = labels
    mag = MagicAlgebra(lie, S, Sp, ctx, ctxp)
    z22 = AbelianGroup(0, (2, 2))
    degrees = [(0, 0)] * (nt + ntp)
    for i in range(3):
        degrees.extend([PAIR_DEGREE[i]] * (d * dp))
    mag.z22 = Grading(lie, z22, tuple(degrees), name="z2^2")
    return mag


def theta_columns(mag: MagicAlgebra):
    """The order-3 automorphism of g(S,S'): theta on the tri parts, and
    iota_i -> iota_{i+1} on the tensor parts."""
    cols = [{off + r: c for r, c in col.items()}
            for off, ctx in ((0, mag.tri_s), (mag.nt, mag.tri_sp))
            for col in ctx.theta_columns()]
    d, dp = mag.S.dim, mag.Sp.dim
    cols += [{mag.iota_index((i + 1) % 3, a, b): ONE}
             for i in range(3) for a in range(d) for b in range(dp)]
    return cols


def is_lie_automorphism(L: Algebra, cols) -> Report:
    """[m(x), m(y)] = m([x, y]) on all basis pairs, m given by its columns."""
    bad = multiplicative_failure(L, L, cols, anticommutative=True)
    if bad is not None:
        return Report("automorphism(%s)" % L.name, False, witness=bad)
    return Report("automorphism(%s)" % L.name, True)


def theta_eigenspace_dims(mag: MagicAlgebra):
    """Dimensions of the eigenspaces of the order-3 automorphism for 1, w, w^2."""
    cols = theta_columns(mag)
    return tuple(len(eigenspace(cols, ev)) for ev in (ONE, OMEGA, OMEGA2))


# =========================================================================
# Albert algebras
# =========================================================================

@dataclass
class AlbertAlgebra:
    """k^3 + iota_0(S) + iota_1(S) + iota_2(S) with the Jordan product."""

    jordan: Algebra
    S: Algebra

    def iota_index(self, i: int, a: int) -> int:
        return 3 + i * self.S.dim + a

    def diag_index(self, i: int) -> int:
        return i


def albert(S: Algebra) -> AlbertAlgebra:
    if not verify_symmetric(S).passed:
        raise NotSymmetricComposition(
            "%s is not a symmetric composition algebra" % S.name)
    d = S.dim
    total = 3 + 3 * d

    def idx(i, a):
        return 3 + i * d + a

    products: dict = {}

    def add_to(i, j, vec):
        if not vec:
            return
        cur = products.setdefault((i, j), {})
        for k, v in vec.items():
            cur[k] = cur.get(k, ZERO) + v
        if i != j:
            cur2 = products.setdefault((j, i), {})
            for k, v in vec.items():
                cur2[k] = cur2.get(k, ZERO) + v

    for i in range(3):
        add_to(i, i, {i: ONE})
    for i in range(3):
        for j in range(3):
            if j != i:
                for a in range(d):
                    add_to(j, idx(i, a), {idx(i, a): HALF})
    pm = S.polar
    for i in range(3):
        for a in range(d):
            for b in range(d):
                vec = {idx((i + 2) % 3, k): v
                       for k, v in S.product(a, b).items()}
                add_to(idx(i, a), idx((i + 1) % 3, b), vec)
            for b in range(a, d):
                nab = pm.get((a, b))
                if nab is not None:
                    n2 = sc(2) * nab
                    add_to(idx(i, a), idx(i, b),
                           {(i + 1) % 3: n2, (i + 2) % 3: n2})
    labels = ["E0", "E1", "E2"]
    for i in range(3):
        for a in range(d):
            labels.append("i%d(%s)" % (i, S.label(a)))
    jordan = Algebra(total, "albert(%s)" % S.name, products, labels=labels)
    return AlbertAlgebra(jordan, S)


def d_i_derivation(A: AlbertAlgebra, i: int, a: dict):
    """D_i(a) = [L_{2 iota_i(a)}, L_{e_{i+1}}] on the Jordan algebra, as
    sparse columns."""
    J = A.jordan
    x = {A.iota_index(i, k): sc(2) * c for k, c in a.items()}
    return _commutator_cols(left_columns(J, x),
                            left_columns(J, {(i + 1) % 3: ONE}))


def check_d_i_rules(A: AlbertAlgebra, i: int, a: dict) -> Report:
    """The six action rules for D_i(a), checked on the whole basis."""
    S = A.S
    D = d_i_derivation(A, i, a)
    name = "d_i_rules(%s,i=%d)" % (S.name, i)

    def emb(i2, vec: dict, c=ONE):
        return {A.iota_index(i2, k): c * v for k, v in vec.items()}

    if D[A.diag_index(i)]:
        return Report(name, False, witness="e_i")
    if D[A.diag_index((i + 1) % 3)] != emb(i, a, HALF):
        return Report(name, False, witness="e_{i+1}")
    if D[A.diag_index((i + 2) % 3)] != emb(i, a, -HALF):
        return Report(name, False, witness="e_{i+2}")
    m = S.multiply_sparse
    for bidx in range(S.dim):
        b = {bidx: ONE}
        if D[A.iota_index((i + 1) % 3, bidx)] != emb((i + 2) % 3, m(a, b), MINUS_ONE):
            return Report(name, False, witness=("iota_{i+1}", bidx))
        if D[A.iota_index((i + 2) % 3, bidx)] != emb((i + 1) % 3, m(b, a)):
            return Report(name, False, witness=("iota_{i+2}", bidx))
        n2 = sc(2) * S.polar_pair_sparse(a, b)
        expected = {A.diag_index((i + 1) % 3): -n2,
                    A.diag_index((i + 2) % 3): n2} if n2.p or n2.q else {}
        if D[A.iota_index(i, bidx)] != expected:
            return Report(name, False, witness=("iota_i", bidx))
    return Report(name, True)


def is_derivation(L: Algebra, cols) -> bool:
    """Leibniz rule on all basis pairs, the map given by its columns."""
    d = L.dim
    apply_m = column_apply(cols)
    for i in range(d):
        for j in range(d):
            lhs = apply_m(L.product(i, j))
            rhs = L.multiply_sparse(cols[i], {j: ONE})
            vec_add_scaled(rhs, ONE, L.multiply_sparse({i: ONE}, cols[j]))
            if lhs != rhs:
                return False
    return True


def phi_isomorphism(S: Algebra, mag: MagicAlgebra = None,
                    A: AlbertAlgebra = None) -> Report:
    """Certify that g(k, S) maps isomorphically onto Der of the Jordan algebra.

    The map sends a triality triple to the derivation fixing the diagonal and
    acting componentwise on the iota parts, and iota_i(1 x a) to D_i(a).
    Certification: every image is a derivation and the images are independent
    (exact); the derivation space is no larger than their span (an exact
    echelon of the lazy Leibniz rows that stops at rank nj^2 - dim g, 677 for
    the 27-dimensional J); the map is a Lie homomorphism on all basis pairs
    (exact), proved from the pairs that contain a generator of g once g is
    certified Lie.
    """
    if mag is None:
        mag = magic_g(compose.s1(), S)
    if A is None:
        A = albert(S)
    J = A.jordan
    nj = J.dim
    g = mag.lie
    if mag.S.dim != 1 or mag.Sp is not S:
        raise IncompatibleInputs("phi needs g(k, S) for the same S")
    images = []
    for r in range(g.dim):
        images.append(_phi_image(mag, A, r))
    name = "phi(%s)" % S.name
    for r, cols in enumerate(images):
        if not is_derivation(J, cols):
            return Report(name, False, {"stage": "image is a derivation"},
                          witness=r)
    ech = SparseEchelon(nj * nj)
    for cols in images:
        ech.insert(_flat(cols))
    if ech.rank != g.dim:
        return Report(name, False, {"stage": "images independent"},
                      witness=ech.rank)
    # rank nj^2 - dim g of the Leibniz rows bounds dim Der(J) <= dim g; if
    # the rows run out first, the echelon holds their full rank
    needed = nj * nj - g.dim
    ech = SparseEchelon(nj * nj)
    for row in leibniz_rows(J, position_index(nj)):
        if ech.insert(row) and ech.rank == needed:
            break
    if ech.rank < needed:
        return Report(name, False, {"stage": "derivation dimension"},
                      witness=nj * nj - ech.rank)
    pairs = [(i, j) for i in range(g.dim) for j in range(i + 1, g.dim)]
    # For g Lie, the x with phi[x, y] = [phi x, phi y] for all y form a
    # subalgebra, so the pairs that contain a generator of g suffice.
    if verify_lie(g).passed:
        gens = set(generating_set(g))
        if _hom_failure(g, images, [p for p in pairs
                                    if p[0] in gens or p[1] in gens]) is None:
            return Report(name, True, {"dim": g.dim})
    bad = _hom_failure(g, images, pairs)
    if bad is not None:
        return Report(name, False, {"stage": "lie homomorphism"}, witness=bad)
    return Report(name, True, {"dim": g.dim})


def _hom_failure(g: Algebra, img_cols, pairs):
    """First pair (i, j) with phi[e_i, e_j] != [phi e_i, phi e_j], or None;
    phi e_k is the matrix with sparse columns img_cols[k]."""
    for i, j in pairs:
        rhs = _commutator_cols(img_cols[i], img_cols[j])
        lhs = [dict() for _ in rhs]
        for k, c in g.product(i, j).items():
            for col_out, col_in in zip(lhs, img_cols[k]):
                vec_add_scaled(col_out, c, col_in)
        if lhs != rhs:
            return i, j
    return None


def _commutator_cols(a, b):
    """The columns of [a, b] = ab - ba, a and b given by their columns."""
    apply_a, apply_b = column_apply(a), column_apply(b)
    out = []
    for ca, cb in zip(a, b):
        col = apply_a(cb)
        vec_add_scaled(col, MINUS_ONE, apply_b(ca))
        out.append(col)
    return out


def _flat(cols) -> dict:
    """The entries of a square map as one sparse vector, (r, c) keyed
    c * n + r."""
    n = len(cols)
    return {c * n + r: v for c, col in enumerate(cols) for r, v in col.items()}


def _phi_image(mag: MagicAlgebra, A: AlbertAlgebra, r: int):
    """The columns of phi(e_r) on the Jordan algebra."""
    S = A.S
    nt, ntp = mag.nt, mag.ntp
    d = S.dim
    if r < nt:
        raise IncompatibleInputs("tri(k) should be trivial")
    if r < nt + ntp:
        cols = [{} for _ in range(A.jordan.dim)]
        for k, v in mag.tri_sp.basis[r - nt].entries.items():
            i, rc = divmod(k, d * d)
            rr, cc = divmod(rc, d)
            cols[A.iota_index(i, cc)][A.iota_index(i, rr)] = v
        return cols
    pos = r - nt - ntp
    i, a = divmod(pos, d)
    return d_i_derivation(A, i, {a: ONE})


# =========================================================================
# graded triality bases and induced gradings
# =========================================================================

def graded_tri_basis(S: Algebra, gr: Grading, theta_refine: bool = False):
    """Homogeneous basis of tri(S) adapted to a grading of S.

    Returns (degrees, basis): one degree per TriElement of the basis.  With
    theta_refine each degree gains a trailing Z3 coordinate j and its
    element t satisfies theta(t) = w^j t.
    """
    degrees, basis = [], []
    for mu, positions in _degree_positions(gr):
        kern = _triality_kernel(S, positions)
        if not kern:
            continue
        if not theta_refine:
            degrees += [mu] * len(kern)
            basis += kern
            continue
        th = TriContext(S, kern).theta_columns()
        for j, ev in enumerate((ONE, OMEGA, OMEGA2)):
            for v in eigenspace(th, ev):
                entries: dict = {}
                for k in sorted(v):
                    vec_add_scaled(entries, v[k], kern[k].entries)
                degrees.append(mu + (j,))
                basis.append(TriElement(S.dim, entries))
    return degrees, basis


def _degree_positions(gr: Grading):
    """(mu, positions) for each degree mu a homogeneous map can have: the
    matrix positions (r, c) with deg e_r = deg e_c + mu."""
    G, deg = gr.group, gr.degrees
    d = len(deg)
    for mu in sorted({G.add(deg[r], G.neg(deg[c])) for r in range(d)
                      for c in range(d)}):
        yield mu, [(r, c) for r in range(d) for c in range(d)
                   if deg[r] == G.add(deg[c], mu)]


def lie_algebra_on_matrices(mats, name: str) -> Algebra:
    """Lie algebra of a list of square maps, each as sparse columns, under
    commutator, in that basis."""
    n = len(mats)
    d = len(mats[0])
    try:
        span = SpanCoords([_flat(m) for m in mats], d * d)
    except DependentVectors:
        raise IncompatibleInputs("matrices are dependent")
    products = {}
    for i in range(n):
        for j in range(i + 1, n):
            vec = span.coords(_flat(_commutator_cols(mats[i], mats[j])))
            if vec is None:
                raise IncompatibleInputs("commutator outside the span")
            if vec:
                products[(i, j)] = vec
                products[(j, i)] = {kk: -c for kk, c in vec.items()}
    return Algebra(n, name, products)


def orthogonal_graded(S: Algebra, gr: Grading):
    """o(S, n) on a homogeneous basis, graded over group x Z3 by the
    degree of the map and the theta eigenvalue (local triality transport)."""
    degrees, basis = graded_tri_basis(S, gr, theta_refine=True)
    mats = [t.columns(0) for t in basis]
    L = lie_algebra_on_matrices(mats, "o(%s)" % S.name)
    group = AbelianGroup(gr.group.free_rank, gr.group.torsion + (3,))
    return L, Grading(L, group, tuple(degrees), name="induced"), basis


def derivations_graded(S: Algebra, gr: Grading):
    """Der(S) on a homogeneous basis, graded by the grading of S."""
    degrees, mats = [], []
    for mu, positions in _degree_positions(gr):
        index = position_index(S.dim, positions)
        for vec in sparse_kernel(leibniz_rows(S, index), len(positions)):
            mats.append(kernel_columns(vec, index, S.dim))
            degrees.append(mu)
    L = lie_algebra_on_matrices(mats, "der(%s)" % S.name)
    return L, Grading(L, gr.group, tuple(degrees), name="induced")


# =========================================================================
# adjoint minimal polynomials
# =========================================================================

def adjoint_minimal_polynomial(L: Algebra, x: dict, cols=None) -> Polynomial:
    """Exact minimal polynomial m of ad_x = [x, -], the left multiplication by x.

    linalg.minimal_polynomial_op gets the columns [x, e_j] of left_columns
    (cols, if built already) and returns an lcm f of Krylov-chain
    annihilators; each divides m, so f | m.  It returns f only once
    f(ad_x) e_j = 0 is proved exactly for every j, so m | f.
    """
    if cols is None:
        cols = left_columns(L, x)
    return minimal_polynomial_op(column_apply(cols), L.dim)


def is_toral(L: Algebra, elements, cols=None) -> Report:
    """Abelian span whose elements have squarefree adjoint minimal polynomials.

    cols, when given, holds left_columns(L, x) for each element x.
    """
    from .exact import is_squarefree
    name = "toral(%s)" % L.name
    els = list(elements)
    for i, x in enumerate(els):
        for j in range(i + 1, len(els)):
            if L.multiply_sparse(x, els[j]):
                return Report(name, False, {"stage": "abelian"}, witness=(i, j))
    polys = []
    for i, x in enumerate(els):
        mp = adjoint_minimal_polynomial(L, x, None if cols is None else cols[i])
        polys.append(str(mp))
        if not is_squarefree(mp):
            return Report(name, False, {"stage": "squarefree minimal polynomial",
                                        "minpoly": str(mp)}, witness=i)
    return Report(name, True, {"minpolys": polys})


def is_cartan(L: Algebra, elements) -> Report:
    """Abelian + toral + self-normalizing, all certified exactly.

    Lemma (Humphreys, sections 8 and 15): if h is toral then N(h) = C(h).
    Over the algebraic closure, where ranks are the same, write x in N(h) as
    a sum of root components for h; for each root alpha != 0, [h, x_alpha]
    lies in h and in L_alpha, so it is 0 and x_alpha = 0.  So the exact rank
    r of x -> ([h_1, x], ..., [h_k, x]) gives dim N(h) = dim C(h) = dim L - r,
    and since h is abelian, r = dim L - dim h proves N(h) = h.  Column j of
    that map stacks the columns [h_i, e_j] of every ad_{h_i} at offset
    i * dim L; the same columns drive the minimal polynomials.
    """
    name = "cartan(%s)" % L.name
    els = list(elements)
    k, d = len(els), L.dim
    cols = [left_columns(L, x) for x in els]
    toral = is_toral(L, els, cols)
    if not toral.passed:
        return Report(name, False, {"stage": "toral", "inner": toral.details},
                      witness=toral.witness)
    span_ech = SparseEchelon(d)
    for x in els:
        span_ech.insert(x)
    if span_ech.rank != k:
        return Report(name, False, {"stage": "independent span"}, witness=k)
    ech = SparseEchelon(k * d)
    for j in range(d):
        ech.insert({i * d + m: c for i, ci in enumerate(cols)
                    for m, c in ci[j].items()})
    centralizer_dim = d - ech.rank
    if centralizer_dim != k:
        return Report(name, False, {"stage": "self-normalizing",
                                    "normalizer_dim": centralizer_dim},
                      witness=centralizer_dim)
    return Report(name, True, {"dim": k, "minpolys": toral.details["minpolys"],
                               "self_normalizing": {"method": "centralizer",
                                                    "rank": ech.rank}})


def jordan_grading_check(L: Algebra, gr: Grading, cartan_mode: str = "pairs") -> Report:
    """Trivial zero part, equal component dimensions, semisimple components.

    cartan_mode "components": every nonzero component must be a Cartan
    subalgebra (Dempwolff decomposition).  "pairs": g_mu + g_{-mu} must be a
    Cartan subalgebra for every mu.
    """
    name = "jordan-grading(%s)" % L.name
    rep = verify_grading(gr)
    if not rep.passed:
        return Report(name, False, {"stage": "grading"}, witness=rep.witness)
    comps = gr.components()
    G = gr.group
    if any(G.is_zero(d) for d in comps):
        return Report(name, False, {"stage": "g_0 = 0"}, witness=0)
    dims = {d: len(idxs) for d, idxs in comps.items()}
    if len(set(dims.values())) != 1:
        return Report(name, False, {"stage": "equal dimensions",
                                    "dims": sorted(set(dims.values()))},
                      witness=sorted(dims.items())[:3])
    results = {"components": len(comps), "component_dim": next(iter(dims.values()))}
    if cartan_mode == "components":
        for d, idxs in sorted(comps.items()):
            rep = is_cartan(L, [{i: ONE} for i in idxs])
            if not rep.passed:
                return Report(name, False, {"stage": "component cartan",
                                            "inner": rep.details}, witness=d)
    else:
        seen = set()
        for d in sorted(comps):
            nd = G.neg(d)
            if d in seen or nd in seen:
                continue
            seen.add(d)
            seen.add(nd)
            idxs = list(comps[d])
            if nd != d:
                idxs += comps[nd]
            rep = is_cartan(L, [{i: ONE} for i in idxs])
            if not rep.passed:
                return Report(name, False, {"stage": "pair cartan",
                                            "inner": rep.details}, witness=d)
    return Report(name, True, results)


# =========================================================================
# induced gradings on F4, E6, E8 and the Albert algebras
# =========================================================================

Z2_5 = AbelianGroup(0, (2, 2, 2, 2, 2))
Z2_8 = AbelianGroup(0, (2,) * 8)
TRIVIAL = AbelianGroup(0, ())


def graded_para_cayley(lams=(1, 1, 1)):
    """Z2^3-graded para-Cayley algebra on the doubling-tower basis."""
    gr = cayley_grading("z2^3", lams)
    PC = compose.para_hurwitz(gr.algebra)
    return PC, Grading(PC, gr.group, gr.degrees, name="z2^3")


def graded_okubo(params=(1, 1)):
    """Standard Z3^2-graded Okubo algebra."""
    gr = okubo_grading("z3^2", params)
    return gr.algebra, gr


def graded_side(S: Algebra, gr: Grading = None, ternary: bool = False):
    """(grading, tri degrees, TriContext) of one side of an induced grading.

    The TriContext is on the homogeneous basis of graded_tri_basis,
    theta-refined when ternary.  A missing grading means the trivial one.
    """
    if gr is None:
        gr = Grading(S, TRIVIAL, ((),) * S.dim)
    degrees, basis = graded_tri_basis(S, gr, theta_refine=ternary)
    return gr, degrees, TriContext(S, basis)


def _induced(G: AbelianGroup, Gp: AbelianGroup, ternary: bool):
    """The group G x G' x Z2^2, or G x G' x Z3 when ternary; a map joining
    degrees of the three factors into one of its degrees, free coordinates
    first as AbelianGroup lays them out; and the last-factor degree of each
    iota_i."""
    f, fp = G.free_rank, Gp.free_rank
    last = (3,) if ternary else (2, 2)
    group = AbelianGroup(f + fp, G.torsion + Gp.torsion + last)

    def join(mu, nu, t):
        mu, nu = tuple(mu), tuple(nu)
        return mu[:f] + nu[:fp] + mu[f:] + nu[fp:] + t

    return group, join, ((0,), (1,), (2,)) if ternary else PAIR_DEGREE


def graded_magic(left, right, ternary: bool, name: str, grading_name: str):
    """g(S, S') with the grading induced by two graded_side triples.

    tri(S) gets degree (mu, 0, t) and tri(S') gets (0, mu', t), t = (0, 0)
    or, when ternary, the theta exponent j; iota_i(a x b) gets (deg a, deg b,
    PAIR_DEGREE[i]), or (deg a, deg b, i) when ternary.  The group is
    G x G' x Z2^2, or G x G' x Z3 when ternary, where rebase_blockwise moves
    each iota triple to the theta-eigenbasis.  Returns (mag, grading) on
    mag.lie or its rebase.
    """
    (gr, tdeg, ctx), (grp, tdegp, ctxp) = left, right
    G, Gp = gr.group, grp.group
    group, join, parts = _induced(G, Gp, ternary)
    n, np_ = G.ncoords, Gp.ncoords
    degrees = [join(d[:n], Gp.zero(), d[n:] if ternary else (0, 0))
               for d in tdeg]
    degrees += [join(G.zero(), d[:np_], d[np_:] if ternary else (0, 0))
                for d in tdegp]
    degrees += [join(a, b, parts[i]) for i in range(3)
                for a in gr.degrees for b in grp.degrees]
    mag = magic_g(ctx.S, ctxp.S, tri_s=ctx, tri_sp=ctxp, name=name)
    lie = mag.lie
    if ternary:
        lie = rebase_blockwise(lie, _iota_cycles(mag),
                               [deg[-1] for deg in degrees])
    return mag, Grading(lie, group, tuple(degrees), name=grading_name)


def graded_albert(S: Algebra, gr: Grading, ternary: bool, grading_name: str):
    """The Albert algebra k^3 + iota_i(S) with the grading induced by one of
    S, by the rule of graded_magic: E_i gets (0, t), t = (0, 0) or, when
    ternary, i, and iota_i(a) gets (deg a, PAIR_DEGREE[i]), or (deg a, i).
    Returns (A, grading), on A.jordan or its theta-eigenbasis rebase."""
    A = albert(S)
    group, join, parts = _induced(gr.group, TRIVIAL, ternary)
    degrees = [join(gr.group.zero(), (), parts[i] if ternary else (0, 0))
               for i in range(3)]
    degrees += [join(a, (), parts[i]) for i in range(3) for a in gr.degrees]
    J = A.jordan
    if ternary:
        cycles = [(0, 1, 2)] + [tuple(A.iota_index(i, a) for i in range(3))
                                for a in range(S.dim)]
        J = rebase_blockwise(J, cycles, [deg[-1] for deg in degrees])
    return A, Grading(J, group, tuple(degrees), name=grading_name)


def _iota_cycles(mag: MagicAlgebra):
    """The index triples (iota_0, iota_1, iota_2)(e_a x e_b) that theta cycles."""
    return [tuple(mag.iota_index(i, a, b) for i in range(3))
            for a in range(mag.S.dim) for b in range(mag.Sp.dim)]


# name -> (left side, or None for the Albert algebra of the right side; right
# side; ternary; Lie algebra name, "{}" standing for the right side's name;
# grading name).  A side builds (S, its grading, or None for the trivial one)
# at its default parameters.  A new induced grading is one row here.
INDUCED = {
    "albert_z2_5": (None, graded_para_cayley, False, None, "z2^5"),
    "albert_z3_3": (None, graded_okubo, True, None, "z3^3"),
    "f4_z2_5": (lambda: (compose.s1(), None), graded_para_cayley, False,
                "f4({})", "z2^5"),
    "f4_z3_3": (lambda: (compose.s1(), None), graded_okubo, True, "f4({})", "z3^3"),
    "e6_z3_3": (lambda: (compose.s2(), None), graded_okubo, True, "e6", "z3^3"),
    "e8_z2_8": (graded_para_cayley, graded_para_cayley, False, "e8", "z2^8"),
    "e8_z3_5": (graded_okubo, graded_okubo, True, "e8w", "z3^5"),
}


def induced(name: str):
    """Build the INDUCED row `name` as (MagicAlgebra or AlbertAlgebra,
    grading), grading.algebra being the graded table: the Lie or Jordan
    algebra, or its theta-eigenbasis rebase.  Two equal sides share one
    graded_side, so one TriContext."""
    left, right, ternary, lie_name, grading_name = INDUCED[name]
    if left is None:
        return graded_albert(*right(), ternary, grading_name)
    side = graded_side(*left(), ternary)
    other = side if right is left else graded_side(*right(), ternary)
    return graded_magic(side, other, ternary,
                        lie_name.format(other[0].algebra.name), grading_name)


def e8_z2_8():
    """induced("e8_z2_8"): Z2^8 grading of g(S, S'), S = S' para-Cayley."""
    return induced("e8_z2_8")


def e8_z3_5():
    """induced("e8_z3_5"): Z3^5 grading of g(O, O'), O = O' Okubo."""
    return induced("e8_z3_5")


def e8_dempwolff(gr8: Grading):
    """Coarsen the Z2^8 grading along (mu, nu, gamma) -> (mu + nu, gamma)."""
    e = [tuple(int(j == i) for j in range(5)) for i in range(5)]
    hom = GroupHom(Z2_8, Z2_5, tuple(e[:3] * 2 + e[3:]))
    gr5 = coarsen(gr8, hom)
    gr5.name = "dempwolff"
    return gr5
