"""Constructors for composition algebras and symmetric composition algebras.

Covers the split Cayley algebra on its canonical basis, Cayley-Dickson
doubling towers, para-Hurwitz and Petersson twists, the isotropic Okubo
algebras O(alpha, beta) on their standard basis, the quaternion-fixing
presentation of Okubo algebras, and constructive recognition of an Okubo
algebra from a pair of isotropic generators.

Polar forms are dicts {(i, j): n(e_i, e_j)} as Algebra takes them.  Linear
maps (conjugation, the order-3 automorphisms tau, the twisting maps of
petersson and AlgebraMorphism.columns) are lists of sparse columns,
cols[j] = {r: entry}, applied with linalg.column_apply.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import MINUS_ONE, OMEGA, OMEGA2, ONE, TWO, ZERO, Scalar, sc
from .algebra import (Algebra, Element, MissingForm, find_unity, left_columns,
                      multiplicative_failure, verify_composition)
from .linalg import (DependentVectors, SpanCoords, SparseEchelon, column_apply,
                     sparse_kernel, vec_add_scaled)


class NotHurwitz(ValueError):
    pass


class ZeroScalar(ValueError):
    pass


class NoUnity(ValueError):
    pass


class NotAutomorphism(ValueError):
    pass


class NotOrderDividing3(ValueError):
    pass


class ZeroParameter(ValueError):
    pass


class BadParams(ValueError):
    pass


class HypothesesFail(ValueError):
    pass


class SearchExhausted(RuntimeError):
    pass


class NotMultiplicative(RuntimeError):
    """A map that should be an isomorphism is not; `pair` is the first basis
    pair (i, j) with f(e_i e_j) != f(e_i) f(e_j), or None if the map is
    multiplicative but not invertible."""

    def __init__(self, message: str, pair=None):
        super().__init__(message)
        self.pair = pair


# =========================================================================
# Hurwitz algebras
# =========================================================================

CAYLEY_LABELS = ("e1", "e2", "u1", "u2", "u3", "v1", "v2", "v3")

# multiplication table of the split Cayley algebra on its canonical basis:
# row i times column j; entries (index, sign)
_CAYLEY_TABLE = {
    (0, 0): (0, 1), (0, 2): (2, 1), (0, 3): (3, 1), (0, 4): (4, 1),
    (1, 1): (1, 1), (1, 5): (5, 1), (1, 6): (6, 1), (1, 7): (7, 1),
    (2, 1): (2, 1), (2, 3): (7, 1), (2, 4): (6, -1), (2, 5): (0, -1),
    (3, 1): (3, 1), (3, 2): (7, -1), (3, 4): (5, 1), (3, 6): (0, -1),
    (4, 1): (4, 1), (4, 2): (6, 1), (4, 3): (5, -1), (4, 7): (0, -1),
    (5, 0): (5, 1), (5, 2): (1, -1), (5, 6): (4, 1), (5, 7): (3, -1),
    (6, 0): (6, 1), (6, 3): (1, -1), (6, 5): (4, -1), (6, 7): (2, 1),
    (7, 0): (7, 1), (7, 4): (1, -1), (7, 5): (3, 1), (7, 6): (2, -1),
}


def split_cayley() -> Algebra:
    """The split Cayley algebra on a canonical basis e1,e2,u1..u3,v1..v3."""
    products = {key: {k: sc(s)} for key, (k, s) in _CAYLEY_TABLE.items()}
    polar = {}
    for i, j in ((0, 1), (2, 5), (3, 6), (4, 7)):
        polar[(i, j)] = polar[(j, i)] = ONE
    return Algebra(8, "split-cayley", products, polar=polar, labels=CAYLEY_LABELS)


def ground_field() -> Algebra:
    """The one-dimensional Hurwitz algebra k, n(1) = 1."""
    return Algebra(1, "k", {(0, 0): {0: ONE}}, polar={(0, 0): TWO}, labels=("1",))


def quadratic_algebra(mu) -> Algebra:
    """K(mu) = k1 + kv with v*v = v + mu; needs 4*mu + 1 nonzero."""
    mu = sc(mu)
    if (sc(4) * mu + ONE).is_zero():
        raise BadParams("4*mu + 1 must be nonzero")
    products = {
        (0, 0): {0: ONE}, (0, 1): {1: ONE}, (1, 0): {1: ONE},
        (1, 1): {0: mu, 1: ONE},
    }
    polar = {(0, 0): TWO, (0, 1): ONE, (1, 0): ONE, (1, 1): sc(-2) * mu}
    return Algebra(2, "K(%s)" % mu, products, polar=polar, labels=("1", "v"))


def split_quaternion() -> Algebra:
    """2x2 matrices with the determinant norm; basis E11, E22, E12, E21."""
    e11, e22, e12, e21 = 0, 1, 2, 3
    products = {
        (e11, e11): {e11: ONE}, (e11, e12): {e12: ONE},
        (e22, e22): {e22: ONE}, (e22, e21): {e21: ONE},
        (e12, e21): {e11: ONE}, (e12, e22): {e12: ONE},
        (e21, e12): {e22: ONE}, (e21, e11): {e21: ONE},
    }
    polar = {(e11, e22): ONE, (e22, e11): ONE,
             (e12, e21): MINUS_ONE, (e21, e12): MINUS_ONE}
    return Algebra(4, "mat2", products, polar=polar,
                   labels=("E11", "E22", "E12", "E21"))


def conjugation(C: Algebra):
    """Standard conjugation x -> n(x,1)1 - x of a unital Hurwitz algebra,
    as sparse columns."""
    if C.polar is None:
        raise MissingForm("conjugation needs the polar form")
    e = find_unity(C)
    if e is None:
        raise NoUnity("algebra %s has no unity" % C.name)
    es = e.sparse()
    cols = []
    for j in range(C.dim):
        col: dict = {}
        vec_add_scaled(col, C.polar_pair_sparse({j: ONE}, es), es)
        vec_add_scaled(col, MINUS_ONE, {j: ONE})
        cols.append(col)
    return cols


def cd_double(B: Algebra, lam) -> Algebra:
    """Cayley-Dickson double of an associative Hurwitz algebra.

    (a + bu)(c + du) = (ac + lam * conj(d) b) + (da + b conj(c)) u,
    n(a + bu) = n(a) - lam * n(b).
    """
    lam = sc(lam)
    if lam.is_zero():
        raise ZeroScalar("doubling parameter must be nonzero")
    if find_unity(B) is None or not verify_composition(B).passed:
        raise NotHurwitz("can only double a Hurwitz algebra")
    d = B.dim
    conj_col = conjugation(B)
    products: dict = {}

    def put(i, j, vec, offset):
        if vec:
            products[(i, j)] = {k + offset: v for k, v in vec.items()}

    for i in range(d):
        for j in range(d):
            put(i, j, B.product(i, j), 0)
            # e_i * (e_j u) = (e_j e_i) u
            put(i, d + j, B.product(j, i), d)
            # (e_i u) * e_j = (e_i conj(e_j)) u
            put(d + i, j, B.multiply_sparse({i: ONE}, conj_col[j]), d)
            # (e_i u)(e_j u) = lam (conj(e_j) e_i)
            vec = B.multiply_sparse(conj_col[j], {i: ONE})
            put(d + i, d + j, {k: lam * v for k, v in vec.items()}, 0)
    polar = dict(B.polar)
    for (i, j), v in B.polar.items():
        polar[(d + i, d + j)] = -lam * v
    labels = None
    if B.labels:
        labels = list(B.labels) + [s + "u" for s in B.labels]
    return Algebra(2 * d, "CD(%s,%s)" % (B.name, lam), products,
                   polar=polar, labels=labels)


def cd_tower(*lams) -> Algebra:
    """CD(k, lam1, lam2, ...): iterated doubling starting from k."""
    A = ground_field()
    for lam in lams:
        A = cd_double(A, lam)
    return A


def para_hurwitz(C: Algebra) -> Algebra:
    """Same space and norm, product x . y = conj(x) conj(y)."""
    col = conjugation(C)
    d = C.dim
    products = {}
    for i in range(d):
        for j in range(d):
            vec = C.multiply_sparse(col[i], col[j])
            if vec:
                products[(i, j)] = vec
    return Algebra(d, "para(%s)" % C.name, products, polar=C.polar,
                   labels=C.labels)


# =========================================================================
# order-3 automorphisms of the split Cayley algebra and Petersson twists
# =========================================================================

def tau_automorphism(kind: str):
    """An order-3 automorphism of the split Cayley algebra, as sparse columns.

    "st" cycles the canonical u and v triples, "nst" is unipotent on the
    Peirce spaces, "omega" scales u_i by w^i and v_i by w^(-i).
    """
    cols = [{j: ONE} for j in range(8)]
    if kind == "st":
        for i in range(3):
            cols[2 + i] = {2 + (i + 1) % 3: ONE}
            cols[5 + i] = {5 + (i + 1) % 3: ONE}
    elif kind == "nst":
        # u1 -> u2, u2 -> -u1-u2, u3 -> u3; v1 -> -v1+v2, v2 -> -v1, v3 -> v3
        cols[2] = {3: ONE}
        cols[3] = {2: MINUS_ONE, 3: MINUS_ONE}
        cols[5] = {5: MINUS_ONE, 6: ONE}
        cols[6] = {5: MINUS_ONE}
    elif kind == "omega":
        for i, (wu, wv) in enumerate(((OMEGA, OMEGA2), (OMEGA2, OMEGA), (ONE, ONE))):
            cols[2 + i] = {2 + i: wu}
            cols[5 + i] = {5 + i: wv}
    else:
        raise ValueError("unknown automorphism kind %r" % kind)
    return cols


def _check_automorphism(C: Algebra, tau):
    bad = multiplicative_failure(C, C, tau)
    if bad is not None:
        raise NotAutomorphism("not multiplicative at basis pair (%d,%d)" % bad)
    t = column_apply(tau)
    if any(t(t(col)) != {j: ONE} for j, col in enumerate(tau)):
        raise NotOrderDividing3("cube is not the identity")


def petersson(C: Algebra, tau) -> Algebra:
    """Twist x*y = tau(conj x) tau^2(conj y) by an order-3 automorphism tau,
    given by its sparse columns."""
    _check_automorphism(C, tau)
    t = column_apply(tau)
    col1 = [t(col) for col in conjugation(C)]   # tau conj
    col2 = [t(col) for col in col1]             # tau^2 conj
    d = C.dim
    products = {}
    for i in range(d):
        for j in range(d):
            vec = C.multiply_sparse(col1[i], col2[j])
            if vec:
                products[(i, j)] = vec
    return Algebra(d, "petersson(%s)" % C.name, products, polar=C.polar,
                   labels=C.labels)


def split_petersson(kind: str) -> Algebra:
    """The Petersson twist of the split Cayley algebra by tau_automorphism(kind),
    named P8 for the standard tau and P8(nst) or P8(omega) for the others."""
    A = petersson(split_cayley(), tau_automorphism(kind))
    A.name = "P8" if kind == "st" else "P8(%s)" % kind
    return A


def pseudo_octonion() -> Algebra:
    """P8: the Petersson twist of the split Cayley algebra by the standard tau."""
    return split_petersson("st")


# =========================================================================
# Okubo algebras
# =========================================================================

OKUBO_INDEX = {(1, 0): 0, (-1, 0): 1, (0, 1): 2, (0, -1): 3,
               (1, 1): 4, (-1, -1): 5, (-1, 1): 6, (1, -1): 7}
OKUBO_DEGREES = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1),
                 (-1, 1), (1, -1))


def okubo(alpha, beta) -> Algebra:
    """O(alpha, beta) on the basis x_{i,j}, indices mod 3, (i,j) != (0,0)."""
    a, b = sc(alpha), sc(beta)
    if a.is_zero() or b.is_zero():
        raise ZeroParameter("okubo parameters must be nonzero")
    ai, bi = a.inv(), b.inv()
    one = ONE
    rows = [
        # (row, col, coeff, result)
        (0, 0, -a, 1), (0, 3, one, 7), (0, 5, one, 3), (0, 7, a, 5),
        (1, 1, -ai, 0), (1, 2, one, 6), (1, 4, one, 2), (1, 6, ai, 4),
        (2, 0, one, 4), (2, 2, -b, 3), (2, 4, b, 7), (2, 7, one, 0),
        (3, 1, one, 5), (3, 3, -bi, 2), (3, 5, bi, 6), (3, 6, one, 1),
        (4, 0, a, 6), (4, 3, one, 0), (4, 4, -a * b, 5), (4, 6, b, 3),
        (5, 1, ai, 7), (5, 2, one, 1), (5, 5, -ai * bi, 4), (5, 7, bi, 2),
        (6, 0, one, 2), (6, 2, b, 5), (6, 5, ai, 0), (6, 6, -ai * b, 7),
        (7, 1, one, 3), (7, 3, bi, 4), (7, 4, a, 1), (7, 7, -a * bi, 6),
    ]
    products = {(i, j): {k: c} for i, j, c, k in rows}
    polar = {}
    for i, j in ((0, 1), (2, 3), (4, 5), (6, 7)):
        polar[(i, j)] = polar[(j, i)] = ONE
    labels = tuple("x(%d,%d)" % ij for ij in OKUBO_DEGREES)
    return Algebra(8, "okubo(%s,%s)" % (a, b), products, polar=polar, labels=labels)


def okubo_from_quaternion(beta, alpha) -> Algebra:
    """Okubo algebra fixing a quaternion subalgebra pointwise.

    Builds K = K(-1) (which contains w with w^2 + w + 1 = 0), the quaternion
    algebra Q = CD(K, beta) and C = CD(Q, alpha), extends the automorphism
    q -> q, u -> wu, and returns the Petersson twist.
    """
    b, a = sc(beta), sc(alpha)
    if a.is_zero() or b.is_zero():
        raise ZeroParameter("parameters must be nonzero")
    K = quadratic_algebra(-1)
    Q = cd_double(K, b)
    C = cd_double(Q, a)
    # w = -v inside K, embedded in Q = K + Ku'
    w = Q.element([ZERO, MINUS_ONE, ZERO, ZERO])
    tau = [{i: ONE} for i in range(4)]
    tau += [{4 + i: v for i, v in col.items()} for col in left_columns(Q, w)]
    S = petersson(C, tau)
    S.name = "okubo-quat(%s,%s)" % (b, a)
    return S


def s1() -> Algebra:
    """One-dimensional symmetric composition algebra: 1*1 = 1, n(1) = 1."""
    A = ground_field()
    A.name = "S1"
    return A


def s2(xi=1) -> Algebra:
    """Two-dimensional symmetric composition algebra on an isotropic basis.

    a*a = b, b*b = xi a, a*b = b*a = 0, n(a, b) = xi.
    """
    xi = sc(xi)
    if xi.is_zero():
        raise ZeroParameter("xi must be nonzero")
    products = {(0, 0): {1: ONE}, (1, 1): {0: xi}}
    polar = {(0, 1): xi, (1, 0): xi}
    return Algebra(2, "S2(%s)" % xi, products, polar=polar, labels=("a", "b"))


# =========================================================================
# recognition
# =========================================================================

@dataclass
class AlgebraMorphism:
    """A linear map between algebras: columns[j] is the sparse image of the
    source's basis vector e_j in the target."""

    source: Algebra
    target: Algebra
    columns: list

    def is_multiplicative(self) -> bool:
        return multiplicative_failure(self.source, self.target,
                                      self.columns) is None

    def is_invertible(self) -> bool:
        ech = SparseEchelon(self.target.dim)
        for col in self.columns:
            ech.insert(col)
        return ech.rank == self.source.dim


_SEARCH_COEFFS = (ONE, MINUS_ONE, sc(2), sc(-2), Scalar(1, 0, 2), Scalar(-1, 0, 2),
                  Scalar(1, 0, 3), Scalar(-1, 0, 3), sc(3), sc(-3),
                  OMEGA, -OMEGA, OMEGA2, -OMEGA2)


def _cubic_value(S: Algebra, y: dict) -> Scalar:
    return S.polar_pair_sparse(y, S.multiply_sparse(y, y))


def complete_okubo_pair(S: Algebra, x: Element) -> Element:
    """A partner y for x: n(y) = 0 != n(y, y*y), x*y = 0, alg(x) _|_ alg(y).

    Solves the linear system for the candidate space and searches it over a
    small fixed coefficient set, preferring a candidate with cubic value 1.
    """
    xs = x.sparse()
    xx = S.multiply_sparse(xs, xs)
    if not S.norm_sparse(xs).is_zero() or S.polar_pair_sparse(xs, xx).is_zero():
        raise HypothesesFail("x must be isotropic with n(x, x*x) nonzero")
    d = S.dim
    rows = [{} for _ in range(d)]   # x*y = 0, one row per coordinate
    for j, col in enumerate(left_columns(S, x)):
        for m, v in col.items():
            rows[m][j] = v
    for z in (xs, xx):              # n(y, x) = n(y, x*x) = 0
        row = {j: S.polar_pair_sparse({j: ONE}, z) for j in range(d)}
        rows.append({j: v for j, v in row.items() if v.p or v.q})
    space = sparse_kernel(rows, d)

    def combine(base, vec, cf):
        out = dict(base)
        for k, c in vec.items():
            cur = out.get(k, ZERO) + cf * c
            if cur.p or cur.q:
                out[k] = cur
            elif k in out:
                del out[k]
        return out

    def candidates():
        for v in space:
            yield v
        for cf in _SEARCH_COEFFS:
            for v in space:
                yield {k: cf * c for k, c in v.items()}
        for i in range(len(space)):
            for j in range(len(space)):
                if i == j:
                    continue
                for cf in _SEARCH_COEFFS:
                    yield combine(space[i], space[j], cf)
        # some presentations only expose partners off every coordinate plane
        for i in range(len(space)):
            for j in range(i + 1, len(space)):
                for k in range(j + 1, len(space)):
                    for cf in _SEARCH_COEFFS:
                        for cf2 in _SEARCH_COEFFS:
                            yield combine(combine(space[i], space[j], cf),
                                          space[k], cf2)

    valid = []
    for y in candidates():
        if not y:
            continue
        if not S.norm_sparse(y).is_zero():
            continue
        cy = _cubic_value(S, y)
        if cy.is_zero():
            continue
        yy = S.multiply_sparse(y, y)
        pairings = (S.polar_pair_sparse(xs, y), S.polar_pair_sparse(xs, yy),
                    S.polar_pair_sparse(xx, y), S.polar_pair_sparse(xx, yy))
        if any(not p.is_zero() for p in pairings):
            continue
        if S.multiply_sparse(xs, y):
            continue
        if cy == ONE:
            return _to_element(S, y)
        valid.append(y)
    if valid:
        return _to_element(S, valid[0])
    raise SearchExhausted("no isotropic partner found in the bounded search")


def _to_element(S: Algebra, v: dict) -> Element:
    coords = [ZERO] * S.dim
    for k, c in v.items():
        coords[k] = c
    return Element(S, coords)


def okubo_dichotomy(S: Algebra, x: Element, y: Element):
    """(x*y == 0, y*x == 0) after checking the pair hypotheses."""
    _check_pair_hypotheses(S, x, y)
    return ((x * y).is_zero(), (y * x).is_zero())


def _check_pair_hypotheses(S: Algebra, x: Element, y: Element):
    xs, ys = x.sparse(), y.sparse()
    xx = S.multiply_sparse(xs, xs)
    yy = S.multiply_sparse(ys, ys)
    if not S.norm_sparse(xs).is_zero() or not S.norm_sparse(ys).is_zero():
        raise HypothesesFail("both elements must be isotropic")
    if S.polar_pair_sparse(xs, xx).is_zero() or S.polar_pair_sparse(ys, yy).is_zero():
        raise HypothesesFail("cubic values must be nonzero")
    for u in (ys, yy):
        for v in (xs, xx):
            if not S.polar_pair_sparse(v, u).is_zero():
                raise HypothesesFail("generated subalgebras must be orthogonal")


def okubo_recognize(S: Algebra, x: Element, y: Element):
    """Isomorphism onto the model O(alpha, beta) sending x, y to -x10, -x01.

    Requires x*y = 0 on top of the pair hypotheses; the caller swaps the pair
    or replaces x by x*x when y*x = 0 instead.
    """
    _check_pair_hypotheses(S, x, y)
    if not (x * y).is_zero():
        raise HypothesesFail("x*y must vanish (swap or substitute x by x*x)")
    xs, ys = x.sparse(), y.sparse()
    xx = _to_element(S, S.multiply_sparse(xs, xs))
    yy = _to_element(S, S.multiply_sparse(ys, ys))
    alpha = S.polar_pair_sparse(xs, xx.sparse())
    beta = S.polar_pair_sparse(ys, yy.sparse())
    model = okubo(alpha, beta)
    basis = [x, xx, y, yy, y * x, yy * xx, x * yy, xx * y]
    # basis[k] goes to c * e_r of the model, (r, c) = images[k]
    images = [(0, MINUS_ONE), (1, -alpha), (2, MINUS_ONE), (3, -beta),
              (4, ONE), (5, alpha * beta), (7, beta), (6, alpha)]
    try:
        span = SpanCoords([b.sparse() for b in basis], 8)
    except DependentVectors:
        raise HypothesesFail("derived octet is not a basis")
    cols = [{r: a * c for a, (r, c) in zip(span.coords({j: ONE}), images)
             if a.p or a.q} for j in range(8)]
    morphism = AlgebraMorphism(S, model, cols)
    bad = multiplicative_failure(S, model, cols)
    if bad is not None:
        raise NotMultiplicative("recognition is not multiplicative at basis "
                                "pair (%d,%d)" % bad, bad)
    if not morphism.is_invertible():
        raise NotMultiplicative("recognition produced a non-invertible map")
    return alpha, beta, morphism
