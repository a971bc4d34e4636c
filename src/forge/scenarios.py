"""Named claim bundles: each scenario rechecks one block of the verified
constructions and reports per-claim outcomes with provenance strings."""

from __future__ import annotations

import random
from functools import lru_cache

from . import compose, magic
from .algebra import (subalgebra_generated, verify_composition,
                      verify_jordan, verify_lie, verify_symmetric)
from .exact import OMEGA, ONE, ZERO, Polynomial, is_squarefree, sc
from .grading import (CAYLEY_KINDS, DECLARED_GROUPS, OKUBO_KINDS,
                      QUATERNION_KINDS, cayley_grading, grading_type,
                      okubo_grading, quaternion_grading, two_dim_z3_grading,
                      universal_group, verify_grading)
from .linalg import (SparseEchelon, column_apply, eigenspace,
                     minimal_polynomial_op, vec_add_scaled)
from .report import Report

DEFAULT_SEED = 271828


class Claims:
    def __init__(self, name: str):
        self.name = name
        self.claims = []

    def check(self, cid: str, got, expected, provenance: str = "") -> bool:
        passed = got == expected
        entry = {"id": cid, "passed": passed, "got": _short(got),
                 "expected": _short(expected)}
        if provenance:
            entry["provenance"] = provenance
        self.claims.append(entry)
        return passed

    def check_true(self, cid: str, ok: bool, provenance: str = "", got=None):
        entry = {"id": cid, "passed": bool(ok)}
        if got is not None:
            entry["got"] = _short(got)
        if provenance:
            entry["provenance"] = provenance
        self.claims.append(entry)
        return bool(ok)

    def report(self) -> Report:
        passed = all(c["passed"] for c in self.claims)
        witness = next((c["id"] for c in self.claims if not c["passed"]), None)
        return Report(self.name, passed, {"claims": self.claims}, witness=witness)


def _short(x):
    s = str(x)
    return s if len(s) <= 120 else s[:117] + "..."


# ---- cached shared constructions ----------------------------------------

@lru_cache(maxsize=None)
def split_cayley():
    return compose.split_cayley()


@lru_cache(maxsize=None)
def para_split():
    return compose.para_hurwitz(compose.split_cayley())


@lru_cache(maxsize=None)
def okubo11():
    return compose.okubo(1, 1)


@lru_cache(maxsize=None)
def petersson_nst():
    return compose.split_petersson("nst")


@lru_cache(maxsize=None)
def e8_pair():
    return magic.e8_z2_8()


@lru_cache(maxsize=None)
def f4_mag():
    return magic.magic_g(compose.s1(), para_split())


@lru_cache(maxsize=None)
def albert_para():
    return magic.albert(para_split())


@lru_cache(maxsize=None)
def albert_okubo():
    return magic.albert(okubo11())


# =========================================================================
# criterion 1: table fidelity
# =========================================================================

# the split Cayley table, transcribed row by row: (row, column, result); a
# result of "0" means the product vanishes, "-x" means minus basis vector x.
SPLIT_CAYLEY_GOLDEN = """
e1,e1,e1   e1,e2,0    e1,u1,u1   e1,u2,u2   e1,u3,u3   e1,v1,0    e1,v2,0    e1,v3,0
e2,e1,0    e2,e2,e2   e2,u1,0    e2,u2,0    e2,u3,0    e2,v1,v1   e2,v2,v2   e2,v3,v3
u1,e1,0    u1,e2,u1   u1,u1,0    u1,u2,v3   u1,u3,-v2  u1,v1,-e1  u1,v2,0    u1,v3,0
u2,e1,0    u2,e2,u2   u2,u1,-v3  u2,u2,0    u2,u3,v1   u2,v1,0    u2,v2,-e1  u2,v3,0
u3,e1,0    u3,e2,u3   u3,u1,v2   u3,u2,-v1  u3,u3,0    u3,v1,0    u3,v2,0    u3,v3,-e1
v1,e1,v1   v1,e2,0    v1,u1,-e2  v1,u2,0    v1,u3,0    v1,v1,0    v1,v2,u3   v1,v3,-u2
v2,e1,v2   v2,e2,0    v2,u1,0    v2,u2,-e2  v2,u3,0    v2,v1,-u3  v2,v2,0    v2,v3,u1
v3,e1,v3   v3,e2,0    v3,u1,0    v3,u2,0    v3,u3,-e2  v3,v1,u2   v3,v2,-u1  v3,v3,0
"""

# the Okubo table over parameters a, b; entries (row, column, coeff, result)
# with coeff one of 1, -1, a, b, ai, bi (inverses), ab, abi = (ab) inverse,
# aib = a^-1 b, abinv = a b^-1, and sign-prefixed variants.
OKUBO_GOLDEN = """
x10,x10,-a,x-10    x10,x-10,0,.      x10,x01,0,.       x10,x0-1,1,x1-1
x10,x11,0,.        x10,x-1-1,1,x0-1  x10,x-11,0,.      x10,x1-1,a,x-1-1
x-10,x10,0,.       x-10,x-10,-ai,x10 x-10,x01,1,x-11   x-10,x0-1,0,.
x-10,x11,1,x01     x-10,x-1-1,0,.    x-10,x-11,ai,x11  x-10,x1-1,0,.
x01,x10,1,x11      x01,x-10,0,.      x01,x01,-b,x0-1   x01,x0-1,0,.
x01,x11,b,x1-1     x01,x-1-1,0,.     x01,x-11,0,.      x01,x1-1,1,x10
x0-1,x10,0,.       x0-1,x-10,1,x-1-1 x0-1,x01,0,.      x0-1,x0-1,-bi,x01
x0-1,x11,0,.       x0-1,x-1-1,bi,x-11 x0-1,x-11,1,x-10 x0-1,x1-1,0,.
x11,x10,a,x-11     x11,x-10,0,.      x11,x01,0,.       x11,x0-1,1,x10
x11,x11,-ab,x-1-1  x11,x-1-1,0,.     x11,x-11,b,x0-1   x11,x1-1,0,.
x-1-1,x10,0,.      x-1-1,x-10,ai,x1-1 x-1-1,x01,1,x-10 x-1-1,x0-1,0,.
x-1-1,x11,0,.      x-1-1,x-1-1,-abi,x11 x-1-1,x-11,0,. x-1-1,x1-1,bi,x01
x-11,x10,1,x01     x-11,x-10,0,.     x-11,x01,b,x-1-1  x-11,x0-1,0,.
x-11,x11,0,.       x-11,x-1-1,ai,x10 x-11,x-11,-aib,x1-1 x-11,x1-1,0,.
x1-1,x10,0,.       x1-1,x-10,1,x0-1  x1-1,x01,0,.      x1-1,x0-1,bi,x11
x1-1,x11,a,x-10    x1-1,x-1-1,0,.    x1-1,x-11,0,.     x1-1,x1-1,-abinv,x-11
"""

_CAYLEY_IDX = {"e1": 0, "e2": 1, "u1": 2, "u2": 3, "u3": 4,
               "v1": 5, "v2": 6, "v3": 7}
_OKUBO_IDX = {"x10": 0, "x-10": 1, "x01": 2, "x0-1": 3,
              "x11": 4, "x-1-1": 5, "x-11": 6, "x1-1": 7}


def _okubo_coeff(token: str, a, b):
    neg = token.startswith("-")
    if neg:
        token = token[1:]
    val = {"0": ZERO, "1": ONE, "a": a, "b": b, "ai": a.inv(), "bi": b.inv(),
           "ab": a * b, "abi": (a * b).inv(), "aib": a.inv() * b,
           "abinv": a * b.inv()}[token]
    return -val if neg else val


def scenario_tables(seed=DEFAULT_SEED) -> Report:
    cl = Claims("tables")
    C = split_cayley()
    bad = []
    for chunk in SPLIT_CAYLEY_GOLDEN.split():
        r, c, res = chunk.split(",")
        prod = C.product(_CAYLEY_IDX[r], _CAYLEY_IDX[c])
        if res == "0":
            want = {}
        elif res.startswith("-"):
            want = {_CAYLEY_IDX[res[1:]]: -ONE}
        else:
            want = {_CAYLEY_IDX[res]: ONE}
        if prod != want:
            bad.append(chunk)
    cl.check("split-cayley-64-products", bad, [],
             "split Cayley multiplication table on a canonical basis")
    for pa, pb in ((sc(1), sc(1)), (sc(2), sc(3)), (OMEGA, sc(1))):
        O = compose.okubo(pa, pb)
        bad = []
        for chunk in OKUBO_GOLDEN.split():
            r, c, coeff, res = chunk.split(",")
            prod = O.product(_OKUBO_IDX[r], _OKUBO_IDX[c])
            cf = _okubo_coeff(coeff, pa, pb)
            want = {} if res == "." or cf.is_zero() else {_OKUBO_IDX[res]: cf}
            if prod != want:
                bad.append(chunk)
        cl.check("okubo-64-products(%s,%s)" % (pa, pb), bad, [],
                 "the isotropic Okubo algebra multiplication table")
    return cl.report()


# =========================================================================
# criterion 2: identity suites
# =========================================================================

def scenario_identity_suites(seed=DEFAULT_SEED) -> Report:
    cl = Claims("identity-suites")
    towers = {
        "k": compose.ground_field(),
        "K(-1)": compose.quadratic_algebra(-1),
        "CD(k,1)": compose.cd_tower(1),
        "CD(k,1,1)": compose.cd_tower(1, 1),
        "CD(k,1,1,1)": compose.cd_tower(1, 1, 1),
        "CD(k,2,3,5)": compose.cd_tower(2, 3, 5),
        "split-cayley": split_cayley(),
        "mat2": compose.split_quaternion(),
    }
    for nm, A in towers.items():
        cl.check_true("composition(%s)" % nm, verify_composition(A).passed,
                      "norm multiplicativity for Hurwitz algebras")
    symmetric = {
        "para(K(-1))": compose.para_hurwitz(compose.quadratic_algebra(-1)),
        "para(mat2)": compose.para_hurwitz(compose.split_quaternion()),
        "para(split-cayley)": para_split(),
        "para(CD(k,1,1,1))": compose.para_hurwitz(compose.cd_tower(1, 1, 1)),
        "P8(st)": compose.pseudo_octonion(),
        "P8(nst)": petersson_nst(),
        "P8(omega)": compose.split_petersson("omega"),
        "okubo(1,1)": okubo11(),
        "okubo(2,3)": compose.okubo(2, 3),
        "okubo(w,1)": compose.okubo(OMEGA, 1),
        "okubo-quat(1,1)": compose.okubo_from_quaternion(1, 1),
        "okubo-quat(2,3)": compose.okubo_from_quaternion(2, 3),
        "s1": compose.s1(),
        "s2(1)": compose.s2(1),
    }
    for nm, A in symmetric.items():
        cl.check_true("symmetric(%s)" % nm, verify_symmetric(A).passed,
                      "associative polar form of symmetric composition algebras")
    for nm in ("K(-1)", "CD(k,1,1)", "mat2", "split-cayley"):
        cl.check_true("not-symmetric(%s)" % nm,
                      not verify_symmetric(towers[nm]).passed,
                      "unital Hurwitz algebras of dimension >= 2 are not symmetric")
    return cl.report()


# =========================================================================
# criterion 3: grading catalog
# =========================================================================

def scenario_grading_catalog(seed=DEFAULT_SEED) -> Report:
    cl = Claims("grading-catalog")
    families = [("cayley", CAYLEY_KINDS, cayley_grading),
                ("quaternion", QUATERNION_KINDS, quaternion_grading),
                ("okubo", OKUBO_KINDS, okubo_grading)]
    for fam, kinds, build in families:
        for kind in kinds:
            gr = build(kind)
            ok = verify_grading(gr).passed
            cl.check_true("%s-%s-verifies" % (fam, kind), ok,
                          "group-grading catalog of composition algebras")
            if ok:
                group, dmap, regr = universal_group(gr)
                cl.check("%s-%s-universal" % (fam, kind),
                         group.canonical_invariants(),
                         DECLARED_GROUPS[kind].canonical_invariants(),
                         "the declared grading groups are universal")
                cl.check_true("%s-%s-regrade" % (fam, kind),
                              verify_grading(regr).passed and
                              len(set(dmap.values())) == len(dmap))
    gr = two_dim_z3_grading(1)
    cl.check_true("dim2-z3-verifies", verify_grading(gr).passed,
                  "Z3-grading of the isotropic two-dimensional algebra")
    cl.check("dim2-z3-type", grading_type(gr), (2,))
    return cl.report()


# =========================================================================
# criterion 4: recognition pipeline
# =========================================================================

def scenario_recognition(seed=DEFAULT_SEED) -> Report:
    cl = Claims("recognition")
    P = petersson_nst()
    x = P.basis_element(0)
    y = compose.complete_okubo_pair(P, x)
    alpha, beta, iso = compose.okubo_recognize(P, x, y)
    cl.check("recognized-parameters", (str(alpha), str(beta)), ("1", "1"),
             "recognition of the nonstandard Petersson presentation")
    cl.check_true("isomorphism-verified",
                  iso.is_multiplicative() and iso.is_invertible())
    P8 = compose.pseudo_octonion()
    x8 = P8.basis_element(0)
    y8 = compose.complete_okubo_pair(P8, x8)
    a8, b8, iso8 = compose.okubo_recognize(P8, x8, y8)
    cl.check("pseudo-octonion-parameters", (str(a8), str(b8)), ("1", "1"),
             "the standard Petersson presentation is the split Okubo algebra")
    O = okubo11()
    xo = O.element([-1, 0, 0, 0, 0, 0, 0, 0])
    yo = compose.complete_okubo_pair(O, xo)
    ao, bo, isoo = compose.okubo_recognize(O, xo, yo)
    cl.check("model-parameters", (str(ao), str(bo)), ("1", "1"))
    rng = random.Random(seed)
    degrees = compose.OKUBO_DEGREES
    bad = 0
    for _ in range(100):
        i = rng.randrange(8)
        j = rng.randrange(8)
        while degrees[j] in (degrees[i], tuple(-t for t in degrees[i])):
            j = rng.randrange(8)
        c = sc(rng.choice([1, 2, 3, -1, -2, -3]))
        d = sc(rng.choice([1, 2, 3, -1, -2, -3]))
        xs = [ZERO] * 8
        xs[i] = c
        ys = [ZERO] * 8
        ys[j] = d
        xy_zero, yx_zero = compose.okubo_dichotomy(O, O.element(xs), O.element(ys))
        if xy_zero == yx_zero:
            bad += 1
    cl.check("dichotomy-100-pairs", bad, 0,
             "exactly one of x*y, y*x vanishes for orthogonal isotropic pairs")
    return cl.report()


# =========================================================================
# criterion 5: triality
# =========================================================================

def scenario_triality(seed=DEFAULT_SEED) -> Report:
    cl = Claims("triality")
    from .algebra import orthogonal_algebra
    for S in (para_split(), okubo11()):
        ctx = magic.TriContext(S)
        cl.check("tri-dim(%s)" % S.name, ctx.n, 28,
                 "triality algebra of an octonion-level symmetric composition algebra")
        ech = SparseEchelon(64)
        for t in ctx.basis:
            ech.insert({k: v for k, v in t.entries.items() if k < 64})
        o_dim = len(orthogonal_algebra(S))
        cl.check("pi0-bijective(%s)" % S.name, (ech.rank, o_dim), (28, 28),
                 "principle of local triality")
        cl.check_true("t-pairs-span(%s)" % S.name, magic.tri_spans_by_pairs(ctx))
        bad = len(magic.triality_bracket_failures(S))
        cl.check("bracket-relation(%s)" % S.name, bad, 0,
                 "[t_{a,b}, t_{x,y}] = t_{sigma(x),y} + t_{x,sigma(y)}")
    return cl.report()


# =========================================================================
# criterion 6: magic square dimensions and Jacobi
# =========================================================================

def scenario_magic_dimensions(seed=DEFAULT_SEED) -> Report:
    cl = Claims("magic-dimensions")
    k = compose.s1()
    s2 = compose.s2(1)
    cases = [
        ("g(k,S8)", f4_mag(), 52),
        ("g(S2,S8)", magic.magic_g(s2, okubo11()), 78),
        ("g(k,S2)", magic.magic_g(k, compose.s2(1)), 8),
        ("g(S2,S2)", magic.magic_g(s2, compose.s2(2)), 16),
    ]
    for nm, mag, want in cases:
        cl.check("dim-%s" % nm, mag.lie.dim, want, "Freudenthal magic square")
        cl.check_true("jacobi-%s" % nm, verify_lie(mag.lie).passed)
        cl.check_true("z2x2-grading-%s" % nm, verify_grading(mag.z22).passed)
    mag8, _ = e8_pair()
    cl.check("dim-g(S8,S8)", mag8.lie.dim, 248, "Freudenthal magic square")
    rep = verify_lie(mag8.lie)
    cl.check_true("jacobi-e8", rep.passed,
                  "exact ad-closure of the generators is the 248-dimensional "
                  "algebra, and Jacobi holds on every triple with a generator",
                  got=rep.details)
    cl.check_true("z2x2-grading-e8", verify_grading(mag8.z22).passed)
    th = magic.theta_columns(f4_mag())
    cl.check_true("theta-automorphism-f4",
                  magic.is_lie_automorphism(f4_mag().lie, th).passed,
                  "order-3 automorphism of the magic square algebra")
    cl.check("theta-eigen-dims-f4", sum(magic.theta_eigenspace_dims(f4_mag())),
             52)
    return cl.report()


# =========================================================================
# criterion 7: the Jordan layer
# =========================================================================

def scenario_jordan_layer(seed=DEFAULT_SEED) -> Report:
    cl = Claims("jordan-layer")
    for A in (albert_para(), albert_okubo()):
        S = A.S
        cl.check("albert-dim(%s)" % S.name, A.jordan.dim, 27,
                 "the exceptional Jordan algebra from a symmetric composition algebra")
        cl.check_true("jordan-identity(%s)" % S.name,
                      verify_jordan(A.jordan).passed)
        rng = random.Random(seed)
        generic = S.element([sc(rng.randint(-2, 2)) for _ in range(8)])
        ok_rules = all(magic.check_d_i_rules(A, i, a).passed
                       for i in range(3)
                       for a in list(S.basis()) + [generic])
        cl.check_true("d-i-rules(%s)" % S.name, ok_rules,
                      "inner derivations attached to the off-diagonal parts")
        ok_leib = all(magic.is_derivation(A.jordan,
                                          magic.d_i_derivation(A, i, generic))
                      for i in range(3))
        cl.check_true("d-i-leibniz(%s)" % S.name, ok_leib)
    for S, A in ((para_split(), albert_para()), (okubo11(), albert_okubo())):
        mag = magic.magic_g(compose.s1(), S)
        rep = magic.phi_isomorphism(S, mag=mag, A=A)
        cl.check_true("phi-isomorphism(%s)" % S.name, rep.passed,
                      "the magic square algebra is the derivation algebra of "
                      "the Jordan algebra", got=rep.details)
    return cl.report()


# =========================================================================
# criterion 8: type tuples
# =========================================================================

def scenario_type_tuples(seed=DEFAULT_SEED) -> Report:
    cl = Claims("type-tuples")
    PC, grPC = magic.graded_para_cayley()
    L, grL, _ = magic.orthogonal_graded(PC, grPC)
    cl.check_true("o8-z2^3xz3-verifies", verify_grading(grL).passed)
    cl.check("o8-z2^3xz3-type", grading_type(grL), (14, 7),
             "triality-refined grading of the orthogonal algebra, para-Cayley case")
    O, grO = magic.graded_okubo()
    LO, grLO, _ = magic.orthogonal_graded(O, grO)
    cl.check_true("o8-z3^3-verifies", verify_grading(grLO).passed)
    cl.check("o8-z3^3-type", grading_type(grLO), (24, 2),
             "triality-refined grading of the orthogonal algebra, Okubo case")
    G2, grG2 = magic.derivations_graded(PC, grPC)
    cl.check_true("g2-z2^3-verifies", verify_grading(grG2).passed)
    cl.check("g2-z2^3-type", grading_type(grG2), (0, 7),
             "Cartan-free grading of the derivation algebra of the octonions")
    # the six induced rows, e8 through its named builders, z2^8 from the cache
    build = {"e8_z2_8": e8_pair, "e8_z3_5": magic.e8_z3_5}
    for name, want, what in (
            ("albert_z2_5", (24, 0, 1), "the Albert algebra"),
            ("albert_z3_3", (27,), "the Albert algebra"),
            ("f4_z2_5", (24, 0, 0, 7), "the 52-dimensional exceptional algebra"),
            ("f4_z3_3", (0, 26), "the 52-dimensional exceptional algebra"),
            ("e8_z2_8", (192, 0, 0, 14), "the 248-dimensional exceptional algebra"),
            ("e8_z3_5", (240, 0, 0, 2), "the 248-dimensional exceptional algebra")):
        _, _, ternary, _, grading_name = magic.INDUCED[name]
        _, gr = build[name]() if name in build else magic.induced(name)
        cid = "%s-%s" % (name.split("_")[0], grading_name)
        cl.check_true(cid + "-verifies", verify_grading(gr).passed)
        cl.check(cid + "-type", grading_type(gr), want, "fine grading of %s, %s case"
                 % (what, "ternary" if ternary else "binary"))
    return cl.report()


# =========================================================================
# criterion 9: the toral operator
# =========================================================================

def scenario_toral_operator(seed=DEFAULT_SEED) -> Report:
    cl = Claims("toral-operator")
    O = okubo11()
    x = O.element([-1, 0, 0, 0, 0, 0, 0, 0])
    y = O.element([0, 0, -1, 0, 0, 0, 0, 0])
    t = magic.t_xy(O, x, y)
    D = [{} for _ in range(O.dim)]   # d0 + d1 + d2
    for i in range(3):
        for acc, col in zip(D, t.columns(i)):
            vec_add_scaled(acc, ONE, col)
    mp = minimal_polynomial_op(column_apply(D), O.dim)
    X = Polynomial.x
    closed = (X(3) + Polynomial.constant(1)) * (X(3) - Polynomial.constant(1))
    cl.check("minimal-polynomial", str(mp), str(closed),
             "the expected closed form omits the factor X forced by the "
             "nonzero kernel; the computed value is X*(X^3+1)*(X^3-1)")
    on_image = mp.divmod(X())[0] if mp.evaluate(ZERO).is_zero() else mp
    cl.check("minimal-polynomial-nonzero-part", str(on_image), str(closed),
             "away from the kernel the operator satisfies the closed form")
    cl.check_true("squarefree", is_squarefree(mp), got=str(mp))
    kern = eigenspace(D, ZERO)
    sub = subalgebra_generated(O, [y * x])
    ech = SparseEchelon(8)
    for v in kern:
        ech.insert(v)
    same = len(kern) == len(sub) and all(ech.contains(b.sparse()) for b in sub)
    cl.check_true("kernel-is-subalgebra", same,
                  "kernel equals the subalgebra generated by y*x",
                  got={"kernel_dim": len(kern), "subalgebra_dim": len(sub)})
    return cl.report()


# =========================================================================
# criterion 10: Jordan gradings
# =========================================================================

def scenario_jordan_gradings(seed=DEFAULT_SEED) -> Report:
    cl = Claims("jordan-gradings")
    _, gr3 = magic.induced("f4_z3_3")
    rep = magic.jordan_grading_check(gr3.algebra, gr3, cartan_mode="pairs")
    cl.check_true("f4-z3^3-jordan", rep.passed, got=rep.details)
    cl.check("f4-z3^3-components",
             (rep.details.get("components"), rep.details.get("component_dim")),
             (26, 2), "ternary Jordan grading of the 52-dimensional algebra")
    _, grE6 = magic.induced("e6_z3_3")
    rep = magic.jordan_grading_check(grE6.algebra, grE6, cartan_mode="pairs")
    cl.check_true("e6-z3^3-jordan", rep.passed, got=rep.details)
    cl.check("e6-z3^3-components",
             (rep.details.get("components"), rep.details.get("component_dim")),
             (26, 3), "ternary Jordan grading of the 78-dimensional algebra")
    gr5 = magic.e8_dempwolff(e8_pair()[1])
    rep = magic.jordan_grading_check(gr5.algebra, gr5, cartan_mode="components")
    cl.check_true("e8-dempwolff-jordan", rep.passed, got=rep.details)
    cl.check("e8-dempwolff-components",
             (rep.details.get("components"), rep.details.get("component_dim")),
             (31, 8), "every nonzero component is a Cartan subalgebra")
    g2, grG2 = magic.derivations_graded(*magic.graded_para_cayley())
    rep = magic.jordan_grading_check(g2, grG2, cartan_mode="components")
    cl.check_true("g2-z2^3-jordan", rep.passed, got=rep.details)
    cl.check("g2-z2^3-components",
             (rep.details.get("components"), rep.details.get("component_dim")),
             (7, 2), "binary Jordan grading of the 14-dimensional algebra")
    return cl.report()


# =========================================================================
# criterion 11: round trips
# =========================================================================

def scenario_round_trip(seed=DEFAULT_SEED) -> Report:
    from .algebra import algebra_from_text
    from .grading import grading_from_text
    cl = Claims("round-trip")
    samples = {
        "split-cayley": split_cayley(),
        "okubo(1,1)": okubo11(),
        "okubo(w,1)": compose.okubo(OMEGA, 1),
        "para(CD(k,2,3,5))": compose.para_hurwitz(compose.cd_tower(2, 3, 5)),
        "albert": albert_para().jordan,
        "f4": f4_mag().lie,
        "e8": e8_pair()[0].lie,
    }
    for nm, A in samples.items():
        text = A.to_text()
        back = algebra_from_text(text, name=A.name)
        cl.check_true("algebra-%s" % nm,
                      back.to_text() == text and back.products == A.products and
                      ((back.polar is None) == (A.polar is None)) and
                      (back.polar is None or back.polar == A.polar),
                      "byte-identical re-emission")
    for kind in ("z3", "z^2", "zxz2"):
        gr = okubo_grading(kind)
        text = gr.to_text()
        back = grading_from_text(text, gr.algebra)
        cl.check_true("grading-%s" % kind,
                      back.to_text() == text and back.degrees == gr.degrees and
                      back.group == gr.group)
    return cl.report()


# =========================================================================

def scenario_table2_symmetric(seed=DEFAULT_SEED) -> Report:
    cl = Claims("table2-symmetric")
    for pa, pb in ((sc(1), sc(1)), (sc(2), sc(3)), (OMEGA, sc(1))):
        O = compose.okubo(pa, pb)
        cl.check_true("symmetric(%s)" % O.name, verify_symmetric(O).passed,
                      "the eight-dimensional isotropic table defines a "
                      "symmetric composition algebra")
        cl.check_true("composition(%s)" % O.name, verify_composition(O).passed)
    return cl.report()


def scenario_e8_dempwolff(seed=DEFAULT_SEED) -> Report:
    cl = Claims("e8-dempwolff")
    gr5 = magic.e8_dempwolff(e8_pair()[1])
    cl.check_true("coarsening-verifies", verify_grading(gr5).passed)
    rep = magic.jordan_grading_check(gr5.algebra, gr5, cartan_mode="components")
    cl.check_true("all-components-cartan", rep.passed, got=rep.details)
    cl.check("component-count", rep.details.get("components"), 31)
    cl.check("component-dim", rep.details.get("component_dim"), 8)
    return cl.report()


CATALOG = {
    "tables": scenario_tables,
    "identity-suites": scenario_identity_suites,
    "grading-catalog": scenario_grading_catalog,
    "recognition": scenario_recognition,
    "triality": scenario_triality,
    "magic-dimensions": scenario_magic_dimensions,
    "jordan-layer": scenario_jordan_layer,
    "type-tuples": scenario_type_tuples,
    "toral-operator": scenario_toral_operator,
    "jordan-gradings": scenario_jordan_gradings,
    "round-trip": scenario_round_trip,
    "table2-symmetric": scenario_table2_symmetric,
    "e8-dempwolff": scenario_e8_dempwolff,
}
