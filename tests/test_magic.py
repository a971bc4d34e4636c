import math
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from forge import algebra, compose, exact, magic, scenarios
from forge.algebra import (Algebra, ad_closure_rank, derivation_algebra,
                           generating_set, verify_jordan, verify_lie)
from forge.exact import (OMEGA, OMEGA2, ONE, ZERO, Polynomial, Scalar,
                         is_squarefree, sc)
from forge.grading import AbelianGroup, Grading, grading_type, verify_grading
from forge.linalg import Matrix, column_apply, eigenspace, vec_add_scaled
from forge.scenarios import (albert_para, e8_pair, f4_mag, okubo11,
                             para_split, split_cayley)
import oracles
from oracles import (combination, commutator, compose_linear, dense,
                     left_matrix, mat_vec, minimal_polynomial, nullspace)
from test_linalg import _dense_inverse

X = Polynomial.x
C = Polynomial.constant


def test_tri_dimensions():
    assert magic.TriContext(para_split()).n == 28
    assert magic.TriContext(okubo11()).n == 28
    assert len(magic.tri(compose.s2(1))) == 2
    assert len(magic.tri(compose.s1())) == 0


def test_tri_rejects_non_symmetric():
    with pytest.raises(magic.NotSymmetricComposition):
        magic.tri(split_cayley())


def test_theta_fixed_subalgebras():
    for S, want in ((para_split(), 14), (okubo11(), 8)):
        ctx = magic.TriContext(S)
        cols = ctx.theta_columns()
        th = dense(cols)
        shifted = Matrix([[th.data[r][c] - (ONE if r == c else ZERO)
                           for c in range(ctx.n)] for r in range(ctx.n)])
        assert len(nullspace(shifted)) == want
        # the sparse eigenvectors are the dense reduced-echelon kernel basis
        assert [[v.get(c, ZERO) for c in range(ctx.n)]
                for v in eigenspace(cols, ONE)] == nullspace(shifted)
        cube = th * th * th
        assert cube == Matrix.identity(ctx.n)


def test_t_xx_is_zero():
    S = para_split()
    for i in range(8):
        t = magic.t_xy(S, {i: ONE}, {i: ONE})
        assert not t.entries
    # and the first slot (keys below 64) vanishes for sigma_{x,x} even when scaled
    t = magic.t_xy(S, {0: ONE}, {0: sc(3)})
    assert all(k >= 64 for k in t.entries)


def test_sparse_triality_matches_dense_oracle():
    for S in (para_split(), okubo11()):
        for u in range(8):
            for v in range(8):
                t = magic.t_xy(S, {u: ONE}, {v: ONE})
                # t_{x,y} = -t_{y,x}
                assert magic.t_xy(S, {v: ONE}, {u: ONE}).entries == \
                    {k: -c for k, c in t.entries.items()}
                d0, d1, d2 = (t.columns(i) for i in range(3))
                apply0 = column_apply(d0)
                for a in range(8):
                    for b in range(8):
                        rhs = S.multiply_sparse(d1[a], {b: ONE})
                        vec_add_scaled(rhs, ONE, S.multiply_sparse({a: ONE}, d2[b]))
                        assert apply0(S.product(a, b)) == rhs, (u, v, a, b)
        ts = magic.tri(S)
        assert len(ts) == 28
        for t in ts:
            assert t.theta(3) == t
            assert t.theta().columns(1) == t.columns(0)
            assert t.theta(2) == t.theta().theta()
        for x in range(28):
            for y in range(x + 1, 28):
                com = ts[x].commutator(ts[y])
                for i in range(3):
                    assert dense(com.columns(i)) == \
                        commutator(dense(ts[x].columns(i)), dense(ts[y].columns(i)))


def test_magic_dimension_formula():
    k = compose.s1()
    s2 = compose.s2(1)
    assert magic.magic_g(k, s2).lie.dim == 8
    assert magic.magic_g(s2, compose.s2(3)).lie.dim == 16
    assert f4_mag().lie.dim == 52


def test_magic_with_one_context_on_both_sides_builds_tri_once(monkeypatch):
    PC = para_split()
    calls = []
    t_xy = magic.t_xy
    monkeypatch.setattr(magic, "t_xy", lambda *a: calls.append(a) or t_xy(*a))
    ctx = magic.TriContext(PC)
    shared = magic.magic_g(PC, PC, tri_s=ctx, tri_sp=ctx)
    assert len(calls) == 64
    separate = magic.magic_g(PC, PC, tri_s=ctx, tri_sp=magic.TriContext(PC))
    assert len(calls) == 64 + 128
    assert shared.lie.dim == 248
    assert shared.lie.to_text() == separate.lie.to_text()
    assert shared.z22.degrees == separate.z22.degrees
    assert shared.lie.labels == separate.lie.labels


@pytest.mark.parametrize("S", [para_split(), okubo11()], ids=["para", "okubo"])
def test_tri_spans_by_pairs_rejects_a_planted_dependent_triple(monkeypatch, S):
    # the 28 triples t_{e_a, e_b}, a < b, are a basis of the 28-dimensional
    # tri(S); planted, every pair (1, b) gives 2 t_{e_0, e_1} instead
    ctx = magic.TriContext(S)
    assert magic.tri_spans_by_pairs(ctx)
    t_xy = magic.t_xy
    base = t_xy(S, {0: ONE}, {1: ONE})

    def planted(S_, x, y):
        if list(x) == [1]:
            return magic.TriElement(base.d, {k: sc(2) * v
                                             for k, v in base.entries.items()})
        return t_xy(S_, x, y)

    monkeypatch.setattr(magic, "t_xy", planted)
    assert not magic.tri_spans_by_pairs(ctx)


def test_magic_rejects_bad_inputs():
    with pytest.raises(magic.NotSymmetricComposition):
        magic.magic_g(compose.s1(), split_cayley())


def test_theta_cycles_iota_blocks():
    mag = f4_mag()
    th = magic.theta_columns(mag)
    lie = mag.lie
    d, dp = mag.S.dim, mag.Sp.dim
    # Theta sends iota_i(x) into the iota_{i+1} block and fixes the tri block
    for i in range(3):
        img = th[mag.iota_index(i, 0, 3)]
        lo = mag.iota_index((i + 1) % 3, 0, 0)
        hi = mag.iota_index((i + 1) % 3, d - 1, dp - 1)
        assert all(lo <= r <= hi for r in img)
    assert magic.is_lie_automorphism(lie, th).passed


def test_albert_products():
    A = albert_para()
    J = A.jordan
    S = A.S
    for i in range(3):
        a, b = 0, 1
        lhs = J.multiply_sparse({A.iota_index(i, a): ONE}, {A.iota_index(i, b): ONE})
        n2 = sc(2) * S.polar.get((a, b), ZERO)
        want = [ZERO] * J.dim
        want[(i + 1) % 3] = n2
        want[(i + 2) % 3] = n2
        assert [lhs.get(k, ZERO) for k in range(J.dim)] == want
    one = {0: ONE, 1: ONE, 2: ONE}
    for i in range(J.dim):
        assert J.multiply_sparse(one, {i: ONE}) == {i: ONE}
    assert verify_jordan(J).passed


def test_d_i_examples():
    A = albert_para()
    a = {2: ONE}
    for i in range(3):
        D = magic.d_i_derivation(A, i, a)
        assert not D[A.diag_index(i)]
        rep = magic.check_d_i_rules(A, i, a)
        assert rep.passed
        assert magic.is_derivation(A.jordan, D)


def test_d_i_derivation_matches_the_dense_oracle():
    rng = random.Random(7)
    for A in (albert_para(), scenarios.albert_okubo()):
        generic = {k: sc(v) for k, v in
                   enumerate(rng.randint(-2, 2) for _ in range(8)) if v}
        for i in range(3):
            for a in ({0: ONE}, {5: ONE}, generic):
                assert dense(magic.d_i_derivation(A, i, a)) == \
                    oracles.d_i_derivation(A, i, a)


def test_check_d_i_rules_names_a_doubled_column(monkeypatch):
    # a * e_3 != 0, so doubling the column of iota_{i+1}(e_3) breaks the rule
    # D_i(a) iota_{i+1}(b) = -iota_{i+2}(a b) first at b = e_3
    A = albert_para()
    a = {2: ONE}
    intact = magic.d_i_derivation
    for i in range(3):
        j = A.iota_index((i + 1) % 3, 3)

        def doubled(A_, i_, a_):
            cols = intact(A_, i_, a_)
            cols[j] = {r: sc(2) * c for r, c in cols[j].items()}
            return cols

        assert intact(A, i, a)[j]
        monkeypatch.setattr(magic, "d_i_derivation", doubled)
        rep = magic.check_d_i_rules(A, i, a)
        monkeypatch.setattr(magic, "d_i_derivation", intact)
        assert not rep.passed and rep.witness == ("iota_{i+1}", 3)


def test_is_derivation_rejects_left_multiplication_by_an_idempotent():
    # L_E0 (E0 E0) = E0, but L_E0(E0) E0 + E0 L_E0(E0) = 2 E0
    J = albert_para().jordan
    assert not magic.is_derivation(J, algebra.left_columns(J, {0: ONE}))
    assert magic.is_derivation(J, [{} for _ in range(J.dim)])


def test_no_module_above_linalg_binds_the_dense_api():
    # linear maps above linalg are sparse columns, polar forms are
    # {(i, j): value} and vectors are {k: value}; the dense API stays in
    # linalg and tests/oracles.py
    import importlib
    import pkgutil
    import forge
    from forge import linalg
    dense_api = ("Matrix", "rref", "solve", "rank", "nullspace", "inverse")
    dense_objects = [linalg.Matrix, linalg.rref, linalg.solve]
    names = [info.name for info in pkgutil.iter_modules(forge.__path__)]
    assert {"algebra", "compose", "grading", "magic", "scenarios", "cli"} <= set(names)
    for name in names:
        bound = vars(importlib.import_module("forge." + name))
        assert "Element" not in bound, name
        if name == "linalg":
            continue
        assert not set(dense_api) & set(bound), name
        assert not any(v is obj for v in bound.values() for obj in dense_objects), name
    for attr in ("element", "basis_element", "basis", "zero"):
        assert not hasattr(Algebra, attr), attr


def test_no_forge_module_imports_a_private_name_of_another():
    # a _-prefixed name stays in its module, and Q(w) numbers in the exact
    # kernels have one integer form, with no integer-pair product
    import ast
    import importlib
    import pkgutil
    import forge
    names = [info.name for info in pkgutil.iter_modules(forge.__path__)]
    for name in names:
        module = importlib.import_module("forge." + name)
        with open(module.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "forge"):
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, (name, node.module, private)
        assert "_pair_mul" not in vars(module), name


def test_adjoint_minimal_polynomial_matches_dense():
    # on a Lie algebra the product is the bracket, so ad = left multiplication
    L = f4_mag().lie
    el = {0: ONE, 13: ONE, 40: ONE}
    fast = magic.adjoint_minimal_polynomial(L, el)
    assert fast == minimal_polynomial(left_matrix(L, el))


def test_left_columns_of_a_basis_vector_are_the_general_columns():
    # e_i takes the table's rows, 2 e_i the general multiply_sparse path
    L = f4_mag().lie
    for i in (0, 13, 51):
        general = [L.multiply_sparse({i: ONE}, {j: ONE}) for j in range(L.dim)]
        assert algebra.left_columns(L, {i: ONE}) == general
        twice = algebra.left_columns(L, {i: sc(2)})
        assert twice == [{k: sc(2) * c for k, c in col.items()} for col in general]


def test_adjoint_minimal_polynomial_non_integral_coordinates():
    # x = (1/3) e0 + (w/2) e13 + e40 has denominators 3 and 2, and 6x is integral
    L = f4_mag().lie
    x = {0: Scalar(1, 0, 3), 13: Scalar(0, 1, 2), 40: ONE}
    mp = magic.adjoint_minimal_polynomial(L, x)
    assert mp == minimal_polynomial(left_matrix(L, x))
    six_x = {k: sc(6) * c for k, c in x.items()}
    assert compose_linear(magic.adjoint_minimal_polynomial(L, six_x), sc(6)).monic() == mp


def test_is_toral_names_a_planted_nilpotent_element():
    mag8, gr8 = e8_pair()
    L = mag8.lie
    comp = magic.e8_dempwolff(gr8).components()[(0, 1, 0, 0, 0)]
    h = [{k: ONE} for k in comp]
    assert magic.is_toral(L, h).passed
    # iota_2((x1 + x3) x y7) is nilpotent: x1 + x3 is isotropic
    n = {mag8.iota_index(2, a, 7): ONE for a in (1, 3)}
    assert magic.is_toral(L, h + [n]).details["stage"] == "abelian"
    # a Cartan subalgebra is its own centralizer: keep the part commuting with n
    keep = [e for e in h if not L.multiply_sparse(e, n)]
    assert len(keep) == 6
    rep = magic.is_toral(L, keep + [n])
    assert not rep.passed
    assert rep.details["stage"] == "squarefree minimal polynomial"
    assert rep.witness == len(keep)
    assert rep.details["minpoly"] == "X^3"


def test_is_toral_examples():
    _, gr = magic.induced("f4_z3_3")
    lie = gr.algebra
    comps = gr.components()
    # the (0,0,j) components span the natural Cartan subalgebra
    h = [{i: ONE} for i in comps[(0, 0, 1)] + comps[(0, 0, 2)]]
    rep = magic.is_toral(lie, h)
    assert rep.passed
    rep = magic.is_cartan(lie, h)
    assert rep.passed and rep.details["dim"] == 4
    assert rep.details["self_normalizing"] == {"method": "centralizer",
                                               "rank": 48}
    # a single root vector is not self-normalizing
    mu = (1, 0, 0)
    root = [{comps[mu][0]: ONE}]
    rep = magic.is_cartan(lie, root)
    assert not rep.passed


def test_is_cartan_one_element_certifies_sl2():
    # g(k, k) is a 3-dimensional form of sl2; ad of a basis element has rank 2
    L = magic.magic_g(compose.s1(), compose.s1()).lie
    assert L.dim == 3
    for i in range(3):
        rep = magic.is_cartan(L, [{i: ONE}])
        assert rep.details["self_normalizing"] == {"method": "centralizer",
                                                   "rank": 2}


def test_is_cartan_certifies_a_non_regular_basis_by_the_centralizer_rank():
    # a basis of the f4 Cartan subalgebra whose sum h_0 + 1009 h_1 + ... is
    # the non-regular e_0 + e_2 (ad rank 40); the centralizer rank needs no
    # regular element and proves N(h) = h in one step
    _, gr = magic.induced("f4_z3_3")
    lie = gr.algebra
    comps = gr.components()
    e = [{i: ONE} for i in comps[(0, 0, 1)] + comps[(0, 0, 2)]]
    h = [combination((1, e[0]), (-1, e[1]), (-1, e[3]))]
    h += [combination((Scalar(1, 0, 1009 ** i), e[i])) for i in (1, 2, 3)]
    rep = magic.is_cartan(lie, h)
    assert rep.passed
    assert rep.details["self_normalizing"] == {"method": "centralizer",
                                               "rank": 48}


def test_squarefree_certificate_of_a_degree_49_minimal_polynomial(monkeypatch):
    # the non-regular element above, h_0 - 1009 e_1 - 1009^2 e_2 - 1009^3 e_3:
    # coefficients of up to 417 digits, on which the exact Euclid is slow
    _, gr = magic.induced("f4_z3_3")
    lie = gr.algebra
    comps = gr.components()
    e = [{i: ONE} for i in comps[(0, 0, 1)] + comps[(0, 0, 2)]]
    x = combination((1, e[0]), (-1, e[1]), (-1, e[3]))
    for i in (1, 2, 3):
        x = combination((1, x), (-sc(1009 ** i), e[i]))
    mp = magic.adjoint_minimal_polynomial(lie, x)
    assert mp.degree() == 49
    assert max(len(str(c.p)) for c in mp.coeffs) == 417

    def no_euclid(a, b):
        raise AssertionError("the modular certificate should decide")

    monkeypatch.setattr(exact, "poly_gcd", no_euclid)
    assert is_squarefree(mp)


def test_is_cartan_names_the_normalizer_of_a_dempwolff_component_minus_one():
    # 7 of the 8 elements of a Cartan subalgebra are toral and independent,
    # but their normalizer is the whole 8-dimensional component
    mag8, gr8 = e8_pair()
    L = mag8.lie
    comps = magic.e8_dempwolff(gr8).components()
    h = [{i: ONE} for i in comps[(0, 1, 0, 0, 0)]]
    assert magic.is_cartan(L, h).passed
    for drop in range(8):
        rep = magic.is_cartan(L, h[:drop] + h[drop + 1:])
        assert not rep.passed
        assert rep.details == {"stage": "self-normalizing", "normalizer_dim": 8}
        assert rep.witness == 8


def test_jordan_grading_check_names_a_component_that_is_not_cartan():
    # the f4 Z3^3 grading is Jordan by pairs g_mu + g_-mu, not by components
    _, gr = magic.induced("f4_z3_3")
    lie = gr.algebra
    rep = magic.jordan_grading_check(lie, gr, cartan_mode="components")
    assert not rep.passed
    assert rep.details == {"stage": "component cartan",
                           "inner": {"stage": "self-normalizing",
                                     "normalizer_dim": 4}}
    assert rep.witness == (0, 0, 1)


def test_iota_adjoint_annihilator():
    # ad of iota_i(a x x) with n(a) = n'(x) = 1 satisfies X(X^2+4)(X^2+1)
    mag8, _ = e8_pair()
    lie = mag8.lie
    a_idx = 0                      # the tower unit has norm 1
    el = {mag8.iota_index(0, a_idx, a_idx): ONE}
    mp = magic.adjoint_minimal_polynomial(lie, el)
    annihilator = X() * (X(2) + C(4)) * (X(2) + C(1))
    assert annihilator % mp == Polynomial([])
    assert is_squarefree(mp)


def test_nilpotent_element_not_toral():
    mag = f4_mag()
    lie = mag.lie
    # iota_0(1 x u1) with isotropic u1: cube of ad vanishes
    el = {mag.iota_index(0, 0, 2): ONE}
    rep = magic.is_toral(lie, [el])
    assert not rep.passed
    mp = magic.adjoint_minimal_polynomial(lie, el)
    assert str(mp).startswith("X")
    assert not is_squarefree(mp)


def test_jordan_grading_check_rejects_unequal_dims():
    mag8, gr8 = e8_pair()
    rep = magic.jordan_grading_check(mag8.lie, gr8, cartan_mode="pairs")
    assert not rep.passed
    assert rep.details["stage"] in ("equal dimensions", "g_0 = 0")


# the blockwise change of basis e_{c_r} -> u_j = sum_r w^{-rj} e_{c_r} of a cycle
OMEGA_BLOCK = Matrix([[ONE, ONE, ONE], [ONE, OMEGA2, OMEGA], [ONE, OMEGA, OMEGA2]])


def _theta_rebase_inputs():
    """(L, cycles, exponents) of theta-refined tables the rebase accepts:
    two Z3^3-graded f4 algebras on the iota basis, and an Albert algebra."""
    for params in ((1, 1), (2, 3)):
        mag, gr = magic.graded_magic(
            magic.graded_side(compose.s1(), ternary=True),
            magic.graded_side(*magic.graded_okubo(params), True), True, "f4", "z3^3")
        yield mag.lie, magic._iota_cycles(mag), [deg[-1] for deg in gr.degrees]
    A = magic.albert(okubo11())
    cycles = [(0, 1, 2)] + [tuple(A.iota_index(i, a) for i in range(3))
                            for a in range(8)]
    yield A.jordan, cycles, [0, 1, 2] + [i for i in range(3) for _ in range(8)]


def test_rebase_blockwise_preserves_brackets():
    for L, cycles, exponents in _theta_rebase_inputs():
        rebased = magic.rebase_blockwise(L, cycles, exponents)
        check = verify_jordan if L.name.startswith("albert") else verify_lie
        assert check(rebased).passed
        # theta-eigenvectors of exponents e_i, e_j multiply to exponent e_i + e_j
        for (i, j), vec in rebased.products.items():
            assert {exponents[k] for k in vec} == {(exponents[i] + exponents[j]) % 3}


def test_rebase_blockwise_matches_a_dense_change_of_basis():
    # oracle: P^-1 [P e_i, P e_j] in Scalar arithmetic, P the blockwise basis
    for L, cycles, exponents in _theta_rebase_inputs():
        P = Matrix.identity(L.dim)
        for indices in cycles:
            for r, i in enumerate(indices):
                for c, j in enumerate(indices):
                    P.data[i][j] = OMEGA_BLOCK.data[r][c]
        P_inv, cols = _dense_inverse(P), P.sparse_cols()
        rebased = magic.rebase_blockwise(L, cycles, exponents)
        for i in range(L.dim):
            for j in range(L.dim):
                out = L.multiply_sparse(cols[i], cols[j])
                want = mat_vec(P_inv, [out.get(k, ZERO) for k in range(L.dim)])
                assert rebased.product(i, j) == {k: c for k, c in enumerate(want)
                                                 if not c.is_zero()}


def test_rebase_blockwise_names_a_planted_product():
    L, cycles, exponents = next(_theta_rebase_inputs())
    i, j = 31, 41   # iota_0(1 x e3), iota_1(1 x e5): the first pair of its theta orbit
    products = {ij: dict(vec) for ij, vec in L.products.items()}
    wrong = dict(products.get((i, j), {}))
    wrong[0] = wrong.get(0, ZERO) + ONE
    products[(i, j)] = wrong
    products[(j, i)] = {k: -c for k, c in wrong.items()}
    planted = Algebra(L.dim, L.name, products)
    with pytest.raises(magic.IncompatibleInputs, match=r"\(31, 41\)"):
        magic.rebase_blockwise(planted, cycles, exponents)


def test_rebase_blockwise_rejects_bad_theta_data():
    L, cycles, exponents = next(_theta_rebase_inputs())
    with pytest.raises(magic.IncompatibleInputs):
        magic.rebase_blockwise(L, cycles, exponents[:-1])
    with pytest.raises(magic.IncompatibleInputs):   # u_0 given exponent 1
        magic.rebase_blockwise(L, [cycles[0][::-1]] + cycles[1:], exponents)


def test_rebase_blockwise_rejects_a_table_neither_symmetric_nor_antisymmetric():
    # theta is the identity here, so only the sign check can fail
    A = Algebra(2, "lopsided", {(0, 1): {0: ONE}, (1, 0): {1: ONE}})
    with pytest.raises(magic.IncompatibleInputs, match=r"neither.*\(0, 1\)"):
        magic.rebase_blockwise(A, [], [0, 0])


def test_e6_dimension_and_types():
    _, gr = magic.induced("e6_z3_3")
    lie = gr.algebra
    assert lie.dim == 78
    assert verify_grading(gr).passed
    assert grading_type(gr) == (0, 0, 26)


def test_graded_tri_zero_component_empty():
    PC, gr = magic.graded_para_cayley()
    degrees, _ = magic.graded_tri_basis(PC, gr, theta_refine=False)
    degs = Counter(degrees)
    assert degs.get((0, 0, 0), 0) == 0
    assert sum(degs.values()) == 28
    assert set(degs.values()) == {4}


@pytest.mark.parametrize("build", [lambda: (compose.s2(1), compose.s2(2)),
                                   lambda: (compose.s1(), para_split())],
                         ids=["S2(1),S2(2)", "k,para-split-cayley"])
def test_graded_magic_of_trivial_sides_is_the_z2x2_grading(build):
    S, Sp = build()
    mag, gr = magic.graded_magic(magic.graded_side(S), magic.graded_side(Sp),
                                 False, "g", "z2^2")
    want = magic.magic_g(S, Sp).z22
    assert gr.algebra is mag.lie
    assert gr.group == want.group
    assert gr.degrees == want.degrees


def test_theta_cycles_iota_blocks_on_e8():
    mag8, _ = e8_pair()
    lie = mag8.lie
    th = magic.theta_columns(mag8)
    assert len(th) == lie.dim
    for i in range(3):
        for a, b in ((0, 0), (3, 5)):
            img = th[mag8.iota_index(i, a, b)]
            assert img == {mag8.iota_index((i + 1) % 3, a, b): ONE}
    # tri block is preserved
    for r in range(mag8.nt + mag8.ntp):
        assert all(x < mag8.nt + mag8.ntp for x in th[r])


def test_phi_tri_images_have_degree_zero():
    # images of triality triples preserve each component of the natural
    # Z2 x Z2 grading of the Jordan algebra
    A = albert_para()
    mag = f4_mag()
    blocks = [list(range(3))] + [[A.iota_index(i, a) for a in range(8)]
                                 for i in range(3)]
    which = {}
    for bi, idxs in enumerate(blocks):
        for i in idxs:
            which[i] = bi
    for r in range(mag.nt, mag.nt + mag.ntp):
        cols = magic._phi_image(mag, A, r)
        assert len(cols) == 27
        for c, col in enumerate(cols):
            for row in col:
                assert which[row] == which[c]


def test_phi_names_the_first_pair_a_mixed_image_breaks(monkeypatch):
    # phi(e_32) + phi(e_40) in place of phi(e_32): the images stay independent
    # derivations, but phi is no longer a homomorphism.  e_32 is no generator
    # of g and no bracket of two generators involves it, so only pairs of a
    # generator and a non-generator can see the defect, and the first failing
    # pair in order is found by the full rescan.
    S, A, mag = para_split(), albert_para(), f4_mag()
    L = mag.lie
    G = generating_set(L)
    assert 32 not in G and all(32 not in L.product(a, b) for a in G for b in G)
    intact = magic._phi_image
    monkeypatch.setattr(magic, "_phi_image", lambda m, a, r: _add(
        intact(m, a, r), intact(m, a, 40)) if r == 32 else intact(m, a, r))
    rep = magic.phi_isomorphism(S, mag=mag, A=A)
    assert not rep.passed and rep.details == {"stage": "lie homomorphism"}
    assert rep.witness == (0, 32)


def _add(a, b):
    """The columns of a + b, a and b given by their sparse columns."""
    out = [dict(col) for col in a]
    for acc, col in zip(out, b):
        vec_add_scaled(acc, ONE, col)
    return out


def _counting_leibniz_rows(monkeypatch, keep=lambda index, row: True):
    """Patch magic.leibniz_rows to yield the rows that keep accepts and to
    count the rows read; returns the one-element count list."""
    read = [0]
    intact = magic.leibniz_rows

    def rows(A, index, *rest):
        for row in intact(A, index, *rest):
            read[0] += 1
            if keep(index, row):
                yield row
    monkeypatch.setattr(magic, "leibniz_rows", rows)
    return read


def test_phi_derivation_bound_reads_the_rows_lazily(monkeypatch):
    # the echelon reaches rank 27^2 - 52 = 677 after 5,913 of the 14,157 rows
    read = _counting_leibniz_rows(monkeypatch)
    rep = magic.phi_isomorphism(para_split(), mag=f4_mag(), A=albert_para())
    assert rep.passed and rep.details == {"dim": 52}
    assert 0 < read[0] <= 5913


def test_phi_names_the_derivation_dimension_of_a_short_system(monkeypatch):
    # Dropping the rows of any one product pair is no defect: the other
    # pairs' Leibniz rows still have rank 677.  Without every row that
    # constrains the entry (3, 5) of d, that entry is free, and the rows run
    # out at rank 676.
    _counting_leibniz_rows(monkeypatch, lambda index, row: index[(3, 5)] not in row)
    rep = magic.phi_isomorphism(para_split(), mag=f4_mag(), A=albert_para())
    assert not rep.passed and rep.details == {"stage": "derivation dimension"}
    assert rep.witness == 53


def test_tricontext_rejects_dependent_basis():
    S = para_split()
    ts = magic.tri(S)
    dup = ts[:3] + [ts[0]]
    with pytest.raises(magic.IncompatibleInputs):
        magic.TriContext(S, dup)


def test_lie_algebra_on_matrices_rejects_bad_lists():
    ders = derivation_algebra(para_split())
    with pytest.raises(magic.IncompatibleInputs, match="dependent"):
        magic.lie_algebra_on_matrices(ders[:2] + [_add(ders[0], ders[1])], "dep")
    # [E12, E21] = E11 - E22 lies outside the span of E12 and E21
    e12, e21 = [{}, {0: ONE}], [{1: ONE}, {}]
    with pytest.raises(magic.IncompatibleInputs, match="outside the span"):
        magic.lie_algebra_on_matrices([e12, e21], "open")
    L = magic.lie_algebra_on_matrices([e12, e21, [{0: ONE}, {1: -ONE}]], "sl2")
    assert L.product(0, 1) == {2: ONE} and verify_lie(L).passed


def test_derivations_graded_trivially_graded_is_der(monkeypatch):
    PC, _ = magic.graded_para_cayley()
    trivial = Grading(PC, AbelianGroup(0, ()), ((),) * 8)
    seen = []
    build = magic.lie_algebra_on_matrices

    def capture(mats, name):
        seen.extend(mats)
        return build(mats, name)

    monkeypatch.setattr(magic, "lie_algebra_on_matrices", capture)
    L, gr = magic.derivations_graded(PC, trivial)
    # with one component both are the reduced-echelon kernel basis of the
    # same Leibniz rows, so they agree matrix by matrix
    assert L.dim == 14 and seen == derivation_algebra(PC)
    assert grading_type(gr) == (0,) * 13 + (1,)


def test_lie_automorphism_names_a_doubled_column():
    mag = f4_mag()
    th = magic.theta_columns(mag)
    th[30] = {r: c * sc(2) for r, c in th[30].items()}
    rep = magic.is_lie_automorphism(mag.lie, th)
    assert not rep.passed and rep.witness == (2, 28)


def test_f4_z3_3_generic_parameters():
    _, gr = magic.graded_magic(magic.graded_side(compose.s1(), ternary=True),
                               magic.graded_side(*magic.graded_okubo((2, 3)), True),
                               True, "f4", "z3^3")
    lie = gr.algebra
    assert lie.dim == 52
    assert verify_grading(gr).passed
    assert grading_type(gr) == (0, 26)


def test_verify_lie_names_a_corrupted_structure_constant():
    L = e8_pair()[0].lie
    i, j = 0, 1
    vec = dict(L.product(i, j))
    vec[2] = vec.get(2, ZERO) + ONE
    products = {ij: dict(v) for ij, v in L.products.items()}
    products[(i, j)] = vec
    products[(j, i)] = {k: -v for k, v in vec.items()}
    rep = verify_lie(Algebra(L.dim, "corrupted", products))
    assert not rep.passed
    assert rep.details == {"identity": "jacobi"}
    assert rep.witness == (0, 1, 4)


def test_magic_dimensions_builds_f4_once(monkeypatch):
    # g(k,S8) is the cached f4_mag() that the theta claims use too
    f4_mag.cache_clear()
    e8_pair.cache_clear()
    calls = []
    magic_g = magic.magic_g
    monkeypatch.setattr(magic, "magic_g", lambda *a, **k: calls.append(a) or magic_g(*a, **k))
    assert scenarios.scenario_magic_dimensions().passed
    assert len(calls) == 5


@pytest.mark.parametrize("build, dim, gens, triples", [
    (lambda: magic.magic_g(compose.s1(), para_split()), 52, 5, 5885),
    (lambda: magic.magic_g(compose.s2(1), okubo11()), 78, 7, 18921),
    (lambda: e8_pair()[0], 248, 8, 236216),
])
def test_verify_lie_certificate_from_generators(build, dim, gens, triples):
    L = build().lie
    G = generating_set(L)
    assert (L.dim, len(G)) == (dim, gens)
    assert ad_closure_rank(L, G) == dim
    # pruned: no generator can be dropped
    assert all(ad_closure_rank(L, [h for h in G if h != g]) < dim for g in G)
    # each triple that contains a generator is scanned once
    assert triples == math.comb(dim, 3) - math.comb(dim - gens, 3)
    rep = verify_lie(L)
    assert rep.passed
    assert rep.details == {"dim": dim, "generators": gens, "triples": triples}


def test_closure_certificate_refuses_the_tri_block(monkeypatch):
    mag = magic.magic_g(compose.s1(), para_split())
    L = mag.lie
    tri = tuple(range(mag.nt + mag.ntp))
    # tri(S) + tri(S') is a subalgebra, so its ad-closure stops there
    assert ad_closure_rank(L, tri) == 28 < L.dim
    monkeypatch.setattr(algebra, "generating_set", lambda _: tri)
    rep = verify_lie(L)
    assert rep.passed and rep.details == {"dim": 52, "triples": 22100}


def test_triality_scan_names_a_corrupted_triple(monkeypatch):
    intact = magic.t_xy
    for S in (para_split(), okubo11()):
        assert magic.triality_bracket_failures(S) == []
        pair = ({2: ONE}, {5: ONE})

        def corrupted(S_, x, y):
            t = intact(S_, x, y)
            if (x, y) != pair:
                return t
            entries = dict(t.entries)
            k = 64 + 0 * 8 + 3  # entry (0, 3) of d1
            entries[k] = entries.get(k, ZERO) + ONE
            return magic.TriElement(t.d, entries)

        monkeypatch.setattr(magic, "t_xy", corrupted)
        bad = magic.triality_bracket_failures(S)
        monkeypatch.setattr(magic, "t_xy", intact)
        assert bad
        # each failure uses t_{2,5} on the left or, through sigma, on the right
        assert all((2, 5) in ((a, b), (x, y), (b, y), (a, y), (x, b), (x, a))
                   for a, b, x, y in bad)
        assert any((2, 5) in ((a, b), (x, y)) for a, b, x, y in bad)


def _counted_scan(S):
    """triality_bracket_failures(S) and the number of quadruples it read."""
    intact, seen = magic._bracket_breaks, []

    def counting(*args):
        seen.append(args[-4:])
        return intact(*args)

    with mock.patch.object(magic, "_bracket_breaks", counting):
        return magic.triality_bracket_failures(S), len(seen)


def _t_plus(S, shifts, entry):
    """magic.t_xy with shifts[(u, v)] added to the flat entry of t_{u,v}."""
    intact = magic.t_xy

    def shifted(S_, x, y):
        t = intact(S_, x, y)
        for (u, v), delta in shifts.items():
            if (x, y) == ({u: ONE}, {v: ONE}):
                entries = dict(t.entries)
                entries[entry] = entries.get(entry, ZERO) + delta
                return magic.TriElement(t.d, {k: c for k, c in entries.items()
                                              if c.p or c.q})
        return t

    return shifted


def test_intact_triality_scan_reads_378_quadruples():
    for S in (para_split(), okubo11()):
        assert _counted_scan(S) == ([], 378)


@settings(max_examples=6, deadline=None)
@given(st.sampled_from([para_split, okubo11]), st.integers(0, 7),
       st.integers(1, 7), st.integers(0, 3 * 64 - 1),
       st.sampled_from([ONE, OMEGA, Scalar(1, 0, 2)]))
def test_reduced_triality_scan_agrees_with_the_oracle(algebra_of, a, k, entry,
                                                      delta):
    S, b = algebra_of(), (a + k) % 8
    # t_{a,b} alone: t_{b,a} = -t_{a,b} fails, so the 4096 are read at once
    with mock.patch.object(magic, "t_xy", _t_plus(S, {(a, b): delta}, entry)):
        assert _counted_scan(S) == (oracles.triality_bracket_failures(S), 4096)
    # t_{a,b} + delta and t_{b,a} - delta: the 378 quadruples catch it
    with mock.patch.object(magic, "t_xy",
                           _t_plus(S, {(a, b): delta, (b, a): -delta}, entry)):
        bad, seen = _counted_scan(S)
        assert bad and bad == oracles.triality_bracket_failures(S)
    assert seen == 378 + 4096
    # n(a, b) != n(b, a): the polar check fails, so the 4096 are read at once
    polar = dict(S.polar)
    polar[(a, b)] = polar.get((a, b), ZERO) + delta
    T = Algebra(S.dim, S.name, {ij: dict(v) for ij, v in S.products.items()},
                polar=polar)
    assert _counted_scan(T) == (oracles.triality_bracket_failures(T), 4096)


def test_theta_eigenspace_dims_okubo_case():
    mag = magic.magic_g(compose.s1(), okubo11())
    dims = magic.theta_eigenspace_dims(mag)
    assert sum(dims) == 52
    # the fixed subalgebra is tri's derivation part (8) plus one iota diagonal
    assert dims[0] == 16


def test_d4_dempwolff_from_binary_grading():
    # collapsing the theta coordinate of the (14,7) grading leaves the
    # Z2^3-grading of the 28-dimensional orthogonal algebra: zero component
    # trivial and all seven components Cartan of dimension 4
    from forge.grading import AbelianGroup, GroupHom, coarsen
    PC, grPC = magic.graded_para_cayley()
    L, grL, _ = magic.orthogonal_graded(PC, grPC)
    src = grL.group
    tgt = AbelianGroup(0, (2, 2, 2))
    images = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)]
    hom = GroupHom(src, tgt, tuple(images))
    gr = coarsen(grL, hom)
    assert verify_grading(gr).passed
    assert grading_type(gr) == (0, 0, 0, 7)
    rep = magic.jordan_grading_check(L, gr, cartan_mode="components")
    assert rep.passed
    assert rep.details == {"components": 7, "component_dim": 4}


def test_o8_okubo_coarse_grading_with_cartan_zero_part():
    # dropping the theta coordinate of the (24,2) grading gives the
    # Z3^2-grading of type (0,0,8,1) whose zero component is a Cartan
    # subalgebra
    from forge.grading import AbelianGroup, GroupHom, coarsen
    O, grO = magic.graded_okubo()
    L, grL, _ = magic.orthogonal_graded(O, grO)
    tgt = AbelianGroup(0, (3, 3))
    hom = GroupHom(grL.group, tgt, ((1, 0), (0, 1), (0, 0)))
    gr = coarsen(grL, hom)
    assert verify_grading(gr).passed
    assert grading_type(gr) == (0, 0, 8, 1)
    zero = [{i: ONE} for i, d in enumerate(gr.degrees)
            if d == (0, 0)]
    assert len(zero) == 4
    assert magic.is_cartan(L, zero).passed


def test_theta_eigenvalue_grading_by_coarsening():
    # the eigenspaces of the order-3 automorphism grade the algebra over Z3;
    # they appear as the theta coordinate of the ternary fine grading
    from forge.grading import AbelianGroup, GroupHom, coarsen
    _, gr = magic.induced("f4_z3_3")
    tgt = AbelianGroup(0, (3,))
    hom = GroupHom(gr.group, tgt, ((0,), (0,), (1,)))
    grj = coarsen(gr, hom)
    assert verify_grading(grj).passed
    comps = {d: len(v) for d, v in grj.components().items()}
    assert comps == {(0,): 16, (1,): 18, (2,): 18}
    mag = magic.magic_g(compose.s1(), okubo11())
    assert magic.theta_eigenspace_dims(mag) == (16, 18, 18)
