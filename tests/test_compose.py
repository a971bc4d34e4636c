import pytest

from forge import compose
from forge.algebra import (find_unity, multiplicative_failure, verify_composition,
                           verify_symmetric)
from forge.exact import MINUS_ONE, OMEGA, ONE, ZERO, Scalar, sc
from forge.grading import okubo_grading
from forge.linalg import Matrix
from forge.scenarios import okubo11, para_split, petersson_nst, split_cayley
from oracles import commutative_center, dense, mat_vec, polar_matrix


def test_split_cayley_spot_products():
    C = split_cayley()
    lab = {n: i for i, n in enumerate(compose.CAYLEY_LABELS)}

    def prod(a, b):
        return C.basis_element(lab[a]) * C.basis_element(lab[b])

    assert prod("u2", "u3") == C.basis_element(lab["v1"])
    assert prod("v3", "v1") == C.basis_element(lab["u2"])
    assert prod("e1", "u1") == C.basis_element(lab["u1"])


def test_cd_tower():
    A = compose.cd_tower(1, 1, 1)
    assert A.dim == 8
    assert verify_composition(A).passed
    B = compose.cd_tower(1)
    D = compose.cd_double(B, sc(7))
    u = D.basis_element(2)                 # the doubling generator
    assert (u * u) == D.element([7, 0, 0, 0])
    assert D.norm_sparse(u.sparse()) == sc(-7)


def test_cd_double_rejects():
    with pytest.raises(compose.ZeroScalar):
        compose.cd_double(compose.ground_field(), 0)
    with pytest.raises(compose.NotHurwitz):
        compose.cd_double(compose.okubo(1, 1), 1)    # no unity


def test_conjugation_properties():
    C = split_cayley()
    conj = dense(compose.conjugation(C))
    e = find_unity(C)
    # conj(1) = 1, conj(e1) = e2, conj(u1) = -u1
    assert mat_vec(conj, e.coords) == list(e.coords)
    assert conj.data[1][0] == ONE and conj.data[0][0].is_zero()
    assert conj.data[2][2] == MINUS_ONE
    assert conj * conj == Matrix.identity(8)
    for i in range(8):
        x = C.basis_element(i)
        xbar = C.element(mat_vec(conj, x.coords))
        t = C.polar_pair_sparse(x.sparse(), e.sparse())
        assert x + xbar == e.scale(t)
    # x xbar = n(x) 1 linearized on basis pairs: x ybar + y xbar = n(x,y) 1
    for i in range(8):
        for j in range(8):
            x, y = C.basis_element(i), C.basis_element(j)
            xbar = C.element(mat_vec(conj, x.coords))
            ybar = C.element(mat_vec(conj, y.coords))
            lhs = x * ybar + y * xbar
            n = C.polar_pair_sparse(x.sparse(), y.sparse())
            assert lhs == e.scale(n)


def test_para_hurwitz():
    P = para_split()
    assert (P.basis_element(0) * P.basis_element(0)) == P.basis_element(1)
    e = find_unity(split_cayley())
    epar = P.element(e.coords)
    for i in range(8):
        x = P.basis_element(i)
        n = P.polar_pair_sparse(epar.sparse(), x.sparse())
        assert epar * x == epar.scale(n) - x
        assert x * epar == epar.scale(n) - x
    center = commutative_center(P)
    assert len(center) == 1


def test_tau_automorphisms():
    C = split_cayley()
    st = dense(compose.tau_automorphism("st"))
    assert mat_vec(st, [ZERO] * 4 + [ONE] + [ZERO] * 3)[2] == ONE  # u3 -> u1
    nst = dense(compose.tau_automorphism("nst"))
    v1img = [nst.data[r][5] for r in range(8)]
    assert v1img[5] == MINUS_ONE and v1img[6] == ONE            # v1 -> -v1+v2
    om = dense(compose.tau_automorphism("omega"))
    assert om.data[6][6] == OMEGA                               # v2 -> w v2
    for tau in (st, nst, om):
        assert tau * tau * tau == Matrix.identity(8)
        assert tau != Matrix.identity(8)
        compose.petersson(C, tau.sparse_cols())                 # validates


def test_petersson_identity_is_para():
    C = split_cayley()
    P = compose.petersson(C, [{j: ONE} for j in range(8)])
    assert P.products == para_split().products


def test_petersson_rejects_non_automorphism():
    C = split_cayley()
    bad = [{j: ONE} for j in range(8)]
    bad[2] = {2: sc(2)}
    with pytest.raises((compose.NotAutomorphism, compose.NotOrderDividing3)):
        compose.petersson(C, bad)


def test_petersson_rejects_an_automorphism_of_order_2():
    # diag(1, 1, -1, -1, 1, -1, -1, 1) is multiplicative, and its cube is
    # itself, not the identity
    C = split_cayley()
    signs = (1, 1, -1, -1, 1, -1, -1, 1)
    tau = [{j: sc(s)} for j, s in enumerate(signs)]
    assert multiplicative_failure(C, C, tau) is None
    with pytest.raises(compose.NotOrderDividing3):
        compose.petersson(C, tau)


def test_check_automorphism_names_the_pair_of_a_doubled_column():
    C = split_cayley()
    tau = compose.tau_automorphism("st")
    compose._check_automorphism(C, tau)
    tau[2] = {r: sc(2) * v for r, v in tau[2].items()}   # u1 -> 2 u2
    with pytest.raises(compose.NotAutomorphism) as err:
        compose._check_automorphism(C, tau)
    assert "(2,3)" in str(err.value)           # u1 u2 = v3 -> v1, not 2 v1
    with pytest.raises(compose.NotAutomorphism):
        compose.petersson(C, tau)


def test_morphism_guards_reject_planted_maps():
    O = compose.okubo(1, 1)
    double = compose.AlgebraMorphism(O, O, [{j: sc(2)} for j in range(8)])
    assert double.is_invertible() and not double.is_multiplicative()
    flat = compose.AlgebraMorphism(O, O, [{j: ONE} for j in range(7)] + [{}])
    assert not flat.is_invertible()


def test_petersson_nst_product():
    P = petersson_nst()
    s = P.element([1, 1, 0, 0, 0, 0, 0, 0])
    assert s * P.basis_element(5) == P.basis_element(6)   # (e1+e2)*v1 = v2


def test_okubo_rejects_zero_parameters():
    with pytest.raises(compose.ZeroParameter):
        compose.okubo(0, 1)
    with pytest.raises(compose.ZeroParameter):
        compose.okubo(1, 0)


def test_okubo_polar_derived_from_defining_identity():
    # oracle for the frozen polar constants: solve the linearization
    # (x*y)*z + (z*y)*x = n(x,z) y for the pairing matrix entries
    O = compose.okubo(sc(2), sc(3))
    d = O.dim
    derived = Matrix.zero(d, d)
    for i in range(d):
        for k in range(d):
            # pick j = i; the identity forces the value directly
            vals = set()
            for j in range(d):
                lhs = O.multiply_sparse(O.product(i, j), {k: ONE})
                for m, c in O.multiply_sparse(O.product(k, j), {i: ONE}).items():
                    cur = lhs.get(m, ZERO) + c
                    if cur.p or cur.q:
                        lhs[m] = cur
                    elif m in lhs:
                        del lhs[m]
                # lhs must be n(e_i, e_k) e_j: no support off j, value
                # independent of j
                other = {m for m in lhs if m != j}
                assert not other
                vals.add(lhs.get(j, ZERO))
            assert len(vals) == 1
            derived.data[i][k] = vals.pop()
    assert derived == polar_matrix(O)


def test_okubo_from_quaternion():
    S = compose.okubo_from_quaternion(sc(2), sc(3))
    assert verify_symmetric(S).passed
    assert commutative_center(S) == []
    gr = okubo_grading("z2", (3, 2))
    assert gr.algebra.to_text() == S.to_text()
    assert gr.degrees == tuple((d,) for d in (0, 0, 0, 0, 1, 1, 1, 1))


def test_s2_symmetric():
    S = compose.s2(sc(5))
    assert verify_symmetric(S).passed
    a, b = S.basis_element(0), S.basis_element(1)
    assert a * a == b
    assert b * b == a.scale(5)
    assert (a * b).is_zero() and (b * a).is_zero()


def test_complete_pair_examples():
    O = okubo11()
    y = compose.complete_okubo_pair(O, O.element([1, 0, 0, 0, 0, 0, 0, 0]))
    xy = O.multiply_sparse({0: ONE}, y.sparse())
    assert not xy
    P = petersson_nst()
    y = compose.complete_okubo_pair(P, P.basis_element(0))
    third = Scalar(1, 0, 3)
    assert y == P.element([0, 0, 1, 0, third, 0, 0, 0])   # u1 + u3/3
    with pytest.raises(compose.HypothesesFail):
        # e1 + e2 has nonzero norm
        compose.complete_okubo_pair(P, P.element([1, 1, 0, 0, 0, 0, 0, 0]))


def test_recognition_on_model():
    O = compose.okubo(sc(2), sc(3))
    x = O.element([-1, 0, 0, 0, 0, 0, 0, 0])
    y = O.element([0, 0, -1, 0, 0, 0, 0, 0])
    a, b, iso = compose.okubo_recognize(O, x, y)
    assert (a, b) == (sc(2), sc(3))
    assert dense(iso.columns) == Matrix.identity(8)
    assert iso.is_multiplicative() and iso.is_invertible()


def test_recognition_names_the_pair_of_a_corrupted_model_product(monkeypatch):
    okubo = compose.okubo

    def corrupted(alpha, beta):
        model = okubo(alpha, beta)
        # x(1,1) x(-1,1) = beta x(0,-1) becomes beta x(0,-1) + x(1,0)
        model.products[(4, 6)] = {3: sc(beta), 0: ONE}
        return model

    S = okubo(sc(2), sc(3))
    x = S.element([-1, 0, 0, 0, 0, 0, 0, 0])
    y = S.element([0, 0, -1, 0, 0, 0, 0, 0])
    monkeypatch.setattr(compose, "okubo", corrupted)
    with pytest.raises(compose.NotMultiplicative) as err:
        compose.okubo_recognize(S, x, y)
    assert err.value.pair == (4, 6)
    assert "(4,6)" in str(err.value)


def test_recognition_requires_xy_zero():
    O = okubo11()
    x = O.element([-1, 0, 0, 0, 0, 0, 0, 0])
    y = O.element([0, 0, 0, -1, 0, 0, 0, 0])     # x * x0-1 = x1-1 != 0
    with pytest.raises(compose.HypothesesFail):
        compose.okubo_recognize(O, x, y)


def test_alternating_trilinear_on_peirce_space():
    # (x, y, z) -> n(x, yz) on U = span{u1,u2,u3} is alternating and nonzero
    C = split_cayley()
    U = [C.basis_element(i) for i in (2, 3, 4)]
    vals = {}
    for i, x in enumerate(U):
        for j, y in enumerate(U):
            for k, z in enumerate(U):
                v = C.polar_pair_sparse(x.sparse(), (y * z).sparse())
                vals[(i, j, k)] = v
                if len({i, j, k}) < 3:
                    assert v.is_zero()
    assert any(not v.is_zero() for v in vals.values())
    assert vals[(0, 1, 2)] == -vals[(1, 0, 2)] == vals[(1, 2, 0)]


def test_complete_pair_on_omega_twist():
    # the omega twist has no valid partner on any coordinate plane of the
    # solution space; the three-term search stage finds u1 + u2 + u3
    P = compose.petersson(split_cayley(), compose.tau_automorphism("omega"))
    x = P.basis_element(0)
    y = compose.complete_okubo_pair(P, x)
    a, b, iso = compose.okubo_recognize(P, x, y)
    assert a == ONE
    assert not b.is_zero()
    assert iso.is_multiplicative() and iso.is_invertible()


def test_recognition_on_quaternion_presentation():
    S = compose.okubo_from_quaternion(1, 1)
    x = S.element([OMEGA, ONE, 0, 0, 0, 0, 0, 0])   # isotropic inside K
    y = compose.complete_okubo_pair(S, x)
    a, b, iso = compose.okubo_recognize(S, x, y)
    assert iso.is_multiplicative() and iso.is_invertible()
    assert not a.is_zero() and not b.is_zero()
