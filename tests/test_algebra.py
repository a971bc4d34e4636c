import gc
import tracemalloc
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from forge import algebra, compose, magic
from forge.algebra import (Algebra, MissingForm,
                           algebra_from_text, derivation_algebra, find_unity,
                           left_columns, orthogonal_algebra,
                           subalgebra_generated, verify_composition,
                           verify_jordan, verify_lie, verify_symmetric)
from forge.exact import MINUS_ONE, OMEGA, ONE, ZERO, Scalar, sc
from forge.linalg import vec_add_scaled
from forge.scenarios import e8_pair, okubo11, para_split, split_cayley
import oracles
from oracles import (clear_denominators, commutative_center, commutator, dense,
                     first_jacobi_failure, matrix_in_span)


def test_multiply_examples():
    C = split_cayley()
    u1, v1 = {2: ONE}, {5: ONE}
    assert C.multiply_sparse(u1, v1).get(0) == MINUS_ONE     # u1 v1 = -e1
    assert not C.multiply_sparse({0: ONE}, {1: ONE})
    O = okubo11()
    x10 = {0: ONE}
    prod = O.multiply_sparse(x10, x10)
    assert prod == {1: MINUS_ONE}


def test_verify_composition():
    assert verify_composition(split_cayley()).passed
    assert verify_composition(okubo11()).passed
    broken = compose.split_cayley()
    vec = dict(broken.products[(2, 3)])              # u1 u2 = v3
    vec[7] = vec[7] + ONE
    broken.products[(2, 3)] = vec
    broken._cache.clear()
    rep = verify_composition(broken)
    assert not rep.passed and rep.witness is not None


def _composition_defect(A, i, j, k, l):
    """n(e_i e_j, e_k e_l) + n(e_k e_j, e_i e_l) - n(e_i, e_k) n(e_j, e_l)."""
    N = A.polar
    return (A.polar_pair_sparse(A.product(i, j), A.product(k, l))
            + A.polar_pair_sparse(A.product(k, j), A.product(i, l))
            - N.get((i, k), ZERO) * N.get((j, l), ZERO))


def test_verify_composition_names_a_corrupted_product():
    C = split_cayley()
    bad = _corrupted(C, 0, (2, 3))      # u1 u2 gains an e1 term
    rep = verify_composition(bad)
    assert not rep.passed
    i, j, k, l = rep.witness
    assert (2, 3) in ((i, j), (k, l), (k, j), (i, l))
    assert not _composition_defect(bad, *rep.witness).is_zero()
    assert _composition_defect(C, *rep.witness).is_zero()


def test_verify_composition_needs_form():
    A = Algebra(1, "bare", {(0, 0): {0: ONE}})
    with pytest.raises(MissingForm):
        verify_composition(A)


def test_verify_symmetric():
    assert verify_symmetric(para_split()).passed
    assert verify_symmetric(compose.okubo(2, 3)).passed
    rep = verify_symmetric(split_cayley())
    assert not rep.passed and isinstance(rep.witness, tuple)


def _corrupted(A, k, *pairs):
    """A copy of A with 1 added to coordinate k of each product in pairs."""
    products = {ij: dict(vec) for ij, vec in A.products.items()}
    for i, j in pairs:
        vec = dict(A.product(i, j))
        vec[k] = vec.get(k, ZERO) + ONE
        products[(i, j)] = vec
    return Algebra(A.dim, "corrupted", products, polar=A.polar)


def test_verify_symmetric_names_a_corrupted_structure_constant():
    bad = _corrupted(para_split(), 1, (2, 5))   # e2 e5 = -e0 becomes -e0 + e1
    rep = verify_symmetric(bad)
    assert not rep.passed and {2, 5} <= set(rep.witness)
    with pytest.raises(magic.NotSymmetricComposition):
        magic.tri(bad)


def _jordan_defect(J, i, j, k, l):
    """Sum over the x-slot pairs of ((e_a e_b) e_l) e_c - (e_a e_b)(e_l e_c)."""
    acc: dict = {}
    for a, b, c in ((i, j, k), (j, k, i), (i, k, j)):
        u = J.product(a, b)
        vec_add_scaled(acc, ONE, J.multiply_sparse(J.multiply_sparse(u, {l: ONE}),
                                                   {c: ONE}))
        vec_add_scaled(acc, MINUS_ONE, J.multiply_sparse(u, J.product(l, c)))
    return acc


def test_verify_jordan_names_a_corrupted_symmetric_pair():
    J = magic.albert(para_split()).jordan
    bad = _corrupted(J, 0, (3, 12), (12, 3))   # still commutative
    rep = verify_jordan(bad)
    assert not rep.passed
    assert rep.details == {"identity": "jordan linearized"}
    # the witness (i, j, k, l) breaks the polarized identity in bad only
    assert _jordan_defect(bad, *rep.witness) and not _jordan_defect(J, *rep.witness)


def _first_jordan_defect(J):
    """Lexicographically first multiset i <= j <= k, then first l, that breaks
    the polarized identity, by Scalar arithmetic; None if there is none."""
    d = J.dim
    for i in range(d):
        for j in range(i, d):
            for k in range(j, d):
                for l in range(d):
                    if _jordan_defect(J, i, j, k, l):
                        return i, j, k, l
    return None


@pytest.mark.parametrize("k, pair", [(0, (0, 1)), (5, (1, 2)), (3, (3, 3)),
                                     (2, (4, 5)), (1, (0, 5))])
def test_verify_jordan_witness_is_the_first_failing_quadruple(k, pair):
    # over Q, and over Q(w): the 9-dimensional table has w in it
    for S, dim in ((compose.s1(), 6), (compose.s2(OMEGA), 9)):
        J = magic.albert(S).jordan
        assert J.dim == dim and _first_jordan_defect(J) is None
        assert any(c.q for vec in J.products.values() for c in vec.values()) == (dim == 9)
        bad = _corrupted(J, k, *{pair, pair[::-1]})   # still commutative
        want = _first_jordan_defect(bad)
        assert want is not None
        rep = verify_jordan(bad)
        assert not rep.passed and rep.details == {"identity": "jordan linearized"}
        assert rep.witness == want


def test_derivation_dimensions():
    assert len(derivation_algebra(para_split())) == 14
    assert len(derivation_algebra(okubo11())) == 8
    assert len(derivation_algebra(compose.ground_field())) == 0


def test_derivations_closed_and_skew():
    S = para_split()
    ders = derivation_algebra(S)
    skews = orthogonal_algebra(S)
    bracket = commutator(dense(ders[0]), dense(ders[1]))
    assert matrix_in_span(bracket.sparse_cols(), ders, S.dim)
    for d in ders[:4]:
        assert matrix_in_span(d, skews, S.dim)


def test_orthogonal_dimensions():
    assert len(orthogonal_algebra(split_cayley())) == 28
    assert len(orthogonal_algebra(compose.s2(1))) == 1
    assert len(orthogonal_algebra(compose.ground_field())) == 0


def test_subalgebra_generated():
    O = okubo11()
    sub = subalgebra_generated(O, [{0: ONE}])
    assert len(sub) == 2                              # span{x, x*x}
    assert len(subalgebra_generated(O, [])) == 0
    assert len(subalgebra_generated(O, [{i: ONE} for i in range(8)])) == 8
    again = subalgebra_generated(O, sub)
    assert again == sub


def test_commutative_center():
    S = para_split()
    center = commutative_center(S)
    assert len(center) == 1
    unit = find_unity(split_cayley())
    assert center[0] == unit or \
        {k: sc(-1) * c for k, c in center[0].items()} == unit
    assert commutative_center(okubo11()) == []
    comm = Algebra(2, "comm", {(0, 0): {0: ONE}, (0, 1): {1: ONE},
                               (1, 0): {1: ONE}})
    assert len(commutative_center(comm)) == 2


def test_verify_lie_on_matrix_commutators():
    from forge.magic import lie_algebra_on_matrices
    mats = [m for m in orthogonal_algebra(split_cayley())]
    L = lie_algebra_on_matrices(mats, "o8")
    assert L.dim == 28
    assert verify_lie(L).passed


def test_verify_lie_counterexample():
    # anticommutative but not Jacobi: [e0,e1]=e2, [e1,e2]=e0, [e2,e0]=e0
    bad = Algebra(3, "bad", {
        (0, 1): {2: ONE}, (1, 0): {2: MINUS_ONE},
        (1, 2): {0: ONE}, (2, 1): {0: MINUS_ONE},
        (2, 0): {0: ONE}, (0, 2): {0: MINUS_ONE},
    })
    rep = verify_lie(bad)
    assert not rep.passed and rep.witness == (0, 1, 2)


def test_sign_checks_name_the_first_pair():
    # symmetric on (0, 1), antisymmetric on (1, 2)
    A = Algebra(3, "mixed", {(0, 1): {2: ONE}, (1, 0): {2: ONE},
                             (1, 2): {0: ONE}, (2, 1): {0: MINUS_ONE}})
    assert algebra.sign_failure(A, -1) == (0, 1)
    assert algebra.sign_failure(A, 1) == (1, 2)
    rep = verify_lie(A)
    assert rep.details["identity"] == "[x,y]=-[y,x]" and rep.witness == (0, 1)
    rep = verify_jordan(A)
    assert rep.details["identity"] == "commutativity" and rep.witness == (1, 2)


def _sl2():
    # e0 = e, e1 = f, e2 = h: [e, f] = h, [h, e] = 2e, [h, f] = -2f
    two = sc(2)
    return Algebra(3, "sl2", {
        (0, 1): {2: ONE}, (1, 0): {2: MINUS_ONE},
        (2, 0): {0: two}, (0, 2): {0: -two},
        (2, 1): {1: -two}, (1, 2): {1: two},
    })


def _not_jacobi():
    # anticommutative but not Jacobi, as in test_verify_lie_counterexample
    return Algebra(3, "bad", {
        (0, 1): {2: ONE}, (1, 0): {2: MINUS_ONE},
        (1, 2): {0: ONE}, (2, 1): {0: MINUS_ONE},
        (2, 0): {0: ONE}, (0, 2): {0: MINUS_ONE},
    })


def _direct_sum(A, B):
    """A + B with [A, B] = 0; the basis of B follows that of A."""
    n = A.dim
    products = {ij: dict(vec) for ij, vec in A.products.items()}
    for (i, j), vec in B.products.items():
        products[(n + i, n + j)] = {n + k: c for k, c in vec.items()}
    return Algebra(n + B.dim, "sum", products)


@pytest.mark.parametrize("bad_first", [True, False])
def test_verify_lie_finds_the_defect_of_one_summand(monkeypatch, bad_first):
    lie = _sl2()
    assert verify_lie(lie).passed
    L = _direct_sum(_not_jacobi(), lie) if bad_first else _direct_sum(lie, _not_jacobi())
    off = 0 if bad_first else 3
    rep = verify_lie(L)
    assert not rep.passed and rep.witness == (off, off + 1, off + 2)
    # The generators of the Lie summand alone pass every triple that contains
    # one of them, but their ad-closure is that summand, so the certificate is
    # refused and the full scan names the defect.
    lie_gens = tuple(range(3 - off, 6 - off))
    assert algebra.ad_closure_rank(L, lie_gens) == 3
    monkeypatch.setattr(algebra, "generating_set", lambda _: lie_gens)
    rep = verify_lie(L)
    assert not rep.passed and rep.witness == (off, off + 1, off + 2)


def _solvable():
    # [x, y] = y, [x, z] = w z: a Lie algebra with a structure constant off Q
    return Algebra(3, "solvable", {(0, 1): {1: ONE}, (1, 0): {1: MINUS_ONE},
                                   (0, 2): {2: OMEGA}, (2, 0): {2: -OMEGA}})


_units = st.builds(Scalar, st.integers(-3, 3), st.integers(-3, 3),
                   st.integers(1, 3)).filter(lambda c: not c.is_zero())


@st.composite
def _anticommutative_tables(draw):
    """Small anticommutative algebras over Q(w): a sum of Lie algebras on a
    shuffled, rescaled basis, sometimes with one constant and its mirror
    shifted, or a random table."""
    if draw(st.integers(0, 3)) == 0:
        d = draw(st.integers(3, 5))
        index = st.integers(0, d - 1)
        products = {}
        for i in range(d):
            for j in range(i + 1, d):
                vec = draw(st.dictionaries(index, _units, max_size=2))
                products[(i, j)] = vec
                products[(j, i)] = {k: -c for k, c in vec.items()}
        return Algebra(d, "random", products)
    parts = draw(st.lists(st.sampled_from(
        [_sl2, _solvable, lambda: magic.magic_g(compose.s1(), compose.s2(1)).lie]),
        min_size=1, max_size=2))
    L = parts[0]()
    for part in parts[1:]:
        L = _direct_sum(L, part())
    d = L.dim
    perm = draw(st.permutations(range(d)))
    s = draw(st.lists(_units, min_size=d, max_size=d))
    # f_perm[i] = s_i e_i, so [f_perm[i], f_perm[j]] has c s_i s_j / s_k at f_perm[k]
    products = {(perm[i], perm[j]): {perm[k]: c * s[i] * s[j] / s[k]
                                     for k, c in vec.items()}
                for (i, j), vec in L.products.items()}
    if draw(st.booleans()):
        i, j, k = (draw(st.integers(0, d - 1)) for _ in range(3))
        shift = draw(_units)
        if i != j:
            for ij, c in (((i, j), shift), ((j, i), -shift)):
                vec = products.setdefault(ij, {})
                vec[k] = vec.get(k, ZERO) + c
    return Algebra(d, "shuffled", products)


@settings(max_examples=200, deadline=None)
@given(_anticommutative_tables(), st.data())
def test_verify_lie_names_the_first_failing_triple(L, data):
    want = first_jacobi_failure(L)
    subset = tuple(sorted(data.draw(st.sets(st.integers(0, L.dim - 1)))))
    reps = [verify_lie(L)]
    # any generator set: the certificate is kept only when its closure is L
    with patch.object(algebra, "generating_set", lambda _: subset):
        reps.append(verify_lie(L))
    for rep in reps:
        assert (rep.passed, rep.witness) == (want is None, want)
        if want is not None:
            assert rep.details == {"identity": "jacobi"}


def _plant(L, i, j, k, c):
    """A copy of L with c added to [e_i, e_j] at e_k and -c to [e_j, e_i]."""
    products = {ij: dict(vec) for ij, vec in L.products.items()}
    for ij, shift in (((i, j), c), ((j, i), -c)):
        vec = products.setdefault(ij, {})
        vec[k] = vec.get(k, ZERO) + shift
    return Algebra(L.dim, "planted", products)


def test_verify_lie_on_a_table_rescaled_by_scalars_up_to_1e40():
    L = _direct_sum(_direct_sum(_sl2(), _solvable()),
                    magic.magic_g(compose.s1(), compose.s2(1)).lie)
    d = L.dim
    # f_i = s_i e_i, s_i a rational up to 1e40, times w at odd i
    s = [Scalar(10 ** 40 - 7 * i, 0, 3 ** i + 1) * (OMEGA if i % 2 else ONE)
         for i in range(d)]
    big = Algebra(d, "rescaled", {(i, j): {k: c * s[i] * s[j] / s[k]
                                           for k, c in vec.items()}
                                  for (i, j), vec in L.products.items()})
    assert algebra.integer_table(L.products)[2] < 2 ** 40
    assert big.int_table()[2] > 2 ** 1000
    rep = verify_lie(big)
    assert rep.passed and rep.details["dim"] == d
    bad = _plant(big, 2, 7, 9, ONE)
    want = first_jacobi_failure(bad)
    assert want is not None
    rep = verify_lie(bad)
    assert not rep.passed and rep.details == {"identity": "jacobi"}
    assert rep.witness == want


def test_verify_lie_names_the_first_triple_of_a_planted_w_in_f4():
    f4 = magic.induced("f4_z3_3")[1].algebra
    assert f4.dim == 52
    assert any(c.q for vec in f4.products.values() for c in vec.values())
    # planted in the last product, so verify_lie first passes 1,332 triples
    # whose sums are nonzero ints that vanish mod P
    (i, j), vec = max((ij, vec) for ij, vec in f4.products.items() if ij[0] < ij[1])
    bad = _plant(f4, i, j, min(vec), OMEGA)
    want = first_jacobi_failure(bad)
    assert want is not None
    rep = verify_lie(bad)
    assert not rep.passed and rep.details == {"identity": "jacobi"}
    assert rep.witness == want


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("defect", ["denominator", "key", "product"])
def test_sign_failure_names_a_planted_defect(sign, defect):
    s, half, third = sc(sign), Scalar(1, 1, 2), Scalar(1, 1, 3)
    # (0, 1) matches; the defect sits at (1, 2)
    products = {(0, 1): {2: half, 0: ONE}, (1, 0): {2: s * half, 0: s},
                (1, 2): {0: half}, (2, 1): {0: s * half}}
    if defect == "denominator":
        products[(2, 1)] = {0: s * third}   # same p and q, d differs
    elif defect == "key":
        products[(1, 2)][1] = ONE
    else:
        del products[(2, 1)]
    A = Algebra(3, defect, products)
    assert algebra.sign_failure(A, sign) == oracles.sign_failure(A, sign) == (1, 2)
    assert algebra.sign_failure(A, -sign) == oracles.sign_failure(A, -sign) == (0, 1)


def test_verify_jordan_negative():
    assert not verify_jordan(split_cayley()).passed


def test_interchange_round_trip():
    for A in (split_cayley(), okubo11(), compose.okubo(sc(2), sc(3))):
        text = A.to_text()
        back = algebra_from_text(text)
        assert back.to_text() == text
        assert back.products == A.products
        assert back.polar == A.polar


def _scalar_objects(A):
    return {id(c) for vec in A.products.values() for c in vec.values()}


def _row_objects(A):
    return {id(vec) for vec in A.products.values()}


def _distinct_rows(A):
    """The distinct rows of A's table, keys in their order."""
    return {tuple(vec.items()) for vec in A.products.values()}


def test_table_holds_one_scalar_object_per_value():
    L = e8_pair()[0].lie
    assert sum(len(vec) for vec in L.products.values()) == 49440
    assert len(_scalar_objects(L)) == 8
    assert (len(L.products), len(_row_objects(L))) == (44064, 1088)
    back = algebra_from_text(L.to_text())
    assert len(_scalar_objects(back)) == 8
    assert (len(back.products), len(_row_objects(back))) == (44064, 1088)
    # equal constants given as distinct objects, ints and Scalars are merged
    A = Algebra(2, "a", {(0, 0): {0: Scalar(1, 0, 2), 1: 0},
                         (0, 1): {1: Scalar(2, 0, 4)}, (1, 0): {0: Scalar(1, 1, 2)},
                         (1, 1): {0: 3, 1: sc(3)}})
    assert len(_scalar_objects(A)) == 3
    assert A.products == {(0, 0): {0: Scalar(1, 0, 2)}, (0, 1): {1: Scalar(1, 0, 2)},
                          (1, 0): {0: Scalar(1, 1, 2)}, (1, 1): {0: sc(3), 1: sc(3)}}
    # the constructor keeps the caller's dicts; an emptied product is dropped
    half, third = Scalar(1, 0, 2), Scalar(1, 1, 3)
    products = {(0, 1): {0: half, 1: third}, (1, 0): {1: Scalar(2, 0, 4)},
                (1, 1): {0: ZERO}}
    inner = dict(products)
    A = Algebra(2, "b", products)
    assert A.products is products
    assert all(A.products[ij] is inner[ij] for ij in A.products)
    assert A.products == {(0, 1): {0: half, 1: third}, (1, 0): {1: half}}
    assert A.product(1, 0)[1] is half
    # one dict under two keys
    vec = {0: ONE, 1: 0}
    A = Algebra(2, "c", {(0, 1): vec, (1, 0): vec})
    assert A.product(0, 1) is A.product(1, 0) is vec and vec == {0: ONE}
    # equal rows become the first one given; the same keys in another order
    # make another row
    first, equal, reordered = {0: half, 1: ONE}, {0: Scalar(2, 0, 4), 1: 1}, {1: ONE, 0: half}
    A = Algebra(2, "d", {(0, 0): first, (0, 1): equal, (1, 0): reordered})
    assert A.product(0, 0) is A.product(0, 1) is first
    assert A.product(1, 0) is reordered and list(reordered) == [1, 0]


def test_integer_table_of_e8_shares_its_entries_and_products():
    _, T, _ = algebra.integer_table(e8_pair()[0].lie.products)
    rows = [row for Ti in T.values() for row in Ti.values()]
    assert (len(rows), sum(map(len, rows))) == (44064, 49440)
    assert len({id(e) for row in rows for e in row}) == 976
    assert len({id(row) for row in rows}) == 1088


_coeffs = st.builds(Scalar, st.integers(-7, 7), st.integers(-7, 7),
                    st.integers(1, 6))


@st.composite
def _sparse_algebras(draw):
    dim = draw(st.integers(1, 5))
    index = st.integers(0, dim - 1)
    products = draw(st.dictionaries(st.tuples(index, index),
                                    st.dictionaries(index, _coeffs, max_size=3),
                                    max_size=dim * dim))
    polar = None
    if draw(st.booleans()):
        polar = {}
        for (i, j), v in draw(st.dictionaries(st.tuples(index, index), _coeffs,
                                              max_size=dim * dim)).items():
            polar[(i, j)] = polar[(j, i)] = v
    # the constructor adopts the inner dicts it is given: hand it copies
    return products, Algebra(dim, "random", {ij: dict(vec) for ij, vec in products.items()},
                             polar=polar)


@settings(max_examples=60, deadline=None)
@given(_sparse_algebras())
def test_interchange_round_trip_of_random_sparse_algebras(case):
    products, A = case
    nonzero = {ij: {k: c for k, c in vec.items() if not c.is_zero()}
               for ij, vec in products.items()}
    assert A.products == {ij: vec for ij, vec in nonzero.items() if vec}
    text = A.to_text()
    back = algebra_from_text(text)
    assert back.to_text() == text
    assert back.products == A.products
    assert back.polar == A.polar or (not A.polar and back.polar is None)


def test_one_polar_line_costs_no_dense_form():
    # a dense form of this table would hold 2000 x 2000 entries (about 64 MB
    # of row lists); the sparse one holds the two entries of the one line
    text = "dim 2000 over Q(w)\npolar 0 1 1\n"
    tracemalloc.start()
    try:
        A = algebra_from_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert A.polar == {(0, 1): ONE, (1, 0): ONE}
    assert A.to_text() == text


@settings(max_examples=60, deadline=None)
@given(_sparse_algebras())
def test_integer_table_matches_cleared_denominators(case):
    _, A = case
    D, T, B = algebra.integer_table(A.products)
    D_want, scaled = clear_denominators(A.products)
    assert D == D_want
    # every code decodes to D * c, and over Q a code is p itself
    assert {(i, j): [(m, algebra.decode(n, B)) for m, n in row]
            for i, Ti in T.items() for j, row in Ti.items()} == \
        {ij: list(vec.items()) for ij, vec in scaled.items()}
    assert all(n == scaled[(i, j)][m][0] for i, Ti in T.items()
               for j, row in Ti.items() for m, n in row if not scaled[(i, j)][m][1])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 80), st.data())
def test_decode_inverts_the_code_below_half_of_b(k, data):
    B = 1 << k
    half = st.integers(-(B // 2) + 1, B // 2 - 1)
    p, q, t = data.draw(half), data.draw(half), data.draw(st.integers(-5, 5))
    assert algebra.decode(p + q * B + t * (B * B + B + 1), B) == (p, q)


def test_the_code_of_w_squared_plus_w_plus_one_counts_as_zero():
    D, T, B = algebra.integer_table({(0, 0): {0: ONE, 1: OMEGA, 2: OMEGA * OMEGA}})
    P = B * B + B + 1
    (_, one), (_, w), (_, w2) = T[0][0]
    assert (D, one, w) == (1, 1, B)
    assert w * w + w + one and (w * w + w + one) % P == 0
    assert (w * w - w2) % P == 0 and algebra.decode(w * w, B) == (-1, -1)


@settings(max_examples=100, deadline=None)
@given(_sparse_algebras(), st.sampled_from([1, -1]), st.booleans())
def test_sign_failure_matches_the_oracle(case, sign, mirror):
    _, A = case
    if mirror:
        # keep the products with i <= j and mirror them, so most pairs pass
        products = {(i, j): dict(vec) for (i, j), vec in A.products.items() if i <= j}
        products.update({(j, i): {k: sc(sign) * c for k, c in vec.items()}
                         for (i, j), vec in list(products.items()) if i < j})
        A = Algebra(A.dim, "mirrored", products)
    assert algebra.sign_failure(A, sign) == oracles.sign_failure(A, sign)


def test_interchange_rejects_garbage():
    with pytest.raises(ValueError):
        algebra_from_text("not a header\n")


@pytest.mark.parametrize("body, message", [
    # terms without a colon are reported before the pair index out of range
    ("5 0 -> 0\n", "malformed line '5 0 -> 0'"),
    ("0 1 -> 0:1\n5 0 -> 0:1,1\n", "malformed line '5 0 -> 0:1,1'"),
    # a bad pair index before a bad term, also where the terms were read before
    ("0 1 -> 0:x\n5 0 -> 0:x\n", "malformed line '0 1 -> 0:x'"),
    ("0 1 -> 0:1\n5 0 -> 0:1\n", "index 5 outside 0..1"),
    ("0 1 -> 0:1\n0 1 -> 0:1\n", "second line for the product 0 1"),
    # a bad right-hand side repeated names its first line or product
    ("1 0 -> 0:zz\n0 1 -> 0:zz\n", "malformed line '1 0 -> 0:zz'"),
    ("1 0 -> x:1\n0 1 -> x:1\n", "malformed line '1 0 -> x:1'"),
    ("1 1 -> 7:1\n0 1 -> 7:1\n", "index 7 outside 0..1"),
    ("1 0 -> 0:1,0:2\n0 1 -> 0:1,0:2\n", "second term 0 in the product 1 0"),
])
def test_interchange_errors_keep_their_order(body, message):
    with pytest.raises(ValueError) as err:
        algebra_from_text("dim 2 over Q(w)\n" + body)
    assert str(err.value) == message


@st.composite
def _tables_with_repeated_rows(draw):
    """Sparse tables whose products are copies of a few rows, zeros and
    key orders included."""
    dim = draw(st.integers(1, 5))
    index = st.integers(0, dim - 1)
    pool = draw(st.lists(st.dictionaries(index, _coeffs, min_size=1, max_size=3),
                         min_size=1, max_size=3))
    pairs = draw(st.lists(st.tuples(index, index), unique=True,
                          max_size=dim * dim))
    return Algebra(dim, "repeated",
                   {ij: dict(draw(st.sampled_from(pool))) for ij in pairs})


@settings(max_examples=60, deadline=None)
@given(_tables_with_repeated_rows())
def test_interchange_round_trip_shares_repeated_rows(A):
    assert len(_row_objects(A)) == len(_distinct_rows(A))
    text = A.to_text()
    back = algebra_from_text(text)
    assert back.to_text() == text
    assert back.products == A.products
    assert len(_row_objects(back)) == len(_distinct_rows(back))
    assert len(_row_objects(back)) <= len(_row_objects(A))


def test_passes_over_shared_rows_mutate_none():
    # the e8 tables share their rows between products; a pass that wrote
    # into a row would change many products, and the text shows each one
    gr5 = magic.e8_dempwolff(e8_pair()[1])
    L = gr5.algebra
    text = L.to_text()
    assert len(_row_objects(L)) == 1088
    assert verify_lie(L).passed
    L.int_table()
    assert L.to_text() == text
    component = next(idx for deg, idx in gr5.components().items() if any(deg))
    assert magic.is_cartan(L, [{i: ONE} for i in component]).passed
    assert L.to_text() == text and len(_row_objects(L)) == 1088
    mag, gr = magic.e8_z3_5()
    M = mag.lie
    text, rows = M.to_text(), len(_row_objects(M))
    assert rows == 1980
    rebased = algebra.rebase_blockwise(M, magic._iota_cycles(mag),
                                       [deg[-1] for deg in gr.degrees])
    assert M.to_text() == text and len(_row_objects(M)) == rows
    assert rebased.to_text() == gr.algebra.to_text()
    assert len(_row_objects(rebased)) == len(_row_objects(gr.algebra)) == 2208


def test_e8_table_build_grows_traced_memory_by_under_8_mb():
    # one dict per distinct row: about 5.6 MB live after the build, against
    # 14.4 MB with one dict per product
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pair = magic.e8_z2_8()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(_row_objects(pair[0].lie)) == 1088
    assert grown < 8_000_000


def test_left_columns():
    C = split_cayley()
    e1 = {0: ONE}
    left = left_columns(C, e1)
    # left multiplication by e1 fixes e1, u_i and kills e2, v_i
    assert len(left) == 8
    assert left[0] == {0: ONE} and left[2] == {2: ONE}
    assert not left[1]
    # the table rows of e1 and the general path for 2 e1 agree
    assert left_columns(C, {0: sc(2)}) == [{r: sc(2) * c for r, c in col.items()}
                                           for col in left]


def test_norm_polarization_identity():
    # n(x, y) = n(x + y) - n(x) - n(y) with n(x) = polar(x, x)/2
    import random
    C = split_cayley()
    rng = random.Random(41)
    for _ in range(20):
        x = {i: sc(rng.randint(-3, 3)) for i in range(8)}
        y = {i: sc(rng.randint(-3, 3)) for i in range(8)}
        xy = {i: x[i] + y[i] for i in range(8)}
        lhs = C.polar_pair_sparse(x, y)
        rhs = C.norm_sparse(xy) - C.norm_sparse(x) - C.norm_sparse(y)
        assert lhs == rhs
