import pytest
from hypothesis import given, settings, strategies as st

from forge import grading, magic
from forge.algebra import Algebra
from forge.exact import sc
from forge.grading import (CAYLEY_KINDS, DECLARED_GROUPS, OKUBO_KINDS,
                           QUATERNION_KINDS, AbelianGroup, BadParams, Grading,
                           GroupHom, IllDefinedHom, Z3, Z3_2, cayley_grading,
                           coarsen, grading_from_text, grading_type,
                           okubo_grading, quaternion_grading,
                           Unverified, two_dim_z3_grading, universal_group,
                           verify_grading)
from forge.scenarios import e8_pair, okubo11, split_cayley
from oracles import (IntMatrix, dense_smith_invariants, elements_generate,
                     lattice_row_reduce, polar_matrix)


def test_group_arithmetic():
    G = AbelianGroup(1, (2, 3))
    a = G.canon((1, 1, 2))
    b = G.canon((0, 1, 2))
    assert G.add(a, b) == (1, 0, 1)
    assert G.neg(a) == (-1, 1, 1)
    assert G.canonical_invariants() == (1, (6,))


def test_verify_grading_examples():
    gr = okubo_grading("z3^2", (1, 1))
    assert verify_grading(gr).passed
    gr = cayley_grading("z2^3", (1, 1, 1))
    assert verify_grading(gr).passed


def test_non_group_grading_fails():
    # one-dimensional components labeled by distinct integers cannot work:
    # the two idempotents would need two different neutral elements
    C = split_cayley()
    gr = Grading(C, AbelianGroup(1), tuple((i + 1,) for i in range(8)))
    rep = verify_grading(gr)
    assert not rep.passed and rep.witness is not None


def test_verify_grading_names_a_wrong_degree():
    gr = cayley_grading("z2^3", (1, 1, 1))
    G, A = gr.group, gr.algebra
    deg = list(gr.degrees)
    deg[3] = G.add(deg[3], (1, 0, 0))
    rep = verify_grading(Grading(A, G, tuple(deg)))
    assert not rep.passed
    assert rep.details == {"rule": "product lands outside A_{g+h}"}
    i, j, k = rep.witness
    assert 3 in (i, j, k) and k in A.product(i, j)
    assert deg[k] != G.add(deg[i], deg[j])
    assert gr.degrees[k] == G.add(gr.degrees[i], gr.degrees[j])


def test_polar_compatibility_enforced():
    # correct product degrees but a polar pairing inside one component
    O = okubo11()
    gr = Grading(O, AbelianGroup(0, (3,)), ((0,),) * 8)
    rep = verify_grading(gr)
    assert not rep.passed


def test_grading_type_examples():
    assert grading_type(okubo_grading("z3^2")) == (8,)
    assert grading_type(okubo_grading("z3")) == (0, 1, 2)
    assert grading_type(cayley_grading("z3")) == (0, 1, 2)
    assert grading_type(two_dim_z3_grading()) == (2,)


def test_type_sums_to_dimension():
    for kind in CAYLEY_KINDS:
        gr = cayley_grading(kind)
        t = grading_type(gr)
        assert sum((i + 1) * h for i, h in enumerate(t)) == gr.algebra.dim


def test_universal_group_examples():
    group, dmap, regr = universal_group(okubo_grading("z3^2"))
    assert group.canonical_invariants() == (0, (3, 3))
    # trivial grading -> trivial group
    O = okubo11()
    gr = Grading(O, AbelianGroup(0, ()), ((),) * 8)
    group, _, _ = universal_group(gr)
    assert group.canonical_invariants() == (0, ())
    # the 5-grading labeled inside Z10 still has universal group Z
    base = okubo_grading("z-5grading")
    z10 = AbelianGroup(0, (10,))
    relabeled = Grading(base.algebra, z10,
                        tuple((d[0] % 10,) for d in base.degrees))
    assert verify_grading(relabeled).passed
    group, _, _ = universal_group(relabeled)
    assert group.canonical_invariants() == (1, ())


def test_universal_catalog_matches_declared():
    for fam, kinds, build in (("cayley", CAYLEY_KINDS, cayley_grading),
                              ("okubo", OKUBO_KINDS, okubo_grading)):
        for kind in kinds:
            gr = build(kind)
            assert verify_grading(gr).passed, (fam, kind)
            group, dmap, regr = universal_group(gr)
            assert group.canonical_invariants() == \
                DECLARED_GROUPS[kind].canonical_invariants(), (fam, kind)
            assert verify_grading(regr).passed
            assert len(set(dmap.values())) == len(dmap)


def test_coarsen_standard_z3():
    gr2 = okubo_grading("z3^2", (1, 1))
    hom = GroupHom(Z3_2, Z3, ((0,), (1,)))          # (a, b) -> b
    gr1 = coarsen(gr2, hom)
    std = okubo_grading("z3", (1, 1))
    assert gr1.degrees == std.degrees
    assert verify_grading(gr1).passed


def test_coarsen_identity_and_verification():
    gr = cayley_grading("z^2")
    ident = GroupHom(gr.group, gr.group, ((1, 0), (0, 1)))
    assert coarsen(gr, ident).degrees == gr.degrees
    # every coarsening of a verified grading verifies
    hom = GroupHom(gr.group, AbelianGroup(1), ((1,), (1,)))
    assert verify_grading(coarsen(gr, hom)).passed


def test_ill_defined_hom():
    with pytest.raises(IllDefinedHom):
        GroupHom(AbelianGroup(0, (2,)), Z3, ((1,),))  # 2*(1) != 0 in Z3


def test_catalog_span_examples():
    gr = cayley_grading("z3")
    # components: e's at 0, u's at 1, v's at 2
    assert [gr.degrees[i] for i in (0, 1)] == [(0,), (0,)]
    assert [gr.degrees[i] for i in (2, 3, 4)] == [(1,)] * 3
    gr = okubo_grading("z^2")
    assert gr.degrees[7] == (1, 1)                   # v3
    gr = okubo_grading("z4")
    assert gr.degrees[4] == (2,) and gr.degrees[7] == (2,)   # u3, v3


def test_quaternion_kinds():
    for kind in QUATERNION_KINDS:
        gr = quaternion_grading(kind)
        assert verify_grading(gr).passed
        group, _, _ = universal_group(gr)
        want = {"z2": (0, (2,)), "z2^2": (0, (2, 2)),
                "z-3grading": (1, ())}[kind]
        assert group.canonical_invariants() == want


def test_bad_params():
    with pytest.raises(BadParams):
        cayley_grading("z2^3", (1, 0, 1))
    with pytest.raises(BadParams):
        cayley_grading("nonsense")
    # a kind built on one fixed algebra takes no parameters, not even (1, 1)
    for build, kind, params in ((okubo_grading, "z4", (1, 1)),
                                (cayley_grading, "z3", (1, 1, 1)),
                                (quaternion_grading, "z-3grading", (1, 1))):
        with pytest.raises(BadParams, match="takes no parameters"):
            build(kind, params)


def test_grading_file_round_trip():
    for gr in (okubo_grading("z3^2"), cayley_grading("zxz2")):
        text = gr.to_text()
        back = grading_from_text(text, gr.algebra)
        assert back.to_text() == text
        assert back.degrees == gr.degrees and back.group == gr.group


@st.composite
def sparse_gradings(draw):
    """A grading of a small algebra by a random group, free rank <= dim and
    torsion moduli >= 2, with mostly zero degree coordinates."""
    dim = draw(st.integers(1, 5))
    group = AbelianGroup(draw(st.integers(0, dim)),
                         tuple(draw(st.lists(st.integers(2, 12), max_size=3))))
    coord = st.one_of(st.just(0), st.integers(-40, 40))
    degree = st.tuples(*[coord] * group.ncoords)
    degrees = draw(st.lists(degree, min_size=dim, max_size=dim))
    return Grading(Algebra(dim, "small", {}), group, tuple(degrees))


@settings(max_examples=150, deadline=None)
@given(sparse_gradings())
def test_grading_file_round_trip_property(gr):
    text = gr.to_text()
    back = grading_from_text(text, gr.algebra)
    assert back.to_text() == text
    assert back.degrees == gr.degrees and back.group == gr.group


def test_okubo_z2_gradings_from_quaternion_presentation():
    for kind in ("z2", "z2^2"):
        gr = okubo_grading(kind, (1, 1))
        assert verify_grading(gr).passed
        gr2 = okubo_grading(kind, (2, 3))
        assert verify_grading(gr2).passed


def test_okubo_z3_2_degree_assignment():
    gr = okubo_grading("z3^2", (1, 1))
    assert gr.degrees[0] == (1, 0)      # x_{1,0}
    assert gr.degrees[2] == (0, 1)      # x_{0,1}


def test_grading_emits_one_degree_line_per_basis_vector():
    gr = okubo_grading("z3^2")
    lines = [ln for ln in gr.to_text().splitlines() if ln.startswith("deg ")]
    assert len(lines) == 8


def test_catalog_with_generic_parameters():
    from forge.exact import OMEGA
    gr = cayley_grading("z2^3", (2, 3, 5))
    assert verify_grading(gr).passed
    group, _, _ = universal_group(gr)
    assert group.canonical_invariants() == (0, (2, 2, 2))
    gr = okubo_grading("z3^2", (OMEGA, 2))
    assert verify_grading(gr).passed


def test_coarsen_rejects_wrong_source():
    gr = cayley_grading("z3")
    hom = GroupHom(AbelianGroup(0, (2,)), Z3, ((0,),))
    with pytest.raises(IllDefinedHom):
        coarsen(gr, hom)


@pytest.mark.parametrize("G, elems, want", [
    (AbelianGroup(0, (4,)), {(2,)}, False),
    (AbelianGroup(2), {(1, 0)}, False),
    (AbelianGroup(0, (3,)), set(), False),
    (AbelianGroup(0, (4,)), {(3,)}, True),
    (AbelianGroup(0, (6,)), {(2,), (3,)}, True),
    (AbelianGroup(0, (2, 3)), {(1, 1)}, True),
    (AbelianGroup(1, (2,)), {(2, 1), (1, 1)}, True),
    (AbelianGroup(0), set(), True),
])
def test_elements_generate_examples(G, elems, want):
    assert G.elements_generate(elems) is want
    assert elements_generate(G, elems) is want


@st.composite
def _groups_and_elements(draw):
    free = draw(st.integers(0, 2))
    G = AbelianGroup(free, tuple(draw(st.lists(st.integers(2, 7), max_size=4))))
    n = G.ncoords
    units = [tuple(int(c == r) for c in range(n)) for r in range(n)]
    elems = draw(st.lists(st.sampled_from(units), unique=True)) if units else []
    elems += draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n)
                           .map(tuple), max_size=4))
    return G, set(elems)


@settings(max_examples=300, deadline=None)
@given(_groups_and_elements())
def test_elements_generate_matches_the_smith_oracle(case):
    G, elems = case
    assert G.elements_generate(elems) == elements_generate(G, elems)


def test_support_spanning_an_index_2_subgroup_fails():
    gr = quaternion_grading("z-3grading")
    doubled = Grading(gr.algebra, gr.group, tuple((2 * d,) for d, in gr.degrees))
    rep = verify_grading(doubled)
    assert not rep.passed
    assert rep.details == {"rule": "support must generate the group"}
    assert rep.witness == "support"


# ---- the tuple-arithmetic oracle ---------------------------------------------

def _oracle_verify(gr):
    """(passed, rule, witness) by the tuple loop: G.add for both rules."""
    A, G, deg = gr.algebra, gr.group, gr.degrees
    for (i, j), vec in A.products.items():
        target = G.add(deg[i], deg[j])
        for k in vec:
            if deg[k] != target:
                return False, "product lands outside A_{g+h}", (i, j, k)
    if A.polar is not None:
        pm = polar_matrix(A).data
        for i in range(A.dim):
            for j in range(A.dim):
                if not pm[i][j].is_zero() and not G.is_zero(G.add(deg[i], deg[j])):
                    return False, "n(A_g, A_h) = 0 unless g + h = 0", (i, j)
    if not elements_generate(G, set(deg)):
        return False, "support must generate the group", "support"
    return True, None, None


def _oracle_universal(gr):
    """The universal group, from relation rows built by G.add and from the
    pairs the polar form does not annihilate."""
    A, G, deg = gr.algebra, gr.group, gr.degrees
    support = gr.support()
    index = {d: i for i, d in enumerate(support)}
    s = len(support)
    rel_rows = set()
    for (i, j), vec in A.products.items():
        if not vec:
            continue
        row = [0] * s
        row[index[deg[i]]] += 1
        row[index[deg[j]]] += 1
        row[index[G.add(deg[i], deg[j])]] -= 1
        rel_rows.add(tuple(row))
    pairs = [] if A.polar is None else [
        (i, j) for i, prow in enumerate(polar_matrix(A).data)
        for j, v in enumerate(prow) if not v.is_zero()]
    for i, j in pairs:
        row = [0] * s
        row[index[deg[i]]] += 1
        row[index[deg[j]]] += 1
        rel_rows.add(tuple(row))
    reduced = lattice_row_reduce([list(r) for r in rel_rows], s)
    inv = dense_smith_invariants(IntMatrix(reduced)) if reduced else []
    free = s - len(inv) + inv.count(0)
    return AbelianGroup(free, tuple(d for d in inv if d > 1))


@st.composite
def _random_gradings(draw):
    """A random group, degrees, sparse products and polar form, some of them
    with a planted product or polar defect."""
    free = draw(st.integers(0, 2))
    G = AbelianGroup(free, tuple(draw(st.lists(st.integers(2, 7), max_size=6))))
    n = G.ncoords
    coord = st.integers(-3, 3) | st.integers(-10**6, 10**6)
    atoms = [tuple(int(c == r) for c in range(n)) for r in range(n)]
    atoms += [G.canon(draw(st.lists(coord, min_size=n, max_size=n)))
              for _ in range(draw(st.integers(0, 2)))]
    pool = atoms + [G.neg(a) for a in atoms] + [G.zero()]
    pool += [G.add(draw(st.sampled_from(pool)), draw(st.sampled_from(pool)))
             for _ in range(draw(st.integers(0, 4)))]
    # every unit vector occurs, so the support generates G
    degrees = draw(st.permutations(
        atoms[:n] + draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))))
    d = len(degrees)
    index = st.integers(0, d - 1)
    coeff = st.integers(-3, 3).filter(bool)
    products = {}
    for i, j in draw(st.lists(st.tuples(index, index), max_size=20, unique=True)):
        target = G.add(degrees[i], degrees[j])
        good = [k for k in range(d) if degrees[k] == target]
        ks = draw(st.lists(st.sampled_from(good), unique=True)) if good else []
        products[(i, j)] = {k: draw(coeff) for k in ks}
    if draw(st.integers(0, 3)) == 0:
        i, j = draw(index), draw(index)
        target = G.add(degrees[i], degrees[j])
        bad = [k for k in range(d) if degrees[k] != target]
        if bad:
            products.setdefault((i, j), {})[draw(st.sampled_from(bad))] = draw(coeff)
    polar = None
    if draw(st.booleans()):
        polar = {}
        pairs = [(i, j) for i in range(d) for j in range(i, d)
                 if G.is_zero(G.add(degrees[i], degrees[j]))]
        pairs = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        if draw(st.integers(0, 3)) == 0:
            i = draw(index)
            pairs += [(i, j) for j in range(d)
                      if not G.is_zero(G.add(degrees[i], degrees[j]))][:1]
        for i, j in pairs:
            polar[(i, j)] = polar[(j, i)] = sc(draw(coeff))
    return Grading(Algebra(d, "random", products, polar=polar), G, tuple(degrees))


@settings(max_examples=200, deadline=None)
@given(_random_gradings())
def test_coded_checks_agree_with_the_tuple_oracle(gr):
    rep = verify_grading(gr)
    assert (rep.passed, rep.details.get("rule"), rep.witness) == _oracle_verify(gr)
    if rep.passed:
        # equal invariants and a verified regrading whose support generates
        # the group make the map universal (f.g. abelian groups are
        # Hopfian); the coordinates themselves are not unique
        group, dmap, regraded = universal_group(gr)
        assert group == _oracle_universal(gr)
        assert verify_grading(regraded).passed
        assert len(set(dmap.values())) == len(dmap)
        assert regraded.degrees == tuple(dmap[x] for x in gr.degrees)


# ---- planted defects on the big gradings --------------------------------------

def _regraded(gr, k, delta):
    degrees = list(gr.degrees)
    degrees[k] = gr.group.add(degrees[k], delta)
    return Grading(gr.algebra, gr.group, tuple(degrees))


def _assert_product_defect(gr, witness):
    rep = verify_grading(gr)
    assert not rep.passed
    assert rep.details == {"rule": "product lands outside A_{g+h}"}
    assert rep.witness == witness


def test_e8_z2_8_counts_its_products_and_rejects_a_regraded_vector():
    mag8, gr8 = e8_pair()
    rep = verify_grading(gr8)
    assert rep.passed
    assert rep.details == {"components": 206, "products": 44064}
    _assert_product_defect(_regraded(gr8, 100, (0,) * 7 + (1,)), (0, 100, 68))


@pytest.fixture(scope="module")
def e8_z3_5():
    return magic.e8_z3_5()[-1]


def test_e8_z3_5_rejects_a_regraded_vector(e8_z3_5):
    assert verify_grading(e8_z3_5).passed
    _assert_product_defect(_regraded(e8_z3_5, 100, (1, 0, 0, 0, 0)),
                           (0, 100, 164))


def test_e8_gradings_have_their_groups_as_universal_groups(e8_z3_5):
    # 16,362 and 20,400 distinct relations on 206 and 242 support degrees
    for gr in (e8_pair()[1], e8_z3_5):
        group, dmap, regraded = universal_group(gr)
        assert group == gr.group
        assert len(set(dmap.values())) == len(dmap)
        assert verify_grading(regraded).passed


@pytest.mark.parametrize("which, delta", [("z2_8", (0,) * 7 + (1,)),
                                          ("z3_5", (1, 0, 0, 0, 0))])
def test_universal_group_rejects_a_regraded_e8_vector_before_lattice_work(
        which, delta, e8_z3_5, monkeypatch):
    def no_lattice_work(*args):
        raise AssertionError("Smith normal form of an unverified grading")

    monkeypatch.setattr(grading, "smith_normal_form", no_lattice_work)
    gr = e8_pair()[1] if which == "z2_8" else e8_z3_5
    with pytest.raises(Unverified):
        universal_group(_regraded(gr, 100, delta))


def test_dempwolff_coarsening_rejects_a_regraded_vector():
    gr5 = magic.e8_dempwolff(e8_pair()[1])
    assert verify_grading(gr5).passed
    _assert_product_defect(_regraded(gr5, 200, (0, 0, 0, 0, 1)), (2, 232, 200))


def test_cayley_grading_rejects_a_planted_polar_pairing():
    # u1 and u2 both have degree 1 in Z3, so n(u1, u2) must vanish
    gr = cayley_grading("z3")
    A = gr.algebra
    polar = dict(A.polar)
    polar[(2, 3)] = polar[(3, 2)] = polar[(2, 5)]
    planted = Algebra(A.dim, A.name, {ij: dict(v) for ij, v in A.products.items()},
                      polar=polar)
    rep = verify_grading(Grading(planted, gr.group, gr.degrees))
    assert not rep.passed
    assert rep.details == {"rule": "n(A_g, A_h) = 0 unless g + h = 0"}
    assert rep.witness == (2, 3)
