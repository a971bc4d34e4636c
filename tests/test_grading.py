import pytest

from forge.grading import (CAYLEY_KINDS, DECLARED_GROUPS, OKUBO_KINDS,
                           QUATERNION_KINDS, AbelianGroup, BadParams, Grading,
                           GroupHom, IllDefinedHom, Z3, Z3_2, cayley_grading,
                           coarsen, grading_from_text, grading_type,
                           okubo_grading, quaternion_grading,
                           two_dim_z3_grading, universal_group, verify_grading)
from forge.scenarios import okubo11, split_cayley


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


def test_grading_file_round_trip():
    for gr in (okubo_grading("z3^2"), cayley_grading("zxz2")):
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
