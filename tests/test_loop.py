import pytest

from hpk.groups import GroupTable
from hpk.groupoids import (
    FiniteGroupoid,
    SimplicialGroupoid,
    SimplicialGroupoidMap,
    hom_simplicial_group,
    moore_pi_n,
    pi0_hom_presentation,
    pi0_sgpd,
)
from hpk.kan import pi_n_kan
from hpk.loop import (
    counit,
    enumerate_sgpd_maps,
    loop_groupoid,
    transpose_to_sgpd,
    transpose_to_sset,
    unit,
    w_total,
    wbar,
    wbar_of_map,
)
from hpk.homsearch import enumerate_simplicial_maps
from hpk.sset import SimplicialMap, pi0_sset, standard_complex, validate_sset


def constant(table_or_gpd, depth):
    gpd = (
        table_or_gpd
        if isinstance(table_or_gpd, FiniteGroupoid)
        else FiniteGroupoid.from_group(table_or_gpd)
    )
    return SimplicialGroupoid.constant(gpd, depth)


def test_loop_groupoid_of_point_is_trivial():
    pt = standard_complex("point", depth=3)
    g = loop_groupoid(pt, 2)
    assert g.validate() == []
    assert g.objects == ("*",)
    for n in range(3):
        assert g.levels[n].generators == {}


def test_loop_groupoid_of_circle():
    s1 = standard_complex("sphere", 1, depth=3)
    g = loop_groupoid(s1, 2)
    assert g.validate() == []
    assert g.objects == ("*",)
    # level 0: one generator (the loop), after killing s_0 of the vertex
    assert len(g.levels[0].generators) == 1
    # objects of G(X) are the vertices of X for every fixture
    for fixture in (s1, standard_complex("Delta", 1, depth=3)):
        gg = loop_groupoid(fixture, 2)
        assert tuple(sorted(gg.objects)) == tuple(sorted(fixture.levels[0]))


def test_loop_groupoid_pi0_of_circle_hom_is_infinite_cyclic():
    s1 = standard_complex("sphere", 1, depth=3)
    g = loop_groupoid(s1, 2)
    pres = pi0_hom_presentation(g, "*")
    assert pres.is_infinite_cyclic() is True


def test_wbar_of_trivial_groupoid_is_point():
    a = constant(GroupTable.trivial(), 3)
    wb = wbar(a, 3)
    assert validate_sset(wb.sset) == []
    assert wb.sset.level_sizes() == [1, 1, 1, 1]


def test_wbar_of_constant_z2_level_sizes():
    a = constant(GroupTable.cyclic(2), 3)
    wb = wbar(a, 3)
    assert validate_sset(wb.sset) == []
    assert wb.sset.level_sizes() == [1, 2, 4, 8]


def test_wbar_level_one_is_arrows_of_level_zero():
    for gpd in (FiniteGroupoid.interval(), FiniteGroupoid.from_group(GroupTable.cyclic(3))):
        a = SimplicialGroupoid.constant(gpd, 2)
        wb = wbar(a, 2)
        assert len(wb.sset.levels[1]) == len(gpd.arrows)



def test_wbar_object_named_like_an_arrow():
    # the object g0 and the arrow g0 are both 1-strings, at levels 0 and 1
    a = constant(FiniteGroupoid.from_group(GroupTable.cyclic(2), obj="g0"), 3)
    wb = wbar(a, 3)
    assert wb.strings["g0"] == ("g0",) and wb.strings["(g0)"] == ("g0",)
    identity = wbar_of_map(SimplicialGroupoidMap.identity(a), wb, wb)
    assert identity.validate() == []
    assert identity.equals(SimplicialMap.identity(wb.sset))
    total, q, wb2 = w_total(a, 2)
    assert q.validate() == []
    assert q.level_maps[1] == {"<g0|g0>": "(g0)", "<g0|g1>": "(g1)", "<g1|g0>": "(g0)", "<g1|g1>": "(g1)"}

def test_wbar_rejects_free_levels():
    s1 = standard_complex("sphere", 1, depth=3)
    g = loop_groupoid(s1, 2)
    with pytest.raises(ValueError):
        wbar(g, 2)


def test_pi1_of_wbar_z2_is_z2():
    a = constant(GroupTable.cyclic(2), 3)
    wb = wbar(a, 3)
    base = wb.sset.levels[0][0]
    table = pi_n_kan(wb.sset, base, 1)
    assert table.iso_to(GroupTable.cyclic(2)) is not None
    assert pi_n_kan(wb.sset, base, 2).is_trivial()


def test_pi_identity_moore_vs_kan_on_dold_kan_fixture():
    from hpk.abelian import ChainFixture, FiniteAbelianGroup, AbelianHom

    z2 = FiniteAbelianGroup([2])
    zero = FiniteAbelianGroup([])
    chain = ChainFixture([zero, z2], [AbelianHom.zero(z2, zero)])
    from hpk.groupoids import dold_kan

    a = dold_kan(chain, 3)
    wb = wbar(a, 3)
    assert validate_sset(wb.sset) == []
    base = wb.sset.levels[0][0]
    # pi_n of the simplicial group equals pi_(n+1) of the classifying complex
    assert moore_pi_n(a, 0).order == pi_n_kan(wb.sset, base, 1).order == 1
    assert (
        moore_pi_n(a, 1).iso_to(pi_n_kan(wb.sset, base, 2)) is not None
    )


def test_w_total_of_trivial_is_point():
    a = constant(GroupTable.trivial(), 3)
    total, q, wb = w_total(a, 3)
    assert total.level_sizes() == [1, 1, 1, 1]
    assert q.validate() == []


def test_w_total_of_z2_is_contractible():
    a = constant(GroupTable.cyclic(2), 3)
    total, q, wb = w_total(a, 3)
    assert validate_sset(total) == []
    assert q.validate() == []
    assert len(pi0_sset(total)) == 1
    base = sorted(total.levels[0])[0]
    assert pi_n_kan(total, base, 1).is_trivial()
    # the connecting 1-simplex (s_0 b, b^-1 a) joins vertices b and a
    for b_vertex in total.levels[0]:
        for a_vertex in total.levels[0]:
            found = [
                e
                for e in total.levels[1]
                if total.face(1, 1, e) == b_vertex and total.face(1, 0, e) == a_vertex
            ]
            assert found, f"no edge from {b_vertex} to {a_vertex}"
    # re-derive the explicit form: entries (s_0 b, b^-1 . a)
    gpd = a.levels[0]
    for b_arrow in gpd.arrows:
        for a_arrow in gpd.arrows:
            conn = (
                a.degeneracy(0, 0)(b_arrow),
                gpd.compose(gpd.inv(b_arrow), a_arrow),
            )
            name = "<" + "|".join(conn) + ">"
            assert name in set(total.levels[1])
            assert total.face(1, 1, name) == f"<{b_arrow}>"
            assert total.face(1, 0, name) == f"<{a_arrow}>"


def adjunction_counts(sset_name, gpd, depth=2):
    x = (
        standard_complex(*sset_name)
        if isinstance(sset_name, tuple)
        else sset_name
    )
    a = SimplicialGroupoid.constant(gpd, depth)
    wb = wbar(a, depth + 1)
    gx = loop_groupoid(x, depth)
    sgpd_maps = enumerate_sgpd_maps(gx, x, a)
    sset_maps = list(enumerate_simplicial_maps(_trunc(x, depth + 1), wb.sset))
    return x, a, gx, wb, sgpd_maps, sset_maps


def _trunc(x, depth):
    from hpk.loop import _truncate_sset

    return _truncate_sset(x, depth)


def test_adjunction_count_interval():
    x, a, gx, wb, sgpd_maps, sset_maps = adjunction_counts(
        ("Delta", 1, None, 3), FiniteGroupoid.interval()
    )
    assert len(sgpd_maps) == 4
    assert len(sset_maps) == 4


def test_adjunction_round_trip_is_identity():
    x, a, gx, wb, sgpd_maps, sset_maps = adjunction_counts(
        ("Delta", 1, None, 3), FiniteGroupoid.interval()
    )
    for psi in sset_maps:
        phi = transpose_to_sgpd(psi, gx, a, wb)
        back = transpose_to_sset(phi, x, gx, wb)
        assert back.equals(psi)
    for phi in sgpd_maps:
        psi = transpose_to_sset(phi, x, gx, wb)
        back = transpose_to_sgpd(psi, gx, a, wb)
        assert back.equals(phi)


def test_counit_is_a_valid_simplicial_groupoid_map():
    for gpd in (
        FiniteGroupoid.from_group(GroupTable.cyclic(2)),
        FiniteGroupoid.interval(),
    ):
        a = SimplicialGroupoid.constant(gpd, 2)
        eps, gw, wb = counit(a, 1)
        assert eps.validate() == []


def test_counit_induces_iso_on_pi0_and_hom_pi0():
    a = constant(GroupTable.cyclic(2), 2)
    eps, gw, wb = counit(a, 1)
    assert len(pi0_sgpd(gw)) == len(pi0_sgpd(a)) == 1
    pres = pi0_hom_presentation(gw, "*")
    loops = hom_simplicial_group(a, "*")
    target = moore_pi_n(loops, 0)
    assert pres.isomorphic_to_table(target) is True


def test_unit_on_point_is_iso():
    pt = standard_complex("point", depth=3)
    eta, gx, wb = unit(pt, 2)
    assert eta.validate() == []
    assert wb.sset.level_sizes() == [1, 1, 1, 1]


def test_unit_errors_on_non_discrete_loop():
    s1 = standard_complex("sphere", 1, depth=3)
    with pytest.raises(ValueError):
        unit(s1, 2)


def test_counit_is_transpose_of_identity_on_wbar():
    from hpk.sset import SimplicialMap

    a = constant(GroupTable.cyclic(2), 2)
    eps, gw, wb = counit(a, 1)
    ident = SimplicialMap.identity(wb.sset)
    via_transpose = transpose_to_sgpd(ident, gw, a, wb)
    assert via_transpose.equals(eps)
