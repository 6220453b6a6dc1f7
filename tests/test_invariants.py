"""Property tests for the cross-module invariants."""

from hpk.groups import GroupTable
from hpk.groupoids import (
    FiniteGroupoid,
    GroupoidHom,
    SimplicialGroupoid,
    SimplicialGroupoidMap,
)
from hpk.kan import is_kan
from hpk.loop import w_total, wbar
from hpk.model_checks import map_fills_horns
from hpk.presheaves import NaturalTransformation, constant_presheaf, is_weak_equivalence
from hpk.sites import FiniteSite
from hpk.two_groupoids import TwoGroupoid, pi_2gpd
from hpk.whitehead import whitehead_2gpd


def constant(gpd, depth):
    return SimplicialGroupoid.constant(gpd, depth)


def test_wbar_outputs_are_kan_at_tested_levels():
    for gpd in (
        FiniteGroupoid.from_group(GroupTable.cyclic(2)),
        FiniteGroupoid.from_group(GroupTable.cyclic(3)),
        FiniteGroupoid.interval(),
        FiniteGroupoid.chaotic(["0", "1"], GroupTable.cyclic(2)),
    ):
        wb = wbar(constant(gpd, 3), 3)
        assert is_kan(wb.sset, 3)


def test_w_projection_fills_horns_at_tested_levels():
    for depth in (2, 3):
        sgpd = constant(FiniteGroupoid.from_group(GroupTable.cyclic(2)), depth)
        total, q, wb = w_total(sgpd, depth)
        assert map_fills_horns(q, depth) == []


def test_weak_equivalence_two_out_of_three_on_composable_triples():
    site = FiniteSite.two_object_site()
    depth = 3
    small = FiniteGroupoid.from_group(GroupTable.cyclic(2), obj="x")
    fat = FiniteGroupoid.chaotic(["x", "y"], GroupTable.cyclic(2))
    fatter = FiniteGroupoid.chaotic(["x", "y", "z"], GroupTable.cyclic(2))

    # f: small -> fat, g: fat -> fatter, both equivalences
    f_hom = GroupoidHom(small, fat, {"x": "x"}, {g: f"x>x:{g}" for g in small.arrows})
    f_map = SimplicialGroupoidMap(
        constant(small, depth), constant(fat, depth), {"x": "x"}, [f_hom] * (depth + 1)
    )
    g_hom = GroupoidHom(
        fat, fatter, {"x": "x", "y": "y"}, {a: a for a in fat.arrows}
    )
    g_map = SimplicialGroupoidMap(
        constant(fat, depth), constant(fatter, depth), {"x": "x", "y": "y"},
        [g_hom] * (depth + 1),
    )
    gf = g_map.compose(f_map)

    x = constant_presheaf(site, "sgpd", constant(small, depth))
    y = constant_presheaf(site, "sgpd", constant(fat, depth))
    z = constant_presheaf(site, "sgpd", constant(fatter, depth))
    nat_f = NaturalTransformation(x, y, {v: f_map for v in site.objects})
    nat_g = NaturalTransformation(y, z, {v: g_map for v in site.objects})
    nat_gf = NaturalTransformation(x, z, {v: gf for v in site.objects})

    ok_f, _ = is_weak_equivalence(nat_f, "sgpd", n_max=1)
    ok_g, _ = is_weak_equivalence(nat_g, "sgpd", n_max=1)
    ok_gf, _ = is_weak_equivalence(nat_gf, "sgpd", n_max=1)
    assert ok_f and ok_g and ok_gf
    # reflexivity
    ident = NaturalTransformation(
        x, x, {v: SimplicialGroupoidMap.identity(constant(small, depth)) for v in site.objects}
    )
    ok_id, _ = is_weak_equivalence(ident, "sgpd", n_max=1)
    assert ok_id
    # a triple where two verdicts force the third: f and gf equivalences,
    # so g restricted to the image data must also pass; and a negative case
    triv = constant(FiniteGroupoid.trivial("x"), depth)
    collapse_hom = GroupoidHom(
        small, triv.levels[0], {"x": "x"}, {g: "e" for g in small.arrows}
    )
    collapse = SimplicialGroupoidMap(
        constant(small, depth), triv, {"x": "x"}, [collapse_hom] * (depth + 1)
    )
    w = constant_presheaf(site, "sgpd", triv)
    nat_c = NaturalTransformation(x, w, {v: collapse for v in site.objects})
    ok_c, _ = is_weak_equivalence(nat_c, "sgpd", n_max=1)
    assert not ok_c
    # two-out-of-three: id = (collapse-ish section) would contradict; here we
    # check the contrapositive consistency: f ok and c not ok means c o f^-1
    # style composites cannot both be ok; concretely g o f ok matches g, f ok
    assert ok_gf == (ok_f and ok_g)


def test_unit_side_pi_comparison_for_two_types():
    # X -> nerve(whitehead X) induces pi_0 and pi_1 isomorphisms on fixtures
    # where the presentation-level groups are decidable
    fixtures = [
        (TwoGroupoid.from_groupoid(FiniteGroupoid.from_group(GroupTable.cyclic(2))), "*"),
        (TwoGroupoid.from_groupoid(FiniteGroupoid.interval()), "0"),
        (TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(3)), "*"),
    ]
    from hpk.two_groupoids import nerve

    for k, base in fixtures:
        x = nerve(k, 3)
        w = whitehead_2gpd(x)
        assert len(w.pi0()) == len(pi_2gpd(k, base, 0))
        pres = w.pi1_presentation(base)
        target = pi_2gpd(k, base, 1)
        assert pres.isomorphic_to_table(target) is True
