from collections import Counter

import pytest

from hpk import jsonio
from hpk.groups import GroupTable
from hpk.groupoids import (
    FiniteGroupoid,
    GroupoidHom,
    SimplicialGroupoid,
    SimplicialGroupoidMap,
)
from hpk.homsearch import enumerate_simplicial_maps
from hpk.kan import kan_report
from hpk.lifting import LiftingProblem, as_point_map, solve_lifting
from hpk.loop import loop_groupoid, loop_of_map, w_total, wbar, wbar_of_map
from hpk.model_checks import (
    free_instance_weak_equivalence,
    map_fills_horns,
    pullback_sgpd,
    pushout_free_sgpd,
    wbar_fibration_instance,
)
from hpk.presheaves import NaturalTransformation, constant_presheaf, is_weak_equivalence
from hpk.sites import FiniteSite
from hpk.sset import InsufficientDepth, SimplicialMap, pushout as sset_pushout, standard_complex


def constant(gpd, depth):
    return SimplicialGroupoid.constant(gpd, depth)


def fat_inclusion(depth):
    small = FiniteGroupoid.from_group(GroupTable.cyclic(2), obj="x")
    fat = FiniteGroupoid.chaotic(["x", "y"], GroupTable.cyclic(2))
    arrows = {g: f"x>x:{g}" for g in ("g0", "g1")}
    hom = GroupoidHom(small, fat, {"x": "x"}, arrows)
    return SimplicialGroupoidMap(
        constant(small, depth), constant(fat, depth), {"x": "x"}, [hom] * (depth + 1)
    )


def collapse_z2(depth):
    """chaotic(2 objects, Z/2) -> chaotic(2 objects, trivial): a fibration."""
    src = FiniteGroupoid.chaotic(["0", "1"], GroupTable.cyclic(2))
    tgt = FiniteGroupoid.chaotic(["0", "1"])
    arrow_map = {}
    for f, (s, t) in src.arrows.items():
        arrow_map[f] = f"{s}>{t}:e"
    hom = GroupoidHom(src, tgt, {"0": "0", "1": "1"}, arrow_map)
    return SimplicialGroupoidMap(
        constant(src, depth), constant(tgt, depth), {"0": "0", "1": "1"},
        [hom] * (depth + 1),
    )


def test_pullback_sgpd_along_identity():
    z2 = constant(FiniteGroupoid.from_group(GroupTable.cyclic(2)), 2)
    ident = SimplicialGroupoidMap.identity(z2)
    p, to_y, to_z = pullback_sgpd(ident, ident)
    assert p.validate() == []
    assert len(p.levels[0].arrows) == 2
    # an iterated pullback nests pair ids inside pair ids
    q, _, _ = pullback_sgpd(to_y, ident)
    assert q.validate() == []
    assert len(q.levels[0].arrows) == 2


def properness_squares(depth):
    """(p, g) pairs: the base change of the weak equivalence g along the fibration p."""
    squares = []
    # square 1: base change of the fat inclusion along the identity
    g1 = fat_inclusion(depth)
    squares.append((SimplicialGroupoidMap.identity(g1.target), g1))
    # square 2: base change of an inclusion along the Z/2 collapse fibration
    p2 = collapse_z2(depth)
    point = FiniteGroupoid.trivial("0")
    incl_hom = GroupoidHom(
        point, p2.target.levels[0], {"0": "0"}, {"e": "0>0:e"}
    )
    g2 = SimplicialGroupoidMap(
        constant(point, depth), p2.target, {"0": "0"}, [incl_hom] * (depth + 1)
    )
    squares.append((p2, g2))
    # square 3: base change of the interval collapse along the Z/2 projection
    triv = constant(FiniteGroupoid.trivial("0"), depth)
    z2_one = constant(FiniteGroupoid.from_group(GroupTable.cyclic(2), obj="0"), depth)
    proj_hom = GroupoidHom(
        z2_one.levels[0], triv.levels[0], {"0": "0"}, {"g0": "e", "g1": "e"}
    )
    p3 = SimplicialGroupoidMap(z2_one, triv, {"0": "0"}, [proj_hom] * (depth + 1))
    interval = constant(FiniteGroupoid.interval(), depth)
    collapse_hom = GroupoidHom(
        interval.levels[0],
        triv.levels[0],
        {"0": "0", "1": "0"},
        {f: "e" for f in interval.levels[0].arrows},
    )
    g3 = SimplicialGroupoidMap(
        interval, triv, {"0": "0", "1": "0"}, [collapse_hom] * (depth + 1)
    )
    squares.append((p3, g3))
    return squares


def test_fibration_instance_identity_and_collapse():
    for depth in (2, 3):
        z2 = constant(FiniteGroupoid.from_group(GroupTable.cyclic(2)), depth)
        identity = SimplicialGroupoidMap.identity(z2)
        assert wbar_fibration_instance(identity, depth, max_level=depth) == []
        assert wbar_fibration_instance(collapse_z2(depth), depth, max_level=depth) == []


def test_right_properness_on_three_squares():
    site = FiniteSite.two_object_site()
    for p_map, g_map in properness_squares(3):
        assert wbar_fibration_instance(p_map, 2, max_level=2) == []
        assert wbar_fibration_instance(p_map, 3, max_level=3) == []
        # the base change g*: X -> Y of the weak equivalence g along p
        total, to_y, to_z = pullback_sgpd(p_map, g_map)
        assert total.validate() == []
        x = constant_presheaf(site, "sgpd", total)
        y = constant_presheaf(site, "sgpd", p_map.source)
        nat = NaturalTransformation(x, y, {v: to_y for v in site.objects})
        ok, witnesses = is_weak_equivalence(nat, "sgpd", n_max=2)
        assert ok, witnesses


# -- relative horn filling against the lifting route ------------------------------


def inclusion(source, target):
    return SimplicialMap(source, target, [{x: x for x in level} for level in source.levels])


def wbar_map(p_map, depth):
    return wbar_of_map(p_map, wbar(p_map.source, depth), wbar(p_map.target, depth))


def lifting_map_fills_horns(smap, max_level):
    """Relative horn filling by one presheaf lifting problem per horn and bottom.

    The brute-force reference: every map Lambda^m_k -> source, every map
    Delta^m -> target that agrees with its image on the horn, and
    ``solve_lifting`` on the square.  Failures are (m, k, horn_key, z) as in
    ``map_fills_horns``: the horn's faces in the order of i, and the image of
    the top simplex of Delta^m.
    """
    depth = smap.source.depth
    failures = []
    for m in range(1, max_level + 1):
        for k in range(m + 1):
            horn = standard_complex("horn", m, k=k, depth=depth)
            simplex = standard_complex("Delta", m, depth=depth)
            include = inclusion(horn, simplex)
            (top_simplex,) = simplex.nondegenerate(m)
            horn_faces = [simplex.face(m, i, top_simplex) for i in range(m + 1) if i != k]

            def on_horn(f):
                return tuple(f(n, x) for n in range(depth + 1) for x in horn.levels[n])

            bottoms = {}
            for bottom in enumerate_simplicial_maps(simplex, smap.target):
                bottoms.setdefault(on_horn(bottom), []).append(bottom)
            for top in enumerate_simplicial_maps(horn, smap.source):
                key = tuple(top(m - 1, x) for x in horn_faces)
                for bottom in bottoms.get(on_horn(smap.compose(top)), ()):
                    problem = LiftingProblem(
                        as_point_map(include),
                        as_point_map(top),
                        as_point_map(smap),
                        as_point_map(bottom),
                    )
                    if solve_lifting(problem)["outcome"] != "lift":
                        failures.append((m, k, key, bottom(m, top_simplex)))
    return failures


def fibration_fixtures():
    """The simplicial maps every fibration check in the suite runs on, at depth 2."""
    z2 = constant(FiniteGroupoid.from_group(GroupTable.cyclic(2)), 2)
    maps = [wbar_map(p_map, 2) for p_map, _ in properness_squares(2)]
    maps.append(wbar_map(SimplicialGroupoidMap.identity(z2), 2))
    maps.append(wbar_map(collapse_z2(2), 2))
    maps.append(w_total(z2, 2)[1])
    return maps


def non_fibrations():
    """Maps that are not Kan fibrations, at depth 2.

    The vertex inclusions Delta^0 -> Delta^1, the horn and boundary
    inclusions into Delta^2, and the W-bar of the fat inclusion, a weak
    equivalence that does not lift the edges from x to y.
    """
    delta1 = standard_complex("Delta", 1, depth=2)
    delta2 = standard_complex("Delta", 2, depth=2)
    vertex = standard_complex("point", depth=2)
    return [
        SimplicialMap(vertex, delta1, [{"*": delta1.basepoint_at(v, n)} for n in range(3)])
        for v in delta1.levels[0]
    ] + [
        inclusion(standard_complex("horn", 2, k=0, depth=2), delta2),
        inclusion(standard_complex("boundary", 2, depth=2), delta2),
        wbar_map(fat_inclusion(2), 2),
    ]


@pytest.mark.parametrize("fixture", ["fibrations", "non-fibrations"])
def test_map_fills_horns_matches_lifting_route(fixture):
    maps = fibration_fixtures() if fixture == "fibrations" else non_fibrations()
    for smap in maps:
        failures = map_fills_horns(smap, 2)
        assert Counter(failures) == Counter(lifting_map_fills_horns(smap, 2))
        assert (failures == []) == (fixture == "fibrations")


def to_point(x):
    point = standard_complex("point", depth=x.depth)
    return SimplicialMap(x, point, [{s: "*" for s in level} for level in x.levels])


def test_map_fills_horns_to_a_point_is_kan_report():
    z2 = FiniteGroupoid.from_group(GroupTable.cyclic(2))
    kan = [
        standard_complex("point", depth=3),
        wbar(constant(z2, 3), 3).sset,
        wbar(constant(FiniteGroupoid.interval(), 3), 3).sset,
        wbar(constant(FiniteGroupoid.chaotic(["0", "1"], GroupTable.cyclic(2)), 3), 3).sset,
    ]
    not_kan = [
        standard_complex("sphere", 1, depth=3),
        standard_complex("horn", 2, k=1, depth=3),
        standard_complex("horn", 3, k=0, depth=3),
        standard_complex("boundary", 2, depth=3),
        standard_complex("boundary", 3, depth=3),
    ]
    for x, kan_at_3 in [(x, True) for x in kan] + [(x, False) for x in not_kan]:
        report = kan_report(x, 3)
        assert [(m, k, key) for m, k, key, _ in map_fills_horns(to_point(x), 3)] == report
        assert (report == []) == kan_at_3


def test_map_fills_horns_needs_depth():
    z2 = constant(FiniteGroupoid.from_group(GroupTable.cyclic(2)), 2)
    _, q, _ = w_total(z2, 2)
    with pytest.raises(InsufficientDepth):
        map_fills_horns(q, 3)


def horn_collapse_fixture(n, k):
    """(G(i), G(r)) for i: horn -> simplex and r: horn -> point."""
    depth = 3
    horn = standard_complex("horn", n, k=k, depth=depth)
    simplex = standard_complex("Delta", n, depth=depth)
    point = standard_complex("point", depth=depth)
    include = SimplicialMap(
        horn, simplex, [{x: x for x in level} for level in horn.levels]
    )
    collapse = SimplicialMap(
        horn, point, [{x: "*" for x in level} for level in horn.levels]
    )
    g_horn = loop_groupoid(horn, 2)
    g_simplex = loop_groupoid(simplex, 2)
    g_point = loop_groupoid(point, 2)
    gi = loop_of_map(include, g_horn, g_simplex)
    gr = loop_of_map(collapse, g_horn, g_point)
    return include, collapse, gi, gr


@pytest.mark.parametrize("n,k", [(2, 1), (1, 0), (2, 0), (3, 1)])
def test_pushout_stability_on_free_instances(n, k):
    include, collapse, gi, gr = horn_collapse_fixture(n, k)
    total, from_b, from_c = pushout_free_sgpd(gi, gr)
    assert total.validate() == []
    # the pushed-out map (from the point side) is a weak equivalence
    ok, details = free_instance_weak_equivalence(from_c)
    assert ok is True, details
    # G is a left adjoint: the free pushout is G of the sset pushout, byte for
    # byte, and so are its legs
    d, into_b, into_c = sset_pushout(include, collapse)
    g_of_pushout = loop_groupoid(d, 2)
    legs = [
        loop_of_map(leg, loop_groupoid(leg.source, 2), g_of_pushout) for leg in (into_b, into_c)
    ]
    assert jsonio.dumps([total.to_json(), *map(jsonio.sgpd_map_to_json, (from_b, from_c))]) == (
        jsonio.dumps([g_of_pushout.to_json(), *map(jsonio.sgpd_map_to_json, legs)])
    )


def test_iterated_free_pushout():
    # generator ids of a pushout are class names; pushing out again nests them
    _, _, gi, _ = horn_collapse_fixture(2, 1)
    total, from_b, _ = pushout_free_sgpd(gi, gi)
    assert total.validate() == []
    again, _, _ = pushout_free_sgpd(from_b, from_b)
    assert again.validate() == []


def test_free_instance_weak_equivalence_detects_failure():
    # the inclusion of a point into the circle's loop groupoid is not a
    # weak equivalence: pi_1 is infinite cyclic downstairs
    s1 = standard_complex("sphere", 1, depth=3)
    pt = standard_complex("point", depth=3)
    to_s1 = SimplicialMap(pt, s1, [{"*": "*"} for _ in range(4)])
    g_pt = loop_groupoid(pt, 2)
    g_s1 = loop_groupoid(s1, 2)
    incl = loop_of_map(to_s1, g_pt, g_s1)
    ok, details = free_instance_weak_equivalence(incl)
    assert ok is False
    assert details["reason"] == "pi1 mismatch"
