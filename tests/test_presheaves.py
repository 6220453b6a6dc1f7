from hpk.groups import GroupTable
from hpk.groupoids import FiniteGroupoid, SimplicialGroupoid
from hpk.presheaves import (
    NaturalTransformation,
    Presheaf,
    apply_pointwise,
    constant_presheaf,
    homotopy_presheaf,
    homotopy_sheaf,
    is_sheaf,
    is_weak_equivalence,
    matching_families,
    pi0_presheaf,
    plus,
    pointwise_unit,
    presheaves_isomorphic,
    sheaf_condition_report,
    sheafify,
    y_u,
)
from hpk.sites import FiniteSite
from hpk.sset import standard_complex
from hpk.two_groupoids import TwoFunctor, TwoGroupoid


def two_object_presheaf(values_u, value_v, restriction):
    site = FiniteSite.two_object_site()
    return Presheaf(
        site,
        "set",
        {"U": tuple(values_u), "V": tuple(value_v)},
        {
            "idU": {x: x for x in values_u},
            "idV": {x: x for x in value_v},
            "f": dict(restriction),
        },
    )


def test_presheaf_validation_catches_broken_functoriality():
    site = FiniteSite.two_object_site()
    presheaf = Presheaf(
        site,
        "set",
        {"U": ("a",), "V": ("c",)},
        {"idU": {"a": "a"}, "idV": {"c": "c"}, "f": {"a": "missing"}},
    )
    assert presheaf.validate() == ["restriction f: map escapes target"]


def test_hand_oracle_sheafification_of_two_point_presheaf():
    f = two_object_presheaf(["a", "b"], ["c"], {"a": "c", "b": "c"})
    plus_f, unit = plus(f)
    # hand oracle: matching families over both covers of U collapse to one
    max_families = matching_families(f, "U", frozenset({"idU", "f"}))
    small_families = matching_families(f, "U", frozenset({"f"}))
    assert len(max_families) == 2 and len(small_families) == 1
    assert len(plus_f.values["U"]) == 1
    assert len(plus_f.values["V"]) == 1
    sheaf, _ = sheafify(f)
    assert is_sheaf(sheaf)
    assert len(sheaf.values["U"]) == 1


def test_sheafify_idempotent_up_to_iso():
    f = two_object_presheaf(["a", "b"], ["c"], {"a": "c", "b": "c"})
    sheaf, _ = sheafify(f)
    again, _ = sheafify(sheaf)
    assert presheaves_isomorphic(sheaf, again) is True


def test_trivial_topology_leaves_presheaves_alone():
    site = FiniteSite.two_object_site(cover_u=False)
    f = Presheaf(
        site,
        "set",
        {"U": ("a", "b"), "V": ("c",)},
        {
            "idU": {"a": "a", "b": "b"},
            "idV": {"c": "c"},
            "f": {"a": "c", "b": "c"},
        },
    )
    assert is_sheaf(f)
    sheaf, unit = sheafify(f)
    assert presheaves_isomorphic(f, sheaf) is True


def test_group_valued_sheafification():
    site = FiniteSite.two_object_site(cover_u=False)
    z2 = GroupTable.cyclic(2)
    f = constant_presheaf(site, "group", z2)
    assert is_sheaf(f)
    sheaf, _ = sheafify(f)
    assert sheaf.values["U"].iso_to(z2) is not None
    # with the nontrivial topology the U-value collapses onto the V-value
    covered = FiniteSite.two_object_site()
    g = Presheaf(
        covered,
        "group",
        {"U": z2, "V": GroupTable.trivial()},
        {
            "idU": {x: x for x in z2.elements},
            "idV": {"e": "e"},
            "f": {x: "e" for x in z2.elements},
        },
    )
    sheaf_g, _ = sheafify(g)
    assert sheaf_g.values["U"].order == 1


def test_sheaf_condition_report_names_failures():
    f = two_object_presheaf(["a", "b"], ["c"], {"a": "c", "b": "c"})
    report = sheaf_condition_report(f)
    assert report  # not separated for the <f> cover
    assert any("separated" in line for line in report)


def test_y_u_counts_and_adjunction():
    from hpk.lifting import count_presheaf_maps
    from hpk.homsearch import count_simplicial_maps

    site = FiniteSite.two_object_site()
    pt = standard_complex("point", depth=1)
    yu = y_u(pt, "U", site)
    assert yu.validate() == []
    # one copy per arrow into U
    assert len(yu.values["V"].levels[0]) == 1
    assert len(yu.values["U"].levels[0]) == 1
    # empty complex gives the empty presheaf
    from hpk.sset import _empty_complex

    empty = _empty_complex(1)
    y_empty = y_u(empty, "U", site)
    assert all(not level for v in site.objects for level in y_empty.values[v].levels)

    # adjunction count: |Hom(Y_U, X)| == |Hom(Y, X(U))|
    d1 = standard_complex("Delta", 1, depth=1)
    x = constant_presheaf(site, "sset", d1)
    left = count_presheaf_maps(y_u(standard_complex("Delta", 1, depth=1), "U", site), x)
    right = count_simplicial_maps(standard_complex("Delta", 1, depth=1), d1)
    assert left == right


def constant_sgpd_presheaf(site, gpd, depth):
    return constant_presheaf(site, "sgpd", SimplicialGroupoid.constant(gpd, depth))


def test_homotopy_presheaf_of_constant_z2():
    site = FiniteSite.two_object_site()
    x = constant_sgpd_presheaf(site, FiniteGroupoid.from_group(GroupTable.cyclic(2)), 2)
    hp = homotopy_presheaf(x, "U", "*", 1)
    assert hp.validate() == []
    # pi_1 of a constant simplicial group is trivial; pi_0-level groups live
    # in the n = 0 Moore computation instead
    assert all(hp.values[phi].order == 1 for phi in hp.site.objects)
    hp0 = homotopy_presheaf(x, "U", "*", 0)
    assert all(hp0.values[phi].order == 2 for phi in hp0.site.objects)


def test_homotopy_presheaf_mixed_sections():
    site = FiniteSite.two_object_site()
    z2 = SimplicialGroupoid.constant(FiniteGroupoid.from_group(GroupTable.cyclic(2)), 2)
    triv = SimplicialGroupoid.constant(FiniteGroupoid.trivial(), 2)
    from hpk.groupoids import GroupoidHom, SimplicialGroupoidMap

    collapse_hom = GroupoidHom(
        z2.levels[0], triv.levels[0], {"*": "*"}, {g: "e" for g in ("g0", "g1")}
    )
    collapse = SimplicialGroupoidMap(z2, triv, {"*": "*"}, [collapse_hom] * 3)
    x = Presheaf(
        site,
        "sgpd",
        {"U": z2, "V": triv},
        {
            "idU": SimplicialGroupoidMap.identity(z2),
            "idV": SimplicialGroupoidMap.identity(triv),
            "f": collapse,
        },
    )
    hp0 = homotopy_presheaf(x, "U", "*", 0)
    sizes = {phi: hp0.values[phi].order for phi in hp0.site.objects}
    assert sizes == {"idU": 2, "f": 1}
    # sheafification over the covered site collapses the U-value
    sheaf = homotopy_sheaf(x, "U", "*", 0)
    assert sheaf.values["idU"].order == 1


def test_pi0_presheaf_and_weak_equivalence_identity():
    site = FiniteSite.two_object_site()
    x = constant_sgpd_presheaf(site, FiniteGroupoid.from_group(GroupTable.cyclic(2)), 3)
    p = pi0_presheaf(x)
    assert p.validate() == []
    from hpk.groupoids import SimplicialGroupoidMap

    ident = NaturalTransformation(
        x, x, {v: SimplicialGroupoidMap.identity(x.values[v]) for v in site.objects}
    )
    ok, witnesses = is_weak_equivalence(ident, "sgpd", n_max=2)
    assert ok, witnesses


def test_weak_equivalence_detects_pi1_killing():
    site = FiniteSite.two_object_site()
    z2 = SimplicialGroupoid.constant(FiniteGroupoid.from_group(GroupTable.cyclic(2)), 3)
    triv = SimplicialGroupoid.constant(FiniteGroupoid.trivial(), 3)
    from hpk.groupoids import GroupoidHom, SimplicialGroupoidMap

    x = constant_presheaf(site, "sgpd", z2)
    y = constant_presheaf(site, "sgpd", triv)
    collapse_hom = GroupoidHom(
        z2.levels[0], triv.levels[0], {"*": "*"}, {g: "e" for g in ("g0", "g1")}
    )
    collapse = SimplicialGroupoidMap(z2, triv, {"*": "*"}, [collapse_hom] * 4)
    nat = NaturalTransformation(x, y, {v: collapse for v in site.objects})
    ok, witnesses = is_weak_equivalence(nat, "sgpd", n_max=2)
    assert not ok
    # the Z/2 that dies is pi_1 of the classifying complex, i.e. the pointed
    # hom-components sheaf (the n = 0 Moore group)
    assert any(w["sheaf"] == "pi0(hom)" for w in witnesses)


def test_weak_equivalence_on_genuine_equivalence():
    # inclusion of a one-object Z/2 groupoid into its two-object fattening
    site = FiniteSite.two_object_site()
    small = FiniteGroupoid.from_group(GroupTable.cyclic(2), obj="x")
    fat = FiniteGroupoid.chaotic(["x", "y"], GroupTable.cyclic(2))
    from hpk.groupoids import GroupoidHom, SimplicialGroupoidMap

    arrows = {g: f"x>x:{g}" for g in ("g0", "g1")}
    incl_hom = GroupoidHom(small, fat, {"x": "x"}, arrows)
    a = constant_presheaf(site, "sgpd", SimplicialGroupoid.constant(small, 3))
    b = constant_presheaf(site, "sgpd", SimplicialGroupoid.constant(fat, 3))
    incl = SimplicialGroupoidMap(
        SimplicialGroupoid.constant(small, 3),
        SimplicialGroupoid.constant(fat, 3),
        {"x": "x"},
        [incl_hom] * 4,
    )
    nat = NaturalTransformation(a, b, {v: incl for v in site.objects})
    ok, witnesses = is_weak_equivalence(nat, "sgpd", n_max=2)
    assert ok, witnesses


def test_weak_equivalence_2gpd_kind():
    site = FiniteSite.two_object_site()
    k = TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(3))
    x = constant_presheaf(site, "2gpd", k)
    ident = NaturalTransformation(
        x, x, {v: TwoFunctor.identity(k) for v in site.objects}
    )
    ok, witnesses = is_weak_equivalence(ident, "2gpd")
    assert ok, witnesses
    # collapsing pi_2 must fail with a named witness
    triv = TwoGroupoid.from_groupoid(FiniteGroupoid.trivial())
    y = constant_presheaf(site, "2gpd", triv)
    only1 = next(iter(triv.cells1))
    only2 = next(iter(triv.cells2))
    collapse = TwoFunctor(
        k,
        triv,
        {"*": "*"},
        {f: only1 for f in k.cells1},
        {a: only2 for a in k.cells2},
    )
    nat = NaturalTransformation(x, y, {v: collapse for v in site.objects})
    ok, witnesses = is_weak_equivalence(nat, "2gpd")
    assert not ok
    assert any(w["sheaf"] == "pi2" for w in witnesses)


def test_homotopy_presheaf_2gpd_values():
    site = FiniteSite.two_object_site()
    k = TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(3))
    x = constant_presheaf(site, "2gpd", k)
    hp = homotopy_presheaf(x, "U", "*", 2)
    assert hp.validate() == []
    assert all(hp.values[phi].iso_to(GroupTable.cyclic(3)) for phi in hp.site.objects)


def test_apply_pointwise_wbar_and_naturality():
    site = FiniteSite.two_object_site()
    x = constant_sgpd_presheaf(site, FiniteGroupoid.from_group(GroupTable.cyclic(2)), 3)
    wb = apply_pointwise("wbar", x, 3)
    assert wb.validate() == []
    assert wb.values["U"].level_sizes() == [1, 2, 4, 8]


def test_apply_pointwise_nerve():
    site = FiniteSite.two_object_site()
    k = TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(3))
    x = constant_presheaf(site, "2gpd", k)
    n = apply_pointwise("nerve", x, 3)
    assert n.validate() == []


def test_apply_pointwise_loop_groupoid():
    site = FiniteSite.two_object_site()
    x = constant_presheaf(site, "sset", standard_complex("sphere", 1, depth=3))
    g = apply_pointwise("G", x, 2)
    assert g.validate() == []
    assert len(g.values["U"].levels[0].generators) == 1


def test_pointwise_unit_on_discrete_fixture():
    # two disjoint points over U collapsing to one point over V
    site = FiniteSite.two_object_site()
    from hpk.sset import disjoint_union, standard_complex as sc

    two, _, _ = disjoint_union(sc("point", depth=3), sc("point", depth=3))
    one = sc("point", depth=3)
    collapse = __import__("hpk.sset", fromlist=["SimplicialMap"]).SimplicialMap(
        two, one, [{s: "*" for s in level} for level in two.levels]
    )
    x = Presheaf(
        site,
        "sset",
        {"U": two, "V": one},
        {
            "idU": __import__("hpk.sset", fromlist=["SimplicialMap"]).SimplicialMap.identity(two),
            "idV": __import__("hpk.sset", fromlist=["SimplicialMap"]).SimplicialMap.identity(one),
            "f": collapse,
        },
    )
    eta = pointwise_unit(x, 2)
    assert eta.validate() == []
    ok, witnesses = _sset_unit_is_weq(eta)
    assert ok, witnesses


def _sset_unit_is_weq(eta):
    """pi_0 sheaf comparison for a map of discrete simplicial-set presheaves."""
    from hpk.presheaves import _induced_sheaf_iso, pi0_presheaf, _components_of_value

    x, y = eta.source, eta.target
    p_x, p_y = pi0_presheaf(x), pi0_presheaf(y)
    components = {}
    for v in x.site.objects:
        reps_y = _components_of_value(y, v)
        components[v] = {
            rep: reps_y[eta.components[v](0, rep)] for rep in p_x.values[v]
        }
    bad = _induced_sheaf_iso(p_x, p_y, components)
    return (not bad), bad


def test_homotopy_sheaf_2gpd_constant_z3():
    site = FiniteSite.two_object_site()
    k = TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(3))
    x = constant_presheaf(site, "2gpd", k)
    sheaf = homotopy_sheaf(x, "U", "*", 2)
    for phi in sheaf.site.objects:
        assert sheaf.values[phi].iso_to(GroupTable.cyclic(3)) is not None


def test_pi0_sheaf_collapses_over_cover():
    from hpk.presheaves import pi0_sheaf
    from hpk.sset import disjoint_union, standard_complex as sc, SimplicialMap as SM

    site = FiniteSite.two_object_site()
    two, _, _ = disjoint_union(sc("point", depth=1), sc("point", depth=1))
    one = sc("point", depth=1)
    collapse = SM(two, one, [{s: "*" for s in lvl} for lvl in two.levels])
    x = Presheaf(
        site,
        "sset",
        {"U": two, "V": one},
        {"idU": SM.identity(two), "idV": SM.identity(one), "f": collapse},
    )
    sheaf = pi0_sheaf(x)
    # the cover <f> identifies the two components of the U-section
    assert len(sheaf.values["U"]) == 1
    assert len(sheaf.values["V"]) == 1
