"""The one pointed homotopy-presheaf path against the per-domain code it replaced.

``reference_*`` below are the simplicial-groupoid and 2-groupoid homotopy
presheaves and pointed-witness loops as they were written before the two
domains shared one builder.  The package's ``homotopy_presheaf``,
``homotopy_sheaf`` and ``is_weak_equivalence`` must give the same presheaf
values, restrictions, sheafified results and ordered witness lists.
"""

import gc
import sys
import weakref

import pytest

from hpk import jsonio, presheaves
from hpk.groups import GroupTable
from hpk.groupoids import (
    FiniteGroupoid,
    GroupoidHom,
    SimplicialGroupoid,
    SimplicialGroupoidMap,
    dold_kan,
    hom_simplicial_group,
    moore_pi_n_with_classes,
)
from hpk.model_checks import pullback_sgpd
from hpk.presheaves import (
    NaturalTransformation,
    Presheaf,
    _components_of_value,
    _induced_sheaf_iso,
    constant_presheaf,
    homotopy_presheaf,
    homotopy_sheaf,
    is_weak_equivalence,
    pi0_presheaf,
    sheafify,
)
from hpk.sites import FiniteSite, comma_arrows, comma_site
from hpk.two_groupoids import TwoFunctor, TwoGroupoid, pi1_with_classes, pi_2gpd

DEPTH = 3


# -- the per-domain references ------------------------------------------------


def reference_homotopy_presheaf(x, u, basepoint, loop_vertex, n):
    site = x.site
    comma = comma_site(site, u)
    if basepoint not in x.values[u].objects:
        raise ValueError(f"basepoint {basepoint!r} is not an object of the section")
    pi_tables = {}
    classifiers = {}
    for phi in comma.objects:
        v = site.src(phi)
        x_v = x.restrictions[phi].obj_map[basepoint]
        loops = hom_simplicial_group(x.values[v], x_v)
        table, classify = moore_pi_n_with_classes(loops, n)
        pi_tables[phi] = table
        classifiers[phi] = classify
    restrictions = {}
    for name, h, psi, phi in comma_arrows(site, u):
        hom = x.restrictions[h]
        table = {}
        for cls in pi_tables[phi].elements:
            table[cls] = classifiers[psi][hom.level(n)(cls)]
        restrictions[name] = table
    return Presheaf(comma, "group", pi_tables, restrictions)


def reference_homotopy_presheaf_2gpd(x, u, basepoint, i):
    site = x.site
    comma = comma_site(site, u)
    if basepoint not in x.values[u].objects:
        raise ValueError(f"basepoint {basepoint!r} is not an object of the section")
    tables = {}
    classifiers = {}
    for phi in comma.objects:
        v = site.src(phi)
        x_v = x.restrictions[phi].obj_map[basepoint]
        k = x.values[v]
        if i == 1:
            table, rep_of = pi1_with_classes(k, x_v)
            tables[phi] = table
            classifiers[phi] = rep_of
        elif i == 2:
            table = pi_2gpd(k, x_v, 2)
            tables[phi] = table
            classifiers[phi] = {c: c for c in table.elements}
        else:
            raise ValueError("i must be 1 or 2")
    restrictions = {}
    for name, h, psi, phi in comma_arrows(site, u):
        func = x.restrictions[h]
        table = {}
        for cls in tables[phi].elements:
            image = func.map1[cls] if i == 1 else func.map2[cls]
            table[cls] = classifiers[psi][image]
        restrictions[name] = table
    return Presheaf(comma, "group", tables, restrictions)


def reference_sgpd_pointed_witnesses(nat, n_max):
    x, y = nat.source, nat.target
    site = x.site
    witnesses = []
    for u in site.objects:
        for basepoint in x.values[u].objects:
            fx = nat.components[u].obj_map[basepoint]
            for n in range(0, n_max + 1):
                px = reference_homotopy_presheaf(x, u, basepoint, None, n)
                py = reference_homotopy_presheaf(y, u, fx, None, n)
                components = {}
                for phi in px.site.objects:
                    v = site.src(phi)
                    hom = nat.components[v]
                    y_v = y.restrictions[phi].obj_map[fx]
                    loops = hom_simplicial_group(y.values[v], y_v)
                    _, classify = moore_pi_n_with_classes(loops, n)
                    table = {}
                    for cls in px.values[phi].elements:
                        table[cls] = classify[hom.level(n)(cls)]
                    components[phi] = table
                bad = _induced_sheaf_iso(px, py, components)
                for obj in bad:
                    witnesses.append(
                        {
                            "sheaf": "pi0(hom)" if n == 0 else f"pi{n}(hom)",
                            "section": u,
                            "basepoint": basepoint,
                            "comma_object": obj,
                        }
                    )
    return witnesses


def reference_2gpd_pointed_witnesses(nat):
    x, y = nat.source, nat.target
    site = x.site
    witnesses = []
    for u in site.objects:
        for basepoint in x.values[u].objects:
            fx = nat.components[u].obj_map[basepoint]
            for i in (1, 2):
                px = reference_homotopy_presheaf_2gpd(x, u, basepoint, i)
                py = reference_homotopy_presheaf_2gpd(y, u, fx, i)
                components = {}
                for phi in px.site.objects:
                    v = site.src(phi)
                    func = nat.components[v]
                    y_v = y.restrictions[phi].obj_map[fx]
                    if i == 1:
                        _, classify = pi1_with_classes(y.values[v], y_v)
                    else:
                        classify = {c: c for c in pi_2gpd(y.values[v], y_v, 2).elements}
                    table = {}
                    for cls in px.values[phi].elements:
                        image = func.map1[cls] if i == 1 else func.map2[cls]
                        table[cls] = classify[image]
                    components[phi] = table
                bad = _induced_sheaf_iso(px, py, components)
                for obj in bad:
                    witnesses.append(
                        {
                            "sheaf": f"pi{i}",
                            "section": u,
                            "basepoint": basepoint,
                            "comma_object": obj,
                        }
                    )
    return witnesses


def reference_is_weak_equivalence(nat, kind, n_max=2):
    x, y = nat.source, nat.target
    site = x.site
    witnesses = []
    pi0_x, pi0_y = pi0_presheaf(x), pi0_presheaf(y)
    components = {}
    for v in site.objects:
        reps_y = _components_of_value(y, v)
        components[v] = {
            rep: reps_y[nat.components[v].obj_map[rep]] for rep in pi0_x.values[v]
        }
    for obj in _induced_sheaf_iso(pi0_x, pi0_y, components):
        witnesses.append({"sheaf": "pi0", "object": obj})
    if kind == "sgpd":
        witnesses.extend(reference_sgpd_pointed_witnesses(nat, n_max))
    else:
        witnesses.extend(reference_2gpd_pointed_witnesses(nat))
    return (not witnesses), witnesses


# -- fixtures -----------------------------------------------------------------


def constant(gpd):
    return SimplicialGroupoid.constant(gpd, DEPTH)


def sgpd_map(src_gpd, tgt_gpd, obj_map, arrow_map):
    hom = GroupoidHom(src_gpd, tgt_gpd, obj_map, arrow_map)
    return SimplicialGroupoidMap(constant(src_gpd), constant(tgt_gpd), obj_map, [hom] * (DEPTH + 1))


def properness_squares():
    """The three right-properness pullback squares (p, g) of criterion 10."""
    z2 = GroupTable.cyclic(2)
    small = FiniteGroupoid.from_group(z2, obj="x")
    fat = FiniteGroupoid.chaotic(["x", "y"], z2)
    fat_incl = sgpd_map(small, fat, {"x": "x"}, {g: f"x>x:{g}" for g in ("g0", "g1")})
    chaotic_z2 = FiniteGroupoid.chaotic(["0", "1"], z2)
    chaotic_triv = FiniteGroupoid.chaotic(["0", "1"])
    collapse = sgpd_map(
        chaotic_z2,
        chaotic_triv,
        {"0": "0", "1": "1"},
        {f: f"{s}>{t}:e" for f, (s, t) in chaotic_z2.arrows.items()},
    )
    point = FiniteGroupoid.trivial("0")
    point_incl = sgpd_map(point, chaotic_triv, {"0": "0"}, {"e": "0>0:e"})
    z2_one = FiniteGroupoid.from_group(z2, obj="0")
    z2_proj = sgpd_map(z2_one, point, {"0": "0"}, {"g0": "e", "g1": "e"})
    interval = FiniteGroupoid.interval()
    interval_collapse = sgpd_map(
        interval, point, {"0": "0", "1": "0"}, {f: "e" for f in interval.arrows}
    )
    return {
        "identity of fat": (SimplicialGroupoidMap.identity(fat_incl.target), fat_incl),
        "collapse": (collapse, point_incl),
        "Z/2 projection": (z2_proj, interval_collapse),
    }


def square_nat(p_map, g_map):
    site = FiniteSite.two_object_site()
    total, to_y, _ = pullback_sgpd(p_map, g_map)
    x = constant_presheaf(site, "sgpd", total)
    y = constant_presheaf(site, "sgpd", p_map.source)
    return NaturalTransformation(x, y, {v: to_y for v in site.objects})


def planted_nat():
    """The planted pi_1-killing map: constant Z/2 onto the point."""
    site = FiniteSite.two_object_site()
    z2 = FiniteGroupoid.from_group(GroupTable.cyclic(2))
    kill = sgpd_map(z2, FiniteGroupoid.trivial(), {"*": "*"}, {"g0": "e", "g1": "e"})
    x = constant_presheaf(site, "sgpd", kill.source)
    y = constant_presheaf(site, "sgpd", kill.target)
    return NaturalTransformation(x, y, {v: kill for v in site.objects})


def mixed_sgpd_nat():
    """Z/2 over U restricting to the point over V, mapped identically."""
    site = FiniteSite.two_object_site()
    z2 = FiniteGroupoid.from_group(GroupTable.cyclic(2))
    collapse = sgpd_map(z2, FiniteGroupoid.trivial(), {"*": "*"}, {"g0": "e", "g1": "e"})
    x = Presheaf(
        site,
        "sgpd",
        {"U": collapse.source, "V": collapse.target},
        {
            "idU": SimplicialGroupoidMap.identity(collapse.source),
            "idV": SimplicialGroupoidMap.identity(collapse.target),
            "f": collapse,
        },
    )
    return NaturalTransformation(
        x, x, {v: SimplicialGroupoidMap.identity(x.values[v]) for v in site.objects}
    )


def dold_kan_nat():
    """Dold-Kan of Z/2 in chain degree 1, whose Moore pi_1 is Z/2, crushed to
    the point: the one sgpd fixture that fails above degree 0."""
    site = FiniteSite.two_object_site()
    x = dold_kan(jsonio.chain_from_json({"groups": [[], [2]], "boundaries": [[[]]]}), DEPTH)
    point = constant(FiniteGroupoid.trivial())
    homs = [
        GroupoidHom(level, point.levels[n], {"*": "*"}, {a: "e" for a in level.arrows})
        for n, level in enumerate(x.levels)
    ]
    crush = SimplicialGroupoidMap(x, point, {"*": "*"}, homs)
    return NaturalTransformation(
        constant_presheaf(site, "sgpd", x),
        constant_presheaf(site, "sgpd", point),
        {v: crush for v in site.objects},
    )


def two_type():
    """One object with pi_1 = Z/2 and pi_2 = Z/3, acted on trivially: 2-cells
    are pairs (c, f) on the loop f, composing as c + c' and f f'."""
    loops = ["e", "g"]
    times = {(f, h): "e" if f == h else "g" for f in loops for h in loops}
    cell = {(c, f): f"{c}{f}" for c in range(3) for f in loops}
    return TwoGroupoid(
        ["*"],
        {f: ("*", "*") for f in loops},
        times,
        {"*": "e"},
        {f: f for f in loops},
        {name: (f, f) for (_, f), name in cell.items()},
        {(cell[c, f], cell[d, f]): cell[(c + d) % 3, f]
         for c in range(3) for d in range(3) for f in loops},
        {(cell[c, f], cell[d, h]): cell[(c + d) % 3, times[f, h]]
         for (c, f) in cell for (d, h) in cell},
        {f: cell[0, f] for f in loops},
        {cell[c, f]: cell[-c % 3, f] for (c, f) in cell},
    )


def collapse_2gpd(k, triv):
    only1, only2 = next(iter(triv.cells1)), next(iter(triv.cells2))
    return TwoFunctor(
        k,
        triv,
        {o: next(iter(triv.objects)) for o in k.objects},
        {f: only1 for f in k.cells1},
        {a: only2 for a in k.cells2},
    )


def two_groupoid_nats():
    site = FiniteSite.two_object_site()
    k = TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(3))
    triv = TwoGroupoid.from_groupoid(FiniteGroupoid.trivial())
    x = constant_presheaf(site, "2gpd", k)
    mixed = Presheaf(
        site,
        "2gpd",
        {"U": k, "V": triv},
        {
            "idU": TwoFunctor.identity(k),
            "idV": TwoFunctor.identity(triv),
            "f": collapse_2gpd(k, triv),
        },
    )
    # pi_1 = Z/2 on two objects, collapsed onto the chaotic trivial groupoid
    chaotic = TwoGroupoid.from_groupoid(FiniteGroupoid.chaotic(["x", "y"], GroupTable.cyclic(2)))
    flat = TwoGroupoid.from_groupoid(FiniteGroupoid.chaotic(["x", "y"]))
    map1 = {f: f"{s}>{t}:e" for f, (s, t) in chaotic.cells1.items()}
    kill1 = TwoFunctor(
        chaotic,
        flat,
        {"x": "x", "y": "y"},
        map1,
        {f"i[{f}]": f"i[{g}]" for f, g in map1.items()},
    )
    # pi_1 = Z/2 and pi_2 = Z/3 at one object and pi_1 = Z/2 at the other,
    # each crushed to a point: the first basepoint fails in both degrees and
    # the second in one, which fixes the order of the witness loops
    z2_loops = TwoGroupoid.from_groupoid(FiniteGroupoid.from_group(GroupTable.cyclic(2)))
    both = TwoGroupoid.disjoint_union(two_type(), z2_loops)
    points = TwoGroupoid.disjoint_union(triv, triv)
    crush1 = {f: points.id1[s] for f, (s, _) in both.cells1.items()}
    crush = TwoFunctor(
        both,
        points,
        {o: o for o in both.objects},
        crush1,
        {a: points.id2[crush1[f]] for a, (f, _) in both.cells2.items()},
    )
    return {
        "2gpd identity": NaturalTransformation(
            x, x, {v: TwoFunctor.identity(k) for v in site.objects}
        ),
        "2gpd pi2 collapse": NaturalTransformation(
            x,
            constant_presheaf(site, "2gpd", triv),
            {v: collapse_2gpd(k, triv) for v in site.objects},
        ),
        "2gpd mixed identity": NaturalTransformation(
            mixed, mixed, {"U": TwoFunctor.identity(k), "V": TwoFunctor.identity(triv)}
        ),
        "2gpd pi1 and pi2 crushed": NaturalTransformation(
            constant_presheaf(site, "2gpd", both),
            constant_presheaf(site, "2gpd", points),
            {v: crush for v in site.objects},
        ),
        "2gpd pi1 collapse": NaturalTransformation(
            constant_presheaf(site, "2gpd", chaotic),
            constant_presheaf(site, "2gpd", flat),
            {v: kill1 for v in site.objects},
        ),
    }


def weq_fixtures():
    """{name: (natural transformation, kind)}."""
    out = {name: (square_nat(*legs), "sgpd") for name, legs in properness_squares().items()}
    out["planted pi1-killing"] = (planted_nat(), "sgpd")
    out["sgpd mixed identity"] = (mixed_sgpd_nat(), "sgpd")
    out["Dold-Kan pi1 crushed"] = (dold_kan_nat(), "sgpd")
    out.update((name, (nat, "2gpd")) for name, nat in two_groupoid_nats().items())
    return out


WEQ = weq_fixtures()


def presheaf_cases():
    """(name, presheaf, section, basepoint, degree, reference builder) of every
    presheaf the fixtures hold, at every section and basepoint."""
    seen = set()
    for name, (nat, kind) in WEQ.items():
        for side, x in (("source", nat.source), ("target", nat.target)):
            if id(x) in seen:
                continue
            seen.add(id(x))
            for u in x.site.objects:
                for basepoint in x.values[u].objects:
                    if kind == "sgpd":
                        for n in range(3):
                            yield (f"{name} {side} {u} {basepoint} n={n}", x, u, basepoint, n,
                                   lambda x, u, b, n: reference_homotopy_presheaf(x, u, b, None, n))
                    else:
                        for i in (1, 2):
                            yield (f"{name} {side} {u} {basepoint} i={i}", x, u, basepoint, i,
                                   reference_homotopy_presheaf_2gpd)


PRESHEAF_CASES = {case[0]: case[1:] for case in presheaf_cases()}


# -- the differential tests ----------------------------------------------------


def test_the_fixtures_cover_both_domains_and_both_verdicts():
    verdicts = {(kind, reference_is_weak_equivalence(nat, kind)[0]) for nat, kind in WEQ.values()}
    assert verdicts == {("sgpd", True), ("sgpd", False), ("2gpd", True), ("2gpd", False)}
    degrees = {(x.domain, n) for x, _, _, n, _ in PRESHEAF_CASES.values()}
    assert degrees == {("sgpd", 0), ("sgpd", 1), ("sgpd", 2), ("2gpd", 1), ("2gpd", 2)}


@pytest.mark.parametrize("name", sorted(PRESHEAF_CASES))
def test_homotopy_presheaf_matches_the_reference(name):
    x, u, basepoint, n, reference = PRESHEAF_CASES[name]
    want = reference(x, u, basepoint, n)
    got = homotopy_presheaf(x, u, basepoint, n)
    assert got.validate() == []
    assert jsonio.presheaf_to_json(got) == jsonio.presheaf_to_json(want)
    assert jsonio.presheaf_to_json(homotopy_sheaf(x, u, basepoint, n)) == (
        jsonio.presheaf_to_json(sheafify(want)[0])
    )


@pytest.mark.parametrize("name", sorted(WEQ))
def test_weak_equivalence_witnesses_match_the_reference(name):
    nat, kind = WEQ[name]
    assert is_weak_equivalence(nat, kind, 2) == reference_is_weak_equivalence(nat, kind, 2)


def test_sgpd_witnesses_match_the_reference_at_each_n_max():
    for name in ("planted pi1-killing", "Dold-Kan pi1 crushed", "collapse", "sgpd mixed identity"):
        nat, kind = WEQ[name]
        for n_max in (0, 1, 2):
            assert is_weak_equivalence(nat, kind, n_max) == (
                reference_is_weak_equivalence(nat, kind, n_max)
            )


def test_collapse_square_builds_each_loop_group_once_per_section_point_and_degree(monkeypatch):
    # the reference builds one per side, comma object, basepoint and degree,
    # and once more for the induced map; the package one per distinct
    # (section object, point, degree) of the call: the constant presheaves
    # hold one section object each, at one point per side, in degrees 0 to 2
    calls = {"package": 0, "reference": 0}
    build = hom_simplicial_group

    def counting(key):
        def call(*args):
            calls[key] += 1
            return build(*args)

        return call

    monkeypatch.setattr(presheaves, "hom_simplicial_group", counting("package"))
    monkeypatch.setattr(sys.modules[__name__], "hom_simplicial_group", counting("reference"))
    nat, kind = WEQ["collapse"]
    assert is_weak_equivalence(nat, kind, 2) == reference_is_weak_equivalence(nat, kind, 2)
    assert calls == {"package": 6, "reference": 27}


@pytest.mark.parametrize("name", sorted(WEQ))
def test_weak_equivalence_of_each_fixture_read_back_matches_the_reference(name):
    # read back, equal sections and maps are shared objects, so the memo of
    # the call meets the same keys from both sides of the transformation
    nat, kind = WEQ[name]
    read = jsonio.nat_from_json(jsonio.nat_to_json(nat))
    assert is_weak_equivalence(read, kind, 2) == reference_is_weak_equivalence(nat, kind, 2)


def test_nothing_outlives_a_criterion_call():
    nat, kind = WEQ["collapse"]
    read = jsonio.nat_from_json(jsonio.nat_to_json(nat))
    gc.collect()
    before = live_presheaves()
    is_weak_equivalence(read, kind, 2)
    homotopy_sheaf(read.source, "U", read.source.values["U"].objects[0], 1)
    gc.collect()
    assert live_presheaves() == before
    survivor = weakref.ref(read)
    del read
    gc.collect()
    assert survivor() is None


def live_presheaves():
    return sum(isinstance(o, (Presheaf, NaturalTransformation)) for o in gc.get_objects())


@pytest.mark.parametrize(
    "name, kind, domain",
    [("planted pi1-killing", "2gpd", "sgpd"), ("2gpd identity", "sgpd", "2gpd")],
)
def test_a_kind_other_than_the_values_is_refused(name, kind, domain):
    nat, _ = WEQ[name]
    with pytest.raises(ValueError) as exc:
        is_weak_equivalence(nat, kind)
    assert str(exc.value) == (
        f"kind {kind!r} does not match the values of the transformation "
        f"({domain!r} to {domain!r})"
    )


def test_homotopy_presheaf_errors():
    nat, _ = WEQ["2gpd identity"]
    with pytest.raises(ValueError, match="i must be 1 or 2"):
        homotopy_presheaf(nat.source, "U", "*", 3)
    with pytest.raises(ValueError, match="basepoint 'zz' is not an object"):
        homotopy_presheaf(nat.source, "U", "zz", 3)
    set_valued = constant_presheaf(FiniteSite.two_object_site(), "set", ("a",))
    with pytest.raises(ValueError, match="needs simplicial groupoid or 2-groupoid values"):
        homotopy_presheaf(set_valued, "U", "a", 1)
