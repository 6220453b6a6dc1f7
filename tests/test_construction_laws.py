"""Every public construction satisfies the laws of what it builds.

Constructors only store their data, so no law check runs when hpk builds an
object.  Each case here builds the outputs of one construction and runs
``validate()`` on each of them, parts included: a presheaf's site and values,
a natural transformation's endpoints.
"""

import pytest

from hpk.abelian import AbelianHom, ChainFixture, FiniteAbelianGroup
from hpk.groupoids import (
    FiniteGroupoid,
    GroupoidHom,
    SimplicialGroupoid,
    SimplicialGroupoidMap,
    moore_pi_n,
)
from hpk.groups import GroupTable, PresentedGroup
from hpk.homsearch import enumerate_simplicial_maps
from hpk.kan import pi_n_kan
from hpk.lifting import as_point_map, generating_inclusions
from hpk.loop import (
    _truncate_sset,
    counit,
    finitize_discrete,
    loop_groupoid,
    loop_of_map,
    transpose_to_sgpd,
    transpose_to_sset,
    unit,
    wbar,
)
from hpk.model_checks import pullback_sgpd, pushout_free_sgpd
from hpk.presheaves import (
    Presheaf,
    apply_pointwise,
    constant_presheaf,
    homotopy_presheaf,
    homotopy_presheaf_2gpd,
    homotopy_sheaf,
    homotopy_sheaf_2gpd,
    pi0_sheaf,
    plus,
    pointwise_unit,
    sheafify,
    y_u,
)
from hpk.sites import FiniteSite
from hpk.sset import (
    SimplicialMap,
    disjoint_union,
    pullback,
    pushout,
    standard_complex,
    truncate,
)
from hpk.two_groupoids import TwoGroupoid, pi_2gpd


def z2_gpd():
    return FiniteGroupoid.from_group(GroupTable.cyclic(2))


def inclusion(x, y):
    return SimplicialMap(x, y, [{s: s for s in level} for level in x.levels])


def presheaf_parts(p):
    values = [v for v in p.values.values() if hasattr(v, "validate")]
    return [p, p.site, *values]


def nat_parts(nat):
    return [nat, *presheaf_parts(nat.source), *presheaf_parts(nat.target)]


def set_presheaf():
    site = FiniteSite.two_object_site()
    return Presheaf(
        site,
        "set",
        {"U": ("a", "b"), "V": ("c",)},
        {"idU": {"a": "a", "b": "b"}, "idV": {"c": "c"}, "f": {"a": "c", "b": "c"}},
    )


def group_tables():
    z6 = GroupTable.cyclic(6)
    return [
        GroupTable.cyclic(3),
        GroupTable.trivial(),
        GroupTable.direct_product(GroupTable.cyclic(2), GroupTable.cyclic(2, prefix="h")),
        z6.quotient(z6.subgroup_generated(["g2"])),
        PresentedGroup(["t"], [(("t", 1), ("t", 1))]).coset_enumeration(max_cosets=50),
    ]


def groupoids():
    return [
        z2_gpd(),
        FiniteGroupoid.trivial(),
        FiniteGroupoid.chaotic(["x", "y"], GroupTable.cyclic(2)),
        FiniteGroupoid.interval(),
    ]


def sites():
    base = FiniteSite.two_object_site()
    trivial = FiniteSite.trivial_topology(base.objects, base.arrows, base.comp, base.identities)
    return [base, FiniteSite.point_site(), trivial]


def chain_homology():
    z4, z2 = FiniteAbelianGroup([4]), FiniteAbelianGroup([2])
    chain = ChainFixture([z2, z4], [AbelianHom(z4, z2, [(1,)])])
    return [chain.homology(n) for n in (0, 1, 2)]


def sset_constructions():
    d1 = standard_complex("Delta", 1, depth=1)
    b1 = standard_complex("boundary", 1, depth=1)
    pt = standard_complex("point", depth=1)
    include = inclusion(b1, d1)
    union, into_a, into_b = disjoint_union(d1, pt)
    glued, into_b1, into_c1 = pushout(include, include)
    ident = SimplicialMap.identity(d1)
    pulled, onto_b, onto_c = pullback(ident, ident)
    return [
        ident.compose(include),
        union, into_a, into_b,
        glued, into_b1, into_c1,
        pulled, onto_b, onto_c,
        truncate(standard_complex("Delta", 2), 1),
    ]


def homotopy_groups():
    wb = wbar(SimplicialGroupoid.constant(z2_gpd(), 3), 3)
    z3 = SimplicialGroupoid.constant(FiniteGroupoid.from_group(GroupTable.cyclic(3)), 2)
    k = TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(3))
    return [
        pi_n_kan(wb.sset, wb.sset.levels[0][0], 1),
        moore_pi_n(z3, 0),
        pi_2gpd(k, "*", 1),
        pi_2gpd(k, "*", 2),
    ]


def loop_constructions():
    horn = standard_complex("horn", 2, k=1, depth=3)
    simplex = standard_complex("Delta", 2, depth=3)
    g_horn, g_simplex = loop_groupoid(horn, 2), loop_groupoid(simplex, 2)
    gi = loop_of_map(inclusion(horn, simplex), g_horn, g_simplex)
    pt = standard_complex("point", depth=3)
    eta, gx, wb = unit(pt, 2)
    eps, gw, wb2 = counit(SimplicialGroupoid.constant(z2_gpd(), 2), 1)
    discrete = finitize_discrete(loop_groupoid(pt, 2))
    return [gi, eta, gx, wb.sset, eps, gw, wb2.sset, discrete, *discrete.levels]


def transposes():
    x = standard_complex("Delta", 1, depth=3)
    a = SimplicialGroupoid.constant(FiniteGroupoid.interval(), 2)
    wb = wbar(a, 3)
    gx = loop_groupoid(x, 2)
    psi = next(enumerate_simplicial_maps(_truncate_sset(x, 3), wb.sset))
    phi = transpose_to_sgpd(psi, gx, a, wb)
    return [phi, transpose_to_sset(phi, x, gx, wb)]


def sgpd_model_constructions():
    small = FiniteGroupoid.from_group(GroupTable.cyclic(2), obj="x")
    chaotic = FiniteGroupoid.chaotic(["x", "y"], GroupTable.cyclic(2))
    fat = SimplicialGroupoid.constant(chaotic, 2)
    incl_hom = GroupoidHom(small, chaotic, {"x": "x"}, {g: f"x>x:{g}" for g in ("g0", "g1")})
    thin = SimplicialGroupoid.constant(small, 2)
    incl = SimplicialGroupoidMap(thin, fat, {"x": "x"}, [incl_hom] * 3)
    total, to_y, to_z = pullback_sgpd(SimplicialGroupoidMap.identity(fat), incl)
    horn = standard_complex("horn", 2, k=1, depth=3)
    simplex = standard_complex("Delta", 2, depth=3)
    pt = standard_complex("point", depth=3)
    g_horn = loop_groupoid(horn, 2)
    gi = loop_of_map(inclusion(horn, simplex), g_horn, loop_groupoid(simplex, 2))
    crush = SimplicialMap(horn, pt, [{s: "*" for s in level} for level in horn.levels])
    gr = loop_of_map(crush, g_horn, loop_groupoid(pt, 2))
    glued, from_b, from_c = pushout_free_sgpd(gi, gr)
    return [total, *total.levels, to_y, to_z, glued, from_b, from_c]


def presheaf_constructions():
    site = FiniteSite.two_object_site()
    d1 = standard_complex("Delta", 1, depth=1)
    sgpd = constant_presheaf(site, "sgpd", SimplicialGroupoid.constant(z2_gpd(), 3))
    pt = constant_presheaf(site, "sset", standard_complex("point", depth=3))
    return [
        *presheaf_parts(constant_presheaf(site, "sset", d1)),
        *presheaf_parts(y_u(d1, "U", site)),
        *presheaf_parts(apply_pointwise("wbar", sgpd, 3)),
        *presheaf_parts(apply_pointwise("G", pt, 2)),
        *nat_parts(pointwise_unit(pt, 2)),
        *nat_parts(as_point_map(SimplicialMap.identity(d1))),
    ]


def sheaf_constructions():
    _, unit_once = plus(set_presheaf())
    _, unit_twice = sheafify(set_presheaf())
    site = FiniteSite.two_object_site()
    _, group_unit = sheafify(constant_presheaf(site, "group", GroupTable.cyclic(2)))
    x = constant_presheaf(site, "sset", standard_complex("boundary", 1, depth=1))
    return [
        *nat_parts(unit_once), *nat_parts(unit_twice), *nat_parts(group_unit),
        *presheaf_parts(pi0_sheaf(x)),
    ]


def homotopy_sheaves():
    site = FiniteSite.two_object_site()
    x = constant_presheaf(site, "sgpd", SimplicialGroupoid.constant(z2_gpd(), 2))
    k = constant_presheaf(site, "2gpd", TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(3)))
    return [
        *presheaf_parts(homotopy_presheaf(x, "U", "*", None, 0)),
        *presheaf_parts(homotopy_sheaf(x, "U", "*", None, 0)),
        *presheaf_parts(homotopy_presheaf_2gpd(k, "U", "*", 2)),
        *presheaf_parts(homotopy_sheaf_2gpd(k, "U", "*", 2)),
    ]


def inclusions():
    out = []
    for site in (FiniteSite.point_site(), FiniteSite.two_object_site()):
        for _, _, incl in generating_inclusions(site, 1):
            out.extend(nat_parts(incl))
    return out


CONSTRUCTIONS = {
    "group tables": group_tables,
    "groupoids": groupoids,
    "sites": sites,
    "chain homology": chain_homology,
    "simplicial sets and maps": sset_constructions,
    "homotopy groups": homotopy_groups,
    "loop groupoids": loop_constructions,
    "adjunction transposes": transposes,
    "simplicial groupoid pullback and pushout": sgpd_model_constructions,
    "presheaves": presheaf_constructions,
    "sheafification": sheaf_constructions,
    "homotopy sheaves": homotopy_sheaves,
    "generating inclusions": inclusions,
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_construction_outputs_pass_their_law_checks(name):
    outputs = CONSTRUCTIONS[name]()
    assert outputs
    assert [(type(obj).__name__, obj.validate()) for obj in outputs] == [
        (type(obj).__name__, []) for obj in outputs
    ]
