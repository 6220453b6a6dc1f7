"""Byte-identity guard: ids and JSON output must not change under refactors.

Each case builds its input from the fixtures used elsewhere in the suite, runs
one CLI command in-process (or one construction that has no CLI command), and
compares the sha256 of the bytes with a digest recorded before the id
parsers were removed from the package.  A digest changes only when an id or
the output format changes, which must be deliberate.
"""

import hashlib
import json
import sys

import pytest

from hpk import jsonio
from hpk.budgets import Meter
from hpk.cli import COMMANDS, build_parser, main
from hpk.groups import GroupTable
from hpk.groupoids import (
    FiniteGroupoid,
    GroupoidHom,
    SimplicialGroupoid,
    SimplicialGroupoidMap,
    dold_kan,
    hom_complex,
)
from hpk.homsearch import enumerate_simplicial_maps
from hpk.lifting import as_point_presheaf, enumerate_presheaf_sset_maps
from hpk.loop import enumerate_sgpd_maps, loop_groupoid, loop_of_map, wbar
from hpk.model_checks import pullback_sgpd, pushout_free_sgpd
from hpk.presheaves import (
    DOMAINS,
    NaturalTransformation,
    Presheaf,
    apply_pointwise,
    constant_presheaf,
    y_u,
)
from hpk.sites import FiniteSite
from hpk.sset import (
    SimplicialMap,
    disjoint_union,
    pushout,
    standard_complex,
    truncate as _truncate,
)
from hpk.two_groupoids import TwoFunctor, TwoGroupoid, nerve
from hpk.whitehead import count_presented_functors, counit_functor, whitehead_2gpd

GOLDEN = {
    "nerve": "c170111ae5b613ba4b7d02c4731ec5608590fd5b4d0cc9f48f6f16d1697d9d94",
    "whitehead": "04d5c6981b4862194e4ffb7e9a91347855fcad07f7c5f18b929ba0af5b0738ea",
    "comma": "34d3adee528794d8a13044b7d01872a4dd3b3ce2347ec6285966a12e2f7923e7",
    "sheafify_set": "45e53e6c640adcdaf31a988ce9f679332e3d30f06e83c6e5ed61ff4bb24603ea",
    "sheafify_group": "be121390543b0ec51c77a851524a9145aedd0fdaf948885816db43f0ddb65475",
    "hsheaf_sgpd": "4210b0ace8186e0648260e741dba90fa21f37607086eb32331780575628730cd",
    "hsheaf_2gpd": "f1daf4825e22487644ab9d3aa30eda8af36fea1d4e0de632ba32b0299d07b5a9",
    "weq_identity": "5519949da6cd3c6dda66b274caf3b931849d83ff2a3ea4049cd3f273a6e0874c",
    "weq_collapse": "a7af4e164af823ba03b3faba97949ad84d2a00f22694b656d27f6066d9a8bda2",
    "pullback": "a921c94a12470532736e129662f6c5c71646170f99e57f38b53ba86b710e7b96",
    "pullback_sgpd": "831f86c81d52a78e80b67f99a1ee6df4f2314a3656b77d7a21a7585a08cf8217",
    "pushout_free_sgpd": "3b3023ff31451e94b5204d1f65d20c89617c5b0d83c30bf60cf379019b53a58d",
    "nerve_pointwise": "78e575de673ff5f190d4c6a632b9d73b93a2501edbc550ef42be44f12c44ff70",
    "counit_functor": "9571b178ead3867f4500098bebf4d833930952f7aa81e1c57bfd99a1e4427615",
    "chaotic": "a03a54fe1ac56672cb244145cbd3c358e6de0af19a27d402fca89954dea64527",
}


def _digest(data):
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _cli(tmp_path, capsys, name, payload, *argv):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    main([argv[0], str(path), *argv[1:]])
    return capsys.readouterr().out.encode()


def _pi2_z3():
    return TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(3))


def _z2_sgpd(depth):
    return SimplicialGroupoid.constant(FiniteGroupoid.from_group(GroupTable.cyclic(2)), depth)


def _collapse_2gpd(k):
    triv = TwoGroupoid.from_groupoid(FiniteGroupoid.trivial())
    return TwoFunctor(
        k,
        triv,
        {o: "*" for o in k.objects},
        {f: next(iter(triv.cells1)) for f in k.cells1},
        {a: next(iter(triv.cells2)) for a in k.cells2},
    )


def _cli_cases(tmp_path, capsys):
    site = FiniteSite.two_object_site()
    out = {}
    k = _pi2_z3()
    out["nerve"] = _cli(tmp_path, capsys, "k", k.to_json(), "nerve", "--depth", "4")
    out["whitehead"] = _cli(
        tmp_path, capsys, "n4", nerve(k, 4).to_json(), "whitehead", "--pi1-at", "*"
    )
    out["comma"] = _cli(tmp_path, capsys, "site", site.to_json(), "comma", "--object", "U")
    set_presheaf = {
        "site": site.to_json(),
        "domain": "set",
        "values": {"U": ["a", "b"], "V": ["c", "d"]},
        "restrictions": {
            "idU": {"a": "a", "b": "b"},
            "idV": {"c": "c", "d": "d"},
            "f": {"a": "c", "b": "d"},
        },
    }
    out["sheafify_set"] = _cli(tmp_path, capsys, "set", set_presheaf, "sheafify")
    z2 = GroupTable.cyclic(2)
    group_presheaf = Presheaf(
        site,
        "group",
        {"U": z2, "V": z2},
        {
            "idU": {g: g for g in z2.elements},
            "idV": {g: g for g in z2.elements},
            "f": {g: g for g in z2.elements},
        },
    )
    out["sheafify_group"] = _cli(
        tmp_path, capsys, "group", jsonio.presheaf_to_json(group_presheaf), "sheafify"
    )
    sgpd_presheaf = constant_presheaf(site, "sgpd", _z2_sgpd(2))
    out["hsheaf_sgpd"] = _cli(
        tmp_path, capsys, "pre", jsonio.presheaf_to_json(sgpd_presheaf),
        "hsheaf", "--object", "U", "--base", "*", "-n", "0",
    )
    two_presheaf = constant_presheaf(site, "2gpd", k)
    out["hsheaf_2gpd"] = _cli(
        tmp_path, capsys, "pre2", jsonio.presheaf_to_json(two_presheaf),
        "hsheaf", "--object", "U", "--base", "*", "-n", "2",
    )
    x = constant_presheaf(site, "sgpd", _z2_sgpd(3))
    ident = NaturalTransformation(
        x, x, {v: SimplicialGroupoidMap.identity(x.values[v]) for v in site.objects}
    )
    out["weq_identity"] = _cli(
        tmp_path, capsys, "ident", jsonio.nat_to_json(ident),
        "weq", "--kind", "sgpd", "--nmax", "2",
    )
    triv = SimplicialGroupoid.constant(FiniteGroupoid.trivial(), 3)
    collapse_hom = GroupoidHom(
        x.values["U"].levels[0], triv.levels[0], {"*": "*"}, {g: "e" for g in ("g0", "g1")}
    )
    collapse = SimplicialGroupoidMap(x.values["U"], triv, {"*": "*"}, [collapse_hom] * 4)
    y = constant_presheaf(site, "sgpd", triv)
    killing = NaturalTransformation(x, y, {v: collapse for v in site.objects})
    out["weq_collapse"] = _cli(
        tmp_path, capsys, "collapse", jsonio.nat_to_json(killing),
        "weq", "--kind", "sgpd", "--nmax", "2",
    )
    d2 = standard_complex("Delta", 2)
    horn = standard_complex("horn", 2, k=1, depth=2)
    include = SimplicialMap(horn, d2, [{s: s for s in level} for level in horn.levels])
    f_path = tmp_path / "f.json"
    f_path.write_text(json.dumps(jsonio.smap_to_json(include)))
    main(["pullback", str(f_path), str(f_path)])
    out["pullback"] = capsys.readouterr().out.encode()
    return out


def _construction_cases():
    out = {}
    z2 = _z2_sgpd(2)
    chaotic = FiniteGroupoid.chaotic(["x", "y"], GroupTable.cyclic(2))
    fat = SimplicialGroupoid.constant(chaotic, 2)
    small = FiniteGroupoid.from_group(GroupTable.cyclic(2), obj="x")
    incl_hom = GroupoidHom(small, chaotic, {"x": "x"}, {g: f"x>x:{g}" for g in ("g0", "g1")})
    incl = SimplicialGroupoidMap(
        SimplicialGroupoid.constant(small, 2), fat, {"x": "x"}, [incl_hom] * 3
    )
    total, to_y, to_z = pullback_sgpd(SimplicialGroupoidMap.identity(fat), incl)
    out["pullback_sgpd"] = [
        total.to_json(), jsonio.sgpd_map_to_json(to_y), jsonio.sgpd_map_to_json(to_z)
    ]
    ident = SimplicialGroupoidMap.identity(z2)
    total, to_y, to_z = pullback_sgpd(ident, ident)
    out["pullback_sgpd"].append(
        [total.to_json(), jsonio.sgpd_map_to_json(to_y), jsonio.sgpd_map_to_json(to_z)]
    )

    depth = 3
    horn = standard_complex("horn", 2, k=1, depth=depth)
    simplex = standard_complex("Delta", 2, depth=depth)
    point = standard_complex("point", depth=depth)
    include = SimplicialMap(horn, simplex, [{s: s for s in level} for level in horn.levels])
    crush = SimplicialMap(horn, point, [{s: "*" for s in level} for level in horn.levels])
    g_horn, g_simplex, g_point = (loop_groupoid(c, 2) for c in (horn, simplex, point))
    gi = loop_of_map(include, g_horn, g_simplex)
    gr = loop_of_map(crush, g_horn, g_point)
    total, from_b, from_c = pushout_free_sgpd(gi, gr)
    out["pushout_free_sgpd"] = [
        total.to_json(), jsonio.sgpd_map_to_json(from_b), jsonio.sgpd_map_to_json(from_c)
    ]

    site = FiniteSite.two_object_site()
    k = _pi2_z3()
    triv = TwoGroupoid.from_groupoid(FiniteGroupoid.trivial())
    x = Presheaf(
        site,
        "2gpd",
        {"U": k, "V": triv},
        {"idU": TwoFunctor.identity(k), "idV": TwoFunctor.identity(triv), "f": _collapse_2gpd(k)},
    )
    out["nerve_pointwise"] = jsonio.presheaf_to_json(apply_pointwise("nerve", x, 4))

    interval = TwoGroupoid.from_groupoid(FiniteGroupoid.interval())
    out["counit_functor"] = [
        dict(sorted(counit_functor(c, nerve(c, 3)).map2.items())) for c in (k, interval)
    ]
    out["chaotic"] = chaotic.to_json()
    return out


def test_golden_digests(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("HPK_BUDGET", raising=False)
    outputs = {**_cli_cases(tmp_path, capsys), **_construction_cases()}
    assert set(outputs) == set(GOLDEN)
    got = {name: _digest(data) for name, data in outputs.items()}
    assert got == GOLDEN



# `jsonio.dumps` of the constructions no other digest covers, recorded before
# their face and degeneracy tables were built by `sset.complex_from_keys`:
# every standard complex for n 0-3 at depths n..n+2, coproducts, hom complexes,
# pushouts and y_u on the two-object site, each family keyed by case
GOLDEN_CONSTRUCTIONS = {
    "standard": "58e07894bb7c1f8a62001a5d9072775f61f60b3f4bf7aa05804ff39ae53b07d9",
    "disjoint_union": "aedd66cbdad2620f4e77303a99b7748fc4c82b48a702184ad5b6920e37c9b8f8",
    "hom_complex": "192c5d61106f70cd08255d1908e0df56cd5258d7fe0360faf11fad817d8328a1",
    "pushout": "4eb5f7987861900127b1f70a7c71099b80428e3978cafa86a5cc49cce14eedaa",
    "y_u": "844951094a50f47d4718ea949854c01cc9e7823057b3ba51b012045698b58055",
}


def _standard_cases():
    out = {f"point {depth}": standard_complex("point", depth=depth) for depth in range(6)}
    for n in range(4):
        for depth in range(n, n + 3):
            out[f"Delta {n} {depth}"] = standard_complex("Delta", n, depth=depth)
            out[f"boundary {n} {depth}"] = standard_complex("boundary", n, depth=depth)
            for k in range(n + 1):
                out[f"horn {n} {k} {depth}"] = standard_complex("horn", n, k=k, depth=depth)
            if n:
                out[f"sphere {n} {depth}"] = standard_complex("sphere", n, depth=depth)
    return {name: x.to_json() for name, x in out.items()}


def _coproduct_cases():
    out = {}
    pairs = {
        "delta_sphere": (standard_complex("Delta", 1, depth=2), standard_complex("sphere", 1, depth=2)),
        "empty_point": (standard_complex("boundary", 0, depth=1), standard_complex("point", depth=1)),
    }
    for name, (x, y) in pairs.items():
        for tags in (("a", "b"), ("left", "right")):
            union, incl_x, incl_y = disjoint_union(x, y, tags)
            out[f"{name} {tags[0]}"] = [union.to_json(), incl_x.to_json(), incl_y.to_json()]
    return out


def _hom_complex_cases():
    chaotic = SimplicialGroupoid.constant(
        FiniteGroupoid.chaotic(["x", "y"], GroupTable.cyclic(2)), 2
    )
    chain = jsonio.chain_from_json({"groups": [[2], [4]], "boundaries": [[[1]]]})
    out = {f"chaotic {x} {y}": hom_complex(chaotic, x, y).to_json() for x, y in ("xy", "yx", "xx")}
    out["dold_kan"] = hom_complex(dold_kan(chain, 3), "*", "*").to_json()
    return out


def _pushout_cases():
    out = {}
    b1 = standard_complex("boundary", 1, depth=2)
    d1 = standard_complex("Delta", 1, depth=2)
    point = standard_complex("point", depth=2)
    include = SimplicialMap(b1, d1, [{x: x for x in level} for level in b1.levels])
    crush = SimplicialMap(b1, point, [{x: "*" for x in level} for level in b1.levels])
    for name, (f, g) in {"circle": (include, crush), "two_edges": (include, include)}.items():
        d, into_b, into_c = pushout(f, g)
        out[name] = [d.to_json(), into_b.to_json(), into_c.to_json()]
    return out


def _y_u_cases():
    site = FiniteSite.two_object_site()
    out = {}
    for name, x in {"Delta1": standard_complex("Delta", 1, depth=2),
                    "sphere2": standard_complex("sphere", 2, depth=2)}.items():
        for u in site.objects:
            out[f"{name} {u}"] = jsonio.presheaf_to_json(y_u(x, u, site))
    return out


def test_construction_golden_digests():
    families = {
        "standard": _standard_cases,
        "disjoint_union": _coproduct_cases,
        "hom_complex": _hom_complex_cases,
        "pushout": _pushout_cases,
        "y_u": _y_u_cases,
    }
    got = {
        name: hashlib.sha256(jsonio.dumps(cases()).encode()).hexdigest()
        for name, cases in families.items()
    }
    assert got == GOLDEN_CONSTRUCTIONS


# -- one document of every kind ----------------------------------------------------


def domain_transformations():
    """A natural transformation of presheaves on the two-object site for each
    value domain, by name; ``sgpd_free`` has free levels (the loop groupoid of
    Delta^1).  Set and simplicial-groupoid values collapse onto a point, and
    2-groupoid values onto the trivial 2-groupoid."""
    site = FiniteSite.two_object_site()
    out = {}
    pairs = Presheaf(
        site, "set", {"U": ("a", "b"), "V": ("c", "d")},
        {"idU": {"a": "a", "b": "b"}, "idV": {"c": "c", "d": "d"}, "f": {"a": "c", "b": "d"}},
    )
    points = Presheaf(
        site, "set", {"U": ("x",), "V": ("y",)}, {"idU": {"x": "x"}, "idV": {"y": "y"}, "f": {"x": "y"}}
    )
    out["set"] = NaturalTransformation(
        pairs, points, {"U": {"a": "x", "b": "x"}, "V": {"c": "y", "d": "y"}}
    )

    def identity(domain, value):
        x = value if isinstance(value, Presheaf) else constant_presheaf(site, domain, value)
        ident = {u: DOMAINS[domain].identity(x.values[u]) for u in site.objects}
        return NaturalTransformation(x, x, ident)

    out["group"] = identity("group", GroupTable.cyclic(2))
    out["sset"] = identity("sset", y_u(standard_complex("Delta", 1, depth=1), "U", site))
    z2, triv = _z2_sgpd(2), SimplicialGroupoid.constant(FiniteGroupoid.trivial(), 2)
    collapse = GroupoidHom(z2.levels[0], triv.levels[0], {"*": "*"}, {"g0": "e", "g1": "e"})
    out["sgpd"] = NaturalTransformation(
        constant_presheaf(site, "sgpd", z2),
        constant_presheaf(site, "sgpd", triv),
        {u: SimplicialGroupoidMap(z2, triv, {"*": "*"}, [collapse] * 3) for u in site.objects},
    )
    out["sgpd_free"] = identity("sgpd", loop_groupoid(standard_complex("Delta", 1, depth=2), 1))
    k = _pi2_z3()
    out["2gpd"] = NaturalTransformation(
        constant_presheaf(site, "2gpd", k),
        constant_presheaf(site, "2gpd", TwoGroupoid.from_groupoid(FiniteGroupoid.trivial())),
        {u: _collapse_2gpd(k) for u in site.objects},
    )
    return out


def kind_documents():
    """One valid document of every kind the command line detects, and the
    source presheaf of every transformation of ``domain_transformations``."""
    free = loop_groupoid(standard_complex("Delta", 1, depth=2), 1)
    docs = {
        "site": FiniteSite.two_object_site().to_json(),
        "2gpd": _pi2_z3().to_json(),
        "sset": standard_complex("sphere", 1, depth=2).to_json(),
        "sgpd": _z2_sgpd(2).to_json(),
        "sgpd_free": free.to_json(),
        "groupoid": FiniteGroupoid.chaotic(["x", "y"], GroupTable.cyclic(2)).to_json(),
        "free_groupoid": free.levels[1].to_json(),
        "chain": {"groups": [[], [2]], "boundaries": [[[]]]},
        "group": GroupTable.cyclic(3).to_json(),
    }
    for name, nat in domain_transformations().items():
        docs[f"presheaf_{name}"] = jsonio.presheaf_to_json(nat.source)
    return docs


# `hpk bounds`, `pi0` and `validate` on every document of ``kind_documents``,
# in name order: each run's file name, exit code, stdout and stderr
GOLDEN_KINDS = {
    "bounds": "3317fd5a99deed44541959334109923738142c5493ce704a4b47e468e4dac482",
    "pi0": "26c9c9ebe74cf165656e0c66b6bf37b92ffc6f1dc48b87f3bb3a8e7e427328a2",
    "validate": "5f7f66955fe66d861ee9fd9dd7748e3199df60205f33880daf536ecb13f12f45",
}


def test_kind_golden_digests(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("HPK_BUDGET", raising=False)
    monkeypatch.chdir(tmp_path)
    docs = kind_documents()
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    got = {}
    for command in GOLDEN_KINDS:
        runs = []
        for name in sorted(docs):
            code = main([command, f"{name}.json"])
            runs.append([name, code, *capsys.readouterr()])
        got[command] = _digest(runs)
    assert got == GOLDEN_KINDS


# `hpk doldkan` stdout, recorded before the levels were built from flat
# indices: Z/2 in degree 1, Z/2 <- Z/4 by reduction, Z/2+Z/2 <- Z/2 on the
# diagonal, and Z/2 <- Z/4 <- Z/2 (reduction, then doubling)
DOLDKAN_DOCUMENTS = {
    "z2_in_degree_1": ({"groups": [[], [2]], "boundaries": [[[]]]}, 3),
    "z4_onto_z2": ({"groups": [[2], [4]], "boundaries": [[[1]]]}, 3),
    "z2_into_z2z2": ({"groups": [[2, 2], [2]], "boundaries": [[[1, 1]]]}, 2),
    "three_groups": ({"groups": [[2], [4], [2]], "boundaries": [[[1]], [[2]]]}, 2),
}
GOLDEN_DOLDKAN = {
    "z2_in_degree_1": "4ce01002ebe092b08ef9f1fdd54437824ca542f08d744359626a8448359bd787",
    "z4_onto_z2": "c4839dc7229c457ba858b548b9caac8db7a3d8132e160e3d23e61a75359e08cd",
    "z2_into_z2z2": "f3b20e43a1bf22b89303ecf7a57ad5f8a88bcdca93bec500e710e7635ce6102a",
    "three_groups": "ae4b9ee304efbc60174b558474a81c0aad30fd2cba64cac2dccf31569f9fa692",
}


def test_doldkan_golden_digests(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("HPK_BUDGET", raising=False)
    got = {
        name: _digest(_cli(tmp_path, capsys, name, doc, "doldkan", "--depth", str(depth)))
        for name, (doc, depth) in DOLDKAN_DOCUMENTS.items()
    }
    assert got == GOLDEN_DOLDKAN


# -- hom-set searches --------------------------------------------------------------

# Digests of the map searches' outputs, in enumeration order.  Simplicial
# maps are digested sorted, with each search's work units: their candidates
# are tried nondegenerate images first, and only the order of the sequence
# depends on that.  The loop-groupoid maps of the benchmark's tail pair are
# digested with their work units.
GOLDEN_SEARCH = {
    "sgpd_maps": "4a6196a365eabdcc7d6ba71d4c92fd451ad96bb3afe5d69fdb69840fccca2cdd",
    "sgpd_maps_tail": "5e2ba68ff4fc1ae5f411aced79f3cf7d42a8d14584f6a56f7d6a22b6bd3795c3",
    "sset_maps_sorted": "8b54acff9f968e12d71cc32d8769e69e5b747d780681b4762838135a0c7ef591",
    "presheaf_maps": "4b10743eb3d2459fbdd7d4087f37ca68f860e5cbb3eafbb8f1a5973122f3296d",
    "lift": "562aae26cd4714ec7b7e86b8213cd01700ecf170d2c137a8bebb64798333b152",
    "geninc": "24bbb73c43fb012ab159ed958ccf1e6ce57c12b681c830caf8ebd20abba27f37",
    "presented_functors": "fe8de738d411d266c12907050a488faa93253eb2cf4ec0a5685d38e04f178413",
}


def adjunction_pairs():
    """The 24 small loop/wbar adjunction pairs of the benchmark's query mix."""
    complexes = [
        ("Delta0", standard_complex("Delta", 0, depth=3)),
        ("Delta1", standard_complex("Delta", 1, depth=3)),
        ("boundary1", standard_complex("boundary", 1, depth=3)),
        ("sphere1", standard_complex("sphere", 1, depth=3)),
        ("Delta2", standard_complex("Delta", 2, depth=3)),
        ("boundary2", standard_complex("boundary", 2, depth=3)),
    ]
    groupoids = [
        ("trivial", FiniteGroupoid.trivial()),
        ("interval", FiniteGroupoid.interval()),
        ("Z2", FiniteGroupoid.from_group(GroupTable.cyclic(2))),
        ("Z3", FiniteGroupoid.from_group(GroupTable.cyclic(3))),
    ]
    for xname, x in complexes:
        for gname, gpd in groupoids:
            a = SimplicialGroupoid.constant(gpd, 2)
            yield f"{xname}/{gname}", x, a, wbar(a, 3), loop_groupoid(x, 2)


def tail_pair():
    """Delta^3 against chaotic Z/2 on two objects: the benchmark's slowest pair."""
    x = standard_complex("Delta", 3, depth=3)
    a = SimplicialGroupoid.constant(
        FiniteGroupoid.chaotic(["x", "y"], GroupTable.cyclic(2)), 2
    )
    return "Delta3/chaotic Z2", x, a, wbar(a, 3), loop_groupoid(x, 2)


def presheaf_pairs():
    """(source, target) presheaves of simplicial sets whose maps are pinned."""
    site = FiniteSite.two_object_site()
    d1 = standard_complex("Delta", 1, depth=1)
    d1_2 = standard_complex("Delta", 1, depth=2)
    return [
        (y_u(d1, "U", site), constant_presheaf(site, "sset", d1)),
        (
            as_point_presheaf(standard_complex("boundary", 1, depth=1)),
            as_point_presheaf(standard_complex("Delta", 1)),
        ),
        (y_u(d1_2, "U", site), constant_presheaf(site, "sset", d1_2)),
        (
            y_u(d1_2, "V", site),
            constant_presheaf(site, "sset", standard_complex("sphere", 1, depth=2)),
        ),
    ]


def _sgpd_key(sg_map):
    return [sorted(sg_map.obj_map.items())] + [
        sorted(h.arrow_map.items()) for h in sg_map.level_homs
    ]


def _smap_key(smap):
    return [sorted(level.items()) for level in smap.level_maps]


def _search_cases(tmp_path, capsys):
    out = {"sgpd_maps": {}, "sset_maps_sorted": {}}
    for name, x, a, wb, gx in adjunction_pairs():
        out["sgpd_maps"][name] = [_sgpd_key(m) for m in enumerate_sgpd_maps(gx, x, a)]
        meter = Meter("sset maps", 10**7)
        maps = enumerate_simplicial_maps(_truncate(x, 3), wb.sset, meter=meter)
        keys = sorted(json.dumps(_smap_key(m)) for m in maps)
        out["sset_maps_sorted"][name] = [keys, meter.used]
    _, x, a, _, gx = tail_pair()
    meter = Meter("sgpd maps", 10**7)
    maps = [_sgpd_key(m) for m in enumerate_sgpd_maps(gx, x, a, meter=meter)]
    out["sgpd_maps_tail"] = [maps, meter.used]

    out["presheaf_maps"] = []
    for source, target in presheaf_pairs():
        meter = Meter("presheaf maps", 10**7)
        maps = [
            {v: _smap_key(nat.components[v]) for v in source.site.objects}
            for nat in enumerate_presheaf_sset_maps(source, target, meter=meter)
        ]
        out["presheaf_maps"].append([maps, meter.used])

    out["lift"] = b"".join(
        _cli(tmp_path, capsys, f"lift{k}", doc, "lift") for k, doc in enumerate(_lift_documents())
    )
    out["geninc"] = b"".join(
        _cli(tmp_path, capsys, f"site{k}", s.to_json(), "geninc", "--nmax", "2")
        for k, s in enumerate((FiniteSite.point_site(), FiniteSite.two_object_site()))
    )

    targets = [
        TwoGroupoid.from_groupoid(FiniteGroupoid.interval()),
        TwoGroupoid.from_groupoid(FiniteGroupoid.from_group(GroupTable.cyclic(2))),
        _pi2_z3(),
    ]
    out["presented_functors"] = [
        count_presented_functors(whitehead_2gpd(standard_complex(kind, n, depth=3)), k)
        for kind, n in (("Delta", 1), ("sphere", 1), ("boundary", 2))
        for k in targets
    ]
    return out


def _lift_documents():
    """The three lifting problems of acceptance criterion 8, as CLI documents."""
    horn = standard_complex("horn", 2, k=1, depth=2)
    d2 = standard_complex("Delta", 2)
    b1 = standard_complex("boundary", 1, depth=2)
    d1 = standard_complex("Delta", 1, depth=2)
    s1 = standard_complex("sphere", 1, depth=2)
    pt = standard_complex("point", depth=2)
    b2 = standard_complex("boundary", 2, depth=2)

    def incl(x, y):
        return SimplicialMap(x, y, [{s: s for s in level} for level in x.levels])

    def crush(x, y):
        return SimplicialMap(x, y, [{s: "*" for s in level} for level in x.levels])

    squares = [
        (incl(horn, d2), incl(horn, d2), SimplicialMap.identity(d2), SimplicialMap.identity(d2)),
        (incl(b1, d1), crush(b1, s1), crush(s1, pt), crush(d1, pt)),
        (incl(horn, d2), incl(horn, b2), crush(b2, pt), crush(d2, pt)),
    ]
    return [
        {"single": True, **{k: jsonio.smap_to_json(m) for k, m in zip(("i", "top", "p", "bottom"), legs)}}
        for legs in squares
    ]


def test_search_golden_digests(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("HPK_BUDGET", raising=False)
    outputs = _search_cases(tmp_path, capsys)
    assert set(outputs) == set(GOLDEN_SEARCH)
    got = {name: _digest(data) for name, data in outputs.items()}
    assert got == GOLDEN_SEARCH


# argparse's help and error text with COLUMNS=80, recorded before the parser
# was built per command.  Argparse words and wraps its text differently from
# one Python version to the next, so the digests are keyed by version.
GOLDEN_HELP = {
    (3, 11): {
        "--help": "bd84f5a66b555c02e60ae7954e234dcf0125a058c806810ab71d1e7f4d6d3589",
        "validate": "07a2389bb96eaadea768312dde03a811fca5ed22da85b295ef68efcb1d51b7e9",
        "complex": "61041a1657c0dd35ad6c018aa3ca588321e761df6865259e164bd8ca18501ff4",
        "pushout": "26c930b4c81d3951d833f20ada0e34a5f521846e8ced645df12d668854e89ad1",
        "pullback": "12aaee40ad7490765e9375f777a264f345807e98636d22a44fde8451a574df70",
        "pi0": "a40d01a9809210c0ea1252b04768dfe0e7b86f472e1ea5808f16336427ca5681",
        "pikan": "6efcd22fb0e070b110b4592dbcac63ffef56f65d3327dfe1a948caec787389b5",
        "moore": "1ed96c3e5d375a70c7f3e5177ff3def50f0f8e3d4a064071ef4851421e3ba45f",
        "doldkan": "03af591fc032bc825bcc2ced2ede47709e668c0ae8dc16d1f41fbe46385c4aa5",
        "loop": "69156e7b37d166434b8204e0b68ceb02b43c855de4279282b42d116154079357",
        "wbar": "1d7ae258e7f7ae728fc94a6b4f64fcb2239fc68adb615e11150fa3bc46e25579",
        "wtotal": "e2403a4cd24cccb16f413371d1e004164a867a8f8071f4a206ffa7f0b3e16cf8",
        "transpose": "1bde41be1176e672187bc845f158b2c16e09f6a860b9f0734794ca0a64e3ac27",
        "unit": "809c50020139a31f96c55c6d7f93a96f641eaa04709c07d531d19d66c5648bec",
        "counit": "7d171de0887c2e5097f78515b885ecf69b488558a49354a578a3110f1b29aef6",
        "nerve": "88c98c5d68bf20fb60317bb109e2c126cd71c6cac370e62af8d73424dbe56ad0",
        "pi2gpd": "2cf0e7eb34093c900103341f7255e1152eafbfc7820778bde8f0a765ae459ccd",
        "whitehead": "f22909fc4b30b9070a7724b67b74d9c8652fc423310a42efb2f29ffd5533ebe1",
        "msweq": "7c918f10f2b91d190c8af781e58fd0664280771b842e004d81b9695cf1ddd797",
        "msfib": "cb661c8d51b5e2034ca4b8f60bba681bd4ea34a232550ff32a24cb3516ae5c5e",
        "site-validate": "a6f876ba8ec9ecc3b8d2102ff2573299c32f9094834e76a380be1942a36d77d8",
        "comma": "5f04955a47befe14d9ea3ce26208d2be6175cfdec678a584b0fdbcf041c1c774",
        "yu": "9a906a3e945342b68c63b28f6fb98febc86bf1d40158c6dd2702bd5f65857c96",
        "sheafify": "a5575dbd1166a186c329e3fb30da833272a0bb920b771217856ffd7a29eb28de",
        "hsheaf": "bf8dcbe10eef034bc27c4d38a69e387fc0d15b0bfc138c561476153bd592991d",
        "weq": "64185dae9f2eef3223b54c1dde59b626d9dc6153912f3ea173efccf272c7a419",
        "geninc": "cc1dfef34110b1674ada1caef159560e90055969626d8d25bd5004bc5a7b4481",
        "lift": "fb760279082a9ecd453067a79276e15eeb13072735eb5310d8824a7206ac6d0a",
        "bounds": "5e73b0484395bfa4800f4d3cd6fa510a590479d4a09351cb818c9bf1d9c127e4",
    },
}
ERROR_ARGV = {
    "no_command": [],
    "unknown_command": ["bogus"],
    "missing_option": ["nerve", "f.json"],
    "bad_choice": ["pi2gpd", "f.json", "--base", "x", "-i", "5"],
    "unrecognized": ["nerve", "f.json", "--depth", "3", "--bogus"],
}
GOLDEN_ERRORS = {
    (3, 11): {
        "no_command": [2, "a1d9b7bbf12814583ca5eb35295e6ff63608cc9400a62ad88e9df3c08e5c8c1a"],
        "unknown_command": [2, "7f86d3da77b675069ff90c3dee4dbbac3a5808c1f9de989e42bc34e9ff03048c"],
        "missing_option": [2, "baedfbaf2d1357980e36ec2b89839560a4cbc804fe9157d746cd97fec33b1510"],
        "bad_choice": [2, "950431b18460a9640147bf7e4d34d05145072793785bb589a5be44450befcb1d"],
        "unrecognized": [2, "67b6a70ac249ca82130d9bc0ab9d370ecd5d149acfba8bf5439c77989e7ab4b8"],
    },
}


def _exit(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


def test_help_and_error_golden_digests(capsys, monkeypatch):
    """Help and argparse errors through ``main`` match the recorded digests.

    On every version they also match the full parser's text for the same
    argv, which is the whole check where no digests are recorded.
    """
    monkeypatch.setenv("COLUMNS", "80")
    helps = {"--help": ["--help"], **{row[0]: [row[0], "--help"] for row in COMMANDS}}
    got_help, got_errors = {}, {}
    for key, argv in {**helps, **ERROR_ARGV}.items():
        code, out, err = _exit(capsys, main, argv)
        assert (code, out, err) == _exit(capsys, build_parser().parse_args, argv)
        if key in helps:
            assert code == 0 and err == ""
            got_help[key] = _digest(out.encode())
        else:
            assert out == ""
            got_errors[key] = [code, _digest(err.encode())]
    version = sys.version_info[:2]
    if version in GOLDEN_HELP:
        assert got_help == GOLDEN_HELP[version]
        assert got_errors == GOLDEN_ERRORS[version]
