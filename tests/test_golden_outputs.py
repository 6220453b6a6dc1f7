"""Byte-identity guard: ids and JSON output must not change under refactors.

Each case builds its input from the fixtures used elsewhere in the suite, runs
one CLI command in-process (or one construction that has no CLI command), and
compares the sha256 of the bytes with a digest recorded before the id
parsers were removed from the package.  A digest changes only when an id or
the output format changes, which must be deliberate.
"""

import hashlib
import json

from hpk import jsonio
from hpk.cli import main
from hpk.groups import GroupTable
from hpk.groupoids import (
    FiniteGroupoid,
    GroupoidHom,
    SimplicialGroupoid,
    SimplicialGroupoidMap,
)
from hpk.loop import loop_groupoid, loop_of_map
from hpk.model_checks import pullback_sgpd, pushout_free_sgpd
from hpk.presheaves import (
    NaturalTransformation,
    Presheaf,
    apply_pointwise,
    constant_presheaf,
)
from hpk.sites import FiniteSite
from hpk.sset import SimplicialMap, standard_complex
from hpk.two_groupoids import TwoFunctor, TwoGroupoid, nerve
from hpk.whitehead import counit_functor

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
