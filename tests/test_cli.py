import json
from pathlib import Path

import pytest

from hpk.cli import COMMANDS, main
from hpk.groups import GroupTable
from hpk.groupoids import FiniteGroupoid, SimplicialGroupoid
from hpk import jsonio
from hpk.sites import FiniteSite
from hpk.sset import SimplicialMap, standard_complex


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_delta2(tmp_path, capsys):
    path = write(tmp_path, "d2.json", standard_complex("Delta", 2).to_json())
    code, out = run(capsys, "validate", path)
    assert code == 0
    report = json.loads(out)
    assert report["reports"][0]["violations"] == []


def test_validate_flags_planted_defect(tmp_path, capsys):
    d2 = standard_complex("Delta", 2)
    data = d2.to_json()
    top = d2.nondegenerate(2)[0]
    good = data["faces"]["2,0"][top]
    other = next(e for e in d2.levels[1] if e != good)
    data["faces"]["2,0"][top] = other
    path = write(tmp_path, "broken.json", data)
    code, out = run(capsys, "validate", path)
    assert code == 1


def test_validate_jobs_flag(tmp_path, capsys):
    p1 = write(tmp_path, "a.json", standard_complex("Delta", 1).to_json())
    p2 = write(tmp_path, "b.json", standard_complex("point", depth=2).to_json())
    code, out = run(capsys, "validate", p1, p2)
    assert code == 0
    report = json.loads(out)
    assert [r["file"] for r in report["reports"]] == [p1, p2]


def test_complex_and_determinism(capsys):
    code1, out1 = run(capsys, "complex", "--kind", "sphere", "-n", "1", "--depth", "3")
    code2, out2 = run(capsys, "complex", "--kind", "sphere", "-n", "1", "--depth", "3")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    data = json.loads(out1)
    assert [len(level) for level in data["levels"]] == [1, 2, 3, 4]


def test_wbar_command_reports_level_sizes(tmp_path, capsys):
    z2 = SimplicialGroupoid.constant(
        FiniteGroupoid.from_group(GroupTable.cyclic(2)), 3
    )
    path = write(tmp_path, "z2.json", z2.to_json())
    code, out = run(capsys, "wbar", path, "--depth", "3")
    assert code == 0
    assert json.loads(out)["level_sizes"] == [1, 2, 4, 8]


def test_pikan_command(tmp_path, capsys):
    from hpk.loop import wbar

    z2 = SimplicialGroupoid.constant(
        FiniteGroupoid.from_group(GroupTable.cyclic(2)), 3
    )
    wb = wbar(z2, 3)
    path = write(tmp_path, "bz2.json", wb.sset.to_json())
    base = wb.sset.levels[0][0]
    code, out = run(capsys, "pikan", path, "--base", base, "-n", "1")
    assert code == 0
    assert json.loads(out)["group"]["order"] == 2


def test_pikan_budget_exceeded(tmp_path, capsys, monkeypatch):
    from hpk.loop import wbar

    z2 = SimplicialGroupoid.constant(
        FiniteGroupoid.from_group(GroupTable.cyclic(2)), 3
    )
    wb = wbar(z2, 3)
    path = write(tmp_path, "bz2.json", wb.sset.to_json())
    base = wb.sset.levels[0][0]
    code = main(["pikan", path, "--base", base, "-n", "1", "--budget", "3"])
    assert code == 3


def test_hpk_budget_env_override(tmp_path, capsys, monkeypatch):
    from hpk.loop import wbar

    z2 = SimplicialGroupoid.constant(
        FiniteGroupoid.from_group(GroupTable.cyclic(2)), 3
    )
    wb = wbar(z2, 3)
    path = write(tmp_path, "bz2.json", wb.sset.to_json())
    base = wb.sset.levels[0][0]
    monkeypatch.setenv("HPK_BUDGET", "3")
    code = main(["pikan", path, "--base", base, "-n", "1"])
    assert code == 3


def test_moore_command(tmp_path, capsys):
    z3 = SimplicialGroupoid.constant(
        FiniteGroupoid.from_group(GroupTable.cyclic(3)), 2
    )
    path = write(tmp_path, "z3.json", z3.to_json())
    code, out = run(capsys, "moore", path, "-n", "0")
    assert code == 0
    assert json.loads(out)["group"]["order"] == 3


def test_doldkan_command(tmp_path, capsys):
    chain = {"groups": [[], [2]], "boundaries": [[[]]]}
    path = write(tmp_path, "chain.json", chain)
    code, out = run(capsys, "doldkan", path, "--depth", "3")
    assert code == 0
    data = json.loads(out)
    assert [len(level["arrows"]) for level in data["levels"]] == [1, 2, 4, 8]


# each chain document is malformed in one way; none may reach a traceback or
# be read with a meaning of its own
MALFORMED_CHAINS = {
    "extra_boundary": {"groups": [[2]], "boundaries": [[[1]]]},
    "missing_boundary": {"groups": [[2], [2]], "boundaries": []},
    "string_coordinate": {"groups": [[2], [2]], "boundaries": [[["1"]]]},
    "bool_coordinate": {"groups": [[2], [2]], "boundaries": [[[True]]]},
    "long_image": {"groups": [[2], [2]], "boundaries": [[[1, 7]]]},
    "short_image": {"groups": [[2, 2], [2]], "boundaries": [[[1]]]},
    "negative_coordinate": {"groups": [[2], [2]], "boundaries": [[[-1]]]},
    "coordinate_past_modulus": {"groups": [[2], [2]], "boundaries": [[[3]]]},
    "float_modulus": {"groups": [[2.5]], "boundaries": []},
    "bool_modulus": {"groups": [[True]], "boundaries": []},
    "zero_modulus": {"groups": [[0]], "boundaries": []},
    "group_not_a_list": {"groups": [2], "boundaries": []},
    "image_not_a_list": {"groups": [[2], [2]], "boundaries": [[1]]},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CHAINS))
def test_doldkan_rejects_malformed_chain(tmp_path, capsys, name):
    path = write(tmp_path, "chain.json", MALFORMED_CHAINS[name])
    code = main(["doldkan", path, "--depth", "1"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("input error")


def test_doldkan_rejects_negative_depth(tmp_path, capsys):
    path = write(tmp_path, "chain.json", {"groups": [[], [2]], "boundaries": [[[]]]})
    code = main(["doldkan", path, "--depth", "-1"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "depth must be a non-negative integer" in err


def test_loop_command(tmp_path, capsys):
    s1 = standard_complex("sphere", 1, depth=3)
    path = write(tmp_path, "s1.json", s1.to_json())
    code, out = run(capsys, "loop", path, "--depth", "2")
    assert code == 0
    data = json.loads(out)
    assert len(data["levels"][0]["generators"]) == 1


def test_pi0_command(tmp_path, capsys):
    path = write(tmp_path, "b2.json", standard_complex("boundary", 2, depth=2).to_json())
    code, out = run(capsys, "pi0", path)
    assert code == 0
    assert json.loads(out)["count"] == 1


def test_site_validate_and_comma(tmp_path, capsys):
    site = FiniteSite.two_object_site()
    path = write(tmp_path, "site.json", site.to_json())
    code, _ = run(capsys, "site-validate", path)
    assert code == 0
    code, out = run(capsys, "comma", path, "--object", "U")
    assert code == 0
    assert len(json.loads(out)["objects"]) == 2

    # comma arrow ids are "h@phi"; a base arrow id may itself contain "@"
    data = json.loads(json.dumps(site.to_json()).replace('"f"', '"f@x"'))
    data["comp"] = {k.replace("f", "f@x"): v for k, v in data["comp"].items()}
    path = write(tmp_path, "site_at.json", data)
    code, _ = run(capsys, "site-validate", path)
    assert code == 0
    code, out = run(capsys, "comma", path, "--object", "U")
    assert code == 0
    comma = json.loads(out)
    assert sorted(comma["objects"]) == ["f@x", "idU"]
    assert len(comma["arrows"]) == 3


def test_sheafify_command(tmp_path, capsys):
    site = FiniteSite.two_object_site()
    presheaf = {
        "site": site.to_json(),
        "domain": "set",
        "values": {"U": ["a", "b"], "V": ["c"]},
        "restrictions": {
            "idU": {"a": "a", "b": "b"},
            "idV": {"c": "c"},
            "f": {"a": "c", "b": "c"},
        },
    }
    path = write(tmp_path, "presheaf.json", presheaf)
    code, out = run(capsys, "sheafify", path)
    assert code == 0
    data = json.loads(out)
    assert data["condition_report"] == []
    assert len(data["sheaf"]["values"]["U"]) == 1


def test_weq_command_pointwise_iso(tmp_path, capsys):
    site = FiniteSite.two_object_site()
    z2 = SimplicialGroupoid.constant(
        FiniteGroupoid.from_group(GroupTable.cyclic(2)), 3
    )
    from hpk.groupoids import SimplicialGroupoidMap
    from hpk.presheaves import NaturalTransformation, constant_presheaf

    x = constant_presheaf(site, "sgpd", z2)
    nat = NaturalTransformation(
        x, x, {v: SimplicialGroupoidMap.identity(z2) for v in site.objects}
    )
    path = write(tmp_path, "nat.json", jsonio.nat_to_json(nat))
    code, out = run(capsys, "weq", path, "--kind", "sgpd", "--nmax", "2")
    assert code == 0
    assert json.loads(out)["verdict"] is True

    # the trivial topology: the minimal cover of U is {idU, f}, so matching
    # families hold arrow ids of the chaotic groupoid ("x>y:g0", ...)
    base = FiniteSite.two_object_site()
    trivial = FiniteSite.trivial_topology(
        base.objects, base.arrows, base.comp, base.identities
    )
    chaotic = SimplicialGroupoid.constant(
        FiniteGroupoid.chaotic(["x", "y"], GroupTable.cyclic(2)), 3
    )
    y = constant_presheaf(trivial, "sgpd", chaotic)
    ident = NaturalTransformation(
        y, y, {v: SimplicialGroupoidMap.identity(chaotic) for v in trivial.objects}
    )
    path = write(tmp_path, "nat_trivial.json", jsonio.nat_to_json(ident))
    code, out = run(capsys, "weq", path, "--kind", "sgpd", "--nmax", "2")
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_lift_command_examples(tmp_path, capsys):
    horn = standard_complex("horn", 2, k=1, depth=2)
    d2 = standard_complex("Delta", 2)
    include = SimplicialMap(horn, d2, [{x: x for x in lvl} for lvl in horn.levels])
    ident = SimplicialMap.identity(d2)
    problem = {
        "single": True,
        "i": jsonio.smap_to_json(include),
        "top": jsonio.smap_to_json(include),
        "p": jsonio.smap_to_json(ident),
        "bottom": jsonio.smap_to_json(ident),
    }
    path = write(tmp_path, "lift.json", problem)
    code, out = run(capsys, "lift", path)
    assert code == 0
    assert json.loads(out)["outcome"] == "lift"

    # the unfillable horn into the boundary
    b2 = standard_complex("boundary", 2, depth=2)
    pt = standard_complex("point", depth=2)
    to_b2 = SimplicialMap(horn, b2, [{x: x for x in lvl} for lvl in horn.levels])
    collapse_b2 = SimplicialMap(b2, pt, [{x: "*" for x in lvl} for lvl in b2.levels])
    collapse_d2 = SimplicialMap(d2, pt, [{x: "*" for x in lvl} for lvl in d2.levels])
    problem2 = {
        "single": True,
        "i": jsonio.smap_to_json(include),
        "top": jsonio.smap_to_json(to_b2),
        "p": jsonio.smap_to_json(collapse_b2),
        "bottom": jsonio.smap_to_json(collapse_d2),
    }
    path2 = write(tmp_path, "nolift.json", problem2)
    code2, out2 = run(capsys, "lift", path2)
    assert code2 == 1
    assert json.loads(out2)["outcome"] == "no-lift"


def discrete_site_json():
    """Two objects and no arrows between them."""
    return FiniteSite.trivial_topology(
        ["U", "V"],
        {"idU": ("U", "U"), "idV": ("V", "V")},
        {("idU", "idU"): "idU", ("idV", "idV"): "idV"},
        {"U": "idU", "V": "idV"},
    ).to_json()


def identity_levels(x):
    return {"levels": [{s: s for s in level} for level in x.levels]}


def test_lift_rejects_sections_of_different_depths(tmp_path, capsys):
    # no arrow relates the sections, so only the presheaf check can see that
    # Delta^1 at depth 1 and at depth 2 cannot make one truncated presheaf
    sections = {
        "U": standard_complex("Delta", 1, depth=1),
        "V": standard_complex("Delta", 1, depth=2),
    }
    presheaf = {
        "site": discrete_site_json(),
        "domain": "sset",
        "values": {v: x.to_json() for v, x in sections.items()},
        "restrictions": {f"id{v}": identity_levels(x) for v, x in sections.items()},
    }
    leg = {
        "nat": True,
        "domain": "sset",
        "source": presheaf,
        "target": presheaf,
        "components": {v: identity_levels(x) for v, x in sections.items()},
    }
    path = write(tmp_path, "mixed.json", {key: leg for key in ("i", "top", "p", "bottom")})
    assert main(["lift", path]) == 2
    assert "sections must share one depth" in capsys.readouterr().err


def test_geninc_command(tmp_path, capsys):
    path = write(tmp_path, "pt.json", FiniteSite.point_site().to_json())
    code, out = run(capsys, "geninc", path, "--nmax", "0")
    assert code == 0
    assert json.loads(out)["count"] == 2


def test_nerve_and_pi2gpd_commands(tmp_path, capsys):
    from hpk.two_groupoids import TwoGroupoid

    k = TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(3))
    path = write(tmp_path, "k.json", k.to_json())
    code, out = run(capsys, "nerve", path, "--depth", "3")
    assert code == 0
    code, out = run(capsys, "pi2gpd", path, "--base", "*", "-i", "2")
    assert code == 0
    assert json.loads(out)["group"]["order"] == 3


def test_whitehead_command(tmp_path, capsys):
    s1 = standard_complex("sphere", 1, depth=3)
    path = write(tmp_path, "s1.json", s1.to_json())
    code, out = run(capsys, "whitehead", path, "--pi1-at", "*")
    assert code == 0
    data = json.loads(out)
    assert data["pi1_infinite_cyclic"] is True


def test_msweq_command(tmp_path, capsys):
    from hpk.two_groupoids import TwoFunctor, TwoGroupoid

    k = TwoGroupoid.from_groupoid(FiniteGroupoid.interval())
    path = write(tmp_path, "f.json", jsonio.functor2_to_json(TwoFunctor.identity(k)))
    code, out = run(capsys, "msweq", path)
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_bounds_command(tmp_path, capsys):
    path = write(tmp_path, "d2.json", standard_complex("Delta", 2).to_json())
    code, out = run(capsys, "bounds", path)
    assert code == 0
    assert json.loads(out)["reports"][0]["bounds"]["levels"] == [3, 6, 10]


def test_text_format_is_lossy_summary(tmp_path, capsys):
    path = write(tmp_path, "d2.json", standard_complex("Delta", 2).to_json())
    code, out = run(capsys, "bounds", path, "--format", "text")
    assert code == 0
    assert "reports" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_input_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.json", {"nonsense": True})
    code = main(["validate", str(path)])
    assert code == 2


@pytest.mark.parametrize("depth", [-1, True, 1.5, "0"])
def test_validate_rejects_bad_depth(tmp_path, capsys, depth):
    payload = {"depth": depth, "levels": [], "faces": {}, "degeneracies": {}}
    path = write(tmp_path, "bad_depth.json", payload)
    assert main(["validate", path]) == 2
    assert "depth must be a non-negative integer" in capsys.readouterr().err


def test_output_file_option(tmp_path, capsys):
    path = write(tmp_path, "d2.json", standard_complex("Delta", 2).to_json())
    out_path = tmp_path / "report.json"
    code = main(["validate", path, "--output", str(out_path)])
    assert code == 0
    assert json.loads(out_path.read_text())["reports"][0]["violations"] == []


def test_help_documents_depth_requirements(capsys):
    with pytest.raises(SystemExit):
        main(["pikan", "--help"])
    out = capsys.readouterr().out
    assert "depth >= n+1" in out
    assert "budget" in out


def test_readme_lists_every_command_in_table_order():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1]
    listed = section.split("```\n", 2)[1].split()
    assert listed == [row[0] for row in COMMANDS]


def test_pushout_pullback_commands(tmp_path, capsys):
    b1 = standard_complex("boundary", 1, depth=1)
    d1 = standard_complex("Delta", 1, depth=1)
    include = SimplicialMap(b1, d1, [{x: x for x in lvl} for lvl in b1.levels])
    path_f = write(tmp_path, "f.json", jsonio.smap_to_json(include))
    path_g = write(tmp_path, "g.json", jsonio.smap_to_json(include))
    code, out = run(capsys, "pushout", path_f, path_g)
    assert code == 0
    data = json.loads(out)
    assert len(data["pushout"]["levels"][1]) == 2 * 3 - 2
    ident = SimplicialMap.identity(d1)
    path_i = write(tmp_path, "i.json", jsonio.smap_to_json(ident))
    code, out = run(capsys, "pullback", path_i, path_i)
    assert code == 0
    pulled = json.loads(out)["pullback"]["levels"]
    assert [len(l) for l in pulled] == d1.level_sizes()


def test_transpose_command_round_trip(tmp_path, capsys):
    from hpk.loop import wbar, _truncate_sset
    from hpk.homsearch import enumerate_simplicial_maps

    x = standard_complex("Delta", 1, depth=3)
    a = SimplicialGroupoid.constant(FiniteGroupoid.interval(), 2)
    wb = wbar(a, 3)
    psi = next(enumerate_simplicial_maps(_truncate_sset(x, 3), wb.sset))
    payload = {
        "direction": "to-sgpd",
        "complex": x.to_json(),
        "groupoid": a.to_json(),
        "depth": 2,
        "map": {"levels": [dict(sorted(m.items())) for m in psi.level_maps]},
    }
    path = write(tmp_path, "transpose.json", payload)
    code, out = run(capsys, "transpose", path)
    assert code == 0
    data = json.loads(out)
    # transpose back
    payload2 = {
        "direction": "to-sset",
        "complex": x.to_json(),
        "groupoid": a.to_json(),
        "depth": 2,
        "map": {"obj_map": data["obj_map"], "levels": data["generator_images"]},
    }
    path2 = write(tmp_path, "transpose2.json", payload2)
    code2, out2 = run(capsys, "transpose", path2)
    assert code2 == 0
    back = json.loads(out2)["transpose"]
    assert back == [dict(sorted(m.items())) for m in psi.level_maps]


def test_unit_command_on_point_and_error_on_circle(tmp_path, capsys):
    pt = standard_complex("point", depth=3)
    path = write(tmp_path, "pt.json", pt.to_json())
    code, out = run(capsys, "unit", path, "--depth", "2")
    assert code == 0
    s1 = standard_complex("sphere", 1, depth=3)
    path2 = write(tmp_path, "s1.json", s1.to_json())
    code2 = main(["unit", path2, "--depth", "2"])
    assert code2 == 2


def test_counit_command(tmp_path, capsys):
    z2 = SimplicialGroupoid.constant(
        FiniteGroupoid.from_group(GroupTable.cyclic(2)), 2
    )
    path = write(tmp_path, "z2.json", z2.to_json())
    code, out = run(capsys, "counit", path, "--depth", "1")
    assert code == 0
    data = json.loads(out)
    assert data["obj_map"] == {"*": "*"}


def test_yu_and_hsheaf_commands(tmp_path, capsys):
    site = FiniteSite.two_object_site()
    site_path = write(tmp_path, "site.json", site.to_json())
    pt = standard_complex("point", depth=1)
    pt_path = write(tmp_path, "pt.json", pt.to_json())
    code, out = run(capsys, "yu", pt_path, "--site", site_path, "--object", "U")
    assert code == 0
    data = json.loads(out)
    assert len(data["values"]["V"]["levels"][0]) == 1

    from hpk.presheaves import constant_presheaf

    z2 = SimplicialGroupoid.constant(
        FiniteGroupoid.from_group(GroupTable.cyclic(2)), 2
    )
    presheaf = constant_presheaf(site, "sgpd", z2)
    p_path = write(tmp_path, "pre.json", jsonio.presheaf_to_json(presheaf))
    code, out = run(
        capsys, "hsheaf", p_path, "--object", "U", "--base", "*", "-n", "0"
    )
    assert code == 0
    data = json.loads(out)
    assert data["domain"] == "group"


def test_msfib_command_and_failing_verdicts(tmp_path, capsys):
    from hpk.two_groupoids import TwoFunctor, TwoGroupoid

    z3 = TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(3))
    point = TwoGroupoid.from_groupoid(FiniteGroupoid.trivial())
    incl = TwoFunctor(
        point,
        z3,
        {"*": "*"},
        {next(iter(point.cells1)): z3.id1["*"]},
        {next(iter(point.cells2)): z3.id2[z3.id1["*"]]},
    )
    path = write(tmp_path, "incl.json", jsonio.functor2_to_json(incl))
    code, out = run(capsys, "msfib", path)
    assert code == 1
    assert json.loads(out)["verdict"] is False
    code, out = run(capsys, "msweq", path)
    assert code == 1


def test_site_validate_failure_exit(tmp_path, capsys):
    site = FiniteSite.two_object_site()
    data = site.to_json()
    data["covers"]["V"] = []
    path = write(tmp_path, "bad_site.json", data)
    code, out = run(capsys, "site-validate", path)
    assert code == 1


# -- the JSON boundary ---------------------------------------------------------------


def _gpd_z2():
    return FiniteGroupoid.from_group(GroupTable.cyclic(2))


def _bad_sset():
    data = standard_complex("Delta", 2).to_json()
    data["faces"]["2,0"]["0.1.2"] = "0.1"
    return data


def _bad_sgpd():
    data = SimplicialGroupoid.constant(_gpd_z2(), 1).to_json()
    data["faces"]["1,0"]["g1"] = "g0"
    data["faces"]["1,1"]["g1"] = "g0"
    data["degeneracies"]["0,0"]["g1"] = "g0"
    return data


def _bad_sgpd_level():
    data = SimplicialGroupoid.constant(_gpd_z2(), 1).to_json()
    data["levels"][1]["comp"]["g1|g1"] = "g1"
    return data


def _bad_groupoid():
    data = _gpd_z2().to_json()
    data["comp"]["g1|g1"] = "g1"
    return data


def _bad_2gpd():
    from hpk.two_groupoids import TwoGroupoid

    data = TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(2)).to_json()
    data["hcomp"]["g1|g1"] = "g1"
    return data


def _bad_site():
    data = FiniteSite.two_object_site().to_json()
    data["covers"]["V"] = []
    return data


def _bad_group():
    data = GroupTable.cyclic(3).to_json()
    data["mult"]["g1|g1"] = "g0"
    return data


def _set_presheaf(restriction_f):
    return {
        "site": FiniteSite.two_object_site().to_json(),
        "domain": "set",
        "values": {"U": ["a", "b"], "V": ["c", "d"]},
        "restrictions": {
            "idU": {"a": "a", "b": "b"},
            "idV": {"c": "c", "d": "d"},
            "f": restriction_f,
        },
    }


def _bad_presheaf():
    data = _set_presheaf({"a": "c", "b": "d"})
    data["restrictions"]["idV"] = {"c": "d", "d": "c"}
    return data


def _bad_presheaf_value():
    site = FiniteSite.point_site()
    return {
        "site": site.to_json(),
        "domain": "sset",
        "values": {"*": _bad_sset()},
        "restrictions": {"id": identity_levels(standard_complex("Delta", 2))},
    }


def _bad_smap():
    d1 = standard_complex("Delta", 1, depth=1)
    data = jsonio.smap_to_json(SimplicialMap.identity(d1))
    data["levels"][0]["0"] = "1"
    return data


def _bad_nat():
    presheaf = _set_presheaf({"a": "c", "b": "d"})
    return {
        "nat": True,
        "domain": "set",
        "source": presheaf,
        "target": presheaf,
        "components": {"U": {"a": "a", "b": "b"}, "V": {"c": "d", "d": "c"}},
    }


def _bad_2functor():
    from hpk.two_groupoids import TwoFunctor, TwoGroupoid

    k = TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(2))
    data = jsonio.functor2_to_json(TwoFunctor.identity(k))
    data["map2"]["g0"] = "g1"
    return data


def _bad_lift():
    d1 = standard_complex("Delta", 1, depth=1)
    pt = standard_complex("point", depth=1)
    b1 = standard_complex("boundary", 1, depth=1)
    include = SimplicialMap(b1, d1, [{x: x for x in lvl} for lvl in b1.levels])
    ident = SimplicialMap.identity(d1)
    to_0 = SimplicialMap(b1, d1, [{"0": "0", "1": "0"}, {"0.0": "0.0", "1.1": "0.0"}])
    return {
        "single": True,
        "i": jsonio.smap_to_json(include),
        "top": jsonio.smap_to_json(to_0),
        "p": jsonio.smap_to_json(ident),
        "bottom": jsonio.smap_to_json(ident),
    }


def _bad_transpose():
    x = standard_complex("Delta", 1, depth=3)
    a = SimplicialGroupoid.constant(FiniteGroupoid.interval(), 2)
    return {
        "direction": "to-sgpd",
        "complex": x.to_json(),
        "groupoid": a.to_json(),
        "depth": 2,
        "map": {"levels": [{s: s for s in level} for level in x.levels]},
    }


# one invalid document per kind the CLI reads: its builder, the command that
# reads it, the exit code and the stderr recorded before constructors stopped
# validating (None: the command reports the violations on stdout instead)
INVALID_DOCUMENTS = {
    "sset": (_bad_sset, ["pi0"], 2, "invalid simplicial set: "
             "d_0 d_1 != d_0 d_0 at level 2 on 0.1.2; d_0 d_2 != d_1 d_0 at level 2 on 0.1.2"),
    "sset_validate": (_bad_sset, ["validate"], 1, None),
    "sgpd": (_bad_sgpd, ["moore", "-n", "0"], 2,
             "invalid simplicial groupoid: d s != id at level 0, s_0"),
    "sgpd_level": (_bad_sgpd_level, ["wbar", "--depth", "1"], 2,
                   "invalid groupoid: f o f^-1 != id at g1; f^-1 o f != id at g1"),
    "groupoid": (_bad_groupoid, ["pi0"], 2,
                 "invalid groupoid: f o f^-1 != id at g1; f^-1 o f != id at g1"),
    "2gpd": (_bad_2gpd, ["nerve", "--depth", "2"], 2, "invalid 2-groupoid: interchange law fails"),
    "site": (_bad_site, ["comma", "--object", "U"], 2,
             "invalid site: object V has no covering sieves"),
    "group": (_bad_group, ["pi0"], 2, "not a group: associativity fails at (g1,g1,g2)"),
    "group_validate": (_bad_group, ["validate"], 2,
                       "not a group: associativity fails at (g1,g1,g2)"),
    "presheaf": (_bad_presheaf, ["sheafify"], 2, "invalid presheaf: "
                 "restriction along id_V is not the identity; functoriality fails at foidV; "
                 "functoriality fails at idVoidV"),
    "presheaf_value": (_bad_presheaf_value, ["sheafify"], 2, "invalid simplicial set: "
                       "d_0 d_1 != d_0 d_0 at level 2 on 0.1.2; "
                       "d_0 d_2 != d_1 d_0 at level 2 on 0.1.2"),
    "presheaf_value_validate": (_bad_presheaf_value, ["validate"], 2, "invalid simplicial set: "
                                "d_0 d_1 != d_0 d_0 at level 2 on 0.1.2; "
                                "d_0 d_2 != d_1 d_0 at level 2 on 0.1.2"),
    "smap": (_bad_smap, ["pushout"], 2, "invalid simplicial map: "
             "does not commute with d_0 at level 1 on 0.0; "
             "does not commute with d_1 at level 1 on 0.0; "
             "does not commute with d_1 at level 1 on 0.1"),
    "nat": (_bad_nat, ["weq", "--kind", "sgpd"], 2,
            "invalid natural transformation: naturality fails at f"),
    "2functor": (_bad_2functor, ["msweq"], 2,
                 "invalid 2-functor: vertical composition not preserved"),
    "lift": (_bad_lift, ["lift"], 2,
             "invalid lifting problem: square does not commute at *, level 0"),
    "transpose": (_bad_transpose, ["transpose"], 2,
                  "invalid simplicial map: level 1 map escapes target"),
}


def run_on(tmp_path, capsys, name, document, argv):
    path = write(tmp_path, f"{name}.json", document)
    files = [path, path] if argv[0] == "pushout" else [path]
    code = main([argv[0], *files, *argv[1:]])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("name", sorted(INVALID_DOCUMENTS))
def test_boundary_rejects_invalid_documents(tmp_path, capsys, name):
    build, argv, code, reason = INVALID_DOCUMENTS[name]
    got, out, err = run_on(tmp_path, capsys, name, build(), argv)
    assert got == code
    if reason is None:
        assert err == "" and json.loads(out)["reports"][0]["violations"]
    else:
        assert (out, err) == ("", f"input error: {reason}\n")


def test_validate_rejects_a_simplicial_groupoid_with_an_invalid_level(tmp_path, capsys):
    # the levels are read like any other input; only the whole is reported
    code, out, err = run_on(tmp_path, capsys, "level", _bad_sgpd_level(), ["validate"])
    assert (code, out) == (2, "")
    assert err == "input error: invalid groupoid: f o f^-1 != id at g1; f^-1 o f != id at g1\n"


@pytest.mark.parametrize("command", [["validate"], ["moore", "-n", "0"]])
def test_a_bare_abelian_group_document_has_no_kind(tmp_path, capsys, command):
    code, out, err = run_on(tmp_path, capsys, "moduli", {"moduli": [2]}, command)
    assert (code, out) == (2, "")
    assert err == "input error: could not infer the kind of the JSON object\n"


def _pair_key_documents():
    from hpk.two_groupoids import TwoGroupoid

    k = TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(2))
    return {
        "group": (GroupTable.cyclic(2).to_json(), "mult"),
        "groupoid": (_gpd_z2().to_json(), "comp"),
        "site": (FiniteSite.point_site().to_json(), "comp"),
        "2gpd": (k.to_json(), "hcomp"),
    }


def _with_key(key_of, document, field):
    """``document`` with the last key of its ``field`` table renamed by ``key_of``."""
    table = document[field]
    old = sorted(table)[-1]
    new = key_of(old)
    table[new] = table.pop(old)
    return document, new


PAIR_KEY_SHAPES = {
    "one_part": lambda key: key.replace("|", ""),
    "three_parts": lambda key: key + "|" + key.split("|")[0],
}


@pytest.mark.parametrize("shape", sorted(PAIR_KEY_SHAPES))
@pytest.mark.parametrize("kind", ["group", "groupoid", "site", "2gpd"])
def test_table_keys_must_join_two_ids(kind, shape):
    document, field = _pair_key_documents()[kind]
    document, key = _with_key(PAIR_KEY_SHAPES[shape], document, field)
    with pytest.raises(ValueError) as exc:
        jsonio.load_object_unchecked(document)
    assert str(exc.value) == f"table key {key!r} is not two ids joined by '|'"


@pytest.mark.parametrize("command", [["comma", "--object", "*"], ["site-validate"]])
def test_site_commands_agree_on_a_malformed_table_key(tmp_path, capsys, command):
    site = FiniteSite.point_site().to_json()
    document, _ = _with_key(PAIR_KEY_SHAPES["three_parts"], site, "comp")
    code, out, err = run_on(tmp_path, capsys, "site", document, command)
    assert (code, out) == (2, "")
    assert err == "input error: table key 'id|id|id' is not two ids joined by '|'\n"
