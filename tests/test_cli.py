import json
from pathlib import Path

import pytest

from hpk.cli import COMMANDS, main
from hpk.groups import GroupTable
from hpk.groupoids import FiniteGroupoid, SimplicialGroupoid
from hpk import jsonio
from hpk.loop import loop_groupoid
from hpk.sites import FiniteSite
from hpk.sset import SimplicialMap, TruncatedSimplicialSet, standard_complex


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


def test_pikan_on_a_complex_that_is_not_kan_is_a_property_violation(tmp_path, capsys):
    path = write(tmp_path, "s1.json", standard_complex("sphere", 1, depth=3).to_json())
    code = main(["pikan", path, "--base", "*", "-n", "1"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == (
        "property violation: not Kan: horn Lambda^2_0 with faces ('*', '0.1') has no filler\n"
    )


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


def _bz2_pikan_argv(tmp_path):
    from hpk.loop import wbar

    z2 = SimplicialGroupoid.constant(
        FiniteGroupoid.from_group(GroupTable.cyclic(2)), 3
    )
    wb = wbar(z2, 3)
    path = write(tmp_path, "bz2.json", wb.sset.to_json())
    return ["pikan", path, "--base", wb.sset.levels[0][0], "-n", "1"]


def _lift_argv(tmp_path):
    horn = standard_complex("horn", 2, k=1, depth=2)
    d2 = standard_complex("Delta", 2)
    include = SimplicialMap(horn, d2, [{x: x for x in lvl} for lvl in horn.levels])
    ident = SimplicialMap.identity(d2)
    problem = {"single": True} | {
        key: jsonio.smap_to_json(leg)
        for key, leg in (("i", include), ("top", include), ("p", ident), ("bottom", ident))
    }
    return ["lift", write(tmp_path, "lift.json", problem)]


def _geninc_argv(tmp_path):
    return ["geninc", write(tmp_path, "site.json", FiniteSite.two_object_site().to_json()),
            "--nmax", "1"]


@pytest.mark.parametrize(
    "argv, what",
    [
        (_bz2_pikan_argv, "horn enumeration"),
        (_lift_argv, "lifting search"),
        (_geninc_argv, "subpresheaf enumeration"),
    ],
)
def test_explicit_budget_beats_hpk_budget(tmp_path, capsys, monkeypatch, argv, what):
    argv = argv(tmp_path)
    monkeypatch.delenv("HPK_BUDGET", raising=False)
    assert main(argv) == 0
    capsys.readouterr()
    for env in (None, "100000000"):
        if env is not None:
            monkeypatch.setenv("HPK_BUDGET", env)
        code = main(argv + ["--budget", "1"])
        assert (code, *capsys.readouterr()) == (
            3, "", f"budget exceeded: {what}: enumeration budget of 1 exceeded\n"
        )


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
    "not_an_object": [],
    "no_groups": {"boundaries": []},
    "no_boundaries": {"groups": [[2]]},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CHAINS))
def test_doldkan_rejects_malformed_chain(tmp_path, capsys, name):
    path = write(tmp_path, "chain.json", MALFORMED_CHAINS[name])
    code = main(["doldkan", path, "--depth", "1"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("input error")


NEGATIVE_DEPTH_DOCUMENTS = {
    "doldkan": lambda: {"groups": [[], [2]], "boundaries": [[[]]]},
    "loop": lambda: standard_complex("sphere", 1, depth=3).to_json(),
    "unit": lambda: standard_complex("sphere", 1, depth=3).to_json(),
    "wbar": lambda: SimplicialGroupoid.constant(_gpd_z2(), 2).to_json(),
    "wtotal": lambda: SimplicialGroupoid.constant(_gpd_z2(), 2).to_json(),
    "counit": lambda: SimplicialGroupoid.constant(_gpd_z2(), 2).to_json(),
}


@pytest.mark.parametrize("command", sorted(NEGATIVE_DEPTH_DOCUMENTS))
def test_rejects_negative_depth(tmp_path, capsys, command):
    path = write(tmp_path, "doc.json", NEGATIVE_DEPTH_DOCUMENTS[command]())
    code = main([command, path, "--depth", "-1"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", "input error: depth must be a non-negative integer, got -1\n")


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


def test_weq_rejects_a_negative_nmax(tmp_path, capsys):
    """Z/2 -> 1 on constant presheaves kills pi_1: the pi0(hom) degree finds
    it, and a negative n_max, which would check no degree, is an input error."""
    from hpk.groupoids import GroupoidHom, SimplicialGroupoidMap
    from hpk.presheaves import NaturalTransformation, constant_presheaf

    site = FiniteSite.two_object_site()
    z2 = SimplicialGroupoid.constant(_gpd_z2(), 3)
    point = SimplicialGroupoid.constant(FiniteGroupoid.trivial(), 3)
    hom = GroupoidHom(z2.levels[0], point.levels[0], {"*": "*"}, {"g0": "e", "g1": "e"})
    collapse = SimplicialGroupoidMap(z2, point, {"*": "*"}, [hom] * 4)
    nat = NaturalTransformation(
        constant_presheaf(site, "sgpd", z2),
        constant_presheaf(site, "sgpd", point),
        {u: collapse for u in site.objects},
    )
    path = write(tmp_path, "kill.json", jsonio.nat_to_json(nat))
    code, out = run(capsys, "weq", path, "--kind", "sgpd", "--nmax", "2")
    assert code == 1 and json.loads(out)["verdict"] is False
    two = write(tmp_path, "two.json", _identity_nat(_pi2_z2)())
    for kind, doc in (("sgpd", path), ("2gpd", two)):
        code = main(["weq", doc, "--kind", kind, "--nmax", "-1"])
        assert (code, *capsys.readouterr()) == (
            2, "", "input error: n_max must be a non-negative integer, got -1\n"
        )


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
    # a file gets the bytes stdout gets, on the largest nerve the suite writes
    from hpk.two_groupoids import TwoGroupoid

    k = write(tmp_path, "k.json", TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(3)).to_json())
    nerve_path = tmp_path / "nerve.json"
    assert main(["nerve", k, "--depth", "4", "--output", str(nerve_path)]) == 0
    assert capsys.readouterr().out == ""
    code, out = run(capsys, "nerve", k, "--depth", "4")
    assert code == 0 and out.isascii()
    assert nerve_path.read_bytes() == out.encode()
    assert run(capsys, "nerve", k, "--depth", "4", "--format", "text") == (
        0,
        "degeneracies: (10 entries)\ndepth: 4\nfaces: (14 entries)\nlevels: (5 entries)\n",
    )


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


def _swapped_edge():
    """(Delta^1, a copy of it whose edge has its faces swapped, the id-renaming
    simplicial map between them) at depth 1; the map is its own inverse."""
    d1 = standard_complex("Delta", 1, depth=1)
    faces = {key: dict(table) for key, table in d1.faces.items()}
    faces[(1, 0)]["0.1"], faces[(1, 1)]["0.1"] = "0", "1"
    swapped = TruncatedSimplicialSet(1, d1.levels, faces, d1.degeneracies)
    assert swapped.validate() == []
    flip = [{"0": "1", "1": "0"}, {"0.0": "1.1", "0.1": "0.1", "1.1": "0.0"}]
    return d1, swapped, flip


@pytest.mark.parametrize("command", ["pullback", "pushout"])
def test_legs_sharing_an_end_share_its_faces(tmp_path, capsys, command):
    # the shared ends have the same ids level by level but different faces
    d1, swapped, flip = _swapped_edge()
    ident = SimplicialMap.identity(d1)
    ends = (d1, swapped) if command == "pullback" else (swapped, d1)
    other = SimplicialMap(*ends, flip)
    assert other.validate() == []
    path_i = write(tmp_path, "i.json", jsonio.smap_to_json(ident))
    path_o = write(tmp_path, "o.json", jsonio.smap_to_json(other))
    end = "target" if command == "pullback" else "source"
    assert (main([command, path_i, path_o]), *capsys.readouterr()) == (
        2, "", f"input error: {command} legs must share their {end}\n"
    )


def test_colliding_pullback_ids_are_an_input_error(tmp_path, capsys):
    # (a&b, c) and (a, b&c) would both be written (a&b&c)
    def discrete(*names):
        return TruncatedSimplicialSet(0, [names], {}, {})

    point = standard_complex("point", depth=0)
    paths = [
        write(tmp_path, f"{k}.json", jsonio.smap_to_json(
            SimplicialMap(x, point, [{s: "*" for s in x.levels[0]}])
        ))
        for k, x in enumerate((discrete("a&b", "a"), discrete("c", "b&c")))
    ]
    assert (main(["pullback", *paths]), *capsys.readouterr()) == (
        2, "", "input error: two simplices of level 0 have the id '(a&b&c)'\n"
    )


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_explicit_budget_must_be_positive(tmp_path, capsys, monkeypatch, budget):
    monkeypatch.delenv("HPK_BUDGET", raising=False)
    site = write(tmp_path, "site.json", FiniteSite.point_site().to_json())
    assert (main(["geninc", site, "--nmax", "0", "--budget", budget]), *capsys.readouterr()) == (
        2, "", f"input error: budget must be positive, got {budget}\n"
    )


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


def _delta1(change):
    """The Delta^1 document with one malformed part."""

    def build():
        data = standard_complex("Delta", 1).to_json()
        change(data)
        return data

    return build


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


def _site_with_cover_u(sieve):
    """The two-object site document with ``sieve`` as one more cover of U."""

    def build():
        data = FiniteSite.two_object_site().to_json()
        data["covers"]["U"].append(sieve)
        return data

    return build


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


def _good_presheaf():
    return _set_presheaf({"a": "c", "b": "d"})


def _bad_presheaf():
    data = _good_presheaf()
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


def _nat_across_sites():
    """The identity of a set presheaf whose target's site renames the arrow f to g."""
    source = _good_presheaf()
    target = json.loads(
        json.dumps(source).replace('"f"', '"g"').replace("f|", "g|").replace("|f", "|g")
    )
    return {
        "nat": True,
        "domain": "set",
        "source": source,
        "target": target,
        "components": {"U": {"a": "a", "b": "b"}, "V": {"c": "c", "d": "d"}},
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


def _identity_nat(value):
    """The identity transformation of a constant presheaf on the two-object site."""
    from hpk.presheaves import DOMAINS, NaturalTransformation, constant_presheaf

    def build():
        domain, x = value()
        presheaf = constant_presheaf(FiniteSite.two_object_site(), domain, x)
        ident = DOMAINS[domain].identity(x)
        return jsonio.nat_to_json(
            NaturalTransformation(presheaf, presheaf, {u: ident for u in presheaf.site.objects})
        )

    return build


def _z2_sgpd():
    return "sgpd", SimplicialGroupoid.constant(_gpd_z2(), 2)


def _pi2_z2():
    from hpk.two_groupoids import TwoGroupoid

    return "2gpd", TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(2))


def _with(build, field, value):
    def change():
        data = build()
        data[field] = value
        return data

    return change


def _without(build, field):
    def change():
        data = build()
        del data[field]
        return data

    return change


def _unknown_id(value, field):
    """A document whose ``field`` table names the unknown id ``zz`` at its first key."""

    def build():
        data = value()[1].to_json()
        data[field][next(iter(data[field]))] = "zz"
        return data

    return build


def _z2_sgpd_doc(change):
    """The constant Z/2 simplicial groupoid of depth 2, changed in place by ``change``."""

    def build():
        data = _z2_sgpd()[1].to_json()
        change(data)
        return data

    return build


def _identity_2functor():
    from hpk.two_groupoids import TwoFunctor

    return jsonio.functor2_to_json(TwoFunctor.identity(_pi2_z2()[1]))


def _nat_component_map2_null():
    data = _identity_nat(_pi2_z2)()
    data["components"]["U"]["map2"] = None
    return data


def _sgpd_presheaf():
    from hpk.presheaves import constant_presheaf

    return jsonio.presheaf_to_json(
        constant_presheaf(FiniteSite.two_object_site(), "sgpd", _z2_sgpd()[1])
    )


def _sgpd_to_2gpd_nat():
    data = _identity_nat(_z2_sgpd)()
    data["target"] = _identity_nat(_pi2_z2)()["target"]
    return data


def _loop_delta1_face_letters(letters):
    """The loop groupoid of Delta^1, its free level 1 face d_0 given ``letters``."""

    def build():
        data = loop_groupoid(standard_complex("Delta", 1, depth=2), 1).to_json()
        data["faces"]["1,0"]["0.1.1"]["letters"] = letters
        return data

    return build


def _at(build, path, value):
    """The document ``build`` makes, its node at ``path`` replaced by ``value``."""

    def document():
        data = node = build()
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return data

    return document


def _doubled(build, path):
    """The document ``build`` makes, the array at ``path`` written twice over."""

    def document():
        data = node = build()
        for key in path:
            node = node[key]
        node.extend(list(node))
        return data

    return document


def _renamed(build, field, old, new):
    """The document ``build`` makes, the key ``old`` of its ``field`` renamed ``new``."""

    def document():
        data = build()
        data[field][new] = data[field].pop(old)
        return data

    return document


def _constant_presheaf(domain, value):
    from hpk.presheaves import constant_presheaf

    return lambda: jsonio.presheaf_to_json(
        constant_presheaf(FiniteSite.two_object_site(), domain, value)
    )


def _sset_presheaf():
    return _constant_presheaf("sset", standard_complex("Delta", 1))()


def _free_sgpd():
    """The loop groupoid of Delta^1: both levels free."""
    return "sgpd", loop_groupoid(standard_complex("Delta", 1, depth=2), 1)


def _to_sset_transpose():
    data = _bad_transpose()
    data["direction"] = "to-sset"
    return data


_NOT_A_FREE_ARROW = (
    "free arrow 'x' is not an object with a string src and an array of "
    "[generator, exponent] letters"
)


def _set_presheaf_value_u(value):
    def build():
        data = _set_presheaf({"a": "c", "b": "d"})
        data["values"]["U"] = value
        return data

    return build


# one invalid document per kind the CLI reads: its builder, the command that
# reads it, the exit code and the stderr recorded before constructors stopped
# validating (None: the command reports the violations on stdout instead)
INVALID_DOCUMENTS = {
    "sset": (_bad_sset, ["pi0"], 2, "invalid simplicial set: "
             "d_0 d_1 != d_0 d_0 at level 2 on 0.1.2; d_0 d_2 != d_1 d_0 at level 2 on 0.1.2"),
    "sset_validate": (_bad_sset, ["validate"], 1, None),
    "sgpd": (_bad_sgpd, ["moore", "-n", "0"], 2,
             "invalid simplicial groupoid: "
             "d_0 s_0 != id at level 0 on g1; d_1 s_0 != id at level 0 on g1"),
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
    "nat_across_sites": (_nat_across_sites, ["weq", "--kind", "sgpd"], 2,
                         "natural transformation source and target are not on the same site"),
    "nat_sgpd_as_2gpd": (_identity_nat(_z2_sgpd), ["weq", "--kind", "2gpd"], 2,
                         "kind '2gpd' does not match the values of the transformation "
                         "('sgpd' to 'sgpd')"),
    "nat_2gpd_as_sgpd": (_identity_nat(_pi2_z2), ["weq", "--kind", "sgpd"], 2,
                         "kind 'sgpd' does not match the values of the transformation "
                         "('2gpd' to '2gpd')"),
    "2functor": (_bad_2functor, ["msweq"], 2,
                 "invalid 2-functor: identity at id_* not preserved; "
                 "vertical composition not preserved at (g0,g0)"),
    "lift": (_bad_lift, ["lift"], 2,
             "invalid lifting problem: square does not commute at *, level 0"),
    "transpose": (_bad_transpose, ["transpose"], 2,
                  "invalid simplicial map: level 1 map escapes target"),
    # malformed rather than invalid: each once ended in a traceback or was read
    # with a meaning nobody intended
    "sset_number_id": (_delta1(lambda d: d["levels"][0].__setitem__(0, 0)), ["validate"], 2,
                       "level 0 holds a number where a string id belongs"),
    "sset_null_face_table": (_delta1(lambda d: d["faces"].__setitem__("1,0", None)),
                             ["validate"], 2, "faces table 1,0 must be an object, got null"),
    "sset_string_levels": (_delta1(lambda d: d.__setitem__("levels", "ab")), ["validate"], 2,
                           "levels must be an array of levels, got a string"),
    "groupoid_list_src": (_with(lambda: _gpd_z2().to_json(), "arrows",
                                [{"id": "g0", "src": ["x"], "tgt": "*"}]), ["pi0"], 2,
                          "groupoid arrows src must be a string, got an array"),
    "groupoid_list_object": (_with(lambda: _gpd_z2().to_json(), "objects", [["*"]]), ["pi0"], 2,
                             "groupoid objects holds an array where a string belongs"),
    "presheaf_null_values": (_with(_sgpd_presheaf, "values", None), ["sheafify"], 2,
                             "presheaf values must be an object, got null"),
    "sgpd_negative_degree": (lambda: _z2_sgpd()[1].to_json(), ["moore", "-n", "-1"], 2,
                             "Moore homotopy degree must be a non-negative integer, got -1"),
    "presheaf_negative_degree": (_sgpd_presheaf,
                                 ["hsheaf", "--object", "U", "--base", "*", "-n", "-1"], 2,
                                 "Moore homotopy degree must be a non-negative integer, got -1"),
    "nat_sgpd_to_2gpd": (_sgpd_to_2gpd_nat, ["weq", "--kind", "sgpd"], 2,
                         "natural transformation domain 'sgpd' does not match "
                         "the domain '2gpd' of its target"),
    # an unknown id in a table is a named violation, not a lookup error
    "groupoid_unknown_inverse": (_unknown_id(lambda: ("groupoid", _gpd_z2()), "inverses"),
                                 ["validate"], 1, None),
    **{
        f"2gpd_unknown_{field}": (_unknown_id(_pi2_z2, field), ["validate"], 1, None)
        for field in ("comp1", "vcomp", "hcomp", "inv1", "vinv")
    },
    "sgpd_unknown_face_image": (_z2_sgpd_doc(lambda d: d["faces"]["1,0"].__setitem__("g1", "zz")),
                                ["validate"], 2,
                                "invalid groupoid map: image 'zz' of arrow g1 is not a target arrow"),
    "sgpd_missing_face_table": (_z2_sgpd_doc(lambda d: d["faces"].pop("1,0")), ["validate"], 1,
                                None),
    # site, group and 2-functor documents are shape-checked like the others
    "site_null_arrows": (_with(lambda: FiniteSite.two_object_site().to_json(), "arrows", None),
                         ["comma", "--object", "U"], 2, "site arrows must be an array, got null"),
    # a cover naming a non-arrow is a violation of the site, not a lookup error
    "site_unknown_cover_arrow": (_site_with_cover_u(["zz"]), ["site-validate"], 1, None),
    "site_unknown_cover_arrow_comma": (_site_with_cover_u(["zz"]), ["comma", "--object", "U"], 2,
                                       "invalid site: cover of U holds 'zz', which is not an arrow"),
    "site_list_in_sieve": (_with(lambda: FiniteSite.two_object_site().to_json(), "covers",
                                 {"U": [["f", ["x"]]], "V": [["idV"]]}),
                           ["comma", "--object", "U"], 2,
                           "site covers holds an array where a string belongs"),
    "group_null_mult": (_with(lambda: GroupTable.cyclic(2).to_json(), "mult", None), ["pi0"], 2,
                        "group mult must be an object, got null"),
    "group_null_elements": (_with(lambda: GroupTable.cyclic(2).to_json(), "elements", None),
                            ["validate"], 2, "group elements must be an array, got null"),
    "2functor_null_map2": (_with(_identity_2functor, "map2", None), ["msweq"], 2,
                           "2-functor map2 must be an object, got null"),
    "2functor_list_image": (_with(_identity_2functor, "map2", {"g0": "g0", "g1": ["g0"]}),
                            ["msweq"], 2, "2-functor map2 holds an array where a string belongs"),
    "nat_2gpd_null_map2": (_nat_component_map2_null, ["weq", "--kind", "2gpd"], 2,
                           "2-groupoid map map2 must be an object, got null"),
    # letters of a free level name a generator and an exponent 1 or -1
    "sgpd_free_unknown_generator": (_loop_delta1_face_letters([["zz", 1]]), ["validate"], 2,
                                    "unknown generator 'zz'"),
    "sgpd_free_list_generator": (_loop_delta1_face_letters([[["0.1"], 1]]), ["validate"], 2,
                                 "unknown generator ['0.1']"),
    "sgpd_free_bad_exponent": (_loop_delta1_face_letters([["0.1", 2]]), ["validate"], 2,
                               "letter '0.1' has exponent 2, not 1 or -1"),
    # a missing required field is named with the kind of document
    "groupoid_no_inverses": (_without(lambda: _gpd_z2().to_json(), "inverses"), ["validate"], 2,
                             "groupoid has no inverses field"),
    "group_no_identity": (_without(lambda: GroupTable.cyclic(2).to_json(), "identity"),
                          ["validate"], 2, "group has no identity field"),
    # operator-table keys are "n,i", read by one parser
    "sgpd_bad_operator_key": (_z2_sgpd_doc(lambda d: d["faces"].__setitem__("1,0,0", {})),
                              ["validate"], 2,
                              "operator table key '1,0,0' is not two integers n,i"),
    # set-valued restrictions and values hold string ids
    "set_map_list_image": (lambda: _set_presheaf({"a": ["c"], "b": "d"}), ["sheafify"], 2,
                           "set map holds an array where a string belongs"),
    "set_map_pairs": (lambda: _set_presheaf([["a", "c"], ["b", "d"]]), ["sheafify"], 2,
                      "a set map must be an object, got an array"),
    "set_value_list_element": (_set_presheaf_value_u([["a"], "b"]), ["sheafify"], 2,
                               "set value holds an array where a string id belongs"),
    # map, lifting-problem and transpose documents are shape-checked too
    "smap_array": (list, ["pushout"], 2, "a simplicial map must be an object, got an array"),
    "smap_list_image": (_with(_bad_smap, "levels", [{"0": ["0"]}]), ["pushout"], 2,
                        "simplicial map levels holds an array where a string belongs"),
    "lift_array": (list, ["lift"], 2, "a lifting problem must be an object, got an array"),
    "lift_array_leg": (_with(_bad_lift, "i", []), ["lift"], 2,
                       "lifting problem i must be an object, got an array"),
    "lift_empty_leg": (_with(_bad_lift, "top", {}), ["lift"], 2,
                       "simplicial map has no levels field"),
    "transpose_array": (list, ["transpose"], 2,
                        "a transpose document must be an object, got an array"),
    "transpose_null_depth": (_with(_bad_transpose, "depth", None), ["transpose"], 2,
                             "transpose document depth must be a number, got null"),
    # a map inside a presheaf, a transformation or a transpose document is read
    # by its value domain's checked reader
    "sset_restriction_null_levels": (_at(_sset_presheaf, ("restrictions", "f", "levels"), None),
                                     ["sheafify"], 2,
                                     "simplicial map levels must be an array, got null"),
    "sset_restriction_array": (_at(_sset_presheaf, ("restrictions", "f"), []), ["sheafify"], 2,
                               "a simplicial map must be an object, got an array"),
    "sset_restriction_empty": (_at(_sset_presheaf, ("restrictions", "f"), {}), ["sheafify"], 2,
                               "simplicial map has no levels field"),
    **{
        f"sgpd_restriction_null_{field}": (
            _at(_sgpd_presheaf, ("restrictions", "f", field), None), ["sheafify"], 2,
            f"simplicial groupoid map {field} must be {kind}, got null")
        for field, kind in (("obj_map", "an object"), ("levels", "an array"))
    },
    **{
        f"nat_sgpd_null_{field}": (
            _at(_identity_nat(_z2_sgpd), ("components", "U", field), None),
            ["weq", "--kind", "sgpd"], 2,
            f"simplicial groupoid map {field} must be {kind}, got null")
        for field, kind in (("obj_map", "an object"), ("levels", "an array"))
    },
    "transpose_to_sset_empty_map": (_at(_to_sset_transpose, ("map",), {}), ["transpose"], 2,
                                    "simplicial groupoid map has no obj_map field"),
    "transpose_to_sset_null_level": (
        _at(_to_sset_transpose, ("map",), {"obj_map": {}, "levels": [None]}), ["transpose"], 2,
        "simplicial groupoid map levels holds null where an object belongs"),
    "transpose_to_sgpd_null_levels": (_at(_bad_transpose, ("map", "levels"), None),
                                      ["transpose"], 2,
                                      "simplicial map levels must be an array, got null"),
    # a map has one level map per level of its source
    "smap_no_levels": (_with(_bad_smap, "levels", []), ["pushout"], 2,
                       "invalid simplicial map: wrong number of level maps"),
    "smap_doubled_levels": (_doubled(_bad_smap, ("levels",)), ["pushout"], 2,
                            "invalid simplicial map: wrong number of level maps"),
    "sgpd_restriction_doubled_levels": (
        _doubled(_sgpd_presheaf, ("restrictions", "f", "levels")), ["sheafify"], 2,
        "invalid simplicial groupoid map: wrong number of level maps"),
    "nat_sgpd_doubled_levels": (
        _doubled(_identity_nat(_z2_sgpd), ("components", "U", "levels")),
        ["weq", "--kind", "sgpd"], 2,
        "invalid simplicial groupoid map: wrong number of level maps"),
    # an arrow of a finite level is a string id, one of a free level an object
    # with a string src and an array of letters
    "sgpd_list_arrow": (_z2_sgpd_doc(lambda d: d["faces"]["1,0"].__setitem__("g1", [])),
                        ["validate"], 2, "arrow [] is not a string id"),
    "sgpd_free_string_arrow": (
        _at(lambda: _free_sgpd()[1].to_json(), ("faces", "1,0", "0.1.1"), "x"), ["validate"], 2,
        _NOT_A_FREE_ARROW),
    "sgpd_free_map_string_arrow": (
        _at(_constant_presheaf(*_free_sgpd()), ("restrictions", "f", "levels", 0, "0.1"), "x"),
        ["validate"], 2, _NOT_A_FREE_ARROW),
    # the src of a free arrow is where its letters start
    "sgpd_free_arrow_elsewhere": (
        _at(lambda: _free_sgpd()[1].to_json(), ("faces", "1,0", "0.1.1", "src"), "nowhere"),
        ["validate"], 2, "free arrow src 'nowhere' is not '1', where its letters start"),
    # a key of a presheaf's restrictions or a transformation's components, and
    # an object a restriction needs a value at, are named when they are missing
    "presheaf_restriction_not_an_arrow": (
        _renamed(_good_presheaf, "restrictions", "f", "zz"), ["sheafify"], 2,
        "presheaf restrictions key 'zz' is not an arrow of the site"),
    "presheaf_missing_value": (_at(_good_presheaf, ("values",), {"U": ["a", "b"]}), ["sheafify"],
                               2, "presheaf values has no entry for object 'V'"),
    "nat_component_not_an_object": (
        _renamed(_identity_nat(lambda: ("set", ("a", "b"))), "components", "V", "zz"),
        ["weq", "--kind", "sgpd"], 2,
        "natural transformation components key 'zz' is not an object of the site"),
    # a section equal under == to one read before, but with a depth of another
    # JSON type, is read (and rejected) on its own: == equates 2, 2.0 and true
    "presheaf_value_float_depth": (_at(_sgpd_presheaf, ("values", "V", "depth"), 2.0),
                                   ["sheafify"], 2,
                                   "simplicial groupoid depth must be an integer, got a number"),
    "presheaf_value_true_depth": (_at(_sset_presheaf, ("values", "V", "depth"), True),
                                  ["sheafify"], 2, "depth must be a non-negative integer, got True"),
    # a groupoid with a free field is free, and the field must be true
    "free_groupoid_free_false": (_at(lambda: _free_sgpd()[1].levels[1].to_json(), ("free",), False),
                                 ["bounds"], 2, "groupoid free must be true, got false"),
    "free_groupoid_free_string": (_at(lambda: _free_sgpd()[1].levels[1].to_json(), ("free",), "no"),
                                  ["bounds"], 2, 'groupoid free must be true, got "no"'),
    "sgpd_level_free_false": (_at(lambda: _free_sgpd()[1].to_json(), ("levels", 1, "free"), False),
                              ["validate"], 2, "groupoid free must be true, got false"),
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


@pytest.mark.parametrize(
    "change, reason",
    [
        (lambda d: d["levels"].__setitem__(0, None), "level 0 must be an array of string ids, got null"),
        (lambda d: d["levels"][1].__setitem__(0, ["0"]), "level 1 holds an array where a string id belongs"),
        (lambda d: d.__setitem__("faces", []), "faces must be an object of tables, got an array"),
        (lambda d: d["faces"]["1,0"].__setitem__("0.1", ["1"]),
         "faces table 1,0 holds an array where a string id belongs"),
        (lambda d: d["degeneracies"].__setitem__("0,0", 5), "degeneracies table 0,0 must be an object, got a number"),
        (lambda d: d.pop("degeneracies"), "simplicial set has no degeneracies field"),
        (lambda d: d["faces"].__setitem__("x,0", {}), "operator table key 'x,0' is not two integers n,i"),
    ],
)
def test_sset_documents_of_the_wrong_shape_are_input_errors(tmp_path, capsys, change, reason):
    got, out, err = run_on(tmp_path, capsys, "shape", _delta1(change)(), ["validate"])
    assert (got, out, err) == (2, "", f"input error: {reason}\n")
    # the same check guards a simplicial set nested in another document
    ident = jsonio.smap_to_json(SimplicialMap.identity(standard_complex("Delta", 1)))
    ident["source"] = _delta1(change)()
    got, out, err = run_on(tmp_path, capsys, "smap", ident, ["pushout"])
    assert (got, out, err) == (2, "", f"input error: {reason}\n")


def test_sset_document_that_is_not_an_object_is_an_input_error(tmp_path, capsys):
    ident = jsonio.smap_to_json(SimplicialMap.identity(standard_complex("Delta", 1)))
    ident["target"] = []
    got, out, err = run_on(tmp_path, capsys, "smap", ident, ["pushout"])
    assert (got, out, err) == (2, "", "input error: a simplicial set must be an object, got an array\n")


@pytest.mark.parametrize(
    "part, cell, image, reason",
    [
        ("objects", "*", "zz", "image 'zz' of object * is not a target object"),
        ("map1", "id_*", "zz", "image 'zz' of 1-cell id_* is not a target 1-cell"),
        ("map2", "g1", "zz", "image 'zz' of 2-cell g1 is not a target 2-cell"),
    ],
)
def test_msweq_names_an_image_outside_the_target(tmp_path, capsys, part, cell, image, reason):
    from hpk.two_groupoids import TwoFunctor, TwoGroupoid

    k = TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(2))
    data = jsonio.functor2_to_json(TwoFunctor.identity(k))
    assert cell in data[part]
    data[part][cell] = image
    code, out, err = run_on(tmp_path, capsys, "unknown_image", data, ["msweq"])
    assert (code, out) == (2, "")
    assert err == f"input error: invalid 2-functor: {reason}\n"


def test_validate_names_a_missing_face_table_of_a_simplicial_groupoid(tmp_path, capsys):
    document = _z2_sgpd_doc(lambda d: d["faces"].pop("1,0"))()
    code, out, err = run_on(tmp_path, capsys, "missing", document, ["validate"])
    assert (code, err) == (1, "")
    assert json.loads(out)["reports"][0]["violations"] == ["missing face table d_0 at level 1"]


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


@pytest.mark.parametrize("field", ["comp", "identities", "inverses"])
@pytest.mark.parametrize("command", [["validate"], ["pi0"]])
def test_groupoid_tables_must_be_json_objects(tmp_path, capsys, field, command):
    # a list of pairs used to be read as the object form by dict(...)
    data = _gpd_z2().to_json()
    data[field] = [[key, value] for key, value in data[field].items()]
    code, out, err = run_on(tmp_path, capsys, "pairs", data, command)
    assert (code, out) == (2, "")
    assert err == f"input error: groupoid {field} must be an object, got an array\n"


def test_a_level_of_a_simplicial_groupoid_must_have_object_tables(tmp_path, capsys):
    data = SimplicialGroupoid.constant(_gpd_z2(), 1).to_json()
    data["levels"][0]["identities"] = [["*", "g0"]]
    code, out, err = run_on(tmp_path, capsys, "level", data, ["validate"])
    assert (code, out) == (2, "")
    assert err == "input error: groupoid identities must be an object, got an array\n"


TWO_GROUPOID_FIELDS = ["objects", "cells1", "comp1", "id1", "inv1",
                       "cells2", "vcomp", "hcomp", "id2", "vinv"]


@pytest.mark.parametrize("field", TWO_GROUPOID_FIELDS)
def test_a_null_2_groupoid_field_is_an_input_error(tmp_path, capsys, field):
    document = _with(lambda: _pi2_z2()[1].to_json(), field, None)()
    code, out, err = run_on(tmp_path, capsys, "k", document, ["nerve", "--depth", "2"])
    kind = "an array" if field in ("objects", "cells1", "cells2") else "an object"
    reason = f"2-groupoid {field} must be {kind}, got null"
    assert (code, out, err) == (2, "", f"input error: {reason}\n")


@pytest.mark.parametrize("field, kind", [("objects", "an array"), ("arrows", "an array"),
                                         ("comp", "an object")])
def test_a_null_groupoid_field_is_an_input_error(tmp_path, capsys, field, kind):
    document = _with(lambda: _gpd_z2().to_json(), field, None)()
    code, out, err = run_on(tmp_path, capsys, "g", document, ["pi0"])
    assert (code, out, err) == (2, "", f"input error: groupoid {field} must be {kind}, got null\n")


def _z2_sgpd_depth1():
    return SimplicialGroupoid.constant(_gpd_z2(), 1).to_json()


@pytest.mark.parametrize(
    "field, value, reason",
    [
        ("depth", 5, "simplicial groupoid depth 5 does not match its 2 levels"),
        ("depth", None, "simplicial groupoid depth must be an integer, got null"),
        ("depth", "x", "simplicial groupoid depth must be an integer, got a string"),
        ("depth", True, "simplicial groupoid depth must be an integer, got a boolean"),
        ("objects", None, "simplicial groupoid objects must be an array, got null"),
        ("faces", 3, "simplicial groupoid faces must be an object, got a number"),
        ("degeneracies", None, "simplicial groupoid degeneracies must be an object, got null"),
    ],
)
def test_a_malformed_simplicial_groupoid_is_an_input_error(tmp_path, capsys, field, value, reason):
    document = _with(_z2_sgpd_depth1, field, value)()
    code, out, err = run_on(tmp_path, capsys, "a", document, ["wbar", "--depth", "1"])
    assert (code, out, err) == (2, "", f"input error: {reason}\n")


@pytest.mark.parametrize(
    "change, reason",
    [
        (lambda level: None, "simplicial groupoid levels holds null where an object belongs"),
        (lambda level: {**level, "arrows": None}, "groupoid arrows must be an array, got null"),
    ],
)
def test_a_malformed_level_of_a_simplicial_groupoid_is_an_input_error(
    tmp_path, capsys, change, reason
):
    document = _z2_sgpd_depth1()
    document["levels"][1] = change(document["levels"][1])
    code, out, err = run_on(tmp_path, capsys, "a", document, ["wbar", "--depth", "1"])
    assert (code, out, err) == (2, "", f"input error: {reason}\n")


@pytest.mark.parametrize("name, key", [("faces", "7,0"), ("degeneracies", "1,0")])
def test_simplicial_groupoid_tables_outside_the_depth_are_input_errors(tmp_path, capsys, name, key):
    document = _z2_sgpd_depth1()
    document[name][key] = {}
    code, out, err = run_on(tmp_path, capsys, "a", document, ["wbar", "--depth", "1"])
    assert (code, out) == (2, "")
    assert err == f"input error: simplicial groupoid {name} table {key} is outside depth 1\n"


@pytest.mark.parametrize(
    "name, key, violation",
    [
        ("faces", "7,0", "face table d_0 at level 7 lies outside depth 1"),
        ("faces", "1,2", "face table d_2 at level 1 lies outside depth 1"),
        ("degeneracies", "1,0", "degeneracy table s_0 at level 1 lies outside depth 1"),
    ],
)
def test_validate_reports_sset_tables_outside_the_depth(tmp_path, capsys, name, key, violation):
    document = _delta1(lambda d: d[name].__setitem__(key, {}))()
    code, out, err = run_on(tmp_path, capsys, "d1", document, ["validate"])
    assert (code, err) == (1, "")
    assert json.loads(out)["reports"][0]["violations"] == [violation]


# -- documents of the wrong kind ------------------------------------------------------

# every command that loads a document and needs one kind of it, given a valid
# group document: its options and the whole message
WRONG_KIND = {
    "validate": ([], "validate does not handle kind 'group'"),
    "pi0": ([], "pi0 does not handle kind 'group'"),
    "bounds": ([], "bounds does not handle kind 'group'"),
    "pikan": (["--base", "*", "-n", "1"], "pikan needs a simplicial set"),
    "moore": (["-n", "0"], "moore needs a simplicial groupoid"),
    "loop": (["--depth", "1"], "loop needs a simplicial set"),
    "wbar": (["--depth", "1"], "wbar needs a simplicial groupoid"),
    "wtotal": (["--depth", "1"], "wtotal needs a simplicial groupoid"),
    "unit": (["--depth", "1"], "unit needs a simplicial set"),
    "counit": (["--depth", "1"], "counit needs a simplicial groupoid"),
    "nerve": (["--depth", "1"], "nerve needs a 2-groupoid"),
    "pi2gpd": (["--base", "*", "-i", "0"], "pi2gpd needs a 2-groupoid"),
    "whitehead": ([], "whitehead needs a simplicial set"),
    "comma": (["--object", "*"], "comma needs a site"),
    "yu": (["--site", "group.json", "--object", "*"], "yu needs a simplicial set"),
    "sheafify": ([], "sheafify needs a presheaf"),
    "hsheaf": (["--object", "*", "--base", "*", "-n", "0"], "hsheaf needs a presheaf"),
    "geninc": (["--nmax", "0"], "geninc needs a site"),
    "site-validate": ([], "group.json is not a site"),
}


@pytest.mark.parametrize("command", sorted(WRONG_KIND))
def test_a_document_of_the_wrong_kind_is_named(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "group.json", GroupTable.cyclic(2).to_json())
    options, reason = WRONG_KIND[command]
    code = main([command, "group.json", *options])
    assert (code, *capsys.readouterr()) == (2, "", f"input error: {reason}\n")


def test_yu_names_a_site_file_of_the_wrong_kind(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "pt.json", standard_complex("point", depth=1).to_json())
    code = main(["yu", "pt.json", "--site", "pt.json", "--object", "U"])
    assert (code, *capsys.readouterr()) == (2, "", "input error: yu needs a site file\n")


# -- reading and writing back ---------------------------------------------------------


def _round_trip_documents():
    from test_golden_outputs import domain_transformations
    from hpk.two_groupoids import TwoFunctor

    docs = {}
    for name, nat in domain_transformations().items():
        docs[f"presheaf_{name}"] = (jsonio.presheaf_to_json(nat.source), jsonio.presheaf_to_json)
        docs[f"nat_{name}"] = (jsonio.nat_to_json(nat), jsonio.nat_to_json)
        map_to_json = {"sset": jsonio.smap_to_json, "2gpd": jsonio.functor2_to_json}.get(name)
        if map_to_json:
            docs[f"map_{name}"] = (map_to_json(nat.components["U"]), map_to_json)
    d2 = standard_complex("Delta", 2)
    docs["map_sset_delta2"] = (jsonio.smap_to_json(SimplicialMap.identity(d2)), jsonio.smap_to_json)
    docs["map_2gpd_pi2"] = (_identity_2functor(), jsonio.functor2_to_json)
    return docs


READERS = {
    "presheaf": lambda data: jsonio.load_object(data)[1],
    "nat": jsonio.nat_from_json,
    "map_sset": jsonio.smap_from_json,
    "map_2gpd": jsonio.functor2_from_json,
}


@pytest.mark.parametrize("name", sorted(_round_trip_documents()))
def test_documents_read_and_written_back_are_unchanged(name):
    document, to_json = _round_trip_documents()[name]
    text = json.dumps(document, sort_keys=True)
    read = next(reader for prefix, reader in READERS.items() if name.startswith(prefix))
    again = to_json(read(json.loads(text)))
    assert json.dumps(again, sort_keys=True) == text
