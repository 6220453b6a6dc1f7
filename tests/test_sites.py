from hpk import jsonio
from hpk.sites import FiniteSite, comma_site


def test_point_site_valid():
    site = FiniteSite.point_site()
    assert site.validate() == []


def test_two_object_site_valid():
    site = FiniteSite.two_object_site()
    assert site.validate() == []
    assert site.covering("U", frozenset({"f"}))


def test_trivial_topology_on_two_object_category():
    site = FiniteSite.two_object_site(cover_u=False)
    assert site.validate() == []
    assert len(site.covers["U"]) == 1


def test_planted_non_stable_coverage_is_reported():
    # <f> covers U but the pullback of <f> along f (the maximal sieve on V)
    # is removed from V's covers, breaking stability indirectly: instead we
    # plant a V-cover that is the empty sieve, breaking the maximal axiom
    site = FiniteSite.two_object_site()
    covers = {u: list(s) for u, s in site.covers.items()}
    covers["V"] = [frozenset()]
    broken = FiniteSite(
        site.objects, site.arrows, site.comp, site.identities, covers
    )
    report = broken.validate()
    assert report
    assert any("maximal" in line or "cover" in line for line in report)


def test_removing_small_cover_still_valid():
    # dropping <f> from U's covers leaves the trivial topology: still valid
    site = FiniteSite.two_object_site()
    covers = {u: list(s) for u, s in site.covers.items()}
    covers["U"] = [frozenset({"idU", "f"})]
    still = FiniteSite(
        site.objects, site.arrows, site.comp, site.identities, covers
    )
    assert still.validate() == []


def test_a_cover_naming_a_non_arrow_is_a_named_violation():
    site = FiniteSite.two_object_site()
    covers = {u: list(s) for u, s in site.covers.items()}
    covers["U"].append(frozenset({"zz"}))
    broken = FiniteSite(site.objects, site.arrows, site.comp, site.identities, covers)
    assert broken.validate() == ["cover of U holds 'zz', which is not an arrow"]
    assert not broken.is_sieve("U", {"zz"})
    assert not broken.is_sieve("U", {"f", "zz"})


def test_local_character_catches_missing_sieve():
    # if the empty sieve covers V, then the empty sieve on U is locally
    # covering for the <f> cover and must be listed; flag its absence
    site = FiniteSite.two_object_site()
    covers = {u: list(s) for u, s in site.covers.items()}
    covers["V"] = [frozenset({"idV"}), frozenset()]
    broken = FiniteSite(
        site.objects, site.arrows, site.comp, site.identities, covers
    )
    report = broken.validate()
    assert any("locally covering" in line for line in report)


def test_sieve_enumeration():
    site = FiniteSite.two_object_site()
    sieves = site.all_sieves("U")
    assert len(sieves) == 3  # empty, <f>, maximal


def test_minimal_cover():
    site = FiniteSite.two_object_site()
    assert site.minimal_cover("U") == frozenset({"f"})
    assert site.minimal_cover("V") == frozenset({"idV"})


def test_comma_site_object_count():
    site = FiniteSite.two_object_site()
    over_u = comma_site(site, "U")
    assert len(over_u.objects) == 2  # idU and f
    assert over_u.validate() == []
    over_v = comma_site(site, "V")
    assert len(over_v.objects) == 1
    assert over_v.validate() == []


def test_comma_site_of_one_object_category():
    site = FiniteSite.point_site()
    over = comma_site(site, "*")
    assert len(over.objects) == 1
    assert over.validate() == []


def test_site_json_round_trip():
    site = FiniteSite.two_object_site()
    data = site.to_json()
    assert set(data) == {"objects", "arrows", "comp", "identities", "covers"}
    kind, back = jsonio.load_object_unchecked(data)
    assert kind == "site"
    assert back.validate() == []
    assert back.covers == site.covers
