from hpk.groups import GroupTable
from hpk.groupoids import FiniteGroupoid
from hpk.kan import is_kan, pi_n_kan
from hpk.sset import standard_complex, validate_sset
from hpk.two_groupoids import (
    TwoFunctor,
    TwoGroupoid,
    ms_fibration,
    ms_weak_equivalence,
    nerve,
    pi_2gpd,
    validate_2gpd,
)
from hpk.whitehead import (
    count_presented_functors,
    counit_weak_equivalence,
    whitehead_2gpd,
)

from test_compatible_tuples import brute_force_tuples, chaotic_2gpd


def trivial_2gpd():
    return TwoGroupoid.from_groupoid(FiniteGroupoid.trivial())


def z3_pi2_fixture():
    return TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(3))


def interval_2gpd():
    return TwoGroupoid.from_groupoid(FiniteGroupoid.interval())


def z2_one_cells():
    return TwoGroupoid.from_groupoid(
        FiniteGroupoid.from_group(GroupTable.cyclic(2))
    )


def test_fixture_validation():
    for k in (trivial_2gpd(), z3_pi2_fixture(), interval_2gpd(), z2_one_cells()):
        assert validate_2gpd(k) == []


def test_groupoid_as_2gpd_has_identity_2cells_only():
    k = interval_2gpd()
    assert len(k.cells2) == len(k.cells1)


def test_planted_interchange_violation_is_reported():
    k = z3_pi2_fixture()
    hcomp = dict(k.hcomp)
    # swap two horizontal composites to break interchange/functoriality
    hcomp[("g1", "g1")] = "g0"
    broken = TwoGroupoid(
        k.objects,
        k.cells1,
        k.comp1,
        k.id1,
        k.inv1,
        k.cells2,
        k.vcomp,
        hcomp,
        k.id2,
        k.vinv,
    )
    report = validate_2gpd(broken)
    assert report


def test_nerve_of_trivial_is_point():
    k = trivial_2gpd()
    n = nerve(k, 3)
    assert validate_sset(n) == []
    assert n.level_sizes() == [1, 1, 1, 1]


def test_nerve_of_interval_level_one():
    k = interval_2gpd()
    n = nerve(k, 3)
    assert validate_sset(n) == []
    assert len(n.levels[1]) == 4


def test_nerve_is_three_coskeletal():
    k = z3_pi2_fixture()
    n = nerve(k, 4)
    assert validate_sset(n) == []
    # level 4 must match the matching-tuple coskeleton over level 3, counted
    # by the brute-force reference rather than by the search nerve uses
    tuples, _ = brute_force_tuples(
        n.levels[3], [n.faces[(3, i)] for i in range(4)], range(5)
    )
    assert len(tuples) == len(n.levels[4])
    # chaotic V4 on three objects: level sizes sum k (k |G|)^n with k = 3
    n = nerve(chaotic_2gpd("V4", 3), 3)
    assert validate_sset(n) == []
    assert n.level_sizes() == [3 * 12**m for m in range(4)] == [3, 36, 432, 5184]


def test_nerve_is_kan():
    for k in (z3_pi2_fixture(), z2_one_cells()):
        n = nerve(k, 3)
        assert is_kan(n, 3)


def test_pi_examples():
    k = z3_pi2_fixture()
    assert len(pi_2gpd(k, "*", 0)) == 1
    assert pi_2gpd(k, "*", 1).is_trivial()
    assert pi_2gpd(k, "*", 2).iso_to(GroupTable.cyclic(3)) is not None
    i = interval_2gpd()
    assert pi_2gpd(i, "0", 1).is_trivial()
    z2 = z2_one_cells()
    assert pi_2gpd(z2, "*", 1).iso_to(GroupTable.cyclic(2)) is not None


def test_pi_of_nerve_matches_pi_of_2gpd():
    fixtures = [
        (trivial_2gpd(), "*"),
        (z3_pi2_fixture(), "*"),
        (interval_2gpd(), "0"),
        (z2_one_cells(), "*"),
    ]
    for k, x in fixtures:
        n = nerve(k, 4)
        assert len(pi_2gpd(k, x, 0)) == len(
            __import__("hpk.sset", fromlist=["pi0_sset"]).pi0_sset(n)
        )
        for i in (1, 2):
            left = pi_2gpd(k, x, i)
            right = pi_n_kan(n, x, i)
            assert left.iso_to(right) is not None, (k, i)
        assert pi_n_kan(n, x, 3).is_trivial()


def collapse_functor():
    """Collapse the Z/2 one-cell 2-groupoid onto the trivial one."""
    k = z2_one_cells()
    l = trivial_2gpd()
    only1 = next(iter(l.cells1))
    only2 = next(iter(l.cells2))
    return TwoFunctor(
        k,
        l,
        {o: "*" for o in k.objects},
        {f: only1 for f in k.cells1},
        {a: only2 for a in k.cells2},
    )


def test_ms_weak_equivalence_examples():
    k = interval_2gpd()
    ok, _ = ms_weak_equivalence(TwoFunctor.identity(k))
    assert ok
    # inclusion of one object of the interval is an equivalence
    point = TwoGroupoid.from_groupoid(FiniteGroupoid.trivial("0"))
    incl = TwoFunctor(
        point,
        k,
        {"0": "0"},
        {next(iter(point.cells1)): k.id1["0"]},
        {next(iter(point.cells2)): k.id2[k.id1["0"]]},
    )
    ok, _ = ms_weak_equivalence(incl)
    assert ok
    # collapsing Z/2 one-cells is not faithful
    ok, witness = ms_weak_equivalence(collapse_functor())
    assert not ok
    assert witness["reason"] == "hom functor not faithful"


def test_ms_fibration_examples():
    k = interval_2gpd()
    ok, _ = ms_fibration(TwoFunctor.identity(k))
    assert ok
    # map to the terminal 2-groupoid is a fibration when the source is chaotic
    terminal = trivial_2gpd()
    to_terminal = TwoFunctor(
        k,
        terminal,
        {o: "*" for o in k.objects},
        {f: next(iter(terminal.cells1)) for f in k.cells1},
        {a: next(iter(terminal.cells2)) for a in k.cells2},
    )
    ok, _ = ms_fibration(to_terminal)
    assert ok
    # planted failure: the inclusion of the trivial 2-groupoid into the
    # pi_2 = Z/3 one cannot lift nontrivial deformations
    z3 = z3_pi2_fixture()
    point = trivial_2gpd()
    incl = TwoFunctor(
        point,
        z3,
        {"*": "*"},
        {next(iter(point.cells1)): z3.id1["*"]},
        {next(iter(point.cells2)): z3.id2[z3.id1["*"]]},
    )
    ok, witness = ms_fibration(incl)
    assert not ok
    assert witness["reason"] == "deformation does not lift"


def test_whitehead_of_point_is_trivial():
    w = whitehead_2gpd(standard_complex("point", depth=3))
    assert not w.gens1
    assert not w.gens2
    assert not w.relations


def test_whitehead_of_circle_gives_free_pi1():
    w = whitehead_2gpd(standard_complex("sphere", 1, depth=3))
    assert len(w.gens1) == 1
    assert not w.gens2
    pres = w.pi1_presentation("*")
    assert pres.is_infinite_cyclic() is True


def test_whitehead_pi0():
    w = whitehead_2gpd(standard_complex("Delta", 2, depth=3))
    assert len(w.pi0()) == 1


def test_hom_count_transpose_on_small_fixtures():
    from hpk.homsearch import enumerate_simplicial_maps

    complexes = [
        standard_complex("Delta", 1, depth=3),
        standard_complex("sphere", 1, depth=3),
        standard_complex("boundary", 2, depth=3),
    ]
    targets = [interval_2gpd(), z2_one_cells(), z3_pi2_fixture()]
    for x in complexes:
        w = whitehead_2gpd(x)
        for k in targets:
            n = nerve(k, 3)
            direct = count_presented_functors(w, k)
            via_nerve = len(list(enumerate_simplicial_maps(x, n)))
            assert direct == via_nerve, (x, k.objects)


def test_counit_weak_equivalence_on_fixtures():
    for k in (trivial_2gpd(), z3_pi2_fixture(), interval_2gpd(), z2_one_cells()):
        ok, details = counit_weak_equivalence(k)
        assert ok is True, details


def test_two_groupoid_json_round_trip():
    k = z3_pi2_fixture()
    data = k.to_json()
    back = TwoGroupoid.from_json(data)
    assert validate_2gpd(back) == []
    assert back.objects == k.objects
