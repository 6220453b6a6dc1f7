import pytest

from hpk.sset import (
    InsufficientDepth,
    SimplicialMap,
    TruncatedSimplicialSet,
    disjoint_union,
    pi0_sset,
    pullback,
    pushout,
    standard_complex,
    validate_sset,
)


def test_delta2_is_valid():
    d2 = standard_complex("Delta", 2)
    assert validate_sset(d2) == []
    assert d2.level_sizes() == [3, 6, 10]
    assert len(d2.nondegenerate(0)) == 3
    assert len(d2.nondegenerate(1)) == 3
    assert len(d2.nondegenerate(2)) == 1


def test_delta1_nondegenerate_counts():
    d1 = standard_complex("Delta", 1)
    assert len(d1.nondegenerate(0)) == 2
    assert len(d1.nondegenerate(1)) == 1


def test_horn21_counts():
    horn = standard_complex("horn", 2, k=1, depth=2)
    assert validate_sset(horn) == []
    assert len(horn.nondegenerate(0)) == 3
    assert len(horn.nondegenerate(1)) == 2
    assert len(horn.nondegenerate(2)) == 0


def test_boundary_of_delta2():
    b = standard_complex("boundary", 2, depth=2)
    assert len(b.nondegenerate(1)) == 3
    assert len(b.nondegenerate(2)) == 0


def test_planted_identity_violation_is_reported():
    d2 = standard_complex("Delta", 2)
    faces = {key: dict(table) for key, table in d2.faces.items()}
    # break d_0 on the top simplex: point it at the wrong edge
    top = d2.nondegenerate(2)[0]
    good = faces[(2, 0)][top]
    other = next(e for e in d2.levels[1] if e != good)
    faces[(2, 0)][top] = other
    broken = TruncatedSimplicialSet(2, d2.levels, faces, d2.degeneracies)
    report = broken.validate()
    assert report
    assert any("d_0" in line for line in report)


def test_sphere_level_sizes_match_degeneracy_orbit_count():
    s1 = standard_complex("sphere", 1, depth=3)
    assert validate_sset(s1) == []
    # oracle: level n carries one degenerate orbit of the vertex plus one
    # orbit of the loop per degeneracy word, i.e. n + 1 simplices at level n
    assert s1.level_sizes() == [1, 2, 3, 4]
    assert len(s1.nondegenerate(1)) == 1
    assert s1.nondegenerate(2) == ()


def test_sphere_at_depth_2():
    s1 = standard_complex("sphere", 1, depth=2)
    assert s1.level_sizes() == [1, 2, 3]


def test_depth_too_small_errors():
    with pytest.raises(InsufficientDepth):
        standard_complex("Delta", 3, depth=2)


def test_decompose_recovers_degeneracy_words():
    d1 = standard_complex("Delta", 1, depth=3)
    # 0.0.1.1 = s_2 s_0 (0.1) in outside-in normal form
    m, base, word = d1.decompose(3, "0.0.1.1")
    assert (m, base) == (1, "0.1")
    assert word == (2, 0)
    rebuilt = d1.apply_degeneracy_word(m, base, word)
    assert rebuilt == "0.0.1.1"
    assert d1.decompose(1, "0.1") == (1, "0.1", ())


def test_vertex_extraction():
    d2 = standard_complex("Delta", 2)
    assert d2.vertex(2, "0.1.2", 0) == "0"
    assert d2.vertex(2, "0.1.2", 2) == "2"
    assert d2.vertex(1, "0.2", 1) == "2"


def test_pi0_examples():
    d3 = standard_complex("Delta", 3)
    assert len(pi0_sset(d3)) == 1
    p = standard_complex("point", depth=1)
    two, _, _ = disjoint_union(p, p)
    assert len(pi0_sset(two)) == 2
    b2 = standard_complex("boundary", 2, depth=2)
    assert len(pi0_sset(b2)) == 1


def test_pi0_needs_depth_one():
    p = standard_complex("point", depth=0)
    with pytest.raises(InsufficientDepth):
        pi0_sset(p)


def include(sub, big):
    maps = [{x: x for x in level} for level in sub.levels]
    return SimplicialMap(sub, big, maps)


def test_pushout_collapsing_boundary_gives_sphere():
    depth = 2
    b1 = standard_complex("boundary", 1, depth=depth)
    d1 = standard_complex("Delta", 1, depth=depth)
    pt = standard_complex("point", depth=depth)
    f = include(b1, d1)
    g = SimplicialMap(b1, pt, [{x: "*" for x in level} for level in b1.levels])
    d, _, _ = pushout(f, g)
    assert validate_sset(d) == []
    s1 = standard_complex("sphere", 1, depth=depth)
    assert d.level_sizes() == s1.level_sizes()


def test_pushout_along_identity_returns_other_leg():
    d1 = standard_complex("Delta", 1)
    ident = SimplicialMap.identity(d1)
    pt = standard_complex("point", depth=1)
    g = SimplicialMap(d1, pt, [{x: "*" for x in level} for level in d1.levels])
    d, _, into_c = pushout(ident, g)
    assert d.level_sizes() == pt.level_sizes()
    assert validate_sset(d) == []


def test_pushout_counts_for_injective_legs():
    # |D_n| = |B_n| + |C_n| - |A_n| for injective legs
    b1 = standard_complex("boundary", 1, depth=1)
    d1 = standard_complex("Delta", 1, depth=1)
    f = include(b1, d1)
    g = include(b1, d1)
    d, _, _ = pushout(f, g)
    for n in range(2):
        assert len(d.levels[n]) == 2 * len(d1.levels[n]) - len(b1.levels[n])


def test_pullback_along_identity():
    d1 = standard_complex("Delta", 1)
    ident = SimplicialMap.identity(d1)
    p, _, onto_c = pullback(ident, ident)
    assert p.level_sizes() == d1.level_sizes()
    assert validate_sset(p) == []


def test_pullback_of_distinct_vertices_is_empty():
    d1 = standard_complex("Delta", 1)
    pt = standard_complex("point", depth=1)
    v0 = SimplicialMap(pt, d1, [{"*": "0"}, {"*": "0.0"}])
    v1 = SimplicialMap(pt, d1, [{"*": "1"}, {"*": "1.1"}])
    p, _, _ = pullback(v0, v1)
    assert p.level_sizes() == [0, 0]


def test_pullback_matched_pair_count():
    d1 = standard_complex("Delta", 1)
    pt = standard_complex("point", depth=1)
    collapse = SimplicialMap(d1, pt, [{x: "*" for x in level} for level in d1.levels])
    p, _, _ = pullback(collapse, collapse)
    # oracle: all pairs match over the point
    for n in range(2):
        assert len(p.levels[n]) == len(d1.levels[n]) ** 2


def test_universal_property_of_pushout_on_small_fixture():
    # cones from the pushout correspond to compatible cone pairs, checked
    # exhaustively on a <= 30 simplex instance
    from hpk.homsearch import enumerate_simplicial_maps

    b1 = standard_complex("boundary", 1, depth=1)
    d1 = standard_complex("Delta", 1, depth=1)
    f = include(b1, d1)
    g = include(b1, d1)
    d, into_b, into_c = pushout(f, g)
    target = standard_complex("Delta", 1, depth=1)
    cones = 0
    for u in enumerate_simplicial_maps(d1, target):
        for v in enumerate_simplicial_maps(d1, target):
            if all(
                u.level_maps[n][f(n, x)] == v.level_maps[n][g(n, x)]
                for n in range(2)
                for x in b1.levels[n]
            ):
                cones += 1
    mediating = len(list(enumerate_simplicial_maps(d, target)))
    assert cones == mediating


def test_universal_property_of_pullback_on_small_fixture():
    from hpk.homsearch import enumerate_simplicial_maps

    d1 = standard_complex("Delta", 1, depth=1)
    pt = standard_complex("point", depth=1)
    collapse = SimplicialMap(d1, pt, [{x: "*" for x in level} for level in d1.levels])
    p, onto_b, onto_c = pullback(collapse, collapse)
    source = standard_complex("Delta", 1, depth=1)
    cones = 0
    for u in enumerate_simplicial_maps(source, d1):
        for v in enumerate_simplicial_maps(source, d1):
            if all(
                collapse.level_maps[n][u.level_maps[n][x]]
                == collapse.level_maps[n][v.level_maps[n][x]]
                for n in range(2)
                for x in source.levels[n]
            ):
                cones += 1
    mediating = len(list(enumerate_simplicial_maps(source, p)))
    assert cones == mediating


def test_json_round_trip():
    s1 = standard_complex("sphere", 1, depth=2)
    data = s1.to_json()
    assert set(data) == {"depth", "levels", "faces", "degeneracies"}
    assert all("," in key for key in data["faces"])
    back = TruncatedSimplicialSet.from_json(data)
    assert back.levels == s1.levels
    assert back.faces == s1.faces


def test_sphere_two_levels_match_orbit_oracle():
    s2 = standard_complex("sphere", 2, depth=4)
    assert validate_sset(s2) == []
    # oracle: surjective nondecreasing tuples onto {0,1,2} plus the basepoint
    from itertools import combinations_with_replacement

    for n in range(5):
        surjective = [
            t
            for t in combinations_with_replacement(range(3), n + 1)
            if set(t) == {0, 1, 2}
        ]
        assert len(s2.levels[n]) == len(surjective) + 1
