import pytest

from hpk import jsonio
from hpk.sset import (
    InsufficientDepth,
    SimplicialMap,
    TruncatedSimplicialSet,
    complex_from_keys,
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


def _discrete(*names):
    return TruncatedSimplicialSet(0, [names], {}, {})


def test_builder_writes_each_key_once_and_looks_faces_up_by_key():
    keys = [["v", "w"], [("v", "w"), ("v", "v"), ("w", "w")]]
    x, ids = complex_from_keys(
        1,
        keys,
        lambda n, key: "-".join(key) if n else key,
        lambda n, i, edge: edge[1 - i],
        lambda n, i, v: (v, v),
    )
    assert validate_sset(x) == []
    assert ids == [{"v": "v", "w": "w"}, {("v", "w"): "v-w", ("v", "v"): "v-v", ("w", "w"): "w-w"}]
    assert x.faces[(1, 0)] == {"v-w": "w", "v-v": "v", "w-w": "w"}
    assert x.degeneracies[(0, 0)] == {"v": "v-v", "w": "w-w"}


def test_builder_names_the_first_colliding_id_in_level_order():
    # the ids are x, y, x, y: x is the first to repeat, whatever a set's order
    keys = [["x1", "y1", "x2", "y2"]]
    with pytest.raises(ValueError, match="^two simplices of level 0 have the id 'x'$"):
        complex_from_keys(0, keys, lambda n, key: key[0], None, None)


def test_colliding_pushout_and_coproduct_ids_are_refused():
    message = "^two simplices of level 0 have the id {}$"
    # the class {b:x, c:y} and the simplex x+c:y of B are both b:x+c:y
    a = _discrete("p")
    glue_b = SimplicialMap(a, _discrete("x+c:y", "x"), [{"p": "x"}])
    glue_c = SimplicialMap(a, _discrete("y"), [{"p": "y"}])
    with pytest.raises(ValueError, match=message.format(r"'b:x\+c:y'")):
        pushout(glue_b, glue_c)
    with pytest.raises(ValueError, match=message.format("'t:v'")):
        disjoint_union(_discrete("v"), _discrete("v"), tags=("t", "t"))


def test_colliding_y_u_copy_ids_are_refused():
    from hpk.presheaves import y_u
    from hpk.sites import FiniteSite

    # a one-object site with an idempotent a:b beside the identity a: the
    # simplex b:c in the copy at a and c in the copy at a:b are both a:b:c
    comp = {(f, g): "a" if f == g == "a" else "a:b" for f in ("a", "a:b") for g in ("a", "a:b")}
    site = FiniteSite(["U"], {"a": ("U", "U"), "a:b": ("U", "U")}, comp, {"U": "a"}, {"U": []})
    with pytest.raises(ValueError, match="^two simplices of level 0 have the id 'a:b:c'$"):
        y_u(_discrete("b:c", "c"), "U", site)
    assert y_u(_discrete("c"), "U", site).values["U"].levels == (("a:b:c", "a:c"),)


def test_json_round_trip():
    s1 = standard_complex("sphere", 1, depth=2)
    data = s1.to_json()
    assert set(data) == {"depth", "levels", "faces", "degeneracies"}
    assert all("," in key for key in data["faces"])
    kind, back = jsonio.load_object_unchecked(data)
    assert kind == "sset"
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


# -- the whole-table identity checks against the per-simplex ones --------------


def reference_identities(sset):
    """The simplicial identities checked one simplex at a time, through ``face``."""
    problems = []
    d, s = sset.face, sset.degeneracy
    for n in range(2, sset.depth + 1):
        for j in range(n + 1):
            for i in range(j):
                for x in sset.levels[n]:
                    if d(n - 1, i, d(n, j, x)) != d(n - 1, j - 1, d(n, i, x)):
                        problems.append(f"d_{i} d_{j} != d_{j - 1} d_{i} at level {n} on {x}")
    for n in range(0, sset.depth):
        for j in range(n + 1):
            for x in sset.levels[n]:
                y = s(n, j, x)
                if d(n + 1, j, y) != x:
                    problems.append(f"d_{j} s_{j} != id at level {n} on {x}")
                if d(n + 1, j + 1, y) != x:
                    problems.append(f"d_{j + 1} s_{j} != id at level {n} on {x}")
    for n in range(1, sset.depth):
        for j in range(n + 1):
            for i in range(n + 2):
                for x in sset.levels[n]:
                    y = s(n, j, x)
                    if i < j:
                        if d(n + 1, i, y) != s(n - 1, j - 1, d(n, i, x)):
                            problems.append(
                                f"d_{i} s_{j} != s_{j - 1} d_{i} at level {n} on {x}"
                            )
                    elif i > j + 1:
                        if d(n + 1, i, y) != s(n - 1, j, d(n, i - 1, x)):
                            problems.append(
                                f"d_{i} s_{j} != s_{j} d_{i - 1} at level {n} on {x}"
                            )
    for n in range(0, sset.depth - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                for x in sset.levels[n]:
                    if s(n + 1, i, s(n, j, x)) != s(n + 1, j + 1, s(n, i, x)):
                        problems.append(f"s_{i} s_{j} != s_{j + 1} s_{i} at level {n} on {x}")
    return problems


def reference_map_problems(smap):
    """``SimplicialMap.validate`` one simplex at a time, through ``face``."""
    problems = []
    source, target = smap.source, smap.target
    for n in range(source.depth + 1):
        mapping = smap.level_maps[n]
        if set(mapping) != set(source.levels[n]):
            return [f"level {n} map not total"]
        if not set(mapping.values()) <= set(target.levels[n]):
            return [f"level {n} map escapes target"]
    for n in range(1, source.depth + 1):
        for i in range(n + 1):
            for x in source.levels[n]:
                left = smap.level_maps[n - 1][source.face(n, i, x)]
                right = target.face(n, i, smap.level_maps[n][x])
                if left != right:
                    problems.append(f"does not commute with d_{i} at level {n} on {x}")
    for n in range(0, source.depth):
        for i in range(n + 1):
            for x in source.levels[n]:
                left = smap.level_maps[n + 1][source.degeneracy(n, i, x)]
                right = target.degeneracy(n, i, smap.level_maps[n][x])
                if left != right:
                    problems.append(f"does not commute with s_{i} at level {n} on {x}")
    return problems


def identity_fixtures():
    from hpk.abelian import AbelianHom, ChainFixture, FiniteAbelianGroup
    from hpk.groupoids import FiniteGroupoid, SimplicialGroupoid, dold_kan
    from hpk.groups import GroupTable
    from hpk.loop import wbar
    from hpk.two_groupoids import TwoGroupoid, nerve

    z4, z2 = FiniteAbelianGroup([4]), FiniteAbelianGroup([2])
    chain = ChainFixture([z2, z4], [AbelianHom(z4, z2, [(1,)])])
    z3 = SimplicialGroupoid.constant(FiniteGroupoid.from_group(GroupTable.cyclic(3)), 3)
    return {
        "Delta2": lambda: standard_complex("Delta", 2, depth=3),
        "horn21": lambda: standard_complex("horn", 2, k=1, depth=3),
        "sphere2": lambda: standard_complex("sphere", 2, depth=3),
        "nerve pi2 Z/2": lambda: nerve(TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(2)), 3),
        "nerve chaotic Z/2": lambda: nerve(
            TwoGroupoid.from_groupoid(FiniteGroupoid.chaotic(["x", "y"], GroupTable.cyclic(2))), 3
        ),
        "wbar Z/3": lambda: wbar(z3, 3).sset,
        "wbar dold_kan": lambda: wbar(dold_kan(chain, 2), 3).sset,
    }


IDENTITY_FIXTURES = identity_fixtures()


def other(level, value):
    """The simplex after ``value`` in ``level``, cyclically; None on a one-simplex level."""
    k = level.index(value)
    swap = level[(k + 1) % len(level)]
    return None if swap == value else swap


def corrupted(table, level, target_level):
    """Copies of ``table`` with the first, the middle or the last entry of
    ``level`` pointed at another simplex of ``target_level``, and one copy
    with all three moved, so that problems on several simplices are ordered."""
    picks = sorted({0, len(level) // 2, len(level) - 1}) if level else []
    moved = {}
    for k in picks:
        x = level[k]
        swap = other(target_level, table[x])
        if swap is not None:
            moved[x] = swap
            yield {**table, x: swap}
    if len(moved) > 1:
        yield {**table, **moved}


def identity_cases(sset):
    """("face" or "degeneracy", complex with one such entry corrupted), tables kept total."""
    for (n, i), table in sorted(sset.faces.items()):
        for broken in corrupted(table, sset.levels[n], sset.levels[n - 1]):
            faces = {**sset.faces, (n, i): broken}
            yield "face", TruncatedSimplicialSet(sset.depth, sset.levels, faces, sset.degeneracies)
    for (n, i), table in sorted(sset.degeneracies.items()):
        for broken in corrupted(table, sset.levels[n], sset.levels[n + 1]):
            degens = {**sset.degeneracies, (n, i): broken}
            yield "degeneracy", TruncatedSimplicialSet(sset.depth, sset.levels, sset.faces, degens)


# a corrupted entry can still satisfy every identity (a top-level face moved
# to a simplex with the same faces), so each case must agree with the
# reference and each kind of corruption must be caught somewhere
@pytest.mark.parametrize("name", sorted(IDENTITY_FIXTURES))
def test_identity_checks_match_the_per_simplex_reference(name):
    sset = IDENTITY_FIXTURES[name]()
    assert sset.validate() == reference_identities(sset) == []
    caught = {"face": 0, "degeneracy": 0}
    for kind, broken in identity_cases(sset):
        problems = broken.validate()
        assert problems == reference_identities(broken), (name, kind)
        caught[kind] += bool(problems)
    assert all(caught.values()), (name, caught)


@pytest.mark.parametrize("name", sorted(IDENTITY_FIXTURES))
def test_map_checks_match_the_per_simplex_reference(name):
    sset = IDENTITY_FIXTURES[name]()
    ident = SimplicialMap.identity(sset)
    assert ident.validate() == reference_map_problems(ident) == []
    caught = 0
    for n, level in enumerate(sset.levels):
        for broken in corrupted(ident.level_maps[n], level, level):
            maps = list(ident.level_maps)
            maps[n] = broken
            smap = SimplicialMap(sset, sset, maps)
            problems = smap.validate()
            assert problems == reference_map_problems(smap), (name, n)
            caught += bool(problems)
    assert caught, name
