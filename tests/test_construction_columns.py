"""The whole-column constructions against the per-key code they replace.

``sset.complex_from_keys`` takes one callback per face or degeneracy table,
which returns the whole column of keys of a level.  The references below are
the builder it replaces, which called ``face(n, i, key)`` once per simplex,
with the per-key callbacks of its clients; W-bar and W as strings and tuples
rewritten one at a time; and the nerve whose level 3 keeps the compatible
quadruples of triangles that satisfy the tetrahedron cocycle (the new nerve
builds the d_1 face of each compatible triple at 0, 2, 3 instead).  Every
construction must give the same ids and the same ``jsonio.dumps`` bytes.
"""

from itertools import combinations_with_replacement

import pytest

from hpk import jsonio
from hpk.groupoids import (
    FiniteGroupoid,
    SimplicialGroupoid,
    disjoint_union_sgpd,
    dold_kan,
    hom_complex,
)
from hpk.groups import GroupTable
from hpk.loop import w_total, wbar
from hpk.presheaves import copy_id, y_u
from hpk.sites import FiniteSite
from hpk.sset import (
    SimplicialMap,
    TruncatedSimplicialSet,
    _UnionFind,
    compatible_tuples,
    complex_from_keys,
    coproduct,
    pair_id,
    pullback,
    pushout,
    standard_complex,
)
from hpk.two_groupoids import (
    TwoFunctor,
    TwoGroupoid,
    _triangles,
    nerve,
    nerve_of_functor,
    triangle_name,
)
from test_reads import _workloads


def dumps(x):
    return jsonio.dumps(x.to_json())


# -- references: the per-key builder and its clients ---------------------------------


def per_key_builder(depth, keys, name, face, degeneracy):
    ids = []
    for n, level in enumerate(keys):
        written = {key: name(n, key) for key in level}
        if len(set(written.values())) < len(written):
            seen = set()
            for ident in written.values():
                if ident in seen:
                    raise ValueError(f"two simplices of level {n} have the id {ident!r}")
                seen.add(ident)
        ids.append(written)
    faces = {
        (n, i): {ident: ids[n - 1][face(n, i, key)] for key, ident in ids[n].items()}
        for n in range(1, depth + 1)
        for i in range(n + 1)
    }
    degeneracies = {
        (n, i): {ident: ids[n + 1][degeneracy(n, i, key)] for key, ident in ids[n].items()}
        for n in range(depth)
        for i in range(n + 1)
    }
    levels = [list(level.values()) for level in ids]
    return TruncatedSimplicialSet(depth, levels, faces, degeneracies), ids


def reference_standard(kind, n=0, k=None, depth=None):
    if kind == "point" or (kind == "boundary" and n == 0):
        points = ["*"] if kind == "point" else []
        depth = 0 if depth is None else depth
        return per_key_builder(
            depth, [points] * (depth + 1), lambda m, x: x, lambda m, i, x: x, lambda m, i, x: x
        )[0]
    full = set(range(n + 1))
    keep = {
        "Delta": lambda t: True,
        "boundary": lambda t: set(t) != full,
        "horn": lambda t: not (full - set(t) <= {k}),
        "sphere": lambda t: set(t) == full,
    }[kind]
    extra = [()] if kind == "sphere" else []
    keys = [
        [t for t in combinations_with_replacement(range(n + 1), m + 1) if keep(t)] + extra
        for m in range(depth + 1)
    ]

    def collapsed(op):
        def image(m, i, t):
            t = op(m, i, t)
            return t if kind != "sphere" or set(t) == full else ()
        return image

    return per_key_builder(
        depth,
        keys,
        lambda m, t: ".".join(map(str, t)) if t else "*",
        collapsed(lambda m, i, t: t[:i] + t[i + 1 :]),
        collapsed(lambda m, i, t: t[: i + 1] + t[i:]),
    )[0]


def reference_coproduct(depth, parts, name):
    return per_key_builder(
        depth,
        [[(t, s) for t, part in parts.items() for s in part.levels[n]] for n in range(depth + 1)],
        lambda n, key: name(*key),
        lambda n, i, key: (key[0], parts[key[0]].face(n, i, key[1])),
        lambda n, i, key: (key[0], parts[key[0]].degeneracy(n, i, key[1])),
    )


def reference_pullback(f, g):
    b, c = f.source, g.source
    p, ids = per_key_builder(
        b.depth,
        [
            [(xb, xc) for xb in b.levels[n] for xc in c.levels[n] if f(n, xb) == g(n, xc)]
            for n in range(b.depth + 1)
        ],
        lambda n, pair: pair_id(pair),
        lambda n, i, pair: (b.face(n, i, pair[0]), c.face(n, i, pair[1])),
        lambda n, i, pair: (b.degeneracy(n, i, pair[0]), c.degeneracy(n, i, pair[1])),
    )
    onto = [
        SimplicialMap(p, end, [{ident: pair[k] for pair, ident in level.items()} for level in ids])
        for k, end in enumerate((b, c))
    ]
    return p, *onto


def reference_pushout(f, g):
    a, b, c = f.source, f.target, g.target
    homes = {"b": b, "c": c}
    keys, class_of = [], []
    for n in range(a.depth + 1):
        uf = _UnionFind()
        for tag, home in homes.items():
            for x in home.levels[n]:
                uf.add((tag, x))
        for x in a.levels[n]:
            uf.union(("b", f(n, x)), ("c", g(n, x)))
        classes = uf.classes()
        keys.append([classes[root] for root in sorted(classes)])
        class_of.append({member: members for members in keys[n] for member in members})

    def induced(kind, step):
        def image(n, i, members):
            images = {
                class_of[n + step][tag, getattr(homes[tag], kind)(n, i, x)] for tag, x in members
            }
            if len(images) != 1:
                raise AssertionError(f"pushout {kind} map not well defined")
            return images.pop()
        return image

    d, ids = per_key_builder(
        a.depth,
        keys,
        lambda n, members: "+".join(f"{tag}:{x}" for tag, x in members),
        induced("face", -1),
        induced("degeneracy", 1),
    )
    into = [
        SimplicialMap(
            home,
            d,
            [{x: ids[n][class_of[n][tag, x]] for x in xs} for n, xs in enumerate(home.levels)],
        )
        for tag, home in homes.items()
    ]
    return d, *into


def reference_hom_complex(sgpd, x, y):
    return per_key_builder(
        sgpd.depth,
        [list(level.arrows_between(x, y)) for level in sgpd.levels],
        lambda n, a: a,
        lambda n, i, a: sgpd.face(n, i)(a),
        lambda n, i, a: sgpd.degeneracy(n, i)(a),
    )[0]


# -- references: W-bar, W and the nerve, one simplex at a time ------------------------


def reference_wbar(sgpd, depth):
    """(complex, ids) of W-bar, each face and degeneracy of a string computed
    on its own, and each id written through ``arrow_id``."""
    gpds = sgpd.levels
    strings_per_level = [[(o,) for o in sgpd.objects]]
    for n in range(1, depth + 1):
        strings = []
        if n == 1:
            strings = [(g0,) for g0 in sorted(gpds[0].arrows)]
        else:
            for lower in strings_per_level[n - 1]:
                top_src_obj = gpds[n - 2].tgt(lower[0])
                for g in sorted(gpds[n - 1].arrows):
                    if gpds[n - 1].src(g) == top_src_obj:
                        strings.append((g,) + lower)
        strings_per_level.append(strings)

    def string_id(arrows):
        parts = [gpds[j].arrow_id(a) for j, a in enumerate(reversed(arrows))]
        return "(" + "|".join(reversed(parts)) + ")"

    def face_string(n, i, s):
        if n == 1:
            g0 = s[0]
            return (gpds[0].src(g0),) if i == 0 else (gpds[0].tgt(g0),)
        if i == 0:
            return s[1:]
        if i == n:
            return tuple(sgpd.face(n - 1 - j, n - 1 - j)(s[j]) for j in range(n - 1))
        out = [sgpd.face(n - 1 - j, i - 1 - j)(s[j]) for j in range(i - 1)]
        merged_top = sgpd.face(n - i, 0)(s[i - 1])
        out.append(gpds[n - 1 - i].compose(merged_top, s[i]))
        out.extend(s[i + 1 :])
        return tuple(out)

    def degeneracy_string(n, i, s):
        if n == 0:
            return (gpds[0].identity(s[0]),)
        out = [sgpd.degeneracy(n - 1 - j, i - 1 - j)(s[j]) for j in range(i)]
        if i < n:
            anchor = gpds[n - 1 - i].tgt(s[i])
        else:
            anchor = gpds[0].src(s[n - 1])
        out.append(gpds[n - i].identity(anchor))
        out.extend(s[i:])
        return tuple(out)

    return per_key_builder(
        depth,
        strings_per_level,
        lambda n, s: string_id(s) if n else s[0],
        face_string,
        degeneracy_string,
    )


def reference_w_total(sgpd, depth):
    """(complex, ids) of W, each tuple rewritten on its own."""
    gpds = sgpd.levels
    tuples_per_level = [[(g,) for g in sorted(gpds[0].arrows)]]
    for n in range(1, depth + 1):
        tuples_per_level.append(
            [(g,) + lower for g in sorted(gpds[n].arrows) for lower in tuples_per_level[n - 1]]
        )

    def face_tuple(n, i, t):
        if i == n:
            return tuple(sgpd.face(n - j, n - j)(t[j]) for j in range(n))
        out = [sgpd.face(n - j, i - j)(t[j]) for j in range(i)]
        out.append(gpds[n - i - 1].compose(sgpd.face(n - i, 0)(t[i]), t[i + 1]))
        out.extend(t[i + 2 :])
        return tuple(out)

    def degeneracy_tuple(n, i, t):
        out = [sgpd.degeneracy(n - j, i - j)(t[j]) for j in range(i + 1)]
        out.append(gpds[n - i].identity(sgpd.objects[0]))
        out.extend(t[i + 1 :])
        return tuple(out)

    return per_key_builder(
        depth, tuples_per_level, lambda n, t: "<" + "|".join(t) + ">", face_tuple, degeneracy_tuple
    )


def tuple_name(parts):
    return "[" + "|".join(parts) + "]"


def reference_nerve(k, depth):
    """The nerve with level 3 filtered by the tetrahedron cocycle from every
    compatible quadruple, and every table written one simplex at a time."""
    levels, faces, degeneracies = [list(k.objects)], {}, {}
    level1 = sorted(k.cells1)
    if depth >= 1:
        levels.append(level1)
        faces[(1, 0)] = {f: k.tgt1(f) for f in level1}
        faces[(1, 1)] = {f: k.src1(f) for f in level1}
        degeneracies[(0, 0)] = {x: k.id1[x] for x in levels[0]}
    triangles = {}
    if depth >= 2:
        triangles = {triangle_name(*t): t for t in _triangles(k)}
        level2 = sorted(triangles)
        levels.append(level2)
        for i, part in enumerate((1, 2, 0)):
            faces[(2, i)] = {t: triangles[t][part] for t in level2}
        degeneracies[(1, 0)] = {f: triangle_name(k.id1[k.src1(f)], f, f, k.id2[f]) for f in level1}
        degeneracies[(1, 1)] = {f: triangle_name(f, k.id1[k.tgt1(f)], f, k.id2[f]) for f in level1}

    def cocycle_holds(t0, t1, t2, t3):
        f01, a012 = triangles[t3][0], triangles[t3][3]
        f23, a123 = triangles[t0][1], triangles[t0][3]
        a013, a023 = triangles[t2][3], triangles[t1][3]
        left = k.vcomp[(a013, k.hcomp[(a123, k.id2[f01])])]
        right = k.vcomp[(a023, k.hcomp[(k.id2[f23], a012)])]
        return left == right

    for n in range(3, depth + 1):
        prev = levels[n - 1]
        compatible = compatible_tuples(prev, [faces[(n - 1, i)] for i in range(n)], range(n + 1))
        if n == 3:
            compatible = [tup for tup in compatible if cocycle_holds(*tup)]
        names = {tuple_name(tup): tup for tup in compatible}
        level_n = sorted(names)
        levels.append(level_n)
        for i in range(n + 1):
            faces[(n, i)] = {t: names[t][i] for t in level_n}
        for i in range(n):
            table = {}
            for t in prev:
                parts = []
                for j in range(n + 1):
                    if j < i:
                        parts.append(degeneracies[(n - 2, i - 1)][faces[(n - 1, j)][t]])
                    elif j in (i, i + 1):
                        parts.append(t)
                    else:
                        parts.append(degeneracies[(n - 2, i)][faces[(n - 1, j - 1)][t]])
                table[t] = tuple_name(parts)
            degeneracies[(n - 1, i)] = table
    return TruncatedSimplicialSet(depth, levels, faces, degeneracies)


# -- inputs ---------------------------------------------------------------------------

V4 = GroupTable.direct_product(GroupTable.cyclic(2), GroupTable.cyclic(2, prefix="h"))
GROUPS = {
    "1": GroupTable.trivial(),
    "Z2": GroupTable.cyclic(2),
    "Z3": GroupTable.cyclic(3),
    "Z4": GroupTable.cyclic(4),
    "V4": V4,
}


def chaotic(key, k, tag=""):
    return FiniteGroupoid.chaotic([f"{tag}o{i}" for i in range(k)], GROUPS[key])


CHAOTIC = [(key, k) for key in GROUPS for k in (1, 2, 3)]
# the deepest level of each stays within about ten thousand simplices
CHAOTIC_DEPTH = {1: 3, 2: 3, 3: 2}
NERVE_DEPTH = {1: 4, 2: 4, 3: 3}
UNIONS = [(("Z2", 1), ("1", 2)), (("1", 2), ("V4", 1)), (("Z3", 2), ("Z2", 1))]


def union(first, second, depth):
    a = SimplicialGroupoid.constant(chaotic(*first), depth)
    b = SimplicialGroupoid.constant(chaotic(*second), depth)
    return disjoint_union_sgpd(a, b)


WORKLOADS = _workloads()
H = WORKLOADS.import_hpk()


def build_validate_chain(index, seed):
    """A chain of the ``index``-th Dold-Kan class of the benchmark's
    ``build_validate`` mix, drawn as that mix draws it in round ``seed``."""
    c0, c1, _ = WORKLOADS.DOLD_KAN_CLASSES[index]
    return WORKLOADS._random_chain(H, WORKLOADS._rng("build_validate", seed, index), [c0, c1])


def assert_wbar_matches(sgpd, depth):
    wb = wbar(sgpd, depth)
    expected, ids = reference_wbar(sgpd, depth)
    assert wb.ids == ids
    assert dumps(wb.sset) == dumps(expected)


def assert_w_total_matches(sgpd, depth):
    total, q, wb = w_total(sgpd, depth)
    expected, ids = reference_w_total(sgpd, depth)
    assert dumps(total) == dumps(expected)
    reference_q = [
        {ident: wb.ids[n][t[1:]] if n else sgpd.objects[0] for t, ident in level.items()}
        for n, level in enumerate(ids)
    ]
    assert q.level_maps == reference_q


# -- W-bar and W ------------------------------------------------------------------------


@pytest.mark.parametrize("key,k", CHAOTIC)
def test_wbar_of_chaotic_groupoids(key, k):
    for depth in range(CHAOTIC_DEPTH[k] + 1):
        assert_wbar_matches(SimplicialGroupoid.constant(chaotic(key, k), max(depth - 1, 0)), depth)


@pytest.mark.parametrize("first,second", UNIONS)
def test_wbar_of_unions(first, second):
    for depth in range(4):
        assert_wbar_matches(union(first, second, max(depth - 1, 0)), depth)


@pytest.mark.parametrize("index", range(len(WORKLOADS.DOLD_KAN_CLASSES)))
def test_wbar_and_w_total_of_dold_kan_chains(index):
    depth = WORKLOADS.DOLD_KAN_CLASSES[index][2]
    for seed in range(3):
        sgpd = dold_kan(build_validate_chain(index, seed), depth)
        assert_wbar_matches(sgpd, depth)
        assert_w_total_matches(sgpd, min(depth, 2))


@pytest.mark.parametrize("key", GROUPS)
def test_w_total_of_groups(key):
    gpd = FiniteGroupoid.from_group(GROUPS[key])
    for depth in range(4 if key in ("1", "Z2", "Z3") else 3):
        assert_w_total_matches(SimplicialGroupoid.constant(gpd, depth), depth)


def test_wbar_of_a_discrete_groupoid():
    gpd = FiniteGroupoid(["x", "y"], {"e": ("x", "x"), "f": ("y", "y")},
                         {("e", "e"): "e", ("f", "f"): "f"}, {"x": "e", "y": "f"},
                         {"e": "e", "f": "f"})
    for depth in range(4):
        assert_wbar_matches(SimplicialGroupoid.constant(gpd, max(depth - 1, 0)), depth)


# -- the nerve ----------------------------------------------------------------------------


@pytest.mark.parametrize("key,k", CHAOTIC)
def test_nerve_of_chaotic_groupoids(key, k):
    gpd2 = TwoGroupoid.from_groupoid(chaotic(key, k))
    for depth in range(NERVE_DEPTH[k] + 1):
        assert dumps(nerve(gpd2, depth)) == dumps(reference_nerve(gpd2, depth))


@pytest.mark.parametrize("first,second", UNIONS)
def test_nerve_of_unions(first, second):
    gpd2 = TwoGroupoid.from_groupoid(union(first, second, 0).levels[0])
    for depth in range(4):
        assert dumps(nerve(gpd2, depth)) == dumps(reference_nerve(gpd2, depth))


@pytest.mark.parametrize("order", [2, 3, 4])
def test_nerve_of_pi2_two_groupoids(order):
    gpd2 = TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(order))
    for depth in range(5):
        assert dumps(nerve(gpd2, depth)) == dumps(reference_nerve(gpd2, depth))


def test_nerve_of_a_two_groupoid_with_pi1_and_pi2():
    # two 2-groupoids glued side by side: pi_1 = Z/2 on one, pi_2 = Z/3 on the other
    k = TwoGroupoid.disjoint_union(
        TwoGroupoid.from_groupoid(chaotic("Z2", 2)),
        TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(3)),
    )
    for depth in range(5):
        assert dumps(nerve(k, depth)) == dumps(reference_nerve(k, depth))


def test_nerve_of_functors():
    # the identity, and pi_2 = Z/4 onto pi_2 = Z/2 by reduction mod 2
    z4 = TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(4))
    z2 = TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(2, prefix="h"))
    reduce = TwoFunctor(z4, z2, {"*": "*"}, {"id_*": "id_*"}, {f"g{j}": f"h{j % 2}" for j in range(4)})
    chaotic_v4 = TwoGroupoid.from_groupoid(chaotic("V4", 2))
    for func in (TwoFunctor.identity(chaotic_v4), reduce):
        assert func.validate() == []
        for depth in range(5 if func is reduce else 4):
            source, target = nerve(func.source, depth), nerve(func.target, depth)
            expected = [{x: func.obj_map[x] for x in source.levels[0]}]
            if depth >= 1:
                expected.append({f: func.map1[f] for f in source.levels[1]})
            if depth >= 2:
                images = {
                    triangle_name(f, g, h, a): triangle_name(
                        func.map1[f], func.map1[g], func.map1[h], func.map2[a]
                    )
                    for f, g, h, a in _triangles(func.source)
                }
                expected.append({t: images[t] for t in source.levels[2]})
            for n in range(3, depth + 1):
                expected.append({
                    t: tuple_name([expected[n - 1][source.face(n, i, t)] for i in range(n + 1)])
                    for t in source.levels[n]
                })
            assert nerve_of_functor(func, source, target) == expected


# -- the clients of the builder ---------------------------------------------------------


STANDARD = [
    ("Delta", n, None) for n in range(4)
] + [("boundary", n, None) for n in range(4)] + [
    ("horn", n, k) for n in range(1, 4) for k in range(n + 1)
] + [("sphere", n, None) for n in range(1, 4)] + [("point", 0, None)]


@pytest.mark.parametrize("kind,n,k", STANDARD)
def test_standard_complexes(kind, n, k):
    for extra in range(2):
        depth = (0 if kind == "point" else n) + extra + (kind == "sphere")
        built = standard_complex(kind, n, k=k, depth=depth)
        assert dumps(built) == dumps(reference_standard(kind, n, k=k, depth=depth))


def _inclusions_of_the_horn():
    horn = standard_complex("horn", 2, k=1, depth=2)
    delta = standard_complex("Delta", 2)
    boundary = standard_complex("boundary", 2, depth=2)
    into = [SimplicialMap(horn, y, [{s: s for s in level} for level in horn.levels])
            for y in (delta, boundary)]
    point = standard_complex("point", depth=2)
    crush = [SimplicialMap(y, point, [{s: "*" for s in level} for level in y.levels])
             for y in (horn, delta, boundary)]
    return horn, into, crush


def test_pullbacks_and_pushouts():
    horn, (to_delta, to_boundary), (horn_pt, delta_pt, boundary_pt) = _inclusions_of_the_horn()
    for f, g in ((to_delta, to_delta), (to_delta, to_boundary), (horn_pt, horn_pt)):
        built, expected = pushout(f, g), reference_pushout(f, g)
        assert [dumps(x) for x in built] == [dumps(x) for x in expected]
    for f, g in ((delta_pt, boundary_pt), (delta_pt, delta_pt), (to_delta, to_delta)):
        built, expected = pullback(f, g), reference_pullback(f, g)
        assert [dumps(x) for x in built] == [dumps(x) for x in expected]


def test_coproducts_and_y_u():
    site = FiniteSite.two_object_site()
    for x in (standard_complex("sphere", 1, depth=2), standard_complex("horn", 2, k=0)):
        parts = {"a": x, "b": standard_complex("Delta", 1, depth=x.depth)}
        built, ids = coproduct(x.depth, parts, lambda t, s: f"{t}:{s}")
        expected, expected_ids = reference_coproduct(x.depth, parts, lambda t, s: f"{t}:{s}")
        assert ids == expected_ids
        assert dumps(built) == dumps(expected)
        for u in site.objects:
            presheaf = y_u(x, u, site)
            for v in site.objects:
                copies = {phi: x for phi in site.arrows_between(v, u)}
                value, _ = reference_coproduct(x.depth, copies, copy_id)
                assert dumps(presheaf.values[v]) == dumps(value)


def test_hom_complexes():
    for sgpd in (
        SimplicialGroupoid.constant(chaotic("Z3", 2), 2),
        union(("Z2", 1), ("1", 2), 2),
        dold_kan(build_validate_chain(1, 0), 3),
    ):
        for x in sgpd.objects:
            for y in sgpd.objects:
                built, expected = hom_complex(sgpd, x, y), reference_hom_complex(sgpd, x, y)
                assert dumps(built) == dumps(expected)


# -- the collision message ------------------------------------------------------------------


def _message(build, *args):
    with pytest.raises(ValueError) as caught:
        build(*args)
    return str(caught.value)


def test_the_collision_message_is_unchanged():
    keys = [["x1", "y1", "x2", "y2"], ["e"]]
    for depth, level in ((0, 0), (1, 0)):
        columns = (lambda n, key: key[0], lambda n, i, ks: ["x1"] * len(ks),
                   lambda n, i, ks: ["e"] * len(ks))
        per_key = (lambda n, key: key[0], lambda n, i, key: "x1", lambda n, i, key: "e")
        assert (
            _message(complex_from_keys, depth, keys[: depth + 1], *columns)
            == _message(per_key_builder, depth, keys[: depth + 1], *per_key)
            == f"two simplices of level {level} have the id 'x'"
        )
    # pullback pairs (a&b, c) and (a, b&c) are both (a&b&c)
    discrete = [TruncatedSimplicialSet(0, [names], {}, {}) for names in (("a&b", "a"), ("c", "b&c"))]
    point = TruncatedSimplicialSet(0, [["*"]], {}, {})
    f, g = (SimplicialMap(x, point, [{s: "*" for s in x.levels[0]}]) for x in discrete)
    assert (
        _message(pullback, f, g)
        == _message(reference_pullback, f, g)
        == "two simplices of level 0 have the id '(a&b&c)'"
    )
