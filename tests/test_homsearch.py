"""The level-wise search against brute-force references.

Each reference takes the product of every candidate for every variable, with
no pruning and no level structure, and keeps what passes validation.
``level_search`` and its level rules must give the same map sets, each map
once.  Each rule is also checked against a rule it replaced, for the same
ordered maps and the same work units: the loop-groupoid rule against
``unplanned_sgpd_maps``, and the simplicial rule against
``forced_first_simplicial_rule``.
"""

import json
from itertools import product

from hpk import jsonio
from hpk.budgets import Meter
from hpk.groups import GroupTable
from hpk.groupoids import (
    FiniteGroupoid,
    GroupoidHom,
    SimplicialGroupoid,
    SimplicialGroupoidMap,
)
from hpk.homsearch import enumerate_simplicial_maps, level_search, simplicial_rule
from hpk.lifting import LiftingProblem, as_point_map, enumerate_presheaf_sset_maps
from hpk.loop import enumerate_sgpd_maps, loop_groupoid, wbar
from hpk.presheaves import NaturalTransformation, constant_presheaf, y_u
from hpk.sites import FiniteSite
from hpk.sset import SimplicialMap, standard_complex, truncate
from test_golden_outputs import _lift_documents, adjunction_pairs, presheaf_pairs, tail_pair

GROUPOIDS = {
    "trivial": FiniteGroupoid.trivial(),
    "interval": FiniteGroupoid.interval(),
    "Z2": FiniteGroupoid.from_group(GroupTable.cyclic(2)),
    "Z3": FiniteGroupoid.from_group(GroupTable.cyclic(3)),
}

# (complex, depth, groupoid); the unpruned products stay at a few thousand
SSET_CASES = [
    ("Delta", 1, 2, "trivial"),
    ("Delta", 1, 2, "Z2"),
    ("Delta", 1, 1, "interval"),
    ("boundary", 1, 2, "trivial"),
    ("boundary", 1, 2, "interval"),
    ("boundary", 1, 2, "Z2"),
    ("sphere", 1, 2, "trivial"),
    ("sphere", 1, 2, "Z2"),
    ("sphere", 1, 2, "Z3"),
]

# loop groupoids with several generators a level, so face conditions bite
LOOP_CASES = SSET_CASES + [
    ("Delta", 2, 2, "Z2"),
    ("Delta", 2, 2, "Z3"),
    ("boundary", 2, 2, "Z3"),
    ("Delta", 1, 3, "Z3"),
]


def smap_key(smap):
    return json.dumps([sorted(level.items()) for level in smap.level_maps])


def brute_simplicial_maps(source, target):
    cells = [(n, x) for n, level in enumerate(source.levels) for x in level]
    found = []
    for images in product(*(target.levels[n] for n, _ in cells)):
        level_maps = [{} for _ in source.levels]
        for (n, x), y in zip(cells, images):
            level_maps[n][x] = y
        smap = SimplicialMap(source, target, level_maps)
        if smap.validate() == []:
            found.append(smap)
    return found


def test_simplicial_maps_match_brute_force():
    for kind, n, depth, gname in SSET_CASES:
        x = standard_complex(kind, n, depth=depth)
        target = wbar(SimplicialGroupoid.constant(GROUPOIDS[gname], depth), depth).sset
        meter = Meter("maps", 10**6)
        searched = [smap_key(m) for m in enumerate_simplicial_maps(x, target, meter=meter)]
        reference = [smap_key(m) for m in brute_simplicial_maps(x, target)]
        assert len(searched) == len(set(searched)), (kind, gname)
        assert set(searched) == set(reference), (kind, gname)
        assert meter.used > len(searched)


def test_simplicial_maps_between_standard_complexes_match_brute_force():
    shapes = [("point", 0), ("Delta", 0), ("boundary", 1), ("Delta", 1), ("sphere", 1)]
    for (ka, na), (kb, nb) in product(shapes, repeat=2):
        a = standard_complex(ka, na, depth=2)
        b = standard_complex(kb, nb, depth=2)
        searched = [smap_key(m) for m in enumerate_simplicial_maps(a, b)]
        reference = {smap_key(m) for m in brute_simplicial_maps(a, b)}
        assert len(searched) == len(set(searched)) and set(searched) == reference, (ka, kb)


def test_presheaf_maps_match_brute_force():
    site = FiniteSite.two_object_site()
    source = y_u(standard_complex("boundary", 1, depth=1), "U", site)
    target = constant_presheaf(site, "sset", standard_complex("Delta", 1, depth=1))
    cells = [
        (v, n, x)
        for v in site.objects
        for n, level in enumerate(source.values[v].levels)
        for x in level
    ]
    reference = set()
    for images in product(*(target.values[v].levels[n] for v, n, _ in cells)):
        level_maps = {v: [{} for _ in source.values[v].levels] for v in site.objects}
        for (v, n, x), y in zip(cells, images):
            level_maps[v][n][x] = y
        components = {
            v: SimplicialMap(source.values[v], target.values[v], level_maps[v])
            for v in site.objects
        }
        nat = NaturalTransformation(source, target, components)
        if nat.validate() == []:
            reference.add(json.dumps({v: smap_key(c) for v, c in components.items()}))
    searched = [
        json.dumps({v: smap_key(c) for v, c in nat.components.items()})
        for nat in enumerate_presheaf_sset_maps(source, target)
    ]
    assert len(searched) == len(set(searched))
    assert set(searched) == reference
    assert reference


def sgpd_key(sg_map):
    return json.dumps(
        [sorted(sg_map.obj_map.items())]
        + [sorted(hom.arrow_map.items()) for hom in sg_map.level_homs]
    )


def brute_sgpd_maps(loop_sgpd, target):
    """Every object image and every generator image (any arrow of the level)."""
    cells = [
        (n, g) for n, level in enumerate(loop_sgpd.levels) for g in sorted(level.generators)
    ]
    found = []
    objects = loop_sgpd.objects
    for obj_images in product(sorted(target.objects), repeat=len(objects)):
        obj_map = dict(zip(objects, obj_images))
        arrow_lists = [sorted(target.levels[n].arrows) for n, _ in cells]
        for images in product(*arrow_lists):
            arrow_maps = [{} for _ in loop_sgpd.levels]
            for (n, g), a in zip(cells, images):
                arrow_maps[n][g] = a
            level_homs = [
                GroupoidHom(loop_sgpd.levels[n], target.levels[n], obj_map, arrow_maps[n])
                for n in range(loop_sgpd.depth + 1)
            ]
            sg_map = SimplicialGroupoidMap(loop_sgpd, target, obj_map, level_homs)
            if sg_map.validate() == []:
                found.append(sg_map)
    return found


def test_loop_groupoid_maps_match_brute_force():
    for kind, n, depth, gname in LOOP_CASES:
        x = standard_complex(kind, n, depth=depth)
        target = SimplicialGroupoid.constant(GROUPOIDS[gname], depth - 1)
        gx = loop_groupoid(x, depth - 1)
        searched = [sgpd_key(m) for m in enumerate_sgpd_maps(gx, x, target)]
        reference = {sgpd_key(m) for m in brute_sgpd_maps(gx, target)}
        assert len(searched) == len(set(searched)), (kind, gname)
        assert set(searched) == reference, (kind, gname)


def unplanned_sgpd_maps(loop_sgpd, sset, target, meter=None):
    """The loop-groupoid level rule before planning, as a reference.

    At every node it recomputes the degeneracy images and face words of each
    generator, scans ``arrows_between`` and filters each candidate by applying
    every target face map.
    """
    depth = loop_sgpd.depth
    gen_lists = [sorted(loop_sgpd.levels[n].generators) for n in range(depth + 1)]

    def forced_images(n, below):
        """Images forced by degeneracies from level n-1; None on conflict."""
        forced = {}
        if n == 0:
            return forced
        src_gpd = loop_sgpd.levels[n - 1]
        for i in range(n):
            op = loop_sgpd.degeneracy(n - 1, i)
            a_op = target.degeneracy(n - 1, i)
            for x in gen_lists[n - 1]:
                image_arrow = op(src_gpd.gen(x))
                forced_value = a_op(below[x])
                if image_arrow.letters:
                    (gen, exp), = image_arrow.letters
                    if exp != 1:
                        raise AssertionError("degeneracy image should be a generator")
                    if forced.setdefault(gen, forced_value) != forced_value:
                        return None
                else:
                    if not target.levels[n].is_identity(forced_value):
                        return None
        return forced

    def word_image(n, word, obj_map, below):
        gpd = target.levels[n]
        acc = gpd.identity(obj_map[word.src])
        for g, e in word.letters:
            img = below[g]
            if e == -1:
                img = gpd.inv(img)
            acc = gpd.compose(img, acc)
        return acc

    def rule(level, assigned):
        if level == 0:
            return {}, [(o, sorted(target.objects)) for o in loop_sgpd.objects], None
        n = level - 1
        obj_map, below = assigned[0], assigned[n]
        forced = forced_images(n, below)
        if forced is None:
            return None
        faces = [(loop_sgpd.face(n, i), target.face(n, i)) for i in range(n + 1)] if n else []
        open_vars = []
        for x in gen_lists[n]:
            gen = loop_sgpd.levels[n].gen(x)
            want = [(a_op, word_image(n - 1, op(gen), obj_map, below)) for op, a_op in faces]

            def faces_ok(y):
                return all(a_op(y) == w for a_op, w in want)

            if x in forced:
                if not faces_ok(forced[x]):
                    return None
                continue
            s, t = loop_sgpd.levels[n].generators[x]
            arrows = target.levels[n].arrows_between(obj_map[s], obj_map[t])
            candidates = [y for y in arrows if faces_ok(y)]
            if not candidates:
                return None
            open_vars.append((x, candidates))
        return forced, open_vars, None

    return [
        SimplicialGroupoidMap(
            loop_sgpd,
            target,
            assigned[0],
            [
                GroupoidHom(
                    loop_sgpd.levels[m], target.levels[m], assigned[0], assigned[m + 1]
                )
                for m in range(depth + 1)
            ],
        )
        for assigned in level_search(depth + 1, rule, meter)
    ]


def sgpd_items(sg_map):
    return [list(sg_map.obj_map.items())] + [
        list(hom.arrow_map.items()) for hom in sg_map.level_homs
    ]


def _loop_differential_cases():
    for name, x, a, _, gx in list(adjunction_pairs()) + [tail_pair()]:
        yield name, gx, x, a
    for kind, n, depth, gname in LOOP_CASES:
        x = standard_complex(kind, n, depth=depth)
        target = SimplicialGroupoid.constant(GROUPOIDS[gname], depth - 1)
        yield f"{kind}{n}/depth {depth}/{gname}", loop_groupoid(x, depth - 1), x, target


def test_loop_groupoid_maps_match_unplanned_rule():
    """Same maps in the same order, each level map in the same key order,
    and the same work units as the rule without a level plan; and every
    planned map is a simplicial groupoid map, although the planned rule
    leaves the faces of degeneracy-forced generators to the target's
    simplicial identities."""
    cases = list(_loop_differential_cases())
    assert len(cases) == 24 + 1 + len(LOOP_CASES)
    for name, gx, x, target in cases:
        meter, ref_meter = Meter("maps", 10**7), Meter("maps", 10**7)
        planned = enumerate_sgpd_maps(gx, x, target, meter=meter)
        reference = unplanned_sgpd_maps(gx, x, target, meter=ref_meter)
        assert [sgpd_items(m) for m in planned] == [sgpd_items(m) for m in reference], name
        assert meter.used == ref_meter.used, name
        assert all(m.validate() == [] for m in planned), name


def forced_first_level_plan(v, src, tgt, n, pins):
    """Level n of section v for ``forced_first_simplicial_rule``."""
    degenerate, nondegenerate = [], []
    for s in src.levels[n]:
        m, base, word = src.decompose(n, s)
        pin = pins.get((v, n, s))
        if m != n:
            degenerate.append((s, (v, s), m, (v, base), word, pin))
        else:
            faces = [(v, src.face(n, i, s)) for i in range(n + 1)] if n else []
            nondegenerate.append((s, (v, s), faces, pin))
    buckets = {}
    if nondegenerate:
        nondeg = set(tgt.nondegenerate(n))
        for y in sorted(tgt.levels[n], key=lambda y: y not in nondeg):
            key = tuple(tgt.face(n, i, y) for i in range(n + 1)) if n else ()
            buckets.setdefault(key, []).append(y)
    return degenerate, nondegenerate, buckets


def forced_first_simplicial_rule(sections, squares=(), pins=None, constraint=None):
    """The simplicial level rule before fail-first ordering, as a reference.

    Section by section, it computes every degenerate simplex's image with
    ``apply_degeneracy_word`` and checks its pin and ``constraint`` before it
    looks up the candidates of the section's nondegenerate simplices.
    """
    pins = pins or {}
    plans = {}

    def rule(n, assigned):
        forced = {}
        open_vars = []
        for v, (src, tgt) in sections.items():
            if (v, n) not in plans:
                plans[(v, n)] = forced_first_level_plan(v, src, tgt, n, pins)
            degenerate, nondegenerate, buckets = plans[(v, n)]
            for s, var, m, base, word, pin in degenerate:
                image = tgt.apply_degeneracy_word(m, assigned[m][base], word)
                if pin is not None and pin != image:
                    return None
                if constraint is not None and not constraint(v, n, s, image):
                    return None
                forced[var] = image
            below = assigned[n - 1] if n else None
            for s, var, faces, pin in nondegenerate:
                candidates = buckets.get(tuple(below[f] for f in faces), [])
                if pin is not None:
                    candidates = [y for y in candidates if y == pin]
                if constraint is not None:
                    candidates = [y for y in candidates if constraint(v, n, s, y)]
                if not candidates:
                    return None
                open_vars.append((var, candidates))

        def natural(level):
            return all(
                level[(v, res_src(n, s))] == res_tgt(n, level[(u, s)])
                for v, u, res_src, res_tgt in squares
                for s in sections[u][0].levels[n]
            )

        return forced, open_vars, natural if squares else None

    return rule


def _presheaf_rule_args(source, target):
    """The sections and naturality squares ``enumerate_presheaf_sset_maps`` searches."""
    site = source.site
    identities = set(site.identities.values())
    sections = {v: (source.values[v], target.values[v]) for v in site.objects}
    squares = [
        (v, u, source.restrictions[a], target.restrictions[a])
        for a, (v, u) in site.arrows.items()
        if a not in identities
    ]
    return sections, squares


def _lift_rule_args(problem):
    """The sections, squares, pins and fiber constraint ``solve_lifting`` searches."""
    sections, squares = _presheaf_rule_args(problem.i.target, problem.p.source)
    a = problem.i.source
    pins = {
        (v, n, problem.i.components[v](n, s)): problem.top.components[v](n, s)
        for v in a.site.objects
        for n in range(a.values[v].depth + 1)
        for s in a.values[v].levels[n]
    }

    def constraint(v, n, s, image):
        return problem.p.components[v](n, image) == problem.bottom.components[v](n, s)

    return sections, squares, pins, constraint


def _simplicial_differential_cases():
    for name, x, _, wb, _ in list(adjunction_pairs()) + [tail_pair()]:
        yield name, {None: (truncate(x, 3), wb.sset)}, (), None, None
    for k, (source, target) in enumerate(presheaf_pairs()):
        yield f"presheaf pair {k}", *_presheaf_rule_args(source, target), None, None
    for k, doc in enumerate(_lift_documents()):
        legs = [as_point_map(jsonio.smap_from_json(doc[key])) for key in ("i", "top", "p", "bottom")]
        yield f"criterion-8 lift {k}", *_lift_rule_args(LiftingProblem(*legs))


def test_simplicial_rule_matches_forced_first_rule():
    """Same maps in the same order, each level dict in the same key order,
    and the same work units as the rule that computes forced images first."""
    cases = list(_simplicial_differential_cases())
    assert len(cases) == 24 + 1 + 4 + 3
    empty = []
    for name, sections, squares, pins, constraint in cases:
        depth = next(iter(sections.values()))[0].depth
        runs = []
        for make_rule in (simplicial_rule, forced_first_simplicial_rule):
            meter = Meter("maps", 10**7)
            rule = make_rule(sections, squares, pins, constraint)
            found = [
                [list(level.items()) for level in assigned]
                for assigned in level_search(depth, rule, meter)
            ]
            runs.append((found, meter.used))
        assert runs[0] == runs[1], name
        if not runs[0][0]:
            empty.append(name)
    # only the lift of the horn into the boundary of Delta^2 has no diagonal
    assert empty == ["criterion-8 lift 2"]


def test_level_search_ticks_once_per_node_and_per_combination():
    def rule(n, assigned):
        if n == 0:
            return {"z": 0}, [("a", [0, 1]), ("b", [0, 1])], None
        return {}, [("c", [0, 1])], lambda level: level["c"] == assigned[0]["a"]

    meter = Meter("toy", 100)
    found = list(level_search(1, rule, meter))
    assert found == [
        [{"z": 0, "a": a, "b": b}, {"c": a}] for a in (0, 1) for b in (0, 1)
    ]
    # 1 root node, 4 level-0 combinations, 4 level-1 nodes, 8 level-1
    # combinations and 4 leaves
    assert meter.used == 21
