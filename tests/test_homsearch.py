"""The level-wise search against brute-force references.

Each reference takes the product of every candidate for every variable, with
no pruning and no level structure, and keeps what passes validation.
``level_search`` and its level rules must give the same map sets, each map
once.
"""

import json
from itertools import product

from hpk.budgets import Meter
from hpk.groups import GroupTable
from hpk.groupoids import (
    FiniteGroupoid,
    GroupoidHom,
    SimplicialGroupoid,
    SimplicialGroupoidMap,
)
from hpk.homsearch import enumerate_simplicial_maps, level_search
from hpk.lifting import enumerate_presheaf_sset_maps
from hpk.loop import enumerate_sgpd_maps, loop_groupoid, wbar
from hpk.presheaves import NaturalTransformation, constant_presheaf, y_u
from hpk.sites import FiniteSite
from hpk.sset import SimplicialMap, standard_complex

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
