"""Finite strict 2-groupoids, their nerve, homotopy, and the MS predicates.

Composition conventions: ``comp1[(f, g)]`` is f o g (g first); vertical
composition ``vcomp[(b, a)]`` is "a then b" for a: f => g, b: g => h;
horizontal composition ``hcomp[(b, a)]`` is b * a for a framed over x -> y
and b framed over y -> z, giving a 2-cell over x -> z.
"""

from .groups import GroupTable
from .laws import category_problems, functor_problems
from .sset import TruncatedSimplicialSet, _UnionFind, compatible_tuples


class TwoGroupoid:
    def __init__(self, objects, cells1, comp1, id1, inv1, cells2, vcomp, hcomp, id2, vinv):
        self.objects = tuple(sorted(objects))
        self.cells1 = dict(cells1)  # id -> (src obj, tgt obj)
        self.comp1 = dict(comp1)
        self.id1 = dict(id1)
        self.inv1 = dict(inv1)
        self.cells2 = dict(cells2)  # id -> (src 1-cell, tgt 1-cell)
        self.vcomp = dict(vcomp)
        self.hcomp = dict(hcomp)
        self.id2 = dict(id2)
        self.vinv = dict(vinv)

    # -- access -------------------------------------------------------------

    def src1(self, f):
        return self.cells1[f][0]

    def tgt1(self, f):
        return self.cells1[f][1]

    def src2(self, a):
        return self.cells2[a][0]

    def tgt2(self, a):
        return self.cells2[a][1]

    def frame(self, a):
        """(object source, object target) of a 2-cell."""
        f = self.src2(a)
        return self.cells1[f]

    def cells1_between(self, x, y):
        return tuple(sorted(f for f, (s, t) in self.cells1.items() if s == x and t == y))

    def cells2_between(self, f, g):
        return tuple(
            sorted(a for a, (s, t) in self.cells2.items() if s == f and t == g)
        )

    # -- the three categories, as the tables ``hpk.laws`` reads -------------------

    def one_cells(self):
        return self.objects, self.cells1, self.comp1, self.id1

    def vertical(self):
        return self.cells1, self.cells2, self.vcomp, self.id2

    def horizontal(self):
        """The objects, each 2-cell from the source to the target object of its
        frame, ``hcomp``, and the identity 2-cell of each identity 1-cell."""
        cells1 = self.cells1
        return (
            self.objects,
            {a: cells1[f] for a, (f, _) in self.cells2.items()},
            self.hcomp,
            {x: self.id2[e] for x, e in self.id1.items()},
        )

    # -- validation ----------------------------------------------------------

    def validate(self):
        problems = category_problems(*self.one_cells(), self.inv1, "1-cells: ")
        if problems:
            return problems
        problems = [
            f"2-cell {a} is not between parallel 1-cells"
            for a, (f, g) in self.cells2.items()
            if f in self.cells1 and g in self.cells1 and self.cells1[f] != self.cells1[g]
        ]
        problems += category_problems(*self.vertical(), self.vinv, "2-cells: ")
        if problems:
            return problems
        horizontal = self.horizontal()
        problems = category_problems(*horizontal, layer="horizontal: ")
        if problems:
            return problems
        # the sources, the targets and id2 are functors between the horizontal
        # category and the 1-cells
        one_cells = self.one_cells()
        objects = {x: x for x in self.objects}
        names = ("object", "2-cell", "horizontal composition")
        for end, layer in ((0, "2-cell sources: "), (1, "2-cell targets: ")):
            ends = {a: frame[end] for a, frame in self.cells2.items()}
            problems += functor_problems(horizontal, one_cells, objects, ends, names, layer)
        names = ("object", "1-cell", "composition")
        problems += functor_problems(
            one_cells, horizontal, objects, self.id2, names, "identity 2-cells: "
        )
        if problems:
            return problems
        # interchange: (b2 . b) * (a2 . a) = (b2 * a2) . (b * a), where after[a]
        # is {a2: a2 . a} over the 2-cells vertically composable after a
        after = {a: {} for a in self.cells2}
        for (a2, a), c in self.vcomp.items():
            after[a][a2] = c
        hcomp, vcomp = self.hcomp, self.vcomp
        for (b, a), ba in hcomp.items():
            for b2, b2b in after[b].items():
                for a2, a2a in after[a].items():
                    if hcomp[(b2b, a2a)] != vcomp[(hcomp[(b2, a2)], ba)]:
                        return ["interchange law fails"]
        return []

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_groupoid(cls, gpd):
        """A groupoid seen as a 2-groupoid with identity 2-cells only."""
        cells2 = {f"i[{f}]": (f, f) for f in gpd.arrows}
        vcomp = {(f"i[{f}]", f"i[{f}]"): f"i[{f}]" for f in gpd.arrows}
        hcomp = {(f"i[{f}]", f"i[{g}]"): f"i[{h}]" for (f, g), h in gpd.comp.items()}
        return cls(
            gpd.objects,
            dict(gpd.arrows),
            dict(gpd.comp),
            dict(gpd.identities),
            dict(gpd.inverses),
            cells2,
            vcomp,
            hcomp,
            {f: f"i[{f}]" for f in gpd.arrows},
            {f"i[{f}]": f"i[{f}]" for f in gpd.arrows},
        )

    @classmethod
    def one_object_with_pi2(cls, table, obj="*"):
        """One object, one 1-cell, 2-cells a given abelian group."""
        if not table.is_abelian():
            raise ValueError("pi_2 must be abelian for a strict one-1-cell 2-groupoid")
        e = f"id_{obj}"
        cells1 = {e: (obj, obj)}
        comp1 = {(e, e): e}
        cells2 = {a: (e, e) for a in table.elements}
        vcomp = {(b, a): table.mult[(b, a)] for a in table.elements for b in table.elements}
        hcomp = dict(vcomp)
        return cls(
            [obj],
            cells1,
            comp1,
            {obj: e},
            {e: e},
            cells2,
            vcomp,
            hcomp,
            {e: table.identity},
            {a: table.inverse[a] for a in table.elements},
        )

    @classmethod
    def disjoint_union(cls, a, b, tags=("a", "b")):
        ta, tb = tags

        def tag_all(k, tag):
            return (
                [f"{tag}:{o}" for o in k.objects],
                {f"{tag}:{f}": (f"{tag}:{s}", f"{tag}:{t}") for f, (s, t) in k.cells1.items()},
                {(f"{tag}:{f}", f"{tag}:{g}"): f"{tag}:{h}" for (f, g), h in k.comp1.items()},
                {f"{tag}:{o}": f"{tag}:{e}" for o, e in k.id1.items()},
                {f"{tag}:{f}": f"{tag}:{g}" for f, g in k.inv1.items()},
                {f"{tag}:{c}": (f"{tag}:{s}", f"{tag}:{t}") for c, (s, t) in k.cells2.items()},
                {(f"{tag}:{x}", f"{tag}:{y}"): f"{tag}:{z}" for (x, y), z in k.vcomp.items()},
                {(f"{tag}:{x}", f"{tag}:{y}"): f"{tag}:{z}" for (x, y), z in k.hcomp.items()},
                {f"{tag}:{f}": f"{tag}:{e}" for f, e in k.id2.items()},
                {f"{tag}:{x}": f"{tag}:{y}" for x, y in k.vinv.items()},
            )

        pa, pb = tag_all(a, ta), tag_all(b, tb)
        return cls(pa[0] + pb[0], *({**x, **y} for x, y in zip(pa[1:], pb[1:])))

    def to_json(self):
        return {
            "objects": list(self.objects),
            "cells1": [
                {"id": f, "src": s, "tgt": t} for f, (s, t) in sorted(self.cells1.items())
            ],
            "comp1": {f"{f}|{g}": h for (f, g), h in sorted(self.comp1.items())},
            "id1": dict(sorted(self.id1.items())),
            "inv1": dict(sorted(self.inv1.items())),
            "cells2": [
                {"id": a, "src": s, "tgt": t} for a, (s, t) in sorted(self.cells2.items())
            ],
            "vcomp": {f"{b}|{a}": c for (b, a), c in sorted(self.vcomp.items())},
            "hcomp": {f"{b}|{a}": c for (b, a), c in sorted(self.hcomp.items())},
            "id2": dict(sorted(self.id2.items())),
            "vinv": dict(sorted(self.vinv.items())),
        }


def validate_2gpd(k):
    return k.validate()


class TwoFunctor:
    """A strict functor of 2-groupoids."""

    def __init__(self, source, target, obj_map, map1, map2):
        self.source = source
        self.target = target
        self.obj_map = dict(obj_map)
        self.map1 = dict(map1)
        self.map2 = dict(map2)

    def validate(self):
        """The functor laws on the 1-cells, the vertical 2-cells and the
        horizontal 2-cells, stopping at the first layer that fails."""
        horizontal = ("object", "2-cell", "horizontal composition")
        for tables, obj_map, arrow_map, names in (
            (TwoGroupoid.one_cells, self.obj_map, self.map1, ("object", "1-cell", "1-composition")),
            (TwoGroupoid.vertical, self.map1, self.map2, ("1-cell", "2-cell", "vertical composition")),
            (TwoGroupoid.horizontal, self.obj_map, self.map2, horizontal),
        ):
            problems = functor_problems(
                tables(self.source), tables(self.target), obj_map, arrow_map, names
            )
            if problems:
                return problems
        return []

    @classmethod
    def identity(cls, k):
        return cls(
            k,
            k,
            {o: o for o in k.objects},
            {f: f for f in k.cells1},
            {a: a for a in k.cells2},
        )

    def compose(self, other):
        """self after other."""
        return TwoFunctor(
            other.source,
            self.target,
            {o: self.obj_map[v] for o, v in other.obj_map.items()},
            {f: self.map1[v] for f, v in other.map1.items()},
            {a: self.map2[v] for a, v in other.map2.items()},
        )

    def equals(self, other):
        return (
            self.obj_map == other.obj_map
            and self.map1 == other.map1
            and self.map2 == other.map2
        )


# -- nerve ---------------------------------------------------------------------


def triangle_name(f, g, h, a):
    """The id of the 2-simplex (f, g, h, a: g o f => h) of the nerve."""
    return f"T({f}|{g}|{h}|{a})"


def tuple_names(rows):
    """The ids of nerve simplices of level >= 3, one per row of faces."""
    return map("[{}]".format, map("|".join, rows))


def _triangles(k):
    """(f, g, h, a) for every 2-cell a: g o f => h, by 2-cell, then f, then g."""
    pairs = {}
    for f, g, composite in sorted((f, g, h) for (g, f), h in k.comp1.items()):
        pairs.setdefault(composite, []).append((f, g))
    for a, (source, target) in sorted(k.cells2.items()):
        for f, g in pairs.get(source, ()):
            yield f, g, target, a


def nerve(k, depth):
    """The Moerdijk-Svensson nerve, 3-coskeletal, to the given depth.

    Level 2 simplices are quadruples (f, g, h, alpha: g o f => h).  Level 3
    holds the unique filler of each horn Lambda^3_1, a face-compatible triple
    at d_0, d_2, d_3 with the d_1 triangle whose 2-cell the tetrahedron
    cocycle forces, a023 = a013 . (a123 * f01) . (f23 * a012)^-1; higher
    levels are compatible face tuples.  Both searches are the matching-tuple
    search shared with horn enumeration (``hpk.sset.compatible_tuples``), and
    levels 3 and up are named and tabled a whole column at a time.
    """
    levels = []
    faces = {}
    degeneracies = {}

    level0 = list(k.objects)
    level1 = sorted(k.cells1)
    levels.append(level0)
    if depth >= 1:
        levels.append(level1)
        faces[(1, 0)] = {f: k.tgt1(f) for f in level1}
        faces[(1, 1)] = {f: k.src1(f) for f in level1}
        degeneracies[(0, 0)] = {x: k.id1[x] for x in level0}

    triangles = {}
    if depth >= 2:
        triangles = {triangle_name(*t): t for t in _triangles(k)}
        level2 = sorted(triangles)
        levels.append(level2)
        faces[(2, 0)] = {t: triangles[t][1] for t in level2}
        faces[(2, 1)] = {t: triangles[t][2] for t in level2}
        faces[(2, 2)] = {t: triangles[t][0] for t in level2}
        degeneracies[(1, 0)] = {
            f: triangle_name(k.id1[k.src1(f)], f, f, k.id2[f]) for f in level1
        }
        degeneracies[(1, 1)] = {
            f: triangle_name(f, k.id1[k.tgt1(f)], f, k.id2[f]) for f in level1
        }

    for n in range(3, depth + 1):
        prev = levels[n - 1]
        below = [faces[(n - 1, i)] for i in range(n)]
        if n == 3:
            # the d_1 face of each compatible triple at 0, 2, 3
            vcomp, hcomp, vinv, id2 = k.vcomp, k.hcomp, k.vinv, k.id2
            compatible = []
            for t0, t2, t3 in compatible_tuples(prev, below, (0, 2, 3)):
                f01, _, f02, a012 = triangles[t3]
                _, f23, _, a123 = triangles[t0]
                _, _, f03, a013 = triangles[t2]
                left = vcomp[(a013, hcomp[(a123, id2[f01])])]
                a023 = vcomp[(left, vinv[hcomp[(id2[f23], a012)]])]
                compatible.append((t0, triangle_name(f02, f23, f03, a023), t2, t3))
        else:
            compatible = compatible_tuples(prev, below, range(n + 1))
        names = dict(zip(tuple_names(compatible), compatible))
        level_n = sorted(names)
        levels.append(level_n)
        columns = list(zip(*map(names.__getitem__, level_n))) or [()] * (n + 1)
        for i, column in enumerate(columns):
            faces[(n, i)] = dict(zip(level_n, column))
        # s_i x has the faces s_(i-1) d_j x below i, x twice, s_i d_(j-1) x above
        for i in range(n):
            columns = [
                map(degeneracies[(n - 2, i - (j < i))].__getitem__, map(d.__getitem__, prev))
                for j, d in enumerate(below)
                if j != i
            ]
            columns[i:i] = [prev, prev]
            degeneracies[(n - 1, i)] = dict(zip(prev, tuple_names(zip(*columns))))

    return TruncatedSimplicialSet(depth, levels, faces, degeneracies)


def nerve_of_functor(func, source_nerve, target_nerve):
    """The simplicial map induced on nerves by a strict functor."""
    depth = source_nerve.depth
    level_maps = [dict() for _ in range(depth + 1)]
    for x in source_nerve.levels[0]:
        level_maps[0][x] = func.obj_map[x]
    if depth >= 1:
        for f in source_nerve.levels[1]:
            level_maps[1][f] = func.map1[f]
    if depth >= 2:
        images = {
            triangle_name(f, g, h, a): triangle_name(
                func.map1[f], func.map1[g], func.map1[h], func.map2[a]
            )
            for f, g, h, a in _triangles(func.source)
        }
        level_maps[2] = {t: images[t] for t in source_nerve.levels[2]}
    for n in range(3, depth + 1):
        level, image = source_nerve.levels[n], level_maps[n - 1].__getitem__
        faces = [map(image, map(source_nerve.faces[(n, i)].__getitem__, level)) for i in range(n + 1)]
        level_maps[n] = dict(zip(level, tuple_names(zip(*faces))))
    return level_maps


# -- homotopy -------------------------------------------------------------------


def pi_2gpd(k, x, i):
    """pi_0 (components), pi_1 (1-cell loops up to 2-cells), or pi_2 at x."""
    if x not in k.objects:
        raise ValueError(f"{x!r} is not an object")
    if i == 0:
        uf = _UnionFind()
        for o in k.objects:
            uf.add(o)
        for f, (s, t) in k.cells1.items():
            uf.union(s, t)
        return tuple(sorted(uf.classes().values()))
    if i == 1:
        return pi1_with_classes(k, x)[0]
    if i == 2:
        e = k.id1[x]
        cells = k.cells2_between(e, e)
        mult = {(a, b): k.vcomp[(a, b)] for a in cells for b in cells}
        return GroupTable(cells, mult, k.id2[e])
    raise ValueError("i must be 0, 1 or 2")


def pi1_with_classes(k, x):
    """(pi_1 at x, loop 1-cell -> class representative)."""
    loops = k.cells1_between(x, x)
    uf = _UnionFind()
    for f in loops:
        uf.add(f)
    loop_set = set(loops)
    for a, (f, g) in k.cells2.items():
        if f in loop_set and g in loop_set:
            uf.union(f, g)
    classes = uf.classes()
    rep_of = {}
    for root, members in classes.items():
        rep = min(members)
        for m in members:
            rep_of[m] = rep
    reps = sorted(set(rep_of.values()))
    mult = {}
    for f in reps:
        for g in reps:
            mult[(f, g)] = rep_of[k.comp1[(f, g)]]
    return GroupTable(reps, mult, rep_of[k.id1[x]]), rep_of


# -- Moerdijk-Svensson predicates ------------------------------------------------


def ms_weak_equivalence(func):
    """Essential surjectivity plus hom-groupoid equivalences, with a witness."""
    k, l = func.source, func.target
    for b in l.objects:
        if not any(
            l.cells1_between(func.obj_map[a], b) for a in k.objects
        ):
            return False, {"reason": "not essentially surjective", "object": b}
    for a1 in k.objects:
        for a2 in k.objects:
            fa1, fa2 = func.obj_map[a1], func.obj_map[a2]
            # essential surjectivity of the hom functor: 1-cells hit up to 2-cells
            for g in l.cells1_between(fa1, fa2):
                hit = any(
                    l.cells2_between(func.map1[f], g)
                    for f in k.cells1_between(a1, a2)
                )
                if not hit:
                    return False, {
                        "reason": "hom functor not essentially surjective",
                        "objects": (a1, a2),
                        "one_cell": g,
                    }
            for f1 in k.cells1_between(a1, a2):
                for f2 in k.cells1_between(a1, a2):
                    cells = k.cells2_between(f1, f2)
                    image_cells = l.cells2_between(func.map1[f1], func.map1[f2])
                    if not cells and image_cells:
                        # distinct-up-to-2-cells 1-cells collapse in the image
                        return False, {
                            "reason": "hom functor not faithful",
                            "one_cells": (f1, f2),
                        }
                    mapped = [func.map2[a] for a in cells]
                    if len(set(mapped)) != len(mapped):
                        return False, {
                            "reason": "hom functor not faithful on 2-cells",
                            "one_cells": (f1, f2),
                        }
                    if set(image_cells) - set(mapped):
                        return False, {
                            "reason": "hom functor not full",
                            "one_cells": (f1, f2),
                            "missing": sorted(set(image_cells) - set(mapped))[0],
                        }
    return True, {}


def ms_fibration(func):
    """The Grothendieck fibration condition, checked exhaustively.

    For psi: L -> K, every 2-cell alpha: h => psi(f) o g in K (with f a
    1-cell of L and g, h 1-cells of K from a common source) must lift.
    """
    l, k = func.source, func.target
    for f, (b1, b2) in l.cells1.items():
        pb1, pb2 = func.obj_map[b1], func.obj_map[b2]
        for a0 in k.objects:
            for g in k.cells1_between(a0, pb1):
                composite = k.comp1[(func.map1[f], g)]
                for h in k.cells1_between(a0, pb2):
                    for alpha in k.cells2_between(h, composite):
                        if not _fibration_lift_exists(func, f, b1, b2, a0, g, h, alpha):
                            return False, {
                                "reason": "deformation does not lift",
                                "one_cell": f,
                                "configuration": (a0, g, h, alpha),
                            }
    return True, {}


def _fibration_lift_exists(func, f, b1, b2, a0, g, h, alpha):
    l, k = func.source, func.target
    for x in l.objects:
        if func.obj_map[x] != a0:
            continue
        for g_lift in l.cells1_between(x, b1):
            if func.map1[g_lift] != g:
                continue
            comp = l.comp1[(f, g_lift)]
            for h_lift in l.cells1_between(x, b2):
                if func.map1[h_lift] != h:
                    continue
                for alpha_lift in l.cells2_between(h_lift, comp):
                    if func.map2[alpha_lift] == alpha:
                        return True
    return False
