"""Finite strict 2-groupoids, their nerve, homotopy, and the MS predicates.

Composition conventions: ``comp1[(f, g)]`` is f o g (g first); vertical
composition ``vcomp[(b, a)]`` is "a then b" for a: f => g, b: g => h;
horizontal composition ``hcomp[(b, a)]`` is b * a for a framed over x -> y
and b framed over y -> z, giving a 2-cell over x -> z.
"""

from .groups import GroupTable
from .sset import TruncatedSimplicialSet, _UnionFind, compatible_tuples, split_pair_key


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

    def whisker_right(self, a, f):
        """a * id_f : attach a 1-cell f before the frame of a."""
        return self.hcomp[(a, self.id2[f])]

    def whisker_left(self, f, a):
        """id_f * a : attach a 1-cell f after the frame of a."""
        return self.hcomp[(self.id2[f], a)]

    # -- validation ----------------------------------------------------------

    def validate(self):
        problems = []
        problems.extend(self._check_one_skeleton())
        if problems:
            return problems
        problems.extend(self._check_two_cells())
        if problems:
            return problems
        problems.extend(self._check_horizontal())
        return problems

    def _check_one_skeleton(self):
        problems = []
        objs = set(self.objects)
        for f, (s, t) in self.cells1.items():
            if s not in objs or t not in objs:
                problems.append(f"1-cell {f} has bad endpoints")
        composable = {
            (f, g)
            for f in self.cells1
            for g in self.cells1
            if self.src1(f) == self.tgt1(g)
        }
        if set(self.comp1) != composable:
            problems.append("1-cell composition domain mismatch")
            return problems
        for (f, g), h in self.comp1.items():
            if self.cells1[h] != (self.src1(g), self.tgt1(f)):
                problems.append(f"composite {f}o{g} has wrong endpoints")
        for x in objs:
            e = self.id1.get(x)
            if e is None or self.cells1.get(e) != (x, x):
                problems.append(f"missing identity 1-cell at {x}")
                return problems
        for f, (s, t) in self.cells1.items():
            if self.comp1[(f, self.id1[s])] != f or self.comp1[(self.id1[t], f)] != f:
                problems.append(f"identity law fails at 1-cell {f}")
            g = self.inv1.get(f)
            if g is None or self.comp1[(g, f)] != self.id1[s] or self.comp1[(f, g)] != self.id1[t]:
                problems.append(f"1-cell {f} lacks a strict inverse")
        for (f, g) in composable:
            for h in self.cells1:
                if self.src1(g) == self.tgt1(h):
                    if self.comp1[(self.comp1[(f, g)], h)] != self.comp1[(f, self.comp1[(g, h)])]:
                        problems.append("1-cell associativity fails")
                        return problems
        return problems

    def _check_two_cells(self):
        problems = []
        for a, (f, g) in self.cells2.items():
            if f not in self.cells1 or g not in self.cells1:
                problems.append(f"2-cell {a} has unknown frame")
                return problems
            if self.cells1[f] != self.cells1[g]:
                problems.append(f"2-cell {a} is not between parallel 1-cells")
        vcomposable = {
            (b, a)
            for a in self.cells2
            for b in self.cells2
            if self.tgt2(a) == self.src2(b)
        }
        if set(self.vcomp) != vcomposable:
            problems.append("vertical composition domain mismatch")
            return problems
        for (b, a), c in self.vcomp.items():
            if self.cells2[c] != (self.src2(a), self.tgt2(b)):
                problems.append(f"vertical composite {b}.{a} has wrong frame")
        for f in self.cells1:
            e = self.id2.get(f)
            if e is None or self.cells2.get(e) != (f, f):
                problems.append(f"missing identity 2-cell at {f}")
                return problems
        for a, (f, g) in self.cells2.items():
            if self.vcomp[(a, self.id2[f])] != a or self.vcomp[(self.id2[g], a)] != a:
                problems.append(f"vertical identity law fails at {a}")
            b = self.vinv.get(a)
            if (
                b is None
                or self.vcomp[(b, a)] != self.id2[f]
                or self.vcomp[(a, b)] != self.id2[g]
            ):
                problems.append(f"2-cell {a} lacks a vertical inverse")
        for (b, a) in vcomposable:
            for c in self.cells2:
                if self.tgt2(c) == self.src2(a):
                    left = self.vcomp[(self.vcomp[(b, a)], c)]
                    right = self.vcomp[(b, self.vcomp[(a, c)])]
                    if left != right:
                        problems.append("vertical associativity fails")
                        return problems
        return problems

    def _check_horizontal(self):
        problems = []
        hcomposable = set()
        for a in self.cells2:
            xa, ya = self.frame(a)
            for b in self.cells2:
                xb, yb = self.frame(b)
                if xb == ya:
                    hcomposable.add((b, a))
        if set(self.hcomp) != hcomposable:
            problems.append("horizontal composition domain mismatch")
            return problems
        for (b, a), c in self.hcomp.items():
            want = (
                self.comp1[(self.src2(b), self.src2(a))],
                self.comp1[(self.tgt2(b), self.tgt2(a))],
            )
            if self.cells2[c] != want:
                problems.append(f"horizontal composite {b}*{a} has wrong frame")
                return problems
        # identity 2-cells are multiplicative for horizontal composition
        for (f, g), h in self.comp1.items():
            if self.hcomp[(self.id2[f], self.id2[g])] != self.id2[h]:
                problems.append(f"id2 not horizontal-multiplicative at ({f},{g})")
        # horizontal associativity
        for (b, a) in list(self.hcomp):
            for c in self.cells2:
                if self.frame(c)[1] == self.frame(a)[0]:
                    left = self.hcomp[(self.hcomp[(b, a)], c)]
                    right = self.hcomp[(b, self.hcomp[(a, c)])]
                    if left != right:
                        problems.append("horizontal associativity fails")
                        return problems
        # interchange
        for a in self.cells2:
            for a2 in self.cells2:
                if self.src2(a2) != self.tgt2(a):
                    continue
                for b in self.cells2:
                    if self.frame(b)[0] != self.frame(a)[1]:
                        continue
                    for b2 in self.cells2:
                        if self.src2(b2) != self.tgt2(b):
                            continue
                        left = self.hcomp[
                            (self.vcomp[(b2, b)], self.vcomp[(a2, a)])
                        ]
                        right = self.vcomp[
                            (self.hcomp[(b2, a2)], self.hcomp[(b, a)])
                        ]
                        if left != right:
                            problems.append("interchange law fails")
                            return problems
        return problems

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_groupoid(cls, gpd):
        """A groupoid seen as a 2-groupoid with identity 2-cells only."""
        cells2 = {f"i[{f}]": (f, f) for f in gpd.arrows}
        vcomp = {
            (f"i[{f}]", f"i[{f}]"): f"i[{f}]" for f in gpd.arrows
        }
        hcomp = {}
        for f in gpd.arrows:
            for g in gpd.arrows:
                if gpd.src(f) == gpd.tgt(g):
                    hcomp[(f"i[{f}]", f"i[{g}]")] = f"i[{gpd.comp[(f, g)]}]"
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
        merged = [
            list(pa[0]) + list(pb[0]),
            {**pa[1], **pb[1]},
            {**pa[2], **pb[2]},
            {**pa[3], **pb[3]},
            {**pa[4], **pb[4]},
            {**pa[5], **pb[5]},
            {**pa[6], **pb[6]},
            {**pa[7], **pb[7]},
            {**pa[8], **pb[8]},
            {**pa[9], **pb[9]},
        ]
        return cls(*merged)

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

    @classmethod
    def from_json(cls, data):
        def unpack(pairs):
            return {split_pair_key(key): v for key, v in pairs.items()}

        return cls(
            data["objects"],
            {c["id"]: (c["src"], c["tgt"]) for c in data["cells1"]},
            unpack(data["comp1"]),
            data["id1"],
            data["inv1"],
            {c["id"]: (c["src"], c["tgt"]) for c in data["cells2"]},
            unpack(data["vcomp"]),
            unpack(data["hcomp"]),
            data["id2"],
            data["vinv"],
        )


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
        problems = []
        k, l = self.source, self.target
        if set(self.obj_map) != set(k.objects):
            return ["object map not total"]
        if set(self.map1) != set(k.cells1):
            return ["1-cell map not total"]
        if set(self.map2) != set(k.cells2):
            return ["2-cell map not total"]
        for f, (s, t) in k.cells1.items():
            if l.cells1[self.map1[f]] != (self.obj_map[s], self.obj_map[t]):
                problems.append(f"1-cell {f} image has wrong endpoints")
        for a, (f, g) in k.cells2.items():
            if l.cells2[self.map2[a]] != (self.map1[f], self.map1[g]):
                problems.append(f"2-cell {a} image has wrong frame")
        if problems:
            return problems
        for (f, g), h in k.comp1.items():
            if l.comp1[(self.map1[f], self.map1[g])] != self.map1[h]:
                problems.append("1-composition not preserved")
                return problems
        for x, e in k.id1.items():
            if self.map1[e] != l.id1[self.obj_map[x]]:
                problems.append("1-identities not preserved")
        for (b, a), c in k.vcomp.items():
            if l.vcomp[(self.map2[b], self.map2[a])] != self.map2[c]:
                problems.append("vertical composition not preserved")
                return problems
        for (b, a), c in k.hcomp.items():
            if l.hcomp[(self.map2[b], self.map2[a])] != self.map2[c]:
                problems.append("horizontal composition not preserved")
                return problems
        for f, e in k.id2.items():
            if self.map2[e] != l.id2[self.map1[f]]:
                problems.append("2-identities not preserved")
        return problems

    @classmethod
    def identity(cls, k):
        return cls(
            k,
            k,
            {o: o for o in k.objects},
            {f: f for f in k.cells1},
            {a: a for a in k.cells2},
        )

    def compose_with(self, other):
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


def tuple_name(parts):
    """The id of a nerve simplex of level >= 3 with the given faces."""
    return "[" + "|".join(parts) + "]"


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

    Level 2 simplices are quadruples (f, g, h, alpha: g o f => h); level 3
    simplices are boundary-compatible quadruples of 2-simplices satisfying
    the tetrahedron cocycle; higher levels are compatible face tuples.
    Levels 3 and up take their face-compatible tuples from the matching-tuple
    search shared with horn enumeration (``hpk.sset.compatible_tuples``).
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

    def cocycle_holds(t0, t1, t2, t3):
        f01, a012 = triangles[t3][0], triangles[t3][3]
        f23, a123 = triangles[t0][1], triangles[t0][3]
        a013, a023 = triangles[t2][3], triangles[t1][3]
        left = k.vcomp[(a013, k.whisker_right(a123, f01))]
        right = k.vcomp[(a023, k.whisker_left(f23, a012))]
        return left == right

    if depth >= 3:
        compatible = compatible_tuples(
            levels[2], [faces[(2, i)] for i in range(3)], range(4)
        )
        level3 = []
        tets = {}
        for tup in compatible:
            if cocycle_holds(*tup):
                name = tuple_name(tup)
                tets[name] = tup
                level3.append(name)
        level3 = sorted(level3)
        levels.append(level3)
        for i in range(4):
            faces[(3, i)] = {t: tets[t][i] for t in level3}
        for i in range(3):
            table = {}
            for t in levels[2]:
                face_tuple = []
                for j in range(4):
                    if j < i:
                        face_tuple.append(degeneracies[(1, i - 1)][faces[(2, j)][t]])
                    elif j in (i, i + 1):
                        face_tuple.append(t)
                    else:
                        face_tuple.append(degeneracies[(1, i)][faces[(2, j - 1)][t]])
                table[t] = tuple_name(face_tuple)
            degeneracies[(2, i)] = table

    for n in range(4, depth + 1):
        prev = levels[n - 1]
        compatible = compatible_tuples(
            prev, [faces[(n - 1, i)] for i in range(n)], range(n + 1)
        )
        names = {}
        level_n = []
        for tup in compatible:
            name = tuple_name(tup)
            names[name] = tup
            level_n.append(name)
        level_n = sorted(level_n)
        levels.append(level_n)
        for i in range(n + 1):
            faces[(n, i)] = {t: names[t][i] for t in level_n}
        for i in range(n):
            table = {}
            for t in prev:
                face_tuple = []
                for j in range(n + 1):
                    if j < i:
                        face_tuple.append(degeneracies[(n - 2, i - 1)][faces[(n - 1, j)][t]])
                    elif j in (i, i + 1):
                        face_tuple.append(t)
                    else:
                        face_tuple.append(degeneracies[(n - 2, i)][faces[(n - 1, j - 1)][t]])
                table[t] = tuple_name(face_tuple)
            degeneracies[(n - 1, i)] = table

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
        for t in source_nerve.levels[n]:
            level_maps[n][t] = tuple_name(
                level_maps[n - 1][source_nerve.face(n, i, t)] for i in range(n + 1)
            )
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
