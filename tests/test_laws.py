"""The shared law checks against the per-structure checks they replaced.

``hpk.laws`` holds one category-law check (groupoids, sites, the three layers
of a 2-groupoid), one functor check (groupoid maps, group homomorphisms, the
three layers of a 2-functor, and the frame maps and ``id2`` of a 2-groupoid),
one simplicial-identity check and one commute-with-operators check.  The
functions named ``reference_*`` below are the checks they replaced, kept as
they were; each is run beside the shared check on a corpus of mutants, every
table entry of a valid structure corrupted once to another existing id and
once to an unknown one.
"""

import json
import os
import re
import subprocess
import sys
from collections.abc import Hashable

import pytest

from hpk.abelian import AbelianHom, ChainFixture, FiniteAbelianGroup
from hpk.groups import GroupTable
from hpk.groupoids import (
    FiniteGroupoid,
    FreeGroupoid,
    GroupoidHom,
    SimplicialGroupoid,
    SimplicialGroupoidMap,
    dold_kan,
)
from hpk.laws import category_problems, functor_problems
from hpk.loop import loop_groupoid
from hpk.presheaves import DOMAINS
from hpk.sites import FiniteSite
from hpk.sset import standard_complex
from hpk.two_groupoids import TwoFunctor, TwoGroupoid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
UNKNOWN = "zz"


# -- the replaced category checks ------------------------------------------------------


def reference_groupoid_problems(self):
    """``FiniteGroupoid.validate`` as it was."""
    problems = []
    objs = set(self.objects)
    for a, (s, t) in self.arrows.items():
        if s not in objs or t not in objs:
            problems.append(f"arrow {a} has endpoints outside the object set")
    if set(self.identities) != objs:
        problems.append("identities not assigned exactly on objects")
        return problems
    for x, e in self.identities.items():
        if e not in self.arrows or self.arrows[e] != (x, x):
            problems.append(f"identity of {x} is not a loop at {x}")
            return problems
    composable = {
        (f, g)
        for f in self.arrows
        for g in self.arrows
        if self.src(f) == self.tgt(g)
    }
    if set(self.comp) != composable:
        problems.append("composition table domain is not the composable pairs")
        return problems
    for (f, g), h in self.comp.items():
        if h not in self.arrows:
            problems.append(f"composite {f}o{g} is not an arrow")
            return problems
        if self.arrows[h] != (self.arrows[g][0], self.arrows[f][1]):
            problems.append(f"composite {f}o{g} has wrong endpoints")
    for f in self.arrows:
        if self.comp[(f, self.identities[self.src(f)])] != f:
            problems.append(f"right identity law fails at {f}")
        if self.comp[(self.identities[self.tgt(f)], f)] != f:
            problems.append(f"left identity law fails at {f}")
    if set(self.inverses) != set(self.arrows):
        problems.append("inverses not assigned exactly on arrows")
        return problems
    for f, g in self.inverses.items():
        if self.arrows[g] != (self.arrows[f][1], self.arrows[f][0]):
            problems.append(f"inverse of {f} has wrong endpoints")
            continue
        if self.comp[(f, g)] != self.identities[self.tgt(f)]:
            problems.append(f"f o f^-1 != id at {f}")
        if self.comp[(g, f)] != self.identities[self.src(f)]:
            problems.append(f"f^-1 o f != id at {f}")
    for (f, g) in composable:
        for h in self.arrows:
            if self.src(g) == self.tgt(h):
                left = self.comp[(self.comp[(f, g)], h)]
                right = self.comp[(f, self.comp[(g, h)])]
                if left != right:
                    problems.append(f"associativity fails at ({f},{g},{h})")
                    return problems
    return problems


def reference_site_category_problems(self):
    """``FiniteSite._check_category`` as it was."""
    problems = []
    objs = set(self.objects)
    for a, (s, t) in self.arrows.items():
        if s not in objs or t not in objs:
            problems.append(f"arrow {a} has endpoints outside the object set")
    for x in objs:
        e = self.identities.get(x)
        if e is None or self.arrows.get(e) != (x, x):
            problems.append(f"missing identity at {x}")
            return problems
    composable = {
        (f, g)
        for f in self.arrows
        for g in self.arrows
        if self.src(f) == self.tgt(g)
    }
    if set(self.comp) != composable:
        problems.append("composition table domain mismatch")
        return problems
    for (f, g), h in self.comp.items():
        if h not in self.arrows or self.arrows[h] != (self.src(g), self.tgt(f)):
            problems.append(f"composite {f}o{g} ill-typed")
            return problems
    for f, (s, t) in self.arrows.items():
        if self.comp[(f, self.identities[s])] != f:
            problems.append(f"right identity law fails at {f}")
        if self.comp[(self.identities[t], f)] != f:
            problems.append(f"left identity law fails at {f}")
    for (f, g) in composable:
        for h in self.arrows:
            if self.src(g) == self.tgt(h):
                if self.comp[(self.comp[(f, g)], h)] != self.comp[(f, self.comp[(g, h)])]:
                    problems.append("associativity fails")
                    return problems
    return problems


def reference_one_skeleton_problems(self):
    """``TwoGroupoid._check_one_skeleton`` as it was."""
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


def reference_two_cell_problems(self):
    """``TwoGroupoid._check_two_cells`` as it was."""
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


def reference_horizontal_problems(self):
    """``TwoGroupoid._check_horizontal`` as it was."""
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
        if self.cells2.get(c) != want:
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
                    left = self.hcomp[(self.vcomp[(b2, b)], self.vcomp[(a2, a)])]
                    right = self.vcomp[(self.hcomp[(b2, a2)], self.hcomp[(b, a)])]
                    if left != right:
                        problems.append("interchange law fails")
                        return problems
    return problems


def reference_two_groupoid_problems(k):
    """``TwoGroupoid.validate`` as it was."""
    problems = reference_one_skeleton_problems(k)
    if problems:
        return problems
    problems = reference_two_cell_problems(k)
    if problems:
        return problems
    return reference_horizontal_problems(k)


# -- the replaced functor checks ------------------------------------------------------


def reference_groupoid_hom_problems(self):
    """``GroupoidHom.validate`` as it was."""
    problems = []
    if set(self.obj_map) != set(self.source.objects):
        problems.append("object map not total")
        return problems
    if not set(self.obj_map.values()) <= set(self.target.objects):
        problems.append("object map escapes target objects")
        return problems
    if self.source.is_free:
        if set(self.arrow_map) != set(self.source.generators):
            problems.append("generator map not total")
            return problems
        for g, img in self.arrow_map.items():
            s, t = self.source.generators[g]
            if (self.target.src(img), self.target.tgt(img)) != (
                self.obj_map[s],
                self.obj_map[t],
            ):
                problems.append(f"image of generator {g} has wrong endpoints")
        return problems
    if set(self.arrow_map) != set(self.source.arrows):
        problems.append("arrow map not total")
        return problems
    for f, img in self.arrow_map.items():
        s, t = self.source.arrows[f]
        if (self.target.src(img), self.target.tgt(img)) != (
            self.obj_map[s],
            self.obj_map[t],
        ):
            problems.append(f"image of arrow {f} has wrong endpoints")
            return problems
    for x, e in self.source.identities.items():
        if self.arrow_map[e] != self.target.identity(self.obj_map[x]):
            problems.append(f"identity at {x} not preserved")
    for (f, g), h in self.source.comp.items():
        left = self.arrow_map[h]
        right = self.target.compose(self.arrow_map[f], self.arrow_map[g])
        if left != right:
            problems.append(f"composition not preserved at ({f},{g})")
            return problems
    return problems


def reference_two_functor_problems(self):
    """``TwoFunctor.validate`` as it was."""
    problems = []
    k, l = self.source, self.target
    if set(self.obj_map) != set(k.objects):
        return ["object map not total"]
    if set(self.map1) != set(k.cells1):
        return ["1-cell map not total"]
    if set(self.map2) != set(k.cells2):
        return ["2-cell map not total"]
    for what, mapping, known in (
        ("object", self.obj_map, set(l.objects)),
        ("1-cell", self.map1, l.cells1),
        ("2-cell", self.map2, l.cells2),
    ):
        for x, image in mapping.items():
            if not isinstance(image, Hashable) or image not in known:
                problems.append(f"image {image!r} of {what} {x} is not a target {what}")
    if problems:
        return problems
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


def reference_group_hom_problems(m, src, tgt):
    """``_GroupOps.validate_morphism`` of the group-valued presheaves as it was."""
    problems = []
    if set(m) != set(src.elements):
        return ["map not total"]
    if not set(m.values()) <= set(tgt.elements):
        return ["map escapes target"]
    if m[src.identity] != tgt.identity:
        problems.append("identity not preserved")
    for a in src.elements:
        for b in src.elements:
            if m[src.mult[(a, b)]] != tgt.mult[(m[a], m[b])]:
                problems.append("not a homomorphism")
                return problems
    return problems


# -- the replaced simplicial checks ------------------------------------------------------


def reference_sgpd_problems(self):
    """``SimplicialGroupoid.validate`` as it was, with its per-arrow identity loop."""
    problems = []
    for n, gpd in enumerate(self.levels):
        if tuple(gpd.objects) != self.objects:
            problems.append(f"level {n} has a different object set")
    for (n, i), hom in list(self.faces.items()) + list(self.degeneracies.items()):
        if any(hom.obj_map[o] != o for o in self.objects):
            problems.append(f"operator ({n},{i}) moves objects")
    if problems:
        return problems
    probe = {}
    for n, gpd in enumerate(self.levels):
        if gpd.is_free:
            probe[n] = [gpd.gen(g) for g in sorted(gpd.generators)]
        else:
            probe[n] = list(gpd.arrow_ids())
    d = lambda n, i: self.faces[(n, i)]
    s = lambda n, i: self.degeneracies[(n, i)]
    for n in range(2, self.depth + 1):
        for j in range(n + 1):
            for i in range(j):
                for a in probe[n]:
                    if d(n - 1, i)(d(n, j)(a)) != d(n - 1, j - 1)(d(n, i)(a)):
                        problems.append(
                            f"d_{i} d_{j} != d_{j-1} d_{i} at level {n}"
                        )
    for n in range(0, self.depth):
        for j in range(n + 1):
            for a in probe[n]:
                y = s(n, j)(a)
                if d(n + 1, j)(y) != a or d(n + 1, j + 1)(y) != a:
                    problems.append(f"d s != id at level {n}, s_{j}")
    for n in range(1, self.depth):
        for j in range(n + 1):
            for i in range(n + 2):
                for a in probe[n]:
                    y = s(n, j)(a)
                    if i < j:
                        if d(n + 1, i)(y) != s(n - 1, j - 1)(d(n, i)(a)):
                            problems.append(
                                f"d_{i} s_{j} != s_{j-1} d_{i} at level {n}"
                            )
                    elif i > j + 1:
                        if d(n + 1, i)(y) != s(n - 1, j)(d(n, i - 1)(a)):
                            problems.append(
                                f"d_{i} s_{j} != s_{j} d_{i-1} at level {n}"
                            )
    for n in range(0, self.depth - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                for a in probe[n]:
                    if s(n + 1, i)(s(n, j)(a)) != s(n + 1, j + 1)(s(n, i)(a)):
                        problems.append(
                            f"s_{i} s_{j} != s_{j+1} s_{i} at level {n}"
                        )
    return problems


def reference_sgpd_map_problems(self):
    """``SimplicialGroupoidMap.validate`` as it was, with its per-arrow loop."""
    problems = []
    if len(self.level_homs) != self.source.depth + 1:
        return ["wrong number of level maps"]
    for n, hom in enumerate(self.level_homs):
        if hom.obj_map != self.obj_map:
            problems.append(f"level {n} uses a different object map")
        problems.extend(f"level {n}: {p}" for p in hom.validate())
    if problems:
        return problems
    for n in range(1, self.source.depth + 1):
        for i in range(n + 1):
            for a in self.level_homs[n].probe_arrows():
                left = self.level_homs[n - 1](self.source.face(n, i)(a))
                right = self.target.face(n, i)(self.level_homs[n](a))
                if left != right:
                    problems.append(f"does not commute with d_{i} at level {n}")
    for n in range(0, self.source.depth):
        for i in range(n + 1):
            for a in self.level_homs[n].probe_arrows():
                left = self.level_homs[n + 1](self.source.degeneracy(n, i)(a))
                right = self.target.degeneracy(n, i)(self.level_homs[n](a))
                if left != right:
                    problems.append(f"does not commute with s_{i} at level {n}")
    return problems


# -- the mutation corpus ---------------------------------------------------------------


def _other(ids, value):
    """An existing id other than ``value``: the next one in sorted order."""
    ids = sorted(ids)
    return ids[(ids.index(value) + 1) % len(ids)] if value in ids else ids[0]


def _mutants(tables, ids_of):
    """(label, tables) with one entry of one table replaced, for every entry:
    once by another existing id and once by an unknown one.

    ``tables`` is {name: dict}; a value is an id, or a (src, tgt) pair whose
    halves are corrupted one at a time.  ``ids_of[name]`` lists the ids a
    value of that table ranges over.
    """
    for name, table in tables.items():
        ids = ids_of[name]
        for key, value in table.items():
            slots = [0, 1] if isinstance(value, tuple) else [None]
            for slot in slots:
                old = value if slot is None else value[slot]
                for new in (_other(ids, old), UNKNOWN):
                    if new == old:
                        continue
                    if slot is None:
                        entry = new
                    else:
                        entry = tuple(new if k == slot else v for k, v in enumerate(value))
                    changed = dict(tables)
                    changed[name] = {**table, key: entry}
                    yield f"{name}[{key!r}] = {entry!r}", changed


def groupoid_fixtures():
    z2, z3 = GroupTable.cyclic(2), GroupTable.cyclic(3)
    return {
        "Z/2": FiniteGroupoid.from_group(z2),
        "Z/3": FiniteGroupoid.from_group(z3),
        "interval": FiniteGroupoid.chaotic(["0", "1"]),
        "chaotic Z/2": FiniteGroupoid.chaotic(["x", "y"], z2),
    }


def groupoid_mutants():
    for name, g in groupoid_fixtures().items():
        tables = {
            "arrows": g.arrows,
            "comp": g.comp,
            "identities": g.identities,
            "inverses": g.inverses,
        }
        ids = {"arrows": g.objects, "comp": g.arrows, "identities": g.arrows, "inverses": g.arrows}
        for label, t in _mutants(tables, ids):
            yield f"{name}: {label}", FiniteGroupoid(
                g.objects, t["arrows"], t["comp"], t["identities"], t["inverses"]
            )


def site_mutants():
    fixtures = {
        "two objects": FiniteSite.two_object_site(),
        "two objects, U not covered by f": FiniteSite.two_object_site(cover_u=False),
        "point": FiniteSite.point_site(),
    }
    for name, site in fixtures.items():
        tables = {"arrows": site.arrows, "comp": site.comp, "identities": site.identities}
        ids = {"arrows": site.objects, "comp": site.arrows, "identities": site.arrows}
        for label, t in _mutants(tables, ids):
            yield f"{name}: {label}", FiniteSite(
                site.objects, t["arrows"], t["comp"], t["identities"], site.covers
            )


def two_groupoid_fixtures():
    z2, z3 = GroupTable.cyclic(2), GroupTable.cyclic(3)
    return {
        "chaotic Z/2": TwoGroupoid.from_groupoid(FiniteGroupoid.chaotic(["x", "y"], z2)),
        "pi_2 = Z/3": TwoGroupoid.one_object_with_pi2(z3),
        "pi_2 = Z/2 + interval": TwoGroupoid.disjoint_union(
            TwoGroupoid.one_object_with_pi2(z2), TwoGroupoid.from_groupoid(FiniteGroupoid.interval())
        ),
    }


TWO_GROUPOID_TABLES = ("cells1", "comp1", "id1", "inv1", "cells2", "vcomp", "hcomp", "id2", "vinv")


def two_groupoid_mutants():
    for name, k in two_groupoid_fixtures().items():
        tables = {field: getattr(k, field) for field in TWO_GROUPOID_TABLES}
        ids = {
            "cells1": k.objects,
            "comp1": k.cells1,
            "id1": k.cells1,
            "inv1": k.cells1,
            "cells2": k.cells1,
            "vcomp": k.cells2,
            "hcomp": k.cells2,
            "id2": k.cells2,
            "vinv": k.cells2,
        }
        for label, t in _mutants(tables, ids):
            yield f"{name}: {label}", TwoGroupoid(k.objects, *(t[f] for f in TWO_GROUPOID_TABLES))


def _run(reference):
    """The reference's problems, or None where it raised ``KeyError``."""
    try:
        return reference()
    except KeyError:
        return None


def _without_set_order(problems):
    """Problems with the triple an associativity failure names removed: the
    reference picks it in ``set`` order."""
    return [re.sub(r"^(associativity fails) at \(.*\)$", r"\1", p) for p in problems]


def _disagreements(mutants, reference, new, same_list=False):
    """Labels of the mutants where ``new`` does not give the verdict of a
    reference that returned, or names no violation where it raised
    ``KeyError``; with ``same_list``, also where the problem lists differ
    beyond the set-order triple."""
    out = []
    for label, x in mutants:
        expected, got = _run(lambda: reference(x)), new(x)
        if expected is None:
            ok = bool(got) and all(isinstance(p, str) for p in got)
        elif same_list:
            ok = _without_set_order(got) == _without_set_order(expected)
        else:
            ok = bool(got) == bool(expected)
        if not ok:
            out.append((label, expected, got))
    return out


def test_each_corpus_has_mutants_its_reference_rejects_or_crashes_on():
    corpora = {
        "groupoid": [(lambda g=g: reference_groupoid_problems(g)) for _, g in groupoid_mutants()],
        "site": [(lambda s=s: reference_site_category_problems(s)) for _, s in site_mutants()],
        "2-groupoid": [
            (lambda k=k: reference_two_groupoid_problems(k)) for _, k in two_groupoid_mutants()
        ],
    }
    for name, runs in corpora.items():
        outcomes = [_run(run) for run in runs]
        assert len(outcomes) > 20, name
        # the site reference looks identities up with get(), so no value it
        # reads can crash it
        assert any(o is None for o in outcomes) == (name != "site"), name
        assert any(o for o in outcomes), name


def test_groupoid_check_matches_the_reference_on_every_mutant():
    mutants = list(groupoid_mutants())
    assert _disagreements(
        mutants, reference_groupoid_problems, FiniteGroupoid.validate, same_list=True
    ) == []


def test_site_check_matches_the_reference_on_every_mutant():
    def new(site):
        return category_problems(site.objects, site.arrows, site.comp, site.identities)

    mutants = list(site_mutants())
    assert _disagreements(mutants, reference_site_category_problems, new) == []
    for _, site in mutants:
        if not new(site):
            assert site.validate() == site._check_coverage()


def test_two_groupoid_check_matches_the_reference_on_every_mutant():
    mutants = list(two_groupoid_mutants())
    assert _disagreements(mutants, reference_two_groupoid_problems, TwoGroupoid.validate) == []


def test_the_fixtures_are_valid():
    for g in groupoid_fixtures().values():
        assert g.validate() == reference_groupoid_problems(g) == []
    for k in two_groupoid_fixtures().values():
        assert k.validate() == reference_two_groupoid_problems(k) == []
    for site in (FiniteSite.two_object_site(), FiniteSite.point_site()):
        assert site.validate() == []


def test_the_layers_share_one_wording_with_a_prefix():
    k = TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(2))
    k.comp1[("id_*", "id_*")] = UNKNOWN
    assert k.validate() == ["1-cells: composite id_*oid_* is not an arrow"]
    k = TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(2))
    k.vinv["g1"] = UNKNOWN
    assert k.validate() == ["2-cells: inverse of g1 is not an arrow"]
    g = FiniteGroupoid.from_group(GroupTable.cyclic(2))
    g.inverses["g1"] = UNKNOWN
    assert g.validate() == ["inverse of g1 is not an arrow"]


def test_an_arrow_outside_the_objects_ends_the_check_before_the_identity_laws():
    # the composition table leaves out every pair starting at g1, so the
    # table checks pass and only the identity law would look up "zz"
    g = FiniteGroupoid.from_group(GroupTable.cyclic(2))
    g.arrows["g1"] = ("zz", "*")
    g.comp = {(f, h): fh for (f, h), fh in g.comp.items() if f != "g1"}
    with pytest.raises(KeyError):
        reference_groupoid_problems(g)
    assert g.validate() == ["arrow g1 has endpoints outside the object set"]


def test_a_category_needs_no_inverses():
    site = FiniteSite.two_object_site()
    assert category_problems(site.objects, site.arrows, site.comp, site.identities) == []
    comp = {**site.comp, ("idU", "f"): "idU"}
    assert category_problems(site.objects, site.arrows, comp, site.identities, layer="C: ") == [
        "C: composite idUof has wrong endpoints",
        "C: left identity law fails at f",
        "C: associativity fails at (idU,f,idV)",
    ]


# -- functors ---------------------------------------------------------------------------


def functor_two_groupoid_fixtures():
    """The 2-groupoids of the benchmark's ``build_validate`` mix (chaotic groupoids
    of the trivial group, Z/2, Z/3 and V4 on one and two objects, and pi_2 = Z/2,
    Z/3), pi_2 = Z/4, and a disjoint union."""
    z2 = GroupTable.cyclic(2)
    groups = {
        "1": GroupTable.trivial(),
        "Z/2": z2,
        "Z/3": GroupTable.cyclic(3),
        "V4": GroupTable.direct_product(z2, GroupTable.cyclic(2, prefix="h")),
    }
    fixtures = {
        f"chaotic {name} on {n}": TwoGroupoid.from_groupoid(
            FiniteGroupoid.chaotic([f"o{j}" for j in range(n)], group)
        )
        for name, group in groups.items()
        for n in (1, 2)
    }
    for n in (2, 3, 4):
        fixtures[f"pi_2 = Z/{n}"] = TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(n))
    fixtures["pi_2 = Z/2 + interval"] = TwoGroupoid.disjoint_union(
        TwoGroupoid.one_object_with_pi2(z2), TwoGroupoid.from_groupoid(FiniteGroupoid.interval())
    )
    return fixtures


def horizontal_mutants():
    """Every ``hcomp`` entry of each 2-groupoid fixture corrupted."""
    for name, k in functor_two_groupoid_fixtures().items():
        for label, t in _mutants({"hcomp": k.hcomp}, {"hcomp": k.cells2}):
            tables = [t["hcomp"] if f == "hcomp" else getattr(k, f) for f in TWO_GROUPOID_TABLES]
            yield f"{name}: {label}", TwoGroupoid(k.objects, *tables)


def groupoid_homs():
    """{name: map}: the identities of the groupoid fixtures, and the face and
    degeneracy maps of two Dold-Kan simplicial groupoids."""
    homs = {f"identity of {name}": GroupoidHom.identity(g) for name, g in groupoid_fixtures().items()}
    z2, z4 = FiniteAbelianGroup([2]), FiniteAbelianGroup([4])
    chains = {
        "Z/2 <- Z/2": ChainFixture([z2, z2], [AbelianHom(z2, z2, [(1,)])]),
        "Z/2 <- Z/4": ChainFixture([z2, z4], [AbelianHom(z4, z2, [(1,)])]),
    }
    for chain_name, chain in chains.items():
        sgpd = dold_kan(chain, 2)
        for kind, table in (("d", sgpd.faces), ("s", sgpd.degeneracies)):
            for (n, i), hom in sorted(table.items()):
                homs[f"Dold-Kan {chain_name}: {kind}_{i} at level {n}"] = hom
    return homs


def groupoid_hom_mutants():
    for name, hom in groupoid_homs().items():
        tables = {"obj_map": hom.obj_map, "arrow_map": hom.arrow_map}
        ids = {"obj_map": hom.target.objects, "arrow_map": hom.target.arrows}
        for label, t in _mutants(tables, ids):
            yield f"{name}: {label}", GroupoidHom(
                hom.source, hom.target, t["obj_map"], t["arrow_map"]
            )


def two_functor_mutants():
    """Every entry of the three maps of each fixture's identity 2-functor corrupted."""
    for name, k in functor_two_groupoid_fixtures().items():
        ident = TwoFunctor.identity(k)
        tables = {"obj_map": ident.obj_map, "map1": ident.map1, "map2": ident.map2}
        ids = {"obj_map": k.objects, "map1": k.cells1, "map2": k.cells2}
        for label, t in _mutants(tables, ids):
            yield f"{name}: {label}", TwoFunctor(k, k, t["obj_map"], t["map1"], t["map2"])


class GroupHom:
    """A map of groups as the group-valued presheaves hold it, with its ends."""

    def __init__(self, m, source, target):
        self.m, self.source, self.target = m, source, target

    def validate(self):
        return DOMAINS["group"].validate_morphism(self.m, self.source, self.target)


def group_hom_mutants():
    """Every entry of homomorphisms between cyclic groups corrupted."""
    z2, z3, z4, z6 = (GroupTable.cyclic(n) for n in (2, 3, 4, 6))
    homs = {
        "Z/2 -> Z/2": ({"g0": "g0", "g1": "g1"}, z2, z2),
        "Z/4 -> Z/2": ({f"g{i}": f"g{i % 2}" for i in range(4)}, z4, z2),
        "Z/2 -> Z/4": ({"g0": "g0", "g1": "g2"}, z2, z4),
        "Z/6 -> Z/3": ({f"g{i}": f"g{i % 3}" for i in range(6)}, z6, z3),
        "Z/3 -> Z/6": ({f"g{i}": f"g{2 * i}" for i in range(3)}, z3, z6),
    }
    for name, (m, src, tgt) in homs.items():
        yield f"{name}: valid", GroupHom(m, src, tgt)
        for label, t in _mutants({"m": m}, {"m": tgt.elements}):
            yield f"{name}: {label}", GroupHom(t["m"], src, tgt)


def test_functor_checks_match_their_references_on_every_mutant():
    corpora = {
        "groupoid map": (groupoid_hom_mutants, reference_groupoid_hom_problems),
        "2-functor": (two_functor_mutants, reference_two_functor_problems),
        "group map": (
            group_hom_mutants,
            lambda h: reference_group_hom_problems(h.m, h.source, h.target),
        ),
        "horizontal": (horizontal_mutants, reference_two_groupoid_problems),
    }
    for name, (mutants, reference) in corpora.items():
        mutants = list(mutants())
        runs = [_run(lambda x=x: reference(x)) for _, x in mutants]
        assert len(mutants) > 30 and any(runs), name
        assert _disagreements(mutants, reference, lambda x: x.validate()) == [], name


def test_the_functor_fixtures_are_valid():
    for hom in groupoid_homs().values():
        assert hom.validate() == reference_groupoid_hom_problems(hom) == []
    for k in functor_two_groupoid_fixtures().values():
        assert k.validate() == reference_two_groupoid_problems(k) == []
        assert TwoFunctor.identity(k).validate() == []


def test_unknown_ids_are_named():
    hom = GroupoidHom.identity(FiniteGroupoid.from_group(GroupTable.cyclic(2)))
    hom.arrow_map["g1"] = UNKNOWN
    with pytest.raises(KeyError):
        reference_groupoid_hom_problems(hom)
    assert hom.validate() == ["image 'zz' of arrow g1 is not a target arrow"]
    k = TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(2))
    k.hcomp[("g1", "g1")] = UNKNOWN
    assert reference_two_groupoid_problems(k) == ["horizontal composite g1*g1 has wrong frame"]
    assert k.validate() == ["horizontal: composite g1og1 is not an arrow"]


def test_the_horizontal_layers_name_their_functor():
    k = TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(2))
    k.hcomp[("g0", "g0")] = "g1"
    assert k.validate() == [
        "horizontal: right identity law fails at g0",
        "horizontal: left identity law fails at g0",
        "horizontal: associativity fails at (g0,g0,g1)",
    ]
    # a composite over the wrong 1-cell: pi_1 = Z/2 with identity 2-cells only
    k = TwoGroupoid.from_groupoid(FiniteGroupoid.from_group(GroupTable.cyclic(2)))
    k.hcomp[("i[g1]", "i[g1]")] = "i[g1]"
    assert k.validate() == [
        "2-cell sources: horizontal composition not preserved at (i[g1],i[g1])",
        "2-cell targets: horizontal composition not preserved at (i[g1],i[g1])",
        "identity 2-cells: composition not preserved at (g1,g1)",
    ]


def _free_into(arrow_map):
    """A map from the interval into the free groupoid on a, b: 0 -> 1."""
    free = FreeGroupoid(["0", "1"], {"a": ("0", "1"), "b": ("0", "1")})
    interval = FiniteGroupoid.interval()
    words = {
        "a": free.gen("a"),
        "a-": free.inv(free.gen("a")),
        "b-": free.inv(free.gen("b")),
        "id0": free.identity("0"),
        "id1": free.identity("1"),
    }
    images = {arrow: words.get(image, image) for arrow, image in arrow_map.items()}
    return GroupoidHom(interval, free, {"0": "0", "1": "1"}, images)


def test_a_finite_groupoid_maps_into_a_free_one():
    good = {"0>0:e": "id0", "1>1:e": "id1", "0>1:e": "a", "1>0:e": "a-"}
    assert _free_into(good).validate() == reference_groupoid_hom_problems(_free_into(good)) == []
    crossed = {**good, "1>0:e": "b-"}
    assert reference_groupoid_hom_problems(_free_into(crossed))
    assert _free_into(crossed).validate() == ["composition not preserved at (0>1:e,1>0:e)"]
    assert _free_into({**good, "0>1:e": "id0"}).validate() == [
        "image of arrow 0>1:e has wrong endpoints"
    ]
    assert _free_into({**good, "0>1:e": UNKNOWN}).validate() == [
        "image 'zz' of arrow 0>1:e is not a target arrow"
    ]


def test_a_free_groupoid_maps_by_its_generators():
    free = FreeGroupoid(["0", "1"], {"a": ("0", "1")})
    interval = FiniteGroupoid.interval()
    hom = GroupoidHom(free, interval, {"0": "0", "1": "1"}, {"a": "0>1:e"})
    assert hom.validate() == reference_groupoid_hom_problems(hom) == []
    hom.arrow_map["a"] = "1>0:e"
    assert hom.validate() == reference_groupoid_hom_problems(hom) == [
        "image of generator a has wrong endpoints"
    ]
    hom.arrow_map["a"] = UNKNOWN
    with pytest.raises(KeyError):
        reference_groupoid_hom_problems(hom)
    assert hom.validate() == ["image 'zz' of generator a is not a target generator"]


def test_the_functor_layers_share_one_wording():
    k = TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(2))
    broken = TwoFunctor(k, k, {"*": "*"}, {"id_*": "id_*"}, {"g0": "g1", "g1": "g1"})
    assert broken.validate() == [
        "identity at id_* not preserved",
        "vertical composition not preserved at (g0,g0)",
    ]
    z2 = GroupTable.cyclic(2)
    assert DOMAINS["group"].validate_morphism({"g0": "g1", "g1": "g1"}, z2, z2) == [
        "identity at * not preserved",
        "product not preserved at (g0,g0)",
    ]
    assert functor_problems(
        z2.tables(), z2.tables(), {"*": "*"}, {"g0": "g0"}, ("object", "element", "product"), "Z/2: "
    ) == ["Z/2: element map not total"]


# -- simplicial identities and commutation ------------------------------------------------


def _legacy_wording(problems):
    """New-style simplicial problems in the wording of the replaced groupoid
    loop: no element named, and one ``d s != id`` per element and s_j."""
    out, seen = [], set()
    for p in problems:
        m = re.match(r"^d_\d+ s_(\d+) != id at level (\d+) on (.*)$", p)
        if m:
            j, n, x = m.groups()
            if (n, j, x) not in seen:
                seen.add((n, j, x))
                out.append(f"d s != id at level {n}, s_{j}")
            continue
        out.append(re.sub(r" on .*$", "", p))
    return out


def sgpd_fixtures():
    z2 = FiniteAbelianGroup([2])
    chain = ChainFixture([z2, z2], [AbelianHom(z2, z2, [(1,)])])
    return {
        "constant Z/2": SimplicialGroupoid.constant(FiniteGroupoid.from_group(GroupTable.cyclic(2)), 2),
        "constant interval": SimplicialGroupoid.constant(FiniteGroupoid.interval(), 2),
        "Dold-Kan Z/2 -> Z/2": dold_kan(chain, 2),
    }


def _with_entry(hom, arrow, image):
    return GroupoidHom(hom.source, hom.target, hom.obj_map, {**hom.arrow_map, arrow: image})


def sgpd_mutants():
    """Every operator entry of each fixture sent to another arrow of its target."""
    for name, sgpd in sgpd_fixtures().items():
        for table_name in ("faces", "degeneracies"):
            table = getattr(sgpd, table_name)
            for key, hom in sorted(table.items()):
                for arrow, image in sorted(hom.arrow_map.items()):
                    new = _other(hom.target.arrows, image)
                    ops = {**table, key: _with_entry(hom, arrow, new)}
                    faces = ops if table_name == "faces" else sgpd.faces
                    degeneracies = ops if table_name == "degeneracies" else sgpd.degeneracies
                    yield (
                        f"{name}: {table_name}{key}[{arrow}] = {new}",
                        SimplicialGroupoid(sgpd.objects, sgpd.levels, faces, degeneracies),
                    )


def test_sgpd_identities_match_the_per_arrow_loop():
    for label, sgpd in sgpd_mutants():
        assert _legacy_wording(sgpd.validate()) == reference_sgpd_problems(sgpd), label


def test_sgpd_identities_on_free_levels_and_valid_fixtures():
    fixtures = dict(sgpd_fixtures())
    for kind, n, depth in (("Delta", 1, 3), ("sphere", 1, 3), ("boundary", 2, 3)):
        fixtures[f"loop groupoid of {kind}{n}"] = loop_groupoid(
            standard_complex(kind, n, depth=depth), depth - 1
        )
    for sgpd in fixtures.values():
        assert sgpd.validate() == reference_sgpd_problems(sgpd) == []
    assert sum(1 for _, sgpd in sgpd_mutants() if sgpd.validate()) > 10


def sgpd_map_mutants():
    for name, sgpd in sgpd_fixtures().items():
        ident = SimplicialGroupoidMap.identity(sgpd)
        yield f"{name}: identity", ident
        for n, hom in enumerate(ident.level_homs):
            for arrow, image in sorted(hom.arrow_map.items()):
                homs = list(ident.level_homs)
                homs[n] = _with_entry(hom, arrow, _other(hom.target.arrows, image))
                yield f"{name}: level {n}[{arrow}]", SimplicialGroupoidMap(
                    sgpd, sgpd, ident.obj_map, homs
                )


def test_sgpd_map_commutation_matches_the_per_arrow_loop():
    for label, m in sgpd_map_mutants():
        assert [re.sub(r" on .*$", "", p) for p in m.validate()] == reference_sgpd_map_problems(m), label


def test_sgpd_map_problems_name_the_arrow():
    sgpd = sgpd_fixtures()["constant Z/2"]
    ident = SimplicialGroupoidMap.identity(sgpd)
    crush = GroupoidHom(sgpd.levels[1], sgpd.levels[1], {"*": "*"}, {"g0": "g0", "g1": "g0"})
    m = SimplicialGroupoidMap(sgpd, sgpd, ident.obj_map, [ident.level_homs[0], crush, ident.level_homs[2]])
    assert m.validate()[:2] == [
        "does not commute with d_0 at level 1 on g1",
        "does not commute with d_1 at level 1 on g1",
    ]


# -- output order does not depend on the hash seed ------------------------------------------


def test_validate_prints_the_same_bytes_under_every_hash_seed(tmp_path):
    data = FiniteGroupoid.from_group(GroupTable.cyclic(3)).to_json()
    data["comp"]["g1|g1"] = "g1"
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(data))
    outputs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.path.join(ROOT, "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "hpk.cli", "validate", str(path)],
            capture_output=True,
            env=env,
            check=False,
        )
        assert proc.returncode == 1 and proc.stderr == b""
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["reports"][0]["violations"] == [
        "associativity fails at (g1,g1,g2)"
    ]
