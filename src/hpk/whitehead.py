"""The combinatorial left adjoint to the 2-groupoid nerve, as a presentation.

``whitehead_2gpd`` turns a depth >= 3 complex into a presented 2-groupoid:
objects are the vertices, 1-cell generators the nondegenerate edges, 2-cell
generators the nondegenerate triangles (framed as "edge01 then edge12 =>
edge02"), and relations the tetrahedron cocycles.  The adjoint-transpose law
against the nerve holds by construction and is enforced by hom-counting.

Two-cells of a presentation are vertical lists of whiskered generator layers;
they are evaluated into a finite 2-groupoid (``PresentedFunctor``), never
compared with each other.  ``counit_weak_equivalence`` proves the counit
W(N K) -> K a weak equivalence exactly: finite witnesses make it onto
pi_0, pi_1 and pi_2, and the universal cover of the nerve (``hpk.cover``)
shows that the groups on both sides have the same finite orders.
"""

from math import prod

from .groups import PresentedGroup, free_reduce, invert_word
from .homsearch import level_search
from .sset import _UnionFind


class Layer(tuple):
    """(pre, gen2, sign, post): a single whiskered 2-generator."""

    __slots__ = ()

    def __new__(cls, pre, gen, sign, post):
        return super().__new__(cls, (tuple(pre), gen, sign, tuple(post)))

    @property
    def pre(self):
        return self[0]

    @property
    def gen(self):
        return self[1]

    @property
    def sign(self):
        return self[2]

    @property
    def post(self):
        return self[3]


class PresentedTwoGroupoid:
    def __init__(self, objects, gens1, gens2, relations, anchors2=None):
        self.objects = tuple(sorted(objects))
        self.gens1 = {g: (s, t) for g, (s, t) in gens1.items()}
        self.gens2 = {a: (free_reduce(s), free_reduce(t)) for a, (s, t) in gens2.items()}
        # anchor object of each 2-generator's frame (needed when both frame
        # words are empty and endpoints cannot be read off the letters)
        self.anchors2 = dict(anchors2 or {})
        for a, (src, tgt) in self.gens2.items():
            if a not in self.anchors2:
                word = src or tgt
                if not word:
                    raise ValueError(f"2-generator {a} with empty frame needs an anchor")
                self.anchors2[a] = self.word_endpoints(word)[0]
        self.relations = []
        for lhs, rhs in relations:
            lhs, rhs = tuple(lhs), tuple(rhs)
            if lhs == rhs:
                continue
            self._check_sides(lhs, rhs)
            self.relations.append((lhs, rhs))

    # -- words -----------------------------------------------------------------

    def word_endpoints(self, word, at=None):
        if not word:
            if at is None:
                raise ValueError("empty word needs an anchor object")
            return at, at
        src = None
        cur = None
        for g, e in word:
            s, t = self.gens1[g]
            if e == -1:
                s, t = t, s
            if cur is not None and cur != s:
                raise ValueError(f"word letters do not chain at {g}")
            if src is None:
                src = s
            cur = t
        return src, cur

    def layer_source(self, layer):
        body = self.gens2[layer.gen][0 if layer.sign == 1 else 1]
        return layer.pre + body + layer.post

    def layer_target(self, layer):
        body = self.gens2[layer.gen][1 if layer.sign == 1 else 0]
        return layer.pre + body + layer.post

    def word_source(self, layers):
        return self.layer_source(layers[0]) if layers else None

    def word_target(self, layers):
        return self.layer_target(layers[-1]) if layers else None

    def _check_sides(self, lhs, rhs):
        for layers in (lhs, rhs):
            for prev, nxt in zip(layers, layers[1:]):
                if self.layer_target(prev) != self.layer_source(nxt):
                    raise ValueError("relation side does not chain vertically")
        if lhs and rhs:
            if self.word_source(lhs) != self.word_source(rhs) or self.word_target(
                lhs
            ) != self.word_target(rhs):
                raise ValueError("relation sides have different boundaries")
        elif lhs or rhs:
            side = lhs or rhs
            if self.word_source(side) != self.word_target(side):
                raise ValueError("one-sided relation must be an endo 2-cell")

    # -- homotopy of the presentation -------------------------------------------

    def pi0(self):
        uf = _UnionFind()
        for o in self.objects:
            uf.add(o)
        for g, (s, t) in self.gens1.items():
            uf.union(s, t)
        return tuple(sorted(uf.classes().values()))

    def pi1_presentation(self, x):
        """The vertex group at x: generators modulo 2-cell frame relations."""
        tree = {x: ()}
        frontier = [x]
        while frontier:
            w = frontier.pop(0)
            for g in sorted(self.gens1):
                s, t = self.gens1[g]
                if s == w and t not in tree:
                    tree[t] = tree[w] + ((g, 1),)
                    frontier.append(t)
                if t == w and s not in tree:
                    tree[s] = tree[w] + ((g, -1),)
                    frontier.append(s)
        component_gens = [
            g for g, (s, t) in sorted(self.gens1.items()) if s in tree and t in tree
        ]

        def loop_word(word, src, tgt):
            return free_reduce(tree[src] + word + invert_word(tree[tgt]))

        relators = []
        for a, (src_word, tgt_word) in sorted(self.gens2.items()):
            word = src_word or tgt_word
            if not word:
                continue  # both frames empty: no pi_1 content
            s, t = self.word_endpoints(word)
            if s not in tree:
                continue
            u = loop_word(src_word, s, t)
            v = loop_word(tgt_word, s, t)
            relators.append(u + invert_word(v))
        tree_edges = set()
        for word in tree.values():
            for g, _ in word:
                tree_edges.add(g)
        relators.extend(((g, 1),) for g in sorted(tree_edges))
        return PresentedGroup(component_gens, relators)


# -- the left adjoint ----------------------------------------------------------


def whitehead_2gpd(sset):
    """The presented 2-groupoid of a complex (depth >= 3 required)."""
    if sset.depth < 3:
        from .sset import InsufficientDepth

        raise InsufficientDepth("whitehead 2-groupoid needs depth >= 3")

    degenerate1 = sset.degenerate_ids(1)
    degenerate2 = sset.degenerate_ids(2)
    degenerate3 = sset.degenerate_ids(3)

    def letter(edge):
        return () if edge in degenerate1 else ((edge, 1),)

    gens1 = {
        e: (sset.face(1, 1, e), sset.face(1, 0, e))
        for e in sset.levels[1]
        if e not in degenerate1
    }
    gens2 = {}
    anchors2 = {}
    for t in sset.levels[2]:
        if t in degenerate2:
            continue
        src = letter(sset.face(2, 2, t)) + letter(sset.face(2, 0, t))
        tgt = letter(sset.face(2, 1, t))
        gens2[t] = (src, tgt)
        anchors2[t] = sset.vertex(2, t, 0)

    def layer_for(t, pre, post):
        if t in degenerate2:
            return None
        return Layer(pre, t, 1, post)

    relations = []
    for w in sset.levels[3]:
        if w in degenerate3:
            continue
        t0 = sset.face(3, 0, w)
        t1 = sset.face(3, 1, w)
        t2 = sset.face(3, 2, w)
        t3 = sset.face(3, 3, w)
        f01 = sset.face(2, 2, t3)
        f23 = sset.face(2, 0, t0)
        lhs = [layer_for(t0, letter(f01), ()), layer_for(t2, (), ())]
        rhs = [layer_for(t3, (), letter(f23)), layer_for(t1, (), ())]
        lhs = tuple(l for l in lhs if l is not None)
        rhs = tuple(l for l in rhs if l is not None)
        if lhs or rhs:
            relations.append((lhs, rhs))
    return PresentedTwoGroupoid(sset.levels[0], gens1, gens2, relations, anchors2=anchors2)


# -- evaluation into a finite 2-groupoid ----------------------------------------


class PresentedFunctor:
    """An assignment of presentation generators into a finite 2-groupoid."""

    def __init__(self, presented, target, obj_map, map1, map2):
        self.presented = presented
        self.target = target
        self.obj_map = dict(obj_map)
        self.map1 = dict(map1)
        self.map2 = dict(map2)

    def eval_word(self, word, at=None):
        k = self.target
        if not word:
            if at is None:
                raise ValueError("empty word needs an anchor object")
            return k.id1[self.obj_map[at]]
        src, _ = self.presented.word_endpoints(word)
        acc = k.id1[self.obj_map[src]]
        for g, e in word:
            cell = self.map1[g]
            if e == -1:
                cell = k.inv1[cell]
            acc = k.comp1[(cell, acc)]
        return acc

    def eval_layer(self, layer):
        k = self.target
        body = self.map2[layer.gen]
        if layer.sign == -1:
            body = k.vinv[body]
        if layer.pre:
            pre_cell = self.eval_word(layer.pre)
            body = k.hcomp[(body, k.id2[pre_cell])]
        if layer.post:
            post_cell = self.eval_word(layer.post)
            body = k.hcomp[(k.id2[post_cell], body)]
        return body

    def eval_layers(self, layers, source_word=None, at=None):
        k = self.target
        if not layers:
            if source_word is None:
                raise ValueError("empty 2-cell word needs its boundary word")
            return k.id2[self.eval_word(source_word, at=at)]
        acc = self.eval_layer(layers[0])
        for layer in layers[1:]:
            acc = k.vcomp[(self.eval_layer(layer), acc)]
        return acc

    def _side_anchor(self, layers):
        for layer in layers:
            src_word = self.presented.layer_source(layer)
            if src_word:
                return self.presented.word_endpoints(src_word)[0]
            if not layer.pre:
                return self.presented.anchors2[layer.gen]
        return None

    def relations_hold(self):
        p = self.presented
        for lhs, rhs in p.relations:
            src = p.word_source(lhs) if lhs else p.word_source(rhs)
            anchor = self._side_anchor(lhs) or self._side_anchor(rhs)
            left = self.eval_layers(lhs, source_word=src, at=anchor)
            right = self.eval_layers(rhs, source_word=src, at=anchor)
            if left != right:
                return False
        return True


def count_presented_functors(presented, k):
    """|Hom| from a presented 2-groupoid into a finite 2-groupoid.

    The level-wise search of ``homsearch`` over objects, then 1-cell
    generators, then 2-cell generators, with the relations as the check on
    each full assignment.
    """
    gen1_list = sorted(presented.gens1)
    gen2_list = sorted(presented.gens2)

    def rule(n, assigned):
        if n == 0:
            return {}, [(o, list(k.objects)) for o in presented.objects], None
        obj_map = assigned[0]
        open_vars = []
        if n == 1:
            for g in gen1_list:
                s, t = presented.gens1[g]
                open_vars.append((g, k.cells1_between(obj_map[s], obj_map[t])))
        else:
            functor = PresentedFunctor(presented, k, obj_map, assigned[1], {})
            for a in gen2_list:
                src_word, tgt_word = presented.gens2[a]
                anchor = presented.anchors2[a]
                src_cell = functor.eval_word(src_word, at=anchor)
                tgt_cell = functor.eval_word(tgt_word, at=anchor)
                open_vars.append((a, k.cells2_between(src_cell, tgt_cell)))

        def relations_hold(map2):
            return PresentedFunctor(presented, k, obj_map, assigned[1], map2).relations_hold()

        return {}, open_vars, relations_hold if n == 2 else None

    return sum(1 for _ in level_search(2, rule))


# -- the counit into a finite 2-groupoid ----------------------------------------


def counit_functor(k, nerve_sset):
    """The evaluation W(N K) -> K on the presented left adjoint."""
    from .two_groupoids import _triangles, triangle_name

    presented = whitehead_2gpd(nerve_sset)
    obj_map = {o: o for o in presented.objects}
    map1 = {e: e for e in presented.gens1}
    cell_of = {triangle_name(*t): t[3] for t in _triangles(k)}
    map2 = {t: cell_of[t] for t in presented.gens2}
    return PresentedFunctor(presented, k, obj_map, map1, map2)




def counit_weak_equivalence(k):
    """Exact check that the counit W(N K) -> K is an MS weak equivalence.

    Certificates: evaluation respects the relations; objects and 1-cells are
    covered; composite and fullness witnesses exist among the 2-generators,
    so the counit is onto pi_0, pi_1 and pi_2.  For one object x in each
    component, the universal cover of N K (``hpk.cover``) gives the orders
    of pi_1 and pi_2 of W(N K) at x; equal to those of K, they make the
    counit bijective there.  If pi_1 outgrows the coset cap the answer is
    None ("unknown").
    """
    from .cover import cover_invariants
    from .two_groupoids import nerve, pi_2gpd, triangle_name

    nerve_sset = nerve(k, 3)
    eps = counit_functor(k, nerve_sset)
    presented = eps.presented
    details = {"generators": {"dim1": len(presented.gens1), "dim2": len(presented.gens2)}}

    if not eps.relations_hold():
        return False, {**details, "reason": "relations not respected"}

    for obj in k.objects:
        if obj not in presented.objects:
            return False, {**details, "reason": "object not covered", "object": obj}
    for f, (s, t) in k.cells1.items():
        if f == k.id1[s]:
            continue
        if f not in presented.gens1:
            return False, {**details, "reason": "1-cell not covered", "cell": f}

    # fullness witnesses: composite normalisation and parallel 2-cells
    nonid = [f for f, (s, t) in k.cells1.items() if f != k.id1[s]]
    for f in nonid:
        for g in nonid:
            if k.src1(g) != k.tgt1(f):
                continue
            h = k.comp1[(g, f)]
            witness = triangle_name(f, g, h, k.id2[h])
            if witness not in presented.gens2:
                return False, {
                    **details,
                    "reason": "missing composite witness",
                    "pair": (f, g),
                }
    for x in k.objects:
        for y in k.objects:
            one_cells = list(k.cells1_between(x, y))
            for u in one_cells:
                for v in one_cells:
                    for beta in k.cells2_between(u, v):
                        if u == v and beta == k.id2[u]:
                            continue
                        witness = triangle_name(k.id1[x], u, v, beta)
                        if witness not in presented.gens2:
                            return False, {
                                **details,
                                "reason": "missing fullness witness",
                                "cells": (u, v, beta),
                            }

    # injectivity on pi_1 and pi_2: equal finite orders, one object per component
    components = details["components"] = []
    for members in presented.pi0():
        x = min(members)
        invariants = cover_invariants(nerve_sset, x)
        if invariants is None:
            return None, {**details, "reason": "pi1 outgrew the coset cap", "object": x}
        sheets, (free_rank, torsion) = invariants
        components.append({"object": x, "sheets": sheets, "pi2": [free_rank, torsion]})
        if sheets != pi_2gpd(k, x, 1).order:
            return False, {**details, "reason": "pi1 orders differ", "object": x}
        if free_rank or prod(torsion) != pi_2gpd(k, x, 2).order:
            return False, {**details, "reason": "pi2 orders differ", "object": x}
    return True, details
