"""The combinatorial left adjoint to the 2-groupoid nerve, as a presentation.

``whitehead_2gpd`` turns a depth >= 3 complex into a presented 2-groupoid:
objects are the vertices, 1-cell generators the nondegenerate edges, 2-cell
generators the nondegenerate triangles (framed as "edge01 then edge12 =>
edge02"), and relations the tetrahedron cocycles.  The adjoint-transpose law
against the nerve holds by construction and is enforced by hom-counting.

Two-cells of a presentation are vertical lists of whiskered generator layers.
Equality of 2-cell words is a bounded rewriting search (cancellation,
interchange swaps, relation rewrites) and may answer ``None`` ("unknown"),
which consumers must surface loudly.  Layers are only formed where the
whiskered word concatenation is already reduced; candidates that would
cancel across segment boundaries are not offered, which can only make the
search answer "unknown" more often, never wrongly.
"""

from .budgets import DEFAULT_REWRITE_BUDGET, Meter, env_budget
from .groups import PresentedGroup
from .homsearch import level_search
from .sset import _UnionFind


def _reduced(word):
    out = []
    for letter in word:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _concat_is_reduced(*words):
    total = []
    for word in words:
        for letter in word:
            if total and total[-1][0] == letter[0] and total[-1][1] == -letter[1]:
                return False
            total.append(letter)
    return True


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

    def inverted(self):
        return Layer(self.pre, self.gen, -self.sign, self.post)


class PresentedTwoGroupoid:
    def __init__(self, objects, gens1, gens2, relations, anchors2=None, budget=None):
        self.objects = tuple(sorted(objects))
        self.gens1 = {g: (s, t) for g, (s, t) in gens1.items()}
        self.gens2 = {a: (_reduced(s), _reduced(t)) for a, (s, t) in gens2.items()}
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
        self.budget = env_budget(DEFAULT_REWRITE_BUDGET if budget is None else budget)
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

    def word_source(self, layers, default=None):
        return self.layer_source(layers[0]) if layers else default

    def word_target(self, layers, default=None):
        return self.layer_target(layers[-1]) if layers else default

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

    # -- rewriting ----------------------------------------------------------------

    def _object_at_cut(self, word, cut):
        """Object sitting at position ``cut`` of a nonempty word."""
        if cut == 0:
            return self.word_endpoints(word[:1])[0]
        return self.word_endpoints(word[:cut])[1]

    def applicable_layers(self, word):
        """All single layers whose source is ``word``.

        For an empty word the generator anchors cannot be checked here; use
        an external anchor filter in that case.
        """
        out = []
        for a in sorted(self.gens2):
            for sign in (1, -1):
                body = self.gens2[a][0 if sign == 1 else 1]
                n = len(body)
                for i in range(len(word) - n + 1):
                    if word[i : i + n] == body:
                        if n == 0 and word:
                            if self._object_at_cut(word, i) != self.anchors2[a]:
                                continue
                        pre, post = word[:i], word[i + n :]
                        target_body = self.gens2[a][1 if sign == 1 else 0]
                        if _concat_is_reduced(pre, target_body, post):
                            out.append(Layer(pre, a, sign, post))
        return out

    def _neighbors(self, layers, source_word):
        found = []
        layers = tuple(layers)
        # cancellation of adjacent inverse layers
        for i in range(len(layers) - 1):
            l1, l2 = layers[i], layers[i + 1]
            if l1.pre == l2.pre and l1.post == l2.post and l1.gen == l2.gen and l1.sign == -l2.sign:
                found.append(layers[:i] + layers[i + 2 :])
        # interchange swaps of adjacent layers with disjoint segments
        for i in range(len(layers) - 1):
            swapped = self._swap(layers[i], layers[i + 1])
            if swapped is not None:
                found.append(layers[:i] + swapped + layers[i + 2 :])
        # relation rewrites (either side, either orientation, inverted or not)
        for lhs, rhs in self.relations:
            for pattern, replacement in ((lhs, rhs), (rhs, lhs)):
                for inverted in (False, True):
                    pat = (
                        tuple(l.inverted() for l in reversed(pattern))
                        if inverted
                        else pattern
                    )
                    rep = (
                        tuple(l.inverted() for l in reversed(replacement))
                        if inverted
                        else replacement
                    )
                    if pat:
                        found.extend(self._rewrite_matches(layers, pat, rep))
                    elif rep:
                        found.extend(self._insert_matches(layers, source_word, rep))
        return found

    def _insert_matches(self, layers, source_word, block):
        """Insert whiskered instances of an endo block at any vertical position."""
        if source_word is None:
            return []
        body_src = self.word_source(block)
        body_tgt = self.word_target(block)
        if body_src != body_tgt:
            return []
        block_anchor = None
        if not body_src and block:
            first = block[0]
            if first.pre:
                block_anchor = self.word_endpoints(first.pre)[0]
            else:
                inner = self.gens2[first.gen][0 if first.sign == 1 else 1]
                block_anchor = (
                    self.word_endpoints(inner)[0] if inner else self.anchors2[first.gen]
                )
        out = []
        words = [source_word]
        for layer in layers:
            words.append(self.layer_target(layer))
        n = len(body_src)
        for i, word in enumerate(words):
            for cut in range(len(word) - n + 1):
                if word[cut : cut + n] != body_src:
                    continue
                if n == 0 and word and block_anchor is not None:
                    if self._object_at_cut(word, cut) != block_anchor:
                        continue
                pre, post = word[:cut], word[cut + n :]
                new_block = tuple(
                    Layer(pre + l.pre, l.gen, l.sign, l.post + post) for l in block
                )
                if not all(self._layer_is_reduced(l) for l in new_block):
                    continue
                candidate = layers[:i] + new_block + layers[i:]
                if self._chains(candidate):
                    out.append(candidate)
        return out

    def _layer_is_reduced(self, layer):
        src_body = self.gens2[layer.gen][0 if layer.sign == 1 else 1]
        tgt_body = self.gens2[layer.gen][1 if layer.sign == 1 else 0]
        return _concat_is_reduced(layer.pre, src_body, layer.post) and _concat_is_reduced(
            layer.pre, tgt_body, layer.post
        )

    def _swap(self, l1, l2):
        """Interchange: l1 then l2 -> l2' then l1' when segments are disjoint."""
        tgt1_body = self.gens2[l1.gen][1 if l1.sign == 1 else 0]
        src1_body = self.gens2[l1.gen][0 if l1.sign == 1 else 1]
        src2_body = self.gens2[l2.gen][0 if l2.sign == 1 else 1]
        tgt2_body = self.gens2[l2.gen][1 if l2.sign == 1 else 0]
        # l2 acts inside l1's pre?
        if len(l2.pre) + len(src2_body) <= len(l1.pre):
            if l1.pre[len(l2.pre) : len(l2.pre) + len(src2_body)] != src2_body:
                return None
            tail = l1.pre[len(l2.pre) + len(src2_body) :]
            new_l2 = Layer(l2.pre, l2.gen, l2.sign, tail + src1_body + l1.post)
            new_l1 = Layer(l2.pre + tgt2_body + tail, l1.gen, l1.sign, l1.post)
            if not (self._layer_is_reduced(new_l1) and self._layer_is_reduced(new_l2)):
                return None
            if self.layer_target(new_l1) != self.layer_target(l2):
                return None
            return (new_l2, new_l1)
        # l2 acts inside l1's post?
        offset = len(l1.pre) + len(tgt1_body)
        if len(l2.pre) >= offset:
            rel = len(l2.pre) - offset
            if l1.post[rel : rel + len(src2_body)] != src2_body:
                return None
            new_l2 = Layer(
                l1.pre + src1_body + l1.post[:rel],
                l2.gen,
                l2.sign,
                l1.post[rel + len(src2_body) :],
            )
            new_l1 = Layer(
                l1.pre,
                l1.gen,
                l1.sign,
                l1.post[:rel] + tgt2_body + l1.post[rel + len(src2_body) :],
            )
            if not (self._layer_is_reduced(new_l1) and self._layer_is_reduced(new_l2)):
                return None
            if self.layer_target(new_l1) != self.layer_target(l2):
                return None
            return (new_l2, new_l1)
        return None

    def _rewrite_matches(self, layers, pattern, replacement):
        out = []
        plen = len(pattern)
        for i in range(len(layers) - plen + 1):
            window = layers[i : i + plen]
            context = self._match_with_context(window, pattern)
            if context is None:
                continue
            pre, post = context
            new_block = tuple(
                Layer(pre + l.pre, l.gen, l.sign, l.post + post) for l in replacement
            )
            if not all(self._layer_is_reduced(l) for l in new_block):
                continue
            candidate = layers[:i] + new_block + layers[i + plen :]
            if self._chains(candidate):
                out.append(candidate)
        return out

    def _match_with_context(self, window, pattern):
        """If window == pattern whiskered by some (pre, post), return them."""
        first_w, first_p = window[0], pattern[0]
        if first_w.gen != first_p.gen or first_w.sign != first_p.sign:
            return None
        if len(first_w.pre) < len(first_p.pre) or len(first_w.post) < len(first_p.post):
            return None
        if first_p.pre and first_w.pre[len(first_w.pre) - len(first_p.pre) :] != first_p.pre:
            return None
        if first_p.post and first_w.post[: len(first_p.post)] != first_p.post:
            return None
        pre = first_w.pre[: len(first_w.pre) - len(first_p.pre)]
        post = first_w.post[len(first_p.post) :]
        for w, p in zip(window, pattern):
            if (
                w.gen != p.gen
                or w.sign != p.sign
                or w.pre != pre + p.pre
                or w.post != p.post + post
            ):
                return None
        return pre, post

    def _chains(self, layers):
        for prev, nxt in zip(layers, layers[1:]):
            if self.layer_target(prev) != self.layer_source(nxt):
                return False
        return True

    def equal_2cells(self, left, right, source_word=None, budget=None):
        """True if connected by rewriting within budget, else None (unknown)."""
        from .budgets import BudgetExceeded

        left, right = tuple(left), tuple(right)
        if left == right:
            return True
        if source_word is None:
            source_word = self.word_source(left)
            if source_word is None:
                source_word = self.word_source(right)
        meter = Meter("2-cell rewriting", budget or self.budget)
        seen_left = {left}
        seen_right = {right}
        frontier_left = [left]
        frontier_right = [right]
        try:
            while frontier_left or frontier_right:
                if frontier_left:
                    frontier_left = self._expand(
                        frontier_left, seen_left, seen_right, meter, source_word
                    )
                    if frontier_left is True:
                        return True
                if frontier_right:
                    frontier_right = self._expand(
                        frontier_right, seen_right, seen_left, meter, source_word
                    )
                    if frontier_right is True:
                        return True
        except BudgetExceeded:
            return None
        return None

    def _expand(self, frontier, seen, other_side, meter, source_word):
        new_frontier = []
        for layers in frontier:
            for neighbor in self._neighbors(layers, source_word):
                meter.tick()
                if neighbor in other_side:
                    return True
                if neighbor not in seen:
                    seen.add(neighbor)
                    new_frontier.append(neighbor)
        return new_frontier

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
            return _reduced(
                tree[src] + word + tuple((g, -e) for g, e in reversed(tree[tgt]))
            )

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
            relators.append(u + tuple((g, -e) for g, e in reversed(v)))
        tree_edges = set()
        for word in tree.values():
            for g, _ in word:
                tree_edges.add(g)
        relators.extend(((g, 1),) for g in sorted(tree_edges))
        return PresentedGroup(component_gens, relators)


# -- the left adjoint ----------------------------------------------------------


def whitehead_2gpd(sset, budget=None):
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
    return PresentedTwoGroupoid(
        sset.levels[0], gens1, gens2, relations, anchors2=anchors2, budget=budget
    )


def whitehead_of_map(smap, source_w, target_w):
    """Generator assignment induced by a simplicial map.

    1-generators map to letter words (empty when the image edge is
    degenerate); 2-generators map to a target 2-generator or None (identity)
    when the image triangle is degenerate.
    """
    obj_map = {o: smap(0, o) for o in source_w.objects}
    map1 = {}
    for e in source_w.gens1:
        image = smap(1, e)
        map1[e] = ((image, 1),) if image in target_w.gens1 else ()
    map2 = {}
    for t in source_w.gens2:
        image = smap(2, t)
        map2[t] = image if image in target_w.gens2 else None
    return obj_map, map1, map2


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


def _signed_words(presented, cap):
    """(word, anchor) pairs: reduced signed 1-cell words up to the cap.

    The empty word is listed once per object (its anchor matters).
    """
    out = [((), obj) for obj in presented.objects]
    seen = set()
    frontier = []
    letters = []
    for g in sorted(presented.gens1):
        letters.append((g, 1))
        letters.append((g, -1))
    for letter in letters:
        word = (letter,)
        src, _ = presented.word_endpoints(word)
        out.append((word, src))
        seen.add(word)
        frontier.append(word)
    while frontier:
        word = frontier.pop(0)
        if len(word) >= cap:
            continue
        for letter in letters:
            new = word + (letter,)
            if _reduced(new) != new:
                continue
            try:
                src, _ = presented.word_endpoints(new)
            except ValueError:
                continue
            if new not in seen:
                seen.add(new)
                out.append((new, src))
                frontier.append(new)
    return out


def _layers_at(presented, word, anchor):
    """Applicable layers, restricted to the word's anchor when it is empty."""
    layers = presented.applicable_layers(word)
    if word:
        return layers
    keep = []
    for layer in layers:
        body = presented.gens2[layer.gen][0 if layer.sign == 1 else 1]
        if layer.pre:
            layer_anchor = presented.word_endpoints(layer.pre)[0]
        elif body:
            layer_anchor = presented.word_endpoints(body)[0]
        else:
            layer_anchor = presented.anchors2[layer.gen]
        if layer_anchor == anchor:
            keep.append(layer)
    return keep


def counit_weak_equivalence(k, depth=3, word_cap=2, layer_cap=2, budget=None):
    """Certificate-based check that W(N K) -> K is an MS weak equivalence.

    Exact finite certificates: evaluation respects the relations; objects and
    1-cells are covered; normalisation and fullness witnesses exist among the
    2-generators.  Faithfulness is verified on a bounded window (all parallel
    2-cell words with at most ``layer_cap`` layers over 1-cell words of
    length at most ``word_cap``) via the rewriting service; an inconclusive
    rewrite makes the whole answer None ("unknown"), never a silent pass.
    """
    from .two_groupoids import nerve, triangle_name

    nerve_sset = nerve(k, depth)
    eps = counit_functor(k, nerve_sset)
    presented = eps.presented
    details = {
        "word_cap": word_cap,
        "layer_cap": layer_cap,
        "generators": {"dim1": len(presented.gens1), "dim2": len(presented.gens2)},
    }

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

    # faithfulness on the bounded window
    unknowns = []
    checked = 0
    for word, anchor in _signed_words(presented, word_cap):
        cells = _short_two_cells(presented, word, anchor, layer_cap)
        for i, (phi, phi_target) in enumerate(cells):
            for psi, psi_target in cells[i + 1 :]:
                if phi_target != psi_target:
                    continue
                left = eps.eval_layers(phi, source_word=word, at=anchor)
                right = eps.eval_layers(psi, source_word=word, at=anchor)
                if left != right:
                    continue
                checked += 1
                verdict = presented.equal_2cells(phi, psi, budget=budget)
                if verdict is None:
                    unknowns.append({"word": word, "pair": (phi, psi)})
    details["faithfulness_pairs_checked"] = checked
    if unknowns:
        return None, {**details, "reason": "rewriting inconclusive", "unknown": unknowns[:3]}
    return True, details


def _short_two_cells(presented, word, anchor, layer_cap):
    """Parallel 2-cell words from ``word``, with their targets, capped."""
    out = [((), word)]
    if layer_cap < 1:
        return out
    for l1 in _layers_at(presented, word, anchor):
        t1 = presented.layer_target(l1)
        out.append(((l1,), t1))
        if layer_cap < 2:
            continue
        for l2 in _layers_at(presented, t1, anchor):
            out.append(((l1, l2), presented.layer_target(l2)))
    return out
