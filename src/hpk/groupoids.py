"""Finite and free groupoids, and simplicial groupoids over a fixed object set.

Composition is in function order throughout: ``compose(f, g)`` is f o g,
defined when ``tgt(g) == src(f)``.  Free-groupoid arrows are reduced words of
generator letters in path order (the word traverses from source to target);
equality is syntactic equality of reduced words.

A :class:`SimplicialGroupoid` has a level groupoid for every degree up to its
depth, all sharing one object set, with face and degeneracy operators acting
on arrows and fixing objects.
"""

from itertools import combinations_with_replacement, product
from math import prod
from typing import NamedTuple

from .groups import GroupTable, free_reduce, invert_word
from .laws import (
    category_problems,
    commutation_problems,
    functor_problems,
    operator_table_problems,
    simplicial_identity_problems,
)
from .sset import (
    InsufficientDepth,
    _UnionFind,
    check_depth,
    complex_from_keys,
)


class FiniteGroupoid:
    def __init__(self, objects, arrows, comp, identities, inverses):
        """``comp``, ``identities`` and ``inverses`` are stored as passed, not
        copied: callers hand over fresh dicts and do not change them."""
        self.objects = tuple(sorted(objects))
        self.arrows = {a: (s, t) for a, (s, t) in arrows.items()}
        self.comp = comp
        self.identities = identities
        self.inverses = inverses
        self.is_free = False

    # protocol ------------------------------------------------------------

    def src(self, f):
        return self.arrows[f][0]

    def tgt(self, f):
        return self.arrows[f][1]

    def identity(self, obj):
        return self.identities[obj]

    def compose(self, f, g):
        """f o g: apply g first."""
        return self.comp[(f, g)]

    def inv(self, f):
        return self.inverses[f]

    def is_identity(self, f):
        return self.identities[self.src(f)] == f

    def arrow_ids(self):
        return tuple(sorted(self.arrows))

    def arrow_id(self, f):
        return f

    def arrows_between(self, x, y):
        return tuple(sorted(a for a, (s, t) in self.arrows.items() if s == x and t == y))

    def tables(self):
        """(objects, arrows, comp, identities), the tables ``hpk.laws`` reads."""
        return self.objects, self.arrows, self.comp, self.identities

    def validate(self):
        return category_problems(*self.tables(), self.inverses)

    def vertex_group(self, x):
        loops = self.arrows_between(x, x)
        mult = {(f, g): self.comp[(f, g)] for f in loops for g in loops}
        return GroupTable(loops, mult, self.identities[x])

    def to_json(self):
        return {
            "objects": list(self.objects),
            "arrows": [
                {"id": a, "src": s, "tgt": t} for a, (s, t) in sorted(self.arrows.items())
            ],
            "comp": {f"{f}|{g}": h for (f, g), h in sorted(self.comp.items())},
            "identities": dict(sorted(self.identities.items())),
            "inverses": dict(sorted(self.inverses.items())),
        }

    # constructors ----------------------------------------------------------

    @classmethod
    def from_group(cls, table, obj="*"):
        arrows = {a: (obj, obj) for a in table.elements}
        comp = {(f, g): table.mult[(f, g)] for f in table.elements for g in table.elements}
        return cls([obj], arrows, comp, {obj: table.identity}, dict(table.inverse))

    @classmethod
    def trivial(cls, obj="*"):
        return cls.from_group(GroupTable.trivial(), obj=obj)

    @classmethod
    def chaotic(cls, objects, group=None):
        """One arrow (i, j, h) for each ordered object pair and group element.

        With the trivial group on two objects this is the interval groupoid.
        """
        group = group or GroupTable.trivial()
        objects = list(objects)

        def name(i, j, h):
            return f"{i}>{j}:{h}"

        parts = {
            name(i, j, h): (i, j, h)
            for i in objects
            for j in objects
            for h in group.elements
        }
        arrows = {f: (i, j) for f, (i, j, _) in parts.items()}
        comp = {}
        for f, (sf, tf, hf) in parts.items():
            for g, (sg, tg, hg) in parts.items():
                if sf == tg:
                    comp[(f, g)] = name(sg, tf, group.mult[(hf, hg)])
        identities = {i: name(i, i, group.identity) for i in objects}
        inverses = {f: name(t, s, group.inverse[h]) for f, (s, t, h) in parts.items()}
        return cls(objects, arrows, comp, identities, inverses)

    @classmethod
    def interval(cls):
        return cls.chaotic(["0", "1"])

class FreeArrow(NamedTuple):
    src: str
    tgt: str
    letters: tuple  # of (generator id, +1 | -1), reduced, in path order


class NonComposableWord(ValueError):
    """Letters of a word do not chain source-to-target."""


class _Lookup:
    """A table whose entries a function computes, read as ``t[key]`` or ``t.get(key)``."""

    def __init__(self, entry):
        self.get = entry

    def __getitem__(self, key):
        return self.get(key)


class FreeGroupoid:
    def __init__(self, objects, generators):
        self.objects = tuple(sorted(objects))
        self.generators = {g: (s, t) for g, (s, t) in generators.items()}
        self.is_free = True
        objs = set(self.objects)
        for g, (s, t) in self.generators.items():
            if s not in objs or t not in objs:
                raise ValueError(f"generator {g} has endpoints outside the object set")

    def letter_endpoints(self, letter):
        g, e = letter
        try:
            s, t = self.generators[g]
        except (KeyError, TypeError):
            raise ValueError(f"unknown generator {g!r}") from None
        if e not in (1, -1) or isinstance(e, bool):
            raise ValueError(f"letter {g!r} has exponent {e!r}, not 1 or -1")
        return (s, t) if e == 1 else (t, s)

    def word(self, letters, at=None):
        """The arrow carried by a letter chain; validates composability."""
        letters = tuple(letters)
        if not letters:
            if at is None:
                raise ValueError("an empty word needs an anchor object")
            if at not in self.objects:
                raise ValueError(f"unknown object {at!r}")
            return FreeArrow(at, at, ())
        cur_src, cur_tgt = self.letter_endpoints(letters[0])
        for letter in letters[1:]:
            s, t = self.letter_endpoints(letter)
            if s != cur_tgt:
                raise NonComposableWord(
                    f"letter {letter} starts at {s}, previous letter ended at {cur_tgt}"
                )
            cur_tgt = t
        reduced = free_reduce(letters)
        return FreeArrow(cur_src, cur_tgt, reduced)

    def gen(self, g):
        s, t = self.generators[g]
        return FreeArrow(s, t, ((g, 1),))

    @staticmethod
    def identity(obj):
        return FreeArrow(obj, obj, ())

    @staticmethod
    def compose(f, g):
        """f o g: apply g first."""
        if g.tgt != f.src:
            raise NonComposableWord(f"cannot compose {f} o {g}")
        return FreeArrow(g.src, f.tgt, free_reduce(g.letters + f.letters))

    def inv(self, f):
        return FreeArrow(f.tgt, f.src, invert_word(f.letters))

    def src(self, f):
        return f.src

    def tgt(self, f):
        return f.tgt

    def is_identity(self, f):
        return not f.letters

    def arrow_id(self, f):
        if not f.letters:
            return f"id@{f.src}"
        body = ",".join(g if e == 1 else f"{g}^-" for g, e in f.letters)
        return f"{f.src}>{body}"

    def tables(self):
        """(objects, arrows, comp, identities) with the last three computed on
        reduced words, the lookups ``hpk.laws.functor_problems`` makes of a
        functor's target."""
        return (self.objects, *_WORD_TABLES)

    def arrows_between(self, x, y, maxlen=None):
        """Reduced words x -> y with at most ``maxlen`` letters."""
        if maxlen is None:
            raise ValueError("free groupoid enumeration needs a word-length cap")
        found = []
        frontier = [FreeArrow(x, x, ())]
        seen = {frontier[0]}
        steps = [(self.gen(g), 1) for g in sorted(self.generators)]
        while frontier:
            arrow = frontier.pop(0)
            if arrow.tgt == y:
                found.append(arrow)
            if len(arrow.letters) >= maxlen:
                continue
            for base, _ in steps:
                for candidate in (base, self.inv(base)):
                    if candidate.src != arrow.tgt:
                        continue
                    new = self.compose(candidate, arrow)
                    if len(new.letters) == len(arrow.letters) + 1 and new not in seen:
                        seen.add(new)
                        frontier.append(new)
        return sorted(found, key=self.arrow_id)

    def to_json(self):
        return {
            "free": True,
            "objects": list(self.objects),
            "generators": [
                {"id": g, "src": s, "tgt": t}
                for g, (s, t) in sorted(self.generators.items())
            ],
        }


_WORD_TABLES = (
    _Lookup(lambda a: (a.src, a.tgt) if isinstance(a, FreeArrow) else None),
    _Lookup(lambda pair: FreeGroupoid.compose(*pair)),
    _Lookup(FreeGroupoid.identity),
)


def reduce_word(groupoid, letters, at=None):
    """Reduced normal form of a letter chain in a free groupoid."""
    return groupoid.word(letters, at=at)


def arrow_to_json(gpd, arrow):
    if gpd.is_free:
        return {"src": arrow.src, "letters": [[g, e] for g, e in arrow.letters]}
    return arrow


def _probe_arrows(gpd):
    """Arrows on which maps out of ``gpd`` are tested: the generators of a free
    groupoid, every arrow of a finite one."""
    if gpd.is_free:
        return [gpd.gen(g) for g in sorted(gpd.generators)]
    return list(gpd.arrow_ids())


def _lookup(hom):
    """``hom`` as a callable on arrows: its arrow map when its source is finite."""
    return hom if hom.source.is_free else hom.arrow_map.__getitem__


class GroupoidHom:
    """A functor between groupoids, given on arrows (finite) or generators (free)."""

    def __init__(self, source, target, obj_map, arrow_map):
        self.source = source
        self.target = target
        self.obj_map = dict(obj_map)
        self.arrow_map = dict(arrow_map)

    def __call__(self, arrow):
        if self.source.is_free:
            acc = self.target.identity(self.obj_map[arrow.src])
            for g, e in arrow.letters:
                img = self.arrow_map[g]
                if e == -1:
                    img = self.target.inv(img)
                acc = self.target.compose(img, acc)
            return acc
        return self.arrow_map[arrow]

    def validate(self):
        source = self.source
        if source.is_free:
            # a functor out of a free groupoid is a map of its generating graph
            tables, arrow = (source.objects, source.generators, {}, {}), "generator"
        else:
            tables, arrow = source.tables(), "arrow"
        names = ("object", arrow, "composition")
        return functor_problems(tables, self.target.tables(), self.obj_map, self.arrow_map, names)

    @classmethod
    def identity(cls, gpd):
        obj_map = {o: o for o in gpd.objects}
        if gpd.is_free:
            arrow_map = {g: gpd.gen(g) for g in gpd.generators}
        else:
            arrow_map = {a: a for a in gpd.arrows}
        return cls(gpd, gpd, obj_map, arrow_map)

    def compose(self, other):
        """self after other."""
        obj_map = {o: self.obj_map[v] for o, v in other.obj_map.items()}
        arrow_map = {a: self(image) for a, image in other.arrow_map.items()}
        return GroupoidHom(other.source, self.target, obj_map, arrow_map)

    def probe_arrows(self):
        """Arrows on which equality of maps out of the source may be tested."""
        return _probe_arrows(self.source)

    def equals(self, other):
        if self.obj_map != other.obj_map:
            return False
        for a in self.probe_arrows():
            if self(a) != other(a):
                return False
        return True


class SimplicialGroupoid:
    """Levelwise groupoids on a shared object set with simplicial operators."""

    def __init__(self, objects, levels, faces, degeneracies):
        self.objects = tuple(sorted(objects))
        self.levels = list(levels)
        self.depth = len(self.levels) - 1
        self.faces = dict(faces)
        self.degeneracies = dict(degeneracies)

    def level(self, n):
        if not 0 <= n <= self.depth:
            raise InsufficientDepth(f"level {n} beyond depth {self.depth}")
        return self.levels[n]

    def face(self, n, i):
        return self.faces[(n, i)]

    def degeneracy(self, n, i):
        return self.degeneracies[(n, i)]

    def validate(self):
        problems = []
        for n, gpd in enumerate(self.levels):
            if tuple(gpd.objects) != self.objects:
                problems.append(f"level {n} has a different object set")
        problems += operator_table_problems(self.depth, self.faces, self.degeneracies)
        for (n, i), hom in list(self.faces.items()) + list(self.degeneracies.items()):
            if any(hom.obj_map.get(o) != o for o in self.objects):
                problems.append(f"operator ({n},{i}) moves objects")
        if problems:
            return problems
        return simplicial_identity_problems(
            self.depth,
            [_probe_arrows(gpd) for gpd in self.levels],
            lambda n, i: _lookup(self.faces[(n, i)]),
            lambda n, i: _lookup(self.degeneracies[(n, i)]),
            lambda n, a: self.levels[n].arrow_id(a),
        )

    @classmethod
    def constant(cls, gpd, depth):
        ident = GroupoidHom.identity(gpd)
        faces = {(n, i): ident for n in range(1, depth + 1) for i in range(n + 1)}
        degeneracies = {(n, i): ident for n in range(depth) for i in range(n + 1)}
        return cls(gpd.objects, [gpd] * (depth + 1), faces, degeneracies)

    def to_json(self):
        def hom_json(hom):
            return {a: arrow_to_json(hom.target, hom.arrow_map[a]) for a in sorted(hom.arrow_map)}

        return {
            "objects": list(self.objects),
            "depth": self.depth,
            "levels": [gpd.to_json() for gpd in self.levels],
            "faces": {f"{n},{i}": hom_json(h) for (n, i), h in sorted(self.faces.items())},
            "degeneracies": {
                f"{n},{i}": hom_json(h) for (n, i), h in sorted(self.degeneracies.items())
            },
        }


class SimplicialGroupoidMap:
    """A levelwise functor commuting with the simplicial operators."""

    def __init__(self, source, target, obj_map, level_homs):
        self.source = source
        self.target = target
        self.obj_map = dict(obj_map)
        self.level_homs = list(level_homs)

    def level(self, n):
        return self.level_homs[n]

    def validate(self, passed=()):
        """Violations of the map laws; a level map whose id is in ``passed``
        has passed its own check, which is not run again."""
        problems = []
        if len(self.level_homs) != self.source.depth + 1:
            return ["wrong number of level maps"]
        for n, hom in enumerate(self.level_homs):
            if hom.obj_map != self.obj_map:
                problems.append(f"level {n} uses a different object map")
            if id(hom) not in passed:
                problems.extend(f"level {n}: {p}" for p in hom.validate())
        if problems:
            return problems
        homs = self.level_homs
        return commutation_problems(
            self.source.depth,
            [hom.probe_arrows() for hom in homs],
            homs,
            (self.source.face, self.source.degeneracy),
            (self.target.face, self.target.degeneracy),
            lambda n, a: homs[n].source.arrow_id(a),
        )

    @classmethod
    def identity(cls, sgpd):
        return cls(
            sgpd,
            sgpd,
            {o: o for o in sgpd.objects},
            [GroupoidHom.identity(level) for level in sgpd.levels],
        )

    def compose(self, other):
        return SimplicialGroupoidMap(
            other.source,
            self.target,
            {o: self.obj_map[v] for o, v in other.obj_map.items()},
            [
                self.level_homs[n].compose(other.level_homs[n])
                for n in range(other.source.depth + 1)
            ],
        )

    def equals(self, other):
        return self.obj_map == other.obj_map and all(
            a.equals(b) for a, b in zip(self.level_homs, other.level_homs)
        )


def disjoint_union_sgpd(a, b, tags=("a", "b")):
    """Coproduct of two finite-level simplicial groupoids of equal depth."""
    if a.depth != b.depth:
        raise ValueError("depth mismatch")
    ta, tb = tags

    def rename_gpd(gpd, tag):
        arrows = {
            f"{tag}:{f}": (f"{tag}:{s}", f"{tag}:{t}") for f, (s, t) in gpd.arrows.items()
        }
        comp = {(f"{tag}:{f}", f"{tag}:{g}"): f"{tag}:{h}" for (f, g), h in gpd.comp.items()}
        identities = {f"{tag}:{o}": f"{tag}:{e}" for o, e in gpd.identities.items()}
        inverses = {f"{tag}:{f}": f"{tag}:{g}" for f, g in gpd.inverses.items()}
        objects = [f"{tag}:{o}" for o in gpd.objects]
        return FiniteGroupoid(objects, arrows, comp, identities, inverses)

    levels = []
    for n in range(a.depth + 1):
        ga, gb = rename_gpd(a.levels[n], ta), rename_gpd(b.levels[n], tb)
        tables = [(g.arrows, g.comp, g.identities, g.inverses) for g in (ga, gb)]
        merged = ({**x, **y} for x, y in zip(*tables))
        levels.append(FiniteGroupoid(ga.objects + gb.objects, *merged))

    def merge_hom(key, offset):
        table_a = (a.faces if offset == -1 else a.degeneracies)[key]
        table_b = (b.faces if offset == -1 else b.degeneracies)[key]
        n = key[0]
        src, tgt = levels[n], levels[n + offset]
        arrow_map = {
            f"{tag}:{f}": f"{tag}:{g}"
            for tag, table in ((ta, table_a), (tb, table_b))
            for f, g in table.arrow_map.items()
        }
        return GroupoidHom(src, tgt, {o: o for o in src.objects}, arrow_map)

    faces = {key: merge_hom(key, -1) for key in a.faces}
    degeneracies = {key: merge_hom(key, +1) for key in a.degeneracies}
    objects = [f"{ta}:{o}" for o in a.objects] + [f"{tb}:{o}" for o in b.objects]
    return SimplicialGroupoid(objects, levels, faces, degeneracies)


def pi0_groupoid(gpd):
    """Components: objects modulo "there is an arrow"."""
    uf = _UnionFind()
    for o in gpd.objects:
        uf.add(o)
    for s, t in (gpd.generators if gpd.is_free else gpd.arrows).values():
        uf.union(s, t)
    return tuple(sorted(uf.classes().values()))


def pi0_sgpd(sgpd):
    return pi0_groupoid(sgpd.levels[0])


def hom_complex(sgpd, x, y, cap=None):
    """The simplicial hom-set: level n carries the arrows x -> y of level n.

    Finite levels give a genuine TruncatedSimplicialSet.  Free levels need a
    word-length cap and give a :class:`FreeHomView` (levels of capped words
    plus the cap used); a capped view is not operator-closed.
    """
    if x not in sgpd.objects or y not in sgpd.objects:
        raise ValueError("basepoints must be objects")
    if all(not lvl.is_free for lvl in sgpd.levels):
        return complex_from_keys(
            sgpd.depth,
            [list(level.arrows_between(x, y)) for level in sgpd.levels],
            lambda n, a: a,
            lambda n, i, arrows: list(map(sgpd.face(n, i), arrows)),
            lambda n, i, arrows: list(map(sgpd.degeneracy(n, i), arrows)),
        )[0]
    if cap is None:
        raise ValueError("free levels need a word-length cap")
    view_levels = []
    for n in range(sgpd.depth + 1):
        gpd = sgpd.levels[n]
        if gpd.is_free:
            view_levels.append([gpd.arrow_id(a) for a in gpd.arrows_between(x, y, cap)])
        else:
            view_levels.append(list(gpd.arrows_between(x, y)))
    return FreeHomView(view_levels, cap)


class FreeHomView:
    """Capped enumeration of a hom complex with free levels (not closed)."""

    def __init__(self, levels, cap):
        self.levels = [tuple(level) for level in levels]
        self.cap = cap

    def level_sizes(self):
        return [len(level) for level in self.levels]


def hom_simplicial_group(sgpd, x):
    """The one-object simplicial groupoid of loops at x (finite levels only)."""
    if any(lvl.is_free for lvl in sgpd.levels):
        raise ValueError("loop simplicial group needs finite levels")
    levels = []
    for n in range(sgpd.depth + 1):
        gpd = sgpd.levels[n]
        loops = gpd.arrows_between(x, x)
        arrows = {a: (x, x) for a in loops}
        comp = {(f, g): gpd.comp[(f, g)] for f in loops for g in loops}
        levels.append(
            FiniteGroupoid([x], arrows, comp, {x: gpd.identities[x]}, {
                a: gpd.inverses[a] for a in loops
            })
        )
    faces = {}
    degeneracies = {}
    for (n, i), hom in sgpd.faces.items():
        arrow_map = {a: hom(a) for a in levels[n].arrows}
        faces[(n, i)] = GroupoidHom(levels[n], levels[n - 1], {x: x}, arrow_map)
    for (n, i), hom in sgpd.degeneracies.items():
        arrow_map = {a: hom(a) for a in levels[n].arrows}
        degeneracies[(n, i)] = GroupoidHom(levels[n], levels[n + 1], {x: x}, arrow_map)
    return SimplicialGroupoid([x], levels, faces, degeneracies)


def moore_pi_n_with_classes(sgpd, n):
    """(homotopy group, cycle arrow -> class name) via the Moore complex."""
    return _moore(sgpd, n)


def moore_pi_n(sgpd, n):
    """Simplicial-group homotopy: N_n intersect ker d_0 over d_0(N_{n+1}).

    ``sgpd`` must be one-object with finite group levels up to n + 1.
    """
    return _moore(sgpd, n)[0]


def _moore(sgpd, n):
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"Moore homotopy degree must be a non-negative integer, got {n!r}")
    if len(sgpd.objects) != 1:
        raise ValueError("Moore homotopy needs a one-object simplicial groupoid")
    if sgpd.depth < n + 1:
        raise InsufficientDepth(f"moore pi_{n} needs depth {n + 1}, have {sgpd.depth}")
    obj = sgpd.objects[0]
    tables = [sgpd.levels[m].vertex_group(obj) for m in range(min(sgpd.depth, n + 1) + 1)]

    def moore_subgroup(m):
        table = tables[m]
        ident = tables[m - 1].identity if m >= 1 else None
        members = set(table.elements)
        for i in range(1, m + 1):
            hom = sgpd.face(m, i)
            members = {g for g in members if hom(g) == ident}
        return members

    g_n = tables[n]
    if n == 0:
        cycles = set(g_n.elements)
    else:
        nn = moore_subgroup(n)
        d0 = sgpd.face(n, 0)
        ident_low = tables[n - 1].identity
        cycles = {g for g in nn if d0(g) == ident_low}
    upper = moore_subgroup(n + 1)
    d0 = sgpd.face(n + 1, 0)
    boundaries = {d0(g) for g in upper}
    if not boundaries <= cycles:
        raise AssertionError("Moore boundaries escape the cycle subgroup")
    sub_mult = {(f, g): g_n.mult[(f, g)] for f in cycles for g in cycles}
    cycle_table = GroupTable(cycles, sub_mult, g_n.identity)
    return cycle_table.quotient_with_classes(boundaries)


def pi0_hom_presentation(sgpd, x):
    """pi_0 of the hom complex at (x, x) as a group presentation.

    Works on free levels 0 and 1: the coequalizer of d_0, d_1 presented via a
    spanning tree of the level-0 generator graph.  Exact, no caps.
    """
    g0, g1 = sgpd.levels[0], sgpd.levels[1]
    if not (g0.is_free and g1.is_free):
        raise ValueError("presentation route needs free levels 0 and 1")
    # component of x and spanning tree words t_w : x -> w
    tree = {x: g0.identity(x)}
    frontier = [x]
    gens_sorted = sorted(g0.generators)
    while frontier:
        w = frontier.pop(0)
        for g in gens_sorted:
            s, t = g0.generators[g]
            if s == w and t not in tree:
                tree[t] = g0.compose(g0.gen(g), tree[w])
                frontier.append(t)
            if t == w and s not in tree:
                tree[s] = g0.compose(g0.inv(g0.gen(g)), tree[w])
                frontier.append(s)

    loop_gens = []
    for g in gens_sorted:
        s, t = g0.generators[g]
        if s in tree and t in tree:
            loop_gens.append(g)

    def to_group_word(arrow):
        """Rewrite an arrow w -> w' into a word in the loop generators."""
        letters = []
        for g, e in arrow.letters:
            letters.append((g, e))
        # conjugate into a loop at x: t_{w'}^-1 . arrow . t_w
        full = (
            tree[arrow.src].letters
            + tuple(letters)
            + tuple((g, -e) for g, e in reversed(tree[arrow.tgt].letters))
        )
        word = []
        for g, e in full:
            word.append((g, e))
        return tuple(word)

    relators = []
    for gamma in sorted(g1.generators):
        a1 = sgpd.face(1, 1)(g1.gen(gamma))
        a0 = sgpd.face(1, 0)(g1.gen(gamma))
        if a1.src not in tree:
            continue
        w1 = to_group_word(a1)
        w0 = to_group_word(a0)
        relators.append(w1 + tuple((g, -e) for g, e in reversed(w0)))
    # generators: loop generators; tree edges become trivial via extra relators
    tree_edges = set()
    for w, arrow in tree.items():
        for g, e in arrow.letters:
            tree_edges.add(g)
    relators.extend(((g, 1),) for g in sorted(tree_edges))
    return _presented_on(loop_gens, relators)


def _presented_on(generators, relators):
    from .groups import PresentedGroup

    return PresentedGroup(generators, relators)


# -- Dold-Kan ---------------------------------------------------------------


def _surjections(n, k):
    """Order-preserving surjections [n] -> [k], as value tuples."""
    out = []
    for tup in combinations_with_replacement(range(k + 1), n + 1):
        if set(tup) == set(range(k + 1)):
            out.append(tup)
    return out


def _sum_law(moduli):
    """Addition and negation of Z/m_1 x ... x Z/m_r on mixed-radix indices.

    Element (a_1, ..., a_r) has index ((a_1 * m_2 + a_2) * m_3 + ...) + a_r,
    its position in ``product(*(range(m) for m in moduli))``.  The table of
    G x Z/m comes from the table T of G: (i, a) + (j, b) has index
    T[i][j] * m + (a + b) % m.
    """
    table, neg = [[0]], [0]
    for m in moduli:
        shifts = [[(a + b) % m for b in range(m)] for a in range(m)]
        table = [[t * m + c for t in row for c in shift] for row in table for shift in shifts]
        neg = [x * m + (-a) % m for x in neg for a in range(m)]
    return table, neg


def _index(element, moduli):
    """Mixed-radix index of a group element, as in :func:`_sum_law`."""
    out = 0
    for a, m in zip(element, moduli):
        out = out * m + a
    return out


def dold_kan(chain, depth):
    """The simplicial abelian group of a chain fixture, as a one-object sgpd.

    Level n is the direct sum of C_k over order-preserving surjections
    [n] ->> [k]; operators are induced in the standard way (identity on the
    epi part, boundary for the top missing face, zero otherwise).

    An element of level n is a flat index: the mixed-radix number of its
    coordinates, summand by summand, in the order of
    ``product(*(range(m) for m in moduli))`` over the level's moduli.  Each
    element is named once; the composition table, the inverses and every
    face and degeneracy are computed on indices and read through the one
    name list.
    """
    check_depth(depth)
    obj = "*"
    summands = []
    for n in range(depth + 1):
        level = []
        for k in range(0, min(n, chain.top_degree) + 1):
            for sigma in _surjections(n, k):
                level.append(sigma)
        summands.append(level)

    level_names, level_tables, level_strides = [], [], []
    level_groupoids = []
    for n in range(depth + 1):
        labels = []
        for sigma in summands[n]:
            head = "".join(str(v) for v in sigma) + ":"
            labels.append(
                [head + ",".join(str(c) for c in e) for e in chain.group(sigma[-1]).elements()]
            )
        names = [";".join(parts) or "0" for parts in product(*labels)]
        # index weight of each summand: the order of the summands after it
        orders = [len(part) for part in labels]
        level_strides.append([prod(orders[p + 1:]) for p in range(len(orders))])
        table, neg = _sum_law(
            [m for sigma in summands[n] for m in chain.group(sigma[-1]).moduli]
        )
        arrows = {name: (obj, obj) for name in names}
        comp = {
            (a, b): names[c] for a, row in zip(names, table) for b, c in zip(names, row)
        }
        inverses = {name: names[i] for name, i in zip(names, neg)}
        level_names.append(names)
        level_tables.append(table)
        level_groupoids.append(
            FiniteGroupoid([obj], arrows, comp, {obj: names[0]}, inverses)
        )

    def transfer(n, out_level, mapping_index):
        """Operator level n -> out_level given index map [out] -> [n]."""
        out_summands = summands[out_level]
        out_index = {sigma: i for i, sigma in enumerate(out_summands)}
        out_table, out_strides = level_tables[out_level], level_strides[out_level]
        # images[x] is the image of the element whose coordinates in the
        # summands seen so far have index x and are zero elsewhere
        images = [0]
        for sigma in summands[n]:
            k = sigma[-1]
            group = chain.group(k)
            f = tuple(sigma[j] for j in mapping_index)
            image = set(f)
            if image == set(range(k + 1)):
                pos, bnd = out_index[f], None
            elif k >= 1 and image == set(range(k)):
                pos, bnd = out_index[f], chain.boundary(k)
            else:
                images = [x for x in images for _ in range(group.order)]
                continue
            moduli = chain.group(out_summands[pos][-1]).moduli
            summand_images = [
                _index(c if bnd is None else bnd(c), moduli) * out_strides[pos]
                for c in group.elements()
            ]
            images = [out_table[x][y] for x in images for y in summand_images]
        names_out = level_names[out_level]
        arrow_map = {name: names_out[i] for name, i in zip(level_names[n], images)}
        src_gpd, tgt_gpd = level_groupoids[n], level_groupoids[out_level]
        return GroupoidHom(src_gpd, tgt_gpd, {obj: obj}, arrow_map)

    faces = {}
    degeneracies = {}
    for n in range(1, depth + 1):
        for i in range(n + 1):
            delta = [j for j in range(n + 1) if j != i]
            faces[(n, i)] = transfer(n, n - 1, delta)
    for n in range(0, depth):
        for i in range(n + 1):
            sigma_map = list(range(i + 1)) + list(range(i, n + 1))
            degeneracies[(n, i)] = transfer(n, n + 1, sigma_map)
    return SimplicialGroupoid([obj], level_groupoids, faces, degeneracies)
