"""The loop groupoid, the classifying complex, and their adjunction.

Conventions (pinned by the adjunction and validation tests, and recorded in
output metadata):

* loop groupoid: the generator carried by a simplex x of dimension n + 1 is
  an arrow from vertex 1 of x to vertex 0 of x; ``d_i g_x = g_(d_(i+1) x)``
  for i >= 1, ``d_0 g_x = g_(d_1 x) o g_(d_0 x)^-1`` (function order),
  ``s_i g_x = g_(s_(i+1) x)``, and generators on s_0-degenerate simplices are
  the identity.

* classifying complex: an n-simplex is a composable string
  (g_(n-1), ..., g_0) with g_i in level i and source(g_i) = target(g_(i-1));
  d_0 drops the leading entry, the inner d_i apply face operators to the
  leading entries and merge one composite, d_n drops the trailing entry, and
  s_i inserts an identity with shifted degeneracies.

* adjunction G -| Wbar: one rule (``_loop_arrow``) gives the arrow of G(X)
  carried by a simplex, and G of a map and the transpose X -> Wbar A both
  read it.  The counit G(Wbar A) -> A is the transpose of the identity of
  Wbar A, and the unit X -> Wbar G(X) is the transpose of the identity of
  G(X), written into its finite copy when G(X) is discrete.
"""

from .groupoids import (
    FiniteGroupoid,
    FreeGroupoid,
    GroupoidHom,
    SimplicialGroupoid,
    SimplicialGroupoidMap,
)
from .homsearch import level_search
from .sset import (
    InsufficientDepth,
    SimplicialMap,
    check_depth,
    complex_from_keys,
    truncate as _truncate_sset,
)

CONVENTIONS = {
    "loop_generator_orientation": "vertex1->vertex0",
    "composition": "function-order",
    "wbar_string_order": "leading-first",
}


# -- loop groupoid -----------------------------------------------------------


def _loop_arrow(sset, gpds, killed=None):
    """``arrow(n, x)``: the arrow of ``gpds[n]``, level n of G(X), carried by
    a simplex x of X_(n+1).  It is the generator of x, or the identity at
    vertex 0 of x when x is s_0-degenerate.  ``killed[n]``, the set of
    s_0-images of X_n, is built once per level unless given."""
    killed = {} if killed is None else killed

    def arrow(n, x):
        if n not in killed:
            killed[n] = set(sset.degeneracies[(n, 0)].values())
        if x in killed[n]:
            return gpds[n].identity(sset.vertex(n + 1, x, 0))
        return gpds[n].gen(x)

    return arrow


def loop_groupoid(sset, depth):
    """The levelwise-free loop groupoid of a simplicial set.

    Level n is the free groupoid on the non-s_0-degenerate simplices of
    dimension n + 1; needs ``sset.depth >= depth + 1``.
    """
    check_depth(depth)
    if sset.depth < depth + 1:
        raise InsufficientDepth(
            f"loop groupoid at depth {depth} needs complex depth {depth + 1}"
        )
    objects = list(sset.levels[0])
    killed = {n: set(sset.degeneracies[(n, 0)].values()) for n in range(depth + 1)}
    levels = [
        FreeGroupoid(objects, {
            x: (sset.vertex(n + 1, x, 1), sset.vertex(n + 1, x, 0))
            for x in sset.levels[n + 1] if x not in killed[n]
        })
        for n in range(depth + 1)
    ]
    arrow = _loop_arrow(sset, levels, killed)

    def face(n, i, x):
        if i:
            return arrow(n - 1, sset.face(n + 1, i + 1, x))
        tgt = levels[n - 1]
        a, b = (arrow(n - 1, sset.face(n + 1, j, x)) for j in (1, 0))
        return tgt.compose(a, tgt.inv(b))

    obj_id = {o: o for o in objects}
    faces = {
        (n, i): GroupoidHom(
            levels[n], levels[n - 1], obj_id, {x: face(n, i, x) for x in levels[n].generators}
        )
        for n in range(1, depth + 1)
        for i in range(n + 1)
    }
    degeneracies = {
        (n, i): GroupoidHom(levels[n], levels[n + 1], obj_id, {
            x: arrow(n + 1, sset.degeneracy(n + 1, i + 1, x)) for x in levels[n].generators
        })
        for n in range(depth)
        for i in range(n + 1)
    }
    return SimplicialGroupoid(objects, levels, faces, degeneracies)


def loop_of_map(smap, source_loop, target_loop):
    """G applied to a simplicial map (generators to generators or identities)."""
    obj_map = {o: smap(0, o) for o in source_loop.objects}
    arrow = _loop_arrow(smap.target, target_loop.levels)
    level_homs = [
        GroupoidHom(src, target_loop.levels[n], obj_map,
                    {x: arrow(n, smap(n + 1, x)) for x in src.generators})
        for n, src in enumerate(source_loop.levels)
    ]
    return SimplicialGroupoidMap(source_loop, target_loop, obj_map, level_homs)


def finitize_discrete(sgpd):
    """The finite copy of a simplicial groupoid whose levels are free on no
    generators: each level keeps only its identities."""
    levels = []
    for n, gpd in enumerate(sgpd.levels):
        if not gpd.is_free:
            raise ValueError(f"level {n} is not free; cannot finitize")
        if gpd.generators:
            raise ValueError(f"level {n} has free generators; cannot finitize")
        arrows = {f"id@{o}": (o, o) for o in gpd.objects}
        comp = {(f"id@{o}", f"id@{o}"): f"id@{o}" for o in gpd.objects}
        identities = {o: f"id@{o}" for o in gpd.objects}
        inverses = {f"id@{o}": f"id@{o}" for o in gpd.objects}
        levels.append(FiniteGroupoid(gpd.objects, arrows, comp, identities, inverses))

    def convert(hom, n, offset):
        src, tgt = levels[n], levels[n + offset]
        arrow_map = {a: tgt.identity(src.arrows[a][0]) for a in src.arrows}
        return GroupoidHom(src, tgt, hom.obj_map, arrow_map)

    faces = {(n, i): convert(h, n, -1) for (n, i), h in sgpd.faces.items()}
    degeneracies = {(n, i): convert(h, n, 1) for (n, i), h in sgpd.degeneracies.items()}
    return SimplicialGroupoid(sgpd.objects, levels, faces, degeneracies)


# -- classifying complex ------------------------------------------------------


def _mapped(tables, operators, entries):
    """Column j of ``entries`` through the arrow map of ``tables[operators[j]]``."""
    return [map(tables[key].arrow_map.__getitem__, col) for key, col in zip(operators, entries)]


class WbarResult:
    """The classifying complex, each level's ``{string: id}`` and the string
    carried by each simplex id (strings leading first)."""

    def __init__(self, sset, ids):
        self.sset = sset
        self.ids = ids
        self.strings = {ident: s for level in ids for s, ident in level.items()}


def wbar(sgpd, depth):
    """The classifying complex of a simplicial groupoid, to a given depth.

    Needs finite levels 0 .. depth - 1.  Level n simplices are composable
    strings (g_(n-1), ..., g_0); level 0 simplices are the objects.
    """
    check_depth(depth)
    if depth > sgpd.depth + 1:
        raise InsufficientDepth(
            f"wbar depth {depth} needs groupoid depth {depth - 1}, have {sgpd.depth}"
        )
    for n in range(min(depth, sgpd.depth + 1)):
        if sgpd.levels[n].is_free:
            raise ValueError(
                f"wbar needs finite levels (level {n} is free); a word-length cap "
                "would not be closed under the face operators"
            )
    gpds = sgpd.levels
    objects = list(sgpd.objects)

    # enumerate composable strings per level
    strings_per_level = [[(o,) for o in objects]]  # level 0: anchor objects
    for n in range(1, depth + 1):
        if n == 1:
            strings = [(g0,) for g0 in sorted(gpds[0].arrows)]
        else:
            # the arrows of level n - 1 by source, each list sorted
            leaving = {}
            for g in sorted(gpds[n - 1].arrows):
                leaving.setdefault(gpds[n - 1].src(g), []).append(g)
            below = gpds[n - 2].arrows
            strings = [
                (g,) + lower
                for lower in strings_per_level[n - 1]
                for g in leaving.get(below[lower[0]][1], ())
            ]
        strings_per_level.append(strings)

    # entry j of a level-n string is an arrow of groupoid level n - 1 - j, and
    # each column is computed entry by entry over the whole level
    def face(n, i, strings):
        if n == 1:
            # simplex vertex j of a string is path vertex n - j, so the
            # initial simplex vertex of a 1-string is the arrow's target
            arrows = gpds[0].arrows
            return [(arrows[g][i],) for g, in strings]
        if i == 0:
            return [s[1:] for s in strings]
        entries = list(zip(*strings))
        out = _mapped(sgpd.faces, [(n - 1 - j, i - 1 - j) for j in range(i - 1)], entries)
        if i < n:
            top = map(sgpd.faces[(n - i, 0)].arrow_map.__getitem__, entries[i - 1])
            out.append(map(gpds[n - 1 - i].comp.__getitem__, zip(top, entries[i])))
            out += entries[i + 1 :]
        return list(zip(*out))

    def degeneracy(n, i, strings):
        units = gpds[n - i].identities
        if n == 0:
            return [(units[o],) for o, in strings]
        entries = list(zip(*strings))
        out = _mapped(sgpd.degeneracies, [(n - 1 - j, i - 1 - j) for j in range(i)], entries)
        if i < n:
            arrows, end, anchors = gpds[n - 1 - i].arrows, 1, entries[i]
        else:
            arrows, end, anchors = gpds[0].arrows, 0, entries[n - 1]
        out.append([units[arrows[a][end]] for a in anchors])
        out += entries[i:]
        return list(zip(*out))

    # with finite levels every arrow is its own id
    sset, ids = complex_from_keys(
        depth,
        strings_per_level,
        lambda n, s: "(" + "|".join(s) + ")" if n else s[0],
        face,
        degeneracy,
    )
    return WbarResult(sset, ids)


def wbar_of_map(sg_map, source_wbar, target_wbar):
    """Wbar applied to a simplicial groupoid map (strings entrywise)."""
    level_maps = []
    for n, level in enumerate(source_wbar.ids):
        table = {}
        for s, name in level.items():
            if n == 0:
                image = (sg_map.obj_map[s[0]],)
            else:
                image = tuple(sg_map.level(n - 1 - j)(s[j]) for j in range(n))
            table[name] = target_wbar.ids[n][image]
        level_maps.append(table)
    return SimplicialMap(source_wbar.sset, target_wbar.sset, level_maps)


# -- total space --------------------------------------------------------------


def w_total(sgpd, depth):
    """The total space W of a one-object simplicial group, with q: W -> Wbar.

    Level n is the set of tuples (g_n, ..., g_0); q drops the leading entry.
    """
    check_depth(depth)
    if len(sgpd.objects) != 1:
        raise ValueError("w_total needs a one-object simplicial groupoid")
    if depth > sgpd.depth:
        raise InsufficientDepth(
            f"w_total depth {depth} needs groupoid depth {depth}, have {sgpd.depth}"
        )
    for n in range(depth + 1):
        if sgpd.levels[n].is_free:
            raise ValueError("w_total needs finite levels")
    gpds = sgpd.levels
    wb = wbar(sgpd, depth)

    tuples_per_level = [[(g,) for g in sorted(gpds[0].arrows)]]
    for n in range(1, depth + 1):
        tuples_per_level.append(
            [(g,) + lower for g in sorted(gpds[n].arrows) for lower in tuples_per_level[n - 1]]
        )

    # entry j of a level-n tuple is an arrow of groupoid level n - j
    def face(n, i, tuples):
        entries = list(zip(*tuples))
        out = _mapped(sgpd.faces, [(n - j, i - j) for j in range(i)], entries)
        if i < n:
            top = map(sgpd.faces[(n - i, 0)].arrow_map.__getitem__, entries[i])
            out.append(map(gpds[n - i - 1].comp.__getitem__, zip(top, entries[i + 1])))
            out += entries[i + 2 :]
        return list(zip(*out))

    def degeneracy(n, i, tuples):
        entries = list(zip(*tuples))
        out = _mapped(sgpd.degeneracies, [(n - j, i - j) for j in range(i + 1)], entries)
        out.append([gpds[n - i].identities[sgpd.objects[0]]] * len(tuples))
        out += entries[i + 1 :]
        return list(zip(*out))

    total, ids = complex_from_keys(
        depth,
        tuples_per_level,
        lambda n, t: "<" + "|".join(t) + ">",
        face,
        degeneracy,
    )
    q_maps = [
        {ident: wb.ids[n][t[1:]] if n else sgpd.objects[0] for t, ident in level.items()}
        for n, level in enumerate(ids)
    ]
    q = SimplicialMap(total, wb.sset, q_maps)
    return total, q, wb


# -- adjunction ---------------------------------------------------------------


def transpose_to_sset(sg_map, sset, loop_sgpd, wbar_result):
    """Transpose GX -> A into X -> WbarA (for X materialised to wbar depth).

    Entry e_j of the string of an n-simplex x is the image of the arrow that
    d_0^j x carries, an arrow of level n - 1 - j.
    """
    depth = wbar_result.sset.depth
    if sset.depth < depth:
        raise InsufficientDepth("source complex shallower than the classifying depth")
    sset = _truncate_sset(sset, depth)
    arrow = _loop_arrow(sset, loop_sgpd.levels)

    def string(n, x):
        entries = []
        for m in range(n - 1, -1, -1):
            entries.append(sg_map.level(m)(arrow(m, x)))
            x = sset.face(m + 1, 0, x)
        return tuple(entries)

    level_maps = [{x: sg_map.obj_map[x] for x in sset.levels[0]}] + [
        {x: wbar_result.ids[n][string(n, x)] for x in sset.levels[n]}
        for n in range(1, depth + 1)
    ]
    return SimplicialMap(sset, wbar_result.sset, level_maps)


def transpose_to_sgpd(smap, loop_sgpd, target_sgpd, wbar_result):
    """Transpose X -> WbarA into GX -> A (leading entry of the image string)."""
    obj_map = {o: smap(0, o) for o in loop_sgpd.objects}
    level_homs = [
        GroupoidHom(src, target_sgpd.levels[n], obj_map,
                    {x: wbar_result.strings[smap(n + 1, x)][0] for x in src.generators})
        for n, src in enumerate(loop_sgpd.levels)
    ]
    return SimplicialGroupoidMap(loop_sgpd, target_sgpd, obj_map, level_homs)


def counit(sgpd, depth):
    """The canonical map G(Wbar A) -> A at the given truncation depth, the
    transpose of the identity of Wbar A.

    Returns (map, loop groupoid of WbarA, WbarResult at depth + 1).
    """
    wb = wbar(sgpd, depth + 1)
    gw = loop_groupoid(wb.sset, depth)
    return transpose_to_sgpd(SimplicialMap.identity(wb.sset), gw, sgpd, wb), gw, wb


def unit(sset, depth):
    """The canonical map X -> Wbar G(X), materialisable when GX is discrete:
    the transpose of the identity of GX, written into its finite copy.

    Raises if the loop groupoid has free generators at the needed levels (the
    classifying complex would have infinite levels).
    """
    gx = loop_groupoid(sset, depth)
    finite = finitize_discrete(gx)
    wb = wbar(finite, depth + 1)
    obj_map = {o: o for o in gx.objects}
    iota = SimplicialGroupoidMap(
        gx, finite, obj_map, [GroupoidHom(g, f, obj_map, {}) for g, f in zip(gx.levels, finite.levels)]
    )
    return transpose_to_sset(iota, sset, gx, wb), gx, wb


# -- hom enumeration for the adjunction --------------------------------------


def _sgpd_level_plan(loop_sgpd, target, n):
    """Level n of the loop-groupoid rule: what each node needs, built once.

    Each generator x of level n - 1 comes with, for every s_i, the arrow
    table of the target's s_i and the level-n generator that s_i x hits, or
    None where s_i x is killed.  The generators of level n that no degeneracy
    hits are open; each comes with its endpoints and its face words d_i(gen x)
    as (source, letters).  A hit generator needs no face words: its image
    s_i f(x) has the right faces because the target, which must be a valid
    simplicial groupoid, satisfies the simplicial identities.  The target's
    level-n arrows are bucketed by endpoints and then by faces, in sorted
    order, and ``identities`` is the set of the level's identity arrows.
    """
    degeneracies = []
    if n:
        lower = loop_sgpd.levels[n - 1]
        for i in range(n):
            op = loop_sgpd.degeneracy(n - 1, i)
            a_op = target.degeneracy(n - 1, i).arrow_map
            for x in sorted(lower.generators):
                letters = op(lower.gen(x)).letters
                if letters and (len(letters) != 1 or letters[0][1] != 1):
                    raise AssertionError("degeneracy image should be a generator")
                degeneracies.append((a_op, x, letters[0][0] if letters else None))
    hit = {h for _, _, h in degeneracies if h is not None}
    gpd = loop_sgpd.levels[n]
    faces = [loop_sgpd.face(n, i) for i in range(n + 1)] if n else []
    open_gens = []
    for x in sorted(gpd.generators):
        if x not in hit:
            words = [(w.src, w.letters) for w in (op(gpd.gen(x)) for op in faces)]
            open_gens.append((x, *gpd.generators[x], words))
    a_faces = [target.face(n, i) for i in range(n + 1)] if n else []
    arrows = target.levels[n].arrows
    buckets = {}
    for y in sorted(arrows):
        key = tuple(op(y) for op in a_faces)
        buckets.setdefault(arrows[y], {}).setdefault(key, []).append(y)
    identities = set(target.levels[n].identities.values())
    return degeneracies, open_gens, buckets, identities


def enumerate_sgpd_maps(loop_sgpd, sset, target, meter=None):
    """All simplicial groupoid maps GX -> A, by the level-wise search.

    ``loop_sgpd`` must be the loop groupoid of ``sset`` (its levels are free
    on simplices of ``sset``); ``target`` must be a valid simplicial groupoid
    with finite levels.  Search level 0 assigns the objects and level n + 1
    the generators of level n.  As in the simplicial rule, each level is
    planned once per search (``_sgpd_level_plan``).  A generator's face
    conditions involve only its own image and level n - 1, so an open
    generator's candidates are the target arrows whose faces are the images of
    its face words, looked up by those faces.  A node looks up every open
    generator first and only then reads the images forced by degeneracies,
    whose faces the simplicial identities of the target already fix.
    """
    depth = loop_sgpd.depth
    plans = {}

    def rule(level, assigned):
        if level == 0:
            return {}, [(o, sorted(target.objects)) for o in loop_sgpd.objects], None
        n = level - 1
        if n not in plans:
            plans[n] = _sgpd_level_plan(loop_sgpd, target, n)
        degeneracies, open_gens, buckets, identities = plans[n]
        obj_map, below = assigned[0], assigned[n]
        if n:  # the generators of level 0 have no face words
            gpd = target.levels[n - 1]
            comp, units, inverses = gpd.comp, gpd.identities, gpd.inverses

        def word_image(src, letters):
            acc = units[obj_map[src]]
            for g, e in letters:
                acc = comp[(below[g] if e == 1 else inverses[below[g]], acc)]
            return acc

        open_vars = []
        for x, s, t, face_words in open_gens:
            want = tuple(word_image(src, letters) for src, letters in face_words)
            candidates = buckets.get((obj_map[s], obj_map[t]), {}).get(want)
            if not candidates:
                return None
            open_vars.append((x, candidates))
        forced = {}
        for a_op, x, hit in degeneracies:
            image = a_op[below[x]]
            if hit is None:
                if image not in identities:
                    return None
            elif forced.setdefault(hit, image) != image:
                return None
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
