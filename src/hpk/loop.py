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
    TruncatedSimplicialSet,
    truncate as _truncate_sset,
)

CONVENTIONS = {
    "loop_generator_orientation": "vertex1->vertex0",
    "composition": "function-order",
    "wbar_string_order": "leading-first",
}


# -- loop groupoid -----------------------------------------------------------


def loop_groupoid(sset, depth):
    """The levelwise-free loop groupoid of a simplicial set.

    Level n is the free groupoid on the non-s_0-degenerate simplices of
    dimension n + 1; needs ``sset.depth >= depth + 1``.
    """
    if sset.depth < depth + 1:
        raise InsufficientDepth(
            f"loop groupoid at depth {depth} needs complex depth {depth + 1}"
        )
    objects = list(sset.levels[0])
    levels = []
    for n in range(depth + 1):
        killed = set(sset.degeneracies[(n, 0)].values())
        gens = {x: (sset.vertex(n + 1, x, 1), sset.vertex(n + 1, x, 0))
                for x in sset.levels[n + 1] if x not in killed}
        levels.append(FreeGroupoid(objects, gens))

    def gen_arrow(level_gpd, n_plus_1, x):
        killed = set(sset.degeneracies[(n_plus_1 - 1, 0)].values())
        if x in killed:
            return level_gpd.identity(sset.vertex(n_plus_1, x, 0))
        return level_gpd.gen(x)

    obj_id = {o: o for o in objects}
    faces = {}
    degeneracies = {}
    for n in range(1, depth + 1):
        src, tgt = levels[n], levels[n - 1]
        for i in range(n + 1):
            arrow_map = {}
            for x in src.generators:
                if i >= 1:
                    arrow_map[x] = gen_arrow(tgt, n, sset.face(n + 1, i + 1, x))
                else:
                    a = gen_arrow(tgt, n, sset.face(n + 1, 1, x))
                    b = gen_arrow(tgt, n, sset.face(n + 1, 0, x))
                    arrow_map[x] = tgt.compose(a, tgt.inv(b))
            faces[(n, i)] = GroupoidHom(src, tgt, obj_id, arrow_map)
    for n in range(0, depth):
        src, tgt = levels[n], levels[n + 1]
        for i in range(n + 1):
            arrow_map = {}
            for x in src.generators:
                arrow_map[x] = gen_arrow(tgt, n + 2, sset.degeneracy(n + 1, i + 1, x))
            degeneracies[(n, i)] = GroupoidHom(src, tgt, obj_id, arrow_map)
    return SimplicialGroupoid(objects, levels, faces, degeneracies)


def loop_of_map(smap, source_loop, target_loop):
    """G applied to a simplicial map (generators to generators or identities)."""
    obj_map = {o: smap(0, o) for o in source_loop.objects}
    level_homs = []
    tgt_sset = smap.target
    for n in range(source_loop.depth + 1):
        src, tgt = source_loop.levels[n], target_loop.levels[n]
        killed = set(tgt_sset.degeneracies[(n, 0)].values())
        arrow_map = {}
        for x in src.generators:
            y = smap(n + 1, x)
            if y in killed:
                arrow_map[x] = tgt.identity(tgt_sset.vertex(n + 1, y, 0))
            else:
                arrow_map[x] = tgt.gen(y)
        level_homs.append(GroupoidHom(src, tgt, obj_map, arrow_map))
    return SimplicialGroupoidMap(source_loop, target_loop, obj_map, level_homs)


def finitize_discrete(sgpd):
    """Convert generator-free free levels to finite identity groupoids."""
    levels = []
    for n, gpd in enumerate(sgpd.levels):
        if not gpd.is_free:
            levels.append(gpd)
            continue
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


def _string_id(gpd_levels, arrows):
    parts = [gpd_levels[j].arrow_id(a) for j, a in enumerate(reversed(arrows))]
    return "(" + "|".join(reversed(parts)) + ")"


class WbarResult:
    """The classifying complex plus the string carried by each simplex id."""

    def __init__(self, sset, strings):
        self.sset = sset
        self.strings = strings  # id -> tuple of arrows, leading first

    def id_of(self, arrows):
        key = tuple(arrows)
        if key not in self._reverse:
            raise KeyError(f"no simplex for string {key}")
        return self._reverse[key]

    @property
    def _reverse(self):
        if not hasattr(self, "_rev_cache"):
            self._rev_cache = {v: k for k, v in self.strings.items()}
        return self._rev_cache


def wbar(sgpd, depth):
    """The classifying complex of a simplicial groupoid, to a given depth.

    Needs finite levels 0 .. depth - 1.  Level n simplices are composable
    strings (g_(n-1), ..., g_0); level 0 simplices are the objects.
    """
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
        strings = []
        if n == 1:
            for g0 in sorted(gpds[0].arrows):
                strings.append((g0,))
        else:
            for lower in strings_per_level[n - 1]:
                top_src_obj = gpds[n - 2].tgt(lower[0])
                for g in sorted(gpds[n - 1].arrows):
                    if gpds[n - 1].src(g) == top_src_obj:
                        strings.append((g,) + lower)
        strings_per_level.append(strings)

    ids = [{} for _ in range(depth + 1)]
    names = [{} for _ in range(depth + 1)]
    for o in objects:
        ids[0][(o,)] = o
        names[0][o] = (o,)
    for n in range(1, depth + 1):
        for s in strings_per_level[n]:
            name = _string_id(gpds, s)
            ids[n][s] = name
            names[n][name] = s

    def entry_level(n, j):
        # entry e_j of a level-n string lives in groupoid level n - 1 - j
        return n - 1 - j

    def face_string(n, i, s):
        if n == 1:
            # simplex vertex j of a string is path vertex n - j, so the
            # initial simplex vertex of a 1-string is the arrow's target
            g0 = s[0]
            return (gpds[0].src(g0),) if i == 0 else (gpds[0].tgt(g0),)
        if i == 0:
            return s[1:]
        if i == n:
            return tuple(
                sgpd.face(entry_level(n, j), n - 1 - j)(s[j]) for j in range(n - 1)
            )
        out = []
        for j in range(i - 1):
            out.append(sgpd.face(entry_level(n, j), i - 1 - j)(s[j]))
        merged_top = sgpd.face(entry_level(n, i - 1), 0)(s[i - 1])
        lower_gpd = gpds[entry_level(n, i)]
        out.append(lower_gpd.compose(merged_top, s[i]))
        out.extend(s[i + 1 :])
        return tuple(out)

    def degeneracy_string(n, i, s):
        if n == 0:
            obj = s[0]
            return (gpds[0].identity(obj),)
        out = []
        for j in range(i):
            out.append(sgpd.degeneracy(entry_level(n, j), i - 1 - j)(s[j]))
        if i < n:
            anchor = gpds[entry_level(n, i)].tgt(s[i])
        else:
            anchor = gpds[0].src(s[n - 1])
        out.append(gpds[n - i].identity(anchor))
        out.extend(s[i:])
        return tuple(out)

    faces = {}
    degeneracies = {}
    for n in range(1, depth + 1):
        for i in range(n + 1):
            table = {}
            for s in strings_per_level[n]:
                table[ids[n][s]] = ids[n - 1][face_string(n, i, s)]
            faces[(n, i)] = table
    for n in range(0, depth):
        for i in range(n + 1):
            table = {}
            for s in strings_per_level[n]:
                table[ids[n][s]] = ids[n + 1][degeneracy_string(n, i, s)]
            degeneracies[(n, i)] = table

    levels = [[ids[n][s] for s in strings_per_level[n]] for n in range(depth + 1)]
    sset = TruncatedSimplicialSet(depth, levels, faces, degeneracies)
    strings = {}
    for n in range(depth + 1):
        for s in strings_per_level[n]:
            strings[ids[n][s]] = s
    return WbarResult(sset, strings)


def wbar_of_map(sg_map, source_wbar, target_wbar):
    """Wbar applied to a simplicial groupoid map (strings entrywise)."""
    depth = source_wbar.sset.depth
    level_maps = []
    for n in range(depth + 1):
        table = {}
        for name in source_wbar.sset.levels[n]:
            s = source_wbar.strings[name]
            if n == 0:
                image = (sg_map.obj_map[s[0]],)
            else:
                image = tuple(
                    sg_map.level(n - 1 - j)(s[j]) for j in range(n)
                )
            table[name] = target_wbar.id_of(image)
        level_maps.append(table)
    return SimplicialMap(source_wbar.sset, target_wbar.sset, level_maps)


# -- total space --------------------------------------------------------------


def w_total(sgpd, depth):
    """The total space W of a one-object simplicial group, with q: W -> Wbar.

    Level n is the set of tuples (g_n, ..., g_0); q drops the leading entry.
    """
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

    def tuple_id(n, t):
        return "<" + "|".join(t) + ">"

    def face_tuple(n, i, t):
        # entries e_j = g_(n-j) in level n - j
        if i == n:
            return tuple(sgpd.face(n - j, n - j)(t[j]) for j in range(n))
        out = []
        for j in range(i):
            out.append(sgpd.face(n - j, i - j)(t[j]))
        merged = gpds[n - i - 1].compose(sgpd.face(n - i, 0)(t[i]), t[i + 1])
        out.append(merged)
        out.extend(t[i + 2 :])
        return tuple(out)

    def degeneracy_tuple(n, i, t):
        out = []
        for j in range(i + 1):
            out.append(sgpd.degeneracy(n - j, i - j)(t[j]))
        out.append(gpds[n - i].identity(sgpd.objects[0]))
        out.extend(t[i + 1 :])
        return tuple(out)

    faces = {}
    degeneracies = {}
    for n in range(1, depth + 1):
        for i in range(n + 1):
            faces[(n, i)] = {
                tuple_id(n, t): tuple_id(n - 1, face_tuple(n, i, t))
                for t in tuples_per_level[n]
            }
    for n in range(0, depth):
        for i in range(n + 1):
            degeneracies[(n, i)] = {
                tuple_id(n, t): tuple_id(n + 1, degeneracy_tuple(n, i, t))
                for t in tuples_per_level[n]
            }
    levels = [[tuple_id(n, t) for t in tuples_per_level[n]] for n in range(depth + 1)]
    total = TruncatedSimplicialSet(depth, levels, faces, degeneracies)

    q_maps = []
    for n in range(depth + 1):
        table = {}
        for t in tuples_per_level[n]:
            string = t[1:]
            if n == 0:
                table[tuple_id(n, t)] = sgpd.objects[0]
            else:
                table[tuple_id(n, t)] = wb.id_of(string)
        q_maps.append(table)
    q = SimplicialMap(total, wb.sset, q_maps)
    return total, q, wb


# -- adjunction ---------------------------------------------------------------


def transpose_to_sset(sg_map, sset, loop_sgpd, wbar_result):
    """Transpose GX -> A into X -> WbarA (for X materialised to wbar depth)."""
    depth = wbar_result.sset.depth
    if sset.depth < depth:
        raise InsufficientDepth("source complex shallower than the classifying depth")
    sset = _truncate_sset(sset, depth)
    level_maps = []
    for n in range(depth + 1):
        table = {}
        for x in sset.levels[n]:
            if n == 0:
                table[x] = sg_map.obj_map[x]
                continue
            entries = []
            y = x
            for j in range(n):
                # entry e_j is the generator image of d_0^j x (a level n-1-j arrow)
                entries.append(
                    sg_map.level(n - 1 - j)(_loop_generator(loop_sgpd, sset, n - j, y))
                )
                y = sset.face(n - j, 0, y)
            table[x] = wbar_result.id_of(tuple(entries))
        level_maps.append(table)
    return SimplicialMap(sset, wbar_result.sset, level_maps)


def _loop_generator(loop_sgpd, sset, n_plus_1, x):
    gpd = loop_sgpd.levels[n_plus_1 - 1]
    killed = set(sset.degeneracies[(n_plus_1 - 1, 0)].values())
    if x in killed:
        return gpd.identity(sset.vertex(n_plus_1, x, 0))
    return gpd.gen(x)


def transpose_to_sgpd(smap, loop_sgpd, target_sgpd, wbar_result):
    """Transpose X -> WbarA into GX -> A (leading entry of the image string)."""
    obj_map = {o: smap(0, o) for o in loop_sgpd.objects}
    level_homs = []
    for n in range(loop_sgpd.depth + 1):
        src, tgt = loop_sgpd.levels[n], target_sgpd.levels[n]
        arrow_map = {}
        for x in src.generators:
            image_string = wbar_result.strings[smap(n + 1, x)]
            arrow_map[x] = image_string[0]
        level_homs.append(GroupoidHom(src, tgt, obj_map, arrow_map))
    return SimplicialGroupoidMap(loop_sgpd, target_sgpd, obj_map, level_homs)


def counit(sgpd, depth):
    """The canonical map G(Wbar A) -> A at the given truncation depth.

    Returns (map, loop groupoid of WbarA, WbarResult at depth + 1).
    """
    wb = wbar(sgpd, depth + 1)
    gw = loop_groupoid(wb.sset, depth)
    obj_map = {o: o for o in gw.objects}
    level_homs = []
    for n in range(depth + 1):
        src, tgt = gw.levels[n], sgpd.levels[n]
        arrow_map = {w: wb.strings[w][0] for w in src.generators}
        level_homs.append(GroupoidHom(src, tgt, obj_map, arrow_map))
    eps = SimplicialGroupoidMap(gw, sgpd, obj_map, level_homs)
    return eps, gw, wb


def unit(sset, depth):
    """The canonical map X -> Wbar G(X), materialisable when GX is discrete.

    Raises if the loop groupoid has free generators at the needed levels (the
    classifying complex would have infinite levels).
    """
    gx = loop_groupoid(sset, depth)
    finite = finitize_discrete(gx)
    wb = wbar(finite, depth + 1)
    level_maps = []
    for n in range(min(sset.depth, depth + 1) + 1):
        if n > wb.sset.depth:
            break
        table = {}
        for x in sset.levels[n]:
            if n == 0:
                table[x] = x
                continue
            entries = []
            y = x
            for j in range(n):
                lvl = finite.levels[n - 1 - j]
                entries.append(lvl.identity(sset.vertex(n - j, y, 0)))
                y = sset.face(n - j, 0, y)
            table[x] = wb.id_of(tuple(entries))
        level_maps.append(table)
    truncated = _truncate_sset(sset, wb.sset.depth)
    return SimplicialMap(truncated, wb.sset, level_maps), gx, wb




# -- hom enumeration for the adjunction --------------------------------------


def enumerate_sgpd_maps(loop_sgpd, sset, target, meter=None):
    """All simplicial groupoid maps GX -> A, by the level-wise search.

    ``loop_sgpd`` must be the loop groupoid of ``sset`` (its levels are free
    on simplices of ``sset``); ``target`` must have finite levels.  Search
    level 0 assigns the objects and level n + 1 the generators of level n.
    A generator's face conditions involve only its own image and level n - 1,
    so its candidates are filtered by them before the product.
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
