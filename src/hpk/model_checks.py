"""Finite instance checks for the model-structure properties.

Right properness is checked on designated pullback squares: the base-change
of a weak equivalence along a map that is a sectionwise fibration instance
(verified by relative horn filling on classifying complexes at the tested
levels, a face-key lookup with no lifting problem) must again be a weak
equivalence.  Pushout stability is checked on free instances: the loop
groupoid of a trivial cofibration is pushed out and the resulting map is
verified to be a weak equivalence through the exactly computable invariants
of free instances (components and the fundamental-group presentation).
"""

from .budgets import DEFAULT_FILLER_BUDGET, Meter, env_budget
from .groupoids import (
    FiniteGroupoid,
    FreeGroupoid,
    GroupoidHom,
    SimplicialGroupoid,
    SimplicialGroupoidMap,
    pi0_hom_presentation,
    pi0_sgpd,
)
from .kan import enumerate_horns
from .loop import wbar, wbar_of_map
from .sset import InsufficientDepth, _UnionFind, pair_id


# -- pullbacks of simplicial groupoids -----------------------------------------


def pullback_groupoid(p_hom, g_hom):
    """Pullback of Y -p-> W <-g- Z for finite groupoids; returns (P, to_y, to_z)."""
    y, z = p_hom.source, g_hom.source
    object_pairs = [
        (oy, oz)
        for oy in y.objects
        for oz in z.objects
        if p_hom.obj_map[oy] == g_hom.obj_map[oz]
    ]
    pairs = [
        (ay, az)
        for ay in sorted(y.arrows)
        for az in sorted(z.arrows)
        if p_hom(ay) == g_hom(az)
    ]
    arrows = {
        pair_id((ay, az)): (
            pair_id((y.src(ay), z.src(az))),
            pair_id((y.tgt(ay), z.tgt(az))),
        )
        for ay, az in pairs
    }
    comp = {}
    for (fy, fz) in pairs:
        for (gy, gz) in pairs:
            if y.src(fy) == y.tgt(gy) and z.src(fz) == z.tgt(gz):
                comp[(pair_id((fy, fz)), pair_id((gy, gz)))] = pair_id(
                    (y.comp[(fy, gy)], z.comp[(fz, gz)])
                )
    identities = {
        pair_id((oy, oz)): pair_id((y.identities[oy], z.identities[oz]))
        for oy, oz in object_pairs
    }
    inverses = {
        pair_id((ay, az)): pair_id((y.inverses[ay], z.inverses[az])) for ay, az in pairs
    }
    p = FiniteGroupoid(
        [pair_id(pr) for pr in object_pairs], arrows, comp, identities, inverses
    )
    to_y = GroupoidHom(
        p, y, {pair_id(pr): pr[0] for pr in object_pairs},
        {pair_id(pr): pr[0] for pr in pairs},
    )
    to_z = GroupoidHom(
        p, z, {pair_id(pr): pr[1] for pr in object_pairs},
        {pair_id(pr): pr[1] for pr in pairs},
    )
    return p, to_y, to_z


def pullback_sgpd(p_map, g_map):
    """Levelwise pullback of simplicial groupoids; returns (P, to_y, to_z)."""
    y, z = p_map.source, g_map.source
    levels = []
    homs_y = []
    homs_z = []
    for n in range(y.depth + 1):
        level, to_y, to_z = pullback_groupoid(p_map.level(n), g_map.level(n))
        levels.append(level)
        homs_y.append(to_y)
        homs_z.append(to_z)

    def induced(op_y, op_z, n, offset):
        src, tgt = levels[n], levels[n + offset]
        arrow_map = {
            a: pair_id((op_y(homs_y[n].arrow_map[a]), op_z(homs_z[n].arrow_map[a])))
            for a in src.arrows
        }
        return GroupoidHom(src, tgt, {o: o for o in src.objects}, arrow_map)

    faces = {
        (n, i): induced(y.face(n, i), z.face(n, i), n, -1) for (n, i) in y.faces
    }
    degeneracies = {
        (n, i): induced(y.degeneracy(n, i), z.degeneracy(n, i), n, 1)
        for (n, i) in y.degeneracies
    }
    total = SimplicialGroupoid(levels[0].objects, levels, faces, degeneracies)
    to_y = SimplicialGroupoidMap(total, y, homs_y[0].obj_map, homs_y)
    to_z = SimplicialGroupoidMap(total, z, homs_z[0].obj_map, homs_z)
    return total, to_y, to_z


# -- fibration instance check ----------------------------------------------------


def map_fills_horns(smap, max_level):
    """Relative horn filling for p: X -> Y, at levels <= max_level.

    Returns the failures (m, k, horn_key, z): a horn of X with its faces in
    the order of i, and an m-simplex z of Y over the horn's image that is
    p(y) for no y with those faces.  Horns come from ``enumerate_horns``,
    charged to the filler budget as in ``kan_report``.
    """
    source, target = smap.source, smap.target
    if max_level > source.depth:
        raise InsufficientDepth(
            f"horn filling to level {max_level} needs depth {max_level}, have {source.depth}"
        )
    meter = Meter("horn enumeration", env_budget(DEFAULT_FILLER_BUDGET))
    failures = []
    for m in range(1, max_level + 1):
        below = smap.level_maps[m - 1]
        for k in range(m + 1):
            positions = [i for i in range(m + 1) if i != k]
            filled = {
                (tuple(source.face(m, i, y) for i in positions), smap(m, y))
                for y in source.levels[m]
            }
            bucket = {}
            for z in target.levels[m]:
                bucket.setdefault(tuple(target.face(m, i, z) for i in positions), []).append(z)
            for horn in enumerate_horns(source, m, k, meter):
                key = tuple(horn[i] for i in positions)
                for z in bucket.get(tuple(below[x] for x in key), ()):
                    if (key, z) not in filled:
                        failures.append((m, k, key, z))
    return failures


def wbar_fibration_instance(p_map, depth, max_level=2):
    """Relative horn filling for wbar(p) at levels <= max_level."""
    wb_y = wbar(p_map.source, depth)
    wb_w = wbar(p_map.target, depth)
    wp = wbar_of_map(p_map, wb_y, wb_w)
    return map_fills_horns(wp, max_level)


# -- free pushouts -----------------------------------------------------------------


def pushout_free_sgpd(f_map, g_map):
    """Pushout of GB <-f- GA -g-> GC for generator-to-generator maps.

    Both legs must send generators to generators or identities (the loop
    groupoid of a simplicial map always does); the result is again levelwise
    free.  Returns (P, from_b, from_c).
    """
    a = f_map.source
    b = f_map.target
    c = g_map.target
    depth = a.depth

    obj_uf = _UnionFind()
    for o in b.objects:
        obj_uf.add(("b", o))
    for o in c.objects:
        obj_uf.add(("c", o))
    for o in a.objects:
        obj_uf.union(("b", f_map.obj_map[o]), ("c", g_map.obj_map[o]))
    obj_classes = obj_uf.classes()
    obj_name = {}
    for root, members in obj_classes.items():
        name = "+".join(f"{t}:{o}" for t, o in members)
        for member in members:
            obj_name[member] = name
    objects = sorted(set(obj_name.values()))

    def arrow_kind(word):
        """(gen, sign) for single-letter words, None for identities."""
        if not word.letters:
            return None
        if len(word.letters) == 1:
            return word.letters[0]
        raise ValueError("pushout needs generator-to-generator legs")

    levels = []
    gen_names = []
    # generator name -> the (tag, generator) it was named after
    first_member = {}
    for n in range(depth + 1):
        uf = _UnionFind()
        killed = set()
        for g in b.levels[n].generators:
            uf.add(("b", g))
        for g in c.levels[n].generators:
            uf.add(("c", g))
        for g in a.levels[n].generators:
            img_b = arrow_kind(f_map.level(n)(a.levels[n].gen(g)))
            img_c = arrow_kind(g_map.level(n)(a.levels[n].gen(g)))
            if img_b is None and img_c is None:
                continue
            if img_b is None:
                killed.add(("c", img_c[0]))
            elif img_c is None:
                killed.add(("b", img_b[0]))
            else:
                uf.union(("b", img_b[0]), ("c", img_c[0]))
        # propagate kills through identifications
        kill_roots = {uf.find(k) for k in killed}
        classes = uf.classes()
        name_of = {}
        generators = {}
        for root, members in classes.items():
            if root in kill_roots:
                for member in members:
                    name_of[member] = None
                continue
            name = "+".join(f"{t}:{g}" for t, g in members)
            for member in members:
                name_of[member] = name
            first_member[name] = members[0]
            tag, g = members[0]
            home = b if tag == "b" else c
            s, t = home.levels[n].generators[g]
            generators[name] = (obj_name[(tag, s)], obj_name[(tag, t)])
        gen_names.append(name_of)
        levels.append(FreeGroupoid(objects, generators))

    def transport_word(n, tag, word):
        target = levels[n]
        letters = []
        for g, e in word.letters:
            name = gen_names[n][(tag, g)]
            if name is None:
                continue
            letters.append((name, e))
        src = obj_name[(tag, word.src)]
        return target.word(letters, at=src)

    faces = {}
    degeneracies = {}
    for (n, i) in b.faces:
        src, tgt = levels[n], levels[n - 1]
        arrow_map = {}
        for name in src.generators:
            tag, g = first_member[name]
            home = b if tag == "b" else c
            image = home.faces[(n, i)](home.levels[n].gen(g))
            arrow_map[name] = transport_word(n - 1, tag, image)
        faces[(n, i)] = GroupoidHom(src, tgt, {o: o for o in objects}, arrow_map)
    for (n, i) in b.degeneracies:
        src, tgt = levels[n], levels[n + 1]
        arrow_map = {}
        for name in src.generators:
            tag, g = first_member[name]
            home = b if tag == "b" else c
            image = home.degeneracies[(n, i)](home.levels[n].gen(g))
            arrow_map[name] = transport_word(n + 1, tag, image)
        degeneracies[(n, i)] = GroupoidHom(src, tgt, {o: o for o in objects}, arrow_map)
    total = SimplicialGroupoid(objects, levels, faces, degeneracies)

    def leg(home, tag):
        homs = []
        for n in range(depth + 1):
            arrow_map = {
                g: transport_word(n, tag, home.levels[n].gen(g))
                for g in home.levels[n].generators
            }
            homs.append(
                GroupoidHom(
                    home.levels[n],
                    levels[n],
                    {o: obj_name[(tag, o)] for o in home.objects},
                    arrow_map,
                )
            )
        return SimplicialGroupoidMap(
            home, total, {o: obj_name[(tag, o)] for o in home.objects}, homs
        )

    return total, leg(b, "b"), leg(c, "c")


# -- free-instance weak equivalence ---------------------------------------------------


def free_instance_weak_equivalence(sg_map):
    """pi_0 bijection plus fundamental-presentation comparison (exact, degree <= 1).

    For maps of levelwise-free simplicial groupoids the components and the
    vertex-group presentations are exactly computable; higher homotopy is not
    decidable at desk scale and is excluded from the verdict (reported in the
    result).
    """
    src, tgt = sg_map.source, sg_map.target
    pi0_src = pi0_sgpd(src)
    pi0_tgt = pi0_sgpd(tgt)
    details = {"degrees_checked": [0, 1]}
    if len(pi0_src) != len(pi0_tgt):
        return False, {**details, "reason": "pi0 size mismatch"}
    # the induced map on components must be a bijection
    rep_class_tgt = {}
    for members in pi0_tgt:
        for m in members:
            rep_class_tgt[m] = min(members)
    images = set()
    for members in pi0_src:
        images.add(rep_class_tgt[sg_map.obj_map[min(members)]])
    if len(images) != len(pi0_src):
        return False, {**details, "reason": "pi0 not injective"}
    # fundamental presentations at matched basepoints
    for members in pi0_src:
        base = min(members)
        source_pres = pi0_hom_presentation(src, base)
        target_pres = pi0_hom_presentation(tgt, sg_map.obj_map[base])
        verdict = _presentations_agree(source_pres, target_pres)
        if verdict is False:
            return False, {**details, "reason": "pi1 mismatch", "basepoint": base}
        if verdict is None:
            return None, {**details, "reason": "pi1 comparison unknown", "basepoint": base}
    return True, details


def _presentations_agree(p1, p2):
    t1 = p1.coset_enumeration(max_cosets=400)
    t2 = p2.coset_enumeration(max_cosets=400)
    if t1 is not None and t2 is not None:
        return t1.iso_to(t2) is not None
    inf1, inf2 = p1.is_infinite_cyclic(), p2.is_infinite_cyclic()
    if inf1 is True and inf2 is True:
        return True
    if t1 is not None and inf2 is True:
        return False
    if t2 is not None and inf1 is True:
        return False
    a1, a2 = p1.abelian_invariants(), p2.abelian_invariants()
    if a1 != a2:
        return False
    return None
