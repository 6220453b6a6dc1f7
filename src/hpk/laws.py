"""The law checks the structures share, each written once.

``category_problems`` checks the laws of a finite category or groupoid given
by tables: groupoids, sites and the three layers of a 2-groupoid call it.
``functor_problems`` checks that an object map and an arrow map between
two such tables form a functor: groupoid maps, group homomorphisms and the
three layers of a 2-functor call it.  A 2-groupoid's horizontal composition
is checked as a category over its objects (2-cells framed by their object
endpoints), with the sources, the targets and ``id2`` checked as functors
between it and the 1-cells; only the interchange law is its own.

``operator_table_problems`` finds missing face and degeneracy tables and
tables keyed outside the depth; ``simplicial_identity_problems`` checks the
simplicial identities of face and degeneracy operators given as callables,
and ``commutation_problems`` checks that a levelwise map commutes with them:
simplicial sets, simplicial groupoids and their maps call these.

Each check walks its tables in their own order, never in ``set`` order, so
the same input reports the same problems in the same order under any hash
seed.  An id is looked up as a cell before anything is indexed by it.
"""


def category_problems(objects, arrows, comp, identities, inverses=None, layer=""):
    """Violations of the category laws, and of the groupoid laws if ``inverses``
    is given, each prefixed with ``layer``.

    ``arrows`` is {a: (src, tgt)}, ``comp[(f, g)]`` is f o g for every pair with
    tgt(g) == src(f), ``identities`` is {x: id_x} and ``inverses`` {f: f^-1}.
    A table that is not well formed ends the check, before a later law would
    look up through it.
    """
    return [layer + p for p in _category_laws(objects, arrows, comp, identities, inverses)]


def _category_laws(objects, arrows, comp, identities, inverses):
    known = set(objects)
    outside = [a for a, (s, t) in arrows.items() if s not in known or t not in known]
    for a in outside:
        yield f"arrow {a} has endpoints outside the object set"
    if identities.keys() != known:
        yield "identities not assigned exactly on objects"
        return
    for x, e in identities.items():
        if arrows.get(e) != (x, x):
            yield f"identity of {x} is not a loop at {x}"
            return
    into = {}
    for g, (_, t) in arrows.items():
        into.setdefault(t, []).append(g)
    composable = [(f, g) for f, (s, _) in arrows.items() for g in into.get(s, ())]
    if len(comp) != len(composable) or not all(pair in comp for pair in composable):
        yield "composition table domain is not the composable pairs"
        return
    for (f, g), h in comp.items():
        if h not in arrows:
            yield f"composite {f}o{g} is not an arrow"
            return
        if arrows[h] != (arrows[g][0], arrows[f][1]):
            yield f"composite {f}o{g} has wrong endpoints"
    if outside:
        # the laws below look up the identity at every endpoint
        return
    for f, (s, t) in arrows.items():
        if comp[(f, identities[s])] != f:
            yield f"right identity law fails at {f}"
        if comp[(identities[t], f)] != f:
            yield f"left identity law fails at {f}"
    if inverses is not None:
        if inverses.keys() != arrows.keys():
            yield "inverses not assigned exactly on arrows"
            return
        for f, g in inverses.items():
            if g not in arrows:
                yield f"inverse of {f} is not an arrow"
                continue
            s, t = arrows[f]
            if arrows[g] != (t, s):
                yield f"inverse of {f} has wrong endpoints"
                continue
            if comp[(f, g)] != identities[t]:
                yield f"f o f^-1 != id at {f}"
            if comp[(g, f)] != identities[s]:
                yield f"f^-1 o f != id at {f}"
    # after[x] is {h: x o h}; for each pair (f, g) the two sides over every h
    # composable with g are one column each, and a side that a composite
    # with wrong endpoints leaves undefined reads None
    after = {a: {} for a in arrows}
    for (x, h), xh in comp.items():
        after[x][h] = xh
    for (f, g), fg in comp.items():
        hs = after[g]
        left = list(map(after[fg].get, hs))
        right = list(map(after[f].get, hs.values()))
        if left != right:
            h = next(h for h, a, b in zip(hs, left, right) if a != b)
            yield f"associativity fails at ({f},{g},{h})"
            return


def functor_problems(
    source, target, obj_map, arrow_map, names=("object", "arrow", "composition"), layer=""
):
    """Where ``obj_map`` and ``arrow_map`` fail to be a functor from ``source`` to
    ``target``, each prefixed with ``layer``.

    Both sides are ``(objects, arrows, comp, identities)`` as
    :func:`category_problems` reads them.  The target is only looked up, by
    ``x in objects``, ``arrows.get(a)`` (None off the arrows), ``comp[(f, g)]`` and
    ``identities[x]``, so its tables may compute their entries.  ``names`` are
    the words for an object, an arrow and composition.  A map that is not
    total, an image outside the target or with wrong endpoints ends the check.
    """
    problems = _functor_laws(source, target, obj_map, arrow_map, names)
    return [layer + p for p in problems] if layer else problems


def _functor_laws(source, target, obj_map, arrow_map, names):
    objects, arrows, comp, identities = source
    target_objects, ends, target_comp, target_identities = target
    obj, arrow, composition = names
    if obj_map.keys() != set(objects):
        return [f"{obj} map not total"]
    if arrow_map.keys() != arrows.keys():
        return [f"{arrow} map not total"]
    problems = []
    known = set(target_objects)
    for x, y in obj_map.items():
        if y not in known:
            problems.append(f"image {y!r} of {obj} {x} is not a target {obj}")
    image_ends = {}
    for a, b in arrow_map.items():
        image_ends[a] = e = ends.get(b)
        if e is None:
            problems.append(f"image {b!r} of {arrow} {a} is not a target {arrow}")
    if problems:
        return problems
    for a, (s, t) in arrows.items():
        if image_ends[a] != (obj_map[s], obj_map[t]):
            problems.append(f"image of {arrow} {a} has wrong endpoints")
    if problems:
        return problems
    for x, e in identities.items():
        if arrow_map[e] != target_identities[obj_map[x]]:
            problems.append(f"identity at {x} not preserved")
    for (f, g), h in comp.items():
        if target_comp[(arrow_map[f], arrow_map[g])] != arrow_map[h]:
            problems.append(f"{composition} not preserved at ({f},{g})")
            break
    return problems


def operator_table_problems(depth, faces, degeneracies, table_problems=None):
    """Missing face and degeneracy tables, and tables keyed outside ``depth``.

    ``faces`` and ``degeneracies`` are keyed by (n, i).  ``table_problems(kind,
    n, i, table)``, if given, lists the problems of each table present, in
    their place among the missing ones.
    """
    problems = []
    operators = (
        ("face", "d", faces, range(1, depth + 1)),
        ("degeneracy", "s", degeneracies, range(depth)),
    )
    for kind, letter, tables, levels in operators:
        for n in levels:
            for i in range(n + 1):
                table = tables.get((n, i))
                if table is None:
                    problems.append(f"missing {kind} table {letter}_{i} at level {n}")
                elif table_problems is not None:
                    problems.extend(table_problems(kind, n, i, table))
    for kind, letter, tables, levels in operators:
        problems.extend(
            f"{kind} table {letter}_{i} at level {n} lies outside depth {depth}"
            for n, i in sorted(tables)
            if not (n in levels and 0 <= i <= n)
        )
    return problems


def simplicial_identity_problems(depth, levels, face, degeneracy, name=None):
    """Violations of the five simplicial identity families.

    ``levels[n]`` lists the elements of level n, ``face(n, i)`` and
    ``degeneracy(n, i)`` are d_i and s_i on level n as callables, and
    ``name(n, x)`` (default: x itself) names an element in the messages.

    Each identity compares two composed columns over a whole level:
    ``dcol[n][i]`` and ``scol[n][i]`` list d_i and s_i of the level-n elements
    in level order, so each side is one more column, and the elements are
    named only where the sides differ.
    """
    name = name or (lambda n, x: x)
    problems = []

    def column(op, xs):
        return list(map(op, xs))

    def differ(text, n, left, right):
        if left != right:
            problems.extend(
                f"{text} at level {n} on {name(n, x)}"
                for x, a, b in zip(levels[n], left, right)
                if a != b
            )

    dcol = {
        n: [column(face(n, i), levels[n]) for i in range(n + 1)] for n in range(1, depth + 1)
    }
    scol = {n: [column(degeneracy(n, i), levels[n]) for i in range(n + 1)] for n in range(depth)}
    for n in range(2, depth + 1):
        for j in range(n + 1):
            for i in range(j):
                left = column(face(n - 1, i), dcol[n][j])
                right = column(face(n - 1, j - 1), dcol[n][i])
                differ(f"d_{i} d_{j} != d_{j - 1} d_{i}", n, left, right)
    for n in range(0, depth):
        level = list(levels[n])
        for j in range(n + 1):
            low = column(face(n + 1, j), scol[n][j])
            high = column(face(n + 1, j + 1), scol[n][j])
            if low != level or high != level:
                for x, a, b in zip(level, low, high):
                    if a != x:
                        problems.append(f"d_{j} s_{j} != id at level {n} on {name(n, x)}")
                    if b != x:
                        problems.append(f"d_{j + 1} s_{j} != id at level {n} on {name(n, x)}")
    for n in range(1, depth):
        for j in range(n + 1):
            for i in range(n + 2):
                if i < j:
                    right = column(degeneracy(n - 1, j - 1), dcol[n][i])
                    text = f"d_{i} s_{j} != s_{j - 1} d_{i}"
                elif i > j + 1:
                    right = column(degeneracy(n - 1, j), dcol[n][i - 1])
                    text = f"d_{i} s_{j} != s_{j} d_{i - 1}"
                else:
                    continue
                differ(text, n, column(face(n + 1, i), scol[n][j]), right)
    for n in range(0, depth - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                left = column(degeneracy(n + 1, i), scol[n][j])
                right = column(degeneracy(n + 1, j + 1), scol[n][i])
                differ(f"s_{i} s_{j} != s_{j + 1} s_{i}", n, left, right)
    return problems


def commutation_problems(depth, levels, maps, source, target, name=None):
    """Where a levelwise map fails to commute with the faces and degeneracies.

    ``maps[n]`` is the map on level n as a callable and ``levels[n]`` the
    source elements it is checked on; ``source`` and ``target`` are the
    ``(face, degeneracy)`` pairs of the two sides, and ``name`` names an
    element, as in :func:`simplicial_identity_problems`.
    """
    name = name or (lambda n, x: x)
    problems = []
    images = [list(map(m, level)) for m, level in zip(maps, levels)]
    for letter, ns, shift, source_op, target_op in (
        ("d", range(1, depth + 1), -1, source[0], target[0]),
        ("s", range(depth), 1, source[1], target[1]),
    ):
        for n in ns:
            for i in range(n + 1):
                left = list(map(maps[n + shift], map(source_op(n, i), levels[n])))
                right = list(map(target_op(n, i), images[n]))
                if left != right:
                    problems.extend(
                        f"does not commute with {letter}_{i} at level {n} on {name(n, x)}"
                        for x, a, b in zip(levels[n], left, right)
                        if a != b
                    )
    return problems
