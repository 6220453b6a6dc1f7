"""One level-wise hom-set search, and the simplicial-map rule built on it.

``level_search`` runs every map enumeration in the package: simplicial maps
(here), presheaf maps and lifts (``lifting``), loop-groupoid maps (``loop``)
and functors out of a presented 2-groupoid (``whitehead``).  It assigns one
level at a time; a caller-supplied level rule gives the forced images and
each open variable's candidates, and ``level_search`` takes their product in
order.  It ticks ``Meter`` once per node and once per level combination.

The simplicial rule treats a simplicial set as a presheaf on one section.
Degenerate simplices are forced by their Eilenberg-Zilber decomposition, a
nondegenerate one takes the target simplices with its faces' images as
faces, nondegenerate images first, and naturality is checked on each level
combination.

Both the simplicial rule and the loop-groupoid rule (``loop``) plan each
level once per search, lazily: what is forced and how, and the target's
cells bucketed by their faces.  A node then looks each open variable's
candidates up by the face key its assigned neighbours give.  Both rules look
up every open variable before they compute any forced image, so a node fails
at its first empty bucket; rules tick nothing, so this leaves the work units
unchanged.  The simplicial rule reads a degenerate simplex's image from a
per-search memo keyed by the base level, the degeneracy word and the base's
image.
"""

from itertools import product

from .sset import SimplicialMap


def level_search(depth, rule, meter=None):
    """Yield each full assignment [level_0, ..., level_depth], canonically.

    ``rule(n, assigned)`` returns None when level n has no consistent
    assignment over ``assigned``, or ``(forced, open_vars, accept)``: forced
    images {variable: image}, open variables [(variable, candidates)], and
    None or a predicate on the level's assignment {variable: image}.
    """

    def recurse(n, assigned):
        if meter is not None:
            meter.tick()
        if n > depth:
            yield assigned
            return
        choices = rule(n, assigned)
        if choices is None:
            return
        forced, open_vars, accept = choices
        names = [var for var, _ in open_vars]
        for combo in product(*(candidates for _, candidates in open_vars)):
            if meter is not None:
                meter.tick()
            level = dict(forced)
            level.update(zip(names, combo))
            if accept is None or accept(level):
                yield from recurse(n + 1, assigned + [level])

    yield from recurse(0, [])


def _level_plan(v, src, tgt, n, pins, memo):
    """Level n of section v: what the simplicial rule needs, built once.

    Each source simplex comes with its variable (v, s) and its pinned image
    or None; a degenerate one with its Eilenberg-Zilber decomposition and
    the memo {base image: image} that ``memo`` holds for its (base level,
    word), a nondegenerate one with the variables of its faces.  The target's
    simplices are bucketed by their faces, nondegenerate ones first.
    """
    degenerate, nondegenerate = [], []
    for s in src.levels[n]:
        m, base, word = src.decompose(n, s)
        pin = pins.get((v, n, s))
        if m != n:
            images = memo.setdefault((m, word), {})
            degenerate.append((s, (v, s), m, (v, base), word, images, pin))
        else:
            faces = [(v, src.face(n, i, s)) for i in range(n + 1)] if n else []
            nondegenerate.append((s, (v, s), faces, pin))
    buckets = {}
    if nondegenerate:
        nondeg = set(tgt.nondegenerate(n))
        for y in sorted(tgt.levels[n], key=lambda y: y not in nondeg):
            key = tuple(tgt.face(n, i, y) for i in range(n + 1)) if n else ()
            buckets.setdefault(key, []).append(y)
    return degenerate, nondegenerate, buckets


def simplicial_rule(sections, squares=(), pins=None, constraint=None):
    """The level rule for maps of (presheaves of) simplicial sets.

    ``sections`` is {v: (source_v, target_v)} and the variables are the pairs
    (v, simplex).  ``squares`` lists the naturality squares (v, u, res_source,
    res_target) with restrictions from section u to section v.  ``pins`` maps
    (v, level, simplex) to a forced image; ``constraint`` is a predicate
    (v, level, simplex, image) -> bool.
    """
    pins = pins or {}
    plans = {}
    memos = {v: {} for v in sections}

    def rule(n, assigned):
        level_plans = []
        for v, (src, tgt) in sections.items():
            if (v, n) not in plans:
                plans[(v, n)] = _level_plan(v, src, tgt, n, pins, memos[v])
            level_plans.append((v, tgt, plans[(v, n)]))
        # fail first: every open variable needs a candidate before any
        # degenerate simplex's image is computed
        open_vars = []
        below = assigned[n - 1] if n else None
        for v, _, (_, nondegenerate, buckets) in level_plans:
            for s, var, faces, pin in nondegenerate:
                candidates = buckets.get(tuple(below[f] for f in faces), [])
                if pin is not None:
                    candidates = [y for y in candidates if y == pin]
                if constraint is not None:
                    candidates = [y for y in candidates if constraint(v, n, s, y)]
                if not candidates:
                    return None
                open_vars.append((var, candidates))
        forced = {}
        for v, tgt, (degenerate, _, _) in level_plans:
            for s, var, m, base, word, images, pin in degenerate:
                y = assigned[m][base]
                image = images.get(y)
                if image is None:
                    image = images[y] = tgt.apply_degeneracy_word(m, y, word)
                if pin is not None and pin != image:
                    return None
                if constraint is not None and not constraint(v, n, s, image):
                    return None
                forced[var] = image

        def natural(level):
            return all(
                level[(v, res_src(n, s))] == res_tgt(n, level[(u, s)])
                for v, u, res_src, res_tgt in squares
                for s in sections[u][0].levels[n]
            )

        return forced, open_vars, natural if squares else None

    return rule


def section_maps(assigned, v, source):
    """The level maps of section v in a full simplicial-rule assignment."""
    return [{s: level[(v, s)] for s in source.levels[n]} for n, level in enumerate(assigned)]


def enumerate_simplicial_maps(source, target, meter=None):
    """Yield every simplicial map source -> target, in canonical order."""
    if source.depth != target.depth:
        raise ValueError("source and target must have equal depth")
    rule = simplicial_rule({None: (source, target)})
    for assigned in level_search(source.depth, rule, meter):
        yield SimplicialMap(source, target, section_maps(assigned, None, source))


def count_simplicial_maps(source, target, meter=None):
    return sum(1 for _ in enumerate_simplicial_maps(source, target, meter=meter))
