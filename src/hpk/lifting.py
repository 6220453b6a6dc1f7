"""Lifting problems in presheaves of simplicial sets, and generating inclusions.

A square (i: A -> B, top: A -> X, p: X -> Y, bottom: B -> Y) is solved by
enumerating maps B -> X with the level-wise search of ``homsearch`` and its
simplicial rule over every section: the top leg pins the images of i(A), the
bottom leg constrains every image through p, degenerate simplices are
forced, faces prune within each section, and naturality is checked across
sections level by level.  A returned lift is re-verified; exhausting the
search is a proof that no lift exists; running out of budget is a
distinguished outcome.

Single complexes are handled by wrapping them as presheaves on the one-object
site with its trivial topology.
"""

from itertools import combinations, product

from .budgets import DEFAULT_LIFT_BUDGET, Meter, env_budget
from .homsearch import level_search, section_maps, simplicial_rule
from .presheaves import NaturalTransformation, Presheaf, y_u
from .sites import FiniteSite
from .sset import SimplicialMap, TruncatedSimplicialSet, standard_complex


def as_point_presheaf(sset):
    site = FiniteSite.point_site()
    return Presheaf(
        site, "sset", {"*": sset}, {"id": SimplicialMap.identity(sset)}
    )


def as_point_map(smap):
    source = as_point_presheaf(smap.source)
    target = as_point_presheaf(smap.target)
    return NaturalTransformation(source, target, {"*": smap})


class LiftingProblem:
    """A commuting square asking for a diagonal B -> X."""

    def __init__(self, i, top, p, bottom):
        self.i = i
        self.top = top
        self.p = p
        self.bottom = bottom

    def validate(self):
        problems = []
        site = self.i.source.site
        a, b = self.i.source, self.i.target
        x, y = self.p.source, self.p.target

        def same_shape(f, g):
            return set(f.values) == set(g.values) and all(
                f.values[v].levels == g.values[v].levels for v in f.values
            )

        if not same_shape(self.top.source, a) or not same_shape(self.top.target, x):
            problems.append("top leg endpoints mismatch")
        if not same_shape(self.bottom.source, b) or not same_shape(self.bottom.target, y):
            problems.append("bottom leg endpoints mismatch")
        if problems:
            return problems
        for v in site.objects:
            depth = a.values[v].depth
            for n in range(depth + 1):
                for s in a.values[v].levels[n]:
                    left = self.p.components[v](n, self.top.components[v](n, s))
                    right = self.bottom.components[v](n, self.i.components[v](n, s))
                    if left != right:
                        problems.append(f"square does not commute at {v}, level {n}")
                        return problems
        return problems


def enumerate_presheaf_sset_maps(source, target, pins=None, constraint=None, meter=None):
    """All presheaf maps source -> target (sset-valued), canonically ordered.

    The simplicial level rule of ``homsearch`` over every section at once,
    with naturality along every arrow as the check on each level combination.
    Identity arrows are skipped: a valid presheaf restricts along them by
    the identity, so their squares always commute.
    ``pins`` maps (object, level, simplex) to a forced image; ``constraint``
    is a predicate (object, level, simplex, image) -> bool.
    """
    site = source.site
    objects = list(site.objects)
    depth = source.values[objects[0]].depth if objects else 0
    identities = set(site.identities.values())
    rule = simplicial_rule(
        {v: (source.values[v], target.values[v]) for v in objects},
        [
            (v, u, source.restrictions[a], target.restrictions[a])
            for a, (v, u) in site.arrows.items()
            if a not in identities
        ],
        pins,
        constraint,
    )
    for assigned in level_search(depth, rule, meter):
        components = {
            v: SimplicialMap(
                source.values[v],
                target.values[v],
                section_maps(assigned, v, source.values[v]),
            )
            for v in objects
        }
        yield NaturalTransformation(source, target, components)


def count_presheaf_maps(source, target, meter=None):
    return sum(1 for _ in enumerate_presheaf_sset_maps(source, target, meter=meter))


def solve_lifting(problem, budget=None):
    """Search for a diagonal; returns a verdict dict.

    outcome "lift": a verified diagonal; "no-lift": the search exhausted every
    assignment; budget exhaustion raises BudgetExceeded.
    """
    budget = env_budget(DEFAULT_LIFT_BUDGET if budget is None else budget)
    meter = Meter("lifting search", budget)
    site = problem.i.source.site
    a, b = problem.i.source, problem.i.target
    pins = {}
    for v in site.objects:
        depth = a.values[v].depth
        for n in range(depth + 1):
            for s in a.values[v].levels[n]:
                key = (v, n, problem.i.components[v](n, s))
                image = problem.top.components[v](n, s)
                if pins.setdefault(key, image) != image:
                    return {"outcome": "no-lift", "reason": "inclusion images conflict"}

    def fiber_constraint(v, n, s, image):
        return problem.p.components[v](n, image) == problem.bottom.components[v](n, s)

    for candidate in enumerate_presheaf_sset_maps(
        b, problem.p.source, pins=pins, constraint=fiber_constraint, meter=meter
    ):
        # re-verify both triangles and the map itself
        issues = candidate.validate()
        if issues:
            raise AssertionError(f"search produced an invalid lift: {issues[0]}")
        for v in site.objects:
            for n in range(a.values[v].depth + 1):
                for s in a.values[v].levels[n]:
                    got = candidate.components[v](n, problem.i.components[v](n, s))
                    want = problem.top.components[v](n, s)
                    if got != want:
                        raise AssertionError("lift does not restrict to the top leg")
        return {"outcome": "lift", "lift": candidate, "search_nodes": meter.used}
    return {"outcome": "no-lift", "search_nodes": meter.used}


# -- generating inclusions -----------------------------------------------------------


def _subcomplex_choices(n):
    """Face-closed sets of nonempty subsets of {0..n} (subcomplexes of Delta^n)."""
    vertices = list(range(n + 1))
    faces = []
    for size in range(1, n + 2):
        faces.extend(frozenset(c) for c in combinations(vertices, size))
    choices = []
    for bits in range(1 << len(faces)):
        chosen = {faces[i] for i in range(len(faces)) if bits & (1 << i)}
        if all(
            frozenset(sub) in chosen
            for face in chosen
            for size in range(1, len(face))
            for sub in combinations(sorted(face), size)
        ):
            choices.append(frozenset(chosen))
    return sorted(choices, key=lambda c: (len(c), sorted(map(sorted, c))))


def _restrict_delta(delta, chosen):
    """The subcomplex of a standard simplex with the chosen vertex-set faces."""
    position = {v: k for k, v in enumerate(delta.levels[0])}

    def vertex_set(n, s):
        return frozenset(position[delta.vertex(n, s, j)] for j in range(n + 1))

    keep = [
        [s for s in level if vertex_set(n, s) in chosen]
        for n, level in enumerate(delta.levels)
    ]
    kept = [set(level) for level in keep]
    faces = {
        key: {s: img for s, img in table.items() if s in kept[key[0]]}
        for key, table in delta.faces.items()
    }
    degeneracies = {
        key: {s: img for s, img in table.items() if s in kept[key[0]]}
        for key, table in delta.degeneracies.items()
    }
    return TruncatedSimplicialSet(delta.depth, keep, faces, degeneracies)


def generating_inclusions(site, n_max, budget=None, depth=None):
    """All inclusions of subpresheaves of Delta^n_U for n <= n_max.

    Returns a list of (U, n, inclusion natural transformation) triples; the
    budget bounds the number of candidate assignments examined.
    """
    budget = env_budget(DEFAULT_LIFT_BUDGET if budget is None else budget)
    meter = Meter("subpresheaf enumeration", budget)
    out = []
    for u in site.objects:
        for n in range(n_max + 1):
            d = depth if depth is not None else max(n, 1)
            delta = standard_complex("Delta", n, depth=d)
            ambient = y_u(delta, u, site)
            choices = _subcomplex_choices(n)
            arrows_in = {v: site.arrows_between(v, u) for v in site.objects}
            all_copies = [
                (v, phi) for v in site.objects for phi in arrows_in[v]
            ]
            index = {copy: k for k, copy in enumerate(all_copies)}

            def monotone(assignment):
                # restriction along h sends copy phi to phi o h; the chosen
                # subcomplex must not shrink along any restriction
                for h, (w, v) in site.arrows.items():
                    for phi in arrows_in[v]:
                        target_copy = site.comp[(phi, h)]
                        s_phi = assignment[index[(v, phi)]]
                        s_tgt = assignment[index[(w, target_copy)]]
                        if not s_phi <= s_tgt:
                            return False
                return True

            for assignment in product(range(len(choices)), repeat=len(all_copies)):
                meter.tick()
                chosen = [choices[k] for k in assignment]
                if not monotone(chosen):
                    continue
                out.append(
                    _build_inclusion(site, u, n, delta, ambient, all_copies, chosen)
                )
    return out


def _build_inclusion(site, u, dim, delta, ambient, all_copies, chosen):
    pieces = {copy: _restrict_delta(delta, chosen[k]) for k, copy in enumerate(all_copies)}
    values = {}
    for v in site.objects:
        levels = [[] for _ in range(delta.depth + 1)]
        faces = {key: {} for key in delta.faces}
        degeneracies = {key: {} for key in delta.degeneracies}
        for phi in site.arrows_between(v, u):
            piece = pieces[(v, phi)]
            for n_lvl in range(delta.depth + 1):
                levels[n_lvl].extend(f"{phi}:{s}" for s in piece.levels[n_lvl])
            for key, table in piece.faces.items():
                faces[key].update(
                    {f"{phi}:{s}": f"{phi}:{img}" for s, img in table.items()}
                )
            for key, table in piece.degeneracies.items():
                degeneracies[key].update(
                    {f"{phi}:{s}": f"{phi}:{img}" for s, img in table.items()}
                )
        values[v] = TruncatedSimplicialSet(delta.depth, levels, faces, degeneracies)
    restrictions = {}
    for a, (w, v) in site.arrows.items():
        level_maps = []
        for n_lvl in range(delta.depth + 1):
            table = {}
            for phi in site.arrows_between(v, u):
                target_copy = site.comp[(phi, a)]
                piece = pieces[(v, phi)]
                for s in piece.levels[n_lvl]:
                    table[f"{phi}:{s}"] = f"{target_copy}:{s}"
            level_maps.append(table)
        restrictions[a] = SimplicialMap(values[v], values[w], level_maps)
    sub = Presheaf(site, "sset", values, restrictions)
    components = {
        v: SimplicialMap(
            values[v],
            ambient.values[v],
            [
                {s: s for s in values[v].levels[n_lvl]}
                for n_lvl in range(delta.depth + 1)
            ],
        )
        for v in site.objects
    }
    inclusion = NaturalTransformation(sub, ambient, components)
    return (u, dim, inclusion)
