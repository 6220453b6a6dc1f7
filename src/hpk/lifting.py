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

from itertools import combinations

from .budgets import DEFAULT_LIFT_BUDGET, Meter, resolve_budget
from .homsearch import level_search, section_maps, simplicial_rule
from .presheaves import NaturalTransformation, Presheaf, copy_id, y_u
from .sites import FiniteSite
from .sset import SimplicialMap, standard_complex, subcomplex


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
    meter = Meter("lifting search", resolve_budget(DEFAULT_LIFT_BUDGET, budget))
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


def generating_inclusions(site, n_max, budget=None):
    """All inclusions of subpresheaves of Delta^n_U for n <= n_max.

    Delta^n_U = y_u(Delta^n) has one copy of Delta^n over each (V, phi: V -> U),
    and restriction along h: W -> V sends copy phi into copy phi o h, so a
    subpresheaf picks one subcomplex S_(V, phi) per copy with S_(V, phi) inside
    S_(W, phi o h).  ``level_search`` assigns one copy per level, in canonical
    order, and checks each such pair at the later of its two copies.  Returns
    a list of (U, n, inclusion natural transformation) triples; the budget
    bounds the work units of the search.
    """
    meter = Meter("subpresheaf enumeration", resolve_budget(DEFAULT_LIFT_BUDGET, budget))
    out = []
    for u in site.objects:
        copies = [(v, phi) for v in site.objects for phi in site.arrows_between(v, u)]
        index = {copy: k for k, copy in enumerate(copies)}
        pairs = [[] for _ in copies]
        for h, (w, v) in site.arrows.items():
            for phi in site.arrows_between(v, u):
                inner, outer = index[(v, phi)], index[(w, site.comp[(phi, h)])]
                pairs[max(inner, outer)].append((inner, outer))
        for n in range(n_max + 1):
            choices = _subcomplex_choices(n)

            def rule(k, assigned):
                def pick(j, candidate):
                    return candidate if j == k else assigned[j][j]

                candidates = [
                    c for c in choices if all(pick(i, c) <= pick(j, c) for i, j in pairs[k])
                ]
                return ({}, [(k, candidates)], None) if candidates else None

            delta = standard_complex("Delta", n, depth=max(n, 1))
            ambient = y_u(delta, u, site)
            for assigned in level_search(len(copies) - 1, rule, meter):
                chosen = {copy: assigned[k][k] for k, copy in enumerate(copies)}
                out.append((u, n, _inclusion(ambient, delta, chosen)))
    return out


def _inclusion(ambient, delta, chosen):
    """The subpresheaf of ``ambient`` = y_u(delta) whose copy (V, phi) holds the
    simplices of ``delta`` with vertex sets in ``chosen[(V, phi)]``, and its
    inclusion into ``ambient``."""
    position = {x: k for k, x in enumerate(delta.levels[0])}
    vertex_sets = [
        {s: frozenset(position[delta.vertex(n, s, j)] for j in range(n + 1)) for s in level}
        for n, level in enumerate(delta.levels)
    ]
    site = ambient.site
    values = {}
    for v in site.objects:
        keep = [
            {
                copy_id(phi, s)
                for (w, phi), kept in chosen.items()
                if w == v
                for s, vertices in level.items()
                if vertices in kept
            }
            for level in vertex_sets
        ]
        values[v] = subcomplex(ambient.values[v], keep)
    restrictions = {
        a: ambient.restrictions[a].restricted(values[v], values[w])
        for a, (w, v) in site.arrows.items()
    }
    components = {
        v: SimplicialMap.identity(ambient.values[v]).restricted(values[v], ambient.values[v])
        for v in site.objects
    }
    sub = Presheaf(site, "sset", values, restrictions)
    return NaturalTransformation(sub, ambient, components)
