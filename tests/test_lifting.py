from itertools import product

import pytest

from hpk import jsonio
from hpk.budgets import BudgetExceeded, Meter
from hpk.lifting import (
    LiftingProblem,
    _subcomplex_choices,
    as_point_map,
    as_point_presheaf,
    count_presheaf_maps,
    generating_inclusions,
    solve_lifting,
)
from hpk.presheaves import NaturalTransformation, Presheaf, y_u
from hpk.sites import FiniteSite
from hpk.sset import SimplicialMap, TruncatedSimplicialSet, standard_complex


def include_map(sub, big):
    return SimplicialMap(sub, big, [{x: x for x in level} for level in sub.levels])


def collapse_map(source, point):
    return SimplicialMap(
        source, point, [{x: "*" for x in level} for level in source.levels]
    )


def test_lift_through_identity():
    horn = standard_complex("horn", 2, k=1, depth=2)
    d2 = standard_complex("Delta", 2)
    i = as_point_map(include_map(horn, d2))
    top = as_point_map(include_map(horn, d2))
    p = as_point_map(SimplicialMap.identity(d2))
    bottom = as_point_map(SimplicialMap.identity(d2))
    problem = LiftingProblem(i, top, p, bottom)
    result = solve_lifting(problem)
    assert result["outcome"] == "lift"


def test_lift_endpoint_problem_finds_the_loop():
    b1 = standard_complex("boundary", 1, depth=2)
    d1 = standard_complex("Delta", 1, depth=2)
    s1 = standard_complex("sphere", 1, depth=2)
    pt = standard_complex("point", depth=2)
    i = as_point_map(include_map(b1, d1))
    # both endpoints go to the single vertex of the circle
    top = as_point_map(
        SimplicialMap(b1, s1, [{x: "*" for x in level} for level in b1.levels])
    )
    p = as_point_map(collapse_map(s1, pt))
    bottom = as_point_map(collapse_map(d1, pt))
    problem = LiftingProblem(i, top, p, bottom)
    result = solve_lifting(problem)
    assert result["outcome"] == "lift"
    lift = result["lift"].components["*"]
    # the nondegenerate edge must land on the loop, not the degenerate edge
    assert lift(1, "0.1") == "0.1"


def test_no_lift_is_certified_by_exhaustion():
    horn = standard_complex("horn", 2, k=1, depth=2)
    b2 = standard_complex("boundary", 2, depth=2)
    d2 = standard_complex("Delta", 2)
    pt = standard_complex("point", depth=2)
    i = as_point_map(include_map(horn, d2))
    top = as_point_map(include_map(horn, b2))
    p = as_point_map(collapse_map(b2, pt))
    bottom = as_point_map(collapse_map(d2, pt))
    problem = LiftingProblem(i, top, p, bottom)
    result = solve_lifting(problem)
    assert result["outcome"] == "no-lift"
    assert result["search_nodes"] > 0


def test_budget_exhaustion_is_distinguished():
    d2 = standard_complex("Delta", 2)
    horn = standard_complex("horn", 2, k=1, depth=2)
    i = as_point_map(include_map(horn, d2))
    top = as_point_map(include_map(horn, d2))
    p = as_point_map(SimplicialMap.identity(d2))
    bottom = as_point_map(SimplicialMap.identity(d2))
    problem = LiftingProblem(i, top, p, bottom)
    with pytest.raises(BudgetExceeded):
        solve_lifting(problem, budget=2)


def test_square_must_commute():
    d1 = standard_complex("Delta", 1)
    pt = standard_complex("point", depth=1)
    b1 = standard_complex("boundary", 1, depth=1)
    i = as_point_map(include_map(b1, d1))
    v0 = SimplicialMap(pt, d1, [{"*": "0"}, {"*": "0.0"}])
    top = as_point_map(
        SimplicialMap(b1, pt, [{x: "*" for x in level} for level in b1.levels])
    )
    p = as_point_map(v0)
    bottom = as_point_map(SimplicialMap.identity(d1))
    problem = LiftingProblem(i, top, p, bottom)
    assert problem.validate() == ["square does not commute at *, level 0"]


def test_generating_inclusions_point_site_dimension_zero():
    site = FiniteSite.point_site()
    inclusions = generating_inclusions(site, 0)
    assert len(inclusions) == 2  # empty and whole


def test_generating_inclusions_counts_and_monomorphy():
    site = FiniteSite.two_object_site()
    inclusions = generating_inclusions(site, 1)
    # every inclusion is levelwise injective into its ambient presheaf
    for u, dim, incl in inclusions:
        for v in site.objects:
            for n in range(incl.source.values[v].depth + 1):
                images = [incl.components[v](n, s) for s in incl.source.values[v].levels[n]]
                assert len(set(images)) == len(images)
    # dimension 0 over U: the U-copy restricts into the V-copy, so the
    # monotone pairs of point-subcomplexes are (0,0), (0,1), (1,1)
    dim0_over_u = [t for t in inclusions if t[0] == "U" and t[1] == 0]
    assert len(dim0_over_u) == 3


def test_generating_inclusions_subfunctor_count_oracle():
    # oracle: subfunctors of Delta^0_U on the two-object covered site.
    # Delta^0_U has one copy over U (id_U) and one over V (f); the U-copy
    # restricts into the V-copy, so valid assignments are the monotone pairs
    # (S_idU <= S_f) of subcomplexes of Delta^0: 3 of 4 pairs.
    site = FiniteSite.two_object_site()
    inclusions = [t for t in generating_inclusions(site, 0) if t[0] == "U"]
    assert len(inclusions) == 3


def test_count_presheaf_maps_matches_single_complex_counts():
    from hpk.homsearch import count_simplicial_maps

    d1 = standard_complex("Delta", 1)
    b1 = standard_complex("boundary", 1, depth=1)
    left = count_presheaf_maps(as_point_presheaf(b1), as_point_presheaf(d1))
    right = count_simplicial_maps(b1, d1)
    assert left == right


def test_generating_inclusion_count_on_two_object_site_dimension_one():
    # independent oracle: a subpresheaf of Delta^1_U picks a subcomplex for
    # the U-copy (id_U) and one for the V-copy (f), monotone along f; the
    # subcomplex poset of Delta^1 has 5 elements, and the monotone pairs are
    # counted directly below
    site = FiniteSite.two_object_site()
    subs = [
        frozenset(),
        frozenset({frozenset({0})}),
        frozenset({frozenset({1})}),
        frozenset({frozenset({0}), frozenset({1})}),
        frozenset({frozenset({0}), frozenset({1}), frozenset({0, 1})}),
    ]
    oracle = sum(1 for a in subs for b in subs if a <= b)
    over_u = [t for t in generating_inclusions(site, 1) if t[0] == "U" and t[1] == 1]
    assert len(over_u) == oracle == 14


# -- the product-and-filter subpresheaf search, kept as the reference ---------------


def _reference_restrict_delta(delta, chosen):
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


def reference_generating_inclusions(site, n_max, meter):
    """The subpresheaf search before it ran on ``level_search``: every
    assignment of a subcomplex to each copy, filtered by monotonicity, and
    each inclusion built by re-creating y_u's values, restrictions and ids."""
    out = []
    for u in site.objects:
        for n in range(n_max + 1):
            delta = standard_complex("Delta", n, depth=max(n, 1))
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
                    _reference_build_inclusion(site, u, n, delta, ambient, all_copies, chosen)
                )
    return out


def _reference_build_inclusion(site, u, dim, delta, ambient, all_copies, chosen):
    pieces = {copy: _reference_restrict_delta(delta, chosen[k]) for k, copy in enumerate(all_copies)}
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


GENINC_SITES = {
    "point": FiniteSite.point_site(),
    "two_object_covered": FiniteSite.two_object_site(cover_u=True),
    "two_object_uncovered": FiniteSite.two_object_site(cover_u=False),
}


@pytest.mark.parametrize("n_max", [0, 1, 2])
@pytest.mark.parametrize("site_name", sorted(GENINC_SITES))
def test_generating_inclusions_match_the_reference(site_name, n_max):
    site = GENINC_SITES[site_name]
    got = generating_inclusions(site, n_max)
    want = reference_generating_inclusions(site, n_max, Meter("reference", 10**6))
    assert [(u, n) for u, n, _ in got] == [(u, n) for u, n, _ in want]
    assert [jsonio.dumps(jsonio.nat_to_json(incl)) for _, _, incl in got] == [
        jsonio.dumps(jsonio.nat_to_json(incl)) for _, _, incl in want
    ]


def test_generating_inclusion_work_units(monkeypatch):
    # one unit per level_search node and per level combination: 440 on the
    # two-object site at n_max 2, where the product over every copy took 416
    monkeypatch.delenv("HPK_BUDGET", raising=False)
    site = FiniteSite.two_object_site()
    meter = Meter("reference", 10**6)
    reference_generating_inclusions(site, 2, meter)
    assert meter.used == 416
    assert len(generating_inclusions(site, 2, budget=440)) == 191
    with pytest.raises(BudgetExceeded):
        generating_inclusions(site, 2, budget=439)
