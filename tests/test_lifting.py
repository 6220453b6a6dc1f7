import pytest

from hpk.budgets import BudgetExceeded
from hpk.lifting import (
    LiftingProblem,
    as_point_map,
    as_point_presheaf,
    count_presheaf_maps,
    generating_inclusions,
    solve_lifting,
)
from hpk.sites import FiniteSite
from hpk.sset import SimplicialMap, standard_complex


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
