"""The shared matching-tuple search against a brute-force reference.

The reference takes the product of the consistent tuples found so far with
the whole level and filters it by the relation, using no face index.  The
search must return the same tuples in the same order and charge the same
work units: one per consistent partial tuple.
"""

from collections import Counter
from itertools import product

import pytest

from hpk.budgets import BudgetExceeded, Meter
from hpk.groupoids import FiniteGroupoid, SimplicialGroupoid
from hpk.groups import GroupTable
from hpk.kan import enumerate_horns, kan_report
from hpk.loop import wbar
from hpk.sset import compatible_tuples
from hpk.two_groupoids import TwoGroupoid, nerve


def brute_force_tuples(simplices, face_tables, positions):
    """(tuples, number of consistent partial tuples) by product and filter.

    A tuple (x_p for p in positions) is consistent when d_i x_j = d_(j-1) x_i
    for all positions i < j.  Every prefix of a consistent tuple is
    consistent, so the consistent tuples of length t + 1 are those of length
    t times the whole level, filtered by the pairs that involve the new entry.
    """
    positions = tuple(positions)
    layer = [()]
    partial = 1
    for j in positions:
        layer = [
            tup + (x,)
            for tup, x in product(layer, simplices)
            if all(face_tables[i][x] == face_tables[j - 1][y] for i, y in zip(positions, tup))
        ]
        partial += len(layer)
    return layer, partial


def v4():
    return GroupTable.direct_product(GroupTable.cyclic(2), GroupTable.cyclic(2, prefix="h"))


GROUPS = {
    "1": GroupTable.trivial,
    "Z2": lambda: GroupTable.cyclic(2),
    "Z3": lambda: GroupTable.cyclic(3),
    "V4": v4,
}


def chaotic_2gpd(group, objects):
    return TwoGroupoid.from_groupoid(
        FiniteGroupoid.chaotic([f"o{i}" for i in range(objects)], GROUPS[group]())
    )


def pi2_2gpd(order):
    return TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(order))


# name -> (2-groupoid, nerve depth); level 4 of the chaotic V4 nerve on two
# objects is left out: the reference scans its 1024 level-3 simplices for
# each of about 34000 partial tuples, which takes half a minute.
NERVES = {
    f"chaotic {g} x{k}": (lambda g=g, k=k: chaotic_2gpd(g, k), 3 if (g, k) == ("V4", 2) else 4)
    for g in GROUPS
    for k in (1, 2)
}
NERVES.update({f"pi2 Z/{n}": (lambda n=n: pi2_2gpd(n), 4) for n in (2, 3, 4)})


@pytest.mark.parametrize("name", list(NERVES))
def test_nerve_levels_match_brute_force(name):
    make, depth = NERVES[name]
    sset = nerve(make(), depth)
    for n in range(3, depth + 1):
        simplices = sset.levels[n - 1]
        faces = [sset.faces[(n - 1, i)] for i in range(n)]
        meter = Meter("tuples", 10**9)
        found = compatible_tuples(simplices, faces, range(n + 1), meter)
        expected, partial = brute_force_tuples(simplices, faces, range(n + 1))
        assert found == expected, (name, n)
        assert meter.used == partial, (name, n)


def wbar_cyclic(order):
    gpd = FiniteGroupoid.from_group(GroupTable.cyclic(order))
    return wbar(SimplicialGroupoid.constant(gpd, 3), 3).sset


HORNS = {f"wbar Z/{n}": lambda n=n: wbar_cyclic(n) for n in range(2, 7)}
# horns of the depth-4 nerves would reach level 4, whose tuples are checked
# above; stopping at depth 3 keeps the reference cheap on every nerve
HORNS.update({name: lambda make=make: nerve(make(), 3) for name, (make, _) in NERVES.items()})


@pytest.mark.parametrize("name", list(HORNS))
def test_horns_match_brute_force(name):
    sset = HORNS[name]()
    for m in range(1, sset.depth + 1):
        for k in range(m + 1):
            positions = [i for i in range(m + 1) if i != k]
            faces = [sset.faces[(m - 1, i)] for i in range(m)] if m > 1 else ()
            meter = Meter("horns", 10**9)
            horns = enumerate_horns(sset, m, k, meter)
            expected, partial = brute_force_tuples(sset.levels[m - 1], faces, positions)
            assert horns == [dict(zip(positions, tup)) for tup in expected], (name, m, k)
            assert meter.used == partial, (name, m, k)


# -- budgets ------------------------------------------------------------------------

BUDGET_FIXTURES = dict(HORNS)
BUDGET_FIXTURES["pi2 Z/3 depth 4"] = lambda: nerve(pi2_2gpd(3), 4)


def horn_units(sset):
    """Work units of every horn search up to the top level, as ``kan_report`` charges them."""
    meter = Meter("horns", 10**9)
    for m in range(1, sset.depth + 1):
        for k in range(m + 1):
            enumerate_horns(sset, m, k, meter)
    return meter.used


def test_horn_units_of_the_pi2_z3_nerve_are_pinned():
    # recorded on the depth-first search that the breadth-first one replaced
    assert horn_units(BUDGET_FIXTURES["pi2 Z/3 depth 4"]()) == 8818


@pytest.mark.parametrize("name", list(BUDGET_FIXTURES))
def test_kan_report_needs_exactly_its_work_units(name):
    sset = BUDGET_FIXTURES[name]()
    units = horn_units(sset)
    with pytest.raises(BudgetExceeded) as exc:
        kan_report(sset, sset.depth, budget=units - 1)
    assert str(exc.value) == f"horn enumeration: enumeration budget of {units - 1} exceeded"
    assert isinstance(kan_report(sset, sset.depth, budget=units), list)


def largest_bucket(simplices, face_tables, positions):
    """The most simplices sharing a d_(p_0) face; the whole level for one position."""
    if len(positions) == 1:
        return len(simplices)
    sizes = Counter(face_tables[positions[0]][x] for x in simplices)
    return max(sizes.values(), default=0)


@pytest.mark.parametrize("name", list(BUDGET_FIXTURES))
def test_a_search_over_budget_stops_within_one_bucket(name):
    sset = BUDGET_FIXTURES[name]()
    m = sset.depth
    faces = [sset.faces[(m - 1, i)] for i in range(m)]
    for k in range(m + 1):
        positions = [i for i in range(m + 1) if i != k]
        meter = Meter("horns", 10**9)
        compatible_tuples(sset.levels[m - 1], faces, positions, meter)
        units = meter.used
        bucket = largest_bucket(sset.levels[m - 1], faces, positions)
        for budget in sorted({0, 1, units // 3, units // 2, units - 2, units - 1}):
            meter = Meter("horns", budget)
            with pytest.raises(BudgetExceeded):
                compatible_tuples(sset.levels[m - 1], faces, positions, meter)
            assert budget < meter.used <= budget + bucket, (name, k, budget)
