"""pi_2 from the universal cover, against the routes that do not use it.

``pi_n_kan`` (horn filling on a Kan complex) and ``pi_2gpd`` (read off a
2-groupoid) are the oracles where they apply; elsewhere the known homotopy
of spheres, simplices and the projective plane.
"""

from itertools import combinations, permutations
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from hpk.cover import cover_invariants, pi2_by_cover
from hpk.groupoids import FiniteGroupoid, SimplicialGroupoid
from hpk.groups import GroupTable, _dense_smith_diagonal, _smith_diagonal
from hpk.kan import pi_n_kan
from hpk.loop import wbar
from hpk.sset import InsufficientDepth, _tuples_complex, disjoint_union, standard_complex
from hpk.two_groupoids import TwoGroupoid, nerve, pi_2gpd, validate_2gpd
from hpk.whitehead import counit_weak_equivalence

from test_acceptance import two_groupoid_fixtures
from test_compatible_tuples import GROUPS, chaotic_2gpd


def abelian_table(torsion):
    """Z/t1 x Z/t2 x ... as a table."""
    table = GroupTable.trivial()
    for t in torsion:
        table = GroupTable.direct_product(table, GroupTable.cyclic(t))
    return table


def z2_on_z2():
    """One object, 1-cells Z/2 and 2-cells Z/2 on each: pi_1 = pi_2 = Z/2."""
    cells1 = {f: ("*", "*") for f in ("e", "t")}
    comp1 = {(f, g): "e" if f == g else "t" for f in cells1 for g in cells1}
    cells2 = {f"{a}{f}": (f, f) for a in "01" for f in cells1}

    def add(a, b):
        return str((int(a) + int(b)) % 2)

    vcomp = {(b, a): add(b[0], a[0]) + a[1] for a in cells2 for b in cells2 if a[1] == b[1]}
    hcomp = {(b, a): add(b[0], a[0]) + comp1[(b[1], a[1])] for a in cells2 for b in cells2}
    return TwoGroupoid(
        ["*"],
        cells1,
        comp1,
        {"*": "e"},
        {f: f for f in cells1},
        cells2,
        vcomp,
        hcomp,
        {f: "0" + f for f in cells1},
        {a: a for a in cells2},
    )


def projective_plane():
    """The 6-vertex triangulation of RP^2, as ordered simplices to depth 3."""
    facets = [
        {0, 1, 2}, {0, 2, 3}, {0, 3, 4}, {0, 4, 5}, {0, 1, 5},
        {1, 2, 4}, {2, 3, 5}, {1, 3, 4}, {2, 4, 5}, {1, 3, 5},
    ]
    return _tuples_complex(3, lambda t: any(set(t) <= f for f in facets), 5)


def _wbar(name):
    gpd = FiniteGroupoid.from_group(GROUPS[name]())
    x = wbar(SimplicialGroupoid.constant(gpd, 3), 3).sset
    return x, x.levels[0][0]


# name -> (Kan complex, base) for complexes whose pi_n_kan is cheap
KAN = {
    name: lambda k=k, base=base: (nerve(k, 3), base)
    for name, k, base in two_groupoid_fixtures()
}
KAN.update({
    f"pi2 = Z/{order}": lambda order=order: (
        nerve(TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(order)), 3), "*"
    )
    for order in (2, 4)
})
KAN["pi1 = pi2 = Z/2"] = lambda: (nerve(z2_on_z2(), 3), "*")
KAN.update({f"wbar {name}": lambda name=name: _wbar(name) for name in ("Z2", "Z3", "V4")})


@pytest.mark.parametrize("name", sorted(KAN))
def test_cover_agrees_with_pi_n_kan(name):
    x, base = KAN[name]()
    sheets, (free_rank, torsion) = cover_invariants(x, base)
    assert sheets == pi_n_kan(x, base, 1).order
    assert free_rank == 0
    assert abelian_table(torsion).iso_to(pi_n_kan(x, base, 2)) is not None


def test_cover_agrees_with_pi_2gpd():
    cases = [(k, base) for _, k, base in two_groupoid_fixtures()] + [
        (TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(4)), "*"),
        (chaotic_2gpd("Z2", 2), "o0"),
        (chaotic_2gpd("V4", 2), "o1"),
        (z2_on_z2(), "*"),
    ]
    for k, base in cases:
        assert validate_2gpd(k) == []
        sheets, (free_rank, torsion) = cover_invariants(nerve(k, 3), base)
        assert sheets == pi_2gpd(k, base, 1).order
        assert free_rank == 0
        assert abelian_table(torsion).iso_to(pi_2gpd(k, base, 2)) is not None


def test_known_answers_beyond_kan_complexes():
    for kind, n in (("boundary", 3), ("sphere", 2)):
        x = standard_complex(kind, n, depth=3)
        assert cover_invariants(x, x.levels[0][0]) == (1, (1, []))
    assert pi2_by_cover(standard_complex("Delta", 3, depth=3), "0") == (0, [])
    # RP^2 is covered twice by S^2
    assert cover_invariants(projective_plane(), "0") == (2, (1, []))
    # only the component of the base counts
    both = disjoint_union(standard_complex("boundary", 3), projective_plane())[0]
    for base in both.levels[0]:
        sheets = 1 if base.startswith("a:") else 2
        assert cover_invariants(both, base) == (sheets, (1, []))


def test_an_infinite_pi1_is_unknown():
    assert pi2_by_cover(standard_complex("sphere", 1, depth=3), "*") is None


def test_the_cover_needs_depth_three_and_a_vertex():
    with pytest.raises(InsufficientDepth):
        pi2_by_cover(standard_complex("sphere", 2, depth=2), "*")
    with pytest.raises(ValueError):
        pi2_by_cover(standard_complex("sphere", 2, depth=3), "x")


def test_counit_is_proved_where_the_rewriting_window_was_not():
    # chaotic Z/2 on two objects: the bounded rewriting answered "unknown"
    for k in (chaotic_2gpd("Z2", 2), TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(4))):
        ok, details = counit_weak_equivalence(k)
        assert ok is True, details


def test_counit_verdict_follows_the_cover(monkeypatch):
    import hpk.cover

    k = chaotic_2gpd("Z2", 2)
    monkeypatch.setattr(hpk.cover, "cover_invariants", lambda x, base: (1, (0, [])))
    ok, details = counit_weak_equivalence(k)
    assert (ok, details["reason"]) == (False, "pi1 orders differ")
    monkeypatch.setattr(hpk.cover, "cover_invariants", lambda x, base: (2, (0, [2])))
    ok, details = counit_weak_equivalence(k)
    assert (ok, details["reason"]) == (False, "pi2 orders differ")
    monkeypatch.setattr(hpk.cover, "cover_invariants", lambda x, base: None)
    ok, details = counit_weak_equivalence(k)
    assert (ok, details["reason"]) == (None, "pi1 outgrew the coset cap")


def elementary_divisors(diagonal):
    """Prime powers of the cyclic factors: equal iff the groups are isomorphic."""
    out = []
    for d in diagonal:
        p = 2
        while d > 1:
            q = 1
            while d % p == 0:
                d //= p
                q *= p
            if q > 1:
                out.append(q)
            p += 1
    return sorted(out)


def determinantal_factors(rows, ncols):
    """Invariant factors as quotients of the gcds of k x k minors."""

    def det(m):
        total = 0
        for perm in permutations(range(len(m))):
            sign = (-1) ** sum(1 for i, j in combinations(perm, 2) if i > j)
            total += sign * prod(m[i][perm[i]] for i in range(len(m)))
        return total

    factors, previous = [], 1
    for k in range(1, min(len(rows), ncols) + 1):
        d = 0
        for rs in combinations(range(len(rows)), k):
            for cs in combinations(range(ncols), k):
                d = gcd(d, det([[rows[r][c] for c in cs] for r in rs]))
        if d == 0:
            break
        factors.append(d // previous)
        previous = d
    return factors


matrices = st.integers(0, 4).flatmap(
    lambda ncols: st.tuples(
        st.lists(
            st.lists(
                st.sampled_from([0, 0, 1, -1, 2, -2, 3, 4, 6]), min_size=ncols, max_size=ncols
            ),
            max_size=4,
        ),
        st.just(ncols),
    )
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(matrices)
def test_sparse_first_smith_form_matches_the_dense_stage(matrix):
    rows, ncols = matrix
    sparse = _smith_diagonal([dict(enumerate(row)) for row in rows])
    dense = _dense_smith_diagonal(rows, ncols)
    assert len(sparse) == len(dense)
    assert elementary_divisors(sparse) == elementary_divisors(dense)
    assert all(b % a == 0 for a, b in zip(sparse, sparse[1:]))
    assert sparse == determinantal_factors(rows, ncols)
