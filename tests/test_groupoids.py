import json

import pytest
from hypothesis import given, strategies as st

from hpk import jsonio
from hpk.abelian import AbelianHom, ChainFixture, FiniteAbelianGroup
from hpk.groups import GroupTable
from hpk.groupoids import (
    FiniteGroupoid,
    FreeGroupoid,
    GroupoidHom,
    NonComposableWord,
    SimplicialGroupoid,
    _surjections,
    disjoint_union_sgpd,
    dold_kan,
    hom_complex,
    hom_simplicial_group,
    moore_pi_n,
    pi0_groupoid,
    pi0_sgpd,
    reduce_word,
)
from hpk.sset import pi0_sset, validate_sset


def loop_groupoid_on_one_generator():
    return FreeGroupoid(["v"], {"a": ("v", "v")})


def test_reduce_word_examples():
    g = loop_groupoid_on_one_generator()
    w = reduce_word(g, [("a", 1), ("a", -1)], at="v")
    assert w.letters == ()
    assert reduce_word(g, [], at="v") == g.identity("v")
    b = FreeGroupoid(["x", "y"], {"a": ("x", "x"), "b": ("x", "y")})
    w = reduce_word(b, [("a", 1), ("a", -1), ("b", 1)])
    assert w.letters == (("b", 1),)
    assert (w.src, w.tgt) == ("x", "y")


def test_non_composable_word_raises():
    g = FreeGroupoid(["x", "y"], {"b": ("x", "y")})
    with pytest.raises(NonComposableWord):
        reduce_word(g, [("b", 1), ("b", 1)])


def test_reduced_word_count_on_one_loop():
    g = loop_groupoid_on_one_generator()
    words = g.arrows_between("v", "v", maxlen=2)
    assert len(words) == 5  # id, a, a^-1, a^2, a^-2


def test_capped_word_count_of_seven():
    g = loop_groupoid_on_one_generator()
    words = g.arrows_between("v", "v", maxlen=3)
    assert len(words) == 7


@given(
    st.lists(
        st.tuples(st.sampled_from(["a", "b"]), st.sampled_from([1, -1])), max_size=10
    )
)
def test_reduce_word_idempotent_and_congruent(letters):
    g = FreeGroupoid(["v"], {"a": ("v", "v"), "b": ("v", "v")})
    w = g.word(letters, at="v")
    assert g.word(w.letters, at="v") == w
    # congruence: reduce(uv) == reduce(reduce(u) reduce(v))
    for cut in range(len(letters) + 1):
        u = g.word(letters[:cut], at="v")
        v = g.word(letters[cut:], at="v")
        assert g.compose(v, u) == w


def test_pi0_groupoid_examples():
    one = FiniteGroupoid.trivial()
    assert len(pi0_groupoid(one)) == 1
    z2 = FiniteGroupoid.from_group(GroupTable.cyclic(2))
    two_objects = FiniteGroupoid(
        ["x", "y"],
        {"ex": ("x", "x"), "ey": ("y", "y")},
        {("ex", "ex"): "ex", ("ey", "ey"): "ey"},
        {"x": "ex", "y": "ey"},
        {"ex": "ex", "ey": "ey"},
    )
    assert len(pi0_groupoid(two_objects)) == 2
    interval = FiniteGroupoid.interval()
    assert len(pi0_groupoid(interval)) == 1


def test_interval_groupoid_is_valid():
    interval = FiniteGroupoid.interval()
    assert interval.validate() == []
    assert len(interval.arrows) == 4
    # ids are opaque: an object name may contain the separators of arrow ids
    named = FiniteGroupoid.chaotic(["u:1", "v"], GroupTable.cyclic(2))
    assert named.validate() == []
    assert len(named.arrows) == 8


def test_pi0_sgpd_examples():
    interval = SimplicialGroupoid.constant(FiniteGroupoid.interval(), 2)
    assert len(pi0_sgpd(interval)) == 1
    a = SimplicialGroupoid.constant(FiniteGroupoid.trivial(), 2)
    b = SimplicialGroupoid.constant(FiniteGroupoid.trivial(), 2)
    both = disjoint_union_sgpd(a, b)
    assert len(pi0_sgpd(both)) == 2
    assert both.validate() == []


def test_constant_sgpd_validates():
    z2 = SimplicialGroupoid.constant(
        FiniteGroupoid.from_group(GroupTable.cyclic(2)), 3
    )
    assert z2.validate() == []


def test_hom_complex_of_constant_z2():
    z2 = SimplicialGroupoid.constant(
        FiniteGroupoid.from_group(GroupTable.cyclic(2)), 2
    )
    hom = hom_complex(z2, "*", "*")
    assert validate_sset(hom) == []
    assert hom.level_sizes() == [2, 2, 2]


def test_hom_complex_of_interval_off_diagonal():
    interval = SimplicialGroupoid.constant(FiniteGroupoid.interval(), 2)
    hom = hom_complex(interval, "0", "1")
    assert hom.level_sizes() == [1, 1, 1]


def test_hom_complex_free_needs_cap():
    free = FreeGroupoid(["v"], {"a": ("v", "v")})
    ident_level = SimplicialGroupoid.constant(FiniteGroupoid.trivial("v"), 1)
    from hpk.groupoids import GroupoidHom

    levels = [free, free]
    ident = GroupoidHom.identity(free)
    sgpd = SimplicialGroupoid(
        ["v"],
        levels,
        {(1, 0): ident, (1, 1): ident},
        {(0, 0): ident},
    )
    with pytest.raises(ValueError):
        hom_complex(sgpd, "v", "v")
    view = hom_complex(sgpd, "v", "v", cap=3)
    assert view.level_sizes()[0] == 7
    assert view.cap == 3


def z2_chain_in_degree(degree):
    z2 = FiniteAbelianGroup([2])
    zero = FiniteAbelianGroup([])
    if degree == 0:
        return ChainFixture([z2], [])
    groups = [zero] * degree + [z2]
    boundaries = [
        AbelianHom.zero(groups[i], groups[i - 1]) for i in range(1, degree + 1)
    ]
    return ChainFixture(groups, boundaries)


def test_dold_kan_zero_complex():
    zero = ChainFixture([FiniteAbelianGroup([])], [])
    a = dold_kan(zero, 2)
    assert a.validate() == []
    assert all(len(a.levels[n].arrows) == 1 for n in range(3))


def test_dold_kan_degree_zero_is_constant():
    a = dold_kan(z2_chain_in_degree(0), 2)
    assert a.validate() == []
    assert [len(a.levels[n].arrows) for n in range(3)] == [2, 2, 2]


def test_dold_kan_degree_one_level_sizes():
    a = dold_kan(z2_chain_in_degree(1), 3)
    assert a.validate() == []
    assert [len(a.levels[n].arrows) for n in range(4)] == [1, 2, 4, 8]


def test_moore_of_constant_z2():
    z2 = SimplicialGroupoid.constant(
        FiniteGroupoid.from_group(GroupTable.cyclic(2)), 2
    )
    assert moore_pi_n(z2, 0).iso_to(GroupTable.cyclic(2)) is not None
    assert moore_pi_n(z2, 1).is_trivial()


def test_moore_recovers_homology_of_dold_kan():
    a = dold_kan(z2_chain_in_degree(1), 3)
    assert moore_pi_n(a, 0).is_trivial()
    assert moore_pi_n(a, 1).iso_to(GroupTable.cyclic(2)) is not None
    assert moore_pi_n(a, 2).is_trivial()


def test_moore_matches_homology_oracle_on_fixtures():
    z4 = FiniteAbelianGroup([4])
    z2 = FiniteAbelianGroup([2])
    # C: 0 <- Z/2 <-d- Z/4 with d = reduction (image = Z/2, kernel = 2Z/4)
    chain = ChainFixture([z2, z4], [AbelianHom(z4, z2, [(1,)])])
    a = dold_kan(chain, 3)
    for n in (0, 1, 2):
        oracle = chain.homology(n)
        computed = moore_pi_n(a, n)
        assert computed.iso_to(oracle) is not None, f"mismatch at n={n}"


def test_moore_pi0_equals_pi0_of_hom_complex():
    # coequalizer of d_0, d_1 on components agrees with the Moore quotient
    a = dold_kan(z2_chain_in_degree(0), 2)
    hom = hom_complex(a, "*", "*")
    assert len(pi0_sset(hom)) == moore_pi_n(a, 0).order
    b = dold_kan(z2_chain_in_degree(1), 2)
    homb = hom_complex(b, "*", "*")
    assert len(pi0_sset(homb)) == moore_pi_n(b, 0).order


# -- dold_kan against the construction it replaced ------------------------------


def _reference_dold_kan(chain, depth):
    """dold_kan as built before flat indices, kept as the differential oracle.

    Elements are tuples of per-summand group elements, composition is the
    per-summand ``add``, and every operator names both of its levels again.
    """
    obj = "*"
    summands = []
    for n in range(depth + 1):
        level = []
        for k in range(0, min(n, chain.top_degree) + 1):
            for sigma in _surjections(n, k):
                level.append(sigma)
        summands.append(level)

    def elements_at(n):
        def build(idx, acc):
            if idx == len(summands[n]):
                yield tuple(acc)
                return
            sigma = summands[n][idx]
            k = sigma[-1]
            for c in chain.group(k).elements():
                yield from build(idx + 1, acc + [c])

        return list(build(0, []))

    def name_at(n, element):
        return ";".join(
            "".join(str(v) for v in sigma) + ":" + ",".join(str(c) for c in comp)
            for sigma, comp in zip(summands[n], element)
        ) or "0"

    level_elements = [elements_at(n) for n in range(depth + 1)]
    level_groupoids = []
    for n in range(depth + 1):
        elems = level_elements[n]
        names = {e: name_at(n, e) for e in elems}

        def add(e1, e2, n=n):
            return tuple(
                chain.group(sigma[-1]).add(c1, c2)
                for sigma, c1, c2 in zip(summands[n], e1, e2)
            )

        zero = tuple(chain.group(sigma[-1]).zero() for sigma in summands[n])
        arrows = {names[e]: (obj, obj) for e in elems}
        comp = {
            (names[e1], names[e2]): names[add(e1, e2)] for e1 in elems for e2 in elems
        }
        neg = {
            names[e]: names[tuple(
                chain.group(sigma[-1]).neg(c) for sigma, c in zip(summands[n], e)
            )]
            for e in elems
        }
        level_groupoids.append(
            FiniteGroupoid([obj], arrows, comp, {obj: names[zero]}, neg)
        )

    def transfer(n, out_level, mapping_index):
        out_summands = summands[out_level]
        out_index = {sigma: i for i, sigma in enumerate(out_summands)}
        moves = []
        for sigma in summands[n]:
            k = sigma[-1]
            f = tuple(sigma[j] for j in mapping_index)
            image = set(f)
            if image == set(range(k + 1)):
                moves.append((out_index[f], None))
            elif k >= 1 and image == set(range(k)):
                moves.append((out_index[f], k))
            else:
                moves.append(None)
        zero = tuple(chain.group(s[-1]).zero() for s in out_summands)

        def apply(element):
            acc = list(zero)
            for comp_val, move in zip(element, moves):
                if move is None:
                    continue
                out_pos, bnd = move
                value = comp_val if bnd is None else chain.boundary(bnd)(comp_val)
                group = chain.group(out_summands[out_pos][-1])
                acc[out_pos] = group.add(acc[out_pos], value)
            return tuple(acc)

        src_gpd, tgt_gpd = level_groupoids[n], level_groupoids[out_level]
        names_in = {e: name_at(n, e) for e in level_elements[n]}
        names_out = {e: name_at(out_level, e) for e in level_elements[out_level]}
        arrow_map = {names_in[e]: names_out[apply(e)] for e in level_elements[n]}
        return GroupoidHom(src_gpd, tgt_gpd, {obj: obj}, arrow_map)

    faces = {}
    degeneracies = {}
    for n in range(1, depth + 1):
        for i in range(n + 1):
            delta = [j for j in range(n + 1) if j != i]
            faces[(n, i)] = transfer(n, n - 1, delta)
    for n in range(0, depth):
        for i in range(n + 1):
            sigma_map = list(range(i + 1)) + list(range(i, n + 1))
            degeneracies[(n, i)] = transfer(n, n + 1, sigma_map)
    return SimplicialGroupoid([obj], level_groupoids, faces, degeneracies)


def _chain(groups, boundaries):
    """A chain fixture from moduli lists and generator images, as in JSON."""
    gs = [FiniteAbelianGroup(moduli) for moduli in groups]
    homs = [
        AbelianHom(gs[i], gs[i - 1], images) for i, images in enumerate(boundaries, start=1)
    ]
    return ChainFixture(gs, homs)


# (chain, deepest depth checked); every chain of two or more groups has a
# nonzero boundary, and the last four have a C_2 term
DOLD_KAN_CHAINS = {
    "empty": (_chain([], []), 2),
    "Z3": (_chain([[3]], []), 3),
    "Z2+Z3": (_chain([[2, 3]], []), 3),
    "Z2<-Z4": (_chain([[2], [4]], [[(1,)]]), 3),
    "Z4<-Z4": (_chain([[4], [4]], [[(2,)]]), 3),
    "Z3<-Z3": (_chain([[3], [3]], [[(1,)]]), 3),
    "Z2+Z2<-Z2": (_chain([[2, 2], [2]], [[(1, 1)]]), 3),
    "0<-Z2<-Z2": (_chain([[], [2], [2]], [[()], [(1,)]]), 3),
    "Z2<-Z4<-Z2": (_chain([[2], [4], [2]], [[(1,)], [(2,)]]), 2),
    "Z2<-Z2+Z2<-Z2": (_chain([[2], [2, 2], [2]], [[(1,), (1,)], [(1, 1)]]), 2),
    "0<-Z3<-Z3": (_chain([[], [3], [3]], [[()], [(1,)]]), 2),
}
DOLD_KAN_CASES = [
    (label, depth)
    for label, (_, top) in DOLD_KAN_CHAINS.items()
    for depth in range(top + 1)
]


@pytest.mark.parametrize("label, depth", DOLD_KAN_CASES)
def test_dold_kan_matches_reference(label, depth):
    chain = DOLD_KAN_CHAINS[label][0]
    got, ref = dold_kan(chain, depth), _reference_dold_kan(chain, depth)
    assert json.dumps(got.to_json()) == json.dumps(ref.to_json())
    for level, ref_level in zip(got.levels, ref.levels, strict=True):
        assert list(level.arrows.items()) == list(ref_level.arrows.items())
        assert list(level.comp.items()) == list(ref_level.comp.items())
        assert list(level.inverses.items()) == list(ref_level.inverses.items())
        assert level.identities == ref_level.identities
    for ops, ref_ops in ((got.faces, ref.faces), (got.degeneracies, ref.degeneracies)):
        assert list(ops) == list(ref_ops)
        for key, op in ops.items():
            assert list(op.arrow_map.items()) == list(ref_ops[key].arrow_map.items())


# associativity is checked on every triple, so only levels this small
LAW_CHECK_MAX = 27


@pytest.mark.parametrize("label", sorted(DOLD_KAN_CHAINS))
def test_dold_kan_levels_and_operators_satisfy_the_laws(label):
    chain, depth = DOLD_KAN_CHAINS[label]
    sgpd = dold_kan(chain, depth)
    small = {n for n, level in enumerate(sgpd.levels) if len(level.arrows) <= LAW_CHECK_MAX}
    assert 0 in small
    for n in small:
        assert sgpd.levels[n].validate() == []
    ops = [(n, n - 1, op) for (n, _), op in sgpd.faces.items()]
    ops += [(n, n + 1, op) for (n, _), op in sgpd.degeneracies.items()]
    checked = [op for n, out, op in ops if {n, out} <= small]
    assert checked
    for op in checked:
        assert op.validate() == []


@pytest.mark.parametrize("depth", [-1, True, 1.5, "2"])
def test_dold_kan_rejects_bad_depth(depth):
    with pytest.raises(ValueError, match="depth must be a non-negative integer"):
        dold_kan(z2_chain_in_degree(1), depth)


def test_hom_simplicial_group_extracts_loops():
    interval_with_z2 = SimplicialGroupoid.constant(
        FiniteGroupoid.chaotic(["0", "1"], GroupTable.cyclic(2)), 2
    )
    loops = hom_simplicial_group(interval_with_z2, "0")
    assert loops.validate() == []
    assert moore_pi_n(loops, 0).iso_to(GroupTable.cyclic(2)) is not None
    assert moore_pi_n(loops, 1).is_trivial()


def test_sgpd_json_round_trip():
    z2 = SimplicialGroupoid.constant(
        FiniteGroupoid.from_group(GroupTable.cyclic(2)), 2
    )
    data = z2.to_json()
    assert set(data) == {"objects", "depth", "levels", "faces", "degeneracies"}
    kind, back = jsonio.load_object_unchecked(data)
    assert kind == "sgpd"
    assert back.validate() == []
    assert back.objects == z2.objects


def test_free_sgpd_json_round_trip():
    from hpk.loop import loop_groupoid
    from hpk.sset import standard_complex

    s1 = standard_complex("sphere", 1, depth=3)
    g = loop_groupoid(s1, 2)
    kind, back = jsonio.load_object_unchecked(g.to_json())
    assert kind == "sgpd"
    assert back.validate() == []
    assert all(
        back.levels[n].generators == g.levels[n].generators for n in range(3)
    )
