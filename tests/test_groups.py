from hypothesis import given, strategies as st

from hpk import groups
from hpk.cover import pi2_by_cover
from hpk.groups import GroupTable, PresentedGroup, free_reduce, invert_word
from hpk.sset import standard_complex


def test_cyclic_table_basics():
    z3 = GroupTable.cyclic(3)
    assert z3.order == 3
    assert z3.is_abelian()
    assert z3.element_order("g1") == 3
    assert z3.inv("g1") == "g2"


def test_validate_rejects_broken_table():
    bad = {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "a"}
    assert GroupTable(["e", "a"], bad, "e").validate() == ["no inverse for a"]


def test_iso_detects_isomorphism_and_its_absence():
    z4 = GroupTable.cyclic(4)
    z4b = GroupTable.cyclic(4, prefix="h")
    klein = GroupTable.direct_product(GroupTable.cyclic(2), GroupTable.cyclic(2, prefix="h"))
    assert z4.iso_to(z4b) is not None
    assert z4.iso_to(klein) is None
    assert klein.order == 4


def test_quotient_of_cyclic():
    z6 = GroupTable.cyclic(6)
    sub = z6.subgroup_generated(["g2"])
    assert len(sub) == 3
    q = z6.quotient(sub)
    assert q.iso_to(GroupTable.cyclic(2)) is not None


def test_free_reduce_examples():
    a, ainv, b = ("a", 1), ("a", -1), ("b", 1)
    assert free_reduce((a, ainv, b)) == (b,)
    assert free_reduce(()) == ()
    assert invert_word((a, b)) == (("b", -1), ("a", -1))


@given(st.lists(st.tuples(st.sampled_from("ab"), st.sampled_from([1, -1])), max_size=12))
def test_free_reduce_idempotent(word):
    once = free_reduce(tuple(word))
    assert free_reduce(once) == once
    for (g1, e1), (g2, e2) in zip(once, once[1:]):
        assert not (g1 == g2 and e1 == -e2)


def test_presented_cyclic_two_enumerates():
    g = PresentedGroup(["t"], [(("t", 1), ("t", 1))])
    table = g.coset_enumeration(max_cosets=50)
    assert table is not None
    assert table.iso_to(GroupTable.cyclic(2)) is not None


def test_presented_z6_from_two_generators():
    rels = [
        (("a", 1), ("b", 1), ("a", -1), ("b", -1)),
        (("a", 1),) * 2,
        (("b", 1),) * 3,
    ]
    g = PresentedGroup(["a", "b"], rels)
    table = g.coset_enumeration(max_cosets=100)
    assert table is not None
    assert table.iso_to(GroupTable.cyclic(6)) is not None


def test_presented_infinite_cyclic():
    g = PresentedGroup(["e"], [])
    assert g.is_infinite_cyclic() is True
    h = PresentedGroup(["e"], [(("e", 1), ("e", 1))])
    assert h.is_infinite_cyclic() is False


def test_abelian_invariants():
    g = PresentedGroup(["a", "b"], [(("a", 1),) * 2])
    rank, torsion = g.abelian_invariants()
    assert rank == 1
    assert torsion == [2]


def test_positive_free_rank_skips_coset_enumeration(monkeypatch):
    """A presentation whose abelianization has positive free rank is of an
    infinite group: every route answers without entering the enumeration."""

    def entered(*args):
        raise AssertionError("coset enumeration entered")

    monkeypatch.setattr(groups, "_enumerate_cosets", entered)
    z = PresentedGroup(["a", "b"], [(("a", 1),)])
    assert z.is_infinite_cyclic() is None
    assert z.isomorphic_to_table(GroupTable.cyclic(2)) is False
    assert pi2_by_cover(standard_complex("sphere", 1, depth=3), "*") is None


def test_isomorphic_to_table_bounded():
    g = PresentedGroup(["t"], [(("t", 1),) * 4])
    assert g.isomorphic_to_table(GroupTable.cyclic(4)) is True
    assert g.isomorphic_to_table(GroupTable.cyclic(5)) is False
