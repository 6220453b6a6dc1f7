import pytest

from hpk.kan import KanConditionFailed, is_kan, kan_report, pi_n_kan
from hpk.sset import standard_complex


def test_point_is_kan_and_all_pi_trivial():
    pt = standard_complex("point", depth=4)
    assert is_kan(pt, 4)
    for n in (1, 2, 3):
        table = pi_n_kan(pt, "*", n)
        assert table.order == 1


def test_circle_is_not_kan():
    s1 = standard_complex("sphere", 1, depth=2)
    failures = kan_report(s1, 2)
    assert failures
    with pytest.raises(KanConditionFailed):
        pi_n_kan(s1, "*", 1)


def test_pi_needs_depth():
    pt = standard_complex("point", depth=2)
    from hpk.sset import InsufficientDepth

    with pytest.raises(InsufficientDepth):
        pi_n_kan(pt, "*", 2)


def test_pi_rejects_n_zero():
    pt = standard_complex("point", depth=2)
    with pytest.raises(ValueError):
        pi_n_kan(pt, "*", 0)


def reference_kan_report(sset, max_level):
    """Unfillable horns found horn by horn through ``enumerate_horns`` and ``face``."""
    from hpk.budgets import Meter
    from hpk.kan import enumerate_horns

    meter = Meter("horns", 10**9)
    failures = []
    for m in range(1, max_level + 1):
        for k in range(m + 1):
            fillable = {
                tuple(sset.face(m, i, z) for i in range(m + 1) if i != k) for z in sset.levels[m]
            }
            for horn in enumerate_horns(sset, m, k, meter):
                key = tuple(horn[i] for i in sorted(horn))
                if key not in fillable:
                    failures.append((m, k, key))
    return failures


@pytest.mark.parametrize(
    "kind, n, k, depth",
    [
        ("sphere", 1, None, 3),
        ("sphere", 2, None, 3),
        ("boundary", 2, None, 3),
        ("horn", 2, 1, 3),
        ("Delta", 2, None, 3),
    ],
)
def test_kan_report_matches_the_horn_by_horn_reference(kind, n, k, depth):
    sset = standard_complex(kind, n, k=k, depth=depth)
    expected = reference_kan_report(sset, depth)
    # none of these is Kan, so the lists compared are not empty
    assert expected
    assert kan_report(sset, depth) == expected
