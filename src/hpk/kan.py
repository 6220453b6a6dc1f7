"""Horn filling and brute-force homotopy groups of finite Kan complexes.

``pi_n_kan`` enumerates pointed n-spheres (simplices whose entire boundary
sits at the basepoint) and divides by homotopies found one level up; the
group law comes from horn fillers.  The multiplication table is checked for
single-valuedness and group laws, so a wrong operator convention upstream
fails loudly here instead of producing a wrong group.

Horn enumeration charges its budget one work unit per consistent partial
horn: the empty horn, every partial assignment of faces that satisfies the
simplicial identities among the faces chosen so far, and every complete
horn.  Candidates are drawn from a face index, so faces that cannot match
are never visited, but the units charged are exactly those of a scan over
the whole level.
"""

from .budgets import DEFAULT_FILLER_BUDGET, Meter, env_budget
from .groups import GroupTable
from .sset import InsufficientDepth, _UnionFind, compatible_tuples


class KanConditionFailed(Exception):
    """The complex is not Kan at the levels that were checked."""

    def __init__(self, level, index, horn):
        super().__init__(f"horn Lambda^{level}_{index} with faces {horn} has no filler")
        self.level = level
        self.index = index
        self.horn = horn


def enumerate_horns(sset, m, k, meter):
    """Every horn Lambda^m_k in ``sset``, as {face index: (m-1)-simplex}.

    Horns come from the shared matching-tuple search, which charges
    ``meter`` one work unit per consistent partial horn.
    """
    positions = [i for i in range(m + 1) if i != k]
    faces = [sset.faces[(m - 1, i)] for i in range(m)] if m > 1 else ()
    return [
        dict(zip(positions, tup))
        for tup in compatible_tuples(sset.levels[m - 1], faces, positions, meter)
    ]


def kan_report(sset, max_level, budget=None):
    """Unfillable horns up to ``max_level``; empty iff Kan there."""
    if max_level > sset.depth:
        raise InsufficientDepth(
            f"Kan check to level {max_level} needs depth {max_level}, have {sset.depth}"
        )
    budget = env_budget(DEFAULT_FILLER_BUDGET if budget is None else budget)
    meter = Meter("horn enumeration", budget)
    failures = []
    for m in range(1, max_level + 1):
        for k in range(m + 1):
            fillable = set()
            for z in sset.levels[m]:
                key = tuple(sset.face(m, i, z) for i in range(m + 1) if i != k)
                fillable.add(key)
            for horn in enumerate_horns(sset, m, k, meter):
                key = tuple(horn[i] for i in sorted(horn))
                if key not in fillable:
                    failures.append((m, k, key))
    return failures


def is_kan(sset, max_level, budget=None):
    return not kan_report(sset, max_level, budget=budget)


def pi_n_kan(sset, base, n, budget=None):
    """The n-th homotopy group of a finite Kan complex at a base vertex.

    Requires depth >= n + 1 and the Kan condition up to level n + 1 (checked
    by enumeration).  Returns a GroupTable on representative sphere ids.
    """
    if n < 1:
        raise ValueError("pi_n_kan needs n >= 1; use pi0_sset for components")
    if sset.depth < n + 1:
        raise InsufficientDepth(f"pi_{n} needs depth {n + 1}, have {sset.depth}")
    if base not in sset.levels[0]:
        raise ValueError(f"basepoint {base!r} is not a vertex")
    budget = env_budget(DEFAULT_FILLER_BUDGET if budget is None else budget)
    failures = kan_report(sset, n + 1, budget=budget)
    if failures:
        m, k, horn = failures[0]
        raise KanConditionFailed(m, k, horn)

    base_low = sset.basepoint_at(base, n - 1)
    base_n = sset.basepoint_at(base, n)
    spheres = [
        x
        for x in sset.levels[n]
        if all(sset.face(n, i, x) == base_low for i in range(n + 1))
    ]
    sphere_set = set(spheres)

    meter = Meter("homotopy enumeration", budget)
    uf = _UnionFind()
    for x in spheres:
        uf.add(x)
    for h in sset.levels[n + 1]:
        meter.tick()
        if all(sset.face(n + 1, i, h) == base_n for i in range(n)):
            a = sset.face(n + 1, n, h)
            b = sset.face(n + 1, n + 1, h)
            if a in sphere_set and b in sphere_set:
                uf.union(a, b)
    classes = uf.classes()
    rep_of = {}
    for root, members in classes.items():
        rep = min(members)
        for x in members:
            rep_of[x] = rep
    reps = sorted(set(rep_of.values()))

    mult = {}
    for h in sset.levels[n + 1]:
        meter.tick()
        if any(sset.face(n + 1, i, h) != base_n for i in range(n - 1)):
            continue
        a = sset.face(n + 1, n - 1, h)
        p = sset.face(n + 1, n, h)
        b = sset.face(n + 1, n + 1, h)
        if a in sphere_set and b in sphere_set and p in sphere_set:
            key = (rep_of[a], rep_of[b])
            value = rep_of[p]
            if mult.setdefault(key, value) != value:
                raise AssertionError(
                    f"pi_{n} product ill-defined on {key}: {mult[key]} vs {value}"
                )
    for x in reps:
        for y in reps:
            if (x, y) not in mult:
                raise AssertionError(
                    f"pi_{n} product missing for ({x}, {y}) despite Kan condition"
                )
    identity = rep_of[base_n]
    return GroupTable(reps, mult, identity)
