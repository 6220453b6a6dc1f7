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
the whole level.  The search is breadth-first and charges each partial horn
with its siblings, in one call per parent, so the total is the same but a
search over budget stops at most one face bucket past the limit.  The
homotopy scans of ``pi_n_kan`` charge one unit per (n+1)-simplex per scan,
one whole level at a time.
"""

from .budgets import DEFAULT_FILLER_BUDGET, Meter, resolve_budget
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
    """Unfillable horns up to ``max_level``; empty iff Kan there.

    A horn is keyed by its tuple of faces in increasing position, which is
    exactly the tuple ``compatible_tuples`` returns for it.
    """
    if max_level > sset.depth:
        raise InsufficientDepth(
            f"Kan check to level {max_level} needs depth {max_level}, have {sset.depth}"
        )
    meter = Meter("horn enumeration", resolve_budget(DEFAULT_FILLER_BUDGET, budget))
    failures = []
    for m in range(1, max_level + 1):
        level = sset.levels[m]
        tables = [sset.faces[(m, i)] for i in range(m + 1)]
        lower = [sset.faces[(m - 1, i)] for i in range(m)] if m > 1 else ()
        for k in range(m + 1):
            positions = [i for i in range(m + 1) if i != k]
            fillable = set(zip(*(map(tables[i].__getitem__, level) for i in positions)))
            horns = compatible_tuples(sset.levels[m - 1], lower, positions, meter)
            failures.extend((m, k, key) for key in horns if key not in fillable)
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
    budget = resolve_budget(DEFAULT_FILLER_BUDGET, budget)
    failures = kan_report(sset, n + 1, budget=budget)
    if failures:
        m, k, horn = failures[0]
        raise KanConditionFailed(m, k, horn)

    base_low = sset.basepoint_at(base, n - 1)
    base_n = sset.basepoint_at(base, n)
    level = sset.levels[n]
    boundaries = zip(*(map(sset.faces[(n, i)].__getitem__, level) for i in range(n + 1)))
    sphere_boundary = (base_low,) * (n + 1)
    spheres = [x for x, faces in zip(level, boundaries) if faces == sphere_boundary]
    sphere_set = set(spheres)

    # the faces of every (n+1)-simplex, one row per simplex
    above = sset.levels[n + 1]
    rows = list(zip(*(map(sset.faces[(n + 1, i)].__getitem__, above) for i in range(n + 2))))
    meter = Meter("homotopy enumeration", budget)
    uf = _UnionFind()
    for x in spheres:
        uf.add(x)
    meter.tick(len(rows))
    homotopy_head = (base_n,) * n
    for row in rows:
        if row[:n] == homotopy_head:
            a, b = row[n:]
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
    meter.tick(len(rows))
    product_head = homotopy_head[1:]
    for row in rows:
        if row[: n - 1] != product_head:
            continue
        a, p, b = row[n - 1 :]
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
