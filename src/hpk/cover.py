"""Exact pi_2 of a finite complex, from the universal cover of a component.

By cellular approximation pi_2|X| = pi_2|sk_3 X|, and by Hurewicz on the
simply connected cover that is H_2 of the universal cover (J. H. C.
Whitehead, "Combinatorial homotopy II", 1949).  pi_1 of the component comes
from coset enumeration on the edge-path presentation, whose cosets are the
sheets of the cover.  A cell of the cover is a pair (sheet, nondegenerate
simplex) in dimensions 1-3: face 0 moves to another sheet along the
simplex's 0 -> 1 edge, and every other face stays on the same sheet.  When
pi_1 has more elements than the coset cap the answer is ``None``
("unknown").
"""

from .groups import (
    DEFAULT_MAX_COSETS,
    PresentedGroup,
    _EnumerationOverflow,
    _smith_diagonal,
    _todd_coxeter,
    invert_word,
)
from .sset import InsufficientDepth


def cover_invariants(sset, base):
    """(|pi_1|, (free_rank, torsion) of pi_2) at ``base``, or None.

    ``None`` means pi_1 outgrew the coset cap, so it is infinite or larger
    than the cap.  Needs depth >= 3.
    """
    if sset.depth < 3:
        raise InsufficientDepth(f"pi_2 by the universal cover needs depth 3, have {sset.depth}")
    if base not in sset.levels[0]:
        raise ValueError(f"basepoint {base!r} is not a vertex")
    degenerate = [sset.degenerate_ids(n) for n in range(4)]
    cells = [[x for x in sset.levels[n] if x not in degenerate[n]] for n in range(4)]
    neighbours = {}
    for e in cells[1]:
        s, t = sset.face(1, 1, e), sset.face(1, 0, e)
        neighbours.setdefault(s, []).append((e, t))
        neighbours.setdefault(t, []).append((e, s))
    reached = {base}
    tree = []
    frontier = [base]
    for v in frontier:
        for e, w in neighbours.get(v, ()):
            if w not in reached:
                reached.add(w)
                tree.append(e)
                frontier.append(w)
    cells = [[x for x in level if sset.vertex(n, x, 0) in reached] for n, level in enumerate(cells)]

    def letters(edge):
        return () if edge in degenerate[1] else ((edge, 1),)

    relators = [((e, 1),) for e in tree]
    for t in cells[2]:
        relators.append(
            letters(sset.face(2, 2, t))
            + letters(sset.face(2, 0, t))
            + invert_word(letters(sset.face(2, 1, t)))
        )
    group = PresentedGroup(cells[1], relators)
    try:
        enumerated = _todd_coxeter(group.generators, group.relators, DEFAULT_MAX_COSETS)
    except _EnumerationOverflow:
        return None
    if enumerated is None:
        return None
    table = enumerated[0]
    sheets = len(table)

    def boundary(n):
        """Rows of the boundary map from n-cells of the cover to (n-1)-cells."""
        column = {x: i for i, x in enumerate(cells[n - 1])}
        width = len(cells[n - 1])
        rows = []
        for x in cells[n]:
            edge = x
            for m in range(n, 1, -1):
                edge = sset.face(m, m, edge)
            for sheet in range(sheets):
                row = {}
                for i in range(n + 1):
                    y = sset.face(n, i, x)
                    if y in degenerate[n - 1]:
                        continue
                    at = sheet
                    if i == 0 and edge not in degenerate[1]:
                        at = table[sheet][(edge, 1)]
                    col = at * width + column[y]
                    row[col] = row.get(col, 0) + (-1) ** i
                rows.append(row)
        return rows

    rank2 = len(_smith_diagonal(boundary(2)))
    factors3 = _smith_diagonal(boundary(3))
    free_rank = sheets * len(cells[2]) - rank2 - len(factors3)
    return sheets, (free_rank, [d for d in factors3 if d > 1])


def pi2_by_cover(sset, base):
    """pi_2 at ``base`` as (free_rank, torsion), or None when pi_1 is too big.

    The shape is that of ``PresentedGroup.abelian_invariants``: pi_2 is
    Z^free_rank plus the cyclic groups of the listed orders.
    """
    invariants = cover_invariants(sset, base)
    return None if invariants is None else invariants[1]
