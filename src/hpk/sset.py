"""Finite truncated simplicial sets.

A :class:`TruncatedSimplicialSet` stores every simplex explicitly per level,
including degenerate ones, together with total face and degeneracy tables.
Constructors store their tables unchecked; ``validate`` checks the five
simplicial identity families wherever both sides are defined within the
truncation depth.  Any operation that needs more depth than it was given
raises :class:`InsufficientDepth` rather than approximating.
"""

from itertools import combinations_with_replacement


class InsufficientDepth(ValueError):
    """An operation was asked to work beyond the stored truncation depth."""


class TruncatedSimplicialSet:
    def __init__(self, depth, levels, faces, degeneracies):
        if not isinstance(depth, int) or isinstance(depth, bool) or depth < 0:
            raise ValueError(f"depth must be a non-negative integer, got {depth!r}")
        self.depth = depth
        self.levels = tuple(tuple(sorted(level)) for level in levels)
        self.faces = {key: dict(table) for key, table in faces.items()}
        self.degeneracies = {key: dict(table) for key, table in degeneracies.items()}
        if len(self.levels) != depth + 1:
            raise ValueError(f"expected {depth + 1} levels, got {len(self.levels)}")

    # -- basic access -----------------------------------------------------

    def level(self, n):
        if not 0 <= n <= self.depth:
            raise InsufficientDepth(f"level {n} beyond depth {self.depth}")
        return self.levels[n]

    def face(self, n, i, x):
        return self.faces[(n, i)][x]

    def degeneracy(self, n, i, x):
        return self.degeneracies[(n, i)][x]

    def level_sizes(self):
        return [len(level) for level in self.levels]

    # -- validation -------------------------------------------------------

    def validate(self):
        """All violations of the simplicial-set invariants, as strings."""
        problems = []
        for n, level in enumerate(self.levels):
            if len(set(level)) != len(level):
                problems.append(f"duplicate ids at level {n}")
        problems.extend(self._check_tables())
        if problems:
            return problems
        problems.extend(self._check_identities())
        return problems

    def _check_tables(self):
        problems = []
        for n in range(1, self.depth + 1):
            for i in range(n + 1):
                table = self.faces.get((n, i))
                if table is None:
                    problems.append(f"missing face table d_{i} at level {n}")
                    continue
                level, target = set(self.levels[n]), set(self.levels[n - 1])
                if set(table) != level:
                    problems.append(f"face table d_{i} at level {n} not total")
                elif not set(table.values()) <= target:
                    problems.append(f"face table d_{i} at level {n} escapes level {n - 1}")
        for n in range(0, self.depth):
            for i in range(n + 1):
                table = self.degeneracies.get((n, i))
                if table is None:
                    problems.append(f"missing degeneracy table s_{i} at level {n}")
                    continue
                level, target = set(self.levels[n]), set(self.levels[n + 1])
                if set(table) != level:
                    problems.append(f"degeneracy table s_{i} at level {n} not total")
                elif not set(table.values()) <= target:
                    problems.append(f"degeneracy s_{i} at level {n} escapes level {n + 1}")
        return problems

    def _check_identities(self):
        problems = []
        d, s = self.face, self.degeneracy
        for n in range(2, self.depth + 1):
            for j in range(n + 1):
                for i in range(j):
                    for x in self.levels[n]:
                        if d(n - 1, i, d(n, j, x)) != d(n - 1, j - 1, d(n, i, x)):
                            problems.append(
                                f"d_{i} d_{j} != d_{j - 1} d_{i} at level {n} on {x}"
                            )
        for n in range(0, self.depth):
            for j in range(n + 1):
                for x in self.levels[n]:
                    y = s(n, j, x)
                    if d(n + 1, j, y) != x:
                        problems.append(f"d_{j} s_{j} != id at level {n} on {x}")
                    if d(n + 1, j + 1, y) != x:
                        problems.append(f"d_{j + 1} s_{j} != id at level {n} on {x}")
        for n in range(1, self.depth):
            for j in range(n + 1):
                for i in range(n + 2):
                    for x in self.levels[n]:
                        y = s(n, j, x)
                        if i < j:
                            if d(n + 1, i, y) != s(n - 1, j - 1, d(n, i, x)):
                                problems.append(
                                    f"d_{i} s_{j} != s_{j - 1} d_{i} at level {n} on {x}"
                                )
                        elif i > j + 1:
                            if d(n + 1, i, y) != s(n - 1, j, d(n, i - 1, x)):
                                problems.append(
                                    f"d_{i} s_{j} != s_{j} d_{i - 1} at level {n} on {x}"
                                )
        for n in range(0, self.depth - 1):
            for j in range(n + 1):
                for i in range(j + 1):
                    for x in self.levels[n]:
                        if s(n + 1, i, s(n, j, x)) != s(n + 1, j + 1, s(n, i, x)):
                            problems.append(
                                f"s_{i} s_{j} != s_{j + 1} s_{i} at level {n} on {x}"
                            )
        return problems

    # -- degeneracy structure ----------------------------------------------

    def degenerate_ids(self, n):
        if n == 0:
            return set()
        out = set()
        for i in range(n):
            out.update(self.degeneracies[(n - 1, i)].values())
        return out

    def nondegenerate(self, n):
        degen = self.degenerate_ids(n)
        return tuple(x for x in self.levels[n] if x not in degen)

    def decompose(self, n, x):
        """Eilenberg-Zilber view: (m, base, word) with x = s_word(base).

        ``word`` is the outside-in tuple of degeneracy indices, normalised to
        be strictly decreasing; ``base`` is nondegenerate at level ``m``.
        """
        word = []
        level = n
        while level > 0:
            hit = None
            for i in range(level):
                y = self.faces[(level, i)][x]
                if self.degeneracies[(level - 1, i)][y] == x:
                    hit = (i, y)
                    break
            if hit is None:
                break
            word.append(hit[0])
            x = hit[1]
            level -= 1
        # normalise: rewrite s_a s_b -> s_{b+1} s_a for a <= b (outside-in)
        changed = True
        while changed:
            changed = False
            for k in range(len(word) - 1):
                a, b = word[k], word[k + 1]
                if a <= b:
                    word[k], word[k + 1] = b + 1, a
                    changed = True
        return level, x, tuple(word)

    def apply_degeneracy_word(self, m, x, word):
        """Apply s_word (outside-in) to a level-m simplex."""
        for i in reversed(word):
            x = self.degeneracies[(m, i)][x]
            m += 1
        return x

    def vertex(self, n, x, j):
        """The j-th vertex of a level-n simplex."""
        if not 0 <= j <= n:
            raise ValueError(f"vertex index {j} out of range for level {n}")
        level = n
        while level > j:
            x = self.faces[(level, level)][x]
            level -= 1
        while level > 0:
            x = self.faces[(level, 0)][x]
            level -= 1
        return x

    def basepoint_at(self, vertex, n):
        """The n-fold degenerate simplex on a vertex."""
        x = vertex
        for m in range(n):
            x = self.degeneracies[(m, 0)][x]
        return x

    # -- serialization ------------------------------------------------------

    def to_json(self):
        return {
            "depth": self.depth,
            "levels": [list(level) for level in self.levels],
            "faces": {
                f"{n},{i}": dict(sorted(table.items()))
                for (n, i), table in sorted(self.faces.items())
            },
            "degeneracies": {
                f"{n},{i}": dict(sorted(table.items()))
                for (n, i), table in sorted(self.degeneracies.items())
            },
        }

    @classmethod
    def from_json(cls, data):
        faces = {}
        for key, table in data["faces"].items():
            n, i = key.split(",")
            faces[(int(n), int(i))] = table
        degeneracies = {}
        for key, table in data["degeneracies"].items():
            n, i = key.split(",")
            degeneracies[(int(n), int(i))] = table
        return cls(data["depth"], data["levels"], faces, degeneracies)

    def __repr__(self):
        return f"TruncatedSimplicialSet(depth={self.depth}, sizes={self.level_sizes()})"


class SimplicialMap:
    """A levelwise map of truncated simplicial sets of equal depth."""

    def __init__(self, source, target, level_maps):
        if source.depth != target.depth:
            raise ValueError("source and target must have equal depth")
        self.source = source
        self.target = target
        self.level_maps = [dict(m) for m in level_maps]

    def __call__(self, n, x):
        return self.level_maps[n][x]

    def validate(self):
        problems = []
        for n in range(self.source.depth + 1):
            mapping = self.level_maps[n]
            if set(mapping) != set(self.source.levels[n]):
                problems.append(f"level {n} map not total")
                return problems
            if not set(mapping.values()) <= set(self.target.levels[n]):
                problems.append(f"level {n} map escapes target")
                return problems
        for n in range(1, self.source.depth + 1):
            for i in range(n + 1):
                for x in self.source.levels[n]:
                    left = self.level_maps[n - 1][self.source.face(n, i, x)]
                    right = self.target.face(n, i, self.level_maps[n][x])
                    if left != right:
                        problems.append(f"does not commute with d_{i} at level {n} on {x}")
        for n in range(0, self.source.depth):
            for i in range(n + 1):
                for x in self.source.levels[n]:
                    left = self.level_maps[n + 1][self.source.degeneracy(n, i, x)]
                    right = self.target.degeneracy(n, i, self.level_maps[n][x])
                    if left != right:
                        problems.append(f"does not commute with s_{i} at level {n} on {x}")
        return problems

    @classmethod
    def identity(cls, sset):
        return cls(sset, sset, [{x: x for x in level} for level in sset.levels])

    def compose(self, other):
        """self after other (function order)."""
        if other.target is not self.source and other.target.levels != self.source.levels:
            raise ValueError("maps not composable")
        maps = [
            {x: self.level_maps[n][other.level_maps[n][x]] for x in other.source.levels[n]}
            for n in range(other.source.depth + 1)
        ]
        return SimplicialMap(other.source, self.target, maps)

    def equals(self, other):
        return (
            self.source.levels == other.source.levels
            and self.target.levels == other.target.levels
            and self.level_maps == other.level_maps
        )

    def to_json(self):
        return {"levels": [dict(sorted(m.items())) for m in self.level_maps]}


def validate_sset(sset):
    """Report of simplicial identity violations (empty iff valid)."""
    return sset.validate()


def compatible_tuples(simplices, face_tables, positions, meter=None):
    """Every tuple (x_p for p in positions) with d_i x_j = d_(j-1) x_i for i < j.

    This is the matching-tuple search shared by the nerve's higher levels
    and by horn enumeration.  ``face_tables[i]`` maps each simplex to its
    i-th face and ``positions`` is increasing.  The first position ranges
    over ``simplices``; each later position p takes its candidates from one
    bucket index {d_(p0) x: [x, ...]}, looked up at d_(p-1) x_(p0), and the
    relations with the other chosen positions are checked against the face
    tables.  Buckets keep the order of ``simplices``, so the tuples come out
    in the lexicographic order of a plain nested scan.  ``meter.tick()`` is
    charged once per consistent partial tuple, the empty one and the
    complete ones included.
    """
    positions = tuple(positions)
    width = len(positions)
    out = []
    buckets = {}
    if width > 1:
        first = face_tables[positions[0]]
        for x in simplices:
            buckets.setdefault(first[x], []).append(x)

    def extend(chosen):
        if meter is not None:
            meter.tick()
        t = len(chosen)
        if t == width:
            out.append(tuple(chosen))
            return
        if t == 0:
            candidates, checks = simplices, ()
        else:
            below = face_tables[positions[t] - 1]
            candidates = buckets.get(below[chosen[0]], ())
            checks = [(face_tables[positions[s]], below[chosen[s]]) for s in range(1, t)]
        for x in candidates:
            for face, want in checks:
                if face[x] != want:
                    break
            else:
                chosen.append(x)
                extend(chosen)
                chosen.pop()

    extend([])
    return out


def _tuple_id(t):
    return ".".join(str(v) for v in t)


def _simplex_tuples(n, m):
    """Nondecreasing (m+1)-tuples with values in 0..n: the m-simplices of a standard n-simplex."""
    return list(combinations_with_replacement(range(n + 1), m + 1))


def _tuples_complex(depth, predicate, n):
    levels = []
    keep = {}
    for m in range(depth + 1):
        chosen = [t for t in _simplex_tuples(n, m) if predicate(t)]
        keep[m] = chosen
        levels.append([_tuple_id(t) for t in chosen])
    faces = {}
    degeneracies = {}
    for m in range(1, depth + 1):
        for i in range(m + 1):
            faces[(m, i)] = {
                _tuple_id(t): _tuple_id(t[:i] + t[i + 1 :]) for t in keep[m]
            }
    for m in range(0, depth):
        for i in range(m + 1):
            degeneracies[(m, i)] = {
                _tuple_id(t): _tuple_id(t[: i + 1] + t[i:]) for t in keep[m]
            }
    return TruncatedSimplicialSet(depth, levels, faces, degeneracies)


def standard_complex(kind, n=0, k=None, depth=None):
    """Standard complexes: Delta, boundary, horn, sphere (Delta/boundary) and point.

    ``kind`` is one of ``"Delta"``, ``"boundary"``, ``"horn"``, ``"sphere"``,
    ``"point"``.  ``depth`` defaults to ``n`` (``n + 1`` for spheres so the
    collapse is visible).
    """
    if kind == "point":
        depth = 0 if depth is None else depth
        return _point_complex(depth)
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    if depth is None:
        depth = n + 1 if kind == "sphere" else n
    if depth < n:
        raise InsufficientDepth(f"depth {depth} too small for dimension {n}")
    full = set(range(n + 1))
    if kind == "Delta":
        return _tuples_complex(depth, lambda t: True, n)
    if kind == "boundary":
        if n == 0:
            return _empty_complex(depth)
        return _tuples_complex(depth, lambda t: set(t) != full, n)
    if kind == "horn":
        if k is None or not 0 <= k <= n:
            raise ValueError(f"horn index k={k} out of range for n={n}")
        return _tuples_complex(depth, lambda t: not (full - set(t) <= {k}), n)
    if kind == "sphere":
        return _sphere_complex(n, depth)
    raise ValueError(f"unknown standard complex kind {kind!r}")


def _point_complex(depth):
    levels = [["*"] for _ in range(depth + 1)]
    faces = {(m, i): {"*": "*"} for m in range(1, depth + 1) for i in range(m + 1)}
    degeneracies = {(m, i): {"*": "*"} for m in range(depth) for i in range(m + 1)}
    return TruncatedSimplicialSet(depth, levels, faces, degeneracies)


def _empty_complex(depth):
    levels = [[] for _ in range(depth + 1)]
    faces = {(m, i): {} for m in range(1, depth + 1) for i in range(m + 1)}
    degeneracies = {(m, i): {} for m in range(depth) for i in range(m + 1)}
    return TruncatedSimplicialSet(depth, levels, faces, degeneracies)


def _sphere_complex(n, depth):
    """The n-sphere as the n-simplex with its whole boundary collapsed."""
    if n == 0:
        raise ValueError("use two points for a 0-sphere")
    full = set(range(n + 1))

    def collapse(t):
        return _tuple_id(t) if set(t) == full else "*"

    levels = []
    keep = {}
    for m in range(depth + 1):
        chosen = [t for t in _simplex_tuples(n, m) if set(t) == full]
        keep[m] = chosen
        levels.append([_tuple_id(t) for t in chosen] + ["*"])
    faces = {}
    degeneracies = {}
    for m in range(1, depth + 1):
        for i in range(m + 1):
            table = {"*": "*"}
            for t in keep[m]:
                table[_tuple_id(t)] = collapse(t[:i] + t[i + 1 :])
            faces[(m, i)] = table
    for m in range(0, depth):
        for i in range(m + 1):
            table = {"*": "*"}
            for t in keep[m]:
                table[_tuple_id(t)] = collapse(t[: i + 1] + t[i:])
            degeneracies[(m, i)] = table
    return TruncatedSimplicialSet(depth, levels, faces, degeneracies)


def disjoint_union(x, y, tags=("a", "b")):
    """Coproduct of two complexes of equal depth, with tagged ids."""
    if x.depth != y.depth:
        raise ValueError("depth mismatch")
    ta, tb = tags

    def merge(table_x, table_y):
        out = {f"{ta}:{k}": f"{ta}:{v}" for k, v in table_x.items()}
        out.update({f"{tb}:{k}": f"{tb}:{v}" for k, v in table_y.items()})
        return out

    levels = [
        [f"{ta}:{s}" for s in lx] + [f"{tb}:{s}" for s in ly]
        for lx, ly in zip(x.levels, y.levels)
    ]
    faces = {key: merge(x.faces[key], y.faces[key]) for key in x.faces}
    degeneracies = {
        key: merge(x.degeneracies[key], y.degeneracies[key]) for key in x.degeneracies
    }
    incl_x = [{s: f"{ta}:{s}" for s in lx} for lx in x.levels]
    incl_y = [{s: f"{tb}:{s}" for s in ly} for ly in y.levels]
    union = TruncatedSimplicialSet(x.depth, levels, faces, degeneracies)
    return (
        union,
        SimplicialMap(x, union, incl_x),
        SimplicialMap(y, union, incl_y),
    )


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra

    def classes(self):
        groups = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return {root: tuple(sorted(members)) for root, members in groups.items()}


def pushout(f, g):
    """Pushout of B <-f- A -g-> C, computed levelwise.

    Returns (D, B -> D, C -> D).
    """
    a, b, c = f.source, f.target, g.target
    if g.source is not a and g.source.levels != a.levels:
        raise ValueError("pushout legs must share their source")
    if not (a.depth == b.depth == c.depth):
        raise ValueError("depth mismatch")
    classes_per_level = []
    for n in range(a.depth + 1):
        uf = _UnionFind()
        for x in b.levels[n]:
            uf.add(("b", x))
        for x in c.levels[n]:
            uf.add(("c", x))
        for x in a.levels[n]:
            uf.union(("b", f(n, x)), ("c", g(n, x)))
        classes_per_level.append(uf)

    names = []
    member_to_name = []
    for n in range(a.depth + 1):
        classes = classes_per_level[n].classes()
        level_names = {}
        lookup = {}
        for root in sorted(classes):
            name = "+".join(f"{tag}:{x}" for tag, x in classes[root])
            level_names[root] = name
            for member in classes[root]:
                lookup[member] = name
        names.append(level_names)
        member_to_name.append(lookup)

    homes = {"b": b, "c": c}
    faces = {}
    degeneracies = {}
    for n in range(1, a.depth + 1):
        for i in range(n + 1):
            out = {}
            for member, name in member_to_name[n].items():
                tag, x = member
                image = homes[tag].faces[(n, i)][x]
                value = member_to_name[n - 1][(tag, image)]
                if out.setdefault(name, value) != value:
                    raise AssertionError("pushout face map not well defined")
            faces[(n, i)] = out
    for n in range(0, a.depth):
        for i in range(n + 1):
            out = {}
            for member, name in member_to_name[n].items():
                tag, x = member
                image = homes[tag].degeneracies[(n, i)][x]
                value = member_to_name[n + 1][(tag, image)]
                if out.setdefault(name, value) != value:
                    raise AssertionError("pushout degeneracy map not well defined")
            degeneracies[(n, i)] = out

    levels = [sorted(set(member_to_name[n].values())) for n in range(a.depth + 1)]
    d = TruncatedSimplicialSet(a.depth, levels, faces, degeneracies)
    into_b = SimplicialMap(
        b, d, [{x: member_to_name[n][("b", x)] for x in b.levels[n]} for n in range(b.depth + 1)]
    )
    into_c = SimplicialMap(
        c, d, [{x: member_to_name[n][("c", x)] for x in c.levels[n]} for n in range(c.depth + 1)]
    )
    return d, into_b, into_c


def pair_id(p):
    """The id of an element (b, c) of a pullback."""
    return f"({p[0]}&{p[1]})"


def split_pair_key(key):
    """The two ids of a key ``"a|b"`` of a JSON product or composition table."""
    parts = key.split("|")
    if len(parts) != 2:
        raise ValueError(f"table key {key!r} is not two ids joined by '|'")
    return tuple(parts)


def pullback(f, g):
    """Pullback of B -f-> Y <-g- C, computed levelwise.

    Returns (P, P -> B, P -> C).
    """
    b, c, y = f.source, g.source, f.target
    if g.target is not y and g.target.levels != y.levels:
        raise ValueError("pullback legs must share their target")
    pairs = []
    for n in range(b.depth + 1):
        level_pairs = [
            (xb, xc)
            for xb in b.levels[n]
            for xc in c.levels[n]
            if f(n, xb) == g(n, xc)
        ]
        pairs.append(level_pairs)

    levels = [[pair_id(p) for p in level_pairs] for level_pairs in pairs]
    faces = {}
    degeneracies = {}
    for n in range(1, b.depth + 1):
        for i in range(n + 1):
            faces[(n, i)] = {
                pair_id((xb, xc)): pair_id((b.faces[(n, i)][xb], c.faces[(n, i)][xc]))
                for xb, xc in pairs[n]
            }
    for n in range(0, b.depth):
        for i in range(n + 1):
            degeneracies[(n, i)] = {
                pair_id((xb, xc)): pair_id(
                    (b.degeneracies[(n, i)][xb], c.degeneracies[(n, i)][xc])
                )
                for xb, xc in pairs[n]
            }
    p = TruncatedSimplicialSet(b.depth, levels, faces, degeneracies)
    onto_b = SimplicialMap(
        p, b, [{pair_id(pr): pr[0] for pr in pairs[n]} for n in range(b.depth + 1)]
    )
    onto_c = SimplicialMap(
        p, c, [{pair_id(pr): pr[1] for pr in pairs[n]} for n in range(b.depth + 1)]
    )
    return p, onto_b, onto_c


def truncate(sset, depth):
    """Forget levels above ``depth`` (never deepens)."""
    if depth == sset.depth:
        return sset
    if depth > sset.depth:
        raise InsufficientDepth("cannot deepen a truncated complex")
    faces = {(n, i): t for (n, i), t in sset.faces.items() if n <= depth}
    degeneracies = {
        (n, i): t for (n, i), t in sset.degeneracies.items() if n <= depth - 1
    }
    return TruncatedSimplicialSet(depth, sset.levels[: depth + 1], faces, degeneracies)


def pi0_sset(sset):
    """Path components: vertices modulo the edge-generated equivalence."""
    if sset.depth < 1:
        raise InsufficientDepth("pi0 needs depth >= 1 (edges unknown at depth 0)")
    uf = _UnionFind()
    for v in sset.levels[0]:
        uf.add(v)
    for e in sset.levels[1]:
        uf.union(sset.face(1, 0, e), sset.face(1, 1, e))
    classes = uf.classes()
    return tuple(sorted(classes.values()))
