"""Finite truncated simplicial sets.

A :class:`TruncatedSimplicialSet` stores every simplex explicitly per level,
including degenerate ones, together with total face and degeneracy tables.
Constructors store their tables unchecked; ``validate`` checks the five
simplicial identity families wherever both sides are defined within the
truncation depth.  Any operation that needs more depth than it was given
raises :class:`InsufficientDepth` rather than approximating.
"""

from itertools import combinations_with_replacement

from .laws import commutation_problems, operator_table_problems, simplicial_identity_problems


class InsufficientDepth(ValueError):
    """An operation was asked to work beyond the stored truncation depth."""


def _operators(sset):
    """(face, degeneracy) of a simplicial set as the law checks take them."""
    return (
        lambda n, i: sset.faces[(n, i)].__getitem__,
        lambda n, i: sset.degeneracies[(n, i)].__getitem__,
    )


def check_depth(depth):
    """Raise a ValueError unless ``depth`` is a non-negative integer."""
    if not isinstance(depth, int) or isinstance(depth, bool) or depth < 0:
        raise ValueError(f"depth must be a non-negative integer, got {depth!r}")


class TruncatedSimplicialSet:
    def __init__(self, depth, levels, faces, degeneracies):
        check_depth(depth)
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
        problems.extend(simplicial_identity_problems(self.depth, self.levels, *_operators(self)))
        return problems

    def _check_tables(self):
        levels = [set(level) for level in self.levels]

        def totality(kind, n, i, table):
            letter, m = ("d", n - 1) if kind == "face" else ("s", n + 1)
            if set(table) != levels[n]:
                return [f"{kind} table {letter}_{i} at level {n} not total"]
            if not set(table.values()) <= levels[m]:
                return [f"{kind} table {letter}_{i} at level {n} escapes level {m}"]
            return []

        return operator_table_problems(self.depth, self.faces, self.degeneracies, totality)

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
        # copies in table order: ``jsonio.dumps`` writes every object sorted
        return {
            "depth": self.depth,
            "levels": [list(level) for level in self.levels],
            "faces": {f"{n},{i}": dict(table) for (n, i), table in self.faces.items()},
            "degeneracies": {
                f"{n},{i}": dict(table) for (n, i), table in self.degeneracies.items()
            },
        }

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
        if len(self.level_maps) != self.source.depth + 1:
            return ["wrong number of level maps"]
        problems = []
        for n in range(self.source.depth + 1):
            mapping = self.level_maps[n]
            if set(mapping) != set(self.source.levels[n]):
                problems.append(f"level {n} map not total")
                return problems
            if not set(mapping.values()) <= set(self.target.levels[n]):
                problems.append(f"level {n} map escapes target")
                return problems
        return commutation_problems(
            self.source.depth,
            self.source.levels,
            [m.__getitem__ for m in self.level_maps],
            _operators(self.source),
            _operators(self.target),
        )

    @classmethod
    def identity(cls, sset):
        return cls(sset, sset, [{x: x for x in level} for level in sset.levels])

    def restricted(self, source, target):
        """This map on the simplices of ``source``, a subcomplex of its source,
        into ``target``, a subcomplex of its target that holds their images."""
        return SimplicialMap(
            source, target, [{x: m[x] for x in level} for m, level in zip(self.level_maps, source.levels)]
        )

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


def subcomplex(sset, keep):
    """The simplices of ``sset`` in ``keep``, one set of ids per level, with
    their faces and degeneracies; ``keep`` must be closed under both."""
    def cut(tables):
        return {
            key: {x: img for x, img in table.items() if x in keep[key[0]]}
            for key, table in tables.items()
        }

    return TruncatedSimplicialSet(
        sset.depth,
        [[x for x in level if x in kept] for level, kept in zip(sset.levels, keep)],
        cut(sset.faces),
        cut(sset.degeneracies),
    )


def validate_sset(sset):
    """Report of simplicial identity violations (empty iff valid)."""
    return sset.validate()


def compatible_tuples(simplices, face_tables, positions, meter=None):
    """Every tuple (x_p for p in positions) with d_i x_j = d_(j-1) x_i for i < j.

    This is the matching-tuple search shared by the nerve's higher levels
    and by horn enumeration.  ``face_tables[i]`` maps each simplex to its
    i-th face and ``positions`` is increasing.

    The search is breadth-first: a layer holds the consistent partial tuples
    of one length, and the whole layer is extended by one position at a
    time.  Position t draws its candidates from an index of ``simplices``
    keyed by their faces d_(p_0), ..., d_(p_(t-1)); a partial tuple's
    children are the entry at the key d_(p_t - 1) of its own entries, so
    every relation with the earlier positions is checked by one lookup.
    Index entries keep the order of ``simplices`` and a layer is built parent
    by parent, so the tuples come out in the lexicographic order of a plain
    nested scan.

    ``meter`` is charged one unit per consistent partial tuple, the empty
    one and the complete ones included, as a depth-first search charging
    each tuple it visits would be.  The units are charged per parent, for
    all of its children at once, and the first layer bucket by bucket (a
    bucket is the set of simplices with one d_(p_0) face, and no parent has
    more children than its bucket holds).  So a search that runs out of
    budget stops having charged at most one bucket beyond it; with a single
    position there are no buckets and ``simplices`` is charged at once.
    """
    positions = tuple(positions)
    tick = meter.tick if meter is not None else None
    if tick:
        tick()
    if not positions:
        return [()]
    singles = [(x,) for x in simplices]
    if len(positions) == 1:
        if tick:
            tick(len(singles))
        return singles
    layer = singles
    for t in range(1, len(positions)):
        keys = zip(*(map(face_tables[p].__getitem__, simplices) for p in positions[:t]))
        index = {}
        for key, single in zip(keys, singles):
            index.setdefault(key, []).append(single)
        if t == 1 and tick:
            for bucket in index.values():
                tick(len(bucket))
        below = face_tables[positions[t] - 1].__getitem__
        extended = []
        for chosen in layer:
            children = index.get(tuple(map(below, chosen)))
            if children:
                if tick:
                    tick(len(children))
                extended += map(chosen.__add__, children)
        layer = extended
    return layer


def complex_from_keys(depth, keys, name, face, degeneracy):
    """The complex whose level-n simplices are the hashable ``keys[n]``, and
    each level's ``{key: id}``.

    A key's id is written once, as ``name(n, key)``; ``face(n, i, key)`` and
    ``degeneracy(n, i, key)`` are the keys of its faces and degeneracies, and
    each table entry is the id of that key.  Two keys of one level written as
    the same id are an input error naming the first such id in level order.
    """
    ids = []
    for n, level in enumerate(keys):
        written = {key: name(n, key) for key in level}
        if len(set(written.values())) < len(written):
            seen = set()
            for ident in written.values():
                if ident in seen:
                    raise ValueError(f"two simplices of level {n} have the id {ident!r}")
                seen.add(ident)
        ids.append(written)
    faces = {
        (n, i): {ident: ids[n - 1][face(n, i, key)] for key, ident in ids[n].items()}
        for n in range(1, depth + 1)
        for i in range(n + 1)
    }
    degeneracies = {
        (n, i): {ident: ids[n + 1][degeneracy(n, i, key)] for key, ident in ids[n].items()}
        for n in range(depth)
        for i in range(n + 1)
    }
    levels = [list(level.values()) for level in ids]
    return TruncatedSimplicialSet(depth, levels, faces, degeneracies), ids


# the m-simplices of a standard n-simplex are its nondecreasing vertex
# (m+1)-tuples, written with dots
def _tuple_name(m, t):
    return ".".join(map(str, t))


def _tuple_face(m, i, t):
    return t[:i] + t[i + 1 :]


def _tuple_degeneracy(m, i, t):
    return t[: i + 1] + t[i:]


def _tuples_complex(depth, predicate, n):
    keys = [
        [t for t in combinations_with_replacement(range(n + 1), m + 1) if predicate(t)]
        for m in range(depth + 1)
    ]
    return complex_from_keys(depth, keys, _tuple_name, _tuple_face, _tuple_degeneracy)[0]


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


def _constant_complex(depth, points):
    """``points`` at every level, each its own faces and degeneracies."""
    def same(m, i, x):
        return x

    return complex_from_keys(depth, [points] * (depth + 1), lambda m, x: x, same, same)[0]


def _point_complex(depth):
    return _constant_complex(depth, ["*"])


def _empty_complex(depth):
    return _constant_complex(depth, [])


def _sphere_complex(n, depth):
    """The n-sphere as the n-simplex with its whole boundary collapsed onto
    the empty tuple, written ``*``."""
    if n == 0:
        raise ValueError("use two points for a 0-sphere")
    full = set(range(n + 1))

    def collapsed(op):
        def image(m, i, t):
            t = op(m, i, t)
            return t if set(t) == full else ()
        return image

    keys = [
        [t for t in combinations_with_replacement(range(n + 1), m + 1) if set(t) == full] + [()]
        for m in range(depth + 1)
    ]
    return complex_from_keys(
        depth,
        keys,
        lambda m, t: _tuple_name(m, t) if t else "*",
        collapsed(_tuple_face),
        collapsed(_tuple_degeneracy),
    )[0]


def coproduct(depth, parts, name):
    """The coproduct of the complexes ``parts``, a dict by tag, all of depth
    ``depth``: the simplex s of the part tagged t has the key (t, s) and the
    id ``name(t, s)``.  Returns the complex and each level's ``{key: id}``."""
    return complex_from_keys(
        depth,
        [[(t, s) for t, part in parts.items() for s in part.levels[n]] for n in range(depth + 1)],
        lambda n, key: name(*key),
        lambda n, i, key: (key[0], parts[key[0]].face(n, i, key[1])),
        lambda n, i, key: (key[0], parts[key[0]].degeneracy(n, i, key[1])),
    )


def disjoint_union(x, y, tags=("a", "b")):
    """Coproduct of two complexes of equal depth, with tagged ids."""
    if x.depth != y.depth:
        raise ValueError("depth mismatch")
    parts = {0: x, 1: y}
    union, ids = coproduct(x.depth, parts, lambda k, s: f"{tags[k]}:{s}")
    inclusions = [
        SimplicialMap(part, union, [{s: ids[n][k, s] for s in xs} for n, xs in enumerate(part.levels)])
        for k, part in parts.items()
    ]
    return union, *inclusions


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


def _check_shared(x, y, message):
    """Raise ValueError(message) unless x and y are one complex: the same
    levels, faces and degeneracies."""
    if x is not y and (x.levels, x.faces, x.degeneracies) != (y.levels, y.faces, y.degeneracies):
        raise ValueError(message)


def pushout(f, g):
    """Pushout of B <-f- A -g-> C, computed levelwise.

    A simplex of the pushout is a class of simplices of B and C, tagged
    ``"b"`` and ``"c"``, glued along A.  Returns (D, B -> D, C -> D).
    """
    a, b, c = f.source, f.target, g.target
    _check_shared(a, g.source, "pushout legs must share their source")
    homes = {"b": b, "c": c}
    keys, class_of = [], []
    for n in range(a.depth + 1):
        uf = _UnionFind()
        for tag, home in homes.items():
            for x in home.levels[n]:
                uf.add((tag, x))
        for x in a.levels[n]:
            uf.union(("b", f(n, x)), ("c", g(n, x)))
        classes = uf.classes()
        keys.append([classes[root] for root in sorted(classes)])
        class_of.append({member: members for members in keys[n] for member in members})

    def induced(kind, step):
        # every member of a class must give the same class
        def image(n, i, members):
            images = {
                class_of[n + step][tag, getattr(homes[tag], kind)(n, i, x)] for tag, x in members
            }
            if len(images) != 1:
                raise AssertionError(f"pushout {kind} map not well defined")
            return images.pop()
        return image

    d, ids = complex_from_keys(
        a.depth,
        keys,
        lambda n, members: "+".join(f"{tag}:{x}" for tag, x in members),
        induced("face", -1),
        induced("degeneracy", 1),
    )
    into = [
        SimplicialMap(
            home,
            d,
            [{x: ids[n][class_of[n][tag, x]] for x in xs} for n, xs in enumerate(home.levels)],
        )
        for tag, home in homes.items()
    ]
    return d, *into


def pair_id(p):
    """The id of an element (b, c) of a pullback."""
    return f"({p[0]}&{p[1]})"


def pullback(f, g):
    """Pullback of B -f-> Y <-g- C, computed levelwise.

    Returns (P, P -> B, P -> C).
    """
    b, c = f.source, g.source
    _check_shared(f.target, g.target, "pullback legs must share their target")
    p, ids = complex_from_keys(
        b.depth,
        [
            [(xb, xc) for xb in b.levels[n] for xc in c.levels[n] if f(n, xb) == g(n, xc)]
            for n in range(b.depth + 1)
        ],
        lambda n, pair: pair_id(pair),
        lambda n, i, pair: (b.face(n, i, pair[0]), c.face(n, i, pair[1])),
        lambda n, i, pair: (b.degeneracy(n, i, pair[0]), c.degeneracy(n, i, pair[1])),
    )
    onto = [
        SimplicialMap(p, end, [{ident: pair[k] for pair, ident in level.items()} for level in ids])
        for k, end in enumerate((b, c))
    ]
    return p, *onto


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
