"""Finite groups as explicit tables, and finitely presented groups.

Group-valued homotopy invariants are returned either as a
:class:`GroupTable` (explicit multiplication table, always when finite) or as
a :class:`PresentedGroup` (generators and relators) when enumeration is not
possible.  Isomorphism of tables is decided exactly by search; isomorphism
questions about presentations are answered by bounded methods that may return
``None`` ("unknown").
"""

from itertools import combinations, product
from math import gcd

from .budgets import Meter

# the coset cap of every Todd-Coxeter run that does not name its own
DEFAULT_MAX_COSETS = 1000


class GroupTable:
    """A finite group given by its full multiplication table.

    ``mult[(a, b)]`` is the product a*b.  Elements are strings.
    """

    def __init__(self, elements, mult, identity):
        self.elements = tuple(sorted(elements))
        self.mult = dict(mult)
        self.identity = identity
        # a missing product is for validate() to report, not a KeyError here
        self.inverse = {}
        for a in self.elements:
            for b in self.elements:
                if self.mult.get((a, b)) == self.identity:
                    self.inverse[a] = b
                    break

    def tables(self):
        """The group as a one-object category, in the tables ``hpk.laws`` reads:
        its object ``*``, its elements as arrows, ``mult`` and the identity."""
        return ("*",), dict.fromkeys(self.elements, ("*", "*")), self.mult, {"*": self.identity}

    def validate(self):
        problems = []
        elems = set(self.elements)
        if self.identity not in elems:
            problems.append(f"identity {self.identity!r} not an element")
            return problems
        for a in self.elements:
            for b in self.elements:
                if (a, b) not in self.mult:
                    problems.append(f"product {a}*{b} undefined")
                    return problems
                if self.mult[(a, b)] not in elems:
                    problems.append(f"product {a}*{b} escapes the element set")
        for a in self.elements:
            if self.mult[(self.identity, a)] != a or self.mult[(a, self.identity)] != a:
                problems.append(f"identity law fails at {a}")
        for a in self.elements:
            if not any(self.mult[(a, b)] == self.identity for b in self.elements):
                problems.append(f"no inverse for {a}")
        for a in self.elements:
            for b in self.elements:
                for c in self.elements:
                    if self.mult[(self.mult[(a, b)], c)] != self.mult[(a, self.mult[(b, c)])]:
                        problems.append(f"associativity fails at ({a},{b},{c})")
                        return problems
        return problems

    @property
    def order(self):
        return len(self.elements)

    def op(self, a, b):
        return self.mult[(a, b)]

    def inv(self, a):
        return self.inverse[a]

    def is_abelian(self):
        return all(
            self.mult[(a, b)] == self.mult[(b, a)]
            for a, b in combinations(self.elements, 2)
        )

    def element_order(self, a):
        n, x = 1, a
        while x != self.identity:
            x = self.mult[(x, a)]
            n += 1
        return n

    def subgroup_generated(self, gens):
        """Closure of ``gens`` under multiplication (set of elements)."""
        closed = {self.identity}
        frontier = list(gens)
        while frontier:
            g = frontier.pop()
            if g in closed:
                continue
            closed.add(g)
            for h in list(closed):
                for p in (self.mult[(g, h)], self.mult[(h, g)]):
                    if p not in closed:
                        frontier.append(p)
        return closed

    def is_normal(self, subgroup):
        sub = set(subgroup)
        return all(
            self.mult[(self.mult[(g, h)], self.inverse[g])] in sub
            for g in self.elements
            for h in sub
        )

    def quotient_with_classes(self, normal_subgroup):
        """(quotient table, element -> coset name) for a normal subgroup."""
        sub = set(normal_subgroup)
        if self.identity not in sub:
            raise ValueError("subgroup must contain the identity")
        if not self.is_normal(sub):
            raise ValueError("subgroup is not normal")
        coset_of = {}
        cosets = []
        for a in self.elements:
            if a in coset_of:
                continue
            coset = frozenset(self.mult[(a, h)] for h in sub)
            name = min(coset)
            cosets.append((name, coset))
            for b in coset:
                coset_of[b] = name
        mult = {}
        for name_a, coset_a in cosets:
            for name_b, _ in cosets:
                rep = self.mult[(next(iter(sorted(coset_a))), name_b)]
                mult[(name_a, name_b)] = coset_of[rep]
        table = GroupTable([n for n, _ in cosets], mult, coset_of[self.identity])
        return table, coset_of

    def quotient(self, normal_subgroup):
        """Quotient by a normal subgroup, as a new table on coset names."""
        return self.quotient_with_classes(normal_subgroup)[0]

    def _generating_set(self):
        for size in range(0, len(self.elements) + 1):
            for gens in combinations(self.elements, size):
                if len(self.subgroup_generated(gens)) == self.order:
                    return gens
        return tuple(self.elements)

    def iso_to(self, other, budget=10**6):
        """An isomorphism onto ``other`` as a dict, or None if there is none.

        Brute-force search over generator images, pruned by element order.
        """
        if self.order != other.order:
            return None
        gens = self._generating_set()
        orders = [self.element_order(g) for g in gens]
        meter = Meter("group isomorphism search", budget)
        candidates = [
            [h for h in other.elements if other.element_order(h) == o] for o in orders
        ]
        for images in product(*candidates):
            meter.tick()
            mapping = self._extend_hom(gens, images, other)
            if mapping is not None and len(set(mapping.values())) == other.order:
                return mapping
        return None

    def _extend_hom(self, gens, images, other):
        mapping = {self.identity: other.identity}
        frontier = [self.identity]
        gen_img = dict(zip(gens, images))
        while frontier:
            a = frontier.pop()
            for g, img in gen_img.items():
                b = self.mult[(a, g)]
                fb = other.mult[(mapping[a], img)]
                if b in mapping:
                    if mapping[b] != fb:
                        return None
                else:
                    mapping[b] = fb
                    frontier.append(b)
        if len(mapping) != self.order:
            return None
        for a in self.elements:
            for b in self.elements:
                if mapping[self.mult[(a, b)]] != other.mult[(mapping[a], mapping[b])]:
                    return None
        return mapping

    def is_trivial(self):
        return self.order == 1

    def to_json(self):
        return {
            "elements": list(self.elements),
            "identity": self.identity,
            "mult": {f"{a}|{b}": c for (a, b), c in sorted(self.mult.items())},
        }

    @classmethod
    def trivial(cls):
        return cls(["e"], {("e", "e"): "e"}, "e")

    @classmethod
    def cyclic(cls, n, prefix="g"):
        if n < 1:
            raise ValueError("cyclic group needs order >= 1")
        elements = [f"{prefix}{i}" for i in range(n)]
        mult = {
            (f"{prefix}{i}", f"{prefix}{j}"): f"{prefix}{(i + j) % n}"
            for i in range(n)
            for j in range(n)
        }
        return cls(elements, mult, f"{prefix}0")

    @classmethod
    def direct_product(cls, a, b):
        elements = [f"{x}.{y}" for x in a.elements for y in b.elements]
        mult = {}
        for x1 in a.elements:
            for y1 in b.elements:
                for x2 in a.elements:
                    for y2 in b.elements:
                        mult[(f"{x1}.{y1}", f"{x2}.{y2}")] = (
                            f"{a.mult[(x1, x2)]}.{b.mult[(y1, y2)]}"
                        )
        return cls(elements, mult, f"{a.identity}.{b.identity}")

    def __repr__(self):
        return f"GroupTable(order={self.order})"


def free_reduce(word):
    """Freely reduce a word given as a tuple of (generator, +-1) letters."""
    out = []
    for letter in word:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def invert_word(word):
    return tuple((g, -e) for g, e in reversed(word))


class PresentedGroup:
    """A group presentation: generators plus relator words.

    Relators are tuples of (generator, +-1) letters.  Structural questions
    are answered by bounded methods; ``None`` means "unknown".
    """

    def __init__(self, generators, relators):
        self.generators = tuple(generators)
        gen_set = set(self.generators)
        cleaned = []
        for rel in relators:
            for g, e in rel:
                if g not in gen_set:
                    raise ValueError(f"relator uses unknown generator {g!r}")
                if e not in (1, -1):
                    raise ValueError("relator letters must have exponent +-1")
            reduced = free_reduce(tuple(rel))
            if reduced:
                cleaned.append(reduced)
        self.relators = tuple(cleaned)

    def abelian_invariants(self):
        """(free_rank, sorted torsion list) of the abelianization."""
        return _abelian_invariants(self.generators, self.relators)

    def is_infinite_cyclic(self):
        """True/False/None: is the group isomorphic to the integers?"""
        if not self.generators:
            return False
        if len(self.generators) == 1:
            return not self.relators
        rank, torsion = self.abelian_invariants()
        if rank != 1 or torsion:
            return False
        # the group is infinite, so no coset enumeration can finish; whether
        # it is the integers themselves is not decided here
        return None

    def coset_enumeration(self, max_cosets=DEFAULT_MAX_COSETS):
        """Todd-Coxeter over the trivial subgroup, bounded by ``max_cosets``.

        Returns a GroupTable when the enumeration completes, None otherwise.
        """
        try:
            cosets = _todd_coxeter(self.generators, self.relators, max_cosets)
        except _EnumerationOverflow:
            return None
        if cosets is None:
            return None
        table, words = cosets
        names = {c: f"c{c}" for c in table}
        elements = sorted(names.values())

        def apply_word(c, word):
            for letter in word:
                c = table[c][letter]
            return c

        mult = {}
        for c1 in table:
            for c2 in table:
                mult[(names[c1], names[c2])] = names[apply_word(c1, words[c2])]
        return GroupTable(elements, mult, names[0])

    def isomorphic_to_table(self, other, max_cosets=DEFAULT_MAX_COSETS):
        """True/False/None comparison against a finite GroupTable."""
        table = self.coset_enumeration(max_cosets=max_cosets)
        if table is not None:
            return table.iso_to(other) is not None
        rank, torsion = self.abelian_invariants()
        if rank > 0:
            return False
        return None

    def to_json(self):
        return {
            "generators": list(self.generators),
            "relators": [[[g, e] for g, e in rel] for rel in self.relators],
        }

    def __repr__(self):
        return f"PresentedGroup(gens={len(self.generators)}, rels={len(self.relators)})"


def _abelian_invariants(generators, relators):
    """(free_rank, sorted torsion list) of the abelianization of a presentation."""
    index = {g: i for i, g in enumerate(generators)}
    rows = []
    for rel in relators:
        row = {}
        for g, e in rel:
            row[index[g]] = row.get(index[g], 0) + e
        rows.append(row)
    diag = _smith_diagonal(rows)
    torsion = sorted(d for d in diag if d > 1)
    rank = len(generators) - len(diag)
    return rank, torsion


def _smith_diagonal(rows):
    """Invariant factors of an integer matrix, each dividing the next.

    These are the nonzero diagonal entries of its Smith normal form; their
    count is the rank.  ``rows`` are sparse, as {column: entry} maps.  Pivots
    of absolute value 1, which make up most of a boundary matrix, are
    eliminated sparsely first; the dense stage reduces what is left.
    """
    rows = [{j: v for j, v in row.items() if v} for row in rows]
    holders = {}
    for i, row in enumerate(rows):
        for j in row:
            holders.setdefault(j, set()).add(i)
    units = 0
    progress = True
    while progress:
        progress = False
        for i, row in enumerate(rows):
            pivots = [j for j, v in row.items() if v in (1, -1)]
            if not pivots:
                continue
            j = min(pivots, key=lambda col: (len(holders[col]), col))
            for r in holders.pop(j) - {i}:
                other = rows[r]
                factor = other[j] * row[j]
                for col, v in row.items():
                    w = other.get(col, 0) - factor * v
                    if w:
                        other[col] = w
                        holders[col].add(r)
                    else:
                        del other[col]
                        if col != j:
                            holders[col].discard(r)
            for col in row:
                if col != j:
                    holders[col].discard(i)
            rows[i] = {}
            units += 1
            progress = True
    rest = [row for row in rows if row]
    cols = sorted({j for row in rest for j in row})
    where = {j: k for k, j in enumerate(cols)}
    dense = []
    for row in rest:
        line = [0] * len(cols)
        for j, v in row.items():
            line[where[j]] = v
        dense.append(line)
    diag = _dense_smith_diagonal(dense, len(cols))
    factors = [d for d in diag if d != 1]
    # diag(a, b) is equivalent to diag(gcd, lcm): make each factor divide the next
    for a in range(len(factors)):
        for b in range(a + 1, len(factors)):
            g = gcd(factors[a], factors[b])
            factors[a], factors[b] = g, factors[a] * factors[b] // g
    return [1] * (units + len(diag) - len(factors)) + factors


def _dense_smith_diagonal(rows, ncols):
    """Nonzero diagonal entries of a diagonal form of a dense integer matrix."""
    m = [list(r) for r in rows]
    diag = []
    r = 0
    c = 0
    nrows = len(m)
    while r < nrows and c < ncols:
        pivot = None
        best = None
        for i in range(r, nrows):
            for j in range(c, ncols):
                v = abs(m[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
        if pivot is None:
            break
        i, j = pivot
        m[r], m[i] = m[i], m[r]
        for row in m:
            row[c], row[j] = row[j], row[c]
        while True:
            again = False
            for i in range(nrows):
                if i != r and m[i][c]:
                    q = m[i][c] // m[r][c]
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                    if m[i][c]:
                        m[r], m[i] = m[i], m[r]
                        again = True
            for j in range(ncols):
                if j != c and m[r][j]:
                    q = m[r][j] // m[r][c]
                    for row in m:
                        row[j] -= q * row[c]
                    if m[r][j]:
                        for row in m:
                            row[c], row[j] = row[j], row[c]
                        again = True
            if not again:
                break
        diag.append(abs(m[r][c]))
        r += 1
        c += 1
    return diag


class _EnumerationOverflow(Exception):
    pass


def _todd_coxeter(generators, relators, max_cosets):
    """Coset enumeration; returns (table, representative words) or None.

    ``table[c]`` maps signed letters (g, +-1) to cosets.  Representative
    words express each coset as a word applied to coset 0.  A group whose
    abelianization has positive free rank is infinite, so its enumeration
    could only run to the cap: it answers None at once.
    """
    if _abelian_invariants(generators, relators)[0] > 0:
        return None
    return _enumerate_cosets(generators, relators, max_cosets)


def _enumerate_cosets(generators, relators, max_cosets):
    """The Todd-Coxeter loop of ``_todd_coxeter``."""
    letters = [(g, e) for g in generators for e in (1, -1)]
    table = [dict()]
    words = {0: ()}
    rep = [0]

    def find(c):
        while rep[c] != c:
            rep[c] = rep[rep[c]]
            c = rep[c]
        return c

    pending = []

    def set_entry(c, letter, d):
        c, d = find(c), find(d)
        g, e = letter
        back = (g, -e)
        cur = table[c].get(letter)
        if cur is not None and find(cur) != d:
            pending.append((find(cur), d))
        table[c][letter] = d
        cur = table[d].get(back)
        if cur is not None and find(cur) != c:
            pending.append((find(cur), c))
        table[d][back] = c

    def merge_all():
        while pending:
            a, b = pending.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            rep[b] = a
            for letter, d in list(table[b].items()):
                table[b].pop(letter)
                existing = table[a].get(letter)
                if existing is not None and find(existing) != find(d):
                    pending.append((find(existing), find(d)))
                else:
                    set_entry(a, letter, find(d))

    def define(c, letter):
        if len(table) > max_cosets:
            raise _EnumerationOverflow
        d = len(table)
        table.append(dict())
        rep.append(d)
        words[d] = words[find(c)] + (letter,)
        set_entry(c, letter, d)
        return d

    def scan(c, word):
        # forward as far as possible
        f = find(c)
        i = 0
        while i < len(word):
            nxt = table[f].get(word[i])
            if nxt is None:
                break
            f = find(nxt)
            i += 1
        b = find(c)
        j = len(word)
        while j > i:
            g, e = word[j - 1]
            nxt = table[b].get((g, -e))
            if nxt is None:
                break
            b = find(nxt)
            j -= 1
        if i == j:
            if f != b:
                pending.append((f, b))
                merge_all()
        elif i + 1 == j:
            set_entry(f, word[i], b)
            merge_all()

    progress = True
    while progress:
        progress = False
        live = [c for c in range(len(table)) if find(c) == c]
        for c in live:
            for relator in relators:
                scan(c, relator)
        live = [c for c in range(len(table)) if find(c) == c]
        for c in live:
            for letter in letters:
                if table[c].get(letter) is None:
                    define(c, letter)
                    progress = True
                    break
            if progress:
                break
        # closure test: all entries defined (relators were scanned above)
        if not progress:
            live = [c for c in range(len(table)) if find(c) == c]
            complete = all(letter in table[c] for c in live for letter in letters)
            if not complete:
                return None
            final = {}
            anchor = find(0)
            ordered = sorted(live, key=lambda c: (c != anchor, c))
            index = {c: i for i, c in enumerate(ordered)}
            for c in live:
                final[index[c]] = {
                    letter: index[find(d)] for letter, d in table[c].items()
                }
            rep_words = _recompute_words(final, letters)
            if rep_words is None:
                return None
            return final, rep_words
    return None


def _recompute_words(table, letters):
    """BFS words from coset 0 reaching every coset, over the final table."""
    if 0 not in table:
        return None
    words = {0: ()}
    frontier = [0]
    while frontier:
        c = frontier.pop(0)
        for letter in letters:
            d = table[c].get(letter)
            if d is not None and d not in words:
                words[d] = words[c] + (letter,)
                frontier.append(d)
    if set(words) != set(table):
        return None
    return words
