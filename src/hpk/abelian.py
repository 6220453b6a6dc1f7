"""Finite abelian groups as products of cyclic groups, and chain fixtures.

These are test-fixture carriers: a :class:`ChainFixture` is a bounded chain
complex of finite abelian groups whose homology, computed here by plain
enumeration, serves as the independent oracle for the Moore-complex homotopy
groups of the simplicial groups produced from it.
"""

from itertools import product

from .groups import GroupTable


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


class FiniteAbelianGroup:
    """Z/m_1 x ... x Z/m_r with elements represented as int tuples."""

    def __init__(self, moduli):
        self.moduli = tuple(moduli)
        for m in self.moduli:
            if not _is_int(m) or m < 1:
                raise ValueError(f"moduli must be integers >= 1, got {m!r}")

    def elements(self):
        return list(product(*(range(m) for m in self.moduli)))

    @property
    def order(self):
        out = 1
        for m in self.moduli:
            out *= m
        return out

    def zero(self):
        return tuple(0 for _ in self.moduli)

    def is_element(self, a):
        """One int coordinate in [0, m) per modulus m."""
        return len(a) == len(self.moduli) and all(
            _is_int(x) and 0 <= x < m for x, m in zip(a, self.moduli)
        )

    def add(self, a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def neg(self, a):
        return tuple((-x) % m for x, m in zip(a, self.moduli))

    def name(self, a):
        return "(" + ",".join(str(x) for x in a) + ")"

    def __repr__(self):
        return f"FiniteAbelianGroup{self.moduli}"


class AbelianHom:
    """Homomorphism given by generator images (a matrix acting mod moduli)."""

    def __init__(self, source, target, generator_images, check=True):
        self.source = source
        self.target = target
        self.generator_images = [tuple(v) for v in generator_images]
        if len(self.generator_images) != len(source.moduli):
            raise ValueError("need one image per source generator")
        if check:
            for i, m in enumerate(source.moduli):
                img = self.generator_images[i]
                if not target.is_element(img):
                    raise ValueError(f"generator {i} image {list(img)} is not in {target!r}")
                total = target.zero()
                for _ in range(m):
                    total = target.add(total, img)
                if total != target.zero():
                    raise ValueError(f"generator {i} image has incompatible order")

    def __call__(self, a):
        out = self.target.zero()
        for coeff, img in zip(a, self.generator_images):
            for _ in range(coeff):
                out = self.target.add(out, img)
        return out

    @classmethod
    def zero(cls, source, target):
        return cls(source, target, [target.zero()] * len(source.moduli))


class ChainFixture:
    """Finite abelian chain complex C_0 .. C_k with vanishing d o d."""

    def __init__(self, groups, boundaries):
        self.groups = list(groups)
        self.boundaries = list(boundaries)
        if len(self.boundaries) != max(len(self.groups) - 1, 0):
            raise ValueError("need a boundary map C_i -> C_(i-1) for each i >= 1")
        for i, bnd in enumerate(self.boundaries, start=1):
            if bnd.source is not self.groups[i] or bnd.target is not self.groups[i - 1]:
                raise ValueError(f"boundary {i} does not match its chain groups")
        for i in range(2, len(self.groups)):
            upper, lower = self.boundaries[i - 1], self.boundaries[i - 2]
            for a in self.groups[i].elements():
                if lower(upper(a)) != self.groups[i - 2].zero():
                    raise ValueError(f"d o d != 0 at degree {i}")

    @property
    def top_degree(self):
        return len(self.groups) - 1

    def group(self, n):
        if 0 <= n <= self.top_degree:
            return self.groups[n]
        return FiniteAbelianGroup([])

    def boundary(self, n):
        """The boundary map C_n -> C_(n-1); zero outside the stored range."""
        if 1 <= n <= self.top_degree:
            return self.boundaries[n - 1]
        return AbelianHom.zero(self.group(n), self.group(n - 1))

    def homology(self, n):
        """H_n = ker d_n / im d_(n+1) as a GroupTable, by enumeration."""
        group = self.group(n)
        if n == 0:
            kernel = set(group.elements())
        else:
            bnd = self.boundary(n)
            lower_zero = self.group(n - 1).zero()
            kernel = {a for a in group.elements() if bnd(a) == lower_zero}
        upper = self.boundary(n + 1)
        image = {upper(a) for a in self.group(n + 1).elements()}
        return _sub_quotient(group, kernel, image)


def _sub_quotient(group, kernel, image):
    """(kernel subgroup) / (image subgroup) as a GroupTable."""
    elems = sorted(kernel)
    coset_of = {}
    cosets = []
    for a in elems:
        if a in coset_of:
            continue
        coset = frozenset(group.add(a, b) for b in image)
        name = group.name(min(coset))
        cosets.append((name, min(coset)))
        for member in coset:
            coset_of[member] = name
    mult = {}
    for name_a, rep_a in cosets:
        for name_b, rep_b in cosets:
            mult[(name_a, name_b)] = coset_of[group.add(rep_a, rep_b)]
    return GroupTable([n for n, _ in cosets], mult, coset_of[group.zero()])
