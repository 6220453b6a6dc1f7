"""Finite Grothendieck sites: categories with covering sieves, and comma sites.

A sieve on U is stored extensionally as a frozenset of arrow ids with target
U, closed under precomposition.  The stored coverage is the complete set of
covering sieves (small sites have few sieves); ``FiniteSite.validate``
checks the category laws and the maximal-sieve, pullback-stability and
local-character axioms by enumeration over all sieves.  The constructor does
not run it.
"""

from itertools import combinations

from .laws import category_problems


class FiniteSite:
    def __init__(self, objects, arrows, comp, identities, covers):
        self.objects = tuple(sorted(objects))
        self.arrows = {a: (s, t) for a, (s, t) in arrows.items()}
        self.comp = dict(comp)
        self.identities = dict(identities)
        self.covers = {u: [frozenset(s) for s in sieves] for u, sieves in covers.items()}

    # -- category structure ---------------------------------------------------

    def src(self, f):
        return self.arrows[f][0]

    def tgt(self, f):
        return self.arrows[f][1]

    def compose(self, f, g):
        """f o g (g first)."""
        return self.comp[(f, g)]

    def identity(self, obj):
        return self.identities[obj]

    def arrows_into(self, u):
        return tuple(sorted(a for a, (s, t) in self.arrows.items() if t == u))

    def arrows_between(self, v, u):
        return tuple(
            sorted(a for a, (s, t) in self.arrows.items() if s == v and t == u)
        )

    def maximal_sieve(self, u):
        return frozenset(self.arrows_into(u))

    def pullback_sieve(self, sieve, h):
        """h^* S = {g into src(h) : h o g in S}."""
        v = self.src(h)
        return frozenset(
            g for g in self.arrows_into(v) if self.comp[(h, g)] in sieve
        )

    def is_sieve(self, u, arrow_set):
        """Whether ``arrow_set`` is a sieve on u: arrows into u, closed under
        precomposition.  A set holding a non-arrow is not one."""
        arrow_set = frozenset(arrow_set)
        for f in arrow_set:
            if f not in self.arrows or self.tgt(f) != u:
                return False
            for g in self.arrows:
                if self.src(f) == self.tgt(g) and self.comp[(f, g)] not in arrow_set:
                    return False
        return True

    def all_sieves(self, u):
        """Every sieve on u, by closure testing over subsets."""
        into = self.arrows_into(u)
        sieves = []
        for size in range(len(into) + 1):
            for subset in combinations(into, size):
                if self.is_sieve(u, subset):
                    sieves.append(frozenset(subset))
        return sieves

    def covering(self, u, sieve):
        return frozenset(sieve) in set(self.covers.get(u, []))

    def minimal_cover(self, u):
        sieves = self.covers.get(u, [])
        if not sieves:
            raise ValueError(f"object {u} has no covering sieves")
        out = sieves[0]
        for s in sieves[1:]:
            out = out & s
        if not self.covering(u, out):
            raise ValueError(
                f"intersection of covers of {u} is not itself listed as covering"
            )
        return out

    # -- validation -------------------------------------------------------------

    def validate(self):
        problems = category_problems(self.objects, self.arrows, self.comp, self.identities)
        if problems:
            return problems
        return self._check_coverage()

    def _check_coverage(self):
        problems = []
        for u in self.objects:
            sieves = self.covers.get(u)
            if not sieves:
                problems.append(f"object {u} has no covering sieves")
                continue
            for s in sieves:
                unknown = sorted(f for f in s if f not in self.arrows)
                if unknown:
                    problems.append(f"cover of {u} holds {unknown[0]!r}, which is not an arrow")
                elif not self.is_sieve(u, s):
                    problems.append(f"cover of {u} contains a non-sieve")
            if self.maximal_sieve(u) not in set(sieves):
                problems.append(f"maximal sieve of {u} does not cover")
        if problems:
            return problems
        # pullback stability
        for u in self.objects:
            for s in self.covers[u]:
                for h in self.arrows_into(u):
                    pulled = self.pullback_sieve(s, h)
                    if not self.covering(self.src(h), pulled):
                        problems.append(
                            f"pullback of a cover of {u} along {h} does not cover"
                        )
        # local character over all sieves
        for u in self.objects:
            for candidate in self.all_sieves(u):
                if self.covering(u, candidate):
                    continue
                for s in self.covers[u]:
                    if all(
                        self.covering(self.src(h), self.pullback_sieve(candidate, h))
                        for h in s
                    ):
                        problems.append(
                            f"sieve {sorted(candidate)} on {u} is locally covering "
                            "but not listed"
                        )
                        break
        return problems

    # -- serialization -----------------------------------------------------------

    def to_json(self):
        return {
            "objects": list(self.objects),
            "arrows": [
                {"id": a, "src": s, "tgt": t} for a, (s, t) in sorted(self.arrows.items())
            ],
            "comp": {f"{f}|{g}": h for (f, g), h in sorted(self.comp.items())},
            "identities": dict(sorted(self.identities.items())),
            "covers": {
                u: [sorted(s) for s in sieves] for u, sieves in sorted(self.covers.items())
            },
        }

    # -- constructions -------------------------------------------------------------

    @classmethod
    def trivial_topology(cls, objects, arrows, comp, identities):
        site = cls(objects, arrows, comp, identities, {})
        covers = {u: [site.maximal_sieve(u)] for u in site.objects}
        return cls(objects, arrows, comp, identities, covers)

    @classmethod
    def point_site(cls):
        return cls.trivial_topology(["*"], {"id": ("*", "*")}, {("id", "id"): "id"}, {"*": "id"})

    @classmethod
    def two_object_site(cls, cover_u=True):
        """Objects U, V with one arrow f: V -> U; optionally <f> covers U."""
        objects = ["U", "V"]
        arrows = {"idU": ("U", "U"), "idV": ("V", "V"), "f": ("V", "U")}
        comp = {
            ("idU", "idU"): "idU",
            ("idV", "idV"): "idV",
            ("idU", "f"): "f",
            ("f", "idV"): "f",
        }
        identities = {"U": "idU", "V": "idV"}
        covers = {
            "U": [frozenset({"idU", "f"})] + ([frozenset({"f"})] if cover_u else []),
            "V": [frozenset({"idV"})],
        }
        return cls(objects, arrows, comp, identities, covers)


def comma_site(site, u):
    """The slice site over u: objects are arrows into u.

    A comma arrow (W, psi) -> (V, phi) is an arrow h: W -> V of the base with
    phi o h = psi, so comma sieves on (V, phi) correspond to sieves on V; a
    comma sieve covers exactly when the underlying sieve does.
    """
    if u not in site.objects:
        raise ValueError(f"{u!r} is not an object of the site")
    objects = list(site.arrows_into(u))
    listed = list(comma_arrows(site, u))
    arrows = {name: (psi, phi) for name, _, psi, phi in listed}
    name_of = {(h, phi): name for name, h, _, phi in listed}
    comp = {}
    for name_f, h_f, psi_f, phi_f in listed:
        for name_g, h_g, _, phi_g in listed:
            if phi_g == psi_f:
                comp[(name_f, name_g)] = name_of[(site.comp[(h_f, h_g)], phi_f)]
    identities = {phi: name_of[(site.identity(site.src(phi)), phi)] for phi in objects}
    covers = {}
    for phi in objects:
        v = site.src(phi)
        sieves = []
        for s in site.covers[v]:
            sieves.append(frozenset(name_of[(h, phi)] for h in s))
        covers[phi] = sieves
    return FiniteSite(objects, arrows, comp, identities, covers)


def comma_arrows(site, u):
    """(name, h, psi, phi) for every comma arrow h: (W, psi) -> (V, phi) over u."""
    for phi in site.arrows_into(u):  # phi: V -> u, the codomain comma object
        v = site.src(phi)
        for h in site.arrows:
            if site.tgt(h) == v:
                yield f"{h}@{phi}", h, site.comp[(phi, h)], phi
