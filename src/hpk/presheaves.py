"""Presheaves on finite sites, sheafification, homotopy sheaves, and the
weak-equivalence criterion.

Values live in one of five domains: finite sets, finite groups, truncated
simplicial sets, simplicial groupoids, or 2-groupoids.  The plus construction
is computed over the minimal covering sieve (the intersection of the listed
covers, which a valid finite topology contains); sheafification is the plus
construction applied twice, and its output is checked against the sheaf
condition exhaustively in the tests.
"""

from itertools import product

from .budgets import DEFAULT_ISO_SEARCH_BUDGET, Meter, env_budget
from .groups import GroupTable
from .groupoids import (
    SimplicialGroupoidMap,
    hom_simplicial_group,
    moore_pi_n_with_classes,
    pi0_sgpd,
)
from .sites import comma_arrows, comma_site
from .sset import SimplicialMap, TruncatedSimplicialSet, pi0_sset
from .two_groupoids import TwoFunctor, pi1_with_classes, pi_2gpd


class _SetOps:
    name = "set"

    @staticmethod
    def elements(value):
        return list(value)

    @staticmethod
    def apply(morphism, element):
        return morphism[element]

    @staticmethod
    def validate_morphism(m, src, tgt):
        problems = []
        if set(m) != set(src):
            problems.append("map not total")
        elif not set(m.values()) <= set(tgt):
            problems.append("map escapes target")
        return problems

    @staticmethod
    def identity(value):
        return {x: x for x in value}

    @staticmethod
    def compose(m2, m1):
        return {x: m2[y] for x, y in m1.items()}

    @staticmethod
    def equal(m1, m2):
        return m1 == m2


class _GroupOps:
    name = "group"

    @staticmethod
    def elements(value):
        return list(value.elements)

    @staticmethod
    def apply(morphism, element):
        return morphism[element]

    @staticmethod
    def validate_morphism(m, src, tgt):
        problems = []
        if set(m) != set(src.elements):
            return ["map not total"]
        if not set(m.values()) <= set(tgt.elements):
            return ["map escapes target"]
        if m[src.identity] != tgt.identity:
            problems.append("identity not preserved")
        for a in src.elements:
            for b in src.elements:
                if m[src.mult[(a, b)]] != tgt.mult[(m[a], m[b])]:
                    problems.append("not a homomorphism")
                    return problems
        return problems

    @staticmethod
    def identity(value):
        return {x: x for x in value.elements}

    @staticmethod
    def compose(m2, m1):
        return {x: m2[y] for x, y in m1.items()}

    @staticmethod
    def equal(m1, m2):
        return m1 == m2


class _SSetOps:
    name = "sset"

    @staticmethod
    def validate_morphism(m, src, tgt):
        return m.validate()

    @staticmethod
    def identity(value):
        return SimplicialMap.identity(value)

    @staticmethod
    def compose(m2, m1):
        return m2.compose(m1)

    @staticmethod
    def equal(m1, m2):
        return m1.equals(m2)


class _SGpdOps:
    name = "sgpd"

    @staticmethod
    def validate_morphism(m, src, tgt):
        return m.validate()

    @staticmethod
    def identity(value):
        return SimplicialGroupoidMap.identity(value)

    @staticmethod
    def compose(m2, m1):
        return m2.compose_with(m1)

    @staticmethod
    def equal(m1, m2):
        return m1.equals(m2)


class _TwoGpdOps:
    name = "2gpd"

    @staticmethod
    def validate_morphism(m, src, tgt):
        return m.validate()

    @staticmethod
    def identity(value):
        return TwoFunctor.identity(value)

    @staticmethod
    def compose(m2, m1):
        return m2.compose_with(m1)

    @staticmethod
    def equal(m1, m2):
        return m1.equals(m2)


class Presented2Map:
    """A map of presented 2-groupoids by generator assignment.

    1-generators map to words, 2-generators to a target 2-generator or None
    (the identity 2-cell); this is the shape of every map induced by a
    simplicial map, which is the only way these morphisms arise here.
    """

    def __init__(self, source, target, obj_map, map1, map2):
        self.source = source
        self.target = target
        self.obj_map = dict(obj_map)
        self.map1 = {g: tuple(w) for g, w in map1.items()}
        self.map2 = dict(map2)

    def word_image(self, word):
        out = []
        for g, e in word:
            image = self.map1[g]
            if e == -1:
                image = tuple((h, -d) for h, d in reversed(image))
            out.extend(image)
        from .whitehead import _reduced

        return _reduced(tuple(out))

    def validate(self):
        problems = []
        if set(self.obj_map) != set(self.source.objects):
            return ["object map not total"]
        if set(self.map1) != set(self.source.gens1):
            return ["1-generator map not total"]
        if set(self.map2) != set(self.source.gens2):
            return ["2-generator map not total"]
        for g, (s, t) in self.source.gens1.items():
            word = self.map1[g]
            if word:
                ws, wt = self.target.word_endpoints(word)
                if (ws, wt) != (self.obj_map[s], self.obj_map[t]):
                    problems.append(f"image of 1-generator {g} has wrong endpoints")
            elif self.obj_map[s] != self.obj_map[t]:
                problems.append(f"1-generator {g} collapses but its endpoints differ")
        for a, (src_word, tgt_word) in self.source.gens2.items():
            image = self.map2[a]
            src_im, tgt_im = self.word_image(src_word), self.word_image(tgt_word)
            if image is None:
                if src_im != tgt_im:
                    problems.append(f"2-generator {a} collapses but its frame does not")
            else:
                frame = self.target.gens2[image]
                if (src_im, tgt_im) != frame:
                    problems.append(f"image of 2-generator {a} has wrong frame")
        return problems

    def compose_with(self, other):
        map1 = {g: self.word_image(w) for g, w in other.map1.items()}
        map2 = {
            a: (None if im is None else self.map2[im]) for a, im in other.map2.items()
        }
        return Presented2Map(
            other.source,
            self.target,
            {o: self.obj_map[v] for o, v in other.obj_map.items()},
            map1,
            map2,
        )

    def equals(self, other):
        return (
            self.obj_map == other.obj_map
            and self.map1 == other.map1
            and self.map2 == other.map2
        )


class _Presented2Ops:
    name = "presented2"

    @staticmethod
    def validate_morphism(m, src, tgt):
        return m.validate()

    @staticmethod
    def identity(value):
        return Presented2Map(
            value,
            value,
            {o: o for o in value.objects},
            {g: ((g, 1),) for g in value.gens1},
            {a: a for a in value.gens2},
        )

    @staticmethod
    def compose(m2, m1):
        return m2.compose_with(m1)

    @staticmethod
    def equal(m1, m2):
        return m1.equals(m2)


DOMAINS = {
    ops.name: ops
    for ops in (_SetOps, _GroupOps, _SSetOps, _SGpdOps, _TwoGpdOps, _Presented2Ops)
}


class Presheaf:
    """A contravariant functor on a finite site, with values in a domain.

    ``restrictions[a]`` for an arrow a: V -> U is the map F(U) -> F(V).
    """

    def __init__(self, site, domain, values, restrictions):
        self.site = site
        self.domain = domain
        self.ops = DOMAINS[domain]
        self.values = dict(values)
        self.restrictions = dict(restrictions)

    def value(self, obj):
        return self.values[obj]

    def restrict(self, arrow):
        return self.restrictions[arrow]

    def validate(self):
        problems = []
        if set(self.values) != set(self.site.objects):
            return ["values not assigned exactly on objects"]
        if set(self.restrictions) != set(self.site.arrows):
            return ["restrictions not assigned exactly on arrows"]
        if self.domain == "sset" and len({x.depth for x in self.values.values()}) > 1:
            return ["sset-valued sections must share one depth"]
        for a, (v, u) in self.site.arrows.items():
            problems.extend(
                f"restriction {a}: {p}"
                for p in self.ops.validate_morphism(
                    self.restrictions[a], self.values[u], self.values[v]
                )
            )
        if problems:
            return problems
        for u, e in self.site.identities.items():
            if not self.ops.equal(
                self.restrictions[e], self.ops.identity(self.values[u])
            ):
                problems.append(f"restriction along id_{u} is not the identity")
        for (f, g), h in self.site.comp.items():
            left = self.restrictions[h]
            right = self.ops.compose(self.restrictions[g], self.restrictions[f])
            if not self.ops.equal(left, right):
                problems.append(f"functoriality fails at {f}o{g}")
        return problems


class NaturalTransformation:
    def __init__(self, source, target, components):
        self.source = source
        self.target = target
        self.components = dict(components)

    def component(self, obj):
        return self.components[obj]

    def validate(self):
        problems = []
        ops = self.source.ops
        if set(self.components) != set(self.source.site.objects):
            return ["components not assigned exactly on objects"]
        for u in self.source.site.objects:
            problems.extend(
                f"component at {u}: {p}"
                for p in ops.validate_morphism(
                    self.components[u], self.source.values[u], self.target.values[u]
                )
            )
        if problems:
            return problems
        for a, (v, u) in self.source.site.arrows.items():
            left = ops.compose(self.components[v], self.source.restrictions[a])
            right = ops.compose(self.target.restrictions[a], self.components[u])
            if not ops.equal(left, right):
                problems.append(f"naturality fails at {a}")
        return problems


def constant_presheaf(site, domain, value):
    ops = DOMAINS[domain]
    values = {u: value for u in site.objects}
    restrictions = {a: ops.identity(value) for a in site.arrows}
    return Presheaf(site, domain, values, restrictions)


# -- matching families and the plus construction ---------------------------------


def matching_families(presheaf, u, sieve):
    """All matching families for a sieve, as dicts arrow -> element."""
    ops = presheaf.ops
    site = presheaf.site
    arrows = sorted(sieve)
    families = []

    def extend(assignment):
        if len(assignment) == len(arrows):
            families.append(dict(assignment))
            return
        f = arrows[len(assignment)]
        v = site.src(f)
        for x in ops.elements(presheaf.values[v]):
            ok = True
            candidate = {**assignment, f: x}
            for f1, x1 in candidate.items():
                w1 = site.src(f1)
                for g in site.arrows:
                    if site.tgt(g) != w1:
                        continue
                    composite = site.comp[(f1, g)]
                    if composite in candidate:
                        expected = ops.apply(presheaf.restrictions[g], x1)
                        if candidate[composite] != expected:
                            ok = False
                            break
                if not ok:
                    break
            if ok:
                extend(candidate)

    extend({})
    return families


def family_name(family):
    return "{" + ",".join(f"{f}:{family[f]}" for f in sorted(family)) + "}"


def plus(presheaf):
    """The plus construction over minimal covering sieves.

    Returns (presheaf, unit natural transformation).
    """
    result, unit, _ = _plus(presheaf)
    return result, unit


def _plus(presheaf):
    """plus(presheaf) and, for each object u, {section id: matching family}."""
    if presheaf.domain not in ("set", "group"):
        raise ValueError("plus construction supports set and group values")
    site = presheaf.site
    ops = presheaf.ops
    minimal = {u: site.minimal_cover(u) for u in site.objects}
    families = {u: matching_families(presheaf, u, minimal[u]) for u in site.objects}
    names = {u: {family_name(fam): fam for fam in families[u]} for u in site.objects}

    def value_at(u):
        if presheaf.domain == "set":
            return tuple(sorted(names[u]))
        # pointwise group structure on matching families
        elems = sorted(names[u])
        mult = {}
        for n1 in elems:
            for n2 in elems:
                fam1, fam2 = names[u][n1], names[u][n2]
                prod_fam = {
                    f: presheaf.values[site.src(f)].mult[(fam1[f], fam2[f])]
                    for f in fam1
                }
                mult[(n1, n2)] = family_name(prod_fam)
        ident = family_name(
            {f: presheaf.values[site.src(f)].identity for f in minimal[u]}
        )
        return GroupTable(elems, mult, ident)

    values = {u: value_at(u) for u in site.objects}

    restrictions = {}
    for a, (v, u) in site.arrows.items():
        table = {}
        for name, fam in names[u].items():
            restricted = {
                g: fam[site.comp[(a, g)]] for g in minimal[v]
            }
            table[name] = family_name(restricted)
        restrictions[a] = table

    result = Presheaf(site, presheaf.domain, values, restrictions)
    unit_components = {}
    for u in site.objects:
        comp = {}
        for x in ops.elements(presheaf.values[u]):
            fam = {
                f: ops.apply(presheaf.restrictions[f], x) for f in minimal[u]
            }
            comp[x] = family_name(fam)
        unit_components[u] = comp
    unit = NaturalTransformation(presheaf, result, unit_components)
    return result, unit, names


def plus_map(nat):
    """The map induced on plus constructions; returns (map, source+, target+)."""
    site = nat.source.site
    source_plus, _, families = _plus(nat.source)
    target_plus, _ = plus(nat.target)
    components = {}
    for u in site.objects:
        components[u] = {
            name: family_name({f: nat.components[site.src(f)][x] for f, x in fam.items()})
            for name, fam in sorted(families[u].items())
        }
    nat_plus = NaturalTransformation(source_plus, target_plus, components)
    return nat_plus, source_plus, target_plus


def sheafify(presheaf):
    """L^2: the plus construction applied twice; returns (sheaf, unit)."""
    once, unit1 = plus(presheaf)
    twice, unit2 = plus(once)
    composed = {
        u: {
            x: unit2.components[u][unit1.components[u][x]]
            for x in presheaf.ops.elements(presheaf.values[u])
        }
        for u in presheaf.site.objects
    }
    return twice, NaturalTransformation(presheaf, twice, composed)


def sheafify_map(nat):
    """The induced map of sheafifications; returns (map, source L2, target L2)."""
    once, _, _ = plus_map(nat)
    return plus_map(once)


def sheaf_condition_report(presheaf):
    """Violations of the sheaf condition over every covering sieve."""
    problems = []
    site = presheaf.site
    ops = presheaf.ops
    for u in site.objects:
        for sieve in site.covers[u]:
            families = matching_families(presheaf, u, sieve)
            images = {}
            for x in ops.elements(presheaf.values[u]):
                fam = {f: ops.apply(presheaf.restrictions[f], x) for f in sieve}
                key = family_name(fam)
                if key in images:
                    problems.append(
                        f"not separated at {u} for a cover: {images[key]} and {x} agree"
                    )
                images[key] = x
            family_keys = {family_name(fam) for fam in families}
            missing = family_keys - set(images)
            if missing:
                problems.append(
                    f"not complete at {u}: family {sorted(missing)[0]} has no amalgamation"
                )
    return problems


def is_sheaf(presheaf):
    return not sheaf_condition_report(presheaf)


def presheaves_isomorphic(f, g, budget=None):
    """Search for a natural isomorphism; True/False/None (budget exhausted)."""
    from .budgets import BudgetExceeded

    if f.site.objects != g.site.objects or f.domain != g.domain:
        return False
    budget = env_budget(DEFAULT_ISO_SEARCH_BUDGET if budget is None else budget)
    meter = Meter("natural isomorphism search", budget)
    ops = f.ops
    objects = list(f.site.objects)
    try:
        candidate_lists = []
        for u in objects:
            xs = ops.elements(f.values[u])
            ys = ops.elements(g.values[u])
            if len(xs) != len(ys):
                return False
            candidates = []
            for perm in _bijections(xs, ys, meter):
                if f.domain == "group":
                    if _GroupOps.validate_morphism(perm, f.values[u], g.values[u]):
                        continue
                candidates.append(perm)
            if not candidates:
                return False
            candidate_lists.append(candidates)
        for combo in product(*candidate_lists):
            meter.tick()
            components = dict(zip(objects, combo))
            nat = NaturalTransformation(f, g, components)
            if not nat.validate():
                return True
    except BudgetExceeded:
        return None
    return False


def _bijections(xs, ys, meter):
    from itertools import permutations

    for perm in permutations(ys):
        meter.tick()
        yield dict(zip(xs, perm))


def pi0_sheaf(x):
    """The sheafified presheaf of path components."""
    sheaf, _ = sheafify(pi0_presheaf(x))
    return sheaf


# -- the sections left adjoint ----------------------------------------------------


def y_u(sset, u, site):
    """The left adjoint to U-sections: V maps to one copy of Y per arrow V -> U."""
    depth = sset.depth

    def tag(phi, simplex):
        return f"{phi}:{simplex}"

    values = {}
    for v in site.objects:
        copies = site.arrows_between(v, u)
        levels = [
            [tag(phi, s) for phi in copies for s in sset.levels[n]]
            for n in range(depth + 1)
        ]
        faces = {}
        for (n, i), table in sset.faces.items():
            faces[(n, i)] = {
                tag(phi, s): tag(phi, img)
                for phi in copies
                for s, img in table.items()
            }
        degeneracies = {}
        for (n, i), table in sset.degeneracies.items():
            degeneracies[(n, i)] = {
                tag(phi, s): tag(phi, img)
                for phi in copies
                for s, img in table.items()
            }
        values[v] = TruncatedSimplicialSet(depth, levels, faces, degeneracies)

    restrictions = {}
    for a, (v, w) in site.arrows.items():
        # restriction along a: V -> W sends the copy at phi: W -> U to phi o a
        level_maps = []
        for n in range(depth + 1):
            table = {}
            for phi in site.arrows_between(w, u):
                target_copy = site.comp[(phi, a)]
                for s in sset.levels[n]:
                    table[tag(phi, s)] = tag(target_copy, s)
            level_maps.append(table)
        restrictions[a] = SimplicialMap(values[w], values[v], level_maps)
    return Presheaf(site, "sset", values, restrictions)


# -- homotopy presheaves and sheaves ----------------------------------------------


def pi0_presheaf(x):
    """The set-valued presheaf of path components of the sections."""
    site = x.site
    values = {}
    reps = {}
    for v in site.objects:
        comps = _components_of_value(x, v)
        reps[v] = comps
        values[v] = tuple(sorted(comps.values()))
    restrictions = {}
    for a, (v, u) in site.arrows.items():
        table = {}
        for rep in values[u]:
            image = _component_image(x, a, rep)
            table[rep] = reps[v][image]
        restrictions[a] = table
    return Presheaf(site, "set", values, restrictions)


def _components_of_value(x, v):
    """point -> component representative for the value at v."""
    value = x.values[v]
    if x.domain == "sgpd":
        classes = pi0_sgpd(value)
    elif x.domain == "2gpd":
        classes = pi_2gpd(value, value.objects[0], 0) if value.objects else ()
    elif x.domain == "sset":
        classes = pi0_sset(value)
    else:
        raise ValueError(f"pi0 presheaf undefined for domain {x.domain}")
    rep_of = {}
    for members in classes:
        rep = min(members)
        for m in members:
            rep_of[m] = rep
    return rep_of

def _component_image(x, arrow, point):
    morphism = x.restrictions[arrow]
    if x.domain == "sgpd":
        return morphism.obj_map[point]
    if x.domain == "2gpd":
        return morphism.obj_map[point]
    if x.domain == "sset":
        return morphism(0, point)
    raise ValueError(f"pi0 presheaf undefined for domain {x.domain}")


def homotopy_presheaf(x, u, basepoint, loop_vertex, n):
    """The presheaf of simplicial homotopy groups of x restricted under u.

    ``x`` is a presheaf of simplicial groupoids with finite levels;
    ``basepoint`` is an object of x(u); ``loop_vertex`` is a level-0 loop at
    the basepoint (carried as metadata; the Moore computation is based at the
    identity).  Values live on the comma site over u.
    """
    site = x.site
    comma = comma_site(site, u)
    if basepoint not in x.values[u].objects:
        raise ValueError(f"basepoint {basepoint!r} is not an object of the section")
    loops_value = {}
    pi_tables = {}
    classifiers = {}
    base_at = {}
    for phi in comma.objects:
        v = site.src(phi)
        x_v = x.restrictions[phi].obj_map[basepoint]
        base_at[phi] = x_v
        loops = hom_simplicial_group(x.values[v], x_v)
        table, classify = moore_pi_n_with_classes(loops, n)
        loops_value[phi] = loops
        pi_tables[phi] = table
        classifiers[phi] = classify
    restrictions = {}
    for name, h, psi, phi in comma_arrows(site, u):
        hom = x.restrictions[h]
        table = {}
        for cls in pi_tables[phi].elements:
            table[cls] = classifiers[psi][hom.level(n)(cls)]
        restrictions[name] = table
    return Presheaf(comma, "group", pi_tables, restrictions)


def homotopy_sheaf(x, u, basepoint, loop_vertex, n):
    presheaf = homotopy_presheaf(x, u, basepoint, loop_vertex, n)
    sheaf, _ = sheafify(presheaf)
    return sheaf


def homotopy_presheaf_2gpd(x, u, basepoint, i):
    """The comma-site presheaf of pi_i (i = 1, 2) of a 2-groupoid presheaf."""
    site = x.site
    comma = comma_site(site, u)
    if basepoint not in x.values[u].objects:
        raise ValueError(f"basepoint {basepoint!r} is not an object of the section")
    tables = {}
    classifiers = {}
    for phi in comma.objects:
        v = site.src(phi)
        x_v = x.restrictions[phi].obj_map[basepoint]
        k = x.values[v]
        if i == 1:
            table, rep_of = pi1_with_classes(k, x_v)
            tables[phi] = table
            classifiers[phi] = rep_of
        elif i == 2:
            table = pi_2gpd(k, x_v, 2)
            tables[phi] = table
            classifiers[phi] = {c: c for c in table.elements}
        else:
            raise ValueError("i must be 1 or 2")
    restrictions = {}
    for name, h, psi, phi in comma_arrows(site, u):
        func = x.restrictions[h]
        table = {}
        for cls in tables[phi].elements:
            image = func.map1[cls] if i == 1 else func.map2[cls]
            table[cls] = classifiers[psi][image]
        restrictions[name] = table
    return Presheaf(comma, "group", tables, restrictions)


def homotopy_sheaf_2gpd(x, u, basepoint, i):
    sheaf, _ = sheafify(homotopy_presheaf_2gpd(x, u, basepoint, i))
    return sheaf


# -- the weak-equivalence criterion -----------------------------------------------


def _induced_sheaf_iso(source_presheaf, target_presheaf, components):
    """Sheafify an induced presheaf map and decide whether it is an iso."""
    nat = NaturalTransformation(source_presheaf, target_presheaf, components)
    sheaf_map, src_sheaf, tgt_sheaf = sheafify_map(nat)
    witnesses = []
    for obj in src_sheaf.site.objects:
        comp = sheaf_map.components[obj]
        src_elems = src_sheaf.ops.elements(src_sheaf.values[obj])
        tgt_elems = tgt_sheaf.ops.elements(tgt_sheaf.values[obj])
        image = [comp[x] for x in src_elems]
        if len(set(image)) != len(image) or set(image) != set(tgt_elems):
            witnesses.append(obj)
    return witnesses


def is_weak_equivalence(nat, kind, n_max=2):
    """The sheaf-isomorphism criterion, checked exactly on finite data.

    Returns (verdict, witnesses): the pi_0 sheaf map and all pointed homotopy
    sheaf maps up to n_max must be isomorphisms of sheaves.
    """
    x, y = nat.source, nat.target
    site = x.site
    witnesses = []

    # pi_0 as a sheaf on the base site
    pi0_x, pi0_y = pi0_presheaf(x), pi0_presheaf(y)
    components = {}
    for v in site.objects:
        reps_y = _components_of_value(y, v)
        table = {}
        for rep in pi0_x.values[v]:
            image = _point_image(nat, v, rep, kind)
            table[rep] = reps_y[image]
        components[v] = table
    bad = _induced_sheaf_iso(pi0_x, pi0_y, components)
    for obj in bad:
        witnesses.append({"sheaf": "pi0", "object": obj})

    if kind == "sgpd":
        witnesses.extend(_sgpd_pointed_witnesses(nat, n_max))
    elif kind == "2gpd":
        witnesses.extend(_2gpd_pointed_witnesses(nat))
    else:
        raise ValueError("kind must be 'sgpd' or '2gpd'")
    return (not witnesses), witnesses


def _point_image(nat, v, point, kind):
    comp = nat.components[v]
    if kind == "sgpd":
        return comp.obj_map[point]
    return comp.obj_map[point]


def _sgpd_pointed_witnesses(nat, n_max):
    # n = 0 is the pointed hom-components sheaf: pi_0 of the loop simplicial
    # group, i.e. pi_1 of the classifying complex.  Omitting it would let
    # maps that kill fundamental groups pass.
    x, y = nat.source, nat.target
    site = x.site
    witnesses = []
    for u in site.objects:
        for basepoint in x.values[u].objects:
            fx = nat.components[u].obj_map[basepoint]
            for n in range(0, n_max + 1):
                px = homotopy_presheaf(x, u, basepoint, None, n)
                py = homotopy_presheaf(y, u, fx, None, n)
                components = {}
                for phi in px.site.objects:
                    v = site.src(phi)
                    hom = nat.components[v]
                    # classify images of Moore representatives in the target
                    x_v = x.restrictions[phi].obj_map[basepoint]
                    y_v = y.restrictions[phi].obj_map[fx]
                    loops = hom_simplicial_group(y.values[v], y_v)
                    _, classify = moore_pi_n_with_classes(loops, n)
                    table = {}
                    for cls in px.values[phi].elements:
                        table[cls] = classify[hom.level(n)(cls)]
                    components[phi] = table
                bad = _induced_sheaf_iso(px, py, components)
                for obj in bad:
                    witnesses.append(
                        {
                            "sheaf": "pi0(hom)" if n == 0 else f"pi{n}(hom)",
                            "section": u,
                            "basepoint": basepoint,
                            "comma_object": obj,
                        }
                    )
    return witnesses


def _2gpd_pointed_witnesses(nat):
    x, y = nat.source, nat.target
    site = x.site
    witnesses = []
    for u in site.objects:
        for basepoint in x.values[u].objects:
            fx = nat.components[u].obj_map[basepoint]
            for i in (1, 2):
                px = homotopy_presheaf_2gpd(x, u, basepoint, i)
                py = homotopy_presheaf_2gpd(y, u, fx, i)
                components = {}
                for phi in px.site.objects:
                    v = site.src(phi)
                    func = nat.components[v]
                    y_v = y.restrictions[phi].obj_map[fx]
                    if i == 1:
                        _, classify = pi1_with_classes(y.values[v], y_v)
                    else:
                        classify = {
                            c: c
                            for c in pi_2gpd(y.values[v], y_v, 2).elements
                        }
                    table = {}
                    for cls in px.values[phi].elements:
                        image = func.map1[cls] if i == 1 else func.map2[cls]
                        table[cls] = classify[image]
                    components[phi] = table
                bad = _induced_sheaf_iso(px, py, components)
                for obj in bad:
                    witnesses.append(
                        {
                            "sheaf": f"pi{i}",
                            "section": u,
                            "basepoint": basepoint,
                            "comma_object": obj,
                        }
                    )
    return witnesses


# -- pointwise functors -------------------------------------------------------------


def apply_pointwise(functor, x, depth):
    """Apply G, wbar, or nerve to every section of a presheaf."""
    from .loop import loop_groupoid, loop_of_map, wbar, wbar_of_map
    from .two_groupoids import nerve, nerve_of_functor

    site = x.site
    if functor == "G":
        values = {v: loop_groupoid(x.values[v], depth) for v in site.objects}
        restrictions = {}
        for a, (v, u) in site.arrows.items():
            restrictions[a] = loop_of_map(x.restrictions[a], values[u], values[v])
        return Presheaf(site, "sgpd", values, restrictions)
    if functor == "wbar":
        results = {v: wbar(x.values[v], depth) for v in site.objects}
        values = {v: results[v].sset for v in site.objects}
        restrictions = {}
        for a, (v, u) in site.arrows.items():
            restrictions[a] = wbar_of_map(x.restrictions[a], results[u], results[v])
        return Presheaf(site, "sset", values, restrictions)
    if functor == "nerve":
        values = {v: nerve(x.values[v], depth) for v in site.objects}
        restrictions = {}
        for a, (v, u) in site.arrows.items():
            level_maps = nerve_of_functor(x.restrictions[a], values[u], values[v])
            restrictions[a] = SimplicialMap(values[u], values[v], level_maps)
        return Presheaf(site, "sset", values, restrictions)
    if functor == "whitehead":
        from .whitehead import whitehead_2gpd, whitehead_of_map

        values = {v: whitehead_2gpd(x.values[v]) for v in site.objects}
        restrictions = {}
        for a, (v, u) in site.arrows.items():
            obj_map, map1, map2 = whitehead_of_map(
                x.restrictions[a], values[u], values[v]
            )
            restrictions[a] = Presented2Map(values[u], values[v], obj_map, map1, map2)
        return Presheaf(site, "presented2", values, restrictions)
    raise ValueError(f"unknown pointwise functor {functor!r}")


def pointwise_unit(x, depth):
    """The unit X -> wbar G X as a presheaf map (discrete loop sections only)."""
    from .loop import finitize_discrete, loop_groupoid, loop_of_map, unit, wbar_of_map

    site = x.site
    etas = {}
    sources = {}
    targets = {}
    for v in site.objects:
        eta, _, wb = unit(x.values[v], depth)
        etas[v] = eta
        sources[v] = eta.source
        targets[v] = wb
    source = Presheaf(
        site,
        "sset",
        sources,
        {
            a: _retruncate_map(x.restrictions[a], sources[u], sources[v])
            for a, (v, u) in site.arrows.items()
        },
    )
    restrictions = {}
    for a, (v, u) in site.arrows.items():
        free_u = loop_groupoid(x.values[u], depth)
        free_v = loop_groupoid(x.values[v], depth)
        fin_u = finitize_discrete(free_u)
        fin_v = finitize_discrete(free_v)
        lmap = loop_of_map(x.restrictions[a], free_u, free_v)
        fin_map = _finitize_map(lmap, fin_u, fin_v)
        restrictions[a] = wbar_of_map(fin_map, targets[u], targets[v])
    target = Presheaf(
        site, "sset", {v: targets[v].sset for v in site.objects}, restrictions
    )
    components = {
        v: SimplicialMap(source.values[v], target.values[v], etas[v].level_maps)
        for v in site.objects
    }
    return NaturalTransformation(source, target, components)


def _retruncate_map(smap, new_source, new_target):
    depth = new_source.depth
    return SimplicialMap(new_source, new_target, smap.level_maps[: depth + 1])


def _finitize_map(sg_map, fin_source, fin_target):
    from .groupoids import GroupoidHom

    level_homs = []
    for n in range(sg_map.source.depth + 1):
        src = fin_source.levels[n]
        tgt = fin_target.levels[n]
        arrow_map = {
            a: tgt.identity(sg_map.obj_map[src.arrows[a][0]]) for a in src.arrows
        }
        level_homs.append(
            GroupoidHom(src, tgt, sg_map.obj_map, arrow_map)
        )
    return SimplicialGroupoidMap(fin_source, fin_target, sg_map.obj_map, level_homs)
