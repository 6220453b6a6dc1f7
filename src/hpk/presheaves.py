"""Presheaves on finite sites, sheafification, homotopy sheaves, and the
weak-equivalence criterion.

Values live in one of five domains: finite sets, finite groups, truncated
simplicial sets, simplicial groupoids, or 2-groupoids.  The plus construction
is computed over the minimal covering sieve (the intersection of the listed
covers, which a valid finite topology contains); sheafification is the plus
construction applied twice, and its output is checked against the sheaf
condition exhaustively in the tests.

Within one call of ``is_weak_equivalence`` (and of ``homotopy_presheaf`` and
``sheafify_map``) each distinct thing is computed once: the classes of a
section object at a point in a degree, the homotopy presheaf of a presheaf
object under an object at a point in a degree, and the plus construction of a
presheaf object.  The memo that holds them is made by the call and dropped
when it returns; nothing is kept between calls.
"""

from itertools import product

from .budgets import DEFAULT_ISO_SEARCH_BUDGET, Meter, resolve_budget
from .groups import GroupTable
from .groupoids import (
    SimplicialGroupoidMap,
    hom_simplicial_group,
    moore_pi_n_with_classes,
    pi0_sgpd,
)
from .laws import functor_problems
from .sites import comma_arrows, comma_site
from .sset import SimplicialMap, coproduct, pi0_sset
from .two_groupoids import TwoFunctor, pi1_with_classes, pi_2gpd


class _Once:
    """A memo for one call: ``once(fn, x, *args, **options)`` is
    ``fn(x, *args, **options)``, computed the first time ``fn``, ``x`` and
    ``args`` come.  It is keyed by ``fn``, the id() of ``x`` and ``args``, and
    holds ``x`` beside its result so that the id is not reused while the memo
    lives; ``options`` are passed on unkeyed."""

    def __init__(self):
        self.results = {}

    def __call__(self, fn, x, *args, **options):
        key = (fn, id(x), *args)
        if key not in self.results:
            self.results[key] = x, fn(x, *args, **options)
        return self.results[key][1]


# -- pointed invariants of a section -------------------------------------------
#
# A degree of a pointed invariant is a pair (classes, image):
# ``classes(value, point)`` is (group table, classify), where ``classify`` sends
# each representative ``image`` can produce to its class, and
# ``image(morphism, cls)`` maps the representative ``cls`` of a class along a
# map of sections.


def _moore_degree(n):
    """Moore pi_n of the loop simplicial group at the point."""

    def classes(value, point):
        return moore_pi_n_with_classes(hom_simplicial_group(value, point), n)

    def image(morphism, cls):
        return morphism.level(n)(cls)

    return classes, image


def _moore_degrees(n_max):
    """The labelled Moore degrees the weak-equivalence criterion checks.  n = 0
    is the pointed hom-components sheaf: pi_0 of the loop simplicial group, i.e.
    pi_1 of the classifying complex.  Omitting it would let maps that kill
    fundamental groups pass."""
    return [("pi0(hom)" if n == 0 else f"pi{n}(hom)", n) for n in range(n_max + 1)]


def _two_groupoid_degree(i):
    """pi_1 or pi_2 of a 2-groupoid at the point."""
    if i == 1:
        return pi1_with_classes, lambda functor, cls: functor.map1[cls]
    if i == 2:

        def classes(value, point):
            table = pi_2gpd(value, point, 2)
            return table, {c: c for c in table.elements}

        return classes, lambda functor, cls: functor.map2[cls]
    raise ValueError("i must be 1 or 2")


def _two_groupoid_components(value):
    return pi_2gpd(value, value.objects[0], 0) if value.objects else ()


def _object_image(morphism, point):
    return morphism.obj_map[point]


# -- value domains: one row each -----------------------------------------------------
#
# Besides the category operations a row has ``components`` (value -> its pi_0
# classes), ``apply`` (the image of an element, a vertex or an object under a
# map), ``degree`` (n -> the degree-n pointed invariant) and ``degrees`` (n_max
# -> the (witness label, n) pairs the weak-equivalence criterion checks), or None.
# ``validate_morphism(m, src, tgt, passed)`` skips the check of a map object
# whose id is in ``passed``, one that has passed its own check already.


class _SetOps:
    name = "set"
    components = degree = degrees = None

    @staticmethod
    def elements(value):
        return list(value)

    @staticmethod
    def apply(morphism, element):
        return morphism[element]

    @staticmethod
    def validate_morphism(m, src, tgt, passed=()):
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


class _GroupOps(_SetOps):
    name = "group"

    @staticmethod
    def elements(value):
        return list(value.elements)

    @staticmethod
    def validate_morphism(m, src, tgt, passed=()):
        names = ("object", "element", "product")
        return functor_problems(src.tables(), tgt.tables(), {"*": "*"}, m, names)

    @staticmethod
    def identity(value):
        return {x: x for x in value.elements}


class _MapOps:
    """Values are complexes, morphisms are map objects: every map class a
    presheaf may hold agrees on ``identity``, ``compose``, ``equals`` and
    ``validate``."""

    def __init__(self, name, map_class, components, apply, degree=None, degrees=None):
        self.name = name
        self.map_class = map_class
        self.components = components
        self.apply = apply
        self.degree = degree
        self.degrees = degrees

    @staticmethod
    def validate_morphism(m, src, tgt, passed=()):
        return [] if id(m) in passed else m.validate()

    def identity(self, value):
        return self.map_class.identity(value)

    @staticmethod
    def compose(m2, m1):
        return m2.compose(m1)

    @staticmethod
    def equal(m1, m2):
        return m1.equals(m2)


DOMAINS = {
    ops.name: ops
    for ops in (
        _SetOps,
        _GroupOps,
        _MapOps("sset", SimplicialMap, pi0_sset, lambda smap, vertex: smap(0, vertex)),
        _MapOps("sgpd", SimplicialGroupoidMap, pi0_sgpd, _object_image, _moore_degree,
                _moore_degrees),
        _MapOps("2gpd", TwoFunctor, _two_groupoid_components, _object_image,
                _two_groupoid_degree, lambda n_max: [("pi1", 1), ("pi2", 2)]),
    )
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

    def validate(self, passed=()):
        """Violations of the presheaf laws; a restriction whose id is in
        ``passed`` has passed its own check, which is not run again."""
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
                    self.restrictions[a], self.values[u], self.values[v], passed
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

    def validate(self, passed=()):
        """Violations of naturality; a component whose id is in ``passed`` has
        passed its own check, which is not run again."""
        problems = []
        ops = self.source.ops
        if set(self.components) != set(self.source.site.objects):
            return ["components not assigned exactly on objects"]
        for u in self.source.site.objects:
            problems.extend(
                f"component at {u}: {p}"
                for p in ops.validate_morphism(
                    self.components[u], self.source.values[u], self.target.values[u], passed
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


def plus_map(nat, once=None):
    """The map induced on plus constructions; returns (map, source+, target+).
    ``once`` is the memo of the calling criterion, if any."""
    once = _Once() if once is None else once
    site = nat.source.site
    source_plus, _, families = once(_plus, nat.source)
    target_plus = once(_plus, nat.target)[0]
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


def sheafify_map(nat, once=None):
    """The induced map of sheafifications; returns (map, source L2, target L2).
    ``once`` is the memo of the calling criterion, if any."""
    first, _, _ = plus_map(nat, once)
    return plus_map(first, once)


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
    meter = Meter("natural isomorphism search", resolve_budget(DEFAULT_ISO_SEARCH_BUDGET, budget))
    ops = f.ops
    objects = list(f.site.objects)
    try:
        candidate_lists = []
        for u in objects:
            xs = ops.elements(f.values[u])
            ys = ops.elements(g.values[u])
            if len(xs) != len(ys):
                return False
            candidates = [
                perm
                for perm in _bijections(xs, ys, meter)
                if not ops.validate_morphism(perm, f.values[u], g.values[u])
            ]
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


def copy_id(phi, simplex):
    """The id in ``y_u`` of ``simplex`` in the copy at the arrow ``phi``."""
    return f"{phi}:{simplex}"


def y_u(sset, u, site):
    """The left adjoint to U-sections: V maps to one copy of Y per arrow V -> U."""
    values, ids = {}, {}
    for v in site.objects:
        copies = {phi: sset for phi in site.arrows_between(v, u)}
        values[v], ids[v] = coproduct(sset.depth, copies, copy_id)
    # restriction along a: V -> W sends the copy at phi: W -> U to phi o a
    restrictions = {
        a: SimplicialMap(
            values[w],
            values[v],
            [
                {ident: ids[v][n][site.comp[(phi, a)], s] for (phi, s), ident in level.items()}
                for n, level in enumerate(ids[w])
            ],
        )
        for a, (v, w) in site.arrows.items()
    }
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
            table[rep] = reps[v][x.ops.apply(x.restrictions[a], rep)]
        restrictions[a] = table
    return Presheaf(site, "set", values, restrictions)


def _components_of_value(x, v):
    """point -> component representative for the value at v."""
    if x.ops.components is None:
        raise ValueError(f"pi0 presheaf undefined for domain {x.domain}")
    rep_of = {}
    for members in x.ops.components(x.values[v]):
        rep = min(members)
        for m in members:
            rep_of[m] = rep
    return rep_of


def homotopy_presheaf(x, u, basepoint, n):
    """The comma-site presheaf of the degree-n pointed invariant of x under u.

    For simplicial-groupoid values (with finite levels) that is Moore pi_n of
    the loop simplicial group at the image of ``basepoint``; for 2-groupoid
    values it is pi_n, n = 1 or 2.  ``basepoint`` is an object of x(u).
    """
    if x.ops.degree is None:
        raise ValueError("hsheaf needs simplicial groupoid or 2-groupoid values")
    if basepoint not in x.values[u].objects:
        raise ValueError(f"basepoint {basepoint!r} is not an object of the section")
    return _homotopy_presheaf(x, u, basepoint, x.ops.degree(n), once=_Once())[0]


def _homotopy_presheaf(x, u, basepoint, degree, once):
    """homotopy_presheaf of one degree, and the classifier of each of its values;
    ``once`` computes the classes of each section object at each point once."""
    classes, image = degree
    site = x.site
    comma = comma_site(site, u)
    tables = {}
    classifiers = {}
    for phi in comma.objects:
        point = x.restrictions[phi].obj_map[basepoint]
        tables[phi], classifiers[phi] = once(classes, x.values[site.src(phi)], point)
    restrictions = {}
    for name, h, psi, phi in comma_arrows(site, u):
        morphism = x.restrictions[h]
        classify = classifiers[psi]
        restrictions[name] = {
            cls: classify[image(morphism, cls)] for cls in tables[phi].elements
        }
    return Presheaf(comma, "group", tables, restrictions), classifiers


def homotopy_sheaf(x, u, basepoint, n):
    sheaf, _ = sheafify(homotopy_presheaf(x, u, basepoint, n))
    return sheaf


# -- the weak-equivalence criterion -----------------------------------------------


def _induced_sheaf_iso(source_presheaf, target_presheaf, components, once=None):
    """Sheafify an induced presheaf map and decide whether it is an iso."""
    nat = NaturalTransformation(source_presheaf, target_presheaf, components)
    sheaf_map, src_sheaf, tgt_sheaf = sheafify_map(nat, once)
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
    sheaf maps must be isomorphisms of sheaves; ``kind`` names the values of
    both presheaves.  Simplicial-groupoid values are checked in Moore degrees
    0 to n_max, 2-groupoid values at pi_1 and pi_2; n_max must be
    non-negative for both.
    """
    x, y = nat.source, nat.target
    ops = DOMAINS.get(kind)
    if ops is None or ops.degree is None:
        raise ValueError("kind must be 'sgpd' or '2gpd'")
    if (x.domain, y.domain) != (kind, kind):
        raise ValueError(
            f"kind {kind!r} does not match the values of the transformation "
            f"({x.domain!r} to {y.domain!r})"
        )
    if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 0:
        raise ValueError(f"n_max must be a non-negative integer, got {n_max!r}")
    site = x.site
    witnesses = []
    once = _Once()

    # pi_0 as a sheaf on the base site
    pi0_x, pi0_y = once(pi0_presheaf, x), once(pi0_presheaf, y)
    components = {}
    for v in site.objects:
        reps_y = _components_of_value(y, v)
        components[v] = {
            rep: reps_y[ops.apply(nat.components[v], rep)]
            for rep in pi0_x.values[v]
        }
    for obj in _induced_sheaf_iso(pi0_x, pi0_y, components, once):
        witnesses.append({"sheaf": "pi0", "object": obj})

    # one pointed invariant per degree for the whole call, so that ``once``
    # meets each degree as one key
    degrees = [(label, ops.degree(n)) for label, n in ops.degrees(n_max)]
    for u in site.objects:
        for basepoint in x.values[u].objects:
            fx = nat.components[u].obj_map[basepoint]
            for label, degree in degrees:
                px, _ = once(_homotopy_presheaf, x, u, basepoint, degree, once=once)
                py, classifiers = once(_homotopy_presheaf, y, u, fx, degree, once=once)
                image = degree[1]
                components = {
                    phi: {
                        cls: classifiers[phi][image(nat.components[site.src(phi)], cls)]
                        for cls in px.values[phi].elements
                    }
                    for phi in px.site.objects
                }
                for obj in _induced_sheaf_iso(px, py, components, once):
                    witnesses.append(
                        {
                            "sheaf": label,
                            "section": u,
                            "basepoint": basepoint,
                            "comma_object": obj,
                        }
                    )
    return (not witnesses), witnesses


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
