"""Seeded workloads of the hpk benchmark, with an oracle for every operation.

Each workload is a stream of rounds.  A round is a fixed multiset of
operation classes whose details and order come from the seed, so every seed
puts the same kinds of work, in the same proportions, into a run; what the
seed changes is which inputs each class gets.  This keeps the run-to-run
spread small while the inputs still come from the seed.

An operation is ``Op(kind, key, run, check, counts)``:

* ``run()`` is the timed call into hpk; it includes the oracle computation
  where hpk's contract makes the oracle part of the answer (validation of a
  construction, the second homotopy route, the isomorphism search);
* ``check(result)`` verifies the answer outside the timed region and returns
  a bool;
* ``key`` identifies the input, for ``repeat_share``;
* ``counts(result)`` (optional) returns deterministic counts that the traced
  run adds to its per-layer metrics; the value under ``_digest`` is bytes
  that feed the output digest instead.

Every call into hpk goes through a module attribute (``H.loop.wbar``), so the
traced run's wrappers see the benchmark's own calls as well as internal ones.
"""

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
from collections import namedtuple
from types import SimpleNamespace

Op = namedtuple("Op", "kind key run check counts")

MODULES = (
    "abelian",
    "budgets",
    "cli",
    "groupoids",
    "groups",
    "homsearch",
    "jsonio",
    "kan",
    "lifting",
    "loop",
    "model_checks",
    "presheaves",
    "sites",
    "sset",
    "two_groupoids",
    "whitehead",
)


def import_hpk():
    """Import hpk and the submodules the workloads call, as a namespace."""
    importlib.import_module("hpk")
    return SimpleNamespace(**{n: importlib.import_module("hpk." + n) for n in MODULES})


def _rng(workload, seed, *parts):
    return random.Random("/".join([workload, str(seed)] + [str(p) for p in parts]))


# -- shared generators ----------------------------------------------------------------

GROUP_ORDERS = {"1": 1, "Z2": 2, "Z3": 3, "V4": 4}


def _group(H, key, prefix="g"):
    table = H.groups.GroupTable
    if key == "1":
        return table.trivial()
    if key == "V4":
        return table.direct_product(table.cyclic(2, prefix=prefix), table.cyclic(2, prefix="h"))
    return table.cyclic(int(key[1:]), prefix=prefix)


def _random_pieces(rng):
    """Criterion-9 groupoid shape: 1-2 chaotic pieces of 1-2 objects each."""
    return tuple(
        (rng.randint(1, 2), rng.choice(tuple(GROUP_ORDERS))) for _ in range(rng.randint(1, 2))
    )


def _groupoid(H, pieces, tag=""):
    gpds = [
        H.groupoids.FiniteGroupoid.chaotic(
            [f"c{i}o{j}{tag}" for j in range(n)], _group(H, key, "g" + tag)
        )
        for i, (n, key) in enumerate(pieces)
    ]
    if len(gpds) == 1:
        return gpds[0]
    constant = H.groupoids.SimplicialGroupoid.constant
    return H.groupoids.disjoint_union_sgpd(constant(gpds[0], 0), constant(gpds[1], 0)).levels[0]


def _chaotic_sizes(pieces, depth):
    """Level sizes of the nerve of a chaotic groupoid: sum of k (k |G|)^n."""
    return [sum(k * (k * GROUP_ORDERS[g]) ** n for k, g in pieces) for n in range(depth + 1)]


def _pi2_sizes(order, depth):
    return [order ** (n * (n - 1) // 2) for n in range(depth + 1)]


CHAIN_GROUPS = ([], [2], [3], [2, 2], [4])


def _random_chain(H, rng, groups):
    """A chain complex on the given groups with random boundaries, d o d = 0."""
    ab = H.abelian
    gs = [ab.FiniteAbelianGroup(list(g)) for g in groups]
    for _ in range(40):
        boundaries = []
        for lower, upper in zip(gs, gs[1:]):
            images = [tuple(rng.randrange(m) for m in lower.moduli) for _ in upper.moduli]
            try:
                boundaries.append(ab.AbelianHom(upper, lower, images))
            except ValueError:
                boundaries.append(ab.AbelianHom.zero(upper, lower))
        try:
            return ab.ChainFixture(gs, boundaries)
        except ValueError:
            continue
    return ab.ChainFixture(gs, [ab.AbelianHom.zero(u, l) for l, u in zip(gs, gs[1:])])


def _order(moduli):
    out = 1
    for m in moduli:
        out *= m
    return out


def _chain_key(H, chain):
    return json.dumps(H.jsonio.chain_to_json(chain), sort_keys=True)


def _dold_kan_sizes(orders, depth):
    """Arrows per level of dold_kan: C_k enters level n binomial(n, k) times."""
    return [
        orders[0] * orders[1] ** n * (orders[2] if len(orders) > 2 else 1) ** (n * (n - 1) // 2)
        for n in range(depth + 1)
    ]


def _criterion8_problems(H):
    """The lifting problems of criterion 8 as (i, top, p, bottom) and outcome."""
    std = H.sset.standard_complex
    smap = H.sset.SimplicialMap
    horn, d2 = std("horn", 2, k=1, depth=2), std("Delta", 2)
    b1, d1 = std("boundary", 1, depth=2), std("Delta", 1, depth=2)
    s1, pt, b2 = std("sphere", 1, depth=2), std("point", depth=2), std("boundary", 2, depth=2)

    def incl(x, y):
        return smap(x, y, [{s: s for s in lvl} for lvl in x.levels])

    def crush(x, y):
        return smap(x, y, [{s: "*" for s in lvl} for lvl in x.levels])

    return [
        ("horn into simplex", (incl(horn, d2), incl(horn, d2), smap.identity(d2), smap.identity(d2)), "lift"),
        ("circle", (incl(b1, d1), crush(b1, s1), crush(s1, pt), crush(d1, pt)), "lift"),
        ("horn into boundary", (incl(horn, d2), incl(horn, b2), crush(b2, pt), crush(d2, pt)), "no-lift"),
    ]


def _random_sset_spec(rng):
    """Criterion-9 standard complex, as (kind, n, k, depth)."""
    kind = rng.choice(["Delta", "boundary", "horn", "sphere"])
    if kind == "Delta":
        n = rng.randint(0, 2)
        return ("Delta", n, None, max(n, 2) + 1)
    if kind == "boundary":
        n = rng.randint(1, 2)
        return ("boundary", n, None, n + 1)
    if kind == "horn":
        n = rng.randint(1, 2)
        return ("horn", n, rng.randint(0, n), n + 1)
    return ("sphere", 1, None, 3)


def _sset(H, spec):
    kind, n, k, depth = spec
    return H.sset.standard_complex(kind, n, k=k, depth=depth)


# -- build_validate -------------------------------------------------------------------

# Every round holds each class below once; the seed picks the labels, the
# boundary maps of the chains, the horn indices and the order of the round.
# The 2-groupoid nerves make the latency tail.
TWO_GPD_CLASSES = [("gpd", ((n, g),)) for g in GROUP_ORDERS for n in (1, 2)] + [
    ("pi2", 2),
    ("pi2", 3),
]
WBAR_CLASSES = [
    (((1, "Z2"),), 2),
    (((2, "Z2"),), 2),
    (((1, "Z3"),), 3),
    (((2, "Z3"),), 2),
    (((1, "V4"),), 3),
    (((2, "V4"),), 2),
    (((1, "1"), (2, "Z2")), 2),
    (((2, "1"), (1, "V4")), 3),
]
DOLD_KAN_CLASSES = [
    ([], [2], 3),
    ([2], [2], 3),
    ([3], [], 3),
    ([2], [3], 2),
    ([2, 2], [2], 2),
    ([4], [4], 2),
    ([3], [3], 2),
    ([2, 2], [], 3),
]
# (kind, n, depth); horns get a seeded index
LOOP_CLASSES = [
    ("Delta", 0, 3),
    ("Delta", 1, 3),
    ("Delta", 2, 3),
    ("boundary", 1, 2),
    ("boundary", 2, 3),
    ("horn", 1, 2),
    ("horn", 2, 3),
    ("sphere", 1, 3),
]
W_TOTAL_CLASSES = [("1", 2), ("Z2", 2), ("Z3", 2), ("V4", 2), ("Z2", 3), ("Z3", 3)]


class BuildValidate:
    """Construct-then-validate jobs from the criterion-9 families."""

    name = "build_validate"
    tail_percentile = 98.0
    round_s = 0.57
    ops_per_round = sum(
        map(len, (TWO_GPD_CLASSES, WBAR_CLASSES, DOLD_KAN_CLASSES, LOOP_CLASSES, W_TOTAL_CLASSES))
    )

    def __init__(self, H, seed, n_rounds, workdir):
        self.H = H
        self.seed = seed
        self.tag = "".join(_rng(self.name, seed).choice("abcdefghjkmnpqrstuvwxyz") for _ in range(3))
        self.rounds = [self._round(seed, i) for i in range(n_rounds)]

    def _round(self, seed, i):
        rng = _rng(self.name, seed, i)
        ops = [self._two_gpd(spec) for spec in TWO_GPD_CLASSES]
        ops += [self._wbar(pieces, depth) for pieces, depth in WBAR_CLASSES]
        ops += [
            self._dold_kan(_random_chain(self.H, rng, [c0, c1]), depth)
            for c0, c1, depth in DOLD_KAN_CLASSES
        ]
        ops += [
            self._loop((kind, n, rng.randint(0, n) if kind == "horn" else None, depth))
            for kind, n, depth in LOOP_CLASSES
        ]
        ops += [self._w_total(key, depth) for key, depth in W_TOTAL_CLASSES]
        rng.shuffle(ops)
        return ops

    def round(self, i):
        # rounds past those built in set-up are made when asked for, so a
        # faster program still runs for the whole measured time
        return self.rounds[i] if i < len(self.rounds) else self._round(self.seed, i)

    def _two_gpd(self, spec):
        H = self.H
        kind, arg = spec
        depth = 3
        if kind == "gpd":
            expected = _chaotic_sizes(arg, depth)
        else:
            expected = _pi2_sizes(arg, depth)

        def run():
            if kind == "gpd":
                k = H.two_groupoids.TwoGroupoid.from_groupoid(_groupoid(H, arg, self.tag))
            else:
                k = H.two_groupoids.TwoGroupoid.one_object_with_pi2(
                    H.groups.GroupTable.cyclic(arg, prefix="m" + self.tag), obj="p" + self.tag
                )
            laws = H.two_groupoids.validate_2gpd(k)
            n = H.two_groupoids.nerve(k, depth)
            return laws, H.sset.validate_sset(n), n.level_sizes()

        return Op("2gpd", ("2gpd", spec), run, lambda r: r == ([], [], expected), None)

    def _wbar(self, pieces, depth):
        H = self.H
        expected = _chaotic_sizes(pieces, depth)

        def run():
            sgpd = H.groupoids.SimplicialGroupoid.constant(_groupoid(H, pieces, self.tag), depth)
            wb = H.loop.wbar(sgpd, depth)
            return H.sset.validate_sset(wb.sset), wb.sset.level_sizes()

        return Op("wbar", ("wbar", pieces, depth), run, lambda r: r == ([], expected), None)

    def _dold_kan(self, chain, depth):
        H = self.H
        levels = _dold_kan_sizes([g.order for g in chain.groups], depth)

        def run():
            sgpd = H.groupoids.dold_kan(chain, depth)
            laws = sgpd.validate()
            wb = H.loop.wbar(sgpd, depth)
            return laws, H.sset.validate_sset(wb.sset), [len(l.arrows) for l in sgpd.levels]

        return Op("dold_kan", ("dold_kan", _chain_key(H, chain), depth), run, lambda r: r == ([], [], levels), None)

    def _loop(self, spec):
        H = self.H

        def run():
            x = _sset(H, spec)
            g = H.loop.loop_groupoid(x, x.depth - 1)
            sizes = x.level_sizes()
            expected = [sizes[n + 1] - sizes[n] for n in range(x.depth)]
            return g.validate(), [len(l.generators) for l in g.levels] == expected

        return Op("loop", ("loop", spec), run, lambda r: r == ([], True), None)

    def _w_total(self, key, depth):
        H = self.H
        order = GROUP_ORDERS[key]
        expected = ([], 1, [order ** (n + 1) for n in range(depth + 1)])

        def run():
            gpd = H.groupoids.FiniteGroupoid.from_group(_group(H, key, "g" + self.tag), obj="o" + self.tag)
            total, _, _ = H.loop.w_total(H.groupoids.SimplicialGroupoid.constant(gpd, depth), depth)
            return H.sset.validate_sset(total), len(H.sset.pi0_sset(total)), total.level_sizes()

        return Op("w_total", ("w_total", key, depth), run, lambda r: r == expected, None)


# -- invariant_queries ----------------------------------------------------------------


class InvariantQueries:
    """Homotopy queries on objects built in set-up, each against its oracle."""

    name = "invariant_queries"
    tail_percentile = 99.0
    round_s = 1.5
    ops_per_round = 83

    def __init__(self, H, seed, n_rounds, workdir):
        self.H = H
        self.seed = seed
        rng = _rng(self.name, seed)
        self.prefix = rng.choice("abgkt")
        queries = []
        queries += self._moore_queries(rng)
        queries += self._homology_queries(rng)
        queries += self._two_type_queries()
        queries += self._kan_queries()
        queries += self._adjunction_queries()
        queries += self._lifting_queries()
        queries += self._counit_queries()
        queries += self._weak_equivalence_queries()
        queries += self._sheafify_queries()
        if len(queries) != self.ops_per_round:
            raise RuntimeError(f"{len(queries)} queries per round, expected {self.ops_per_round}")
        self.queries = queries

    def round(self, i):
        ops = list(self.queries)
        _rng(self.name, self.seed, i).shuffle(ops)
        return ops

    def _constant(self, gpd, depth=3):
        return self.H.groupoids.SimplicialGroupoid.constant(gpd, depth)

    def _cyclic_gpd(self, n, obj="*"):
        return self.H.groupoids.FiniteGroupoid.from_group(
            self.H.groups.GroupTable.cyclic(n, prefix=self.prefix), obj=obj
        )

    def _moore_queries(self, rng):
        """moore_pi_n of the loop group against pi_n_kan of wbar (criterion 1)."""
        H = self.H
        gpds = H.groupoids
        z2 = self._constant(self._cyclic_gpd(2))
        two = gpds.disjoint_union_sgpd(z2, self._constant(gpds.FiniteGroupoid.trivial()))
        g0 = H.abelian.FiniteAbelianGroup([])
        g1 = H.abelian.FiniteAbelianGroup([2])
        chain = H.abelian.ChainFixture([g0, g1], [H.abelian.AbelianHom.zero(g1, g0)])
        fixtures = [
            ("Z2", z2),
            ("Z3", self._constant(self._cyclic_gpd(3))),
            ("Z4", self._constant(self._cyclic_gpd(4, obj=rng.choice("pqr")))),
            ("interval", self._constant(gpds.FiniteGroupoid.interval())),
            ("two components", two),
            ("dold-kan Z/2 in degree 1", gpds.dold_kan(chain, 3)),
        ]
        ops = []
        for name, sgpd in fixtures:
            wb = H.loop.wbar(sgpd, 3)
            for base in sgpd.objects:
                loops = gpds.hom_simplicial_group(sgpd, base)
                for n in (0, 1):
                    ops.append(self._moore_op(name, loops, wb.sset, base, n))
        return ops

    def _moore_op(self, name, loops, wbar_sset, base, n):
        H = self.H

        def run():
            left = H.groupoids.moore_pi_n(loops, n)
            right = H.kan.pi_n_kan(wbar_sset, base, n + 1)
            return left.iso_to(right) is not None

        return Op("moore_pi_n", ("moore", name, base, n), run, bool, None)

    def _homology_queries(self, rng):
        """moore_pi_n of a Dold-Kan group against the chain's homology."""
        H = self.H
        ops = []
        for c0 in ([2, 2], [4]):
            chain = _random_chain(H, rng, [c0, [2]])
            sgpd = H.groupoids.dold_kan(chain, 3)
            loops = H.groupoids.hom_simplicial_group(sgpd, sgpd.objects[0])
            for n in (0, 1):

                def run(loops=loops, chain=chain, n=n):
                    left = H.groupoids.moore_pi_n(loops, n)
                    return left.iso_to(chain.homology(n)) is not None

                ops.append(Op("homology", ("homology", _chain_key(H, chain), n), run, bool, None))
        return ops

    def _two_type_queries(self):
        """pi_2gpd against pi_n_kan of the depth-4 nerve (criterion 4)."""
        H = self.H
        two = H.two_groupoids.TwoGroupoid
        fixtures = [
            ("trivial", two.from_groupoid(H.groupoids.FiniteGroupoid.trivial()), "*"),
            ("pi2 = Z/3", two.one_object_with_pi2(H.groups.GroupTable.cyclic(3, prefix=self.prefix)), "*"),
            ("interval", two.from_groupoid(H.groupoids.FiniteGroupoid.interval()), "0"),
            ("pi1 = Z/2", two.from_groupoid(self._cyclic_gpd(2)), "*"),
        ]
        ops = []
        for name, k, base in fixtures:
            n4 = H.two_groupoids.nerve(k, 4)
            for i in (1, 2):

                def run(k=k, n4=n4, base=base, i=i):
                    left = H.two_groupoids.pi_2gpd(k, base, i)
                    return left.iso_to(H.kan.pi_n_kan(n4, base, i)) is not None

                ops.append(Op("pi_2gpd", ("pi_2gpd", name, i), run, bool, None))

            def run3(n4=n4, base=base):
                return H.kan.pi_n_kan(n4, base, 3).is_trivial()

            ops.append(Op("pi3_nerve", ("pi3", name), run3, bool, None))
        return ops

    def _kan_queries(self):
        """kan_report on wbar of Z/n, n = 2..6, depth 3: every horn fills."""
        H = self.H
        ops = []
        for n in range(2, 7):
            wb = H.loop.wbar(self._constant(self._cyclic_gpd(n)), 3).sset

            def run(wb=wb):
                return H.kan.kan_report(wb, 3)

            def counts(result, wb=wb):
                meter = H.budgets.Meter("horn count", 10**9)
                horns = sum(
                    len(H.kan.enumerate_horns(wb, m, k, meter))
                    for m in range(1, 4)
                    for k in range(m + 1)
                )
                return {"kan.horns": horns, "kan.horn_nodes": meter.used}

            ops.append(Op("kan_report", ("kan_report", n), run, lambda r: r == [], counts))
        return ops

    def _adjunction_queries(self):
        """Hom-set counts across the loop/wbar adjunction (criterion 3).

        All 24 small pairs are in every round: they sit around the median
        latency, so a seeded sample of them would move op_p50_ms with the
        seed.  Delta^3 against the chaotic Z/2 groupoid on two objects (128
        maps, about 0.6 s) is in every round too: map enumeration makes this
        workload's latency tail.
        """
        H = self.H
        std = H.sset.standard_complex
        complexes = [
            ("Delta0", std("Delta", 0, depth=3)),
            ("Delta1", std("Delta", 1, depth=3)),
            ("boundary1", std("boundary", 1, depth=3)),
            ("sphere1", std("sphere", 1, depth=3)),
            ("Delta2", std("Delta", 2, depth=3)),
            ("boundary2", std("boundary", 2, depth=3)),
        ]
        groupoids = [
            ("trivial", H.groupoids.FiniteGroupoid.trivial()),
            ("interval", H.groupoids.FiniteGroupoid.interval()),
            ("Z2", self._cyclic_gpd(2)),
            ("Z3", self._cyclic_gpd(3)),
        ]
        pairs = [(x, g) for x in complexes for g in groupoids]
        chaotic = H.groupoids.FiniteGroupoid.chaotic(["x", "y"], H.groups.GroupTable.cyclic(2, prefix=self.prefix))
        heavy = (("Delta3", std("Delta", 3, depth=3)), ("chaotic Z2", chaotic))
        ops = []
        for (xname, x), (gname, gpd) in pairs + [heavy]:
            a = self._constant(gpd, 2)
            wb = H.loop.wbar(a, 3)
            gx = H.loop.loop_groupoid(x, 2)
            truncated = H.loop._truncate_sset(x, 3)

            def run(x=x, a=a, wb=wb, gx=gx, truncated=truncated):
                budget = H.budgets.Meter
                via_loop = len(H.loop.enumerate_sgpd_maps(gx, x, a, meter=budget("sgpd maps", 10**7)))
                via_wbar = sum(
                    1
                    for _ in H.homsearch.enumerate_simplicial_maps(
                        truncated, wb.sset, meter=budget("sset maps", 10**7)
                    )
                )
                return via_loop, via_wbar

            ops.append(
                Op("adjunction", ("adjunction", xname, gname), run, lambda r: r[0] == r[1], None)
            )
        return ops

    def _lifting_queries(self):
        """The lifting problems of criterion 8, with known outcomes."""
        H = self.H
        problems = _criterion8_problems(H)
        ops = []
        for name, legs, outcome in problems:
            problem = H.lifting.LiftingProblem(*(H.lifting.as_point_map(m) for m in legs))

            def run(problem=problem):
                return H.lifting.solve_lifting(problem)

            def check(result, outcome=outcome):
                return result["outcome"] == outcome and result["search_nodes"] > 0

            ops.append(Op("solve_lifting", ("lifting", name), run, check, None))
        return ops

    def _counit_queries(self):
        """Counit of the 2-type adjunction is a weak equivalence (criterion 5)."""
        H = self.H
        two = H.two_groupoids.TwoGroupoid
        fixtures = [
            ("trivial", two.from_groupoid(H.groupoids.FiniteGroupoid.trivial())),
            ("interval", two.from_groupoid(H.groupoids.FiniteGroupoid.interval())),
            ("pi1 = Z/2", two.from_groupoid(self._cyclic_gpd(2))),
            ("pi2 = Z/2", two.one_object_with_pi2(H.groups.GroupTable.cyclic(2, prefix=self.prefix))),
        ]
        ops = []
        for name, k in fixtures:

            def run(k=k):
                return H.whitehead.counit_weak_equivalence(k)[0]

            ops.append(Op("counit", ("counit", name), run, lambda r: r is True, None))
        return ops

    def _weak_equivalence_queries(self):
        """Properness squares and pushout stability (criteria 7 and 10)."""
        H = self.H
        gpds, mc = H.groupoids, H.model_checks
        site = H.sites.FiniteSite.two_object_site()
        constant_presheaf = H.presheaves.constant_presheaf
        nat_cls = H.presheaves.NaturalTransformation
        depth = 3

        def hom(src, tgt, obj_map, arrow_map):
            return gpds.GroupoidHom(src, tgt, obj_map, arrow_map)

        def sgpd_map(src_gpd, tgt_gpd, obj_map, arrow_map):
            h = hom(src_gpd, tgt_gpd, obj_map, arrow_map)
            return gpds.SimplicialGroupoidMap(
                self._constant(src_gpd), self._constant(tgt_gpd), obj_map, [h] * (depth + 1)
            )

        z2 = H.groups.GroupTable.cyclic(2)
        small = gpds.FiniteGroupoid.from_group(z2, obj="x")
        fat = gpds.FiniteGroupoid.chaotic(["x", "y"], z2)
        fat_incl = sgpd_map(small, fat, {"x": "x"}, {g: f"x>x:{g}" for g in ("g0", "g1")})
        chaotic_z2 = gpds.FiniteGroupoid.chaotic(["0", "1"], z2)
        chaotic_triv = gpds.FiniteGroupoid.chaotic(["0", "1"])
        collapse = sgpd_map(
            chaotic_z2,
            chaotic_triv,
            {"0": "0", "1": "1"},
            {f: f"{s}>{t}:e" for f, (s, t) in chaotic_z2.arrows.items()},
        )
        point = gpds.FiniteGroupoid.trivial("0")
        point_incl = sgpd_map(point, chaotic_triv, {"0": "0"}, {"e": "0>0:e"})
        triv = gpds.FiniteGroupoid.trivial("0")
        z2_one = gpds.FiniteGroupoid.from_group(z2, obj="0")
        z2_proj = sgpd_map(z2_one, triv, {"0": "0"}, {"g0": "e", "g1": "e"})
        interval = gpds.FiniteGroupoid.interval()
        interval_collapse = sgpd_map(
            interval, triv, {"0": "0", "1": "0"}, {f: "e" for f in interval.arrows}
        )
        # relative horn filling is checked to level 2 where that stays under
        # 50 ms, to level 1 on the two squares where level 2 takes 0.4-0.5 s
        squares = [
            ("identity of fat", gpds.SimplicialGroupoidMap.identity(fat_incl.target), fat_incl, 1),
            ("collapse", collapse, point_incl, 1),
            ("Z/2 projection", z2_proj, interval_collapse, 2),
        ]
        ops = []
        for name, p_map, g_map, level in squares:

            def fib(p_map=p_map, level=level):
                return mc.wbar_fibration_instance(p_map, 2, max_level=level)

            ops.append(Op("model_checks", ("fibration", name), fib, lambda r: r == [], None))

            def square(p_map=p_map, g_map=g_map):
                total, to_y, _ = mc.pullback_sgpd(p_map, g_map)
                x = constant_presheaf(site, "sgpd", total)
                y = constant_presheaf(site, "sgpd", p_map.source)
                nat = nat_cls(x, y, {v: to_y for v in site.objects})
                return H.presheaves.is_weak_equivalence(nat, "sgpd", n_max=2)[0]

            ops.append(Op("properness", ("properness", name), square, lambda r: r is True, None))

        # planted pi_1-killing map (criterion 7): must be refused with a witness
        xk = constant_presheaf(site, "sgpd", self._constant(gpds.FiniteGroupoid.from_group(z2)))
        yk = constant_presheaf(site, "sgpd", self._constant(gpds.FiniteGroupoid.trivial()))
        kill = sgpd_map(
            gpds.FiniteGroupoid.from_group(z2), gpds.FiniteGroupoid.trivial(), {"*": "*"},
            {"g0": "e", "g1": "e"},
        )
        planted = nat_cls(xk, yk, {v: kill for v in site.objects})

        def refuse():
            ok, witnesses = H.presheaves.is_weak_equivalence(planted, "sgpd", n_max=2)
            return ok, witnesses[0]["sheaf"] if witnesses else None

        ops.append(Op("weq_planted", ("planted",), refuse, lambda r: r == (False, "pi0(hom)"), None))

        std = H.sset.standard_complex
        for n, k in ((2, 1), (1, 0)):
            horn = std("horn", n, k=k, depth=3)
            simplex = std("Delta", n, depth=3)
            pt = std("point", depth=3)
            include = H.sset.SimplicialMap(horn, simplex, [{x: x for x in l} for l in horn.levels])
            crush = H.sset.SimplicialMap(horn, pt, [{x: "*" for x in l} for l in horn.levels])
            loop_horn = H.loop.loop_groupoid(horn, 2)
            gi = H.loop.loop_of_map(include, loop_horn, H.loop.loop_groupoid(simplex, 2))
            gr = H.loop.loop_of_map(crush, loop_horn, H.loop.loop_groupoid(pt, 2))

            def pushout(gi=gi, gr=gr):
                total, _, from_c = mc.pushout_free_sgpd(gi, gr)
                return total.validate(), mc.free_instance_weak_equivalence(from_c)[0]

            ops.append(Op("model_checks", ("pushout", n, k), pushout, lambda r: r == ([], True), None))
        return ops

    def _sheafify_queries(self):
        """Sheafification fixtures of criterion 6 with their expected sizes."""
        H = self.H
        pre = H.presheaves
        covered = H.sites.FiniteSite.two_object_site()
        trivial = H.sites.FiniteSite.two_object_site(cover_u=False)
        z2 = H.groups.GroupTable.cyclic(2, prefix=self.prefix)
        hand_restrictions = {"idU": {"a": "a", "b": "b"}, "idV": {"c": "c"}, "f": {"a": "c", "b": "c"}}
        hand_values = {"U": ("a", "b"), "V": ("c",)}
        mixed = pre.Presheaf(
            covered,
            "group",
            {"U": z2, "V": H.groups.GroupTable.trivial()},
            {"idU": {x: x for x in z2.elements}, "idV": {"e": "e"}, "f": {x: "e" for x in z2.elements}},
        )
        fixtures = [
            ("hand", pre.Presheaf(covered, "set", hand_values, hand_restrictions), 1),
            ("trivial topology", pre.Presheaf(trivial, "set", hand_values, hand_restrictions), 2),
            ("constant group", pre.constant_presheaf(covered, "group", z2), 2),
            ("mixed group", mixed, 1),
            ("point site", pre.constant_presheaf(H.sites.FiniteSite.point_site(), "set", ("x", "y", "z")), 3),
        ]
        ops = []
        for name, presheaf, size in fixtures:
            obj = presheaf.site.objects[0]

            def run(presheaf=presheaf, obj=obj):
                sheaf, _ = H.presheaves.sheafify(presheaf)
                value = sheaf.values[obj]
                return pre.sheaf_condition_report(sheaf), len(value) if isinstance(value, tuple) else value.order

            ops.append(Op("sheafify", ("sheafify", name), run, lambda r, size=size: r == ([], size), None))
        return ops


# -- cli_corpus -----------------------------------------------------------------------


def _relabel_sset(doc, tag):
    def r(x):
        return x + tag

    def table(t):
        return {key: {r(a): r(b) for a, b in m.items()} for key, m in t.items()}

    return {
        "depth": doc["depth"],
        "levels": [[r(x) for x in level] for level in doc["levels"]],
        "faces": table(doc["faces"]),
        "degeneracies": table(doc["degeneracies"]),
    }


def _relabel_smap(doc, tag):
    return {
        "map": "sset",
        "source": _relabel_sset(doc["source"], tag),
        "target": _relabel_sset(doc["target"], tag),
        "levels": [{a + tag: b + tag for a, b in level.items()} for level in doc["levels"]],
    }


def _two_object_site(H, tag, cover_u=True):
    u, v, f, iu, iv = ("U" + tag, "V" + tag, "f" + tag, "idU" + tag, "idV" + tag)
    covers = {u: [frozenset({iu, f})] + ([frozenset({f})] if cover_u else []), v: [frozenset({iv})]}
    site = H.sites.FiniteSite(
        [u, v],
        {iu: (u, u), iv: (v, v), f: (v, u)},
        {(iu, iu): iu, (iv, iv): iv, (iu, f): f, (f, iv): f},
        {u: iu, v: iv},
        covers,
    )
    return site, (u, v, f, iu, iv)


CLI_CHAIN_GROUPS = CHAIN_GROUPS + ([5], [6], [2, 2, 2], [8], [2, 4])


class CliCorpus:
    """In-process CLI calls over a corpus of distinct JSON documents."""

    name = "cli_corpus"
    tail_percentile = 98.0
    round_s = 0.26
    ops_per_round = 14

    def __init__(self, H, seed, n_rounds, workdir):
        self.H = H
        self.workdir = workdir
        self.counter = 0
        self.token = "".join(_rng(self.name, seed).choice("abcdefghjkmnpqrstuvwxyz") for _ in range(3))
        self.seen_chains = set()
        self.contents = {}
        self.templates = {}
        self.rounds = [self._round(_rng(self.name, seed, i), i) for i in range(n_rounds)]

    def round(self, i):
        return self.rounds[i] if i < len(self.rounds) else None

    # documents --------------------------------------------------------------

    def _tag(self):
        self.counter += 1
        return f"q{self.token}{self.counter}"

    def _write(self, doc):
        path = os.path.join(self.workdir, f"d{self.counter}.json")
        data = json.dumps(doc)
        with open(path, "w") as handle:
            handle.write(data)
        self.contents[path] = hashlib.sha256(data.encode()).hexdigest()
        return path, len(data)

    def _op(self, kind, argv, size, check, expected_code=0):
        H = self.H
        path = argv[1]
        key = (argv[0], self.contents[path]) + tuple(argv[2:])

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = H.cli.main(argv)
            return code, out.getvalue()

        def verify(result):
            code, out = result
            return code == expected_code and check(json.loads(out))

        def counts(result):
            data = result[1].encode()
            return {"cli.bytes_out": len(data), "jsonio.load.bytes_in": size, "_digest": data}

        return Op(kind, key, run, verify, counts)

    def _round(self, rng, i):
        ops = [
            self._validate(rng, i),
            self._bounds(rng),
            self._loop(rng),
            self._wbar(rng),
            self._wtotal(rng),
            self._doldkan(rng),
            self._nerve(rng, heavy=False),
            self._nerve(rng, heavy=True),
            self._pikan(i),
            self._pi2gpd(rng),
            self._sheafify(rng),
            self._weq(i),
            self._site_validate(rng, i),
            self._lift(i),
        ]
        rng.shuffle(ops)
        return ops

    def _cached(self, key, make):
        """A document template built once per run; callers relabel it."""
        if key not in self.templates:
            self.templates[key] = make()
        return self.templates[key]

    def _random_sset_doc(self, rng, tag):
        spec = _random_sset_spec(rng)
        x = self._cached(spec, lambda: _sset(self.H, spec))
        return _relabel_sset(x.to_json(), tag), x.level_sizes()

    def _validate(self, rng, i):
        tag = self._tag()
        pick = i % 3
        if pick == 0:
            doc, _ = self._random_sset_doc(rng, tag)
        elif pick == 1:
            pieces = _random_pieces(rng)
            doc = self.H.groupoids.SimplicialGroupoid.constant(_groupoid(self.H, pieces, tag), 2).to_json()
        else:
            doc = self._two_gpd(rng, tag)[0].to_json()
        path, size = self._write(doc)
        return self._op("validate", ["validate", path], size, lambda d: d["reports"][0]["violations"] == [])

    def _bounds(self, rng):
        tag = self._tag()
        doc, sizes = self._random_sset_doc(rng, tag)
        path, size = self._write(doc)
        return self._op("bounds", ["bounds", path], size, lambda d: d["reports"][0]["bounds"]["levels"] == sizes)

    def _loop(self, rng):
        tag = self._tag()
        doc, sizes = self._random_sset_doc(rng, tag)
        depth = doc["depth"] - 1
        expected = [sizes[n + 1] - sizes[n] for n in range(depth + 1)]
        path, size = self._write(doc)
        return self._op(
            "loop", ["loop", path, "--depth", str(depth)], size,
            lambda d: [len(level["generators"]) for level in d["levels"]] == expected,
        )

    def _wbar(self, rng):
        tag = self._tag()
        pieces = ((rng.randint(1, 2), rng.choice(("1", "Z2", "Z3"))),)
        depth = 2
        doc = self.H.groupoids.SimplicialGroupoid.constant(_groupoid(self.H, pieces, tag), depth).to_json()
        expected = _chaotic_sizes(pieces, depth)
        path, size = self._write(doc)
        return self._op("wbar", ["wbar", path, "--depth", str(depth)], size, lambda d: d["level_sizes"] == expected)

    def _wtotal(self, rng):
        tag = self._tag()
        key = rng.choice(tuple(GROUP_ORDERS))
        gpd = self.H.groupoids.FiniteGroupoid.from_group(_group(self.H, key, "g" + tag), obj="o" + tag)
        doc = self.H.groupoids.SimplicialGroupoid.constant(gpd, 2).to_json()
        order = GROUP_ORDERS[key]
        path, size = self._write(doc)
        return self._op(
            "wtotal", ["wtotal", path, "--depth", "2"], size,
            lambda d: [len(level) for level in d["total"]["levels"]] == [order, order**2, order**3],
        )

    def _doldkan(self, rng):
        # chain documents carry no labels, so distinct ones are drawn until
        # unseen, from chains of two or three groups with at most 64 arrows
        # in level 2 (about 460 documents)
        depth = 2
        for _ in range(1000):
            groups = [rng.choice(CLI_CHAIN_GROUPS) for _ in range(rng.choice((2, 3)))]
            expected = _dold_kan_sizes([_order(g) for g in groups], depth)
            if expected[2] > 64:
                continue
            chain = _random_chain(self.H, rng, groups)
            key = _chain_key(self.H, chain)
            if key not in self.seen_chains:
                break
        else:
            raise RuntimeError("chain document space exhausted")
        self.seen_chains.add(key)
        self._tag()
        path, size = self._write(self.H.jsonio.chain_to_json(chain))
        return self._op(
            "doldkan", ["doldkan", path, "--depth", str(depth)], size,
            lambda d: [len(level["arrows"]) for level in d["levels"]] == expected,
        )

    def _two_gpd(self, rng, tag, heavy=False):
        H = self.H
        two = H.two_groupoids.TwoGroupoid
        if heavy:
            return two.one_object_with_pi2(H.groups.GroupTable.cyclic(3, prefix="m" + tag), obj="p" + tag), ("pi2", 3)
        if rng.random() < 0.5:
            order = rng.choice((2, 3))
            return two.one_object_with_pi2(H.groups.GroupTable.cyclic(order, prefix="m" + tag), obj="p" + tag), ("pi2", order)
        pieces = ((1, rng.choice(("1", "Z2", "Z3"))),)
        return two.from_groupoid(_groupoid(H, pieces, tag)), ("gpd", pieces)

    def _nerve(self, rng, heavy):
        tag = self._tag()
        k, (kind, arg) = self._two_gpd(rng, tag, heavy)
        depth = 4 if heavy else 3
        expected = _pi2_sizes(arg, depth) if kind == "pi2" else _chaotic_sizes(arg, depth)
        path, size = self._write(k.to_json())
        return self._op(
            "nerve_d4" if heavy else "nerve", ["nerve", path, "--depth", str(depth)], size,
            lambda d: [len(level) for level in d["levels"]] == expected,
        )

    def _pikan(self, i):
        tag = self._tag()
        order = (2, 3, 4)[i % 3]
        n = 1

        def make():
            gpd = self.H.groupoids.FiniteGroupoid.from_group(self.H.groups.GroupTable.cyclic(order))
            return self.H.loop.wbar(self.H.groupoids.SimplicialGroupoid.constant(gpd, 2), 2).sset.to_json()

        template = self._cached(("wbar", order), make)
        doc = _relabel_sset(template, tag)
        base = template["levels"][0][0] + tag
        path, size = self._write(doc)
        want = order if n == 1 else 1
        return self._op(
            "pikan", ["pikan", path, "--base", base, "-n", str(n)], size,
            lambda d: d["group"]["order"] == want,
        )

    def _pi2gpd(self, rng):
        tag = self._tag()
        k, (kind, arg) = self._two_gpd(rng, tag)
        i = rng.choice((1, 2))
        if kind == "pi2":
            base, want = k.objects[0], (1 if i == 1 else arg)
        else:
            (_, key), = arg
            base, want = k.objects[0], (GROUP_ORDERS[key] if i == 1 else 1)
        path, size = self._write(k.to_json())
        return self._op(
            "pi2gpd", ["pi2gpd", path, "--base", base, "-i", str(i)], size,
            lambda d: d["group"]["order"] == want,
        )

    def _sheafify(self, rng):
        tag = self._tag()
        site, (u, v, f, iu, iv) = _two_object_site(self.H, tag)
        sections_u = [f"a{j}{tag}" for j in range(rng.randint(1, 4))]
        sections_v = [f"b{j}{tag}" for j in range(rng.randint(1, 3))]
        restrict = {s: rng.choice(sections_v) for s in sections_u}
        doc = {
            "site": site.to_json(),
            "domain": "set",
            "values": {u: sections_u, v: sections_v},
            "restrictions": {iu: {s: s for s in sections_u}, iv: {s: s for s in sections_v}, f: restrict},
        }
        want = len(sections_v)
        path, size = self._write(doc)
        return self._op(
            "sheafify", ["sheafify", path], size,
            lambda d: d["condition_report"] == [] and len(d["sheaf"]["values"][u]) == want,
        )

    def _weq(self, i):
        H = self.H
        tag = self._tag()
        site, _ = _two_object_site(H, tag)
        order = 2
        obj = "o" + tag
        table = H.groups.GroupTable.cyclic(order, prefix="g" + tag)
        gpd = H.groupoids.FiniteGroupoid.from_group(table, obj=obj)
        x = H.presheaves.constant_presheaf(site, "sgpd", H.groupoids.SimplicialGroupoid.constant(gpd, 3))
        planted = i % 4 == 0
        if planted:
            point = H.groupoids.FiniteGroupoid.trivial(obj)
            target = H.groupoids.SimplicialGroupoid.constant(point, 3)
            hom = H.groupoids.GroupoidHom(gpd, point, {obj: obj}, {g: "e" for g in table.elements})
            component = H.groupoids.SimplicialGroupoidMap(x.values[site.objects[0]], target, {obj: obj}, [hom] * 4)
            y = H.presheaves.constant_presheaf(site, "sgpd", target)
        else:
            component = H.groupoids.SimplicialGroupoidMap.identity(x.values[site.objects[0]])
            y = x
        nat = H.presheaves.NaturalTransformation(x, y, {w: component for w in site.objects})
        path, size = self._write(H.jsonio.nat_to_json(nat))
        return self._op(
            "weq", ["weq", path, "--kind", "sgpd", "--nmax", "2"], size,
            lambda d: d["verdict"] is (not planted), 1 if planted else 0,
        )

    def _site_validate(self, rng, i):
        tag = self._tag()
        site, (u, v, f, iu, iv) = _two_object_site(self.H, tag, cover_u=rng.random() < 0.5)
        doc = site.to_json()
        broken = i % 4 == 1
        if broken:
            doc["covers"][v] = []
        path, size = self._write(doc)
        return self._op(
            "site-validate", ["site-validate", path], size,
            lambda d: bool(d["reports"][0]["violations"]) is broken, 1 if broken else 0,
        )

    def _lift(self, i):
        tag = self._tag()
        legs, outcome = self._cached("lift", self._lift_templates)[i % 3]
        doc = {"single": True}
        for key, leg in zip(("i", "top", "p", "bottom"), legs):
            doc[key] = _relabel_smap(leg, tag)
        path, size = self._write(doc)
        return self._op(
            "lift", ["lift", path], size,
            lambda d: d["outcome"] == outcome and d["search_nodes"] > 0,
            0 if outcome == "lift" else 1,
        )

    def _lift_templates(self):
        return [
            ([self.H.jsonio.smap_to_json(m) for m in legs], outcome)
            for _, legs, outcome in _criterion8_problems(self.H)
        ]


WORKLOADS = {w.name: w for w in (BuildValidate, InvariantQueries, CliCorpus)}
