"""Record hpk searches and kernels into a BENCH_*.json file.

    python3 bench/record.py --out BENCH_12.json --parent ../hpk-parent --section pairs
    python3 bench/record.py --out BENCH_13.json --parent ../hpk-parent --section kernels
    python3 bench/record.py --out BENCH_14.json --parent ../hpk-parent --section emit
    python3 bench/record.py --out BENCH_15.json --parent ../hpk-parent --section weq
    python3 bench/record.py --out BENCH_17.json --parent ../hpk-parent --section laws
    python3 bench/record.py --out BENCH_20.json --parent ../hpk-parent --section functors
    python3 bench/record.py --out BENCH_26.json --parent ../hpk-parent --section pairs
    python3 bench/record.py --out BENCH_29.json --parent ../hpk-parent --section cli
    python3 bench/record.py --out BENCH_33.json --parent ../hpk-parent \
        --section weq --section cli --section reads
    python3 bench/record.py --out BENCH_39.json --parent ../hpk-parent --section constructions
    python3 bench/record.py --check BENCH_20.json

A record holds one or more sections, each a list of cases:

``pairs``
    The 25 loop/W-bar adjunction pairs of the benchmark's
    ``invariant_queries`` mix: six small complexes against the constant
    simplicial groupoids of four small groupoids, and Delta^3 against chaotic
    Z/2 on two objects.  For each pair both routes of the adjunction are
    searched, hom(GX, A) by ``loop.enumerate_sgpd_maps`` and hom(X, WbarA) by
    ``homsearch.enumerate_simplicial_maps``; a route records its map count
    and its ``Meter`` work units.
``kernels``
    A ladder of the face-table kernels: the nerve of the chaotic V4
    2-groupoid on 1-3 objects at depth 3, built and then checked by
    ``validate_sset``; ``kan_report`` on W-bar of Z/n, n = 2..6, to level 3;
    and ``pi_n_kan(., 3)`` on the nerve of the 2-groupoid with pi_2 = Z/3 at
    depth 4.  A step records the level sizes, the number of problems (or the
    order of the group), and the units of every ``Meter`` it made.
``emit``
    The heaviest outputs of the benchmark's ``cli_corpus`` mix: ``nerve`` at
    depth 4 of the 2-groupoid with pi_2 = Z/3, ``nerve`` at depth 3 of chaotic
    Z/3 on two objects, ``wbar``, ``wtotal``, ``doldkan`` at depth 2 and a
    ``lift``.  Each payload is built once by running its command with
    ``cli._emit`` captured; the step then writes it with that checkout's own
    ``cli._emit`` into a sink and records the length and sha256 of the text.
    Its time covers the ``_emit`` call alone, not the hashing.
``weq``
    ``presheaves.is_weak_equivalence(nat, kind, 2)`` on the three
    right-properness pullback squares of the benchmark's ``invariant_queries``
    mix, its planted pi_1-killing map, and three maps of constant 2-groupoid
    presheaves on the two-object site (the identity of pi_2 = Z/3, that
    2-groupoid collapsed to the point, and pi_1 = Z/2 on two objects collapsed
    to the chaotic trivial groupoid).  A step records the verdict, the
    witnesses, and in ``invariant_calls`` how often each section invariant
    was computed (``hom_simplicial_group``, ``pi1_with_classes``,
    ``pi_2gpd``).  These counts are recorded per side, since a change may
    compute fewer invariants for the same answer; the step's time is a
    second call with nothing counted.
``laws``
    The law checks on the construction classes of the benchmark's
    ``build_validate`` mix: ``TwoGroupoid.validate`` on its ten 2-groupoids,
    ``SimplicialGroupoid.validate`` on its eight Dold-Kan simplicial groupoids
    (chains drawn from fixed seeds) and ``FiniteGroupoid.validate`` on their
    levels, ``SimplicialGroupoid.validate`` on its eight loop groupoids (horn
    index 0), and ``FiniteSite.validate`` on the two-object and point sites.
    A step records the number of problems and of the cells it checked.  The
    record also holds ``mutants``: the problem count of every mutant of the
    corpus of ``tests/test_laws.py``, computed on this checkout alone, since
    the parent's checks crash on some of them.
``functors``
    The functor checks: ``TwoGroupoid.validate`` (whose horizontal layer is
    checked as a category with functors) and ``TwoFunctor.identity(k).validate``
    on the ten 2-groupoids of the ``build_validate`` mix, and
    ``GroupoidHom.validate`` on every face and degeneracy map of its eight
    Dold-Kan simplicial groupoids.  A step records the number of problems and
    of the cells it checked.  The record also holds ``functor_mutants``: the
    problem count of every mutant of the functor corpora of
    ``tests/test_laws.py``, computed on this checkout alone.
``cli``
    The 14 command lines of one round of the benchmark's ``cli_corpus`` mix
    (seed ``CLI_SEED``), their documents written to a temporary directory
    under relative names so that the reports that name a file do not depend
    on where it is.  Each step runs its command in-process through
    ``cli.main`` and records the exit code and the length and sha256 of what
    it writes to stdout.  Its time covers the call, argument parsing included.
``reads``
    The ``weq``, ``lift`` and ``wbar`` command lines of round 1 of the same
    mix (its weq document is the identity of constant Z/2 on the two-object
    site, depth 3; round 0 plants a map that is not a weak equivalence).  A
    step runs its command through ``cli.main`` with ``jsonio.check`` counted
    and records the exit code, the sha256 of stdout and, in ``reads``, the
    number of law checks per class of what it read.  These counts are
    recorded per side, since a change may check fewer parts for the same
    answer; the step's time is a second call with nothing counted.
``constructions``
    The constructions of the benchmark's ``build_validate`` mix: ``nerve`` at
    depth 3 of its ten 2-groupoids, ``wbar`` of its eight constant chaotic
    groupoids and unions of two, its eight Dold-Kan simplicial groupoids
    (chains drawn from fixed seeds) through ``dold_kan`` and then ``wbar``,
    and ``w_total`` of its six constant groups.  A step records the level
    sizes (arrows per level for ``dold_kan``) and the length and sha256 of
    ``jsonio.dumps`` of what it built.  Its time covers the construction
    alone, not the dump.

Every step also records its best wall time on the parent checkout and on
this one.  Each side runs in its own process, importing hpk from that
checkout's ``src/``.  The five repeats alternate which side runs first; a
repeat times every step once after one untimed pass, and a recorded time is
the best of the five.  Writing fails if the two sides disagree on any field
other than the times and the per-side fields (``SIDE_FIELDS``), or if the
repeats of one side disagree on a per-side field.

``--check`` recomputes the fields other than the times of whichever sections
the file holds, on this checkout, and exits 1 on any difference from the
file (for a per-side field, from its ``change`` value).  It never compares wall times, which depend on the machine.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REPEATS = 5


def adjunction_pairs():
    """(name, X, A, WbarA, GX, X truncated to the W-bar depth) per pair."""
    from hpk.groups import GroupTable
    from hpk.groupoids import FiniteGroupoid, SimplicialGroupoid
    from hpk.loop import loop_groupoid, wbar
    from hpk.sset import standard_complex, truncate

    complexes = [
        ("Delta0", standard_complex("Delta", 0, depth=3)),
        ("Delta1", standard_complex("Delta", 1, depth=3)),
        ("boundary1", standard_complex("boundary", 1, depth=3)),
        ("sphere1", standard_complex("sphere", 1, depth=3)),
        ("Delta2", standard_complex("Delta", 2, depth=3)),
        ("boundary2", standard_complex("boundary", 2, depth=3)),
    ]
    groupoids = [
        ("trivial", FiniteGroupoid.trivial()),
        ("interval", FiniteGroupoid.interval()),
        ("Z2", FiniteGroupoid.from_group(GroupTable.cyclic(2))),
        ("Z3", FiniteGroupoid.from_group(GroupTable.cyclic(3))),
    ]
    pairs = [(x, g) for x in complexes for g in groupoids]
    chaotic = FiniteGroupoid.chaotic(["x", "y"], GroupTable.cyclic(2))
    pairs.append((("Delta3", standard_complex("Delta", 3, depth=3)), ("chaotic Z2", chaotic)))
    for (xname, x), (gname, gpd) in pairs:
        a = SimplicialGroupoid.constant(gpd, 2)
        yield f"{xname}/{gname}", x, a, wbar(a, 3), loop_groupoid(x, 2), truncate(x, 3)


def pair_cases():
    """{pair: {route: search}}, each search returning its map count and units."""
    from hpk.budgets import Meter
    from hpk.homsearch import enumerate_simplicial_maps
    from hpk.loop import enumerate_sgpd_maps

    def via_loop(x, a, gx):
        meter = Meter("sgpd maps", 10**7)
        return {"maps": len(enumerate_sgpd_maps(gx, x, a, meter=meter)), "units": meter.used}

    def via_wbar(truncated, wb):
        meter = Meter("sset maps", 10**7)
        maps = sum(1 for _ in enumerate_simplicial_maps(truncated, wb.sset, meter=meter))
        return {"maps": maps, "units": meter.used}

    return {
        name: {
            "loop": lambda x=x, a=a, gx=gx: via_loop(x, a, gx),
            "wbar": lambda t=truncated, wb=wb: via_wbar(t, wb),
        }
        for name, x, a, wb, gx, truncated in adjunction_pairs()
    }


def metered(call):
    """``call()``'s fields plus ``units``: {meter name: units} of every ``Meter``
    an hpk module made during the call."""
    import hpk.budgets

    made = []
    original = hpk.budgets.Meter

    class Recording(original):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    holders = [
        module
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "hpk" and getattr(module, "Meter", None) is original
    ]
    for module in holders:
        module.Meter = Recording
    try:
        fields = call()
    finally:
        for module in holders:
            module.Meter = original
    units = {}
    for meter in made:
        units[meter.what] = units.get(meter.what, 0) + meter.used
    return {**fields, "units": units}


def kernel_cases():
    """{case: {step: kernel}}, each kernel returning its counts."""
    from hpk.groups import GroupTable
    from hpk.groupoids import FiniteGroupoid, SimplicialGroupoid
    from hpk.kan import kan_report, pi_n_kan
    from hpk.loop import wbar
    from hpk.sset import validate_sset
    from hpk.two_groupoids import TwoGroupoid, nerve

    cases = {}
    v4 = GroupTable.direct_product(GroupTable.cyclic(2), GroupTable.cyclic(2, prefix="h"))
    for k in (1, 2, 3):
        gpd2 = TwoGroupoid.from_groupoid(FiniteGroupoid.chaotic([f"o{i}" for i in range(k)], v4))
        built = nerve(gpd2, 3)
        cases[f"nerve chaotic V4 x{k}, depth 3"] = {
            "build": lambda g=gpd2: metered(lambda: {"level_sizes": nerve(g, 3).level_sizes()}),
            "validate": lambda s=built: metered(lambda: {"problems": len(validate_sset(s))}),
        }
    for n in range(2, 7):
        gpd = FiniteGroupoid.from_group(GroupTable.cyclic(n))
        wb = wbar(SimplicialGroupoid.constant(gpd, 3), 3).sset
        cases[f"kan_report on wbar Z/{n} to level 3"] = {
            "kan_report": lambda s=wb: metered(
                lambda: {"level_sizes": s.level_sizes(), "problems": len(kan_report(s, 3))}
            ),
        }
    n4 = nerve(TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(3)), 4)
    cases["pi_3 of the pi_2 = Z/3 nerve at depth 4"] = {
        "pi_n_kan": lambda: metered(
            lambda: {"level_sizes": n4.level_sizes(), "order": pi_n_kan(n4, "*", 3).order}
        ),
    }
    return cases


class _Sink:
    """A stdout that keeps the last text written to it."""

    def write(self, text):
        self.text = text


def emit_once(cli, payload, args):
    """Length, sha256 and time of what ``cli._emit(payload, args)`` writes."""
    sink = _Sink()
    with contextlib.redirect_stdout(sink):
        start = perf_counter()
        cli._emit(payload, args)
        ms = (perf_counter() - start) * 1e3
    data = sink.text.encode()
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest(), "ms": ms}


def emit_cases():
    """{command: {"emit": step}}, each step writing one CLI payload."""
    import tempfile

    from hpk import cli
    from hpk.groups import GroupTable
    from hpk.groupoids import FiniteGroupoid, SimplicialGroupoid
    from hpk.jsonio import smap_to_json
    from hpk.sset import SimplicialMap, standard_complex
    from hpk.two_groupoids import TwoGroupoid

    z3 = GroupTable.cyclic(3)
    v4 = GroupTable.direct_product(GroupTable.cyclic(2), GroupTable.cyclic(2, prefix="h"))
    chaotic = FiniteGroupoid.chaotic(["x", "y"], z3)
    horn, d2 = standard_complex("horn", 2, k=1, depth=2), standard_complex("Delta", 2)
    into = SimplicialMap(horn, d2, [{s: s for s in level} for level in horn.levels])
    ident = smap_to_json(SimplicialMap.identity(d2))
    commands = [
        ("nerve --depth 4, pi_2 = Z/3", ["nerve", "--depth", "4"],
         TwoGroupoid.one_object_with_pi2(z3).to_json()),
        ("nerve --depth 3, chaotic Z/3 on two objects", ["nerve", "--depth", "3"],
         TwoGroupoid.from_groupoid(chaotic).to_json()),
        ("wbar --depth 2, constant chaotic Z/3 on two objects", ["wbar", "--depth", "2"],
         SimplicialGroupoid.constant(chaotic, 2).to_json()),
        ("wtotal --depth 2, constant V4", ["wtotal", "--depth", "2"],
         SimplicialGroupoid.constant(FiniteGroupoid.from_group(v4), 2).to_json()),
        ("doldkan --depth 2, Z/2+Z/2 -> Z/4", ["doldkan", "--depth", "2"],
         {"groups": [[4], [2, 2]], "boundaries": [[[2], [0]]]}),
        ("lift, horn into simplex", ["lift"],
         {"single": True, "i": smap_to_json(into), "top": smap_to_json(into),
          "p": ident, "bottom": ident}),
    ]
    cases = {}
    original = cli._emit
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        for name, (command, *options), document in commands:
            with open(path, "w") as f:
                json.dump(document, f)
            captured = []
            cli._emit = lambda payload, args: captured.append((payload, args))
            try:
                cli.main([command, path, *options])
            finally:
                cli._emit = original
            (payload, args), = captured
            cases[name] = {"emit": lambda p=payload, a=args: emit_once(cli, p, a)}
    return cases


CLI_SEED = 1


def cli_cases():
    """{command line: {"cli": step}}, each step one ``cli.main`` call."""
    import tempfile

    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    H = workloads.import_hpk()
    tmp = tempfile.TemporaryDirectory()
    with contextlib.chdir(tmp.name):
        ops = workloads.CliCorpus(H, CLI_SEED, 1, "").round(0)

    def step(op):
        def run():
            with contextlib.chdir(tmp.name):
                start = perf_counter()
                code, out = op.run()
                ms = (perf_counter() - start) * 1e3
            data = out.encode()
            return {"code": code, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest(), "ms": ms}

        return run

    # the key of an operation is its command word, the digest of its document
    # and its options
    return {" ".join([op.kind, *op.key[2:]]): {"cli": step(op)} for op in ops}


def read_cases():
    """{command line: {"read": step}}, each step one counted ``cli.main`` call."""
    import tempfile

    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    H = workloads.import_hpk()
    tmp = tempfile.TemporaryDirectory()
    with contextlib.chdir(tmp.name):
        ops = workloads.CliCorpus(H, CLI_SEED, 2, "").round(1)

    def step(op):
        def run():
            checks = {}
            check = H.jsonio.check

            def counting(obj, *args):
                name = type(obj).__name__
                checks[name] = checks.get(name, 0) + 1
                return check(obj, *args)

            with contextlib.chdir(tmp.name):
                H.jsonio.check = counting
                try:
                    code, out = op.run()
                finally:
                    H.jsonio.check = check
                start = perf_counter()
                op.run()
                ms = (perf_counter() - start) * 1e3
            digest = hashlib.sha256(out.encode()).hexdigest()
            return {"code": code, "sha256": digest, "reads": checks, "ms": ms}

        return run

    return {
        " ".join([op.kind, *op.key[2:]]): {"read": step(op)}
        for op in ops
        if op.kind in ("weq", "lift", "wbar")
    }


def weq_fixtures():
    """{name: (natural transformation, kind)} of the ``weq`` section."""
    from hpk.groups import GroupTable
    from hpk.groupoids import FiniteGroupoid, GroupoidHom, SimplicialGroupoid, SimplicialGroupoidMap
    from hpk.model_checks import pullback_sgpd
    from hpk.presheaves import NaturalTransformation, constant_presheaf
    from hpk.sites import FiniteSite
    from hpk.two_groupoids import TwoFunctor, TwoGroupoid

    site = FiniteSite.two_object_site()
    z2 = GroupTable.cyclic(2)

    def constant_nat(component, kind):
        x = constant_presheaf(site, kind, component.source)
        y = constant_presheaf(site, kind, component.target)
        return NaturalTransformation(x, y, {v: component for v in site.objects}), kind

    def sgpd_map(src, tgt, obj_map, arrow_map):
        hom = GroupoidHom(src, tgt, obj_map, arrow_map)
        return SimplicialGroupoidMap(
            SimplicialGroupoid.constant(src, 3), SimplicialGroupoid.constant(tgt, 3),
            obj_map, [hom] * 4,
        )

    def square(p_map, g_map):
        total, to_y, _ = pullback_sgpd(p_map, g_map)
        x = constant_presheaf(site, "sgpd", total)
        y = constant_presheaf(site, "sgpd", p_map.source)
        return NaturalTransformation(x, y, {v: to_y for v in site.objects}), "sgpd"

    small = FiniteGroupoid.from_group(z2, obj="x")
    fat = FiniteGroupoid.chaotic(["x", "y"], z2)
    fat_incl = sgpd_map(small, fat, {"x": "x"}, {g: f"x>x:{g}" for g in ("g0", "g1")})
    chaotic_z2 = FiniteGroupoid.chaotic(["0", "1"], z2)
    chaotic_triv = FiniteGroupoid.chaotic(["0", "1"])
    collapse = sgpd_map(
        chaotic_z2, chaotic_triv, {"0": "0", "1": "1"},
        {f: f"{s}>{t}:e" for f, (s, t) in chaotic_z2.arrows.items()},
    )
    point = FiniteGroupoid.trivial("0")
    point_incl = sgpd_map(point, chaotic_triv, {"0": "0"}, {"e": "0>0:e"})
    z2_proj = sgpd_map(FiniteGroupoid.from_group(z2, obj="0"), point, {"0": "0"},
                       {"g0": "e", "g1": "e"})
    interval = FiniteGroupoid.interval()
    interval_collapse = sgpd_map(interval, point, {"0": "0", "1": "0"},
                                 {f: "e" for f in interval.arrows})
    kill = sgpd_map(FiniteGroupoid.from_group(z2), FiniteGroupoid.trivial(), {"*": "*"},
                    {"g0": "e", "g1": "e"})

    k = TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(3))
    triv = TwoGroupoid.from_groupoid(FiniteGroupoid.trivial())
    crush = TwoFunctor(k, triv, {"*": "*"}, {f: "e" for f in k.cells1},
                       {a: "i[e]" for a in k.cells2})
    loops = TwoGroupoid.from_groupoid(fat)
    flat = TwoGroupoid.from_groupoid(FiniteGroupoid.chaotic(["x", "y"]))
    map1 = {f: f"{s}>{t}:e" for f, (s, t) in loops.cells1.items()}
    kill1 = TwoFunctor(loops, flat, {"x": "x", "y": "y"}, map1,
                       {f"i[{f}]": f"i[{g}]" for f, g in map1.items()})
    fat_identity = SimplicialGroupoidMap.identity(fat_incl.target)
    return {
        "square: identity of fat": square(fat_identity, fat_incl),
        "square: collapse": square(collapse, point_incl),
        "square: Z/2 projection": square(z2_proj, interval_collapse),
        "planted pi_1-killing map": constant_nat(kill, "sgpd"),
        "2gpd: identity of pi_2 = Z/3": constant_nat(TwoFunctor.identity(k), "2gpd"),
        "2gpd: pi_2 = Z/3 to the point": constant_nat(crush, "2gpd"),
        "2gpd: pi_1 = Z/2 on two objects, collapsed": constant_nat(kill1, "2gpd"),
    }


# the section invariants the ``weq`` steps count, as ``hpk.presheaves`` names them
INVARIANTS = ("hom_simplicial_group", "pi1_with_classes", "pi_2gpd")


def weq_once(nat, kind):
    """Verdict, witnesses and invariant counts of one counted call, and the time
    of a second call with nothing counted."""
    import hpk.presheaves as presheaves

    calls = dict.fromkeys(INVARIANTS, 0)
    originals = {name: getattr(presheaves, name) for name in INVARIANTS}

    def counting(name):
        def call(*args):
            calls[name] += 1
            return originals[name](*args)

        return call

    for name in INVARIANTS:
        setattr(presheaves, name, counting(name))
    try:
        verdict, witnesses = presheaves.is_weak_equivalence(nat, kind, 2)
    finally:
        for name, function in originals.items():
            setattr(presheaves, name, function)
    start = perf_counter()
    presheaves.is_weak_equivalence(nat, kind, 2)
    ms = (perf_counter() - start) * 1e3
    return {"verdict": verdict, "witnesses": witnesses, "invariant_calls": calls, "ms": ms}


def weq_cases():
    """{fixture: {"weq": step}}, each step deciding one weak equivalence."""
    return {
        name: {"weq": lambda nat=nat, kind=kind: weq_once(nat, kind)}
        for name, (nat, kind) in weq_fixtures().items()
    }


def build_validate_mix():
    """(hpk, the workloads module, {name: 2-groupoid}, {name: Dold-Kan simplicial
    groupoid}) of the benchmark's ``build_validate`` mix, chains from fixed seeds."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    H = workloads.import_hpk()
    two_groupoids = {}
    for kind, arg in workloads.TWO_GPD_CLASSES:
        if kind == "gpd":
            k = H.two_groupoids.TwoGroupoid.from_groupoid(workloads._groupoid(H, arg))
        else:
            k = H.two_groupoids.TwoGroupoid.one_object_with_pi2(H.groups.GroupTable.cyclic(arg))
        two_groupoids[f"2-groupoid {kind} {arg}"] = k
    dold_kan = {
        name: H.groupoids.dold_kan(chain, depth)
        for name, (chain, depth) in dold_kan_chains(H, workloads).items()
    }
    return H, workloads, two_groupoids, dold_kan


def dold_kan_chains(H, workloads):
    """{name: (chain, depth)} of the ``build_validate`` Dold-Kan classes, each
    chain drawn from a fixed seed."""
    chains = {}
    for i, (c0, c1, depth) in enumerate(workloads.DOLD_KAN_CLASSES):
        chain = workloads._random_chain(H, workloads._rng("laws", 0, i), [c0, c1])
        chains[f"dold_kan {c0} <- {c1}, depth {depth}"] = chain, depth
    return chains


def problem_step(validate, cells):
    """A step that records the problem count of ``validate()`` and ``cells``."""
    return lambda: {"problems": len(validate()), "cells": cells}


def law_cases():
    """{fixture: {step: check}}, each check returning its problem and cell counts."""
    H, workloads, two_groupoids, dold_kan = build_validate_mix()
    cases = {
        name: {"validate": problem_step(k.validate, len(k.cells1) + len(k.cells2))}
        for name, k in two_groupoids.items()
    }
    for name, sgpd in dold_kan.items():
        arrows = sum(len(level.arrows) for level in sgpd.levels)
        cases[name] = {
            "validate": problem_step(sgpd.validate, arrows),
            "levels": problem_step(
                lambda s=sgpd: [p for g in s.levels for p in g.validate()], arrows
            ),
        }
    for kind, n, depth in workloads.LOOP_CLASSES:
        x = H.sset.standard_complex(kind, n, k=0 if kind == "horn" else None, depth=depth)
        g = H.loop.loop_groupoid(x, depth - 1)
        cases[f"loop_groupoid {kind}{n}, depth {depth}"] = {
            "validate": problem_step(g.validate, sum(len(level.generators) for level in g.levels))
        }
    site = H.sites.FiniteSite
    for name, s in (("two-object site", site.two_object_site()), ("point site", site.point_site())):
        cases[name] = {"validate": problem_step(s.validate, len(s.arrows))}
    return cases


def functor_cases():
    """{fixture: {step: check}} of the functor checks, as ``law_cases`` makes them."""
    H, _, two_groupoids, dold_kan = build_validate_mix()
    identity = H.two_groupoids.TwoFunctor.identity
    cases = {}
    for name, k in two_groupoids.items():
        cells = len(k.cells1) + len(k.cells2)
        cases[name] = {
            "validate": problem_step(k.validate, cells),
            "identity functor": problem_step(identity(k).validate, cells),
        }
    for name, sgpd in dold_kan.items():
        homs = [*sgpd.faces.values(), *sgpd.degeneracies.values()]
        cases[name] = {
            "operators": problem_step(
                lambda homs=homs: [p for hom in homs for p in hom.validate()],
                sum(len(hom.arrow_map) for hom in homs),
            )
        }
    return cases


def built(construct, sizes):
    """Level sizes, length and sha256 of the dump of ``construct()``, and the
    time of the construction alone."""
    from hpk import jsonio

    start = perf_counter()
    x = construct()
    ms = (perf_counter() - start) * 1e3
    data = jsonio.dumps(x.to_json()).encode()
    return {
        "level_sizes": sizes(x),
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
        "ms": ms,
    }


def construction_cases():
    """{construction: {step: build}} over the ``build_validate`` mix."""
    H, workloads, two_groupoids, _ = build_validate_mix()
    constant = H.groupoids.SimplicialGroupoid.constant
    complex_sizes = H.sset.TruncatedSimplicialSet.level_sizes

    def wbar_step(sgpd, depth):
        return lambda: built(lambda: H.loop.wbar(sgpd, depth).sset, complex_sizes)

    cases = {
        name: {"nerve": lambda k=k: built(lambda: H.two_groupoids.nerve(k, 3), complex_sizes)}
        for name, k in two_groupoids.items()
    }
    for pieces, depth in workloads.WBAR_CLASSES:
        sgpd = constant(workloads._groupoid(H, pieces), depth)
        cases[f"wbar {pieces}, depth {depth}"] = {"wbar": wbar_step(sgpd, depth)}
    for name, (chain, depth) in dold_kan_chains(H, workloads).items():
        cases[name] = {
            "dold_kan": lambda c=chain, d=depth: built(
                lambda: H.groupoids.dold_kan(c, d), lambda x: [len(l.arrows) for l in x.levels]
            ),
            "wbar": wbar_step(H.groupoids.dold_kan(chain, depth), depth),
        }
    for key, depth in workloads.W_TOTAL_CLASSES:
        sgpd = constant(H.groupoids.FiniteGroupoid.from_group(workloads._group(H, key)), depth)
        cases[f"w_total {key}, depth {depth}"] = {
            "w_total": lambda s=sgpd, d=depth: built(lambda: H.loop.w_total(s, d)[0], complex_sizes)
        }
    return cases


# the corpora of ``tests/test_laws.py`` whose problem counts a section records,
# by section: the record's field and the corpora
MUTANTS = {
    "laws": (
        "mutants",
        (
            "groupoid_mutants",
            "site_mutants",
            "two_groupoid_mutants",
            "sgpd_mutants",
            "sgpd_map_mutants",
        ),
    ),
    "functors": (
        "functor_mutants",
        ("groupoid_hom_mutants", "two_functor_mutants", "group_hom_mutants", "horizontal_mutants"),
    ),
}


def mutant_counts(section):
    """{mutant: problem count} over the corpora a section records."""
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    import test_laws

    counts = {}
    for corpus in MUTANTS[section][1]:
        for label, x in getattr(test_laws, corpus)():
            counts[f"{corpus}: {label}"] = len(x.validate())
    return counts


# section -> (the field naming a case, what the section measures, its cases)
SECTIONS = {
    "pairs": (
        "pair",
        "loop/W-bar adjunction hom-set searches of the invariant_queries mix",
        pair_cases,
    ),
    "kernels": (
        "case",
        "nerve, validate_sset, kan_report and pi_n_kan face-table kernels",
        kernel_cases,
    ),
    "emit": (
        "command",
        "CLI output of the heaviest cli_corpus payloads, written by cli._emit",
        emit_cases,
    ),
    "cli": (
        "command",
        "exit codes and stdout of one fixed-seed cli_corpus round, each call through cli.main",
        cli_cases,
    ),
    "reads": (
        "command",
        "law checks per class of what three cli_corpus command lines read",
        read_cases,
    ),
    "weq": (
        "fixture",
        "is_weak_equivalence verdicts, witnesses and section-invariant counts",
        weq_cases,
    ),
    "laws": (
        "fixture",
        "law checks of the build_validate constructions, and the problem counts of mutants",
        law_cases,
    ),
    "functors": (
        "fixture",
        "functor checks of the build_validate constructions, and the problem counts of mutants",
        functor_cases,
    ),
    "constructions": (
        "construction",
        "level sizes and dump digests of the build_validate constructions",
        construction_cases,
    ),
}

# fields a step records once per side: the change may alter them on purpose
SIDE_FIELDS = ("invariant_calls", "reads")


def counts(section):
    """{case: {step: fields}} of a section on the imported hpk."""
    return {
        name: {step: without_times(run()) for step, run in steps.items()}
        for name, steps in SECTIONS[section][2]().items()
    }


def one_repeat(sections):
    """Fields plus one timed run of every step, after an untimed pass."""
    out = {}
    for section in sections:
        table = SECTIONS[section][2]()
        for steps in table.values():
            for run in steps.values():
                run()
        out[section] = {}
        for name, steps in table.items():
            out[section][name] = {}
            for step, run in steps.items():
                start = perf_counter()
                fields = run()
                # a step that times itself has already set its own ms
                fields.setdefault("ms", (perf_counter() - start) * 1e3)
                out[section][name][step] = fields
    return out


def run_side(checkout, sections):
    """One repeat in a fresh process that imports hpk from ``checkout``."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--repeat-in", checkout]
        + [arg for section in sections for arg in ("--section", section)],
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(proc.stdout)


def machine():
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            model = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "cpu": model,
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
    }


def without_times(fields):
    return {key: value for key, value in fields.items() if key not in ("ms", "best_ms")}


def shared(fields):
    """The fields both sides must agree on."""
    return {key: value for key, value in without_times(fields).items() if key not in SIDE_FIELDS}


def this_side(fields):
    """A recorded step's fields as ``counts`` computes them on the change."""
    out = without_times(fields)
    for key in SIDE_FIELDS:
        if key in out:
            out[key] = out[key]["change"]
    return out


def record(parent, sections):
    sides = {"parent": parent, "change": ROOT}
    runs = {side: [] for side in sides}
    for k in range(REPEATS):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_side(sides[side], sections))
    data = {
        "what": "; ".join(SECTIONS[section][1] for section in sections),
        "machine": machine(),
        "method": (
            f"best of {REPEATS} repeats per side, one process per repeat, "
            "sides alternating, each step timed after an untimed pass"
        ),
    }
    totals = {}
    for section in sections:
        key = SECTIONS[section][0]
        entries = []
        for name, steps in runs["change"][0][section].items():
            entry = {key: name}
            for step in steps:
                found = {
                    json.dumps(shared(run[section][name][step]), sort_keys=True)
                    for side_runs in runs.values()
                    for run in side_runs
                }
                if len(found) != 1:
                    raise SystemExit(f"{name} {step}: the sides disagree: {sorted(found)}")
                per_side = {}
                for field in SIDE_FIELDS:
                    if field not in steps[step]:
                        continue
                    per_side[field] = {}
                    for side in sides:
                        values = {
                            json.dumps(run[section][name][step][field], sort_keys=True)
                            for run in runs[side]
                        }
                        if len(values) != 1:
                            raise SystemExit(f"{name} {step}: {side} repeats disagree on {field}")
                        per_side[field][side] = json.loads(values.pop())
                best = {
                    side: round(min(run[section][name][step]["ms"] for run in runs[side]), 3)
                    for side in sides
                }
                entry[step] = {**json.loads(found.pop()), **per_side, "best_ms": best}
                for side, ms in best.items():
                    totals.setdefault(step, dict.fromkeys(sides, 0.0))[side] += ms
            entries.append(entry)
        data[section] = entries
    for section in sections:
        if section in MUTANTS:
            data[MUTANTS[section][0]] = mutant_counts(section)
    data["total_best_ms"] = {
        step: {side: round(ms, 3) for side, ms in by_side.items()}
        for step, by_side in totals.items()
    }
    return data


def check(path):
    with open(path) as f:
        recorded = json.load(f)
    problems = []
    for section, (key, _, _) in SECTIONS.items():
        if section not in recorded:
            continue
        expected = {
            entry[key]: {
                step: this_side(fields) for step, fields in entry.items() if step != key
            }
            for entry in recorded[section]
        }
        got = counts(section)
        problems += [
            f"{section} {name}: recorded {expected.get(name)}, computed {got.get(name)}"
            for name in sorted(set(expected) | set(got))
            if expected.get(name) != got.get(name)
        ]
    for section, (field, _) in MUTANTS.items():
        if field not in recorded:
            continue
        expected, got = recorded[field], mutant_counts(section)
        problems += [
            f"mutant {name}: recorded {expected.get(name)}, computed {got.get(name)}"
            for name in sorted(set(expected) | set(got))
            if expected.get(name) != got.get(name)
        ]
    for line in problems:
        print(line, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="write a record here (needs --parent)")
    mode.add_argument("--check", metavar="FILE", help="recompute the counts of a record")
    mode.add_argument("--repeat-in", metavar="CHECKOUT", help=argparse.SUPPRESS)
    parser.add_argument("--parent", help="checkout of the parent commit, timed beside this one")
    parser.add_argument(
        "--section",
        action="append",
        choices=sorted(SECTIONS),
        help="a section to write (repeatable; default: every section)",
    )
    args = parser.parse_args(argv)
    sections = args.section or list(SECTIONS)
    if args.repeat_in:
        sys.path.insert(0, os.path.join(os.path.abspath(args.repeat_in), "src"))
        json.dump(one_repeat(sections), sys.stdout)
        return 0
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.check:
        return check(args.check)
    if not args.parent:
        parser.error("--out needs --parent")
    data = record(os.path.abspath(args.parent), sections)
    with open(args.out, "w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
