"""Batch command-line front end.

One command per invocation; JSON in, JSON out (deterministic byte-identical
output for identical inputs), with a lossy ``--format text`` summary.  Exit
codes: 0 success, 1 property violation found, 2 input error, 3 enumeration
budget exceeded.  The environment variable ``HPK_BUDGET`` overrides every
default search budget.
"""

import argparse
import json
import sys

from . import jsonio
from .budgets import (
    BudgetExceeded,
    DEFAULT_FILLER_BUDGET,
    DEFAULT_ISO_SEARCH_BUDGET,
    DEFAULT_LIFT_BUDGET,
    DEFAULT_REWRITE_BUDGET,
    env_budget,
)
from .loop import CONVENTIONS


def _meta():
    return {
        "conventions": dict(CONVENTIONS),
        "budgets": {
            "filler": env_budget(DEFAULT_FILLER_BUDGET),
            "rewrite": env_budget(DEFAULT_REWRITE_BUDGET),
            "iso_search": env_budget(DEFAULT_ISO_SEARCH_BUDGET),
            "lift": env_budget(DEFAULT_LIFT_BUDGET),
        },
    }


def _read(path):
    with open(path) as handle:
        return json.load(handle)


def _emit(payload, args):
    payload = dict(payload)
    payload["_meta"] = _meta()
    if getattr(args, "format", "json") == "text":
        out = _render_text(payload)
    else:
        out = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w") as handle:
            handle.write(out)
    else:
        sys.stdout.write(out)


def _render_text(payload):
    lines = []
    for key in sorted(payload):
        if key == "_meta":
            continue
        value = payload[key]
        if isinstance(value, (dict, list)):
            size = len(value)
            lines.append(f"{key}: ({size} entries)")
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def _group_json(table):
    return {
        "order": table.order,
        "abelian": table.is_abelian(),
        "table": table.to_json(),
    }


# -- commands -------------------------------------------------------------------


def cmd_validate(args):
    def one(path):
        kind, obj = jsonio.load_object_unchecked(_read(path))
        if kind in ("sset", "sgpd", "groupoid", "2gpd", "presheaf"):
            # the parts are input like any other; the whole is what is reported
            jsonio.check_parts(obj)
            return {"file": path, "kind": kind, "violations": obj.validate()}
        jsonio.checked(obj)  # an invalid document of another kind is still invalid input
        raise ValueError(f"validate does not handle kind {kind!r}")

    reports = [one(path) for path in args.files]
    _emit({"reports": reports}, args)
    return 1 if any(r["violations"] for r in reports) else 0


def cmd_complex(args):
    from .sset import standard_complex

    out = standard_complex(args.kind, args.n, k=args.k, depth=args.depth)
    _emit(out.to_json(), args)
    return 0


def cmd_pushout(args):
    from .sset import pushout

    f = jsonio.smap_from_json(_read(args.f))
    g = jsonio.smap_from_json(_read(args.g))
    d, into_b, into_c = pushout(f, g)
    _emit(
        {
            "pushout": d.to_json(),
            "into_b": [dict(sorted(m.items())) for m in into_b.level_maps],
            "into_c": [dict(sorted(m.items())) for m in into_c.level_maps],
        },
        args,
    )
    return 0


def cmd_pullback(args):
    from .sset import pullback

    f = jsonio.smap_from_json(_read(args.f))
    g = jsonio.smap_from_json(_read(args.g))
    p, onto_b, onto_c = pullback(f, g)
    _emit(
        {
            "pullback": p.to_json(),
            "onto_b": [dict(sorted(m.items())) for m in onto_b.level_maps],
            "onto_c": [dict(sorted(m.items())) for m in onto_c.level_maps],
        },
        args,
    )
    return 0


def cmd_pi0(args):
    kind, obj = jsonio.load_object(_read(args.file))
    if kind == "sset":
        from .sset import pi0_sset

        components = pi0_sset(obj)
    elif kind in ("groupoid", "free_groupoid"):
        from .groupoids import pi0_groupoid

        components = pi0_groupoid(obj)
    elif kind == "sgpd":
        from .groupoids import pi0_sgpd

        components = pi0_sgpd(obj)
    else:
        raise ValueError(f"pi0 does not handle kind {kind!r}")
    _emit(
        {"count": len(components), "components": [list(c) for c in components]}, args
    )
    return 0


def cmd_pikan(args):
    from .kan import pi_n_kan

    kind, obj = jsonio.load_object(_read(args.file))
    if kind != "sset":
        raise ValueError("pikan needs a simplicial set")
    table = pi_n_kan(obj, args.base, args.n, budget=args.budget)
    _emit({"n": args.n, "base": args.base, "group": _group_json(table)}, args)
    return 0


def cmd_moore(args):
    from .groupoids import moore_pi_n

    kind, obj = jsonio.load_object(_read(args.file))
    if kind != "sgpd":
        raise ValueError("moore needs a simplicial groupoid")
    table = moore_pi_n(obj, args.n)
    _emit({"n": args.n, "group": _group_json(table)}, args)
    return 0


def cmd_doldkan(args):
    from .groupoids import dold_kan

    chain = jsonio.chain_from_json(_read(args.file))
    out = dold_kan(chain, args.depth)
    _emit(out.to_json(), args)
    return 0


def cmd_loop(args):
    from .loop import loop_groupoid

    kind, obj = jsonio.load_object(_read(args.file))
    if kind != "sset":
        raise ValueError("loop needs a simplicial set")
    out = loop_groupoid(obj, args.depth)
    _emit(out.to_json(), args)
    return 0


def cmd_wbar(args):
    from .loop import wbar

    kind, obj = jsonio.load_object(_read(args.file))
    if kind != "sgpd":
        raise ValueError("wbar needs a simplicial groupoid")
    result = wbar(obj, args.depth)
    _emit(
        {
            "complex": result.sset.to_json(),
            "level_sizes": result.sset.level_sizes(),
        },
        args,
    )
    return 0


def cmd_wtotal(args):
    from .loop import w_total

    kind, obj = jsonio.load_object(_read(args.file))
    if kind != "sgpd":
        raise ValueError("wtotal needs a simplicial groupoid")
    total, q, wb = w_total(obj, args.depth)
    _emit(
        {
            "total": total.to_json(),
            "q": [dict(sorted(m.items())) for m in q.level_maps],
            "wbar": wb.sset.to_json(),
        },
        args,
    )
    return 0


def cmd_transpose(args):
    from .loop import loop_groupoid, transpose_to_sgpd, transpose_to_sset, wbar
    from .groupoids import GroupoidHom, SimplicialGroupoidMap, arrow_from_json
    from .sset import SimplicialMap

    data = _read(args.file)
    sset = jsonio.checked(jsonio.TruncatedSimplicialSet.from_json(data["complex"]))
    sgpd = jsonio.checked(jsonio.SimplicialGroupoid.from_json(data["groupoid"]))
    depth = data["depth"]
    gx = loop_groupoid(sset, depth)
    wb = wbar(sgpd, depth + 1)
    if data["direction"] == "to-sset":
        obj_map = data["map"]["obj_map"]
        level_homs = []
        for n, table in enumerate(data["map"]["levels"]):
            arrow_map = {
                gen: arrow_from_json(sgpd.levels[n], value)
                for gen, value in table.items()
            }
            level_homs.append(
                jsonio.check(GroupoidHom(gx.levels[n], sgpd.levels[n], obj_map, arrow_map))
            )
        sg_map = jsonio.check(SimplicialGroupoidMap(gx, sgpd, obj_map, level_homs))
        out = transpose_to_sset(sg_map, sset, gx, wb)
        _emit(
            {"transpose": [dict(sorted(m.items())) for m in out.level_maps]}, args
        )
        return 0
    if data["direction"] == "to-sgpd":
        from .loop import _truncate_sset

        truncated = _truncate_sset(sset, depth + 1)
        smap = jsonio.check(SimplicialMap(truncated, wb.sset, data["map"]["levels"]))
        out = transpose_to_sgpd(smap, gx, sgpd, wb)
        _emit(
            {
                "obj_map": dict(sorted(out.obj_map.items())),
                "generator_images": [
                    {
                        gen: jsonio.arrow_to_json(sgpd.levels[n], hom.arrow_map[gen])
                        for gen in sorted(hom.arrow_map)
                    }
                    for n, hom in enumerate(out.level_homs)
                ],
            },
            args,
        )
        return 0
    raise ValueError("direction must be 'to-sset' or 'to-sgpd'")


def cmd_unit(args):
    from .loop import unit

    kind, obj = jsonio.load_object(_read(args.file))
    if kind != "sset":
        raise ValueError("unit needs a simplicial set")
    eta, gx, wb = unit(obj, args.depth)
    _emit(
        {
            "eta": [dict(sorted(m.items())) for m in eta.level_maps],
            "wbar": wb.sset.to_json(),
        },
        args,
    )
    return 0


def cmd_counit(args):
    from .loop import counit

    kind, obj = jsonio.load_object(_read(args.file))
    if kind != "sgpd":
        raise ValueError("counit needs a simplicial groupoid")
    eps, gw, wb = counit(obj, args.depth)
    _emit(
        {
            "obj_map": dict(sorted(eps.obj_map.items())),
            "generator_images": [
                {
                    gen: jsonio.arrow_to_json(obj.levels[n], hom.arrow_map[gen])
                    for gen in sorted(hom.arrow_map)
                }
                for n, hom in enumerate(eps.level_homs)
            ],
            "wbar": wb.sset.to_json(),
        },
        args,
    )
    return 0


def cmd_nerve(args):
    from .two_groupoids import nerve

    kind, obj = jsonio.load_object(_read(args.file))
    if kind != "2gpd":
        raise ValueError("nerve needs a 2-groupoid")
    out = nerve(obj, args.depth)
    _emit(out.to_json(), args)
    return 0


def cmd_pi2gpd(args):
    from .two_groupoids import pi_2gpd

    kind, obj = jsonio.load_object(_read(args.file))
    if kind != "2gpd":
        raise ValueError("pi2gpd needs a 2-groupoid")
    result = pi_2gpd(obj, args.base, args.i)
    if args.i == 0:
        _emit({"count": len(result), "components": [list(c) for c in result]}, args)
    else:
        _emit({"i": args.i, "group": _group_json(result)}, args)
    return 0


def cmd_whitehead(args):
    from .whitehead import whitehead_2gpd

    kind, obj = jsonio.load_object(_read(args.file))
    if kind != "sset":
        raise ValueError("whitehead needs a simplicial set")
    w = whitehead_2gpd(obj)
    payload = {
        "objects": list(w.objects),
        "gens1": {g: list(w.gens1[g]) for g in sorted(w.gens1)},
        "gens2": {
            a: {
                "src": [[g, e] for g, e in w.gens2[a][0]],
                "tgt": [[g, e] for g, e in w.gens2[a][1]],
                "anchor": w.anchors2[a],
            }
            for a in sorted(w.gens2)
        },
        "relations": [
            {
                "lhs": [_layer_json(l) for l in lhs],
                "rhs": [_layer_json(l) for l in rhs],
            }
            for lhs, rhs in w.relations
        ],
        "pi0_count": len(w.pi0()),
    }
    if args.pi1_at is not None:
        pres = w.pi1_presentation(args.pi1_at)
        payload["pi1"] = pres.to_json()
        payload["pi1_infinite_cyclic"] = pres.is_infinite_cyclic()
    _emit(payload, args)
    return 0


def _layer_json(layer):
    return {
        "pre": [[g, e] for g, e in layer.pre],
        "gen": layer.gen,
        "sign": layer.sign,
        "post": [[g, e] for g, e in layer.post],
    }


def cmd_msweq(args):
    from .two_groupoids import ms_weak_equivalence

    func = jsonio.functor2_from_json(_read(args.file))
    verdict, witness = ms_weak_equivalence(func)
    _emit({"verdict": verdict, "witness": witness}, args)
    return 0 if verdict else 1


def cmd_msfib(args):
    from .two_groupoids import ms_fibration

    func = jsonio.functor2_from_json(_read(args.file))
    verdict, witness = ms_fibration(func)
    _emit({"verdict": verdict, "witness": witness}, args)
    return 0 if verdict else 1


def cmd_site_validate(args):
    def one(path):
        data = _read(path)
        if jsonio.detect_kind(data) != "site":
            raise ValueError(f"{path} is not a site")
        return {"file": path, "violations": jsonio.FiniteSite.from_json(data).validate()}

    reports = [one(path) for path in args.files]
    _emit({"reports": reports}, args)
    return 1 if any(r["violations"] for r in reports) else 0


def cmd_comma(args):
    from .sites import comma_site

    kind, site = jsonio.load_object(_read(args.file))
    if kind != "site":
        raise ValueError("comma needs a site")
    _emit(comma_site(site, args.object).to_json(), args)
    return 0


def cmd_yu(args):
    from .presheaves import y_u

    kind, sset = jsonio.load_object(_read(args.file))
    if kind != "sset":
        raise ValueError("yu needs a simplicial set")
    site_kind, site = jsonio.load_object(_read(args.site))
    if site_kind != "site":
        raise ValueError("yu needs a site file")
    out = y_u(sset, args.object, site)
    _emit(jsonio.presheaf_to_json(out), args)
    return 0


def cmd_sheafify(args):
    from .presheaves import sheaf_condition_report, sheafify

    kind, presheaf = jsonio.load_object(_read(args.file))
    if kind != "presheaf":
        raise ValueError("sheafify needs a presheaf")
    sheaf, unit = sheafify(presheaf)
    report = sheaf_condition_report(sheaf)
    _emit(
        {
            "sheaf": jsonio.presheaf_to_json(sheaf),
            "condition_report": report,
        },
        args,
    )
    return 1 if report else 0


def cmd_hsheaf(args):
    from .presheaves import homotopy_sheaf, homotopy_sheaf_2gpd

    kind, presheaf = jsonio.load_object(_read(args.file))
    if kind != "presheaf":
        raise ValueError("hsheaf needs a presheaf")
    if presheaf.domain == "sgpd":
        sheaf = homotopy_sheaf(presheaf, args.object, args.base, None, args.n)
    elif presheaf.domain == "2gpd":
        sheaf = homotopy_sheaf_2gpd(presheaf, args.object, args.base, args.n)
    else:
        raise ValueError("hsheaf needs simplicial groupoid or 2-groupoid values")
    _emit(jsonio.presheaf_to_json(sheaf), args)
    return 0


def cmd_weq(args):
    from .presheaves import is_weak_equivalence

    nat = jsonio.nat_from_json(_read(args.file))
    verdict, witnesses = is_weak_equivalence(nat, args.kind, n_max=args.nmax)
    _emit({"verdict": verdict, "witnesses": witnesses}, args)
    return 0 if verdict else 1


def cmd_geninc(args):
    from .lifting import generating_inclusions

    kind, site = jsonio.load_object(_read(args.file))
    if kind != "site":
        raise ValueError("geninc needs a site")
    inclusions = generating_inclusions(site, args.nmax, budget=args.budget)
    summary = []
    for u, dim, incl in inclusions:
        summary.append(
            {
                "object": u,
                "cell_dimension": dim,
                "sizes": {
                    v: incl.source.values[v].level_sizes()
                    for v in site.objects
                },
            }
        )
    _emit({"count": len(inclusions), "inclusions": summary}, args)
    return 0


def cmd_lift(args):
    from .lifting import LiftingProblem, as_point_map, solve_lifting

    data = _read(args.file)
    if data.get("single"):
        legs = {
            key: as_point_map(jsonio.smap_from_json(data[key]))
            for key in ("i", "top", "p", "bottom")
        }
    else:
        legs = {key: jsonio.nat_from_json(data[key]) for key in ("i", "top", "p", "bottom")}
    problem = jsonio.check(LiftingProblem(legs["i"], legs["top"], legs["p"], legs["bottom"]))
    result = solve_lifting(problem, budget=args.budget)
    payload = {"outcome": result["outcome"], "search_nodes": result.get("search_nodes")}
    if result["outcome"] == "lift":
        lift = result["lift"]
        payload["lift"] = {
            v: [dict(sorted(m.items())) for m in lift.components[v].level_maps]
            for v in lift.source.site.objects
        }
    _emit(payload, args)
    return 0 if result["outcome"] == "lift" else 1


def cmd_bounds(args):
    def one(path):
        kind, obj = jsonio.load_object(_read(path))
        if kind == "sset":
            sizes = {"levels": obj.level_sizes()}
        elif kind == "sgpd":
            sizes = {
                "levels": [
                    {"generators": len(level.generators)}
                    if level.is_free
                    else {"arrows": len(level.arrows)}
                    for level in obj.levels
                ]
            }
        elif kind in ("groupoid",):
            sizes = {"objects": len(obj.objects), "arrows": len(obj.arrows)}
        elif kind == "free_groupoid":
            sizes = {"objects": len(obj.objects), "generators": len(obj.generators)}
        elif kind == "2gpd":
            sizes = {
                "objects": len(obj.objects),
                "cells1": len(obj.cells1),
                "cells2": len(obj.cells2),
            }
        elif kind == "presheaf":
            sizes = {"sections": {}}
            for u in obj.site.objects:
                value = obj.values[u]
                if obj.domain == "set":
                    sizes["sections"][u] = len(value)
                elif obj.domain == "group":
                    sizes["sections"][u] = value.order
                elif obj.domain == "sset":
                    sizes["sections"][u] = value.level_sizes()
                elif obj.domain == "sgpd":
                    sizes["sections"][u] = [
                        len(level.generators) if level.is_free else len(level.arrows)
                        for level in value.levels
                    ]
                else:
                    sizes["sections"][u] = {
                        "cells1": len(value.cells1),
                        "cells2": len(value.cells2),
                    }
        elif kind == "site":
            sizes = {"objects": len(obj.objects), "arrows": len(obj.arrows)}
        else:
            raise ValueError(f"bounds does not handle kind {kind!r}")
        return {"file": path, "bounds": sizes}

    reports = [one(path) for path in args.files]
    _emit({"reports": reports}, args)
    return 0


def _arg(*flags, **options):
    """One ``add_argument`` call, as data."""
    return flags, options


FILE = _arg("file")
FILES = _arg("files", nargs="+")
DEPTH = _arg("--depth", type=int, required=True)
BASE = _arg("--base", required=True)
OBJECT = _arg("--object", required=True)
COMMON = (
    _arg("--output", help="write the JSON report to a file"),
    _arg("--format", choices=["json", "text"], default="json",
         help="text is a lossy human summary, never parsed back"),
)

# One row per command: name, function, help text, depth note (appended to the
# help text in the command's description) and its arguments after COMMON.
COMMANDS = (
    ("validate", cmd_validate, "check simplicial/groupoid/2-groupoid invariants", "",
     (FILES,)),
    ("complex", cmd_complex, "build a standard complex", "", (
        _arg("--kind", required=True,
             choices=["Delta", "boundary", "horn", "sphere", "point"]),
        _arg("-n", type=int, default=0),
        _arg("-k", type=int, help="horn index"),
        _arg("--depth", type=int, help="truncation depth (defaults to the dimension)"),
    )),
    ("pushout", cmd_pushout, "levelwise pushout of B <- A -> C", "",
     (_arg("f"), _arg("g"))),
    ("pullback", cmd_pullback, "levelwise pullback of B -> Y <- C", "",
     (_arg("f"), _arg("g"))),
    ("pi0", cmd_pi0, "path components (needs depth >= 1 for complexes)", "", (FILE,)),
    ("pikan", cmd_pikan, "homotopy group of a finite Kan complex",
     " Requires depth >= n+1; Kan condition checked to level n+1.", (
        FILE, BASE, _arg("-n", type=int, required=True),
        _arg("--budget", type=int, help=f"filler budget (default {DEFAULT_FILLER_BUDGET})"),
    )),
    ("moore", cmd_moore, "Moore-complex homotopy of a simplicial group",
     " Requires finite one-object levels up to n+1.",
     (FILE, _arg("-n", type=int, required=True))),
    ("doldkan", cmd_doldkan, "simplicial abelian group of a chain fixture", "",
     (FILE, DEPTH)),
    ("loop", cmd_loop, "loop groupoid of a complex",
     " Requires complex depth >= depth + 1.", (FILE, DEPTH)),
    ("wbar", cmd_wbar, "classifying complex of a simplicial groupoid",
     " Requires finite groupoid levels 0..depth-1.", (FILE, DEPTH)),
    ("wtotal", cmd_wtotal, "total space W with its projection to wbar",
     " Requires a one-object simplicial group up to the depth.", (FILE, DEPTH)),
    ("transpose", cmd_transpose, "adjunction transpose in either direction", "",
     (FILE,)),
    ("unit", cmd_unit, "the map into the classifying complex of the loop groupoid",
     " Materialisable only when the loop groupoid is discrete.", (FILE, DEPTH)),
    ("counit", cmd_counit, "the evaluation from the loop groupoid of wbar", "",
     (FILE, DEPTH)),
    ("nerve", cmd_nerve, "nerve of a 2-groupoid (3-coskeletal)", "", (FILE, DEPTH)),
    ("pi2gpd", cmd_pi2gpd, "pi_0, pi_1 or pi_2 of a 2-groupoid", "",
     (FILE, BASE, _arg("-i", type=int, required=True, choices=[0, 1, 2]))),
    ("whitehead", cmd_whitehead, "presented 2-groupoid of a complex",
     " Requires depth >= 3.",
     (FILE, _arg("--pi1-at", help="also compute pi_1 at this vertex"))),
    ("msweq", cmd_msweq, "Moerdijk-Svensson weak equivalence predicate", "", (FILE,)),
    ("msfib", cmd_msfib, "Moerdijk-Svensson fibration predicate", "", (FILE,)),
    ("site-validate", cmd_site_validate, "check the Grothendieck topology axioms", "",
     (FILES,)),
    ("comma", cmd_comma, "slice site over an object", "", (FILE, OBJECT)),
    ("yu", cmd_yu, "left adjoint to the sections functor", "",
     (FILE, _arg("--site", required=True), OBJECT)),
    ("sheafify", cmd_sheafify, "associated sheaf (plus construction twice)", "",
     (FILE,)),
    ("hsheaf", cmd_hsheaf, "homotopy sheaf on the comma site",
     " Needs section depth >= n+1 for simplicial groupoid values.", (
        FILE, OBJECT, BASE,
        _arg("-n", type=int, required=True,
             help="Moore degree (sgpd) or pi index 1|2 (2gpd)"),
    )),
    ("weq", cmd_weq, "sheaf-isomorphism weak-equivalence criterion", "", (
        FILE, _arg("--kind", required=True, choices=["sgpd", "2gpd"]),
        _arg("--nmax", type=int, default=2),
    )),
    ("geninc", cmd_geninc, "generating inclusions S in Delta^n_U", "", (
        FILE, _arg("--nmax", type=int, required=True),
        _arg("--budget", type=int, help=f"assignment budget (default {DEFAULT_LIFT_BUDGET})"),
    )),
    ("lift", cmd_lift, "solve a lifting problem by backtracking", "", (
        FILE,
        _arg("--budget", type=int, help=f"search budget (default {DEFAULT_LIFT_BUDGET})"),
    )),
    ("bounds", cmd_bounds, "per-level cardinality report", "", (FILES,)),
)
COMMAND_NAMES = frozenset(row[0] for row in COMMANDS)


def build_parser(command=None):
    """The parser of every command in ``COMMANDS``, or of ``command`` alone."""
    parser = argparse.ArgumentParser(
        prog="hpk",
        description=(
            "Desk-scale homotopy computations: simplicial sets, simplicial "
            "groupoids, 2-groupoids, and presheaves on finite sites."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, depth_note, arguments in COMMANDS:
        if command in (None, name):
            p = sub.add_parser(name, help=help_text, description=help_text + depth_note)
            p.set_defaults(func=func)
            for flags, options in COMMON + arguments:
                p.add_argument(*flags, **options)
    return parser


def parse_args(argv=None):
    """Parse with the named command's parser alone when that suffices.

    The full parser is built only where its text is printed: the top-level
    help, and errors that list every command (no command word, an unknown
    one, or arguments the command does not take).
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in COMMAND_NAMES:
        args, extras = build_parser(argv[0]).parse_known_args(argv)
        if not extras:
            return args
    return build_parser().parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
