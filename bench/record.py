"""Record the loop/W-bar adjunction hom-set searches into a BENCH_*.json file.

    python3 bench/record.py --out BENCH_12.json --parent ../hpk-parent
    python3 bench/record.py --check BENCH_12.json

The pairs are the 25 of the benchmark's ``invariant_queries`` mix: six small
complexes against the constant simplicial groupoids of four small groupoids,
and Delta^3 against chaotic Z/2 on two objects.  For each pair both routes
of the adjunction are searched, hom(GX, A) by ``loop.enumerate_sgpd_maps``
and hom(X, WbarA) by ``homsearch.enumerate_simplicial_maps``, and the file
records each route's map count, its ``Meter`` work units and its best wall
time on the parent checkout and on this one.

Each side runs in its own process, importing hpk from that checkout's
``src/``.  The five repeats alternate which side runs first; a repeat times
every search once after one untimed pass, and a recorded time is the best of
the five.  Writing fails if the two sides disagree on a count or a unit.

``--check`` recomputes the map counts and work units on this checkout and
exits 1 on any difference from the file.  It never compares wall times,
which depend on the machine.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REPEATS = 5
ROUTES = ("loop", "wbar")


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


def searches():
    """{pair: {route: search}}, each search returning (maps, work units)."""
    from hpk.budgets import Meter
    from hpk.homsearch import enumerate_simplicial_maps
    from hpk.loop import enumerate_sgpd_maps

    def via_loop(x, a, gx):
        meter = Meter("sgpd maps", 10**7)
        return len(enumerate_sgpd_maps(gx, x, a, meter=meter)), meter.used

    def via_wbar(truncated, wb):
        meter = Meter("sset maps", 10**7)
        return sum(1 for _ in enumerate_simplicial_maps(truncated, wb.sset, meter=meter)), meter.used

    return {
        name: {
            "loop": lambda x=x, a=a, gx=gx: via_loop(x, a, gx),
            "wbar": lambda t=truncated, wb=wb: via_wbar(t, wb),
        }
        for name, x, a, wb, gx, truncated in adjunction_pairs()
    }


def counts():
    """{pair: {route: {"maps": m, "units": u}}} on the imported hpk."""
    return {
        name: {route: dict(zip(("maps", "units"), search())) for route, search in routes.items()}
        for name, routes in searches().items()
    }


def one_repeat():
    """Counts plus one timed run of every search, after an untimed pass."""
    table = searches()
    for routes in table.values():
        for search in routes.values():
            search()
    out = {}
    for name, routes in table.items():
        out[name] = {}
        for route, search in routes.items():
            start = perf_counter()
            maps, units = search()
            ms = (perf_counter() - start) * 1e3
            out[name][route] = {"maps": maps, "units": units, "ms": ms}
    return out


def run_side(checkout):
    """One repeat in a fresh process that imports hpk from ``checkout``."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--repeat-in", checkout],
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


def record(parent):
    sides = {"parent": parent, "change": ROOT}
    runs = {side: [] for side in sides}
    for k in range(REPEATS):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_side(sides[side]))
    pairs = []
    for name in runs["change"][0]:
        entry = {"pair": name}
        for route in ROUTES:
            found = {
                (run[name][route]["maps"], run[name][route]["units"])
                for side_runs in runs.values()
                for run in side_runs
            }
            if len(found) != 1:
                raise SystemExit(f"{name} {route}: the sides disagree on (maps, units): {found}")
            (maps, units), = found
            entry[route] = {
                "maps": maps,
                "units": units,
                "best_ms": {
                    side: round(min(run[name][route]["ms"] for run in runs[side]), 3)
                    for side in sides
                },
            }
        pairs.append(entry)
    totals = {
        route: {
            side: round(sum(entry[route]["best_ms"][side] for entry in pairs), 3)
            for side in sides
        }
        for route in ROUTES
    }
    return {
        "what": "loop/W-bar adjunction hom-set searches of the invariant_queries mix",
        "machine": machine(),
        "method": (
            f"best of {REPEATS} repeats per side, one process per repeat, "
            "sides alternating, each search timed after an untimed pass"
        ),
        "pairs": pairs,
        "total_best_ms": totals,
    }


def check(path):
    with open(path) as f:
        recorded = json.load(f)
    expected = {
        entry["pair"]: {route: {k: entry[route][k] for k in ("maps", "units")} for route in ROUTES}
        for entry in recorded["pairs"]
    }
    got = counts()
    problems = [
        f"{name}: recorded {expected.get(name)}, computed {got.get(name)}"
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
    mode.add_argument("--check", metavar="FILE", help="recompute maps and units of a record")
    mode.add_argument("--repeat-in", metavar="CHECKOUT", help=argparse.SUPPRESS)
    parser.add_argument("--parent", help="checkout of the parent commit, timed beside this one")
    args = parser.parse_args(argv)
    if args.repeat_in:
        sys.path.insert(0, os.path.join(os.path.abspath(args.repeat_in), "src"))
        json.dump(one_repeat(), sys.stdout)
        return 0
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.check:
        return check(args.check)
    if not args.parent:
        parser.error("--out needs --parent")
    data = record(os.path.abspath(args.parent))
    with open(args.out, "w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
