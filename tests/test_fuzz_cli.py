"""Fuzzing the CLI: every document gives an exit status, never a traceback.

Lift documents are built from small standard complexes.  Section shapes and
depths, the four presheaves a square touches and the endpoints of each leg
are drawn independently, so most documents are malformed in some way (maps
that are not simplicial, squares that do not commute, sections of different
depths) and must be rejected with exit 2; the rest are solved (0 or 1) or
run out of budget (3).

Presheaf, transformation and transpose documents start valid, one of each
value domain and one transpose of each direction; one node is then replaced
by null, [], {}, "x" or 0, and the command that reads the document must give
an exit status.

Command lines are drawn from the command table's words, options, choices and
junk tokens; ``parse_args``, which parses every call with one parser kept for
the process, must give the same namespace as a freshly built parser, or the
same exit status and text.
"""

import contextlib
import functools
import io
import json

from hypothesis import given, settings, strategies as st

from hpk import jsonio
from hpk.cli import COMMANDS, COMMON, build_parser, main, parse_args
from hpk.groupoids import FiniteGroupoid, SimplicialGroupoid
from hpk.homsearch import enumerate_simplicial_maps
from hpk.loop import enumerate_sgpd_maps, loop_groupoid, wbar
from hpk.sites import FiniteSite
from hpk.sset import standard_complex, truncate
from test_golden_outputs import domain_transformations

SHAPES = [
    ("point", 0, None),
    ("Delta", 0, None),
    ("Delta", 1, None),
    ("boundary", 1, None),
    ("sphere", 1, None),
    ("horn", 2, 1),
]

SITES = [
    FiniteSite.point_site(),
    FiniteSite.trivial_topology(
        ["U", "V"],
        {"idU": ("U", "U"), "idV": ("V", "V")},
        {("idU", "idU"): "idU", ("idV", "idV"): "idV"},
        {"U": "idU", "V": "idV"},
    ),
    FiniteSite.two_object_site(),
]


def by_name(x, y):
    """Level maps x -> y sending a simplex to its namesake, else to y's first."""
    levels = []
    for n, level in enumerate(x.levels):
        there = y.levels[n] if n < len(y.levels) else []
        levels.append({s: s if s in there or not there else there[0] for s in level})
    return {"levels": levels}


@st.composite
def sections(draw, site):
    out = {}
    for v in site.objects:
        kind, n, k = draw(st.sampled_from(SHAPES))
        depth = max(n, draw(st.integers(1, 2)))
        out[v] = standard_complex(kind, n, k=k, depth=depth)
    return out


def presheaf_json(site, values):
    return {
        "site": site.to_json(),
        "domain": "sset",
        "values": {v: x.to_json() for v, x in values.items()},
        "restrictions": {
            a: by_name(values[u], values[v]) for a, (v, u) in site.arrows.items()
        },
    }


@st.composite
def lift_documents(draw):
    site = draw(st.sampled_from(SITES))
    pool = draw(st.lists(sections(site), min_size=1, max_size=3))
    # the square's corners a, b, x, y, each drawn from the pool
    corners = [draw(st.integers(0, len(pool) - 1)) for _ in range(4)]
    legs = {"i": (0, 1), "top": (0, 2), "p": (2, 3), "bottom": (1, 3)}
    if site.objects == ["*"] and draw(st.booleans()):
        doc = {"single": True}
        for key, (s, t) in legs.items():
            x, y = pool[corners[s]]["*"], pool[corners[t]]["*"]
            doc[key] = {"map": "sset", "source": x.to_json(), "target": y.to_json(), **by_name(x, y)}
        return doc
    doc = {}
    for key, (s, t) in legs.items():
        x, y = pool[corners[s]], pool[corners[t]]
        doc[key] = {
            "nat": True,
            "domain": "sset",
            "source": presheaf_json(site, x),
            "target": presheaf_json(site, y),
            "components": {v: by_name(x[v], y[v]) for v in site.objects},
        }
    return doc


@settings(max_examples=150, derandomize=True, deadline=None)
@given(lift_documents())
def test_lift_never_raises(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("lift") / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["lift", str(path)]) in (0, 1, 2, 3)


def _transpose_documents():
    """A valid transpose document of each direction: Delta^1 and the constant
    interval groupoid at depth 2."""
    x = standard_complex("Delta", 1, depth=3)
    a = SimplicialGroupoid.constant(FiniteGroupoid.interval(), 2)
    psi = next(enumerate_simplicial_maps(truncate(x, 3), wbar(a, 3).sset))
    phi = jsonio.sgpd_map_to_json(enumerate_sgpd_maps(loop_groupoid(x, 2), x, a)[0])
    common = {"complex": x.to_json(), "groupoid": a.to_json(), "depth": 2}
    return {
        "to-sgpd": {**common, "direction": "to-sgpd", "map": psi.to_json()},
        "to-sset": {**common, "direction": "to-sset",
                    "map": {"obj_map": phi["obj_map"], "levels": phi["levels"]}},
    }


def _paths(node, path=()):
    """The path of every node of a JSON document, the root first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, (*path, key))


@functools.cache
def reader_documents():
    """(document text, command line, node paths) of every document to mutate."""
    cases = []
    for name, nat in domain_transformations().items():
        # the sections have depth 2: Moore degrees up to 1
        kind = ["--kind", "2gpd"] if name == "2gpd" else ["--kind", "sgpd", "--nmax", "1"]
        cases.append((jsonio.presheaf_to_json(nat.source), ["validate"]))
        cases.append((jsonio.nat_to_json(nat), ["weq", *kind]))
    cases.extend((doc, ["transpose"]) for doc in _transpose_documents().values())
    return [(json.dumps(doc), argv, list(_paths(doc))) for doc, argv in cases]


@st.composite
def mutated_documents(draw):
    text, argv, paths = draw(st.sampled_from(reader_documents()))
    path = draw(st.sampled_from(paths))
    value = draw(st.sampled_from([None, [], {}, "x", 0]))
    if not path:
        return argv, value
    doc = node = json.loads(text)
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return argv, doc


@settings(max_examples=500, derandomize=True, deadline=None)
@given(mutated_documents())
def test_readers_never_raise(tmp_path_factory, case):
    argv, doc = case
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([argv[0], str(path), *argv[1:]]) in (0, 1, 2, 3)


NAMES = [row[0] for row in COMMANDS]
OPTIONS = sorted(
    {flags[0] for row in COMMANDS for flags, _ in COMMON + row[4] if flags[0][0] == "-"}
)
CHOICES = sorted(
    {str(c) for row in COMMANDS for _, options in COMMON + row[4] for c in options.get("choices", ())}
)
JUNK = ["", "-", "--", "-x", "--bogus", "--dep", "--depth=2", "-n3", "-h", "--help", "-1", "x", "f.json"]


def _value(options):
    if "choices" in options:
        return st.sampled_from([str(c) for c in options["choices"]] + ["5"])
    if options.get("type") is int:
        return st.sampled_from(["0", "2", "-1", "x"])
    return st.sampled_from(["f.json", "*", "-x"])


@st.composite
def command_lines(draw):
    """A command word and a mostly valid argument list, junk spliced in."""
    name, _, _, _, arguments = draw(st.sampled_from(COMMANDS))
    groups = []
    for flags, options in COMMON + arguments:
        if flags[0][0] != "-":
            groups.append([draw(_value(options)) for _ in range(1 + (options.get("nargs") == "+"))])
        elif options.get("required") or draw(st.booleans()):
            groups.append([draw(st.sampled_from(flags)), draw(_value(options))])
    groups = draw(st.permutations(groups))
    tokens = [t for group in groups for t in group]
    for _ in range(draw(st.integers(0, 2))):
        junk = draw(st.sampled_from(JUNK + OPTIONS + CHOICES + NAMES))
        tokens.insert(draw(st.integers(0, len(tokens))), junk)
    head = draw(st.sampled_from([[name]] * 6 + [[], ["bogus"], ["-h"], ["--x"]]))
    return head + tokens


def _outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _fresh(argv):
    return build_parser().parse_args(argv)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(command_lines())
def test_command_parser_matches_full_parser(argv):
    assert _outcome(parse_args, argv) == _outcome(_fresh, argv)


def test_kept_parser_leaks_no_state():
    """A failed parse, then a good one, then a help request, all on the kept
    parser: each gives what a fresh parser gives."""
    failing = ["nerve", "f.json", "--depth", "x", "--bogus"]
    good = ["nerve", "f.json", "--depth", "3"]
    for argv in (failing, good, ["--help"], ["nerve", "--help"]):
        assert _outcome(parse_args, argv) == _outcome(_fresh, argv)
    assert _outcome(parse_args, failing)[0] == 2
    assert _outcome(parse_args, good)[0].depth == 3
