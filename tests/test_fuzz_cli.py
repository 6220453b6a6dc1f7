"""Fuzzing the CLI: every document gives an exit status, never a traceback.

Lift documents are built from small standard complexes.  Section shapes and
depths, the four presheaves a square touches and the endpoints of each leg
are drawn independently, so most documents are malformed in some way (maps
that are not simplicial, squares that do not commute, sections of different
depths) and must be rejected with exit 2; the rest are solved (0 or 1) or
run out of budget (3).

Command lines are drawn from the command table's words, options, choices and
junk tokens; ``parse_args``, which parses every call with one parser kept for
the process, must give the same namespace as a freshly built parser, or the
same exit status and text.
"""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from hpk.cli import COMMANDS, COMMON, build_parser, main, parse_args
from hpk.sites import FiniteSite
from hpk.sset import standard_complex

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
