"""JSON encodings for every object the command line reads or writes.

The simplicial-set and site formats are fixed; maps and presheaves carry
their endpoints inline so a single file is self-contained.  Every document
kind is one row of ``KINDS``: how it is recognised, the shape of its fields,
its one reader, and the answers the command line gives for it.

This is where hpk checks its input.  Constructors only store their data; every
reader here runs ``validate()`` on each object it builds, parts before the
objects built from them, and rejects the first invalid one with
``ValueError("invalid <what>: ...")``.  Chain documents are the exception:
``AbelianHom`` and ``ChainFixture`` check themselves on construction.

Each read of a document is one ``Reading``.  Within it, equal sub-documents
of one kind parse to one shared object (maps also need the same source and
target objects), so each distinct part is built and law-checked once, and an
owner's check does not re-run the checks of parts that have passed.  A
reading keeps nothing once the read returns.

It is also where hpk writes its output: ``dumps`` gives the text the ``json``
module writes with ``sort_keys=True`` and ``indent=2``, plus a newline.
"""

import json
from collections import namedtuple
from json.encoder import encode_basestring_ascii
from operator import methodcaller
from typing import NamedTuple

from .abelian import AbelianHom, ChainFixture, FiniteAbelianGroup
from .groups import GroupTable
from .groupoids import (
    FiniteGroupoid,
    FreeGroupoid,
    GroupoidHom,
    SimplicialGroupoid,
    SimplicialGroupoidMap,
    arrow_to_json,
    pi0_groupoid,
    pi0_sgpd,
)
from .lifting import LiftingProblem
from .presheaves import NaturalTransformation, Presheaf
from .sites import FiniteSite
from .sset import SimplicialMap, TruncatedSimplicialSet, pi0_sset
from .two_groupoids import TwoFunctor, TwoGroupoid


def _ends(x):
    return [x.source, x.target]


# for each class with a law check: the start of the error a failed check
# raises, the objects an instance is built from, in the order its document
# lists them (None: it is built from no checked object), and whether its
# ``validate`` re-runs the checks of some parts, so takes the ids of those
# that have passed
_CHECKS = {
    TruncatedSimplicialSet: ("invalid simplicial set", None, False),
    SimplicialMap: ("invalid simplicial map", _ends, False),
    FiniteGroupoid: ("invalid groupoid", None, False),
    GroupoidHom: ("invalid groupoid map", None, False),
    SimplicialGroupoid: ("invalid simplicial groupoid",
                         lambda x: [*x.levels, *x.faces.values(), *x.degeneracies.values()],
                         False),
    SimplicialGroupoidMap: ("invalid simplicial groupoid map",
                            lambda x: [x.source, x.target, *x.level_homs], True),
    GroupTable: ("not a group", None, False),
    TwoGroupoid: ("invalid 2-groupoid", None, False),
    TwoFunctor: ("invalid 2-functor", _ends, False),
    FiniteSite: ("invalid site", None, False),
    Presheaf: ("invalid presheaf",
               lambda x: [x.site, *x.values.values(), *x.restrictions.values()], True),
    NaturalTransformation: ("invalid natural transformation",
                            lambda x: [x.source, x.target, *x.components.values()], True),
    LiftingProblem: ("invalid lifting problem", None, False),
}


def violations(obj, passed=()):
    """What ``obj.validate()`` reports, without re-running the checks of parts
    whose ids are in ``passed``, which have passed already."""
    row = _CHECKS.get(type(obj))
    if row is None:
        return []
    return obj.validate(passed) if row[2] else obj.validate()


def check(obj, passed=None):
    """``obj`` if its law check finds nothing; else a ValueError naming the
    first three violations.  Objects without a law check pass as they are.

    ``passed`` maps the id of each object whose check has passed to the
    object: ``obj`` is not checked again if it is there and is added once it
    passes."""
    if passed is None:
        passed = {}
    if id(obj) not in passed:
        problems = violations(obj, passed)
        if problems:
            raise ValueError(f"{_CHECKS[type(obj)][0]}: " + "; ".join(problems[:3]))
        passed[id(obj)] = obj
    return obj


def check_parts(obj, passed):
    """Check, once each, every object ``obj`` is built from, inner ones first;
    ``passed`` is as for ``check``."""
    parts = _CHECKS.get(type(obj), (None, None))[1]
    for part in parts(obj) if parts is not None else ():
        if id(part) not in passed:
            check_parts(part, passed)
            check(part, passed)
    return obj


def checked(obj, passed=None):
    """``obj`` once it and everything it is built from pass their law checks."""
    if passed is None:
        passed = {}
    return check(check_parts(obj, passed), passed)


class Reading:
    """The read of one document.  Equal sub-documents of one kind parse to one
    shared object, and ``passed`` holds, by id, each object whose law check
    has passed (as ``check`` takes it), so each distinct part is checked once.
    Both hold their objects, so no id is reused while the reading lives."""

    def __init__(self):
        self.built = {}
        self.passed = {}

    def share(self, key, data, build):
        """``build()``, the object of the sub-document ``data``, unless an equal
        sub-document under ``key`` was read before: then the object it gave."""
        entries = self.built.setdefault(key, [])
        for seen, obj in entries:
            # == equates 1, 1.0 and true, which the readers tell apart; the
            # repr of parsed JSON does not
            if seen == data and repr(seen) == repr(data):
                return obj
        obj = build()
        entries.append((data, obj))
        return obj

    def read(self, kind, data):
        """The object of a sub-document of ``kind``, its shape checked but not its laws."""
        return self.share(kind, data, lambda: KINDS[kind].read(data, self))


def load_object_unchecked(data):
    """(kind, object) of a document, parsed without any law check."""
    kind = detect_kind(data)
    return kind, Reading().read(kind, data)


def detect_kind(data):
    """The first kind of ``KINDS`` whose test the document passes."""
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    for kind, row in KINDS.items():
        if row.test(data):
            return kind
    raise ValueError("could not infer the kind of the JSON object")


def load_object(data):
    """(kind, object) of a document whose objects all pass their law checks."""
    kind, obj = load_object_unchecked(data)
    return kind, checked(obj)


# -- shapes ------------------------------------------------------------------------------


# the JSON name of each type a parsed document holds, for messages
_JSON_TYPES = {
    type(None): "null",
    bool: "a boolean",
    int: "a number",
    float: "a number",
    str: "a string",
    list: "an array",
    dict: "an object",
}

# the JSON type of each top-level field of a document, by what it holds: a type,
# or a pair (outer, inner), an array or object whose every entry has the type
# inner, is an object whose fields have the types of the dict inner, or is
# itself of the shape of the pair inner
_CELLS = {"id": str, "src": str, "tgt": str}
_MAPS2 = {"objects": (dict, str), "map1": (dict, str), "map2": (dict, str)}
_SHAPES = {
    "site": {
        "objects": (list, str),
        "arrows": (list, _CELLS),
        "comp": (dict, str),
        "identities": (dict, str),
        "covers": (dict, (list, (list, str))),
    },
    "group": {"elements": (list, str), "identity": str, "mult": (dict, str)},
    "groupoid": {
        "objects": (list, str),
        "arrows": (list, _CELLS),
        "comp": (dict, str),
        "identities": (dict, str),
        "inverses": (dict, str),
    },
    "free groupoid": {"objects": (list, str), "generators": (list, _CELLS)},
    "2-groupoid": {
        "objects": (list, str),
        "cells1": (list, _CELLS),
        "comp1": (dict, str),
        "id1": (dict, str),
        "inv1": (dict, str),
        "cells2": (list, _CELLS),
        "vcomp": (dict, str),
        "hcomp": (dict, str),
        "id2": (dict, str),
        "vinv": (dict, str),
    },
    "simplicial groupoid": {
        "objects": (list, str),
        "levels": (list, dict),
        "faces": (dict, dict),
        "degeneracies": (dict, dict),
    },
    "chain complex": {"groups": (list, list), "boundaries": (list, list)},
    "simplicial map": {"levels": (list, (dict, str))},
    "simplicial groupoid map": {"obj_map": (dict, str), "levels": (list, dict)},
    "lifting problem": {"i": dict, "top": dict, "p": dict, "bottom": dict},
    "transpose document": {
        "direction": str,
        "complex": dict,
        "groupoid": dict,
        "depth": int,
        "map": dict,
    },
    "2-functor": {"source": dict, "target": dict, **_MAPS2},
    "2-groupoid map": _MAPS2,
    "presheaf": {"site": dict, "domain": str, "values": dict, "restrictions": dict},
    "natural transformation": {
        "domain": str,
        "source": dict,
        "target": dict,
        "components": dict,
    },
}


def _check_shape(data, what):
    """Reject a ``what`` document whose fields do not have their JSON types."""
    if not isinstance(data, dict):
        raise ValueError(f"a {what} must be an object, got {_JSON_TYPES[type(data)]}")
    _check_fields(data, _SHAPES[what], what)


def _require(data, fields, where):
    """Reject an object ``data`` that lacks one of ``fields``, naming the field."""
    for field in fields:
        if field not in data:
            raise ValueError(f"{where} has no {field} field")


def _check_fields(data, shapes, where):
    """Check each field of the object ``data`` against its shape in ``shapes``."""
    _require(data, shapes, where)
    for field, shape in shapes.items():
        outer, inner = shape if isinstance(shape, tuple) else (shape, None)
        value = data[field]
        if not isinstance(value, outer):
            raise ValueError(
                f"{where} {field} must be {_JSON_TYPES[outer]}, got {_JSON_TYPES[type(value)]}"
            )
        if inner is not None:
            _check_entries(value, inner, f"{where} {field}")


def _check_entries(value, inner, where):
    """Check each entry of the array or object ``value`` against ``inner``."""
    fields = inner if isinstance(inner, dict) else None
    kind, nested = inner if isinstance(inner, tuple) else (dict if fields else inner, None)
    for entry in value.values() if isinstance(value, dict) else value:
        if not isinstance(entry, kind):
            raise ValueError(
                f"{where} holds {_JSON_TYPES[type(entry)]} where {_JSON_TYPES[kind]} belongs"
            )
        if fields:
            _check_fields(entry, fields, where)
        elif nested:
            _check_entries(entry, nested, where)


def _string_ids(value, what):
    if not isinstance(value, list):
        raise ValueError(f"{what} must be an array of string ids, got {_JSON_TYPES[type(value)]}")
    for x in value:
        if not isinstance(x, str):
            raise ValueError(f"{what} holds {_JSON_TYPES[type(x)]} where a string id belongs")


# -- table keys and arrows -----------------------------------------------------------


def split_pair_key(key):
    """The two ids of a key ``"a|b"`` of a JSON product or composition table."""
    parts = key.split("|")
    if len(parts) != 2:
        raise ValueError(f"table key {key!r} is not two ids joined by '|'")
    return tuple(parts)


def _pairs(table):
    return {split_pair_key(key): value for key, value in table.items()}


def operator_key(key):
    """The level n and index i of a key ``"n,i"`` of a JSON face or degeneracy
    table, written as ``to_json`` writes it."""
    n, _, i = key.partition(",")
    try:
        pair = int(n), int(i)
    except ValueError:
        pair = None
    if pair is None or key != f"{pair[0]},{pair[1]}":
        raise ValueError(f"operator table key {key!r} is not two integers n,i")
    return pair


def _cells(cells):
    return {c["id"]: (c["src"], c["tgt"]) for c in cells}


def arrow_from_json(gpd, data):
    """The arrow ``arrow_to_json`` writes as ``data``."""
    if not gpd.is_free:
        if not isinstance(data, str):
            raise ValueError(f"arrow {data!r} is not a string id")
        return data
    if not (
        isinstance(data, dict)
        and isinstance(data.get("src"), str)
        and isinstance(data.get("letters"), list)
        and all(isinstance(letter, list) and len(letter) == 2 for letter in data["letters"])
    ):
        raise ValueError(
            f"free arrow {data!r} is not an object with a string src and an array of "
            "[generator, exponent] letters"
        )
    src = data["src"]
    arrow = gpd.word([(g, e) for g, e in data["letters"]], at=src)
    if arrow.src != src:
        raise ValueError(f"free arrow src {src!r} is not {arrow.src!r}, where its letters start")
    return arrow


def _level_hom(table, source, target, obj_map, reading):
    """The groupoid map sending each arrow of ``table`` to the target arrow it writes."""

    def build():
        arrow_map = {a: arrow_from_json(target, v) for a, v in table.items()}
        return GroupoidHom(source, target, obj_map, arrow_map)

    return reading.share(("groupoid map", source, target), (table, obj_map), build)


# -- one reader per kind -----------------------------------------------------------------
#
# A reader takes a document whose shape is checked and the ``Reading`` it is
# part of, and builds its object without a law check.


def _site(data, reading):
    return FiniteSite(
        data["objects"], _cells(data["arrows"]), _pairs(data["comp"]), data["identities"],
        data["covers"],
    )


def _group(data, reading):
    return GroupTable(data["elements"], _pairs(data["mult"]), data["identity"])


def _groupoid(data, reading):
    return FiniteGroupoid(
        data["objects"], _cells(data["arrows"]), _pairs(data["comp"]),
        dict(data["identities"]), dict(data["inverses"]),
    )


def _free_groupoid(data, reading):
    return FreeGroupoid(data["objects"], _cells(data["generators"]))


def _free(data):
    """Whether a groupoid document is free: it has a ``free`` field, which must be true."""
    if "free" not in data:
        return False
    if data["free"] is not True:
        raise ValueError(f"groupoid free must be true, got {json.dumps(data['free'])}")
    return True


def _2gpd(data, reading):
    return TwoGroupoid(
        data["objects"], _cells(data["cells1"]), _pairs(data["comp1"]), data["id1"], data["inv1"],
        _cells(data["cells2"]), _pairs(data["vcomp"]), _pairs(data["hcomp"]), data["id2"],
        data["vinv"],
    )


def _sset(data, reading):
    """A simplicial set whose levels are arrays of string ids and whose face and
    degeneracy tables map string ids to string ids; it checks its own shape."""
    if not isinstance(data, dict):
        raise ValueError(f"a simplicial set must be an object, got {_JSON_TYPES[type(data)]}")
    _require(data, ("depth", "levels", "faces", "degeneracies"), "simplicial set")
    levels = data["levels"]
    if not isinstance(levels, list):
        raise ValueError(f"levels must be an array of levels, got {_JSON_TYPES[type(levels)]}")
    for n, level in enumerate(levels):
        _string_ids(level, f"level {n}")
    for name in ("faces", "degeneracies"):
        tables = data[name]
        if not isinstance(tables, dict):
            raise ValueError(f"{name} must be an object of tables, got {_JSON_TYPES[type(tables)]}")
        for key, table in tables.items():
            if not isinstance(table, dict):
                raise ValueError(
                    f"{name} table {key} must be an object, got {_JSON_TYPES[type(table)]}"
                )
            _string_ids(list(table.values()), f"{name} table {key}")
    faces, degeneracies = (
        {operator_key(key): table for key, table in data[name].items()}
        for name in ("faces", "degeneracies")
    )
    return TruncatedSimplicialSet(data["depth"], levels, faces, degeneracies)


def _sgpd(data, reading):
    """A simplicial groupoid whose ``depth`` is its number of levels less one
    and whose operator tables are keyed within that depth."""
    _require(data, ("depth",), "simplicial groupoid")
    depth, objects = data["depth"], data["objects"]
    if type(depth) is not int:
        raise ValueError(
            f"simplicial groupoid depth must be an integer, got {_JSON_TYPES[type(depth)]}"
        )
    if depth != len(data["levels"]) - 1:
        raise ValueError(
            f"simplicial groupoid depth {depth} does not match its {len(data['levels'])} levels"
        )
    # one rule, a groupoid's free field, tells free levels from finite ones
    levels = [reading.read("free_groupoid" if _free(g) else "groupoid", g) for g in data["levels"]]
    obj_map = {o: o for o in objects}
    operators = []
    for name, low, high, shift in (("faces", 1, depth, -1), ("degeneracies", 0, depth - 1, 1)):
        homs = {}
        for key, table in data[name].items():
            n, i = operator_key(key)
            if not (low <= n <= high and 0 <= i <= n):
                raise ValueError(
                    f"simplicial groupoid {name} table {key} is outside depth {depth}"
                )
            homs[n, i] = _level_hom(table, levels[n], levels[n + shift], obj_map, reading)
        operators.append(homs)
    return SimplicialGroupoid(objects, levels, *operators)


def _chain(data, reading):
    """A chain fixture: moduli per degree and, for each degree i >= 1, the
    images of the generators of C_i in C_(i-1) as coordinate lists."""
    groups = [FiniteAbelianGroup(m) for m in data["groups"]]
    images = data["boundaries"]
    need = max(len(groups) - 1, 0)
    if len(images) != need:
        raise ValueError(f"{len(groups)} chain groups need {need} boundaries, got {len(images)}")
    boundaries = []
    for i, gens in enumerate(images, start=1):
        _check_entries(gens, list, f"chain complex boundary {i}")
        boundaries.append(AbelianHom(groups[i], groups[i - 1], [tuple(v) for v in gens]))
    return ChainFixture(groups, boundaries)


def _section(values, u):
    """The value of a presheaf at the object ``u``, which its values must hold."""
    if u not in values:
        raise ValueError(f"presheaf values has no entry for object {u!r}")
    return values[u]


def _presheaf(data, reading):
    site = reading.read("site", data["site"])
    domain = data["domain"]
    io = DOMAIN_IO.get(domain)
    if io is None:
        raise ValueError(f"unknown domain {domain!r}")
    values = {u: io.read_value(v, reading) for u, v in data["values"].items()}
    restrictions = {}
    for a, m in data["restrictions"].items():
        if a not in site.arrows:
            raise ValueError(f"presheaf restrictions key {a!r} is not an arrow of the site")
        v, u = site.arrows[a]
        restrictions[a] = io.read_map(m, _section(values, u), _section(values, v), reading)
    return Presheaf(site, domain, values, restrictions)


# -- the kinds -------------------------------------------------------------------------


class Kind(NamedTuple):
    """One kind of document, and what the command line answers for it."""

    test: object  # document -> bool, asked only if no earlier kind claims it
    shape: str  # its _SHAPES entry, or None: its reader checks its own shape
    parse: object  # its reader, of a document whose shape is checked
    needs: str  # fills "<command> needs ...", or None: no command needs it
    validated: bool  # whether hpk validate reports its violations
    pi0: object  # its path components, or None: pi0 does not handle it
    bounds: object  # the sizes hpk bounds reports, or None

    def read(self, data, reading):
        """The object of a document of this kind, its shape checked but not its
        laws; ``Reading.read`` is this read once per distinct sub-document."""
        if self.shape is not None:
            _check_shape(data, self.shape)
        return self.parse(data, reading)


def _has(*fields):
    fields = frozenset(fields)
    return lambda data: data.keys() >= fields


def _is_sgpd(data):
    """A simplicial groupoid has levels and a depth; with faces, its first level
    is an object (a simplicial set's is an array), without, it has objects."""
    if "levels" not in data or "depth" not in data:
        return False
    if "faces" not in data:
        return "objects" in data
    levels = data["levels"]
    return isinstance(levels, list) and bool(levels) and isinstance(levels[0], dict)


def _level_size(level):
    return len(level.generators) if level.is_free else len(level.arrows)


def _counts(*fields):
    """The bounds of a document: the number of entries of each of ``fields``."""
    return lambda x: {field: len(getattr(x, field)) for field in fields}


def _sgpd_bounds(x):
    return {"levels": [{"generators" if l.is_free else "arrows": _level_size(l)} for l in x.levels]}


# the sizes ``hpk bounds`` reports for a presheaf's section, by its value domain
_SECTION_BOUNDS = {
    "set": len,
    "group": lambda x: x.order,
    "sset": lambda x: x.level_sizes(),
    "sgpd": lambda x: [_level_size(level) for level in x.levels],
    "2gpd": _counts("cells1", "cells2"),
}


def _presheaf_bounds(x):
    return {"sections": {u: _SECTION_BOUNDS[x.domain](x.values[u]) for u in x.site.objects}}


# one row per document kind, in the order ``detect_kind`` tries them
KINDS = {
    "site": Kind(_has("covers"), "site", _site, "a site", False, None,
                 _counts("objects", "arrows")),
    "2gpd": Kind(_has("cells2"), "2-groupoid", _2gpd, "a 2-groupoid", True, None,
                 _counts("objects", "cells1", "cells2")),
    "sgpd": Kind(_is_sgpd, "simplicial groupoid", _sgpd, "a simplicial groupoid", True, pi0_sgpd,
                 _sgpd_bounds),
    "sset": Kind(_has("faces", "depth", "levels"), None, _sset, "a simplicial set", True, pi0_sset,
                 lambda x: {"levels": x.level_sizes()}),
    "free_groupoid": Kind(_free, "free groupoid", _free_groupoid, None, False, pi0_groupoid,
                          _counts("objects", "generators")),
    "groupoid": Kind(_has("arrows", "comp"), "groupoid", _groupoid, None, True, pi0_groupoid,
                     _counts("objects", "arrows")),
    "presheaf": Kind(_has("domain", "values"), "presheaf", _presheaf, "a presheaf", True, None,
                     _presheaf_bounds),
    "chain": Kind(_has("groups", "boundaries"), "chain complex", _chain, None, False, None, None),
    "group": Kind(_has("elements", "mult"), "group", _group, None, False, None, None),
}


def chain_from_json(data):
    """The chain fixture of a chain document; it checks itself as it is built."""
    return Reading().read("chain", data)


def chain_to_json(chain):
    return {
        "groups": [list(g.moduli) for g in chain.groups],
        "boundaries": [
            [list(v) for v in bnd.generator_images] for bnd in chain.boundaries
        ],
    }


# -- maps and presheaves -------------------------------------------------------------


def _sorted(table):
    return dict(sorted(table.items()))


def _set_value(data, reading):
    _string_ids(data, "set value")
    return tuple(data)


def _kind_value(kind):
    """The reader of a value that is a document of ``kind``."""
    return lambda data, reading: reading.read(kind, data)


def _table_map(domain):
    """The reader of a map of sets or of groups: an object of string ids."""

    def read(data, source, target, reading):
        if not isinstance(data, dict):
            raise ValueError(f"a {domain} map must be an object, got {_JSON_TYPES[type(data)]}")
        _check_entries(data, str, f"{domain} map")
        return dict(data)

    return read


def _map_reader(shape, build):
    """The reader of a map whose fields have the shape ``shape``: equal map
    documents between the same source and target give one map per reading."""

    def read(data, source, target, reading):
        def make():
            _check_shape(data, shape)
            return build(data, source, target, reading)

        return reading.share((shape, source, target), data, make)

    return read


def _sset_map(data, source, target, reading):
    return SimplicialMap(source, target, data["levels"])


def _sgpd_map(data, source, target, reading):
    obj_map, levels = data["obj_map"], data["levels"]
    if len(levels) != len(source.levels):
        raise ValueError(f"{_CHECKS[SimplicialGroupoidMap][0]}: wrong number of level maps")
    # a shallower target leaves too few level maps, which the law check names
    level_homs = [
        _level_hom(table, s, t, obj_map, reading)
        for table, s, t in zip(levels, source.levels, target.levels)
    ]
    return SimplicialGroupoidMap(source, target, obj_map, level_homs)


def _sgpd_map_json(sg_map):
    return {
        "obj_map": _sorted(sg_map.obj_map),
        "levels": [
            {a: arrow_to_json(hom.target, v) for a, v in sorted(hom.arrow_map.items())}
            for hom in sg_map.level_homs
        ],
    }


def _2gpd_map(data, source, target, reading):
    return TwoFunctor(source, target, data["objects"], data["map1"], data["map2"])


def _2gpd_map_json(func):
    return {
        "objects": _sorted(func.obj_map),
        "map1": _sorted(func.map1),
        "map2": _sorted(func.map2),
    }


# How the values of a presheaf domain and the maps between them are read and
# written.  A value reader takes the document and the ``Reading`` it is part
# of; a map reader takes the document, the map's source and target and the
# reading.  Both check the document's shape and build without a law check.
Domain = namedtuple("Domain", "read_value write_value read_map write_map")
_to_json = methodcaller("to_json")

# one row per value domain of ``presheaves.DOMAINS``
DOMAIN_IO = {
    "set": Domain(_set_value, list, _table_map("set"), _sorted),
    "group": Domain(_kind_value("group"), _to_json, _table_map("group"), _sorted),
    "sset": Domain(_kind_value("sset"), _to_json, _map_reader("simplicial map", _sset_map),
                   _to_json),
    "sgpd": Domain(_kind_value("sgpd"), _to_json,
                   _map_reader("simplicial groupoid map", _sgpd_map), _sgpd_map_json),
    "2gpd": Domain(_kind_value("2gpd"), _to_json, _map_reader("2-groupoid map", _2gpd_map),
                   _2gpd_map_json),
}


def _map_document(domain, morphism):
    """A map with its endpoints inline, tagged with its domain."""
    return {
        "map": domain,
        "source": morphism.source.to_json(),
        "target": morphism.target.to_json(),
        **DOMAIN_IO[domain].write_map(morphism),
    }


def smap_to_json(smap):
    return _map_document("sset", smap)


def sgpd_map_to_json(sg_map):
    return _map_document("sgpd", sg_map)


def functor2_to_json(func):
    return _map_document("2gpd", func)


def smap_from_json(data, reading=None):
    """The checked map of a simplicial map document, read as part of
    ``reading`` if one is given, else as a document of its own."""
    reading = Reading() if reading is None else reading
    _check_shape(data, "simplicial map")
    # the endpoints are simplicial set documents, shape-checked by their reader
    _require(data, ("source", "target"), "simplicial map")
    source, target = reading.read("sset", data["source"]), reading.read("sset", data["target"])
    smap = reading.share(
        ("simplicial map", source, target), data, lambda: _sset_map(data, source, target, reading)
    )
    return checked(smap, reading.passed)


def functor2_from_json(data):
    # the 2-functor shape holds the fields of a 2-groupoid map
    _check_shape(data, "2-functor")
    reading = Reading()
    source, target = reading.read("2gpd", data["source"]), reading.read("2gpd", data["target"])
    return checked(_2gpd_map(data, source, target, reading), reading.passed)


def presheaf_to_json(presheaf):
    site, io = presheaf.site, DOMAIN_IO[presheaf.domain]
    return {
        "site": site.to_json(),
        "domain": presheaf.domain,
        "values": {u: io.write_value(presheaf.values[u]) for u in site.objects},
        "restrictions": {a: io.write_map(presheaf.restrictions[a]) for a in sorted(site.arrows)},
    }


def nat_to_json(nat):
    io = DOMAIN_IO[nat.source.domain]
    return {
        "nat": True,
        "domain": nat.source.domain,
        "source": presheaf_to_json(nat.source),
        "target": presheaf_to_json(nat.target),
        "components": {u: io.write_map(nat.components[u]) for u in nat.source.site.objects},
    }


def _same_site(a, b):
    """Whether two sites have the same objects, arrows, composites, identities
    and covering sieves."""
    return a is b or (
        (a.objects, a.arrows, a.comp, a.identities) == (b.objects, b.arrows, b.comp, b.identities)
        and {u: set(s) for u, s in a.covers.items()} == {u: set(s) for u, s in b.covers.items()}
    )


def nat_from_json(data, reading=None):
    """The checked transformation of a natural transformation document, read
    as part of ``reading`` if one is given, else as a document of its own."""
    reading = Reading() if reading is None else reading
    _check_shape(data, "natural transformation")
    source, target = reading.read("presheaf", data["source"]), reading.read("presheaf", data["target"])
    for side, presheaf in (("source", source), ("target", target)):
        if presheaf.domain != data["domain"]:
            raise ValueError(
                f"natural transformation domain {data['domain']!r} does not match "
                f"the domain {presheaf.domain!r} of its {side}"
            )
    if not _same_site(source.site, target.site):
        raise ValueError("natural transformation source and target are not on the same site")
    io = DOMAIN_IO[source.domain]

    def build():
        components = {}
        for u, m in data["components"].items():
            if u not in source.site.objects:
                raise ValueError(
                    f"natural transformation components key {u!r} is not an object of the site"
                )
            components[u] = io.read_map(
                m, _section(source.values, u), _section(target.values, u), reading
            )
        return NaturalTransformation(source, target, components)

    nat = reading.share(("natural transformation", source, target), data, build)
    return checked(nat, reading.passed)


# -- output ---------------------------------------------------------------------------
#
# ``indent`` makes ``json`` fall back to its pure-Python encoder.  The nerve ids
# repeat across levels, faces and degeneracies, so ``dumps`` escapes each distinct
# string once per call through ``memo`` and appends every chunk to one list.  The
# recursion is plain module functions, not a closure, so a call leaves no reference
# cycle keeping ``memo`` and the chunks alive until the next cyclic collection.
# Payloads are trees built by hpk: cycles are not detected.

_INF = float("inf")


def dumps(payload):
    """The text ``json`` writes for ``payload`` with ``sort_keys=True`` and
    ``indent=2``, plus a newline; a value it cannot write raises ``json``'s TypeError."""
    chunks = []
    _value(payload, "\n", {}, chunks.append)
    chunks.append("\n")
    return "".join(chunks)


def _float(o):
    if o != o:
        return "NaN"
    if o == _INF:
        return "Infinity"
    if o == -_INF:
        return "-Infinity"
    return float.__repr__(o)


def _atom(o):
    """The text of a value that is not a string, list, tuple or dict."""
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _key(o):
    """A dict key as the string ``json`` writes for it."""
    if isinstance(o, str):
        return o
    if isinstance(o, float):
        return _float(o)
    if isinstance(o, bool) or o is None:
        return _atom(o)
    if isinstance(o, int):
        return int.__repr__(o)
    raise TypeError(f"keys must be str, int, float, bool or None, not {o.__class__.__name__}")


def _value(o, indent, memo, append):
    if isinstance(o, str):
        text = memo.get(o)
        if text is None:
            text = memo[o] = encode_basestring_ascii(o)
        append(text)
    elif isinstance(o, (list, tuple)):
        _list(o, indent, memo, append)
    elif isinstance(o, dict):
        _dict(o, indent, memo, append)
    else:
        append(_atom(o))


def _list(items, indent, memo, append):
    if not items:
        append("[]")
        return
    inner = indent + "  "
    comma, sep = "," + inner, "[" + inner
    for o in items:
        append(sep)
        sep = comma
        if type(o) is str:
            text = memo.get(o)
            if text is None:
                text = memo[o] = encode_basestring_ascii(o)
            append(text)
        else:
            _value(o, inner, memo, append)
    append(indent + "]")


def _dict(table, indent, memo, append):
    if not table:
        append("{}")
        return
    inner = indent + "  "
    comma, sep = "," + inner, "{" + inner
    for key, o in sorted(table.items()):
        append(sep)
        sep = comma
        if type(key) is not str:
            key = _key(key)
        text = memo.get(key)
        if text is None:
            text = memo[key] = encode_basestring_ascii(key)
        append(text)
        append(": ")
        if type(o) is str:
            text = memo.get(o)
            if text is None:
                text = memo[o] = encode_basestring_ascii(o)
            append(text)
        else:
            _value(o, inner, memo, append)
    append(indent + "}")
