"""JSON encodings for every object the command line reads or writes.

The simplicial-set and site formats are fixed; maps and presheaves carry
their endpoints inline so a single file is self-contained.  Kinds are
inferred from the key shape where unambiguous.

This is where hpk checks its input.  Constructors only store their data; every
reader here runs ``validate()`` on each object it builds, parts before the
objects built from them, and rejects the first invalid one with
``ValueError("invalid <what>: ...")``.  Chain documents are the exception:
``AbelianHom`` and ``ChainFixture`` check themselves on construction.

It is also where hpk writes its output: ``dumps`` gives the text the ``json``
module writes with ``sort_keys=True`` and ``indent=2``, plus a newline.
"""

from collections import namedtuple
from json.encoder import encode_basestring_ascii
from operator import methodcaller

from .abelian import AbelianHom, ChainFixture, FiniteAbelianGroup
from .groups import GroupTable
from .groupoids import (
    FiniteGroupoid,
    FreeGroupoid,
    GroupoidHom,
    SimplicialGroupoid,
    SimplicialGroupoidMap,
    arrow_from_json,
    arrow_to_json,
)
from .lifting import LiftingProblem
from .presheaves import NaturalTransformation, Presheaf
from .sites import FiniteSite
from .sset import SimplicialMap, TruncatedSimplicialSet, operator_key
from .two_groupoids import TwoFunctor, TwoGroupoid


# the start of the error a failed law check raises, by the class checked
_INVALID = {
    TruncatedSimplicialSet: "invalid simplicial set",
    SimplicialMap: "invalid simplicial map",
    FiniteGroupoid: "invalid groupoid",
    GroupoidHom: "invalid groupoid map",
    SimplicialGroupoid: "invalid simplicial groupoid",
    SimplicialGroupoidMap: "invalid simplicial groupoid map",
    GroupTable: "not a group",
    TwoGroupoid: "invalid 2-groupoid",
    TwoFunctor: "invalid 2-functor",
    FiniteSite: "invalid site",
    Presheaf: "invalid presheaf",
    NaturalTransformation: "invalid natural transformation",
    LiftingProblem: "invalid lifting problem",
}


def check(obj):
    """``obj`` if ``obj.validate()`` finds nothing; else a ValueError naming
    the first three violations.  Objects without a law check pass as they are."""
    what = _INVALID.get(type(obj))
    if what is not None:
        problems = obj.validate()
        if problems:
            raise ValueError(f"{what}: " + "; ".join(problems[:3]))
    return obj


def _parts(obj):
    """The objects ``obj`` is built from, in the order its document lists them."""
    if isinstance(obj, SimplicialGroupoid):
        return [*obj.levels, *obj.faces.values(), *obj.degeneracies.values()]
    if isinstance(obj, SimplicialGroupoidMap):
        return [obj.source, obj.target, *obj.level_homs]
    if isinstance(obj, (SimplicialMap, TwoFunctor)):
        return [obj.source, obj.target]
    if isinstance(obj, Presheaf):
        return [obj.site, *obj.values.values(), *obj.restrictions.values()]
    if isinstance(obj, NaturalTransformation):
        return [obj.source, obj.target, *obj.components.values()]
    return []


def check_parts(obj):
    """Check, once each, every object ``obj`` is built from, inner ones first."""
    seen = set()

    def walk(x):
        for part in _parts(x):
            if id(part) not in seen:
                seen.add(id(part))
                walk(part)
                check(part)

    walk(obj)
    return obj


def checked(obj):
    """``obj`` once it and everything it is built from pass their law checks."""
    return check(check_parts(obj))


def load_object_unchecked(data):
    """(kind, object) of a document, parsed without any law check."""
    kind = detect_kind(data)
    return kind, LOADERS[kind](data)


def detect_kind(data):
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    if "covers" in data:
        return "site"
    if "cells2" in data:
        return "2gpd"
    if "faces" in data and "depth" in data and "levels" in data:
        levels = data["levels"]
        if isinstance(levels, list) and levels and isinstance(levels[0], dict):
            return "sgpd"
        return "sset"
    if "levels" in data and "objects" in data and "depth" in data:
        return "sgpd"
    if "generators" in data and "free" in data:
        return "free_groupoid"
    if "arrows" in data and "comp" in data:
        return "groupoid"
    if "domain" in data and "values" in data:
        return "presheaf"
    if "groups" in data and "boundaries" in data:
        return "chain"
    if "elements" in data and "mult" in data:
        return "group"
    raise ValueError("could not infer the kind of the JSON object")


def load_object(data):
    """(kind, object) of a document whose objects all pass their law checks."""
    kind, obj = load_object_unchecked(data)
    return kind, checked(obj)


# -- chains ----------------------------------------------------------------------


def _list_of_lists(value, what):
    if not isinstance(value, list) or not all(isinstance(v, list) for v in value):
        raise ValueError(f"{what} must be a list of lists")
    return value


def chain_from_json(data):
    """A chain fixture: moduli per degree and, for each degree i >= 1, the
    images of the generators of C_i in C_(i-1) as coordinate lists."""
    groups = [FiniteAbelianGroup(m) for m in _list_of_lists(data["groups"], "groups")]
    images = _list_of_lists(data["boundaries"], "boundaries")
    need = max(len(groups) - 1, 0)
    if len(images) != need:
        raise ValueError(f"{len(groups)} chain groups need {need} boundaries, got {len(images)}")
    boundaries = []
    for i, gens in enumerate(images, start=1):
        gens = _list_of_lists(gens, f"boundary {i}")
        boundaries.append(AbelianHom(groups[i], groups[i - 1], [tuple(v) for v in gens]))
    return ChainFixture(groups, boundaries)


def chain_to_json(chain):
    return {
        "groups": [list(g.moduli) for g in chain.groups],
        "boundaries": [
            [list(v) for v in bnd.generator_images] for bnd in chain.boundaries
        ],
    }


# -- simplicial sets --------------------------------------------------------------------


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


def _string_ids(value, what):
    if not isinstance(value, list):
        raise ValueError(f"{what} must be an array of string ids, got {_JSON_TYPES[type(value)]}")
    for x in value:
        if not isinstance(x, str):
            raise ValueError(f"{what} holds {_JSON_TYPES[type(x)]} where a string id belongs")


def sset_from_json(data):
    """A simplicial set whose levels are arrays of string ids and whose face and
    degeneracy tables map string ids to string ids; the laws are not checked."""
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
    return TruncatedSimplicialSet.from_json(data)


# -- sites, groups, groupoids and 2-groupoids -------------------------------------------


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


def _shaped(what, parse):
    """A reader that checks the shape of a ``what`` document before ``parse`` reads it."""

    def read(data):
        _check_shape(data, what)
        return parse(data)

    return read


site_from_json = _shaped("site", FiniteSite.from_json)
group_from_json = _shaped("group", GroupTable.from_json)
groupoid_from_json = _shaped("groupoid", FiniteGroupoid.from_json)
free_groupoid_from_json = _shaped("free groupoid", FreeGroupoid.from_json)
twogpd_from_json = _shaped("2-groupoid", TwoGroupoid.from_json)


def sgpd_from_json(data):
    """A simplicial groupoid whose ``depth`` is its number of levels less one
    and whose operator tables are keyed within that depth."""
    _check_shape(data, "simplicial groupoid")
    _require(data, ("depth",), "simplicial groupoid")
    depth, levels = data["depth"], data["levels"]
    if type(depth) is not int:
        raise ValueError(
            f"simplicial groupoid depth must be an integer, got {_JSON_TYPES[type(depth)]}"
        )
    if depth != len(levels) - 1:
        raise ValueError(
            f"simplicial groupoid depth {depth} does not match its {len(levels)} levels"
        )
    for level in levels:
        _check_shape(level, "free groupoid" if level.get("free") else "groupoid")
    for name, low, high in (("faces", 1, depth), ("degeneracies", 0, depth - 1)):
        for key in data[name]:
            n, i = operator_key(key)
            if not (low <= n <= high and 0 <= i <= n):
                raise ValueError(
                    f"simplicial groupoid {name} table {key} is outside depth {depth}"
                )
    return SimplicialGroupoid.from_json(data)


# -- maps and presheaves -------------------------------------------------------------


def _sorted(table):
    return dict(sorted(table.items()))


def _set_value(data):
    _string_ids(data, "set value")
    return tuple(data)


def _table_map(domain):
    """The reader of a map of sets or of groups: an object of string ids."""

    def read(data, source, target):
        if not isinstance(data, dict):
            raise ValueError(f"a {domain} map must be an object, got {_JSON_TYPES[type(data)]}")
        _check_entries(data, str, f"{domain} map")
        return dict(data)

    return read


def _sset_map(data, source, target):
    _check_shape(data, "simplicial map")
    return SimplicialMap(source, target, data["levels"])


def _sgpd_map(data, source, target):
    _check_shape(data, "simplicial groupoid map")
    obj_map, levels = data["obj_map"], data["levels"]
    if len(levels) != len(source.levels):
        raise ValueError(f"{_INVALID[SimplicialGroupoidMap]}: wrong number of level maps")
    # a shallower target leaves too few level maps, which the law check names
    level_homs = [
        GroupoidHom(s, t, obj_map, {a: arrow_from_json(t, v) for a, v in table.items()})
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


def _2gpd_map(data, source, target):
    _check_shape(data, "2-groupoid map")
    return TwoFunctor(source, target, data["objects"], data["map1"], data["map2"])


def _2gpd_map_json(func):
    return {
        "objects": _sorted(func.obj_map),
        "map1": _sorted(func.map1),
        "map2": _sorted(func.map2),
    }


# How the values of a presheaf domain and the maps between them are read and
# written.  A map reader takes the document and the map's source and target,
# checks the document's shape and builds the map without a law check.
Domain = namedtuple("Domain", "read_value write_value read_map write_map")
_to_json = methodcaller("to_json")

# one row per value domain of ``presheaves.DOMAINS``
DOMAIN_IO = {
    "set": Domain(_set_value, list, _table_map("set"), _sorted),
    "group": Domain(group_from_json, _to_json, _table_map("group"), _sorted),
    "sset": Domain(sset_from_json, _to_json, _sset_map, _to_json),
    "sgpd": Domain(sgpd_from_json, _to_json, _sgpd_map, _sgpd_map_json),
    "2gpd": Domain(twogpd_from_json, _to_json, _2gpd_map, _2gpd_map_json),
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


def smap_from_json(data):
    _check_shape(data, "simplicial map")
    # the endpoints are simplicial set documents, shape-checked by their reader
    _require(data, ("source", "target"), "simplicial map")
    source = sset_from_json(data["source"])
    target = sset_from_json(data["target"])
    return checked(_sset_map(data, source, target))


def functor2_from_json(data):
    _check_shape(data, "2-functor")
    source = twogpd_from_json(data["source"])
    target = twogpd_from_json(data["target"])
    return checked(_2gpd_map(data, source, target))


def presheaf_to_json(presheaf):
    site, io = presheaf.site, DOMAIN_IO[presheaf.domain]
    return {
        "site": site.to_json(),
        "domain": presheaf.domain,
        "values": {u: io.write_value(presheaf.values[u]) for u in site.objects},
        "restrictions": {a: io.write_map(presheaf.restrictions[a]) for a in sorted(site.arrows)},
    }


def _presheaf(data):
    _check_shape(data, "presheaf")
    site = site_from_json(data["site"])
    domain = data["domain"]
    io = DOMAIN_IO.get(domain)
    if io is None:
        raise ValueError(f"unknown domain {domain!r}")
    values = {u: io.read_value(v) for u, v in data["values"].items()}
    restrictions = {}
    for a, m in data["restrictions"].items():
        v, u = site.arrows[a]
        restrictions[a] = io.read_map(m, values[u], values[v])
    return Presheaf(site, domain, values, restrictions)


def nat_to_json(nat):
    io = DOMAIN_IO[nat.source.domain]
    return {
        "nat": True,
        "domain": nat.source.domain,
        "source": presheaf_to_json(nat.source),
        "target": presheaf_to_json(nat.target),
        "components": {u: io.write_map(nat.components[u]) for u in nat.source.site.objects},
    }


def nat_from_json(data):
    _check_shape(data, "natural transformation")
    source = _presheaf(data["source"])
    target = _presheaf(data["target"])
    for side, presheaf in (("source", source), ("target", target)):
        if presheaf.domain != data["domain"]:
            raise ValueError(
                f"natural transformation domain {data['domain']!r} does not match "
                f"the domain {presheaf.domain!r} of its {side}"
            )
    io = DOMAIN_IO[source.domain]
    components = {
        u: io.read_map(m, source.values[u], target.values[u])
        for u, m in data["components"].items()
    }
    return checked(NaturalTransformation(source, target, components))


# the parser of each kind, for load_object_unchecked (chains check themselves)
LOADERS = {
    "site": site_from_json,
    "2gpd": twogpd_from_json,
    "sset": sset_from_json,
    "sgpd": sgpd_from_json,
    "groupoid": groupoid_from_json,
    "free_groupoid": free_groupoid_from_json,
    "presheaf": _presheaf,
    "chain": chain_from_json,
    "group": group_from_json,
}


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
