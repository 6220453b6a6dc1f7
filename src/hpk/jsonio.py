"""JSON encodings for every object the command line reads or writes.

The simplicial-set and site formats are fixed; maps and presheaves carry
their endpoints inline so a single file is self-contained.  Kinds are
inferred from the key shape where unambiguous.

This is where hpk checks its input.  Constructors only store their data; every
reader here runs ``validate()`` on each object it builds, parts before the
objects built from them, and rejects the first invalid one with
``ValueError("invalid <what>: ...")``.  Chain documents are the exception:
``AbelianHom`` and ``ChainFixture`` check themselves on construction.
"""

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
from .sset import SimplicialMap, TruncatedSimplicialSet
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
        if data["levels"] and isinstance(data["levels"][0], dict):
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


# -- maps of single structures ------------------------------------------------------


def smap_to_json(smap):
    return {
        "map": "sset",
        "source": smap.source.to_json(),
        "target": smap.target.to_json(),
        "levels": [dict(sorted(m.items())) for m in smap.level_maps],
    }


def smap_from_json(data):
    source = TruncatedSimplicialSet.from_json(data["source"])
    target = TruncatedSimplicialSet.from_json(data["target"])
    return checked(SimplicialMap(source, target, data["levels"]))


def sgpd_map_to_json(sg_map):
    levels = []
    for hom in sg_map.level_homs:
        levels.append(
            {
                key: arrow_to_json(hom.target, value)
                for key, value in sorted(hom.arrow_map.items())
            }
        )
    return {
        "map": "sgpd",
        "source": sg_map.source.to_json(),
        "target": sg_map.target.to_json(),
        "obj_map": dict(sorted(sg_map.obj_map.items())),
        "levels": levels,
    }


def functor2_to_json(func):
    return {
        "map": "2gpd",
        "source": func.source.to_json(),
        "target": func.target.to_json(),
        "objects": dict(sorted(func.obj_map.items())),
        "map1": dict(sorted(func.map1.items())),
        "map2": dict(sorted(func.map2.items())),
    }


def functor2_from_json(data):
    return checked(
        TwoFunctor(
            TwoGroupoid.from_json(data["source"]),
            TwoGroupoid.from_json(data["target"]),
            data["objects"],
            data["map1"],
            data["map2"],
        )
    )


# -- presheaves -----------------------------------------------------------------------


def _value_to_json(domain, value):
    if domain == "set":
        return list(value)
    if domain == "group":
        return value.to_json()
    return value.to_json()


def _value_from_json(domain, data):
    if domain == "set":
        return tuple(data)
    if domain == "group":
        return GroupTable.from_json(data)
    if domain == "sset":
        return TruncatedSimplicialSet.from_json(data)
    if domain == "sgpd":
        return SimplicialGroupoid.from_json(data)
    if domain == "2gpd":
        return TwoGroupoid.from_json(data)
    raise ValueError(f"unknown domain {domain!r}")


def _morphism_to_json(domain, morphism, source, target):
    if domain in ("set", "group"):
        return dict(sorted(morphism.items()))
    if domain == "sset":
        return {"levels": [dict(sorted(m.items())) for m in morphism.level_maps]}
    if domain == "sgpd":
        return {
            "obj_map": dict(sorted(morphism.obj_map.items())),
            "levels": [
                {
                    key: arrow_to_json(hom.target, value)
                    for key, value in sorted(hom.arrow_map.items())
                }
                for hom in morphism.level_homs
            ],
        }
    if domain == "2gpd":
        return {
            "objects": dict(sorted(morphism.obj_map.items())),
            "map1": dict(sorted(morphism.map1.items())),
            "map2": dict(sorted(morphism.map2.items())),
        }
    raise ValueError(f"unknown domain {domain!r}")


def _morphism_from_json(domain, data, source, target):
    if domain in ("set", "group"):
        return dict(data)
    if domain == "sset":
        return SimplicialMap(source, target, data["levels"])
    if domain == "sgpd":
        level_homs = []
        for n, table in enumerate(data["levels"]):
            arrow_map = {
                key: arrow_from_json(target.levels[n], value)
                for key, value in table.items()
            }
            level_homs.append(
                GroupoidHom(
                    source.levels[n], target.levels[n], data["obj_map"], arrow_map
                )
            )
        return SimplicialGroupoidMap(source, target, data["obj_map"], level_homs)
    if domain == "2gpd":
        return TwoFunctor(source, target, data["objects"], data["map1"], data["map2"])
    raise ValueError(f"unknown domain {domain!r}")


def presheaf_to_json(presheaf):
    site = presheaf.site
    return {
        "site": site.to_json(),
        "domain": presheaf.domain,
        "values": {
            u: _value_to_json(presheaf.domain, presheaf.values[u])
            for u in site.objects
        },
        "restrictions": {
            a: _morphism_to_json(
                presheaf.domain,
                presheaf.restrictions[a],
                presheaf.values[site.tgt(a)],
                presheaf.values[site.src(a)],
            )
            for a in sorted(site.arrows)
        },
    }


def _presheaf(data):
    site = FiniteSite.from_json(data["site"])
    domain = data["domain"]
    values = {u: _value_from_json(domain, v) for u, v in data["values"].items()}
    restrictions = {}
    for a, m in data["restrictions"].items():
        v, u = site.arrows[a]
        restrictions[a] = _morphism_from_json(domain, m, values[u], values[v])
    return Presheaf(site, domain, values, restrictions)


def presheaf_from_json(data):
    return checked(_presheaf(data))


def nat_to_json(nat):
    return {
        "nat": True,
        "domain": nat.source.domain,
        "source": presheaf_to_json(nat.source),
        "target": presheaf_to_json(nat.target),
        "components": {
            u: _morphism_to_json(
                nat.source.domain,
                nat.components[u],
                nat.source.values[u],
                nat.target.values[u],
            )
            for u in nat.source.site.objects
        },
    }


def nat_from_json(data):
    source = _presheaf(data["source"])
    target = _presheaf(data["target"])
    components = {
        u: _morphism_from_json(
            data["domain"], m, source.values[u], target.values[u]
        )
        for u, m in data["components"].items()
    }
    return checked(NaturalTransformation(source, target, components))


# the parser of each kind, for load_object_unchecked (chains check themselves)
LOADERS = {
    "site": FiniteSite.from_json,
    "2gpd": TwoGroupoid.from_json,
    "sset": TruncatedSimplicialSet.from_json,
    "sgpd": SimplicialGroupoid.from_json,
    "groupoid": FiniteGroupoid.from_json,
    "free_groupoid": FreeGroupoid.from_json,
    "presheaf": _presheaf,
    "chain": chain_from_json,
    "group": GroupTable.from_json,
}
