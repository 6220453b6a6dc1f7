"""Span recording for the traced benchmark run.

Spans are recorded at the public functions of each hpk layer by wrapping
them from outside: the wrapper replaces the function in every loaded hpk
module that holds it, so calls made by the CLI and by other layers are seen
too.  Nothing is installed in the untraced run, which therefore pays no cost.
Spans stay in memory until the run ends.
"""

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        # one entry per span: [name, start, end, parent index, op index]
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)
        self.op = -1

    def enter(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def exit(self, index):
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    def self_times(self):
        """Seconds per span name, minus the time covered by child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            totals[name] += end - start - inner
        return totals


def _wrap(tracer, layer, fn, count):
    if inspect.isgeneratorfunction(fn):
        # a span per resumption, so only the generator's own work is timed
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.counts[layer + ".calls"] += 1
            inner = fn(*args, **kwargs)
            produced = 0
            while True:
                index = tracer.enter(layer)
                try:
                    item = next(inner)
                except StopIteration:
                    break
                finally:
                    tracer.exit(index)
                produced += 1
                yield item
            if count:
                count(tracer, args, kwargs, produced)

        return traced

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.counts[layer + ".calls"] += 1
        index = tracer.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(index)
        if count:
            count(tracer, args, kwargs, result)
        return result

    return traced


def _meter_units(tracer, layer, kwargs):
    tracer.counts[layer + ".work_units"] += kwargs["meter"].used


def _count_nerve(tracer, args, kwargs, result):
    tracer.counts["two_groupoids.nerve.simplices"] += sum(result.level_sizes())


def _count_wbar(tracer, args, kwargs, result):
    tracer.counts["loop.wbar.simplices"] += sum(result.sset.level_sizes())


def _count_dold_kan(tracer, args, kwargs, result):
    tracer.counts["groupoids.dold_kan.arrows"] += sum(
        len(level.arrows) for level in result.levels
    )


def _count_sset_validate(tracer, args, kwargs, result):
    tracer.counts["sset.validate.simplices"] += sum(args[0].level_sizes())


def _count_sgpd_maps(tracer, args, kwargs, result):
    if kwargs.get("meter") is not None:
        tracer.counts["loop.enumerate_sgpd_maps.maps"] += len(result)
        _meter_units(tracer, "loop.enumerate_sgpd_maps", kwargs)


def _count_simplicial_maps(tracer, args, kwargs, produced):
    # maps and work units come from the same calls, those that carry a
    # meter, so their ratio is a yield; unmetered calls (the fibration
    # checks in model_checks) add to the self time only
    if kwargs.get("meter") is not None:
        tracer.counts["homsearch.enumerate_simplicial_maps.maps"] += produced
        _meter_units(tracer, "homsearch.enumerate_simplicial_maps", kwargs)


def _count_lifting(tracer, args, kwargs, result):
    tracer.counts["lifting.solve_lifting.search_nodes"] += result.get("search_nodes") or 0


# (module, attribute or Class.method, layer name, count hook)
TARGETS = [
    ("hpk.two_groupoids", "nerve", "two_groupoids.nerve", _count_nerve),
    ("hpk.two_groupoids", "TwoGroupoid.validate", "two_groupoids.validate_2gpd", None),
    ("hpk.two_groupoids", "pi_2gpd", "two_groupoids.pi_2gpd", None),
    ("hpk.groupoids", "dold_kan", "groupoids.dold_kan", _count_dold_kan),
    ("hpk.groupoids", "FiniteGroupoid.validate", "groupoids.validate", None),
    ("hpk.groupoids", "SimplicialGroupoid.validate", "groupoids.validate", None),
    ("hpk.groupoids", "moore_pi_n", "groupoids.moore_pi_n", None),
    ("hpk.loop", "wbar", "loop.wbar", _count_wbar),
    ("hpk.loop", "loop_groupoid", "loop.loop_groupoid", None),
    ("hpk.loop", "w_total", "loop.w_total", None),
    ("hpk.loop", "enumerate_sgpd_maps", "loop.enumerate_sgpd_maps", _count_sgpd_maps),
    ("hpk.sset", "TruncatedSimplicialSet.validate", "sset.validate", _count_sset_validate),
    ("hpk.kan", "pi_n_kan", "kan.pi_n_kan", None),
    ("hpk.kan", "kan_report", "kan.kan_report", None),
    (
        "hpk.homsearch",
        "enumerate_simplicial_maps",
        "homsearch.enumerate_simplicial_maps",
        _count_simplicial_maps,
    ),
    ("hpk.groups", "GroupTable.iso_to", "groups.iso_to", None),
    ("hpk.abelian", "ChainFixture.homology", "abelian.homology", None),
    ("hpk.whitehead", "counit_weak_equivalence", "whitehead.counit_weak_equivalence", None),
    ("hpk.lifting", "solve_lifting", "lifting.solve_lifting", _count_lifting),
    ("hpk.presheaves", "sheafify", "presheaves.sheafify", None),
    ("hpk.presheaves", "is_weak_equivalence", "presheaves.is_weak_equivalence", None),
    ("hpk.model_checks", "pullback_sgpd", "model_checks", None),
    ("hpk.model_checks", "wbar_fibration_instance", "model_checks", None),
    ("hpk.model_checks", "pushout_free_sgpd", "model_checks", None),
    ("hpk.model_checks", "free_instance_weak_equivalence", "model_checks", None),
    # the CLI parses each file in its own _read; that parsing is counted
    # as part of jsonio.load, beside the building of objects from it
    ("hpk.cli", "_read", "jsonio.load", None),
    ("hpk.jsonio", "load_object", "jsonio.load", None),
    ("hpk.jsonio", "load_object_unchecked", "jsonio.load", None),
    ("hpk.jsonio", "chain_from_json", "jsonio.load", None),
    ("hpk.jsonio", "smap_from_json", "jsonio.load", None),
    ("hpk.jsonio", "nat_from_json", "jsonio.load", None),
    ("hpk.cli", "main", "cli.main", None),
]


def install(tracer):
    """Wrap every target in the loaded hpk modules; returns an undo function."""
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "hpk"]
    undo = []
    for module_name, attr, layer, count in TARGETS:
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, _wrap(tracer, layer, original, count))
            undo.append((cls, method, original))
            continue
        original = getattr(module, attr)
        wrapped = _wrap(tracer, layer, original, count)
        for holder in modules:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapped)
                    undo.append((holder, key, original))

    def restore():
        for holder, key, original in reversed(undo):
            setattr(holder, key, original)

    return restore
