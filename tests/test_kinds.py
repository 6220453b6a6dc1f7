"""The kind table of ``hpk.jsonio`` against the if-chain it replaced, and the
functions the benchmark's tracer wraps by name.

``reference_detect_kind`` is the if-chain detection the kind table replaced,
kept as a reference.  ``jsonio.detect_kind`` must give the same kind, or raise the
same error, on every JSON object the suite builds, at every depth of nesting:
the golden inputs, every invalid-document row of the CLI tests and the
documents the CLI fuzz tests draw.  The one rule that changed is the free
field: a document that reaches the free-groupoid test with a ``free`` field
is a free groupoid when the field is true and an input error otherwise.
"""

import importlib
import importlib.util
import inspect
import json
import os

from hypothesis import given, settings

from hpk import jsonio
from test_cli import INVALID_DOCUMENTS, MALFORMED_CHAINS
from test_fuzz_cli import lift_documents, mutated_documents
from test_golden_outputs import DOLDKAN_DOCUMENTS, domain_transformations, kind_documents


def reference_detect_kind(data):
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


def _outcome(detect, data):
    try:
        return "kind", detect(data)
    except ValueError as exc:
        return "error", str(exc)


# the kinds the reference tries before free groupoids
_BEFORE_FREE = {"site", "2gpd", "sset", "sgpd"}


def expected_outcome(data):
    """The reference's outcome under the one changed rule, the free field."""
    outcome = _outcome(reference_detect_kind, data)
    if outcome[0] == "error" and outcome[1] == "expected a JSON object":
        return outcome
    if "free" not in data or outcome[1] in _BEFORE_FREE:
        return outcome
    if data["free"] is True:
        return "kind", "free_groupoid"
    return "error", f"groupoid free must be true, got {json.dumps(data['free'])}"


def _nodes(node):
    """Every node of a JSON document, the root first."""
    yield node
    if isinstance(node, (dict, list)):
        for child in node.values() if isinstance(node, dict) else node:
            yield from _nodes(child)


def assert_same_kinds(document):
    for node in _nodes(document):
        assert _outcome(jsonio.detect_kind, node) == expected_outcome(node), node


def suite_documents():
    docs = {f"kind_{name}": doc for name, doc in kind_documents().items()}
    for name, nat in domain_transformations().items():
        docs[f"nat_{name}"] = jsonio.nat_to_json(nat)
    for name, (doc, _) in DOLDKAN_DOCUMENTS.items():
        docs[f"doldkan_{name}"] = doc
    for name, (build, *_) in INVALID_DOCUMENTS.items():
        docs[f"invalid_{name}"] = build()
    for name, doc in MALFORMED_CHAINS.items():
        docs[f"chain_{name}"] = doc
    return docs


def test_the_kind_table_detects_what_the_if_chain_detected():
    docs = suite_documents()
    for document in docs.values():
        assert_same_kinds(document)
    # every kind is met, and so is the changed rule
    found = {jsonio.detect_kind(doc) for doc in docs.values() if isinstance(doc, dict)
             and _outcome(jsonio.detect_kind, doc)[0] == "kind"}
    assert found == set(jsonio.KINDS)
    changed = [doc for doc in docs.values() if isinstance(doc, dict)
               and expected_outcome(doc) != _outcome(reference_detect_kind, doc)]
    assert len(changed) == 2


# the fields the detection reads, and the values it tells apart
_DETECTED_FIELDS = ["covers", "cells2", "faces", "depth", "objects", "generators", "arrows",
                    "comp", "domain", "values", "groups", "boundaries", "elements", "mult"]
_TOLD_APART = {"levels": ([{}], [[]], "x"), "free": (True, False)}


def test_the_kind_table_agrees_on_every_set_of_detected_fields():
    # the suite's documents leave some of the if-chain's branches untried
    for mask in range(1 << len(_DETECTED_FIELDS)):
        doc = {f: None for i, f in enumerate(_DETECTED_FIELDS) if mask >> i & 1}
        for levels in (None, *_TOLD_APART["levels"]):
            for free in (None, *_TOLD_APART["free"]):
                variant = dict(doc)
                if levels is not None:
                    variant["levels"] = levels
                if free is not None:
                    variant["free"] = free
                assert _outcome(jsonio.detect_kind, variant) == expected_outcome(variant), variant


@settings(max_examples=300, derandomize=True, deadline=None)
@given(mutated_documents())
def test_the_kind_table_agrees_on_mutated_documents(case):
    assert_same_kinds(case[1])


@settings(max_examples=60, derandomize=True, deadline=None)
@given(lift_documents())
def test_the_kind_table_agrees_on_lift_documents(doc):
    assert_same_kinds(doc)


def _tracer():
    """The benchmark's tracer module, read from its file without running the benchmark."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    """The tracer wraps its targets by name; a renamed one would drop out of
    ``--trace 1`` without an error."""
    for module_name, attr, _, _ in _tracer().TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            assert inspect.isfunction(vars(getattr(module, cls_name))[method]), attr
        else:
            assert inspect.isfunction(getattr(module, attr)), attr
