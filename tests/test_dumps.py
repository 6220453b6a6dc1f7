"""``jsonio.dumps`` against the ``json`` module it stands in for.

Every byte the command line writes comes from ``jsonio.dumps``; the contract
is ``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``, errors included.
"""

import gc
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from hpk import jsonio
from hpk.groups import GroupTable
from hpk.two_groupoids import TwoGroupoid, nerve


def reference(value):
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def outcome(encode, value):
    try:
        return encode(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def distinct_copy(s):
    """A string equal to ``s`` that is another object when ``s`` has two or more characters."""
    return "".join(list(s))


CHARACTERS = st.one_of(
    st.characters(),
    st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),  # lone surrogates
    st.characters(min_codepoint=0x10000),  # astral
    st.sampled_from(['"', "\\", "/", "\x00", "\b", "\t", "\n", "\x1f", "\x7f", "é", " "]),
)
STRINGS = st.text(CHARACTERS, max_size=12)
INTS = st.one_of(st.integers(-1000, 1000), st.integers(-(10**300), 10**300))
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, -1e-300, 5e-324]),
)


# one pool of strings per example, drawn from as the same objects and as equal copies
POOL = st.shared(st.lists(STRINGS, min_size=1, max_size=5), key="pool")
SHARED = POOL.flatmap(st.sampled_from)
TEXTS = st.one_of(SHARED, SHARED.map(distinct_copy), STRINGS)


def containers(children):
    # each dict has keys of one kind: sorting mixed kinds is a TypeError
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXTS, children, max_size=4),
        st.dictionaries(st.one_of(INTS, st.booleans()), children, max_size=4),
        st.dictionaries(FLOATS, children, max_size=3),
        st.dictionaries(st.none(), children, max_size=1),
    )


# nested lists, tuples and dicts over strings, ints, bools, floats and None
PAYLOADS = st.recursive(
    st.one_of(TEXTS, INTS, st.booleans(), FLOATS, st.none()), containers, max_leaves=20
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(PAYLOADS)
@example("")
@example([])
@example({})
@example(())
@example({"a": [], "b": {}, "c": ()})
@example([math.nan, math.inf, -math.inf, -0.0, 1e300, 10**400 // 10**100, -(10**50), True, False, None])
@example({math.nan: 1, math.inf: 2, -0.0: 3, 1e300: 4})
@example({True: "t", 2: "two", -(10**30): "n"})
@example({None: ["\ud800", "\udfff", "\U0001f600", '"\\\x00\x1f']})
def test_dumps_matches_json(value):
    assert outcome(jsonio.dumps, value) == outcome(reference, value)


@pytest.mark.parametrize(
    "value",
    [{1, 2}, {"a": [1, {2}]}, [frozenset()], {"k": object()}, b"bytes"],
)
def test_unserializable_value_raises_the_json_type_error(value):
    with pytest.raises(TypeError) as expected:
        reference(value)
    with pytest.raises(TypeError) as got:
        jsonio.dumps(value)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("value", [{"a": 1, 2: 3}, {None: 1, "b": 2}, {(1, 2): 3}])
def test_mixed_or_unsupported_keys_raise_type_error(value):
    with pytest.raises(TypeError) as expected:
        reference(value)
    with pytest.raises(TypeError) as got:
        jsonio.dumps(value)
    assert str(got.value) == str(expected.value)


def test_dumps_leaves_no_cyclic_garbage():
    # a recursive closure would hold itself, and with it the escape memo and the
    # chunk list of a multi-megabyte output, until the next cyclic collection
    payload = nerve(TwoGroupoid.one_object_with_pi2(GroupTable.cyclic(3)), 4).to_json()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        out = jsonio.dumps(payload)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert out == reference(payload)
