"""The report JSON writer against json.dumps(sort_keys=True, indent=2)."""

import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fairuse._jsontext import dumps

_SPECIAL_STRINGS = ['"', "\\", '\\"', "\x00\x01\x1f\x7f", "\n\r\t\b\f",
                    "é", " ", "\U0001F600", ""]
STRINGS = st.one_of(st.text(), st.sampled_from(_SPECIAL_STRINGS))
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0,
                     1e16, 5e-324, 1.0000000000000009]))
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-2 ** 200, max_value=2 ** 200), FLOATS,
    FLOATS.map(np.float64), STRINGS)


def _containers(children):
    return st.one_of(st.lists(children, max_size=5),
                     st.lists(children, max_size=5).map(tuple),
                     st.dictionaries(STRINGS, children, max_size=5))


TREES = st.recursive(SCALARS, _containers, max_leaves=25)
# Values json.dumps rejects, mixed in among the accepted ones.
UNSERIALIZABLE = st.sampled_from([np.int64(3), np.bool_(True),
                                  np.float32(0.5), {1, 2}, b"bytes",
                                  object()])
MIXED_TREES = st.recursive(st.one_of(SCALARS, UNSERIALIZABLE), _containers,
                           max_leaves=20)


def _reference(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


@given(TREES)
@example({})
@example([])
@example(())
@example({"a": [], "b": {}, "c": ()})
@example([True, 1, False, 0, None, 1.0])
def test_writer_equals_json_dumps_byte_for_byte(tree):
    assert dumps(tree) == _reference(tree)


def _outcome(write, tree):
    try:
        return write(tree)
    except TypeError:
        return TypeError


@given(MIXED_TREES)
@example({"x": [1, np.int64(2)]})
@example({"x": {3}})
def test_writer_raises_type_error_where_json_dumps_does(tree):
    assert _outcome(dumps, tree) == _outcome(_reference, tree)


@pytest.mark.parametrize("key", [1, 1.5, True, None])
def test_writer_accepts_only_str_keys(key):
    with pytest.raises(TypeError):
        dumps({key: 0})
