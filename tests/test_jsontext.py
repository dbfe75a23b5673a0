"""The report JSON writer against json.dumps(sort_keys=True, indent=2)."""

import json
from enum import IntEnum

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fairuse._jsontext import Records, dumps

_SPECIAL_STRINGS = ['"', "\\", '\\"', "\x00\x01\x1f\x7f", "\n\r\t\b\f",
                    "é", " ", "\U0001F600", ""]
STRINGS = st.one_of(st.text(), st.sampled_from(_SPECIAL_STRINGS))
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0,
                     1e16, 5e-324, 1.0000000000000009]))


class Level(IntEnum):
    LOW = -1
    HIGH = 2 ** 70


# np.str_ and an IntEnum take the str and int subclass branches: json
# writes them as their str and int values.
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-2 ** 200, max_value=2 ** 200), FLOATS,
    FLOATS.map(np.float64), STRINGS, STRINGS.map(np.str_),
    st.sampled_from(Level))


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
@example([np.str_('a"é'), Level.HIGH, {"k": Level.LOW, "s": np.str_("")}])
@example(np.str_("top"))
@example(Level.LOW)
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


# Records: a list of flat dicts with shared keys, written through one frame.
RECORD_KEYS = st.lists(st.one_of(STRINGS, st.sampled_from(["%", "%s", "%%"])),
                       unique=True, max_size=6)
DETAILS = st.one_of(st.just({}),
                    st.dictionaries(STRINGS, st.integers(), max_size=3),
                    st.dictionaries(STRINGS, STRINGS, max_size=3))
RECORD_VALUES = st.one_of(
    SCALARS, DETAILS,
    st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, None, float("nan"),
                     float("inf"), -float("inf")]))


def _as_dicts(tree):
    """The tree with every Records leaf replaced by its list of dicts."""
    if isinstance(tree, Records):
        return [dict(zip(tree.keys, row)) for row in tree.rows]
    if isinstance(tree, dict):
        return {k: _as_dicts(v) for k, v in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [_as_dicts(v) for v in tree]
    return tree


@st.composite
def record_trees(draw):
    keys = draw(RECORD_KEYS)
    rows = draw(st.lists(st.tuples(*[RECORD_VALUES] * len(keys)),
                         max_size=5))
    tree = Records(keys, rows)
    for _ in range(draw(st.integers(0, 3))):
        siblings = draw(st.lists(SCALARS, max_size=2))
        if draw(st.booleans()):
            at = draw(st.integers(0, len(siblings)))
            tree = siblings[:at] + [tree] + siblings[at:]
        else:
            tree = {draw(STRINGS): tree,
                    **{f"{k}\u2603": v for k, v in enumerate(siblings)}}
    return tree


@given(record_trees())
@example(Records(["n"], [(1,), (1.0,), (True,), (0.0,), (-0.0,), (0,)]))
@example({"results": Records(["b", "a"], [])})
@example([Records([], [(), ()])])
@example({"r": Records(['"q"', "é", "%s"],
                       [(float("nan"), None, {}),
                        (float("inf"), -0.0, {"reps": 3}),
                        (-float("inf"), True, {"reason": "small"})])})
@example({"x": [0, {"y": Records(["detail", "p"],
                                   [({"b": 1, "c": 2}, 1.0),
                                    ({}, 1), ({"z": "\U0001F600"}, True),
                                    ({"a": -1}, np.float64(-0.0))])}]})
def test_records_write_their_list_of_dicts(tree):
    assert dumps(tree) == _reference(_as_dicts(tree))
