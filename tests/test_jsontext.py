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


@pytest.mark.parametrize("key", [1, 1.5, 0.0, True, None])
def test_writer_accepts_only_str_keys(key):
    with pytest.raises(TypeError):
        dumps({key: 0})


# Records: a list of flat dicts with shared keys, held as one value list
# per key and written column by column.
RECORD_KEYS = st.lists(st.one_of(STRINGS, st.sampled_from(["%", "%s", "%%"])),
                       unique=True, max_size=6)
DETAILS = st.one_of(st.just({}),
                    st.dictionaries(STRINGS, st.integers(), max_size=3),
                    st.dictionaries(STRINGS, STRINGS, max_size=3),
                    st.dictionaries(STRINGS, FLOATS, max_size=3),
                    st.dictionaries(STRINGS, SCALARS, max_size=3),
                    st.dictionaries(STRINGS, st.lists(SCALARS, max_size=2),
                                    max_size=2))
RECORD_VALUES = st.one_of(
    SCALARS, DETAILS, st.lists(SCALARS, max_size=2),
    st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, None, float("nan"),
                     float("inf"), -float("inf")]))
# A column's values drawn from one of these pools, so that a memo meets
# equal values: scalars, details, or anything.
POOLS = st.one_of(st.lists(SCALARS, min_size=1, max_size=3),
                  st.lists(DETAILS, min_size=1, max_size=3),
                  st.lists(RECORD_VALUES, min_size=1, max_size=3))


def _as_dicts(tree):
    """The tree with every Records leaf replaced by its list of dicts."""
    if isinstance(tree, Records):
        return [dict(zip(tree.keys, row)) for row in zip(*tree.columns)]
    if isinstance(tree, dict):
        return {k: _as_dicts(v) for k, v in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [_as_dicts(v) for v in tree]
    return tree


@st.composite
def record_trees(draw):
    keys = draw(RECORD_KEYS)
    rows = draw(st.integers(0, 6))
    columns = [draw(st.lists(st.sampled_from(draw(POOLS)), min_size=rows,
                             max_size=rows)) for _ in keys]
    tree = Records(keys, columns)
    for _ in range(draw(st.integers(0, 3))):
        siblings = draw(st.lists(SCALARS, max_size=2))
        if draw(st.booleans()):
            at = draw(st.integers(0, len(siblings)))
            tree = siblings[:at] + [tree] + siblings[at:]
        else:
            tree = {draw(STRINGS): tree,
                    **{f"{k}\u2603": v for k, v in enumerate(siblings)}}
    return tree


NAN = float("nan")


@given(record_trees())
@example(Records(["n"], [[1, 1.0, True, 0.0, -0.0, 0]]))
@example({"results": Records(["b", "a"], [[], []])})
@example([Records([], [])])
@example({"r": Records(['"q"', "é", "%s"],
                       [[NAN, float("inf"), -float("inf")],
                        [None, -0.0, True], [{}, {"reps": 3}, {"re": "s"}]])})
@example({"x": [0, {"y": Records(["detail", "p"],
                                   [[{"b": 1, "c": 2}, {}, {"z": "\U0001F600"},
                                     {"a": -1}],
                                    [1.0, 1, True, np.float64(-0.0)]])}]})
# Memo cases: one NaN object repeated; both zeros among equal floats; the
# numbers 1 of every kind; np.str_ beside str; an unhashable value.
@example(Records(["nan"], [[NAN, NAN, NAN]]))
@example(Records(["z"], [[0.0, -0.0, np.float64(-0.0), 0.0, -0.0, 1.5, 1.5]]))
@example(Records(["one", "int"], [[1, 1.0, True, Level.HIGH, 1, True],
                                  [Level.LOW, -1, -1, Level.LOW, 2, 2]]))
@example(Records(["s"], [[np.str_("a"), "a", "a", np.str_("a"), "b"]]))
@example(Records(["list"], [[[1, 2], [1, 2], 3, [0.0], [-0.0]]]))
# Details: 1, True and 1.0 in one column; the two zeros; an unhashable
# value; and each kind on its own.
@example(Records(["detail"], [[{"b": 1}, {"b": True}, {"b": 1.0}, {"b": 1},
                               {"b": True}]]))
@example(Records(["detail"], [[{"b": 0.0}, {"b": -0.0}, {"b": 0.0}]]))
@example(Records(["detail"], [[{"b": [1]}, {"b": [1]}, {"b": 2}]]))
@example(Records(["detail"], [[{"b": 2, "c": 3}, {"c": 3, "b": 2},
                               {"b": 2, "c": 3}, {"reason": "small"}]]))
@example(Records(["detail"], [[{"b": 1.5}, {"b": -0.5}, {"b": 1.5},
                               {"b": NAN}, {"b": NAN}]]))
def test_records_write_their_list_of_dicts(tree):
    assert dumps(tree) == _reference(_as_dicts(tree))


def test_records_of_unequal_columns_are_refused():
    with pytest.raises(ValueError):
        dumps(Records(["a", "b"], [[1, 2], [1]]))
