"""JSON text of the reports, written without the pure-Python encoder.

`json.dumps(obj, sort_keys=True, indent=2)` falls back to json's
pure-Python encoder whenever `indent` is set, and a many-groups report
holds m² test results of a dozen scalars each. `dumps` writes the same
bytes with one recursive function that encodes the scalar members of a
container inline: strings by json's own C `encode_basestring_ascii`,
floats by `float.__repr__` with json's NaN and Infinity spellings, ints
by `int.__repr__`, and the literals true, false and null.

A list of flat records with the same keys, such as a report's test
results, can be passed as one `Records(keys, rows)` leaf instead of a
list of dicts. `dumps` writes it as that list of dicts, but builds the
text of one record, keys and indent included, once per call as a
%-format frame, and fills it from each row's encoded values.

`number` is the reports' one rule for a numeric member: NaN (an
undefined value) is written as null.
"""

import math
from json.encoder import encode_basestring_ascii as _string

__all__ = ["Records", "dumps", "number"]

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def number(value):
    """Float for JSON output; None and NaN become None."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return None
    return float(value)


def _float(value):
    """json's text of a float, float subclasses included."""
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


# Text of a value by its exact type; a subclass (np.float64, an IntEnum)
# takes the isinstance path in `_encode`.
_SCALARS = {
    str: _string,
    float: _float,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


class Records:
    """A list of dicts that share `keys`, held as one value tuple per
    dict: `rows[i][j]` is the value of `keys[j]` in dict i. Keys are
    distinct str, in any order; values are anything `dumps` accepts."""

    __slots__ = ("keys", "rows")

    def __init__(self, keys, rows):
        self.keys = tuple(keys)
        self.rows = rows


class _Keys(dict):
    """Encoded `"key": ` prefixes, made once per key within one call.
    A key that is not a str raises TypeError from the string encoder."""

    def __missing__(self, key):
        text = self[key] = _string(key) + ": "
        return text


def _encode(value, newline, out, keys):
    """Append the text of `value` to `out`; nested lines start with
    `newline` and two more spaces."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        out(scalar(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out("[]")
            return
        inner = newline + "  "
        sep, later = "[" + inner, "," + inner
        for item in value:
            scalar = _SCALARS.get(type(item))
            if scalar is not None:
                out(sep + scalar(item))
            else:
                out(sep)
                _encode(item, inner, out, keys)
            sep = later
        out(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out("{}")
            return
        inner = newline + "  "
        sep, later = "{" + inner, "," + inner
        for key in sorted(value):
            item = value[key]
            scalar = _SCALARS.get(type(item))
            if scalar is not None:
                out(sep + keys[key] + scalar(item))
            else:
                out(sep + keys[key])
                _encode(item, inner, out, keys)
            sep = later
        out(newline + "}")
    elif type(value) is Records:
        _records(value, newline, out, keys)
    elif isinstance(value, str):
        out(_string(value))
    elif isinstance(value, int):
        out(int.__repr__(value))
    elif isinstance(value, float):
        out(_float(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} "
                        f"is not JSON serializable")


def _records(value, newline, out, keys):
    """Append the text of a `Records` leaf, one frame fill per row."""
    rows = value.rows
    if not rows:
        out("[]")
        return
    inner = newline + "  "
    field = inner + "  "
    order = sorted(range(len(value.keys)), key=value.keys.__getitem__)
    body = ",".join(field + keys[value.keys[j]].replace("%", "%%") + "%s"
                    for j in order)
    body = "{" + body + inner + "}" if body else "{}"
    first, later = "[" + inner + body, "," + inner + body

    def other(item):
        parts = []
        _encode(item, field, parts.append, keys)
        return "".join(parts)

    if order != sorted(order):
        rows = ([row[j] for j in order] for row in rows)
    get = _SCALARS.get
    for row in rows:
        out(first % tuple([get(type(item), other)(item) for item in row]))
        first = later
    out(newline + "]")


def dumps(obj):
    """The text of `json.dumps(obj, sort_keys=True, indent=2)`, byte for
    byte, for a tree of dicts, lists, tuples, str, int, float (NaN and
    ±inf included), bool and None.

    Dict keys must be str, which is all the reports use: json.dumps
    would write an int, float, bool or None key as a string, but this
    writer raises TypeError. Any other value (an np.int64, a set) raises
    TypeError, as json.dumps does, and float subclasses such as
    np.float64 are written as floats, as json.dumps writes them. A
    `Records` leaf is written as its list of dicts.
    """
    parts = []
    _encode(obj, "\n", parts.append, _Keys())
    return "".join(parts)
