"""JSON text of the reports, written without the pure-Python encoder.

`json.dumps(obj, sort_keys=True, indent=2)` falls back to json's
pure-Python encoder whenever `indent` is set, and a many-groups report
holds m² test results of a dozen scalars each. `dumps` writes the same
bytes with one recursive function that encodes the scalar members of a
container inline: strings by json's own C `encode_basestring_ascii`,
floats by `float.__repr__` with json's NaN and Infinity spellings, ints
by `int.__repr__`, and the literals true, false and null.
"""

from json.encoder import encode_basestring_ascii as _string

__all__ = ["dumps"]

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


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
    elif isinstance(value, str):
        out(_string(value))
    elif isinstance(value, int):
        out(int.__repr__(value))
    elif isinstance(value, float):
        out(_float(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} "
                        f"is not JSON serializable")


def dumps(obj):
    """The text of `json.dumps(obj, sort_keys=True, indent=2)`, byte for
    byte, for a tree of dicts, lists, tuples, str, int, float (NaN and
    ±inf included), bool and None.

    Dict keys must be str, which is all the reports use: json.dumps
    would write an int, float, bool or None key as a string, but this
    writer raises TypeError. Any other value (an np.int64, a set) raises
    TypeError, as json.dumps does, and float subclasses such as
    np.float64 are written as floats, as json.dumps writes them.
    """
    parts = []
    _encode(obj, "\n", parts.append, _Keys())
    return "".join(parts)
