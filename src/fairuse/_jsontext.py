"""JSON text of the reports, written without the pure-Python encoder.

`json.dumps(obj, sort_keys=True, indent=2)` falls back to json's
pure-Python encoder whenever `indent` is set, and a many-groups report
holds m² test results of a dozen scalars each. `dumps` writes the same
bytes with one recursive function that encodes the scalar members of a
container inline: strings by json's own C `encode_basestring_ascii`,
floats by `float.__repr__` with json's NaN and Infinity spellings, ints
by `int.__repr__`, and the literals true, false and null.

Within one call each distinct str, int and float is encoded once and
its text kept in a memo (`_Texts`); a float zero is encoded each time,
since -0.0 == 0.0 but their texts differ.

A list of flat records with the same keys, such as a report's test
results, can be passed as one `Records(keys, columns)` leaf instead of
a list of dicts: one value list per key. `dumps` writes it as that list
of dicts: it joins each record's text from the keys' text and the texts
of its values, read column by column, and writes it. A column of one
exact scalar type is read through that type's memo. A column of
scalars that does not mix two of bool, int and float, such as np.str_
beside str, keeps a memo of its own. A column of dicts whose values
together pass the same test, such as the results' `detail`, keeps a
memo keyed by each dict's items. Any other column is encoded value by
value.

`number` is the reports' one rule for a numeric member: NaN (an
undefined value) is written as null.
"""

import math
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _string

__all__ = ["Records", "dumps", "number", "numbers"]

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def number(value):
    """Float for JSON output; None and NaN become None."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return None
    return float(value)


def numbers(values):
    """`number` of each of `values`, a list. A list of floats and None
    without NaN, which `number` leaves as they are, is returned itself."""
    if (set(map(type, values)) <= {float, type(None)}
            and not any(map(math.isnan, filter(None, values)))):
        return values
    return list(map(number, values))


def _float(value):
    """json's text of a float, float subclasses included."""
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


class Records:
    """A list of dicts that share `keys`, held as one value list per key:
    `columns[j][i]` is the value of `keys[j]` in dict i, and every column
    has the same length. Keys are distinct str, in any order; values are
    anything `dumps` accepts. With no keys there are no dicts."""

    __slots__ = ("keys", "columns")

    def __init__(self, keys, columns):
        self.keys = tuple(keys)
        self.columns = columns


class _Texts(dict):
    """Text of each value, made by `encode` on first use and kept. A
    float zero is not kept: -0.0 == 0.0, but their texts differ."""

    __slots__ = ("encode",)

    def __init__(self, encode):
        super().__init__()
        self.encode = encode

    def __missing__(self, value):
        text = self.encode(value)
        if value or not isinstance(value, float):
            self[value] = text
        return text


def _scalars():
    """The text function of each exact scalar type for one call; str,
    int and float texts are kept. A subclass (np.float64, an IntEnum)
    takes the isinstance path in `_encode`."""
    return {str: _Texts(_string).__getitem__,
            int: _Texts(int.__repr__).__getitem__,
            float: _Texts(_float).__getitem__,
            bool: {True: "true", False: "false"}.__getitem__,
            type(None): {None: "null"}.__getitem__}


def _encode(value, newline, out, keys, scalars):
    """Append the text of `value` to `out`; nested lines start with
    `newline` and two more spaces. `scalars` maps an exact scalar type
    to its text function."""
    scalar = scalars.get(type(value))
    if scalar is not None:
        out(scalar(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out("[]")
            return
        inner = newline + "  "
        sep, later = "[" + inner, "," + inner
        for item in value:
            scalar = scalars.get(type(item))
            if scalar is not None:
                out(sep + scalar(item))
            else:
                out(sep)
                _encode(item, inner, out, keys, scalars)
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
            scalar = scalars.get(type(item))
            if scalar is not None:
                out(sep + keys[key] + scalar(item))
            else:
                out(sep + keys[key])
                _encode(item, inner, out, keys, scalars)
            sep = later
        out(newline + "}")
    elif type(value) is Records:
        _records(value, newline, out, keys, scalars)
    elif isinstance(value, str):
        out(_string(value))
    elif isinstance(value, int):
        out(int.__repr__(value))
    elif isinstance(value, float):
        out(_float(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} "
                        f"is not JSON serializable")


# The scalar kinds a memo may key: equal values of one kind write the
# same text, save the float zeros.
_KINDS = (bool, int, float, str, type(None))
_NUMBERS = {bool, int, float}


def _kind(cls):
    """The first of _KINDS that `cls` is a subclass of, else None."""
    return next((kind for kind in _KINDS if issubclass(cls, kind)), None)


def _kinds(types):
    """The kinds of values of `types` when a memo may key them, else
    None: each is a scalar of _KINDS, and no two of bool, int and float
    mix."""
    kinds = set(map(_kind, types))
    if None in kinds or len(kinds & _NUMBERS) > 1:
        return None
    return kinds


def _column(column, field, keys, scalars):
    """An iterator over the text of each value of one `Records` column,
    nested lines starting with `field`.

    A column of one exact scalar type is read through that type's
    function in `scalars`. Another column of scalars that `_kinds`
    accepts is read through a memo of its own. A column of dicts whose
    values, taken together, `_kinds` accepts and hold no float zero, is
    read through a memo keyed by each dict's items. Any other column is
    encoded value by value."""

    def encode(value):
        scalar = scalars.get(type(value))
        if scalar is not None:
            return scalar(value)
        parts = []
        _encode(value, field, parts.append, keys, scalars)
        return "".join(parts)

    types = set(map(type, column))
    if len(types) == 1 and types <= scalars.keys():
        return map(scalars[types.pop()], column)
    if types == {dict}:
        values = list(chain.from_iterable(map(dict.values, column)))
        kinds = _kinds(set(map(type, values)))
        if kinds is not None and not (float in kinds and 0.0 in values):
            texts = _Texts(lambda items: encode(dict(items)))
            return map(texts.__getitem__, map(tuple, map(dict.items, column)))
    elif _kinds(types) is not None:
        return map(_Texts(encode).__getitem__, column)
    return map(encode, column)


def _records(value, newline, out, keys, scalars):
    """Append the text of a `Records` leaf: each row joined from its
    columns' texts and the keys' text."""
    columns = value.columns
    if len(set(map(len, columns))) > 1:
        raise ValueError("Records columns differ in length")
    if not columns or not len(columns[0]):
        out("[]")
        return
    inner = newline + "  "
    field = inner + "  "
    parts = [chain(["[" + inner], repeat("," + inner))]
    for n, key in enumerate(sorted(range(len(value.keys)),
                                   key=value.keys.__getitem__)):
        parts.append(repeat(("," if n else "{") + field
                            + keys[value.keys[key]]))
        parts.append(_column(columns[key], field, keys, scalars))
    parts.append(repeat(inner + "}"))
    for text in map("".join, zip(*parts)):
        out(text)
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
    `Records` leaf is written as its list of dicts; its columns must
    have one length, or it raises ValueError.
    """
    parts = []
    # Encoded `"key": ` prefixes; a key that is not a str raises
    # TypeError from the string encoder.
    keys = _Texts(lambda key: _string(key) + ": ")
    _encode(obj, "\n", parts.append, keys, _scalars())
    return "".join(parts)
